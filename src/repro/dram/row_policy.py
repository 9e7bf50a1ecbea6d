"""Row-buffer management policies (paper Secs. 4.3 and 6.3).

* **Open-row**: the accessed row stays latched until a conflicting access
  forces a precharge.  Wins when consecutive accesses share rows; loses a
  full precharge on every conflict.
* **Closed-row**: rows are written back immediately after each access
  (precharge off the critical path), so every access is a row *miss* but
  never a *conflict*.  Wins for poor-locality interleaved streams.
* **Adaptive**: a prediction cache (Awasthi et al. [17]; 2048-set 4-way)
  learns, per row, how long to keep it open.  Same-row arrivals after the
  predicted close grow the window; conflicts while open shrink it.

The policy object answers one question for the bank: *given an access to
``row`` finishing at ``access_end``, when should the row auto-close?*
(``None`` = never, i.e. leave open.)  Banks report transitions back so
the adaptive predictor can learn.
"""

from repro.common.errors import ConfigError
from repro.common.stats import StatGroup

#: Smallest adaptive keep-open window, cycles.
MIN_WINDOW = 25


class OpenRowPolicy:
    """Leave rows open until a conflict forces the precharge."""

    name = "open"

    def __init__(self, config=None):
        self.stats = StatGroup("row_policy.open")

    def close_time(self, row, access_end):
        return None

    def record_transition(self, prev_row, new_row, was_open):
        pass


class ClosedRowPolicy:
    """Precharge immediately after every access."""

    name = "closed"

    def __init__(self, config=None):
        self.stats = StatGroup("row_policy.closed")

    def close_time(self, row, access_end):
        return access_end

    def record_transition(self, prev_row, new_row, was_open):
        pass


class _PredictionCache:
    """Set-associative LRU cache of per-row keep-open windows."""

    def __init__(self, sets, ways, initial_window):
        self._set_mask = sets - 1
        self._ways = ways
        self._initial = initial_window
        self._sets = [dict() for _ in range(sets)]

    def window(self, row):
        entries = self._sets[row & self._set_mask]
        window = entries.pop(row, None)
        if window is None:
            return self._initial
        entries[row] = window
        return window

    def update(self, row, window):
        entries = self._sets[row & self._set_mask]
        entries.pop(row, None)
        if len(entries) >= self._ways:
            del entries[next(iter(entries))]
        entries[row] = window


class AdaptiveRowPolicy:
    """Prediction-cache driven open window (see module docstring)."""

    name = "adaptive"

    def __init__(self, config):
        if config is None:
            raise ConfigError(
                "AdaptiveRowPolicy needs a RowPolicyConfig",
                context={"policy": "adaptive"},
            )
        self.config = config
        self._cache = _PredictionCache(
            config.predictor_sets, config.predictor_ways, config.predictor_initial_window
        )
        self.stats = StatGroup("row_policy.adaptive")
        self._window_grown = self.stats.counter_handle("window_grown")
        self._window_shrunk = self.stats.counter_handle("window_shrunk")

    def close_time(self, row, access_end):
        return access_end + self._cache.window(row)

    def record_transition(self, prev_row, new_row, was_open):
        """Learn from what the next access found.

        * same row, already auto-closed -> the window was too short: a
          hit became a miss; double the window.
        * different row, still open -> the window was too long: the
          access pays a conflict; halve the window.
        * the two correct cases leave the prediction unchanged.
        """
        if prev_row is None:
            return
        window = self._cache.window(prev_row)
        if new_row == prev_row and not was_open:
            self._cache.update(prev_row, min(window * 2, self.config.predictor_max_window))
            self._window_grown.value += 1
        elif new_row != prev_row and was_open:
            self._cache.update(prev_row, max(window // 2, MIN_WINDOW))
            self._window_shrunk.value += 1


def make_row_policy(row_policy_config):
    """Instantiate the policy named by a RowPolicyConfig."""
    policy = row_policy_config.policy
    if policy == "open":
        return OpenRowPolicy(row_policy_config)
    if policy == "closed":
        return ClosedRowPolicy(row_policy_config)
    if policy == "adaptive":
        return AdaptiveRowPolicy(row_policy_config)
    raise ConfigError(
        "unknown row policy %r" % (policy,),
        context={"policy": policy, "known": ["open", "closed", "adaptive"]},
    )
