"""Analytical energy model (paper Sec. 6.1, "Energy benefits").

Total energy = background (static) power x elapsed cycles
             + per-command dynamic energies.

The paper's TEMPO energy savings (1-14%) come from *shorter runtime
reducing static energy*, partially offset by the extra prefetch
activations and TEMPO's 3%-larger memory controller (charged as a small
static-power overhead when enabled).  This model reproduces exactly that
trade-off; units are arbitrary ("energy units") since only ratios are
reported.
"""

from repro.common.errors import SimulationError
from repro.common.stats import StatGroup
from repro.dram.bank import OUTCOME_CONFLICT, OUTCOME_HIT, OUTCOME_MISS


class EnergyModel:
    """Accumulates per-command energy; finalized with elapsed cycles."""

    def __init__(self, energy_config, tempo_enabled=False):
        energy_config.validate()
        self.config = energy_config
        self.tempo_enabled = tempo_enabled
        self.stats = StatGroup("energy")
        self._dram_accesses = self.stats.counter_handle("dram_accesses")
        self._prefetch_accesses = self.stats.counter_handle("prefetch_accesses")
        self._llc_fills = self.stats.counter_handle("llc_fills")
        self._dynamic = 0.0

    def record_dram_access(self, outcome, is_prefetch=False):
        """Charge one DRAM access by row-buffer outcome.

        Hits cost only the cheap row-buffer read; misses add an
        activation; conflicts add precharge + activation.
        """
        config = self.config
        if outcome == OUTCOME_HIT:
            energy = config.row_hit_read_energy
        elif outcome == OUTCOME_MISS:
            energy = config.array_read_energy + config.act_pre_energy
        elif outcome == OUTCOME_CONFLICT:
            energy = config.array_read_energy + 2 * config.act_pre_energy
        else:
            raise SimulationError(
                "unknown DRAM outcome %r" % (outcome,),
                context={"outcome": outcome, "is_prefetch": is_prefetch},
            )
        self._dynamic += energy
        self._dram_accesses.value += 1
        if is_prefetch:
            self._prefetch_accesses.value += 1

    def record_llc_fill(self):
        """Charge moving one line into the LLC (TEMPO step 7 / any fill)."""
        self._dynamic += self.config.llc_access_energy
        self._llc_fills.value += 1

    @property
    def dynamic_energy(self):
        return self._dynamic

    def background_energy(self, cycles):
        """Static energy over *cycles*, including TEMPO's area overhead."""
        power = self.config.background_power_per_kilocycle / 1000.0
        if self.tempo_enabled:
            power *= 1.0 + self.config.tempo_static_overhead
        return power * cycles

    def total_energy(self, cycles):
        return self.background_energy(cycles) + self._dynamic

    def reset(self):
        self._dynamic = 0.0
        self.stats.reset()
