"""Result digests and the golden correctness gate.

A cell's digest is a SHA-256 over ``result.stats`` without ``manifest.*``
keys (provenance and wall-clock timings, which change with the package
version and the host) and without zero-valued entries (a counter that is
never incremented may or may not be created), plus each core's measured
``total_cycles`` and the run's ``energy_total``.

``bench/golden.json`` maps seed -> cell id -> digest.  Cell ids carry
the trace length and the configuration, so changing a workload's size
makes its goldens missing rather than wrong.  For a seed without
goldens, the first digest seen for a cell is recorded in
``.bench_build/observed_digests.json`` (keyed by a hash of the source
tree) and every later result -- another pass, another process, the
traced pass -- must agree with it.
"""

import hashlib
import json
import os

from bench import BUILD_DIR, ROOT

GOLDEN_PATH = os.path.join(ROOT, "bench", "golden.json")
OBSERVED_PATH = os.path.join(BUILD_DIR, "observed_digests.json")


def result_digest(result):
    """SHA-256 hex digest of a :class:`~repro.sim.metrics.SimulationResult`."""
    body = {
        "stats": {
            key: value
            for key, value in result.stats.items()
            if not key.startswith("manifest.") and value != 0
        },
        "total_cycles": [core.runtime.total_cycles for core in result.cores],
        "energy_total": result.energy_total,
    }
    encoded = json.dumps(body, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def _load(path):
    try:
        with open(path) as stream:
            return json.load(stream)
    except FileNotFoundError:
        return None


def _write(path, payload):
    tmp = path + ".tmp"
    with open(tmp, "w") as stream:
        json.dump(payload, stream, indent=1, sort_keys=True)
        stream.write("\n")
    os.replace(tmp, path)


def load_golden():
    """seed (str) -> cell id -> digest."""
    payload = _load(GOLDEN_PATH)
    return payload["seeds"] if payload else {}


def write_golden(seed, digests):
    """Merge *digests* (cell id -> digest) into seed *seed*'s goldens."""
    payload = _load(GOLDEN_PATH) or {"seeds": {}}
    payload["seeds"].setdefault(str(seed), {}).update(digests)
    _write(GOLDEN_PATH, payload)


def source_hash():
    """Hash of every ``src/**/*.py`` file: observed digests are only
    comparable within one source tree."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    return digest.hexdigest()


class DigestCheck:
    """Decides the expected digest of each cell for one seed and counts
    the executions that disagree with it."""

    def __init__(self, seed):
        self.seed = str(seed)
        golden = load_golden()
        self.has_golden = self.seed in golden
        self.golden = golden.get(self.seed, {})
        self._source = None
        self._observed = {}
        if not self.has_golden:
            self._source = source_hash()
            stored = _load(OBSERVED_PATH)
            if stored and stored.get("source") == self._source:
                self._observed = stored.get("seeds", {}).get(self.seed, {})

    def expected(self, cell_id, first_seen):
        """Golden digest, else the recorded one, else *first_seen*."""
        if self.has_golden:
            return self.golden.get(cell_id)
        return self._observed.setdefault(cell_id, first_seen)

    def check(self, observations):
        """Count mismatches in *observations*: path -> cell id ->
        ``[[digest, count], ...]`` in first-seen order.  Returns
        ``(failed, problems)``; a cell with no golden digest under a
        golden seed fails every execution."""
        failed = 0
        problems = []
        for path, cells in observations.items():
            for cell_id, seen in cells.items():
                expected = self.expected(cell_id, seen[0][0])
                for digest, count in seen:
                    if digest == expected:
                        continue
                    failed += count
                    problems.append(
                        "%s %s: %d run(s) gave %s, expected %s"
                        % (path, cell_id, count, digest[:12],
                           expected[:12] if expected else "a golden digest")
                    )
        return failed, problems

    def save(self):
        """Persist digests first seen under a seed without goldens."""
        if self.has_golden:
            return
        stored = _load(OBSERVED_PATH)
        if not stored or stored.get("source") != self._source:
            stored = {"source": self._source, "seeds": {}}
        stored["seeds"][self.seed] = self._observed
        os.makedirs(BUILD_DIR, exist_ok=True)
        _write(OBSERVED_PATH, stored)
