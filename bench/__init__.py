"""The repository benchmark; run ``python3 -m bench`` from the repo root.

See ``bench/README.md`` for the workloads, metrics and layer map.
"""

import os

#: The repository root (the benchmark reads and writes nothing outside).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space for caches, reports and temporary files.
BUILD_DIR = os.path.join(ROOT, ".bench_build")
