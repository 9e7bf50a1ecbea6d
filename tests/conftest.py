"""Shared fixtures for the TEMPO reproduction test suite."""

import pytest

from repro.common.config import default_system_config
from repro.common.rng import DeterministicRng
from repro.vm.frame_allocator import FrameAllocator


@pytest.fixture(autouse=True)
def private_cache_dir(tmp_path_factory, monkeypatch):
    """Point the default result cache at a fresh, empty directory.

    A test that runs ``repro experiment`` or ``repro report`` without
    ``--no-cache``/``--cache-dir`` would otherwise read and write the
    user's cache (``~/.cache/repro-tempo``) and, on a second run, be
    served from it.  Subprocesses inherit the variable.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache")))


@pytest.fixture
def config():
    """The default (Figure-9) machine, validated."""
    return default_system_config()


@pytest.fixture
def rng():
    return DeterministicRng(1234, "tests")


@pytest.fixture
def allocator(rng):
    """A 64 GB physical memory (lazy, so cheap)."""
    return FrameAllocator(64 * 1024 * 1024 * 1024, rng)


@pytest.fixture
def small_trace():
    """A short single-region trace touching a few hundred pages."""
    from repro.workloads.base import MB, TraceBuilder

    builder = TraceBuilder("fixture", seed=7)
    region = builder.region("data", 64 * MB)
    for index in range(600):
        builder.read(region.at(index * 4096 + 64), gap=2)
    return builder.build()
