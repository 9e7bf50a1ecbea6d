"""Cache-key completeness, tested at runtime.

``config_hash`` canonicalises ``dataclasses.asdict(SystemConfig)``, and
the executor's cell key hashes it together with the trace identity, the
package version and the payload schema.  This suite proves the key
misses nothing a result depends on:

* every dataclass in :mod:`repro.common.config` is frozen (a config
  cannot change after it was hashed), reachable from ``SystemConfig``,
  typed with JSON scalars or nested configs only, and free of public
  class attributes outside its fields (a bare ``KNOB = 7`` would steer
  the simulator without ever reaching ``dataclasses.asdict``);
* flipping any leaf field anywhere in the config tree changes
  ``config_hash`` and the executor cell key;
* ``SimCell.identity()`` has exactly the schema, package-version,
  config-hash, traces and seed components, and each one changes the
  cell key.

The single documented exception is ``num_cores``: :class:`SimCell`
normalizes it to ``len(workloads)`` (a 4-core config running one trace
IS the 1-core run), so it changes the config hash but not the cell key.
"""

import dataclasses
import typing

import pytest

import repro
from repro.common import config as config_module
from repro.common.config import SystemConfig, default_system_config
from repro.exec import cells
from repro.exec.cells import SimCell, trace_key
from repro.obs.manifest import config_hash

SCALAR_TYPES = (bool, int, float, str)

#: Every dataclass the config module defines.
CONFIG_CLASSES = sorted(
    (
        value
        for value in vars(config_module).values()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
        and value.__module__ == config_module.__name__
    ),
    key=lambda cls: cls.__name__,
)


def field_types(cls):
    """Field name -> resolved annotation of the config class *cls*."""
    hints = typing.get_type_hints(cls)
    return {field.name: hints[field.name] for field in dataclasses.fields(cls)}


def leaf_paths(config):
    """Every dotted path to a scalar leaf in the config tree."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            for sub in leaf_paths(value):
                yield "%s.%s" % (field.name, sub)
        else:
            yield field.name


def flip(value):
    """A different-but-same-type value (bool before int: bool is int)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.5
    if isinstance(value, str):
        return value + "x"
    raise TypeError("non-scalar leaf %r: the field-type test should have caught it" % (value,))


def flipped_at(config, path):
    """Copy of *config* with the leaf at dotted *path* flipped."""
    head, _, rest = path.partition(".")
    value = getattr(config, head)
    if rest:
        return dataclasses.replace(config, **{head: flipped_at(value, rest)})
    return dataclasses.replace(config, **{head: flip(value)})


BASE = default_system_config()
ALL_PATHS = sorted(leaf_paths(BASE))


def test_config_tree_is_nontrivial():
    # Sanity-check the walk itself: the tree has many leaves across
    # every sub-config, so the parametrized sweep below means something.
    assert len(ALL_PATHS) > 60
    assert any(path.startswith("tempo.") for path in ALL_PATHS)
    assert any(path.startswith("dram.subrows.") for path in ALL_PATHS)


@pytest.mark.parametrize("path", ALL_PATHS)
def test_every_leaf_field_feeds_config_hash(path):
    flipped = flipped_at(BASE, path)
    assert config_hash(flipped) != config_hash(BASE), (
        "flipping %s did not change config_hash" % path
    )


@pytest.mark.parametrize("path", ALL_PATHS)
def test_every_leaf_field_feeds_cell_key(path):
    base_key = SimCell("gups", BASE, length=100, seed=1).key()
    flipped_key = SimCell("gups", flipped_at(BASE, path), length=100, seed=1).key()
    if path == "num_cores":
        # The documented normalization: SimCell canonicalizes num_cores
        # to the workload count, so this flip must NOT split the cache.
        assert flipped_key == base_key
    else:
        assert flipped_key != base_key, (
            "flipping %s did not change the cell key" % path
        )


def test_trace_identity_feeds_cell_key():
    base = SimCell("gups", BASE, length=100, seed=1)
    assert SimCell("gups", BASE, length=101, seed=1).key() != base.key()
    assert SimCell("gups", BASE, length=100, seed=2).key() != base.key()
    assert SimCell("stream", BASE, length=100, seed=1).key() != base.key()
    assert SimCell(("gups", "stream"), BASE, length=100, seed=1).key() != base.key()
    # Mix order matters: core 0 running gups is not core 0 running stream.
    assert (
        SimCell(("gups", "stream"), BASE, length=100, seed=1).key()
        != SimCell(("stream", "gups"), BASE, length=100, seed=1).key()
    )


def test_cell_key_is_stable_and_deterministic():
    first = SimCell("gups", BASE, length=100, seed=1)
    second = SimCell("gups", default_system_config(), length=100, seed=1)
    assert first.key() == second.key()
    assert first.key() == first.key()  # cached path returns the same key


def test_trace_key_varies_in_all_inputs():
    base = trace_key("gups", 100, 1)
    assert trace_key("gups", 101, 1) != base
    assert trace_key("gups", 100, 2) != base
    assert trace_key("stream", 100, 1) != base


def test_flip_helper_changes_every_scalar_type():
    assert flip(True) is False and flip(False) is True
    assert flip(7) == 8
    assert flip(1.5) == 2.0
    assert flip("lru") == "lrux"
    with pytest.raises(TypeError):
        flip((1, 2))


def test_num_cores_flip_still_changes_config_hash():
    # The cell key ignores the flip (normalization), but the raw config
    # hash must still see it -- manifests record the config as given.
    flipped = flipped_at(BASE, "num_cores")
    assert config_hash(flipped) != config_hash(BASE)


def test_all_leaves_are_scalars():
    # The values match the declared types checked below.
    for path in ALL_PATHS:
        node = BASE
        for part in path.split("."):
            node = getattr(node, part)
        assert isinstance(node, SCALAR_TYPES), path


def test_config_classes_are_frozen():
    assert len(CONFIG_CLASSES) > 10
    for cls in CONFIG_CLASSES:
        assert cls.__dataclass_params__.frozen, cls.__name__


def test_writing_through_a_config_raises():
    config = default_system_config()
    tempo = config.tempo  # an alias is as frozen as the owner
    with pytest.raises(dataclasses.FrozenInstanceError):
        tempo.wait_cycles = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.num_cores = 4
    assert config_hash(config) == config_hash(BASE)


def test_every_config_class_is_reachable_from_system_config():
    # A config dataclass nothing references looks tunable but never
    # feeds config_hash or the cell key.
    reachable = set()
    frontier = [SystemConfig]
    while frontier:
        cls = frontier.pop()
        if cls not in reachable:
            reachable.add(cls)
            frontier.extend(
                kind for kind in field_types(cls).values() if dataclasses.is_dataclass(kind)
            )
    assert reachable == set(CONFIG_CLASSES)


def test_config_field_types_are_scalars_or_configs():
    # Tuples, sets and objects do not survive dataclasses.asdict plus
    # canonical JSON deterministically.
    for cls in CONFIG_CLASSES:
        for name, kind in field_types(cls).items():
            assert kind in SCALAR_TYPES or kind in CONFIG_CLASSES, (
                "%s.%s is typed %r" % (cls.__name__, name, kind)
            )


def test_config_classes_have_no_public_non_field_attributes():
    # An unannotated class attribute is not a dataclass field, so
    # dataclasses.asdict (and the cache key) never sees it.
    for cls in CONFIG_CLASSES:
        fields = {field.name for field in dataclasses.fields(cls)}
        for name, value in vars(cls).items():
            if name.startswith("_") or name in fields:
                continue
            assert callable(value) or isinstance(
                value, (property, classmethod, staticmethod)
            ), "%s.%s is a class attribute, not a field" % (cls.__name__, name)


def test_identity_has_exactly_the_key_components():
    identity = SimCell("gups", BASE, length=100, seed=1).identity()
    assert sorted(identity) == [
        "config_sha256",
        "package_version",
        "schema",
        "seed",
        "traces",
    ]


@pytest.mark.parametrize("component", ["schema", "package_version"])
def test_format_and_code_versions_feed_cell_key(component, monkeypatch):
    # The config, trace and seed components are covered by the leaf
    # flips and test_trace_identity_feeds_cell_key above.
    base = SimCell("gups", BASE, length=100, seed=1)
    base_identity, base_key = base.identity(), base.key()
    if component == "schema":
        monkeypatch.setattr(cells, "PAYLOAD_SCHEMA", cells.PAYLOAD_SCHEMA + 1)
    else:
        monkeypatch.setattr(repro, "__version__", repro.__version__ + "+changed")
    changed = SimCell("gups", BASE, length=100, seed=1)
    assert changed.identity()[component] != base_identity[component]
    assert changed.key() != base_key
