"""One definition of "the same result" for tests that run a cell on two
execution paths (serial and pooled, fresh and cached, clean and retried,
plain and traced) and require bit-identical outcomes."""

from repro.exec.serialize import result_to_payload
from repro.obs.manifest import without_timing


def _comparable(result):
    payload = result_to_payload(result)
    payload["stats"] = without_timing(payload["stats"])
    return payload


def assert_identical(expected, actual):
    """Every slot of the two results, nested breakdowns included, is
    equal; the stats are compared without their host-timing keys."""
    assert _comparable(actual) == _comparable(expected)
