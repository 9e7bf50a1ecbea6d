"""Fixture-based self-tests for every simlint rule, plus the
zero-findings gate over ``src/repro`` and the CLI surface.

Each rule gets one known-bad snippet that must fire and one known-good
snippet that must stay silent -- the static proof that the rule catches
what it claims and nothing else.
"""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.lint import ALL_RULES, RULES_BY_ID, lint_paths
from repro.lint.engine import module_name_for, parse_module

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def lint_snippet(tmp_path, source, relpath="repro/sim/snippet.py", only=None):
    """Write *source* under tmp_path/*relpath* and lint it; *only*
    restricts to one rule id."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    rules = [RULES_BY_ID[only]] if only else None
    return lint_paths([str(path)], rules=rules)


def rule_ids(findings):
    return sorted({finding.rule_id for finding in findings})


# ----------------------------------------------------------------------
# SL001 no-nondeterminism


def test_sl001_fires_on_time_random_and_set_iteration(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "import time\n"
        "import random\n"
        "from uuid import uuid4\n"
        "def f(items):\n"
        "    for x in set(items):\n"
        "        pass\n"
        "    for y in {1, 2}:\n"
        "        pass\n",
        only="SL001",
    )
    assert len(findings) == 5
    assert rule_ids(findings) == ["SL001"]


def test_sl001_tracks_locals_bound_to_sets(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "def f(items):\n"
        "    seen = set(items)\n"
        "    return [x for x in seen]\n",
        only="SL001",
    )
    assert len(findings) == 1


def test_sl001_good_code_is_silent(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "import bisect\n"
        "def f(items):\n"
        "    seen = set(items)\n"
        "    if 3 in seen:\n"
        "        return sorted(seen)\n"
        "    return [x for x in sorted(set(items))]\n",
        only="SL001",
    )
    assert findings == []


def test_sl001_fires_on_environment_and_cwd_reads(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "import os\n"
        "from os import getcwd\n"
        "def f():\n"
        "    home = os.environ.get('HOME')\n"
        "    return home, os.getenv('TZ'), os.getcwd()\n",
        only="SL001",
    )
    assert sorted(f.line for f in findings) == [2, 4, 5, 5]


def test_sl001_covers_common_and_verify_except_the_rng(tmp_path):
    for relpath in ("repro/common/helper.py", "repro/verify/helper.py"):
        findings = lint_snippet(tmp_path, "import time\n", relpath=relpath, only="SL001")
        assert rule_ids(findings) == ["SL001"], relpath
    findings = lint_snippet(
        tmp_path, "import random\n", relpath="repro/common/rng.py", only="SL001"
    )
    assert findings == []


def test_sl001_only_applies_to_timing_critical_packages(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "import time\n",
        relpath="repro/obs/profiling.py",
        only="SL001",
    )
    assert findings == []


# ----------------------------------------------------------------------
# SL004 stat-registration


def test_sl004_fires_on_direct_primitive_construction(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "from repro.common.stats import Counter, Histogram\n"
        "hits = Counter('hits')\n"
        "lat = Histogram('latency')\n",
        only="SL004",
    )
    assert len(findings) == 2


def test_sl004_group_factories_are_silent(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "from repro.common.stats import StatGroup\n"
        "stats = StatGroup('tlb')\n"
        "stats.counter('hits').add()\n"
        "stats.histogram('latency').record(3)\n"
        "misses = stats.counter_handle('misses')\n"
        "misses.value += 1\n"
        "stats.histogram_handle('steps').record(2)\n",
        only="SL004",
    )
    assert findings == []


# ----------------------------------------------------------------------
# SL006 no-float-cycles


def test_sl006_fires_on_division_and_float_literals(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "class Core:\n"
        "    def step(self, n):\n"
        "        self.total_cycles = n / 2\n"
        "        self.time += 1.5\n",
        only="SL006",
    )
    assert len(findings) == 2


def test_sl006_integer_arithmetic_is_silent(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "class Core:\n"
        "    def step(self, n):\n"
        "        self.total_cycles = n // 2\n"
        "        self.time += 3\n"
        "        ratio = self.time / 100\n",  # float result, non-cycle target
        only="SL006",
    )
    assert findings == []


def test_sl006_only_applies_to_timing_critical_packages(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "class Profiler:\n"
        "    def stop(self, started):\n"
        "        self.wall_time = 1.5\n",
        relpath="repro/obs/prof.py",
        only="SL006",
    )
    assert findings == []


# ----------------------------------------------------------------------
# SL007 no-print


def test_sl007_fires_in_library_code(tmp_path):
    findings = lint_snippet(
        tmp_path, "def f():\n    print('debug')\n", relpath="repro/dram/x.py", only="SL007"
    )
    assert len(findings) == 1


def test_sl007_fires_on_stdout_write_in_library_code(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "import sys\ndef f():\n    sys.stdout.write('chatter')\n",
        relpath="repro/obs/x.py",
        only="SL007",
    )
    assert len(findings) == 1
    assert "sys.stdout.write" in findings[0].message


def test_sl007_stderr_and_caller_streams_are_silent(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "import sys\n"
        "def f(out):\n"
        "    sys.stderr.write('progress\\n')\n"
        "    out.write('result\\n')\n",
        relpath="repro/obs/x.py",
        only="SL007",
    )
    assert findings == []


def test_sl007_per_file_audit_of_library_is_clean():
    """Per-file audit: no library module prints or writes to stdout.

    Runs SL007 over every file under ``src/repro`` individually so a
    regression names the exact offending module."""
    from repro.lint.engine import discover_files

    dirty = []
    for path in discover_files([SRC_REPRO]):
        findings = lint_paths([path], rules=[RULES_BY_ID["SL007"]])
        if findings:
            dirty.append((path, [f.message for f in findings]))
    assert dirty == []


def test_sl007_cli_is_exempt_and_docstrings_do_not_count(tmp_path):
    assert (
        lint_snippet(tmp_path, "print('usage')\n", relpath="repro/cli.py", only="SL007")
        == []
    )
    assert (
        lint_snippet(
            tmp_path,
            '"""Example::\n\n    print(x)\n"""\n',
            relpath="repro/dram/x.py",
            only="SL007",
        )
        == []
    )


# ----------------------------------------------------------------------
# SL008 no-mutable-defaults


def test_sl008_fires_on_mutable_defaults(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "def f(a=[], b={}, c=set(), d=dict()):\n    pass\n",
        only="SL008",
    )
    assert len(findings) == 4


def test_sl008_none_default_is_silent(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "def f(a=None, b=(), c='x', d=0):\n    pass\n",
        only="SL008",
    )
    assert findings == []


# ----------------------------------------------------------------------
# SL009 no-bare-exceptions


def test_sl009_fires_on_builtin_raises(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "def f(kind):\n"
        "    if kind == 'a':\n"
        "        raise ValueError('bad kind %r' % kind)\n"
        "    if kind == 'b':\n"
        "        raise Exception('boom')\n"
        "    raise AssertionError('unreachable')\n",
        relpath="repro/sched/snippet.py",
        only="SL009",
    )
    assert len(findings) == 3
    assert all(f.rule_id == "SL009" for f in findings)


def test_sl009_repro_errors_reraise_and_stubs_are_silent(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "from repro.common.errors import ConfigError, SimulationError\n"
        "def f(kind):\n"
        "    if kind is None:\n"
        "        raise ConfigError('no kind', context={'kind': kind})\n"
        "    try:\n"
        "        g()\n"
        "    except SimulationError:\n"
        "        raise\n"
        "def stub():\n"
        "    raise NotImplementedError\n",
        relpath="repro/sched/snippet.py",
        only="SL009",
    )
    assert findings == []


def test_sl009_only_applies_to_timing_critical_packages(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "def f():\n    raise ValueError('host-side code may use builtins')\n",
        relpath="repro/exec/snippet.py",
        only="SL009",
    )
    assert findings == []


# ----------------------------------------------------------------------
# SL014 exception-context

ERROR_CLASSES = (
    "class ReproError(Exception):\n"
    "    def __init__(self, message, context=None):\n"
    "        super().__init__(message)\n"
    "class ConfigError(ReproError):\n"
    "    pass\n"
    "class AllocationError(ConfigError):\n"
    "    pass\n"
)


def test_sl014_fires_on_repro_error_raises_without_context(tmp_path):
    findings = lint_snippet(
        tmp_path,
        ERROR_CLASSES + "def f(kind):\n"
        "    if kind == 'a':\n"
        "        raise ConfigError('bad kind %r' % kind)\n"
        "    if kind == 'b':\n"
        "        raise errors.AllocationError('no region')\n"
        "    raise ReproError\n",
        relpath="repro/exec/snippet.py",
        only="SL014",
    )
    assert [f.line for f in findings] == [10, 12, 13]


def test_sl014_context_builtins_and_reraises_are_silent(tmp_path):
    findings = lint_snippet(
        tmp_path,
        ERROR_CLASSES + "def f(kind):\n"
        "    if kind is None:\n"
        "        raise AllocationError('no kind', context={'kind': kind})\n"
        "    try:\n"
        "        g()\n"
        "    except ConfigError as exc:\n"
        "        raise exc\n"
        "    except ReproError:\n"
        "        raise\n"
        "    raise ValueError('host-side code may use builtins')\n",
        relpath="repro/exec/snippet.py",
        only="SL014",
    )
    assert findings == []


# ----------------------------------------------------------------------
# Engine behaviour


def test_inline_pragma_suppresses_single_rule(tmp_path):
    findings = lint_snippet(
        tmp_path,
        "def f():\n"
        "    print('one')  # simlint: disable=SL007\n"
        "    print('two')  # simlint: disable\n"
        "    print('three')\n",
        only="SL007",
    )
    assert len(findings) == 1
    assert findings[0].line == 4


def test_module_name_resolution():
    assert module_name_for(os.path.join("src", "repro", "sim", "system.py")) == (
        "repro.sim.system"
    )
    assert module_name_for(os.path.join("src", "repro", "sim", "__init__.py")) == (
        "repro.sim"
    )
    assert module_name_for("standalone.py") == "standalone"


def test_syntax_errors_are_skipped_not_crashed(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    assert parse_module(str(bad)) is None
    assert lint_paths([str(bad)]) == []


def test_every_rule_has_id_severity_rationale_and_fixit():
    seen = set()
    for rule in ALL_RULES:
        assert rule.rule_id.startswith("SL") and len(rule.rule_id) == 5
        assert rule.rule_id not in seen
        seen.add(rule.rule_id)
        assert rule.severity in ("error", "warning")
        assert rule.rationale and rule.fixit and rule.name


# ----------------------------------------------------------------------
# The gate itself: the shipped tree is clean.


def test_src_repro_has_zero_findings():
    findings = lint_paths([SRC_REPRO])
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


# ----------------------------------------------------------------------
# CLI surface


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


def test_cli_lint_clean_tree_exits_zero():
    code, output = run_cli("lint", SRC_REPRO)
    assert code == 0
    assert "no findings" in output


def test_cli_bare_lint_defaults_to_src_repro(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    code, output = run_cli("lint")
    assert code == 0
    assert "no findings" in output


def test_cli_lint_findings_exit_one_and_json(tmp_path):
    path = tmp_path / "repro" / "mmu" / "bad.py"
    path.parent.mkdir(parents=True)
    path.write_text("import random\n")
    code, output = run_cli("lint", str(path))
    assert code == 1
    assert "SL001" in output

    code, output = run_cli("lint", str(path), "--format", "json")
    assert code == 1
    payload = json.loads(output)
    assert payload["counts"]["error"] == 1
    assert payload["findings"][0]["rule"] == "SL001"

    code, output = run_cli("lint", str(path), "--disable", "SL001")
    assert code == 0


def test_cli_lint_rejects_unknown_rule_and_missing_path(tmp_path):
    code, output = run_cli("lint", "--disable", "SL999", str(tmp_path))
    assert code == 2 and "unknown rule" in output
    code, output = run_cli("lint", str(tmp_path / "missing"))
    assert code == 2 and "no such path" in output
    # A path holding no Python file must fail the gate, not pass it.
    notes = tmp_path / "notes.md"
    notes.write_text("# not python\n")
    for argv in ([str(tmp_path)], [str(notes)]):
        code, output = run_cli("lint", *argv)
        assert code == 2 and "no Python files under" in output


def test_cli_list_rules_mentions_every_rule():
    code, output = run_cli("lint", "--list-rules")
    assert code == 0
    for rule in ALL_RULES:
        assert rule.rule_id in output


# ----------------------------------------------------------------------
# The strict-typing gate, when the toolchain is present.


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_gate():
    process = subprocess.run(
        [shutil.which("mypy"), "--strict", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert process.returncode == 0, process.stdout + process.stderr
