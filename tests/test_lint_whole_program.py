"""Fixture-based self-tests for the whole-program rules SL010-SL014,
the call-graph engine underneath them, and the ``repro lint
--whole-program`` CLI surface.

Each rule gets a known-bad fixture project that must fire and a
known-good variant that must stay silent -- the static proof that the
interprocedural analysis catches what it claims and nothing else.
"""

import io
import os

from repro.cli import main as cli_main
from repro.lint import lint_paths
from repro.lint.engine import parse_module
from repro.lint.whole_program import (
    WHOLE_PROGRAM_RULE_CLASSES,
    build_whole_program_rules,
)
from repro.lint.whole_program.graph import FALLBACK_EXCLUDED
from repro.lint.whole_program.rules import WholeProgramAnalysis

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def write_project(tmp_path, files):
    """Write ``{relpath: source}`` under *tmp_path*; returns the root."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return str(tmp_path)


def wp_lint(tmp_path, files, only=None):
    """Lint a fixture project with the whole-program rules only."""
    root = write_project(tmp_path, files)
    rules = build_whole_program_rules()
    if only is not None:
        rules = [rule for rule in rules if rule.rule_id == only]
    return lint_paths([root], rules=rules)


def analysis_for(tmp_path, files):
    root = write_project(tmp_path, files)
    modules = []
    for dirpath, _, filenames in os.walk(root):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                module = parse_module(os.path.join(dirpath, filename))
                if module is not None:
                    modules.append(module)
    return WholeProgramAnalysis(modules)


def rule_ids(findings):
    return sorted({finding.rule_id for finding in findings})


# ----------------------------------------------------------------------
# SL010 worker-boundary-picklability


def test_sl010_fires_on_lambda_target_and_args(tmp_path):
    findings = wp_lint(
        tmp_path,
        {
            "repro/exec/snippet.py": (
                "import multiprocessing as mp\n"
                "def launch():\n"
                "    proc = mp.Process(target=lambda: 1, args=(lambda: 2,))\n"
                "    proc.start()\n"
            )
        },
        only="SL010",
    )
    assert rule_ids(findings) == ["SL010"]
    messages = " | ".join(finding.message for finding in findings)
    assert "lambda passed as Process target=" in messages
    assert "lambda inside Process args=" in messages


def test_sl010_fires_on_nested_function_and_module_mutable(tmp_path):
    findings = wp_lint(
        tmp_path,
        {
            "repro/exec/snippet.py": (
                "import multiprocessing as mp\n"
                "SHARED = {}\n"
                "def worker(x):\n"
                "    return x\n"
                "def launch():\n"
                "    def inner():\n"
                "        return 1\n"
                "    proc = mp.Process(target=inner, args=(SHARED,))\n"
                "    proc.start()\n"
            )
        },
        only="SL010",
    )
    messages = " | ".join(finding.message for finding in findings)
    assert "closures cannot be pickled" in messages
    assert "module-level mutable 'SHARED'" in messages


def test_sl010_good_boundary_is_silent(tmp_path):
    findings = wp_lint(
        tmp_path,
        {
            "repro/exec/snippet.py": (
                "import multiprocessing as mp\n"
                "def worker(payload):\n"
                "    return payload\n"
                "def launch(queue):\n"
                "    proc = mp.Process(target=worker, args=(1, 'x'))\n"
                "    proc.start()\n"
            )
        },
        only="SL010",
    )
    assert findings == []


# ----------------------------------------------------------------------
# SL011 worker-shared-state-mutation


def test_sl011_fires_on_module_state_mutation_below_worker(tmp_path):
    findings = wp_lint(
        tmp_path,
        {
            "repro/exec/snippet.py": (
                "import multiprocessing as mp\n"
                "TOTALS = {}\n"
                "def record(key):\n"
                "    TOTALS[key] = 1\n"
                "def worker(key):\n"
                "    record(key)\n"
                "def launch():\n"
                "    mp.Process(target=worker, args=('a',)).start()\n"
            )
        },
        only="SL011",
    )
    assert rule_ids(findings) == ["SL011"]
    assert "module-level state" in findings[0].message
    assert "reachable from worker entry point" in findings[0].message


def test_sl011_good_worker_is_silent(tmp_path):
    findings = wp_lint(
        tmp_path,
        {
            "repro/exec/snippet.py": (
                "import multiprocessing as mp\n"
                "def worker(key):\n"
                "    local = {}\n"
                "    local[key] = 1\n"
                "    return local\n"
                "def launch():\n"
                "    mp.Process(target=worker, args=('a',)).start()\n"
            )
        },
        only="SL011",
    )
    assert findings == []


def test_sl011_covers_pool_context_spawn(tmp_path):
    """The persistent pool spawns through ``get_context().Process``; the
    rules must resolve that spawn site's target as a worker root too."""
    findings = wp_lint(
        tmp_path,
        {
            "repro/exec/snippet.py": (
                "import multiprocessing\n"
                "DEATHS = {}\n"
                "def _pool_worker(worker_id, tasks, channel):\n"
                "    DEATHS[worker_id] = 1\n"
                "def execute_pooled():\n"
                "    ctx = multiprocessing.get_context()\n"
                "    proc = ctx.Process(target=_pool_worker, args=(0, 1, 2))\n"
                "    proc.start()\n"
            )
        },
        only="SL011",
    )
    assert rule_ids(findings) == ["SL011"]
    assert "reachable from worker entry point" in findings[0].message


# ----------------------------------------------------------------------
# SL012 interprocedural-cell-purity


def test_sl012_catches_cross_module_clock_read(tmp_path):
    """The seeded cross-module violation: simulate_cell -> helper module
    -> wall clock, caught by exactly SL012 and attributed to the helper."""
    findings = wp_lint(
        tmp_path,
        {
            "repro/exec/snippet.py": (
                "from repro.sim.helper import stamp\n"
                "def simulate_cell(cell):\n"
                "    return stamp(cell)\n"
            ),
            "repro/sim/helper.py": (
                "import time\n"
                "def stamp(cell):\n"
                "    return (cell, time.time())\n"
            ),
        },
    )
    assert rule_ids(findings) == ["SL012"]
    assert len(findings) == 1
    assert findings[0].path.endswith(os.path.join("repro", "sim", "helper.py"))
    assert "reads the wall clock" in findings[0].message
    assert "reachable from simulate_cell" in findings[0].message


def test_sl012_pure_chain_is_silent(tmp_path):
    findings = wp_lint(
        tmp_path,
        {
            "repro/exec/snippet.py": (
                "from repro.sim.helper import shape\n"
                "def simulate_cell(cell):\n"
                "    return shape(cell)\n"
            ),
            "repro/sim/helper.py": (
                "def shape(cell):\n"
                "    return sorted(set(str(cell)))\n"
            ),
        },
        only="SL012",
    )
    assert findings == []


def test_sl012_unreachable_impurity_is_silent(tmp_path):
    findings = wp_lint(
        tmp_path,
        {
            "repro/sim/snippet.py": (
                "import time\n"
                "def profiler_only():\n"
                "    return time.time()\n"
                "def simulate_cell(cell):\n"
                "    return cell\n"
            )
        },
        only="SL012",
    )
    assert findings == []


# ----------------------------------------------------------------------
# SL013 dead-stat-detection

STATS_PRELUDE = (
    "class StatGroup:\n"
    "    def __init__(self, name):\n"
    "        self.name = name\n"
    "    def counter(self, name):\n"
    "        return self\n"
    "    def counter_handle(self, name):\n"
    "        return self\n"
    "    def add(self, n=1):\n"
    "        pass\n"
)


def test_sl013_fires_on_created_never_incremented(tmp_path):
    findings = wp_lint(
        tmp_path,
        {
            "repro/sim/snippet.py": (
                STATS_PRELUDE + "class Sim:\n"
                "    def __init__(self):\n"
                "        self.stats = StatGroup('sim')\n"
                "        self.hits = self.stats.counter('hits')\n"
                "def main():\n"
                "    return Sim()\n"
            )
        },
        only="SL013",
    )
    assert any(
        "'hits'" in finding.message and "never incremented" in finding.message
        for finding in findings
    )


def test_sl013_fires_on_unregistered_group(tmp_path):
    findings = wp_lint(
        tmp_path,
        {
            "repro/sim/snippet.py": (
                STATS_PRELUDE + "class Sim:\n"
                "    def __init__(self):\n"
                "        self.stats = StatGroup('sim')\n"
                "        self.hits = self.stats.counter('hits')\n"
                "    def run(self):\n"
                "        self.hits.add()\n"
                "def main():\n"
                "    Sim().run()\n"
            )
        },
        only="SL013",
    )
    assert any(
        "never reach the exported metrics namespace" in finding.message
        for finding in findings
    )


def test_sl013_registered_and_incremented_is_silent(tmp_path):
    findings = wp_lint(
        tmp_path,
        {
            "repro/sim/snippet.py": (
                STATS_PRELUDE + "class Registry:\n"
                "    def __init__(self):\n"
                "        self.groups = []\n"
                "class Sim:\n"
                "    def __init__(self):\n"
                "        self.stats = StatGroup('sim')\n"
                "        self.hits = self.stats.counter('hits')\n"
                "    def run(self):\n"
                "        self.hits.add()\n"
                "def main():\n"
                "    sim = Sim()\n"
                "    sim.run()\n"
                "    registry = Registry()\n"
                "    registry.register(sim.stats)\n"
            )
        },
        only="SL013",
    )
    assert findings == []


def _handle_project(increment):
    return {
        "repro/sim/snippet.py": (
            STATS_PRELUDE + "class Registry:\n"
            "    def __init__(self):\n"
            "        self.groups = []\n"
            "class Sim:\n"
            "    def __init__(self):\n"
            "        self.stats = StatGroup('sim')\n"
            "        self._hits = self.stats.counter_handle('hits')\n"
            "    def run(self):\n"
            "        %s\n"
            "def main():\n"
            "    sim = Sim()\n"
            "    sim.run()\n"
            "    registry = Registry()\n"
            "    registry.register(sim.stats)\n" % increment
        )
    }


def test_sl013_fires_on_handle_bound_never_incremented(tmp_path):
    findings = wp_lint(tmp_path, _handle_project("pass"), only="SL013")
    assert any(
        "'hits'" in finding.message and "never incremented" in finding.message
        for finding in findings
    )


def test_sl013_incremented_handle_is_silent(tmp_path):
    findings = wp_lint(
        tmp_path, _handle_project("self._hits.value += 1"), only="SL013"
    )
    assert findings == []


def test_sl013_never_instantiated_class_is_exempt(tmp_path):
    findings = wp_lint(
        tmp_path,
        {
            "repro/sim/snippet.py": (
                STATS_PRELUDE + "class UnusedModel:\n"
                "    def __init__(self):\n"
                "        self.stats = StatGroup('unused')\n"
                "        self.hits = self.stats.counter('hits')\n"
            )
        },
        only="SL013",
    )
    assert findings == []


# ----------------------------------------------------------------------
# SL014 exception-context-completeness


def test_sl014_fires_on_contextless_raise_below_executor(tmp_path):
    findings = wp_lint(
        tmp_path,
        {
            "repro/sim/snippet.py": (
                "class ReproError(Exception):\n"
                "    pass\n"
                "class BoomError(ReproError):\n"
                "    pass\n"
                "def check(cell):\n"
                "    if cell is None:\n"
                "        raise BoomError('no cell')\n"
                "def simulate_cell(cell):\n"
                "    check(cell)\n"
            )
        },
        only="SL014",
    )
    assert rule_ids(findings) == ["SL014"]
    assert "raise BoomError(...) without context=" in findings[0].message


def test_sl014_context_and_non_repro_errors_are_silent(tmp_path):
    findings = wp_lint(
        tmp_path,
        {
            "repro/sim/snippet.py": (
                "class ReproError(Exception):\n"
                "    pass\n"
                "class BoomError(ReproError):\n"
                "    pass\n"
                "def check(cell):\n"
                "    if cell is None:\n"
                "        raise BoomError('no cell', context={'cell': cell})\n"
                "    if cell == 'nan':\n"
                "        raise ValueError('builtins are SL009 business')\n"
                "def simulate_cell(cell):\n"
                "    check(cell)\n"
            )
        },
        only="SL014",
    )
    assert findings == []


def test_sl014_unreachable_raise_is_silent(tmp_path):
    findings = wp_lint(
        tmp_path,
        {
            "repro/sim/snippet.py": (
                "class ReproError(Exception):\n"
                "    pass\n"
                "def offline_tool():\n"
                "    raise ReproError('not under the executor')\n"
                "def simulate_cell(cell):\n"
                "    return cell\n"
            )
        },
        only="SL014",
    )
    assert findings == []


# ----------------------------------------------------------------------
# Call-graph engine


def test_method_calls_resolve_through_instance_types(tmp_path):
    analysis = analysis_for(
        tmp_path,
        {
            "repro/sim/snippet.py": (
                "class Device:\n"
                "    def service(self):\n"
                "        return 1\n"
                "class Controller:\n"
                "    def __init__(self):\n"
                "        self.device = Device()\n"
                "    def step(self):\n"
                "        return self.device.service()\n"
                "def main():\n"
                "    Controller().step()\n"
            )
        },
    )
    edges = analysis.index.edges["repro.sim.snippet:Controller.step"]
    assert any(callee == "repro.sim.snippet:Device.service" for callee, _ in edges)


def test_import_cycles_terminate_and_resolve(tmp_path):
    analysis = analysis_for(
        tmp_path,
        {
            "repro/sim/alpha.py": (
                "from repro.sim.beta import pong\n"
                "def ping(n):\n"
                "    return pong(n)\n"
            ),
            "repro/sim/beta.py": (
                "from repro.sim.alpha import ping\n"
                "def pong(n):\n"
                "    if n:\n"
                "        return ping(n - 1)\n"
                "    return 0\n"
            ),
        },
    )
    assert any(
        callee == "repro.sim.beta:pong"
        for callee, _ in analysis.index.edges["repro.sim.alpha:ping"]
    )
    assert any(
        callee == "repro.sim.alpha:ping"
        for callee, _ in analysis.index.edges["repro.sim.beta:pong"]
    )


def test_dynamic_dispatch_falls_back_to_name_matching(tmp_path):
    analysis = analysis_for(
        tmp_path,
        {
            "repro/sim/snippet.py": (
                "class Fast:\n"
                "    def simulate_tick(self):\n"
                "        return 1\n"
                "class Slow:\n"
                "    def simulate_tick(self):\n"
                "        return 2\n"
                "def drive(model):\n"
                "    return model.simulate_tick()\n"
            )
        },
    )
    callees = {
        callee for callee, _ in analysis.index.edges["repro.sim.snippet:drive"]
    }
    assert "repro.sim.snippet:Fast.simulate_tick" in callees
    assert "repro.sim.snippet:Slow.simulate_tick" in callees


def test_generic_method_names_do_not_fan_out(tmp_path):
    assert "items" in FALLBACK_EXCLUDED
    assert "__init__" in FALLBACK_EXCLUDED
    analysis = analysis_for(
        tmp_path,
        {
            "repro/sim/snippet.py": (
                "class Table:\n"
                "    def items(self):\n"
                "        return []\n"
                "def drive(mapping):\n"
                "    return list(mapping.items())\n"
            )
        },
    )
    assert analysis.index.edges["repro.sim.snippet:drive"] == []


# ----------------------------------------------------------------------
# The gate: the shipped tree is clean under whole-program analysis.


def test_src_repro_is_whole_program_clean():
    findings = lint_paths([SRC_REPRO], rules=build_whole_program_rules())
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_every_whole_program_rule_has_metadata():
    seen = set()
    for cls in WHOLE_PROGRAM_RULE_CLASSES:
        assert cls.rule_id.startswith("SL") and len(cls.rule_id) == 5
        assert cls.rule_id not in seen
        seen.add(cls.rule_id)
        assert cls.severity in ("error", "warning")
        assert cls.rationale and cls.fixit and cls.name
    assert seen == {"SL010", "SL011", "SL012", "SL013", "SL014"}


# ----------------------------------------------------------------------
# CLI surface


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


def fixture_project(tmp_path):
    return write_project(
        tmp_path,
        {
            "repro/exec/snippet.py": (
                "import time\n"
                "def simulate_cell(cell):\n"
                "    return time.time()\n"
            )
        },
    )


def test_cli_whole_program_finds_and_exits_one(tmp_path):
    root = fixture_project(tmp_path)
    code, output = run_cli("lint", "--whole-program", root)
    assert code == 1
    assert "SL012" in output


def test_cli_bare_lint_defaults_to_whole_program():
    code, output = run_cli("lint")
    assert code == 0
    assert "no findings" in output


def test_cli_list_rules_includes_whole_program_set():
    code, output = run_cli("lint", "--list-rules")
    assert code == 0
    for rule_id in ("SL010", "SL011", "SL012", "SL013", "SL014"):
        assert rule_id in output
