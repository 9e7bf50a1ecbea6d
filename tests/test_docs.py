"""The docs honesty gate: every documented invocation must be real.

Documentation drifts: a flag gets renamed, a subcommand grows a new
required argument, and the README keeps showing the old spelling.  This
gate extracts every fenced ``console``/``bash`` code block from
README.md and ``docs/*.md``, finds each ``repro`` invocation (either
``python -m repro ...`` or a bare ``repro ...``), and parses it with the
real argument parser: an unknown subcommand or flag, a removed
``--format`` choice or a missing argument fails the gate.  Renaming a
CLI flag or dropping a choice without updating the docs fails CI here.
"""

import contextlib
import io
import os
import re
import shlex

from repro.cli import build_parser

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FENCE = re.compile(r"```(?:console|bash)\n(.*?)```", re.S)
LINK = re.compile(r"\[[^\]]*\]\(([^)#]+)(?:#[^)]*)?\)")


def _doc_paths():
    paths = [os.path.join(REPO_ROOT, "README.md")]
    docs_dir = os.path.join(REPO_ROOT, "docs")
    for name in sorted(os.listdir(docs_dir)):
        if name.endswith(".md"):
            paths.append(os.path.join(docs_dir, name))
    return paths


def _command_lines(text):
    """Command lines from every console/bash fence, one per invocation."""
    for block in FENCE.findall(text):
        block = block.replace("\\\n", " ")  # join shell line continuations
        for line in block.splitlines():
            line = line.strip()
            if line.startswith("$"):
                line = line[1:].strip()
            if not line or line.startswith("#"):
                continue
            for part in re.split(r"&&|\|\||;", line):
                part = part.strip()
                if part:
                    yield part


def _repro_argv(command):
    """The argv following the ``repro`` entry point, or ``None``."""
    try:
        tokens = shlex.split(command, comments=True)
    except ValueError:
        return None
    # Drop leading VAR=value environment assignments.
    while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
        tokens = tokens[1:]
    if len(tokens) >= 3 and tokens[0].startswith("python") and tokens[1] == "-m":
        if tokens[2] == "repro":
            return tokens[3:]
        return None
    if tokens and tokens[0] == "repro":
        return tokens[1:]
    return None


def _assert_invocation_parses(argv, parser, source):
    assert argv, "%s: empty repro invocation" % source
    errors = io.StringIO()
    try:
        with contextlib.redirect_stderr(errors):
            parser.parse_args(argv)
    except SystemExit as exc:
        assert not exc.code, "%s: `repro %s` does not parse: %s" % (
            source,
            shlex.join(argv),
            errors.getvalue().strip(),
        )


def test_every_documented_cli_invocation_is_real():
    parser = build_parser()
    checked = 0
    for path in _doc_paths():
        with open(path) as stream:
            text = stream.read()
        for command in _command_lines(text):
            argv = _repro_argv(command)
            if argv is None:
                continue
            _assert_invocation_parses(
                argv, parser, os.path.relpath(path, REPO_ROOT)
            )
            checked += 1
    # The gate must actually be biting: the README and docs pages carry
    # well over this many repro invocations between them.
    assert checked >= 10, "only %d repro invocations found in docs" % checked


def test_documented_relative_links_resolve():
    """Every relative markdown link in README/docs points at a file that
    exists (external http(s) links are out of scope)."""
    missing = []
    for path in _doc_paths():
        with open(path) as stream:
            text = stream.read()
        base = os.path.dirname(path)
        for target in LINK.findall(text):
            target = target.strip()
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if not os.path.exists(os.path.join(base, target)):
                missing.append(
                    "%s -> %s" % (os.path.relpath(path, REPO_ROOT), target)
                )
    assert not missing, "broken doc links: %s" % ", ".join(missing)
