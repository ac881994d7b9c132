"""Documentation guards: link integrity, CLI coverage, runnable doctests.

Four rot detectors:

* every intra-repo Markdown link in README.md and docs/ resolves (same
  check as ``tools/check_docs.py`` and the docs CI job);
* every CLI flag of every ``repro`` subcommand is documented in
  ``docs/cli.md``, so the parser cannot grow options the docs don't know;
* the reverse: every flag in the ``docs/cli.md`` tables is accepted by the
  parser and every ``REPRO_*`` variable the docs name is read somewhere in
  ``src/repro/``, so the docs cannot keep options the code dropped;
* the doctest examples embedded in the ``repro.io`` (and registry)
  docstrings execute, so documented snippets can't rot.
"""

import doctest
import re
import sys
from pathlib import Path

import pytest

import repro.io
import repro.io.dlgp
import repro.io.tabular
import repro.workloads.registry
from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402  (repo tools/ is not a package)


def test_markdown_links_resolve():
    problems = check_docs.check_all(REPO_ROOT)
    assert not problems, "broken documentation links:\n" + "\n".join(problems)


def test_docs_pages_exist():
    for page in ("index", "architecture", "formats", "cli", "engine", "incremental"):
        assert (REPO_ROOT / "docs" / f"{page}.md").is_file(), f"docs/{page}.md missing"


def _subcommands() -> dict:
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, type(parser._subparsers._group_actions[0]))
    )
    return subparsers.choices


def test_every_cli_flag_is_documented():
    cli_doc = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
    for name, subparser in _subcommands().items():
        assert f"repro {name}" in cli_doc, f"subcommand {name!r} undocumented"
        for action in subparser._actions:
            for option in action.option_strings:
                if option in ("-h", "--help"):
                    continue
                assert option in cli_doc, (
                    f"flag {option!r} of `repro {name}` is missing from docs/cli.md"
                )


def test_every_documented_cli_flag_is_accepted():
    accepted = {
        option
        for subparser in _subcommands().values()
        for action in subparser._actions
        for option in action.option_strings
    }
    cli_doc = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
    table_rows = [line for line in cli_doc.splitlines() if line.startswith("|")]
    documented = set(re.findall(r"`(--[a-z][a-z-]*)", "\n".join(table_rows)))
    assert documented, "docs/cli.md should tabulate its flags"
    assert documented <= accepted, (
        f"docs/cli.md tabulates flags no subcommand accepts: {sorted(documented - accepted)}"
    )


def test_every_documented_env_var_is_read():
    source = "\n".join(
        path.read_text(encoding="utf-8") for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
    )
    pages = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    for page in pages:
        for variable in set(re.findall(r"REPRO_[A-Z_]+", page.read_text(encoding="utf-8"))):
            assert variable in source, (
                f"{page.name} names {variable}, which nothing in src/repro reads"
            )


@pytest.mark.parametrize(
    "module",
    [repro.io, repro.io.dlgp, repro.io.tabular, repro.workloads.registry],
    ids=lambda module: module.__name__,
)
def test_io_doctests_execute(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} should embed doctest examples"
    assert result.failed == 0, f"{result.failed} doctest failures in {module.__name__}"
