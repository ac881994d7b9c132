#!/usr/bin/env python3
"""The kill list: source mutants that the tier-1 suite must kill.

Each mutant is a named patch of one file under ``src/``: a snippet that
must occur exactly once, and its replacement.  For every mutant the
repository is copied to a temporary directory, the patch is applied there,
and tier-1 (``python -m pytest -x -q``) runs in the copy with ``PYTHONPATH``
pointing at the copy's ``src``.  A mutant is killed when that run fails (or
times out); a survivor is an open bug in the tests.

Usage: ``python3 tools/mutants.py``

Tier-1 first runs once on an unpatched copy, which must pass.  Exit status:
0 when every mutant is killed, 1 when one survives, 2 when the unpatched
run fails or a patch no longer applies to the source (update the snippet
with the code it targets).  Standard library only; the nightly CI job runs
it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Seconds one tier-1 run may take before its mutant counts as killed.
TIMEOUT = 1800.0

#: name -> (file, snippet, replacement).  Each names a check the tests
#: must make; keep the snippets short and unique.
MUTANTS: dict[str, tuple[str, str, str]] = {
    # Algorithm 1 emits an answer but never prunes the progress trees it
    # dominates, so non-minimal partial answers follow.
    "a1-prune-skipped": (
        "src/repro/core/progress.py",
        "                    self._prune(assignment)\n",
        "                    pass\n",
    ),
    # Every progress tree lands in one rank bucket, so the lists keep row
    # order instead of the database-preferring order.
    "a1-db-order-dropped": (
        "src/repro/core/progress.py",
        "buckets[mask.bit_count() * stride + pattern.bit_count()].append(",
        "buckets[stride].append(",
    ),
    # A2 lets two distinct wildcards land on one null.
    "a2-distinct-nulls-dropped": (
        "src/repro/core/multiwildcard.py",
        "            if new and any(row[p] in bound for p, _ in new):\n",
        "            if False:\n",
    ),
    # A2 groups every row under one row code, so a pattern's nulls and
    # their equalities stop selecting rows.
    "a2-code-ignored": (
        "src/repro/core/multiwildcard.py",
        "                code = _row_code(row, null_flags) if any(map(null_flags.__getitem__, row)) else 0\n",
        "                code = 0\n",
    ),
    # A2's constructor builds no index, so each is built on first use,
    # inside the walk.
    "a2-lazy-index": (
        "src/repro/core/multiwildcard.py",
        "                    self._index(block.atom, positions, code)\n",
        "                    pass\n",
    ),
    # The provenance log drops every suppressed trigger, so losing a head
    # witness never re-checks the trigger it suppressed.
    "prov-suppress-unlogged": (
        "src/repro/incremental/provenance.py",
        "    def log_suppress(self, key: tuple, witness_facts: tuple[Fact, ...]) -> None:\n",
        "    def log_suppress(self, key: tuple, witness_facts: tuple[Fact, ...]) -> None:\n"
        "        return\n",
    ),
    # Replaying a positional firing row drops its created fact, so a
    # retracted firing leaves its products behind.
    "prov-created-dropped": (
        "src/repro/incremental/provenance.py",
        "zip(zip(bodies), zip(created), nulls)",
        "zip(zip(bodies), repeat(()), nulls)",
    ),
    # The query-directed chase stops below depth 1: no null has a child,
    # so any answer that needs a null two levels down is lost.
    "depth-cap-1": (
        "src/repro/chase/query_directed.py",
        "    return query_radius + ontology_radius + 1\n",
        "    return 1\n",
    ),
    # The chase's depth bound two levels short of the one the paper's
    # argument needs.
    "depth-cap-bound-minus-2": (
        "src/repro/chase/query_directed.py",
        "    return query_radius + ontology_radius + 1\n",
        "    return query_radius + ontology_radius - 1\n",
    ),
    # The shared chase ignores the database version, so an object built
    # after a mutation reads a live holder's stale chase.
    "chase-memo-ignores-version": (
        "src/repro/core/omq.py",
        "    key = (ontology, depth, version)\n",
        "    key = (ontology, depth)\n",
    ),
    # The shared chase serves any live run at least as deep as needed, so
    # under an unsound depth bound the answers follow the build order.
    "chase-memo-reuses-deeper": (
        "src/repro/core/omq.py",
        "    result = memo.get(key)\n",
        "    result = next((r for (o, d, v), r in list(memo.items())\n"
        "                   if (o, v) == (ontology, version) and d >= depth), None)\n",
    ),
    # The server's answer cache serves an entry whatever its version, so a
    # query after a write returns the pre-write answers.
    "answer-cache-ignores-version": (
        "src/repro/server/service.py",
        "        if entry is not None and entry.version == self.database.version:\n",
        "        if entry is not None:\n",
    ),
    # A miss that a write overtook is stored, dropping the entries of the
    # newer version it raced with.
    "answer-cache-stores-overtaken-miss": (
        "src/repro/server/service.py",
        "        if tenant.database.version == version:\n",
        "        if True:\n",
    ),
}

_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", "*.egg-info", ".pytest_cache", ".hypothesis", "out"
)


def apply(root: Path, name: str) -> None:
    """Patch the copy at ``root`` with mutant ``name``."""
    relative, snippet, replacement = MUTANTS[name]
    path = root / relative
    source = path.read_text()
    if source.count(snippet) != 1:
        raise LookupError(f"{name}: the snippet occurs {source.count(snippet)} times in {relative}")
    path.write_text(source.replace(snippet, replacement))


def fails(name: str | None) -> bool:
    """Run tier-1 on a copy patched with mutant ``name`` (``None``: no
    patch); True when it fails, printing the failing tests."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        root = Path(scratch) / "repo"
        shutil.copytree(REPO_ROOT, root, ignore=_IGNORE)
        if name is not None:
            apply(root, name)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        try:
            run = subprocess.run(
                command, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT
            )
        except subprocess.TimeoutExpired:
            print(f"  tier-1 timed out after {TIMEOUT:.0f} s")
            return True
    for line in run.stdout.splitlines():
        if line.startswith(("FAILED", "ERROR")):
            print(f"  {line}")
    return run.returncode != 0


def main() -> int:
    if fails(None):
        print("error: tier-1 fails without a mutant, so it can kill none", file=sys.stderr)
        return 2
    survivors = []
    for name in MUTANTS:
        started = time.monotonic()
        try:
            verdict = fails(name)
        except LookupError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"{name}: {'killed' if verdict else 'SURVIVED'} ({time.monotonic() - started:.0f} s)")
        if not verdict:
            survivors.append(name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutant(s) killed")
    return 0

if __name__ == "__main__":
    sys.exit(main())
