"""Per-plan code generation for the enumeration inner loops.

The paper's constant-delay guarantee assumes the per-answer work is a fixed
sequence of array reads and tuple writes.  A slot plan (a flat value array
and per-atom write plans) gets close, but a walk that *interprets* it pays
on every row for tuple key construction, a loop over ``(position, slot)``
pairs and a recursive generator frame per join-tree level.  This module
specialises the interpreter away, the translation move of the
LPOD/CR-Prolog² compilation line: keep the declarative plan as the spec,
emit a lower-level program (plain Python source, ``compile()``/``exec``-ed
once) that an existing fast evaluator — CPython's own bytecode loop — runs.

One family of generated code: :func:`compile_walk` turns the CD∘Lin
enumeration walk of one slot plan into a generator function — one ``for``
loop per join-tree level, unrolled row reads into local variables, inline
key tuples, decode-at-emit via one C-level ``list.__getitem__``.  A plan of
any depth compiles: past :data:`MAX_WALK_DEPTH` levels the innermost loop
hands its live slot variables to a further generated function.  Cached per
plan on :class:`PlanCodegen` (a field of the prepared query, so the
closures are evicted exactly when the plan-cache entry is).  The reducer
has no generated code: its projections, indexes, semi-joins and null
filter are C-level row passes (:mod:`repro.yannakakis.relations`).

The generated walk is the only CD∘Lin walk; the differential suite holds
it to the naive oracle, including on a plan deep enough to chain.  Rows
are dense term-id tuples throughout; answers are decoded at emit.

This module deliberately imports only :mod:`repro.obs.trace` (which itself
stops at :mod:`repro.config`), so the enumeration layer can call into it
without import cycles.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.obs.trace import add_event

__all__ = [
    "CODEGEN_STATS",
    "CodegenStats",
    "PlanCodegen",
    "compile_walk",
    "walk_source",
]

#: Join-tree levels one generated function nests: the source nests one
#: ``for`` per level, and CPython compiles at most 20 nested blocks, so a
#: deeper walk chains to a further function (real plans have 1–4 levels).
MAX_WALK_DEPTH = 16


class CodegenStats:
    """Process-wide codegen counters (plans compiled / cache hits).

    Mirrors the role :data:`repro.data.interning.TERMS` plays for
    ``interned_terms``: one shared object :class:`repro.engine.QueryEngine`
    snapshots into :class:`~repro.engine.engine.EngineStats`.
    """

    __slots__ = ("_lock", "_compiled", "_hits")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._compiled = 0
        self._hits = 0

    def compiled(self, amount: int = 1) -> None:
        with self._lock:
            self._compiled += amount

    def hit(self, amount: int = 1) -> None:
        with self._lock:
            self._hits += amount

    def snapshot(self) -> tuple[int, int]:
        """``(plans_compiled, cache_hits)`` as one consistent reading."""
        with self._lock:
            return self._compiled, self._hits


#: The process-wide counter block every compiled walk reports to.
CODEGEN_STATS = CodegenStats()


def _compile(source: str, name: str) -> Callable:
    """``compile()``/``exec`` one generated function and return it."""
    scope: dict = {}
    exec(compile(source, f"<repro-codegen:{name}>", "exec"), scope)
    CODEGEN_STATS.compiled()
    # Instantaneous marker on the ambient trace (no-op outside one): a
    # compile inside a request is exactly the kind of one-off cost EXPLAIN
    # should surface.
    add_event("codegen.compile", function=name, source_lines=source.count("\n") + 1)
    return scope[name]


def walk_source(plan: tuple) -> str:
    """The generated source of one slot plan's enumeration walk.

    ``plan`` is the tuple built by ``CDLinEnumerator._build_plan``:
    ``(key_slots, stores, final_slots, slot_count)``.

    The source is a nested ``for`` per join-tree level in preorder, reading
    each row position straight into a local slot variable.  Writes to slots
    that are part of the level's own lookup key are elided — the index
    bucket guarantees those row positions equal the key values.  One
    function nests at most :data:`MAX_WALK_DEPTH` levels; a deeper walk
    calls a further generated function ``_walk<level>`` from its innermost
    loop, passing the slot variables the remaining levels read.  A plan of
    depth 0 yields its one (empty) answer.
    """
    key_slots, stores, final_slots, _slot_count = plan
    depth = len(key_slots)

    def key_expr(slots: tuple[int, ...]) -> str:
        if not slots:
            return "()"
        body = ", ".join(f"_v{slot}" for slot in slots)
        return f"({body},)" if len(slots) == 1 else f"({body})"

    def live_after(start: int) -> str:
        """The parameters of the function that walks from level ``start``."""
        written = {slot for level in range(start) for _, slot in stores[level]}
        read = set(final_slots).union(*key_slots[start:])
        return "".join(f", _v{slot}" for slot in sorted(written & read))

    lines: list[str] = []
    for start in range(0, max(depth, 1), MAX_WALK_DEPTH):
        stop = min(start + MAX_WALK_DEPTH, depth)
        name = f"_walk{start}" if start else "_walk"
        lines.append(f"def {name}(index_list, decode{live_after(start)}):")
        for level in range(max(start, 1), stop):
            lines.append(f"    _get{level} = index_list[{level}].get")
        pad = "    "
        for level in range(start, stop):
            if level:
                lines.append(
                    f"{pad}for _r{level} in _get{level}({key_expr(key_slots[level])}, ()):"
                )
            else:
                lines.append(f"{pad}for _r0 in index_list[0].get((), ()):")
            inner = pad + "    "
            keyed = set(key_slots[level])
            for position, slot in stores[level]:
                if slot not in keyed:
                    lines.append(f"{inner}_v{slot} = _r{level}[{position}]")
            pad = inner
        if stop < depth:
            lines.append(
                f"{pad}yield from _walk{stop}(index_list, decode{live_after(stop)})"
            )
        elif final_slots:
            emit = ", ".join(f"decode(_v{slot})" for slot in final_slots)
            suffix = "," if len(final_slots) == 1 else ""
            lines.append(f"{pad}yield ({emit}{suffix})")
        else:
            lines.append(f"{pad}yield ()")
    return "\n".join(lines) + "\n"


def compile_walk(plan: tuple) -> Callable:
    """Compile the enumeration walk of ``plan``.

    The returned generator function has the signature
    ``_walk(index_list, decode)`` — per-enumeration state stays a call
    argument, so the closure is a pure function of the plan and one compiled
    object serves every database and every maintenance epoch.
    """
    return _compile(walk_source(plan), "_walk")


class PlanCodegen:
    """The compiled closures of one prepared query.

    Lives as a field on :class:`repro.engine.plan.PreparedQuery`, so the
    closures share the plan's lifetime exactly: evicting the plan-cache
    entry drops the last strong reference and the code objects with it —
    there is deliberately *no* process-global walk cache to outlive it.
    """

    # ``__weakref__`` lets the eviction regression test observe the
    # closures' lifetime without keeping them alive.
    __slots__ = ("_walks", "__weakref__")

    def __init__(self) -> None:
        self._walks: dict[tuple, Callable] = {}

    def __len__(self) -> int:
        return len(self._walks)

    def walk_for(self, plan: tuple) -> Callable:
        """The compiled walk for ``plan`` (compiling on first sight)."""
        if plan in self._walks:
            CODEGEN_STATS.hit()
            return self._walks[plan]
        walk = self._walks[plan] = compile_walk(plan)
        return walk
