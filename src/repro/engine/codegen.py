"""Per-plan code generation for the enumeration inner loops.

The paper's constant-delay guarantee assumes the per-answer work is a fixed
sequence of array reads and tuple writes.  PR 5's slot plans got close — a
flat value array and per-atom write plans — but the walk still *interprets*
that plan on every row: tuple key construction, a loop over ``(position,
slot)`` pairs, a recursive generator frame per join-tree level.  This module
specialises the interpreter away, the translation move of the
LPOD/CR-Prolog² compilation line: keep the declarative plan as the spec,
emit a lower-level program (plain Python source, ``compile()``/``exec``-ed
once) that an existing fast evaluator — CPython's own bytecode loop — runs.

Two families of generated code:

* :func:`compile_walk` — the CD∘Lin enumeration walk of one slot plan as a
  single generator function: one ``for`` loop per join-tree level, unrolled
  column reads into local variables, inline key tuples, decode-at-emit via
  one C-level ``list.__getitem__``.  Cached per plan on
  :class:`PlanCodegen` (a field of the prepared query, so the closures are
  evicted exactly when the plan-cache entry is).
* :func:`key_kernels` — the hash semi-join / row-index kernels of
  :class:`repro.data.columns.ColumnarRelation` specialised to key arity
  (flattened ``zip`` over the key columns, no nested key iterator), and
  :func:`nullfree_kernel` — the answer-position null filter of the
  reduction specialised the same way.  Cached per arity (bounded by the
  largest key arity any query uses).

Everything here is **semantics-preserving by construction**: each generator
mirrors one interpreted loop statement-for-statement, the differential suite
locks codegen-on against codegen-off byte-identical, and the
``REPRO_NO_CODEGEN`` / :func:`repro.config.set_codegen` / ``repro run
--no-codegen`` escape hatch restores the interpreted path at runtime.
Rows are dense term-id tuples throughout; the generated walk decodes at
emit, like the interpreted one.

This module deliberately imports only :mod:`repro.obs.trace` (which itself
stops at :mod:`repro.config`), so the data and enumeration layers can call
into it without import cycles.
"""

from __future__ import annotations

import threading
from typing import Callable, NamedTuple

from repro.obs.trace import add_event

__all__ = [
    "CODEGEN_STATS",
    "CodegenStats",
    "KeyKernels",
    "PlanCodegen",
    "compile_walk",
    "key_kernels",
    "nullfree_kernel",
    "walk_source",
]

#: Join-tree depths beyond this fall back to the interpreted walk (the
#: generated source nests one ``for`` per level; real plans have 1–4).
MAX_WALK_DEPTH = 16

#: Key arities beyond this use the generic kernels.
MAX_KERNEL_ARITY = 8


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


#: The process-wide counter block every generated artifact reports to.
CODEGEN_STATS = CodegenStats()


def _compile(source: str, name: str, namespace: dict | None = None) -> Callable:
    """``compile()``/``exec`` one generated function and return it."""
    scope: dict = dict(namespace or {})
    exec(compile(source, f"<repro-codegen:{name}>", "exec"), scope)
    CODEGEN_STATS.compiled()
    # Instantaneous marker on the ambient trace (no-op outside one): a
    # compile inside a request is exactly the kind of one-off cost EXPLAIN
    # should surface.
    add_event("codegen.compile", function=name, source_lines=source.count("\n") + 1)
    return scope[name]


# -- (a) the enumeration walk ----------------------------------------------


def walk_source(plan: tuple) -> str | None:
    """The generated source of one slot plan's enumeration walk.

    ``plan`` is the tuple built by ``CDLinEnumerator._build_plan``:
    ``(key_slots, stores, final_slots, slot_count)``.  Returns ``None`` for
    plans the generator does not cover (deeper than :data:`MAX_WALK_DEPTH`);
    callers then keep the interpreted walk.

    The source mirrors the interpreter exactly: a nested ``for`` per
    join-tree level in preorder, reading each row position straight into a
    local slot variable.  Writes to slots that are part of the level's own
    lookup key are elided — the index bucket guarantees those row positions
    equal the key values, so the interpreter's rewrite is a no-op.
    """
    key_slots, stores, final_slots, _slot_count = plan
    depth = len(key_slots)
    if depth == 0 or depth > MAX_WALK_DEPTH:
        return None

    def key_expr(slots: tuple[int, ...]) -> str:
        if not slots:
            return "()"
        body = ", ".join(f"_v{slot}" for slot in slots)
        return f"({body},)" if len(slots) == 1 else f"({body})"

    lines = ["def _walk(index_list, decode):"]
    for level in range(1, depth):
        lines.append(f"    _get{level} = index_list[{level}].get")
    pad = "    "
    lines.append(f"{pad}for _r0 in index_list[0].get((), ()):")
    for level in range(depth):
        if level:
            lines.append(
                f"{pad}for _r{level} in _get{level}({key_expr(key_slots[level])}, ()):"
            )
        inner = pad + "    "
        keyed = set(key_slots[level])
        for position, slot in stores[level]:
            if slot not in keyed:
                lines.append(f"{inner}_v{slot} = _r{level}[{position}]")
        pad = inner
    if final_slots:
        emit = ", ".join(f"decode(_v{slot})" for slot in final_slots)
        suffix = "," if len(final_slots) == 1 else ""
        lines.append(f"{pad}yield ({emit}{suffix})")
    else:
        lines.append(f"{pad}yield ()")
    return "\n".join(lines) + "\n"


def compile_walk(plan: tuple) -> Callable | None:
    """Compile the enumeration walk of ``plan``; ``None`` if not covered.

    The returned generator function has the signature
    ``_walk(index_list, decode)`` — per-enumeration state stays a call
    argument, so the closure is a pure function of the plan and one compiled
    object serves every database and every maintenance epoch.
    """
    source = walk_source(plan)
    if source is None:
        return None
    return _compile(source, "_walk")


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
        self._walks: dict[tuple, Callable | None] = {}

    def __len__(self) -> int:
        return len(self._walks)

    def walk_for(self, plan: tuple) -> Callable | None:
        """The compiled walk for ``plan`` (compiling on first sight)."""
        if plan in self._walks:
            CODEGEN_STATS.hit()
            return self._walks[plan]
        walk = self._walks[plan] = compile_walk(plan)
        return walk


# -- (b) arity-specialised columnar kernels --------------------------------


class KeyKernels(NamedTuple):
    """The per-arity kernel family of :class:`ColumnarRelation`.

    ``filter_rows(key_columns, rows, keys)`` is the hash semi-join,
    ``index_rows(key_columns, rows)`` the row-grouping index build; both
    take the already-selected key columns plus the row iterator and mirror
    the generic kernels' output exactly (tuple keys, list buckets).
    """

    filter_rows: Callable
    index_rows: Callable


_KERNEL_LOCK = threading.Lock()
_KERNELS: dict[int, KeyKernels] = {}


def _filter_source(arity: int) -> str:
    unpack = ", ".join(f"_k{i}" for i in range(arity))
    columns = ", ".join(f"key_columns[{i}]" for i in range(arity))
    key = f"(_k0,)" if arity == 1 else f"({unpack})"
    return (
        f"def _filter{arity}(key_columns, rows, keys):\n"
        f"    return [\n"
        f"        row\n"
        f"        for {unpack}, row in zip({columns}, rows)\n"
        f"        if {key} in keys\n"
        f"    ]\n"
    )


def _index_source(arity: int) -> str:
    unpack = ", ".join(f"_k{i}" for i in range(arity))
    columns = ", ".join(f"key_columns[{i}]" for i in range(arity))
    key = f"(_k0,)" if arity == 1 else f"({unpack})"
    return (
        f"def _index{arity}(key_columns, rows):\n"
        f"    index = {{}}\n"
        f"    get = index.get\n"
        f"    for {unpack}, row in zip({columns}, rows):\n"
        f"        key = {key}\n"
        f"        bucket = get(key)\n"
        f"        if bucket is None:\n"
        f"            index[key] = [row]\n"
        f"        else:\n"
        f"            bucket.append(row)\n"
        f"    return index\n"
    )


def key_kernels(arity: int) -> KeyKernels | None:
    """The compiled kernel family for key ``arity`` (``None`` if uncovered).

    Cached per arity under a lock; the cache is bounded by
    :data:`MAX_KERNEL_ARITY`, so it can never grow with query churn.
    """
    if arity < 1 or arity > MAX_KERNEL_ARITY:
        return None
    kernels = _KERNELS.get(arity)
    if kernels is not None:
        CODEGEN_STATS.hit()
        return kernels
    with _KERNEL_LOCK:
        kernels = _KERNELS.get(arity)
        if kernels is None:
            kernels = KeyKernels(
                filter_rows=_compile(_filter_source(arity), f"_filter{arity}"),
                index_rows=_compile(_index_source(arity), f"_index{arity}"),
            )
            _KERNELS[arity] = kernels
    return kernels


_NULLFREE_LOCK = threading.Lock()
_NULLFREE: dict[int, Callable] = {}


def nullfree_kernel(arity: int) -> Callable | None:
    """A compiled ``rows, flags -> {row | no answer position is a null}``.

    Specialises the reduction's null filter to row arity: direct
    ``bytearray`` loads instead of a generator expression per row.
    ``flags`` is the interning dictionary's null-flag table.
    """
    if arity < 1 or arity > MAX_KERNEL_ARITY:
        return None
    kernel = _NULLFREE.get(arity)
    if kernel is not None:
        CODEGEN_STATS.hit()
        return kernel
    with _NULLFREE_LOCK:
        kernel = _NULLFREE.get(arity)
        if kernel is None:
            checks = " or ".join(f"flags[row[{i}]]" for i in range(arity))
            source = (
                f"def _nullfree{arity}(rows, flags):\n"
                f"    return {{row for row in rows if not ({checks})}}\n"
            )
            kernel = _compile(source, f"_nullfree{arity}")
            _NULLFREE[arity] = kernel
    return kernel
