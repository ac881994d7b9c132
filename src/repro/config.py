"""Unified execution configuration: one options object, one switch.

The tuning knobs the engine accumulated — incremental maintenance
(``incremental``, ``incremental_fallback_ratio``), the plan cache
(``plan_cache_size``), the query-class check (``strict``) and tracing — live
here:

* :class:`ExecutionOptions` — one frozen dataclass carrying every knob, the
  object :class:`repro.engine.QueryEngine`, :class:`repro.server.QueryService`
  and the CLI consume;
* the one process-wide switch, ``set_tracing`` / ``use_tracing``, whose
  default comes from the ``REPRO_TRACE`` environment variable.

**Precedence** (most specific wins):

1. an *explicit keyword argument* at a call site
   (``QueryEngine(..., strict=False)``);
2. the :class:`ExecutionOptions` object passed to that component
   (``QueryEngine(..., options=ExecutionOptions(strict=False))``);
3. the process default — ``REPRO_TRACE`` read at import time, as later
   adjusted by ``set_tracing``.

There is no execution-strategy switch: rows are tuples of dense term ids
(:mod:`repro.data.interning`) on every path, every plan runs its one
free-connex decomposition through the hash semi-join kernels, and the
CD∘Lin walk is compiled per plan (:mod:`repro.engine.codegen`).  What the
input decides stays: a plan deeper than the compiler's nesting limit walks
interpreted, and keys wider than the specialised kernels use the generic
ones.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

__all__ = [
    "ExecutionOptions",
    "resolve_option",
    "set_tracing",
    "tracing_enabled",
    "use_tracing",
]


def _env_disabled(variable: str) -> bool:
    """True when ``variable`` holds one of the documented truthy spellings."""
    return os.environ.get(variable, "").strip().lower() in ("1", "true", "yes", "on")


# The process-wide tracing default, captured from the environment once at
# import time; ``set_tracing`` adjusts it afterwards under a lock so the
# read-modify-write is well-defined under threads (reads stay lock-free).
_STATE_LOCK = threading.Lock()
_TRACING = _env_disabled("REPRO_TRACE")


def planner_enabled() -> bool:
    """Always ``False``: there is no cost-based planner.

    Kept only because the benchmark walk (``benchmarks/gate/walk.py``, which
    is not edited alongside the library) imports it and skips its plan-choice
    step when it is false; every plan runs ``PreparedQuery.decomposition``.
    """
    return False


def tracing_enabled() -> bool:
    """Whether components *initiate* query traces by default (default off).

    This is the process default behind ``ExecutionOptions.tracing = None``:
    set ``REPRO_TRACE=1`` (captured at import) or call :func:`set_tracing`
    and every engine execution records a trace into the ring buffer of
    :mod:`repro.obs.trace`.  Independently of this switch, components always
    *join* a trace that an outer layer (the HTTP service, ``repro
    explain``) already started — unless hard-disabled with
    ``tracing=False``.
    """
    return _TRACING


def set_tracing(enabled: bool) -> bool:
    """Flip the process-wide tracing default; returns the previous setting."""
    global _TRACING
    with _STATE_LOCK:
        previous = _TRACING
        _TRACING = bool(enabled)
    return previous


@contextmanager
def use_tracing(enabled: bool) -> Iterator[None]:
    """Context manager scoping :func:`set_tracing` (diagnostic helper)."""
    previous = set_tracing(enabled)
    try:
        yield
    finally:
        set_tracing(previous)


def resolve_option(explicit, options_value, default):
    """Apply the documented precedence: explicit arg > options > default.

    ``None`` marks "not given" at the first two levels, so a component
    resolves each knob with one call::

        strict = resolve_option(strict_kwarg, options.strict, True)
    """
    if explicit is not None:
        return explicit
    if options_value is not None:
        return options_value
    return default


@dataclass(frozen=True)
class ExecutionOptions:
    """Every engine tuning knob in one (immutable) place.

    * ``incremental`` — maintain materializations in place under mutations.
    * ``incremental_fallback_ratio`` — delta size (fraction of the database)
      above which a full rebuild beats in-place maintenance.
    * ``plan_cache_size`` — capacity of the prepared-plan LRU.
    * ``strict`` — reject queries outside the acyclic ∧ free-connex class.
    * ``tracing`` — the span-tracing tri-state: ``True`` records a trace for
      every execution, ``False`` hard-disables all instrumentation (spans
      are never even looked for), ``None`` joins ambient traces and
      otherwise follows the ``REPRO_TRACE`` process default.

    Invalid values are rejected at construction: ``plan_cache_size`` must
    be at least 1 and ``incremental_fallback_ratio`` a finite number in
    ``[0, 1]`` (``0.0`` means "always rebuild on mutation").
    """

    incremental: bool = True
    incremental_fallback_ratio: float = 0.1
    plan_cache_size: int = 64
    strict: bool = True
    tracing: bool | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.plan_cache_size, int) or self.plan_cache_size < 1:
            raise ValueError(
                f"plan_cache_size must be an integer >= 1, got {self.plan_cache_size!r}"
            )
        ratio = self.incremental_fallback_ratio
        if (
            not isinstance(ratio, (int, float))
            or isinstance(ratio, bool)
            or not math.isfinite(ratio)
            or not 0.0 <= ratio <= 1.0
        ):
            raise ValueError(
                "incremental_fallback_ratio must be a finite number in [0, 1] "
                f"(0.0 means always rebuild), got {ratio!r}"
            )

    def resolved_tracing(self) -> bool:
        """The tracing flag with the process default filled in."""
        return tracing_enabled() if self.tracing is None else self.tracing

    def replace(self, **changes) -> "ExecutionOptions":
        """A copy with ``changes`` applied (dataclass ``replace`` sugar)."""
        return replace(self, **changes)
