"""Unified execution configuration: one options object, one switch module.

The tuning knobs accumulated as the engine grew — the
incremental-maintenance kwargs of the prepared-query engine
(``incremental``, ``incremental_fallback_ratio``, ``plan_cache_size``,
``strict``), the per-plan code generation of :mod:`repro.engine.codegen`
(``REPRO_NO_CODEGEN`` / ``set_codegen``), the planner and tracing.  This
module is their single home:

* :class:`ExecutionOptions` — one frozen dataclass carrying every knob, the
  object :class:`repro.engine.QueryEngine`, :class:`repro.server.QueryService`
  and the CLI consume;
* the process-wide switches (``set_codegen`` / ``use_codegen``,
  ``set_planner`` / ``use_planner``, ...) with their environment-variable
  defaults — the A/B escape hatches the differential suite flips.

**Precedence** (most specific wins):

1. an *explicit keyword argument* at a call site
   (``QueryEngine(..., strict=False)``);
2. the :class:`ExecutionOptions` object passed to that component
   (``QueryEngine(..., options=ExecutionOptions(strict=False))``);
3. the process default — the environment variables (``REPRO_NO_CODEGEN``,
   ``REPRO_NO_PLANNER``, ``REPRO_TRACE``) read at import time, as later
   adjusted by the matching ``set_*`` function.

There is no storage-format switch: rows are tuples of dense term ids
(:mod:`repro.data.interning`) on every path, decoded once at answer
emission.
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
    "codegen_enabled",
    "planner_enabled",
    "resolve_option",
    "set_codegen",
    "set_planner",
    "set_tracing",
    "tracing_enabled",
    "use_codegen",
    "use_planner",
    "use_tracing",
]


def _env_disabled(variable: str) -> bool:
    """True when ``variable`` holds one of the documented truthy spellings."""
    return os.environ.get(variable, "").strip().lower() in ("1", "true", "yes", "on")


# Process-wide defaults, captured from the environment once at import time.
# ``set_codegen`` / ``set_planner`` / ``set_tracing`` adjust them
# afterwards; a lock keeps the read-modify-write of the toggles well-defined
# under threads (reads are single dict-free attribute loads and stay
# lock-free).
_STATE_LOCK = threading.Lock()
_CODEGEN = not _env_disabled("REPRO_NO_CODEGEN")
_PLANNER = not _env_disabled("REPRO_NO_PLANNER")
# Tracing has the opposite polarity: it is *off* unless asked for, because
# it is diagnostic machinery, not an execution strategy.
_TRACING = _env_disabled("REPRO_TRACE")


def codegen_enabled() -> bool:
    """Whether per-plan code generation is on (default on).

    Controls both the process-wide arity-specialised kernels (columnar
    semi-joins, null filters) and the default for engines
    and enumerators that were not given an explicit ``codegen`` setting.
    """
    return _CODEGEN


def set_codegen(enabled: bool) -> bool:
    """Flip the process-wide codegen default; returns the previous setting.

    Takes effect immediately for the shared kernels and for enumerators
    constructed afterwards; already-compiled closures keep running (they are
    byte-identical to the interpreted path by construction).
    """
    global _CODEGEN
    with _STATE_LOCK:
        previous = _CODEGEN
        _CODEGEN = bool(enabled)
    return previous


@contextmanager
def use_codegen(enabled: bool) -> Iterator[None]:
    """Context manager scoping :func:`set_codegen` (A/B test helper)."""
    previous = set_codegen(enabled)
    try:
        yield
    finally:
        set_codegen(previous)


def planner_enabled() -> bool:
    """Whether the cost-based plan choice is on (default on).

    With the planner on, materializations pick the cheapest candidate
    free-connex decomposition from the columnar statistics of the chased
    instance; with it off they run the first valid plan — the pre-planner
    behaviour, kept as the ``REPRO_NO_PLANNER`` / ``--no-planner`` A/B
    escape hatch.  Answers are byte-identical either way (plan choice only
    moves preprocessing constants).
    """
    return _PLANNER


def set_planner(enabled: bool) -> bool:
    """Flip the process-wide planner default; returns the previous setting.

    Resolved at each materialization's plan decision, so the flip also
    affects engines already built without an explicit ``planner`` setting
    (their next state build uses the new default; cached states keep the
    plan they were built with).
    """
    global _PLANNER
    with _STATE_LOCK:
        previous = _PLANNER
        _PLANNER = bool(enabled)
    return previous


@contextmanager
def use_planner(enabled: bool) -> Iterator[None]:
    """Context manager scoping :func:`set_planner` (A/B test helper)."""
    previous = set_planner(enabled)
    try:
        yield
    finally:
        set_planner(previous)


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

    ``None`` fields mean "use the process default" — for ``codegen`` that
    default is the environment-aware process switch above, resolved at the
    moment the option is consumed, so a context manager like
    :func:`use_codegen` still wins over an unset field.

    * ``codegen`` — compile per-plan closures for the enumeration walk
      and the semi-join kernels.
    * ``incremental`` — maintain materializations in place under mutations.
    * ``incremental_fallback_ratio`` — delta size (fraction of the database)
      above which a full rebuild beats in-place maintenance.
    * ``plan_cache_size`` — capacity of the prepared-plan LRU.
    * ``strict`` — reject queries outside the acyclic ∧ free-connex class.
    * ``tracing`` — the span-tracing tri-state: ``True`` records a trace for
      every execution, ``False`` hard-disables all instrumentation (spans
      are never even looked for), ``None`` joins ambient traces and
      otherwise follows the ``REPRO_TRACE`` process default.
    * ``planner`` — cost-based plan choice: pick the cheapest candidate
      join tree / free-connex decomposition from columnar statistics and
      choose semi-join kernels per edge.  ``False`` runs the first valid
      plan (the pre-planner behaviour); ``None`` follows the
      ``REPRO_NO_PLANNER`` process default.

    Invalid values are rejected at construction: ``plan_cache_size`` must
    be at least 1 and ``incremental_fallback_ratio`` a finite number in
    ``[0, 1]`` (``0.0`` means "always rebuild on mutation").
    """

    codegen: bool | None = None
    incremental: bool = True
    incremental_fallback_ratio: float = 0.1
    plan_cache_size: int = 64
    strict: bool = True
    tracing: bool | None = None
    planner: bool | None = None

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

    def resolved_codegen(self) -> bool:
        """The codegen flag with the process default filled in."""
        return codegen_enabled() if self.codegen is None else self.codegen

    def resolved_tracing(self) -> bool:
        """The tracing flag with the process default filled in."""
        return tracing_enabled() if self.tracing is None else self.tracing

    def resolved_planner(self) -> bool:
        """The planner flag with the process default filled in."""
        return planner_enabled() if self.planner is None else self.planner

    def replace(self, **changes) -> "ExecutionOptions":
        """A copy with ``changes`` applied (dataclass ``replace`` sugar)."""
        return replace(self, **changes)
