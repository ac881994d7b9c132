"""Unified execution configuration: one options object.

The tuning knobs the engine accumulated — incremental maintenance
(``incremental``, ``incremental_fallback_ratio``), the plan cache
(``plan_cache_size``), the query-class check (``strict``) and tracing — live
in :class:`ExecutionOptions`, one frozen dataclass.  It is the only way to
set them: :class:`repro.engine.QueryEngine` takes it as ``options=``,
:class:`repro.server.ServiceConfig` holds one as ``execution``, and the CLI
builds one from its flags.  A field left alone keeps its dataclass default.
No environment variable and no process-wide toggle is read.

There is no execution-strategy switch: rows are tuples of dense term ids
(:mod:`repro.data.interning`) on every path, every plan reduces its one
free-connex decomposition over the atom relations' row sets, and the
CD∘Lin walk is compiled per plan (:mod:`repro.engine.codegen`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["ExecutionOptions", "validate_fallback_ratio"]


def planner_enabled() -> bool:
    """Always ``False``: there is no cost-based planner.

    Kept only because the benchmark walk (``benchmarks/gate/walk.py``, which
    is not edited alongside the library) imports it and skips its plan-choice
    step when it is false; every plan runs ``PreparedQuery.decomposition``.
    """
    return False


def validate_fallback_ratio(ratio: float) -> float:
    """Reject a fallback ratio that is not a finite number in ``[0, 1]``.

    ``0.0`` is valid and means "always rebuild"; a ratio is a fraction of
    the database, so anything above 1 is a typo, not a budget.  NaN must
    never reach the budget comparison (every NaN comparison is False, which
    would silently disable both the increment and the fallback accounting).
    """
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
    return float(ratio)


@dataclass(frozen=True)
class ExecutionOptions:
    """Every engine tuning knob in one (immutable) place.

    * ``incremental`` — maintain materializations in place under mutations.
    * ``incremental_fallback_ratio`` — delta size (fraction of the database)
      above which a full rebuild beats in-place maintenance.
    * ``plan_cache_size`` — capacity of the prepared-plan LRU.
    * ``strict`` — reject queries outside the acyclic ∧ free-connex class.
    * ``tracing`` — ``True`` starts a trace for every execution.  Either
      way an execution joins an ambient trace (an outer ``start_trace``,
      a traced HTTP request, ``repro explain``).

    Invalid values are rejected at construction: ``plan_cache_size`` must
    be at least 1 and ``incremental_fallback_ratio`` a finite number in
    ``[0, 1]`` (``0.0`` means "always rebuild on mutation").
    """

    incremental: bool = True
    incremental_fallback_ratio: float = 0.1
    plan_cache_size: int = 64
    strict: bool = True
    tracing: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.plan_cache_size, int) or self.plan_cache_size < 1:
            raise ValueError(
                f"plan_cache_size must be an integer >= 1, got {self.plan_cache_size!r}"
            )
        validate_fallback_ratio(self.incremental_fallback_ratio)

    def replace(self, **changes) -> "ExecutionOptions":
        """A copy with ``changes`` applied (dataclass ``replace`` sugar)."""
        return replace(self, **changes)
