"""Incremental maintenance: keep engine materializations valid under updates.

The subsystem has three layers, threaded through the rest of the stack:

* :mod:`repro.incremental.delta` — net fact deltas, produced by the
  database mutation log (``Database.changes_since`` / ``Database.batch``);
* :mod:`repro.incremental.provenance` — the provenance-tracking delta
  chase: semi-naive insertion seeded with only the new facts, DRed-style
  over-delete + re-derive for deletions;
* the reduction maintenance in :meth:`repro.enumeration.cdlin.
  CDLinEnumerator.maintain` (with :func:`repro.yannakakis.semijoin.
  reduce_and_diff`), which replays the Yannakakis passes over cached
  unreduced block projections and rebuilds only the touched blocks.

:class:`repro.engine.materialization.Materialization` wires them together:
on revalidation it asks the database for the delta since its chase
snapshot and, when the delta is small enough (``fallback_ratio``), applies
it in place instead of dropping the chase and every query state.

What is maintained is exactly the paper's preprocessing output: the
query-directed chase ``ch^q_O(D)`` of Section 3 (Lemma 3.2) and the
Section 5 reduced block relations behind Theorem 4.1 — so the constant
delay guarantee of the enumeration phase is preserved across updates; the
paper itself treats ``D`` as static.
"""

from repro.incremental.delta import Delta, apply_delta
from repro.incremental.provenance import ChaseMaintainer

__all__ = ["ChaseMaintainer", "Delta", "apply_delta"]
