"""Tuple-generating dependencies (TGDs) and guardedness.

A TGD ``∀x̄∀ȳ (φ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄))`` is stored as two atom sets (body and
head).  The *frontier variables* are the body variables that also occur in
the head; the remaining head variables are existential.  A TGD is *guarded*
when its body is empty (logical truth) or contains an atom mentioning every
body variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.cq.atoms import Atom, Variable, variables_of
from repro.cq.query import ConjunctiveQuery


class TGDError(ValueError):
    """Raised for malformed tuple-generating dependencies."""


@dataclass(frozen=True)
class TGD:
    """A tuple-generating dependency ``body → ∃ z̄ head``."""

    body: frozenset[Atom]
    head: frozenset[Atom]
    label: str = ""

    def __init__(self, body: Iterable[Atom], head: Iterable[Atom], label: str = ""):
        body = frozenset(body)
        head = frozenset(head)
        if not head:
            raise TGDError("a TGD must have a non-empty head")
        for atom in body | head:
            if atom.constants():
                raise TGDError(f"TGD atoms may not contain constants: {atom}")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "label", label)
        body_vars = frozenset(variables_of(body))
        head_vars = frozenset(variables_of(head))
        object.__setattr__(self, "_body_variables", body_vars)
        object.__setattr__(self, "_head_variables", head_vars)
        object.__setattr__(self, "_frontier_variables", body_vars & head_vars)
        object.__setattr__(self, "_existential_variables", head_vars - body_vars)

    # -- variables (precomputed at construction) ----------------------------

    def body_variables(self) -> frozenset[Variable]:
        return self._body_variables

    def frontier_variables(self) -> frozenset[Variable]:
        """Variables shared between body and head."""
        return self._frontier_variables

    def existential_variables(self) -> frozenset[Variable]:
        """Head variables bound by the existential quantifier."""
        return self._existential_variables

    def relations(self) -> set[str]:
        return {atom.relation for atom in self.body | self.head}

    # -- structural properties ----------------------------------------------

    def guard(self) -> Atom | None:
        """A guard atom (mentions every body variable), or ``None``."""
        body_vars = self.body_variables()
        for atom in self.body:
            if body_vars <= atom.variables():
                return atom
        return None

    def is_guarded(self) -> bool:
        """True if the body is empty or has a guard atom."""
        return not self.body or self.guard() is not None

    def is_full(self) -> bool:
        """True if the TGD has no existential variables (a full/Datalog TGD)."""
        return not self.existential_variables()

    def body_query(self) -> ConjunctiveQuery:
        """The body as a CQ whose answer variables are the frontier."""
        frontier = sorted(self.frontier_variables(), key=lambda v: v.name)
        return ConjunctiveQuery(frontier, self.body, name=f"body_{self.label or id(self)}")

    def head_query(self) -> ConjunctiveQuery:
        """The head as a CQ whose answer variables are the frontier."""
        frontier = sorted(self.frontier_variables(), key=lambda v: v.name)
        return ConjunctiveQuery(frontier, self.head, name=f"head_{self.label or id(self)}")

    def max_arity(self) -> int:
        return max(atom.arity for atom in self.body | self.head)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = " ∧ ".join(sorted(repr(a) for a in self.body)) or "⊤"
        head = " ∧ ".join(sorted(repr(a) for a in self.head))
        existentials = sorted(v.name for v in self.existential_variables())
        prefix = f"∃{','.join(existentials)} " if existentials else ""
        return f"{body} → {prefix}{head}"
