"""Facts: relation symbols applied to tuples of domain elements."""

from __future__ import annotations

from typing import Iterator

from repro.data.interning import TERMS
from repro.data.terms import Null, is_null


class Fact:
    """A fact ``R(c1, ..., ck)`` over constants and/or nulls.

    ``relation`` is the relation symbol (a string), ``args`` the argument
    tuple.  Facts are immutable and hashable so they can live in sets, which
    is how instances store them.  Two derived values are cached per object
    because the hot paths recompute them constantly:

    * the hash (facts are hashed on every set membership test the chase and
      the homomorphism search perform), and
    * :attr:`iargs`, the argument tuple dictionary-encoded to dense ids by
      the process-wide :data:`repro.data.interning.TERMS` — the key the
      interned positional indexes use and the row the reducer reads.  Ids
      are stable for the process lifetime, so the cache never goes stale.
    """

    __slots__ = ("relation", "args", "_hash", "_iargs")

    def __init__(self, relation: str, args) -> None:
        # _hash and _iargs slots stay unset until first use (facts are
        # created in bulk on the chase hot path; two setattrs, not four).
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "args", tuple(args))

    @classmethod
    def from_ids(cls, relation: str, iargs: tuple[int, ...]) -> "Fact":
        """The fact whose arguments are the terms behind ``iargs``.

        The id-level constructor of the chase: the fact is born with
        :attr:`iargs` filled in, so no index it is filed under interns its
        arguments again.
        """
        fact = cls.__new__(cls)
        object.__setattr__(fact, "relation", relation)
        object.__setattr__(fact, "args", TERMS.decode_tuple(iargs))
        object.__setattr__(fact, "_iargs", iargs)
        return fact

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Fact is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Fact is immutable (cannot delete {name!r})")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Fact:
            return self.relation == other.relation and self.args == other.args
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            cached = hash((self.relation, self.args))
            object.__setattr__(self, "_hash", cached)
            return cached

    def __reduce__(self):
        return (Fact, (self.relation, self.args))

    @property
    def iargs(self) -> tuple[int, ...]:
        """The argument tuple as dense term ids (interned once, then cached)."""
        try:
            return self._iargs
        except AttributeError:
            cached = TERMS.intern_tuple(self.args)
            object.__setattr__(self, "_iargs", cached)
            return cached

    @property
    def arity(self) -> int:
        return len(self.args)

    def constants(self) -> Iterator[object]:
        """All domain elements occurring in the fact (with repetitions)."""
        return iter(self.args)

    def has_null(self) -> bool:
        """True if at least one argument is a labelled null."""
        # The argument classes, compared at C level: this runs once per fact
        # a database loads (``Null`` has no subclasses).
        return Null in map(type, self.args)

    def nulls(self) -> set:
        """The set of labelled nulls occurring in the fact."""
        return {a for a in self.args if is_null(a)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(a) if not isinstance(a, str) else a for a in self.args)
        return f"{self.relation}({inner})"
