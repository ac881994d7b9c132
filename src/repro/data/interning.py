"""Dictionary encoding of domain elements to dense integer ids.

The paper's guarantees (linear preprocessing, constant-delay enumeration)
are stated for a RAM model where one tuple operation costs O(1).  Hashing
full Python term objects — strings, tuples, :class:`~repro.data.terms.Null`
instances — on every index probe makes that constant large; the standard
systems trick is *dictionary encoding*: map every constant and labelled
null to a dense ``int`` id once, run every hot-path comparison, hash and
join over the ids, and decode back to terms only when an answer is emitted.

:class:`TermDictionary` is that mapping.  A single process-wide instance
(:data:`TERMS`) backs every interned structure, so ids are stable for the
lifetime of the process and two instances/relations can exchange ids freely
(append-only: ids are never reused or remapped).  Nulls are flagged at
intern time so "is this id a null?" is one ``bytearray`` load instead of a
decode plus ``isinstance``.

This is the only row format: :class:`~repro.data.instance.Instance` keys
its positional indexes by ids, and the reduction/enumeration pipeline
stores id rows throughout.  ``baselines/naive.py``, the oracle the
differential suite compares against, runs the production chase and
searches homomorphisms over its instance, so it shares the chase and these
ids with what it checks.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.data.terms import is_null

__all__ = ["TERMS", "TermDictionary"]


class TermDictionary:
    """A bijective map between domain elements and dense ``int`` ids.

    Append-only: once a term receives an id, the pair is never removed or
    changed, so ids may be cached on facts, stored in reduced relations
    and compared across instances.  Thread-safe: lookups of already-interned
    terms are lock-free dict reads, and first-sight assignment runs under a
    lock with the term published to the decode tables *before* its id
    becomes visible, so concurrent interners (e.g. two engines preprocessing
    in different threads) can never hand two terms the same id or expose an
    id that does not decode.
    """

    __slots__ = ("_ids", "_terms", "_null_flags", "_lock")

    def __init__(self) -> None:
        self._ids: dict[object, int] = {}
        self._terms: list[object] = []
        self._null_flags = bytearray()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: object) -> bool:
        return term in self._ids

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TermDictionary({len(self._terms)} terms)"

    # -- encoding ---------------------------------------------------------

    def intern(self, term: object) -> int:
        """The id of ``term``, assigning the next dense id on first sight."""
        tid = self._ids.get(term)
        if tid is None:
            with self._lock:
                tid = self._ids.get(term)
                if tid is None:
                    tid = len(self._terms)
                    # Decode tables first, id last: a reader that sees the
                    # id can always decode it.
                    self._terms.append(term)
                    self._null_flags.append(1 if is_null(term) else 0)
                    self._ids[term] = tid
        return tid

    def intern_tuple(self, terms: Iterable[object]) -> tuple[int, ...]:
        """Intern every element; the id tuple aligned with ``terms``."""
        get = self._ids.get
        out = []
        for term in terms:
            tid = get(term)
            if tid is None:
                tid = self.intern(term)
            out.append(tid)
        return tuple(out)

    def try_intern(self, term: object) -> int | None:
        """The id of ``term`` if it was ever interned, else ``None``.

        The probe path: a term that no fact ever mentioned cannot match
        anything, so probes translate keys without growing the dictionary.
        """
        return self._ids.get(term)

    def try_intern_tuple(self, terms: Iterable[object]) -> tuple[int, ...] | None:
        """Id tuple for ``terms``, or ``None`` if any element is unseen."""
        get = self._ids.get
        out = []
        for term in terms:
            tid = get(term)
            if tid is None:
                return None
            out.append(tid)
        return tuple(out)

    # -- decoding ---------------------------------------------------------

    def decode(self, tid: int) -> object:
        """The term behind ``tid`` (raises ``IndexError`` on unknown ids)."""
        return self._terms[tid]

    def decode_tuple(self, ids: Iterable[int]) -> tuple:
        """Decode an id tuple back to the original terms."""
        return tuple(map(self._terms.__getitem__, ids))

    def is_null_id(self, tid: int) -> bool:
        """True if ``tid`` encodes a labelled null (one flag load)."""
        return bool(self._null_flags[tid])

    def decoder(self):
        """A positional decode callable — the table's C-level ``__getitem__``.

        The decode table is append-only and never replaced, so the bound
        method stays valid forever; generated enumeration walks call it once
        per emitted value instead of going through :meth:`decode`.
        """
        return self._terms.__getitem__

    def null_flags(self) -> bytearray:
        """The id-indexed null-flag table (append-only, never replaced).

        Exposed for the hot null filters (the reduction's, the chase's and
        the wildcard walks'), which index it directly instead of calling
        :meth:`is_null_id` per value.
        """
        return self._null_flags


#: The process-wide dictionary every interned structure shares.
TERMS = TermDictionary()

