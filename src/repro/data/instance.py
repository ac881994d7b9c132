"""Instances and databases: finite sets of facts with useful indexes.

An :class:`Instance` may contain labelled nulls (it is the object produced by
the chase); a :class:`Database` is an instance that is promised to be
null-free.  Both maintain the fact set and per-relation sets eagerly;
everything else — positional indexes, the per-element adjacency behind
:meth:`Instance.facts_with` — is built on first request and maintained from
then on, so an instance that is only ever chased and joined pays for no
structure nobody reads.  :meth:`Instance.adom` scans the facts instead of
building the adjacency, which every later add and discard would maintain.
Together they give the algorithms in the rest of the library the
(amortised) constant time lookups the paper's RAM model assumes.

Index API
---------

Beyond the classic accessors, an instance maintains *positional indexes*:

``index(relation, positions)``
    A mapping from key tuples ``tuple(fact.args[p] for p in positions)`` to
    the bucket of facts of ``relation`` with those values at those positions
    (stored keyed by dense term ids, presented keyed by terms).
    Indexes are built lazily on first request and from then on maintained
    *incrementally* by :meth:`Instance.add` / :meth:`Instance.discard`, so a
    probe is amortised O(1) regardless of how often the instance mutates.
    Buckets are stored as lists (append is O(1)); callers must treat both the
    returned mapping and its buckets as read-only.

``probe(relation, positions, key)``
    The bucket for ``key`` in that index (or an empty tuple), without
    exposing the mapping itself.

The plain accessors :meth:`facts`, :meth:`relation` and :meth:`facts_with`
return zero-copy read-only *views* (:class:`FactSetView`) over the internal
sets instead of fresh copies; they support the full ``collections.abc.Set``
protocol (``in``, iteration, ``len``, ``==``, ``|``, ``&``, ``<=``, ...) and
stay in sync with the instance.  Snapshot with ``set(view)`` before mutating
the instance mid-iteration.

``version``
    A monotonically increasing mutation counter, bumped by every effective
    :meth:`Instance.add` / :meth:`Instance.discard` alongside the incremental
    index maintenance.  Derived structures (the prepared-query engine's
    materializations, external caches) snapshot it and compare later to
    detect that their inputs changed, instead of subscribing to callbacks.

Change log (databases)
----------------------

A :class:`Database` additionally keeps a bounded *mutation log* so that
derived state can be maintained **incrementally** instead of rebuilt:

``changes_since(version)``
    The net :class:`~repro.incremental.delta.Delta` (facts added, facts
    removed) between a previously snapshotted ``version`` and now, or
    ``None`` when the log no longer reaches back that far (the caller then
    falls back to a full rebuild).  Mutations that cancel out (add then
    discard of the same fact) net to nothing.

``batch()``
    A context manager coalescing many mutations into **one** version step
    and one delta: facts and indexes update immediately inside the batch
    (direct reads — ``in``, ``relation()``, ``probe()`` — see the latest
    state), but the version bump and the log entries are deferred to batch
    exit, so a consumer polling ``changes_since`` sees a single atomic
    delta.  Version-watching consumers (the engine's materializations)
    therefore keep serving the pre-batch snapshot until the batch commits —
    a batch is a transaction from their point of view.

``add_facts(facts)``
    Bulk insert: one batch, one version bump, one log flush — the loader
    path, instead of per-fact version churn.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from collections.abc import Mapping as AbstractMapping
from collections.abc import Set as AbstractSet
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence
from weakref import WeakValueDictionary

from repro.data.facts import Fact
from repro.data.interning import TERMS
from repro.data.schema import Schema
from repro.data.terms import Null, NullFactory, is_null, shared_null_factory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.incremental.delta import Delta

#: One positional index: id-tuple key -> bucket of facts.
_Index = dict[tuple, list[Fact]]

_EMPTY: frozenset = frozenset()
_EMPTY_BUCKET: tuple = ()


class FactSetView(AbstractSet):
    """A zero-copy, read-only set view over one of an instance's fact sets.

    The view resolves its backing set on every operation, so it reflects
    later mutations of the instance — including buckets that are dropped
    when they empty and recreated by a later ``add``.  Set operations
    (``|``, ``&``, ``-``, ``^``) materialise plain ``set`` results, and the
    view compares equal to any set with the same elements.
    """

    __slots__ = ("_resolve",)

    def __init__(self, resolve: Callable[[], AbstractSet]):
        self._resolve = resolve

    def __contains__(self, item: object) -> bool:
        return item in self._resolve()

    def __iter__(self) -> Iterator:
        return iter(self._resolve())

    def __len__(self) -> int:
        return len(self._resolve())

    @classmethod
    def _from_iterable(cls, iterable: Iterable) -> set:
        return set(iterable)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FactSetView({set(self._resolve())!r})"


class _DecodedIndexView(AbstractMapping):
    """A term-keyed, read-only view over an id-keyed positional index.

    Positional indexes key their buckets by dense term ids; this adapter
    lets :meth:`Instance.index` present term-tuple keys to external callers
    (the hot paths go through :meth:`Instance.probe`, which translates once
    and hits the raw dict).
    """

    __slots__ = ("_raw",)

    def __init__(self, raw: _Index):
        self._raw = raw

    def __getitem__(self, key: tuple) -> Sequence[Fact]:
        ikey = TERMS.try_intern_tuple(key)
        if ikey is None:
            raise KeyError(key)
        return self._raw[ikey]

    def __contains__(self, key: object) -> bool:
        if not isinstance(key, tuple):
            return False
        ikey = TERMS.try_intern_tuple(key)
        return ikey is not None and ikey in self._raw

    def __iter__(self) -> Iterator[tuple]:
        return (TERMS.decode_tuple(key) for key in self._raw)

    def __len__(self) -> int:
        return len(self._raw)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_DecodedIndexView({len(self._raw)} keys)"


class Instance:
    """A finite set of facts over constants and labelled nulls."""

    #: Entries retained in the mutation log before the oldest half is dropped.
    change_log_limit = 65_536

    def __init__(self, facts: Iterable[Fact] = ()):
        self._facts: set[Fact] = set()
        self._by_relation: dict[str, set[Fact]] = defaultdict(set)
        # Per-element adjacency (element -> facts mentioning it): None until
        # _adjacency() builds it, maintained by add()/discard() from then on.
        self._by_constant: dict[object, set[Fact]] | None = None
        # Positional indexes, keyed by (relation, positions), buckets keyed
        # by dense term ids (Fact.iargs); built lazily by index()/probe() and
        # maintained incrementally by add()/discard(), which walk the
        # per-relation (positions, index) lists.
        self._indexes: dict[tuple[str, tuple[int, ...]], _Index] = {}
        self._indexes_by_relation: dict[str, list[tuple[tuple, _Index]]] = defaultdict(list)
        # Fresh-null factory: draws from the process-global label counter, so
        # nulls created through different instances (or an instance and its
        # copies, which share the factory) never alias.
        self._null_factory: NullFactory = shared_null_factory()
        self._version = 0
        # Mutation log: (version-after, is_add, fact) triples, enabled for
        # Database (None on plain chase instances, which nobody diffs).
        self._change_log: list[tuple[int, bool, Fact]] | None = None
        self._change_floor = 0
        self._batch_depth = 0
        self._batch_pending: list[tuple[bool, Fact]] = []
        if isinstance(facts, type(self)):
            # Another instance of (at least) this class: copy its sets at C
            # level — stored hashes are reused, no fact is hashed or checked
            # again — and leave the version where per-fact adds would.  (A
            # Database built from a plain Instance takes the loop below,
            # which is what rejects nulls.)
            self._facts = set(facts._facts)
            for name, bucket in facts._by_relation.items():
                self._by_relation[name] = set(bucket)
            self._version = len(self._facts)
        else:
            for fact in facts:
                self.add(fact)

    @property
    def version(self) -> int:
        """Mutation counter: increases on every effective add/discard."""
        return self._version

    @property
    def null_factory(self) -> NullFactory:
        """This instance's fresh-null factory (process-globally unique labels).

        Copies share the factory object, so a copy *continues* the original's
        label sequence instead of restarting it — two chase runs, even over
        an instance and its copy, can never hand out the same label.
        """
        return self._null_factory

    def fresh_null(self) -> Null:
        """A labelled null no other factory in this process ever produced."""
        return self._null_factory()

    # -- construction ----------------------------------------------------

    def _record(self, is_add: bool, fact: Fact) -> None:
        """Bump the version (or defer to batch exit) and log the mutation."""
        if self._batch_depth:
            self._batch_pending.append((is_add, fact))
            return
        self._version += 1
        if self._change_log is not None:
            self._change_log.append((self._version, is_add, fact))
            self._trim_change_log()

    def _trim_change_log(self) -> None:
        log = self._change_log
        if log is not None and len(log) > self.change_log_limit:
            drop = len(log) // 2
            self._change_floor = log[drop - 1][0]
            del log[:drop]

    def add(self, fact: Fact) -> bool:
        """Add ``fact``; return True if it was not already present."""
        facts = self._facts
        size = len(facts)
        facts.add(fact)
        if len(facts) == size:
            return False
        relation = fact.relation
        self._by_relation[relation].add(fact)
        adjacency = self._by_constant
        if adjacency is not None:
            for arg in set(fact.args):
                adjacency[arg].add(fact)
        indexes = self._indexes_by_relation.get(relation)
        if indexes:
            iargs = fact.iargs
            for positions, index in indexes:
                try:
                    key = tuple([iargs[p] for p in positions])
                except IndexError:
                    continue  # arity too short for this index
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [fact]
                else:
                    bucket.append(fact)
        self._record(True, fact)
        return True

    def update(self, facts: Iterable[Fact]) -> int:
        """Add many facts; return how many were new."""
        added = 0
        for fact in facts:
            if self.add(fact):
                added += 1
        return added

    def add_facts(self, facts: Iterable[Fact]) -> int:
        """Bulk insert: add many facts in one :meth:`batch`.

        Indexes are maintained in a single pass and the version bumps once
        for the whole load instead of once per fact, so derived-state
        consumers (materializations, caches) observe one coalesced delta
        rather than per-fact churn.  Returns how many facts were new.
        """
        with self.batch():
            return sum(1 for fact in facts if self.add(fact))

    def discard(self, fact: Fact) -> bool:
        """Remove ``fact`` if present; return True if it was removed."""
        if fact not in self._facts:
            return False
        self._facts.discard(fact)
        relation_bucket = self._by_relation[fact.relation]
        relation_bucket.discard(fact)
        if not relation_bucket:
            del self._by_relation[fact.relation]
        adjacency = self._by_constant
        if adjacency is not None:
            for arg in set(fact.args):
                bucket = adjacency[arg]
                bucket.discard(fact)
                if not bucket:
                    del adjacency[arg]
        for positions, index in self._indexes_by_relation.get(fact.relation, ()):
            key = self._index_key(positions, fact)
            entries = index.get(key) if key is not None else None
            if entries is not None:
                try:
                    entries.remove(fact)
                except ValueError:
                    pass
                if not entries:
                    del index[key]
        self._record(False, fact)
        return True

    @contextmanager
    def batch(self) -> Iterator["Instance"]:
        """Coalesce the mutations inside the ``with`` block into one delta.

        Facts and indexes change immediately (direct reads inside the batch
        see the latest state), but the version bump and the change-log
        entries are deferred until the outermost batch exits, so the whole
        block appears to derived-state consumers as a single atomic
        mutation.  The flip side: consumers that watch ``version`` — the
        engine's materializations — treat the database as unchanged until
        the batch commits, so querying an engine *inside* the block serves
        the pre-batch snapshot.  Nested batches merge into the outermost
        one.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self._batch_pending:
                self._version += 1
                if self._change_log is not None:
                    version = self._version
                    self._change_log.extend(
                        (version, is_add, fact) for is_add, fact in self._batch_pending
                    )
                    self._trim_change_log()
                self._batch_pending.clear()

    def changes_since(self, version: int) -> "Delta | None":
        """The net fact delta between ``version`` and now, or ``None``.

        ``None`` means the delta cannot be reconstructed — this instance
        keeps no change log, the log has been trimmed past ``version``, or
        ``version`` is from the future — and the caller must fall back to a
        full rebuild.  Mutations that cancel out net to nothing, so an empty
        delta is possible even when the version moved.
        """
        from repro.incremental.delta import Delta

        log = self._change_log
        if log is None or version < self._change_floor or version > self._version:
            return None
        added: set[Fact] = set()
        removed: set[Fact] = set()
        start = bisect_right(log, version, key=lambda entry: entry[0])
        for _, is_add, fact in log[start:]:
            if is_add:
                if fact in removed:
                    removed.discard(fact)
                else:
                    added.add(fact)
            elif fact in added:
                added.discard(fact)
            else:
                removed.add(fact)
        return Delta(added=frozenset(added), removed=frozenset(removed))

    @staticmethod
    def _index_key(positions: tuple[int, ...], fact: Fact) -> tuple | None:
        """The fact's key in a positional index, or None if its arity is short.

        Keys are dense term ids (``Fact.iargs``), which hash and compare as
        machine ints.
        """
        iargs = fact.iargs
        try:
            return tuple([iargs[p] for p in positions])
        except IndexError:
            return None

    def copy(self) -> "Instance":
        duplicate = type(self)(self)
        # Continuation, not a restart: the copy draws fresh-null labels from
        # the same factory, so chase runs over original and copy never alias.
        duplicate._null_factory = self._null_factory
        return duplicate

    # -- basic queries ---------------------------------------------------

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Instance):
            return self._facts == other._facts
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = type(self).__name__
        return f"{kind}({len(self._facts)} facts)"

    def facts(self) -> FactSetView:
        """A read-only view of the fact set (zero-copy)."""
        return FactSetView(lambda: self._facts)

    def relation(self, name: str) -> FactSetView:
        """All facts over relation symbol ``name`` (a read-only view)."""
        return FactSetView(lambda: self._by_relation.get(name, _EMPTY))

    def relation_size(self, name: str) -> int:
        """How many facts use relation symbol ``name`` (O(1))."""
        return len(self._by_relation.get(name, _EMPTY))

    def relations(self) -> set[str]:
        """The relation symbols that actually occur in the instance."""
        return {name for name, bucket in self._by_relation.items() if bucket}

    def _adjacency(self) -> dict[object, set[Fact]]:
        """The element -> facts map, built on first use, then maintained."""
        adjacency = self._by_constant
        if adjacency is None:
            adjacency = defaultdict(set)
            for fact in self._facts:
                for arg in set(fact.args):
                    adjacency[arg].add(fact)
            self._by_constant = adjacency
        return adjacency

    def facts_with(self, element: object) -> FactSetView:
        """All facts mentioning the domain element ``element`` (a view)."""
        adjacency = self._adjacency()
        return FactSetView(lambda: adjacency.get(element, _EMPTY))

    # -- positional indexes ----------------------------------------------

    def _raw_index(self, relation: str, positions: tuple[int, ...]) -> _Index:
        """The backing id-keyed index dict, built lazily."""
        key = (relation, positions)
        index = self._indexes.get(key)
        if index is None:
            index = {}
            for fact in self._by_relation.get(relation, _EMPTY):
                ikey = self._index_key(positions, fact)
                if ikey is None:
                    continue
                bucket = index.get(ikey)
                if bucket is None:
                    index[ikey] = [fact]
                else:
                    bucket.append(fact)
            self._indexes[key] = index
            self._indexes_by_relation[relation].append((positions, index))
        return index

    def index(
        self, relation: str, positions: Iterable[int]
    ) -> Mapping[tuple, Sequence[Fact]]:
        """The positional index of ``relation`` on ``positions``.

        Maps each key tuple ``tuple(fact.args[p] for p in positions)`` to the
        bucket of matching facts.  Built lazily on first request, then kept
        up to date incrementally by :meth:`add` / :meth:`discard`.  Facts
        whose arity does not cover every requested position are omitted (they
        cannot match an atom that binds those positions).  Treat the mapping
        and its buckets as read-only.

        The storage is id-keyed; this accessor wraps it in a term-keyed
        read-only view.  Hot paths should use :meth:`probe`, which skips the
        per-key decoding.
        """
        return _DecodedIndexView(self._raw_index(relation, tuple(positions)))

    def probe(
        self, relation: str, positions: Iterable[int], key: tuple
    ) -> Sequence[Fact]:
        """The facts of ``relation`` whose ``positions`` carry ``key`` values.

        Amortised O(1) plus the size of the returned bucket.  The bucket is
        live (read-only): snapshot it before mutating the instance while
        iterating.  ``key`` holds term objects and is translated to ids
        once (a key containing a never-seen term cannot match and
        short-circuits to the empty bucket).
        """
        # Index first: building it is what interns the relation's terms.
        index = self._raw_index(relation, tuple(positions))
        ikey = TERMS.try_intern_tuple(key)
        if ikey is None:
            return _EMPTY_BUCKET
        return index.get(ikey, _EMPTY_BUCKET)

    def adom(self) -> set:
        """The active domain: every constant or null used in some fact."""
        return {arg for fact in self._facts for arg in fact.args}

    def nulls(self) -> set:
        """All labelled nulls occurring in the instance."""
        return {element for element in self.adom() if is_null(element)}

    def constants(self) -> set:
        """All non-null domain elements occurring in the instance."""
        return {element for element in self.adom() if not is_null(element)}

    def schema(self) -> Schema:
        """The schema induced by the facts of the instance."""
        return Schema.from_facts(self._facts)

    def size(self) -> int:
        """``||I||``: total number of symbols needed to write the instance."""
        return sum(1 + fact.arity for fact in self._facts)

    # -- structural operations -------------------------------------------

    def restrict(self, elements: Iterable[object]) -> "Instance":
        """``I|_S``: the facts mentioning only elements of ``S``."""
        keep = set(elements)
        facts = {f for f in self._facts if all(a in keep for a in f.args)}
        return Instance(facts)

    def restrict_relations(self, relations: Iterable[str]) -> "Instance":
        """The facts whose relation symbol is among ``relations``."""
        keep = set(relations)
        return Instance(f for f in self._facts if f.relation in keep)

    def guarded_sets(self) -> set[frozenset]:
        """All maximal guarded sets: the element sets of individual facts."""
        return {frozenset(f.args) for f in self._facts}

    def is_guarded_set(self, elements: Iterable[object]) -> bool:
        """True if some fact mentions every element of ``elements``."""
        wanted = set(elements)
        if not wanted:
            return True
        anchor = next(iter(wanted))
        return any(wanted <= set(f.args) for f in self._adjacency().get(anchor, _EMPTY))

    def gaifman_graph(self) -> dict[object, set]:
        """The Gaifman graph as an adjacency dictionary."""
        graph: dict[object, set] = {element: set() for element in self.adom()}
        for fact in self._facts:
            distinct = set(fact.args)
            for a in distinct:
                graph[a].update(distinct - {a})
        return graph

    def union(self, other: "Instance") -> "Instance":
        merged = Instance(self)
        merged.update(other)
        return merged


class Database(Instance):
    """A finite instance using only constants (no labelled nulls).

    Databases keep a mutation log (see the module docstring) so that the
    incremental-maintenance subsystem can reconstruct the exact fact delta
    between two version snapshots; the construction-time facts are below the
    log floor (nothing existed to diff against before them).
    """

    def __init__(self, facts: Iterable[Fact] = ()):
        super().__init__(facts)
        self._change_log = []
        self._change_floor = self._version
        # Chase runs over this database, keyed by (ontology, null depth,
        # version) and held weakly: see repro.core.omq.shared_chase.
        self.chase_memo: WeakValueDictionary = WeakValueDictionary()

    def __getstate__(self) -> dict:
        # Weak references do not pickle: a pickled database arrives with an
        # empty chase memo, as any new database does.
        return {**self.__dict__, "chase_memo": None}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.chase_memo = WeakValueDictionary()

    def add(self, fact: Fact) -> bool:
        if fact.has_null():
            raise ValueError(f"databases may not contain nulls: {fact}")
        return super().add(fact)
