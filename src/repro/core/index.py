"""Inverted core indexes — the query engine behind the layer's scaling claim.

The paper argues the design space layer is "easily scalable" because it
*indexes* cores instead of storing them.  This module makes that literal:
a :class:`CoreIndex` precomputes, over a snapshot of a core collection,

* the **descendant closure** of every CDO prefix, so "all cores indexed
  at or below ``Operator.Modular.Multiplier``" is a lookup instead of a
  string-prefix scan over the whole federation;
* **posting sets** per (property, value), so design-decision filtering is
  set intersection instead of per-core predicate evaluation;
* **per-merit sorted arrays**, so threshold requirements bisect and
  figure-of-merit ranges probe instead of scanning; and
* **per-merit columns** (value by core id), so a terminal offers only
  its survivors' skyline, swept in an order kept per decided mask.

Every id set is an :class:`IdSet`: an ``int`` bitmask whose bit ``i`` is
core ``i``.  The index builds all of them once, so a prune is a chain of
word-parallel ANDs and iterating a result walks its set bits in
ascending id order — the snapshot order the naive scan returns.

Pruning through the index returns the same :class:`PruneReport` the naive
filter produces — survivors in the same order, the core list built and
elimination reasons reconstructed lazily (and identically) only when
someone reads them.

Indexes are snapshots; freshness is the owner's problem.  The library /
federation / layer classes own one index each and rebuild it when their
epoch counter moves (see ``docs/performance.md``), so callers never flush
caches by hand.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left, bisect_right
from collections import Counter, abc
from itertools import chain, compress
from typing import (AbstractSet, Callable, Dict, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Tuple)

from repro.core.cdo import QNAME_SEP
from repro.core.designobject import DesignObject
from repro.core.evaluation import dominates
from repro.core.properties import Requirement, RequirementSense
from repro.core.pruning import (
    MissingPolicy,
    PruneReport,
    _match_decision,
    _match_requirement,
)

#: Rank prefixes kept per merit.  In an index of ``n`` cores they cost
#: about ``_RANK_PREFIXES * n / 8`` bytes per merit, and a range probe
#: scans at most two blocks of ``holders / _RANK_PREFIXES`` ranks.
_RANK_PREFIXES = 256

#: :func:`_bits` jumps between set bits when they are on average
#: further apart than this many ids, and walks the bytes otherwise.
_SPARSE_SPACING = 64

#: Bit positions set in each byte value, ascending.
_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256))

#: What :meth:`CoreIndex._order` finds for a scope it has never seen.
_UNSEEN = object()


def _bin_popcount(mask: int) -> int:
    """Set bits of a non-negative ``mask``; the fallback before 3.10."""
    return bin(mask).count("1")


#: Set bits of a non-negative ``int``: ``int.bit_count`` (3.10+) walks
#: the machine words, ``bin().count`` builds a string of every bit.
_popcount: Callable[[int], int] = getattr(int, "bit_count", _bin_popcount)


def _mask_of(ids: Iterable[int]) -> int:
    """Bitmask of an id collection (linear in its size)."""
    if isinstance(ids, IdSet):
        return ids.mask
    ids = list(ids)
    if not ids:
        return 0
    if min(ids) < 0:
        raise ValueError(f"core ids are non-negative, got {min(ids)}")
    digits = bytearray(b"0") * (max(ids) + 1)
    for i in ids:
        digits[i] = 49  # ord("1")
    digits.reverse()
    return int(digits, 2)


def _bits(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, ascending."""
    if _popcount(mask) * _SPARSE_SPACING < mask.bit_length():
        # Sparse (a terminal's survivors): jump from one set bit to the
        # next in the binary text.
        text = bin(mask)
        top = len(text) - 1
        out = []
        pos = text.rfind("1")
        while pos > 1:
            out.append(top - pos)
            pos = text.rfind("1", 0, pos)
        return out
    # Dense (a wide report): visit only the non-zero bytes, pairing each
    # with its id offset.
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    offsets = compress(range(0, len(data) << 3, 8), data)
    return [base + bit
            for base, byte in zip(offsets, data.translate(None, b"\0"))
            for bit in _BYTE_BITS[byte]]


class IdSet(AbstractSet[int]):
    """An immutable set of core ids stored as one ``int`` bitmask.

    Supports the set algebra the layer uses — ``& | -`` (with an
    ``IdSet`` or any set of ids on either side), ``len``, truth, ``in``
    and ``==`` against plain sets — and iterates in ascending id order.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0):
        self.mask = mask

    @classmethod
    def _from_iterable(cls, ids: Iterable[int]) -> "IdSet":
        return cls(_mask_of(ids))

    def __len__(self) -> int:
        return _popcount(self.mask)

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, i: object) -> bool:
        return (isinstance(i, int) and i >= 0
                and bool(self.mask >> i & 1))

    def __iter__(self) -> Iterator[int]:
        return iter(_bits(self.mask))

    def __and__(self, other: AbstractSet) -> "IdSet":
        if not isinstance(other, abc.Set):
            return NotImplemented
        return IdSet(self.mask & _mask_of(other))

    __rand__ = __and__

    def __or__(self, other: AbstractSet) -> "IdSet":
        if not isinstance(other, abc.Set):
            return NotImplemented
        return IdSet(self.mask | _mask_of(other))

    __ror__ = __or__

    def __sub__(self, other: AbstractSet) -> "IdSet":
        if not isinstance(other, abc.Set):
            return NotImplemented
        return IdSet(self.mask & ~_mask_of(other))

    def __rsub__(self, other: AbstractSet) -> "IdSet":
        if not isinstance(other, abc.Set):
            return NotImplemented
        return IdSet(_mask_of(other) & ~self.mask)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IdSet):
            return self.mask == other.mask
        if not isinstance(other, abc.Set):
            return NotImplemented
        if not all(isinstance(i, int) and i >= 0 for i in other):
            return False
        return self.mask == _mask_of(other)

    def __repr__(self) -> str:
        return f"IdSet({list(self)!r})"


def _is_plain_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _repeated(names: Sequence[str]) -> int:
    """Mask of the ids whose name occurs more than once in ``names``."""
    counts = Counter(names)
    if len(counts) == len(names):
        return 0
    return _mask_of(i for i, name in enumerate(names) if counts[name] > 1)


def _masks(postings: Mapping[object, List[int]]) -> Dict[object, int]:
    return {key: _mask_of(ids) for key, ids in postings.items()}


class CoreIndex:
    """An immutable inverted index over a snapshot of design objects.

    Core ids are positions in the snapshot order (the owner's iteration
    order), so walking an id set in ascending order reproduces exactly
    the core ordering the linear scans used to return.  Its one mutable
    part is the bounded map of :meth:`_order`, which only caches.
    """

    def __init__(self, cores: Iterable[DesignObject]):
        self.cores: List[DesignObject] = list(cores)
        #: core name by id, so a report can name its survivors without
        #: touching the cores.
        self.names: List[str] = [core.name for core in self.cores]
        #: sha1 of the name table, which :meth:`ids_digest` extends with
        #: an id mask.  Taken here, not on first use: the index is shared
        #: between threads and never written after construction.
        self._names_sha1 = hashlib.sha1(
            "\x00".join(self.names).encode("utf-8")).digest()
        #: ids of the cores whose name another core shares.
        self.repeated_names = IdSet(_repeated(self.names))
        by_exact: Dict[str, List[int]] = {}
        by_prop: Dict[str, Dict[object, List[int]]] = {}
        odd_prop: Dict[str, List[int]] = {}
        merit_ids: Dict[str, List[int]] = {}
        for i, core in enumerate(self.cores):
            by_exact.setdefault(core.cdo_name, []).append(i)
            for name, value in core._properties.items():
                groups = by_prop.setdefault(name, {})
                try:
                    groups.setdefault(value, []).append(i)
                except TypeError:
                    odd_prop.setdefault(name, []).append(i)
            for key in core._merits:
                merit_ids.setdefault(key, []).append(i)
        self._all = (1 << len(self.cores)) - 1
        self.all_ids = IdSet(self._all)
        self._by_exact = _masks(by_exact)
        self._by_subtree: Dict[str, int] = {}
        for cdo_name, mask in self._by_exact.items():
            parts = cdo_name.split(QNAME_SEP)
            for depth in range(1, len(parts) + 1):
                prefix = QNAME_SEP.join(parts[:depth])
                self._by_subtree[prefix] = (self._by_subtree.get(prefix, 0)
                                            | mask)
        self._by_prop = {name: _masks(groups)
                         for name, groups in by_prop.items()}
        self._with_prop = {
            name: _mask_of(chain(odd_prop.get(name, ()), *groups.values()))
            for name, groups in by_prop.items()}
        #: ids whose value for a property is unhashable (checked linearly).
        self._odd_prop = _masks(odd_prop)
        #: merit key -> ids whose value is NaN.  NaN compares false both
        #: ways, so it would scramble a sort; it satisfies no MAX, MIN or
        #: EXACT requirement and no point dominates it, so its holders
        #: stay out of the sorted arrays and the rank prefixes below.
        self._merit_nan: Dict[str, int] = {}
        #: merit key -> (ascending numbers, ids in that order); ties keep
        #: ascending id order.
        self._merit_sorted: Dict[str, Tuple[List[float], List[int]]] = {}
        #: merit key -> (B, masks of the ids ranked below 0, B, 2B, ...
        #: and finally all holders of a number).
        self._merit_prefixes: Dict[str, Tuple[int, List[int]]] = {}
        #: merit key -> value by core id: the core's own value object, or
        #: ``inf`` where it lacks the merit (its outcome coordinate).
        self._merit_columns: Dict[str, List[float]] = {}
        for key, ids in merit_ids.items():
            merits = [self.cores[i]._merits[key] for i in ids]
            column = [math.inf] * len(self.cores)
            for i, value in zip(ids, merits):
                column[i] = value
            self._merit_columns[key] = column
            # A sum is NaN when a term is (or when inf meets -inf), so
            # only then are the values searched.
            if math.isnan(sum(merits)):
                self._merit_nan[key] = _mask_of(
                    i for i, value in zip(ids, merits) if value != value)
                ids = [i for i, value in zip(ids, merits) if value == value]
                merits = [value for value in merits if value == value]
            order = sorted(range(len(ids)), key=merits.__getitem__)
            ids = [ids[k] for k in order]
            self._merit_sorted[key] = ([merits[k] for k in order], ids)
            bits = bytearray(len(self.cores) // 8 + 1)
            prefixes = [0]
            block = -(-len(ids) // _RANK_PREFIXES) or 1
            for start in range(0, len(ids), block):
                for i in ids[start:start + block]:
                    bits[i >> 3] |= 1 << (i & 7)
                prefixes.append(int.from_bytes(bits, "little"))
            self._merit_prefixes[key] = (block, prefixes)
        self._with_merit = {
            key: prefixes[-1] | self._merit_nan.get(key, 0)
            for key, (_, prefixes) in self._merit_prefixes.items()}
        #: name -> ids documenting neither a property nor a merit of it.
        self._undocumented = {
            name: self._all & ~(self._with_prop.get(name, 0)
                                | self._with_merit.get(name, 0))
            for name in set(by_prop) | set(merit_ids)}
        #: (metrics, scope mask) -> the scope's points in :meth:`skyline`
        #: order, or None for a scope seen once; see :meth:`_order`.
        self._orders: Dict[Tuple[Tuple[str, ...], int],
                           Optional[List[Tuple]]] = {}
        #: What :meth:`_order` may still publish, in ids; one cell, so a
        #: publish is a subscript store.
        self._order_room = [len(self.cores)]

    # ------------------------------------------------------------------
    # id-set primitives
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cores)

    def ids_digest(self, ids: IdSet) -> str:
        """Fingerprint of ``ids`` relative to this index's name table:
        sha1 of the name table's sha1 followed by the mask's
        little-endian bytes, truncated to 16 hex digits.

        It lists no id, so it costs one pass over the mask.  Two indexes
        over the same names in the same order give equal digests for
        equal masks; a digest of another index's ids means nothing here.
        """
        mask = ids.mask
        digest = hashlib.sha1(self._names_sha1)
        digest.update(mask.to_bytes((mask.bit_length() + 7) >> 3, "little"))
        return digest.hexdigest()[:16]

    def first_names(self, ids: IdSet, limit: int) -> List[str]:
        """Names of the ``limit`` lowest ids in ``ids``, ascending.

        Lists only a low slice of the mask, doubled until it holds
        ``limit`` ids, so a short page of a wide set lists a few ids
        beyond its own, not the whole set.  The slice never grows past
        the mask, so a huge ``limit`` costs no more than the whole set."""
        mask = ids.mask
        end = mask.bit_length()
        width = min(limit * 8, end)
        low = mask & ((1 << width) - 1)
        while low != mask and _popcount(low) < limit:
            width = min(width << 1, end)
            low = mask & ((1 << width) - 1)
        names = self.names
        return [names[i] for i in _bits(low)[:limit]]

    def subtree_ids(self, cdo_name: str) -> IdSet:
        """Ids of cores indexed at ``cdo_name`` or any descendant."""
        return IdSet(self._by_subtree.get(cdo_name, 0))

    def exact_ids(self, cdo_name: str) -> IdSet:
        return IdSet(self._by_exact.get(cdo_name, 0))

    def materialize(self, ids: Iterable[int]) -> List[DesignObject]:
        """Cores for ``ids`` in snapshot (= federation iteration) order."""
        cores = self.cores
        return [cores[i] for i in _bits(_mask_of(ids))]

    def cores_under(self, cdo_name: str,
                    include_descendants: bool = True) -> List[DesignObject]:
        ids = (self.subtree_ids(cdo_name) if include_descendants
               else self.exact_ids(cdo_name))
        return self.materialize(ids)

    def decision_ids(self, name: str, option: object,
                     policy: MissingPolicy = MissingPolicy.EXCLUDE
                     ) -> IdSet:
        """Ids complying with the decision ``name = option``."""
        groups = self._by_prop.get(name, {})
        try:
            ok = groups.get(option, 0)
        except TypeError:  # unhashable option: compare against each group
            ok = 0
            for value, ids in groups.items():
                if value == option:
                    ok |= ids
        for i in _bits(self._odd_prop.get(name, 0)):
            if self.cores[i].property_value(name) == option:
                ok |= 1 << i
        if policy is MissingPolicy.INCLUDE:
            ok |= self._all & ~self._with_prop.get(name, 0)
        return IdSet(ok)

    def merit_ids_at_most(self, key: str, bound: float) -> IdSet:
        values, ids = self._merit_sorted.get(key, ([], []))
        return IdSet(_mask_of(ids[:bisect_right(values, bound)]))

    def merit_ids_at_least(self, key: str, bound: float) -> IdSet:
        values, ids = self._merit_sorted.get(key, ([], []))
        return IdSet(_mask_of(ids[bisect_left(values, bound):]))

    def requirement_ids(self, req: Requirement, required: object) -> IdSet:
        """Ids *not eliminated* by the requirement value ``required``.

        Mirrors :func:`repro.core.pruning._match_requirement`: a documented
        property value must satisfy the requirement; otherwise a matching
        figure of merit is consulted; cores documenting neither are
        unconstrained.  Grouping by distinct value means ``satisfied_by``
        runs once per value, not once per core.
        """
        ok = self._undocumented.get(req.name, self._all)
        for value, ids in self._by_prop.get(req.name, {}).items():
            if req.satisfied_by(value, required):
                ok |= ids
        for i in _bits(self._odd_prop.get(req.name, 0)):
            if req.satisfied_by(self.cores[i].property_value(req.name),
                                required):
                ok |= 1 << i
        merit_only = (self._with_merit.get(req.name, 0)
                      & ~self._with_prop.get(req.name, 0))
        if merit_only:
            ok |= self._satisfying_merit_ids(req, required).mask & merit_only
        return IdSet(ok)

    def _satisfying_merit_ids(self, req: Requirement, required: object
                              ) -> IdSet:
        if _is_plain_number(required):
            if req.sense is RequirementSense.MAX:
                return self.merit_ids_at_most(req.name, float(required))
            if req.sense in (RequirementSense.MIN,
                             RequirementSense.AT_LEAST_SUPPORT):
                return self.merit_ids_at_least(req.name, float(required))
        # EXACT or a non-numeric requirement value: merits are floats, so
        # fall back to grouped equality via satisfied_by.
        ok: List[int] = []
        values, ids = self._merit_sorted.get(req.name, ([], []))
        start = 0
        while start < len(values):
            stop = bisect_right(values, values[start], lo=start)
            if req.satisfied_by(values[start], required):
                ok.extend(ids[start:stop])
            start = stop
        return IdSet(_mask_of(ok))

    # ------------------------------------------------------------------
    # pruning
    # ------------------------------------------------------------------
    def prune_ids(self, start_ids: Iterable[int],
                  decisions: Mapping[str, object],
                  requirements: Sequence[Tuple[Requirement, object]] = (),
                  policy: MissingPolicy = MissingPolicy.EXCLUDE) -> IdSet:
        """Intersect ``start_ids`` down to the ids complying with every
        decision and requirement value."""
        candidates = _mask_of(start_ids)
        for name, option in decisions.items():
            if not candidates:
                break
            candidates &= self.decision_ids(name, option, policy).mask
        for req, value in requirements:
            if not candidates:
                break
            candidates &= self.requirement_ids(req, value).mask
        return IdSet(candidates)

    def prune(self, cdo_name: str,
              decisions: Mapping[str, object],
              requirements: Sequence[Tuple[Requirement, object]] = (),
              policy: MissingPolicy = MissingPolicy.EXCLUDE
              ) -> "IndexedPruneReport":
        """Indexed equivalent of :func:`repro.core.pruning.prune` over the
        cores under ``cdo_name``; elimination reasons are reconstructed
        only when the report's ``eliminated`` mapping is read.  The
        decisions are applied first, and the report keeps their result as
        ``decided_ids``."""
        start = self.subtree_ids(cdo_name)
        decided_ids = self.prune_ids(start, decisions, (), policy)
        survivor_ids = self.prune_ids(decided_ids, {}, requirements, policy)
        decisions_snapshot = dict(decisions)
        requirements_snapshot = tuple(requirements)

        def reasons() -> Dict[str, str]:
            out: Dict[str, str] = {}
            for i in start - survivor_ids:
                core = self.cores[i]
                reason = None
                for name, option in decisions_snapshot.items():
                    reason = _match_decision(core, name, option, policy)
                    if reason:
                        break
                if reason is None:
                    for req, value in requirements_snapshot:
                        reason = _match_requirement(core, req, value, policy)
                        if reason:
                            break
                assert reason is not None, f"{core.name} unexplained"
                out[core.name] = reason
            return out

        return IndexedPruneReport(None, eliminated_factory=reasons,
                                  survivor_ids=survivor_ids, index=self,
                                  decided_ids=decided_ids)

    # ------------------------------------------------------------------
    # figure-of-merit ranges
    # ------------------------------------------------------------------
    def merit_ranges_for(self, ids: Iterable[int], metrics: Sequence[str]
                         ) -> Dict[str, Tuple[float, float]]:
        """Min/max of each metric over ``ids`` (documenting cores only),
        identical to :func:`repro.core.pruning.merit_ranges` over the
        materialized cores when none of them holds NaN.  A metric where
        one does reads ``(nan, nan)``: NaN is unordered, so the range has
        no defined ends, and :func:`~repro.core.pruning.merit_bounds`
        then gives a bound that no point dominates."""
        mask = _mask_of(ids)
        bits = self._bytes(mask)
        ranges: Dict[str, Tuple[float, float]] = {}
        for metric in metrics:
            have = mask & self._with_merit.get(metric, 0)
            if have & self._merit_nan.get(metric, 0):
                ranges[metric] = (math.nan, math.nan)
            elif have:
                ranges[metric] = (self._merit_min(metric, have, bits),
                                  self._merit_max(metric, have, bits))
        return ranges

    def merit_minima(self, ids: Iterable[int], metrics: Sequence[str]
                     ) -> Tuple[float, ...]:
        """The ideal point of ``ids``: each metric's minimum over them, in
        ``metrics`` order.

        Equals :func:`repro.core.pruning.merit_bounds` of
        :meth:`merit_ranges_for`: ``inf`` for a metric none of them
        documents and ``nan`` for one where one of them holds NaN, a
        coordinate no point dominates."""
        mask = _mask_of(ids)
        bits = self._bytes(mask)
        minima: List[float] = []
        for metric in metrics:
            have = mask & self._with_merit.get(metric, 0)
            if have & self._merit_nan.get(metric, 0):
                minima.append(math.nan)
            elif have:
                minima.append(self._merit_min(metric, have, bits))
            else:
                minima.append(math.inf)
        return tuple(minima)

    def merit_coords(self, i: int, metrics: Sequence[str]
                     ) -> Tuple[float, ...]:
        """Core ``i``'s point in the evaluation space over ``metrics``,
        as :meth:`Outcome.coords <repro.core.explore.outcome.Outcome.coords>`
        reads it: ``inf`` where the core documents no such merit."""
        columns = self._merit_columns
        return tuple(columns[metric][i] if metric in columns else math.inf
                     for metric in metrics)

    def skyline(self, ids: Iterable[int], metrics: Sequence[str],
                within: Optional[Iterable[int]] = None) -> List[int]:
        """The ids in ``ids`` whose :meth:`merit_coords` no other id in
        ``ids`` strictly dominates (all metrics minimized), ascending.

        Only strict dominance rejects, so every id tied at a skyline
        point is kept.  A NaN coordinate neither dominates nor is
        dominated, so its holders are always kept.  The others are
        visited in the :meth:`_order` of ``within`` (a superset of
        ``ids``; ``ids`` itself when omitted, or the first time a
        ``within`` is seen), where any strict dominator of a point comes
        before it: two metrics then take one running-minimum pass (the
        maxima sweep of Kung, Luccio & Preparata), any other number
        compares each point with the points kept so far (the skyline
        operator of Börzsönyi et al.), which is exact because a dropped
        dominator is itself dominated by a kept one.  Each point of the
        order that ``ids`` does not fill is tested for membership in
        ``ids`` by a byte probe, so a kept order is used without listing
        ``ids``."""
        mask = _mask_of(ids)
        nan = 0
        for metric in metrics:
            nan |= self._merit_nan.get(metric, 0)
        # A metric no core documents reads inf everywhere: it ties every
        # pair of points, so it decides no dominance.
        columns = [self._merit_columns[metric] for metric in metrics
                   if metric in self._merit_columns]
        points = self._order(mask,
                             mask if within is None else _mask_of(within),
                             nan, tuple(metrics), columns)
        bits = (None if len(points) == _popcount(mask & ~nan)
                else self._bytes(mask))
        kept = (_sweep_2d(points, bits) if len(columns) == 2
                else _sweep(points, bits))
        nan &= mask
        if nan:
            kept = sorted(kept + _bits(nan))
        return kept

    def _order(self, ids: int, scope: int, nan: int,
               metrics: Tuple[str, ...],
               columns: Sequence[Sequence[float]]) -> List[Tuple]:
        """The ``(coords..., id)`` points over ``columns`` of the ids of
        ``scope`` (a superset of ``ids``) outside ``nan``, ascending;
        only those of ``ids`` the first time ``scope`` is seen.

        Kept per ``(metrics, scope)`` from the second time a scope is
        seen: a terminal's decided mask repeats from walk to walk, so its
        points are sorted once, while a walk whose masks never come back
        sorts no more than its ``ids``.  A scope seen once maps to None.
        Keys and orders hold at most ``len(self)`` ids, a key charged one
        id per 256 bits of its mask; past that, an order is computed and
        not kept, and nothing is ever evicted."""
        key = (metrics, scope)
        order = self._orders.get(key, _UNSEEN)
        if isinstance(order, list):
            return order
        keep = order is None or ids == scope
        rest = _bits((scope if keep else ids) & ~nan)
        new = sorted(zip(*[[column[i] for i in rest] for column in columns],
                         rest))
        room = self._order_room[0] - (len(new) if keep else 0) - (
            0 if order is None else scope.bit_length() >> 8)
        if room >= 0:
            kept = new if keep else None
            # dsa: allow[DSA002] -- idempotent: racing threads store equal orders
            self._orders[key] = kept
            # dsa: allow[DSA002] -- a lost update passes the bound by one order
            self._order_room[0] = room
        return new

    def _bytes(self, mask: int) -> bytes:
        """``mask`` little-endian, long enough to probe any core id."""
        return mask.to_bytes(max(mask.bit_length(), len(self.cores)) // 8 + 1,
                             "little")

    # ``_merit_min`` and ``_merit_max`` take the non-empty id mask ``have``
    # of a metric's holders of a number and ``bits``, a superset of it from
    # :meth:`_bytes`.  Each bisects the rank prefixes for the one block of
    # the sorted array that holds its extreme member, then scans only that
    # block, probing ``bits`` (a byte lookup, where a shift of a 50k-bit
    # ``int`` would cost a copy of it per probe).
    def _merit_min(self, metric: str, have: int, bits: bytes) -> float:
        values, ordered = self._merit_sorted[metric]
        block, prefixes = self._merit_prefixes[metric]
        first = _first_prefix(prefixes, lambda ids: (ids & have) != 0)
        ascending = range((first - 1) * block, first * block)
        return values[_first_member(ordered, ascending, bits)]

    def _merit_max(self, metric: str, have: int, bits: bytes) -> float:
        values, ordered = self._merit_sorted[metric]
        block, prefixes = self._merit_prefixes[metric]
        last = _first_prefix(prefixes, lambda ids: (ids & have) == have)
        descending = range(min(last * block, len(ordered)) - 1,
                           (last - 1) * block - 1, -1)
        return values[_first_member(ordered, descending, bits)]


def _sweep_2d(points: Sequence[Tuple[float, float, int]],
              bits: Optional[bytes]) -> List[int]:
    """Ids of the non-dominated ``(x, y, id)`` points among those whose
    id is set in ``bits`` (all when None), sorted ascending; ``points``
    is ascending.

    A point is dominated by a point of a strictly smaller ``x`` with a
    ``y`` no larger, or by one of its own ``x`` with a smaller ``y``: so
    it is kept when its ``y`` is the least of its ``x`` group (the
    group's first) and below the least of every earlier group.  ``best``
    starts at None, not ``inf``, so an ``inf`` with no earlier group
    stays."""
    kept: List[int] = []
    best: Optional[float] = None
    group_x: Optional[float] = None
    group_y: Optional[float] = None
    for x, y, i in points:
        if bits is not None and not bits[i >> 3] >> (i & 7) & 1:
            continue
        if x != group_x:
            if group_y is not None and (best is None or group_y < best):
                best = group_y
            group_x, group_y = x, y
        if y == group_y and (best is None or y < best):
            kept.append(i)
    kept.sort()
    return kept


def _sweep(points: Sequence[Tuple], bits: Optional[bytes]) -> List[int]:
    """Ids of the non-dominated ``(coords..., id)`` points among those
    whose id is set in ``bits`` (all when None), sorted ascending;
    ``points`` is ascending, and each point is tested against the points
    kept before it."""
    kept: List[Tuple[float, ...]] = []
    ids: List[int] = []
    for point in points:
        i = point[-1]
        if bits is not None and not bits[i >> 3] >> (i & 7) & 1:
            continue
        coords = point[:-1]
        if not any(dominates(other, coords) for other in kept):
            kept.append(coords)
            ids.append(i)
    ids.sort()
    return ids


def _first_member(ordered: Sequence[int], positions: Iterable[int],
                  bits: bytes) -> int:
    """First of ``positions`` whose id ``ordered[pos]`` is set in
    ``bits``; one is known to be."""
    return next(pos for pos in positions
                if bits[ordered[pos] >> 3] >> (ordered[pos] & 7) & 1)


def _first_prefix(prefixes: Sequence[int], reached: Callable[[int], bool]
                  ) -> int:
    """Smallest ``k >= 1`` with ``reached(prefixes[k])``; ``reached`` is
    monotone in ``k`` and holds for the last prefix."""
    lo, hi = 1, len(prefixes) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if reached(prefixes[mid]):
            hi = mid
        else:
            lo = mid + 1
    return lo


class IndexedPruneReport(PruneReport):
    """A :class:`PruneReport` that remembers the id set it came from, so
    downstream set algebra (option annotation, range probes, counts) can
    reuse it without materializing cores.

    ``survivors=None`` defers the core list to its first read, which
    then caches it; :attr:`survivor_names` reads the index's name list
    instead and caches its own list.  :meth:`digest` is
    :meth:`CoreIndex.ids_digest` of the survivor mask, so it lists no
    survivor: it is relative to the index's name table, equal across
    indexes over the same names in the same order, and differs from
    :func:`~repro.core.pruning.names_digest` of the same survivors.  A
    caller that only counts, bounds, names or fingerprints the survivors
    never builds the core list.  Two threads racing on a first read each
    build the same list from the immutable index, so the race is
    harmless.  ``decided_ids`` are the ids the decisions alone leave, a
    superset of the survivors (:meth:`CoreIndex.skyline`'s ``within``)."""

    def __init__(self, survivors: Optional[List[DesignObject]],
                 eliminated=None, eliminated_factory=None,
                 survivor_ids: IdSet = IdSet(),
                 index: "CoreIndex" = None,
                 decided_ids: Optional[IdSet] = None):
        super().__init__(survivors, eliminated, eliminated_factory)
        self.survivor_ids = survivor_ids
        self.decided_ids = decided_ids
        self.index = index
        self._survivor_names: Optional[List[str]] = None

    @property
    def survivors(self) -> List[DesignObject]:
        if self._survivors is None:
            self._survivors = self.index.materialize(self.survivor_ids)
        return self._survivors

    @survivors.setter
    def survivors(self, cores: Optional[List[DesignObject]]) -> None:
        self._survivors = cores

    @property
    def survivor_names(self) -> List[str]:
        if self._survivor_names is None:
            names = self.index.names
            self._survivor_names = [names[i]
                                    for i in _bits(self.survivor_ids.mask)]
        return self._survivor_names

    def digest(self) -> str:
        """:meth:`CoreIndex.ids_digest` of the survivor mask; not
        memoized, since it lists no survivor."""
        return self.index.ids_digest(self.survivor_ids)
