"""Finite groupoids as integer tables.

An arrow is an opaque hashable identifier. Units are themselves arrows
(identity arrows). A pair (g1, g2) is composable iff src(g1) == rng(g2),
and the composite g1*g2 then satisfies src(g1*g2) == src(g2) and
rng(g1*g2) == rng(g1): an arrow is a map src -> rng and composition is
function composition, rightmost factor first. This convention is fixed
here and every convolution formula in the package depends on it.

A :class:`FiniteGroupoid` keeps one integer representation: the arrow
names with their ``index``, the arrays ``src_idx``, ``rng_idx`` and
``unit_idx`` of arrow indices, and the w = 1 structure table ``table``,
the only storage of composition (entry (a, b, c): a b = c) and inverse
(its star entries, ``inv_idx``). The name-level ``units``, ``src``,
``rng``, ``inv`` and ``comp`` are read-only views built on first use, for
files, witnesses and tests. A :class:`GroupoidMorphism` keeps one codomain
index per domain arrow (``image``), with ``map`` its name view.

Every table lists each composable pair once, in (a, b) order: the
:class:`FiniteGroupoid` constructor alone establishes it, through the
:class:`PairLayout` read off ``src_idx`` and ``rng_idx``. It puts each
entry in its place (a table already in order is kept as it is) and
refuses a table that misses a pair, repeats one or lists a
non-composable one. Every pair lookup is then a gather through the
layout.

All topological conditions (openness, continuity, Haar systems) are
automatic for finite discrete groupoids; classification reports record
them as vacuously satisfied instead of dropping them.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from types import MappingProxyType
from typing import Optional

import numpy as np


class GroupoidError(ValueError):
    """A groupoid table axiom failed; ``witness`` holds the offending arrows."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class MissingComposite(GroupoidError):
    pass


class IllegalComposite(GroupoidError):
    pass


class AssociativityFailure(GroupoidError):
    pass


class UnitFailure(GroupoidError):
    pass


class InverseFailure(GroupoidError):
    pass


class NotAMorphism(GroupoidError):
    pass


class NotSurjective(GroupoidError):
    pass


class NotASubgroupoid(GroupoidError):
    pass


class NotABisection(GroupoidError):
    pass


def pair_id(a, b) -> str:
    """Canonical string id for a constructed pair arrow."""
    return f"({a},{b})"


def _join(x, y, order=None):
    """Index arrays (i, j) listing every pair with x[i] == y[j]; ``order``
    is a stable argsort of y when the caller keeps one."""
    if order is None:
        order = np.argsort(y, kind="stable")
    ys = y[order]
    lo = np.searchsorted(ys, x, "left")
    return _runs(lo, np.searchsorted(ys, x, "right") - lo, order)


def _runs(lo, count, order=None):
    """The pairs (i, j) of j in order[lo[i]:lo[i] + count[i]], each i
    (j in that range itself without ``order``)."""
    i = np.repeat(np.arange(len(lo)), count)
    j = np.arange(len(i)) + np.repeat(lo - np.cumsum(count) + count, count)
    return i, j if order is None else order[j]


def _ranks(label):
    """(count per label, rank of every item among those of its label)."""
    count = np.bincount(label)
    place = np.empty(len(label), dtype=np.int64)
    place[np.argsort(label, kind="stable")] = \
        np.arange(len(label)) - np.repeat(np.cumsum(count) - count, count)
    return count, place


class PairLayout:
    """The place of each pair (x, y), src(x) = rng(y), in a table that
    lists them once in (x, y) order, from the labels ``src`` and ``rng`` of
    the items (arrows, or a table's pattern): off[x] + rpos[y], rpos[y] the
    rank of y among the items with range rng(y); row x ends at off[x + 1].
    Transposed, ``by_src`` lists the items by source and ``sfirst`` where
    each label starts in it: column y holds the x with src(x) = rng(y)."""

    __slots__ = ("src", "rng", "off", "rpos", "_ends", "by_src", "sfirst")

    def __init__(self, src, rng):
        # the ends, then -1 and -2 at item n, which no pair shares
        self._ends = np.append(src, -1), np.append(rng, -2)
        self.src, self.rng = (v[:-1] for v in self._ends)
        labels = int(max(src.max(initial=-1), rng.max(initial=-1))) + 1
        ns, nr = (np.bincount(v, minlength=labels) for v in (src, rng))
        self.off = np.concatenate(([0], np.cumsum(nr[src])))
        self.sfirst = np.concatenate(([0], np.cumsum(ns)))
        self.by_src = np.argsort(src, kind="stable")
        self.rpos = np.zeros(len(rng) + 1, np.int64)
        self.rpos[np.argsort(rng, kind="stable")] = \
            np.arange(len(rng)) - np.repeat(np.cumsum(nr) - nr, nr)

    def entries(self, x, y):
        """The entries of the pairs (x[i], y[i]), -1 where they are not
        composable or either is no item: one gather, any index outside
        [0, n) read at item n."""
        n = len(self.src)
        x, y = (np.minimum(np.maximum(v, -1), n) for v in (x, y))
        s, r = self._ends
        return np.where(s[x] == r[y], self.off[x] + self.rpos[y], -1)

    def place(self, x, y):
        """The places of the composable pairs (x[i], y[i]), or None unless
        they are every composable pair once."""
        e = self.off[x] + self.rpos[y]
        return e if len(e) == self.off[-1] and np.all(
            np.bincount(e, minlength=len(e)) == 1) else None

    def rows(self, x):
        """(i, e): the entries e of row x[i], each i, in order."""
        return _runs(self.off[x], self.off[x + 1] - self.off[x])

    def columns(self, y):
        """(j, x): the x of column y[j], each j, in item order."""
        r = self.rng[y]
        return _runs(self.sfirst[r], self.sfirst[r + 1] - self.sfirst[r],
                     self.by_src)


def _grouped(label, m: int, arrays):
    """(arrays, (first, count)): ``arrays``, aligned with ``label`` in
    [0, m), with the items of each label in one run (one stable sort, only
    if they are not), and where each label's run starts and its length."""
    count, first = np.bincount(label, minlength=m), np.zeros(m, np.int64)
    start = np.flatnonzero(np.diff(label, prepend=-1))
    if len(start) > np.count_nonzero(count):
        order = np.argsort(label, kind="stable")
        label, arrays = label[order], tuple(v[order] for v in arrays)
        start = np.flatnonzero(np.diff(label, prepend=-1))
    first[label[start]] = start
    return arrays, (first, count)


def _table(n: int, a, b, c, inv):
    """The w = 1 structure table of a groupoid on n arrows: products
    e_a e_b = e_c and stars e_g* = e_inv(g)."""
    from .algebra import StructureTable  # algebra imports this module
    return StructureTable(n, a, b, c, np.ones(len(a)), np.arange(n), inv,
                          np.ones(n))


def _placed(arrows, L: PairLayout, T):
    """T with each entry in its place in L: T itself when they are in
    place, else its entries reordered. IllegalComposite at the first entry
    that is no composable pair of arrows, then MissingComposite at the
    first composable pair that has no entry (by g2, then g1, in arrow
    order), then IllegalComposite at the first entry whose pair an earlier
    one lists."""
    e, m = L.entries(T.a, T.b), int(L.off[-1])
    i = _prefix(e >= 0)
    if i < len(e):
        g1, g2 = (arrows[x] if 0 <= x < len(arrows) else x
                  for x in (T.a[i], T.b[i]))
        raise IllegalComposite(
            f"comp defined on non-composable pair ({g1!r}, {g2!r})",
            witness=(g1, g2))
    if np.array_equal(e, np.arange(m)):
        return T
    hit = np.bincount(e, minlength=m) > 0
    if not hit.all():
        g2, g1 = L.columns(np.arange(len(arrows)))
        j = _prefix(hit[L.off[g1] + L.rpos[g2]])
        g1, g2 = arrows[g1[j]], arrows[g2[j]]
        raise MissingComposite(
            f"composable pair ({g1!r}, {g2!r}) missing from comp",
            witness=(g1, g2))
    if len(e) > m:
        i = _first_repeat(e.tolist())
        g1, g2 = arrows[T.a[i]], arrows[T.b[i]]
        raise IllegalComposite(
            f"comp lists the pair ({g1!r}, {g2!r}) twice", witness=(g1, g2))
    order = np.empty(m, np.int64)
    order[e] = np.arange(m)
    from .algebra import StructureTable  # algebra imports this module
    return StructureTable(T.dim, T.a[order], T.b[order], T.c[order],
                          T.w[order], T.s, T.t, T.sw)


class _PairView(Mapping):
    """Read-only name view (g1, g2) -> value of the composable pairs of a
    table whose basis elements are named ``arrows``, in table order:
    ``values()`` lists the values in that order, by default the names of
    the composites. Its length is the table's; its names are built on
    first lookup. It keeps names and table, not a groupoid, so that the
    views a groupoid keeps make no reference cycle with it."""

    def __init__(self, arrows, table, values=None):
        self._arrows, self._table, self._values = arrows, table, values

    def __len__(self) -> int:
        return len(self._table.a)

    def __iter__(self):
        return iter(self._pairs)

    def __getitem__(self, pair):
        return self._pairs[pair]

    @cached_property
    def _pairs(self) -> dict:
        T, name = self._table, self._arrows.__getitem__
        return dict(zip(zip(map(name, T.a.tolist()), map(name, T.b.tolist())),
                        self._values() if self._values else
                        map(name, T.c.tolist())))


class FiniteGroupoid:
    """Immutable finite groupoid on the integer tables of the module
    docstring. Build instances through :func:`validate_groupoid`
    (exhaustive axiom check) or one of the builders. The constructor
    checks one axiom, that the table lists each composable pair once: it
    puts a table that does so in (a, b) order (:attr:`layout`, through
    which every pair lookup is a gather) and refuses any other table; it
    checks no composite, unit or inverse."""

    __slots__ = ("arrows", "index", "unit_idx", "src_idx", "rng_idx",
                 "layout", "table", "_views", "_rep")

    def __init__(self, arrows, unit_idx, src_idx, rng_idx, table, index=None):
        self.arrows = tuple(arrows)
        self.index = index or {g: i for i, g in enumerate(self.arrows)}
        self.unit_idx, self.src_idx, self.rng_idx = (
            np.asarray(v, dtype=np.int64) for v in (unit_idx, src_idx,
                                                    rng_idx))
        for v in (self.unit_idx, self.src_idx, self.rng_idx):
            v.flags.writeable = False
        self.layout = PairLayout(self.src_idx, self.rng_idx)
        self.table = _placed(self.arrows, self.layout, table)
        self._views = {}
        self._rep = None  # built by gpdkit.algebra on first use

    def __len__(self) -> int:
        return len(self.arrows)

    def __repr__(self) -> str:
        return (f"FiniteGroupoid({len(self)} arrows, "
                f"{len(self.unit_idx)} units)")

    def _view(self, name: str, build):
        if name not in self._views:
            self._views[name] = build()
        return self._views[name]

    def _arrow_map(self, name, ids):
        return self._view(name, lambda: MappingProxyType(
            dict(zip(self.arrows, self.names(ids)))))

    inv_idx = property(lambda self: self.table.t)
    units = property(lambda self: self._view(
        "units", lambda: tuple(self.names(self.unit_idx))))
    src = property(lambda self: self._arrow_map("src", self.src_idx))
    rng = property(lambda self: self._arrow_map("rng", self.rng_idx))
    inv = property(lambda self: self._arrow_map("inv", self.inv_idx))
    comp = property(lambda self: self._view("comp", lambda: _PairView(
        self.arrows, self.table)))

    def names(self, ids) -> list:
        """The arrow names of an array of arrow indices."""
        return list(map(self.arrows.__getitem__, np.asarray(ids).tolist()))

    def unit_mask(self) -> np.ndarray:
        """Which arrows are units, by arrow index."""
        mask = np.zeros(len(self.arrows), dtype=bool)
        mask[self.unit_idx] = True
        return mask

    def entry_ids(self, h1, h2) -> np.ndarray:
        """Table entry of the pair of arrows h1[i] and h2[i] (index
        arrays), -1 where they are not composable or either is no arrow
        index: the one pair lookup, a gather through :attr:`layout`."""
        return self.layout.entries(h1, h2)

    def compose_ids(self, h1, h2) -> np.ndarray:
        """Index of the composite of arrows h1[i] and h2[i] (index arrays),
        -1 where they are not composable."""
        e, c = self.entry_ids(h1, h2), self.table.c
        return np.where(e >= 0, c[e], -1) if len(c) else e

    def row_entries(self, h):
        """(i, e): the table entries e with first factor h[i], each i."""
        return self.layout.rows(h)

    def column_entries(self, h):
        """(j, e): the table entries e with second factor h[j], each j, by
        first factor."""
        L = self.layout
        j, x = L.columns(h)
        return j, L.off[x] + L.rpos[h[j]]

    def pair_ids(self):
        """(g1, g2) index arrays of the composable pairs, by g2, then g1."""
        T = self.table
        e = self.column_entries(np.arange(len(self.arrows)))[1]
        return T.a[e], T.b[e]

    def composable_pairs(self):
        """The name pairs (g1, g2) of :meth:`pair_ids`, in its order."""
        return zip(*map(self.names, self.pair_ids()))

    def is_unit(self, g) -> bool:
        return bool(np.any(self.unit_idx == self.index[g]))

    def composable(self, g1, g2) -> bool:
        return self.src_idx[self.index[g1]] == self.rng_idx[self.index[g2]]


def _ids(names, index) -> np.ndarray:
    """Indices of ``names`` under ``index`` (name -> index), -1 where a
    name is not a key (an unhashable item is none)."""
    try:
        return np.fromiter(map(index.get, names, repeat(-1)), np.int64,
                           len(names))
    except TypeError:
        return np.array([index.get(x, -1) if isinstance(x, Hashable) else -1
                         for x in names], np.int64)


def _index(ids, what: str) -> dict:
    """Position of each id of a list of distinct ids; GroupoidError naming
    the first id that repeats an earlier one."""
    index = {g: i for i, g in enumerate(ids)}
    if len(index) != len(ids):
        g = ids[_first_repeat(ids)]
        raise GroupoidError(f"duplicate {what} identifier {g!r}", witness=g)
    return index


def _first_repeat(keys) -> int:
    """The place of the first key equal to an earlier one (there is one)."""
    first = {}
    return next(i for i, key in enumerate(keys)
                if first.setdefault(key, i) != i)


def _prefix(mask) -> int:
    """Length of the run of True that starts a boolean array: the index of
    its first False entry, or its length."""
    return len(mask) if mask.all() else int(np.argmin(mask))


_MISSING = object()


def _column(table, name, arrows, index) -> np.ndarray:
    """table[g] of each arrow g as an arrow index (``table`` maps names or
    is an index array); GroupoidError at the first entry missing or
    undeclared."""
    if isinstance(table, np.ndarray):
        values = table
        ids = np.where((table >= 0) & (table < len(arrows)), table, -1)
    else:
        values = list(map(table.get, arrows, repeat(_MISSING)))
        ids = _ids(values, index)
    i = _prefix(ids >= 0)
    if i < len(arrows):
        g = arrows[i]
        if values[i] is _MISSING:
            raise GroupoidError(f"{name} is not total: missing {g!r}", witness=g)
        raise GroupoidError(
            f"{name}[{g!r}] = {values[i]!r} is not a declared arrow", witness=g)
    return ids


def validate_groupoid(arrows, units, src, rng, inv, comp) -> FiniteGroupoid:
    """Check every groupoid axiom exhaustively and return the groupoid.

    ``src``, ``rng`` and ``inv`` map arrow names to names or are integer
    arrays of arrow indices; ``comp`` is a mapping ``(g1, g2) -> g12``, an
    iterable of ``(g1, g2, g12)`` triples or an (m, 3) array of arrow
    indices, listing each composable pair once (a repeat is an
    IllegalComposite); the table keeps them in (a, b) order. Each axiom is a mask over index arrays and the first
    failing entry (comp in its given order) is reported; associativity is
    ``StructureTable.associativity_defect`` of the w = 1 table (residual
    0). Raises MissingComposite, IllegalComposite, AssociativityFailure
    (witness: the first failing triple in arrow order), UnitFailure or
    InverseFailure, with the offending arrows."""
    arrows = tuple(arrows)
    n = len(arrows)
    index = _index(arrows, "arrow")
    units = tuple(units)
    uid = _ids(units, index)
    i = _prefix(uid >= 0)
    if i < len(units):
        raise UnitFailure(f"unit {units[i]!r} is not a declared arrow",
                          witness=units[i])
    if isinstance(comp, np.ndarray):
        a, b, c = np.ascontiguousarray(comp.reshape(-1, 3).T)
    elif isinstance(comp, Mapping):
        a, b = _ids(list(chain.from_iterable(comp)), index).reshape(-1, 2).T.copy()
        c = _ids(list(comp.values()), index)
    else:  # listed, as a dict of the triples would drop a repeated pair
        comp = [(g1, g2, g12) for g1, g2, g12 in comp]
        a, b, c = _ids(list(chain.from_iterable(comp)), index).reshape(
            -1, 3).T.copy()

    S, R, I = (_column(t, name, arrows, index)
               for t, name in ((src, "src"), (rng, "rng"), (inv, "inv")))
    is_unit = np.zeros(n, bool)
    is_unit[uid] = True
    i = _prefix(is_unit[S] & is_unit[R])
    if i < n:
        g = arrows[i]
        if not is_unit[S[i]]:
            raise UnitFailure(f"src[{g!r}] = {arrows[S[i]]!r} is not a unit",
                              witness=g)
        raise UnitFailure(f"rng[{g!r}] = {arrows[R[i]]!r} is not a unit",
                          witness=g)

    # comp defined exactly on composable pairs, with matching src/rng laws
    undeclared = (a < 0) | (b < 0) | (c < 0)
    apart = S[a] != R[b]
    i = _prefix(~(undeclared | apart | (S[c] != S[b]) | (R[c] != R[a])))
    if i < len(a):
        if isinstance(comp, np.ndarray):
            g1, g2, g12 = (arrows[j] for j in (a[i], b[i], c[i]))
        elif isinstance(comp, Mapping):
            (g1, g2), g12 = next(islice(comp.items(), i, None))
        else:
            g1, g2, g12 = comp[i]
        if undeclared[i]:
            raise IllegalComposite(
                f"comp entry ({g1!r}, {g2!r}) -> {g12!r} uses undeclared arrows",
                witness=(g1, g2, g12))
        if apart[i]:
            raise IllegalComposite(
                f"comp defined on non-composable pair ({g1!r}, {g2!r})",
                witness=(g1, g2))
        raise IllegalComposite(
            f"composite {g12!r} of ({g1!r}, {g2!r}) has wrong source or range",
            witness=(g1, g2, g12))
    # each composable pair listed once, the table put in (a, b) order, as
    # the witnesses from here on are in arrow order
    G = FiniteGroupoid(arrows, uid, S, R, _table(n, a, b, c, I), index)
    i = _prefix((S[uid] == uid) & (R[uid] == uid))
    if i < len(units):
        u = units[i]
        raise UnitFailure(f"unit {u!r} has src/rng != itself", witness=u)

    ids = np.arange(n)
    # (rng g) g and g (src g), then g (inv g) and (inv g) g
    left, right = G.compose_ids(R, ids) == ids, G.compose_ids(ids, S) == ids
    i = _prefix(left & right)
    if i < n:
        g, s, r = arrows[i], arrows[S[i]], arrows[R[i]]
        if not left[i]:
            raise UnitFailure(f"left unit law fails: {r!r} * {g!r} != {g!r}",
                              witness=(r, g))
        raise UnitFailure(f"right unit law fails: {g!r} * {s!r} != {g!r}",
                          witness=(g, s))

    involutive = I[I] == ids
    placed = (S[I] == R) & (R[I] == S)
    gi_ok, ig_ok = G.compose_ids(ids, I) == R, G.compose_ids(I, ids) == S
    i = _prefix(involutive & placed & gi_ok & ig_ok)
    if i < n:
        g, gi = arrows[i], arrows[I[i]]
        if not involutive[i]:
            raise InverseFailure(f"inv is not involutive at {g!r}", witness=g)
        if not placed[i]:
            raise InverseFailure(f"inv[{g!r}] has wrong source or range", witness=g)
        if not gi_ok[i]:
            raise InverseFailure(
                f"{g!r} * {gi!r} != rng({g!r})", witness=(g, gi))
        raise InverseFailure(
            f"{gi!r} * {g!r} != src({g!r})", witness=(gi, g))

    res, triple = G.table.associativity_defect()
    if res > 0:
        g1, g2, g3 = (arrows[i] for i in triple)
        raise AssociativityFailure(
            f"({g1!r}*{g2!r})*{g3!r} != {g1!r}*({g2!r}*{g3!r})",
            witness=(g1, g2, g3))
    return G


def pair_blocks(blocks) -> FiniteGroupoid:
    """Disjoint union of the pair groupoids on ``blocks`` (lists of point
    labels): arrow pair_id(p, q) runs q -> p and (p, q)(q, r) = (p, r);
    arrows, units and composable pairs are listed block by block, in the
    order of the labels (p, then q, then r)."""
    arrows, cols = [], []
    for block in blocks:
        m, o = len(block), len(arrows)
        arrows.extend(pair_id(p, q) for p in block for q in block)
        p, q = np.divmod(np.arange(m * m), m)
        x, y, z = np.indices((m, m, m)).reshape(3, -1)
        # units (p, p); src, rng and inverse of (p, q); (x, y)(y, z)
        cols.append((o + np.arange(m) * (m + 1), o + q * (m + 1),
                     o + p * (m + 1), o + q * m + p, o + x * m + y,
                     o + y * m + z, o + x * m + z))
    u, s, r, i, a, b, c = (np.concatenate(v) for v in zip(*cols)) if cols \
        else (np.zeros(0, np.int64),) * 7
    return FiniteGroupoid(arrows, u, s, r, _table(len(arrows), a, b, c, i))


class GroupoidMorphism:
    """A map of arrow sets that is required to be functorial; check with
    :func:`check_morphism` / :func:`classify_morphism`. ``image[g]`` is
    the codomain index of the image of domain arrow g, given as ``map``:
    an integer array or a mapping of names. A domain arrow such a mapping
    sends to no codomain arrow gets -1, and ``unmapped`` keeps what it was
    given, for the witness; ``map`` is a read-only view of ``image``."""

    __slots__ = ("domain", "codomain", "image", "unmapped", "_map")

    def __init__(self, domain: FiniteGroupoid, codomain: FiniteGroupoid, map):
        self.domain, self.codomain, self._map = domain, codomain, None
        self.unmapped = {}
        if isinstance(map, np.ndarray):
            self.image = map.astype(np.int64)
        else:
            values = [map.get(g, _MISSING) for g in domain.arrows]
            self.image = _ids(values, codomain.index)
            for i in np.flatnonzero(self.image < 0).tolist():
                self.unmapped[domain.arrows[i]] = values[i]
        self.image.flags.writeable = False

    @property
    def map(self) -> Mapping:
        if self._map is None:
            m = dict(zip(self.domain.arrows, self.codomain.names(self.image)))
            self._map = MappingProxyType({g: h for g, h in {
                **m, **self.unmapped}.items() if h is not _MISSING})
        return self._map

    def __repr__(self):
        return (f"GroupoidMorphism({len(self.domain)} -> "
                f"{len(self.codomain)} arrows)")


@dataclass(frozen=True)
class MorphismClassification:
    is_morphism: bool
    surjective: bool
    surjective_on_units: bool
    fibration: bool
    covering: bool
    witness: Optional[tuple] = None
    # openness and continuity have no content for finite discrete groupoids;
    # recorded so reports can surface rather than silently drop them
    openness_automatic: bool = True

    def as_dict(self) -> dict:
        return {**asdict(self), "witness": None if self.witness is None
                else repr(self.witness)}


def check_morphism(pi: GroupoidMorphism):
    """Raise NotAMorphism (with witness) unless pi is functorial: a total
    map into the codomain, then src/rng intertwined, then multiplicative,
    each a mask whose first failing arrow (or table entry) is named."""
    G, H, f = pi.domain, pi.codomain, pi.image
    i = _prefix(f >= 0)
    if i < len(f):
        g = G.arrows[i]
        h = pi.unmapped.get(g, _MISSING)
        if h is _MISSING:
            raise NotAMorphism(f"map not total: missing {g!r}", witness=g)
        raise NotAMorphism(f"map[{g!r}] = {h!r} not in codomain", witness=g)
    i = _prefix((H.src_idx[f] == f[G.src_idx])
                & (H.rng_idx[f] == f[G.rng_idx]))
    if i < len(f):
        g = G.arrows[i]
        raise NotAMorphism(f"map does not intertwine src/rng at {g!r}",
                           witness=g)
    T = G.table
    i = _prefix(H.compose_ids(f[T.a], f[T.b]) == f[T.c])
    if i < len(T.a):
        g1, g2 = G.arrows[T.a[i]], G.arrows[T.b[i]]
        raise NotAMorphism(
            f"map not multiplicative on ({g1!r}, {g2!r})", witness=(g1, g2))


def classify_morphism(pi: GroupoidMorphism) -> MorphismClassification:
    """Classify pi as morphism / surjective / fibration / covering.

    The fibration test counts, for every codomain arrow h and every
    domain unit x over src(h), the lifts g of h with src(g) == x (one
    sort of the domain arrows by (src, image)); covering requires exactly
    one lift. Exhaustive, with the first failing (h, x), h in arrow order
    and x in unit order, as witness.
    """
    G, H = pi.domain, pi.codomain
    try:
        check_morphism(pi)
    except NotAMorphism as exc:
        return MorphismClassification(False, False, False, False, False,
                                      witness=exc.witness)

    f, nH = pi.image, len(H.arrows)
    hit = np.bincount(f, minlength=nH) > 0
    surjective = bool(hit.all())
    surj_units = set(f[G.unit_idx].tolist()) == set(H.unit_idx.tolist())

    # lifts of h from x: the arrows g with (src(g), pi(g)) = (x, h), for
    # the pairs (h, x) with pi(x) = src(h)
    h, x = _join(H.src_idx, f[G.unit_idx])
    lifts = np.sort(G.src_idx * nH + f)
    key = G.unit_idx[x] * nH + h
    count = np.searchsorted(lifts, key, "right") \
        - np.searchsorted(lifts, key, "left")
    bad = np.flatnonzero(count != 1)
    witness = (H.arrows[h[bad[0]]], G.arrows[G.unit_idx[x[bad[0]]]]) \
        if len(bad) else None
    # a fibration is a surjective morphism with the lift property; the fact
    # that lift property + unit surjectivity already forces arrow
    # surjectivity is recorded by the separate flags, not assumed here
    fibration = surjective and bool(np.all(count > 0))
    covering = fibration and bool(np.all(count <= 1))
    if not surjective and witness is None:
        missing = sorted(H.names(np.flatnonzero(~hit)), key=repr)
        witness = (missing[0],)
    return MorphismClassification(True, surjective, surj_units,
                                  fibration, covering, witness)


def subgroupoid(G: FiniteGroupoid, arrows, require_all_units=True) -> FiniteGroupoid:
    """Restrict G to a subset of arrows (names, or a boolean mask over the
    arrows of G), in arrow order, checking closure under composition,
    inverse and units; with require_all_units the unit space stays G^0.
    NotASubgroupoid names the first member whose inverse, source or range
    is not a member, then the first missing unit, then the first pair of
    members (in table order) with a composite outside."""
    keep = arrows
    if not (isinstance(arrows, np.ndarray) and arrows.dtype == bool):
        arrows = list(dict.fromkeys(arrows))
        ids = _ids(arrows, G.index)
        i = _prefix(ids >= 0)
        if i < len(ids):
            raise NotASubgroupoid(f"{arrows[i]!r} is not an arrow of G",
                                  witness=arrows[i])
        keep = np.zeros(len(G.arrows), bool)
        keep[ids] = True
    S, R, I = G.src_idx, G.rng_idx, G.inv_idx
    i = _prefix(~keep | (keep[I] & keep[S] & keep[R]))
    if i < len(keep):
        g = G.arrows[i]
        if not keep[I[i]]:
            raise NotASubgroupoid(f"not closed under inverse at {g!r}",
                                  witness=g)
        u = G.arrows[S[i] if not keep[S[i]] else R[i]]
        raise NotASubgroupoid(f"missing unit {u!r} of member arrow {g!r}",
                              witness=g)
    units = G.unit_idx
    i = _prefix(keep[units])
    if require_all_units and i < len(units):
        u = G.arrows[units[i]]
        raise NotASubgroupoid(
            f"subgroupoid must contain all units; missing {u!r}", witness=u)
    T = G.table
    e = keep[T.a] & keep[T.b]
    i = _prefix(~e | keep[T.c])
    if i < len(e):
        g1, g2 = G.arrows[T.a[i]], G.arrows[T.b[i]]
        raise NotASubgroupoid(
            f"not closed under composition at ({g1!r}, {g2!r})",
            witness=(g1, g2))
    pos = np.cumsum(keep) - 1  # the new index of each member
    return FiniteGroupoid(G.names(np.flatnonzero(keep)),
                          pos[units[keep[units]]], pos[S[keep]],
                          pos[R[keep]], _table(
                              int(keep.sum()), pos[T.a[e]], pos[T.b[e]],
                              pos[T.c[e]], pos[I[keep]]))


def inclusion(G: FiniteGroupoid, K: FiniteGroupoid) -> np.ndarray:
    """The arrow indices in G of the arrows of K, once K is checked to be
    the subgroupoid of G on its arrows (:func:`subgroupoid`), with G's
    units, whose inclusion into G is a morphism (:func:`check_morphism`)
    that keeps inverses. K then lists every composable pair of G on its
    arrows: the inclusion matches src and rng through the injective ids,
    so such a pair is composable in K, and K's constructor refuses a
    table that misses one. NotASubgroupoid carries the witness of the
    first failure."""
    subgroupoid(G, K.arrows)
    ids = _ids(K.arrows, G.index)
    try:
        check_morphism(GroupoidMorphism(K, G, ids))
    except NotAMorphism as exc:
        raise NotASubgroupoid(f"inclusion: {exc}", witness=exc.witness) \
            from None
    i = _prefix(G.inv_idx[ids] == ids[K.inv_idx])
    if i < len(ids):
        raise NotASubgroupoid(f"inclusion does not keep the inverse of "
                              f"{K.arrows[i]!r}", witness=K.arrows[i])
    if set(ids[K.unit_idx].tolist()) != set(G.unit_idx.tolist()):
        raise NotASubgroupoid("subgroupoid must keep the full unit space")
    return ids


@dataclass(frozen=True)
class KernelDecomposition:
    """The kernel of a surjective morphism with its fiberwise partition.

    ``fibers[x]`` lists the arrows over the codomain unit x; amenability
    of the kernel is automatic at finite scale and recorded as such."""
    groupoid: FiniteGroupoid
    fibers: dict
    amenable: bool = True


def kernel(pi: GroupoidMorphism) -> KernelDecomposition:
    """Kernel K = preimage of the codomain units, as a validated subgroupoid
    of the domain, partitioned into the fibers over each codomain unit."""
    cls = classify_morphism(pi)
    if not cls.is_morphism:
        raise NotAMorphism("kernel of a non-morphism", witness=cls.witness)
    if not cls.surjective:
        raise NotSurjective("kernel requires a surjective morphism",
                            witness=cls.witness)
    G, H = pi.domain, pi.codomain
    keep = H.unit_mask()[pi.image]
    K, over = subgroupoid(G, keep), pi.image[keep]
    return KernelDecomposition(K, {H.arrows[x]: tuple(K.names(
        np.flatnonzero(over == x))) for x in H.unit_idx.tolist()})


def fiber_subgroupoid(pi: GroupoidMorphism, x) -> FiniteGroupoid:
    """The arrows over a single codomain unit x, as a groupoid in its own
    right (units: the domain units mapping to x)."""
    return subgroupoid(pi.domain, pi.image == pi.codomain.index[x],
                       require_all_units=False)


def isotropy_quotient(G: FiniteGroupoid):
    """The orbit equivalence relation R on the unit space with its pair
    groupoid structure (one pair block per orbit, orbits and their units
    in unit order), and the quotient morphism g -> (rng(g), src(g)). The
    kernel of the quotient is the isotropy bundle."""
    n, S, R = len(G.arrows), G.src_idx, G.rng_idx
    low = np.full(n, n)  # an orbit is named by the smallest of its units
    np.minimum.at(low, S, R)
    _, first, orbit = np.unique(low[G.unit_idx], return_index=True,
                                return_inverse=True)
    orbit = np.argsort(np.argsort(first))[orbit]  # numbered in unit order
    size, place = _ranks(orbit)  # of each orbit, of each unit in its orbit
    Q = pair_blocks([G.names(G.unit_idx[orbit == o])
                     for o in range(len(size))])
    at = np.zeros(n, np.int64)  # the number of each unit among the units
    at[G.unit_idx] = np.arange(len(orbit))
    o = orbit[at[S]]  # (rng g, src g) in the block of orbit o
    return Q, GroupoidMorphism(G, Q, (np.cumsum(size * size) - size * size)[o]
                               + place[at[R]] * size[o] + place[at[S]])


@dataclass(frozen=True)
class Bisection:
    """An arrow subset on which both src and rng are injective."""
    arrows: tuple


def check_bisection(G: FiniteGroupoid, S) -> Bisection:
    """Validate S as a bisection; NotABisection at the first arrow of S
    that is not an arrow of G or shares its src (then its rng) with an
    earlier one, carrying the colliding pair. A Bisection passes as it is."""
    if isinstance(S, Bisection):
        return S
    S = tuple(S)
    ids = _ids(S, G.index)
    k = _prefix(ids >= 0)
    first = {}  # the first arrow of S with the src (rng) of each arrow
    for name, ends in (("src", G.src_idx), ("rng", G.rng_idx)):
        _, at, of = np.unique(ends[ids[:k]], return_index=True,
                              return_inverse=True)
        first[name] = at[of]
    own = np.arange(k)
    i = _prefix((first["src"] == own) & (first["rng"] == own))
    if i < k:
        name = "src" if first["src"][i] != i else "rng"
        g0 = S[first[name][i]]
        raise NotABisection(f"{name} collides on {g0!r} and {S[i]!r}",
                            witness=(g0, S[i]))
    if k < len(S):
        raise NotABisection(f"{S[k]!r} is not an arrow of G", witness=S[k])
    return Bisection(S)


def greedy_bisection_cover(G: FiniteGroupoid) -> list:
    """Cover all arrows by maximal bisections, greedily: each takes what
    it can of the uncovered arrows and then of the others, both in arrow
    order. Singletons are bisections, so a cover always exists."""
    S, R = G.src_idx.tolist(), G.rng_idx.tolist()
    covered, cover = np.zeros(len(S), bool), []
    while not covered.all():
        used_src, used_rng, sel = set(), set(), []
        for g in np.argsort(covered, kind="stable").tolist():
            if S[g] not in used_src and R[g] not in used_rng:
                sel.append(g)
                used_src.add(S[g])
                used_rng.add(R[g])
        covered[sel] = True
        cover.append(check_bisection(G, G.names(sel)))
    return cover
