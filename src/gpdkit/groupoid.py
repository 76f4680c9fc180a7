"""Finite groupoids as explicit arrow tables.

An arrow is an opaque hashable identifier. Units are themselves arrows
(identity arrows). A pair (g1, g2) is composable iff src(g1) == rng(g2),
and the composite g1*g2 then satisfies src(g1*g2) == src(g2) and
rng(g1*g2) == rng(g1): an arrow is a map src -> rng and composition is
function composition, rightmost factor first. This convention is fixed
here and every convolution formula in the package depends on it.

All topological conditions (openness, continuity, Haar systems) are
automatic for finite discrete groupoids; classification reports record
them as vacuously satisfied instead of dropping them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Hashable, Iterable, Mapping, Optional

import numpy as np

Arrow = Hashable


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


class FiniteGroupoid:
    """Immutable finite groupoid given by total source/range/inverse tables
    and a composition table defined exactly on the composable pairs.

    Build instances through :func:`validate_groupoid` (exhaustive axiom
    check) or one of the corpus constructors; the raw constructor only
    indexes the tables.
    """

    __slots__ = ("arrows", "units", "src", "rng", "inv", "comp",
                 "index", "_from", "_to", "_unit_set", "_table", "_rep")

    def __init__(self, arrows, units, src, rng, inv, comp):
        self.arrows = tuple(arrows)
        self.units = tuple(units)
        self.src = dict(src)
        self.rng = dict(rng)
        self.inv = dict(inv)
        self.comp = dict(comp)
        self.index = {g: i for i, g in enumerate(self.arrows)}
        self._unit_set = frozenset(self.units)
        by_src = {u: [] for u in self.units}
        by_rng = {u: [] for u in self.units}
        for g in self.arrows:
            by_src[self.src[g]].append(g)
            by_rng[self.rng[g]].append(g)
        self._from = {u: tuple(v) for u, v in by_src.items()}
        self._to = {u: tuple(v) for u, v in by_rng.items()}
        self._table = self._rep = None  # built by gpdkit.algebra on first use

    def __len__(self) -> int:
        return len(self.arrows)

    def __repr__(self) -> str:
        return f"FiniteGroupoid({len(self.arrows)} arrows, {len(self.units)} units)"

    def is_unit(self, g) -> bool:
        return g in self._unit_set

    def composable(self, g1, g2) -> bool:
        return self.src[g1] == self.rng[g2]

    def compose(self, g1, g2):
        try:
            return self.comp[(g1, g2)]
        except KeyError:
            raise MissingComposite(
                f"no composite recorded for composable pair ({g1!r}, {g2!r})",
                witness=(g1, g2)) from None

    def arrows_from(self, u) -> tuple:
        """Arrows g with src(g) == u."""
        return self._from[u]

    def arrows_to(self, u) -> tuple:
        """Arrows g with rng(g) == u."""
        return self._to[u]

    def composable_pairs(self) -> Iterable[tuple]:
        for g2 in self.arrows:
            for g1 in self._from[self.rng[g2]]:
                yield (g1, g2)

    def isotropy(self, u) -> tuple:
        """Arrows with src == rng == u."""
        return tuple(g for g in self._from[u] if self.rng[g] == u)


def _ids(names, index) -> np.ndarray:
    """Indices of ``names`` under ``index`` (name -> index), -1 where a
    name is not a key."""
    return np.fromiter(map(index.get, names, repeat(-1)), np.int64,
                       len(names))


def _index(ids, what: str) -> dict:
    """Position of each id of a list of distinct ids; GroupoidError naming
    the first id that repeats an earlier one."""
    index = {g: i for i, g in enumerate(ids)}
    if len(index) != len(ids):
        seen = set()
        for g in ids:
            if g in seen:
                raise GroupoidError(f"duplicate {what} identifier {g!r}",
                                    witness=g)
            seen.add(g)
    return index


def _prefix(mask) -> int:
    """Length of the run of True that starts a boolean array: the index of
    its first False entry, or its length."""
    return len(mask) if mask.all() else int(np.argmin(mask))


_MISSING = object()


def _column(table, name, arrows, index) -> np.ndarray:
    """table[g] for every arrow g, as arrow indices; GroupoidError at the
    first arrow that has no entry or whose entry is undeclared."""
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

    ``comp`` may be a mapping ``(g1, g2) -> g12``, an iterable of
    ``(g1, g2, g12)`` triples or an (m, 3) array of arrow indices listing
    each pair once; it must cover exactly the composable pairs. Each axiom
    is a mask over index arrays, and the first failing entry is reported.
    Associativity is ``StructureTable.associativity_defect`` of the w = 1
    structure table, built here and kept on the returned groupoid: its
    residual must be 0. Raises MissingComposite, IllegalComposite,
    AssociativityFailure (witness: the first failing triple in arrow
    order), UnitFailure or InverseFailure, each with the offending arrows.
    """
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
        comp = None  # the dict of names is built once the entries pass
    else:
        if not isinstance(comp, Mapping):
            comp = {(g1, g2): g12 for g1, g2, g12 in comp}
        a, b = _ids(list(chain.from_iterable(comp)), index).reshape(-1, 2).T.copy()
        c = _ids(list(comp.values()), index)

    S, R, I = (_column(t, name, arrows, index)
               for t, name in ((src, "src"), (rng, "rng"), (inv, "inv")))
    is_unit = np.zeros(n, bool)
    is_unit[uid] = True
    i = _prefix(is_unit[S] & is_unit[R])
    if i < n:
        g = arrows[i]
        if not is_unit[S[i]]:
            raise UnitFailure(f"src[{g!r}] = {src[g]!r} is not a unit", witness=g)
        raise UnitFailure(f"rng[{g!r}] = {rng[g]!r} is not a unit", witness=g)

    # comp defined exactly on composable pairs, with matching src/rng laws
    undeclared = (a < 0) | (b < 0) | (c < 0)
    apart = S[a] != R[b]
    i = _prefix(~(undeclared | apart | (S[c] != S[b]) | (R[c] != R[a])))
    if i < len(a):
        if comp is None:
            g1, g2, g12 = (arrows[j] for j in (a[i], b[i], c[i]))
        else:
            (g1, g2), g12 = next(islice(comp.items(), i, None))
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
    if comp is None:
        names = np.fromiter(arrows, object, n)
        comp = dict(zip(zip(names[a].tolist(), names[b].tolist()),
                        names[c].tolist()))
    G = FiniteGroupoid(arrows, units, src, rng, inv, comp)
    # each entry is a distinct composable pair, so g2 misses a pair exactly
    # when it has fewer entries than arrows leave its range
    j = _prefix(np.bincount(b, minlength=n) == np.bincount(S, minlength=n)[R])
    if j < n:
        g1 = np.flatnonzero(S == R[j])
        g1 = g1[_prefix(np.isin(g1, a[b == j]))]
        raise MissingComposite(
            f"composable pair ({arrows[g1]!r}, {arrows[j]!r}) missing from comp",
            witness=(arrows[g1], arrows[j]))

    i = _prefix((S[uid] == uid) & (R[uid] == uid))
    if i < len(units):
        u = units[i]
        raise UnitFailure(f"unit {u!r} has src/rng != itself", witness=u)

    def composites(entries, g):
        """The composite of the selected entries at arrow g of each, -1 at
        arrows without one (each arrow is g of at most one entry)."""
        out = np.full(n, -1)
        out[g[entries]] = c[entries]
        return out
    ids = np.arange(n)
    # (rng g) g and g (src g), then g (inv g) and (inv g) g
    left = composites(a == R[b], b) == ids
    right = composites(b == S[a], a) == ids
    i = _prefix(left & right)
    if i < n:
        g = arrows[i]
        if not left[i]:
            raise UnitFailure(
                f"left unit law fails: {rng[g]!r} * {g!r} != {g!r}",
                witness=(rng[g], g))
        raise UnitFailure(
            f"right unit law fails: {g!r} * {src[g]!r} != {g!r}",
            witness=(g, src[g]))

    involutive = I[I] == ids
    placed = (S[I] == R) & (R[I] == S)
    gi_ok = composites(b == I[a], a) == R
    ig_ok = composites(a == I[b], b) == S
    i = _prefix(involutive & placed & gi_ok & ig_ok)
    if i < n:
        g = arrows[i]
        gi = inv[g]
        if not involutive[i]:
            raise InverseFailure(f"inv is not involutive at {g!r}", witness=g)
        if not placed[i]:
            raise InverseFailure(f"inv[{g!r}] has wrong source or range", witness=g)
        if not gi_ok[i]:
            raise InverseFailure(
                f"{g!r} * {gi!r} != rng({g!r})", witness=(g, gi))
        raise InverseFailure(
            f"{gi!r} * {g!r} != src({g!r})", witness=(gi, g))

    from .algebra import StructureTable  # algebra imports this module
    table = StructureTable(n, a, b, c, np.ones(len(a)), ids, I, np.ones(n))
    res, triple = table.associativity_defect()
    if res > 0:
        g1, g2, g3 = (arrows[i] for i in triple)
        raise AssociativityFailure(
            f"({g1!r}*{g2!r})*{g3!r} != {g1!r}*({g2!r}*{g3!r})",
            witness=(g1, g2, g3))
    G._table = table
    return G


def _trusted(arrows, units, src, rng, inv, comp) -> FiniteGroupoid:
    # fast path for constructions that are valid by construction
    return FiniteGroupoid(arrows, units, src, rng, inv, comp)


def pair_blocks(blocks) -> FiniteGroupoid:
    """Disjoint union of the pair groupoids on ``blocks`` (lists of point
    labels): arrow pair_id(p, q) runs q -> p and (p, q)(q, r) = (p, r);
    everything is listed block by block, in the order of the labels."""
    arrows, units = [], []
    src, rng, inv, comp = {}, {}, {}, {}
    for block in blocks:
        aid = {(p, q): pair_id(p, q) for p in block for q in block}
        units.extend(aid[(p, p)] for p in block)
        for p in block:
            for q in block:
                g = aid[(p, q)]
                arrows.append(g)
                src[g] = aid[(q, q)]
                rng[g] = aid[(p, p)]
                inv[g] = aid[(q, p)]
        for p in block:
            for q in block:
                for r in block:
                    comp[(aid[(p, q)], aid[(q, r)])] = aid[(p, r)]
    return _trusted(arrows, units, src, rng, inv, comp)


class GroupoidMorphism:
    """A map of arrow sets that is required to be functorial; check with
    :func:`check_morphism` / :func:`classify_morphism`."""

    __slots__ = ("domain", "codomain", "map")

    def __init__(self, domain: FiniteGroupoid, codomain: FiniteGroupoid, map):
        self.domain = domain
        self.codomain = codomain
        self.map = dict(map)

    def __call__(self, g):
        return self.map[g]

    def __repr__(self):
        return (f"GroupoidMorphism({len(self.domain.arrows)} -> "
                f"{len(self.codomain.arrows)} arrows)")


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
        return {
            "is_morphism": self.is_morphism,
            "surjective": self.surjective,
            "surjective_on_units": self.surjective_on_units,
            "fibration": self.fibration,
            "covering": self.covering,
            "witness": None if self.witness is None else repr(self.witness),
            "openness_automatic": self.openness_automatic,
        }


def check_morphism(pi: GroupoidMorphism):
    """Raise NotAMorphism (with witness) unless pi is functorial."""
    G, H = pi.domain, pi.codomain
    for g in G.arrows:
        if g not in pi.map:
            raise NotAMorphism(f"map not total: missing {g!r}", witness=g)
        if pi.map[g] not in H.index:
            raise NotAMorphism(
                f"map[{g!r}] = {pi.map[g]!r} not in codomain", witness=g)
    for g in G.arrows:
        h = pi.map[g]
        if H.src[h] != pi.map[G.src[g]] or H.rng[h] != pi.map[G.rng[g]]:
            raise NotAMorphism(
                f"map does not intertwine src/rng at {g!r}", witness=g)
    for (g1, g2), g12 in G.comp.items():
        if H.comp[(pi.map[g1], pi.map[g2])] != pi.map[g12]:
            raise NotAMorphism(
                f"map not multiplicative on ({g1!r}, {g2!r})", witness=(g1, g2))


def classify_morphism(pi: GroupoidMorphism) -> MorphismClassification:
    """Classify pi as morphism / surjective / fibration / covering.

    The fibration test counts, for every codomain arrow h and every
    domain unit x over src(h), the lifts g of h with src(g) == x (one
    pass over the domain arrows); covering requires exactly one lift.
    Exhaustive, with the first failing (h, x) as witness.
    """
    G, H = pi.domain, pi.codomain
    try:
        check_morphism(pi)
    except NotAMorphism as exc:
        return MorphismClassification(False, False, False, False, False,
                                      witness=exc.witness)

    image = set(pi.map[g] for g in G.arrows)
    surjective = image == set(H.arrows)
    surj_units = set(pi.map[u] for u in G.units) == set(H.units)

    # lifts of h from x: the arrows g with (src(g), pi(g)) = (x, h)
    lifts = Counter((G.src[g], pi.map[g]) for g in G.arrows)
    over = {}
    for x in G.units:
        over.setdefault(pi.map[x], []).append(x)
    counts = [((h, x), lifts[(x, h)]) for h in H.arrows
              for x in over.get(H.src[h], ())]
    lift_exists = all(n for _, n in counts)
    lifts_unique = all(n <= 1 for _, n in counts)
    witness = next((hx for hx, n in counts if n != 1), None)
    # a fibration is a surjective morphism with the lift property; the fact
    # that lift property + unit surjectivity already forces arrow
    # surjectivity is recorded by the separate flags, not assumed here
    fibration = surjective and lift_exists
    covering = fibration and lifts_unique
    if not surjective and witness is None:
        missing = sorted((h for h in H.arrows if h not in image), key=repr)
        witness = (missing[0],) if missing else None
    return MorphismClassification(True, surjective, surj_units,
                                  fibration, covering, witness)


def subgroupoid(G: FiniteGroupoid, arrows, require_all_units=True) -> FiniteGroupoid:
    """Restrict G to a subset of arrows, checking closure under composition,
    inverse and units. With require_all_units the unit space stays G^0."""
    sub = set(arrows)
    for g in sub:
        if g not in G.index:
            raise NotASubgroupoid(f"{g!r} is not an arrow of G", witness=g)
        if G.inv[g] not in sub:
            raise NotASubgroupoid(f"not closed under inverse at {g!r}", witness=g)
        for u in (G.src[g], G.rng[g]):
            if u not in sub:
                raise NotASubgroupoid(
                    f"missing unit {u!r} of member arrow {g!r}", witness=g)
    units = [u for u in G.units if u in sub] if not require_all_units \
        else list(G.units)
    if require_all_units:
        missing = [u for u in G.units if u not in sub]
        if missing:
            raise NotASubgroupoid(
                f"subgroupoid must contain all units; missing {missing[0]!r}",
                witness=missing[0])
    comp = {}
    for (g1, g2), g12 in G.comp.items():
        if g1 in sub and g2 in sub:
            if g12 not in sub:
                raise NotASubgroupoid(
                    f"not closed under composition at ({g1!r}, {g2!r})",
                    witness=(g1, g2))
            comp[(g1, g2)] = g12
    ordered = tuple(g for g in G.arrows if g in sub)
    return _trusted(ordered, tuple(units),
                    {g: G.src[g] for g in ordered},
                    {g: G.rng[g] for g in ordered},
                    {g: G.inv[g] for g in ordered}, comp)


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
    unit_set = set(H.units)
    karrows = [g for g in G.arrows if pi.map[g] in unit_set]
    K = subgroupoid(G, karrows)
    fibers = {x: tuple(g for g in karrows if pi.map[g] == x) for x in H.units}
    return KernelDecomposition(K, fibers)


def fiber_subgroupoid(pi: GroupoidMorphism, x) -> FiniteGroupoid:
    """The arrows over a single codomain unit x, as a groupoid in its own
    right (units: the domain units mapping to x)."""
    G = pi.domain
    arrows = tuple(g for g in G.arrows if pi.map[g] == x)
    units = tuple(u for u in G.units if pi.map[u] == x)
    comp = {(g1, g2): g12 for (g1, g2), g12 in G.comp.items()
            if pi.map[g1] == x and pi.map[g2] == x}
    return _trusted(arrows, units,
                    {g: G.src[g] for g in arrows},
                    {g: G.rng[g] for g in arrows},
                    {g: G.inv[g] for g in arrows}, comp)


def isotropy_quotient(G: FiniteGroupoid):
    """The orbit equivalence relation R on the unit space with its pair
    groupoid structure (one pair block per orbit, orbits and their units
    in unit order), and the quotient morphism g -> (rng(g), src(g)). The
    kernel of the quotient is the isotropy bundle."""
    orbits = {}
    for u in G.units:
        orbits.setdefault(min((G.rng[g] for g in G.arrows_from(u)),
                              key=G.index.get), []).append(u)
    R = pair_blocks(orbits.values())
    pi = GroupoidMorphism(G, R, {g: pair_id(G.rng[g], G.src[g])
                                 for g in G.arrows})
    return R, pi


@dataclass(frozen=True)
class Bisection:
    """An arrow subset on which both src and rng are injective."""
    arrows: tuple


def check_bisection(G: FiniteGroupoid, S) -> Bisection:
    """Validate S as a bisection; NotABisection carries a colliding pair."""
    S = tuple(S)
    seen_src, seen_rng = {}, {}
    for g in S:
        if g not in G.index:
            raise NotABisection(f"{g!r} is not an arrow of G", witness=g)
        u = G.src[g]
        if u in seen_src:
            raise NotABisection(
                f"src collides on {seen_src[u]!r} and {g!r}",
                witness=(seen_src[u], g))
        seen_src[u] = g
        v = G.rng[g]
        if v in seen_rng:
            raise NotABisection(
                f"rng collides on {seen_rng[v]!r} and {g!r}",
                witness=(seen_rng[v], g))
        seen_rng[v] = g
    return Bisection(S)


def greedy_bisection_cover(G: FiniteGroupoid) -> list:
    """Cover all arrows by maximal bisections, greedily in arrow order.
    Singletons are bisections, so a cover always exists."""
    uncovered = set(G.arrows)
    cover = []
    while uncovered:
        used_src, used_rng, sel = set(), set(), []
        for g in G.arrows:  # seed with uncovered arrows first
            if g in uncovered and G.src[g] not in used_src \
                    and G.rng[g] not in used_rng:
                sel.append(g)
                used_src.add(G.src[g])
                used_rng.add(G.rng[g])
        for g in G.arrows:  # then extend to a maximal bisection
            if g not in sel and G.src[g] not in used_src \
                    and G.rng[g] not in used_rng:
                sel.append(g)
                used_src.add(G.src[g])
                used_rng.add(G.rng[g])
        bs = check_bisection(G, sel)
        cover.append(bs)
        uncovered.difference_update(sel)
    return cover
