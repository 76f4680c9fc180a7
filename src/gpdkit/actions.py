"""Groupoid actions on finite sets, coverings, 2-cocycles and twisted
convolution algebras, and the reconstruction of a twisted covering from a
saturated bundle with commutative unit fibers.

The action groupoid H*X has arrows (h, x) with src(h) equal to the anchor
of x; the product is (h2, h1.x1)(h1, x1) = (h2 h1, x1) and the inverse is
(h, x)^{-1} = (inv h, h.x). Its projection to H is always a covering, and
every covering arises this way.

Twisted involution convention: f*(g) = conj(omega(g, inv g)) conj(f(inv g)),
chosen so that delta_g* delta_g equals the source unit mass exactly for a
normalized cocycle.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse
from types import MappingProxyType
from typing import Optional

import numpy as np

from .groupoid import (FiniteGroupoid, GroupoidMorphism, GroupoidError,
                       MorphismClassification, _PairView, _ids,
                       _prefix, _ranks, _table, classify_morphism, pair_id)
from .algebra import (NumericalDegeneracy, RegularRepresentation,
                      StructureTable, WedderburnInvariants, _scatter,
                      block_bijectivity, central_projections, chunks,
                      isometry_certificate, map_defects,
                      wedderburn_from_tables)
from .bundle import (BundleNotVerified, FellBundle,
                     NotSaturated, FellBundleError, _require_cstar_units,
                     _section_hypotheses, _slot_witness, section_algebra)
from .fiberblocks import fiber_blocks, stacked_ranks
from .report import CheckList


class ActionAxiomViolation(GroupoidError):
    pass


class NotACovering(GroupoidError):
    pass


class CocycleIdentityFailure(GroupoidError):
    pass


class NotAbelian(FellBundleError):
    pass


class LineDimensionFailure(FellBundleError):
    pass


class GroupoidAction:
    """A left action of a groupoid on a finite set over its unit space,
    kept as integer arrays: ``anchor_ids``, the unit arrow index of each
    point (-1: none), and ``table``, the (arrows x points) point index of
    h.x (-1 where h does not act on x, len(points) where h.x is no point).
    Built from those arrays or from name mappings read once; a key of the
    act mapping that is no (arrow, point) raises ActionAxiomViolation.
    ``anchor`` and ``act`` are read-only name views of the entries that
    name an arrow or a point; :func:`validate_action` checks the axioms."""

    def __init__(self, groupoid: FiniteGroupoid, points, anchor, act):
        H, self.groupoid, self.points = groupoid, groupoid, tuple(points)
        n, k = len(H.arrows), len(self.points)
        if isinstance(anchor, np.ndarray):
            self.anchor_ids = np.where((anchor >= 0) & (anchor < n), anchor,
                                       -1)
        else:
            self.anchor_ids = _ids([anchor.get(x) for x in self.points],
                                   H.index)
        if isinstance(act, np.ndarray):
            self.table = np.where((act >= -1) & (act < k), act, k)
        else:
            spot = {x: i for i, x in enumerate(self.points)}
            h, x = (_ids([p[j] for p in act], index) for j, index in
                    ((0, H.index), (1, spot)))
            i = _prefix((h >= 0) & (x >= 0))
            if i < len(h):
                hx = list(act)[i]
                raise ActionAxiomViolation(f"act defined on {hx!r}, not an "
                                           "arrow and a point", witness=hx)
            y = _ids(list(act.values()), spot)
            self.table = np.full((n, k), -1)
            self.table[h, x] = np.where(y < 0, k, y)
        self.anchor_ids.flags.writeable = self.table.flags.writeable = False

    @cached_property
    def anchor(self) -> Mapping:
        x = np.flatnonzero(self.anchor_ids >= 0)
        return MappingProxyType(dict(zip(
            map(self.points.__getitem__, x.tolist()),
            self.groupoid.names(self.anchor_ids[x]))))

    @cached_property
    def act(self) -> Mapping:
        """(h, x) -> h.x, in (arrow, point) order."""
        A, name = self.table, self.points.__getitem__
        h, x = np.nonzero((A >= 0) & (A < len(self.points)))
        return MappingProxyType(dict(zip(
            zip(self.groupoid.names(h), map(name, x.tolist())),
            map(name, A[h, x].tolist()))))


def validate_action(a: GroupoidAction) -> GroupoidAction:
    """Exhaustive check of the action axioms, as masks over ``a.table``.
    ActionAxiomViolation names the first failing point, then pair (h, x)
    in (arrow, point) order, point, and triple (h2, h1, x): the first pair
    (h1, x) in (arrow, point) order, then the first h2 in arrow order."""
    H, points, k = a.groupoid, a.points, len(a.points)
    anchor, A = a.anchor_ids, a.table
    i = _prefix(np.append(H.unit_mask(), False)[anchor])  # -1: no arrow
    if i < k:
        raise ActionAxiomViolation(f"anchor of {points[i]!r} is not a unit",
                                   witness=points[i])
    missing = sorted(set(H.units) - set(H.names(anchor)), key=repr)
    if missing:
        raise ActionAxiomViolation(f"anchor is not surjective: unit "
                                   f"{missing[0]!r} has empty fiber",
                                   witness=missing[0])
    defined, should = A >= 0, H.src_idx[:, None] == anchor
    bad = (defined != should) | (A == k) | (
        defined & (np.append(anchor, -1)[A] != H.rng_idx[:, None]))
    i = _prefix(~bad.ravel())
    if i < bad.size:
        (h, x), hx = divmod(i, k), (H.arrows[i // k], points[i % k])
        if defined[h, x] != should[h, x]:
            raise ActionAxiomViolation(
                f"act defined on {hx!r} iff should be: {should[h, x]}",
                witness=hx)
        if A[h, x] == k:
            raise ActionAxiomViolation(f"act{hx!r} not a point", witness=hx)
        raise ActionAxiomViolation(f"anchor(act{hx!r}) != rng({hx[0]!r})",
                                   witness=hx)
    i = _prefix(A[anchor, np.arange(k)] == np.arange(k))
    if i < k:
        raise ActionAxiomViolation(f"unit does not fix {points[i]!r}",
                                   witness=points[i])
    # (h2 h1).x = h2.(h1.x) for the pairs (h2, h1) of H, h2 in arrow order
    h1, x = np.nonzero(defined)
    T = H.table
    j, e = H.column_entries(h1)
    i = _prefix(A[T.a[e], A[h1[j], x[j]]] == A[T.c[e], x[j]])
    if i < len(e):
        h2, h1, x = H.arrows[T.a[e[i]]], H.arrows[h1[j[i]]], points[x[j[i]]]
        raise ActionAxiomViolation(
            f"action not multiplicative on ({h2!r}, {h1!r}, {x!r})",
            witness=(h2, h1, x))
    return a


@dataclass
class ActionGroupoid:
    groupoid: FiniteGroupoid
    projection: GroupoidMorphism
    pairs: dict                    # arrow id -> (h, x)
    point: np.ndarray              # arrow index -> point index of x

    @cached_property
    def classification(self) -> MorphismClassification:
        """classify_morphism of the projection, on first read."""
        return classify_morphism(self.projection)


def build_action_groupoid(a: GroupoidAction) -> ActionGroupoid:
    """The semidirect product groupoid of a validated action, together
    with the projection onto the acting groupoid (always a covering). Its
    arrows are the pairs (h, x), in (arrow, point) order."""
    validate_action(a)
    H, anchor, A = a.groupoid, a.anchor_ids, a.table
    h, x = np.nonzero(A >= 0)
    hx = A[h, x]
    at = np.full(A.shape, -1)  # the arrow (h, x)
    at[h, x] = np.arange(len(h))
    pairs = list(zip(H.names(h), map(a.points.__getitem__, x.tolist())))
    ids = [pair_id(*p) for p in pairs]
    unit = at[anchor, np.arange(len(a.points))]
    # (h, x)(h2, y) = (h h2, y) with y = inv(h2).x, for the pairs (h, h2) of
    # H in table order: the pairs of arrows in (a, b) order
    T = H.table
    i, e = H.row_entries(h)
    y = A[H.inv_idx[T.b[e]], x[i]]
    G = FiniteGroupoid(ids, unit, unit[x], unit[hx], _table(
        len(ids), i, at[T.b[e], y], at[T.c[e], y], at[H.inv_idx[h], hx]))
    pi = GroupoidMorphism(G, H, h)
    return ActionGroupoid(G, pi, dict(zip(ids, pairs)), x)


@dataclass
class CoveringAction:
    action: GroupoidAction
    iso: np.ndarray      # domain arrow index -> action groupoid arrow index
    action_groupoid: ActionGroupoid
    exact: bool          # iso verified as a bijective morphism, exactly


def covering_to_action(pi: GroupoidMorphism) -> CoveringAction:
    """Reconstruct the action behind a covering: the space is the domain
    unit space, the anchor is pi on units, and h.x is the range of the
    unique lift of h at x. The map g -> (pi(g), src(g)) is returned with
    an exact verification that it is a bijective morphism."""
    cls = classify_morphism(pi)
    if not cls.covering:
        raise NotACovering(f"morphism is not a covering (witness "
                           f"{cls.witness!r})", witness=cls.witness)
    G, H = pi.domain, pi.codomain
    place = np.zeros(len(G.arrows), np.int64)  # point index of each unit
    place[G.unit_idx] = np.arange(len(G.units))
    x = place[G.src_idx]
    A = np.full((len(H.arrows), len(G.units)), -1)
    A[pi.image, x] = place[G.rng_idx]  # each g is the lift of pi(g) at x
    action = GroupoidAction(H, G.units, pi.image[G.unit_idx], A)
    ag = build_action_groupoid(action)
    at = np.full(A.shape, -1)
    at[ag.projection.image, ag.point] = np.arange(len(ag.point))
    iso = at[pi.image, x]
    return CoveringAction(action, iso, ag,
                          _is_exact_isomorphism(G, ag.groupoid, iso))


def _is_exact_isomorphism(G: FiniteGroupoid, G2: FiniteGroupoid, f) -> bool:
    """f (arrow indices of G to those of G2, -1 for none) is a bijection
    that carries the composition and inverse of G to those of G2."""
    if len(G.arrows) != len(G2.arrows) or np.any(f < 0) \
            or np.any(np.bincount(f) > 1):
        return False
    T = G.table
    return bool(np.all(G2.compose_ids(f[T.a], f[T.b]) == f[T.c])
                and np.all(G2.inv_idx[f] == f[G.inv_idx]))


class Cocycle:
    """Unit-modulus function on the composable pairs of a groupoid, kept
    once as ``table``: the entries of ``base.table`` with the weights
    w = omega in table order and e_g* = conj(omega(inv g, g)) e_inv(g).
    Built from a complex array in table order (ValueError unless it has
    one value per entry), or from a mapping with one value on each
    composable pair and on nothing else (CocycleIdentityFailure naming the
    first missing pair in ``composable_pairs`` order, else the first key
    that is no composable pair). ``omega`` is its read-only name view,
    built on first use."""

    __slots__ = ("base", "table", "_omega")

    def __init__(self, base: FiniteGroupoid, omega):
        self.base, self._omega, T = base, None, base.table
        if isinstance(omega, np.ndarray):
            w = np.array(omega, dtype=complex)
            if w.shape != T.a.shape:
                raise ValueError(f"{w.size} cocycle values for "
                                 f"{len(T.a)} composable pairs")
        else:
            omega = dict(omega)
            p = next(filterfalse(omega.__contains__,
                                 base.composable_pairs()), None)
            if p is not None:
                raise CocycleIdentityFailure(
                    f"cocycle missing on pair {p!r}", witness=p)
            if len(omega) != len(T.a):
                pairs = set(base.composable_pairs())
                p = next(k for k in omega if k not in pairs)
                raise CocycleIdentityFailure(
                    f"cocycle defined on {p!r}, not a composable pair",
                    witness=p)
            w = np.array(list(map(omega.__getitem__, base.comp)), complex)
        self.table = StructureTable(T.dim, T.a, T.b, T.c, w, T.s, T.t,
                                    np.conj(w[base.entry_ids(T.t, T.s)]))

    @property
    def omega(self):
        if self._omega is None:
            self._omega = _PairView(self.base.arrows, self.table,
                                    self.table.w.tolist)
        return self._omega

    def __call__(self, g1, g2):
        return self.omega[(g1, g2)]


def trivial_cocycle(G: FiniteGroupoid) -> Cocycle:
    return Cocycle(G, np.ones(len(G.table.a)))


def coboundary_cocycle(G: FiniteGroupoid, beta) -> Cocycle:
    """omega(g1, g2) = beta(g1) beta(g2) / beta(g1 g2) for unit-modulus
    beta with beta = 1 on units; always satisfies the identity."""
    beta = dict(beta)
    for u in G.units:
        beta[u] = 1.0
    return Cocycle(G, np.array([beta[g1] * beta[g2] / beta[g12]
                                for (g1, g2), g12 in G.comp.items()],
                               complex))


def pullback_cocycle(pi: GroupoidMorphism, omega: Cocycle) -> Cocycle:
    """Pull a cocycle on the codomain back along a morphism."""
    T = pi.domain.table
    return Cocycle(pi.domain, omega.table.w[omega.base.entry_ids(
        pi.image[T.a], pi.image[T.b])])


def product_cocycle(a: Cocycle, b: Cocycle) -> Cocycle:
    return Cocycle(a.base, a.table.w * b.table.w)


def cocycle_check(omega: Cocycle, tol: float = 1e-12) -> CheckList:
    """Exhaustive verification (totality is the Cocycle's own), as the
    entries ``cocycle_identity``, ``cocycle_modulus`` (unit modulus) and
    ``cocycle_normalized`` (omega = 1 on the pairs with a unit factor),
    each decided at ``tol``. The identity
    omega(g1,g2) omega(g1g2,g3) = omega(g2,g3) omega(g1,g2g3) is the
    associativity of the cocycle's table, whose defect, kept on the
    table, and first failing triple give residual and witness."""
    G, T, unit = omega.base, omega.table, omega.base.unit_mask()
    # |w| rounded as abs(complex) rounds it
    res_mod = float(np.abs(np.hypot(T.w.real, T.w.imag) - 1.0).max(
        initial=0.0))
    # the pairs (rng g, g) and (g, src g) are those with a unit factor
    res_norm = float(np.abs(T.w[unit[T.a] | unit[T.b]] - 1.0).max(initial=0.0))
    res_id, triple = T.associativity_defect()
    checks = CheckList()
    checks.add("cocycle_identity", res_id <= tol, res_id,
               None if res_id <= tol else "({!r}, {!r}, {!r})".format(
                   *(G.arrows[i] for i in triple)))
    checks.add("cocycle_modulus", res_mod <= tol, res_mod)
    checks.add("cocycle_normalized", res_norm <= tol, res_norm)
    return checks


class TwistedConvolutionAlgebra:
    """Convolution algebra twisted by a 2-cocycle: the cocycle's table
    (``table``) and its block-per-unit left regular
    representation (``rep``, a *-representation for the twisted
    involution)."""

    def __init__(self, G: FiniteGroupoid, omega: Cocycle):
        self.G = G
        self.omega = omega
        self.table = omega.table
        self.rep = RegularRepresentation(self.table, G)

    def convolve(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        return self.table.mul(c1, c2)

    def norm(self, c: np.ndarray) -> float:
        return self.rep.norm(c)

    def wedderburn(self, tol: float = 1e-9) -> WedderburnInvariants:
        """Block sizes; NumericalDegeneracy when the table's kept
        associativity defect exceeds ``tol`` (then it is no algebra)."""
        res, triple = self.table.associativity_defect()
        if res > tol:
            raise NumericalDegeneracy(
                f"twisted table is not associative: defect {res:.3e} at "
                f"{tuple(self.G.arrows[i] for i in triple)!r}")
        return wedderburn_from_tables(self.table, tol=tol)


def twisted_algebra(G: FiniteGroupoid, omega: Cocycle,
                    tol: float = 1e-12) -> TwistedConvolutionAlgebra:
    """Validated twisted convolution algebra: CocycleIdentityFailure,
    with the identity's residual and witness, unless every entry of
    :func:`cocycle_check` passes at ``tol`` (associativity rides on the
    identity)."""
    ta = TwistedConvolutionAlgebra(G, omega)
    checks = cocycle_check(omega, tol)
    if not checks.passed:
        identity = checks.entry("cocycle_identity")
        raise CocycleIdentityFailure(
            f"cocycle fails validation (identity residual "
            f"{identity.residual:.3e})", witness=identity.witness)
    return ta


@dataclass
class ExtractionResult(CheckList):
    points: tuple
    action: GroupoidAction
    action_groupoid: ActionGroupoid
    cocycle: Cocycle
    projections: dict           # point -> coefficient vector in its unit fiber
    blocks_twisted: Optional[tuple] = None
    blocks_bundle: Optional[tuple] = None
    basis_map: Optional[np.ndarray] = None  # column (h, x): its line vector


# how far the trace of a corner map may lie from an integer for the trace
# to be taken as the corner's rank (abelian_extract)
_TRACE_TOL = 1e-6


def _unit_points(B):
    """(points per unit, their rows of coefficients padded to ``B.D``):
    the minimal projections of the commutative unit fibers of the
    FiberBlocks ``B``, in unit order and, over one unit, by their rounded
    coefficients; the central projections of the direct sum of the unit
    fibers, whose center is the sum, spanned by its basis. Raises
    FellBundleError when a unit fiber has a degenerate trace form,
    NotAbelian when the solve fails."""
    units = B.base.unit_idx
    _require_cstar_units(B, units)
    # the slots of the unit fibers, in unit order, numbered in the sum
    d = B.dims[units]
    n = int(d.sum())
    unit_of = np.repeat(np.arange(len(units)), d)
    loc = np.arange(n) - np.repeat(np.cumsum(d) - d, d)
    if not n:
        return d, np.zeros((0, B.D), dtype=complex)
    T = B.table
    at = np.full(T.dim, -1)
    at[B.first[units[unit_of]] + loc] = np.arange(n)
    e = np.flatnonzero((at[T.a] >= 0) & (at[T.b] >= 0) & (at[T.c] >= 0))
    try:
        (i, a, v), sizes, *_ = central_projections(
            StructureTable(n, at[T.a[e]], at[T.b[e]], at[T.c[e]], T.w[e],
                           [], [], []), (n, np.arange(n), np.arange(n),
                                         np.ones(n)))
    except NumericalDegeneracy:
        raise NotAbelian("could not diagonalize a unit fiber; it may not be "
                         "commutative or is numerically degenerate") from None
    V = _scatter(i * B.D + loc[a], v, len(sizes) * B.D).reshape(-1, B.D)
    unit = np.zeros(len(V), np.int64)
    unit[i] = unit_of[a]  # the terms of one projection lie in one unit
    keys = [(u, tuple(np.round(p, 6).view(float)))
            for u, p in zip(unit.tolist(), V)]
    return (np.bincount(unit, minlength=len(units)),
            V[sorted(range(len(V)), key=keys.__getitem__)])


def abelian_extract(E: FellBundle, tol: float = 1e-9, seed: int = 0) -> ExtractionResult:
    """Recover a covering with a line twist from a saturated bundle with
    commutative unit fibers and associative products (BundleNotVerified).

    The point set is the disjoint union of the minimal projections of the
    unit fibers, solved once on the table of their direct sum
    (:func:`~gpdkit.algebra.central_projections`); each arrow h induces a
    bijection of points matching the nonzero corners q . E_h . p, each a
    line (LineDimensionFailure at the first pair (h, p) in (arrow, point)
    order that fails), kept as the action table; line vectors, one row per
    pair, are gauged by normalizing the first basis column with a nonzero
    corner (projections themselves over units), and the cocycle is read off
    from their products, gathered along the action groupoid's table. The
    twisted algebra of the result is compared with the section algebra
    blockwise, and the basis map U (``basis_map``, one scatter: the column
    of arrow (h, x) is its line vector in the slots over h) is certified as
    an isometric *-isomorphism onto the section algebra: its defects
    between the twisted table and the section table
    (:func:`~gpdkit.algebra.map_defects`), and its isometry on every
    element by :func:`~gpdkit.algebra.isometry_certificate` (Murphy 1990,
    Thm 3.1.5), from those defects, its bijectivity on the blocks of the
    arrows of H (:func:`~gpdkit.algebra.block_bijectivity`), the
    associativity of both tables (``cocycle_identity``, and the pre-check
    of axiom 3 and the section algebra's) and the faithful
    *-representations of both. None of this is checked when the read-off
    cocycle fails its identity. The section algebra is admitted by
    :func:`~gpdkit.bundle.verify_axioms` at ``seed``.
    """
    H = E.base
    B = fiber_blocks(E)
    sat, wit = B.saturation(tol)
    if not sat:
        raise NotSaturated(f"bundle is not saturated: {wit}", witness=wit)
    if not E.is_abelian():
        raise NotAbelian("some unit fiber is not commutative")
    # the cocycle is read off from products, so they must associate
    res, slots = E.table().associativity_defect()
    if res > tol:
        wit = _slot_witness(E, slots, "(h={} e={})")
        raise BundleNotVerified(f"bundle fails axiom3_associative at {wit}",
                                witness=wit)

    # the points: the minimal projections of each unit fiber, in unit
    # order, as rows PX over their unit arrows hx
    count, PX = _unit_points(B)
    points = tuple(f"{u}#p{i}" for u, n in zip(H.units, count.tolist())
                   for i in range(n))
    hx = np.repeat(H.unit_idx, count)

    # the point maps and line vectors, from the corners q e_i p over each
    # arrow h of every point pair (p over s(h), q over r(h)) and basis
    # index i, two stacked products per group of consecutive arrows.
    # x -> q x p is an idempotent map of E_h (p, q projections, products
    # associative), so the rank of the corner q E_h p is its trace, the sum
    # over i of the coefficient of e_i in q e_i p; and z* z lies in
    # p A_s(h) p = C p (p a minimal projection of a commutative fiber), so
    # ||z||^2 = tau(z* z) / tau(p). A group with a trace more than
    # _TRACE_TOL from an integer (p or q no projection) takes stacked norms
    # and ranks of the d x d matrix of each corner instead. A row of a
    # corner over h costs its padded row, the table terms of its two
    # products and, for those norms, its unit-fiber block over s(h); groups
    # are chunks of that load
    tau_p = B.traces(hx, PX)
    unit_at = np.zeros(B.nA, np.int64)
    unit_at[H.unit_idx] = np.arange(len(H.units))
    # per arrow: the number of points over s(h) and r(h) and the place of
    # their first one in ``points``
    n_p, n_q = count[unit_at[B.src]], count[unit_at[B.rng]]
    f_p, f_q = ((np.cumsum(count) - count)[unit_at[end]]
                for end in (B.src, B.rng))
    corners = n_p * n_q
    arrows = np.arange(B.nA)
    rank, empty, lines = [], [], []  # per corner; per pair (h, x)
    for group in chunks(corners * B.dims * (
            B.D + B.entries(B.rng, arrows) + B.entries(arrows, B.src)
            + B.entries(B.src, B.src, orthonormal=True)
            + B.dims[B.src] ** 2)):
        # the rows of arrow h start at row_at; its row (p * n_q + q) * d + i
        # holds q e_i p
        nrow = corners[group] * B.dims[group]
        k = np.repeat(group, nrow)
        row_at = np.cumsum(nrow) - nrow
        t = np.arange(len(k)) - np.repeat(row_at, nrow)
        d = B.dims[k]
        i, pq = t % d, t // d
        xp, xq = f_p[k] + pq // n_q[k], f_q[k] + pq % n_q[k]
        _, Z = B.products(*B.products(hx[xq], PX[xq], k, np.eye(B.D)[i]),
                          hx[xp], PX[xp])
        corner_at = np.cumsum(corners[group]) - corners[group]
        corner = np.repeat(corner_at, nrow) + pq
        trace = _scatter(corner, Z[np.arange(len(k)), i],
                         int(corners[group].sum()))
        ranks = np.rint(trace.real).astype(np.int64)
        if np.abs(trace - ranks).max(initial=0.0) <= _TRACE_TOL:
            norms = np.sqrt(np.maximum((B.traces(B.src[k], B.square(k, Z))
                                        / tau_p[xp]).real, 0.0))
        else:
            norms = B.fiber_norms(k, Z)
            col = np.arange(d.sum()) - np.repeat(np.cumsum(d) - d, d)
            size = np.repeat(B.dims[group], corners[group])
            ranks = stacked_ranks(
                np.repeat(corner, d), np.repeat(i, d), col,
                Z[np.repeat(np.arange(len(k)), d), col], (size, size), tol)
        # per corner, its first row of positive norm: for a corner of rank
        # 1, a line, the line vector of its pair
        lead = np.full(len(ranks), len(k))
        live = np.flatnonzero(norms > tol)
        np.minimum.at(lead, corner[live], live)
        line = (ranks == 1) & (lead < len(k))
        rank.append(ranks)
        empty.append(line != (ranks == 1))
        lines.append(Z[lead[line]] / norms[lead[line], None])
    rank, empty, L = map(np.concatenate, (rank, empty, lines))

    # the pairs (h, x), x over s(h), in (arrow, point) order, each with its
    # corners over the points q over r(h) in order, as the groups list them
    pair_arrow, pair_point = np.nonzero(B.src[:, None] == hx)
    of = np.repeat(np.arange(len(pair_arrow)), n_q[pair_arrow])
    target = f_q[pair_arrow[of]] + _ranks(of)[1]
    hits = np.bincount(of[rank == 1], minlength=len(pair_arrow))
    image = np.zeros(len(pair_arrow), np.int64)
    image[of[rank == 1]] = target[rank == 1]
    # the first failing pair, unless an earlier arrow sends two points to one
    o = np.lexsort((image, pair_arrow))
    twice = (np.diff(pair_arrow[o]) == 0) & (np.diff(image[o]) == 0)
    merged = pair_arrow[o[1:][twice]].min(initial=B.nA)
    bad = (rank > 1) | empty
    p = _prefix((hits == 1) & (np.bincount(of[bad], minlength=len(hits)) == 0))
    if p < len(hits) and pair_arrow[p] <= merged:
        h, xp = H.arrows[pair_arrow[p]], points[pair_point[p]]
        for c in np.flatnonzero(bad & (of == p))[:1]:
            xq = points[target[c]]
            what = (f"dimension {rank[c]}" if rank[c] > 1
                    else "no vector of positive norm")
            raise LineDimensionFailure(f"corner over {h!r} between {xq!r} "
                                       f"and {xp!r} has {what}",
                                       witness=(h, xq, xp))
        raise LineDimensionFailure(f"point {xp!r} pairs with {hits[p]} "
                                   f"targets over {h!r}", witness=(h, xp))
    if merged < B.nA:
        raise LineDimensionFailure(f"induced point map over "
                                   f"{H.arrows[merged]!r} is not injective",
                                   witness=H.arrows[merged])
    A = np.full((B.nA, len(points)), -1)
    A[pair_arrow, pair_point] = image

    # composition of the point maps follows from saturation; validation
    # raises with a witness if the bundle lied about it
    action = GroupoidAction(H, points, hx, A)
    ag = build_action_groupoid(action)
    # the pairs (h, x) are the arrows of the action groupoid, in order;
    # over units, regauge the line vectors to the projections themselves
    # so the extracted cocycle is exactly normalized
    h = ag.projection.image
    unit = B.is_unit[h]
    L[unit] = PX[ag.point[unit]]

    # cocycle from gauged products: e_{h1, h2.x} e_{h2, x} =
    # omega((h1, h2.x), (h2, x)) e_{h1 h2, x}, read off as
    # tau(e_12* e_1 e_2) / tau(e_12* e_12) in the unit fiber over s(h2),
    # in stacked products over the entries of the action groupoid's table
    T = ag.groupoid.table
    k2, k12, X12 = h[T.b], h[T.c], L[T.c]
    _, prod = B.products(h[T.a], L[T.a], k2, L[T.b])
    ks, S = B.stars(k12, X12)
    num, den = (B.traces(B.src[k2], B.products(ks, S, k12, Y)[1])
                for Y in (prod, X12))
    w = num / den
    res_line = float(np.abs(prod - w[:, None] * X12).max(initial=0.0))
    omega = Cocycle(ag.groupoid, w)

    result = ExtractionResult(points, action, ag, omega, {
        x: P[:n] for x, P, n in zip(points, PX, B.dims[hx])})
    result.add("action_axioms", True, None, None)
    result.add("line_products_consistent", res_line <= 1e-8, res_line)
    ta = TwistedConvolutionAlgebra(ag.groupoid, omega)
    result.add_entries(cocycle_check(omega, 1e-12).entries)
    # without the identity the twisted table is no associative algebra
    if not result.entry("cocycle_identity").passed:
        for name in ("wedderburn_equal", "basis_map_multiplicative",
                     "basis_map_star", "basis_map_isometric"):
            result.add(name, False, None,
                       "not checked: cocycle_identity failed")
        return result

    sa = section_algebra(E, tol=tol, seed=seed)
    result.blocks_twisted, result.blocks_bundle = result.add_wedderburn_equal(
        lambda: ta.wedderburn(tol=tol), lambda: sa.wedderburn(tol=tol))

    # the natural basis map delta_{(h,x)} -> gauged line vector at slot h
    # must be an isometric *-isomorphism onto the section algebra
    G2 = ag.groupoid
    U = np.zeros((E.total_dim(), len(G2.arrows)), dtype=complex)
    j, i = np.nonzero(np.arange(B.D) < B.dims[h][:, None])
    U[B.first[h[j]] + i, j] = L[j, i]
    result.basis_map = U
    mul, star = map_defects(ta.table, E.table(), U, G2.arrows,
                            result.cite("cocycle_identity"), 1e-8)
    result.add("basis_map_multiplicative", *mul)
    result.add("basis_map_star", *star)
    result.add("basis_map_isometric", *isometry_certificate(
        [("bijective", *block_bijectivity(U, B.arrow, h)[1:]),
         *result.cite("basis_map_multiplicative", "basis_map_star",
                      "cocycle_identity")] + _section_hypotheses(sa),
        [("twisted", ta.rep), ("section", sa.space.rep)], 1e-8))
    return result
