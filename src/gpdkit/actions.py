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

from dataclasses import dataclass
from itertools import filterfalse
from typing import Optional

import numpy as np

from .groupoid import (FiniteGroupoid, GroupoidMorphism, GroupoidError,
                       _PairView, _ids, _join, _prefix, _table,
                       classify_morphism, pair_id)
from .algebra import (NumericalDegeneracy, RegularRepresentation,
                      StructureTable, WedderburnInvariants, _scatter,
                      central_projections, chunks,
                      isometry_certificate, wedderburn_from_tables)
from .bundle import (BundleNotVerified, FellBundle, FiberElement,
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
    """A left action of a groupoid on a finite set over its unit space.

    ``anchor`` maps points to units, ``act`` is defined exactly on the
    pairs (h, x) with src(h) == anchor(x).
    """

    __slots__ = ("groupoid", "points", "anchor", "act")

    def __init__(self, groupoid: FiniteGroupoid, points, anchor, act):
        self.groupoid = groupoid
        self.points = tuple(points)
        self.anchor = dict(anchor)
        self.act = dict(act)


def validate_action(a: GroupoidAction) -> GroupoidAction:
    """Exhaustive check of the action axioms (:func:`_action_table`)."""
    _action_table(a)
    return a


def _action_table(a: GroupoidAction):
    """(anchor, A) of a valid action: the arrow index of the unit under
    each point and the point index A[h, x] of h.x, -1 where h does not act
    on x. The axioms are masks over A; ActionAxiomViolation names the first
    failing point, then a pair of ``act`` that is no (arrow, point), then
    pair (h, x) in (arrow, point) order, point, and triple (h2, h1, x), in
    the order of ``act`` and then of h2."""
    H, points, k = a.groupoid, a.points, len(a.points)
    anchor = _ids([a.anchor.get(x) for x in points], H.index)
    i = _prefix(np.append(H.unit_mask(), False)[anchor])  # -1: no arrow
    if i < k:
        raise ActionAxiomViolation(f"anchor of {points[i]!r} is not a unit",
                                   witness=points[i])
    missing = sorted(set(H.units) - {a.anchor[x] for x in points}, key=repr)
    if missing:
        raise ActionAxiomViolation(f"anchor is not surjective: unit "
                                   f"{missing[0]!r} has empty fiber",
                                   witness=missing[0])
    spot = {x: i for i, x in enumerate(points)}
    A = np.full((len(H.arrows), k), -1)  # k: h.x is no point
    for (h, x), y in a.act.items():
        if h not in H.index or x not in spot:
            raise ActionAxiomViolation(f"act defined on {(h, x)!r}, not an "
                                       "arrow and a point", witness=(h, x))
        A[H.index[h], spot[x]] = spot.get(y, k)
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
    h1, x = (_ids([p[j] for p in a.act], index) for j, index in
             ((0, H.index), (1, spot)))
    T = H.table
    j, e = _join(h1, T.b, np.lexsort((T.a, T.b)))
    i = _prefix(A[T.a[e], A[h1[j], x[j]]] == A[T.c[e], x[j]])
    if i < len(e):
        h2, h1, x = H.arrows[T.a[e[i]]], H.arrows[h1[j[i]]], points[x[j[i]]]
        raise ActionAxiomViolation(
            f"action not multiplicative on ({h2!r}, {h1!r}, {x!r})",
            witness=(h2, h1, x))
    return anchor, A


@dataclass
class ActionGroupoid:
    groupoid: FiniteGroupoid
    projection: GroupoidMorphism
    pairs: dict                    # arrow id -> (h, x)
    classification: object = None


def build_action_groupoid(a: GroupoidAction) -> ActionGroupoid:
    """The semidirect product groupoid of a validated action, together
    with the projection onto the acting groupoid (always a covering). Its
    arrows are the pairs (h, x), in (arrow, point) order."""
    anchor, A = _action_table(a)
    H = a.groupoid
    h, x = np.nonzero(A >= 0)
    hx = A[h, x]
    at = np.full(A.shape, -1)  # the arrow (h, x)
    at[h, x] = np.arange(len(h))
    pairs = list(zip(H.names(h), map(a.points.__getitem__, x.tolist())))
    ids = [pair_id(*p) for p in pairs]
    unit = at[anchor, np.arange(len(a.points))]
    # (h2, h.x)(h, x) = (h2 h, x) for the pairs (h2, h) of H, h2 in order
    T = H.table
    j, e = _join(h, T.b, np.lexsort((T.a, T.b)))
    G = FiniteGroupoid(ids, unit, unit[x], unit[hx], _table(
        len(ids), at[T.a[e], hx[j]], j, at[T.c[e], x[j]],
        at[H.inv_idx[h], hx]))
    pi = GroupoidMorphism(G, H, h)
    return ActionGroupoid(G, pi, dict(zip(ids, pairs)),
                          classify_morphism(pi))


@dataclass
class CoveringAction:
    action: GroupoidAction
    iso: dict            # domain arrow -> action groupoid arrow id
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
    points = G.units
    anchor = dict(zip(points, H.names(pi.image[G.unit_idx])))
    # h.x is the range of the unique lift of h at x, listed by h, then x
    place = np.zeros(len(G.arrows), np.int64)
    place[G.unit_idx] = np.arange(len(points))
    lift = np.lexsort((place[G.src_idx], pi.image))
    act = dict(zip(zip(H.names(pi.image[lift]), G.names(G.src_idx[lift])),
                   G.names(G.rng_idx[lift])))
    action = GroupoidAction(H, points, anchor, act)
    ag = build_action_groupoid(action)
    iso = {g: pair_id(h, x) for g, h, x in zip(
        G.arrows, H.names(pi.image), G.names(G.src_idx))}
    exact = _is_exact_isomorphism(G, ag.groupoid, iso)
    return CoveringAction(action, iso, ag, exact)


def _is_exact_isomorphism(G: FiniteGroupoid, G2: FiniteGroupoid, iso) -> bool:
    """iso (arrow names of G to those of G2) is a bijection that carries
    the composition and inverse of G to those of G2."""
    f = _ids(list(map(iso.__getitem__, G.arrows)), G2.index)
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

    def wedderburn(self, seed: int = 0, tol: float = 1e-9) -> WedderburnInvariants:
        """Block sizes; NumericalDegeneracy when the table's kept
        associativity defect exceeds ``tol`` (then it is no algebra)."""
        res, triple = self.table.associativity_defect()
        if res > tol:
            raise NumericalDegeneracy(
                f"twisted table is not associative: defect {res:.3e} at "
                f"{tuple(self.G.arrows[i] for i in triple)!r}")
        return wedderburn_from_tables(self.table, seed=seed, tol=tol)


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
    line_vectors: dict          # (h, point) -> FiberElement
    blocks_twisted: Optional[tuple] = None
    blocks_bundle: Optional[tuple] = None
    basis_map: Optional[np.ndarray] = None  # column (h, x): its line vector


# how far the trace of a corner map may lie from an integer for the trace
# to be taken as the corner's rank (abelian_extract)
_TRACE_TOL = 1e-6


def _unit_points(B, u, seed: int) -> list:
    """Minimal projections of the commutative unit fiber over the arrow
    index ``u`` of the FiberBlocks ``B``, as coefficient vectors ordered
    by their rounded coefficients: the central projections of the fiber's
    own table, whose center is the whole fiber, spanned by its basis.
    Raises FellBundleError when the fiber has a degenerate trace form,
    NotAbelian when the solve fails."""
    _require_cstar_units(B, [u])
    table = B.unit_table(u)
    d = table.dim
    if d == 0:
        return []
    try:
        (i, a, v), sizes, *_ = central_projections(
            table, (d, np.arange(d), np.arange(d), np.ones(d)), seed)
    except NumericalDegeneracy:
        raise NotAbelian("could not diagonalize a unit fiber; it may not be "
                         "commutative or is numerically degenerate") from None
    vecs = list(_scatter(i * d + a, v, len(sizes) * d).reshape(-1, d))
    keys = [tuple(np.round(p, 6).view(float)) for p in vecs]
    return [vecs[l] for l in sorted(range(len(vecs)), key=lambda l: keys[l])]


def abelian_extract(E: FellBundle, tol: float = 1e-9, seed: int = 0) -> ExtractionResult:
    """Recover a covering with a line twist from a saturated bundle with
    commutative unit fibers and associative products (BundleNotVerified).

    The point set is the disjoint union of the minimal projections of the
    unit fibers, each solved on the fiber's own table, one unit at a time
    (:func:`~gpdkit.algebra.central_projections`); each arrow h induces a
    bijection alpha_h matching the nonzero corners q . E_h . p, every such
    corner is checked to be a line; unit vectors are gauged by normalizing
    the first basis column with a nonzero corner (projections themselves
    over units), and the cocycle is read off from products of the gauged
    vectors. The twisted
    algebra of the result is compared with the section algebra blockwise,
    and the basis map U (``basis_map``: the column of arrow (h, x) is its
    gauged line vector in the slots over h) is certified as an isometric
    *-isomorphism onto the section algebra: its star defect between the
    twisted table and the section table over every arrow, its
    multiplicative defect over the pairs (x, g) with g in the generating
    set the twisted table keeps of its untwisted pattern (both tables
    are associative, by ``cocycle_identity`` and by the pre-check of
    axiom 3, and the weights are cocycle values, so nonzero; by
    induction on the word of y that decides every pair, and a failing
    generator, or a table below one pass of triples, takes the scan over
    every basis pair: :meth:`~gpdkit.algebra.StructureTable.hom_defect`),
    and its isometry on every element by
    :func:`~gpdkit.algebra.isometry_certificate` (Murphy 1990, Thm 3.1.5),
    from those defects, the smallest singular value of U (bijective), the
    associativity of both tables (``cocycle_identity`` and the section
    algebra's axiom 3) and the faithful *-representations of both. None of
    this is checked when the read-off cocycle fails its identity. The
    section algebra is admitted by :func:`~gpdkit.bundle.verify_axioms` at
    ``seed``.
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

    projections = {}   # point id -> (unit, coeff vector)
    points_by_unit = {}
    for u in H.units:
        vecs = _unit_points(B, B.index[u], seed)
        points_by_unit[u] = tuple(f"{u}#p{i}" for i in range(len(vecs)))
        projections.update(zip(points_by_unit[u], ((u, v) for v in vecs)))
    points = tuple(x for u in H.units for x in points_by_unit[u])
    anchor = {x: projections[x][0] for x in points}

    # alpha_h and line vectors, from the corners q e_i p over each arrow h
    # of every point pair (p over s(h), q over r(h)) and basis index i, two
    # stacked products per group of consecutive arrows. x -> q x p is an
    # idempotent map of E_h (p, q projections, products associative), so
    # the rank of the corner q E_h p is its trace, the sum over i of the
    # coefficient of e_i in q e_i p; and z* z lies in p A_s(h) p = C p (p a
    # minimal projection of a commutative fiber), so ||z||^2 =
    # tau(z* z) / tau(p). A group with a trace more than _TRACE_TOL from an
    # integer (p or q no projection) takes stacked norms and ranks of the
    # d x d matrix of each corner instead. A row of a corner over h costs
    # its padded row, the table terms of its two products and, for those
    # norms, its unit-fiber block over s(h); groups are chunks of that load
    hx, PX = B.rows([projections[x] for x in points])
    tau_p = B.traces(hx, PX)
    count = np.array([len(points_by_unit[u]) for u in H.units], np.int64)
    unit_at = np.zeros(B.nA, np.int64)
    unit_at[H.unit_idx] = np.arange(len(H.units))
    # per arrow: the number of points over s(h) and r(h) and the place of
    # their first one in ``points``
    n_p, n_q = count[unit_at[B.src]], count[unit_at[B.rng]]
    f_p, f_q = ((np.cumsum(count) - count)[unit_at[end]]
                for end in (B.src, B.rng))
    corners = n_p * n_q
    arrows = np.arange(B.nA)
    alpha = {}
    line = {}
    for group in chunks(corners * B.dims * (
            B.D + B.entries(B.rng, arrows) + B.entries(arrows, B.src)
            + B.entries(B.src, B.src, B.orthonormal()[-1])
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
            norms = B.fiber_norms(k, Z)[0]
            col = np.arange(d.sum()) - np.repeat(np.cumsum(d) - d, d)
            size = np.repeat(B.dims[group], corners[group])
            ranks = stacked_ranks(
                np.repeat(corner, d), np.repeat(i, d), col,
                Z[np.repeat(np.arange(len(k)), d), col], (size, size), tol)
        for a_idx, r0, c0 in zip(group.tolist(), row_at, corner_at):
            h = H.arrows[a_idx]
            ps, qs = points_by_unit[H.src[h]], points_by_unit[H.rng[h]]
            dh = E.dim(h)
            rows = slice(r0, r0 + len(ps) * len(qs) * dh)
            norms_h = norms[rows].reshape(len(ps), len(qs), dh)
            ranks_h = ranks[c0:c0 + len(ps) * len(qs)].reshape(len(ps),
                                                               len(qs))
            Z_h = Z[rows].reshape(len(ps), len(qs), dh, B.D)
            alpha_h = {}
            for a, xp in enumerate(ps):
                hits = []
                for b, xq in enumerate(qs):
                    if ranks_h[a, b] > 1:
                        raise LineDimensionFailure(
                            f"corner over {h!r} between {xq!r} and {xp!r} "
                            f"has dimension {ranks_h[a, b]}",
                            witness=(h, xq, xp))
                    if ranks_h[a, b] == 1:
                        # the first basis column with a nonzero corner
                        live = np.flatnonzero(norms_h[a, b] > tol)
                        if not len(live):
                            raise LineDimensionFailure(
                                f"corner over {h!r} between {xq!r} and "
                                f"{xp!r} has no vector of positive norm",
                                witness=(h, xq, xp))
                        hits.append((xq, FiberElement(
                            E, h, Z_h[a, b, live[0], :dh]
                            / norms_h[a, b, live[0]])))
                if len(hits) != 1:
                    raise LineDimensionFailure(
                        f"point {xp!r} pairs with {len(hits)} targets over "
                        f"{h!r}", witness=(h, xp))
                xq, vec = hits[0]
                alpha_h[xp] = xq
                line[(h, xp)] = vec
            if len(set(alpha_h.values())) != len(alpha_h):
                raise LineDimensionFailure(
                    f"induced point map over {h!r} is not injective",
                    witness=h)
            alpha[h] = alpha_h

    # over units, regauge the line vectors to the projections themselves so
    # the extracted cocycle is exactly normalized
    for u in H.units:
        for x in points_by_unit[u]:
            _, pvec = projections[x]
            line[(u, x)] = FiberElement(E, u, pvec.copy())

    act = {(h, xp): xq for h in H.arrows for xp, xq in alpha[h].items()}
    # composition of the alpha maps follows from saturation; validation
    # raises with a witness if the bundle lied about it
    action = GroupoidAction(H, points, anchor, act)
    ag = build_action_groupoid(action)

    # cocycle from gauged products: e_{h1, alpha_{h2} x} e_{h2, x} =
    # omega((h1, alpha_{h2} x), (h2, x)) e_{h1 h2, x}, read off as
    # tau(e_12* e_1 e_2) / tau(e_12* e_12) in the unit fiber over s(h2),
    # in stacked products over every such pair
    T = H.table  # entry e: the pair (h1, h2) of H, h1 in arrow order
    j, e = _join(ag.projection.image, T.b, np.lexsort((T.a, T.b)))
    arrow = list(ag.pairs.values())
    pairs = [(h1, act[arrow[i]], *arrow[i])
             for h1, i in zip(H.names(T.a[e]), j.tolist())]
    k1, X1 = B.rows([(h1, line[(h1, y)].vec) for h1, y, _, _ in pairs])
    k2, X2 = B.rows([(h2, line[(h2, x)].vec) for _, _, h2, x in pairs])
    k12 = T.c[e]
    _, X12 = B.rows([(H.arrows[k], line[(H.arrows[k], p[3])].vec)
                     for k, p in zip(k12, pairs)])
    _, prod = B.products(k1, X1, k2, X2)
    ks, S = B.stars(k12, X12)
    num, den = (B.traces(B.src[k2], B.products(ks, S, k12, Y)[1])
                for Y in (prod, X12))
    w = num / den
    res_line = float(np.abs(prod - w[:, None] * X12).max(initial=0.0))
    # the pairs are those of the action groupoid's table, in its order
    omega = Cocycle(ag.groupoid, w)

    result = ExtractionResult(points, action, ag, omega,
                              {x: projections[x][1] for x in points}, line)
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
        lambda: ta.wedderburn(seed=seed, tol=tol),
        lambda: sa.wedderburn(seed=seed, tol=tol))

    # the natural basis map delta_{(h,x)} -> gauged line vector at slot h
    # must be an isometric *-isomorphism onto the section algebra
    G2 = ag.groupoid
    U = np.zeros((E.total_dim(), len(G2.arrows)), dtype=complex)
    for gid, (h, x) in ag.pairs.items():
        vec = line[(h, x)].vec
        U[E.first[h]:E.first[h] + vec.size, G2.index[gid]] = vec
    result.basis_map = U
    # both tables are associative (cocycle_identity, the check above), so
    # the generators of the twisted table's pattern decide
    res_mul, pair = ta.table.hom_defect(E.table(), U, ta.table.generators,
                                        1e-8)
    result.add("basis_map_multiplicative", res_mul <= 1e-8, res_mul,
               None if res_mul <= 1e-8 else
               f"({G2.arrows[pair[0]]!r}, {G2.arrows[pair[1]]!r})")
    res_star, s = ta.table.star_hom_defect(E.table(), U)
    result.add("basis_map_star", res_star <= 1e-8, res_star,
               None if res_star <= 1e-8 else repr(G2.arrows[s[0]]))
    # bijective: U has full rank at the cut of numpy's matrix_rank
    sv = np.linalg.svd(U, compute_uv=False)
    cut = sv.max(initial=0.0) * max(U.shape) * np.finfo(float).eps
    square = U.shape[0] == U.shape[1]
    bijective = ("bijective", 0.0 if square and np.all(sv > cut) else None,
                 f"sigma_min {sv.min(initial=np.inf):.3e} <= cut {cut:.3e}"
                 if square else f"U is {U.shape[0]} x {U.shape[1]}")
    result.add("basis_map_isometric", *isometry_certificate(
        [bijective, *result.cite("basis_map_multiplicative",
                                 "basis_map_star", "cocycle_identity")]
        + _section_hypotheses(sa),
        [("twisted", ta.rep), ("section", sa.space.rep)], 1e-8))
    return result

