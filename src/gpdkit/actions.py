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

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groupoid import (FiniteGroupoid, GroupoidMorphism, GroupoidError,
                       _trusted, classify_morphism, pair_id)
from .algebra import (RegularRepresentation, WedderburnInvariants, chunks,
                      groupoid_table, isometry_defect, wedderburn_from_tables)
from .bundle import (BundleNotVerified, FellBundle, FiberElement,
                     NotSaturated, FellBundleError, _require_cstar_units,
                     _slot_witness, section_algebra)
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
    """Exhaustive check of the action axioms; witnesses on failure."""
    H = a.groupoid
    unit_set = set(H.units)
    for x in a.points:
        if a.anchor.get(x) not in unit_set:
            raise ActionAxiomViolation(f"anchor of {x!r} is not a unit",
                                       witness=x)
    if unit_set - {a.anchor[x] for x in a.points}:
        missing = sorted(unit_set - {a.anchor[x] for x in a.points}, key=repr)
        raise ActionAxiomViolation(f"anchor is not surjective: unit "
                                   f"{missing[0]!r} has empty fiber",
                                   witness=missing[0])
    pset = set(a.points)
    for h in H.arrows:
        for x in a.points:
            defined = (h, x) in a.act
            should = H.src[h] == a.anchor[x]
            if defined != should:
                raise ActionAxiomViolation(
                    f"act defined on ({h!r}, {x!r}) iff should be: {should}",
                    witness=(h, x))
            if defined:
                y = a.act[(h, x)]
                if y not in pset:
                    raise ActionAxiomViolation(f"act({h!r}, {x!r}) not a point",
                                               witness=(h, x))
                if a.anchor[y] != H.rng[h]:
                    raise ActionAxiomViolation(
                        f"anchor(act({h!r}, {x!r})) != rng({h!r})",
                        witness=(h, x))
    for x in a.points:
        if a.act[(a.anchor[x], x)] != x:
            raise ActionAxiomViolation(f"unit does not fix {x!r}", witness=x)
    for (h1, x) in a.act:
        y = a.act[(h1, x)]
        for h2 in H.arrows_from(H.rng[h1]):
            if a.act[(h2, y)] != a.act[(H.comp[(h2, h1)], x)]:
                raise ActionAxiomViolation(
                    f"action not multiplicative on ({h2!r}, {h1!r}, {x!r})",
                    witness=(h2, h1, x))
    return a


@dataclass
class ActionGroupoid:
    groupoid: FiniteGroupoid
    projection: GroupoidMorphism
    pairs: dict                    # arrow id -> (h, x)
    point_unit: dict               # point -> unit arrow id
    classification: object = None


def build_action_groupoid(a: GroupoidAction) -> ActionGroupoid:
    """The semidirect product groupoid of a validated action, together
    with the projection onto the acting groupoid (always a covering)."""
    validate_action(a)
    H = a.groupoid
    pairs = sorted(a.act.keys(),
                   key=lambda hx: (H.index[hx[0]], a.points.index(hx[1])))
    ids = {hx: pair_id(*hx) for hx in pairs}
    arrows = tuple(ids[hx] for hx in pairs)
    point_unit = {x: ids[(a.anchor[x], x)] for x in a.points}
    src = {ids[(h, x)]: point_unit[x] for (h, x) in pairs}
    rng = {ids[(h, x)]: point_unit[a.act[(h, x)]] for (h, x) in pairs}
    inv = {ids[(h, x)]: ids[(H.inv[h], a.act[(h, x)])] for (h, x) in pairs}
    units = tuple(point_unit[x] for x in a.points)
    comp = {}
    for (h1, x1) in pairs:
        y = a.act[(h1, x1)]
        for h2 in H.arrows_from(H.rng[h1]):
            comp[(ids[(h2, y)], ids[(h1, x1)])] = ids[(H.comp[(h2, h1)], x1)]
    G = _trusted(arrows, units, src, rng, inv, comp)
    pi = GroupoidMorphism(G, H, {ids[hx]: hx[0] for hx in pairs})
    cls = classify_morphism(pi)
    return ActionGroupoid(G, pi, {ids[hx]: hx for hx in pairs}, point_unit,
                          cls)


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
    points = tuple(G.units)
    anchor = {x: pi.map[x] for x in points}
    act = {}
    for h in H.arrows:
        for x in points:
            if anchor[x] != H.src[h]:
                continue
            lifts = [g for g in G.arrows_from(x) if pi.map[g] == h]
            act[(h, x)] = G.rng[lifts[0]]
    action = GroupoidAction(H, points, anchor, act)
    ag = build_action_groupoid(action)
    iso = {g: pair_id(pi.map[g], G.src[g]) for g in G.arrows}
    exact = _is_exact_isomorphism(G, ag.groupoid, iso)
    return CoveringAction(action, iso, ag, exact)


def _is_exact_isomorphism(G: FiniteGroupoid, G2: FiniteGroupoid, iso) -> bool:
    if len(G.arrows) != len(G2.arrows):
        return False
    if set(iso.values()) != set(G2.arrows):
        return False
    for (g1, g2), g12 in G.comp.items():
        if G2.comp.get((iso[g1], iso[g2])) != iso[g12]:
            return False
    for g in G.arrows:
        if G2.inv[iso[g]] != iso[G.inv[g]]:
            return False
    return True


class Cocycle:
    """Unit-modulus function on the composable pairs of a groupoid."""

    __slots__ = ("base", "omega")

    def __init__(self, base: FiniteGroupoid, omega):
        self.base = base
        self.omega = {k: complex(v) for k, v in dict(omega).items()}

    def __call__(self, g1, g2):
        return self.omega[(g1, g2)]


def trivial_cocycle(G: FiniteGroupoid) -> Cocycle:
    return Cocycle(G, {p: 1.0 for p in G.composable_pairs()})


def coboundary_cocycle(G: FiniteGroupoid, beta) -> Cocycle:
    """omega(g1, g2) = beta(g1) beta(g2) / beta(g1 g2) for unit-modulus
    beta with beta = 1 on units; always satisfies the identity."""
    beta = dict(beta)
    for u in G.units:
        beta[u] = 1.0
    omega = {}
    for (g1, g2), g12 in G.comp.items():
        omega[(g1, g2)] = beta[g1] * beta[g2] / beta[g12]
    return Cocycle(G, omega)


def random_coboundary(G: FiniteGroupoid, rng) -> Cocycle:
    beta = {g: cmath.exp(2j * cmath.pi * rng.random()) for g in G.arrows}
    return coboundary_cocycle(G, beta)


def pullback_cocycle(pi: GroupoidMorphism, omega: Cocycle) -> Cocycle:
    """Pull a cocycle on the codomain back along a morphism."""
    G = pi.domain
    table = {}
    for (g1, g2) in G.composable_pairs():
        table[(g1, g2)] = omega(pi.map[g1], pi.map[g2])
    return Cocycle(G, table)


def product_cocycle(a: Cocycle, b: Cocycle) -> Cocycle:
    return Cocycle(a.base, {k: a.omega[k] * b.omega[k] for k in a.omega})


@dataclass
class CocycleReport:
    modulus_residual: float
    identity_residual: float
    normalization_residual: float
    witness: Optional[str] = None

    def passed(self, tol: float = 1e-12) -> bool:
        return (self.modulus_residual <= tol
                and self.identity_residual <= tol
                and self.normalization_residual <= tol)

    def as_dict(self, tol: float = 1e-12) -> dict:
        return {"modulus_residual": self.modulus_residual,
                "identity_residual": self.identity_residual,
                "normalization_residual": self.normalization_residual,
                "pass": self.passed(tol), "witness": self.witness}


def cocycle_check(omega: Cocycle, tol: float = 1e-12) -> CocycleReport:
    """Exhaustive verification: totality on composable pairs, unit
    modulus, normalization on units, and the identity
    omega(g1,g2) omega(g1g2,g3) = omega(g2,g3) omega(g1,g2g3): the twisted
    table's associativity, whose defect and triple give residual and witness."""
    G = omega.base
    for p in G.composable_pairs():
        if p not in omega.omega:
            raise CocycleIdentityFailure(f"cocycle missing on pair {p!r}",
                                         witness=p)
    res_mod = max((abs(abs(v) - 1.0) for v in omega.omega.values()),
                  default=0.0)
    res_norm = 0.0
    for g in G.arrows:
        res_norm = max(res_norm, abs(omega(G.rng[g], g) - 1.0),
                       abs(omega(g, G.src[g]) - 1.0))
    res_id, triple = groupoid_table(G, omega.omega).associativity_defect()
    witness = None if res_id <= tol else "({!r}, {!r}, {!r})".format(
        *(G.arrows[i] for i in triple))
    return CocycleReport(res_mod, res_id, res_norm, witness)


class TwistedConvolutionAlgebra:
    """Convolution algebra twisted by a 2-cocycle: the groupoid table with
    weights omega (``table``) and its block-per-unit left regular
    representation (``rep``, a *-representation for the twisted
    involution)."""

    def __init__(self, G: FiniteGroupoid, omega: Cocycle):
        self.G = G
        self.omega = omega
        self.table = groupoid_table(G, omega.omega)
        self.rep = RegularRepresentation(self.table, G)

    def convolve(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        return self.table.mul(c1, c2)

    def norm(self, c: np.ndarray) -> float:
        return self.rep.norm(c)

    def wedderburn(self, seed: int = 0, tol: float = 1e-9) -> WedderburnInvariants:
        return wedderburn_from_tables(self.rep, seed=seed, tol=tol)


def twisted_algebra(G: FiniteGroupoid, omega: Cocycle,
                    tol: float = 1e-12) -> TwistedConvolutionAlgebra:
    """Validated twisted convolution algebra; the cocycle identity is
    re-verified first since associativity rides on it."""
    report = cocycle_check(omega, tol)
    if not report.passed(tol):
        raise CocycleIdentityFailure(
            f"cocycle fails validation (identity residual "
            f"{report.identity_residual:.3e})", witness=report.witness)
    return TwistedConvolutionAlgebra(G, omega)


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


def _minimal_projections(B, u, seed: int = 0):
    """Minimal projections of the commutative unit fiber over the arrow
    index ``u`` of the FiberBlocks ``B``, as coefficient vectors, in a
    deterministic order (lexicographic by rounded coefficients). Raises
    FellBundleError when the fiber has a degenerate trace form."""
    _require_cstar_units(B, [u])
    d = int(B.dims[u])
    if d == 0:
        return []
    rng = np.random.default_rng(seed)
    at = np.full(d + 1, u)
    # row 0: a random self-adjoint element; rows 1..d: the basis
    X = np.zeros((d + 1, B.D), dtype=complex)
    X[1:, :d] = np.eye(d)
    L = np.empty((d + 1, d, d), dtype=complex)
    for _ in range(6):
        X[0, :d] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        X[0] += B.stars(at[:1], X[:1])[1][0]
        for rows, S in B.blocks(at, X, at):  # T L T^-1 of every row
            L[rows] = S
        evals, V = np.linalg.eigh((L[0] + L[0].conj().T) / 2.0)
        spread = float(evals[-1] - evals[0])
        if d > 1 and np.min(np.diff(evals)) < 1e-6 * max(spread, 1.0):
            continue
        # characters: joint eigenvalues of the basis left multiplications
        char = np.einsum("il,kij,jl->lk", V.conj(), L[1:], V)
        try:
            projs = np.linalg.solve(char, np.eye(d, dtype=complex))
        except np.linalg.LinAlgError:
            continue
        P = np.zeros((d, B.D), dtype=complex)
        P[:, :d] = projs.T
        _, square = B.products(at[:d], P, at[:d], P)
        _, star = B.stars(at[:d], P)
        if max(np.abs(square - P).max(), np.abs(star - P).max()) > 1e-8:
            continue
        vecs = list(projs.T)
        keys = [tuple(np.round(p, 6).view(float)) for p in vecs]
        order = sorted(range(d), key=lambda l: keys[l])
        return [vecs[l] for l in order]
    raise NotAbelian("could not diagonalize a unit fiber; it may not be "
                     "commutative or is numerically degenerate")


def abelian_extract(E: FellBundle, tol: float = 1e-9, seed: int = 0) -> ExtractionResult:
    """Recover a covering with a line twist from a saturated bundle with
    commutative unit fibers and associative products (BundleNotVerified).

    The point set is the disjoint union of the minimal projections of the
    unit fibers; each arrow h induces a bijection alpha_h matching the
    nonzero corners q . E_h . p, every such corner is checked to be a
    line; unit vectors are gauged by normalizing the first basis column
    with a nonzero corner (projections themselves over units), and the
    cocycle is read off from products of the gauged vectors. The twisted
    algebra of the result is compared with the section algebra blockwise,
    and the basis map U (``basis_map``: the column of arrow (h, x) is its
    gauged line vector in the slots over h) is certified as an isometric
    *-isomorphism onto the section algebra: its multiplicative and star
    defects between the twisted table and the section table over every
    basis pair (or arrow), and its norm defect on 25 seeded random
    elements. None of this is checked when the read-off cocycle fails its
    identity.
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
        vecs = _minimal_projections(B, B.index[u], seed=seed)
        ids = []
        for idx, vec in enumerate(vecs):
            x = f"{u}#p{idx}"
            projections[x] = (u, vec)
            ids.append(x)
        points_by_unit[u] = tuple(ids)
    points = tuple(x for u in H.units for x in points_by_unit[u])
    anchor = {x: projections[x][0] for x in points}

    # alpha_h and line vectors, from the corners q e_i p over each arrow h
    # of every point pair (p over s(h), q over r(h)) and basis index i: two
    # stacked products, one stacked norm and one stacked rank of the d x d
    # matrix of each corner per group of consecutive arrows. A row of a
    # corner over h costs its padded row, the table terms of its two
    # products and its unit-fiber block over s(h); groups are chunks of
    # that load
    hx, PX = B.rows([projections[x] for x in points])
    count = np.array([len(points_by_unit[u]) for u in H.units], np.int64)
    unit_at = np.zeros(B.nA, np.int64)
    unit_at[[B.index[u] for u in H.units]] = np.arange(len(H.units))
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
        norms = B.fiber_norms(k, Z)[0]
        corner_at = np.cumsum(corners[group]) - corners[group]
        col = np.arange(d.sum()) - np.repeat(np.cumsum(d) - d, d)
        size = np.repeat(B.dims[group], corners[group])
        ranks = stacked_ranks(
            np.repeat(np.repeat(corner_at, nrow) + pq, d), np.repeat(i, d),
            col, Z[np.repeat(np.arange(len(k)), d), col], (size, size), tol)
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

    act = {}
    for h in H.arrows:
        for xp, xq in alpha[h].items():
            act[(h, xp)] = xq
    # composition of the alpha maps follows from saturation; validation
    # raises with a witness if the bundle lied about it
    action = GroupoidAction(H, points, anchor, act)
    ag = build_action_groupoid(action)

    # cocycle from gauged products: e_{h1, alpha_{h2} x} e_{h2, x} =
    # omega((h1, alpha_{h2} x), (h2, x)) e_{h1 h2, x}, read off as
    # tau(e_12* e_1 e_2) / tau(e_12* e_12) in the unit fiber over s(h2),
    # in stacked products over every such pair
    pairs = [(h1, act[(h2, x)], h2, x) for h2, x in ag.pairs.values()
             for h1 in H.arrows_from(H.rng[h2])]
    k1, X1 = B.rows([(h1, line[(h1, y)].vec) for h1, y, _, _ in pairs])
    k2, X2 = B.rows([(h2, line[(h2, x)].vec) for _, _, h2, x in pairs])
    k12 = B.compose(k1, k2)
    _, X12 = B.rows([(H.arrows[k], line[(H.arrows[k], p[3])].vec)
                     for k, p in zip(k12, pairs)])
    _, prod = B.products(k1, X1, k2, X2)
    ks, S = B.stars(k12, X12)
    num, den = (B.traces(B.src[k2], B.products(ks, S, k12, Y)[1])
                for Y in (prod, X12))
    w = num / den
    res_line = float(np.abs(prod - w[:, None] * X12).max(initial=0.0))
    omega_table = {(pair_id(h1, y), pair_id(h2, x)): complex(v)
                   for (h1, y, h2, x), v in zip(pairs, w)}
    omega = Cocycle(ag.groupoid, omega_table)

    result = ExtractionResult(points, action, ag, omega,
                              {x: projections[x][1] for x in points}, line)
    result.add("action_axioms", True, None, None)
    result.add("line_products_consistent", res_line <= 1e-8, res_line)
    creport = cocycle_check(omega, 1e-12)
    result.add("cocycle_identity", creport.identity_residual <= 1e-12,
               creport.identity_residual, creport.witness)
    result.add("cocycle_modulus", creport.modulus_residual <= 1e-12,
               creport.modulus_residual)
    result.add("cocycle_normalized", creport.normalization_residual <= 1e-12,
               creport.normalization_residual)
    # without the identity the twisted table is no associative algebra
    if not result.entry("cocycle_identity").passed:
        for name in ("wedderburn_equal", "basis_map_multiplicative",
                     "basis_map_star", "basis_map_isometric"):
            result.add(name, False, None,
                       "not checked: cocycle_identity failed")
        return result

    ta = TwistedConvolutionAlgebra(ag.groupoid, omega)
    bt = ta.wedderburn(seed=seed, tol=tol)
    sa = section_algebra(E, tol=tol)
    bb = sa.wedderburn(seed=seed, tol=tol)
    result.blocks_twisted = bt.blocks
    result.blocks_bundle = bb.blocks
    result.add_wedderburn_equal(bt.blocks, bb.blocks)

    # the natural basis map delta_{(h,x)} -> gauged line vector at slot h
    # must be an isometric *-isomorphism onto the section algebra
    G2 = ag.groupoid
    U = np.zeros((E.total_dim(), len(G2.arrows)), dtype=complex)
    for gid, (h, x) in ag.pairs.items():
        vec = line[(h, x)].vec
        U[E.first[h]:E.first[h] + vec.size, G2.index[gid]] = vec
    result.basis_map = U
    res_mul, pair = ta.table.hom_defect(E.table(), U)
    result.add("basis_map_multiplicative", res_mul <= 1e-8, res_mul,
               None if res_mul <= 1e-8 else
               f"({G2.arrows[pair[0]]!r}, {G2.arrows[pair[1]]!r})")
    res_star = ta.table.star_hom_defect(E.table(), U)[0]
    result.add("basis_map_star", res_star <= 1e-8, res_star)
    res_iso = isometry_defect(ta.rep.norms, sa.space.rep.norms, U,
                              np.random.default_rng(seed), 25)
    result.add("basis_map_isometric", res_iso <= 1e-8, res_iso)
    return result

