"""Fell bundles over finite groupoids.

A bundle assigns to every base arrow h a finite-dimensional fiber with an
explicit basis, to every composable pair of base arrows a bilinear
multiplication E_h1 x E_h2 -> E_h1h2, and to every h a conjugate-linear
star map into the fiber over inv(h) (Kumjian, *Fell bundles over
groupoids*, 1998). All of it is one structure table of the section
algebra (:class:`~gpdkit.algebra.StructureTable`) over the slots of the
fiber bases, numbered arrow-major in the order of the base arrows; a
product or star of fiber elements is a row of a stacked table product
(:class:`~gpdkit.fiberblocks.FiberBlocks`). Completion is a no-op in
finite dimensions, so fibers are plain coefficient spaces and all
analytic statements degenerate to linear algebra over the table.

The bundle of a surjective groupoid morphism pi: G -> H has fiber basis
pi^{-1}(h), products inherited from composition in G (optionally twisted
by a 2-cocycle on G) and star inherited from inversion. Unit fibers are
then the convolution algebras of the kernel fibers.

Norms: a unit fiber carries the operator norm of its left regular
representation taken with the trace-form inner product <a, b> =
tr(L_{a* b}), which is the unique C*-norm whenever the fiber is a genuine
C*-algebra. A general fiber element xi at h gets ||xi|| =
||xi* xi||^{1/2} computed in the unit fiber over src(h), cross-checkable
against the operator norm of the corresponding one-arrow section acting
on the section Hilbert space. Left multiplication by xi sends each fiber
E_k with r(k) = src(h) into E_hk (Kumjian, *Fell bundles over groupoids*,
1998), so in the orthonormal coordinates T_h = G_h^{1/2} of the per-arrow
Gram blocks G_h[i, j] = tau(e_i* e_j) that operator norm is
max_k ||T_hk L_{xi,k} T_k^-1||, and a unit-fiber norm is the block of
k = u. Every norm the checks take is such a d x d block, scattered from
the table entries put once into those coordinates, stacked by size in
batched calls (:class:`~gpdkit.fiberblocks.FiberBlocks`); only
``SectionAlgebra.norm``, a general section, takes a block per source unit,
from the :class:`~gpdkit.algebra.RegularRepresentation` of those entries.

The norm axioms need none of these norms once their hypotheses hold:
with the section table associative (axiom 3), the star involutive (axiom
7), definite unit trace forms and Gram blocks, right Gram roots and the
section representation L a *-representation, L is a *-homomorphism
(Murphy 1990, *C*-algebras and Operator Theory*, 2.1 and Thm 3.1.5).
:func:`verify_axioms` certifies axioms 4, 9 and 10 and
``norm_consistency`` from them, and takes blocks only when one fails, to
find a witness. So does the bimodule positivity of
:func:`bisection_bimodule_check`, one pass for a whole bisection cover.
The conditional expectation onto the unit fibers is a pinching of L, so
it is contractive on every section (:func:`expectation_certificate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .groupoid import (FiniteGroupoid, GroupoidMorphism, NotAMorphism,
                       NotSurjective, _ids, _runs, check_bisection,
                       classify_morphism, fiber_subgroupoid, kernel)
from . import algebra
from .algebra import (AlgebraElement, StructureTable, _defect,
                      _scatter, wedderburn, wedderburn_from_tables)
from .draws import draws
from .fiberblocks import fiber_blocks, pick, stacked_ranks
from .report import CheckList


class FellBundleError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotComposable(FellBundleError):
    pass


class BundleNotVerified(FellBundleError):
    pass


class NotSaturated(FellBundleError):
    pass


class FellBundle:
    """Fiber bases plus the structure table of the section algebra.

    fibers: arrow -> tuple of basis labels
    table:  the only storage of products and star, a
            :class:`~gpdkit.algebra.StructureTable` over the slots
            first[h] + i: products e_a e_b = sum of w e_c give the maps
            E_h1 x E_h2 -> E_h1h2, star entries e_s* = sum of sw e_t the
            linear part of the conjugate-linear E_h -> E_inv(h).

    The slots are numbered arrow-major in the order of the base arrows,
    held once as ``dims`` (fiber dimension per arrow index) and ``arrow``
    (arrow index per slot); ``first`` maps arrow names to first slots, and
    ``psi_slots`` (a bundle of a morphism only) domain arrows, in domain
    order, to their slots (psi is this slot map; -1: in no fiber).

    ``fiber_map_errors`` holds the first product and star entry that
    leaves the fibers it names (axioms 1 and 5; see
    :func:`_fiber_map_errors`), and :meth:`table` raises it.
    """

    def __init__(self, base: FiniteGroupoid, fibers, table: StructureTable,
                 morphism: Optional[GroupoidMorphism] = None):
        self.base = base
        self.fibers = {h: tuple(v) for h, v in fibers.items()}
        for h in base.arrows:
            self.fibers.setdefault(h, ())
        self.morphism = morphism
        bases = [self.fibers[h] for h in base.arrows]
        self.dims = np.fromiter(map(len, bases), np.int64, len(bases))
        self.arrow = np.repeat(np.arange(len(bases)), self.dims)
        self.first = dict(zip(base.arrows,
                              (np.cumsum(self.dims) - self.dims).tolist()))
        slot = len(self.arrow)
        factors = np.concatenate([table.a, table.b, table.s])
        if table.dim != slot or np.any((factors < 0) | (factors >= slot)):
            raise FellBundleError(f"table is not over the {slot} slots of "
                                  "the fibers")
        self.psi_slots = None if morphism is None else _ids(
            morphism.domain.arrows,
            {g: i for i, g in enumerate(chain.from_iterable(bases))})
        self._table = table
        self.fiber_map_errors = _fiber_map_errors(self)
        self._blocks = self._is_moved = None

    def dim(self, h) -> int:
        return len(self.fibers[h])

    def total_dim(self) -> int:
        return len(self.arrow)

    def table(self) -> StructureTable:
        """Structure table of the section algebra over the slots (see
        ``first``). Raises the first of ``fiber_map_errors`` rather than
        let an entry land in a neighbouring fiber's slot."""
        for error in self.fiber_map_errors:
            if error is not None:
                raise error
        return self._table

    def moved(self) -> bool:
        """The section table is the domain's moved by psi (:func:`_moved`)."""
        if self._is_moved is None:
            self._is_moved = self.psi_slots is not None and _moved(
                self.morphism.domain.table, self.table(), self.psi_slots)
        return self._is_moved

    def is_abelian(self, tol: float = 1e-12) -> bool:
        """The unit-fiber entries of the section table equal themselves
        with the factors swapped."""
        B = fiber_blocks(self)
        T, on = B.table, B.is_unit[B.arrow]
        m = on[T.a] & on[T.b]
        return _defect((T.a[m], T.b[m], T.c[m], T.w[m]),
                       (T.b[m], T.a[m], T.c[m], T.w[m]), T.dim)[0] <= tol


@dataclass
class FiberElement:
    bundle: FellBundle
    arrow: object
    vec: np.ndarray

    def __post_init__(self):
        self.vec = np.asarray(self.vec, dtype=complex)
        if self.vec.shape != (self.bundle.dim(self.arrow),):
            raise ValueError("coefficient vector does not match fiber size")

    @classmethod
    def basis(cls, bundle, h, i):
        v = np.zeros(bundle.dim(h), dtype=complex)
        v[i] = 1.0
        return cls(bundle, h, v)

    def norm(self) -> float:
        return fiber_norm(self)


def fiber_mul(xi: FiberElement, eta: FiberElement) -> FiberElement:
    """The product in E_h1h2: the one-row case of
    :meth:`gpdkit.fiberblocks.FiberBlocks.products`."""
    E = xi.bundle
    if not E.base.composable(xi.arrow, eta.arrow):
        raise NotComposable(f"({xi.arrow!r}, {eta.arrow!r}) not composable "
                            "in the base", witness=(xi.arrow, eta.arrow))
    B = fiber_blocks(E)
    h, Z = B.products(*B.rows([(xi.arrow, xi.vec)]),
                      *B.rows([(eta.arrow, eta.vec)]))
    return _fiber_row(E, h[0], Z[0])


def fiber_star(xi: FiberElement) -> FiberElement:
    """The star in E_inv(h): the one-row case of
    :meth:`gpdkit.fiberblocks.FiberBlocks.stars`."""
    B = fiber_blocks(xi.bundle)
    h, Z = B.stars(*B.rows([(xi.arrow, xi.vec)]))
    return _fiber_row(xi.bundle, h[0], Z[0])


def _fiber_row(E: FellBundle, h, row) -> FiberElement:
    """The fiber element of a padded row over the arrow index h."""
    arrow = E.base.arrows[h]
    return FiberElement(E, arrow, row[:E.dim(arrow)])


def fiber_norm(xi: FiberElement) -> float:
    """||xi|| = ||xi* xi||^{1/2} in the unit fiber over src(arrow): the
    one-row case of :meth:`gpdkit.fiberblocks.FiberBlocks.fiber_norms`."""
    B = fiber_blocks(xi.bundle)
    h, X = B.rows([(xi.arrow, xi.vec)])
    _require_cstar_units(B, B.src[h])
    return float(B.fiber_norms(h, X)[0][0])


def _require_cstar_units(B, units):
    """Raise FellBundleError on the first of ``units`` (arrow indices of
    ``B``) whose fiber has a degenerate trace form."""
    bad = B.degenerate_unit(units)
    if bad is not None:
        u = B.base.arrows[bad]
        raise FellBundleError(
            f"unit fiber over {u!r} has a degenerate trace form and is not "
            "a C*-algebra", witness=u)


def _fiber_map_errors(E: FellBundle):
    """(first product entry, first star entry) of the table of ``E`` that
    leaves the fibers it names, as FellBundleErrors or None: a product
    e_a e_b needs composable arrows (h1, h2) under a and b and its terms
    over h1 h2, and the terms of e_s* must lie over inv(h) for the arrow h
    under s. Witnesses ((h1, h2), (i, j), k) and (h, i, k), with k counted
    from the first slot of the fiber the term should lie in, or (h1, h2)
    for a pair that is not composable."""
    H, T = E.base, E._table
    first = np.cumsum(E.dims) - E.dims
    # the arrow under each slot, and -1 (at position -1) off the table
    arrow = np.append(E.arrow, -1)
    term = arrow[np.where((T.c >= 0) & (T.c < T.dim), T.c, -1)]
    h1, h2 = arrow[T.a], arrow[T.b]
    h12 = H.compose_ids(h1, h2)
    errors = [None, None]
    bad = np.flatnonzero((h12 < 0) | (term != h12))
    if len(bad):
        e = bad[0]
        pair = (H.arrows[h1[e]], H.arrows[h2[e]])
        ij = (int(T.a[e] - first[h1[e]]), int(T.b[e] - first[h2[e]]))
        errors[0] = NotComposable(
            f"mul defined on non-composable {pair!r}", witness=pair) \
            if h12[e] < 0 else FellBundleError(
                f"index out of range in mul[{pair!r}][{ij}]",
                witness=(pair, ij, int(T.c[e] - first[h12[e]])))
    hs = arrow[T.s]
    term = arrow[np.where((T.t >= 0) & (T.t < T.dim), T.t, -1)]
    bad = np.flatnonzero(term != H.inv_idx[hs])
    if len(bad):
        e = bad[0]
        h, i = H.arrows[hs[e]], int(T.s[e] - first[hs[e]])
        errors[1] = FellBundleError(
            f"index out of range in star[{h!r}][{i}]",
            witness=(h, i, int(T.t[e] - first[H.inv_idx[hs[e]]])))
    return tuple(errors)


def build_bundle(pi: GroupoidMorphism, twist=None) -> FellBundle:
    """The bundle E(pi) of a surjective morphism pi: G -> H.

    Fiber basis over h is pi^{-1}(h); basis products follow composition in
    G, weighted by the optional 2-cocycle ``twist`` (a Cocycle, whose
    table's weights are read, or a mapping on composable pairs of G); star
    sends the basis vector of g to conj(twist(g, inv g)) times the basis
    vector of inv(g).

    Rejects non-surjective input rather than restricting to the image.
    """
    cls = classify_morphism(pi)
    if not cls.is_morphism:
        raise NotAMorphism("input is not a morphism", witness=cls.witness)
    if not cls.surjective:
        raise NotSurjective("bundle construction needs a surjective morphism",
                            witness=cls.witness)
    G, H = pi.domain, pi.codomain
    fibers = {h: [] for h in H.arrows}
    for g, h in zip(G.arrows, H.names(pi.image)):
        fibers[h].append(g)
    # slots are arrow-major over H, in domain order within a fiber
    slots = np.empty(len(G.arrows), dtype=np.int64)
    slots[np.argsort(pi.image, kind="stable")] = np.arange(len(G.arrows))
    return FellBundle(H, fibers, _arrow_table(G, slots, pi.image, twist),
                      morphism=pi)


def _arrow_table(G: FiniteGroupoid, slots, over, twist) -> StructureTable:
    """Section table of a bundle whose basis vector of the arrow g of G
    sits at slots[g]: products follow composition in G, weighted by the
    2-cocycle ``twist`` (None, a Cocycle or a mapping on composable
    pairs), and e_g* is conj(twist(g, inv g)) e_{inv g}, one gather of
    the cocycle's weights. Products are listed by the pair (over[g2],
    over[g1]) of their factors, composition order within a pair, and star
    entries by slot. A mapping, or the name view of a Cocycle on another
    groupoid, is checked as a :class:`~gpdkit.actions.Cocycle` on G first,
    which names the first composable pair it misses."""
    from .actions import Cocycle  # actions imports this module
    D = G.table
    if twist is None:
        w, sw = D.w, D.sw
    else:
        if isinstance(twist, Cocycle) and twist.base is not G:
            twist = twist.omega
        if not isinstance(twist, Cocycle):
            twist = Cocycle(G, twist)
        w = twist.table.w
        sw = np.conj(w[G.entry_ids(D.s, D.t)])
    m = np.lexsort((over[D.a], over[D.b]))
    st = np.argsort(slots)
    return StructureTable(D.dim, slots[D.a[m]], slots[D.b[m]],
                          slots[D.c[m]], w[m], slots[st], slots[D.t[st]],
                          sw[st])


def kernel_decomposition_report(pi: GroupoidMorphism, untwisted: bool,
                                tol: float = 1e-9) -> dict:
    """Direct-sum decomposition of the kernel algebra of a surjective
    morphism over the base units, checked by Wedderburn block sizes, solved
    at ``tol``, when ``untwisted``."""
    dec = kernel(pi)
    fiber_sizes = {x: len(dec.fibers[x]) for x in pi.codomain.units}
    report = {
        "kernel_arrows": len(dec.groupoid.arrows),
        "fiber_sizes": {repr(x): n for x, n in sorted(
            fiber_sizes.items(), key=lambda kv: repr(kv[0]))},
        "dimension_check": sum(fiber_sizes.values()) == len(dec.groupoid.arrows),
        "amenable": "automatic (finite)",
    }
    if untwisted:
        whole, *parts = (wedderburn(K, tol=tol) for K in [
            dec.groupoid, *(fiber_subgroupoid(pi, x)
                            for x in pi.codomain.units)])
        parts = sorted((b for p in parts for b in p.blocks), reverse=True)
        report["kernel_blocks"] = list(whole.blocks)
        report["fiber_blocks_union"] = parts
        report["direct_sum_check"] = sorted(whole.blocks)[::-1] == parts
    return report


def line_bundle(G: FiniteGroupoid, omega) -> FellBundle:
    """The one-dimensional bundle of a 2-cocycle on G: each fiber has a
    single basis vector and products multiply by the cocycle value."""
    idx = np.arange(len(G.arrows))
    return FellBundle(G, {g: (g,) for g in G.arrows},
                      _arrow_table(G, idx, idx, omega))


@dataclass
class AxiomReport(CheckList):
    @property
    def axioms_pass(self) -> bool:
        return all(e.passed for e in self.entries if e.name.startswith("axiom"))

    @property
    def saturated(self) -> bool:
        return self.entry("saturation").passed

    @property
    def passed(self) -> bool:
        return self.axioms_pass


_LATER_CHECKS = ("axiom2_bilinear", "axiom6_conjugate_linear",
                 "axiom3_associative", "axiom7_involutive",
                 "axiom8_antimultiplicative", "axiom4_submultiplicative",
                 "axiom10_positive", "axiom9_cstar_identity",
                 "norm_consistency", "saturation")


def verify_axioms(E: FellBundle, tol: float = 1e-9, samples: int = 100,
                  seed: int = 0) -> AxiomReport:
    """Check the ten bundle axioms plus saturation.

    Axioms 1 and 5 range-check every table entry (on failure the rest is
    not checked); 3, 7 and 8 are identities of the section table over every
    basis tuple (residual: the largest coefficient difference, witness: its
    basis tuple; on a table that is the domain's moved by psi, axiom 3 is
    the domain's, :func:`_associativity_defect`, and axioms 7 and 8 are the
    domain's exact integer identities inv(inv(g)) = g and inv(ab) =
    inv(b) inv(a), :func:`_star_defects`, each scanned on the section
    table when it fails). Axioms 2 and 6 hold by definition, residual 0.0:
    the product and the star of the sections
    (:meth:`~gpdkit.fiberblocks.FiberBlocks.products` and ``stars``) are
    the bilinear and the conjugate-linear extensions of the table, so no
    table can break them. Saturation is a rank condition per composable
    pair. Failures are report entries, never exceptions.

    The norm axioms 4, 9 and 10 and ``norm_consistency`` are certified on
    every element, not sampled, when these hypotheses hold
    (:func:`_norm_hypotheses`): the section table is associative (axiom
    3), the star is involutive (axiom 7), every unit trace form and every
    Gram block is definite, the Gram roots are right
    (:meth:`~gpdkit.fiberblocks.FiberBlocks.gram_defect`) and the section
    representation L is a *-representation
    (:meth:`~gpdkit.algebra.RegularRepresentation.star_defect`). Then L is
    a *-homomorphism, and for every x (Murphy 1990, *C*-algebras and
    Operator Theory*, 2.1 and Thm 3.1.5):

    - axiom 9: ||L_{x* x}|| = ||L_x* L_x|| = ||L_x||^2;
    - axiom 10: the unit block of x* x is (L_x|E_u)* (L_x|E_u) >= 0;
    - ``norm_consistency``: L restricted to the unit fiber A_u acting on
      E_k is a *-homomorphism pi_k of the C*-algebra (A_u, ||pi_u||),
      pi_u being faithful by definiteness and axiom 7, so it is
      contractive and ||L_x||^2 = max_k ||pi_k(x* x)|| = ||pi_u(x* x)||
      = ||x||^2;
    - axiom 4: ||xy|| = ||L_x L_y|| <= ||L_x|| ||L_y|| = ||x|| ||y||.

    Each of the four entries then has the largest hypothesis residual as
    its residual (:func:`~gpdkit.algebra.certificate`), and nothing is
    drawn. Only when a hypothesis fails are the four entries measured, on
    basis rows and on random draws at ``samples`` and ``seed``
    (:func:`_sampled_norm_axioms`).
    """
    rep = AxiomReport()
    H = E.base

    # axioms 1 and 5: products and star land in the fibers they name
    for name, error in zip(("axiom1_fiber_map", "axiom5_star_fiber_map"),
                           E.fiber_map_errors):
        rep.add(name, error is None, 0.0 if error is None else None,
                None if error is None else str(error))
    # every later check reads fiber indices through the tables
    if not rep.passed:
        skipped = "not checked: " + "; ".join(
            e.witness for e in rep.entries if not e.passed)
        for name in _LATER_CHECKS:
            rep.add(name, False, None, skipped)
        return rep

    # axioms 2 and 6: products and star are extended from the table
    rep.add("axiom2_bilinear", True, 0.0)
    rep.add("axiom6_conjugate_linear", True, 0.0)
    involutive, antimultiplicative = _star_defects(E)
    for name, (res, slots), form in (
            ("axiom3_associative", _associativity_defect(E), "(h={} e={})"),
            ("axiom7_involutive", involutive, "(h={}, e={})"),
            ("axiom8_antimultiplicative", antimultiplicative,
             "(h={} e={})")):
        rep.add(name, res <= tol, res,
                _slot_witness(E, slots, form) if res > tol else None)

    # norms require every unit fiber to be an honest C*-algebra
    B = fiber_blocks(E)
    bad = B.degenerate_unit(H.unit_idx)
    if bad is not None:
        degenerate = f"unit fiber over {H.arrows[bad]!r} has degenerate " \
            "trace form"
        for name in ("axiom4_submultiplicative", "axiom9_cstar_identity",
                     "axiom10_positive", "norm_consistency"):
            rep.add(name, False, None, degenerate)
        rep.add("saturation", B.saturation(tol)[0], None, None)
        return rep

    certified, res, _ = algebra.certificate(_norm_hypotheses(E, rep, tol),
                                            tol)
    if not certified:
        _sampled_norm_axioms(E, rep, samples, seed, tol)
        return rep
    for name in ("axiom4_submultiplicative", "axiom10_positive",
                 "axiom9_cstar_identity", "norm_consistency"):
        rep.add(name, True, res)
    sat, wit = B.saturation(tol)
    rep.add("saturation", sat, None, wit)
    return rep


def _associativity_defect(E: FellBundle):
    """Axiom 3 of ``E``: the associativity defect of its section table, or
    the domain's when the section table is the domain's moved
    (:meth:`FellBundle.moved`, kept for psi-check) and the domain's defect
    is 0.0. That one is kept on the domain's table by ``validate_groupoid``
    or ``GroupTable``, and a relabelling keeps every triple's two sides
    apart or equal, so the section table's defect is 0.0 too."""
    T = E.table()
    if E.moved() and E.morphism.domain.table.associativity_defect()[0] == 0.0:
        return E.morphism.domain.table.associativity_defect()
    return T.associativity_defect()


def _star_defects(E: FellBundle) -> tuple:
    """Axioms 7 and 8 of ``E``: the involution and antimultiplicative
    defects of its section table, or (0.0, None) for each that its domain
    satisfies as an exact integer identity when the section table is the
    domain's moved (:meth:`FellBundle.moved`). That table is the domain's
    groupoid table e_g* = e_inv(g), e_a e_b = e_ab with its basis
    relabelled, and a relabelling keeps both defects. Axiom 7 is then
    inv(inv(g)) = g over the arrows, and axiom 8, with axiom 7, is inv(ab)
    = inv(b) inv(a) over the table entries (the composable pairs of inv(b),
    inv(a) are then those of a, b), one gather through ``compose_ids``. A
    failing identity is scanned on the section table, for its residual and
    witness."""
    T = E.table()
    involutive = antimultiplicative = False
    if E.moved():
        G = E.morphism.domain
        inv, D = G.inv_idx, G.table
        involutive = np.array_equal(inv[inv], np.arange(len(inv)))
        antimultiplicative = involutive and np.array_equal(
            G.compose_ids(inv[D.b], inv[D.a]), inv[D.c])
    return ((0.0, None) if involutive else T.involution_defect(),
            (0.0, None) if antimultiplicative
            else T.antimultiplicative_defect())


def _moved(D: StructureTable, T: StructureTable, slots) -> bool:
    """Whether T is D with every basis index i moved to slots[i]: the same
    entries (a, b, c, w) and star entries (s, t, sw), in any order. Each
    side's entries are sorted by their integer key, and the keys and then
    the weights compared."""
    if (T.dim, len(T.a), len(T.s)) != (D.dim, len(D.a), len(D.s)):
        return False
    n = T.dim
    sides = []
    for X, at in ((T, np.arange(n)), (D, slots)):
        key = (at[X.a] * n + at[X.b]) * n + at[X.c]
        star = at[X.s] * n + at[X.t]
        p, q = np.argsort(key), np.argsort(star)
        sides.append((key[p], star[q], X.w[p], X.sw[q]))
    return all(map(np.array_equal, *sides))


def _norm_hypotheses(E: FellBundle, report: AxiomReport, tol: float):
    """(name, residual, witness) of every hypothesis of the norm
    certificate of :func:`verify_axioms`: axioms 3 and 7 cited from
    ``report``, the definite Gram blocks (``definite(section)``, at the
    margin :class:`SectionSpace` requires), the Gram roots
    (``gram(section)``) and the *-representation of the section
    representation (``star_rep(section)``, one join, kept on the
    representation for psi-check). The unit trace forms are definite by
    the time this runs. The list stops after the first three when one of
    them fails: without definite Gram blocks the roots invert only a part,
    and a bundle that fails takes the sampled path anyway."""
    B = fiber_blocks(E)
    margin, h = B.gram_margin()
    hypotheses = report.cite("axiom3_associative", "axiom7_involutive") + [
        ("definite(section)", 0.0 if margin > tol else None,
         f"margin {margin:.3e} over {E.base.arrows[h]!r}"
         if h is not None else None)]
    if not algebra.certificate(hypotheses, tol)[0]:
        return hypotheses
    return hypotheses + [_gram_hypothesis(E), algebra.star_rep_hypothesis(
        "section", B.representation())]


def _sampled_norm_axioms(E: FellBundle, rep: AxiomReport, samples: int,
                         seed: int, tol: float):
    """Add axioms 4, 10 and 9, ``norm_consistency`` and saturation to
    ``rep`` as measured on every basis vector plus ``samples`` random
    elements drawn at ``seed`` across random composable fibers (pairs for
    axiom 4, then single elements for axioms 10 and 9; each group one
    draw of arrows and one of vectors,
    :meth:`~gpdkit.fiberblocks.FiberBlocks.random_rows`). The path of
    :func:`verify_axioms` when a hypothesis of its certificate fails.

    Every norm is the 2-norm of a block of at most fiber size
    (:class:`~gpdkit.fiberblocks.FiberBlocks`), taken by the kernel
    :func:`~gpdkit.algebra.spectral_norms` in stacked calls after all
    random draws:

    - ||x|| = ||x* x||^{1/2}: x* x from the inner-product tensor, then one
      stacked norm (and, for axiom 10, one stacked eigvalsh) of the unit
      fiber blocks per fiber dimension;
    - axiom 4 on basis pairs: the product of e_a and e_b is the sum of
      their table entries, so a product w e_c has norm |w| ||e_c|| and
      only other products take a stacked norm;
    - axiom 9 and ``norm_consistency``: ||L_x|| is the largest block
      ||T_hk L_{x,k} T_k^-1|| over the k with r(k) = s(h), one stacked norm
      of d x d blocks, never a total_dim x total_dim matrix.

    The witnesses name the first arrow (pair) with the largest defect.
    """
    H, B, table = E.base, fiber_blocks(E), E.table()
    # the composable pairs of nonzero fibers
    cp = np.stack(H.pair_ids(), 1)
    cp = cp[(B.dims[cp] > 0).all(1)]
    # random elements, drawn in the order of the checks that read them:
    # pairs for axiom 4, then single elements (over arrows with a nonzero
    # fiber) for axioms 10 and 9; each group takes one draw of arrows and
    # one of vectors
    rng = draws(seed)
    drawn = pick(cp, samples, rng)
    pairs = drawn, B.random_rows(drawn, rng)
    sh = pick(np.arange(B.nA if table.dim else 0), samples, rng)
    live = B.dims[sh] > 0
    sh, sX = sh[live], B.random_rows(sh, rng)[live]

    # every basis vector and every drawn single element: x* x, its norm
    # and its spectrum in one stacked pass
    bh, bX = B.basis_rows()
    hs, X = np.concatenate([bh, sh]), np.concatenate([bX, sX])
    sq = B.square(hs, X)
    norm_sq, neg = B.unit_norms(B.src[hs], sq, spectra=True)
    norms = np.sqrt(norm_sq)

    # axiom 4: ||xy|| <= ||x|| ||y|| on basis pairs, then on the pairs
    res4, pair = _largest(*_submultiplicative_defects(
        E, B, norms[:table.dim], pairs))
    rep.add("axiom4_submultiplicative", res4 <= tol, res4,
            "(h={!r},{!r})".format(*pair) if res4 > tol else None)

    # axiom 10: x* x has nonnegative spectrum in the unit fiber
    arrows = [H.arrows[k] for k in hs]
    res10, h = _largest(neg, arrows)
    rep.add("axiom10_positive", res10 <= tol, res10,
            f"(h={h!r})" if res10 > tol else None)

    # axiom 9 and norm consistency, through the section representation
    try:
        SectionSpace(E, tol=tol)
    except FellBundleError as exc:
        rep.add("axiom9_cstar_identity", False, None, str(exc))
        rep.add("norm_consistency", False, None, str(exc))
        rep.add("saturation", B.saturation(tol)[0], None, None)
        return
    n_op = B.op_norms(hs, X)
    n_sq = B.op_norms(B.src[hs], sq)
    for name, res in (
            ("axiom9_cstar_identity",
             np.abs(n_sq - n_op ** 2) / np.maximum(n_op ** 2, 1e-30)),
            ("norm_consistency",
             np.abs(n_op - norms) / np.maximum(n_op, 1e-30))):
        worst, h = _largest(res, arrows)
        rep.add(name, worst <= tol, worst,
                f"(h={h!r})" if worst > tol else None)

    sat, wit = B.saturation(tol)
    rep.add("saturation", sat, None, wit)


def _largest(values, labels):
    """(max(largest value, 0), label of its first occurrence or None): the
    running maximum of a loop that starts at 0 and keeps the first strict
    improvement."""
    values = np.asarray(values, dtype=float)
    if not len(values) or not values.max() > 0:
        return 0.0, None
    i = int(np.argmax(values))
    return float(values[i]), labels[i]


def _submultiplicative_defects(E, B, basis_norms, pairs):
    """(rel, (h1, h2) per trial) with rel = (||xy|| - ||x|| ||y||) /
    ||x|| ||y|| over every basis pair of the composable pairs of arrows,
    by (h2, h1), then by the two basis indices, and then over the drawn
    ``pairs``: (k, 2) arrow indices and the (k, 2, D) rows of x and y over
    them.

    The product of e_a and e_b is the sum of the table entries (a, b, c,
    w). When it is one basis vector w e_c its norm is |w| ||e_c||; other
    products, and the drawn pairs, take the stacked norms. Basis pairs
    without a table entry have product 0 and rel <= 0, which never sets
    the maximum, so they are left out.
    """
    H, T, n = E.base, B.table, B.table.dim
    key, inv = np.unique((T.a * n + T.b) * n + T.c, return_inverse=True)
    w = _scatter(inv.reshape(-1), T.w, len(key))
    ab, start, count = np.unique(key // n, return_index=True,
                                 return_counts=True)
    c = key % n
    prod = np.abs(w[start]) * basis_norms[c[start]]
    multi = count > 1
    if multi.any():
        row = (np.cumsum(multi) - 1)[np.repeat(np.arange(len(ab)), count)]
        e = multi[np.repeat(np.arange(len(ab)), count)]
        Z = _scatter(row[e] * B.D + B.loc[c[e]], w[e],
                     int(multi.sum()) * B.D).reshape(-1, B.D)
        prod[multi] = B.fiber_norms(B.arrow[c[start[multi]]], Z)[0]
    a, b = ab // n, ab % n
    ha, hb = B.arrow[a], B.arrow[b]
    order = np.lexsort((B.loc[b], B.loc[a], ha, hb))  # the trial order
    nn = basis_norms[a] * basis_norms[b]
    rel = [((prod - nn) / np.maximum(nn, 1e-30))[order]]
    labels = [(H.arrows[p], H.arrows[q]) for p, q in zip(ha[order], hb[order])]
    (h1, h2), (X, Y) = pairs[0].T, np.moveaxis(pairs[1], 1, 0)
    if len(h1):
        h12, Z = B.products(h1, X, h2, Y)
        nx, ny, nxy = np.split(B.fiber_norms(
            np.concatenate([h1, h2, h12]), np.concatenate([X, Y, Z]))[0], 3)
        rel.append((nxy - nx * ny) / np.maximum(nx * ny, 1e-30))
        labels += [(H.arrows[p], H.arrows[q]) for p, q in zip(h1, h2)]
    return np.concatenate(rel), labels


def _slot_witness(E: FellBundle, slots, form: str) -> str:
    """``form`` filled with the base arrows of the section basis slots and
    the indices of the slots in their fibers, each comma separated."""
    hs = E.base.names(E.arrow[list(slots)])
    indices = (s - E.first[h] for s, h in zip(slots, hs))
    return form.format(",".join(map(repr, hs)), ",".join(map(str, indices)))


class Section:
    """A choice of fiber element over every base arrow, stored flat."""

    __slots__ = ("bundle", "vec")

    def __init__(self, bundle: FellBundle, vec):
        self.bundle = bundle
        self.vec = np.asarray(vec, dtype=complex)
        if self.vec.shape != (bundle.total_dim(),):
            raise ValueError("section vector does not match total fiber size")

    def __add__(self, other):
        return Section(self.bundle, self.vec + other.vec)

    def __sub__(self, other):
        return Section(self.bundle, self.vec - other.vec)

    def __rmul__(self, scalar):
        return Section(self.bundle, complex(scalar) * self.vec)


class SectionSpace:
    """The Hilbert space carrying the left regular representation of the
    section algebra: one summand per base unit u, spanned by the fibers
    over the arrows with source u, with inner product
    <xi, eta> = tau(xi* eta) in the unit fiber.

    The inner product is block diagonal per arrow: its blocks are the Gram
    matrices G_h[i, j] = tau(e_i* e_j), read from the inner-product tensor
    of the table and diagonalized by one batched eigh per fiber dimension
    (:class:`~gpdkit.fiberblocks.FiberBlocks`); no total_dim x total_dim
    Gram matrix is formed. Coordinates are orthonormalized with the block
    square roots T_h = G_h^{1/2}, so adjoints of represented operators are
    conjugate transposes. The inner product counts as definite when the
    Gram margin (:meth:`~gpdkit.fiberblocks.FiberBlocks.gram_margin`)
    exceeds ``tol``. ``rep`` is the :class:`~gpdkit.algebra.
    RegularRepresentation` of the section table's entries in these
    coordinates, one per bundle
    (:meth:`~gpdkit.fiberblocks.FiberBlocks.representation`).
    """

    def __init__(self, E: FellBundle, tol: float = 1e-9):
        self.bundle = E
        B = fiber_blocks(E)
        if not B.gram_margin()[0] > tol:
            raise FellBundleError("section inner product is degenerate; "
                                  "the bundle is not a Fell bundle")
        self.rep = B.representation()

    def op_norm(self, section: Section) -> float:
        """The operator norm of left multiplication by ``section``: the
        largest block of ``rep`` over the source-unit summands."""
        return self.rep.norm(section.vec)


class SectionAlgebra:
    """The *-algebra of sections with its operator norm; the conditional
    expectation onto the unit fibers is :meth:`expectation`."""

    def __init__(self, E: FellBundle, report: Optional[AxiomReport] = None,
                 tol: float = 1e-9, samples: int = 60, seed: int = 0):
        if report is None:
            report = verify_axioms(E, tol=tol, samples=samples, seed=seed)
        if not report.axioms_pass:
            failing = [e.name for e in report.entries
                       if e.name.startswith("axiom") and not e.passed]
            raise BundleNotVerified(
                f"bundle failed verification: {', '.join(failing)}")
        self.bundle = E
        self.report = report
        self.space = SectionSpace(E, tol=tol)

    def zero(self) -> Section:
        return Section(self.bundle, np.zeros(self.bundle.total_dim()))

    def basis_section(self, h, i) -> Section:
        E = self.bundle
        vec = np.zeros(E.total_dim(), dtype=complex)
        vec[E.first[h]:E.first[h] + E.dim(h)][i] = 1.0  # i stays in its fiber
        return Section(E, vec)

    def random_section(self, rng) -> Section:
        n = self.bundle.total_dim()
        return Section(self.bundle,
                       rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def get_fiber(self, section: Section, h) -> FiberElement:
        base = self.bundle.first[h]
        return FiberElement(self.bundle, h,
                            section.vec[base:base + self.bundle.dim(h)])

    def product(self, s1: Section, s2: Section) -> Section:
        return Section(self.bundle, self.bundle.table().mul(s1.vec, s2.vec))

    def star(self, s: Section) -> Section:
        return Section(self.bundle, self.bundle.table().star(s.vec))

    def expectation(self, s: Section) -> Section:
        """Restriction to the unit fibers; a faithful positive conditional
        expectation onto the diagonal algebra."""
        B = fiber_blocks(self.bundle)
        return Section(self.bundle, np.where(B.is_unit[B.arrow], s.vec, 0.0))

    def norm(self, s: Section) -> float:
        return self.space.op_norm(s)

    def wedderburn(self, tol: float = 1e-9):
        """Block sizes of the section table; of the domain's, whose solve
        is kept on it, when the section table is that one moved."""
        E = self.bundle
        return wedderburn_from_tables(
            E.morphism.domain.table if E.moved() else E.table(), tol=tol)


def section_algebra(E: FellBundle, report: Optional[AxiomReport] = None,
                    tol: float = 1e-9, samples: int = 60,
                    seed: int = 0) -> SectionAlgebra:
    """Product, involution, expectation and operator norm of the sections
    of a verified bundle; raises BundleNotVerified otherwise. Without a
    ``report``, the bundle is verified at ``samples`` and ``seed``."""
    return SectionAlgebra(E, report=report, tol=tol, samples=samples,
                          seed=seed)


def psi(E: FellBundle, f: AlgebraElement) -> Section:
    """Restriction map from functions on the domain groupoid to sections:
    the fiber over h receives the coefficients on the preimage of h.
    Only defined for bundles built from a morphism."""
    if E.psi_slots is None:
        raise FellBundleError("bundle was not built from a morphism")
    out = np.zeros(E.total_dim(), dtype=complex)
    out[E.psi_slots] = f.coeffs
    return Section(E, out)


@dataclass
class IsoReport(CheckList):
    blocks_domain: Optional[tuple] = None
    blocks_bundle: Optional[tuple] = None


def psi_iso_check(pi: GroupoidMorphism, tol: float = 1e-9, seed: int = 0,
                  bundle: Optional[FellBundle] = None,
                  axiom_report: Optional[AxiomReport] = None,
                  samples: int = 60) -> IsoReport:
    """Certify that the restriction map is an isometric *-isomorphism from
    the convolution algebra of the domain onto the section algebra.

    The bundle is admitted by ``axiom_report``, or else by
    :func:`verify_axioms` at ``samples`` and ``seed``. Linearity and
    bijectivity are exact (the matrix U of the map is a permutation,
    ``E.psi_slots``). When the section table is the domain's moved by it
    (:meth:`FellBundle.moved`), U carries every entry of one table onto
    the other: multiplicativity and the star property hold exactly
    (residual 0.0), and the section blocks are the domain's. Otherwise
    they are the defects of U between the two tables
    (:func:`~gpdkit.algebra.map_defects`), associative by the domain's
    kept defect and by axiom 3 of the admission. The Hilbert-module check
    compares the expectation of psi(e_g1)* psi(e_g2) with psi of the
    kernel part of e_g1* e_g2 over every pair of arrows with one range, as
    one defect of the two tables (:func:`_hilbert_module_defect`), and
    names the pair when it fails.
    ``isometric`` is certified over every element, not sampled
    (:func:`~gpdkit.algebra.isometry_certificate`; Murphy 1990, Thm
    3.1.5): U is bijective and a *-homomorphism by the checks above, the
    domain's table is associative (``validate_groupoid``), the section
    table by axiom 3 of the verified bundle, and the regular
    representation of the domain and the section representation are
    faithful *-representations, the latter in coordinates that are
    orthonormal for the section inner product (:func:`_section_hypotheses`).
    Block invariants of both algebras are compared as multisets.
    """
    G = pi.domain
    E = bundle if bundle is not None else build_bundle(pi)
    sa = section_algebra(E, report=axiom_report, tol=tol, samples=samples,
                         seed=seed)
    report = IsoReport()

    # bijectivity: as many slots as arrows of G, each hit by one
    n, slots = len(G.arrows), E.psi_slots
    perm_ok = E.total_dim() == n and bool(
        np.bincount(slots[slots >= 0], minlength=n).all())
    not_perm = "restriction map is not a permutation"
    report.add("linear_bijection", perm_ok, 0.0 if perm_ok else None,
               None if perm_ok else not_perm)

    if not perm_ok or E.moved():  # moved: U carries D onto E.table()
        for name in ("multiplicative", "star_preserving"):
            report.add(name, perm_ok, 0.0 if perm_ok else None,
                       None if perm_ok else not_perm)
    else:
        U = np.zeros((E.total_dim(), len(G.arrows)))
        U[E.psi_slots, np.arange(len(G.arrows))] = 1.0
        mul, star = algebra.map_defects(
            G.table, E.table(), U, G.arrows,
            [("associative(domain)", G.table.associativity_defect()[0],
              None), *sa.report.cite("axiom3_associative")], tol)
        report.add("multiplicative", *mul)
        report.add("star_preserving", *star)

    if perm_ok:
        res_mod, pair = _hilbert_module_defect(pi, E)
        report.add("hilbert_module_match", res_mod <= tol, res_mod,
                   None if res_mod <= tol else
                   f"({G.arrows[pair[0]]!r}, {G.arrows[pair[1]]!r})")
    else:
        report.add("hilbert_module_match", False, None, not_perm)

    report.add("isometric", *algebra.isometry_certificate(
        report.cite("linear_bijection", "multiplicative", "star_preserving")
        + _section_hypotheses(sa),
        [("domain", algebra._regular(G)), ("section", sa.space.rep)], tol))

    report.blocks_domain, report.blocks_bundle = report.add_wedderburn_equal(
        lambda: wedderburn(G, tol=tol), lambda: sa.wedderburn(tol=tol))
    return report


def _section_hypotheses(sa: SectionAlgebra) -> list:
    """(name, residual, witness) of what the isometry certificate needs of
    the section representation of ``sa`` besides its own checks: the
    associativity of the section table, cited from axiom 3 of the report
    that admitted ``sa``, and the Gram roots of its coordinates."""
    return sa.report.cite("axiom3_associative") + [
        _gram_hypothesis(sa.bundle)]


def expectation_certificate(E: FellBundle, tol: float):
    """(passed, residual, witness) of the claim ||P(s)|| <= ||s|| for every
    section s of ``E``, where P keeps the unit-fiber slots and the norm is
    the operator norm of the section representation L
    (:meth:`~gpdkit.fiberblocks.FiberBlocks.representation`).

    Left multiplication maps E_k into E_hk (Kumjian 1998, *Fell bundles
    over groupoids*), so the block of L_s from the fiber over k to that
    over k comes from s(r(k)) alone. Hence L_P(s) = sum_k Q_k L_s Q_k, a
    pinching by the coordinate projections Q_k onto the fibers, and
    ||L_P(s)|| <= ||L_s|| for every s. The hypothesis, ``graded(section)``,
    is that every entry (a, row, col) of L with row and col in one summand
    carries the fiber over over[col] to the fiber over compose(over[a],
    over[col]): one exact gather, residual 0.0, or decided false with the
    first entry that does not as witness (:func:`~gpdkit.algebra.
    certificate`)."""
    rep = fiber_blocks(E).representation()
    a, rows, cols, _ = rep.entries
    over = rep.over
    bad = np.flatnonzero(
        (rep.summand[rows] == rep.summand[cols])
        & (E.base.compose_ids(over[a], over[cols]) != over[rows]))
    witness = None if not len(bad) else (
        f"{rep.describe(a[bad[0]])} at row {rep.describe(rows[bad[0]])}, "
        f"col {rep.describe(cols[bad[0]])}")
    return algebra.certificate([("graded(section)",
                                 None if len(bad) else 0.0, witness)], tol)


def _gram_hypothesis(E: FellBundle) -> tuple:
    """("gram(section)", residual, witness) of
    :meth:`~gpdkit.fiberblocks.FiberBlocks.gram_defect`, taken once per
    bundle: the roots of the Gram blocks are orthonormal coordinates."""
    res, h = fiber_blocks(E).gram_defect()
    return ("gram(section)", res,
            None if h is None else f"(h={E.base.arrows[h]!r})")


def _hilbert_module_defect(pi: GroupoidMorphism, E: FellBundle):
    """(largest |coefficient difference| between the unit-fiber part of
    psi(e_g1)* psi(e_g2) and psi of the kernel part of e_g1* e_g2, over
    the pairs of domain arrows with one range, (g1, g2) of that entry or
    None), for a permutation psi. The section side is the B-valued
    inner-product tensor (:meth:`~gpdkit.fiberblocks.FiberBlocks.inner`;
    e_x* e_y lies on a unit fiber exactly when x and y lie over one
    arrow), the domain side a join of star entries with product entries;
    pairs whose ranges differ carry no content, since both sides then
    vanish structurally."""
    G, H = pi.domain, pi.codomain
    rng, slots = G.rng_idx, E.psi_slots
    B = fiber_blocks(E)
    # section side: the domain arrows at the slots of e_x* e_y, over h
    h, i, j, m, w, _ = B.inner("B")
    dom = np.argsort(slots)  # psi is a permutation
    g1, g2 = dom[B.first[h] + i], dom[B.first[h] + j]
    keep = rng[g1] == rng[g2]
    lhs = (g1[keep], g2[keep], B.first[B.src[h]][keep] + m[keep], w[keep])
    # domain side: star entry j of e_g1, then product entry m of its
    # output with e_g2 (composable, so the ranges agree), kept where the
    # product is in the kernel
    D = G.table
    in_kernel = H.unit_mask()[pi.image]
    j, m = G.row_entries(D.t)
    keep = in_kernel[D.c[m]]
    j, m = j[keep], m[keep]
    rhs = (D.s[j], D.b[m], slots[D.c[m]], D.sw[j] * D.w[m])
    return _defect(lhs, rhs, max(B.table.dim, D.dim))


def bisection_bimodule_check(E: FellBundle, cover, tol: float = 1e-9,
                             samples: int = 50, seed: int = 0,
                             axiom_report: Optional[AxiomReport] = None
                             ) -> list:
    """Equivalence-bimodule checks over each bisection U of ``cover``
    (bisections, or arrow lists checked by :func:`~gpdkit.groupoid.
    check_bisection`): one CheckList per U, from one pass over the arrows.

    Over h in U, <xi, eta>_B = xi* eta lies over src(h), <xi, eta>_A =
    xi eta* over rng(h). Fullness is one stacked rank per arrow of the
    inner-product tensor (:meth:`~gpdkit.fiberblocks.FiberBlocks.inner`);
    imprimitivity, (x y*) z = x (y* z) on the basis triples over one
    arrow, joins that tensor with the products by z and by x, summed per
    chunk of arrows of about 2^14 terms, which bounds the memory (an arrow
    with more is a chunk of its own, :func:`~gpdkit.algebra.chunks`). A
    bisection takes the largest residual of its arrows, witness (h=...,
    e=i,j,k) at the first of them, in its order, that reaches it and at
    that arrow's first triple; fullness names its first short arrow.
    Positivity is certified when ``axiom_report`` and its norm certificate
    (:func:`_norm_hypotheses`) hold, xi* xi and xi xi* = (xi*)* xi* being
    instances of axiom 10 (axioms 5 and 7); else each bisection measures
    both sides at samples // len(U) random xi per arrow, drawn at ``seed``.
    """
    cover = [check_bisection(E.base, U) for U in cover]
    B = fiber_blocks(E)
    sat, wit = B.saturation(tol)
    if not sat:
        raise NotSaturated(f"bundle is not saturated: {wit}", witness=wit)
    T, D, d, nA = B.table, max(B.D, 1), B.dims, B.nA
    ids = [_ids(U.arrows, B.index) for U in cover]
    # the first degenerate unit fiber in the order xi reaches them
    _require_cstar_units(B, [u for a in ids for h in a[d[a] > 0]
                             for u in (B.src[h], B.rng[h])])
    certified, res, _ = (False, None, None) if axiom_report is None \
        else algebra.certificate(_norm_hypotheses(E, axiom_report, tol), tol)

    # imprimitivity: each inner-product entry over h, by arrow, joined with
    # the products that take its term at ``by`` and a factor over h
    ranks, sides, load = {}, [], 0
    for side, end, by, other in (("A", B.rng, T.a, T.b),
                                 ("B", B.src, T.b, T.a)):
        h, i, j, m, w, runs = B.inner(side)
        ranks[side] = stacked_ranks(h, i * d[h] + j, m, w, (d * d, d[end]),
                                    tol)
        p = np.flatnonzero(B.is_unit[B.arrow[by]])
        key = by[p] * nA + B.arrow[other[p]]
        s = np.argsort(key, kind="stable")
        p, key, want = p[s], key[s], (B.first[end[h]] + m) * nA + h
        lo, hi = (np.searchsorted(key, want, at) for at in ("left", "right"))
        load = load + np.bincount(h, hi - lo, nA)
        sides.append((side, h, i, j, w, lo, hi - lo, p, other, runs))
    top, best = np.zeros(nA), np.zeros(nA, np.int64)
    for chunk in algebra.chunks(load):
        terms = []
        for side, h, i, j, w, lo, count, p, other, (first, n) in sides:
            s = _runs(first[chunk], n[chunk])[1]  # the entries over chunk
            e, q = _runs(lo[s], count[s], p)
            x, y, z = i[s][e], j[s][e], B.loc[other[q]]
            terms.append((h[s][e] - chunk[0],
                          *((x, y, z) if side == "A" else (z, x, y)),
                          B.loc[T.c[q]], w[s][e] * T.w[q]))
        # each arrow's largest entry, and the first key that reaches it
        keys, sums = algebra._term_sums(*terms, (len(chunk),) + (D,) * 4)
        o = chunk[0] + keys // D ** 4
        np.maximum.at(top, o, sums)
        hit = np.flatnonzero(sums == top[o])
        hit = hit[np.diff(o[hit], prepend=-1) != 0]
        best[o[hit]] = keys[hit] % D ** 4

    reports = []
    for U, a in zip(cover, ids):
        if not certified:
            h = np.repeat(a[d[a] > 0], max(1, samples // max(len(a), 1)))
            X = B.random_rows(h, draws(seed))
            res = max(float(B.unit_norms(target, B.square(h, X, side),
                                         spectra=True)[1].max(initial=0.0))
                      for side, target in (("B", B.src[h]), ("A", B.rng[h])))
        reports.append(CheckList())
        reports[-1].add("inner_products_positive", res <= tol, res)
        for side, end in (("B", B.src), ("A", B.rng)):
            r, dt = ranks[side][a], d[end[a]]
            wit = [f"inner products over {U.arrows[k]!r} span rank {r[k]} "
                   f"< {dt[k]}" for k in np.flatnonzero(r < dt)[:1]]
            reports[-1].add(f"fullness_{side}", not wit, None, *wit)
        worst, wit = float(top[a].max(initial=0.0)), None
        if worst > tol:
            h = a[np.argmax(top[a])]
            wit = "(h={!r}, e={},{},{})".format(
                E.base.arrows[h], *np.unravel_index(best[h], (D,) * 4)[:3])
        reports[-1].add("imprimitivity", worst <= tol, worst, wit)
    return reports
