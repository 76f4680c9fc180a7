import tracemalloc

import numpy as np
import pytest

import gpdkit as gk
import gpdkit.algebra as galgebra
import gpdkit.io as gio
from gpdkit import corpus
from gpdkit.algebra import AlgebraElement, _regular, random_element
from gpdkit.bundle import (FiberElement, Section, SectionAlgebra,
                          _hilbert_module_defect, kernel_decomposition_report)
from gpdkit.fiberblocks import fiber_blocks
from oracles import (DenseSectionSpace, DenseUnitFiber, bundle_from,
                     dense_bimodule_check, dense_map_defects,
                     dense_saturation_detail, dense_table_residuals,
                     dense_verify_axioms, element_norm, fiber_adjoint,
                     fiber_product, hilbert_module_residuals, random_action,
                     random_cocycle, rebased, sandwich_blocks, slot_arrows,
                     table_arrays)


def _place(E, g):
    """(base arrow, index in its fiber) of the basis vector labelled g."""
    return next((h, basis.index(g)) for h, basis in E.fibers.items()
                if g in basis)


@pytest.fixture(scope="module")
def heis3_bundle(heis3_quotient):
    return gk.build_bundle(heis3_quotient)


@pytest.fixture(scope="module")
def flip_bundle(flip_groupoid):
    return gk.build_bundle(flip_groupoid.projection)


class TestConstruction:
    def test_fibers_are_preimages(self, heis3_quotient, heis3_bundle):
        E = heis3_bundle
        pi = heis3_quotient
        for h in E.base.arrows:
            assert set(E.fibers[h]) == {g for g in pi.domain.arrows
                                        if pi.map[g] == h}
            assert E.dim(h) == 3
        assert E.total_dim() == len(pi.domain.arrows)

    def test_identity_morphism_gives_line_bundle(self, pair2):
        E = gk.build_bundle(corpus.identity_morphism(pair2))
        assert all(E.dim(h) == 1 for h in E.base.arrows)

    def test_flip_unit_fibers_are_point_functions(self, flip_bundle):
        E = flip_bundle
        for u in E.base.units:
            assert E.dim(u) == 2
            # diagonal algebra: e_i e_j = [i == j] e_i
            for i in range(2):
                for j in range(2):
                    expected = np.zeros(2)
                    if i == j:
                        expected[i] = 1.0
                    got = gk.fiber_mul(FiberElement.basis(E, u, i),
                                       FiberElement.basis(E, u, j))
                    assert np.allclose(got.vec, expected)

    def test_rejects_non_surjective(self, z3):
        pi = gk.GroupoidMorphism(z3, z3, {g: "g0" for g in z3.arrows})
        with pytest.raises(gk.NotSurjective):
            gk.build_bundle(pi)

    def test_kernel_direct_sum_report(self, heis3_quotient):
        rep = kernel_decomposition_report(heis3_quotient, untwisted=True)
        assert rep["dimension_check"]
        assert rep["direct_sum_check"]
        assert rep["kernel_blocks"] == [1, 1, 1]


class TestFiberOps:
    def test_basis_products_match_group_table(self, heis3_quotient,
                                              heis3_bundle):
        # oracle: the group multiplication table
        E = heis3_bundle
        G = heis3_quotient.domain
        for (g1, g2), g12 in G.comp.items():
            h1, i = _place(E, g1)
            h2, j = _place(E, g2)
            out = gk.fiber_mul(FiberElement.basis(E, h1, i),
                               FiberElement.basis(E, h2, j))
            h12, k = _place(E, g12)
            assert out.arrow == h12
            expected = np.zeros(E.dim(h12))
            expected[k] = 1.0
            assert np.allclose(out.vec, expected)

    def test_unit_fiber_identity_acts_trivially(self, heis3_quotient,
                                                heis3_bundle):
        E = heis3_bundle
        rng = np.random.default_rng(0)
        for h in E.base.arrows:
            u = E.base.src[h]
            # the identity of the unit fiber: the domain units over u
            ident = np.array([float(g in heis3_quotient.domain.units)
                              for g in E.fibers[u]])
            xi = FiberElement(E, h, rng.standard_normal(E.dim(h))
                              + 1j * rng.standard_normal(E.dim(h)))
            out = gk.fiber_mul(xi, FiberElement(E, u, ident))
            assert np.allclose(out.vec, xi.vec)

    def test_star_antimultiplicative_random(self, heis3_bundle):
        E = heis3_bundle
        rng = np.random.default_rng(1)
        arrows = list(E.base.arrows)
        for _ in range(25):
            h1 = arrows[rng.integers(len(arrows))]
            h2s = [h for h in arrows if E.base.composable(h1, h)]
            h2 = h2s[rng.integers(len(h2s))]
            x = FiberElement(E, h1, rng.standard_normal(3)
                             + 1j * rng.standard_normal(3))
            y = FiberElement(E, h2, rng.standard_normal(3)
                             + 1j * rng.standard_normal(3))
            lhs = gk.fiber_star(gk.fiber_mul(x, y))
            rhs = gk.fiber_mul(gk.fiber_star(y), gk.fiber_star(x))
            assert np.allclose(lhs.vec, rhs.vec, atol=1e-12)

    def test_not_composable_raises(self, pair2):
        E = gk.build_bundle(corpus.identity_morphism(pair2))
        # two distinct units are never composable
        u1, u2 = E.base.units[0], E.base.units[1]
        with pytest.raises(gk.NotComposable):
            gk.fiber_mul(FiberElement.basis(E, u1, 0),
                         FiberElement.basis(E, u2, 0))

    def test_basis_norms_are_one(self, heis3_bundle):
        E = heis3_bundle
        for h in E.base.arrows:
            for i in range(E.dim(h)):
                assert gk.fiber_norm(FiberElement.basis(E, h, i)) == \
                    pytest.approx(1.0, abs=1e-12)

    def test_fiber_cstar_identity_random(self, heis3_bundle):
        E = heis3_bundle
        rng = np.random.default_rng(2)
        for h in E.base.arrows:
            for _ in range(100):
                xi = FiberElement(E, h, rng.standard_normal(3)
                                  + 1j * rng.standard_normal(3))
                n = gk.fiber_norm(xi)
                sq = gk.fiber_norm(gk.fiber_mul(gk.fiber_star(xi), xi))
                assert abs(sq - n * n) <= 1e-9 * max(n * n, 1.0)

    def test_zero_norm(self, heis3_bundle):
        E = heis3_bundle
        h = E.base.arrows[0]
        assert gk.fiber_norm(FiberElement(E, h, np.zeros(3))) == 0.0

    def test_fiber_norm_matches_expectation_module_norm(
            self, heis3_quotient, heis3_bundle):
        # module route: embed xi at h as a function on the domain
        # groupoid, form f* f by plain convolution, restrict to the
        # kernel (the expectation), and take the kernel C*-norm; must
        # equal the square of the table-driven fiber norm
        E = heis3_bundle
        pi = heis3_quotient
        G = pi.domain
        K = gk.kernel(pi).groupoid
        rng = np.random.default_rng(13)
        for h in E.base.arrows:
            for _ in range(5):
                vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                xi = FiberElement(E, h, vec)
                f = gk.AlgebraElement.from_dict(
                    G, {g: vec[i] for i, g in enumerate(E.fibers[h])})
                sq = gk.conditional_expectation(
                    G, K, gk.convolve(gk.involute(f), f))
                module_norm = np.sqrt(gk.cstar_norm(K, sq))
                assert gk.fiber_norm(xi) == pytest.approx(module_norm,
                                                          rel=1e-10)

    def test_unit_fiber_norm_matches_kernel_fiber_algebra(
            self, heis3_quotient, heis3_bundle):
        # third route: the unit fiber over x is the convolution algebra
        # of the kernel fiber groupoid, whose regular-representation norm
        # must agree with the trace-form fiber norm
        from gpdkit.groupoid import fiber_subgroupoid
        E = heis3_bundle
        B = fiber_blocks(E)
        rng = np.random.default_rng(12)
        for x in E.base.units:
            Kx = fiber_subgroupoid(heis3_quotient, x)
            assert tuple(Kx.arrows) == E.fibers[x]
            draws = rng.standard_normal((20, 2, 3))
            X = draws[:, 0] + 1j * draws[:, 1]
            norms, _ = B.unit_norms(np.full(20, B.index[x]), X)
            assert norms == pytest.approx(_regular(Kx).norms(X), rel=1e-10)


class TestAxioms:
    def test_heis3_all_pass_saturated(self, heis3_bundle):
        rep = gk.verify_axioms(heis3_bundle, samples=100)
        assert rep.axioms_pass
        assert rep.saturated
        for e in rep.entries:
            if e.residual is not None:
                assert e.residual < 1e-9, e.name

    def test_flip_all_pass_abelian(self, flip_bundle):
        rep = gk.verify_axioms(flip_bundle, samples=100)
        assert rep.axioms_pass and rep.saturated
        assert flip_bundle.is_abelian()

    def test_broken_star_fails_axiom7_with_witness(self, flip_bundle):
        broken = _doubled_unit_star(flip_bundle)  # no longer involutive
        rep = gk.verify_axioms(broken, samples=20)
        entry = rep.entry("axiom7_involutive")
        assert not entry.passed
        assert entry.witness is not None
        assert not rep.axioms_pass

    def test_nonsaturated_surjection_detected(self):
        pi = corpus.nonsaturated_surjection()
        E = gk.build_bundle(pi)
        rep = gk.verify_axioms(E, samples=30)
        assert rep.axioms_pass     # it is a genuine bundle
        assert not rep.saturated   # but products do not span

    def test_zero_product_weight_is_not_saturated(self):
        # beyond nonsaturated_surjection: a saturated twisted line bundle
        # with the product of one pair of non-units (not onto a unit) set
        # to 0, so that pair spans nothing
        rng = np.random.default_rng(5)
        G = gk.build_action_groupoid(random_action(rng)).groupoid
        E = gk.line_bundle(G, random_cocycle(G, rng))
        assert gk.verify_axioms(E, samples=5).saturated
        g1, g2 = next((g1, g2) for (g1, g2), g in G.comp.items()
                      if not (G.is_unit(g1) or G.is_unit(g2)
                              or G.is_unit(g)))
        arrays = table_arrays(E)
        arrays["w"][(arrays["a"] == E.first[g1])
                    & (arrays["b"] == E.first[g2])] = 0.0
        broken = bundle_from(E, arrays)
        entry = gk.verify_axioms(broken, samples=5).entry("saturation")
        assert not entry.passed
        assert entry.witness == f"span E_{g1!r} * E_{g2!r} has rank 0 < 1"
        with pytest.raises(gk.NotSaturated) as exc:
            gk.abelian_extract(broken)
        assert exc.value.witness == entry.witness

    def test_line_bundle_of_cocycle(self, z3):
        om = corpus.zn2_bilinear_cocycle(2)
        L = gk.line_bundle(om.base, om)
        rep = gk.verify_axioms(L, samples=30)
        assert rep.axioms_pass and rep.saturated
        assert all(L.dim(h) == 1 for h in L.base.arrows)

    @pytest.mark.parametrize("build", [
        lambda G, w: gk.line_bundle(G, w),
        lambda G, w: gk.build_bundle(corpus.identity_morphism(G), w)])
    def test_plain_mapping_twist_is_checked_as_a_cocycle(self, z3, build):
        # a mapping that misses a composable pair names it, as a Cocycle
        # does, rather than ending in a KeyError of the table build
        weights = dict.fromkeys(z3.composable_pairs(), 1.0)
        assert build(z3, dict(weights)).table().w.tolist() == [1.0] * 9
        del weights[("g1", "g2")]
        with pytest.raises(gk.CocycleIdentityFailure) as exc:
            build(z3, weights)
        assert exc.value.witness == ("g1", "g2")
        assert "('g1', 'g2')" in str(exc.value)


def _doubled_unit_star(E):
    """E with e_0* = 2 e_0 in the first unit fiber."""
    arrays = table_arrays(E)
    slot = E.first[E.base.units[0]]
    arrays["t"][arrays["s"] == slot] = slot
    arrays["sw"][arrays["s"] == slot] = 2.0
    return bundle_from(E, arrays)


class TestSectionAlgebra:
    def test_requires_verified_bundle(self, flip_bundle):
        broken = _doubled_unit_star(flip_bundle)
        with pytest.raises(gk.BundleNotVerified):
            gk.section_algebra(broken)

    def test_identity_bundle_norm_matches_groupoid_norm(self, pair2):
        E = gk.build_bundle(corpus.identity_morphism(pair2))
        sa = gk.section_algebra(E)
        rng = np.random.default_rng(3)
        for _ in range(25):
            f = random_element(pair2, rng)
            assert sa.norm(gk.psi(E, f)) == \
                pytest.approx(gk.cstar_norm(pair2, f), rel=1e-10)

    def test_expectation_contractive(self, heis3_bundle):
        sa = gk.section_algebra(heis3_bundle)
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = sa.random_section(rng)
            assert sa.norm(sa.expectation(s)) <= sa.norm(s) + 1e-9

    def test_expectation_positive(self, heis3_bundle):
        # P(s* s) has nonnegative spectrum in every unit fiber
        sa = gk.section_algebra(heis3_bundle)
        E = heis3_bundle
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = sa.random_section(rng)
            p = sa.expectation(sa.product(sa.star(s), s))
            for u in E.base.units:
                spec = DenseUnitFiber(E, u).herm_spectrum(
                    sa.get_fiber(p, u).vec)
                assert spec.size == 0 or spec[0] >= -1e-9 * max(spec[-1], 1.0)

    def test_expectation_faithful_on_basis(self, heis3_bundle):
        # P(s* s) vanishes only at s = 0: exhaustively over basis
        # sections, the unit coefficient of s* s is a positive element
        sa = gk.section_algebra(heis3_bundle)
        E = heis3_bundle
        for h in E.base.arrows:
            for i in range(E.dim(h)):
                s = sa.basis_section(h, i)
                p = sa.expectation(sa.product(sa.star(s), s))
                assert sa.norm(p) > 0.5

    def test_product_matches_convolution_through_psi(self, heis3_quotient,
                                                     heis3_bundle):
        sa = gk.section_algebra(heis3_bundle)
        G = heis3_quotient.domain
        rng = np.random.default_rng(5)
        f1, f2 = random_element(G, rng), random_element(G, rng)
        lhs = sa.product(gk.psi(heis3_bundle, f1), gk.psi(heis3_bundle, f2))
        rhs = gk.psi(heis3_bundle, gk.convolve(f1, f2))
        assert np.allclose(lhs.vec, rhs.vec, atol=1e-10)


class TestPsiIso:
    def test_heis3(self, heis3_quotient, heis3_bundle):
        rep = gk.verify_axioms(heis3_bundle, samples=60)
        iso = gk.psi_iso_check(heis3_quotient,
                               bundle=heis3_bundle, axiom_report=rep)
        assert iso.passed
        assert iso.blocks_domain == iso.blocks_bundle == \
            (3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1)

    def test_flip_covering_gives_m2(self, flip_groupoid):
        iso = gk.psi_iso_check(flip_groupoid.projection)
        assert iso.passed
        assert iso.blocks_domain == iso.blocks_bundle == (2,)

    def test_identity_is_identity(self, pair2):
        iso = gk.psi_iso_check(corpus.identity_morphism(pair2))
        assert iso.passed
        # psi maps deltas to single-slot sections: a permutation
        E = gk.build_bundle(corpus.identity_morphism(pair2))
        for g in pair2.arrows:
            s = gk.psi(E, AlgebraElement.delta(pair2, g))
            assert np.count_nonzero(s.vec) == 1

    def test_psi_matrix_is_permutation(self, heis3_quotient, heis3_bundle):
        G = heis3_quotient.domain
        cols = []
        for g in G.arrows:
            cols.append(gk.psi(heis3_bundle,
                               AlgebraElement.delta(G, g)).vec)
        M = np.stack(cols)
        assert np.array_equal(np.abs(M), M.real)
        assert np.all(M.sum(axis=0) == 1.0)
        assert np.all(M.sum(axis=1) == 1.0)
        assert np.count_nonzero(M) == len(G.arrows)


class TestPsiNegativeControls:
    """One changed table entry fails exactly the matching psi check and
    names the basis pair or arrow of that entry. The entries are chosen
    so that the section inner product stays positive definite: it only
    reads products over (inv h, h) and the star."""

    def test_changed_mul_weight_fails_multiplicative(self, heis3_quotient,
                                                     heis3_bundle):
        E = heis3_bundle
        G = heis3_quotient.domain
        H = E.base
        g1, g2 = next(
            (g1, g2) for g1, g2 in G.comp
            if not {_place(E, g1)[0], _place(E, g2)[0],
                    _place(E, G.comp[(g1, g2)])[0]} & set(H.units))
        arrays = table_arrays(E)
        a, b = E.psi_slots[G.index[g1]], E.psi_slots[G.index[g2]]
        arrays["w"][(arrays["a"] == a) & (arrays["b"] == b)] *= 1.5
        broken = bundle_from(E, arrays, morphism=heis3_quotient)
        # the axioms of the intact bundle stand in, so the psi checks run
        rep = gk.verify_axioms(E, samples=5)
        iso = gk.psi_iso_check(heis3_quotient, bundle=broken,
                               axiom_report=rep)
        entry = iso.entry("multiplicative")
        assert not entry.passed
        assert entry.residual == pytest.approx(0.5)
        assert entry.witness == f"({g1!r}, {g2!r})"
        assert iso.entry("star_preserving").passed

    def test_changed_star_weight_fails_star_preserving(self, heis3_quotient,
                                                       heis3_bundle):
        E = heis3_bundle
        G = heis3_quotient.domain
        g = next(g for g in G.arrows
                 if not E.base.is_unit(_place(E, g)[0]))
        arrays = table_arrays(E)
        arrays["sw"][arrays["s"] == E.psi_slots[G.index[g]]] *= np.exp(0.3j)
        broken = bundle_from(E, arrays, morphism=heis3_quotient)
        rep = gk.verify_axioms(E, samples=5)
        iso = gk.psi_iso_check(heis3_quotient, bundle=broken,
                               axiom_report=rep)
        entry = iso.entry("star_preserving")
        assert not entry.passed
        assert entry.residual == pytest.approx(abs(np.exp(0.3j) - 1))
        assert entry.witness == repr(g)
        assert iso.entry("multiplicative").passed

    def test_fibers_that_repeat_a_label_fail_linear_bijection(
            self, heis3_quotient, heis3_bundle):
        # the fiber over h lists its second arrow twice and its first one
        # not at all; the table, and so the axioms, are those of E
        E = heis3_bundle
        h = E.base.arrows[1]
        fibers = dict(E.fibers)
        fibers[h] = (fibers[h][1], *fibers[h][1:])
        F = gk.FellBundle(E.base, fibers, E.table(), morphism=heis3_quotient)
        assert F.psi_slots[heis3_quotient.domain.index[E.fibers[h][0]]] == -1
        iso = gk.psi_iso_check(heis3_quotient, bundle=F)
        not_perm = "restriction map is not a permutation"
        for name in ("linear_bijection", "multiplicative", "star_preserving",
                     "hilbert_module_match", "isometric"):
            entry = iso.entry(name)
            assert not entry.passed and entry.witness.endswith(not_perm)
        assert iso.entry("wedderburn_equal").passed

    @pytest.mark.parametrize("k", [3, -1])
    def test_out_of_range_mul_index_fails_axiom1(self, heis3_bundle, k):
        E = heis3_bundle
        h = E.base.arrows[1]
        u = E.base.src[h]
        # the product of e_0 over h with e_0 over u moved to index k
        arrays = table_arrays(E)
        e = (arrays["a"] == E.first[h]) & (arrays["b"] == E.first[u])
        arrays["c"][e], arrays["w"][e] = E.first[h] + k, 1.0
        broken = bundle_from(E, arrays)
        rep = gk.verify_axioms(broken, samples=5)
        entry = rep.entry("axiom1_fiber_map")
        assert not entry.passed and repr(h) in entry.witness
        assert not rep.axioms_pass and not rep.saturated
        # -1 would otherwise alias the last slot of the fiber over h
        with pytest.raises(gk.FellBundleError) as exc:
            broken.table()
        assert exc.value.witness == ((h, u), (0, 0), k)
        for consume in (gk.section_algebra, gk.abelian_extract,
                        gio.save_bundle, lambda E: E.is_abelian(),
                        lambda E: gk.fiber_norm(FiberElement.basis(E, h, 0))):
            with pytest.raises(gk.FellBundleError):
                consume(broken)

    def test_star_onto_another_arrow_fails_axiom5(self, heis3_bundle):
        E = heis3_bundle
        h = E.base.arrows[1]
        hi = E.base.inv[h]
        assert hi != h
        # e_2* over h sent to e_0 over h itself rather than over inv(h)
        arrays = table_arrays(E)
        arrays["t"][arrays["s"] == E.first[h] + 2] = E.first[h]
        broken = bundle_from(E, arrays)
        rep = gk.verify_axioms(broken, samples=5)
        entry = rep.entry("axiom5_star_fiber_map")
        assert not entry.passed and repr(h) in entry.witness
        assert rep.entry("axiom1_fiber_map").passed and not rep.axioms_pass
        with pytest.raises(gk.FellBundleError) as exc:
            broken.table()
        assert exc.value.witness == (h, 2, E.first[h] - E.first[hi])

    def test_factor_slot_outside_the_table_is_refused(self, heis3_bundle):
        arrays = table_arrays(heis3_bundle)
        arrays["a"][0] = heis3_bundle.total_dim()
        with pytest.raises(gk.FellBundleError):
            bundle_from(heis3_bundle, arrays)


def _small_bundles():
    flip = gk.build_action_groupoid(corpus.flip_action()).projection
    om = corpus.zn2_bilinear_cocycle(2)
    return {"flip": gk.build_bundle(flip),
            "heis2": gk.build_bundle(corpus.heisenberg_quotient(2)),
            "line": gk.line_bundle(om.base, om)}


def _changed(E, kind, seed):
    """E with one seeded product or star weight multiplied by a seeded
    factor off the unit circle and away from 1, or (kind "drop") with one
    seeded product entry deleted."""
    rng = np.random.default_rng(seed)
    arrays = table_arrays(E)
    weights = arrays["sw" if kind == "star" else "w"]
    e = rng.integers(len(weights))
    if kind == "drop":
        for k in "abcw":
            arrays[k] = np.delete(arrays[k], e)
    else:
        weights[e] *= (1.5 + rng.random()) * np.exp(1j * rng.uniform(0.5,
                                                                      2.5))
    return bundle_from(E, arrays)


def _shifted_twist(seed):
    """The twisted groupoid table of a random action groupoid and cocycle,
    with the cocycle value of one seeded pair of non-units turned by a
    phase."""
    rng = np.random.default_rng(seed)
    G = gk.build_action_groupoid(random_action(rng)).groupoid
    omega = dict(random_cocycle(G, rng).omega)
    pairs = [p for p in omega if not G.is_unit(p[0]) and not G.is_unit(p[1])]
    omega[pairs[rng.integers(len(pairs))]] *= np.exp(0.7j)
    return gk.Cocycle(G, omega).table


class TestTableIdentityControls:
    """The exact bundle axioms are defects of the section table: each
    equals a brute-force dense residual, and one changed weight fails the
    matching axiom with a witness."""

    # one entry per pair, so gathered: every "mul" and "star" input and
    # the twisted table with one omega entry shifted; sorted: every "drop"
    # input and the C^2 bundle with a two-term product
    @pytest.mark.parametrize("name, kind, seed", [
        (name, kind, seed) for name in ("flip", "heis2", "line")
        for kind in ("mul", "star", "drop") for seed in (0, 1)]
        + [("twisted", "shift", 0), ("skew_basis", "mul", 0)])
    def test_defects_match_dense_oracle(self, name, kind, seed,
                                        monkeypatch):
        # passes of a few triples, so that a triple check spans many
        monkeypatch.setattr(gk.algebra, "_TRIPLES_PER_PASS", 16)
        if kind == "shift":
            table = _shifted_twist(seed)
        else:
            bundles = {**_small_bundles(), "skew_basis": _skew_basis_bundle()}
            table = _changed(bundles[name], kind, seed).table()
        defects = (table.associativity_defect()[0],
                   table.involution_defect()[0],
                   table.antimultiplicative_defect()[0])
        assert defects == pytest.approx(dense_table_residuals(table),
                                        rel=1e-12, abs=1e-14)
        assert max(defects) > 0.1

    def test_changed_mul_weight_fails_axioms_3_and_8(self):
        broken = _changed(_small_bundles()["heis2"], "mul", 0)
        assoc, _, anti = dense_table_residuals(broken.table())
        rep = gk.verify_axioms(broken, samples=5)
        for check, res in (("axiom3_associative", assoc),
                           ("axiom8_antimultiplicative", anti)):
            entry = rep.entry(check)
            assert not entry.passed and entry.witness.startswith("(h=")
            assert entry.residual == pytest.approx(res, rel=1e-12)
        assert rep.entry("axiom7_involutive").passed

    def test_changed_star_weight_fails_axiom7(self):
        broken = _changed(_small_bundles()["flip"], "star", 0)
        _, invol, _ = dense_table_residuals(broken.table())
        rep = gk.verify_axioms(broken, samples=5)
        entry = rep.entry("axiom7_involutive")
        assert not entry.passed and entry.witness.startswith("(h=")
        assert entry.residual == pytest.approx(invol, rel=1e-12)
        assert rep.entry("axiom3_associative").passed

    def test_commutator_in_unit_fiber_is_not_abelian(self):
        E = _small_bundles()["flip"]
        assert E.is_abelian()
        arrays = table_arrays(E)
        u = E.first[E.base.units[0]]
        e = (arrays["a"] == u) & (arrays["b"] == u + 1)
        for k, v in zip("abcw", (u, u + 1, u, 1.0)):
            arrays[k] = np.append(arrays[k][~e], v)
        # e_0 e_1 = e_0, e_1 e_0 = 0
        assert not bundle_from(E, arrays).is_abelian()


def test_heis7_associativity_memory_is_bounded():
    # gathered in passes of _TRIPLES_PER_PASS triples: 12.3 MiB; sorting
    # two complex terms per triple takes 27.2 MiB (and 17.5 s)
    table = gk.build_bundle(corpus.heisenberg_quotient(7)).table()
    tracemalloc.start()
    try:
        assert table.associativity_defect() == (0.0, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * 2 ** 20


@pytest.fixture(scope="module")
def basis_maps():
    """(domain table, target table, U) of four certified basis maps: psi
    and the extension map at n = 2, and the extraction maps of the flip
    covering and of one seeded random covering."""
    pi = corpus.heisenberg_quotient(2)
    E = gk.build_bundle(pi)
    n = len(pi.domain.arrows)
    psi_map = np.zeros((E.total_dim(), n))
    psi_map[E.psi_slots, np.arange(n)] = 1.0
    ext = gk.group_extension_bundle(corpus.heisenberg_extension(2))
    maps = {"psi": (pi.domain.table, E.table(), psi_map),
            "extension": (
                ext.extension.group.to_groupoid().table,
                ext.cocycle.table, ext.basis_map)}
    rng = np.random.default_rng(4000)
    for name, action in (("flip", corpus.flip_action()),
                         ("covering", random_action(rng))):
        ag = gk.build_action_groupoid(action)
        twist = None if name == "flip" else \
            random_cocycle(ag.groupoid, rng)
        E = gk.build_bundle(ag.projection, twist=twist)
        res = gk.abelian_extract(E)
        maps[name] = (res.cocycle.table, E.table(),
                      res.basis_map)
    return maps


class TestBasisMapDefects:
    """The multiplicative and star defects of a basis map equal a dense
    brute-force residual; one changed entry of the map fails both, and
    the witness names a pair (or element) that the entry touches."""

    @pytest.mark.parametrize("name", ["psi", "extension", "flip",
                                      "covering"])
    def test_defects_match_dense_oracle(self, basis_maps, name):
        A, B, U = basis_maps[name]
        mul, star = dense_map_defects(A, B, U)
        res_mul, _ = A.hom_defect(B, U)
        res_star, _ = A.star_hom_defect(B, U)
        assert res_mul == pytest.approx(mul.max(), abs=1e-14)
        assert res_star == pytest.approx(star.max(), abs=1e-14)
        assert max(res_mul, res_star) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", ["psi", "extension", "flip",
                                      "covering"])
    def test_changed_entry_is_named(self, basis_maps, name, seed):
        A, B, U = basis_maps[name]
        rows, cols = np.nonzero(U)
        k = np.random.default_rng(seed).integers(len(rows))
        j = cols[k]
        U = U.astype(complex)
        U[rows[k], j] += 1j
        mul, star = dense_map_defects(A, B, U)
        e = np.eye(A.dim)
        res, (a, b) = A.hom_defect(B, U)
        assert res == pytest.approx(mul.max(), rel=1e-12) and res > 1e-6
        assert mul[a, b] == pytest.approx(res, rel=1e-12)
        assert j in (a, b) or A.mul(e[a], e[b])[j] != 0
        res, (s,) = A.star_hom_defect(B, U)
        assert res == pytest.approx(star.max(), rel=1e-12) and res > 1e-6
        assert star[s] == pytest.approx(res, rel=1e-12)
        assert s == j or A.star(e[s])[j] != 0


class TestBimodule:
    def test_single_arrow_of_heis3(self, heis3_bundle):
        U = gk.check_bisection(heis3_bundle.base, ["(1,2)"])
        rep = gk.bisection_bimodule_check(heis3_bundle, [U])[0]
        assert rep.passed

    def test_units_bisection(self, heis3_bundle):
        rep = gk.bisection_bimodule_check(heis3_bundle,
                                          [heis3_bundle.base.units])[0]
        assert rep.passed

    def test_nonsaturated_rejected(self):
        E = gk.build_bundle(corpus.nonsaturated_surjection())
        with pytest.raises(gk.NotSaturated):
            gk.bisection_bimodule_check(E, [E.base.units])[0]

    def test_not_a_bisection_rejected(self, heis3_bundle):
        with pytest.raises(gk.NotABisection):
            gk.bisection_bimodule_check(heis3_bundle,
                                        [list(heis3_bundle.base.arrows)])[0]


def test_saturation_is_computed_once_per_tolerance(monkeypatch):
    E = gk.build_bundle(corpus.heisenberg_quotient(2))
    B = fiber_blocks(E)
    computed = []  # every tolerance stored in the saturation cache

    class Cache(dict):
        def __setitem__(self, tol, value):
            computed.append(tol)
            super().__setitem__(tol, value)
    monkeypatch.setattr(B, "_saturation", Cache())
    assert gk.verify_axioms(E).saturated
    assert gk.abelian_extract(E).passed
    for U in gk.greedy_bisection_cover(E.base):
        assert gk.bisection_bimodule_check(E, [U])[0].passed
    assert computed == [1e-9]
    assert B.saturation(1e-6) == B.saturation(1e-9) == (True, None)
    assert computed == [1e-9, 1e-6]


def test_saturation_of_a_monomial_table_takes_no_svd(monkeypatch):
    # each basis pair has one product term, so each row of a pair's
    # product matrix holds one entry and the ranks are read from its
    # column norms
    svd = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: svd.append(1) or real(*a, **k))
    bundles = [gk.build_bundle(pi) for pi in (
        corpus.heisenberg_quotient(3), corpus.nonsaturated_surjection())]
    got = [fiber_blocks(E).saturation(1e-9) for E in bundles]
    assert svd == []
    monkeypatch.undo()
    assert got == [dense_saturation_detail(E, 1e-9) for E in bundles]
    assert got[0] == (True, None) and not got[1][0]


def test_small_product_weight_falls_short_at_its_pair(flip_groupoid):
    # in the flip covering each product column holds one entry; scaled to
    # 1e-12 it leaves its pair one rank short, at the pair the dense
    # per-pair ranks name
    E = gk.build_bundle(flip_groupoid.projection)
    arrays = table_arrays(E)
    arrays["w"][5] = 1e-12
    bad = bundle_from(E, arrays)
    sat, wit = fiber_blocks(bad).saturation(1e-9)
    assert (sat, wit) == dense_saturation_detail(bad, 1e-9)
    assert not sat and wit.endswith("has rank 1 < 2")
    assert fiber_blocks(E).saturation(1e-9) == (True, None)


def test_psi_hilbert_module_match_is_checked(heis3_quotient):
    iso = gk.psi_iso_check(heis3_quotient)
    names = [e.name for e in iso.entries]
    assert "hilbert_module_match" in names
    assert all(e.passed for e in iso.entries)


class TestHilbertModuleDefect:
    """The Hilbert-module check of psi is one defect of the section and
    domain tables; it equals the per-pair loop and names a failing pair."""

    @pytest.mark.parametrize("n, seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
    def test_changed_mul_weight_is_named(self, n, seed):
        pi = corpus.heisenberg_quotient(n)
        E = gk.build_bundle(pi)
        H = E.base
        arrays = table_arrays(E)
        # a product that lands over a unit of H enters the module check
        over = slot_arrows(E)
        entries = np.flatnonzero([H.is_unit(over[c]) for c in arrays["c"]])
        arrays["w"][entries[np.random.default_rng(seed).integers(
            len(entries))]] *= 1j
        broken = bundle_from(E, arrays, morphism=pi)
        loop = hilbert_module_residuals(pi, broken)
        res, pair = _hilbert_module_defect(pi, broken)
        assert res == max(loop.values()) == pytest.approx(np.sqrt(2))
        G = pi.domain
        assert loop[(G.arrows[pair[0]], G.arrows[pair[1]])] == res

    def test_failed_check_names_its_pair_in_the_report(self):
        pi = corpus.heisenberg_quotient(2)
        E = gk.build_bundle(pi)
        H = E.base
        arrays = table_arrays(E)
        # a real factor keeps the section inner product positive, so the
        # section algebra of the changed bundle can be built
        over = slot_arrows(E)
        e = next(e for e, (a, c) in enumerate(zip(arrays["a"], arrays["c"]))
                 if H.is_unit(over[c]) and not H.is_unit(over[a]))
        arrays["w"][e] *= 1.5
        broken = bundle_from(E, arrays, morphism=pi)
        (h1, i), (h2, j) = ((over[x], x - E.first[over[x]])
                            for x in (arrays["a"][e], arrays["b"][e]))
        iso = gk.psi_iso_check(pi, bundle=broken,
                               axiom_report=gk.verify_axioms(E, samples=5))
        entry = iso.entry("hilbert_module_match")
        assert not entry.passed and entry.residual == pytest.approx(0.5)
        g1 = pi.domain.inv[E.fibers[h1][i]]
        assert entry.witness == f"({g1!r}, {E.fibers[h2][j]!r})"


def _mutated(E, change):
    """A copy of E whose section table arrays went through change(E,
    arrays, slot arrows)."""
    arrays = table_arrays(E)
    change(E, arrays, slot_arrows(E))
    return bundle_from(E, arrays)


def _scale_product(E, arrays, over):
    """A real factor 1.5 on one product of two non-units onto a non-unit:
    the Gram blocks, which read products onto units only, stay definite."""
    H = E.base
    e = next(e for e, abc in enumerate(zip(*(arrays[k] for k in "abc")))
             if not any(H.is_unit(over[x]) for x in abc))
    arrays["w"][e] *= 1.5


def _first_non_unit(E):
    return next(h for h in E.base.arrows if not E.base.is_unit(h))


def _over(E, arrays, key, h):
    """The entries whose slot ``key`` lies over h."""
    return (arrays[key] >= E.first[h]) & (arrays[key] < E.first[h] + E.dim(h))


def _negate_star(E, arrays, over):
    """e* -> -e* on the first non-unit arrow: e* e is negative."""
    arrays["sw"][_over(E, arrays, "s", _first_non_unit(E))] *= -1


def _collapse_star(E, arrays, over):
    """Every basis vector of the first non-unit arrow starred onto one
    vector: the products stay saturated, the inner products do not span."""
    h = _first_non_unit(E)
    on = _over(E, arrays, "s", h)
    arrays["t"][on], arrays["sw"][on] = E.first[E.base.inv[h]], 1.0


def _phase_one_entry(E, arrays, over):
    """A phase on the product of the first basis pair over (h, inv h) for
    the first non-unit arrow h: ranks stay, (x y*) z = x (y* z) breaks."""
    h = _first_non_unit(E)
    pair = _over(E, arrays, "a", h) & _over(E, arrays, "b", E.base.inv[h])
    e = np.flatnonzero(pair)[0]
    arrays["w"][(arrays["a"] == arrays["a"][e])
                & (arrays["b"] == arrays["b"][e])] *= 1j


def _empty_unit_star(E, arrays, over):
    """e_0* = 0 in the first unit fiber: its trace form is degenerate."""
    keep = arrays["s"] != E.first[E.base.units[0]]
    for k in ("s", "t", "sw"):
        arrays[k] = arrays[k][keep]


def _skew_basis_bundle():
    """C^2 over a one-arrow base in the basis u = (1, 0), v = (1, 2): the
    product v v = -u + 2 v has two terms."""
    from gpdkit.algebra import StructureTable
    H = corpus.cyclic_groupoid(1)
    # (a, b, c, w): u u = u v = v u = u, v v = -u + 2 v; u* = u, v* = v
    a, b, c, w = zip((0, 0, 0, 1.0), (0, 1, 0, 1.0), (1, 0, 0, 1.0),
                     (1, 1, 0, -1.0), (1, 1, 1, 2.0))
    return gk.FellBundle(H, {H.arrows[0]: ("u", "v")}, StructureTable(
        2, a, b, c, w, [0, 1], [0, 1], [1.0, 1.0]))


def _basis_changed(E, rng):
    """E in the basis f_i = sum_j P[j, i] e_j, P random and block diagonal
    over the fibers: a dense table, and Gram roots that are not
    diagonal."""
    n = E.total_dim()
    P = np.zeros((n, n), dtype=complex)
    for h in E.base.arrows:
        at, d = slice(E.first[h], E.first[h] + E.dim(h)), E.dim(h)
        P[at, at] = np.eye(d) + 0.4 * (rng.standard_normal((d, d))
                                       + 1j * rng.standard_normal((d, d)))
    return rebased(E, P)


def _assert_blocks_match_the_sandwich(B):
    """Every block (h, k) with r(k) = s(h) of FiberBlocks.blocks against
    the Gram-root sandwich of tests/oracles.py, each block once."""
    live = np.flatnonzero(B.dims > 0)
    i, j = gk.algebra._join(B.src[live], B.rng[live])
    h, k = live[i], live[j]
    X = B.random_rows(h, np.random.default_rng(11))
    want = sandwich_blocks(B, h, X, k)
    seen = np.zeros(len(h), dtype=int)
    for rows, S in B.blocks(h, X, k):
        for r, M in zip(rows, S):
            assert M.shape == want[r].shape
            assert np.abs(M - want[r]).max() <= 1e-13 * max(
                1.0, np.abs(want[r]).max())
            seen[r] += 1
    assert np.array_equal(seen, np.ones(len(h)))


def _parity_bundles():
    heis2 = gk.build_bundle(corpus.heisenberg_quotient(2))
    flip = gk.build_bundle(
        gk.build_action_groupoid(corpus.flip_action()).projection)
    om = corpus.zn2_bilinear_cocycle(3)
    rng = np.random.default_rng(4000)
    ag = gk.build_action_groupoid(random_action(rng))
    heis3 = gk.build_bundle(corpus.heisenberg_quotient(3))
    return {
        "heis3": heis3,
        "flip": flip,
        "z3_cocycle_line": gk.line_bundle(om.base, om),
        "twisted_covering": gk.build_bundle(
            ag.projection, twist=random_cocycle(ag.groupoid, rng)),
        "nonsaturated": gk.build_bundle(corpus.nonsaturated_surjection()),
        "skew_basis": _skew_basis_bundle(),
        "heis2_scaled_product": _mutated(heis2, _scale_product),
        "heis2_negated_star": _mutated(heis2, _negate_star),
        "flip_collapsed_star": _mutated(flip, _collapse_star),
        "flip_phase": _mutated(flip, _phase_one_entry),
        "flip_degenerate_unit": _mutated(flip, _empty_unit_star),
        # inv h != h: only <x, x>_A = x x* reads the changed entry
        "heis3_phase": _mutated(heis3, _phase_one_entry),
        # v v = 2 u + 2 v: a two-term product with ||v v|| > ||v||^2
        "skew_basis_changed": _mutated(
            _skew_basis_bundle(),
            lambda E, arrays, over: arrays["w"].__setitem__(
                (arrays["a"] == 1) & (arrays["b"] == 1), 2.0)),
    }


def _assert_same_checks(batched, oracle):
    assert [e.name for e in batched.entries] == \
        [e.name for e in oracle.entries]
    for got, want in zip(batched.entries, oracle.entries):
        assert (got.passed, got.witness) == (want.passed, want.witness), \
            got.name
        if want.residual is None:
            assert got.residual is None, got.name
        else:
            assert got.residual == pytest.approx(want.residual, rel=1e-12,
                                                 abs=1e-12), got.name


@pytest.fixture(scope="module")
def parity_bundles():
    return _parity_bundles()


class TestBatchedNumerics:
    """verify_axioms, bisection_bimodule_check, SectionSpace and fiber_norm
    take their norms as stacked per-arrow blocks; the per-element path of
    tests/oracles.py gives the same check names, flags and witnesses, with
    residuals within 1e-12."""

    @pytest.mark.parametrize("name", list(_parity_bundles()))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_verify_axioms_matches_per_element_oracle(self, parity_bundles,
                                                      name, seed):
        E = parity_bundles[name]
        _assert_same_checks(gk.verify_axioms(E, samples=12, seed=seed),
                            dense_verify_axioms(E, samples=12, seed=seed))

    @pytest.mark.parametrize("name", list(_parity_bundles()))
    def test_bimodule_check_matches_per_element_oracle(self, parity_bundles,
                                                       name):
        E = parity_bundles[name]
        sat, wit = dense_saturation_detail(E, 1e-9)
        assert fiber_blocks(E).saturation(1e-9) == (sat, wit)
        for U in gk.greedy_bisection_cover(E.base):
            if not sat:
                with pytest.raises(gk.NotSaturated):
                    gk.bisection_bimodule_check(E, [U])[0]
                continue
            try:
                want = dense_bimodule_check(E, U, samples=8, seed=3)
            except gk.FellBundleError as exc:  # a degenerate unit fiber
                with pytest.raises(gk.FellBundleError) as got:
                    gk.bisection_bimodule_check(E, [U], samples=8, seed=3)[0]
                assert (str(got.value), got.value.witness) == \
                    (str(exc), exc.witness)
                continue
            _assert_same_checks(
                gk.bisection_bimodule_check(E, [U], samples=8, seed=3)[0],
                want)

    @pytest.mark.parametrize("name", ["heis3", "flip", "z3_cocycle_line",
                                      "twisted_covering",
                                      "heis2_scaled_product"])
    def test_norms_match_dense_section_space(self, parity_bundles, name):
        E = parity_bundles[name]
        space, dense = gk.bundle.SectionSpace(E), DenseSectionSpace(E)
        assert fiber_blocks(E).gram_margin()[0] == pytest.approx(
            dense.gram_margin, rel=1e-12)
        rng = np.random.default_rng(7)
        for _ in range(5):
            vec = rng.standard_normal(E.total_dim()) \
                + 1j * rng.standard_normal(E.total_dim())
            assert space.op_norm(Section(E, vec)) == pytest.approx(
                dense.op_norm(vec), rel=1e-12)
            for got, want in zip(space.rep.matrices(vec),
                                 dense.blocks(vec), strict=True):
                assert np.allclose(got, want, atol=1e-12)
            h = E.base.arrows[rng.integers(len(E.base.arrows))]
            xi = FiberElement(E, h, vec[E.first[h]:E.first[h] + E.dim(h)])
            assert gk.fiber_norm(xi) == pytest.approx(element_norm(xi),
                                                      rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("name", ["heis3", "flip", "twisted_covering",
                                      "skew_basis_changed"])
    def test_blocks_match_the_gram_root_sandwich(self, parity_bundles,
                                                 name):
        # from the entries put once into orthonormal coordinates
        _assert_blocks_match_the_sandwich(fiber_blocks(parity_bundles[name]))

    def test_dense_gram_keeps_the_cube_bound(self):
        # heis3 in a random basis of every fiber: dense Gram roots and d^3
        # table entries per fiber pair; summing the terms at each (a, c',
        # b') keeps at most d_h d_hk d_k orthonormal entries per pair, so
        # no more than the table has
        E = _basis_changed(gk.build_bundle(corpus.heisenberg_quotient(3)),
                           np.random.default_rng(6))
        B = fiber_blocks(E)
        row, col, t, _ = B.gram()[0]
        assert np.abs(t[row != col]).max() > 0.1
        a, _, b, *_ = B.orthonormal()
        count = np.bincount(B.arrow[a] * B.nA + B.arrow[b],
                            minlength=B.nA ** 2)
        h, k = np.divmod(np.flatnonzero(count), B.nA)
        assert np.all(count[h * B.nA + k] <= B.dims[h] * B.dims[k]
                      * B.dims[B.base.compose_ids(h, k)])
        assert len(a) <= len(E.table().a)
        _assert_blocks_match_the_sandwich(B)
        assert gk.verify_axioms(E, samples=12, seed=0).axioms_pass

    def test_skew_basis_gram_is_not_diagonal(self, parity_bundles):
        # so that the sandwich test above multiplies off-diagonal roots
        row, col, t, _ = fiber_blocks(
            parity_bundles["skew_basis_changed"]).gram()[0]
        assert np.abs(t[row != col]).max() > 0.1

    @pytest.mark.parametrize("name", ["heis3", "flip", "twisted_covering",
                                      "z3_cocycle_line"])
    def test_diagonal_gram_adds_no_entries(self, parity_bundles, name):
        # one root entry per slot and one orthonormal entry per table
        # entry: no (entries, D, D) growth
        E = parity_bundles[name]
        B = fiber_blocks(E)
        row, col, t, _ = B.gram()[0]
        assert B.diagonal and np.array_equal(row, col)
        assert len(t) == E.total_dim()
        assert len(B.orthonormal()[0]) == len(E.table().a)

    @pytest.mark.parametrize("name", ["heis3", "twisted_covering",
                                      "heis3_phase", "skew_basis_changed"])
    def test_row_products_match_fiber_products(self, parity_bundles, name):
        E = parity_bundles[name]
        B = fiber_blocks(E)
        rng = np.random.default_rng(5)
        xs = [FiberElement(E, h, rng.standard_normal(E.dim(h))
                           + 1j * rng.standard_normal(E.dim(h)))
              for h in E.base.arrows if E.dim(h)]
        h, X = B.rows([(x.arrow, x.vec) for x in xs])
        for k, row, x in zip(*B.stars(h, X), xs):
            want = fiber_adjoint(x)
            assert E.base.arrows[k] == want.arrow
            assert np.allclose(row[:want.vec.size], want.vec, atol=1e-12)
        for side, prod in (
                ("B", lambda x: fiber_product(fiber_adjoint(x), x)),
                ("A", lambda x: fiber_product(x, fiber_adjoint(x)))):
            rows = B.square(h, X, side)
            for x, row in zip(xs, rows):
                want = prod(x).vec
                assert np.allclose(row[:want.size], want, atol=1e-12)
        ys = [FiberElement(E, k, rng.standard_normal(E.dim(k)) + 0j)
              for x in xs for k in E.base.arrows
              if E.base.src[k] == E.base.src[x.arrow] and E.dim(k)][:len(xs)]
        pairs = [(y, x) for x, y in zip(xs, ys)
                 if E.base.composable(y.arrow, x.arrow)]
        h1, Y = B.rows([(y.arrow, y.vec) for y, _ in pairs])
        h2, X2 = B.rows([(x.arrow, x.vec) for _, x in pairs])
        h12, Z = B.products(h1, Y, h2, X2)
        for (y, x), k, row in zip(pairs, h12, Z):
            want = fiber_product(y, x)
            assert E.base.arrows[k] == want.arrow
            assert np.allclose(row[:want.vec.size], want.vec, atol=1e-12)

    def test_fiber_norm_of_degenerate_unit_fiber_raises(self):
        E = _mutated(_small_bundles()["flip"], _empty_unit_star)
        u = E.base.units[0]
        with pytest.raises(gk.FellBundleError, match="degenerate"):
            gk.fiber_norm(FiberElement.basis(E, u, 0))
        rep = gk.verify_axioms(E, samples=5)
        for name in ("axiom4_submultiplicative", "axiom9_cstar_identity",
                     "axiom10_positive", "norm_consistency"):
            assert rep.entry(name).witness == \
                f"unit fiber over {u!r} has degenerate trace form", name

    def test_no_decomposition_of_a_total_dim_matrix(self, parity_bundles,
                                                    monkeypatch):
        E = parity_bundles["heis3"]
        sizes = []
        for name in ("svd", "eigh", "eigvalsh", "norm", "matrix_rank"):
            real = getattr(np.linalg, name)

            def spy(x, *args, _real=real, **kwargs):
                x = np.asarray(x)
                if x.ndim >= 2:
                    sizes.append(max(x.shape[-2:]))
                return _real(x, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        rep = gk.verify_axioms(E, samples=20)
        for U in gk.greedy_bisection_cover(E.base):
            assert gk.bisection_bimodule_check(E, [U])[0].passed
        assert rep.passed and sizes
        # blocks are at most fiber-sized; ranks read d^2 x d products
        assert max(sizes) <= 9 < E.total_dim()


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_axioms_2_and_6_read_exactly_zero_at_every_seed(seed):
    # the products and the star of the sections are the bilinear and the
    # conjugate-linear extensions of the table, so no table breaks them:
    # not even one that fails axioms 3, 4, 8, 9 or 10
    small = _small_bundles()
    broken = [_mutated(small["flip"], _negate_star),
              _mutated(small["heis2"], _scale_product)]
    for E, intact in [*((E, True) for E in small.values()),
                      *((E, False) for E in broken)]:
        rep = gk.verify_axioms(E, samples=25, seed=seed)
        assert [(e.passed, e.residual, e.witness) for e in map(
            rep.entry, ("axiom2_bilinear", "axiom6_conjugate_linear"))] \
            == [(True, 0.0, None)] * 2
        assert rep.axioms_pass == intact


class TestBatchedNegativeControls:
    """Each numeric check fails on a mutated bundle, with a witness, through
    the batched path."""

    def test_scaled_product_fails_axioms_4_9_and_norm_consistency(self):
        E = _mutated(gk.build_bundle(corpus.heisenberg_quotient(2)),
                     _scale_product)
        rep = gk.verify_axioms(E, samples=10)
        expected = {"axiom4_submultiplicative": "(h='(1,0)','(0,1)')",
                    "axiom9_cstar_identity": "(h='(1,0)')",
                    "norm_consistency": "(h='(1,0)')"}
        for name, witness in expected.items():
            entry = rep.entry(name)
            assert not entry.passed and entry.witness == witness, name
        # ||e_a e_b|| = 1.5, ||L_x|| = 1.5 against ||x|| = 1
        assert rep.entry("axiom4_submultiplicative").residual == \
            pytest.approx(0.5)
        assert rep.entry("norm_consistency").residual == \
            pytest.approx(1 / 3)

    def test_negated_star_fails_axiom10(self):
        E = _mutated(_small_bundles()["flip"], _negate_star)
        entry = gk.verify_axioms(E, samples=10).entry("axiom10_positive")
        assert not entry.passed and entry.witness == "(h='g1')"

    def test_collapsed_star_fails_fullness(self):
        E = _mutated(_small_bundles()["flip"], _collapse_star)
        rep = gk.bisection_bimodule_check(E, [["g1"]])[0]
        for side in ("A", "B"):
            entry = rep.entry(f"fullness_{side}")
            assert not entry.passed
            assert entry.witness == "inner products over 'g1' span rank 1 < 2"
        assert rep.entry("imprimitivity").passed

    def test_phase_fails_imprimitivity(self):
        E = _mutated(_small_bundles()["flip"], _phase_one_entry)
        rep = gk.bisection_bimodule_check(E, [["g1"]])[0]
        entry = rep.entry("imprimitivity")
        assert not entry.passed and entry.witness == "(h='g1', e=0,0,0)"
        assert entry.residual == pytest.approx(np.sqrt(2))
        assert rep.entry("fullness_A").passed and \
            rep.entry("fullness_B").passed


def _units_last(pi):
    """pi with the codomain arrows listed non-units first: the greedy cover
    of that base then takes some non-unit arrows into two bisections."""
    obj = gio.save_morphism(pi)
    units = set(obj["codomain"]["units"])
    obj["codomain"]["arrows"].sort(key=units.__contains__)
    return gio.load_morphism(obj)


@pytest.fixture(scope="module")
def one_pass_bundles():
    """(bundle, an arrow h over which it is mutated): the heis3 quotient,
    one arrow per bisection, and a covering of a five-unit base whose
    greedy cover holds h = 'c1:g1' (fiber dimension 3) twice."""
    covering = gk.build_action_groupoid(random_action(
        np.random.default_rng(2))).projection
    return {"heis3": (gk.build_bundle(corpus.heisenberg_quotient(3)),
                      "(1,2)"),
            "covering": (gk.build_bundle(_units_last(covering)), "c1:g1")}


def _phase_product_over(h):
    """A phase on one product term: the first basis vector over h times
    the unit fiber over src(h). Only the triples x (y* z) over h read it."""
    def change(E, arrays, over):
        e = np.flatnonzero(_over(E, arrays, "a", h)
                           & _over(E, arrays, "b", E.base.src[h]))[0]
        arrays["w"][e] *= 1j
    return change


def _drop_star_over(h):
    """No star entries over h: both inner products over h are 0."""
    def change(E, arrays, over):
        keep = ~_over(E, arrays, "s", h)
        for k in ("s", "t", "sw"):
            arrays[k] = arrays[k][keep]
    return change


def _one_pass_against_oracle(E, cover, monkeypatch):
    """The reports of one pass over ``cover``, each checked against
    dense_bimodule_check of its bisection, and equal to those of a pass
    that takes every arrow with terms in a chunk of its own."""
    got = gk.bisection_bimodule_check(E, cover, samples=8, seed=3)
    assert len(got) == len(cover)
    for rep, U in zip(got, cover):
        _assert_same_checks(rep, dense_bimodule_check(E, U, samples=8,
                                                      seed=3))
    with monkeypatch.context() as m:
        m.setattr(galgebra, "_ENTRIES_PER_CALL", 1)
        assert [r.entries for r in gk.bisection_bimodule_check(
            E, cover, samples=8, seed=3)] == [r.entries for r in got]
    return got


def _failing(reports, name):
    return {k for k, rep in enumerate(reports) if not rep.entry(name).passed}


class TestOnePassNegativeControls:
    """One mutation over one arrow h fails the bisections that hold h and
    no other, with the witnesses of the per-bisection oracle."""

    @pytest.mark.parametrize("name", ["heis3", "covering"])
    def test_phased_product_fails_the_bisections_holding_h(
            self, one_pass_bundles, name, monkeypatch):
        E, h = one_pass_bundles[name]
        E = _mutated(E, _phase_product_over(h))
        cover = gk.greedy_bisection_cover(E.base)
        holding = {k for k, U in enumerate(cover) if h in U.arrows}
        assert len(holding) == (1 if name == "heis3" else 2)
        got = _one_pass_against_oracle(E, cover, monkeypatch)
        assert _failing(got, "imprimitivity") == holding
        for k in holding:
            entry = got[k].entry("imprimitivity")
            assert entry.witness.startswith(f"(h={h!r}, e=")
            assert entry.residual == pytest.approx(np.sqrt(2))
        assert not _failing(got, "fullness_A") | _failing(got, "fullness_B")

    @pytest.mark.parametrize("name", ["heis3", "covering"])
    def test_zero_inner_products_fail_fullness_where_h_is(
            self, one_pass_bundles, name, monkeypatch):
        E, h = one_pass_bundles[name]
        E = _mutated(E, _drop_star_over(h))
        cover = gk.greedy_bisection_cover(E.base)
        holding = {k for k, U in enumerate(cover) if h in U.arrows}
        got = _one_pass_against_oracle(E, cover, monkeypatch)
        for side, end in (("A", E.base.rng), ("B", E.base.src)):
            assert _failing(got, f"fullness_{side}") == holding
            for k in holding:
                assert got[k].entry(f"fullness_{side}").witness == \
                    f"inner products over {h!r} span rank 0 < {E.dim(end[h])}"
        assert not _failing(got, "imprimitivity")

    @pytest.mark.parametrize("change, names", [
        (_phase_product_over, ["imprimitivity"]),
        (_drop_star_over, ["fullness_B", "fullness_A"])])
    def test_two_failing_arrows_name_the_first_of_the_bisection(
            self, one_pass_bundles, monkeypatch, change, names):
        E, h = one_pass_bundles["covering"]
        U = gk.greedy_bisection_cover(E.base)[0].arrows
        assert h in U
        other = next(g for g in U if g != h and not E.base.is_unit(g))
        for g in (h, other):
            E = _mutated(E, change(g))
        for order in (U, U[::-1]):
            rep, = _one_pass_against_oracle(E, [order], monkeypatch)
            first = next(g for g in order if g in (h, other))
            for name in names:
                entry = rep.entry(name)
                assert not entry.passed and f"{first!r}" in entry.witness
            if names == ["imprimitivity"]:  # equal residuals
                assert entry.residual == np.sqrt(2)


def test_verify_axioms_heis5_bounds():
    """Time and traced-memory guard on the heis5 quotient bundle (125
    slots): the per-element path peaked at 34 MB and took 9.5 s traced."""
    import time
    import tracemalloc
    E = gk.build_bundle(corpus.heisenberg_quotient(5))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rep = gk.verify_axioms(E, samples=20)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.saturated
    assert peak <= 33 * 2 ** 20
    assert elapsed < 5.0


def test_verify_axioms_cuntz_window_memory_is_bounded():
    """Traced-memory gate on the Cuntz window at depth 3 (64 arrows, fibers
    of dimension 1 to 64): the Gram blocks and their roots are kept at
    their own size, and the pair lookups keep no sort. With each block
    padded to the largest fiber dimension, verify_axioms peaked at 17.1
    MiB and held 10.2 MiB after it returned; at their own size, 6.5 MiB
    and 2.3 MiB, of which 1.1 MiB were sorted keys and orders of the
    table entries; as runs of the base's layout, 5.4 MiB and 1.2 MiB."""
    pi = corpus.graph_path_groupoid_morphism(corpus.cuntz_graphs()[2], 3)
    E = gk.build_bundle(pi)
    tracemalloc.start()
    try:
        rep = gk.verify_axioms(E)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 10 * 2 ** 20 and held < 2.5 * 2 ** 20


def test_twisted_star_weight_of_g_is_conj_omega_of_g_and_its_inverse():
    # random phases, no cocycle, so that omega(g, inv g) and
    # omega(inv g, g) differ; a Cocycle and its name mapping build one table
    pi = corpus.heisenberg_quotient(2)
    G = pi.domain
    rng = np.random.default_rng(9)
    om = gk.Cocycle(G, np.exp(2j * np.pi * rng.random(len(G.comp))))
    want = [complex(np.conj(om(g, G.inv[g]))) for g in G.arrows]
    assert want != [complex(np.conj(om(G.inv[g], g))) for g in G.arrows]
    for twist in (om, dict(om.omega)):
        E = gk.build_bundle(pi, twist)
        T = E.table()
        sw = np.zeros(T.dim, complex)
        sw[T.s] = T.sw
        assert sw[E.psi_slots].tolist() == want


def test_cocycle_on_a_copy_of_the_domain_twists_by_pair_names():
    # the copy lists its arrows in reverse, so its table, in (a, b) order
    # of its own arrow indices, is not in the domain's order
    pi = corpus.heisenberg_quotient(2)
    G = pi.domain
    copy = gk.validate_groupoid(G.arrows[::-1], G.units, G.src, G.rng, G.inv,
                                G.comp)
    rng = np.random.default_rng(10)
    om = gk.Cocycle(copy, np.exp(2j * np.pi * rng.random(len(G.comp))))
    assert list(copy.comp) != list(G.comp)
    got, want = (gk.build_bundle(pi, twist).table()
                 for twist in (om, dict(om.omega)))
    for name in ("a", "b", "c", "w", "s", "t", "sw"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
