import pytest

import gpdkit as gk
from gpdkit import corpus
from gpdkit.groupoid import pair_id


def test_pair_groupoid_validates(pair2):
    assert len(pair2.arrows) == 4
    assert len(pair2.units) == 2


def test_z3_validates(z3):
    assert len(z3.arrows) == 3
    assert len(z3.units) == 1


def test_composition_convention_roundtrip(pair2, z3, heis3):
    # g * inv(g) = rng(g) on every arrow of every corpus groupoid
    for G in (pair2, z3, heis3):
        for g in G.arrows:
            assert G.comp[(g, G.inv[g])] == G.rng[g]
            assert G.comp[(G.inv[g], g)] == G.src[g]


def test_associativity_exhaustive_oracle(pair2, heis3):
    # independent triple loop, not the validator's
    for G in (pair2, heis3):
        for g1 in G.arrows:
            for g2 in G.arrows:
                if G.src[g1] != G.rng[g2]:
                    continue
                for g3 in G.arrows:
                    if G.src[g2] != G.rng[g3]:
                        continue
                    left = G.comp[(G.comp[(g1, g2)], g3)]
                    right = G.comp[(g1, G.comp[(g2, g3)])]
                    assert left == right


def test_corrupted_z3_fails_associativity():
    raw = corpus.corrupted_z3_tables()
    with pytest.raises(gk.AssociativityFailure) as exc:
        gk.validate_groupoid(*raw)
    # g1*g1 was redirected to g0: the first failing triple in arrow order
    assert exc.value.witness == ("g1", "g1", "g2")


def test_missing_composite_detected(z3):
    comp = dict(z3.comp)
    del comp[("g1", "g2")]
    with pytest.raises(gk.MissingComposite):
        gk.validate_groupoid(z3.arrows, z3.units, z3.src, z3.rng, z3.inv,
                             comp)


def test_illegal_composite_detected(pair2):
    comp = dict(pair2.comp)
    comp[(pair_id(1, 2), pair_id(1, 2))] = pair_id(1, 2)  # not composable
    with pytest.raises(gk.IllegalComposite):
        gk.validate_groupoid(pair2.arrows, pair2.units, pair2.src, pair2.rng,
                             pair2.inv, comp)


def test_unit_failure_detected(z3):
    src = dict(z3.src)
    src["g1"] = "g1"  # not a unit
    with pytest.raises(gk.UnitFailure):
        gk.validate_groupoid(z3.arrows, z3.units, src, z3.rng, z3.inv,
                             z3.comp)


def test_inverse_failure_detected(z3):
    inv = dict(z3.inv)
    inv["g1"] = "g1"
    with pytest.raises(gk.InverseFailure):
        gk.validate_groupoid(z3.arrows, z3.units, z3.src, z3.rng, inv,
                             z3.comp)


class TestClassification:
    def test_heis3_quotient_is_fibration_not_covering(self, heis3_quotient):
        cls = gk.classify_morphism(heis3_quotient)
        assert cls.is_morphism and cls.surjective
        assert cls.fibration
        assert not cls.covering
        # oracle: exhaustive lift search over the 27 arrows
        pi = heis3_quotient
        G, H = pi.domain, pi.codomain
        for h in H.arrows:
            for x in G.units:
                if pi.map[x] != H.src[h]:
                    continue
                lifts = [g for g in G.arrows
                         if G.src[g] == x and pi.map[g] == h]
                assert len(lifts) == 3

    def test_flip_projection_is_covering(self, flip_groupoid):
        assert flip_groupoid.classification.covering

    def test_identity_is_covering(self, pair2):
        cls = gk.classify_morphism(corpus.identity_morphism(pair2))
        assert cls.covering

    def test_not_a_morphism_witness(self, z3):
        bad = gk.GroupoidMorphism(z3, z3,
                                  {"g0": "g0", "g1": "g1", "g2": "g1"})
        cls = gk.classify_morphism(bad)
        assert not cls.is_morphism
        assert cls.witness is not None
        with pytest.raises(gk.NotAMorphism):
            gk.check_morphism(bad)


class TestKernel:
    def test_heis3_kernel_is_center(self, heis3_quotient):
        dec = gk.kernel(heis3_quotient)
        assert set(dec.groupoid.arrows) == {f"[0,0,{c}]" for c in range(3)}
        # oracle: the center by brute conjugation
        G = heis3_quotient.domain
        center = {a for a in G.arrows
                  if all(G.comp[(a, b)] == G.comp[(b, a)] for b in G.arrows)}
        assert set(dec.groupoid.arrows) == center
        assert list(dec.fibers) == list(heis3_quotient.codomain.units)

    def test_covering_kernel_is_unit_space(self, flip_groupoid):
        dec = gk.kernel(flip_groupoid.projection)
        assert set(dec.groupoid.arrows) == \
            set(flip_groupoid.projection.domain.units)

    def test_identity_kernel_is_units(self, pair2):
        dec = gk.kernel(corpus.identity_morphism(pair2))
        assert set(dec.groupoid.arrows) == set(pair2.units)

    def test_kernel_requires_surjective(self, z3):
        pi = gk.GroupoidMorphism(z3, z3, {g: "g0" for g in z3.arrows})
        with pytest.raises(gk.NotSurjective):
            gk.kernel(pi)


class TestIsotropyQuotient:
    def test_z3_gives_point(self, z3):
        R, pi = gk.isotropy_quotient(z3)
        assert len(R.arrows) == 1
        dec = gk.kernel(pi)
        assert set(dec.groupoid.arrows) == set(z3.arrows)

    def test_pair_gives_pair(self, pair2):
        R, pi = gk.isotropy_quotient(pair2)
        assert len(R.arrows) == 4
        dec = gk.kernel(pi)
        assert set(dec.groupoid.arrows) == set(pair2.units)

    def test_group_gives_point(self, heis3):
        R, pi = gk.isotropy_quotient(heis3)
        assert len(R.arrows) == 1
        assert len(gk.kernel(pi).groupoid.arrows) == 27

    def test_quotient_is_surjective_fibration(self, pair2, z3, heis3):
        for G in (pair2, z3, heis3):
            _, pi = gk.isotropy_quotient(G)
            cls = gk.classify_morphism(pi)
            assert cls.surjective and cls.fibration


class TestBisections:
    def test_units_are_a_bisection(self, pair2):
        assert gk.check_bisection(pair2, pair2.units)

    def test_offdiagonal_bisection(self, pair2):
        # direct injectivity oracle: the two off-diagonal arrows have
        # distinct sources and distinct ranges
        s = [pair_id(1, 2), pair_id(2, 1)]
        assert {pair2.src[g] for g in s} == set(pair2.units)
        assert {pair2.rng[g] for g in s} == set(pair2.units)
        assert gk.check_bisection(pair2, s)

    def test_all_of_z3_is_not_a_bisection(self, z3):
        with pytest.raises(gk.NotABisection) as exc:
            gk.check_bisection(z3, z3.arrows)
        assert exc.value.witness is not None

    def test_greedy_cover_covers_everything(self, pair2, heis3):
        for G in (pair2, heis3):
            cover = gk.greedy_bisection_cover(G)
            covered = set()
            for bs in cover:
                gk.check_bisection(G, bs.arrows)
                covered.update(bs.arrows)
            assert covered == set(G.arrows)


def test_subgroupoid_rejects_non_closed(heis3):
    with pytest.raises(gk.NotASubgroupoid):
        gk.subgroupoid(heis3, ["[0,0,0]", "[1,0,0]"])
