"""Cross-module integration scenarios beyond the standing examples."""

import numpy as np
import pytest

import gpdkit as gk
from gpdkit import corpus

from oracles import random_action, random_cocycle


def test_isotropy_quotient_bundle_of_mixed_groupoid():
    # three orbits with different isotropy: M3 + C*(Z4) + M2 in one bundle
    G = corpus.disjoint_union([
        ("p3", corpus.pair_groupoid(3)),
        ("z4", corpus.cyclic_groupoid(4)),
        ("p2", corpus.pair_groupoid(2)),
    ])
    R, pi = gk.isotropy_quotient(G)
    cls = gk.classify_morphism(pi)
    assert cls.surjective and cls.fibration

    E = gk.build_bundle(pi)
    rep = gk.verify_axioms(E, samples=60)
    assert rep.axioms_pass and rep.saturated

    iso = gk.psi_iso_check(pi, bundle=E, axiom_report=rep)
    assert iso.passed
    assert iso.blocks_domain == (3, 2, 1, 1, 1, 1)

    # the kernel fiber over the Z4 orbit point is the whole group
    dec = gk.kernel(pi)
    z4_units = [x for x in pi.codomain.units if "z4" in str(x)]
    assert len(dec.fibers[z4_units[0]]) == 4


def test_action_of_mixed_groupoid_roundtrip_and_extraction():
    # one pair block and one cyclic block acting on a 6-point space
    rng = np.random.default_rng(99)
    for _ in range(3):
        a = random_action(rng, max_arrows=16, max_points=6)
        ag = gk.build_action_groupoid(a)
        ca = gk.covering_to_action(ag.projection)
        assert ca.exact
        om = random_cocycle(ag.groupoid, rng)
        E = gk.build_bundle(ag.projection, twist=om)
        res = gk.abelian_extract(E)
        assert res.passed


def test_moderate_scale_validation_and_blocks():
    # headroom check at a hundred arrows: exhaustive validation plus the
    # eigensolver pipeline stay fast and exact
    G = corpus.pair_groupoid(10)
    assert len(G.arrows) == 100
    assert gk.wedderburn(G).blocks == (10,)
    inv = gk.wedderburn(corpus.disjoint_union([
        ("a", corpus.pair_groupoid(5)),
        ("b", corpus.heisenberg_groupoid(2)),
    ]))
    assert inv.blocks == (5, 2, 1, 1, 1, 1)


def test_action_validation_failure_modes():
    H = corpus.cyclic_groupoid(2)
    with pytest.raises(gk.ActionAxiomViolation, match="surjective"):
        gk.validate_action(gk.GroupoidAction(H, (), {}, {}))
    with pytest.raises(gk.ActionAxiomViolation, match="iff"):
        gk.validate_action(gk.GroupoidAction(
            H, ("x",), {"x": "g0"}, {("g0", "x"): "x"}))  # g1 action missing
    with pytest.raises(gk.ActionAxiomViolation, match="unit"):
        gk.validate_action(gk.GroupoidAction(
            H, ("x", "y"), {"x": "g0", "y": "g0"},
            {("g0", "x"): "y", ("g0", "y"): "x",
             ("g1", "x"): "x", ("g1", "y"): "y"}))


def test_heisenberg_4_pipeline():
    # the machinery is not tied to the two acceptance moduli
    pi = corpus.heisenberg_quotient(4)
    E = gk.build_bundle(pi)
    rep = gk.verify_axioms(E, samples=40)
    assert rep.axioms_pass and rep.saturated
    inv = gk.wedderburn(pi.domain)
    assert sum(b * b for b in inv.blocks) == 64
    iso = gk.psi_iso_check(pi, bundle=E, axiom_report=rep)
    assert all(e.passed for e in iso.entries)
    assert iso.blocks_domain == iso.blocks_bundle == inv.blocks
    res = gk.group_extension_bundle(corpus.heisenberg_extension(4))
    assert res.passed
    assert res.blocks_group == inv.blocks
