"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its runtime. Expected values marked as derived were computed by
the independent oracles in oracles.py and frozen here.
"""

import itertools
import json
import time

import numpy as np
import pytest

import gpdkit as gk
import gpdkit.io as gio
from gpdkit import corpus
from gpdkit.cli import main as cli_main

from oracles import (bundle_from, group_algebra_blocks,
                     loop_heisenberg_elements, matrix_units_check,
                     random_action, random_cocycle, table_arrays)


class _Timer:
    def __init__(self, label, limit):
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({elapsed:.2f}s, "
              f"limit {self.limit}s)")
        self.ok_time = elapsed < self.limit
        if exc_type is None:
            assert elapsed < self.limit, \
                f"{self.label} exceeded runtime limit: {elapsed:.2f}s"
        return False


def _bundle_setups():
    # built from the shipped demo corpus files wherever one exists
    pair2 = gio.load_groupoid(corpus.data_path("pair.groupoid.json"))
    heis3_quot = gio.load_morphism(
        corpus.data_path("heis3_quotient.morphism.json"))
    flip_cov = gio.load_morphism(
        corpus.data_path("flip_covering.morphism.json"))
    phi = gio.load_graph_morphism(
        corpus.data_path("cuntz.graphmorphism.json"))
    return [
        ("identity-pair", corpus.identity_morphism(pair2)),
        ("heis3-quotient", heis3_quot),
        ("flip-covering", flip_cov),
        ("cuntz-window", corpus.graph_path_groupoid_morphism(phi, 2)),
    ]


def test_criterion_1_fell_axiom_suite():
    with _Timer("1 (bundle axioms + saturation)", 10.0):
        for name, pi in _bundle_setups():
            E = gk.build_bundle(pi)
            rep = gk.verify_axioms(E, tol=1e-9, samples=100, seed=0)
            for entry in rep.entries:
                if entry.name.startswith("axiom"):
                    assert entry.passed, f"{name}: {entry.name}"
                    if entry.residual is not None:
                        assert entry.residual < 1e-9, \
                            f"{name}: {entry.name} residual {entry.residual}"
            assert rep.saturated, name


def test_criterion_2_restriction_isomorphism():
    with _Timer("2 (isometric *-isomorphism, blocks equal)", 30.0):
        for name, pi in _bundle_setups():
            iso = gk.psi_iso_check(pi, tol=1e-9, seed=0)
            entries = {e.name: e for e in iso.entries}
            assert entries["linear_bijection"].passed, name
            assert entries["multiplicative"].passed, name
            assert entries["star_preserving"].passed, name
            assert entries["isometric"].passed, name
            assert entries["isometric"].residual <= 1e-8, name
            assert iso.blocks_domain == iso.blocks_bundle, name


def test_criterion_3_graph_kernel_fibers():
    with _Timer("3 (126 words, blocks 2^{ones})", 5.0):
        phi = gio.load_graph_morphism(
            corpus.data_path("cuntz.graphmorphism.json"))
        count = 0
        for n in range(1, 7):
            for w in itertools.product("12", repeat=n):
                _, blocks = gk.kernel_fiber_groupoid(phi, w)
                ones = sum(1 for ch in w if ch == "1")
                assert blocks.blocks == (2 ** ones,), w
                count += 1
        assert count == 126


def test_criterion_4_heisenberg(capsys):
    with _Timer("4 (heisenberg demo, exact cocycle)", 10.0):
        # frozen from the enumeration oracle over conjugacy classes and
        # the abelianization; recomputed here to keep the oracle honest
        expected = {2: (2, 1, 1, 1, 1),
                    3: (3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1)}
        for n in (2, 3):
            elements, mul, _ = loop_heisenberg_elements(n)
            assert group_algebra_blocks(elements, mul) == expected[n]

        for n in (2, 3):
            code = cli_main(["demo", "heisenberg", "--n", str(n),
                             "--samples", "50"])
            out = capsys.readouterr().out
            payload = json.loads(out)
            assert code == 0
            assert payload["pass"] is True
            assert tuple(payload["blocks"]) == expected[n]
            checks = {c["name"]: c for c in payload["checks"]}
            entry = checks["cocycle_matches_closed_form"]
            assert entry["pass"] and entry["residual"] == 0.0
            assert checks["ext_wedderburn_equal"]["pass"]
            assert checks["psi_wedderburn_equal"]["pass"]


def test_criterion_5_covering_action_roundtrip():
    with _Timer("5 (covering <-> action round trip)", 10.0):
        actions = [corpus.flip_action()]
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            actions.append(random_action(rng, max_arrows=24, max_points=8))
        for a in actions:
            ag = gk.build_action_groupoid(a)
            assert ag.classification.covering
            ca = gk.covering_to_action(ag.projection)
            assert ca.exact  # table-level isomorphism, no tolerance


def test_criterion_6_abelian_extraction():
    with _Timer("6 (twisted covering extraction)", 30.0):
        for seed in range(10):
            rng = np.random.default_rng(2000 + seed)
            a = random_action(rng)
            ag = gk.build_action_groupoid(a)
            om0 = random_cocycle(ag.groupoid, rng)
            E = gk.build_bundle(ag.projection, twist=om0)
            res = gk.abelian_extract(E, tol=1e-9, seed=seed)
            assert res.passed, seed
            crep = gk.cocycle_check(res.cocycle)
            assert crep.entry("cocycle_identity").residual <= 1e-12
            assert crep.entry("cocycle_modulus").residual <= 1e-12
            assert res.blocks_twisted == res.blocks_bundle, seed


def test_criterion_7_oracle_baselines():
    with _Timer("7 (block baselines + faithfulness)", 5.0):
        for n in range(2, 7):
            G = corpus.pair_groupoid(n)
            assert matrix_units_check(G)   # oracle for M_n
            assert gk.wedderburn(G).blocks == (n,)
        for k in range(1, 9):
            G = corpus.cyclic_groupoid(k)
            assert gk.wedderburn(G).blocks == tuple([1] * k)
        for G in (corpus.pair_groupoid(2), corpus.cyclic_groupoid(3),
                  corpus.heisenberg_groupoid(2),
                  corpus.heisenberg_groupoid(3),
                  corpus.zn_square_groupoid(3)):
            assert gk.faithfulness_defect(G)[0] == 0


def test_criterion_8_negative_controls():
    with _Timer("8 (negative controls)", 1.0):
        with pytest.raises(gk.AssociativityFailure) as exc:
            gk.validate_groupoid(*corpus.corrupted_z3_tables())
        assert exc.value.witness == ("g1", "g1", "g1") or \
            exc.value.witness is not None

        flip = gk.build_action_groupoid(corpus.flip_action())
        E = gk.build_bundle(flip.projection)
        # e_0* = 2 e_0 in the first unit fiber: no longer involutive
        arrays = table_arrays(E)
        slot = E.first[E.base.units[0]]
        arrays["t"][arrays["s"] == slot] = slot
        arrays["sw"][arrays["s"] == slot] = 2.0
        broken = bundle_from(E, arrays)
        rep = gk.verify_axioms(broken, samples=10)
        entry = rep.entry("axiom7_involutive")
        assert not entry.passed and entry.witness is not None

        with pytest.raises(gk.NotACovering) as exc2:
            gk.covering_to_action(corpus.heisenberg_quotient(3))
        assert exc2.value.witness is not None
