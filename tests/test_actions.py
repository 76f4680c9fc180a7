import numpy as np
import pytest

import gpdkit as gk
from gpdkit import corpus

from oracles import random_action, random_cocycle, random_coboundary


class TestActionGroupoid:
    def test_flip_is_pair_groupoid(self, flip_groupoid):
        G = flip_groupoid.groupoid
        assert len(G.arrows) == 4 and len(G.units) == 2
        # explicit isomorphism with the pair groupoid: full relation on
        # two points, every pair of units connected by a unique arrow
        for u in G.units:
            for v in G.units:
                arrows = [g for g in G.arrows
                          if G.src[g] == u and G.rng[g] == v]
                assert len(arrows) == 1
        gk.validate_groupoid(G.arrows, G.units, G.src, G.rng, G.inv, G.comp)

    def test_trivial_action_recovers_groupoid(self, pair2):
        ag = gk.build_action_groupoid(corpus.trivial_action(pair2))
        G = ag.groupoid
        assert len(G.arrows) == len(pair2.arrows)
        iso = {g: ag.pairs[g] for g in G.arrows}
        for g, (h, x) in iso.items():
            assert pair2.src[h] == x
        cls = gk.classify_morphism(ag.projection)
        assert cls.covering

    def test_projections_are_coverings(self, flip_groupoid):
        assert flip_groupoid.classification.covering

    def test_action_axiom_violation_detected(self):
        H = corpus.cyclic_groupoid(2)
        bad = gk.GroupoidAction(H, ("x", "y"), {"x": "g0", "y": "g0"},
                                {("g0", "x"): "x", ("g0", "y"): "y",
                                 ("g1", "x"): "x", ("g1", "y"): "x"})
        with pytest.raises(gk.ActionAxiomViolation):
            gk.build_action_groupoid(bad)


class TestCoveringToAction:
    def test_flip_roundtrip(self, flip_groupoid):
        ca = gk.covering_to_action(flip_groupoid.projection)
        assert ca.exact
        # the recovered action swaps the two points over the nontrivial
        # group element
        a = ca.action
        swap = [a.act[("g1", x)] for x in a.points]
        assert set(swap) == set(a.points)
        assert all(a.act[("g1", x)] != x for x in a.points)

    def test_identity_covering_gives_trivial_action(self, pair2):
        ca = gk.covering_to_action(corpus.identity_morphism(pair2))
        assert ca.exact
        assert set(ca.action.points) == set(pair2.units)

    def test_heis3_quotient_rejected(self, heis3_quotient):
        with pytest.raises(gk.NotACovering) as exc:
            gk.covering_to_action(heis3_quotient)
        assert exc.value.witness is not None

    def test_roundtrip_of_an_action_classifies_once(self, monkeypatch,
                                                    capsys):
        # only covering_to_action classifies: the action groupoid's
        # classification is read on first use, and the roundtrip reads none
        import gpdkit.actions as actions
        from gpdkit.cli import main
        calls = []

        def counted(pi):
            calls.append(pi)
            return classify(pi)
        classify = actions.classify_morphism
        monkeypatch.setattr(actions, "classify_morphism", counted)
        assert main(["action", "roundtrip", "--action",
                     corpus.data_path("flip.action.json")]) == 0
        assert len(calls) == 1
        assert '"roundtrip_isomorphism_exact"' in capsys.readouterr().out

    def test_random_actions_roundtrip(self):
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            a = random_action(rng)
            ag = gk.build_action_groupoid(a)
            assert ag.classification.covering
            ca = gk.covering_to_action(ag.projection)
            assert ca.exact


class TestCocycles:
    def test_trivial_cocycle_passes(self, z3):
        rep = gk.cocycle_check(gk.trivial_cocycle(z3))
        assert rep.passed

    def test_coboundaries_pass(self, heis3):
        rng = np.random.default_rng(0)
        for _ in range(5):
            rep = gk.cocycle_check(random_coboundary(heis3, rng), 1e-12)
            assert rep.passed

    def test_bilinear_cocycle_on_zn2(self):
        for n in (2, 3, 4):
            rep = gk.cocycle_check(corpus.zn2_bilinear_cocycle(n), 1e-12)
            assert rep.passed

    def test_identity_failure_detected(self, z3):
        om = gk.trivial_cocycle(z3)
        table = dict(om.omega)
        table[("g1", "g1")] = 1j
        bad = gk.Cocycle(z3, table)
        rep = gk.cocycle_check(bad)
        assert not rep.passed
        # the shifted entry enters each identity it fails once, next to
        # unit values
        identity = rep.entry("cocycle_identity")
        assert identity.residual == pytest.approx(abs(1j - 1))
        assert identity.witness.count("'g") == 3
        with pytest.raises(gk.CocycleIdentityFailure):
            gk.twisted_algebra(z3, bad)

    def test_missing_pair_detected(self, z3):
        table = dict(gk.trivial_cocycle(z3).omega)
        del table[("g1", "g2")]
        with pytest.raises(gk.CocycleIdentityFailure):
            gk.cocycle_check(gk.Cocycle(z3, table))

    @pytest.mark.parametrize("build", [
        gk.twisted_algebra, gk.line_bundle,
        lambda G, om: gk.build_bundle(corpus.identity_morphism(G), twist=om)],
        ids=["twisted_algebra", "line_bundle", "build_bundle"])
    @pytest.mark.parametrize("case", ["missing", "stray"])
    def test_incomplete_or_stray_cocycle_is_refused(self, z3, build, case):
        # missing: two pairs, listed against composable_pairs order, whose
        # first in that order is the witness; stray: a key that is no
        # composable pair, whose value 5 would count in modulus_residual
        table = dict(reversed(list(gk.trivial_cocycle(z3).omega.items())))
        if case == "missing":
            del table[("g1", "g2")], table[("g2", "g1")]
            pair, message = ("g2", "g1"), "cocycle missing on pair {!r}"
        else:
            table[("g1", "zz")] = 5
            pair = ("g1", "zz")
            message = "cocycle defined on {!r}, not a composable pair"
        with pytest.raises(gk.CocycleIdentityFailure) as exc:
            build(z3, gk.Cocycle(z3, table))
        assert str(exc.value) == message.format(pair)
        assert exc.value.witness == pair


class TestCocycleTable:
    """A Cocycle keeps its values once, as the weights of its table."""

    @pytest.fixture
    def cocycle(self):
        # random phases, no cocycle: omega(inv g, g) != omega(g, inv g)
        G = gk.build_action_groupoid(random_action(
            np.random.default_rng(4))).groupoid
        rng = np.random.default_rng(5)
        return gk.Cocycle(G, np.exp(2j * np.pi * rng.random(len(G.comp))))

    def test_mapping_and_its_own_weights_build_one_cocycle(self, cocycle):
        G = cocycle.base
        again = gk.Cocycle(G, dict(reversed(list(cocycle.omega.items()))))
        for name in ("a", "b", "c", "w", "s", "t", "sw"):
            assert np.array_equal(getattr(again.table, name),
                                  getattr(cocycle.table, name))
        assert dict(again.omega) == dict(cocycle.omega)
        # conj omega(inv g, g) as the star weight of g
        assert again.table.sw.tolist() == [
            complex(np.conj(cocycle(G.inv[g], g))) for g in G.arrows]

    def test_weights_are_copied_and_read_only(self, cocycle):
        w = cocycle.table.w.copy()
        om = gk.Cocycle(cocycle.base, w)
        w[0] = 5.0
        assert om.table.w[0] == cocycle.table.w[0]
        assert not om.table.w.flags.writeable

    def test_weights_of_the_wrong_length_are_refused(self, cocycle):
        for w in (cocycle.table.w[:-1], np.append(cocycle.table.w, 1.0)):
            with pytest.raises(ValueError):
                gk.Cocycle(cocycle.base, w)

    def test_omega_is_a_read_only_view_in_table_order(self, cocycle):
        G, T = cocycle.base, cocycle.table
        assert list(cocycle.omega) == list(zip(G.names(T.a), G.names(T.b)))
        assert list(cocycle.omega.values()) == T.w.tolist()
        assert len(cocycle.omega) == len(T.a)
        with pytest.raises(TypeError):
            cocycle.omega[next(iter(cocycle.omega))] = 1.0


class TestTwistedAlgebra:
    def test_trivial_twist_matches_plain_algebra(self, heis3):
        ta = gk.twisted_algebra(heis3, gk.trivial_cocycle(heis3))
        rng = np.random.default_rng(1)
        for _ in range(10):
            c1 = rng.standard_normal(27) + 1j * rng.standard_normal(27)
            c2 = rng.standard_normal(27) + 1j * rng.standard_normal(27)
            f1 = gk.AlgebraElement(heis3, c1)
            f2 = gk.AlgebraElement(heis3, c2)
            assert np.allclose(ta.convolve(c1, c2),
                               gk.convolve(f1, f2).coeffs)
            assert np.allclose(ta.table.star(c1), gk.involute(f1).coeffs)
            assert ta.norm(c1) == pytest.approx(gk.cstar_norm(heis3, f1),
                                                rel=1e-12)
        assert ta.wedderburn().blocks == gk.wedderburn(heis3).blocks

    def test_z2_sign_twist(self):
        # oracle: the twisted table is [[0,-1],[1,0]] with spectrum {i,-i}
        Z2 = corpus.cyclic_groupoid(2)
        om = gk.Cocycle(Z2, {("g0", "g0"): 1, ("g0", "g1"): 1,
                             ("g1", "g0"): 1, ("g1", "g1"): -1})
        ta = gk.twisted_algebra(Z2, om)
        c = np.array([0.0, 1.0], dtype=complex)
        M = ta.rep.matrices(c)[0]
        eigs = sorted(np.linalg.eigvals(M), key=lambda z: z.imag)
        assert abs(eigs[0] + 1j) < 1e-12 and abs(eigs[1] - 1j) < 1e-12
        assert ta.wedderburn().blocks == (1, 1)

    def test_twisted_star_is_isometric_involution(self, flip_groupoid):
        G = flip_groupoid.groupoid
        rng = np.random.default_rng(2)
        om = random_coboundary(G, rng)
        ta = gk.twisted_algebra(G, om)
        for _ in range(20):
            c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert np.allclose(ta.table.star(ta.table.star(c)), c)
            assert ta.norm(ta.table.star(c)) == pytest.approx(ta.norm(c),
                                                        rel=1e-10)
            # delta_g* delta_g = delta at the source unit, exactly
        for g in G.arrows:
            c = np.zeros(4, dtype=complex)
            c[G.index[g]] = 1.0
            out = ta.convolve(ta.table.star(c), c)
            expected = np.zeros(4, dtype=complex)
            expected[G.index[G.src[g]]] = 1.0
            assert np.allclose(out, expected, atol=1e-12)

    def test_twisted_convolution_associative(self, flip_groupoid):
        # associativity of the twisted product rides on the cocycle
        # identity; re-verified numerically on random triples
        G = flip_groupoid.groupoid
        rng = np.random.default_rng(6)
        om = random_cocycle(G, rng)
        ta = gk.twisted_algebra(G, om)
        for _ in range(20):
            c1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            c2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            c3 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            lhs = ta.convolve(ta.convolve(c1, c2), c3)
            rhs = ta.convolve(c1, ta.convolve(c2, c3))
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_line_bundle_semantics(self):
        # basis products of the line bundle follow (g1, z1)(g2, z2) =
        # (g1 g2, z1 z2) with z the cocycle phases
        G = corpus.zn_square_groupoid(2)
        om = corpus.zn2_bilinear_cocycle(2)
        L = gk.line_bundle(G, om)
        from gpdkit.bundle import FiberElement, fiber_mul
        for (g1, g2), g12 in G.comp.items():
            out = fiber_mul(FiberElement.basis(L, g1, 0),
                            FiberElement.basis(L, g2, 0))
            assert out.arrow == g12
            assert out.vec[0] == om(g1, g2)


class TestAbelianExtract:
    def test_flip_untwisted(self, flip_groupoid):
        E = gk.build_bundle(flip_groupoid.projection)
        res = gk.abelian_extract(E)
        assert res.passed
        assert len(res.points) == 2
        # swap action recovered, trivial cocycle
        a = res.action
        assert all(a.act[("g1", x)] != x for x in a.points)
        assert max(abs(v - 1.0) for v in res.cocycle.omega.values()) < 1e-10

    def test_twisted_roundtrip_wedderburn_class(self, flip_groupoid):
        rng = np.random.default_rng(3)
        G = flip_groupoid.groupoid
        om0 = random_cocycle(G, rng)
        E = gk.build_bundle(flip_groupoid.projection, twist=om0)
        res = gk.abelian_extract(E)
        assert res.passed
        ta0 = gk.twisted_algebra(G, om0)
        assert res.blocks_twisted == ta0.wedderburn().blocks

    def test_corners_are_normed_once_per_arrow(self, flip_groupoid,
                                               monkeypatch):
        from gpdkit import actions
        from gpdkit.fiberblocks import FiberBlocks
        rng = np.random.default_rng(5)
        E = gk.build_bundle(flip_groupoid.projection,
                            twist=random_cocycle(
                                flip_groupoid.groupoid, rng))
        # markers: the projections found, the action built (the corner
        # pass lies between), each LAPACK call and each squared row stack
        calls = []

        def spy(owner, name, mark):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(
                mark(*a)) or fn(*a, **k))
        spy(actions, "central_projections", lambda *a: "projections")
        spy(actions, "build_action_groupoid", lambda *a: "action")
        spy(actions, "stacked_ranks", lambda *a: "stacked_ranks")
        spy(FiberBlocks, "fiber_norms", lambda *a: "fiber_norms")
        spy(FiberBlocks, "square", lambda self, h, *a: len(h))
        for name in ("svd", "eigvalsh"):
            spy(np.linalg, name, lambda *a, name=name: name)
        res = gk.abelian_extract(E)
        assert res.passed
        assert "fiber_norms" not in calls and "stacked_ranks" not in calls
        last = len(calls) - calls[::-1].index("projections")
        corner_pass = calls[last:calls.index("action")]
        assert not {"svd", "eigvalsh"} & set(corner_pass)
        # the corner pass squares fewer stacks than there are base arrows,
        # holding the corners of all 2 x 2 point pairs over every arrow once
        H = E.base
        total = sum(4 * E.dim(h) for h in H.arrows)
        reached = list(np.cumsum(corner_pass))
        assert total in reached
        assert reached.index(total) + 1 < len(H.arrows)
        monkeypatch.undo()
        # every line vector (a column of the basis map) has norm 1
        for col, (h, x) in zip(res.basis_map.T, res.action_groupoid.pairs
                               .values()):
            vec = col[E.first[h]:E.first[h] + E.dim(h)]
            assert gk.fiber_norm(gk.FiberElement(E, h, vec)) == \
                pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _outcome(E, monkeypatch, change, fallback):
        """(exception class, message, witness) or (None, check names and
        flags) of abelian_extract with the projections of its one solve of
        the unit fibers passed through ``change``, and whether the corner
        pass called stacked_ranks; with ``fallback`` every corner takes the
        stacked norms and ranks."""
        from gpdkit import actions
        found, ranked = actions.central_projections, []

        def changed(table, *a, **k):  # change the rows of the e_i
            (i, j, v), sizes, *rest = found(table, *a, **k)
            P = np.zeros((len(sizes), table.dim), dtype=complex)
            np.add.at(P, (i, j), v)
            P = np.array(change(list(P)))
            i, j = np.nonzero(P)
            return ((i, j, P[i, j]), np.ones(len(P), np.int64), *rest)
        monkeypatch.setattr(actions, "central_projections", changed)
        ranks = actions.stacked_ranks
        monkeypatch.setattr(actions, "stacked_ranks",
                            lambda *a: ranked.append(1) or ranks(*a))
        if fallback:
            monkeypatch.setattr(actions, "_TRACE_TOL", -1.0)
        try:
            res = gk.abelian_extract(E)
            out = (None, [(e.name, e.passed) for e in res.entries])
        except (gk.FellBundleError, gk.NumericalDegeneracy) as exc:
            out = (type(exc), str(exc), getattr(exc, "witness", None))
        monkeypatch.undo()
        return out, bool(ranked)

    def test_merged_points_raise_dimension_two(self, flip_groupoid,
                                               monkeypatch):
        # the two minimal projections of each unit fiber merged into its
        # unit: the corner of the unit over a unit arrow has trace 2
        E = gk.build_bundle(flip_groupoid.projection)

        def merged(vecs):
            return [vecs[0] + vecs[1], *vecs[2:]]
        got, ranked = self._outcome(E, monkeypatch, merged, False)
        assert not ranked
        assert got[0] is gk.LineDimensionFailure
        assert "has dimension 2" in got[1]
        assert self._outcome(E, monkeypatch, merged, True) == (got, True)

    @pytest.mark.parametrize("change, message, witness", [
        (lambda vecs: [vecs[0], *vecs],
         "point 'g0#p1' pairs with 2 targets over 'g0'", ("g0", "g0#p1")),
        (lambda vecs: vecs[1:],
         "point 'g0#p0' pairs with 0 targets over 'g1'", ("g1", "g0#p0"))],
        ids=["duplicated", "dropped"])
    def test_broken_points_fail_the_corner_pass(self, flip_groupoid,
                                                monkeypatch, change, message,
                                                witness):
        # a first projection listed twice gives a point two targets over
        # the unit; without it, the other point has none over g1
        E = gk.build_bundle(flip_groupoid.projection)
        got = (gk.LineDimensionFailure, message, witness)
        assert self._outcome(E, monkeypatch, change, False) == (got, False)
        assert self._outcome(E, monkeypatch, change, True) == (got, True)

    def test_negated_projection_has_no_vector_of_positive_norm(
            self, flip_groupoid, monkeypatch):
        # -p is no projection, but q -> (-p) q (-p) is p q p: its corner has
        # trace 1, and tau(z* z) / tau(-p) < 0 reads as norm 0. The stacked
        # ranks and norms of the fallback admit the line, and the result
        # fails its normalization and star checks instead
        E = gk.build_bundle(flip_groupoid.projection)

        def negated(vecs):
            return [-vecs[0], *vecs[1:]]
        assert self._outcome(E, monkeypatch, negated, False) == (
            (gk.LineDimensionFailure, "corner over 'g0' between 'g0#p0' and "
             "'g0#p0' has no vector of positive norm",
             ("g0", "g0#p0", "g0#p0")), False)
        assert self._outcome(E, monkeypatch, negated, True) == ((None, [
            ("action_axioms", True), ("line_products_consistent", True),
            ("cocycle_identity", True), ("cocycle_modulus", True),
            ("cocycle_normalized", False), ("wedderburn_equal", True),
            ("basis_map_multiplicative", True), ("basis_map_star", False),
            ("basis_map_isometric", False)]), True)

    def test_merged_targets_make_a_point_map_not_injective(self,
                                                           monkeypatch):
        # pair(2) on two points over each unit; the first projection of the
        # second unit listed twice in the one solve of both unit fibers
        # (columns 2 and 3 are the second unit's): both points over (2,2)
        # go to one point over (1,1) along (1,2), before that unit's own
        # corners are read
        H = corpus.pair_groupoid(2)
        over = {u: [f"{u}x{i}" for i in range(2)] for u in H.units}
        action = gk.GroupoidAction(
            H, [x for u in H.units for x in over[u]],
            {x: u for u in H.units for x in over[u]},
            {(h, x): y for h in H.arrows
             for x, y in zip(over[H.src[h]], over[H.rng[h]])})
        E = gk.build_bundle(gk.build_action_groupoid(action).projection)

        def second_doubled(vecs):
            assert len(vecs) == 4
            return [*vecs, next(v for v in vecs if v[2:].any())]
        got = (gk.LineDimensionFailure,
               "induced point map over '(1,2)' is not injective", "(1,2)")
        for fallback in (False, True):
            assert self._outcome(E, monkeypatch, second_doubled,
                                 fallback) == (got, fallback)

    def test_one_solve_of_the_unit_fibers_matches_a_solve_per_unit(self):
        # the quotients of heis2 and heis3 side by side: two units whose
        # fibers are the group algebras of the centers Z2 and Z3. The
        # points of the one solve are those of each unit fiber's own
        # table, solved alone, in the same order
        from gpdkit.actions import _unit_points
        from gpdkit.algebra import StructureTable, central_projections
        from gpdkit.fiberblocks import fiber_blocks
        parts = [corpus.heisenberg_quotient(n) for n in (2, 3)]
        pi = gk.GroupoidMorphism(
            corpus.disjoint_union([(i, p.domain) for i, p in
                                   enumerate(parts)]),
            corpus.disjoint_union([(i, p.codomain) for i, p in
                                   enumerate(parts)]),
            np.concatenate([parts[0].image, parts[1].image + 4]))
        H = pi.codomain
        B = fiber_blocks(gk.build_bundle(pi))
        count, PX = _unit_points(B)
        T, first = B.table, 0
        for u, n in zip(H.unit_idx.tolist(), count.tolist()):
            d = int(B.dims[u])
            on = B.arrow == u
            e = np.flatnonzero(on[T.a] & on[T.b] & on[T.c])
            (i, a, v), sizes, *_ = central_projections(
                StructureTable(d, B.loc[T.a[e]], B.loc[T.b[e]],
                               B.loc[T.c[e]], T.w[e], [], [], []),
                (d, np.arange(d), np.arange(d), np.ones(d)))
            P = np.zeros((len(sizes), B.D), dtype=complex)
            np.add.at(P, (i, a), v)
            P = P[sorted(range(len(P)), key=lambda r: tuple(
                np.round(P[r], 6).view(float)))]
            assert n == d == len(P) > 1
            np.testing.assert_allclose(PX[first:first + n], P, atol=1e-12)
            first += n
        assert first == len(PX)

    def test_scaled_projection_takes_the_svd_fallback(self, flip_groupoid,
                                                      monkeypatch):
        # 0.9 p is no projection: its corner traces are 0.9, not integers,
        # so the corners take the stacked norms and ranks, as before (the
        # run ends in the twisted algebra's Wedderburn solve)
        E = gk.build_bundle(flip_groupoid.projection)

        def scaled(vecs):
            return [0.9 * vecs[0], *vecs[1:]]
        got, ranked = self._outcome(E, monkeypatch, scaled, False)
        assert ranked
        assert self._outcome(E, monkeypatch, scaled, True) == (got, True)
        assert self._outcome(E, monkeypatch, list, False) == (
            (None, [(e.name, e.passed)
                    for e in gk.abelian_extract(E).entries]), False)

    def test_random_covering_extractions(self):
        for seed in range(6):
            rng = np.random.default_rng(4000 + seed)
            a = random_action(rng)
            ag = gk.build_action_groupoid(a)
            om0 = random_cocycle(ag.groupoid, rng)
            E = gk.build_bundle(ag.projection, twist=om0)
            res = gk.abelian_extract(E, seed=seed)
            assert res.passed
            crep = gk.cocycle_check(res.cocycle)
            assert crep.entry("cocycle_identity").residual <= 1e-12
            assert crep.entry("cocycle_modulus").residual <= 1e-12
            assert res.blocks_twisted == res.blocks_bundle

    @pytest.mark.parametrize("n", [2, 3])
    def test_heisenberg_extraction_matches_characters(self, n):
        from gpdkit.extensions import unit_root
        E = gk.build_bundle(corpus.heisenberg_quotient(n))
        assert E.is_abelian()
        res = gk.abelian_extract(E)
        assert res.passed
        assert len(res.points) == n

        def char_index(x):
            vec = res.projections[x]
            v1 = vec[1] * n  # coefficient at the center generator
            for k in range(n):
                if abs(np.conj(unit_root(k, n)) - v1) < 1e-8:
                    return k
            raise AssertionError(x)

        # with the group-element gauge the extracted twist evaluates the
        # source character at a b', matching the closed form
        for (g1, g2), val in res.cocycle.omega.items():
            h1, _ = res.action_groupoid.pairs[g1]
            h2, x2 = res.action_groupoid.pairs[g2]
            a = int(h1.strip("()").split(",")[0])
            b2 = int(h2.strip("()").split(",")[1])
            expected = unit_root(char_index(x2) * a * b2, n)
            assert abs(val - expected) < 1e-10
        blocks = {2: (2, 1, 1, 1, 1), 3: (3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1)}
        assert res.blocks_twisted == blocks[n]

    def test_nonabelian_rejected(self, heis3_quotient):
        # bundle over the isotropy quotient of the Heisenberg group has
        # the full group algebra as unit fiber only when the quotient is
        # trivial; build a genuinely nonabelian unit fiber instead
        G = corpus.heisenberg_groupoid(2)
        R, pi = gk.isotropy_quotient(G)
        E = gk.build_bundle(pi)
        assert not E.is_abelian()
        with pytest.raises(gk.NotAbelian):
            gk.abelian_extract(E)

    def test_degenerate_unit_fiber_is_rejected_before_its_solve(
            self, flip_groupoid, monkeypatch):
        # e_0* = 0 in the unit fiber: its trace form is degenerate, while
        # the products, all that the solve reads, stay intact
        from gpdkit import actions
        from oracles import bundle_from, table_arrays
        E = gk.build_bundle(flip_groupoid.projection)
        u = E.base.units[0]
        arrays = table_arrays(E)
        keep = arrays["s"] != E.first[u]
        for k in ("s", "t", "sw"):
            arrays[k] = arrays[k][keep]
        E = bundle_from(E, arrays)
        solves = []
        monkeypatch.setattr(actions, "central_projections",
                            lambda *a: solves.append(a))
        with pytest.raises(gk.FellBundleError,
                           match="degenerate trace form") as exc:
            gk.abelian_extract(E)
        assert exc.value.witness == u and solves == []

    def test_nonsaturated_rejected(self):
        E = gk.build_bundle(corpus.nonsaturated_surjection())
        with pytest.raises(gk.NotSaturated):
            gk.abelian_extract(E)
