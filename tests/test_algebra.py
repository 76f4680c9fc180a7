import functools
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gpdkit as gk
from gpdkit import algebra, corpus
from gpdkit.cli import main
from gpdkit.fiberblocks import stacked_ranks
from gpdkit.algebra import (AlgebraElement, StructureTable, _regular,
                            center_basis, random_element,
                            sparse_center_basis, wedderburn_from_tables)

from oracles import DenseSectionSpace, bundle_from, closure_table, \
    dense_center_basis, dense_faithfulness_defect, dense_norms, \
    group_algebra_blocks, group_convolution, isometry_defect, \
    loop_center_basis, loop_class_center, loop_heisenberg_elements, \
    matrix_units_check, random_action, random_cocycle, raw_groupoid, \
    table_arrays, table_products

coeff3 = st.lists(st.floats(-5, 5), min_size=6, max_size=6)


def _mixed_union():
    """Unit blocks of sizes 1, 2 and 3 next to a one-unit block of 4."""
    return corpus.disjoint_union([("c", corpus.cyclic_groupoid(4)),
                                  ("p", corpus.pair_groupoid(2)),
                                  ("q", corpus.pair_groupoid(3)),
                                  ("z", corpus.cyclic_groupoid(1))])


def _rescaled_covering_bundle(rng):
    """A twisted covering whose base units carry 4, 6, 4, 2 and 3 slots:
    source-unit summands of four sizes; each slot e_j is rescaled to
    s_j e_j, so the Gram roots T vary in a summand."""
    ag = gk.build_action_groupoid(
        random_action(np.random.default_rng(4017)))
    E = gk.build_bundle(ag.projection, twist=random_cocycle(
        ag.groupoid, rng))
    arrays = table_arrays(E)
    sc = rng.uniform(0.5, 2.0, E.total_dim())
    arrays["w"] *= sc[arrays["a"]] * sc[arrays["b"]] / sc[arrays["c"]]
    arrays["sw"] *= sc[arrays["s"]] / sc[arrays["t"]]
    return bundle_from(E, arrays)


@functools.lru_cache(maxsize=None)
def _norm_case(kind):
    """(a RegularRepresentation, its per-row dense oracle): of a groupoid
    with unit blocks of four sizes, of the same groupoid twisted, or of
    the section space of a rescaled bundle (Gram roots)."""
    rng = np.random.default_rng(4)
    if kind == "sections":
        E = _rescaled_covering_bundle(rng)
        dense = DenseSectionSpace(E)
        return (gk.bundle.SectionSpace(E).rep,
                lambda X: np.array([dense.op_norm(x) for x in X]))
    G = _mixed_union()
    rep = gk.RegularRepresentation(G) if kind == "groupoid" else \
        gk.TwistedConvolutionAlgebra(G, random_cocycle(G, rng)).rep
    src = [G.src[g] for g in G.arrows]
    return rep, lambda X: dense_norms(rep.table, src, X)


def test_delta_convolution_point_masses(pair2):
    from gpdkit.groupoid import pair_id
    d12 = AlgebraElement.delta(pair2, pair_id(1, 2))
    d21 = AlgebraElement.delta(pair2, pair_id(2, 1))
    prod = gk.convolve(d12, d21)
    assert prod[pair_id(1, 1)] == 1.0
    assert np.count_nonzero(prod.coeffs) == 1
    # non-composable pair gives zero
    assert np.count_nonzero(gk.convolve(d12, d12).coeffs) == 0


def test_z3_generator_cubes_to_unit(z3):
    f = AlgebraElement.delta(z3, "g1")
    cubed = gk.convolve(gk.convolve(f, f), f)
    assert cubed["g0"] == 1.0
    assert np.count_nonzero(cubed.coeffs) == 1


def test_heis3_convolution_matches_group_oracle(heis3):
    rng = np.random.default_rng(11)
    elements, mul, unit = loop_heisenberg_elements(3)
    inv = {a: next(b for b in elements if mul[(a, b)] == unit)
           for a in elements}
    for _ in range(5):
        f1 = random_element(heis3, rng)
        f2 = random_element(heis3, rng)
        d1 = {g: f1[g] for g in elements}
        d2 = {g: f2[g] for g in elements}
        expected = group_convolution(elements, mul, inv, d1, d2)
        got = gk.convolve(f1, f2)
        for g in elements:
            assert abs(got[g] - expected[g]) < 1e-12


def test_base_mismatch(pair2, z3):
    with pytest.raises(gk.BaseMismatch):
        gk.convolve(AlgebraElement.zero(pair2), AlgebraElement.zero(z3))


@settings(deadline=None, max_examples=25)
@given(coeff3)
def test_involution_is_involutive(vals):
    z3 = corpus.cyclic_groupoid(3)
    f = AlgebraElement(z3, [complex(vals[2 * i], vals[2 * i + 1])
                            for i in range(3)])
    assert np.allclose(gk.involute(gk.involute(f)).coeffs, f.coeffs)


@settings(deadline=None, max_examples=25)
@given(coeff3, coeff3)
def test_involution_antimultiplicative(a, b):
    z3 = corpus.cyclic_groupoid(3)
    f1 = AlgebraElement(z3, [complex(a[2 * i], a[2 * i + 1])
                             for i in range(3)])
    f2 = AlgebraElement(z3, [complex(b[2 * i], b[2 * i + 1])
                             for i in range(3)])
    lhs = gk.involute(gk.convolve(f1, f2))
    rhs = gk.convolve(gk.involute(f2), gk.involute(f1))
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-9)


def test_delta_involution(pair2):
    from gpdkit.groupoid import pair_id
    d = AlgebraElement.delta(pair2, pair_id(1, 2))
    assert gk.involute(d)[pair_id(2, 1)] == 1.0


class TestNorm:
    def test_unit_delta_norm_one(self, pair2):
        for u in pair2.units:
            assert gk.cstar_norm(pair2, AlgebraElement.delta(pair2, u)) == \
                pytest.approx(1.0, abs=1e-12)

    def test_all_ones_on_pair_has_norm_two(self, pair2):
        # oracle: each unit block is the 2x2 all-ones matrix, eigenvalues
        # {0, 2}, computed by hand
        f = AlgebraElement.from_dict(pair2, {g: 1.0 for g in pair2.arrows})
        assert gk.cstar_norm(pair2, f) == pytest.approx(2.0, abs=1e-12)

    def test_cstar_identity_on_heis3(self, heis3):
        rng = np.random.default_rng(0)
        for _ in range(100):
            f = random_element(heis3, rng)
            n = gk.cstar_norm(heis3, f)
            sq = gk.cstar_norm(heis3, gk.convolve(gk.involute(f), f))
            assert abs(sq - n * n) <= 1e-9 * max(n * n, 1.0)

    def test_submultiplicative_and_star_isometric(self, pair2, z3):
        rng = np.random.default_rng(3)
        for G in (pair2, z3):
            for _ in range(50):
                f1, f2 = random_element(G, rng), random_element(G, rng)
                n1, n2 = gk.cstar_norm(G, f1), gk.cstar_norm(G, f2)
                assert gk.cstar_norm(G, gk.convolve(f1, f2)) <= \
                    n1 * n2 + 1e-9
                assert abs(gk.cstar_norm(G, gk.involute(f1)) - n1) <= 1e-9

    @pytest.mark.parametrize("kind", ["untwisted", "twisted", "sections"])
    def test_stacked_norm_matches_the_per_block_norms(self, kind):
        rng = np.random.default_rng(4)
        if kind == "sections":
            E = _rescaled_covering_bundle(rng)
            space, dense = gk.bundle.SectionSpace(E), DenseSectionSpace(E)
            for _ in range(20):
                vec = rng.standard_normal(E.total_dim()) \
                    + 1j * rng.standard_normal(E.total_dim())
                assert space.op_norm(gk.Section(E, vec)) == pytest.approx(
                    dense.op_norm(vec), rel=1e-12)
            return
        G = _mixed_union()
        rep = gk.RegularRepresentation(G) if kind == "untwisted" else \
            gk.TwistedConvolutionAlgebra(
                G, random_cocycle(G, rng)).rep
        blocks = [[G.index[g] for g in G.arrows if G.src[g] == u]
                  for u in G.units]
        for _ in range(20):
            x = random_element(G, rng).coeffs
            left = rep.table.left(x)  # dense, gathered per unit
            want = [left[np.ix_(b, b)] for b in blocks]
            got = rep.matrices(x)
            assert len(got) == len(want)
            for M, W in zip(got, want):
                assert np.allclose(M, W, rtol=1e-14, atol=1e-14)
            loop = max(np.linalg.norm(M, 2) for M in want)
            assert rep.norm(x) == pytest.approx(loop, rel=1e-14)

    def test_entries_across_summands_are_left_out(self):
        # e_0 e_2 = 50 e_1 leaves the summand {2} of e_2; a per-summand
        # gather of the dense left matrix drops it as well
        table = StructureTable(3, [0, 1, 2, 0], [0, 1, 2, 2], [0, 1, 2, 1],
                               [1.0, 2.0, 3.0, 50.0], [0, 1, 2], [0, 1, 2],
                               [1.0, 1.0, 1.0])
        rep = gk.RegularRepresentation(table, [0, 0, 1])
        x = np.array([1.0, 2.0, 3.0])
        left = table.left(x)
        for M, b in zip(rep.matrices(x), ([0, 1], [2])):
            assert np.array_equal(M, left[np.ix_(b, b)])
        assert rep.norm(x) == 9.0

    def test_convolution_associativity_random(self, heis3):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f1 = random_element(heis3, rng)
            f2 = random_element(heis3, rng)
            f3 = random_element(heis3, rng)
            lhs = gk.convolve(gk.convolve(f1, f2), f3)
            rhs = gk.convolve(f1, gk.convolve(f2, f3))
            scale = float(np.max(np.abs(lhs.coeffs))) or 1.0
            assert np.allclose(lhs.coeffs, rhs.coeffs,
                               rtol=1e-12, atol=1e-12 * scale)

    def test_convolution_distributive_random(self, heis3):
        rng = np.random.default_rng(7)
        for _ in range(10):
            f1 = random_element(heis3, rng)
            f2 = random_element(heis3, rng)
            f3 = random_element(heis3, rng)
            lhs = gk.convolve(f1 + f2, f3)
            rhs = gk.convolve(f1, f3) + gk.convolve(f2, f3)
            scale = float(np.max(np.abs(lhs.coeffs))) or 1.0
            assert np.allclose(lhs.coeffs, rhs.coeffs,
                               rtol=1e-12, atol=1e-12 * scale)


class TestStackedNorms:
    @settings(deadline=None, max_examples=40)
    @given(kind=st.sampled_from(["groupoid", "twisted", "sections"]),
           k=st.integers(0, 6), zero=st.booleans(),
           budget=st.sampled_from([1, 40, 1 << 14]),
           scale=st.sampled_from([1e-3, 1.0, 1e3]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_norms_match_the_per_row_oracle(self, kind, k, zero, budget,
                                            scale, seed):
        # budget: the entries of one stacked call, from one row per call
        # (and a heavy row alone) to every row in one call
        rep, oracle = _norm_case(kind)
        rng = np.random.default_rng(seed)
        n = rep.table.dim
        X = scale * (rng.standard_normal((k, n))
                     + 1j * rng.standard_normal((k, n)))
        if zero and k:
            X[0] = 0.0
        with mock.patch.object(gk.algebra, "_ENTRIES_PER_CALL", budget):
            got = rep.norms(X)
        assert got.shape == (k,)
        np.testing.assert_allclose(got, oracle(X), rtol=1e-12)

    def test_table_products_of_rows_are_those_of_each_row(self):
        rng = np.random.default_rng(6)
        G = _mixed_union()
        table = gk.TwistedConvolutionAlgebra(
            G, random_cocycle(G, rng)).table
        X, Y = (rng.standard_normal((4, table.dim))
                + 1j * rng.standard_normal((4, table.dim)) for _ in range(2))
        assert np.array_equal(table.mul(X, Y), np.array(
            [table.mul(x, y) for x, y in zip(X, Y)]))
        assert np.array_equal(table.star(X),
                              np.array([table.star(x) for x in X]))

    @pytest.mark.parametrize("samples", [0, -1])
    def test_isometry_defect_without_samples_is_zero(self, z3, samples):
        rep = gk.RegularRepresentation(z3)
        U = 2.0 * np.eye(3)
        assert isometry_defect(rep.norms, rep.norms, U,
                               np.random.default_rng(0), samples) == 0.0
        assert isometry_defect(rep.norms, rep.norms, U,
                               np.random.default_rng(0), 1) == \
            pytest.approx(1.0)


def _chunk_oracle(load, budget):
    """The rows of each chunk: all rows when their load fits the budget,
    else a new chunk at each row whose running total enters a new multiple
    of the budget."""
    if sum(load) <= budget:
        return [list(range(len(load)))] if load else []
    out, level, total = [], None, 0
    for i, x in enumerate(load):
        total += x
        if total // budget != level:
            out.append([])
            level = total // budget
        out[-1].append(i)
    return out


class TestChunks:
    """:func:`algebra.chunks`, which cuts every bounded pass, against a
    plain-Python running total."""

    @settings(deadline=None, max_examples=150)
    @given(data=st.data(), budget=st.sampled_from([1, 7, 1 << 14]))
    def test_chunks_equal_a_running_total(self, data, budget):
        load = data.draw(st.lists(st.integers(0, 3 * budget), max_size=200))
        got = algebra.chunks(np.array(load, dtype=np.int64), budget)
        assert all(len(c) for c in got)
        assert np.concatenate([np.arange(0)] + got).tolist() == \
            list(range(len(load)))
        assert [c.tolist() for c in got] == _chunk_oracle(load, budget)
        # without a budget: _ENTRIES_PER_CALL as it is at the call
        with mock.patch.object(gk.algebra, "_ENTRIES_PER_CALL", budget):
            assert [c.tolist() for c in algebra.chunks(load)] == \
                [c.tolist() for c in got]

    def test_no_rows_make_no_chunk(self):
        assert algebra.chunks([]) == []
        assert algebra.chunks([], 1) == []


class TestStackedMatrices:
    """The stacks of :func:`algebra.stacked_matrices` against a dense
    assembly of each owner's matrix, entry by entry in the given order, so
    that every sum is bitwise the same."""

    @settings(deadline=None, max_examples=60)
    @given(shape=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          min_size=1, max_size=8),
           count=st.integers(0, 40), layout=st.sampled_from(
               ["shuffled", "runs", "sorted"]),
           budget=st.sampled_from([1, 40, 1 << 14]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stacks_equal_a_dense_assembly(self, shape, count, layout,
                                           budget, seed):
        rng = np.random.default_rng(seed)
        nr, nc = (np.array(v, dtype=np.int64) for v in zip(*shape))
        live = np.flatnonzero((nr > 0) & (nc > 0))
        count = count if len(live) else 0
        owner = rng.choice(live, count).astype(np.int64)
        row, col = (rng.integers(0, np.maximum(v[owner], 1))
                    for v in (nr, nc))
        vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        # repeat some entries at one (owner, row, col), with another value
        again = rng.integers(0, max(count, 1), count // 3)
        owner, row, col = (np.append(v, v[again]) for v in (owner, row, col))
        vals = np.append(vals, -2.0 * vals[again])
        if layout == "runs":  # owners in runs, not in ascending order
            perm = rng.permutation(len(nr))
            order = np.argsort(perm[owner], kind="stable")
        else:
            order = rng.permutation(len(owner)) if layout == "shuffled" \
                else np.argsort(owner, kind="stable")
        owner, row, col, vals = (v[order] for v in (owner, row, col, vals))
        want = {o: np.zeros((2, nr[o], nc[o])) for o in live.tolist()}
        for o, r, c, v in zip(owner.tolist(), row.tolist(), col.tolist(),
                              vals.tolist()):
            want[o][:, r, c] += v.real, v.imag
        key = np.lexsort((np.arange(len(nr)), nc, nr))
        key = key[(nr[key] > 0) & (nc[key] > 0)]
        with mock.patch.object(gk.algebra, "_ENTRIES_PER_CALL", budget):
            got = list(algebra.stacked_matrices(owner, row, col, vals,
                                                (nr, nc)))
            # one stack per shape and chunk, in ascending shape order
            parts = [len(c) for k in sorted({(int(nr[o]), int(nc[o]))
                                            for o in live.tolist()})
                     for c in algebra.chunks(np.full(int(np.sum(
                         (nr == k[0]) & (nc == k[1]))), k[0] * k[1]))]
        assert [len(o) for o, _ in got] == parts
        assert np.concatenate([o for o, _ in got] + [[]]).tolist() == \
            key.tolist()
        for o, M in got:
            assert M.dtype == complex and M.shape[1:] == (nr[o[0]], nc[o[0]])
            for i, m in zip(o.tolist(), M):
                assert m.real.tobytes() == want[i][0].tobytes()
                assert m.imag.tobytes() == want[i][1].tobytes()


class TestSpectralNorms:
    """The top-singular-value kernel against the SVD, and the rank
    decisions that stay on the SVD."""

    @staticmethod
    def _stack(kind, k, m, n, rng):
        r = min(m, n)

        def unitary(d):
            return np.linalg.qr(rng.standard_normal((k, d, d))
                                + 1j * rng.standard_normal((k, d, d)))[0]
        if kind == "zero":
            return np.zeros((k, m, n), dtype=complex)
        if kind == "rank_one":
            return (rng.standard_normal((k, m, 1))
                    * (rng.standard_normal((k, 1, n)) + 1j))
        if kind == "graded":  # singular values from 1 down to 1e-12
            sv = np.logspace(0, -12, r)
            return (unitary(m)[:, :, :r] * sv) @ unitary(n)[:, :r, :]
        return rng.standard_normal((k, m, n)) \
            + 1j * rng.standard_normal((k, m, n))

    @pytest.mark.parametrize("kind", ["random", "zero", "rank_one",
                                      "graded"])
    def test_matches_the_largest_svd_value(self, kind):
        rng = np.random.default_rng(12)
        sizes = [*range(10), 27, 64]
        for m in sizes:
            for n in sizes:
                S = self._stack(kind, 3, m, n, rng)
                got = algebra.spectral_norms(S)
                want = (np.linalg.svd(S, compute_uv=False)[..., 0]
                        if m and n else np.zeros(3))
                assert got.shape == (3,)
                assert np.all(np.abs(got - want)
                              <= 100 * np.finfo(float).eps * want), (m, n)

    def test_entries_whose_squares_overflow(self):
        # the Gram matrix overflows; those matrices take the SVD
        S = np.random.default_rng(2).standard_normal((6, 3, 3))
        S[::2] *= 1e200
        for n in (1, 2, 3):
            want = np.linalg.svd(S[..., :n], compute_uv=False)[..., 0]
            np.testing.assert_allclose(
                algebra.spectral_norms(S[..., :n]), want, rtol=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_finite_gram_whose_top_eigenvalue_overflows(self, n):
        # each squared column length is finite, their sum is not: the top
        # eigenvalue overflows, so the matrix takes the SVD
        S = np.full((2, n, n), 0.9 * np.sqrt(np.finfo(float).max / n))
        G = S[0].T @ S[0]
        assert np.all(np.isfinite(G)) and G[0, 0] > np.finfo(float).max / n
        want = np.linalg.svd(S, compute_uv=False)[..., 0]
        assert np.all(np.isfinite(want))
        np.testing.assert_allclose(algebra.spectral_norms(S), want,
                                   rtol=1e-14)

    def test_leading_axes_are_kept(self):
        S = np.random.default_rng(1).standard_normal((2, 3, 4, 5))
        assert algebra.spectral_norms(S).shape == (2, 3)

    def test_ranks_stay_on_the_svd(self):
        # sigma = 1e-10 squares to 1e-20, below eps of the Gram matrix: a
        # diagonal matrix (one entry per row, read from its column norms)
        # and one with two entries per row (one SVD)
        assert stacked_ranks(np.zeros(2, np.int64), np.arange(2),
                             np.arange(2), np.array([1.0, 1e-10]),
                             ([2], [2]), 1e-12).tolist() == [2]
        assert stacked_ranks(np.zeros(4, np.int64), np.array([0, 0, 1, 1]),
                             np.array([0, 1, 0, 1]),
                             np.array([1.0, 1.0, 1.0, 1.0 + 2e-10]),
                             ([2], [2]), 1e-12).tolist() == [2]

    def test_column_norm_ranks_equal_svd_ranks(self):
        # 200 random matrices of one entry per row, some columns tiny or
        # empty: the column norms are the singular values
        rng = np.random.default_rng(8)
        nr, nc = rng.integers(0, 6, 200), rng.integers(0, 6, 200)
        owner = np.repeat(np.arange(200), nr)
        row = np.concatenate([np.arange(r) for r in nr])
        col = rng.integers(0, np.maximum(nc, 1)[owner])
        keep = nc[owner] > 0
        vals = (rng.standard_normal(len(owner))
                * 10.0 ** rng.integers(-14, 2, len(owner)))
        args = (owner[keep], row[keep], col[keep], vals[keep], (nr, nc))
        want = np.zeros(200, np.int64)
        for o, sv in algebra.stacked_singular_values(*args):
            want[o] = np.sum(sv > 1e-9 * np.maximum(sv[:, :1], 1.0), axis=1)
        assert np.array_equal(stacked_ranks(*args, 1e-9), want)


class TestPositivity:
    def test_squares_positive_on_pair(self, pair2):
        rng = np.random.default_rng(1)
        for _ in range(100):
            f = random_element(pair2, rng)
            assert gk.positivity_check(pair2,
                                       gk.convolve(gk.involute(f), f))

    def test_z3_indicator_combination_not_positive(self, z3):
        # oracle: character values 1 - 2cos(2 pi k / 3); k = 0 gives -1
        f = AlgebraElement.from_dict(z3, {"g0": 1.0, "g1": -1.0, "g2": -1.0})
        assert not gk.positivity_check(z3, f)
        rep = gk.RegularRepresentation(z3)
        eigs = np.linalg.eigvalsh(rep.matrices(f)[0])
        assert min(eigs) == pytest.approx(-1.0, abs=1e-9)

    def test_zero_is_positive(self, z3):
        assert gk.positivity_check(z3, AlgebraElement.zero(z3))

    def test_first_failing_unit_decides(self):
        # the identity everywhere, minus twice a unit of q: every summand
        # of q (units 4 to 6 of 7) has eigenvalue -1
        G = _mixed_union()
        f = {u: 1.0 for u in G.units}
        f["q:(1,1)"] = -1.0
        assert not gk.positivity_check(G, AlgebraElement.from_dict(G, f))
        # a later non-self-adjoint block does not change that
        assert not gk.positivity_check(
            G, AlgebraElement.from_dict(G, {**f, "z:g0": 1j}))
        # an earlier one (in p, the units before q) raises
        with pytest.raises(ValueError, match="not self-adjoint"):
            gk.positivity_check(
                G, AlgebraElement.from_dict(G, {**f, "p:(1,2)": 1.0}))

    def test_non_self_adjoint_message(self, pair2):
        from gpdkit.groupoid import pair_id
        f = AlgebraElement.from_dict(pair2, {pair_id(1, 2): 0.5})
        M = gk.RegularRepresentation(pair2).table.left(f.coeffs)
        defect = float(np.abs(M - M.conj().T).max())  # 0.5, in each block
        with pytest.raises(ValueError) as exc:
            gk.positivity_check(pair2, f)
        assert str(exc.value) == \
            f"element is not self-adjoint (defect {defect:.3e})"


def _relabelled(G, change):
    """Name-level tables of G after change(src, rng, inv, comp) edited
    them in place, built with no axiom checked but the constructor's."""
    tables = dict(G.src), dict(G.rng), dict(G.inv), dict(G.comp)
    change(*tables)
    return raw_groupoid(G.arrows, G.units, *tables)


def _loop(s, r, i, c):
    """(1,2) claimed a loop at (1,1), each pair that is then composable
    listed once, with its first factor as composite."""
    s["(1,2)"] = r["(1,2)"] = "(1,1)"
    c.clear()
    c.update({(g1, g2): g1 for g1 in s for g2 in s if s[g1] == r[g2]})


class TestConditionalExpectation:
    @pytest.mark.parametrize("change, error, witness", [
        (_loop, gk.NotASubgroupoid, "(1,2)"),
        (lambda s, r, i, c: i.update({"(1,2)": "(1,2)"}),
         gk.NotASubgroupoid, "(1,2)"),
        (lambda s, r, i, c: c.update({("(1,2)", "(2,1)"): "(2,2)"}),
         gk.NotASubgroupoid, ("(1,2)", "(2,1)")),
        # refused by K's constructor, before the inclusion is checked
        (lambda s, r, i, c: c.pop(("(2,1)", "(1,1)")),
         gk.MissingComposite, ("(2,1)", "(1,1)")),
    ], ids=["loop", "inverse", "composite", "missing_pair"])
    def test_subgroupoid_must_have_the_tables_of_g(self, pair2, change,
                                                   error, witness):
        f = random_element(pair2, np.random.default_rng(0))
        with pytest.raises(error) as exc:
            gk.conditional_expectation(pair2, _relabelled(pair2, change), f)
        assert exc.value.witness == witness
        # the same arrows with G's tables pass
        assert np.array_equal(gk.conditional_expectation(
            pair2, _relabelled(pair2, lambda *_: None), f).coeffs, f.coeffs)

    def test_subgroupoid_arrows_must_be_closed(self, pair2):
        K = gk.subgroupoid(pair2, pair2.arrows)
        K = raw_groupoid(["(1,1)", "(2,2)", "(1,2)"], K.units, K.src, K.rng,
                         K.inv, {p: g for p, g in K.comp.items()
                                 if "(2,1)" not in (*p, g)})
        with pytest.raises(gk.NotASubgroupoid) as exc:
            gk.conditional_expectation(
                pair2, K, random_element(pair2, np.random.default_rng(0)))
        assert exc.value.witness == "(1,2)"

    def test_identity_on_whole_groupoid(self, heis3):
        rng = np.random.default_rng(2)
        f = random_element(heis3, rng)
        out = gk.conditional_expectation(heis3, heis3, f)
        assert np.allclose(out.coeffs, f.coeffs)

    def test_restriction_to_center(self, heis3_quotient):
        G = heis3_quotient.domain
        K = gk.kernel(heis3_quotient).groupoid
        center = set(K.arrows)
        for g in G.arrows:
            out = gk.conditional_expectation(
                G, K, AlgebraElement.delta(G, g), embed=True)
            if g in center:
                assert out[g] == 1.0
            else:
                assert np.count_nonzero(out.coeffs) == 0

    def test_bimodule_property(self, heis3_quotient):
        G = heis3_quotient.domain
        K = gk.kernel(heis3_quotient).groupoid
        rng = np.random.default_rng(4)
        f = random_element(G, rng)
        a = gk.conditional_expectation(
            G, K, random_element(G, rng), embed=True)
        b = gk.conditional_expectation(
            G, K, random_element(G, rng), embed=True)
        lhs = gk.conditional_expectation(
            G, K, gk.convolve(gk.convolve(a, f), b), embed=True)
        rhs = gk.convolve(gk.convolve(
            a, gk.conditional_expectation(G, K, f, embed=True)), b)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)

    def test_faithful_by_support(self, heis3_quotient):
        # Phi(f* f) at a unit u collects sum |f(g)|^2 over src(g) = u,
        # exhaustively over the delta basis
        G = heis3_quotient.domain
        K = gk.kernel(heis3_quotient).groupoid
        for g in G.arrows:
            f = AlgebraElement.delta(G, g)
            out = gk.conditional_expectation(
                G, K, gk.convolve(gk.involute(f), f), embed=True)
            assert out[G.src[g]] == 1.0

    def test_composition_with_unit_restriction(self, heis3_quotient):
        # restricting to the kernel then to the units equals restricting
        # to the units directly (a faithful composite)
        G = heis3_quotient.domain
        K = gk.kernel(heis3_quotient).groupoid
        rng = np.random.default_rng(6)
        f = random_element(G, rng)
        via_k = gk.conditional_expectation(G, K, f, embed=True)
        two_step = gk.conditional_expectation(G, list(G.units), via_k)
        one_step = gk.conditional_expectation(G, list(G.units), f)
        assert np.allclose(two_step.coeffs, one_step.coeffs)

    def test_rejects_non_subgroupoid(self, heis3):
        with pytest.raises(gk.NotASubgroupoid):
            gk.conditional_expectation(heis3, ["[1,0,0]", "[0,0,0]"],
                                       AlgebraElement.zero(heis3))


class TestWedderburn:
    def test_pair_groupoids_are_full_matrix_algebras(self):
        for n in range(2, 7):
            G = corpus.pair_groupoid(n)
            # independent oracle: the deltas are a full system of matrix
            # units, so the algebra is M_n
            assert matrix_units_check(G)
            assert gk.wedderburn(G).blocks == (n,)

    def test_cyclic_groups_are_diagonal(self):
        for k in range(1, 9):
            G = corpus.cyclic_groupoid(k)
            # oracle: commutativity forces k blocks of size 1
            assert all(G.comp[(a, b)] == G.comp[(b, a)]
                       for a in G.arrows for b in G.arrows)
            assert gk.wedderburn(G).blocks == tuple([1] * k)

    def test_heisenberg_blocks_match_enumeration_oracle(self):
        expected = {2: (2, 1, 1, 1, 1),
                    3: (3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1)}
        for n in (2, 3):
            elements, mul, _ = loop_heisenberg_elements(n)
            oracle = group_algebra_blocks(elements, mul)
            assert oracle == expected[n]
            got = gk.wedderburn(corpus.heisenberg_groupoid(n))
            assert got.blocks == expected[n]
            assert sum(b * b for b in got.blocks) == got.dimension == n ** 3
            assert got.center_dimension == len(got.blocks)

    def test_disjoint_union_blocks(self):
        G = corpus.disjoint_union([("a", corpus.pair_groupoid(2)),
                                   ("b", corpus.cyclic_groupoid(2))])
        assert gk.wedderburn(G).blocks == (2, 1, 1)

    def test_support_projection_compression(self):
        # the algebra unit may be a proper subprojection of the ambient
        # identity; M2 embedded in 3x3 with a dead corner
        mats = []
        for i in range(2):
            for j in range(2):
                m = np.zeros((3, 3), dtype=complex)
                m[i, j] = 1.0
                mats.append(m)
        inv = wedderburn_from_tables(closure_table(mats))
        assert inv.blocks == (2,)
        e11 = np.zeros((2, 2), dtype=complex)
        e11[0, 0] = 1.0
        assert wedderburn_from_tables(closure_table([e11])).blocks == (1,)


def _shift_a_trace(monkeypatch):
    """Let Tr L(e_0) read 1 larger than it is."""
    traces = algebra._traces

    def shifted(table):
        out = traces(table)
        out[0] += 1.0
        return out
    monkeypatch.setattr(algebra, "_traces", shifted)


@functools.lru_cache(maxsize=None)
def _copies(name, n):
    """The disjoint union of n copies of heis2 or Z4, with its table."""
    G = corpus.disjoint_union([(f"c{i}", corpus.heisenberg_groupoid(2)
                                if name == "heis2" else
                                corpus.cyclic_groupoid(4)) for i in range(n)])
    return G


def _dense_projections(table):
    """(rows e_i of central_projections, block sizes) of a table."""
    (i, j, v), sizes, _, _ = algebra.central_projections(
        table, algebra._center_entries(table))
    X = np.zeros((len(sizes), len(sizes)), dtype=complex)
    np.add.at(X, (i, j), v)
    return X @ center_basis(table), sizes


def _shift_action(H, shift, sizes):
    """The action groupoid of the one-unit groupoid H on orbits of the
    given sizes, h moving point x of an orbit of size d to x + shift(h)
    mod d: orbits of mixed sizes, isotropy the h with d | shift(h)."""
    points = [f"o{o}x{x}" for o, d in enumerate(sizes) for x in range(d)]
    act = {(h, f"o{o}x{x}"): f"o{o}x{(x + shift(h)) % d}"
           for h in H.arrows for o, d in enumerate(sizes) for x in range(d)}
    return gk.build_action_groupoid(gk.GroupoidAction(
        H, points, dict.fromkeys(points, H.units[0]), act)).groupoid


def _part(kind, n, orbits):
    """One groupoid of the oracle test: a cyclic group, a Heisenberg group,
    a pair groupoid, or the action groupoid of Z_n (by translation) or of
    heis_n (through [a,b,c] -> a) on orbits whose sizes divide n."""
    sizes = [d for d in range(1, n + 1) if n % d == 0]
    sizes = [sizes[i % len(sizes)] for i in orbits]
    if kind == "cyclic":
        return corpus.cyclic_groupoid(n)
    if kind == "pair":
        return corpus.pair_groupoid(n)
    if kind == "heis":
        return corpus.heisenberg_groupoid(min(n, 3))
    if kind == "cyclic_action":
        return _shift_action(corpus.cyclic_groupoid(n),
                             lambda h: int(h[1:]), sizes)
    n = min(n, 3)
    return _shift_action(corpus.heisenberg_groupoid(n),
                         lambda h: int(h[1:].split(",")[0]),
                         [d if n % d == 0 else 1 for d in sizes])


def _orbit_isotropy_blocks(G):
    """Blocks by orbit x isotropy counting: |O| times every irreducible
    degree of the isotropy group at one unit of each orbit O, the degrees
    from the combinatorial :func:`oracles.group_algebra_blocks`."""
    blocks, seen = [], set()
    for u in G.units:
        if u in seen:
            continue
        orbit = {G.rng[g] for g in G.arrows if G.src[g] == u}
        seen |= orbit
        iso = [g for g in G.arrows if G.src[g] == u == G.rng[g]]
        mul = {(x, y): G.comp[(x, y)] for x in iso for y in iso}
        blocks += [len(orbit) * d for d in group_algebra_blocks(iso, mul)]
    return tuple(sorted(blocks, reverse=True))


class TestCentralProjections:
    """Block sizes from the minimal central projections of the exact
    center: one k x k eigenproblem per component of the center."""

    @pytest.mark.parametrize("repeat", [0, 1, 2])
    @pytest.mark.parametrize("name, n, blocks", [
        ("heis2", 1000, (2,) * 1000 + (1,) * 4000),
        ("z4", 1100, (1,) * 4400)])
    def test_large_unions_in_under_a_second(self, name, n, blocks, repeat):
        G = _copies(name, n)
        G.table.solved.clear()  # each repeat is a solve of its own
        start = time.perf_counter()
        inv = gk.wedderburn(G)
        assert time.perf_counter() - start < 1.0
        assert inv.blocks == blocks and inv.dimension == len(G.arrows)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_heisenberg_p_has_p_squared_ones_and_p_minus_1_blocks_of_p(
            self, p):
        inv = gk.wedderburn(corpus.heisenberg_groupoid(p))
        assert inv.blocks == (p,) * (p - 1) + (1,) * (p * p)
        assert inv.central_gap > 1 and 0 <= inv.central_spread <= 1

    @pytest.mark.parametrize("name", ["heis3", "union", "twisted",
                                      "closure", "generic"])
    def test_projections_are_central_idempotents_summing_to_one(self, name):
        table = _center_tables()[name]
        P, sizes = _dense_projections(table)
        # e_i e_j = delta_ij e_i, e_i x = x e_i, Tr L(e_i) = d_i^2
        for i, e in enumerate(P):
            assert np.allclose(table.mul(e[None], P), np.eye(len(P))[i][
                :, None] * e, atol=1e-9)
            x = np.random.default_rng(i).standard_normal(table.dim)
            assert np.allclose(table.mul(e, x), table.mul(x, e), atol=1e-9)
            assert np.trace(table.left(e)) == pytest.approx(sizes[i] ** 2)
        one = P.sum(axis=0)
        x = np.random.default_rng(9).standard_normal(table.dim)
        assert np.allclose(table.mul(one, x), x, atol=1e-9)

    def test_perturbed_center_row_fails_the_unit_residual(self):
        table = corpus.heisenberg_groupoid(3).table
        k, j, a, v = algebra._center_entries(table)
        v = v.copy()
        v[np.flatnonzero(j == 1)[0]] *= 1.01
        algebra.central_projections(table, algebra._center_entries(table))
        with pytest.raises(gk.NumericalDegeneracy,
                           match=r"unit residual \S+ times its cut"):
            algebra.central_projections(table, (k, j, a, v))

    def test_shifted_trace_fails_the_square_test(self, monkeypatch):
        _shift_a_trace(monkeypatch)
        with pytest.raises(gk.NumericalDegeneracy,
                           match=r"perfect square \S+ times its cut"):
            gk.wedderburn(corpus.heisenberg_groupoid(2))

    def test_commutative_algebra_takes_no_solve(self, monkeypatch):
        monkeypatch.setattr(algebra, "central_projections", None)
        inv = gk.wedderburn(corpus.zn_square_groupoid(8))
        assert inv.blocks == (1,) * 64 and inv.center_dimension == 64
        assert inv.central_gap is None and inv.central_spread == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["cyclic", "pair", "heis", "cyclic_action",
                         "heis_action"]),
        st.integers(1, 6), st.lists(st.integers(0, 3), min_size=1,
                                    max_size=3)), min_size=1, max_size=4))
    def test_blocks_match_orbit_isotropy_counting(self, parts):
        G = corpus.disjoint_union([(f"p{i}", _part(*part))
                                   for i, part in enumerate(parts)])
        assert gk.wedderburn(G).blocks == \
            _orbit_isotropy_blocks(G)


def test_faithfulness_on_corpus(pair2, z3, heis3):
    for G in (pair2, z3, heis3):
        assert gk.faithfulness_defect(G)[0] == 0


def _moved(G, composites):
    """G with the composites of some pairs moved: a complete table, each
    composable pair listed once, with ``composites`` ((g1, g2) -> g12)
    in place of G's."""
    return raw_groupoid(G.arrows, G.units, G.src, G.rng, G.inv,
                        {**G.comp, **composites})


def _faithfulness_cases():
    point = raw_groupoid(["u"], ["u"], {"u": "u"}, {"u": "u"},
                         {"u": "u"}, {("u", "u"): "u"})
    union = corpus.disjoint_union([("z", corpus.cyclic_groupoid(3)),
                                   ("p", point)])
    z3 = corpus.cyclic_groupoid(3)
    return {
        "pair3": corpus.pair_groupoid(3),
        "heis3": corpus.heisenberg_groupoid(3),
        "union": union,
        "flip": gk.build_action_groupoid(corpus.flip_action()).groupoid,
        # e_g1 e_g0 moved to e_g2: the slice loses column g1, but row g1
        # keeps products in columns of its own, so the full rank stays
        "z3_moved": _moved(z3, {("g1", "g0"): "g2"}),
        # row z:g1 made row z:g0 (z:g1 z:h = z:h): the slice loses column
        # z:g1 and the stack has two equal rows
        "union_row_moved": _moved(union, {("z:g1", f"z:g{k}"): f"z:g{k}"
                                          for k in range(3)}),
    }


@pytest.mark.parametrize("name", ["pair3", "heis3", "union", "flip",
                                  "z3_moved", "union_row_moved"])
def test_faithfulness_defect_matches_dense_rank(name):
    G = _faithfulness_cases()[name]
    want = dense_faithfulness_defect(G)
    assert want == (1 if name == "union_row_moved" else 0)
    # the slice is the identity on valid tables and singular when moved
    assert gk.faithfulness_defect(G) == (
        want, 0.0 if name.endswith("_moved") else 1.0)


def test_faithfulness_slice_falls_back_to_the_full_rank(monkeypatch):
    calls = []
    rank = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank",
                        lambda M, *a, **k: calls.append(M.shape)
                        or rank(M, *a, **k))
    cases = _faithfulness_cases()
    gk.faithfulness_defect(cases["heis3"])
    assert calls == []
    gk.faithfulness_defect(cases["union_row_moved"])
    assert calls == [(4, 16)]


def test_heis6_wedderburn_and_faithfulness_memory_is_bounded():
    G = corpus.heisenberg_groupoid(6)
    peaks = {}
    for name, fn in (("wedderburn", gk.wedderburn),
                     ("faithfulness_defect", gk.faithfulness_defect)):
        tracemalloc.start()
        try:
            out = fn(G)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if name == "wedderburn":
            assert out.dimension == 216 and out.center_dimension == 55
        else:
            assert out[0] == 0
    assert peaks["wedderburn"] <= 100 * 2 ** 20
    assert peaks["faithfulness_defect"] <= 20 * 2 ** 20


class TestTableUnit:
    """Wedderburn reads unital representations and solves for no unit."""

    @pytest.fixture
    def no_lstsq(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("unit solved by least squares")
        monkeypatch.setattr(np.linalg, "lstsq", refuse)

    def test_groupoid_tables_skip_the_solve(self, no_lstsq):
        G = corpus.disjoint_union([("p", corpus.pair_groupoid(3)),
                                   ("h", corpus.heisenberg_groupoid(2))])
        assert gk.wedderburn(G).blocks == (3, 2, 1, 1, 1, 1)

    def test_twisted_unit_is_omega_uu_inverse(self, no_lstsq):
        # a coboundary with b(u) = i twists e_u e_u = i e_u, so the unit is
        # -i e_u, and the algebra is still the group algebra
        G = corpus.heisenberg_groupoid(2)
        rng = np.random.default_rng(3)
        b = {g: np.exp(2j * np.pi * rng.random()) for g in G.arrows}
        b[G.units[0]] = 1j
        om = gk.Cocycle(G, {(g1, g2): b[g1] * b[g2] / b[g12]
                            for (g1, g2), g12 in G.comp.items()})
        ta = gk.TwistedConvolutionAlgebra(G, om)
        assert ta.wedderburn().blocks == gk.wedderburn(G).blocks

    def test_section_tables_skip_the_solve(self, no_lstsq):
        sa = gk.section_algebra(gk.build_bundle(corpus.heisenberg_quotient(3)))
        assert sa.wedderburn().blocks == (3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1)

    def test_closure_family_in_another_basis_solves(self, no_lstsq):
        # M2 spanned by four matrices none of which squares to a multiple
        # of itself alone, so the table names no unit among them
        mats = [np.array(m, dtype=float) for m in (
            [[1, 1], [0, 1]], [[1, 0], [1, 1]], [[0, 1], [1, 0]],
            [[1, 0], [0, -1]])]
        assert wedderburn_from_tables(closure_table(mats)).blocks == (2,)


class TestStarRepHypothesis:
    """Blocks T L T^-1 of the left multiplications L form a
    *-representation when T is unitary, and not otherwise."""

    @staticmethod
    def _conjugated(G, table, T):
        """One block, T L T^-1, from the entries of every T L_a T^-1."""
        L = T @ table.left_stack() @ np.linalg.inv(T)
        a, row, col = np.indices(L.shape).reshape(3, -1)
        return gk.RegularRepresentation(table, G, (a, row, col, L.ravel()))

    @pytest.mark.parametrize("n", [2, 3])
    def test_roots_that_are_not_unitary(self, n):
        G = corpus.heisenberg_groupoid(n)
        table = G.table
        rng = np.random.default_rng(n)
        re, im = rng.standard_normal((2, table.dim, table.dim))
        T = re + 1j * im
        q, _ = np.linalg.qr(T)  # the unitary control
        name, res, witness = algebra.star_rep_hypothesis(
            "conjugated", self._conjugated(G, table, q))
        assert name == "star_rep(conjugated)" and res <= 1e-12
        _, res, witness = algebra.star_rep_hypothesis(
            "conjugated", self._conjugated(G, table, T))
        assert res > 1e-3 and witness.startswith("(h=")


def test_pair24_wedderburn_memory_is_bounded():
    # blocks of one source unit at a time: no 576 x 576 matrix
    G = corpus.pair_groupoid(24)
    tracemalloc.start()
    try:
        inv = gk.wedderburn(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inv.blocks == (24,)
    assert peak < 16 * 2 ** 20


def _center_tables():
    om = corpus.zn2_bilinear_cocycle(3)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    units = [np.zeros((3, 3), dtype=complex) for _ in range(3)]
    for m, (i, j) in zip(units, [(0, 1), (1, 0), (2, 2)]):
        m[i, j] = 1.0
    return {
        "heis3": corpus.heisenberg_groupoid(3).table,
        "zn_square4": corpus.zn_square_groupoid(4).table,
        "union": corpus.disjoint_union([
            ("p", corpus.pair_groupoid(3)),
            ("z", corpus.cyclic_groupoid(4)),
            ("h", corpus.heisenberg_groupoid(2))]).table,
        "twisted": om.table,
        # M2 + C, conjugated: still a matrix-unit basis
        "closure": closure_table([q @ m @ q.conj().T for m in units]),
        # M2 + C in the Gram-Schmidt basis of two generic elements: the
        # structure constants are dense
        "generic": closure_table([q @ (units[0] + 0.5 * units[2])
                                  @ q.conj().T, q @ units[1] @ q.conj().T]),
    }


def _sorted_constraints(table):
    """(row, col, val) of the commutator constraints of ``table``, the
    repeated entries summed and the rows numbered by np.unique."""
    n = table.dim
    key, slot = np.unique((table.a * n + table.b) * n + table.c,
                          return_inverse=True)
    w = algebra._scatter(slot, table.w, len(key))
    key, w = key[w != 0], w[w != 0]
    a, b, k = key // (n * n), key // n % n, key % n
    _, row = np.unique(np.concatenate([b * n + k, a * n + k]),
                       return_inverse=True)
    return row, np.concatenate([a, b]), np.concatenate([w, -w])


def _shipped_and_blocks_tables(workdir):
    """The tables of the shipped data files (groupoids, groups and the
    section tables of the morphisms), of the corpus groupoids and of the
    twists of the Heisenberg extensions, the tables of
    :func:`_center_tables`, and the groupoids of one pass of the
    benchmark's ``blocks`` workload."""
    import importlib
    import sys
    from pathlib import Path
    from gpdkit import io as gio
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
        paths = [item["argv"][3] for item in
                 workloads.blocks_pass(str(workdir), 7)]
    finally:
        sys.path.remove(bench)
    tables = [gio.load_groupoid(f).table for f in paths + [
        corpus.data_path(f"{g}.groupoid.json")
        for g in ("heis2", "heis3", "pair", "z3")]]
    tables += [gk.GroupTable(*gio.load_group(corpus.data_path(
        f"{g}.group.json"))[:2]).table for g in ("heis2", "heis3", "z2z2",
                                                 "z4")]
    tables += [gk.build_bundle(gio.load_morphism(corpus.data_path(
        f"{m}.morphism.json"))).table() for m in (
            "flip_covering", "heis2_quotient", "heis3_quotient")]
    tables += [G.table for G in (
        *map(corpus.heisenberg_groupoid, (2, 3, 4, 5)),
        corpus.zn_square_groupoid(8), corpus.pair_groupoid(10),
        corpus.cyclic_groupoid(7))]
    for n in (2, 3):
        res = gk.group_extension_bundle(corpus.heisenberg_extension(n))
        tables.append(res.cocycle.table)
    # heis3 (in (a, b, c) order) with its first entry split in two in place
    T = corpus.heisenberg_groupoid(3).table
    repeated = StructureTable(T.dim, *(np.insert(v, 1, v[0]) for v in (
        T.a, T.b, T.c)), np.insert(T.w, 1, 0.75 * T.w[0]) * np.insert(
            np.ones(len(T.w)), 0, 0.25), T.s, T.t, T.sw)
    return tables + list(_center_tables().values()) + [
        _cancelling_table(), _wide_table(), repeated]


def _cancelling_table(keep_cancelled=True):
    """The heis3 table with two products repeated with opposite weights:
    summed, they vanish; kept apart, e_3 e_1 and e_1 e_6 would link the
    center element 1 and the classes of 3 and 6 through the constraint
    row (1, 0)."""
    T = corpus.heisenberg_groupoid(3).table
    a, b, c, w = T.a, T.b, T.c, T.w
    if keep_cancelled:
        a, b, c = (np.append(v, x) for v, x in zip(
            (a, b, c), ([3, 3, 1, 1], [1, 1, 6, 6], [0, 0, 0, 0])))
        w = np.append(w, [0.5 + 1j, -0.5 - 1j, 2.0, -2.0])
    return StructureTable(T.dim, a, b, c, w, T.s, T.t, T.sw)


def _wide_table():
    """Columns 0, 1 and 2 share the single constraint row (3, 4): a
    component of one row and three columns, next to column 3 (three rows)
    and the free column 4."""
    w = np.random.default_rng(3).standard_normal(3) + 1j
    return StructureTable(5, [0, 3, 3], [3, 1, 2], [4, 4, 4], w,
                          [], [], [])


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records the shape of its first
    argument at every call; return the list of shapes."""
    calls, fn = [], getattr(owner, name)

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return fn(x, *args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


class TestLapackCalls:
    """The Wedderburn solve makes one LAPACK call per shape, not one per
    component."""

    def test_one_svd_per_component_shape(self, monkeypatch):
        # Z8 x Z8 is abelian: 64 one-column components of 64 rows each,
        # read from the table with no SVD
        calls = _counting(monkeypatch, np.linalg, "svd")
        assert center_basis(
            corpus.zn_square_groupoid(8).table).shape == (64, 64)
        assert calls == []
        # row (3, 4) of the wide table has two terms on one side: one SVD
        # per component shape, 1 x 3 and 3 x 1; the free column, a
        # component with no rows, takes none
        assert center_basis(_wide_table()).shape == (3, 5)
        assert sorted(calls) == [(1, 1, 3), (1, 3, 1)]

    def test_no_eigh_and_one_eig_per_component_size(self, monkeypatch):
        # the center of the union has components of 1 (pair(2)), 1
        # (pair(3)), 4 (Z4) and 5 (heis2) class sums: three sizes
        G = corpus.disjoint_union([("p", corpus.pair_groupoid(2)),
                                   ("q", corpus.pair_groupoid(3)),
                                   ("z", corpus.cyclic_groupoid(4)),
                                   ("h", corpus.heisenberg_groupoid(2))])
        calls = {name: _counting(monkeypatch, np.linalg, name)
                 for name in ("eig", "eigh", "eigvalsh")}
        inv = gk.wedderburn(G)
        assert inv.blocks == (3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1)
        assert calls["eigh"] == calls["eigvalsh"] == []
        assert sorted(calls["eig"]) == [(1, 4, 4), (1, 5, 5), (2, 1, 1)]


class TestWedderburnMemo:
    """A table keeps its Wedderburn invariants per tol; a
    NumericalDegeneracy is not kept."""

    def test_same_call_solves_once(self, monkeypatch):
        calls = _counting(monkeypatch, algebra, "_center_entries")
        G = corpus.heisenberg_groupoid(2)
        first = gk.wedderburn(G, tol=1e-9)
        assert gk.wedderburn(G, tol=1e-9) is first
        assert wedderburn_from_tables(G.table, tol=1e-9) is first
        assert G.table.solved == {1e-9: first}
        assert len(calls) == 1
        # another tolerance is another solve
        gk.wedderburn(G, tol=1e-8)
        assert len(calls) == 2
        # another groupoid object is another table
        gk.wedderburn(corpus.heisenberg_groupoid(2), tol=1e-9)
        assert len(calls) == 3

    def test_degeneracy_is_raised_again(self, monkeypatch):
        calls = _counting(monkeypatch, algebra, "_center_entries")
        _shift_a_trace(monkeypatch)
        table = corpus.heisenberg_groupoid(2).table
        for _ in range(2):
            with pytest.raises(gk.NumericalDegeneracy):
                wedderburn_from_tables(table)
        assert len(calls) == 2 and table.solved == {}

    def test_demo_heisenberg_solves_each_algebra_once(self, monkeypatch,
                                                      capsys):
        # psi (the group; the section table is the group's moved, so the
        # section algebra reads the group's kept solve) and the extension
        # bundle (the group again, which is kept, and the twisted
        # algebra); the kernel decomposition is solved by bundle build alone
        calls = _counting(monkeypatch, algebra, "_center_entries")
        assert main(["demo", "heisenberg", "--n", "3"]) == 0
        capsys.readouterr()
        assert len(calls) == 2


class TestCenterBasis:
    """The center solve spans the same space as the dense commutator null
    space. Where it reads the table (at most one term per side in every
    constraint row) it equals the class-by-class loop up to a unit factor
    per row; elsewhere the stacked SVD equals the one-component-at-a-time
    loop bit for bit."""

    @pytest.mark.parametrize("name", ["heis3", "zn_square4", "union",
                                      "twisted", "closure", "generic"])
    def test_matches_dense_oracle(self, name):
        table = _center_tables()[name]
        got = center_basis(table)
        want = dense_center_basis(table)
        assert got.shape == want.shape and len(got) > 0
        # same span: the orthogonal projectors onto the rows agree
        assert np.abs(got.T @ got.conj()
                      - want.T @ want.conj()).max() <= 1e-10

    @pytest.mark.parametrize("name", ["heis3", "zn_square4", "union",
                                      "twisted", "closure", "cancelling",
                                      "wide", "generic"])
    def test_equals_loop_oracle(self, name, monkeypatch):
        table = {**_center_tables(), "cancelling": _cancelling_table(),
                 "wide": _wide_table()}[name]
        calls = _counting(monkeypatch, np.linalg, "svd")
        got = center_basis(table)
        if name in ("wide", "generic"):
            assert calls
            assert np.array_equal(got, loop_center_basis(table))
        else:
            # the conjugated matrix units of "closure" multiply like a
            # groupoid's: one term per side too
            assert calls == []
            want = loop_class_center(table)
            assert got.shape == want.shape
            unit = np.einsum("ij,ij->i", want.conj(), got)
            assert np.abs(np.abs(unit) - 1.0).max() <= 1e-12
            assert np.abs(got - unit[:, None] * want).max() <= 1e-12
            # each row has a real positive first entry
            first = got[np.arange(len(got)), np.argmax(got != 0, axis=1)]
            assert np.all(first.imag == 0) and np.all(first.real > 0)
        monkeypatch.undo()
        # the dict adapter solves the same table
        assert np.array_equal(
            sparse_center_basis(table.dim, table_products(table)), got)

    def test_twisted_class_sums_drop_irregular_classes(self):
        # Z3 x Z3 with a nondegenerate bilinear cocycle: no class but the
        # unit's is omega-regular, so the center is the line of e_0, as
        # the dense null space says
        table = _center_tables()["twisted"]
        got, want = center_basis(table), dense_center_basis(table)
        assert got.shape == want.shape == (1, 9)
        assert np.array_equal(got[0], np.eye(9)[0])
        assert abs(abs(want[0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_twists_match_both_oracles(self, seed):
        # a random coboundary times the bilinear twist of Z2 x Z2 on one
        # part of a union: regular classes keep their class sums, with
        # phases
        rng = np.random.default_rng(seed)
        G = corpus.disjoint_union([("h", corpus.heisenberg_groupoid(2)),
                                   ("p", corpus.pair_groupoid(3)),
                                   ("z", corpus.zn_square_groupoid(2))])
        omega = random_cocycle(G, rng).omega
        bilinear = corpus.zn2_bilinear_cocycle(2).omega
        omega = {(g1, g2): w * (bilinear[(g1[2:], g2[2:])]
                                if g1.startswith("z:") else 1.0)
                 for (g1, g2), w in omega.items()}
        table = gk.Cocycle(G, omega).table
        got, want = center_basis(table), dense_center_basis(table)
        assert got.shape == want.shape
        assert np.abs(got.T @ got.conj()
                      - want.T @ want.conj()).max() <= 1e-10
        ref = loop_class_center(table)
        unit = np.einsum("ij,ij->i", ref.conj(), got)
        assert np.abs(got - unit[:, None] * ref).max() <= 1e-12

    def test_shifted_cocycle_entry_drops_its_classes(self):
        # one product of heis3 turned by a phase: the classes it links
        # leave the center, by the phase residual as by the dense SVD
        T = corpus.heisenberg_groupoid(3).table
        w = T.w.copy()
        hit = int(np.flatnonzero((T.a == 3) & (T.b == 1))[0])
        w[hit] = np.exp(0.3j)
        table = StructureTable(T.dim, T.a, T.b, T.c, w, T.s, T.t, T.sw)
        got, want = center_basis(table), dense_center_basis(table)
        assert got.shape == want.shape and len(got) < 11
        assert np.abs(got.T @ got.conj()
                      - want.T @ want.conj()).max() <= 1e-10
        assert np.array_equal(np.abs(got), np.abs(loop_class_center(table)))

    def test_cancelled_entries_link_no_columns(self):
        assert np.array_equal(center_basis(_cancelling_table()),
                              center_basis(_cancelling_table(False)))

    def test_constraint_rows_equal_the_sorted_numbering(self, monkeypatch,
                                                        tmp_path):
        # the rows, columns and values handed to the center solvers are
        # those of two np.unique sorts (the summing of repeated entries
        # and the numbering of the rows), whichever way they were taken:
        # on every shipped table, on the blocks items of the benchmark,
        # and on tables that repeat an entry or whose rows are sparse
        got = []
        for name in ("_phase_center", "_svd_center"):
            solve = getattr(algebra, name)
            monkeypatch.setattr(algebra, name, lambda row, col, val, *rest,
                                solve=solve: got.append((row, col, val))
                                or solve(row, col, val, *rest))
        for table in _shipped_and_blocks_tables(tmp_path):
            got.clear()
            algebra._center_entries(table)
            want = _sorted_constraints(table)
            assert len(got) == 1 and all(
                np.array_equal(x, y) for x, y in zip(got[0], want))

    def test_wide_component_keeps_its_null_space(self):
        # the 1 x 3 component has a two-dimensional null space, which a
        # thin SVD (one right singular vector) would drop
        w = _wide_table().w
        got = center_basis(_wide_table())
        assert got.shape == (3, 5)
        # row (3, 4) reads w[0] x_0 - w[1] x_1 - w[2] x_2
        assert np.abs(got[:2] @ [w[0], -w[1], -w[2], 0, 0]).max() <= 1e-12
        assert np.abs(got[:2, 3:]).max() == 0.0
        assert np.array_equal(got[2], np.eye(5)[4])

    def test_fewer_rows_than_dim_keeps_null_space(self):
        # one constraint row against three columns: the thin factor would
        # have one right singular vector
        assert sparse_center_basis(3, {(0, 0): {0: 1.0}}).shape == (3, 3)

    def test_heis4_center_solve_memory_is_bounded(self):
        # a full SVD of the dim² x dim constraint matrix would allocate a
        # dim² x dim² left factor (4096² complex: 268 MB at heis4)
        G = corpus.heisenberg_groupoid(4)
        tracemalloc.start()
        try:
            inv = gk.wedderburn(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(b * b for b in inv.blocks) == 64
        assert peak < 64 * 2 ** 20
