"""Certificates of the isomorphism path read from what a theorem already
gives, each against the full scan or the SVD it replaces.

- ``StructureTable.hom_defect`` with the table's ``generators`` S checks
  U(e_x e_g) = U(e_x) U(e_g) for g in S only; with both tables
  associative, induction on the word of y gives every pair. A failing
  generator takes the scan with every basis element as g, so a failure
  keeps the full scan's residual and witness, the lexicographically first
  (x, g) of the largest residual.
- ``verify_axioms`` reads axioms 7 and 8 of a moved bundle from its
  domain as inv(inv(g)) = g and inv(ab) = inv(b) inv(a).
- ``RegularRepresentation.slice_margin`` reads sigma_min as the smallest
  row norm when no slice column holds two entries.
- ``algebra.block_bijectivity`` reads the singular values of each block
  of a block-diagonal U at the rank cut of the whole U.

The property tests compare pass flags with the full-scan oracle on
single-entry corruptions, and margins with a dense SVD per slice.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gpdkit as gk
from gpdkit import algebra, bundle, corpus, extensions
from gpdkit.algebra import (RegularRepresentation, StructureTable,
                            _linked_columns)
from gpdkit.groupoid import pair_blocks

from oracles import (bundle_from, dense_map_defects, svd_slice_margins,
                     table_arrays)
from test_moved_tables import _counting

TOL = 1e-8


def _extension(n, per_pass=None):
    """(group table, twisted table, U, result) of the extension bundle of
    heis_n; with ``per_pass``, its tables are built and checked at that
    pass size, so that small groups leave generators too."""
    with pytest.MonkeyPatch.context() as mp:
        if per_pass:
            mp.setattr(algebra, "_TRIPLES_PER_PASS", per_pass)
        res = gk.group_extension_bundle(corpus.heisenberg_extension(n))
    ta = gk.TwistedConvolutionAlgebra(res.action_groupoid.groupoid,
                                      res.cocycle)
    return (res.extension.group.to_groupoid().table, ta.table,
            res.basis_map, res)


def _pair_union(sizes, seed):
    """(table, target, U) of a union of pair blocks at pass size 64, so
    that it keeps generators, and the homomorphism U: e_g -> beta(g)
    e_perm(g) onto its table moved by a permutation and twisted by the
    coboundary of the phases beta."""
    rng = np.random.default_rng(seed)
    G = pair_blocks([[f"{k}.{i}" for i in range(m)]
                     for k, m in enumerate(sizes)])
    D = G.table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_TRIPLES_PER_PASS", 64)
        assert D.associativity_defect() == (0.0, None)
    n = D.dim
    perm = rng.permutation(n)
    beta = np.exp(2j * np.pi * rng.random(n))
    T = StructureTable(n, perm[D.a], perm[D.b], perm[D.c],
                       beta[D.c] / (beta[D.a] * beta[D.b]), perm[D.s],
                       perm[D.t], D.sw)
    U = np.zeros((n, n), complex)
    U[perm, np.arange(n)] = beta
    return D, T, U


_MAPS = {f"heis{n}": (lambda n=n: _extension(n, 64 if n < 4 else None)[:3])
         for n in (2, 3, 4, 5)}
_MAPS["pairs"] = lambda: _pair_union((3, 4, 2, 1), 0)
_BUILT = {}


def _map(name):
    if name not in _BUILT:
        _BUILT[name] = _MAPS[name]()
    return _BUILT[name]


def _sets(scans):
    """The set of g of each recorded ``_generator_hom_defect`` call."""
    return [np.asarray(c[-1]).tolist() for c in scans]


def _flags(D, T, U):
    """(pass flag of the generator certificate, of the full scan)."""
    assert D.generators is not None
    return (D.hom_defect(T, U, D.generators, TOL)[0] <= TOL,
            D.hom_defect(T, U)[0] <= TOL)


# -- the generator certificate: property and negative controls

@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_MAPS)), where=st.integers(0, 10 ** 6),
       nonzero=st.booleans(),
       change=st.complex_numbers(min_magnitude=1e-3, max_magnitude=2.0,
                                 allow_nan=False, allow_infinity=False))
def test_generator_flag_equals_the_full_scan(name, where, nonzero, change):
    D, T, U = _map(name)
    assert _flags(D, T, U) == (True, True)
    V = U.copy()
    if nonzero:  # change an entry of U
        rows, cols = np.nonzero(U)
        k = where % len(rows)
        V[rows[k], cols[k]] += change
    else:  # an entry anywhere, zero or not
        V.flat[where % V.size] += change
    passed, full = _flags(D, T, V)
    assert passed == full


def _corrupt_column(U, col, factor=1.5):
    V = U.copy()
    rows = np.flatnonzero(V[:, col])
    V[rows[1], col] *= factor
    return V


def test_corrupted_non_generator_column_takes_the_full_scan(monkeypatch):
    D, T, U, _ = _extension(4)
    col = next(c for c in range(1, D.dim) if c not in D.generators)
    V = _corrupt_column(U, col)
    restricted = D._generator_hom_defect(T, *np.nonzero(V),
                                         V[np.nonzero(V)], D.generators)
    full = D.hom_defect(T, V)
    # the generators see it, with a smaller residual than the full scan
    assert TOL < restricted[0] < full[0]
    scans = _counting(monkeypatch, StructureTable, "_generator_hom_defect")
    assert D.hom_defect(T, V, D.generators, TOL) == full
    assert _sets(scans) == [D.generators.tolist(), list(range(D.dim))]


def test_corrupted_generator_column_fails():
    D, T, U, _ = _extension(4)
    V = _corrupt_column(U, int(D.generators[-1]))
    res = D.hom_defect(T, V, D.generators, TOL)
    assert res == D.hom_defect(T, V) and res[0] > 0.1


@pytest.mark.parametrize("n", [4, 5])
def test_every_generator_is_needed(n):
    # U times a phase that is constant on the cosets x <S'> of the
    # subgroup generated by S' = S without g0, 1 on <S'> itself and no
    # character: every pair (x, g), g in S', holds, and only the pairs
    # through g0 see the failure
    D, T, U, _ = _extension(n)
    S = D.generators
    split = 0
    for g0 in S.tolist():
        rest = S[S != g0]
        e = np.flatnonzero(np.isin(D.b, rest))
        coset = _linked_columns(np.tile(np.arange(len(e)), 2),
                                np.concatenate((D.a[e], D.c[e])), D.dim)
        if np.all(coset == coset[0]):  # g0 is a product of the others
            continue
        split += 1
        V = U * np.exp(0.7j * (coset - coset[0]) ** 2)
        assert D._generator_hom_defect(T, *np.nonzero(V), V[np.nonzero(V)],
                                       rest)[0] <= 1e-12
        res = D.hom_defect(T, V, S, TOL)
        assert res == D.hom_defect(T, V) and res[0] > 0.1
    assert split >= 2


def test_zero_weight_table_takes_the_full_scan(monkeypatch):
    # the induction divides by the weight of e_y' e_g
    D, T, U = _map("pairs")
    w = D.w.copy()
    w[len(w) // 2] = 0.0
    Z = StructureTable(D.dim, D.a, D.b, D.c, w, D.s, D.t, D.sw)
    scans = _counting(monkeypatch, StructureTable, "_generator_hom_defect")
    assert Z.hom_defect(T, U, D.generators, TOL) == Z.hom_defect(T, U)
    assert _sets(scans) == [list(range(Z.dim))] * 2


def test_extension_reads_multiplicativity_from_generators(monkeypatch):
    scans = _counting(monkeypatch, StructureTable, "_generator_hom_defect")
    D, _, _, res = _extension(4)
    assert _sets(scans) == [D.generators.tolist()] and res.passed
    entry = res.entry("basis_map_multiplicative")
    assert entry.passed and entry.residual <= 1e-15


def test_non_associative_target_is_never_certified_from_generators(
        monkeypatch):
    # chi_1 doubled at the center: the twisted table is no algebra, so the
    # extension scans every pair, at a pass size where heis2 keeps
    # generators
    values = extensions.CharacterData.values

    def doubled(self):
        out = values(self)
        out[self.indices.index((1,)), self.group.index["[0,0,1]"]] *= 2.0
        return out
    monkeypatch.setattr(extensions.CharacterData, "values", doubled)
    monkeypatch.setattr(algebra, "_TRIPLES_PER_PASS", 64)
    scans = _counting(monkeypatch, StructureTable, "_generator_hom_defect")
    full = _counting(monkeypatch, StructureTable, "hom_defect")
    res = gk.group_extension_bundle(corpus.heisenberg_extension(2))
    assert res.extension.group.table.generators is not None
    assert not res.entry("cocycle_identity").passed
    assert _sets(scans) == [list(range(8))] and full[0][3] is None
    assert not res.entry("basis_map_multiplicative").passed


def test_psi_check_of_a_twisted_bundle_fails_as_the_full_scan(monkeypatch):
    # the restriction map onto a twisted (unmoved) section table: the
    # generators fail, and the entry is the full scan's
    monkeypatch.setattr(algebra, "_TRIPLES_PER_PASS", 64)
    pi = corpus.heisenberg_quotient(3)
    omega = gk.coboundary_cocycle(pi.domain, {
        g: np.exp(0.1j * i) for i, g in enumerate(pi.domain.arrows)})
    E = gk.build_bundle(pi, omega)
    assert not E.moved() and pi.domain.table.generators is not None
    scans = _counting(monkeypatch, StructureTable, "_generator_hom_defect")
    entry = gk.psi_iso_check(pi, bundle=E, samples=5).entry("multiplicative")
    assert _sets(scans) == [pi.domain.table.generators.tolist(),
                            list(range(len(pi.domain.arrows)))]
    U = np.zeros((len(pi.domain.arrows),) * 2)
    U[E.psi_slots, np.arange(len(U))] = 1.0
    res, pair = pi.domain.table.hom_defect(E.table(), U)
    assert (entry.passed, entry.residual) == (False, res) and res > 1.0
    assert entry.witness == repr(tuple(pi.domain.arrows[i] for i in pair))


def test_extraction_reads_generators_of_the_twisted_pattern(monkeypatch):
    # the twisted table of the extracted groupoid keeps the generators of
    # its untwisted pattern, and they decide the basis map
    monkeypatch.setattr(algebra, "_TRIPLES_PER_PASS", 64)
    scans = _counting(monkeypatch, StructureTable, "_generator_hom_defect")
    res = gk.abelian_extract(gk.build_bundle(corpus.heisenberg_quotient(3)))
    assert _sets(scans) == [res.cocycle.table.generators.tolist()]
    assert res.passed
    entry = res.entry("basis_map_multiplicative")
    assert entry.passed and entry.residual <= 1e-12


@pytest.mark.parametrize("per_pass", [1, 97, None])
@pytest.mark.parametrize("generators", [False, True])
def test_equal_residuals_report_the_first_pair(monkeypatch, per_pass,
                                                generators):
    # heis3 onto itself with two columns of the identity swapped: every
    # failing pair differs by exactly 1.0, and the witness is the
    # lexicographically first of them, whatever the passes over g
    D = _extension(3, 64)[0]
    S = D.generators if generators else None
    U = np.eye(D.dim)
    U[:, [5, 11]] = U[:, [11, 5]]
    mul = dense_map_defects(D, D, U)[0]
    first = np.unravel_index(np.argmax(mul), mul.shape)
    if per_pass:
        monkeypatch.setattr(algebra, "_TRIPLES_PER_PASS", per_pass)
    assert D.hom_defect(D, U, S, TOL) == (mul.max(), first) == (1.0, first)


# -- cost shape, counted in the keys that reach algebra._defect

def _defect_keys(monkeypatch, inside):
    """Keys per _defect call made inside each of the StructureTable
    methods ``inside``: {method: [keys per call]}."""
    calls = {name: [] for name in inside}
    active = []
    real = algebra._defect

    def spy(lhs, rhs, dim):
        if active:
            calls[active[-1]].append(len(lhs[0]) + len(rhs[0]))
        return real(lhs, rhs, dim)
    monkeypatch.setattr(algebra, "_defect", spy)
    monkeypatch.setattr(bundle, "_defect", spy)
    for name in inside:
        fn = getattr(StructureTable, name)

        def tracked(*args, _fn=fn, _name=name, **kwargs):
            active.append(_name)
            try:
                return _fn(*args, **kwargs)
            finally:
                active.pop()
        monkeypatch.setattr(StructureTable, name, tracked)
    return calls


def test_extension_basis_map_costs_generator_pairs(monkeypatch):
    calls = _defect_keys(monkeypatch, ["hom_defect"])
    D, _, _, res = _extension(5)
    assert res.passed and calls["hom_defect"]
    S, G, K = len(D.generators), D.dim, len(res.extension.kernel)
    assert sum(calls["hom_defect"]) <= S * G * K ** 2 < G * G


def test_moved_bundle_scans_no_star_axiom(monkeypatch):
    calls = _defect_keys(monkeypatch, ["involution_defect",
                                       "antimultiplicative_defect"])
    E = gk.build_bundle(corpus.heisenberg_quotient(4))
    rep = gk.verify_axioms(E, samples=5)
    assert rep.axioms_pass and E.moved()
    assert calls == {"involution_defect": [],
                     "antimultiplicative_defect": []}
    for name in ("axiom7_involutive", "axiom8_antimultiplicative"):
        e = rep.entry(name)
        assert (e.passed, e.residual, e.witness) == (True, 0.0, None)


@pytest.mark.parametrize("kind", ["product", "star"])
def test_turned_weight_is_scanned_for_the_star_axioms(kind, monkeypatch):
    # one weight turned: the table is not the domain's moved, so both
    # star axioms are scanned on the section table, as before
    pi = corpus.heisenberg_quotient(3)
    E = gk.build_bundle(pi)
    arrays = table_arrays(E)
    key, e = ("w", 5) if kind == "product" else ("sw", 5)
    arrays[key][e] *= np.exp(0.5j)
    broken = bundle_from(E, arrays, morphism=pi)
    assert not broken.moved()
    scans = {name: _counting(monkeypatch, StructureTable, name)
             for name in ("involution_defect", "antimultiplicative_defect")}
    rep = gk.verify_axioms(broken, samples=5)
    assert [len(c) for c in scans.values()] == [1, 1]
    T = broken.table()
    for name, scan in (("axiom7_involutive", T.involution_defect),
                       ("axiom8_antimultiplicative",
                        T.antimultiplicative_defect)):
        assert rep.entry(name).residual == scan()[0]
    assert not rep.entry("axiom8_antimultiplicative").passed
    assert rep.entry("axiom7_involutive").passed == (kind == "product")


def test_domain_that_breaks_an_identity_is_scanned():
    # a moved bundle whose domain inverse is not involutive ([0,1,0] and
    # [0,1,1] of heis3 swap inverses, which lie over one arrow): the
    # identity fails, and the section table is scanned for residual and
    # witness
    pi = corpus.heisenberg_quotient(3)
    G, D = pi.domain, pi.domain.table
    t = D.t.copy()
    t[[3, 4]] = t[[4, 3]]
    G2 = gk.FiniteGroupoid(G.arrows, G.unit_idx, G.src_idx, G.rng_idx,
                           StructureTable(D.dim, D.a, D.b, D.c, D.w, D.s, t,
                                          D.sw))
    E = gk.build_bundle(gk.GroupoidMorphism(G2, pi.codomain, pi.image))
    assert E.moved()
    rep = gk.verify_axioms(E, samples=5)
    for name, scan in (("axiom7_involutive", E.table().involution_defect),
                       ("axiom8_antimultiplicative",
                        E.table().antimultiplicative_defect)):
        entry = rep.entry(name)
        assert not entry.passed and entry.residual == scan()[0] > 0.5


# -- slice margins by row norms

@st.composite
def slice_reps(draw):
    """A representation over one unit or over pair(2), 1 to 3 basis
    elements per arrow, each with 1 to 3 slice entries in distinct
    columns; with a coin, one more entry of another basis element in a
    column already used."""
    H = pair_blocks([["z"]] if draw(st.booleans()) else [["p", "q"]])
    over = np.repeat(np.arange(len(H.arrows)), draw(st.lists(
        st.integers(1, 3), min_size=len(H.arrows),
        max_size=len(H.arrows))))
    weight = st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0,
                                allow_nan=False, allow_infinity=False)
    entries, used = [], {}
    for a in range(len(over)):
        mine = np.flatnonzero(over == over[a])
        unit = np.flatnonzero(over == H.src_idx[over[a]])
        for _ in range(draw(st.integers(1, 3))):
            column = (int(mine[draw(st.integers(0, len(mine) - 1))]),
                      int(unit[draw(st.integers(0, len(unit) - 1))]))
            if column not in used:
                used[column] = a
                entries.append((a, *column, draw(weight)))
    if draw(st.booleans()):
        (row, col), a = draw(st.sampled_from(sorted(used.items())))
        mates = np.flatnonzero(over == over[a])
        entries.append((int(mates[(np.flatnonzero(mates == a)[0] + 1)
                                  % len(mates)]), row, col, draw(weight)))
    a, rows, cols, w = map(np.array, zip(*entries))
    T = StructureTable(len(over), [], [], [], [], [], [], [])
    return RegularRepresentation(T, H, (a, rows, cols, w.astype(complex)),
                                 over=over)


@settings(max_examples=100, deadline=None)
@given(rep=slice_reps())
def test_row_norm_margin_equals_the_svd(rep):
    margin, cut, h = rep.slice_margin()
    oracle = svd_slice_margins(rep)
    assert margin == pytest.approx(min(oracle.values()), abs=1e-12)
    assert oracle[h] == pytest.approx(margin, abs=1e-12)


def test_column_with_two_entries_takes_the_svd(monkeypatch):
    # one arrow with a fiber of 2: the rows (e_0, e_1) of its slice have
    # norms 1 and sqrt(6); a second entry in column (0, 0) needs the SVD
    H = pair_blocks([["z"]])
    T = StructureTable(2, [], [], [], [], [], [], [])
    a, rows, cols, w = [0, 1, 1], [0, 1, 0], [0, 0, 1], [1.0, 2.0, 1 + 1j]
    svd = _counting(monkeypatch, algebra, "stacked_singular_values")
    for extra, want_svd in ((False, 0), (True, 1)):
        if extra:
            a, rows, cols, w = a + [1], rows + [0], cols + [0], w + [0.5]
        rep = RegularRepresentation(T, H, tuple(map(np.array, (
            a, rows, cols, np.array(w, complex)))), over=np.zeros(2, int))
        margin = rep.slice_margin()[0]
        assert len(svd) == want_svd
        assert margin == pytest.approx(svd_slice_margins(rep)[0], abs=1e-12)
    assert margin != pytest.approx(1.0)


# -- bijectivity per block

def _block_map(kind, n):
    """(U, row block, column block) of the basis map of ext on heis_n (one
    block per coset) or of abelian extract on the quotient of heis_n (one
    block per base arrow)."""
    if kind == "ext":
        _, _, U, res = _extension(n)
        K = len(res.extension.kernel)
        return U, np.arange(len(U)) // K, res.extension.coset
    E = gk.build_bundle(corpus.heisenberg_quotient(n))
    res = gk.abelian_extract(E)
    return res.basis_map, E.arrow, res.action_groupoid.projection.image


def _check_block_test(kind, n, change):
    """block_bijectivity on the basis map of ``kind`` with one of its
    largest blocks changed decides as numpy's matrix_rank of the whole."""
    U, row_block, col_block = _block_map(kind, n)
    b = np.argmax(np.bincount(row_block))
    rows, cols = np.flatnonzero(row_block == b), np.flatnonzero(col_block == b)
    assert len(rows) == len(cols) >= 2
    V = U.copy()
    if change == "zero_row":
        V[rows[1], cols] = 0.0
    elif change == "equal_columns":
        V[rows, cols[1]] = V[rows, cols[0]]
    elif change == "scaled_row":  # still invertible
        V[rows[1], cols] *= 2.0
    passed, residual, witness = algebra.block_bijectivity(V, row_block,
                                                          col_block)
    rank = np.linalg.matrix_rank(V)
    assert passed == (rank == len(V))
    assert passed == (change in ("none", "scaled_row"))
    if passed:
        assert residual == 0.0 and witness is None
    else:
        assert residual is None
        assert witness == f"rank {rank} of a {len(V)} x {len(V)} map"


_CHANGES = ["none", "zero_row", "equal_columns", "scaled_row"]


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("change", _CHANGES)
def test_coset_test_fails_exactly_when_matrix_rank_does(n, change):
    _check_block_test("ext", n, change)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("change", _CHANGES)
def test_arrow_block_test_fails_exactly_when_matrix_rank_does(n, change):
    _check_block_test("extract", n, change)


def test_block_test_fails_on_a_shape_that_is_not_square():
    U, row_block, col_block = _block_map("ext", 2)
    n = len(U)
    assert algebra.block_bijectivity(U[:, 1:], row_block, col_block[1:]) \
        == (False, None, f"rank {n - 1} of a {n} x {n - 1} map")


# -- one witness rule for the defects of every basis map

def _basis_maps():
    """(label, D, T, U, names, the entries of the caller) of the basis
    maps of psi-check (onto the untwisted bundle of the heis3 quotient),
    ext (heis3) and abelian extract (the heis3 quotient)."""
    pi = corpus.heisenberg_quotient(3)
    G, E = pi.domain, gk.build_bundle(pi)
    U = np.zeros((E.total_dim(), len(G.arrows)))
    U[E.psi_slots, np.arange(len(G.arrows))] = 1.0
    psi = gk.psi_iso_check(pi, bundle=E, samples=5)
    D, T, V, ext = _extension(3)
    res = gk.abelian_extract(E)
    ta = gk.TwistedConvolutionAlgebra(res.action_groupoid.groupoid,
                                      res.cocycle)
    return [("psi", G.table, E.table(), U, G.arrows,
             [psi.entry(n) for n in ("multiplicative", "star_preserving")]),
            ("ext", D, T, V, ext.extension.group.elements,
             [ext.entry(f"basis_map_{n}") for n in ("multiplicative", "star")]),
            ("extract", ta.table, E.table(), res.basis_map,
             res.action_groupoid.groupoid.arrows,
             [res.entry(f"basis_map_{n}") for n in ("multiplicative",
                                                    "star")])]


def test_a_defect_names_a_witness_only_when_it_fails():
    for label, D, T, U, names, entries in _basis_maps():
        # passing entries carry no witness, also with a rounding residual
        for entry in entries:
            assert entry.passed and entry.witness is None, label
        if label != "psi":
            assert entries[0].residual > 0.0, label
        assert all(e[2] is None for e in algebra.map_defects(
            D, T, U, names, [("associative", 0.0, None)], TOL))
        # one scaled entry: the multiplicative defect fails and names the
        # first pair of the largest difference
        rows, cols = np.nonzero(U)
        V = U.copy()
        V[rows[len(rows) // 2], cols[len(rows) // 2]] *= 1.5
        mul, star = algebra.map_defects(D, T, V, names,
                                        [("associative", 0.0, None)], TOL)
        assert not mul[0] and mul[1] > TOL, label
        x, g = D.hom_defect(T, V)[1]
        assert mul[2] == f"({names[x]!r}, {names[g]!r})"
        assert star[0] == (star[2] is None), label


def test_psi_check_of_a_twisted_bundle_names_its_witness():
    # a twisted section table is not the domain's moved: psi-check scans
    # the defects of its 0/1 map, which fail with a witness
    pi = corpus.heisenberg_quotient(2)
    omega = gk.coboundary_cocycle(pi.domain, {
        g: np.exp(0.1j * i) for i, g in enumerate(pi.domain.arrows)})
    E = gk.build_bundle(pi, omega)
    assert not E.moved()
    entry = gk.psi_iso_check(pi, bundle=E, samples=5).entry("multiplicative")
    assert not entry.passed and entry.witness.startswith("('")
