"""Two exact identities that spare a bundle repeated work, each tested on
the bundle before it is used.

- A section table that is the domain's table with its basis moved by psi
  (``FellBundle.moved``) is the same algebra: psi-check reports its two
  defects at 0.0 and takes the section blocks from the domain's solve.
  ``moved`` gathers each entry pulled back through psi^-1 from the
  domain's layout; the reference sorts both tables.
- Gram blocks with no off-diagonal term (``FiberBlocks.diagonal``) take
  their roots and margins from the diagonal, with no eigh, and the table
  goes into orthonormal coordinates by a rescaling of its weights.

Where an identity does not hold, the general path runs as before: the
negative controls below keep the reports they gave before.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gpdkit as gk
from gpdkit import actions, algebra, corpus
from gpdkit.algebra import StructureTable, wedderburn_from_tables
from gpdkit.cli import main
from gpdkit.fiberblocks import fiber_blocks

from oracles import bundle_from, dense_psi_defects, dense_verify_axioms, \
    random_action, random_cocycle, rebased, root_blocks, slot_arrows, \
    sorted_moved, table_arrays


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records every call; return the
    list of calls."""
    calls, fn = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def _entries(report):
    return [(e.name, e.passed, e.residual, e.witness) for e in report.entries]


def _gram_block(B, h):
    """G_h[i, j] = tau(e_i* e_j) of the arrow h, summed one term of the
    inner-product tensor at a time."""
    G = np.zeros((B.dims[h], B.dims[h]), dtype=complex)
    for g, i, j, m, w in zip(*B.inner("B")[:5]):
        if g == h:
            G[i, j] += w * B.tau[B.src[h], m]
    return G


def _eigh_roots(B):
    """([T_h], [T_h^-1], smallest and largest eigenvalue) of the Gram
    blocks of B, each d x d, by one eigh per arrow."""
    T, Ti = [], []
    lo, hi = np.zeros(B.nA), np.zeros(B.nA)
    for h, d in enumerate(B.dims):
        G = _gram_block(B, h)
        ev, U = np.linalg.eigh((G + G.conj().T) / 2.0)
        if d:
            lo[h], hi[h] = ev[0], ev[-1]
        root = np.sqrt(np.maximum(ev, 0.0))
        T.append((U * root) @ U.conj().T)
        Ti.append((U / root) @ U.conj().T)
    return T, Ti, lo, hi


# -- negative controls: a section table with one weight turned is not
# the domain's moved, so psi-check solves it and compares both tables
# entry by entry, with the report it gave before the identity was used

def _turned(kind):
    """heis3 with the weight of its first product of non-units onto a
    non-unit (or of its first star entry of a non-unit) turned by the
    phase e^{0.5i}, built with its morphism."""
    pi = corpus.heisenberg_quotient(3)
    E = gk.build_bundle(pi)
    arrays, over, H = table_arrays(E), slot_arrows(E), E.base
    if kind == "product":
        e = next(e for e, abc in enumerate(zip(*(arrays[k] for k in "abc")))
                 if not any(H.is_unit(over[x]) for x in abc))
        arrays["w"][e] *= np.exp(0.5j)
    else:
        e = next(e for e, s in enumerate(arrays["s"])
                 if not H.is_unit(over[s]))
        arrays["sw"][e] *= np.exp(0.5j)
    return pi, E, bundle_from(E, arrays, morphism=pi)


_TURN = abs(np.exp(0.5j) - 1.0)
_STAR_REP = "star_rep(section): (h='(0,1)', e=0) at row "
TURNED = {
    "product": [
        ("linear_bijection", True, 0.0, None),
        ("multiplicative", False, _TURN, "('[0,1,0]', '[0,1,0]')"),
        ("star_preserving", True, 0.0, None),
        ("hilbert_module_match", True, 0.0, None),
        ("isometric", False, _TURN, _STAR_REP + "(h='(0,1)', e=0)"),
        ("wedderburn_equal", False, None,
         "minimal central projections not certified: distance of a trace "
         "from a perfect square")],
    "star": [
        ("linear_bijection", True, 0.0, None),
        ("multiplicative", True, 0.0, None),
        ("star_preserving", False, _TURN, "'[0,1,0]'"),
        ("hilbert_module_match", False, _TURN, "('[0,1,0]', '[0,1,0]')"),
        ("isometric", False, 0.5117727673823378,
         _STAR_REP + "(h='(0,0)', e=0)"),
        ("wedderburn_equal", True, 0.0, None)],
}


@pytest.mark.parametrize("kind", list(TURNED))
def test_turned_weight_is_solved_and_scanned(kind, monkeypatch):
    pi, E, broken = _turned(kind)
    assert E.moved() and not broken.moved()
    rep = gk.verify_axioms(E, samples=5)  # the intact axioms admit it
    scans = {name: _counting(monkeypatch, StructureTable, name)
             for name in ("hom_defect", "star_hom_defect")}
    solves = _counting(monkeypatch, algebra, "_center_entries")
    iso = gk.psi_iso_check(pi, bundle=broken, axiom_report=rep)
    # psi is a permutation: no map of U is scanned
    assert [len(c) for c in scans.values()] == [0, 0]
    # the domain, then the section table itself
    assert [args[0] for args in solves] == [pi.domain.table, broken.table()]
    got = _entries(iso)
    assert [e[:2] for e in got] == [e[:2] for e in TURNED[kind]]
    for (_, _, res, wit), (_, _, want, want_wit) in zip(got, TURNED[kind]):
        assert res == pytest.approx(want, abs=1e-12, rel=1e-12)
        assert wit is None if want_wit is None else wit.startswith(want_wit)
    assert (iso.blocks_bundle is None) == (kind == "product")


def test_moved_bundle_solves_only_the_domain(monkeypatch):
    pi = corpus.heisenberg_quotient(3)
    scans = {name: _counting(monkeypatch, StructureTable, name)
             for name in ("hom_defect", "star_hom_defect")}
    solves = _counting(monkeypatch, algebra, "_center_entries")
    iso = gk.psi_iso_check(pi, samples=5)
    assert iso.passed and scans == {"hom_defect": [],
                                    "star_hom_defect": []}
    assert [args[0] for args in solves] == [pi.domain.table]
    for name in ("multiplicative", "star_preserving"):
        e = iso.entry(name)
        assert (e.passed, e.residual, e.witness) == (True, 0.0, None)
    assert iso.blocks_bundle == iso.blocks_domain == (3, 3) + (1,) * 9


# -- negative control: one off-diagonal Gram entry takes the eigh path

def _skewed(E):
    """E in the basis f_0 = e_0 + 0.5 e_1, f_i = e_i else, of the fiber
    over its first non-unit arrow: the Gram block there has one
    off-diagonal entry (and its conjugate), every other stays diagonal."""
    h = next(h for h in E.base.arrows
             if not E.base.is_unit(h) and E.dim(h) > 1)
    P = np.eye(E.total_dim(), dtype=complex)
    P[E.first[h] + 1, E.first[h]] = 0.5
    return rebased(E, P), E.base.index[h]


def test_one_off_diagonal_gram_entry_takes_the_eigh_path(monkeypatch):
    E, h = _skewed(gk.build_bundle(corpus.heisenberg_quotient(2)))
    B = fiber_blocks(E)
    eigh = _counting(monkeypatch, np.linalg, "eigh")
    _, lo, hi = B.gram()
    assert B.diagonal is False and len(eigh) == 1  # one fiber dimension
    G = _gram_block(B, h)
    assert np.count_nonzero(G - np.diag(np.diagonal(G))) == 2
    T, Ti, want_lo, want_hi = _eigh_roots(B)
    got_T, got_Ti = root_blocks(B)
    for got, want in zip(got_T + got_Ti, T + Ti):
        assert np.abs(got - want).max(initial=0.0) <= 1e-12
    assert np.abs(lo - want_lo).max() <= 1e-12
    assert np.abs(hi - want_hi).max() <= 1e-12
    # and the bundle checks agree with the per-element oracle
    rep = gk.verify_axioms(E, samples=12, seed=0)
    want = dense_verify_axioms(E, samples=12, seed=0)
    assert [e[:2] + e[3:] for e in _entries(rep)] == \
        [e[:2] + e[3:] for e in _entries(want)]
    for e, w in zip(rep.entries, want.entries):
        assert (e.residual is None) == (w.residual is None)
        assert e.residual is None or abs(e.residual - w.residual) <= 1e-12


# -- oracle: on untwisted morphisms both identities hold, and what they
# carry equals what they spare

def _morphism(kind, seed):
    """An untwisted surjection: the projection of a random action
    groupoid (unions of pair blocks and cyclic groups acting on points),
    the identity of a union of pair groupoids and groups, or a
    Heisenberg quotient."""
    rng = np.random.default_rng(seed)
    if kind == "action":
        return gk.build_action_groupoid(random_action(rng)).projection
    if kind == "heis":
        return corpus.heisenberg_quotient(2 + seed % 2)
    parts = [corpus.pair_groupoid(int(rng.integers(1, 4))),
             corpus.cyclic_groupoid(int(rng.integers(1, 6))),
             corpus.heisenberg_groupoid(2)][:1 + seed % 3]
    return corpus.identity_morphism(corpus.disjoint_union(
        [(f"p{i}", G) for i, G in enumerate(parts)]))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["action", "identity", "heis"]),
       st.integers(0, 2 ** 16))
def test_carried_results_equal_the_computed_ones(kind, seed):
    pi = _morphism(kind, seed)
    E = gk.build_bundle(pi)
    assert E.moved()
    iso = gk.psi_iso_check(pi, bundle=E, samples=5, seed=seed % 4)
    assert iso.passed
    # the two U-defects and the section blocks, computed
    G, T = pi.domain, E.table()
    U = np.zeros((T.dim, len(G.arrows)))
    U[E.psi_slots, np.arange(len(G.arrows))] = 1.0
    D = G.table
    assert D.hom_defect(T, U) == D.star_hom_defect(T, U) == (0.0, None)
    for name in ("multiplicative", "star_preserving"):
        assert iso.entry(name).residual == 0.0
    fresh = StructureTable(T.dim, T.a, T.b, T.c, T.w, T.s, T.t, T.sw)
    assert iso.blocks_bundle == wedderburn_from_tables(fresh).blocks
    e = gk.verify_axioms(E, samples=5).entry("axiom3_associative")
    assert fresh.associativity_defect() == (e.residual, e.witness) \
        == (0.0, None)
    # the diagonal roots and margins against the eigh path
    B = fiber_blocks(E)
    _, lo, hi = B.gram()
    assert B.diagonal is True
    want = _eigh_roots(B)
    got_T, got_Ti = root_blocks(B)
    for x, y in zip(got_T + got_Ti, want[0] + want[1]):
        assert np.abs(x - y).max(initial=0.0) <= 1e-12
    for x, y in zip((lo, hi), want[2:]):
        assert np.abs(x - y).max(initial=0.0) <= 1e-12
    live = B.dims > 0
    margin = want[2][live].min() / max(want[3][live].max(), 1.0)
    assert B.gram_margin()[0] == pytest.approx(margin, abs=1e-12)
    # one orthonormal entry per table entry: w T[c, c] / T[b, b]
    a, c, b, w = B.orthonormal()[:4]
    t = np.concatenate([np.diagonal(T) for T in want[0]])
    assert np.array_equal(np.sort(a), np.sort(T.a)) and len(a) == len(T.a)
    assert np.abs(w - T.w * t[c] / t[b]).max(initial=0.0) <= 1e-12


# -- moved by gathers against the sorted comparison of both tables

_MOVED = ("intact", "shuffled")  # the variants that stay the domain's moved


def _variant(pi, kind, rng):
    """The bundle of pi changed as ``kind`` names, with draws from rng:
    its entries in a shuffled order, one entry (product or star) repeated
    over another, one product or star weight turned by e^{0.5i}, built
    with a random cocycle, or with one domain arrow missed by psi (its
    basis label renamed)."""
    if kind == "twisted":
        return gk.build_bundle(pi, random_cocycle(pi.domain, rng, pi))
    E = gk.build_bundle(pi)
    if kind == "missed":
        h = next(h for h in E.base.arrows if E.dim(h))
        fibers = dict(E.fibers, **{h: ("missed",) + E.fibers[h][1:]})
        return gk.FellBundle(E.base, fibers, E.table(), morphism=pi)
    arrays = table_arrays(E)
    kinds = [(("a", "b", "c", "w"), len(arrays["a"])),
             (("s", "t", "sw"), len(arrays["s"]))]
    if kind == "shuffled":
        for names, k in kinds:
            p = rng.permutation(k)
            arrays.update({n: arrays[n][p] for n in names})
    elif kind != "intact":  # a product or a star entry
        names, k = kinds[int(rng.integers(2))]
        if kind == "repeated":
            i, j = rng.choice(k, 2, replace=False)
            for n in names:
                arrays[n][i] = arrays[n][j]
        else:
            arrays[names[-1]][rng.integers(k)] *= np.exp(0.5j)
    return bundle_from(E, arrays, morphism=pi)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["action", "heis"]), st.integers(0, 2 ** 16),
       st.sampled_from(_MOVED + ("repeated", "turned", "twisted",
                                 "missed")))
def test_moved_equals_the_sorted_comparison(kind, seed, variant):
    pi = _morphism(kind, seed)
    E = _variant(pi, variant, np.random.default_rng(seed))
    assert E.moved() == sorted_moved(pi.domain.table, E.table(),
                                     E.psi_slots) == (variant in _MOVED)


# -- the unmoved entries of psi-check against the dense matrix of psi

def _unmoved(name):
    """(pi, bundle, admitting report) of a psi-check control: the turned
    weights above, admitted by the intact bundle's axioms; heis2 and heis3
    with a random cocycle; random action groupoids, with a random cocycle
    or none."""
    if name in TURNED:
        pi, E, broken = _turned(name)
        return pi, broken, gk.verify_axioms(E, samples=5)
    kind, seed = name.rsplit("-", 1)
    rng = np.random.default_rng(int(seed))
    if kind.startswith("heis"):
        pi = corpus.heisenberg_quotient(int(kind[4:]))
    else:
        pi = gk.build_action_groupoid(random_action(rng)).projection
    E = gk.build_bundle(pi, None if kind == "action" else random_cocycle(
        pi.domain, rng, pi))
    return pi, E, gk.verify_axioms(E, samples=5)


@pytest.mark.parametrize("name", [*TURNED, "heis2-0", "heis3-1"]
                         + [f"{k}-{s}" for k in ("twisted", "action")
                            for s in range(4)])
def test_unmoved_entries_equal_the_dense_map_route(name):
    pi, E, rep = _unmoved(name)
    iso = gk.psi_iso_check(pi, bundle=E, axiom_report=rep)
    want = dense_psi_defects(pi, E, rep)
    for entry, (passed, res, witness) in zip(
            ("multiplicative", "star_preserving"), want):
        e = iso.entry(entry)
        assert (e.passed, e.residual, e.witness) == (passed, res, witness)
    assert E.moved() == name.startswith("action")
    if not E.moved() and name not in TURNED:
        assert not iso.entry("multiplicative").passed


# -- call counts of the commands that use the identities

@pytest.mark.parametrize("argv", [
    ["bundle", "verify", "--morphism",
     corpus.data_path("heis3_quotient.morphism.json")],
    ["bundle", "verify", "--morphism",
     corpus.data_path("flip_covering.morphism.json")],
    ["demo", "cuntz"]])
def test_diagonal_gram_bundles_take_no_eigh(argv, monkeypatch, capsys):
    eigh = _counting(monkeypatch, np.linalg, "eigh")
    assert main(argv) == 0
    capsys.readouterr()
    assert eigh == []


def test_demo_heisenberg_solves_twice_and_scans_the_extension(monkeypatch,
                                                             capsys):
    # the group (psi and the extension read its one solve) and the twisted
    # algebra; the one U-defect scan is the extension's basis map
    solves = _counting(monkeypatch, algebra, "_center_entries")
    scans = {name: _counting(monkeypatch, StructureTable, name)
             for name in ("hom_defect", "star_hom_defect")}
    assert main(["demo", "heisenberg", "--n", "3"]) == 0
    capsys.readouterr()
    assert len(solves) == 2
    assert [len(c) for c in scans.values()] == [1, 1]


def test_twisted_algebra_reads_the_checked_table(monkeypatch):
    # cocycle_check and the algebra's solve read one twisted table, whose
    # associativity is scanned once, in the extension and in an extraction
    made = []
    init = actions.TwistedConvolutionAlgebra.__init__

    def kept(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)
    monkeypatch.setattr(actions.TwistedConvolutionAlgebra, "__init__", kept)
    scans = _counting(monkeypatch, StructureTable, "_associativity_defect")
    ext = gk.group_extension_bundle(corpus.heisenberg_extension(3))
    ag = gk.build_action_groupoid(corpus.flip_action())
    omega = random_cocycle(ag.groupoid, np.random.default_rng(2))
    res = gk.abelian_extract(gk.build_bundle(ag.projection, twist=omega))
    assert ext.passed and res.passed and len(made) == 2
    for ta in made:
        T = ta.table
        assert [t for (t,) in scans if t.dim == T.dim and all(
            np.array_equal(getattr(t, k), getattr(T, k)) for k in "abcw")
        ] == [T]


def test_extract_builds_the_input_twist_once(monkeypatch, tmp_path, capsys):
    # abelian extract --cocycle builds the twisted table of its input once,
    # a Cocycle read by cocycle_check and the bundle, and once of the
    # extracted twist
    from gpdkit import io as gio
    from gpdkit.report import canonical_json
    ag = gk.build_action_groupoid(corpus.flip_action())
    cpath = tmp_path / "om.json"
    cpath.write_text(canonical_json(gio.save_cocycle(random_cocycle(
        ag.groupoid, np.random.default_rng(17)))))
    built, init = [], actions.Cocycle.__init__

    def counted(self, base, omega):
        init(self, base, omega)
        built.append(self.table)
    monkeypatch.setattr(actions.Cocycle, "__init__", counted)
    made = _counting(monkeypatch, StructureTable, "associativity_defect")
    assert main(["abelian", "extract", "--morphism",
                 corpus.data_path("flip_covering.morphism.json"),
                 "--cocycle", str(cpath)]) == 0
    capsys.readouterr()
    assert len(built) == 2
    # each twist's identity is read from the table its Cocycle built
    assert all(any(t is b for (t,) in made) for b in built)
