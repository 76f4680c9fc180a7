"""The isometry certificate of psi-check, ``ext analyze`` and ``abelian
extract`` (``gpdkit.algebra.isometry_certificate``) against the sampled
norm comparison it replaced (``oracles.isometry_defect``): they agree on
the corpus, and each negative control fails the certificate with a
witness that names the broken hypothesis.
"""

import contextlib
import io
import json

import numpy as np
import pytest

import gpdkit as gk
import gpdkit.bundle as gbundle
import gpdkit.extensions as gext
from gpdkit import algebra, corpus
from gpdkit.algebra import (RegularRepresentation, StructureTable, _regular,
                            isometry_certificate)
from gpdkit.cli import main
from gpdkit.fiberblocks import fiber_blocks
from gpdkit.report import CheckEntry

from oracles import isometry_defect, random_action, random_cocycle


def _cli(argv) -> tuple:
    """(exit code, parsed JSON report) of one in-process CLI run."""
    argv = [corpus.data_path(a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, json.loads(out.getvalue())


def _check(report, name) -> dict:
    return next(c for c in report["checks"] if c["name"] == name)


def _sampled(rep_a, rep_b, U, samples=50) -> float:
    return isometry_defect(rep_a.norms, rep_b.norms, U,
                           np.random.default_rng(0), samples)


def _psi_map(E, G) -> np.ndarray:
    U = np.zeros((E.total_dim(), len(G.arrows)))
    U[E.psi_slots, np.arange(len(G.arrows))] = 1.0
    return U


# -- the three callers on the corpus, each with the sampled oracle: (the
# certificate's entry, the sampled defect, the tolerance of the entry)

def _psi_case(pi, bundle=None, axiom_report=None):
    E = gk.build_bundle(pi) if bundle is None else bundle
    iso = gk.psi_iso_check(pi, bundle=E, axiom_report=axiom_report)
    sa = gk.section_algebra(E, report=axiom_report)
    G = pi.domain
    return (iso.entry("isometric"),
            _sampled(_regular(G), sa.space.rep, _psi_map(E, G)), 1e-9)


def _extension_case(n):
    res = gk.group_extension_bundle(corpus.heisenberg_extension(n))
    ta = gext.TwistedConvolutionAlgebra(res.action_groupoid.groupoid,
                                        res.cocycle)
    group = _regular(res.extension.group.to_groupoid())
    return (res.entry("basis_map_isometric"),
            _sampled(group, ta.rep, res.basis_map), 1e-8)


def _extraction_case(E):
    res = gk.abelian_extract(E)
    ta = gk.TwistedConvolutionAlgebra(res.action_groupoid.groupoid,
                                      res.cocycle)
    return (res.entry("basis_map_isometric"),
            _sampled(ta.rep, gk.section_algebra(E).space.rep,
                     res.basis_map), 1e-8)


def _covering_bundle(seed):
    rng = np.random.default_rng(seed)
    ag = gk.build_action_groupoid(random_action(rng))
    return gk.build_bundle(ag.projection,
                           twist=random_cocycle(ag.groupoid, rng))


CORPUS = {
    "pair": lambda: _psi_case(corpus.identity_morphism(
        corpus.pair_groupoid(2))),
    **{f"heis{n}_quotient": (lambda n=n: _psi_case(
        corpus.heisenberg_quotient(n))) for n in (2, 3, 4)},
    "flip_extraction": lambda: _extraction_case(gk.build_bundle(
        gk.build_action_groupoid(corpus.flip_action()).projection)),
    **{f"covering{s}": (lambda s=s: _extraction_case(_covering_bundle(s)))
       for s in range(5)},
    **{f"heis{n}_extension": (lambda n=n: _extension_case(n))
       for n in (2, 3)},
}


@pytest.mark.parametrize("name", list(CORPUS))
def test_certificate_and_sampled_oracle_agree(name):
    entry, sampled, tol = CORPUS[name]()
    assert entry.passed == (sampled <= tol)
    assert entry.passed and entry.witness is None
    assert entry.residual <= 1e-12


# -- negative controls

def _gram_root_perturbed():
    """psi on heis3 with the Gram root of one non-unit fiber scaled by
    1.001 before the section representation is built; the axioms are
    those of the intact bundle."""
    pi = corpus.heisenberg_quotient(3)
    intact = gk.verify_axioms(gk.build_bundle(pi))
    E = gk.build_bundle(pi)
    B = fiber_blocks(E)
    h = int(np.flatnonzero(~B.is_unit)[0])
    row, _, t, _ = B.gram()[0]
    t[B.arrow[row] == h] *= 1.001
    return _psi_case(pi, bundle=E, axiom_report=intact), E.base.arrows[h]


def test_perturbed_gram_root_fails_with_the_gram_hypothesis():
    (entry, sampled, tol), h = _gram_root_perturbed()
    assert not entry.passed
    assert entry.residual == pytest.approx(2e-3, rel=1e-2)
    assert entry.witness == f"gram(section): (h={h!r})"
    assert sampled > tol


class _WrongStar(gk.TwistedConvolutionAlgebra):
    """A twisted algebra whose first non-real star weight is the cocycle
    value itself instead of its conjugate."""

    def __init__(self, G, omega):
        super().__init__(G, omega)
        T = self.table
        sw = T.sw.copy()
        k = int(np.flatnonzero(np.abs(sw.imag) > 0.1)[0])
        sw[k] = np.conj(sw[k])
        self.table = StructureTable(T.dim, T.a, T.b, T.c, T.w, T.s, T.t, sw)
        self.rep = RegularRepresentation(self.table, G)


def test_twisted_star_conjugated_wrongly_fails_the_star_hypotheses(
        monkeypatch):
    monkeypatch.setattr(gext, "TwistedConvolutionAlgebra", _WrongStar)
    res = gk.group_extension_bundle(corpus.heisenberg_extension(3))
    assert not res.entry("basis_map_star").passed
    entry = res.entry("basis_map_isometric")
    assert not entry.passed and entry.residual > 1.0
    # the entry breaks both star hypotheses by the same amount, up to
    # rounding: the witness names the larger, or the map's on a tie
    ta = _WrongStar(res.action_groupoid.groupoid, res.cocycle)
    res_rep = ta.rep.star_defect()[0]
    assert res_rep == pytest.approx(entry.residual, rel=1e-12)
    star = res.entry("basis_map_star").residual
    assert entry.witness.startswith("basis_map_star: " if star >= res_rep
                                    else "star_rep(twisted): (h=")
    # norms never read a star entry: the sampled comparison cannot see it
    group = _regular(res.extension.group.to_groupoid())
    assert _sampled(group, ta.rep, res.basis_map) <= 1e-8


def _scaled_column_case():
    """The psi map of heis2 with column 3 scaled by 2, certified against
    the hypotheses psi-check measures, and its sampled defect."""
    pi = corpus.heisenberg_quotient(2)
    E = gk.build_bundle(pi)
    sa = gk.section_algebra(E)
    G = pi.domain
    U = _psi_map(E, G)
    U[:, 3] *= 2.0
    A, B = G.table, E.table()
    (res_mul, pair), (res_star, s) = A.hom_defect(B, U), \
        A.star_hom_defect(B, U)
    entry = CheckEntry("isometric", *isometry_certificate(
        [("linear_bijection", 0.0, None),
         ("multiplicative", res_mul, f"{pair}"),
         ("star_preserving", res_star, f"{s}")]
        + gbundle._section_hypotheses(sa),
        [("domain", _regular(G)), ("section", sa.space.rep)], 1e-9))
    return entry, _sampled(_regular(G), sa.space.rep, U), 1e-9


def test_scaled_column_fails_the_certificate():
    entry, sampled, tol = _scaled_column_case()
    # e_3 = [0,1,1] squares to the unit: (2 e_3)^2 = 4 e_1 against e_1
    assert not entry.passed and entry.residual == 3.0
    assert entry.witness.startswith("multiplicative: (")
    assert sampled > tol


def _swapped_psi_slots(monkeypatch):
    """Make build_bundle of psi-check swap the psi slots of the first two
    domain arrows over one non-unit base arrow: psi stays a permutation
    and the bundle stays intact."""
    build = gbundle.build_bundle
    made = []

    def swapped(pi, twist=None):
        E = build(pi, twist)
        h = next(h for h in E.base.arrows
                 if not E.base.is_unit(h) and E.dim(h) > 1)
        i, j = (pi.domain.index[g] for g in E.fibers[h][:2])
        E.psi_slots[[i, j]] = E.psi_slots[[j, i]]
        made.append(E)
        return E
    monkeypatch.setattr(gbundle, "build_bundle", swapped)
    return made


def test_broken_map_fails_at_samples_0(monkeypatch):
    made = _swapped_psi_slots(monkeypatch)
    code, report = _cli(["bundle", "psi-check", "--morphism",
                         "heis3_quotient.morphism.json", "--samples", "0"])
    assert code == 1
    entry = _check(report, "isometric")
    assert not entry["pass"] and entry["residual"] == 1.0
    assert entry["witness"].startswith("multiplicative: (")
    # the sampled comparison sees the swap too
    E = made[0]
    pi = E.morphism
    sa = gk.section_algebra(E)
    assert _sampled(_regular(pi.domain), sa.space.rep,
                    _psi_map(E, pi.domain)) > 1e-9


@pytest.mark.parametrize("argv, name", [
    (["bundle", "psi-check", "--morphism", "heis3_quotient.morphism.json"],
     "isometric"),
    (["ext", "analyze", "--group", "heis3.group.json"],
     "basis_map_isometric")])
def test_isometric_does_not_depend_on_samples(argv, name):
    entries = [_check(_cli([*argv, "--samples", s])[1], name)
               for s in ("0", "100")]
    assert entries[0] == entries[1]
    assert entries[0]["pass"] and entries[0]["residual"] <= 1e-12


@pytest.mark.parametrize("argv", [
    ["bundle", "psi-check", "--morphism", "heis3_quotient.morphism.json"],
    ["ext", "analyze", "--group", "heis3.group.json"]])
def test_norm_kernel_calls_do_not_grow_with_samples(monkeypatch, argv):
    calls = []
    kernel = algebra.spectral_norms
    monkeypatch.setattr(algebra, "spectral_norms",
                        lambda S: calls.append(np.shape(S)) or kernel(S))
    counts = []
    for samples in ("0", "100"):
        calls.clear()
        assert _cli([*argv, "--samples", samples])[0] == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


NEGATIVE_CONTROLS = {"gram_root": lambda: _gram_root_perturbed()[0],
                     "scaled_column": _scaled_column_case}


@pytest.mark.parametrize("name", list(NEGATIVE_CONTROLS))
def test_certificate_and_sampled_oracle_both_fail(name):
    entry, sampled, tol = NEGATIVE_CONTROLS[name]()
    assert not entry.passed and sampled > tol


# -- the representation checks themselves

def _dense_blocks(rep):
    """The dim x dim matrix of every basis element in ``rep``, entries
    between different summands left out, one at a time."""
    n = rep.table.dim
    a, rows, cols, w = rep.entries
    M = np.zeros((n, n, n), dtype=complex)
    for x, r, c, v in zip(a, rows, cols, w):
        if rep.summand[r] == rep.summand[c]:
            M[x, r, c] += v
    return M


def _dense_star_defect(rep):
    T, M = rep.table, _dense_blocks(rep)
    star = np.zeros_like(M)
    for s, t, sw in zip(T.s, T.t, T.sw):
        star[s] += sw * M[t]
    return float(np.abs(M.conj().transpose(0, 2, 1) - star).max(
        initial=0.0))


def _reps():
    """name -> (representation, the groupoid its basis lies over)."""
    G = corpus.heisenberg_groupoid(2)
    rng = np.random.default_rng(11)
    ag = gk.build_action_groupoid(random_action(rng))
    twisted = gk.TwistedConvolutionAlgebra(
        ag.groupoid, random_cocycle(ag.groupoid, rng))
    E = gk.build_bundle(corpus.heisenberg_quotient(2))
    return {"groupoid": (_regular(G), G),
            "twisted": (twisted.rep, ag.groupoid),
            "section": (gk.section_algebra(E).space.rep, E.base)}


@pytest.mark.parametrize("name", ["groupoid", "twisted", "section"])
def test_star_defect_matches_the_dense_blocks(name):
    rep, H = _reps()[name]
    res, entry = rep.star_defect()
    assert res == pytest.approx(_dense_star_defect(rep), abs=1e-15)
    assert res <= 1e-14
    assert rep.star_defect() is rep.star_defect()  # kept on the rep
    T = rep.table
    # one star weight turned by a phase: the defect reads it, named
    sw = T.sw.copy()
    sw[3] *= np.exp(0.5j)
    broken = RegularRepresentation(
        StructureTable(T.dim, T.a, T.b, T.c, T.w, T.s, T.t, sw),
        H, rep.entries, over=rep.over)
    res, (s, _) = broken.star_defect()
    assert res == pytest.approx(_dense_star_defect(broken), rel=1e-12)
    assert res > 0.1 and s == T.s[3]


@pytest.mark.parametrize("name", ["groupoid", "twisted", "section"])
def test_slice_margin_of_valid_representations(name):
    rep, H = _reps()[name]
    margin, cut, h = rep.slice_margin()
    assert margin > 0.5 > 1e3 * cut and h is not None
    if name == "groupoid":
        assert (0, margin) == gk.faithfulness_defect(H)


def test_zeroed_slice_entry_names_its_arrow():
    rep, H = _reps()["section"]
    a, rows, cols, w = rep.entries
    over = rep.over
    on = np.flatnonzero(over[cols] == H.src_idx[over[rows]])
    k = on[np.argmax(~H.unit_mask()[over[rows[on]]])]
    h = over[rows[k]]
    # every slice entry of one basis element over h cleared: a zero row
    kill = on[a[on] == a[k]]
    w = w.copy()
    w[kill] = 0.0
    broken = RegularRepresentation(rep.table, H, (a, rows, cols, w),
                                   over=over)
    margin, cut, at = broken.slice_margin()
    assert margin <= cut and at == h
    passed, residual, witness = isometry_certificate(
        [], [("section", broken)], 1e-9)
    assert not passed and residual is None
    assert witness.startswith("faithful(section): sigma_min")
    assert witness.endswith(f"over {H.arrows[h]!r}")


def test_cli_error_without_witness_reports_its_message():
    code, report = _cli(["demo", "heisenberg", "--n", "2", "--tol", "0"])
    assert code == 1
    entry = _check(report, "BundleNotVerified")
    assert not entry["pass"]
    assert entry["witness"].startswith("bundle failed verification: axiom")
