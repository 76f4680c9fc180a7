"""The norm certificate of ``verify_axioms``: axioms 4, 9 and 10 and
``norm_consistency`` certified on every element from measured hypotheses
(axioms 3 and 7, definite Gram blocks with right roots, the section
*-representation) instead of sampled norms.

On every intact parity bundle and shipped morphism the certified report
agrees with the per-element oracle (``oracles.dense_verify_axioms``; the
broken parity bundles are compared in ``test_bundle.py``); each negative
control
breaks a hypothesis, takes the sampled path and gives the report that path
gave before the certificate; a passing bundle takes no norm at all. Also
here: psi-check admits its bundle at the caller's samples and seed, one
section representation serves a bundle, ``StructureTable.hom_defect`` in
bounded passes, and ``corpus.heisenberg_closed_form_defect`` as arrays.
"""

import contextlib
import io
import json

import numpy as np
import pytest

import gpdkit as gk
import gpdkit.algebra as galgebra
import gpdkit.bundle as gbundle
import gpdkit.fiberblocks as gfiberblocks
import gpdkit.io as gio
from gpdkit import corpus
from gpdkit.cli import main
from gpdkit.fiberblocks import FiberBlocks, fiber_blocks

from oracles import (bundle_from, dense_verify_axioms,
                     loop_heisenberg_closed_form_defect, table_arrays)
from test_bundle import (_assert_same_checks, _first_non_unit, _mutated,
                         _negate_star, _over, _parity_bundles,
                         _scale_product)

NORM_AXIOMS = ("axiom4_submultiplicative", "axiom10_positive",
               "axiom9_cstar_identity", "norm_consistency")
SHIPPED = ("flip_covering", "heis2_quotient", "heis3_quotient")
# parity bundles on which every hypothesis holds
INTACT = ("heis3", "flip", "z3_cocycle_line", "twisted_covering",
          "nonsaturated", "skew_basis")


def _bundles() -> dict:
    parity = _parity_bundles()
    out = {name: parity[name] for name in INTACT}
    for name in SHIPPED:
        out[name] = gk.build_bundle(gio.load_morphism(
            corpus.data_path(f"{name}.morphism.json")))
    return out


@pytest.fixture(scope="module")
def bundles():
    return _bundles()


@pytest.fixture
def sampled(monkeypatch):
    """The calls of the sampled path of verify_axioms."""
    calls = []
    real = gbundle._sampled_norm_axioms

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)
    monkeypatch.setattr(gbundle, "_sampled_norm_axioms", spy)
    return calls


# -- agreement with the per-element oracle

@pytest.mark.parametrize("name", list(_bundles()))
@pytest.mark.parametrize("seed", [0, 1])
def test_report_agrees_with_the_dense_oracle(bundles, sampled, name, seed):
    E = bundles[name]
    rep = gk.verify_axioms(E, samples=12, seed=seed)
    _assert_same_checks(rep, dense_verify_axioms(E, samples=12, seed=seed))
    assert not sampled and rep.axioms_pass
    # the four entries carry the largest hypothesis residual
    res = [rep.entry(n).residual for n in NORM_AXIOMS]
    assert res == [res[0]] * 4 and 0.0 <= res[0] <= 1e-12
    assert res[0] == max(r for _, r, _ in gbundle._norm_hypotheses(
        E, rep, 1e-9))


# -- negative controls: each breaks a hypothesis and takes the sampled
# path, whose flags are the ones verify_axioms gave before the certificate
# (at samples=12, seed=0; residuals to 1e-12 for another BLAS). Axioms 2
# and 6 are definitional (residual 0.0), and the sampled path draws from
# a stream of its own, so the residuals and witnesses of the norm entries
# are those of that stream.

def _gram_root():
    """heis3 with the Gram root of its first non-unit fiber scaled by
    1.001 before anything reads it."""
    E = gk.build_bundle(corpus.heisenberg_quotient(3))
    B = fiber_blocks(E)
    row, _, t, _ = B.gram()[0]
    t[B.arrow[row] == np.flatnonzero(~B.is_unit)[0]] *= 1.001
    return E


def _star_weight():
    """heis2 with the first star weight of its first non-unit arrow
    turned by a phase: axiom 7 still holds, the star is no adjoint."""
    E = gk.build_bundle(corpus.heisenberg_quotient(2))
    arrays = table_arrays(E)
    k = np.flatnonzero(_over(E, arrays, "s", _first_non_unit(E)))[0]
    arrays["sw"][k] *= np.exp(0.5j)
    return bundle_from(E, arrays)


_EXACT = [("axiom1_fiber_map", True, 0.0, None),
          ("axiom5_star_fiber_map", True, 0.0, None)]
_DEGENERATE = ("section inner product is degenerate; the bundle is not a "
               "Fell bundle")
CONTROLS = {
    "associative": (
        lambda: _mutated(gk.build_bundle(corpus.heisenberg_quotient(2)),
                         _scale_product),
        "axiom3_associative",
        _EXACT + [
            ("axiom2_bilinear", True, 0.0, None),
            ("axiom6_conjugate_linear", True, 0.0, None),
            ("axiom3_associative", False, 0.5,
             "(h='(0,0)','(1,0)','(0,1)' e=1,0,0)"),
            ("axiom7_involutive", True, 0.0, None),
            ("axiom8_antimultiplicative", False, 0.5,
             "(h='(0,1)','(1,0)' e=0,0)"),
            ("axiom4_submultiplicative", False, 0.5, "(h='(1,0)','(0,1)')"),
            ("axiom10_positive", True, 0.0, None),
            ("axiom9_cstar_identity", False, 0.5555555555555556,
             "(h='(1,0)')"),
            ("norm_consistency", False, 0.3333333333333333, "(h='(1,0)')"),
            ("saturation", True, None, None)]),
    "star": (
        lambda: _mutated(gk.build_bundle(gk.build_action_groupoid(
            corpus.flip_action()).projection), _negate_star),
        "definite(section)",
        _EXACT + [
            ("axiom2_bilinear", True, 0.0, None),
            ("axiom6_conjugate_linear", True, 0.0, None),
            ("axiom3_associative", True, 0.0, None),
            ("axiom7_involutive", True, 0.0, None),
            ("axiom8_antimultiplicative", True, 0.0, None),
            ("axiom4_submultiplicative", True, 2.3596399711539507e-16, None),
            ("axiom10_positive", False, 6.807176248092192e+30, "(h='g1')"),
            ("axiom9_cstar_identity", False, None, _DEGENERATE),
            ("norm_consistency", False, None, _DEGENERATE),
            ("saturation", True, None, None)]),
    "gram_root": (
        _gram_root, "gram(section)",
        _EXACT + [
            ("axiom2_bilinear", True, 0.0, None),
            ("axiom6_conjugate_linear", True, 0.0, None),
            ("axiom3_associative", True, 0.0, None),
            ("axiom7_involutive", True, 0.0, None),
            ("axiom8_antimultiplicative", True, 0.0, None),
            ("axiom4_submultiplicative", True, 1.7452690850798042e-16, None),
            ("axiom10_positive", True, 0.0, None),
            ("axiom9_cstar_identity", False, 0.0009990009990012054,
             "(h='(1,2)')"),
            ("norm_consistency", False, 0.0009990009990010944,
             "(h='(2,2)')"),
            ("saturation", True, None, None)]),
    "star_weight": (
        _star_weight, "star_rep(section)",
        _EXACT + [
            ("axiom2_bilinear", True, 0.0, None),
            ("axiom6_conjugate_linear", True, 0.0, None),
            ("axiom3_associative", True, 0.0, None),
            ("axiom7_involutive", True, 2.5802204073195862e-17, None),
            ("axiom8_antimultiplicative", False, 0.9588510772084059,
             "(h='(0,1)','(0,1)' e=0,0)"),
            ("axiom4_submultiplicative", False, 0.053556177998208776,
             "(h='(1,0)','(0,1)')"),
            ("axiom10_positive", True, 0.0, None),
            ("axiom9_cstar_identity", False, 0.1224174381096272,
             "(h='(0,0)')"),
            ("norm_consistency", False, 0.0632062329998279, "(h='(0,0)')"),
            ("saturation", True, None, None)]),
}


@pytest.mark.parametrize("name", list(CONTROLS))
def test_broken_hypothesis_takes_the_sampled_path(sampled, name):
    make, hypothesis, want = CONTROLS[name]
    E = make()
    rep = gk.verify_axioms(E, samples=12, seed=0)
    assert sampled == [E]
    broken = dict((h, r) for h, r, _ in gbundle._norm_hypotheses(
        E, rep, 1e-9))[hypothesis]
    assert broken is None or broken > 1e-9
    got = [(e.name, e.passed, e.residual, e.witness) for e in rep.entries]
    assert [g[:2] + g[3:] for g in got] == [w[:2] + w[3:] for w in want]
    for (_, _, r, _), (name_, _, r_want, _) in zip(got, want):
        if r_want is None:
            assert r is None, name_
        else:
            assert r == pytest.approx(r_want, rel=1e-12, abs=1e-12), name_


def test_certificate_rule_is_shared_with_the_isometry_certificate():
    # the first hypothesis decided false wins, else the first largest
    hyps = [("a", 1e-3, "x"), ("b", None, "y"), ("c", None, "z")]
    assert galgebra.certificate(hyps, 1e-9) == (False, None, "b: y")
    hyps = [("a", 1e-3, "x"), ("b", 2e-3, "y"), ("c", 2e-3, "z")]
    assert galgebra.certificate(hyps, 1e-9) == (False, 2e-3, "b: y")
    assert galgebra.certificate(hyps, 1e-2) == (True, 2e-3, None)


# -- cost pin

def test_passing_bundle_takes_no_norm(monkeypatch, sampled):
    E = gk.build_bundle(corpus.heisenberg_quotient(3))
    calls = []
    for module in (galgebra, gfiberblocks):
        real = module.spectral_norms
        monkeypatch.setattr(module, "spectral_norms",
                            lambda S, _real=real: calls.append("kernel")
                            or _real(S))
    for method in ("op_norms", "unit_norms"):
        real = getattr(FiberBlocks, method)
        monkeypatch.setattr(FiberBlocks, method,
                            lambda self, *a, _real=real, _m=method, **k:
                            calls.append(_m) or _real(self, *a, **k))
    real = gbundle._submultiplicative_defects
    monkeypatch.setattr(gbundle, "_submultiplicative_defects",
                        lambda *a: calls.append("axiom4") or real(*a))
    rep = gk.verify_axioms(E, samples=100)
    assert rep.passed and rep.saturated
    assert calls == [] and sampled == []


# -- psi-check admits its bundle at the caller's samples and seed

def _cli(argv) -> int:
    argv = [corpus.data_path(a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    json.loads(out.getvalue())
    return code


@pytest.mark.parametrize("argv", [
    ["bundle", "psi-check", "--morphism", "heis2_quotient.morphism.json"],
    ["demo", "pair"], ["demo", "heisenberg", "--n", "2"]])
def test_psi_check_verifies_at_the_callers_samples_and_seed(monkeypatch,
                                                            argv):
    seen = []
    real = gbundle.verify_axioms

    def spy(E, tol=1e-9, samples=100, seed=0):
        seen.append((samples, seed))
        return real(E, tol=tol, samples=samples, seed=seed)
    monkeypatch.setattr(gbundle, "verify_axioms", spy)
    assert _cli([*argv, "--samples", "7", "--seed", "3"]) == 0
    assert seen == [(7, 3)]


# -- one section representation per bundle

def test_one_section_representation_per_bundle(monkeypatch):
    made = []
    real = galgebra.RegularRepresentation.__init__

    def spy(self, table, *args, **kwargs):
        made.append(table)
        real(self, table, *args, **kwargs)
    monkeypatch.setattr(galgebra.RegularRepresentation, "__init__", spy)
    gram = []
    real_gram = FiberBlocks.gram_defect
    monkeypatch.setattr(FiberBlocks, "gram_defect",
                        lambda self: gram.append(1) or real_gram(self))
    pi = corpus.heisenberg_quotient(3)
    E = gk.build_bundle(pi)
    iso = gk.psi_iso_check(pi, bundle=E)
    assert iso.passed
    B = fiber_blocks(E)
    # the section side once (verify_axioms, the section algebra and the
    # isometry certificate share it), the domain's once
    assert sum(t is E.table() for t in made) == 1 and len(made) == 2
    assert gbundle.SectionSpace(E).rep is B.representation()
    assert B.representation().star_defect() is B.representation().\
        star_defect()
    assert len(gram) == 2 and B.gram_defect() is B.gram_defect()


# -- StructureTable.hom_defect in bounded passes

def _extension_maps():
    out = []
    for n in (2, 3):
        res = gk.group_extension_bundle(corpus.heisenberg_extension(n))
        ta = gk.TwistedConvolutionAlgebra(res.action_groupoid.groupoid,
                                          res.cocycle)
        A = res.extension.group.to_groupoid().table
        out.append((A, ta.table, res.basis_map))
        U = res.basis_map.copy()
        rows, cols = np.nonzero(U)
        rng = np.random.default_rng(n)
        for k in rng.integers(len(rows), size=2):
            U[rows[k], cols[k]] *= 1.01 * np.exp(1j * rng.standard_normal())
        out.append((A, ta.table, U))
    return out


@pytest.mark.parametrize("k", range(4))
def test_hom_defect_does_not_depend_on_the_pass_size(monkeypatch, k):
    A, B, U = _extension_maps()[k]
    whole = A.hom_defect(B, U)
    assert (whole[0] > 1e-3) == bool(k % 2)
    for size in (1, 97, 5000):
        monkeypatch.setattr(galgebra, "_TRIPLES_PER_PASS", size)
        assert A.hom_defect(B, U) == whole


def test_hom_defect_passes_bound_the_terms(monkeypatch):
    A, B, U = _extension_maps()[2]
    sizes = []
    real = galgebra._defect

    def spy(lhs, rhs, dim):
        sizes.append(len(lhs[0]) + len(rhs[0]))
        return real(lhs, rhs, dim)
    monkeypatch.setattr(galgebra, "_defect", spy)
    monkeypatch.setattr(galgebra, "_TRIPLES_PER_PASS", 300)
    A.hom_defect(B, U)
    # a pass may run over by the terms of one factor; in a group every
    # factor has as many
    assert len(sizes) > 10 and max(sizes) <= 300 + sum(sizes) / A.dim


# -- corpus.heisenberg_closed_form_defect as arrays

@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_closed_form_defect_matches_the_loop(n):
    res = gk.group_extension_bundle(corpus.heisenberg_extension(n))
    assert corpus.heisenberg_closed_form_defect(res, n) == (0.0, None)
    w = res.cocycle.table.w.copy()
    rng = np.random.default_rng(n)
    for k in rng.integers(len(w), size=3):
        w[k] *= np.exp(1j * rng.uniform(0.1, 3.0))
    res.cocycle = gk.Cocycle(res.cocycle.base, w)
    got = corpus.heisenberg_closed_form_defect(res, n)
    assert got == loop_heisenberg_closed_form_defect(res, n)
    assert got[0] > 0.05 and got[1] is not None
