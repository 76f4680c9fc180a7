"""The C*-identities that ``alg wedderburn`` and ``bundle verify`` certify
from measured hypotheses instead of sampled norms: the four norm entries of
``alg wedderburn`` (the regular representation is a *-homomorphism),
``expectation_contractive`` (the expectation is a pinching of the section
representation) and the bimodule ``inner_products_positive`` (an instance
of axiom 10). Also here: axiom 3 of a bundle whose section table is its
domain's table moved by psi takes the domain's kept defect.

Each certificate agrees in pass flag with its sampled oracle of
tests/oracles.py; each negative control breaks a hypothesis and fails with
a witness, or takes the sampled path and gives the report that path gave
before the certificate; a passing run takes no norm and draws nothing
after axioms 2 and 6.
"""

import contextlib
import io
import json

import numpy as np
import pytest

import gpdkit as gk
import gpdkit.algebra as galgebra
import gpdkit.bundle as gbundle
import gpdkit.cli as gcli
import gpdkit.io as gio
from gpdkit import corpus
from gpdkit.algebra import RegularRepresentation, StructureTable
from gpdkit.cli import main
from gpdkit.fiberblocks import FiberBlocks, fiber_blocks

from oracles import (bundle_from, dense_bimodule_check,
                     loop_expectation_contractive, random_cocycle, slot_arrows,
                     table_arrays)
from test_bundle import (_first_non_unit, _mutated, _negate_star,
                         _parity_bundles, _scale_product)
from test_bundle_certificate import INTACT, SHIPPED, _bundles

NORM_ENTRIES = ("cstar_identity", "submultiplicative",
                "involution_isometric", "squares_positive")


def _cli(argv):
    """(exit code, parsed report) of one in-process CLI run."""
    argv = [corpus.data_path(a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, json.loads(out.getvalue())


def _spy(monkeypatch, owner, name, calls):
    """Record the name of every call of owner.name in ``calls``."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name)
                        or real(*a, **k))


@pytest.fixture(scope="module")
def bundles():
    return _bundles()


# -- alg wedderburn: the regular representation is a *-homomorphism

def test_turned_star_weight_fails_every_norm_entry(monkeypatch):
    # heis3 whose regular representation reads a table with the star
    # weight of its first non-unit arrow turned by a phase
    G = gio.load_groupoid(corpus.data_path("heis3.groupoid.json"))
    T = G.table
    k = int(np.flatnonzero(~G.unit_mask())[0])
    sw = T.sw.copy()
    sw[T.s == k] *= np.exp(0.5j)
    G._rep = RegularRepresentation(
        StructureTable(T.dim, T.a, T.b, T.c, T.w, T.s, T.t, sw), G)
    monkeypatch.setattr(gio, "load_groupoid", lambda *a, **kw: G)
    code, rep = _cli(["alg", "wedderburn", "--groupoid",
                      "heis3.groupoid.json"])
    checks = {c["name"]: c for c in rep["checks"]}
    assert code == 1
    for name in NORM_ENTRIES:
        c = checks[name]
        assert not c["pass"], name
        assert c["residual"] == pytest.approx(abs(np.exp(0.5j) - 1))
        assert c["witness"].startswith(
            f"star_rep(regular): (h={G.arrows[k]!r}, e=0) at row "), name
    assert checks["unit_expectation_faithful_support"]["pass"]


def test_passing_wedderburn_takes_no_norm(monkeypatch):
    calls = []
    for owner in (galgebra, gcli):
        _spy(monkeypatch, owner, "positivity_check", calls)
    _spy(monkeypatch, RegularRepresentation, "norms", calls)
    code, rep = _cli(["alg", "wedderburn", "--groupoid",
                      "heis3.groupoid.json", "--samples", "100"])
    assert code == 0 and calls == []
    assert all(c["residual"] == 0.0 for c in rep["checks"]
               if c["name"] in NORM_ENTRIES)


# -- bundle verify: expectation_contractive is a pinching

@pytest.mark.parametrize("name", INTACT + SHIPPED)
def test_expectation_agrees_with_the_sampled_loop(bundles, name):
    E = bundles[name]
    assert gbundle.expectation_certificate(E, 1e-9) == (True, 0.0, None)
    assert loop_expectation_contractive(E, 40, 0, 1e-9) <= 1e-9


def test_moved_entry_fails_expectation_contractive():
    # one entry of the section representation of heis3 moved to a row over
    # another arrow (the base has one unit, so one summand)
    E = gk.build_bundle(corpus.heisenberg_quotient(3))
    B = fiber_blocks(E)
    a, rows, cols, w = (v.copy() for v in B.representation().entries)
    e = len(a) // 2
    rows[e] = B.first[(B.arrow[rows[e]] + 1) % B.nA]
    B._rep = moved = RegularRepresentation(B.table, B.base, (a, rows, cols, w),
                                           over=B.arrow)
    assert gbundle.expectation_certificate(E, 1e-9) == (
        False, None, f"graded(section): {moved.describe(a[e])} at row "
        f"{moved.describe(rows[e])}, col {moved.describe(cols[e])}")


# -- bimodule inner_products_positive: an instance of axiom 10

@pytest.fixture(scope="module")
def parity_bundles():
    return _parity_bundles()


@pytest.mark.parametrize("name", list(_parity_bundles()))
def test_bimodule_with_report_agrees_with_the_dense_oracle(parity_bundles,
                                                           name):
    E = parity_bundles[name]
    rep = gk.verify_axioms(E, samples=12, seed=0)
    if not fiber_blocks(E).saturation(1e-9)[0]:
        return  # NotSaturated either way (test_bundle.py)
    certified = galgebra.certificate(gbundle._norm_hypotheses(E, rep, 1e-9),
                                     1e-9)
    for U in gk.greedy_bisection_cover(E.base):
        try:
            want = dense_bimodule_check(E, U, samples=8, seed=3)
        except gk.FellBundleError as exc:  # a degenerate unit fiber
            with pytest.raises(gk.FellBundleError) as got:
                gk.bisection_bimodule_check(E, [U], samples=8, seed=3,
                                            axiom_report=rep)[0]
            assert (str(got.value), got.value.witness) == \
                (str(exc), exc.witness)
            continue
        got = gk.bisection_bimodule_check(E, [U], samples=8, seed=3,
                                          axiom_report=rep)[0]
        assert [(e.name, e.passed, e.witness) for e in got.entries] == \
            [(e.name, e.passed, e.witness) for e in want.entries]
        pos = got.entry("inner_products_positive").residual
        assert pos == (certified[1] if certified[0] else pytest.approx(
            want.entry("inner_products_positive").residual, rel=1e-12,
            abs=1e-12))


def test_negated_star_takes_the_sampled_bimodule_path(monkeypatch):
    E = _mutated(gk.build_bundle(gk.build_action_groupoid(
        corpus.flip_action()).projection), _negate_star)
    rep = gk.verify_axioms(E, samples=12, seed=0)
    assert not rep.axioms_pass
    drawn = []
    _spy(monkeypatch, FiberBlocks, "random_rows", drawn)
    covers = gk.greedy_bisection_cover(E.base)
    # one pass over the cover: each bisection draws at the seed, as alone
    got = [[(e.name, e.passed, e.residual, e.witness) for e in r.entries]
           for r in gk.bisection_bimodule_check(E, covers, samples=8, seed=3,
                                                axiom_report=rep)]
    assert len(drawn) == len(covers)
    # the reports of bisection_bimodule_check before the certificate
    rest = [("fullness_B", True, None, None), ("fullness_A", True, None, None),
            ("imprimitivity", True, 0.0, None)]
    assert got[0] == [("inner_products_positive", True, 0.0, None), *rest]
    assert got[1][1:] == rest
    assert got[1][0][:2] == ("inner_products_positive", False)
    assert got[1][0][2] == pytest.approx(4.506678772375042e+30, rel=1e-12)
    assert got == [[(e.name, e.passed, e.residual, e.witness) for e in
                    gk.bisection_bimodule_check(E, [U], samples=8,
                                                seed=3)[0].entries]
                   for U in covers]


# -- cost pin of bundle verify

@pytest.mark.parametrize("name", ["heis3_quotient", "flip_covering"])
def test_passing_verify_takes_no_norm_and_draws_nothing(monkeypatch, name):
    calls, drawn = [], []
    _spy(monkeypatch, RegularRepresentation, "norms", calls)
    _spy(monkeypatch, FiberBlocks, "unit_norms", calls)
    _spy(monkeypatch, FiberBlocks, "random_rows", drawn)
    code, rep = _cli(["bundle", "verify", "--morphism",
                      f"{name}.morphism.json", "--samples", "100"])
    assert code == 0 and calls == []
    assert drawn == []
    assert any(c["name"].startswith("bimodule") for c in rep["checks"])


def test_verify_takes_the_norm_certificate_once_per_pass(monkeypatch):
    # once in verify_axioms and once for the bimodule checks of all nine
    # bisections of the heis3 quotient, not once per bisection
    calls = []
    _spy(monkeypatch, gbundle, "_norm_hypotheses", calls)
    code, rep = _cli(["bundle", "verify", "--morphism",
                      "heis3_quotient.morphism.json"])
    assert code == 0 and len(calls) == 2
    assert [c["name"] for c in rep["checks"]
            if c["name"].endswith("imprimitivity")] == \
        [f"bimodule{i}_imprimitivity" for i in range(9)]


# -- axiom 3 through the domain's kept defect

@pytest.fixture
def measured(monkeypatch):
    """The tables whose associativity defect is measured."""
    tables = []
    real = StructureTable._associativity_defect
    monkeypatch.setattr(StructureTable, "_associativity_defect",
                        lambda self: tables.append(self) or real(self))
    return tables


def test_validated_tables_keep_their_defect(measured):
    G = gio.load_groupoid(corpus.data_path("heis3.groupoid.json"))
    group = gk.GroupTable(*corpus.heisenberg_elements(2))
    assert measured == [G.table, group.table]
    assert G.table.associativity_defect() == (0.0, None)
    assert group.to_groupoid().table.associativity_defect() == (0.0, None)
    assert measured == [G.table, group.table]


def test_moved_domain_table_takes_the_domains_defect(measured):
    pi = corpus.heisenberg_quotient(3)  # GroupTable measures its table
    E = gk.build_bundle(pi)
    assert E.moved()
    del measured[:]
    rep = gk.verify_axioms(E, samples=12)
    assert measured == []
    e = rep.entry("axiom3_associative")
    assert (e.passed, e.residual, e.witness) == (True, 0.0, None)


def test_twisted_table_is_not_moved():
    ag = gk.build_action_groupoid(corpus.flip_action())
    omega = random_cocycle(ag.groupoid, np.random.default_rng(1))
    E = gk.build_bundle(ag.projection, twist=omega)
    assert not E.moved()


def test_changed_entry_takes_the_full_scan(measured):
    # heis2 with one product weight scaled, built with its morphism: the
    # table is no longer the domain's moved, so axiom 3 scans the table
    # and reports the witness it reported before
    pi = corpus.heisenberg_quotient(2)
    E = gk.build_bundle(pi)
    arrays = table_arrays(E)
    _scale_product(E, arrays, slot_arrows(E))
    broken = bundle_from(E, arrays, morphism=pi)
    assert not broken.moved()
    del measured[:]
    rep = gk.verify_axioms(broken, samples=12, seed=0)
    assert measured == [broken.table()]
    e = rep.entry("axiom3_associative")
    assert (e.passed, e.residual, e.witness) == (
        False, 0.5, "(h='(0,0)','(1,0)','(0,1)' e=1,0,0)")


def test_redirected_entry_is_not_moved():
    # one product entry of heis2 sent to another slot of its fiber
    pi = corpus.heisenberg_quotient(2)
    E = gk.build_bundle(pi)
    arrays = table_arrays(E)
    h = _first_non_unit(E)
    e = int(np.flatnonzero(arrays["c"] == E.first[h])[0])
    arrays["c"][e] += 1
    broken = bundle_from(E, arrays, morphism=pi)
    assert not broken.moved()
    assert not gk.verify_axioms(broken, samples=5).entry(
        "axiom3_associative").passed
