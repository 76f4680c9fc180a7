"""Library checks return CheckList entries, and the CLI adds them as they
are.

The entries of ``cocycle_check``, ``check_graph_morphism`` and
``grading_degree`` are pinned to the residuals, flags and witnesses of the
report fields they replaced. The failures that the command handlers leave
to ``cli.main`` (a GroupoidError or FellBundleError with a witness) are
pinned whole, stdout, stderr and exit code, in
``tests/golden/error_paths.json``.

Regenerate that file, only from a tree whose reports are known good:

    PYTHONPATH=src python tests/test_check_entries.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import gpdkit as gk
from gpdkit import corpus, io as gio
from gpdkit.cli import main
from gpdkit.report import CheckEntry

GOLDEN = Path(__file__).resolve().parent / "golden" / "error_paths.json"

COCYCLE = ("cocycle_identity", "cocycle_modulus", "cocycle_normalized")
GRAPH = ("incidence", "surjective_vertices", "surjective_edges",
         "path_lifting")


def _cocycle_cases() -> dict:
    """zn2_bilinear_cocycle(3) and three single-weight corruptions: a
    phase on the first pair of non-units, a modulus of 2 there, and -1 on
    the first pair with a unit factor."""
    om = corpus.zn2_bilinear_cocycle(3)
    T, unit = om.table, om.base.unit_mask()
    nonunit = np.flatnonzero(~unit[T.a] & ~unit[T.b])[0]
    unit_pair = np.flatnonzero(unit[T.a] & ~unit[T.b])[0]

    def corrupt(k, value):
        w = T.w.copy()
        w[k] = value
        return gk.Cocycle(om.base, w)
    return {"valid": om,
            "phase": corrupt(nonunit, T.w[nonunit] * np.exp(0.5j)),
            "modulus": corrupt(nonunit, 2 * T.w[nonunit]),
            "unit_weight": corrupt(unit_pair, -1.0)}


# (identity, modulus, normalization) residuals and the identity witness
COCYCLE_REPORTS = {
    "valid": ((8.005932084973443e-16, 1.1102230246251565e-16, 0.0), None),
    "phase": ((0.4948079185090466, 1.1102230246251565e-16, 0.0),
              "('(1,0)', '(2,1)', '(0,1)')"),
    "modulus": ((1.0, 1.0, 0.0), "('(0,1)', '(0,1)', '(0,2)')"),
    "unit_weight": ((2.0, 1.1102230246251565e-16, 2.0),
                    "('(0,0)', '(0,0)', '(0,1)')"),
}


@pytest.mark.parametrize("case", sorted(COCYCLE_REPORTS))
def test_cocycle_check_entries(case):
    tol = 1e-12
    checks = gk.cocycle_check(_cocycle_cases()[case], tol)
    residuals, witness = COCYCLE_REPORTS[case]
    assert [e.name for e in checks.entries] == list(COCYCLE)
    for e, residual in zip(checks.entries, residuals):
        assert e.residual == pytest.approx(residual, rel=1e-12, abs=1e-15)
        assert e.passed == (residual <= tol)
    assert checks.entry("cocycle_identity").witness == witness
    assert [e.witness for e in checks.entries[1:]] == [None, None]
    assert checks.passed == (case == "valid")


def _graph_cases() -> dict:
    """The Cuntz morphism, and maps with a codomain vertex without a
    preimage, an edge without a preimage, and a vertex without a lift."""
    V, W, phi = corpus.cuntz_graphs()
    loops = {"1": "w", "2": "w", "3": "x"}
    W2 = gk.DirectedGraph(("w", "x"), ("1", "2", "3"), loops, loops)
    one = {"a": "v", "c": "v"}
    sub = gk.DirectedGraph(("v",), ("a", "c"), one, one)
    V3 = gk.DirectedGraph(("p", "q"), ("a", "b", "c"),
                          {"a": "p", "b": "p", "c": "q"},
                          {"a": "p", "b": "q", "c": "p"})
    return {"cuntz": phi,
            "vertex": gk.GraphMorphism(V, W2, {"v": "w"}, phi.emap),
            "edge": gk.GraphMorphism(sub, W, {"v": "w"},
                                     {"a": "1", "c": "1"}),
            "lift": gk.GraphMorphism(V3, W, {"p": "w", "q": "w"},
                                     {"a": "1", "b": "2", "c": "1"})}


# the flags of GRAPH and the witness every failing one carries
GRAPH_REPORTS = {
    "cuntz": ((True, True, True, True), None),
    "vertex": ((True, False, False, False), "vertex 'x' has no preimage"),
    "edge": ((True, True, False, False), "edge '2' has no preimage"),
    "lift": ((True, True, True, False), "no lift of edge '2' at vertex 'q'"),
}


@pytest.mark.parametrize("case", sorted(GRAPH_REPORTS))
def test_check_graph_morphism_entries(case):
    flags, witness = GRAPH_REPORTS[case]
    checks = gk.check_graph_morphism(_graph_cases()[case])
    assert checks.entries == [CheckEntry(name, ok, None,
                                         None if ok else witness)
                              for name, ok in zip(GRAPH, flags)]


@pytest.mark.parametrize("depth, n_arrows", [(0, 0), (1, 9), (2, 144),
                                             (3, 1521), (4, 14400)])
def test_grading_degree_entries(depth, n_arrows):
    V = gio.load_graph(corpus.data_path("cuntz_v.graph.json"))
    g = gk.grading_degree(gk.collapse_morphism(V), depth)
    span = max(depth - 1, 0)
    assert g.as_dict() == {
        "depth": depth, "n_arrows": n_arrows, "degree_range": [-span, span],
        "additive": True, "involution_flips": True,
        "degree_zero_matches_kernel": True, "pass": True, "witness": None}
    assert g.entries == [CheckEntry(name, True) for name in (
        "degree_additive", "involution_flips_degree",
        "degree_zero_matches_kernel")]


def _error_path_runs(directory: Path) -> dict:
    """Run name -> argv of each failure that reaches ``cli.main`` as an
    error, its input files written under ``directory``."""
    with open(corpus.data_path("z3.groupoid.json"), encoding="utf-8") as fh:
        z3 = json.load(fh)
    arrows, units, src, rng, inv, comp = corpus.corrupted_z3_tables()
    docs = {
        "associativity": {"arrows": arrows, "units": units, "src": src,
                          "rng": rng, "inv": inv,
                          "comp": [[a, b, c] for (a, b), c in comp.items()]},
        "undeclared_unit": {**z3, "units": ["zz"]},
        "missing_composite": {**z3, "comp": z3["comp"][:-1]},
        "repeated_arrow": {**z3, "arrows": z3["arrows"] + [z3["arrows"][1]]},
    }
    runs = {}
    for name, doc in docs.items():
        path = directory / f"{name}.groupoid.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        runs[f"gpd validate {name}"] = ["gpd", "validate", "--groupoid",
                                        str(path)]
    runs["action roundtrip not a covering"] = [
        "action", "roundtrip", "--morphism",
        corpus.data_path("heis2_quotient.morphism.json")]
    path = directory / "nonsaturated.morphism.json"
    path.write_text(json.dumps(gio.save_morphism(
        corpus.nonsaturated_surjection())), encoding="utf-8")
    runs["abelian extract not saturated"] = ["abelian", "extract",
                                             "--morphism", str(path)]
    return runs


@pytest.mark.parametrize("name", [
    "gpd validate associativity", "gpd validate undeclared_unit",
    "gpd validate missing_composite", "gpd validate repeated_arrow",
    "action roundtrip not a covering", "abelian extract not saturated"])
def test_error_path_report(name, tmp_path, capsys):
    code = main(_error_path_runs(tmp_path)[name])
    out = capsys.readouterr()
    assert {"exit": code, "stdout": out.out, "stderr": out.err} == \
        json.loads(GOLDEN.read_text())[name]


def _regenerate():
    import contextlib
    import io
    import tempfile
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in _error_path_runs(Path(tmp)).items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            golden[name] = {"exit": code, "stdout": out.getvalue(),
                            "stderr": err.getvalue()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(golden)} reports to {GOLDEN}")


if __name__ == "__main__" and "--regenerate" in sys.argv:
    _regenerate()
