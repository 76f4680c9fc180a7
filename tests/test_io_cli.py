import contextlib
import decimal
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gpdkit as gk
import gpdkit.io as gio
from gpdkit import corpus
from gpdkit.cli import DEMOS, HANDLERS, build_parser, main
from gpdkit.groupoid import pair_blocks
from gpdkit.report import _escape, canonical_json, digest_text
from oracles import (bundle_from, escape_loop, loop_bundle_build,
                     loop_expectation_contractive, loop_heisenberg_elements,
                     loop_wedderburn_samples, random_cocycle, rebased,
                     table_arrays)


DATA = corpus.data_path("")


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFormats:
    @pytest.mark.parametrize("text", [
        "", "plain (g1,g2) [0,1,0]", 'say "hi"', "back\\slash", "a\nb",
        "\t\r\b\f", "\x00", "\x1f", "\x7f", "caf\u00e9", "line\u2028sep",
        "\u00e9\"\\\x01"])
    def test_escape_matches_the_character_loop(self, text):
        assert _escape(text) == escape_loop(text)

    @pytest.mark.parametrize("exponent, offset", [
        (3, 0), (4299, 1), (4300, 0), (4000, -1), (4000, 0), (9001, 12345),
        (12000, -7)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_ints_keep_every_digit(self, exponent, offset, sign):
        # str(int) raises past 4,300 digits; Decimal prints them all
        with decimal.localcontext() as ctx:
            ctx.prec = exponent + 10
            value = sign * (decimal.Decimal(10) ** exponent + offset)
            expected = str(value)
        n = sign * (10 ** exponent + offset)
        assert canonical_json(n) == expected
        assert canonical_json({"n": [n]}) == \
            '{\n  "n": [\n    ' + expected + '\n  ]\n}'

    def test_groupoid_roundtrip(self, heis3, tmp_path):
        obj = gio.save_groupoid(heis3)
        path = tmp_path / "g.json"
        path.write_text(canonical_json(obj))
        G = gio.load_groupoid(str(path))
        assert G.arrows == heis3.arrows
        assert G.comp == heis3.comp

    def test_morphism_roundtrip(self, heis3_quotient, tmp_path):
        obj = gio.save_morphism(heis3_quotient)
        path = tmp_path / "m.json"
        path.write_text(canonical_json(obj))
        pi = gio.load_morphism(str(path))
        assert pi.map == heis3_quotient.map

    def test_morphism_with_relative_domain(self, tmp_path):
        gpath = tmp_path / "g.json"
        gpath.write_text(canonical_json(
            gio.save_groupoid(corpus.pair_groupoid(2))))
        pi = corpus.identity_morphism(corpus.pair_groupoid(2))
        mpath = tmp_path / "m.json"
        mpath.write_text(canonical_json(
            gio.save_morphism(pi, domain_ref="g.json",
                              codomain_ref="g.json")))
        loaded = gio.load_morphism(str(mpath))
        assert loaded.map == pi.map

    def test_bundle_roundtrip(self, heis3_quotient, tmp_path):
        E = gk.build_bundle(heis3_quotient)
        path = tmp_path / "b.json"
        path.write_text(canonical_json(gio.save_bundle(E)))
        E2 = gio.load_bundle(str(path))
        assert E2.total_dim() == E.total_dim()
        rep = gk.verify_axioms(E2, samples=20)
        assert rep.axioms_pass and rep.saturated

    def test_element_roundtrip(self, z3, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(canonical_json({
            "base": gio.save_groupoid(z3),
            "coeffs": {"g1": [1.5, -2.0]},
        }))
        f, base = gio.load_algebra_element(str(path))
        assert f.coeffs[base.index["g1"]] == 1.5 - 2.0j

    def test_graph_morphism_roundtrip(self, cuntz, tmp_path):
        _, _, phi = cuntz
        path = tmp_path / "gm.json"
        path.write_text(canonical_json(gio.save_graph_morphism(phi)))
        phi2 = gio.load_graph_morphism(str(path))
        assert phi2.emap == phi.emap

    def test_action_roundtrip(self, tmp_path):
        a = corpus.flip_action()
        path = tmp_path / "a.json"
        path.write_text(canonical_json(gio.save_action(a)))
        a2 = gio.load_action(str(path))
        assert a2.act == a.act

    def test_cocycle_roundtrip(self, tmp_path):
        om = corpus.zn2_bilinear_cocycle(2)
        path = tmp_path / "c.json"
        path.write_text(canonical_json(gio.save_cocycle(om)))
        om2 = gio.load_cocycle(str(path))
        for k, v in om.omega.items():
            assert abs(om2.omega[k] - v) < 1e-15

    def test_cocycle_rows_in_any_order_load_by_pair(self):
        # distinct values, rows reversed: each value lands on its pair
        G = corpus.heisenberg_groupoid(2)
        om = gk.Cocycle(G, np.exp(1j * np.arange(len(G.comp))))
        doc = gio.save_cocycle(om)
        doc["omega"].reverse()
        om2 = gio.load_cocycle(doc, groupoid=G)
        assert dict(om2.omega) == dict(om.omega)
        assert np.array_equal(om2.table.w, om.table.w)

    def test_bundle_with_empty_fiber(self, tmp_path):
        # a fiber may be empty; products into it vanish and saturation
        # fails exactly where the spanning rank drops
        obj = {
            "base": gio.save_groupoid(corpus.cyclic_groupoid(2)),
            "fibers": {"g0": ["e"], "g1": []},
            "mul": [["g0", 0, "g0", 0, {"0": [1.0, 0.0]}]],
            "star": [["g0", 0, {"0": [1.0, 0.0]}]],
        }
        path = tmp_path / "b.json"
        path.write_text(canonical_json(obj))
        E = gio.load_bundle(str(path))
        assert E.dim("g1") == 0
        rep = gk.verify_axioms(E, samples=10)
        assert rep.axioms_pass
        assert not rep.saturated

    def test_group_roundtrip(self, tmp_path):
        els, mul, _ = loop_heisenberg_elements(2)
        path = tmp_path / "grp.json"
        path.write_text(canonical_json(gio.save_group(els, mul,
                                                      ["[0,0,0]",
                                                       "[0,0,1]"])))
        e2, m2, k2 = gio.load_group(str(path))
        assert m2 == mul and k2 == ["[0,0,0]", "[0,0,1]"]


class TestParseErrors:
    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"arrows": []}')
        with pytest.raises(gio.ParseError) as exc:
            gio.load_groupoid(str(path))
        assert "units" in str(exc.value)
        assert exc.value.path == "$"

    def test_undeclared_arrow_in_comp(self, tmp_path):
        obj = gio.save_groupoid(corpus.cyclic_groupoid(2))
        obj["comp"][0][2] = "nope"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(gio.ParseError) as exc:
            gio.load_groupoid(str(path))
        assert "comp" in exc.value.path

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(gio.ParseError):
            gio.load_groupoid(str(path))

    @pytest.mark.parametrize("key, at, value, path, what", [
        ("mul", [3], "x", "$.mul[3]", "[h1, i, h2, j, expansion]"),
        ("mul", [3, 0], "nope", "$.mul[3]", "base arrows"),
        ("mul", [3, 1], 9, "$.mul[3][1]", "a basis index of the first fiber"),
        ("mul", [3, 3], True, "$.mul[3][3]",
         "a basis index of the second fiber"),
        ("mul", [3, 4], [1], "$.mul[3][4]", "an object {k: [re,im]}"),
        ("mul", [3, 4, "{0}"], [1, 0], "$.mul[3][4].{0}",
         "a basis index below 2"),
        ("mul", [3, 4, "0"], [1, "a"], "$.mul[3][4].0",
         "a [re, im] pair of finite numbers"),
        ("star", [2], 3, "$.star[2]", "[h, i, expansion]"),
        ("star", [2, 0], "nope", "$.star[2][0]", "a base arrow"),
        ("star", [2, 1], -1, "$.star[2][1]", "a basis index"),
        ("star", [2, 2], None, "$.star[2][2]", "an object {k: [re,im]}"),
        ("star", [2, 2, "1x"], [1, 0], "$.star[2][2].1x",
         "a basis index below 2"),
        ("star", [2, 2, "0"], [1], "$.star[2][2].0",
         "a [re, im] pair of finite numbers")])
    def test_bundle_entry_error_paths(self, key, at, value, path, what):
        # each path of a bundle entry is formatted only when its check
        # fails; it names the entry, the item and the term as before
        obj = gio.save_bundle(gk.build_bundle(gio.load_morphism(
            corpus.data_path("heis2_quotient.morphism.json"))))
        node = obj[key]
        for k in at[:-1]:
            node = node[k]
        node[at[-1]] = value
        with pytest.raises(gio.ParseError) as exc:
            gio.load_bundle(obj)
        assert (exc.value.path, exc.value.expectation) == (path, what)


class TestDispatch:
    def test_parser_covers_all_subcommands(self):
        parser = build_parser()
        for group, sub in HANDLERS:
            args = parser.parse_args(
                [group, sub] + _required_flags(group, sub))
            assert args.cmd == group


def _required_flags(group, sub):
    d = corpus.data_path
    table = {
        ("gpd", "validate"): ["--groupoid", d("pair.groupoid.json")],
        ("gpd", "morphism"): ["--morphism",
                              d("heis3_quotient.morphism.json")],
        ("alg", "wedderburn"): ["--groupoid", d("z3.groupoid.json")],
        ("bundle", "build"): ["--morphism", d("flip_covering.morphism.json")],
        ("bundle", "verify"): ["--morphism",
                               d("flip_covering.morphism.json")],
        ("bundle", "psi-check"): ["--morphism",
                                  d("flip_covering.morphism.json")],
        ("graph", "check"): ["--morphism", d("cuntz.graphmorphism.json")],
        ("graph", "fibers"): ["--morphism", d("cuntz.graphmorphism.json"),
                              "--word", "1"],
        ("graph", "grading"): ["--graph", d("cuntz_v.graph.json")],
        ("action", "build"): ["--action", d("flip.action.json")],
        ("action", "roundtrip"): ["--action", d("flip.action.json")],
        ("abelian", "extract"): ["--morphism",
                                 d("flip_covering.morphism.json")],
        ("ext", "analyze"): ["--group", d("z4.group.json")],
    }
    return table[(group, sub)]


class TestCli:
    @pytest.mark.parametrize("key", sorted(HANDLERS))
    def test_subcommands_pass_on_corpus(self, key, capsys):
        group, sub = key
        argv = [group, sub] + _required_flags(group, sub) + \
            ["--samples", "20"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["command"] == f"{group} {sub}"
        assert "FAIL" not in err

    @pytest.mark.parametrize("name", DEMOS)
    def test_demos_pass(self, name, capsys):
        argv = ["demo", name, "--samples", "20"]
        if name == "heisenberg":
            argv += ["--n", "2"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["pass"] is True

    def test_wedderburn_reports_its_margins(self, capsys):
        code, out, _ = run_cli(["alg", "wedderburn", "--groupoid",
                                corpus.data_path("heis3.groupoid.json")],
                               capsys)
        assert code == 0
        margins = json.loads(out)["margins"]
        assert sorted(margins) == ["central_gap", "central_spread",
                                   "faithfulness_sigma_min"]
        # eigenvalues far apart and traces far closer to squares than the
        # cut
        assert margins["central_gap"] > 100
        assert 0 <= margins["central_spread"] < 1e-2
        assert margins["faithfulness_sigma_min"] == 1.0

    def test_heisenberg_demo_blocks(self, capsys):
        code, out, _ = run_cli(["demo", "heisenberg", "--n", "2",
                                "--samples", "20"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["blocks"] == [2, 1, 1, 1, 1]

    def test_heisenberg_demo_builds_its_group_once(self, capsys,
                                                   monkeypatch):
        from gpdkit import cli, extensions
        elements = corpus.heisenberg_elements
        init = extensions.GroupTable.__init__
        psi, regular = cli.psi_iso_check, extensions._regular
        loops, tables, domains = [], [], []

        def counted_elements(n):
            loops.append(n)
            return elements(n)

        def counted_init(self, elements, mul, **kwargs):
            init(self, elements, mul, **kwargs)
            tables.append(len(self))

        def psi_of(pi, **kwargs):
            domains.append(pi.domain)
            return psi(pi, **kwargs)

        def regular_of(G):
            domains.append(G)
            return regular(G)
        monkeypatch.setattr(corpus, "heisenberg_elements", counted_elements)
        monkeypatch.setattr(extensions.GroupTable, "__init__", counted_init)
        monkeypatch.setattr(cli, "psi_iso_check", psi_of)
        monkeypatch.setattr(extensions, "_regular", regular_of)
        code, _, _ = run_cli(["demo", "heisenberg", "--n", "3",
                              "--samples", "5"], capsys)
        assert code == 0
        assert loops == [3] and tables.count(27) == 1
        # psi and the extension bundle work on the group's one groupoid
        assert len(domains) == 2 and domains[0] is domains[1]

    def test_graph_fibers_word_11(self, capsys):
        code, out, _ = run_cli(
            ["graph", "fibers", "--morphism",
             corpus.data_path("cuntz.graphmorphism.json"), "--word", "11"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["blocks"] == [4]

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"arrows": 3}')
        code, out, err = run_cli(["gpd", "validate", "--groupoid",
                                  str(path)], capsys)
        assert code == 2
        assert "expected" in err
        assert str(path) in err

    def test_verification_failure_exits_1(self, tmp_path, capsys):
        raw = corpus.corrupted_z3_tables()
        arrows, units, src, rng, inv, comp = raw
        obj = {"arrows": arrows, "units": units, "src": src, "rng": rng,
               "inv": inv,
               "comp": [[a, b, c] for (a, b), c in comp.items()]}
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(["gpd", "validate", "--groupoid",
                                  str(path)], capsys)
        assert code == 1
        payload = json.loads(out)
        assert not payload["pass"]
        assert payload["checks"][0]["name"] == "AssociativityFailure"
        assert payload["checks"][0]["witness"]

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["gpd", "validate", "--groupoid",
             corpus.data_path("z3.groupoid.json"), "--out", str(out_path)],
            capsys)
        assert code == 0
        assert out_path.read_text() == out

    def test_determinism_byte_identical(self):
        argv = [sys.executable, "-m", "gpdkit.cli", "bundle", "verify",
                "--morphism", corpus.data_path("flip_covering.morphism.json"),
                "--seed", "3", "--samples", "30"]
        # the child imports the gpdkit under test, installed or not
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
            os.path.dirname(os.path.dirname(gk.__file__)),
            os.environ.get("PYTHONPATH"))))}
        r1 = subprocess.run(argv, capture_output=True, text=True, env=env)
        r2 = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        assert r1.stdout.strip()

    @staticmethod
    def _imported(runs, modules):
        """The ``modules`` in sys.modules after the CLI ``runs``, each of
        which must exit 0, in one fresh process."""
        code = ("import contextlib, io, sys\n"
                "from gpdkit.cli import main\n"
                f"for argv in {runs!r}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert main(argv) == 0, argv\n"
                f"print([m for m in {modules!r} if m in sys.modules])\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
            os.path.dirname(os.path.dirname(gk.__file__)),
            os.environ.get("PYTHONPATH"))))}
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env)
        assert r.returncode == 0, r.stderr
        return r.stdout

    def test_demos_do_not_import_numpy_ma(self):
        # a plain np.unique imports numpy.ma on its first call: milliseconds
        # and a megabyte of every process
        assert self._imported([["demo", "heisenberg", "--n", "2"],
                               ["demo", "flip"], ["demo", "cuntz"]],
                              ["numpy.ma"]) == "[]\n"

    def test_drawing_commands_do_not_import_numpy_random(self):
        # numpy's random module costs about 12 ms and 2 MB in the first
        # process that uses it; the draws come from gpdkit.draws
        heis2, flip = (corpus.data_path(f"{m}.morphism.json")
                       for m in ("heis2_quotient", "flip_covering"))
        runs = [["bundle", "build", "--morphism", heis2],
                ["bundle", "verify", "--morphism", flip],
                ["bundle", "psi-check", "--morphism", heis2],
                ["alg", "wedderburn", "--groupoid",
                 corpus.data_path("heis2.groupoid.json")],
                ["abelian", "extract", "--morphism", flip],
                ["demo", "cuntz"], ["demo", "heisenberg", "--n", "2"]]
        assert self._imported(runs, ["numpy.random"]) == "[]\n"

    def test_python_m_gpdkit_runs_the_cli(self, capsys):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
            os.path.dirname(os.path.dirname(gk.__file__)),
            os.environ.get("PYTHONPATH"))))}
        r = subprocess.run([sys.executable, "-m", "gpdkit", "demo", "z3"],
                           capture_output=True, text=True, env=env)
        code, out, _ = run_cli(["demo", "z3"], capsys)
        assert code == 0
        assert (r.returncode, r.stdout) == (code, out)

    @pytest.mark.parametrize("G", [
        *(pytest.param(f(), id=n) for n, f in (
            ("pair", lambda: corpus.pair_groupoid(2)),
            ("z3", lambda: corpus.cyclic_groupoid(3)),
            ("flip", lambda: gk.build_action_groupoid(
                corpus.flip_action()).groupoid),
            ("union", lambda: corpus.disjoint_union([
                ("p", corpus.pair_groupoid(3)),
                ("z", corpus.cyclic_groupoid(2))])))),
        *(pytest.param(corpus.heisenberg_groupoid(n), id=f"heis{n}")
          for n in (2, 3, 4, 5)),
        pytest.param(pair_blocks([['a"', "b\\"], ["c\x01", "\u00e9\n"]]),
                     id="escaped-labels"),
        pytest.param(pair_blocks([]), id="empty")])
    def test_groupoid_digest_reads_the_integer_tables(self, G):
        """The demo digest names a groupoid's tables, not their layout: it
        survives a save/load round trip and a permutation of the table
        entries, and moves with one composite, one inverse or one name."""
        from gpdkit.cli import _groupoid_digest
        from gpdkit.groupoid import FiniteGroupoid, _table
        T, n = G.table, len(G.arrows)

        def rebuilt(arrows=G.arrows, entries=slice(None), c=T.c, inv=T.t):
            return FiniteGroupoid(arrows, G.unit_idx, G.src_idx, G.rng_idx,
                                  _table(n, T.a[entries], T.b[entries],
                                         c[entries], inv))
        digest = _groupoid_digest(G)
        assert _groupoid_digest(gio.load_groupoid(
            gio.save_groupoid(G))) == digest
        shuffled = np.random.default_rng(0).permutation(len(T.a))
        assert _groupoid_digest(rebuilt(entries=shuffled)) == digest
        if not n:
            return
        moved = {"composite": rebuilt(c=np.where(
                     np.arange(len(T.c)) == 0, (T.c[0] + 1) % n, T.c)),
                 "inverse": rebuilt(inv=np.where(
                     np.arange(n) == 0, (T.t[0] + 1) % n, T.t)),
                 "name": rebuilt(arrows=(G.arrows[0] + "'",)
                                 + G.arrows[1:])}
        for what, H in moved.items():
            assert _groupoid_digest(H) != digest, what

    @pytest.mark.parametrize("G, digest", [
        pytest.param(
            pair_blocks([['a"', "b\\"], ["c\x01", "\u00e9\n"]]),
            "c2ed25959da51b1388e3e55467c154c9a3acaba65ba71a84cf095b509a1bec15",
            id="escaped-labels"),
        pytest.param(
            pair_blocks([]),
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            id="empty")])
    def test_groupoid_digest_is_stable(self, G, digest):
        from gpdkit.cli import _groupoid_digest
        assert _groupoid_digest(G) == digest

    def test_bundle_verify_from_bundle_file(self, tmp_path, capsys):
        E = gk.build_bundle(gio.load_morphism(
            corpus.data_path("flip_covering.morphism.json")))
        path = tmp_path / "bundle.json"
        path.write_text(canonical_json(gio.save_bundle(E)))
        code, out, _ = run_cli(["bundle", "verify", "--bundle", str(path),
                                "--samples", "20"], capsys)
        assert code == 0
        assert json.loads(out)["saturated"] is True

    def test_abelian_extract_from_bundle_file(self, tmp_path, capsys):
        E = gk.build_bundle(gio.load_morphism(
            corpus.data_path("flip_covering.morphism.json")))
        path = tmp_path / "bundle.json"
        path.write_text(canonical_json(gio.save_bundle(E)))
        code, out, _ = run_cli(["abelian", "extract", "--bundle", str(path)],
                               capsys)
        assert code == 0
        assert json.loads(out)["blocks_twisted"] == [2]

    def test_commands_on_a_rebased_bundle_file(self, tmp_path, capsys,
                                              monkeypatch):
        # the flip-covering bundle with every fiber in a random basis: a
        # Gram block off its diagonal and products with several terms, so
        # the file takes the per-dimension eigh of the Gram roots, the SVD
        # center solve and the sorted associativity scan, the one command
        # route to the last two
        from gpdkit import algebra
        from gpdkit.fiberblocks import FiberBlocks
        E = gk.build_bundle(gio.load_morphism(
            corpus.data_path("flip_covering.morphism.json")))
        rng = np.random.default_rng(12)
        P = np.zeros((E.total_dim(), E.total_dim()), dtype=complex)
        for h in E.base.arrows:
            at, d = slice(E.first[h], E.first[h] + E.dim(h)), E.dim(h)
            P[at, at] = rng.standard_normal((d, d)) \
                + 1j * rng.standard_normal((d, d))
        path = tmp_path / "rebased.bundle.json"
        path.write_text(canonical_json(gio.save_bundle(rebased(E, P))))
        seen = {"diagonal": [], "_svd_center": 0,
                "_sorted_associativity_defect": 0}

        def spy(owner, attr, after=None):
            real = getattr(owner, attr)

            def spied(*args, **kwargs):
                out = real(*args, **kwargs)
                if after is None:
                    seen[attr] += 1
                else:
                    after(*args)
                return out
            monkeypatch.setattr(owner, attr, spied)
        spy(FiberBlocks, "gram",
            lambda B: seen["diagonal"].append(B.diagonal))
        spy(algebra, "_svd_center")
        spy(algebra.StructureTable, "_sorted_associativity_defect")
        code, out, _ = run_cli(["abelian", "extract", "--bundle", str(path)],
                               capsys)
        assert code == 0
        body = json.loads(out)
        assert body["blocks_twisted"] == body["blocks_bundle"] == [2]
        code, _, _ = run_cli(["bundle", "verify", "--bundle", str(path)],
                             capsys)
        assert code == 0
        assert seen["diagonal"] and not any(seen["diagonal"])
        assert seen["_svd_center"] > 0
        assert seen["_sorted_associativity_defect"] > 0

    def test_twisted_build_and_extract_via_cocycle_file(self, tmp_path,
                                                        capsys):
        flip = gk.build_action_groupoid(corpus.flip_action())
        rng = np.random.default_rng(17)
        om = random_cocycle(flip.groupoid, rng)
        cpath = tmp_path / "om.json"
        cpath.write_text(canonical_json(gio.save_cocycle(om)))
        mpath = corpus.data_path("flip_covering.morphism.json")
        code, out, _ = run_cli(["bundle", "build", "--morphism", mpath,
                                "--cocycle", str(cpath), "--samples", "20"],
                               capsys)
        assert code == 0 and json.loads(out)["pass"]
        code, out, _ = run_cli(["abelian", "extract", "--morphism", mpath,
                                "--cocycle", str(cpath)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"]
        assert payload["blocks_twisted"] == payload["blocks_bundle"]

    def test_cocycle_file_must_match_domain(self, tmp_path, capsys):
        om = corpus.zn2_bilinear_cocycle(2)  # lives on Z2 x Z2, not the flip
        cpath = tmp_path / "om.json"
        cpath.write_text(canonical_json(gio.save_cocycle(om)))
        code, _, err = run_cli(
            ["bundle", "build", "--morphism",
             corpus.data_path("flip_covering.morphism.json"),
             "--cocycle", str(cpath)], capsys)
        assert code == 2
        assert "expected" in err

    def test_bundle_build_solves_kernel_blocks_at_seed_and_tol(
            self, capsys, monkeypatch):
        # the kernel blocks are solved at tol, with nothing drawn; the
        # seed reaches only the sampled fallback of verify_axioms
        import gpdkit.bundle as gbundle
        import gpdkit.cli as gcli
        calls, verified = [], []
        solve, verify = gbundle.wedderburn, gcli.verify_axioms

        def spy(obj, *, tol=1e-9):
            calls.append(tol)
            return solve(obj, tol=tol)

        def verify_spy(E, tol=1e-9, samples=100, seed=0):
            verified.append((seed, tol))
            return verify(E, tol=tol, samples=samples, seed=seed)
        monkeypatch.setattr(gbundle, "wedderburn", spy)
        monkeypatch.setattr(gcli, "verify_axioms", verify_spy)
        code, _, _ = run_cli(["bundle", "build", "--morphism",
                              corpus.data_path("heis2_quotient.morphism.json"),
                              "--seed", "7", "--tol", "1e-7"], capsys)
        assert code == 0
        assert len(calls) > 1 and set(calls) == {1e-7}
        assert verified == [(7, 1e-7)]

    def test_abelian_extract_admits_its_bundle_at_seed(self, capsys,
                                                       monkeypatch):
        import gpdkit.bundle as gbundle
        seeds = []
        verify = gbundle.verify_axioms

        def spy(E, tol=1e-9, samples=100, seed=0):
            seeds.append(seed)
            return verify(E, tol=tol, samples=samples, seed=seed)
        monkeypatch.setattr(gbundle, "verify_axioms", spy)
        code, _, _ = run_cli(["abelian", "extract", "--morphism",
                              corpus.data_path("flip_covering.morphism.json"),
                              "--seed", "5"], capsys)
        assert code == 0 and seeds == [5]

    def test_failed_extraction_solve_keeps_the_report(self, capsys,
                                                      monkeypatch):
        from gpdkit.actions import TwistedConvolutionAlgebra
        argv = ["abelian", "extract", "--morphism",
                corpus.data_path("flip_covering.morphism.json")]
        _, out, _ = run_cli(argv, capsys)
        names = [c["name"] for c in json.loads(out)["checks"]]

        def fail(self, seed=0, tol=1e-9):
            raise gk.NumericalDegeneracy("central element has a cluster")
        monkeypatch.setattr(TwistedConvolutionAlgebra, "wedderburn", fail)
        code, out, _ = run_cli(argv, capsys)
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert code == 1 and list(checks) == names
        assert checks["wedderburn_equal"] == {
            "name": "wedderburn_equal", "pass": False, "residual": None,
            "witness": "central element has a cluster"}
        assert all(c["pass"] for n, c in checks.items()
                   if n != "wedderburn_equal")

    def test_alg_wedderburn_with_element(self, tmp_path, capsys):
        z3 = corpus.cyclic_groupoid(3)
        path = tmp_path / "f.json"
        path.write_text(canonical_json({
            "base": gio.save_groupoid(z3),
            "coeffs": {"g0": [1.0, 0.0]},
        }))
        code, out, _ = run_cli(
            ["alg", "wedderburn", "--groupoid",
             corpus.data_path("z3.groupoid.json"), "--element", str(path),
             "--samples", "20"], capsys)
        assert code == 0
        assert json.loads(out)["element_norm"] == 1.0

    def test_env_tolerance_default(self, capsys, monkeypatch):
        monkeypatch.setenv("GPD_TOL", "1e-6")
        code, out, _ = run_cli(["demo", "z3"], capsys)
        assert json.loads(out)["tolerance"] == 1e-6
        # flag wins over the environment
        code, out, _ = run_cli(["demo", "z3", "--tol", "1e-8"], capsys)
        assert json.loads(out)["tolerance"] == 1e-8


class TestStackedSampleChecks:
    """The one-sample loops of tests/oracles.py agree in pass flag with the
    certified entries they once sampled: bundle build's two fiber entries
    (axioms 8 and 9 of bundle verify, with their residuals), the norm
    entries of alg wedderburn and bundle verify's expectation_contractive
    (residual 0.0 on the corpus)."""

    @staticmethod
    def _checks(argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        return {c["name"]: (c["pass"], c["residual"])
                for c in json.loads(out)["checks"]}

    @pytest.mark.parametrize("name", ["flip_covering", "heis2_quotient",
                                      "heis3_quotient"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_bundle_build_and_verify(self, name, seed, capsys):
        path = corpus.data_path(f"{name}.morphism.json")
        E = gk.build_bundle(gio.load_morphism(path))
        flags = ["--morphism", path, "--seed", str(seed), "--samples", "40"]
        built = self._checks(["bundle", "build", *flags], capsys)
        got = self._checks(["bundle", "verify", *flags], capsys)
        entries = [built["fiber_star_antimultiplicative"],
                   built["fiber_norm_cstar_identity"]]
        assert entries == [got["axiom8_antimultiplicative"],
                           got["axiom9_cstar_identity"]]
        assert [p for p, _ in entries] == [
            r <= 1e-9 for r in loop_bundle_build(E, 40, seed)]
        assert got["expectation_contractive"][1] == max(
            loop_expectation_contractive(E, 40, seed, 1e-9), 0.0)

    @pytest.mark.parametrize("name", ["pair", "z3", "heis2", "heis3"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_alg_wedderburn(self, name, seed, capsys):
        path = corpus.data_path(f"{name}.groupoid.json")
        got = self._checks(["alg", "wedderburn", "--groupoid", path,
                            "--seed", str(seed), "--samples", "40"], capsys)
        want = loop_wedderburn_samples(gio.load_groupoid(path), 40, seed,
                                       1e-9)
        assert {k: got[k][0] for k in want} == {
            k: r <= 1e-9 for k, r in want.items()}
        support = "unit_expectation_faithful_support"
        assert {k: got[k][1] for k in want} == {
            k: want[k] if k == support else 0.0 for k in want}


class TestWedderburnSupport:
    """The ``unit_expectation_faithful_support`` entry of ``alg
    wedderburn`` reads only the products e_g* e_g at units, one table
    entry each."""

    @staticmethod
    def _dense_residual(G):
        """The entry's residual through the dense matrix of every product
        e_g* e_g, summed in the order of the star and product entries."""
        T, n = G.table, G.table.dim
        prod = np.zeros((n, n), complex)
        for s, t, sw in zip(T.s, T.t, T.sw):  # e_s* = sw e_t
            for a, b, c, w in zip(T.a, T.b, T.c, T.w):
                if a == t and b == s:
                    prod[s, c] += sw * w
        return float(np.abs(prod[:, G.unit_idx] - (
            G.src_idx[:, None] == G.unit_idx)).max(initial=0.0))

    def test_corrupted_star_weight_fails_with_the_dense_residual(
            self, monkeypatch, capsys):
        from gpdkit.algebra import StructureTable
        from gpdkit.groupoid import FiniteGroupoid
        G = corpus.pair_groupoid(3)
        T = G.table
        sw = T.sw.copy()
        sw[1] = np.exp(0.3j)
        H = FiniteGroupoid(G.arrows, G.unit_idx, G.src_idx, G.rng_idx,
                           StructureTable(T.dim, T.a, T.b, T.c, T.w, T.s,
                                          T.t, sw))
        monkeypatch.setattr(gio, "load_groupoid", lambda path: H)
        code, out, _ = run_cli(["alg", "wedderburn", "--groupoid",
                                "corrupted"], capsys)
        entry, = (c for c in json.loads(out)["checks"]
                  if c["name"] == "unit_expectation_faithful_support")
        want = self._dense_residual(H)
        assert code == 1 and want > 0.1
        assert entry == {"name": "unit_expectation_faithful_support",
                         "pass": False, "residual": want, "witness": None}
        assert self._dense_residual(G) == 0.0

    def test_pair40_memory_is_bounded(self, tmp_path, capsys):
        # the dense products alone would take 1600^2 complex entries
        path = tmp_path / "pair40.groupoid.json"
        path.write_text(canonical_json(gio.save_groupoid(
            corpus.pair_groupoid(40))))
        tracemalloc.start()
        try:
            code = main(["alg", "wedderburn", "--groupoid", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert code == 0
        assert {"name": "unit_expectation_faithful_support", "pass": True,
                "residual": 0.0, "witness": None} in checks
        assert peak < 40 * 2 ** 20


class TestExitContract:
    """Exit codes 0/1/2 hold for empty, non-finite and numerically
    degenerate inputs, with no traceback."""

    def test_empty_groupoid_wedderburn_exits_0(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"arrows": [], "units": [], "src": {},
                                    "rng": {}, "inv": {}, "comp": []}))
        code, out, err = run_cli(["alg", "wedderburn", "--groupoid",
                                  str(path)], capsys)
        assert code == 0
        assert json.loads(out)["blocks"] == []
        assert "Traceback" not in err

    def test_empty_morphism_bundle_build_exits_0(self, tmp_path, capsys):
        # no fiber to draw a sample from: every sample check is vacuous
        empty = {"arrows": [], "units": [], "src": {}, "rng": {}, "inv": {},
                 "comp": []}
        path = tmp_path / "empty.morphism.json"
        path.write_text(json.dumps({"domain": empty, "codomain": empty,
                                    "map": {}}))
        code, out, err = run_cli(["bundle", "build", "--morphism",
                                  str(path)], capsys)
        assert code == 0
        assert all(c["pass"] for c in json.loads(out)["checks"])
        assert "Traceback" not in err

    @pytest.mark.parametrize("env, flags", [
        ("abc", []), ("nan", []), (None, ["--tol", "nan"]),
        (None, ["--tol", "-1"])])
    def test_bad_tolerance_exits_2(self, env, flags, capsys, monkeypatch):
        if env is None:
            monkeypatch.delenv("GPD_TOL", raising=False)
        else:
            monkeypatch.setenv("GPD_TOL", env)
        code, out, err = run_cli(["demo", "z3", *flags], capsys)
        assert code == 2 and out == ""
        assert err.startswith("input error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["alg", "wedderburn", "--groupoid", DATA + "z3.groupoid.json",
          "--samples", "-5"], "--samples"),
        (["graph", "check", "--morphism", DATA + "cuntz.graphmorphism.json",
          "--depth", "-1"], "--depth"),
        (["graph", "grading", "--graph", DATA + "cuntz_v.graph.json",
          "--depth", "-1"], "--depth"),
        (["demo", "heisenberg", "--n", "0"], "--n"),
        (["demo", "heisenberg", "--n", "2", "--seed", "-1"], "--seed"),
        (["demo", "cuntz", "--seed", "-5"], "--seed"),
        (["alg", "wedderburn", "--groupoid", DATA + "heis2.groupoid.json",
          "--seed", "-3"], "--seed")])
    def test_bad_count_exits_2(self, argv, flag, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"input error: {flag} ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, key, argv", [
        ("z3.groupoid.json", "arrows", ["gpd", "validate", "--groupoid"]),
        ("z4.group.json", "elements", ["ext", "analyze", "--group"]),
        ("z4.group.json", "kernel", ["ext", "analyze", "--group"])])
    def test_repeated_id_is_the_witness(self, name, key, argv, tmp_path,
                                        capsys):
        # ids[1] repeats first, ids[0] later: the witness is ids[1]
        with open(DATA + name, encoding="utf-8") as fh:
            doc = json.load(fh)
        ids = doc[key]
        ids[2:2] = [ids[1]]
        ids.append(ids[0])
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([*argv, str(path)], capsys)
        assert code == 1 and "Traceback" not in err
        assert json.loads(out)["checks"] == [
            {"name": "GroupoidError", "pass": False, "residual": None,
             "witness": repr(ids[1])}]

    @pytest.mark.parametrize("name", ["z3", "heis3"])
    def test_zero_tolerance_decides_squares_positive(self, name, capsys):
        # squares_positive is decided at a zero tolerance too
        code, out, err = run_cli(["alg", "wedderburn", "--groupoid",
                                  DATA + f"{name}.groupoid.json", "--tol",
                                  "0", "--samples", "20"], capsys)
        assert code in (0, 1)
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert "squares_positive" in names
        assert "Traceback" not in err

    def test_zero_tolerance_keeps_the_center(self, capsys):
        # the center's rank cut has a floor of dim * eps * smax, so rounding
        # noise of the commutator constraints does not count as rank
        code, out, _ = run_cli(["alg", "wedderburn", "--groupoid",
                                DATA + "heis3.groupoid.json", "--tol", "0"],
                               capsys)
        rep = json.loads(out)
        assert rep["center_dimension"] == 11
        assert rep["blocks"] == [3, 3] + [1] * 9
        checks = {c["name"]: c["pass"] for c in rep["checks"]}
        assert checks["sum_of_squares"]
        # the norm entries are certified from exact identities of the
        # table, so they pass a zero tolerance
        assert code == 0 and checks["cstar_identity"]

    @pytest.mark.parametrize("cmd", [["bundle", "verify"],
                                     ["abelian", "extract"]])
    def test_nan_bundle_exits_2(self, cmd, tmp_path, capsys):
        E = gk.build_bundle(gio.load_morphism(
            corpus.data_path("flip_covering.morphism.json")))
        obj = gio.save_bundle(E)
        obj["mul"][0][4] = {k: [float("nan"), 0.0]
                            for k in obj["mul"][0][4]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj))  # writes the NaN literal
        code, out, err = run_cli(cmd + ["--bundle", str(path)], capsys)
        assert code == 2
        assert "$.mul[0][4]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["mul", "star"])
    def test_repeated_bundle_entry_exits_2(self, key, tmp_path, capsys):
        # table entries add up, so a second entry for one [h1, i, h2, j]
        # (or [h, i]) is refused rather than summed or kept last
        E = gk.build_bundle(gio.load_morphism(
            corpus.data_path("flip_covering.morphism.json")))
        obj = gio.save_bundle(E)
        obj[key].insert(2, obj[key][0])
        path = tmp_path / "repeated.json"
        path.write_text(canonical_json(obj))
        code, out, err = run_cli(["bundle", "verify", "--bundle", str(path)],
                                 capsys)
        assert code == 2
        assert f"$.{key}[2]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd", [["gpd", "validate"],
                                     ["alg", "wedderburn"]])
    def test_repeated_comp_pair_exits_2(self, cmd, tmp_path, capsys):
        # a wrong composite of (g1, g2) listed before the right one: the
        # repeat is refused, not resolved by keeping the last composite
        with open(corpus.data_path("z3.groupoid.json")) as fh:
            obj = json.load(fh)
        assert obj["comp"][5] == ["g1", "g2", "g0"]
        obj["comp"].insert(5, ["g1", "g2", "g1"])
        path = tmp_path / "z3.json"
        path.write_text(canonical_json(obj))
        code, out, err = run_cli(cmd + ["--groupoid", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == (f"input error: {path}: at $.comp[6]: expected no "
                       "duplicate composable pair\n")

    @pytest.mark.parametrize("value", [[-1.0, 0.0], [1.0, 0.0]],
                             ids=["minus-one", "same-value"])
    def test_repeated_cocycle_pair_exits_2(self, value, tmp_path, capsys):
        # every composable pair of Z2 x Z2 listed, and ((0,1), (1,0)) once
        # more: the repeat is refused whatever its value, rather than the
        # last value kept
        G = corpus.zn_square_groupoid(2)
        mpath = tmp_path / "m.json"
        mpath.write_text(canonical_json(gio.save_morphism(
            corpus.identity_morphism(G))))
        obj = gio.save_cocycle(gk.trivial_cocycle(G))
        assert obj["omega"][6][:2] == ["(0,1)", "(1,0)"]
        obj["omega"].insert(8, ["(0,1)", "(1,0)", value])
        cpath = tmp_path / "c.json"
        cpath.write_text(canonical_json(obj))
        code, out, err = run_cli(["bundle", "verify", "--morphism",
                                  str(mpath), "--cocycle", str(cpath)],
                                 capsys)
        assert code == 2 and out == ""
        assert err == (f"input error: {cpath}: at $.omega[8]: expected one "
                       "value per composable pair\n")

    @pytest.mark.parametrize("name, key, at, argv, what", [
        ("z4.group.json", "mul", 5, ["ext", "analyze", "--group"],
         "one product per pair"),
        ("flip.action.json", "act", 1, ["action", "roundtrip", "--action"],
         "one image per (arrow, point) pair"),
        ("flip.action.json", "X", 0, ["action", "roundtrip", "--action"],
         "each point once")])
    def test_repeated_group_or_action_pair_exits_2(self, name, key, at, argv,
                                                   what, tmp_path, capsys):
        # an entry appended once more: the repeat is refused, not kept last
        # (a repeated point, not reported as an action_axioms failure)
        with open(corpus.data_path(name)) as fh:
            obj = json.load(fh)
        obj[key].append(obj[key][at])
        path = tmp_path / name
        path.write_text(canonical_json(obj))
        code, out, err = run_cli(argv + [str(path)], capsys)
        assert code == 2 and out == ""
        assert err == (f"input error: {path}: at $.{key}"
                       f"[{len(obj[key]) - 1}]: expected {what}\n")

    @staticmethod
    def _huge_value_inputs(tmp_path):
        """(flags, JSON path) per loader of [re, im] values, each file with
        one value whose real part is an integer too large for a float."""
        huge = [10 ** 400, 0]
        mpath = corpus.data_path("flip_covering.morphism.json")
        pi = gio.load_morphism(mpath)
        om = gio.save_cocycle(random_cocycle(
            pi.domain, np.random.default_rng(3)))
        om["omega"][2][2] = huge
        E = gio.save_bundle(gk.build_bundle(pi))
        first = next(iter(E["mul"][0][4]))
        E["mul"][0][4][first] = huge
        f = {"base": gio.save_groupoid(corpus.cyclic_groupoid(3)),
             "coeffs": {"g0": [1.0, 0.0], "g2": huge}}
        out = {}
        for name, obj in (("om", om), ("E", E), ("f", f)):
            out[name] = tmp_path / f"{name}.json"
            out[name].write_text(json.dumps(obj))
        return {
            "cocycle": (["abelian", "extract", "--morphism", mpath,
                         "--cocycle", str(out["om"])], "$.omega[2][2]"),
            "bundle": (["bundle", "verify", "--bundle", str(out["E"])],
                       f"$.mul[0][4].{first}"),
            "element": (["alg", "wedderburn", "--groupoid",
                         corpus.data_path("z3.groupoid.json"),
                         "--element", str(out["f"])], "$.coeffs.g2")}

    @pytest.mark.parametrize("loader", ["cocycle", "bundle", "element"])
    def test_value_too_large_for_a_float_exits_2(self, loader, tmp_path,
                                                 capsys):
        argv, at = self._huge_value_inputs(tmp_path)[loader]
        code, out, err = run_cli(argv + ["--samples", "10"], capsys)
        assert code == 2 and out == ""
        assert f"at {at}: expected a [re, im] pair of finite numbers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("phase", [np.pi / 2, 1e-10],
                             ids=["quarter-turn", "1e-10"])
    def test_shifted_cocycle_extract_fails_with_witness(self, phase,
                                                        tmp_path, capsys):
        # one cocycle entry on Z2 x Z2 rotated by ``phase``: at pi/2 the
        # bundle fails its axioms and is refused before extraction; at
        # 1e-10 it passes them and the input cocycle check at the default
        # tolerance, with no witness, but the extracted cocycle fails its
        # identity at 1e-12, so the comparisons that need an associative
        # twisted table are reported as not checked
        G = corpus.zn_square_groupoid(2)
        omega = dict(gk.trivial_cocycle(G).omega)
        omega[("(1,0)", "(0,1)")] = np.exp(1j * phase)
        mpath = tmp_path / "m.json"
        mpath.write_text(canonical_json(gio.save_morphism(
            corpus.identity_morphism(G))))
        cpath = tmp_path / "c.json"
        cpath.write_text(canonical_json(gio.save_cocycle(
            gk.Cocycle(G, omega))))
        code, out, err = run_cli(["abelian", "extract", "--morphism",
                                  str(mpath), "--cocycle", str(cpath)],
                                 capsys)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert "NumericalDegeneracy" not in checks
        assert "Traceback" not in err
        if phase > 1e-9:
            assert not checks["input_cocycle_valid"]["pass"]
            assert checks["input_cocycle_valid"]["witness"]
            assert not checks["BundleNotVerified"]["pass"]
        else:
            assert checks["input_cocycle_valid"]["pass"]
            assert checks["input_cocycle_valid"]["witness"] is None
            identity = checks["cocycle_identity"]
            assert not identity["pass"] and identity["witness"]
            for name in ("wedderburn_equal", "basis_map_multiplicative",
                         "basis_map_star", "basis_map_isometric",
                         "extracted_twist_validates"):
                assert checks[name] == {
                    "name": name, "pass": False, "residual": None,
                    "witness": "not checked: cocycle_identity failed"}

    def test_extracted_twist_off_modulus_fails_validation(self, tmp_path,
                                                          capsys):
        # a coboundary whose beta is 1 + 1e-10 on one arrow of Z2 x Z2:
        # the bundle passes its axioms and the extracted cocycle its
        # identity, but not its modulus at 1e-12, so the twist does not
        # validate, with the message twisted_algebra raises on it
        G = corpus.zn_square_groupoid(2)
        beta = {g: 1.0 for g in G.arrows}
        beta["(1,0)"] = 1.0 + 1e-10
        omega = gk.coboundary_cocycle(G, beta)
        mpath = tmp_path / "m.json"
        mpath.write_text(canonical_json(gio.save_morphism(
            corpus.identity_morphism(G))))
        cpath = tmp_path / "c.json"
        cpath.write_text(canonical_json(gio.save_cocycle(omega)))
        code, out, err = run_cli(["abelian", "extract", "--morphism",
                                  str(mpath), "--cocycle", str(cpath)],
                                 capsys)
        assert code == 1
        checks = json.loads(out)["checks"]
        by_name = {c["name"]: c for c in checks}
        assert by_name["cocycle_identity"]["pass"]
        assert not by_name["cocycle_modulus"]["pass"]
        assert "extracted_twist_validates" not in by_name
        message = "cocycle fails validation (identity residual 0.000e+00)"
        assert checks[-1] == {"name": "CocycleIdentityFailure",
                              "pass": False, "residual": None,
                              "witness": message}
        res = gk.abelian_extract(gk.build_bundle(
            corpus.identity_morphism(G), twist=omega))
        with pytest.raises(gk.CocycleIdentityFailure) as exc:
            gk.twisted_algebra(res.action_groupoid.groupoid, res.cocycle)
        assert str(exc.value) == message

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError,
                                       gk.NumericalDegeneracy],
                             ids=lambda e: e.__name__)
    def test_linalg_error_is_a_failed_check(self, error, capsys,
                                            monkeypatch):
        import gpdkit.cli as cli

        def fail(*args, **kwargs):
            raise error("SVD did not converge")
        monkeypatch.setattr(cli, "wedderburn", fail)
        code, out, err = run_cli(["alg", "wedderburn", "--groupoid",
                                  corpus.data_path("z3.groupoid.json")],
                                 capsys)
        assert code == 1
        check = json.loads(out)["checks"][-1]
        assert check == {"name": error.__name__, "pass": False,
                         "residual": None, "witness": "SVD did not converge"}
        assert "Traceback" not in err


    @pytest.mark.parametrize("flags, message", [
        (["--word", "x"], "'x' is not an edge"),
        (["--word", "1", "--origin", "zz"], "'zz' is not a vertex"),
        (["--word", "12,1"], "word position 0: '12' is not an edge"),
    ], ids=["unknown-letter", "unknown-origin", "unknown-edge-id"])
    def test_malformed_graph_word_exits_2(self, flags, message, capsys):
        code, out, err = run_cli(
            ["graph", "fibers", "--morphism",
             corpus.data_path("cuntz.graphmorphism.json")] + flags, capsys)
        assert code == 2 and out == ""
        assert message in err and "Traceback" not in err

    def test_word_starting_elsewhere_exits_2(self, tmp_path, capsys):
        V, _, phi = corpus.split_terminal_graphs()
        W = gk.DirectedGraph(("w", "x"), ("1",), {"1": "w"}, {"1": "w"})
        path = tmp_path / "two.json"
        path.write_text(canonical_json(gio.save_graph_morphism(
            gk.GraphMorphism(phi.domain, W, phi.vmap, phi.emap))))
        code, out, err = run_cli(["graph", "fibers", "--morphism", str(path),
                                  "--word", "1", "--origin", "x"], capsys)
        assert code == 2
        assert "word starts at 'w', not at 'x'" in err

    def test_unliftable_word_stays_a_failed_check(self, tmp_path, capsys):
        one_loop = gk.DirectedGraph(("w",), ("1", "2"), {"1": "w", "2": "w"},
                                    {"1": "w", "2": "w"})
        V = gk.DirectedGraph(("v",), ("a",), {"a": "v"}, {"a": "v"})
        path = tmp_path / "nolift.json"
        path.write_text(canonical_json(gio.save_graph_morphism(
            gk.GraphMorphism(V, one_loop, {"v": "w"}, {"a": "1"}))))
        code, out, err = run_cli(["graph", "fibers", "--morphism", str(path),
                                  "--word", "12"], capsys)
        assert code == 1
        check = json.loads(out)["checks"][-1]
        assert check["name"] == "NotLiftable" and not check["pass"]

    def test_expectation_faithful_reports_the_gram_margin(self, capsys):
        from oracles import DenseSectionSpace
        path = corpus.data_path("heis3_quotient.morphism.json")
        code, out, _ = run_cli(["bundle", "verify", "--morphism", path,
                                "--samples", "10"], capsys)
        assert code == 0
        body = json.loads(out)
        check = next(c for c in body["checks"]
                     if c["name"] == "expectation_faithful")
        margin = DenseSectionSpace(
            gk.build_bundle(gio.load_morphism(path))).gram_margin
        assert check == {"name": "expectation_faithful", "pass": True,
                         "residual": None, "witness": None}
        assert body["gram_margin"] == pytest.approx(margin, rel=1e-12)
        assert 0 < margin <= 1

    def test_invalid_action_fails_action_axioms(self, tmp_path, capsys):
        # g1 sends both points to x, so g1 (g1 y) = x != g0 y
        with open(corpus.data_path("flip.action.json")) as fh:
            obj = json.load(fh)  # the groupoid is inline
        obj["act"] = [t if t[:2] != ["g1", "x"] else ["g1", "x", "x"]
                      for t in obj["act"]]
        path = tmp_path / "bad.action.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(gk.ActionAxiomViolation) as exc:
            gk.validate_action(gio.load_action(str(path)))
        code, out, err = run_cli(["action", "build", "--action", str(path)],
                                 capsys)
        assert code == 1
        assert json.loads(out)["checks"] == [
            {"name": "action_axioms", "pass": False, "residual": None,
             "witness": repr(exc.value.witness)}]
        assert "Traceback" not in err

    def test_ill_conditioned_gram_block_fails_cstar_identity(
            self, tmp_path, capsys):
        """e_0 over one non-unit arrow scaled by 1e-4: the same Fell bundle
        in another basis, whose Gram margin 1e-8 passes the default --tol.
        Under --tol 1e-6 the section space of axiom 9 and norm consistency
        is refused at that tolerance, so both fail and the expectation
        checks are not reached."""
        from oracles import DenseSectionSpace
        E = _rescaled(gk.build_bundle(corpus.heisenberg_quotient(2)),
                      "(0,1)", 1e-4)
        path = tmp_path / "rescaled.bundle.json"
        path.write_text(canonical_json(gio.save_bundle(E)))
        argv = ["bundle", "verify", "--bundle", str(path), "--samples", "10"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        margin = json.loads(out)["gram_margin"]
        assert margin == pytest.approx(DenseSectionSpace(E).gram_margin,
                                       rel=1e-9)
        assert margin == pytest.approx(1e-8, rel=1e-6)
        code, out, _ = run_cli(argv + ["--tol", "1e-6"], capsys)
        assert code == 1
        body = json.loads(out)
        degenerate = ("section inner product is degenerate; the bundle is "
                      "not a Fell bundle")
        failed = [c for c in body["checks"] if not c["pass"]]
        assert failed == [
            {"name": name, "pass": False, "residual": None,
             "witness": degenerate}
            for name in ("axiom9_cstar_identity", "norm_consistency")]
        assert not any(c["name"].startswith("expectation_")
                       for c in body["checks"])


def _rescaled(E, h, eps):
    """E in the basis with e_0 over h replaced by eps e_0."""
    arrays = table_arrays(E)
    scale = np.ones(E.total_dim())
    scale[E.first[h]] = eps
    a, b, c, s, t = (arrays[k] for k in "abcst")
    arrays["w"] = arrays["w"] * scale[a] * scale[b] / scale[c]
    arrays["sw"] = arrays["sw"] * scale[s] / scale[t]
    return bundle_from(E, arrays)


class TestShippedData:
    def test_data_files_match_builders(self):
        pairs = [
            ("pair.groupoid.json", corpus.pair_groupoid(2)),
            ("z3.groupoid.json", corpus.cyclic_groupoid(3)),
            ("heis2.groupoid.json", corpus.heisenberg_groupoid(2)),
            ("heis3.groupoid.json", corpus.heisenberg_groupoid(3)),
        ]
        for name, built in pairs:
            loaded = gio.load_groupoid(corpus.data_path(name))
            assert loaded.arrows == built.arrows
            assert loaded.comp == built.comp

    def test_shipped_morphisms_load_and_classify(self):
        pi = gio.load_morphism(
            corpus.data_path("heis3_quotient.morphism.json"))
        cls = gk.classify_morphism(pi)
        assert cls.fibration and not cls.covering
        pi2 = gio.load_morphism(
            corpus.data_path("flip_covering.morphism.json"))
        assert gk.classify_morphism(pi2).covering

    def test_shipped_groups_load(self):
        for name in ("heis2.group.json", "heis3.group.json",
                     "z4.group.json", "z2z2.group.json"):
            els, mul, kern = gio.load_group(corpus.data_path(name))
            assert kern
            gk.GroupExtension.from_tables(els, mul, kern)


# one command per shipped corpus file type
FUZZ_TARGETS = [
    ("z3.groupoid.json", ["gpd", "validate", "--groupoid"]),
    ("flip_covering.morphism.json",
     ["bundle", "verify", "--samples", "2", "--morphism"]),
    ("cuntz_v.graph.json", ["graph", "grading", "--depth", "2", "--graph"]),
    ("cuntz.graphmorphism.json",
     ["graph", "fibers", "--word", "12", "--morphism"]),
    ("flip.action.json", ["action", "roundtrip", "--action"]),
    ("z4.group.json", ["ext", "analyze", "--samples", "2", "--group"]),
]


def _json_paths(obj, prefix=()):
    """Paths to every value below the root of a JSON document."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return []
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out += _json_paths(value, prefix + (key,))
    return out


def _json_strings(obj):
    if isinstance(obj, str):
        return {obj}
    if isinstance(obj, dict):
        return set(obj).union(*map(_json_strings, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_json_strings, obj))
    return set()


@pytest.mark.parametrize("name, command", FUZZ_TARGETS,
                         ids=[n for n, _ in FUZZ_TARGETS])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_mutated_corpus_file_keeps_exit_contract(name, command, data):
    """One value of a shipped file replaced or deleted: the command exits
    0, 1 or 2 and raises nothing."""
    with open(corpus.data_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    path = data.draw(st.sampled_from(_json_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(-2, 9), st.floats(),
        st.sampled_from(sorted(_json_strings(doc))), st.text(max_size=3))
    value = data.draw(st.none() | st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=4))
    if value is None and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, name)
        with open(file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(command + [file])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["demo", "heisenberg", "--n", "4"], ["demo", "flip"], ["demo", "cuntz"],
    ["alg", "wedderburn", "--groupoid", DATA + "heis3.groupoid.json"],
    ["abelian", "extract", "--morphism",
     DATA + "heis2_quotient.morphism.json"],
    ["bundle", "verify", "--morphism",
     DATA + "heis3_quotient.morphism.json"]],
    ids=lambda argv: " ".join(map(os.path.basename, argv)))
def test_a_finished_command_leaves_no_cycles(argv, capsys):
    """What a run builds is freed by reference counting: with the cyclic
    collector off, a collection after the run finds no gpdkit object
    (a groupoid, its representation and a bundle's FiberBlocks keep no
    reference back to their owner)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        assert main(argv) == 0
        gc.collect()
        left = sorted({type(o).__qualname__ for o in gc.garbage
                       if type(o).__module__.startswith("gpdkit")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert left == []
