import decimal
import itertools
import json
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import gpdkit as gk
from gpdkit import corpus, graphs, io as gio
from gpdkit.cli import main
from gpdkit.algebra import wedderburn_from_tables
from gpdkit.groupoid import pair_id
from gpdkit.report import canonical_json

from oracles import (DenseUnitFiber, brute_force_lifts, closure_table,
                     cylinder_cover_by_levels, cylinder_cover_by_words,
                     window_by_paths, window_morphism_by_paths)

ONE_LOOP = gk.DirectedGraph(("w",), ("1", "2"), {"1": "w", "2": "w"},
                            {"1": "w", "2": "w"})


def no_lift_morphism():
    """Letter 2 has no lift anywhere: the first failing word is ('2',)."""
    V = gk.DirectedGraph(("v",), ("a", "b"), {"a": "v", "b": "v"},
                         {"a": "v", "b": "v"})
    return gk.GraphMorphism(V, ONE_LOOP, {"v": "w"}, {"a": "1", "b": "1"})


def stuck_lift_morphism():
    """Every word lifts from v, but u has no edge over 2, so a partial
    lift that reaches u gets stuck there (u is also a start vertex: the
    first failing word is ('2',))."""
    V = gk.DirectedGraph(("v", "u"), ("a", "b", "c", "d"),
                         {"a": "v", "b": "v", "c": "v", "d": "u"},
                         {"a": "v", "b": "u", "c": "v", "d": "u"})
    return gk.GraphMorphism(V, ONE_LOOP, {"v": "w", "u": "w"},
                            {"a": "1", "b": "1", "c": "2", "d": "1"})


def off_incidence_morphism():
    """Both loops 0 and 1 at x lift from v0 but end at v1, which lies over
    w: incidence fails at the first domain edge, e0."""
    W = gk.DirectedGraph(("w", "x"), ("0", "1"), {"0": "x", "1": "x"},
                         {"0": "x", "1": "x"})
    V = gk.DirectedGraph(("v0", "v1"), ("e0", "e1"),
                         {"e0": "v0", "e1": "v0"}, {"e0": "v1", "e1": "v1"})
    return gk.GraphMorphism(V, W, {"v0": "x", "v1": "w"},
                            {"e0": "1", "e1": "0"})


def run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out, json.loads(out)


def checks(payload):
    return {c["name"]: c for c in payload["checks"]}


def write_morphism(tmp_path, phi):
    path = tmp_path / "phi.graphmorphism.json"
    path.write_text(canonical_json(gio.save_graph_morphism(phi)))
    return str(path)


@st.composite
def sink_free_graphs(draw):
    """A graph of one to three vertices, each with one to three edges
    leaving it to any vertex."""
    vv = [f"v{k}" for k in range(draw(st.integers(1, 3)))]
    origin, terminus = {}, {}
    for v in vv:
        for _ in range(draw(st.integers(1, 3))):
            e = f"e{len(origin)}"
            origin[e], terminus[e] = v, draw(st.sampled_from(vv))
    return gk.DirectedGraph(vv, list(origin), origin, terminus)


class TestGraphMorphism:
    def test_cuntz_has_path_lifting(self, cuntz):
        _, _, phi = cuntz
        rep = gk.check_graph_morphism(phi)
        assert rep.entry("incidence").passed
        assert rep.entry("surjective_vertices").passed and \
            rep.entry("surjective_edges").passed
        assert rep.entry("path_lifting").passed

    def test_collapse_has_path_lifting(self, cuntz):
        V, _, _ = cuntz
        phi = gk.collapse_morphism(V)
        assert gk.check_graph_morphism(phi).entry("path_lifting").passed

    def test_missing_edge_image_breaks_surjectivity(self, cuntz):
        V, W, _ = cuntz
        sub = gk.DirectedGraph(("v",), ("a", "c"),
                               {"a": "v", "c": "v"}, {"a": "v", "c": "v"})
        phi = gk.GraphMorphism(sub, W, {"v": "w"}, {"a": "1", "c": "1"})
        rep = gk.check_graph_morphism(phi)
        assert not rep.entry("surjective_edges").passed
        assert rep.entry("surjective_edges").witness is not None
        assert not rep.entry("path_lifting").passed

    def test_incidence_violation_raises(self, cuntz):
        V, W, _ = cuntz
        W2 = gk.DirectedGraph(("w", "w2"), ("1", "2", "3"),
                              {"1": "w", "2": "w", "3": "w2"},
                              {"1": "w", "2": "w2", "3": "w"})
        phi = gk.GraphMorphism(V, W2, {"v": "w"},
                               {"a": "1", "b": "1", "c": "2"})
        with pytest.raises(gk.IncidenceViolation):
            gk.check_graph_morphism(phi)

    def test_sink_rejected(self):
        V = gk.DirectedGraph(("v", "s"), ("e",), {"e": "v"}, {"e": "s"})
        with pytest.raises(Exception, match="sink"):
            V.require_no_sinks()


class TestLifts:
    def test_single_letter(self, cuntz):
        _, _, phi = cuntz
        ls = gk.lift_paths(phi, "1")
        assert set(ls.lifts) == {("a",), ("b",)}

    def test_121_has_product_structure(self, cuntz):
        _, _, phi = cuntz
        ls = gk.lift_paths(phi, "121")
        assert len(ls) == 4
        assert set(ls.lifts) == {(x, "c", y)
                                 for x in "ab" for y in "ab"}

    def test_empty_word_gives_vertices(self, cuntz):
        _, _, phi = cuntz
        ls = gk.lift_paths(phi, "")
        assert ls.lifts == (("v",),)

    def test_brute_force_oracle_all_words_up_to_5(self, cuntz):
        V, _, phi = cuntz
        for n in range(1, 6):
            for w in itertools.product("12", repeat=n):
                expected = set(brute_force_lifts(V, phi.emap, w))
                got = set(gk.lift_paths(phi, w).lifts)
                assert got == expected

    def test_counts_are_2_pow_ones_up_to_8(self, cuntz):
        _, _, phi = cuntz
        for n in range(1, 9):
            for w in itertools.product("12", repeat=n):
                ones = sum(1 for ch in w if ch == "1")
                assert len(gk.lift_paths(phi, w)) == 2 ** ones

    def test_inadmissible_word_rejected(self, cuntz):
        V, W, _ = cuntz
        W2 = gk.DirectedGraph(("u", "v"), ("1", "2"),
                              {"1": "u", "2": "v"}, {"1": "u", "2": "v"})
        phi = gk.GraphMorphism(
            gk.DirectedGraph(("p", "q"), ("a", "b"),
                             {"a": "p", "b": "q"}, {"a": "p", "b": "q"}),
            W2, {"p": "u", "q": "v"}, {"a": "1", "b": "2"})
        with pytest.raises(Exception, match="admissible"):
            gk.lift_paths(phi, ["1", "2"])

    def test_not_liftable_without_lifting_property(self):
        # edge 2 exists downstairs at the image of q but has no lift at q
        V = gk.DirectedGraph(("q",), ("a",), {"a": "q"}, {"a": "q"})
        W = gk.DirectedGraph(("w",), ("1", "2"),
                             {"1": "w", "2": "w"}, {"1": "w", "2": "w"})
        phi = gk.GraphMorphism(V, W, {"q": "w"}, {"a": "1"})
        assert not gk.check_graph_morphism(phi).entry("path_lifting").passed
        with pytest.raises(gk.NotLiftable) as exc:
            gk.lift_paths(phi, "12")
        assert exc.value.witness == ("1", "2")

    def test_lifting_implies_liftable_words_up_to_6(self, cuntz):
        _, _, phi = cuntz
        assert gk.check_graph_morphism(phi).entry("path_lifting").passed
        for n in range(1, 7):
            for w in itertools.product("12", repeat=n):
                ls = gk.lift_paths(phi, w)
                assert ls.all_prefixes_extend

    def test_cylinder_cover(self, cuntz):
        _, _, phi = cuntz
        out = gk.cylinder_cover_check(phi, 5)
        assert out["pass"]
        assert out["words_checked"] == 2 + 4 + 8 + 16 + 32


class TestKernelFibers:
    def test_word_11_gives_m4(self, cuntz):
        _, _, phi = cuntz
        K, blocks = gk.kernel_fiber_groupoid(phi, "11")
        assert blocks.blocks == (4,)
        assert gk.wedderburn(K).blocks == (4,)

    def test_word_22_gives_scalar(self, cuntz):
        _, _, phi = cuntz
        _, blocks = gk.kernel_fiber_groupoid(phi, "22")
        assert blocks.blocks == (1,)

    def test_split_terminals_give_2_1(self):
        _, _, phi = corpus.split_terminal_graphs()
        K, blocks = gk.kernel_fiber_groupoid(phi, "1")
        assert blocks.blocks == (2, 1)
        assert gk.wedderburn(K).blocks == (2, 1)

    def test_small_kernel_groupoids_validate(self, cuntz):
        _, _, phi = cuntz
        for w in ("1", "2", "11", "12", "121"):
            K, _ = gk.kernel_fiber_groupoid(phi, w)
            gk.validate_groupoid(K.arrows, K.units, K.src, K.rng, K.inv,
                                 K.comp)

    def test_block_sizes_partition_lifts(self, cuntz):
        _, _, phi = cuntz
        for n in range(1, 7):
            for w in itertools.product("12", repeat=n):
                K, blocks = gk.kernel_fiber_groupoid(phi, w)
                ls = gk.lift_paths(phi, w)
                assert sum(blocks.blocks) == len(ls)
                assert sum(b * b for b in blocks.blocks) == len(K.arrows)
                sizes = tuple(sorted((len(v) for v in
                                      ls.by_terminal.values()),
                                     reverse=True))
                assert blocks.blocks == sizes

    def test_extension_multiplies_block_sizes(self, cuntz):
        # appending a letter multiplies each block by the per-vertex lift
        # count of that letter (single vertex here)
        _, _, phi = cuntz
        for w in ("1", "2", "12", "21"):
            _, blocks = gk.kernel_fiber_groupoid(phi, w)
            for letter, factor in (("1", 2), ("2", 1)):
                _, bigger = gk.kernel_fiber_groupoid(phi, w + letter)
                assert bigger.blocks == tuple(b * factor
                                              for b in blocks.blocks)


class TestGrading:
    def test_degree_additive_depth3(self, cuntz):
        V, _, _ = cuntz
        phi = gk.collapse_morphism(V)
        rep = gk.grading_degree(phi, 3).as_dict()
        assert rep["pass"]
        assert rep["additive"] and rep["involution_flips"]

    def test_degree_zero_matches_kernel(self, cuntz):
        V, _, _ = cuntz
        phi = gk.collapse_morphism(V)
        rep = gk.grading_degree(phi, 2)
        assert rep.entry("degree_zero_matches_kernel").passed

    def test_requires_collapse_codomain(self, cuntz):
        _, _, phi = cuntz
        with pytest.raises(gk.DomainNotCollapse):
            gk.grading_degree(phi, 2)

    @settings(max_examples=60, deadline=None)
    @given(sink_free_graphs(), st.integers(0, 5))
    @example(corpus.cuntz_graphs()[0], 5)
    @example(corpus.split_terminal_graphs()[0], 5)
    def test_counts_match_the_path_enumeration(self, V, depth):
        phi = gk.collapse_morphism(V)
        rep = gk.grading_degree(phi, depth)
        n_arrows, degree_range, zero = window_by_paths(V, depth)
        assert (rep.n_arrows, rep.degree_range) == (n_arrows, degree_range)
        # the report passes only if its degree-0 blocks are the kernel
        # blocks, so these must be the enumerated ones
        kernel, _ = gk.lift_counts(phi, ("z",) * depth)
        assert rep.passed
        assert zero == (tuple(sorted(kernel.values(), reverse=True))
                        if depth else ())

    @pytest.mark.parametrize("depth", [12, 200])
    def test_deep_window_keeps_every_digit(self, depth, capsys):
        # paths of length 1..depth over three loops: N = (3^(depth+1) - 3) / 2
        code, _, payload = run_json(
            ["graph", "grading", "--graph",
             corpus.data_path("cuntz_v.graph.json"), "--depth", str(depth)],
            capsys)
        grading = payload["grading"]
        assert code == 0 and payload["pass"]
        assert grading["n_arrows"] == ((3 ** (depth + 1) - 3) // 2) ** 2
        assert grading["degree_range"] == [1 - depth, depth - 1]


class TestWindowMorphism:
    def test_cuntz_window_is_surjective_fibration(self, cuntz):
        _, _, phi = cuntz
        pi = corpus.graph_path_groupoid_morphism(phi, 2)
        cls = gk.classify_morphism(pi)
        assert cls.is_morphism and cls.surjective and cls.fibration
        assert not cls.covering

    def test_window_kernel_fibers_match(self, cuntz):
        _, _, phi = cuntz
        pi = corpus.graph_path_groupoid_morphism(phi, 2)
        E = gk.build_bundle(pi)
        # unit fibers of the bundle are the kernel-fiber algebras: blocks
        # over the unit (w, w) must be M_{2^{ones}}
        for w in itertools.product("12", repeat=2):
            ones = sum(1 for ch in w if ch == "1")
            from gpdkit.graphs import _path_id
            u = pair_id(_path_id(tuple(w)), _path_id(tuple(w)))
            mats = DenseUnitFiber(E, u).basis_matrices()
            blocks = wedderburn_from_tables(closure_table(mats)).blocks
            assert blocks == (2 ** ones,)


def three_vertex_morphism():
    """x and z lie over 0 and y over 1 of a two-vertex codomain with edges
    u: 0 -> 1, l: 0 -> 0 and w: 1 -> 0. Edges are listed out of origin
    order, so from depth 2 on the path enumerations from the edge list
    and from the vertices list the window arrows in different orders."""
    W = gk.DirectedGraph(("0", "1"), ("u", "l", "w"),
                         {"u": "0", "l": "0", "w": "1"},
                         {"u": "1", "l": "0", "w": "0"})
    ends = {"e5": ("y", "x"), "e1": ("x", "y"), "e3": ("z", "y"),
            "e2": ("x", "z"), "e6": ("y", "z"), "e4": ("z", "x")}
    V = gk.DirectedGraph(("x", "y", "z"), tuple(ends),
                         {e: o for e, (o, _) in ends.items()},
                         {e: t for e, (_, t) in ends.items()})
    return gk.GraphMorphism(V, W, {"x": "0", "y": "1", "z": "0"},
                            {"e1": "u", "e2": "l", "e3": "u", "e4": "l",
                             "e5": "w", "e6": "w"})


class TestWindowBuilder:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("make", [
        lambda: corpus.cuntz_graphs()[2],
        lambda: corpus.split_terminal_graphs()[2], three_vertex_morphism],
        ids=["cuntz", "split-terminal", "three-vertex"])
    def test_matches_the_path_enumeration(self, make, depth):
        phi = make()
        assert gk.check_graph_morphism(phi).passed
        pi = corpus.graph_path_groupoid_morphism(phi, depth)
        dom, cod, mapping = window_morphism_by_paths(phi, depth)
        for G, want in ((pi.domain, dom), (pi.codomain, cod)):
            assert (set(G.arrows), dict(G.src), dict(G.rng), dict(G.inv),
                    dict(G.comp)) == want
        assert dict(pi.map) == mapping
        assert gk.classify_morphism(pi).is_morphism

    @pytest.mark.parametrize("make", [
        lambda: corpus.cuntz_graphs()[2],
        lambda: corpus.split_terminal_graphs()[2]],
        ids=["cuntz", "split-terminal"])
    def test_depth_zero_maps_the_vertices(self, make):
        # the windows at depth 0 are the vertex sets: units only
        phi = make()
        pi = corpus.graph_path_groupoid_morphism(phi, 0)
        for G in (pi.domain, pi.codomain):
            assert len(G.units) == len(G.arrows)
        assert dict(pi.map) == {pair_id(v, v): pair_id(w, w)
                                for v, w in phi.vmap.items()}
        cls = gk.classify_morphism(pi)
        assert cls.is_morphism and cls.surjective

    def test_blocks_partition_lifts_does_not_read_the_step_table(
            self, monkeypatch, capsys):
        # lift_paths steps along the out-edges, so a step table that lost
        # a terminus miscounts only lift_counts, and the check sees it
        real = graphs._step_table

        def dropped(phi):
            step = real(phi)
            key = next(iter(step))
            step[key] = step[key][1:]
            return step
        monkeypatch.setattr(graphs, "_step_table", dropped)
        code, _, payload = run_json(
            ["graph", "fibers", "--morphism",
             corpus.data_path("cuntz.graphmorphism.json"), "--word", "1121"],
            capsys)
        assert code == 1
        found = checks(payload)["blocks_partition_lifts"]
        assert not found["pass"]
        assert found["witness"] == "terminal 'v': 1 != 8"


class TestLiftCounts:
    def test_cuntz_counts_are_exact_python_ints(self, cuntz):
        # 2^70 would wrap in int64; the counts are Python ints
        _, _, phi = cuntz
        counts, extend = gk.lift_counts(phi, "1" * 70 + "2")
        assert counts == {"v": 2 ** 70} and extend
        assert type(counts["v"]) is int
        pairs, _ = gk.lift_counts(phi, "1" * 70, pairs=True)
        assert pairs == {("v", "v"): 2 ** 140}

    def test_split_terminals(self):
        _, _, phi = corpus.split_terminal_graphs()
        assert gk.lift_counts(phi, "1") == ({"p": 1, "q": 2}, True)
        pairs, _ = gk.lift_counts(phi, "1", pairs=True)
        assert pairs == {("p", "p"): 1, ("p", "q"): 2, ("q", "p"): 2,
                         ("q", "q"): 4}

    def test_empty_word_and_origin_rules_match_lift_paths(self):
        _, _, phi = corpus.split_terminal_graphs()
        assert gk.lift_counts(phi, "") == ({"p": 1, "q": 1}, True)
        assert gk.lift_counts(phi, "", origin="zz") == ({}, True)
        two = gk.GraphMorphism(phi.domain, gk.DirectedGraph(
            ("w", "x"), ("1",), {"1": "w"}, {"1": "w"}),
            phi.vmap, phi.emap)
        for call in (gk.lift_paths, gk.lift_counts):
            with pytest.raises(graphs.GraphError, match="origin"):
                call(two, "")
            with pytest.raises(graphs.GraphError, match="not at 'x'"):
                call(two, "1", origin="x")

    def test_stuck_and_missing_lifts(self):
        assert gk.lift_counts(stuck_lift_morphism(), "12") == ({"v": 1},
                                                               False)
        with pytest.raises(gk.NotLiftable) as exc:
            gk.lift_counts(no_lift_morphism(), "12")
        assert exc.value.witness == ("1", "2")


@st.composite
def small_morphisms(draw, incidence=True):
    """An incidence-preserving morphism onto a graph of one or two
    vertices, with or without path lifting, and a word over the codomain
    edges (admissible or not) with an optional origin. With
    ``incidence=False`` a domain edge may end at any vertex."""
    wv = ["w", "x"][:draw(st.integers(1, 2))]
    we = [f"{k}" for k in range(draw(st.integers(1, 3)))]
    W = gk.DirectedGraph(wv, we, {b: draw(st.sampled_from(wv)) for b in we},
                         {b: draw(st.sampled_from(wv)) for b in we})
    vv = [f"v{k}" for k in range(draw(st.integers(1, 3)))]
    vmap = {v: draw(st.sampled_from(wv)) for v in vv}
    origin, terminus, emap = {}, {}, {}
    for k in range(draw(st.integers(0, 5))):
        o = draw(st.sampled_from(vv))
        letters = [b for b in we if W.origin[b] == vmap[o]]
        b = draw(st.sampled_from(letters)) if letters else None
        ends = [v for v in vv if b is not None
                and (not incidence or vmap[v] == W.terminus[b])]
        if ends:
            e = f"e{k}"
            origin[e], terminus[e], emap[e] = o, draw(st.sampled_from(ends)), b
    V = gk.DirectedGraph(vv, list(origin), origin, terminus)
    word = draw(st.lists(st.sampled_from(we), max_size=4))
    start = draw(st.sampled_from([None] + wv))
    return gk.GraphMorphism(V, W, vmap, emap), word, start


def _outcome(call):
    try:
        return call()
    except graphs.GraphError as exc:  # NotLiftable is a GraphError
        return type(exc), str(exc), exc.witness


class TestLiftCountsProperty:
    @settings(max_examples=150, deadline=None)
    @given(small_morphisms())
    def test_counts_match_enumeration_and_kernel(self, case):
        phi, word, origin = case
        ls = _outcome(lambda: gk.lift_paths(phi, word, origin=origin))
        single = _outcome(lambda: gk.lift_counts(phi, word, origin=origin))
        double = _outcome(lambda: gk.lift_counts(phi, word, origin=origin,
                                                 pairs=True))
        if isinstance(ls, tuple):
            # the same exception, message and witness on the same input
            assert single == ls and double == ls
            return
        counts, extend = single
        pair_counts, pair_extend = double
        # per terminal vertex, so the sorted blocks agree too
        assert counts == {v: len(p) for v, p in ls.by_terminal.items()}
        assert extend == pair_extend == ls.all_prefixes_extend
        diagonal = sum(n for (u, u2), n in pair_counts.items() if u == u2)
        K, _ = gk.kernel_fiber_groupoid(phi, word, origin=origin)
        assert diagonal == len(K.arrows)


def _breaks_incidence(phi):
    V, W = phi.domain, phi.codomain
    return any(phi.vmap[V.origin[e]] != W.origin[phi.emap[e]]
               or phi.vmap[V.terminus[e]] != W.terminus[phi.emap[e]]
               for e in V.edges)


class TestCylinderCoverStates:
    """cylinder_cover_check scans the one-letter words: its dict is the
    word walks' on every incidence-preserving input, and its cost stays
    flat in the depth where the number of words doubles per level."""

    # On an incidence-preserving morphism an end set lies over the origin
    # of the next letter, so a failure shows on a word of one letter; a
    # morphism that breaks incidence is refused.
    @settings(max_examples=80, deadline=None)
    @given(st.booleans().flatmap(lambda inc: small_morphisms(incidence=inc)))
    @example((corpus.cuntz_graphs()[2], [], None))
    @example((no_lift_morphism(), [], None))
    @example((stuck_lift_morphism(), [], None))
    @example((off_incidence_morphism(), [], None))
    def test_matches_the_word_walks(self, case):
        phi = case[0]
        for depth in range(7):
            if _breaks_incidence(phi):
                with pytest.raises(gk.IncidenceViolation):
                    gk.cylinder_cover_check(phi, depth)
                continue
            got = gk.cylinder_cover_check(phi, depth)
            assert got == cylinder_cover_by_levels(phi, depth)
            assert got == cylinder_cover_by_words(phi, depth)

    @pytest.mark.parametrize("depth", [0, 4])
    def test_off_incidence_map_raises(self, depth):
        with pytest.raises(gk.IncidenceViolation,
                           match="incidence not preserved at edge 'e0'") \
                as exc:
            gk.cylinder_cover_check(off_incidence_morphism(), depth)
        assert exc.value.witness == "e0"

    def test_depth_64_counts_every_word(self, capsys):
        code, _, payload = run_json(
            ["graph", "check", "--morphism",
             corpus.data_path("cuntz.graphmorphism.json"), "--depth", "64"],
            capsys)
        assert code == 0 and payload["pass"]
        assert payload["cylinder_words_checked"] == 2 ** 65 - 2

    def test_depth_20_memory_is_bounded(self, cuntz):
        # the word walk held every word of a level: 795 MB at depth 20
        _, _, phi = cuntz
        tracemalloc.start()
        try:
            got = gk.cylinder_cover_check(phi, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got["pass"] and got["words_checked"] == 2 ** 21 - 2
        assert peak <= 2 ** 16

    def test_depth_15000_writes_every_digit(self, capsys):
        # 2^15001 - 2 has 4,516 digits, past the int-to-str limit of 4,300
        code = main(["graph", "check", "--morphism",
                     corpus.data_path("cuntz.graphmorphism.json"),
                     "--depth", "15000"])
        out = capsys.readouterr().out
        payload = json.loads(out, parse_int=str)
        with decimal.localcontext() as ctx:
            ctx.prec = 5000
            expected = str(decimal.Decimal(2) ** 15001 - 2)
        assert code == 0 and payload["pass"]
        assert payload["cylinder_words_checked"] == expected


class TestGraphCheckControls:
    @pytest.mark.parametrize("make, words, witness", [
        (no_lift_morphism, 2, "no lift of prefix ('2',)"),
        (stuck_lift_morphism, 2, "a partial lift of ('2',) got stuck"),
    ])
    def test_cylinder_check_matches_per_word_oracle(self, make, words,
                                                    witness):
        phi = make()
        for depth in range(5):
            got = gk.cylinder_cover_check(phi, depth)
            assert got == cylinder_cover_by_words(phi, depth)
        assert got["words_checked"] == words
        assert not got["pass"] and got["witness"] == witness

    def test_cylinder_check_matches_oracle_on_cuntz(self, cuntz):
        _, _, phi = cuntz
        assert gk.cylinder_cover_check(phi, 6) == \
            cylinder_cover_by_words(phi, 6)

    def test_graph_check_reports_stuck_lift(self, tmp_path, capsys):
        path = write_morphism(tmp_path, stuck_lift_morphism())
        code, _, payload = run_json(["graph", "check", "--morphism", path,
                                     "--depth", "3"], capsys)
        assert code == 1
        cyl = checks(payload)["cylinder_cover"]
        assert not cyl["pass"]
        assert cyl["witness"] == "a partial lift of ('2',) got stuck"

    def test_prefixes_extend_fails_on_stuck_lift(self, tmp_path, capsys):
        path = write_morphism(tmp_path, stuck_lift_morphism())
        code, _, payload = run_json(["graph", "fibers", "--morphism", path,
                                     "--word", "121"], capsys)
        assert code == 1
        found = checks(payload)
        assert not found["prefixes_extend"]["pass"]
        assert found["blocks_partition_lifts"]["pass"]
        assert found["block_squares_count_arrows"]["pass"]
        # a.c.a and a.c.b; b.c and d.c are stuck
        assert payload["blocks"] == [1, 1] and payload["lift_count"] == 2


def _miscount(real):
    """lift_counts with every count one too high."""
    def wrong(*args, **kwargs):
        counts, extend = real(*args, **kwargs)
        return {k: n + 1 for k, n in counts.items()}, extend
    return wrong


class TestMiscountControls:
    def test_fibers_checks_fail_with_terminal_witness(self, monkeypatch,
                                                      capsys):
        argv = ["graph", "fibers", "--morphism",
                corpus.data_path("cuntz.graphmorphism.json"), "--word",
                "121"]
        _, passing, _ = run_json(argv, capsys)
        monkeypatch.setattr("gpdkit.cli.lift_counts",
                            _miscount(graphs.lift_counts))
        code, _, payload = run_json(argv, capsys)
        assert code == 1
        found = checks(payload)
        assert found["prefixes_extend"]["pass"]
        assert found["blocks_partition_lifts"]["witness"] == \
            "terminal 'v': 5 != 4"
        assert found["block_squares_count_arrows"]["witness"] == \
            "terminal 'v': 25 != 17"
        assert not found["blocks_partition_lifts"]["pass"]
        assert not found["block_squares_count_arrows"]["pass"]
        monkeypatch.undo()
        assert run_json(argv, capsys)[1] == passing

    def test_grading_degree_zero_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(graphs, "lift_counts",
                            _miscount(graphs.lift_counts))
        code, _, payload = run_json(
            ["graph", "grading", "--graph",
             corpus.data_path("cuntz_v.graph.json"), "--depth", "2"], capsys)
        assert code == 1
        found = checks(payload)
        for name in ("degree_additive", "involution_flips_degree"):
            assert found[name]["pass"] and found[name]["witness"] is None
        assert not found["degree_zero_matches_kernel"]["pass"]
        assert found["degree_zero_matches_kernel"]["witness"] == \
            "degree-0 window blocks (9,) != kernel fiber blocks (10,)"


def test_fibers_of_ten_ones_without_the_kernel_groupoid(capsys):
    # K would have 2^20 arrows and 2^30 composable pairs
    argv = ["graph", "fibers", "--morphism",
            corpus.data_path("cuntz.graphmorphism.json"), "--word",
            "1" * 10]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["blocks"] == [1024] and payload["lift_count"] == 1024
    assert peak < 16 * 2 ** 20
