import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gpdkit as gk
from gpdkit import corpus
from gpdkit.groupoid import pair_id
from oracles import random_action, raw_groupoid, table_associativity_witness


def test_pair_groupoid_validates(pair2):
    assert len(pair2.arrows) == 4
    assert len(pair2.units) == 2


def test_z3_validates(z3):
    assert len(z3.arrows) == 3
    assert len(z3.units) == 1


def test_composition_convention_roundtrip(pair2, z3, heis3):
    # g * inv(g) = rng(g) on every arrow of every corpus groupoid
    for G in (pair2, z3, heis3):
        for g in G.arrows:
            assert G.comp[(g, G.inv[g])] == G.rng[g]
            assert G.comp[(G.inv[g], g)] == G.src[g]


def test_associativity_exhaustive_oracle(pair2, heis3):
    # independent triple loop, not the validator's
    for G in (pair2, heis3):
        for g1 in G.arrows:
            for g2 in G.arrows:
                if G.src[g1] != G.rng[g2]:
                    continue
                for g3 in G.arrows:
                    if G.src[g2] != G.rng[g3]:
                        continue
                    left = G.comp[(G.comp[(g1, g2)], g3)]
                    right = G.comp[(g1, G.comp[(g2, g3)])]
                    assert left == right


def test_corrupted_z3_fails_associativity():
    raw = corpus.corrupted_z3_tables()
    with pytest.raises(gk.AssociativityFailure) as exc:
        gk.validate_groupoid(*raw)
    # g1*g1 was redirected to g0: the first failing triple in arrow order
    assert exc.value.witness == ("g1", "g1", "g2")


def _tables(G):
    return (list(G.arrows), list(G.units), dict(G.src), dict(G.rng),
            dict(G.inv), dict(G.comp))


def _failure(raw):
    """(witness, message) of the AssociativityFailure raised on raw
    tables, or None when they validate."""
    try:
        gk.validate_groupoid(*raw)
    except gk.AssociativityFailure as exc:
        return exc.witness, str(exc)
    return None


def _oracle_failure(raw):
    triple = table_associativity_witness(*raw)
    if triple is None:
        return None
    g1, g2, g3 = triple
    return triple, f"({g1!r}*{g2!r})*{g3!r} != {g1!r}*({g2!r}*{g3!r})"


def _union():
    return corpus.disjoint_union([("c", corpus.cyclic_groupoid(4)),
                                  ("p", corpus.pair_groupoid(3)),
                                  ("h", corpus.heisenberg_groupoid(2))])


def _action():
    action = random_action(np.random.default_rng(11), max_arrows=24)
    return gk.build_action_groupoid(action).groupoid


CORPUS = {"pair2": lambda: corpus.pair_groupoid(2),
          "z3": lambda: corpus.cyclic_groupoid(3),
          "heis3": lambda: corpus.heisenberg_groupoid(3),
          "union": _union, "action": _action}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_groupoids_pass_as_on_the_table(name):
    raw = _tables(CORPUS[name]())
    assert _failure(raw) is None
    assert _oracle_failure(raw) is None


def _gathered_matches_sorted(raw):
    """The w = 1 table of raw groupoid tables takes the gathered path with
    no weight products; its (residual, triple) is the sorting path's."""
    table = raw_groupoid(*raw).table
    got = table.associativity_defect()
    assert got == table._sorted_associativity_defect()
    return got


def test_corrupted_z3_witness_and_message_match_the_table():
    raw = corpus.corrupted_z3_tables()
    assert _failure(raw) == _oracle_failure(raw)
    assert _gathered_matches_sorted(raw) == (1.0, (1, 1, 2))


def _redirected(G, rng):
    """G's tables with one composite g1 g2 (no unit, g2 != inv g1) sent to
    another arrow with the same source and range, so only associativity
    can fail."""
    pairs = [(g1, g2) for (g1, g2), g12 in G.comp.items()
             if not G.is_unit(g1) and not G.is_unit(g2) and G.inv[g1] != g2
             and any(h != g12 and G.src[h] == G.src[g12]
                     and G.rng[h] == G.rng[g12] for h in G.arrows)]
    g1, g2 = pairs[rng.integers(len(pairs))]
    g12 = G.comp[(g1, g2)]
    others = [h for h in G.arrows if h != g12 and G.src[h] == G.src[g12]
              and G.rng[h] == G.rng[g12]]
    raw = _tables(G)
    raw[5][(g1, g2)] = others[rng.integers(len(others))]
    return raw


@pytest.mark.parametrize("name, seed", [("heis3", 0), ("heis3", 1),
                                        ("z6", 2), ("union", 3),
                                        ("union", 4), ("action", 5)])
def test_redirected_composites_fail_as_on_the_table(name, seed):
    G = {"heis3": CORPUS["heis3"], "z6": lambda: corpus.cyclic_groupoid(6),
         "union": _union, "action": _action}[name]()
    rng = np.random.default_rng(seed)
    for _ in range(8):
        raw = _redirected(G, rng)
        got = _failure(raw)
        assert got is not None
        assert got == _oracle_failure(raw)
        assert _gathered_matches_sorted(raw)[0] == 1.0


def test_first_failure_past_the_first_slab(monkeypatch):
    # heis3 pairs each start 27 triples, so a pass of 1000 covers 37 of
    # them; the failure lies in the z3 part, past the 729 heis3 pairs
    monkeypatch.setattr(gk.algebra, "_TRIPLES_PER_PASS", 1000)
    raw = _tables(corpus.disjoint_union(
        [("h", corpus.heisenberg_groupoid(3)),
         ("z", corpus.cyclic_groupoid(3))]))
    raw[5][("z:g1", "z:g1")] = "z:g0"
    got = _failure(raw)
    assert got == _oracle_failure(raw)
    assert got[0] == ("z:g1", "z:g1", "z:g2")


def test_heis6_validation_memory_is_bounded():
    # gathered by StructureTable.associativity_defect: 12.3 MiB; sorting
    # two complex terms per triple took 25.5 MiB
    raw = _tables(corpus.heisenberg_groupoid(6))
    tracemalloc.start()
    try:
        gk.validate_groupoid(*raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def test_entry_ids_name_the_table_entry_of_each_pair(heis3, pair2):
    for G in (heis3, pair2):
        T, n = G.table, len(G.arrows)
        assert G.entry_ids(T.a, T.b).tolist() == list(range(len(T.a)))
        h1, h2 = np.divmod(np.arange(n * n), n)
        e = G.entry_ids(h1, h2)
        assert np.array_equal(e >= 0, G.src_idx[h1] == G.rng_idx[h2])
        assert np.array_equal(G.compose_ids(h1, h2),
                              np.where(e >= 0, T.c[e], -1))


def test_entry_ids_of_indices_outside_the_arrows_are_minus_one(z3):
    # -1 and n are no arrows: no wrap-around to g2, no key of (g1, g0)
    assert z3.compose_ids([1], [-1]).tolist() == [-1]
    assert z3.compose_ids([0], [3]).tolist() == [-1]
    assert z3.entry_ids([-1, 3, 0], [0, 0, -1]).tolist() == [-1, -1, -1]


def _assert_lookups_match_comp(G):
    """entry_ids, compose_ids and pair_ids of G against a dict of the
    pairs its table lists (G.comp, in table order), over every query pair
    of indices from -1 to n, composable or not."""
    n, name = len(G.arrows), G.arrows.__getitem__
    entry = {(G.index[g1], G.index[g2]): e
             for e, (g1, g2) in enumerate(G.comp)}
    h1, h2 = (v.ravel() - 1 for v in np.indices((n + 2, n + 2)))
    want = [entry.get(p, -1) for p in zip(h1.tolist(), h2.tolist())]
    assert G.entry_ids(h1, h2).tolist() == want
    assert G.compose_ids(h1, h2).tolist() == [
        -1 if e < 0 else G.index[G.comp[(name(x), name(y))]]
        for e, x, y in zip(want, h1.tolist(), h2.tolist())]
    assert list(zip(*(v.tolist() for v in G.pair_ids()))) == sorted(
        entry, key=lambda p: (p[1], p[0]))


def _relisted(G, change):
    """G with its table entries (a, b, c) rewritten by change(a, b, c),
    checked by the constructor alone."""
    from gpdkit.groupoid import FiniteGroupoid, _table
    T = G.table
    a, b, c = change(T.a.copy(), T.b.copy(), T.c.copy())
    return FiniteGroupoid(G.arrows, G.unit_idx, G.src_idx, G.rng_idx,
                          _table(len(G.arrows), a, b, c, T.t))


def _shipped_groupoids():
    """Every groupoid of the shipped data files: groupoid files, both ends
    of each morphism file, the groups and the flip action's groupoid."""
    from gpdkit.extensions import GroupTable
    path = corpus.data_path
    out = {g: gk.io.load_groupoid(path(f"{g}.groupoid.json"))
           for g in ("heis2", "heis3", "pair", "z3")}
    for m in ("flip_covering", "heis2_quotient", "heis3_quotient"):
        pi = gk.io.load_morphism(path(f"{m}.morphism.json"))
        out[f"{m}.domain"], out[f"{m}.codomain"] = pi.domain, pi.codomain
    for g in ("heis2", "heis3", "z2z2", "z4"):
        elements, mul, _ = gk.io.load_group(path(f"{g}.group.json"))
        out[f"{g}.group"] = GroupTable(elements, mul).to_groupoid()
    out["flip"] = gk.build_action_groupoid(corpus.flip_action()).groupoid
    return out


@pytest.mark.parametrize("name", sorted(_shipped_groupoids()))
def test_lookups_of_shipped_groupoids_match_comp(name):
    _assert_lookups_match_comp(_shipped_groupoids()[name])


@st.composite
def _drawn_groupoids(draw):
    """(build, refusal): a thunk that builds a groupoid, and None or the
    (class, witness) with which the constructor refuses its table. Pair
    blocks of drawn sizes, the action groupoid of a drawn action, a
    subgroupoid of a disjoint union, and that union's table with a pair
    missing, one non-composable or repeated entry added, or the entries
    shuffled."""
    sizes = draw(st.lists(st.integers(0, 3), max_size=4))
    blocks = gk.groupoid.pair_blocks(
        [[f"{k}.{p}" for p in range(m)] for k, m in enumerate(sizes)])
    kind = draw(st.sampled_from(["blocks", "action", "sub", "missing",
                                 "extra", "repeated", "shuffled"]))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    if kind == "blocks":
        return lambda: blocks, None
    if kind == "action":
        action = random_action(rng)
        return lambda: gk.build_action_groupoid(action).groupoid, None
    union = corpus.disjoint_union([("b", blocks),
                                   ("p", corpus.pair_groupoid(2)),
                                   ("z", corpus.cyclic_groupoid(3))])
    if kind == "sub":
        part = draw(st.sampled_from(["b:", "p:", "z:"]))
        keep = np.array([g.startswith(part) for g in union.arrows])
        return lambda: gk.subgroupoid(union, keep, require_all_units=False), \
            None
    T = union.table
    m = len(T.a)
    k = int(rng.integers(m))
    pair = tuple(union.names([T.a[k], T.b[k]]))
    if kind == "missing":
        return lambda: _relisted(union, lambda a, b, c: (
            np.delete(a, k), np.delete(b, k), np.delete(c, k))), \
            (gk.MissingComposite, pair)
    if kind == "extra":  # (z:g0, p:(1,1)), whose ends differ
        g1, g2 = union.index["z:g0"], union.index["p:(1,1)"]
        return lambda: _relisted(union, lambda a, b, c: (
            np.append(a, g1), np.append(b, g2), np.append(c, g1))), \
            (gk.IllegalComposite, ("z:g0", "p:(1,1)"))
    if kind == "repeated":  # entry k again, with another composite
        return lambda: _relisted(union, lambda a, b, c: (
            np.append(a, a[k]), np.append(b, b[k]), np.append(c, a[k]))), \
            (gk.IllegalComposite, pair)
    order = rng.permutation(m)
    return lambda: _relisted(union, lambda a, b, c: (
        a[order], b[order], c[order])), None


@given(_drawn_groupoids())
def test_lookups_of_drawn_tables_match_comp(case):
    build, refusal = case
    if refusal is not None:
        with pytest.raises(refusal[0]) as exc:
            build()
        assert exc.value.witness == refusal[1]
        return
    G = build()
    key = G.table.a * len(G.arrows) + G.table.b
    assert np.all(np.diff(key) > 0)  # in (a, b) order
    _assert_lookups_match_comp(G)


def test_repeated_pair_is_an_illegal_composite(z3):
    T = z3.table
    comp = np.stack([T.a, T.b, T.c], 1)
    triples = [(*p, g) for p, g in z3.comp.items()]
    for tables in ((z3.src_idx, z3.rng_idx, z3.inv_idx,
                    np.vstack([comp, comp[:1]])),
                   (z3.src, z3.rng, z3.inv, triples + triples[:1]),
                   (z3.src, z3.rng, z3.inv, triples + [("g0", "g0", "g1")])):
        with pytest.raises(gk.IllegalComposite) as exc:
            gk.validate_groupoid(z3.arrows, z3.units, *tables)
        assert exc.value.witness == ("g0", "g0")
        assert str(exc.value) == "comp lists the pair ('g0', 'g0') twice"


def test_missing_composite_detected(z3):
    comp = dict(z3.comp)
    del comp[("g1", "g2")]
    with pytest.raises(gk.MissingComposite):
        gk.validate_groupoid(z3.arrows, z3.units, z3.src, z3.rng, z3.inv,
                             comp)


def test_illegal_composite_detected(pair2):
    comp = dict(pair2.comp)
    comp[(pair_id(1, 2), pair_id(1, 2))] = pair_id(1, 2)  # not composable
    with pytest.raises(gk.IllegalComposite):
        gk.validate_groupoid(pair2.arrows, pair2.units, pair2.src, pair2.rng,
                             pair2.inv, comp)


def test_unit_failure_detected(z3):
    src = dict(z3.src)
    src["g1"] = "g1"  # not a unit
    with pytest.raises(gk.UnitFailure):
        gk.validate_groupoid(z3.arrows, z3.units, src, z3.rng, z3.inv,
                             z3.comp)


def test_inverse_failure_detected(z3):
    inv = dict(z3.inv)
    inv["g1"] = "g1"
    with pytest.raises(gk.InverseFailure):
        gk.validate_groupoid(z3.arrows, z3.units, z3.src, z3.rng, inv,
                             z3.comp)


class TestClassification:
    def test_heis3_quotient_is_fibration_not_covering(self, heis3_quotient):
        cls = gk.classify_morphism(heis3_quotient)
        assert cls.is_morphism and cls.surjective
        assert cls.fibration
        assert not cls.covering
        # oracle: exhaustive lift search over the 27 arrows
        pi = heis3_quotient
        G, H = pi.domain, pi.codomain
        for h in H.arrows:
            for x in G.units:
                if pi.map[x] != H.src[h]:
                    continue
                lifts = [g for g in G.arrows
                         if G.src[g] == x and pi.map[g] == h]
                assert len(lifts) == 3

    def test_flip_projection_is_covering(self, flip_groupoid):
        assert flip_groupoid.classification.covering

    def test_identity_is_covering(self, pair2):
        cls = gk.classify_morphism(corpus.identity_morphism(pair2))
        assert cls.covering

    def test_not_a_morphism_witness(self, z3):
        bad = gk.GroupoidMorphism(z3, z3,
                                  {"g0": "g0", "g1": "g1", "g2": "g1"})
        cls = gk.classify_morphism(bad)
        assert not cls.is_morphism
        assert cls.witness is not None
        with pytest.raises(gk.NotAMorphism):
            gk.check_morphism(bad)


class TestKernel:
    def test_heis3_kernel_is_center(self, heis3_quotient):
        dec = gk.kernel(heis3_quotient)
        assert set(dec.groupoid.arrows) == {f"[0,0,{c}]" for c in range(3)}
        # oracle: the center by brute conjugation
        G = heis3_quotient.domain
        center = {a for a in G.arrows
                  if all(G.comp[(a, b)] == G.comp[(b, a)] for b in G.arrows)}
        assert set(dec.groupoid.arrows) == center
        assert list(dec.fibers) == list(heis3_quotient.codomain.units)

    def test_covering_kernel_is_unit_space(self, flip_groupoid):
        dec = gk.kernel(flip_groupoid.projection)
        assert set(dec.groupoid.arrows) == \
            set(flip_groupoid.projection.domain.units)

    def test_identity_kernel_is_units(self, pair2):
        dec = gk.kernel(corpus.identity_morphism(pair2))
        assert set(dec.groupoid.arrows) == set(pair2.units)

    def test_kernel_requires_surjective(self, z3):
        pi = gk.GroupoidMorphism(z3, z3, {g: "g0" for g in z3.arrows})
        with pytest.raises(gk.NotSurjective):
            gk.kernel(pi)


class TestIsotropyQuotient:
    def test_z3_gives_point(self, z3):
        R, pi = gk.isotropy_quotient(z3)
        assert len(R.arrows) == 1
        dec = gk.kernel(pi)
        assert set(dec.groupoid.arrows) == set(z3.arrows)

    def test_pair_gives_pair(self, pair2):
        R, pi = gk.isotropy_quotient(pair2)
        assert len(R.arrows) == 4
        dec = gk.kernel(pi)
        assert set(dec.groupoid.arrows) == set(pair2.units)

    def test_group_gives_point(self, heis3):
        R, pi = gk.isotropy_quotient(heis3)
        assert len(R.arrows) == 1
        assert len(gk.kernel(pi).groupoid.arrows) == 27

    def test_quotient_is_surjective_fibration(self, pair2, z3, heis3):
        for G in (pair2, z3, heis3):
            _, pi = gk.isotropy_quotient(G)
            cls = gk.classify_morphism(pi)
            assert cls.surjective and cls.fibration


class TestBisections:
    def test_units_are_a_bisection(self, pair2):
        assert gk.check_bisection(pair2, pair2.units)

    def test_offdiagonal_bisection(self, pair2):
        # direct injectivity oracle: the two off-diagonal arrows have
        # distinct sources and distinct ranges
        s = [pair_id(1, 2), pair_id(2, 1)]
        assert {pair2.src[g] for g in s} == set(pair2.units)
        assert {pair2.rng[g] for g in s} == set(pair2.units)
        assert gk.check_bisection(pair2, s)

    def test_all_of_z3_is_not_a_bisection(self, z3):
        with pytest.raises(gk.NotABisection) as exc:
            gk.check_bisection(z3, z3.arrows)
        assert exc.value.witness is not None

    def test_greedy_cover_covers_everything(self, pair2, heis3):
        for G in (pair2, heis3):
            cover = gk.greedy_bisection_cover(G)
            covered = set()
            for bs in cover:
                gk.check_bisection(G, bs.arrows)
                covered.update(bs.arrows)
            assert covered == set(G.arrows)


def test_subgroupoid_rejects_non_closed(heis3):
    with pytest.raises(gk.NotASubgroupoid):
        gk.subgroupoid(heis3, ["[0,0,0]", "[1,0,0]"])
