"""Every groupoid builder against the name-level dict builder it replaced
(oracles.py), entry order included, and the index-level morphism and
action checks against their loops: same fields, classes, messages and
witnesses."""

import random

import numpy as np
import pytest

import gpdkit as gk
from gpdkit import corpus, io as gio
from gpdkit.extensions import GroupTable
from gpdkit.groupoid import fiber_subgroupoid, pair_blocks
from oracles import (dict_action_tables, dict_fiber_subgroupoid,
                     dict_group_tables, dict_isotropy_quotient, dict_kernel,
                     dict_pair_blocks, dict_subgroupoid, groupoid_arrays,
                     index_tables, loop_check_morphism, loop_classify_morphism,
                     loop_validate_action, random_action)


def assert_tables(G, tables):
    """G has the arrows of the name-level tables, each of its arrays equals
    theirs (entry order included), and so do its name views."""
    arrows, units, src, rng, inv, comp = tables
    assert G.arrows == tuple(arrows)
    for got, want in zip(groupoid_arrays(G), index_tables(*tables)):
        assert np.array_equal(got, want)
    assert (G.units, dict(G.src), dict(G.rng), dict(G.inv),
            list(G.comp.items())) == (tuple(units), src, rng, inv,
                                      list(comp.items()))


def outcome(check, *args):
    """("ok",) or the class, message and witness of what check raised."""
    try:
        check(*args)
    except gk.GroupoidError as exc:
        return type(exc).__name__, str(exc), exc.witness
    return ("ok",)


def _morphisms():
    cuntz = corpus.cuntz_graphs()[2]
    return {
        **{name: gio.load_morphism(corpus.data_path(f"{name}.morphism.json"))
           for name in ("flip_covering", "heis2_quotient", "heis3_quotient")},
        "identity_pair3": corpus.identity_morphism(corpus.pair_groupoid(3)),
        "nonsaturated": corpus.nonsaturated_surjection(),
        "cuntz_window": corpus.graph_path_groupoid_morphism(cuntz, 2),
        "action": gk.build_action_groupoid(random_action(
            np.random.default_rng(3))).projection,
    }


MORPHISMS = _morphisms()


def _groupoids():
    union = corpus.disjoint_union([("p", corpus.pair_groupoid(3)),
                                   ("z", corpus.cyclic_groupoid(4)),
                                   ("q", corpus.pair_groupoid(2))])
    return {"pair2": corpus.pair_groupoid(2), "z3": corpus.cyclic_groupoid(3),
            "heis3": corpus.heisenberg_groupoid(3), "union": union,
            **{f"action{s}": gk.build_action_groupoid(random_action(
                np.random.default_rng(s))).groupoid for s in range(4)}}


GROUPOIDS = _groupoids()


@pytest.mark.parametrize("blocks", [
    [], [["1"]], [["1", "2", "3"]], [["a", "b"], ["c"], ["d", "e", "f"]]])
def test_pair_blocks(blocks):
    assert_tables(pair_blocks(blocks), dict_pair_blocks(blocks))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_group_groupoid_takes_the_group_table(n):
    group = GroupTable(*corpus.heisenberg_elements(n))
    G = group.to_groupoid()
    assert G.table is group.table
    assert_tables(G, dict_group_tables(group))


@pytest.mark.parametrize("seed", range(10))
def test_action_groupoid(seed):
    a = random_action(np.random.default_rng(seed))
    ag = gk.build_action_groupoid(a)
    tables, projection = dict_action_tables(a)
    assert_tables(ag.groupoid, tables)
    assert list(ag.projection.map.items()) == list(projection.items())


@pytest.mark.parametrize("name", sorted(MORPHISMS))
def test_kernel_and_fibers(name):
    pi = MORPHISMS[name]
    dec = gk.kernel(pi)
    tables, fibers = dict_kernel(pi)
    assert_tables(dec.groupoid, tables)
    assert list(dec.fibers.items()) == list(fibers.items())
    for x in pi.codomain.units:
        assert_tables(fiber_subgroupoid(pi, x), dict_fiber_subgroupoid(pi, x))


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_isotropy_quotient(name):
    G = GROUPOIDS[name]
    R, pi = gk.isotropy_quotient(G)
    tables, mapping = dict_isotropy_quotient(G)
    assert_tables(R, tables)
    assert list(pi.map.items()) == list(mapping.items())


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_subgroupoid(name):
    """Closed subsets (isotropy, units, all) and subsets that break each
    closure law, from names and with require_all_units either way."""
    G = GROUPOIDS[name]
    rnd = random.Random(name)
    isotropy = [g for g in G.arrows if G.src[g] == G.rng[g]]
    subsets = [isotropy, list(G.units), list(G.arrows), G.units[:1],
               isotropy + ["not an arrow"]]
    for _ in range(6):
        subsets.append(rnd.sample(G.arrows, rnd.randint(1, len(G.arrows))))
    for arrows in subsets:
        for units in (True, False):
            got = outcome(gk.subgroupoid, G, arrows, units)
            assert got == outcome(dict_subgroupoid, G, arrows, units)
            if got == ("ok",):
                assert_tables(gk.subgroupoid(G, arrows, units),
                              dict_subgroupoid(G, arrows, units))


def _mutated(pi, change):
    """pi with its name map changed in place by change(map, pi)."""
    mapping = dict(pi.map)
    change(mapping, pi)
    return gk.GroupoidMorphism(pi.domain, pi.codomain, mapping)


def _mutants(pi):
    """pi under each mutation that applies to it, by name."""
    out = {}
    for name, change in MUTATIONS.items():
        try:
            out[name] = _mutated(pi, change)
        except StopIteration:  # no second image over the same units
            pass
    return out


def _swap_image(mapping, pi):
    # a non-unit arrow sent to another image over the same units
    H = pi.codomain
    g = next(g for g in pi.domain.arrows if not H.is_unit(mapping[g]))
    mapping[g] = next(h for h in H.arrows if h != mapping[g]
                      and H.src[h] == H.src[mapping[g]]
                      and H.rng[h] == H.rng[mapping[g]])


MUTATIONS = {
    "intact": lambda m, pi: None,
    "non_total": lambda m, pi: m.pop(pi.domain.arrows[-1]),
    "outside_codomain": lambda m, pi: m.update(
        {pi.domain.arrows[-1]: "nowhere"}),
    "not_intertwined": lambda m, pi: m.update(
        {pi.domain.arrows[-1]: pi.codomain.units[0]}),
    "not_multiplicative": _swap_image,
    "not_surjective": lambda m, pi: m.update(
        dict.fromkeys(m, pi.codomain.units[0])),
}


@pytest.mark.parametrize("name", sorted(MORPHISMS))
def test_classification_matches_the_loops(name):
    for pi in _mutants(MORPHISMS[name]).values():
        assert gk.classify_morphism(pi) == loop_classify_morphism(pi)
        assert outcome(gk.check_morphism, pi) == \
            outcome(loop_check_morphism, pi)


def test_mutations_reach_every_failure():
    """The comparisons above meet each failure of check_morphism and each
    class of morphism."""
    seen, messages = set(), []
    for name in MORPHISMS:
        for pi in _mutants(MORPHISMS[name]).values():
            cls = gk.classify_morphism(pi)
            seen.add((cls.is_morphism, cls.surjective, cls.fibration,
                      cls.covering))
            messages.append(str(outcome(gk.check_morphism, pi)))
    assert {(False, False, False, False), (True, False, False, False),
            (True, True, False, False), (True, True, True, False),
            (True, True, True, True)} <= seen
    for failure in ("not total", "not in codomain", "does not intertwine",
                    "not multiplicative"):
        assert any(failure in m for m in messages), failure


def _action_mutations(a, rnd):
    """Name mappings (groupoid, points, anchor, act) that break one axiom
    each, by an edit of a copy of those of a."""
    H = a.groupoid
    keys = sorted(a.act, key=repr)
    out = []
    for edit in ("redirect", "drop", "extra", "not_a_point", "anchor",
                 "anchor_not_unit"):
        act, anchor = dict(a.act), dict(a.anchor)
        h, x = rnd.choice(keys)
        if edit == "redirect":
            act[(h, x)] = rnd.choice([y for y in a.points if y != act[(h, x)]])
        elif edit == "drop":
            del act[(h, x)]
        elif edit == "extra":
            h = rnd.choice(H.arrows)
            x = rnd.choice([y for y in a.points if (h, y) not in act]
                           or a.points)
            act[(h, x)] = x
        elif edit == "not_a_point":
            act[(h, x)] = "nowhere"
        elif edit == "anchor":
            x = rnd.choice(a.points)
            anchor[x] = rnd.choice(H.units)
        else:
            anchor[rnd.choice(a.points)] = rnd.choice(H.arrows)
        out.append((H, a.points, anchor, act))
    return out


def _built(H, points, anchor, act):
    """The action of the name mappings, built from them and from the
    integer arrays they name (len(points) for an image that is no
    point)."""
    spot = {x: i for i, x in enumerate(points)}
    table = np.full((len(H.arrows), len(points)), -1)
    for (h, x), y in act.items():
        table[H.index[h], spot[x]] = spot.get(y, len(points))
    anchor_ids = np.array([H.index.get(anchor.get(x), -1) for x in points],
                          np.int64)
    return (gk.GroupoidAction(H, points, anchor, act),
            gk.GroupoidAction(H, points, anchor_ids, table))


def test_action_on_a_pair_outside_arrows_and_points_is_rejected():
    # a key of act that is no (arrow, point) is refused when the action is
    # built, before any axiom is checked
    a = corpus.flip_action()
    names = a.groupoid, a.points, a.anchor, {**a.act, ("g7", "x"): "y"}
    want = ("ActionAxiomViolation", "act defined on ('g7', 'x'), not an "
            "arrow and a point", ("g7", "x"))
    assert outcome(gk.GroupoidAction, *names) == want
    assert outcome(loop_validate_action, *names) == want


def test_multiplicativity_witness_is_first_in_arrow_point_order():
    # g1 of Z_2 sends x -> y -> z -> z, so g1 (g1 p) != p at p = x and at
    # p = y; act lists (g1, y) first, and the witness is still (g1, g1, x)
    H = corpus.cyclic_groupoid(2)
    points = ("x", "y", "z")
    anchor = dict.fromkeys(points, "g0")
    act = {("g1", "y"): "z", ("g1", "x"): "y", ("g1", "z"): "z",
           **{("g0", x): x for x in points}}
    want = ("ActionAxiomViolation", "action not multiplicative on ('g1', "
            "'g1', 'x')", ("g1", "g1", "x"))
    for a in _built(H, points, anchor, act):
        assert outcome(gk.validate_action, a) == want
    assert outcome(loop_validate_action, H, points, anchor, act) == want


@pytest.mark.parametrize("seed", range(10))
def test_action_axioms_match_the_loops(seed):
    # the action of random_action and each of its mutations: built from
    # names and from arrays, validate_action agrees with the loops
    a = random_action(np.random.default_rng(seed))
    names = a.groupoid, a.points, dict(a.anchor), dict(a.act)
    assert outcome(loop_validate_action, *names) == ("ok",)
    for names in [names, *_action_mutations(a, random.Random(seed))]:
        want = outcome(loop_validate_action, *names)
        for b in _built(*names):
            assert outcome(gk.validate_action, b) == want
