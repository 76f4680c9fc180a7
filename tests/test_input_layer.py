"""The input layer against its per-entry oracle.

gpdkit.io parses and validate_groupoid checks on index arrays; the loops
in oracles.py check one entry at a time. On every corrupted input both
must agree: equal objects (in the same order), or the same exception
class, message and witness, and for ParseError the same file, JSON path
and expectation.
"""

import copy
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gpdkit.io as gio
from gpdkit import corpus
from gpdkit.actions import Cocycle, GroupoidAction
from gpdkit.groupoid import (FiniteGroupoid, GroupoidError, GroupoidMorphism,
                             validate_groupoid)
from gpdkit.report import canonical_json
from oracles import (loop_load_action, loop_load_cocycle, loop_load_group,
                     loop_load_groupoid, loop_load_morphism,
                     loop_load_raw_groupoid_tables, loop_validate_groupoid,
                     raw_groupoid)


def _summary(x):
    if isinstance(x, FiniteGroupoid):
        return (x.arrows, x.units, *(list(d.items()) for d in (
            x.src, x.rng, x.inv, x.comp)))
    if isinstance(x, GroupoidMorphism):
        return _summary(x.domain), _summary(x.codomain), list(x.map.items())
    if isinstance(x, Cocycle):
        return _summary(x.base), list(x.omega.items())
    if isinstance(x, GroupoidAction):
        return (_summary(x.groupoid), x.points, list(x.anchor.items()),
                list(x.act.items()))
    return tuple(list(v.items()) if isinstance(v, dict) else v for v in x)


def _outcome(load, *args):
    try:
        return "ok", _summary(load(*args))
    except gio.ParseError as exc:
        return "ParseError", exc.file, exc.path, exc.expectation
    except GroupoidError as exc:
        return type(exc).__name__, str(exc), exc.witness


def _validated(load_raw, validate):
    return lambda doc: validate(*load_raw(doc))


UNION = corpus.disjoint_union([("p", corpus.pair_groupoid(3)),
                               ("z", corpus.cyclic_groupoid(3))])
GROUPOID = gio.save_groupoid(UNION)
COCYCLE = gio.save_cocycle(Cocycle(UNION, {p: 1.0 for p in UNION.comp}))
MORPHISM = gio.save_morphism(corpus.heisenberg_quotient(2))
ACTION = gio.save_action(corpus.flip_action())
with open(corpus.data_path("z4.group.json"), encoding="utf-8") as fh:
    GROUP = json.load(fh)

# kind -> (document, [(new loader, oracle loader)])
LOADERS = {
    "groupoid": (GROUPOID, [
        (gio.load_groupoid, loop_load_groupoid),
        (_validated(gio.load_raw_groupoid_tables, validate_groupoid),
         _validated(loop_load_raw_groupoid_tables, loop_validate_groupoid))]),
    "cocycle": (COCYCLE, [(lambda d: gio.load_cocycle(d, UNION),
                           lambda d: loop_load_cocycle(d, UNION))]),
    "morphism": (MORPHISM, [(gio.load_morphism, loop_load_morphism)]),
    "action": (ACTION, [(gio.load_action, loop_load_action)]),
    "group": (GROUP, [(gio.load_group, loop_load_group)]),
}


def _agree(kind, doc):
    """Outcomes of the new and the oracle loaders of ``kind`` on ``doc``,
    asserted equal; returns them."""
    out = []
    for new, old in LOADERS[kind][1]:
        got = _outcome(new, copy.deepcopy(doc))
        assert got == _outcome(old, copy.deepcopy(doc))
        out.append(got)
    return out


# -- seeded corruptions: (kind, name, mutate(doc, rnd), expected outcome of
# the first loader) -----------------------------------------------------

def _triples(doc, where=lambda t: True):
    return [i for i, t in enumerate(doc["comp"]) if where(t)]


def _non_units(doc):
    return [g for g in doc["arrows"] if g not in doc["units"]]


def _z(doc, t):
    return all(g.startswith("z:") for g in t)


def _repeat_arrow(doc, rnd):
    doc["arrows"].insert(rnd.randrange(len(doc["arrows"]) + 1),
                         rnd.choice(doc["arrows"]))


def _undeclared(doc, rnd):
    where = rnd.choice(["units", "src", "comp"])
    if where == "units":
        doc["units"][rnd.randrange(len(doc["units"]))] = "zz"
    elif where == "src":
        doc["src"][rnd.choice(doc["arrows"])] = "zz"
    else:
        doc["comp"][rnd.randrange(len(doc["comp"]))][rnd.randrange(3)] = "zz"


def _missing_key(doc, rnd):
    del doc[rnd.choice(["src", "rng", "inv"])][rnd.choice(doc["arrows"])]


def _extra_key(doc, rnd):
    doc[rnd.choice(["src", "rng", "inv"])]["zz"] = doc["units"][0]


def _non_unit_src(doc, rnd):
    doc["src"][rnd.choice(doc["arrows"])] = rnd.choice(_non_units(doc))


def _repeat_pair(doc, rnd):
    i = rnd.randrange(len(doc["comp"]))
    g1, g2, _ = doc["comp"][i]
    doc["comp"].insert(rnd.randrange(i + 1, len(doc["comp"]) + 1),
                       [g1, g2, rnd.choice(doc["arrows"])])


def _non_composable(doc, rnd):
    g1, g2 = rnd.choice([(g1, g2) for g1 in doc["arrows"]
                         for g2 in doc["arrows"]
                         if doc["src"][g1] != doc["rng"][g2]])
    doc["comp"].insert(rnd.randrange(len(doc["comp"]) + 1), [g1, g2, g1])


def _mis_sourced(doc, rnd):
    t = doc["comp"][rnd.randrange(len(doc["comp"]))]
    t[2] = rnd.choice([g for g in doc["arrows"]
                       if (doc["src"][g], doc["rng"][g])
                       != (doc["src"][t[1]], doc["rng"][t[0]])])


def _missing_pairs(doc, rnd):
    # some with a common second factor, so the first missing g1 decides
    g2 = rnd.choice(doc["arrows"])
    drop = rnd.sample(_triples(doc, lambda t: t[1] == g2), 2)
    drop += rnd.sample(range(len(doc["comp"])), rnd.randint(0, 4))
    doc["comp"] = [t for i, t in enumerate(doc["comp"]) if i not in drop]


def _unit_law(doc, rnd):
    # a Z3 product with the unit redirected to the other non-unit
    i = rnd.choice(_triples(doc, lambda t: _z(doc, t) and "z:g0" in t[:2]
                            and t[0] != t[1]))
    t = doc["comp"][i]
    t[2] = ({"z:g1", "z:g2"} - {t[2]}).pop()


def _inverse(doc, rnd):
    g = rnd.choice(["z:g1", "z:g2"])
    doc["inv"][g] = rnd.choice([g, "z:g0"])


def _associativity(doc, rnd):
    # z:g1 z:g1 = z:g0 (or z:g2 z:g2 = z:g0) keeps the unit and inverse laws
    g = rnd.choice(["z:g1", "z:g2"])
    doc["comp"][_triples(doc, lambda t: t[:2] == [g, g])[0]][2] = "z:g0"


def _malformed_triple(doc, rnd):
    i = rnd.randrange(len(doc["comp"]))
    t = doc["comp"][i]
    doc["comp"][i] = rnd.choice([t[:2], t + ["x"], [t[0], 1, t[2]],
                                 "abc", {"a": t[0]}, None, [t[0], [t[1]], t[2]]])


def _omega_value(doc, rnd):
    entry = doc["omega"][rnd.randrange(len(doc["omega"]))]
    entry[2] = rnd.choice([[float("nan"), 0.0], [0.0, float("inf")], [1.0],
                           [1.0, 0.0, 0.0], "x", [True, "a"], 1.0, None])


def _omega_entry(doc, rnd):
    i = rnd.randrange(len(doc["omega"]))
    g1, g2, v = doc["omega"][i]
    doc["omega"][i] = rnd.choice([
        ["zz", g2, v], [g1, 5, v], [g1, g2], [g1, g2, v, v], "abc",
        [g2, g2, v] if UNION.src[g2] != UNION.rng[g2] else [g1, None, v]])


def _omega_missing(doc, rnd):
    del doc["omega"][rnd.randrange(len(doc["omega"]))]


def _act_entry(doc, rnd):
    i = rnd.randrange(len(doc["act"]))
    h, x, hx = doc["act"][i]
    doc["act"][i] = rnd.choice([["zz", x, hx], [h, "zz", hx], [h, x, "zz"],
                                [h, x], [h, x, 3], "abc"])


def _rho_entry(doc, rnd):
    x = rnd.choice(doc["X"])
    rnd.choice([lambda: doc["rho"].__setitem__(x, "zz"),
                lambda: doc["rho"].__setitem__("zz", doc["rho"][x]),
                lambda: doc["rho"].__delitem__(x)])()


def _map_entry(doc, rnd):
    g = rnd.choice(list(doc["map"]))
    rnd.choice([lambda: doc["map"].__setitem__(g, "zz"),
                lambda: doc["map"].__setitem__(g, 7),
                lambda: doc["map"].__setitem__("zz", doc["map"][g]),
                lambda: doc["map"].__delitem__(g)])()


def _group_entry(doc, rnd):
    i = rnd.randrange(len(doc["mul"]))
    a, b, ab = doc["mul"][i]
    rnd.choice([lambda: doc["mul"].__setitem__(i, [a, "zz", ab]),
                lambda: doc["mul"].__setitem__(i, [a, b]),
                lambda: doc["kernel"].append("zz")])()


CORRUPTIONS = [
    ("groupoid", "repeated_arrow", _repeat_arrow, "GroupoidError"),
    ("groupoid", "undeclared_arrow", _undeclared, "ParseError"),
    ("groupoid", "missing_key", _missing_key, "ParseError"),
    ("groupoid", "extra_key", _extra_key, "ParseError"),
    ("groupoid", "non_unit_src", _non_unit_src, "UnitFailure"),
    ("groupoid", "repeated_pair", _repeat_pair, "ParseError"),
    ("groupoid", "non_composable", _non_composable, "IllegalComposite"),
    ("groupoid", "mis_sourced", _mis_sourced, "IllegalComposite"),
    ("groupoid", "missing_pairs", _missing_pairs, "MissingComposite"),
    ("groupoid", "unit_law", _unit_law, "UnitFailure"),
    ("groupoid", "inverse", _inverse, "InverseFailure"),
    ("groupoid", "associativity", _associativity, "AssociativityFailure"),
    ("groupoid", "malformed_triple", _malformed_triple, "ParseError"),
    ("cocycle", "bad_value", _omega_value, "ParseError"),
    ("cocycle", "bad_entry", _omega_entry, "ParseError"),
    ("cocycle", "missing_value", _omega_missing, "ParseError"),
    ("action", "bad_act", _act_entry, "ParseError"),
    ("action", "bad_rho", _rho_entry, "ParseError"),
    ("morphism", "bad_map", _map_entry, "ParseError"),
    ("group", "bad_mul", _group_entry, "ParseError"),
]


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_intact_documents_load_alike(kind):
    assert all(out[0] == "ok" for out in _agree(kind, LOADERS[kind][0]))


def test_loaded_table_is_the_table_of_the_groupoid():
    G = gio.load_groupoid(copy.deepcopy(GROUPOID))
    fresh = raw_groupoid(G.arrows, G.units, G.src, G.rng, G.inv,
                         G.comp).table
    for name in ("a", "b", "c", "w", "s", "t", "sw"):
        np.testing.assert_array_equal(getattr(G.table, name),
                                      getattr(fresh, name))


@pytest.mark.parametrize("kind, name, mutate, expected", CORRUPTIONS,
                         ids=[f"{k}-{n}" for k, n, _, _ in CORRUPTIONS])
def test_corruption_gives_the_oracle_outcome(kind, name, mutate, expected):
    for seed in range(8):
        doc = copy.deepcopy(LOADERS[kind][0])
        mutate(doc, random.Random(seed))
        assert _agree(kind, doc)[0][0] == expected, seed


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_several_corruptions_report_the_first(kind):
    # two to four faults at once: which one is reported first is decided
    # by the check order, so both sides must name the same
    mutations = [m for k, _, m, _ in CORRUPTIONS if k == kind]
    for seed in range(40):
        rnd = random.Random(seed)
        doc = copy.deepcopy(LOADERS[kind][0])
        for mutate in rnd.choices(mutations, k=rnd.randint(2, 4)):
            try:
                mutate(doc, rnd)
            except (KeyError, IndexError, TypeError, ValueError,
                    AttributeError):
                pass  # an earlier fault removed what this one needs
        _agree(kind, doc)


def _paths(obj, prefix=()):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return []
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out += _paths(value, prefix + (key,))
    return out


def _strings(obj):
    if isinstance(obj, str):
        return {obj}
    if isinstance(obj, dict):
        return set(obj).union(*map(_strings, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_strings, obj))
    return set()


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_document_gives_the_oracle_outcome(kind, data):
    """Up to three values replaced or deleted anywhere in the document."""
    doc = copy.deepcopy(LOADERS[kind][0])
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(-2, 9),
        st.floats(allow_nan=True), st.sampled_from(sorted(_strings(doc))),
        st.text(max_size=3))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = _paths(doc)
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = data.draw(st.none() | st.recursive(
            leaves, lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=4))
        if value is None and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    _agree(kind, doc)


@pytest.mark.parametrize("name", ["heis2.groupoid.json", "heis3.groupoid.json",
                                  "pair.groupoid.json", "z3.groupoid.json"])
def test_corpus_files_load_alike(name):
    new = gio.load_groupoid(corpus.data_path(name))
    with open(corpus.data_path(name), encoding="utf-8") as fh:
        old = loop_load_groupoid(json.load(fh), file=corpus.data_path(name))
    assert _summary(new) == _summary(old)


def test_loading_heis6_stays_near_the_size_of_its_document(tmp_path):
    # the document is freed before validation, so the peak is the decoded
    # JSON plus the parse; keeping it through validation costs about 1.85x
    path = tmp_path / "heis6.groupoid.json"
    path.write_text(canonical_json(gio.save_groupoid(
        corpus.heisenberg_groupoid(6))))
    tracemalloc.start()
    try:
        gio._read_json(str(path))
        decoded = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        G = gio.load_groupoid(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(G.arrows) == 216 and len(G.comp) == 216 ** 2
    assert peak <= 1.5 * decoded, (peak, decoded)


# -- large documents: each scan must stop at its first failing row, at
# the start, the middle or the end of a document of over 4,000 rows ------

LARGE = corpus.disjoint_union([("p", corpus.pair_groupoid(15)),
                               ("h", corpus.heisenberg_groupoid(3))])
LARGE_DOCS = {  # kind -> (document, its list of rows, new loader, oracle)
    "groupoid": (gio.save_groupoid(LARGE), "comp", gio.load_groupoid,
                 loop_load_groupoid),
    "cocycle": (gio.save_cocycle(Cocycle(LARGE, np.exp(1j * np.arange(len(
        LARGE.comp))))), "omega", lambda d: gio.load_cocycle(d, LARGE),
        lambda d: loop_load_cocycle(d, LARGE)),
}


def _elsewhere(rows, r):
    """An arrow of the other component than the last name of row r."""
    return rows[-1][0] if rows[r][-1 if isinstance(rows[r][-1], str)
                                 else 0].startswith("p:") else rows[0][0]


def _repeat_row(rows, r):
    rows[r][:2] = rows[r - 1 if r else 1][:2]  # at r = 0, row 1 repeats


LARGE_CORRUPTIONS = {  # kind -> {name: mutate(rows, r)}
    "groupoid": {
        "malformed": lambda rows, r: rows.__setitem__(r, rows[r][:2]),
        "undeclared": lambda rows, r: rows[r].__setitem__(1, "zz"),
        "repeated": _repeat_row,
        "composite": lambda rows, r: rows[r].__setitem__(
            2, _elsewhere(rows, r))},
    "cocycle": {
        "malformed": lambda rows, r: rows.__setitem__(r, rows[r][:2]),
        "arrow": lambda rows, r: rows[r].__setitem__(0, "zz"),
        "apart": lambda rows, r: rows[r].__setitem__(1, _elsewhere(rows, r)),
        "value": lambda rows, r: rows[r].__setitem__(2, [float("nan"), 0.0])},
}


@pytest.mark.parametrize("kind", sorted(LARGE_DOCS))
def test_large_document_fails_at_the_oracle_row(kind):
    doc, key, new, old = LARGE_DOCS[kind]
    mutations = LARGE_CORRUPTIONS[kind]
    m = len(doc[key])
    assert m >= 4000
    assert _outcome(new, copy.deepcopy(doc)) == _outcome(old, doc)
    names = sorted(mutations)
    cases = [[(name, r)] for name in names for r in (0, m // 2, m - 1)]
    # two rows failing different checks, the earlier row in the later
    # check or in the earlier one
    cases += [[(names[0], 3 * m // 4), (names[1], m // 4)],
              [(names[2], m // 3), (names[3], 2 * m // 3)],
              [(names[3], 1), (names[0], m - 2)]]
    for case in cases:
        bad = copy.deepcopy(doc)
        for name, r in case:
            mutations[name](bad[key], r)
        got = _outcome(new, copy.deepcopy(bad))
        assert got[0] != "ok" and got == _outcome(old, bad), case
