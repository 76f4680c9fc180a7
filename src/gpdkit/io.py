"""JSON file formats for every object the CLI consumes or produces.

Structural problems (wrong types, missing keys, references to undeclared
identifiers) raise ParseError carrying the file, a JSON path and what was
expected there; semantic failures (axiom violations) are left to the
validators so the CLI can distinguish malformed input from verification
failure.

Where a format embeds another object (morphism domains, bundle bases),
the value may be either an inline object or a string path resolved
relative to the referring file.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain, islice, repeat
from operator import and_, eq, indexOf
from typing import Optional

import numpy as np

from .groupoid import (FiniteGroupoid, GroupoidMorphism, _first_repeat, _ids,
                       _prefix, validate_groupoid)
from .actions import Cocycle, GroupoidAction
from .algebra import StructureTable
from .bundle import FellBundle
from .graphs import DirectedGraph, GraphMorphism


class ParseError(Exception):
    def __init__(self, file: Optional[str], path: str, expectation: str):
        self.file = file or "<inline>"
        self.path = path
        self.expectation = expectation
        super().__init__(f"{self.file}: at {path}: expected {expectation}")


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError):
        raise ParseError(path, "$", "a readable file") from None
    except json.JSONDecodeError as exc:
        raise ParseError(path, "$", f"valid JSON ({exc.msg})") from None


def _expect(cond: bool, file, path: str, what: str, *at):
    """ParseError unless ``cond``, at ``path`` (a template of ``at``)."""
    if not cond:
        raise ParseError(file, path.format(*at) if at else path, what)


def _object(obj, file, path, what, keys):
    """Expect ``what``, an object with each of ``keys``, at ``path``."""
    _expect(isinstance(obj, dict), file, path, what)
    for key in keys:
        _expect(key in obj, file, path, f"key {key!r}")


def _document(source, base_dir, file=None):
    """(document, base directory, file) of a path string, read here, or
    of an inline document, whose file is ``file``."""
    if isinstance(source, str):
        return _read_json(source), os.path.dirname(source), source
    return source, base_dir, file


def _resolve(source, base_dir, loader, file, path):
    """Inline object or relative path string."""
    if isinstance(source, str):
        full = source if os.path.isabs(source) else \
            os.path.join(base_dir or ".", source)
        return loader(full)
    if isinstance(source, dict):
        return loader(source, base_dir=base_dir, file=file, at=path)
    raise ParseError(file, path, "an object or a path string")


# Each check is one scan that stops at the first entry failing it, and each
# name is resolved once, by a lookup whose -1 is its "declared" check. An
# error names the first failing entry, its checks taken in message order.

def _first(flags, end: int) -> int:
    """The place of the first false one of ``flags``, or ``end``."""
    try:
        return indexOf(flags, False)
    except ValueError:
        return end


def _rows(entries, width, kind=object):
    """(k, items): the first k entries are lists of ``width`` instances
    of ``kind`` and entry k, if any, is not; items are theirs, flat."""
    k = _first(map(isinstance, entries, repeat(list)), len(entries))
    k = _first(map(eq, map(len, islice(entries, k)), repeat(width)), k)
    items = list(chain.from_iterable(islice(entries, k)))
    if kind is not object:
        k = _first(map(isinstance, items, repeat(kind)), len(items)) // width
        del items[k * width:]
    return k, items


def _float(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _complex_rows(values):
    """(k, the first k values as a complex array): the first k are
    [re, im] pairs of finite numbers and value k, if any, is not."""
    k, items = _rows(values, 2, (int, float))
    try:
        parts = np.array(items, float)
    except OverflowError:  # an int too large for a float is not finite
        parts = np.fromiter(map(_float, items), float, len(items))
    k = _prefix(np.isfinite(parts).reshape(k, 2).all(1))
    return k, parts[:2 * k].view(complex)


def _as_str_list(obj, file, path):
    _expect(isinstance(obj, list), file, path, "a list")
    i = _first(map(isinstance, obj, repeat(str)), len(obj))
    _expect(i == len(obj), file, f"{path}[{i}]", "a string id")
    return list(obj)


def _as_str_map(obj, file, path, keys):
    _expect(isinstance(obj, dict), file, path, "an object")
    i = _first(map(isinstance, obj.values(), repeat(str)), len(obj))
    if i < len(obj):
        raise ParseError(file, f"{path}.{list(obj)[i]}", "a string id")
    i = _first(map(obj.__contains__, keys), len(keys))
    if i < len(keys):
        raise ParseError(file, path, f"an entry for {list(keys)[i]!r}")
    return dict(obj)


def _check_map(table, file, path, keys, key_what, values, value_what):
    """Every key of ``table`` in ``keys`` and every value in ``values``."""
    i = _first(map(and_, map(keys.__contains__, table),
                   map(values.__contains__, table.values())), len(table))
    if i < len(table):
        name = list(table)[i]
        raise ParseError(file, f"{path}.{name}",
                         value_what if name in keys else key_what)


def _map_ids(obj, file, path, keys, key_what, values, value_what):
    """The index under ``values`` of obj[g] for each key g of the index
    ``keys``, in a map of strings with an entry for each: one lookup per
    entry, and :func:`_check_map` only if one fails."""
    table = _as_str_map(obj, file, path, keys)
    ids = np.fromiter(map(values.get, map(table.__getitem__, keys),
                          repeat(-1)), np.int64, len(keys))
    if len(table) > len(keys) or np.any(ids < 0):
        _check_map(table, file, path, keys, key_what, values, value_what)
    return ids


def _pairs(items, file, path, what) -> dict:
    """{(x, y): z} of flat triples x, y, z, listed at ``path``;
    ParseError expecting ``what`` at the first (x, y) that repeats."""
    pairs = dict(zip(zip(items[0::3], items[1::3]), items[2::3]))
    if 3 * len(pairs) < len(items):
        i = _first_repeat(zip(items[0::3], items[1::3]))
        raise ParseError(file, f"{path}[{i}]", what)
    return pairs


def _as_complex(obj, file, path, *at) -> complex:
    """One [re, im] pair of finite numbers, as :func:`_complex_rows` reads
    it, with no array; ``path`` and ``at`` as for :func:`_expect`."""
    if isinstance(obj, list) and len(obj) == 2 and all(
            isinstance(x, (int, float)) for x in obj):
        z = complex(*map(_float, obj))
        if math.isfinite(z.real) and math.isfinite(z.imag):
            return z
    _expect(False, file, path, "a [re, im] pair of finite numbers", *at)


def _parse_groupoid(obj, file, at, declared):
    """The validate_groupoid arguments of a groupoid object, each
    composable pair listed once. With ``declared``, each id must be a
    declared arrow, resolved once: src, rng and inv as arrow index arrays
    and comp as an (m, 3) one; without, the dicts of the listed names."""
    _object(obj, file, at, "a groupoid object",
            ("arrows", "units", "src", "rng", "inv", "comp"))
    arrows = _as_str_list(obj["arrows"], file, f"{at}.arrows")
    index = {g: i for i, g in enumerate(arrows)}
    units = _as_str_list(obj["units"], file, f"{at}.units")
    if declared:
        i = _first(map(index.__contains__, units), len(units))
        _expect(i == len(units), file, f"{at}.units[{i}]", "a declared arrow")
    tables = []
    for name in ("src", "rng", "inv"):
        tables.append(_map_ids(obj[name], file, f"{at}.{name}", index,
                               "a declared arrow key", index,
                               "a declared arrow value") if declared
                      else _as_str_map(obj[name], file, f"{at}.{name}", arrows))
    comp = obj["comp"]
    _expect(isinstance(comp, list), file, f"{at}.comp",
            "a list of [g1, g2, g12] triples" if declared else "a list")
    k, items = _rows(comp, 3, object if declared else str)
    if declared:
        # one lookup per name: its -1 (no declared arrow, or no string)
        # ends the rows of declared arrows at row u, the strings at row k
        ids = _ids(items, index).reshape(k, 3)
        u = _prefix(ids.min(1) >= 0)
        if u < k:
            k = _first(map(isinstance, items, repeat(str)), 3 * k) // 3
        key = ids[:u, 0] * len(arrows) + ids[:u, 1]
        if len(arrows) ** 2 > 16 * u:  # sparse keys: count their ranks
            key = np.unique(key, return_inverse=True)[1]
        i = _first_repeat(key.tolist()) if np.bincount(key).max(initial=0) \
            > 1 else u
        _expect(i == u, file, f"{at}.comp[{i}]", "no duplicate composable pair")
        if u < k:
            got = next(g for g in comp[u] if g not in index)
            raise ParseError(file, f"{at}.comp[{u}]",
                             f"declared arrows (got {got!r})")
    else:
        pairs = _pairs(items, file, f"{at}.comp",
                       "no duplicate composable pair")
    _expect(k == len(comp), file, f"{at}.comp[{k}]",
            "a [g1, g2, g12] string triple")
    return (arrows, units, *tables, ids if declared else pairs)


def load_groupoid(source, base_dir=None, file=None, at="$") -> FiniteGroupoid:
    """Groupoid file: {"arrows": [...], "units": [...], "src": {},
    "rng": {}, "inv": {}, "comp": [[g1, g2, g12], ...]}. comp must list
    exactly the composable pairs; the axioms are checked exhaustively."""
    if isinstance(source, str):  # the document is freed before validation
        return validate_groupoid(*_parse_groupoid(_read_json(source), source,
                                                  "$", True))
    return validate_groupoid(*_parse_groupoid(source, file, at, True))


def load_raw_groupoid_tables(source):
    """Parse a groupoid file structurally without running the validator;
    returns the validate_groupoid arguments."""
    obj, _, file = _document(source, None)
    return _parse_groupoid(obj, file, "$", False)


def save_groupoid(G: FiniteGroupoid) -> dict:
    T = G.table  # comp by the indices of (g1, g2)
    return {"arrows": list(G.arrows), "units": list(G.units),
            **{name: dict(zip(G.arrows, G.names(ids))) for name, ids in (
                ("src", G.src_idx), ("rng", G.rng_idx), ("inv", G.inv_idx))},
            "comp": [list(e) for e in zip(*map(G.names, (T.a, T.b, T.c)))]}


def load_morphism(source, base_dir=None, file=None, at="$") -> GroupoidMorphism:
    """Morphism file: {"domain": <path|object>, "codomain": <path|object>,
    "map": {arrow: arrow}}."""
    obj, base_dir, file = _document(source, base_dir, file)
    _object(obj, file, at, "a morphism object", ("domain", "codomain", "map"))
    dom = _resolve(obj["domain"], base_dir, load_groupoid, file,
                   f"{at}.domain")
    cod = _resolve(obj["codomain"], base_dir, load_groupoid, file,
                   f"{at}.codomain")
    return GroupoidMorphism(dom, cod, _map_ids(
        obj["map"], file, f"{at}.map", dom.index, "a domain arrow", cod.index,
        "a codomain arrow"))


def save_morphism(pi: GroupoidMorphism, domain_ref=None, codomain_ref=None) -> dict:
    return {
        "domain": domain_ref or save_groupoid(pi.domain),
        "codomain": codomain_ref or save_groupoid(pi.codomain),
        "map": dict(zip(pi.domain.arrows, pi.codomain.names(pi.image))),
    }


def load_algebra_element(source, base_dir=None):
    """Element file: {"base": <path|object>, "coeffs": {arrow: [re, im]}}."""
    from .algebra import AlgebraElement
    obj, base_dir, file = _document(source, base_dir)
    _object(obj, file, "$", "an element object", ("base", "coeffs"))
    base = _resolve(obj["base"], base_dir, load_groupoid, file, "$.base")
    _expect(isinstance(obj["coeffs"], dict), file, "$.coeffs", "an object")
    coeffs = {}
    for g, v in obj["coeffs"].items():
        _expect(g in base.index, file, f"$.coeffs.{g}", "a declared arrow")
        coeffs[g] = _as_complex(v, file, f"$.coeffs.{g}")
    return AlgebraElement.from_dict(base, coeffs), base


def load_bundle(source, base_dir=None) -> FellBundle:
    """Bundle file: {"base": <path|object>, "fibers": {h: [names]},
    "mul": [[h1, i, h2, j, {k: [re, im]}]], "star": [[h, i, {k: [re,im]}]]}."""
    obj, base_dir, file = _document(source, base_dir)
    _object(obj, file, "$", "a bundle object",
            ("base", "fibers", "mul", "star"))
    base = _resolve(obj["base"], base_dir, load_groupoid, file, "$.base")
    _expect(isinstance(obj["fibers"], dict), file, "$.fibers", "an object")
    fibers = {}
    for h, names in obj["fibers"].items():
        _expect(h in base.index, file, f"$.fibers.{h}", "a base arrow")
        fibers[h] = tuple(_as_str_list(names, file, f"$.fibers.{h}"))
    dims = [len(fibers.setdefault(h, ())) for h in base.arrows]
    at = np.cumsum([0] + dims).tolist()  # first slot, by arrow index
    first, slot = dict(zip(base.arrows, at)), at[-1]

    def expansion(ex, path, i, dim):
        _expect(isinstance(ex, dict), file, path, "an object {k: [re,im]}", i)
        for k, v in ex.items():
            if not (k.isdecimal() and int(k) < dim):
                raise ParseError(file, f"{path.format(i)}.{k}",
                                 f"a basis index below {dim}")
            yield int(k), _as_complex(v, file, path + ".{}", i, k)

    # table rows (factor slots..., term slot, weight), in file order
    mul, star, seen = [], [], set()
    _expect(isinstance(obj["mul"], list), file, "$.mul", "a list")
    # the composite of the base arrows of each entry, by arrow index: -1
    # where they are not composable or not two base arrows
    comp = base.compose_ids(*(_ids([
        e[k] if isinstance(e, list) and len(e) == 5 else None
        for e in obj["mul"]], base.index) for k in (0, 2))).tolist()
    for i, entry in enumerate(obj["mul"]):
        _expect(isinstance(entry, list) and len(entry) == 5,
                file, "$.mul[{}]", "[h1, i, h2, j, expansion]", i)
        h1, bi, h2, bj, exp = entry
        _expect(all(isinstance(h, str) and h in base.index for h in (h1, h2)),
                file, "$.mul[{}]", "base arrows", i)
        _expect((h12 := comp[i]) >= 0, file, "$.mul[{}]",
                "a composable pair of base arrows", i)
        # type(v) is int keeps out bools
        _expect(type(bi) is int and 0 <= bi < len(fibers[h1]),
                file, "$.mul[{}][1]", "a basis index of the first fiber", i)
        _expect(type(bj) is int and 0 <= bj < len(fibers[h2]),
                file, "$.mul[{}][3]", "a basis index of the second fiber", i)
        # entries add up in the table, so a repeat would not replace
        _expect((h1, bi, h2, bj) not in seen, file, "$.mul[{}]",
                "one entry per [h1, i, h2, j]", i)
        seen.add((h1, bi, h2, bj))
        mul.extend((first[h1] + bi, first[h2] + bj, at[h12] + k, v)
                   for k, v in expansion(exp, "$.mul[{}][4]", i, dims[h12]))
    _expect(isinstance(obj["star"], list), file, "$.star", "a list")
    for i, entry in enumerate(obj["star"]):
        _expect(isinstance(entry, list) and len(entry) == 3,
                file, "$.star[{}]", "[h, i, expansion]", i)
        h, bi, exp = entry
        _expect(isinstance(h, str) and h in base.index, file,
                "$.star[{}][0]", "a base arrow", i)
        _expect(type(bi) is int and 0 <= bi < len(fibers[h]),
                file, "$.star[{}][1]", "a basis index", i)
        _expect((h, bi) not in seen, file, "$.star[{}]",
                "one entry per [h, i]", i)
        seen.add((h, bi))
        star.extend((first[h] + bi, first[base.inv[h]] + k, v)
                    for k, v in expansion(exp, "$.star[{}][2]", i,
                                          len(fibers[base.inv[h]])))
    return FellBundle(base, fibers, StructureTable(
        slot, *(zip(*mul) if mul else [()] * 4),
        *(zip(*star) if star else [()] * 3)))


def save_bundle(E: FellBundle, base_ref=None) -> dict:
    """The bundle file of ``E``: one ``mul`` entry per basis pair with
    products, ordered by (h1, h2, i, j), one ``star`` entry per basis
    vector, ordered by (h, i), and terms ordered by k."""
    base, T = E.base, E.table()
    at = [(h, i) for h in base.arrows for i in range(E.dim(h))]  # per slot
    arrow = [base.index[h] for h, _ in at]

    def entries(rows):
        """[arrow, index of each factor slot, {k: [re, im]}]; repeated
        terms add up (from -0j, which keeps the sign of a zero part)."""
        out = {}
        for *factors, k, w in rows:
            terms = out.setdefault(tuple(factors), {})
            terms[k] = terms.get(k, -0j) + w
        return [[x for f in factors for x in at[f]]
                + [{str(at[k][1]): [w.real, w.imag] for k, w in terms.items()}]
                for factors, terms in out.items()]

    cols = [getattr(T, k).tolist() for k in ("a", "b", "c", "w", "s", "t",
                                             "sw")]
    return {
        "base": base_ref or save_groupoid(base),
        "fibers": {h: [str(x) for x in E.fibers[h]] for h in base.arrows},
        "mul": entries(sorted(zip(*cols[:4]), key=lambda e: (
            arrow[e[0]], arrow[e[1]], *e[:3]))),
        "star": entries(sorted(zip(*cols[4:]), key=lambda e: e[:2])),
    }


def load_graph(source, base_dir=None, file=None, at="$") -> DirectedGraph:
    """Graph file: {"vertices": [...],
    "edges": [{"id": e, "from": v, "to": v}]}."""
    obj, base_dir, file = _document(source, base_dir, file)
    _object(obj, file, at, "a graph object", ("vertices", "edges"))
    vertices = _as_str_list(obj["vertices"], file, f"{at}.vertices")
    vset = set(vertices)
    _expect(isinstance(obj["edges"], list), file, f"{at}.edges", "a list")
    edges, origin, terminus = [], {}, {}
    for i, e in enumerate(obj["edges"]):
        _expect(isinstance(e, dict) and all(k in e for k in
                                            ("id", "from", "to")),
                file, f"{at}.edges[{i}]", '{"id", "from", "to"}')
        _expect(isinstance(e["id"], str), file, f"{at}.edges[{i}].id",
                "a string id")
        for end in ("from", "to"):
            _expect(isinstance(e[end], str) and e[end] in vset, file,
                    f"{at}.edges[{i}].{end}", "a declared vertex")
        edges.append(e["id"])
        origin[e["id"]] = e["from"]
        terminus[e["id"]] = e["to"]
    return DirectedGraph(vertices, edges, origin, terminus)


def save_graph(g: DirectedGraph) -> dict:
    return {"vertices": list(g.vertices),
            "edges": [{"id": e, "from": g.origin[e], "to": g.terminus[e]}
                      for e in g.edges]}


def load_graph_morphism(source, base_dir=None) -> GraphMorphism:
    """Graph morphism file: {"domain": <path|object>,
    "codomain": <path|object>, "vmap": {}, "emap": {}}."""
    obj, base_dir, file = _document(source, base_dir)
    _object(obj, file, "$", "a graph morphism object",
            ("domain", "codomain", "vmap", "emap"))
    dom = _resolve(obj["domain"], base_dir, load_graph, file, "$.domain")
    cod = _resolve(obj["codomain"], base_dir, load_graph, file, "$.codomain")
    vmap = _as_str_map(obj["vmap"], file, "$.vmap", dom.vertices)
    emap = _as_str_map(obj["emap"], file, "$.emap", dom.edges)
    _check_map(vmap, file, "$.vmap", set(dom.vertices), "a domain vertex",
               set(cod.vertices), "a codomain vertex")
    _check_map(emap, file, "$.emap", set(dom.edges), "a domain edge",
               set(cod.edges), "a codomain edge")
    return GraphMorphism(dom, cod, vmap, emap)


def save_graph_morphism(phi: GraphMorphism) -> dict:
    return {"domain": save_graph(phi.domain),
            "codomain": save_graph(phi.codomain),
            "vmap": dict(phi.vmap), "emap": dict(phi.emap)}


def load_group(source, base_dir=None):
    """Group file: {"elements": [...], "mul": [[a, b, ab], ...],
    "kernel": [...]}; returns (elements, mul dict, kernel list)."""
    obj, _, file = _document(source, base_dir)
    _object(obj, file, "$", "a group object", ("elements", "mul"))
    elements = _as_str_list(obj["elements"], file, "$.elements")
    eset = set(elements)
    entries = obj["mul"]
    _expect(isinstance(entries, list), file, "$.mul", "a list of triples")
    k, items = _rows(entries, 3, str)
    i = _first(map(eset.__contains__, items), 3 * k) // 3
    if i < k:
        got = next(v for v in entries[i] if v not in eset)
        raise ParseError(file, f"$.mul[{i}]", f"declared elements (got {got!r})")
    _expect(k == len(entries), file, f"$.mul[{k}]",
            "an [a, b, ab] string triple")
    mul = _pairs(items, file, "$.mul", "one product per pair")
    kernel = _as_str_list(obj.get("kernel", []), file, "$.kernel")
    i = _first(map(eset.__contains__, kernel), len(kernel))
    _expect(i == len(kernel), file, f"$.kernel[{i}]", "a declared element")
    return elements, mul, kernel


def save_group(elements, mul, kernel) -> dict:
    return {"elements": list(elements),
            "mul": [[a, b, mul[(a, b)]] for a in elements for b in elements],
            "kernel": list(kernel)}


def load_action(source, base_dir=None) -> GroupoidAction:
    """Action file: {"groupoid": <path|object>, "X": [...], "rho": {},
    "act": [[h, x, hx], ...]}."""
    obj, base_dir, file = _document(source, base_dir)
    _object(obj, file, "$", "an action object",
            ("groupoid", "X", "rho", "act"))
    H = _resolve(obj["groupoid"], base_dir, load_groupoid, file, "$.groupoid")
    points = _as_str_list(obj["X"], file, "$.X")
    spot = {x: i for i, x in enumerate(points)}
    if len(spot) < len(points):
        raise ParseError(file, f"$.X[{_first_repeat(points)}]",
                         "each point once")
    anchor = _map_ids(obj["rho"], file, "$.rho", spot, "a declared point",
                      H.index, "a groupoid arrow")
    entries = obj["act"]
    _expect(isinstance(entries, list), file, "$.act", "a list of triples")
    k, items = _rows(entries, 3, str)
    h, x, hx = (_ids(items[j::3], index) for j, index in
                ((0, H.index), (1, spot), (2, spot)))
    i = _prefix((h >= 0) & (x >= 0) & (hx >= 0))
    if i < k:
        _expect(h[i] >= 0, file, f"$.act[{i}][0]", "a groupoid arrow")
        raise ParseError(file, f"$.act[{i}]", "declared points")
    _expect(k == len(entries), file, f"$.act[{k}]",
            "an [h, x, hx] string triple")
    key = h * len(points) + x
    if np.bincount(key).max(initial=0) > 1:
        raise ParseError(file, f"$.act[{_first_repeat(key.tolist())}]",
                         "one image per (arrow, point) pair")
    A = np.full((len(H.arrows), len(points)), -1)
    A[h, x] = hx
    return GroupoidAction(H, points, anchor, A)


def save_action(a: GroupoidAction, groupoid_ref=None) -> dict:
    return {
        "groupoid": groupoid_ref or save_groupoid(a.groupoid),
        "X": list(a.points),
        "rho": dict(a.anchor),
        "act": [[h, x, y] for (h, x), y in a.act.items()],
    }


def load_cocycle(source, groupoid: FiniteGroupoid = None, base_dir=None) -> Cocycle:
    """Cocycle file: {"groupoid": <path|object>,
    "omega": [[g1, g2, [re, im]], ...]}."""
    obj, base_dir, file = _document(source, base_dir)
    _object(obj, file, "$", "a cocycle object", ("omega",))
    if groupoid is None:
        _expect("groupoid" in obj, file, "$", "key 'groupoid'")
        groupoid = _resolve(obj["groupoid"], base_dir, load_groupoid, file,
                            "$.groupoid")
    entries = obj["omega"]
    _expect(isinstance(entries, list), file, "$.omega", "a list")
    k, items = _rows(entries, 3)
    g1, g2 = (_ids(items[j::3], groupoid.index) for j in (0, 1))
    # composable, by arrow index; -1 (no arrow) reads an unmatched sentinel
    i = _prefix(np.append(groupoid.src_idx, -1)[g1]
                == np.append(groupoid.rng_idx, -2)[g2])
    v, values = _complex_rows(items[2:3 * i:3])
    if v < k:
        at = f"$.omega[{v}]"
        _expect(g1[v] >= 0, file, at + "[0]", "a groupoid arrow")
        _expect(g2[v] >= 0, file, at + "[1]", "a groupoid arrow")
        _expect(v < i, file, at, "a composable pair")
        raise ParseError(file, at + "[2]", "a [re, im] pair of finite numbers")
    _expect(k == len(entries), file, f"$.omega[{k}]",
            "a [g1, g2, [re, im]] triple")
    # the table entry of each row's pair, and the values in table order
    e = groupoid.entry_ids(g1, g2)
    if np.bincount(e).max(initial=0) > 1:
        raise ParseError(file, f"$.omega[{_first_repeat(e.tolist())}]",
                         "one value per composable pair")
    _expect(k == len(groupoid.table.a), file, "$.omega",
            "a value on every composable pair")
    w = np.empty(k, complex)
    w[e] = values
    return Cocycle(groupoid, w)


def save_cocycle(om: Cocycle, groupoid_ref=None) -> dict:
    G, T = om.base, om.table
    return {
        "groupoid": groupoid_ref or save_groupoid(G),
        "omega": [[g1, g2, [v.real, v.imag]] for g1, g2, v in zip(
            G.names(T.a), G.names(T.b), T.w.tolist())],
    }
