"""Built-in example objects: the demo corpus used by the CLI and tests.

All identifiers are plain strings so every object round-trips through the
JSON file formats unchanged.
"""

from __future__ import annotations

import numpy as np

from . import graphs
from .groupoid import (FiniteGroupoid, GroupoidMorphism, pair_blocks,
                       pair_id, validate_groupoid)
from .actions import Cocycle, GroupoidAction
from .extensions import GroupExtension, GroupTable, unit_root
from .graphs import DirectedGraph, GraphMorphism


def pair_groupoid(n: int) -> FiniteGroupoid:
    """Full equivalence relation on n points; arrow (i,j) runs j -> i."""
    G = pair_blocks([[str(i + 1) for i in range(n)]])
    T = G.table
    return validate_groupoid(G.arrows, G.units, G.src_idx, G.rng_idx,
                             G.inv_idx, np.stack([T.a, T.b, T.c], 1))


def cyclic_groupoid(k: int) -> FiniteGroupoid:
    """The cyclic group of order k as a one-unit groupoid."""
    a, b = np.divmod(np.arange(k * k), k)
    zero = np.zeros(k, np.int64)
    return validate_groupoid([f"g{i}" for i in range(k)], ["g0"], zero, zero,
                             -np.arange(k) % k,
                             np.stack([a, b, (a + b) % k], 1))


def disjoint_union(parts) -> FiniteGroupoid:
    """Disjoint union of groupoids with prefixed arrow ids."""
    arrows, units, cols = [], [], []
    for tag, G in parts:
        o = len(arrows)
        arrows.extend(f"{tag}:{g}" for g in G.arrows)
        units.extend(f"{tag}:{u}" for u in G.units)
        T = G.table
        cols.append([o + v for v in (G.src_idx, G.rng_idx, G.inv_idx,
                                     np.stack([T.a, T.b, T.c], 1))])
    s, r, i, comp = (np.concatenate(v) for v in zip(*cols)) if cols \
        else (np.zeros(0, np.int64),) * 3 + (np.zeros((0, 3), np.int64),)
    return validate_groupoid(arrows, units, s, r, i, comp)


def heisenberg_elements(n: int):
    """(elements, M) of the upper triangular triples over Z_n with
    [a,b,c][a',b',c'] = [a+a', b+b', c+c'+ab']: element a n^2 + b n + c
    is "[a,b,c]" and M the integer product table of a GroupTable."""
    a, b, c = np.indices((n, n, n)).reshape(3, -1)
    elements = [f"[{x},{y},{z}]"
                for x, y, z in zip(a.tolist(), b.tolist(), c.tolist())]
    M = (((a[:, None] + a) % n * n + (b[:, None] + b) % n) * n
         + (c[:, None] + c + a[:, None] * b) % n)
    return elements, M


def heisenberg_groupoid(n: int) -> FiniteGroupoid:
    return GroupTable(*heisenberg_elements(n)).to_groupoid()


def zn_square_groupoid(n: int) -> FiniteGroupoid:
    """Z_n x Z_n as a one-unit groupoid with elements (a,b)."""
    a, b = np.indices((n, n)).reshape(2, -1)
    elements = [f"({x},{y})" for x, y in zip(a.tolist(), b.tolist())]
    M = (a[:, None] + a) % n * n + (b[:, None] + b) % n
    return GroupTable(elements, M).to_groupoid()


def heisenberg_quotient(n: int, group: GroupTable = None) -> GroupoidMorphism:
    """The morphism [a,b,c] -> (a,b) onto Z_n^2; kernel is the center.
    Its domain is the groupoid of ``group`` if given, such as the group of
    heisenberg_extension(n), with the elements of heisenberg_elements(n)."""
    dom = heisenberg_groupoid(n) if group is None else group.to_groupoid()
    cod = zn_square_groupoid(n)
    # element a n^2 + b n + c maps to a n + b
    return GroupoidMorphism(dom, cod, np.arange(n ** 3) // n)


def heisenberg_extension(n: int) -> GroupExtension:
    """The center extension with the canonical section (a,b) -> [a,b,0]."""
    elements, M = heisenberg_elements(n)
    kernel = [f"[0,0,{c}]" for c in range(n)]
    # default section picks the first coset element in element order,
    # which is [a,b,0] since c is the innermost enumeration index
    return GroupExtension.from_tables(elements, M, kernel)


def heisenberg_cocycle_closed_form(n: int, k: int, a: int, bp: int) -> complex:
    """chi_k evaluated at a*b' in Z_n, the closed form the extension
    cocycle must reproduce exactly."""
    return unit_root((k * ((a * bp) % n)) % n, n)


def heisenberg_center_exponent(chars, m, n: int) -> int:
    """The integer t with chi_m([0,0,1]) = exp(2 pi i t / n), for the
    character index m of ``chars``, the character data of the center Z_n.

    Read from the exact exponents, because the center's basis need not be
    the generator [0,0,1]: for n = 6 it is [0,0,3] and [0,0,2], and m[0]
    is not t there.
    """
    return chars.exponent_numerator(m, f"[0,0,{1 % n}]") * n // chars.lcm


def heisenberg_closed_form_defect(res, n: int) -> tuple:
    """(largest |omega(g1, g2) - chi_t(a b')|, first pair that differs)
    over the cocycle of ``group_extension_bundle(heisenberg_extension(n))``,
    where g1 lies over [a, ., .], g2 lies over [., b', .] at the point of
    character m, and t = heisenberg_center_exponent(m). The witness is
    None when every value is exact.

    Array arithmetic over the entries of the cocycle's table: the coset
    of an arrow is its image under the projection of the action groupoid,
    a and b' are read from the index a n^2 + b n + c (heisenberg_elements)
    of a member of the coset, and t from ``CharacterData.numerators`` at
    [0,0,1] for the character at the point of g2."""
    ag, chars, T = res.action_groupoid, res.characters, res.cocycle.table
    G, g1, g2 = ag.groupoid, T.a, T.b
    coset = ag.projection.image
    member = np.unique(res.extension.coset, return_index=True)[1]
    a, b2 = (member // n ** 2)[coset[g1]], (member // n % n)[coset[g2]]
    # the point x of g2 = (h, x) is the row of its character in numerators
    one = chars.group.index[f"[0,0,{1 % n}]"]
    t = chars.numerators[ag.point[g2], one] * n // chars.lcm
    roots = np.array([unit_root(k, n) for k in range(n)])
    d = T.w - roots[t * (a * b2 % n) % n]
    diff = np.hypot(d.real, d.imag)  # the rounding of abs(complex)
    bad = np.flatnonzero(diff)
    return float(diff.max(initial=0.0)), None if not len(bad) else \
        "({!r}, {!r})".format(*G.names([g1[bad[0]], g2[bad[0]]]))


def flip_action() -> GroupoidAction:
    """Z_2 = {e, t} swapping the two points of X = {x, y}."""
    H = cyclic_groupoid(2)  # arrows g0 (unit), g1
    points = ("x", "y")
    anchor = {"x": "g0", "y": "g0"}
    act = {("g0", "x"): "x", ("g0", "y"): "y",
           ("g1", "x"): "y", ("g1", "y"): "x"}
    return GroupoidAction(H, points, anchor, act)


def trivial_action(H: FiniteGroupoid) -> GroupoidAction:
    """H acting on its own unit space along src/rng."""
    points = tuple(H.units)
    anchor = {u: u for u in points}
    act = {(h, H.src[h]): H.rng[h] for h in H.arrows}
    return GroupoidAction(H, points, anchor, act)


def cuntz_graphs():
    """One-vertex graphs with edges {a, b, c} and {1, 2}; the morphism
    sends a, b to 1 and c to 2."""
    V = DirectedGraph(("v",), ("a", "b", "c"),
                      {"a": "v", "b": "v", "c": "v"},
                      {"a": "v", "b": "v", "c": "v"})
    W = DirectedGraph(("w",), ("1", "2"),
                      {"1": "w", "2": "w"}, {"1": "w", "2": "w"})
    phi = GraphMorphism(V, W, {"v": "w"}, {"a": "1", "b": "1", "c": "2"})
    return V, W, phi


def split_terminal_graphs():
    """Two-vertex cover of the one-loop graph whose length-one lifts split
    across terminals as sizes {2, 1}."""
    V = DirectedGraph(("p", "q"), ("x1", "x2", "y1"),
                      {"x1": "p", "x2": "p", "y1": "q"},
                      {"x1": "p", "x2": "q", "y1": "q"})
    W = DirectedGraph(("w",), ("1",), {"1": "w"}, {"1": "w"})
    phi = GraphMorphism(V, W, {"p": "w", "q": "w"},
                        {"x1": "1", "x2": "1", "y1": "1"})
    return V, W, phi


def graph_path_groupoid_morphism(phi: GraphMorphism, depth: int):
    """The windows R_n, n = ``depth``, of both graphs' path groupoids and
    the induced morphism. R_n(E), the pairs (p, q) of length-n paths of a
    sink-free graph E with a common terminus, is the kernel fiber of its
    collapse map over z^n (``kernel_fiber_groupoid``); (p, q) maps to
    (phi(p), phi(q)) through one image table of the domain's paths. At
    depth 0 the paths are the vertices, mapped by the vertex map."""
    word, collapse = ("z",) * depth, graphs.collapse_morphism
    GV, GW = (graphs.kernel_fiber_groupoid(collapse(g), word)[0]
              for g in (phi.domain, phi.codomain))
    # the domain's paths in the order of GV's units, block by block
    ls = graphs.lift_paths(collapse(phi.domain), word)
    step = phi.emap if depth else phi.vmap
    image = [graphs._path_id(tuple(step[e] for e in p))
             for t in sorted(ls.by_terminal, key=repr)
             for p in ls.by_terminal[t]]
    path = np.empty(len(GV.arrows), np.int64)
    path[GV.unit_idx] = np.arange(len(GV.unit_idx))
    return GroupoidMorphism(GV, GW, {
        g: pair_id(image[p], image[q]) for g, p, q in zip(
            GV.arrows, path[GV.rng_idx].tolist(),
            path[GV.src_idx].tolist())})


def nonsaturated_surjection() -> GroupoidMorphism:
    """Two disjoint copies of Z_2 mapping onto Z_2, one of them trivially:
    a surjective non-fibration whose bundle is not saturated."""
    dom = disjoint_union([("1", cyclic_groupoid(2)),
                          ("2", cyclic_groupoid(2))])
    cod = cyclic_groupoid(2)
    mapping = {"1:g0": "g0", "1:g1": "g1", "2:g0": "g0", "2:g1": "g0"}
    return GroupoidMorphism(dom, cod, mapping)


def identity_morphism(G: FiniteGroupoid) -> GroupoidMorphism:
    return GroupoidMorphism(G, G, np.arange(len(G.arrows)))


def corrupted_z3_tables():
    """Z_3 tables with one composite redirected to the unit: fails
    associativity."""
    G = cyclic_groupoid(3)
    comp = dict(G.comp)
    comp[("g1", "g1")] = "g0"   # should be g2
    return (list(G.arrows), list(G.units), dict(G.src), dict(G.rng),
            dict(G.inv), comp)


def zn2_bilinear_cocycle(n: int) -> Cocycle:
    """omega((a,b), (a',b')) = zeta^{a b'} on the group Z_n^2; normalized
    and never a coboundary for n > 1."""
    G = zn_square_groupoid(n)
    a, b = divmod(np.arange(n * n), n)  # element a n + b is (a,b)
    roots = np.array([unit_root(k, n) for k in range(n)])
    return Cocycle(G, roots[a[G.table.a] * b[G.table.b] % n])


def data_path(name: str) -> str:
    """Absolute path of a shipped corpus data file."""
    import os
    return os.path.join(os.path.dirname(__file__), "data", name)
