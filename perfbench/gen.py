"""Seeded input data and independent oracles for the benchmark.

Nothing here imports gpdkit: both commits of a comparison receive
byte-identical input files for a seed, and the structural answers
(block sizes, lift counts, window sizes) come from closed forms and plain
counting rather than from the code under test.

A groupoid is a dict with the keys of the gpdkit groupoid file format:
``arrows``, ``units``, ``src``, ``rng``, ``inv`` and ``comp`` (a dict
``(g1, g2) -> g12`` here; ``groupoid_json`` turns it into triples).
"""

from __future__ import annotations

import cmath
import itertools
import json
import os


def _groupoid(arrows, units, src, rng, inv, comp) -> dict:
    return {"arrows": list(arrows), "units": list(units), "src": dict(src),
            "rng": dict(rng), "inv": dict(inv), "comp": dict(comp)}


def group(elements, mul) -> dict:
    """A group table as a one-unit groupoid."""
    unit = next(e for e in elements
                if all(mul[(e, a)] == a == mul[(a, e)] for a in elements))
    inv = {a: next(b for b in elements if mul[(a, b)] == unit)
           for a in elements}
    return _groupoid(elements, [unit], {a: unit for a in elements},
                     {a: unit for a in elements}, inv, mul)


def heisenberg(n: int) -> dict:
    """Upper unitriangular 3x3 matrices over Z_n as triples [a,b,c] with
    [a,b,c][a',b',c'] = [a+a', b+b', c+c'+ab']."""
    els = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]

    def name(t):
        return "[%d,%d,%d]" % t
    mul = {(name(x), name(y)): name(((x[0] + y[0]) % n, (x[1] + y[1]) % n,
                                     (x[2] + y[2] + x[0] * y[1]) % n))
           for x in els for y in els}
    return group([name(t) for t in els], mul)


def abelian(*orders) -> dict:
    """Z_{o1} x Z_{o2} x ... with elements written (a,b,...)."""
    els = list(itertools.product(*(range(o) for o in orders)))

    def name(t):
        return "(" + ",".join(map(str, t)) + ")"
    mul = {(name(x), name(y)): name(tuple((p + q) % o for p, q, o
                                          in zip(x, y, orders)))
           for x in els for y in els}
    return group([name(t) for t in els], mul)


def pair(m: int) -> dict:
    """Full equivalence relation on m points; (i,j) runs j -> i."""
    pts = range(m)

    def a(i, j):
        return f"({i},{j})"
    return _groupoid([a(i, j) for i in pts for j in pts],
                     [a(i, i) for i in pts],
                     {a(i, j): a(j, j) for i in pts for j in pts},
                     {a(i, j): a(i, i) for i in pts for j in pts},
                     {a(i, j): a(j, i) for i in pts for j in pts},
                     {(a(i, j), a(j, k)): a(i, k)
                      for i in pts for j in pts for k in pts})


def union(parts) -> dict:
    """Disjoint union of (tag, groupoid) parts with tag-prefixed ids."""
    out = _groupoid([], [], {}, {}, {}, {})
    for tag, G in parts:
        def t(g, tag=tag):
            return f"{tag}:{g}"
        out["arrows"] += [t(g) for g in G["arrows"]]
        out["units"] += [t(u) for u in G["units"]]
        for key in ("src", "rng", "inv"):
            out[key].update({t(g): t(v) for g, v in G[key].items()})
        out["comp"].update({(t(g1), t(g2)): t(g12)
                            for (g1, g2), g12 in G["comp"].items()})
    return out


def arrows_from(G, u):
    return [g for g in G["arrows"] if G["src"][g] == u]


def cyclic_action(k: int, cycles, rnd) -> dict:
    """Z_k acting on sum(cycles) points through a random permutation with
    the given cycle lengths (each dividing k)."""
    H = abelian(k)
    npts = sum(cycles)
    order = list(range(npts))
    rnd.shuffle(order)
    sigma = list(range(npts))
    pos = 0
    for length in cycles:
        assert k % length == 0, (k, length)
        cyc = order[pos:pos + length]
        for i in range(length):
            sigma[cyc[i]] = cyc[(i + 1) % length]
        pos += length
    pts = [f"x{i}" for i in range(npts)]
    act = {}
    image = list(range(npts))
    for e in range(k):
        for i in range(npts):
            act[(f"({e})", pts[i])] = pts[image[i]]
        image = [sigma[i] for i in image]
    return {"groupoid": H, "X": pts, "rho": {p: "(0)" for p in pts},
            "act": act}


def pair_action(m: int, size: int, rnd) -> dict:
    """pair(m) acting on m fibers of ``size`` points through random charts
    onto one reference fiber (functorial by construction)."""
    H = pair(m)
    charts = []
    for _ in range(m):
        c = list(range(size))
        rnd.shuffle(c)
        charts.append(c)
    pts = {(i, p): f"y{i}.{p}" for i in range(m) for p in range(size)}
    act = {}
    for i in range(m):
        back = {r: p for p, r in enumerate(charts[i])}
        for j in range(m):
            for p in range(size):
                act[(f"({i},{j})", pts[(j, p)])] = pts[(i, back[charts[j][p]])]
    return {"groupoid": H, "X": [pts[(i, p)] for i in range(m)
                                 for p in range(size)],
            "rho": {pts[(i, p)]: f"({i},{i})" for i in range(m)
                    for p in range(size)}, "act": act}


def union_action(parts) -> dict:
    """Disjoint union of (tag, action) parts."""
    H = union([(tag, a["groupoid"]) for tag, a in parts])
    out = {"groupoid": H, "X": [], "rho": {}, "act": {}}
    for tag, a in parts:
        out["X"] += [f"{tag}:{x}" for x in a["X"]]
        out["rho"].update({f"{tag}:{x}": f"{tag}:{u}"
                           for x, u in a["rho"].items()})
        out["act"].update({(f"{tag}:{h}", f"{tag}:{x}"): f"{tag}:{y}"
                           for (h, x), y in a["act"].items()})
    return out


def action_groupoid(a: dict) -> tuple:
    """The semidirect product groupoid of an action and its projection
    map onto the acting groupoid. Arrow h|x runs x -> h.x."""
    H = a["groupoid"]

    def arr(h, x):
        return f"{h}|{x}"
    unit_of = {x: arr(a["rho"][x], x) for x in a["X"]}
    pairs = sorted(a["act"], key=lambda hx: (H["arrows"].index(hx[0]),
                                             a["X"].index(hx[1])))
    G = _groupoid([arr(h, x) for h, x in pairs], [unit_of[x] for x in a["X"]],
                  {arr(h, x): unit_of[x] for h, x in pairs},
                  {arr(h, x): unit_of[a["act"][(h, x)]] for h, x in pairs},
                  {arr(h, x): arr(H["inv"][h], a["act"][(h, x)])
                   for h, x in pairs}, {})
    by_src = {u: arrows_from(H, u) for u in H["units"]}
    for h1, x in pairs:
        y = a["act"][(h1, x)]
        for h2 in by_src[H["rng"][h1]]:
            G["comp"][(arr(h2, y), arr(h1, x))] = \
                arr(H["comp"][(h2, h1)], x)
    return G, {arr(h, x): h for h, x in pairs}


def coboundary(G: dict, rnd) -> dict:
    """omega(g1, g2) = beta(g1) beta(g2) / beta(g1 g2) for random phases
    beta that are 1 on units: a normalized 2-cocycle."""
    units = set(G["units"])
    beta = {g: 1.0 if g in units else cmath.exp(2j * cmath.pi * rnd.random())
            for g in G["arrows"]}
    return {(g1, g2): beta[g1] * beta[g2] / beta[g12]
            for (g1, g2), g12 in G["comp"].items()}


def shuffled(G: dict, rnd) -> dict:
    """The same groupoid with its arrow and composition order shuffled."""
    arrows = list(G["arrows"])
    rnd.shuffle(arrows)
    comp = list(G["comp"].items())
    rnd.shuffle(comp)
    return dict(G, arrows=arrows, comp=dict(comp))


# -- JSON file formats ----------------------------------------------------

def groupoid_json(G: dict) -> dict:
    return dict(G, comp=[[g1, g2, g12] for (g1, g2), g12 in G["comp"].items()])


def action_json(a: dict) -> dict:
    return {"groupoid": groupoid_json(a["groupoid"]), "X": a["X"],
            "rho": a["rho"],
            "act": [[h, x, y] for (h, x), y in a["act"].items()]}


def morphism_json(dom: dict, cod: dict, mapping: dict) -> dict:
    return {"domain": groupoid_json(dom), "codomain": groupoid_json(cod),
            "map": mapping}


def cocycle_json(G: dict, omega: dict) -> dict:
    return {"groupoid": groupoid_json(G),
            "omega": [[g1, g2, [v.real, v.imag]]
                      for (g1, g2), v in omega.items()]}


def graph_json(vertices, edges) -> dict:
    """edges: list of (id, from, to)."""
    return {"vertices": list(vertices),
            "edges": [{"id": e, "from": s, "to": t} for e, s, t in edges]}


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
    return path


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


# -- oracles ----------------------------------------------------------------

def _closure(mul, seed):
    out = set(seed)
    frontier = list(out)
    while frontier:
        new = {mul[(a, b)] for a in frontier for b in list(out)}
        new |= {mul[(b, a)] for a in frontier for b in list(out)}
        frontier = list(new - out)
        out |= new
    return out


def group_blocks(elements, mul, unit, inv) -> list:
    """Block sizes of a complex group algebra from counting: the number of
    1-blocks is the order of the abelianization, the number of blocks is
    the number of conjugacy classes, and the remaining sizes are the
    unique multiset of integers >= 2 with the right sum of squares."""
    comms = {mul[(mul[(a, b)], mul[(inv[a], inv[b])])]
             for a in elements for b in elements}
    ones = len(elements) // len(_closure(mul, comms | {unit}))
    seen, classes = set(), 0
    for a in elements:
        if a not in seen:
            seen |= {mul[(mul[(g, a)], inv[g])] for g in elements}
            classes += 1
    count, total = classes - ones, len(elements) - ones
    found = []

    def search(prefix, left, rest, lo):
        if left == 0:
            if rest == 0:
                found.append(prefix)
            return
        d = lo
        while d * d * left <= rest:
            search(prefix + [d], left - 1, rest - d * d, d)
            d += 1
    search([], count, total, 2)
    if len(found) != 1:
        raise ValueError(f"block sizes not determined by counting: {found}")
    return [1] * ones + found[0]


def groupoid_blocks(G: dict) -> list:
    """C*(G) is the sum over orbits O of M_|O|(C*(G_x)), so every block of
    the isotropy group at one unit of O appears scaled by |O|."""
    out = []
    left = set(G["units"])
    while left:
        x = min(left)
        orbit = {G["rng"][g] for g in G["arrows"] if G["src"][g] == x}
        left -= orbit
        iso = [g for g in G["arrows"] if G["src"][g] == x == G["rng"][g]]
        mul = {(a, b): G["comp"][(a, b)] for a in iso for b in iso}
        out += [b * len(orbit)
                for b in group_blocks(iso, mul, x, G["inv"])]
    return sorted(out, reverse=True)


def cocycle_defect(G: dict, omega: dict) -> float:
    """Largest violation of omega(g1,g2) omega(g1g2,g3) =
    omega(g2,g3) omega(g1,g2g3) over all composable triples."""
    into = {}
    for g in G["arrows"]:
        into.setdefault(G["rng"][g], []).append(g)
    comp = G["comp"]
    worst = 0.0
    for (g1, g2), g12 in comp.items():
        for g3 in into[G["src"][g2]]:
            worst = max(worst, abs(omega[(g1, g2)] * omega[(g12, g3)]
                                   - omega[(g2, g3)]
                                   * omega[(g1, comp[(g2, g3)])]))
    return worst


def lifts_by_terminal(edges, emap, word) -> list:
    """Sizes of the terminal classes of all lifts of a word, by brute force
    over all edge tuples; edges: list of (id, from, to)."""
    ends = {}
    for combo in itertools.product(edges, repeat=len(word)):
        if all(emap[e[0]] == w for e, w in zip(combo, word)) and all(
                combo[i][2] == combo[i + 1][1] for i in range(len(word) - 1)):
            ends[combo[-1][2]] = ends.get(combo[-1][2], 0) + 1
    return sorted(ends.values(), reverse=True)
