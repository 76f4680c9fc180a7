"""The four certification workloads: seeded items and their expected records.

A pass writes its input files under ``workdir`` and returns its items.
Each item is one ``gpdkit`` command line plus what its report must show:
the exit code, structural extras from an independent oracle (``gen``),
and whether a failing check must carry a witness. Check names and pass
flags are frozen per item kind in ``expected.json`` (see ``freeze.py``).

Every shape below is fixed; the seed only draws labels, orders,
permutations, phases, mutated entries and word positions. That keeps the
cost of a pass nearly independent of the seed, so runs with different
seeds can be compared.
"""

from __future__ import annotations

import cmath
import json
import os
import random

import gen

# (ones, length) of the Cuntz fiber words of a pass; the seed places the
# ones. Words carry at most seven 1s: a word with j ones lifts to a pair
# block of 2^j paths whose composition table has 8^j entries (seven ones:
# 128 lifts, about 2.5 s and 370 MB; a ten-letter word of 1s was killed at
# 7.7 GB). The cost depends on the ones and the length, so both are fixed;
# the six words with six ones hold the median item of the pass.
CUNTZ_WORDS = ((5, 6), (5, 8), (6, 6), (6, 6), (6, 7), (6, 7), (6, 8),
               (6, 8), (7, 8))
SPLIT_LENGTHS = (6, 7, 8)
# Demo moduli of a heisenberg pass. n = 4 takes about 35 s; n = 3 runs
# five times with its own seeds, so that the median item is the median of
# five n = 3 runs rather than a single one.
HEISENBERG_N = (2, 3, 3, 3, 3, 3, 4)
# The covering whose cocycle also gets a shift on a diagonal pair (g, g)
# (Z5 on 7 points: its isotropy has such pairs with a non-unit square).
DIAGONAL_SHIFT = "c6"


def _write(workdir, name, obj):
    return gen.write_json(os.path.join(workdir, name), obj)


def _item(argv, kind, exit_code=0, extras=None, witness=False, known=None):
    return {"argv": [str(a) for a in argv], "kind": kind, "exit": exit_code,
            "extras": extras or {}, "witness": witness, "known": known}


def heisenberg_pass(workdir, seed):
    blocks = {n: gen.groupoid_blocks(gen.heisenberg(n))
              for n in set(HEISENBERG_N)}
    return [_item(["demo", "heisenberg", "--n", n, "--samples", 20,
                   "--seed", seed * 10 + i], f"heisenberg/n{n}",
                  extras={"blocks": blocks[n]})
            for i, n in enumerate(HEISENBERG_N)]


def _blocks_groupoids(rnd):
    """Three one-unit or one-orbit groupoids whose center needs the full
    SVD, and five many-unit unions and action groupoids with small
    isotropy. The many-unit ones are the majority, so the median item is
    one of them and the SVD-bound ones set ``wall_s``."""
    def union(*parts):
        parts = list(parts)
        rnd.shuffle(parts)
        return gen.union(parts)

    def action(*parts):
        return gen.action_groupoid(gen.union_action(list(parts)))[0]
    return [
        ("heis4", gen.heisenberg(4)), ("z8x8", gen.abelian(8, 8)),
        ("pair10", gen.pair(10)),
        ("union1", union(("p", gen.pair(4)), ("c", gen.abelian(7)),
                         ("h", gen.heisenberg(3)), ("q", gen.pair(3)),
                         ("d", gen.abelian(2, 4)))),
        ("union2", union(("p", gen.pair(6)), ("h", gen.heisenberg(2)),
                         ("c", gen.abelian(3, 3)), ("d", gen.abelian(5)),
                         ("q", gen.pair(2)))),
        ("union3", union(("p", gen.pair(5)), ("q", gen.pair(4)),
                         ("h", gen.heisenberg(3)), ("c", gen.abelian(6)))),
        ("action1", action(("a", gen.cyclic_action(6, (6, 3, 2, 1), rnd)),
                           ("b", gen.pair_action(2, 4, rnd)))),
        ("action2", action(("a", gen.cyclic_action(4, (4, 4, 2, 1, 1), rnd)),
                           ("b", gen.pair_action(3, 3, rnd)))),
    ]


def blocks_pass(workdir, seed):
    rnd = random.Random(f"blocks-{seed}")
    items = []
    for name, G in _blocks_groupoids(rnd):
        path = _write(workdir, f"{name}.groupoid.json",
                      gen.groupoid_json(gen.shuffled(G, rnd)))
        items.append(_item(["alg", "wedderburn", "--groupoid", path,
                            "--samples", 20, "--seed", seed],
                           f"blocks/{name}",
                           extras={"blocks": gen.groupoid_blocks(G),
                                   "dimension": len(G["arrows"])}))
    return items


def _coverings(rnd):
    """Covering shapes of at most 64 arrows and 32 points, mixing cyclic
    blocks (twisted isotropy) with pair blocks (many units). Six shapes of
    similar cost put the median item among the full commands rather than
    on the edge between them and the fast controls."""
    cyc, pair, union = gen.cyclic_action, gen.pair_action, gen.union_action
    return [
        ("c1", union([("c", cyc(4, (4, 2, 2), rnd)),
                      ("r", pair(2, 3, rnd))])),
        ("c2", union([("c", cyc(3, (3, 3, 1), rnd)), ("r", pair(2, 5, rnd)),
                      ("d", cyc(2, (2, 1), rnd))])),
        ("c3", pair(4, 3, rnd)),
        ("c4", union([("c", cyc(2, (2, 2, 1), rnd)), ("r", pair(2, 3, rnd)),
                      ("d", cyc(3, (3,), rnd)), ("s", pair(3, 2, rnd))])),
        ("c5", union([("r", pair(3, 3, rnd)),
                      ("c", cyc(2, (2, 2, 2), rnd))])),
        ("c6", cyc(5, (5, 1, 1), rnd)),
    ]


def _redirected(action, rnd):
    """One action entry sent to another point of the right fiber."""
    act = dict(action["act"])
    H = action["groupoid"]
    fiber = {}
    for x, u in action["rho"].items():
        fiber.setdefault(u, []).append(x)
    keys = [hx for hx in act if hx[0] not in H["units"]
            and len(fiber[H["rng"][hx[0]]]) > 1]
    h, x = rnd.choice(keys)
    act[(h, x)] = rnd.choice([y for y in fiber[H["rng"][h]]
                              if y != act[(h, x)]])
    return dict(action, act=act)


def _phase_shifted(G, omega, rnd, diagonal=False):
    """One cocycle entry rotated by a phase bounded away from 1, on a pair
    of non-unit arrows whose composite is no unit either (a shift on
    (g, g^-1) also changes the twisted star, a different failure with a
    different cost), chosen so that the result is no cocycle (on a cyclic
    isotropy group some single entries can move freely). The pair is
    (g, g) when ``diagonal`` and two distinct arrows otherwise: the two
    kinds take different paths through ``abelian extract``, so each is
    its own item kind and the outcome of an item does not hang on the
    seed."""
    units = set(G["units"])
    keys = [p for p in omega if p[0] not in units and p[1] not in units
            and G["comp"][p] not in units and (p[0] == p[1]) == diagonal]
    rnd.shuffle(keys)
    phase = cmath.exp(1j * rnd.uniform(0.5, 2 * cmath.pi - 0.5))
    for key in keys:
        out = dict(omega)
        out[key] *= phase
        if gen.cocycle_defect(G, out) > 1e-3:
            return out
    raise ValueError("no single-entry shift breaks the cocycle identity")


def coverings_pass(workdir, seed):
    """Three commands per covering, the two shifted-cocycle controls per
    covering, and once per pass a diagonal-shift control and a
    redirected-action control."""
    rnd = random.Random(f"coverings-{seed}")
    items = []
    for name, action in _coverings(rnd):
        G, proj = gen.action_groupoid(action)
        blocks = gen.groupoid_blocks(G)
        omega = gen.coboundary(G, rnd)
        act = _write(workdir, f"{name}.action.json", gen.action_json(action))
        mor = _write(workdir, f"{name}.morphism.json",
                     gen.morphism_json(G, action["groupoid"], proj))
        coc = _write(workdir, f"{name}.cocycle.json",
                     gen.cocycle_json(G, omega))
        bad_coc = _write(workdir, f"{name}-bad.cocycle.json",
                         gen.cocycle_json(G, _phase_shifted(G, omega, rnd)))
        if name == DIAGONAL_SHIFT:
            diag_coc = _write(workdir, f"{name}-diag.cocycle.json",
                              gen.cocycle_json(G, _phase_shifted(
                                  G, omega, rnd, diagonal=True)))
            diag_mor = mor
        s = ["--seed", seed]
        items += [
            _item(["action", "roundtrip", "--action", act] + s,
                  f"coverings/{name}/roundtrip",
                  extras={"points": len(action["X"])}),
            _item(["abelian", "extract", "--morphism", mor, "--cocycle", coc]
                  + s, f"coverings/{name}/extract",
                  extras={"blocks_twisted": blocks, "blocks_bundle": blocks,
                          "points#": len(G["units"])}),
            _item(["bundle", "verify", "--morphism", mor, "--cocycle", coc]
                  + s, f"coverings/{name}/verify",
                  extras={"saturated": True}),
            _item(["abelian", "extract", "--morphism", mor, "--cocycle",
                   bad_coc] + s, f"coverings/{name}/extract-shifted",
                  exit_code=1, witness=True,
                  known="uncaught NumericalDegeneracy (roadmap item 5)"),
            _item(["bundle", "verify", "--morphism", mor, "--cocycle",
                   bad_coc] + s, f"coverings/{name}/verify-shifted",
                  exit_code=1, witness=True),
        ]
    items.append(_item(["abelian", "extract", "--morphism", diag_mor,
                        "--cocycle", diag_coc, "--seed", seed],
                       f"coverings/{DIAGONAL_SHIFT}/extract-diagonal",
                       exit_code=1, witness=True))
    bad_act = _write(workdir, "redirected.action.json",
                     gen.action_json(_redirected(action, rnd)))
    items.append(_item(["action", "roundtrip", "--action", bad_act,
                        "--seed", seed], "coverings/roundtrip-redirected",
                       exit_code=1, witness=True))
    return items


def _cuntz(rnd):
    """The Cuntz cover {a, b -> 1, c -> 2} with seeded domain labels."""
    v = f"v{rnd.randrange(1000)}"
    a, b, c = (f"e{k}" for k in rnd.sample(range(1000), 3))
    edges = [(a, v, v), (b, v, v), (c, v, v)]
    emap = {a: "1", b: "1", c: "2"}
    return [v], edges, emap


def _split(rnd):
    """The two-vertex cover of the one-loop graph whose lifts split across
    terminals; seeded labels."""
    p, q = (f"v{k}" for k in rnd.sample(range(1000), 2))
    x1, x2, y1 = (f"e{k}" for k in rnd.sample(range(1000), 3))
    edges = [(x1, p, p), (x2, p, q), (y1, q, q)]
    return [p, q], edges, {x1: "1", x2: "1", y1: "1"}


def _graph_morphism(vertices, edges, emap, cod_edges):
    return {"domain": gen.graph_json(vertices, edges),
            "codomain": gen.graph_json(["w"], [(e, "w", "w")
                                               for e in cod_edges]),
            "vmap": {v: "w" for v in vertices}, "emap": emap}


def _window_arrows(vertices, edges, depth):
    """Pairs of paths of length 1..depth with equal terminus."""
    ending = {v: 0 for v in vertices}
    paths = [(e,) for e in edges]
    for _ in range(depth):
        for p in paths:
            ending[p[-1][2]] += 1
        paths = [p + (e,) for p in paths for e in edges
                 if e[1] == p[-1][2]]
    return sum(n * n for n in ending.values())


def graph_windows_pass(workdir, seed):
    rnd = random.Random(f"graph-windows-{seed}")
    s = ["--seed", seed]
    cv, ce, cmap = _cuntz(rnd)
    sv, se, smap = _split(rnd)
    cuntz = _write(workdir, "cuntz.graphmorphism.json",
                   _graph_morphism(cv, ce, cmap, ["1", "2"]))
    split = _write(workdir, "split.graphmorphism.json",
                   _graph_morphism(sv, se, smap, ["1"]))
    graph = _write(workdir, "cuntz_v.graph.json", gen.graph_json(cv, ce))
    items = [
        _item(["demo", "cuntz"] + s, "graph-windows/demo-cuntz",
              extras={"depth": 2}),
        _item(["graph", "check", "--morphism", cuntz, "--depth", 12] + s,
              "graph-windows/check",
              extras={"cylinder_words_checked": 2 ** 13 - 2}),
        _item(["graph", "grading", "--graph", graph, "--depth", 4] + s,
              "graph-windows/grading",
              extras={"grading": {
                  "depth": 4, "n_arrows": _window_arrows(cv, ce, 4),
                  "degree_range": [-3, 3], "additive": True,
                  "involution_flips": True,
                  "degree_zero_matches_kernel": True, "pass": True,
                  "witness": None}}),
    ]
    for ones, length in CUNTZ_WORDS:
        word = ["1"] * ones + ["2"] * (length - ones)
        rnd.shuffle(word)
        blocks = gen.lifts_by_terminal(ce, cmap, word)
        items.append(_item(["graph", "fibers", "--morphism", cuntz,
                            "--word", "".join(word)] + s,
                           "graph-windows/fibers-cuntz",
                           extras={"blocks": blocks,
                                   "lift_count": sum(blocks)}))
    for length in SPLIT_LENGTHS:
        word = ["1"] * length
        blocks = gen.lifts_by_terminal(se, smap, word)
        items.append(_item(["graph", "fibers", "--morphism", split,
                            "--word", "".join(word)] + s,
                           "graph-windows/fibers-split",
                           extras={"blocks": blocks,
                                   "lift_count": sum(blocks)}))
    return items


PASSES = {
    "heisenberg": heisenberg_pass,
    "blocks": blocks_pass,
    "coverings": coverings_pass,
    "graph-windows": graph_windows_pass,
}


def check_item(item, code, stdout, frozen) -> list:
    """Mismatches between one finished command and its expected record.
    Residual values are not compared: they may change in their last
    digits."""
    problems = []
    if code != item["exit"]:
        problems.append(f"exit {code}, expected {item['exit']}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["no JSON report on stdout"]
    checks = report.get("checks", [])
    rec = frozen.get(item["kind"])
    if rec is not None:
        got = [[c["name"], c["pass"]] for c in checks]
        if got != rec["checks"]:
            problems.append(f"checks {got} != frozen {rec['checks']}")
    for key, want in item["extras"].items():
        if key.endswith("#"):
            got = len(report.get(key[:-1]) or ())
        else:
            got = report.get(key)
        if got != want:
            problems.append(f"{key}: {got!r} != {want!r}")
    if item["witness"] and not any(not c["pass"] and c["witness"]
                                   for c in checks):
        problems.append("no failing check with a witness")
    return problems
