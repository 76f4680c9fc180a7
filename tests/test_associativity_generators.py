"""Light's test in StructureTable.associativity_defect.

With every weight 1 and more than one pass of triples, the gathered check
takes only the triples whose middle factor is a generator, and the full
scan when one fails. Its pass flag, residual, witness and every
validation message must be those of the full scan; here passes of 64
triples put every table on that path, and one pass of 2^40 triples is the
full scan.
"""

import math

import numpy as np
import pytest

import gpdkit as gk
from gpdkit import algebra, corpus
from gpdkit.algebra import StructureTable
from oracles import dict_tables, random_action, raw_groupoid

LIGHT = 64
WHOLE = 1 << 40


def _z8x8():
    a, b = np.indices((8, 8)).reshape(2, -1)
    M = (a[:, None] + a) % 8 * 8 + (b[:, None] + b) % 8
    return [f"({x},{y})" for x, y in zip(a.tolist(), b.tolist())], M


GROUPS = {"heis3": lambda: corpus.heisenberg_elements(3),
          "heis4": lambda: corpus.heisenberg_elements(4),
          "z8x8": _z8x8}
GROUPOIDS = {
    "pair6": lambda: corpus.pair_groupoid(6),
    "union": lambda: corpus.disjoint_union(
        [("c", corpus.cyclic_groupoid(4)),
         ("h", corpus.heisenberg_groupoid(3)),
         ("p", corpus.pair_groupoid(3))])}


def _fresh(T):
    return StructureTable(T.dim, T.a, T.b, T.c, T.w, T.s, T.t, T.sw)


def _both(monkeypatch, call):
    """call() under passes of LIGHT triples, then of WHOLE."""
    out = []
    for size in (LIGHT, WHOLE):
        monkeypatch.setattr(algebra, "_TRIPLES_PER_PASS", size)
        out.append(call())
    return out


def _outcome(call):
    try:
        call()
    except gk.GroupoidError as exc:
        return type(exc), str(exc), exc.witness
    return None


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_groups_take_few_generators(name, monkeypatch):
    monkeypatch.setattr(algebra, "_TRIPLES_PER_PASS", LIGHT)
    elements, M = GROUPS[name]()
    table = gk.GroupTable(elements, M).table
    assert table.associativity_defect() == (0.0, None)
    gens = table.generators
    assert gens is not None and 1 <= len(gens) <= math.log2(len(M)) + 1
    assert list(gens) == sorted(gens)


def test_heis8_group_takes_few_generators():
    table = gk.GroupTable(*corpus.heisenberg_elements(8)).table
    assert table.associativity_defect() == (0.0, None)
    assert len(table.generators) <= math.log2(512) + 1


@pytest.mark.parametrize("name", sorted(GROUPS))
@pytest.mark.parametrize("seed", range(6))
def test_corrupted_groups_fail_as_the_full_scan(name, seed, monkeypatch):
    elements, M = GROUPS[name]()
    M = M.copy()
    n = len(M)
    unit = int(np.flatnonzero((M == np.arange(n)).all(axis=1))[0])
    rng = np.random.default_rng(seed)
    x, y = rng.choice([i for i in range(n) if i != unit], 2)
    while M[x, y] == unit:
        y = rng.choice([i for i in range(n) if i != unit])
    M[x, y] = rng.choice([i for i in range(n) if i not in (unit, M[x, y])])
    light, whole = _both(monkeypatch, lambda: _outcome(
        lambda: gk.GroupTable(elements, M)))
    assert light is not None and light[1].startswith("associativity fails")
    assert light == whole
    # the table itself: the full scan's residual and first triple
    table = StructureTable(n, np.repeat(np.arange(n), n),
                           np.tile(np.arange(n), n), M, np.ones(n * n),
                           np.arange(n), np.arange(n), np.ones(n))
    light, whole = _both(monkeypatch,
                         lambda: _fresh(table).associativity_defect())
    assert light == whole and light[0] == 1.0


def _redirect(G, rng, same_ends):
    """G's tables with one composite g1 g2 (no unit, g2 != inv g1) sent to
    another arrow: one with the same source and range (the gather pattern
    holds, so only associativity can fail) or one with other ends."""
    def fits(h, g12):
        return h != g12 and same_ends == (G.src[h] == G.src[g12]
                                          and G.rng[h] == G.rng[g12])
    pairs = [(g1, g2) for (g1, g2), g12 in G.comp.items()
             if not G.is_unit(g1) and not G.is_unit(g2) and G.inv[g1] != g2
             and any(fits(h, g12) for h in G.arrows)]
    g1, g2 = pairs[rng.integers(len(pairs))]
    others = [h for h in G.arrows if fits(h, G.comp[(g1, g2)])]
    raw = dict_tables(G)
    raw[5][(g1, g2)] = others[rng.integers(len(others))]
    return raw


@pytest.mark.parametrize("name, same_ends", [
    ("pair6", False), ("union", False), ("union", True)])
@pytest.mark.parametrize("seed", range(6))
def test_corrupted_groupoids_fail_as_the_full_scan(name, same_ends, seed,
                                                   monkeypatch):
    raw = _redirect(GROUPOIDS[name](), np.random.default_rng(seed),
                    same_ends)
    light, whole = _both(monkeypatch, lambda: _outcome(
        lambda: gk.validate_groupoid(*raw)))
    assert light is not None and light == whole
    if same_ends:
        assert light[0] is gk.AssociativityFailure
    table = raw_groupoid(*raw).table
    tables = []

    def defect():
        tables.append(_fresh(table))
        return tables[-1].associativity_defect()
    light, whole = _both(monkeypatch, defect)
    assert light == whole
    # a kept gather pattern takes Light's test first
    assert (tables[0].generators is not None) == same_ends


def _right_closure(G, gens):
    """The arrows ((g1 g2) ...) gk, each gi in ``gens``, by a Python loop
    over G's composition."""
    have, todo = set(gens), list(gens)
    while todo:
        x = todo.pop()
        for g in gens:
            xg = G.comp.get((x, g))
            if xg is not None and xg not in have:
                have.add(xg)
                todo.append(xg)
    return have


def _action():
    # its generated set grows by x g for an earlier x: the greedy choice
    # takes 15 generators, 18 without those products
    action = random_action(np.random.default_rng(7), max_arrows=40)
    return gk.build_action_groupoid(action).groupoid


@pytest.mark.parametrize("name", ["heis3", "pair6", "union", "action"])
def test_generators_are_greedy_in_basis_order(name, monkeypatch):
    G = {**GROUPOIDS, "heis3": lambda: corpus.heisenberg_groupoid(3),
         "action": _action}[name]()
    light, whole = _both(monkeypatch,
                         lambda: _fresh(G.table).associativity_defect())
    assert light == whole == (0.0, None)
    table = _fresh(G.table)
    monkeypatch.setattr(algebra, "_TRIPLES_PER_PASS", LIGHT)
    table.associativity_defect()
    gens = [G.arrows[i] for i in table.generators]
    assert _right_closure(G, gens) == set(G.arrows)
    # each generator is the first arrow that the ones before it miss
    for k, g in enumerate(gens):
        have = _right_closure(G, gens[:k])
        assert g == next(h for h in G.arrows if h not in have)


def _shuffled_heis(n, kind):
    """heis_n's groupoid table with its entries in a random order: intact,
    with one weight scaled, or with that and a fifth of its entries split
    into two terms each, so that sums of several terms arise."""
    T = corpus.heisenberg_groupoid(n).table
    a, b, c, w = T.a, T.b, T.c, T.w.copy()
    if kind != "intact":
        w[len(w) // 3] *= 1.3 * np.exp(0.4j)
    if kind == "split":
        k = np.arange(0, len(a), 5)
        a, b, c = (np.concatenate((v, v[k])) for v in (a, b, c))
        w = np.concatenate((w, w[k] * 2 / 3))
        w[k] /= 3
    perm = np.random.default_rng(n).permutation(len(a))
    return lambda: StructureTable(T.dim, a[perm], b[perm], c[perm], w[perm],
                                  T.s, T.t, T.sw)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["intact", "scaled", "split"])
def test_both_scans_are_bitwise_the_same_at_every_pass_size(n, kind,
                                                            monkeypatch):
    make, out = _shuffled_heis(n, kind), set()
    for size in (1, 7, 64, 1 << 16):
        monkeypatch.setattr(algebra, "_TRIPLES_PER_PASS", size)
        T = make()
        out.add(tuple((float(res).hex(), at) for res, at in (
            T.associativity_defect(), T._sorted_associativity_defect())))
    assert len(out) == 1
    (gathered, at), (_, sorted_at) = out.pop()
    assert (float.fromhex(gathered) > 0.1) == (kind != "intact")
    assert (at is None) == (sorted_at is None) == (kind == "intact")
