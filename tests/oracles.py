"""Independent oracles used to freeze expected values.

Nothing here goes through the production code paths being tested: block
structure comes from conjugacy counting plus exhaustive integer search,
convolution from the plain group-algebra double sum, and path lifting
from brute-force enumeration of all edge tuples.
"""

from itertools import product

import numpy as np


def group_closure(elements, mul, seed):
    """Subgroup generated by a seed set, by saturation."""
    out = set(seed)
    frontier = list(out)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(out):
                for c in (mul[(a, b)], mul[(b, a)]):
                    if c not in out:
                        out.add(c)
                        nxt.append(c)
        frontier = nxt
    return out


def conjugacy_classes(elements, mul, inv):
    seen = set()
    classes = []
    for a in elements:
        if a in seen:
            continue
        cls = {mul[(mul[(g, a)], inv[g])] for g in elements}
        classes.append(cls)
        seen.update(cls)
    return classes


def group_algebra_blocks(elements, mul):
    """Block sizes of the complex group algebra from pure combinatorics:

    - the number of size-1 blocks is the order of the abelianization,
    - the number of blocks is the number of conjugacy classes,
    - the remaining sizes are found by exhaustive search over integer
      multisets with the right square sum; the result is only returned
      when that solution is unique.
    """
    unit = next(e for e in elements
                if all(mul[(e, a)] == a == mul[(a, e)] for a in elements))
    inv = {}
    for a in elements:
        inv[a] = next(b for b in elements if mul[(a, b)] == unit)
    commutators = {mul[(mul[(a, b)], mul[(inv[a], inv[b])])]
                   for a in elements for b in elements}
    derived = group_closure(elements, mul, commutators | {unit})
    n_ones = len(elements) // len(derived)
    k = len(conjugacy_classes(elements, mul, inv))
    big_count = k - n_ones
    big_sum = len(elements) - n_ones

    solutions = []

    def search(prefix, remaining_count, remaining_sum, minimum):
        if remaining_count == 0:
            if remaining_sum == 0:
                solutions.append(tuple(prefix))
            return
        n = minimum
        while n * n * remaining_count <= remaining_sum:
            if n * n <= remaining_sum:
                search(prefix + [n], remaining_count - 1,
                       remaining_sum - n * n, n)
            n += 1

    search([], big_count, big_sum, 2)
    assert len(solutions) == 1, f"block search not unique: {solutions}"
    blocks = [1] * n_ones + list(solutions[0])
    return tuple(sorted(blocks, reverse=True))


def group_convolution(elements, mul, inv, f1, f2):
    """(f1 f2)(g) = sum_h f1(h) f2(h^{-1} g), the plain group-algebra
    product, written without the composition table machinery."""
    out = {g: 0.0 + 0.0j for g in elements}
    for g in elements:
        for h in elements:
            out[g] += f1[h] * f2[mul[(inv[h], g)]]
    return out


def brute_force_lifts(graph, emap, word):
    """All length-n edge tuples of the domain graph that are paths and
    map letterwise onto the word."""
    n = len(word)
    lifts = []
    for combo in product(graph.edges, repeat=n):
        ok = all(emap[e] == w for e, w in zip(combo, word))
        if ok:
            for i in range(n - 1):
                if graph.terminus[combo[i]] != graph.origin[combo[i + 1]]:
                    ok = False
                    break
        if ok:
            lifts.append(combo)
    return lifts


def matrix_units_check(G):
    """Verify the pair-groupoid delta basis satisfies the matrix-unit
    relations e_{ij} e_{kl} = [j == k] e_{il} exactly, using only the
    composition table."""
    pts = sorted({G.rng[g] for g in G.arrows}, key=str)
    label = {}
    for g in G.arrows:
        label[g] = (G.rng[g], G.src[g])
    for g1 in G.arrows:
        i, j = label[g1]
        for g2 in G.arrows:
            k, l = label[g2]
            composable = G.src[g1] == G.rng[g2]
            if composable != (j == k):
                return False
            if composable and label[G.comp[(g1, g2)]] != (i, l):
                return False
    return len(G.arrows) == len(pts) ** 2


def hermitian_minimum_eigenvalue(mat):
    return float(np.min(np.linalg.eigvalsh(np.asarray(mat))))


def dense_table_residuals(table):
    """(associativity, involution, antimultiplicativity) residuals of a
    structure table, brute force over dense arrays: the product tensor
    P[a, b, c], the coefficient of e_c in e_a e_b, is read from
    ``left_stack()``, and the star matrix S[s, t], the coefficient of e_t
    in e_s*, is summed from the star entries. Each residual is the largest
    coefficient difference between the two sides of the identity."""
    n = table.dim
    P = table.left_stack().transpose(0, 2, 1)
    S = np.zeros((n, n), dtype=complex)
    np.add.at(S, (table.s, table.t), table.sw)
    assoc = (np.einsum("abm,mkn->abkn", P, P)
             - np.einsum("bkm,amn->abkn", P, P))
    invol = np.conj(S) @ S - np.eye(n)
    anti = (np.einsum("abm,mn->abn", np.conj(P), S)
            - np.einsum("bp,aq,pqn->abn", S, S, P))
    return tuple(float(np.abs(d).max(initial=0.0))
                 for d in (assoc, invol, anti))



def dense_map_defects(A, B, U):
    """Per-entry residuals of the linear map U from the algebra of table A
    to that of table B, whose column j is the image of e_j, brute force:
    mul[a, b] is the largest coefficient difference between
    B.left(U e_a) U e_b and U (e_a e_b), and star[s] the one between
    B.star(U e_s) and U (e_s*)."""
    n = A.dim
    e = np.eye(n, dtype=complex)
    mul = np.array([[np.abs(B.left(U[:, a]) @ U[:, b]
                            - U @ A.mul(e[a], e[b])).max(initial=0.0)
                     for b in range(n)] for a in range(n)])
    star = np.array([np.abs(B.star(U[:, s]) - U @ A.star(e[s])).max(
        initial=0.0) for s in range(n)])
    return mul, star
