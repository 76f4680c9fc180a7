"""Independent oracles used to freeze expected values.

Nothing here goes through the production code paths being tested: block
structure comes from conjugacy counting plus exhaustive integer search,
convolution from the plain group-algebra double sum, and path lifting
from brute-force enumeration of all edge tuples.
"""

from itertools import product

import numpy as np

from gpdkit.algebra import groupoid_table


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


def cylinder_cover_by_words(phi, depth):
    """The per-word cylinder cover check: enumerate every admissible word
    up to ``depth`` by length, then edge order, and run the full lift
    enumeration ``lift_paths`` on each; the first word with no lift or a
    stuck partial lift ends the check."""
    from gpdkit.graphs import NotLiftable, lift_paths

    W = phi.codomain
    words = [()]
    checked = 0
    ok = True
    witness = None
    for n in range(1, depth + 1):
        nxt = []
        for w in words:
            for b in W.edges:
                if w and W.origin[b] != W.terminus[w[-1]]:
                    continue
                nxt.append(w + (b,))
        words = nxt
        for w in words:
            checked += 1
            try:
                ls = lift_paths(phi, w)
            except NotLiftable as exc:
                ok = False
                witness = str(exc)
                break
            if not ls.all_prefixes_extend:
                ok = False
                witness = f"a partial lift of {w!r} got stuck"
                break
        if not ok:
            break
    return {"depth": depth, "words_checked": checked, "pass": ok,
            "witness": witness}


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


def dense_center_basis(table, tol=1e-9):
    """Orthonormal rows spanning the center of the algebra of ``table``:
    the null space of x -> [x, e_b] over every basis element b, from the
    dense product tensor of ``left_stack()`` and a full SVD."""
    n = table.dim
    L = table.left_stack()  # L[a, c, b]: coefficient of e_c in e_a e_b
    # row (b, c), column a: coefficient of e_c in e_a e_b - e_b e_a
    M = (L.transpose(2, 1, 0) - L).reshape(n * n, n)
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > tol * max(s[0] if len(s) else 0.0, 1.0)))
    return vh[rank:].conj()


def hilbert_module_residuals(pi, E):
    """Per-pair reference for the Hilbert-module check of psi_iso_check:
    {(g1, g2): largest coefficient difference between the unit-fiber part
    of psi(e_g1)* psi(e_g2) and psi of the kernel part of e_g1* e_g2} over
    every pair of domain arrows with one range, one pair at a time."""
    G, H = pi.domain, pi.codomain
    D, T = groupoid_table(G), E.table()
    on_unit = np.zeros(T.dim, dtype=bool)
    for u in H.units:
        on_unit[E.first[u]:E.first[u] + E.dim(u)] = True
    in_kernel = np.array([H.is_unit(pi.map[g]) for g in G.arrows])

    def psi(coeffs):
        out = np.zeros(T.dim, dtype=complex)
        out[E.psi_slots] = coeffs
        return out

    e = np.eye(len(G.arrows), dtype=complex)
    out = {}
    for u in G.units:
        into = G.arrows_to(u)
        for g1 in into:
            s1 = T.star(psi(e[G.index[g1]]))
            f1 = D.star(e[G.index[g1]])
            for g2 in into:
                f = D.mul(f1, e[G.index[g2]])
                target = np.where(on_unit, T.mul(s1, psi(e[G.index[g2]])), 0)
                image = psi(np.where(in_kernel, f, 0))
                out[(g1, g2)] = float(np.max(np.abs(target - image)))
    return out
