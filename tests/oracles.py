"""Independent oracles used to freeze expected values.

Nothing here goes through the production code paths being tested: block
structure comes from conjugacy counting plus exhaustive integer search,
convolution from the plain group-algebra double sum, and path lifting
from brute-force enumeration of all edge tuples.
"""

import math
from itertools import product
from typing import Mapping

import numpy as np

from gpdkit.actions import Cocycle, GroupoidAction
from gpdkit.algebra import StructureTable, _linked_columns, groupoid_table
from gpdkit.bundle import FellBundleError
from gpdkit.groupoid import (AssociativityFailure, FiniteGroupoid,
                             GroupoidError, GroupoidMorphism,
                             IllegalComposite, InverseFailure,
                             MissingComposite, UnitFailure)
from gpdkit.io import ParseError


def loop_heisenberg_elements(n: int):
    """Upper triangular triples over Z_n with
    [a,b,c][a',b',c'] = [a+a', b+b', c+c'+ab'], one product at a time:
    (elements, {(x, y): x y} of names, unit)."""
    def el(a, b, c):
        return f"[{a},{b},{c}]"
    elements = [el(a, b, c)
                for a in range(n) for b in range(n) for c in range(n)]
    mul = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for a2 in range(n):
                    for b2 in range(n):
                        for c2 in range(n):
                            mul[(el(a, b, c), el(a2, b2, c2))] = \
                                el((a + a2) % n, (b + b2) % n,
                                   (c + c2 + a * b2) % n)
    return elements, mul, el(0, 0, 0)


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


def table_associativity_witness(arrows, units, src, rng, inv, comp):
    """The failing triple that the structure table names for raw groupoid
    tables, by the sorting path that takes any table: the entry of
    ``groupoid_table(G)._sorted_associativity_defect()`` mapped to arrows
    (every failing entry of a w = 1 table with one composite per pair has
    |defect| 1, so the first in index order), or None."""
    G = FiniteGroupoid(arrows, units, src, rng, inv, comp)
    _, triple = groupoid_table(G)._sorted_associativity_defect()
    return None if triple is None else tuple(G.arrows[i] for i in triple)


def escape_loop(s):
    """JSON string literal of s, one character at a time."""
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def dense_faithfulness_defect(G):
    """dim ker of f -> lambda(f) for a groupoid: the rank deficit of the
    full (dim, dim^2) stack of left multiplication matrices."""
    table = groupoid_table(G)
    n = table.dim
    if n == 0:
        return 0
    return n - int(np.linalg.matrix_rank(table.left_stack().reshape(n, -1)))


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


def table_products(table):
    """products[(a, b)] = {c: weight} of a structure table, repeated
    entries summed in table order."""
    products = {}
    for a, b, c, w in zip(table.a.tolist(), table.b.tolist(),
                          table.c.tolist(), table.w.tolist()):
        e = products.setdefault((a, b), {})
        e[c] = e.get(c, 0.0) + w
    return products


def loop_center_basis(table, tol=1e-9):
    """The center solve one connected component at a time: the table's
    terms summed through a dict, then one SVD per component of columns
    linked by a constraint row (thin, or full where the component has
    fewer rows than columns), the rank cut at tol * max(smax, 1) and never
    below dim * eps * smax. Rows come in the order of gpdkit's stacked
    :func:`~gpdkit.algebra.center_basis`."""
    dim = table.dim
    products = table_products(table)
    terms = [(a, b, k, c) for (a, b), expansion in products.items()
             for k, c in expansion.items() if c != 0]
    if not terms:
        return np.eye(dim, dtype=complex)
    a, b, k = (np.array(v, dtype=np.int64) for v in list(zip(*terms))[:3])
    c = np.array([t[3] for t in terms], dtype=complex)
    _, row = np.unique(np.concatenate([b * dim + k, a * dim + k]),
                       return_inverse=True)
    col, val = np.concatenate([a, b]), np.concatenate([c, -c])
    label = _linked_columns(row, col, dim)
    solves, smax = [], 0.0
    for lab in np.unique(label):
        cols = np.flatnonzero(label == lab)
        e = np.flatnonzero(label[col] == lab)
        if not len(e):
            solves.append((cols, np.zeros(0), np.eye(len(cols))))
            continue
        rows, local = np.unique(row[e], return_inverse=True)
        M = np.zeros((len(rows), len(cols)), dtype=complex)
        np.add.at(M, (local, np.searchsorted(cols, col[e])), val[e])
        _, sv, vh = np.linalg.svd(M, full_matrices=len(rows) < len(cols))
        solves.append((cols, sv, vh))
        smax = max(smax, float(sv[0]))
    cut = max(tol * max(smax, 1.0), dim * np.finfo(float).eps * smax)
    out = []
    for cols, sv, vh in solves:
        null = vh[int(np.sum(sv > cut)):].conj()
        block = np.zeros((len(null), dim), dtype=complex)
        block[:, cols] = null
        out.append(block)
    return np.concatenate(out)


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


# -- bundles with a changed section table, for the negative controls

def table_arrays(E):
    """Writable copies of the arrays of the section table of E, by name."""
    T = E.table()
    return {k: getattr(T, k).copy() for k in ("a", "b", "c", "w", "s", "t",
                                              "sw")}


def bundle_from(E, arrays, morphism=None):
    """A bundle with the base and fibers of E and the section table of
    ``arrays`` (see :func:`table_arrays`)."""
    from gpdkit.algebra import StructureTable
    from gpdkit.bundle import FellBundle
    return FellBundle(E.base, E.fibers,
                      StructureTable(E.total_dim(), **arrays),
                      morphism=morphism)


def slot_arrows(E):
    """The base arrow under each section slot of E."""
    return [h for h in E.base.arrows for _ in range(E.dim(h))]


# -- per-element bundle numerics: the reference for the batched checks of
# gpdkit.bundle. Every product and star is one of two one-arrow sections
# through the section table; every norm is taken one element at a time,
# through the dense unit fiber (``DenseUnitFiber.norm``) or on the dense
# total_dim x total_dim section matrix.

class DenseUnitFiber:
    """The unit fiber over u as an algebra of its own: the section table
    restricted to its slots, the dense d x d x d stack of its left
    multiplications, the trace form tau(a) = tr(L_a) and the Gram roots
    of <a, b> = tau(a* b), which make left multiplication a
    *-representation (``rep``) once the bundle axioms hold."""

    def __init__(self, E, u, tol=1e-9):
        d = self.dim = E.dim(u)
        self.unit = u
        T, lo = E.table(), E.first[u]
        m = (T.a >= lo) & (T.a < lo + d) & (T.b >= lo) & (T.b < lo + d)
        st = (T.s >= lo) & (T.s < lo + d)
        self.table = StructureTable(d, T.a[m] - lo, T.b[m] - lo, T.c[m] - lo,
                                    T.w[m], T.s[st] - lo, T.t[st] - lo,
                                    T.sw[st])
        L = self.table.left_stack()  # L[i]: left multiplication by e_i
        self._left = L.reshape(d, d * d)
        self._tau = np.trace(L, axis1=1, axis2=2)
        smap = np.zeros((d, d), dtype=complex)  # row i: coefficients of e_i*
        np.add.at(smap, (self.table.s, self.table.t), self.table.sw)
        gram = smap @ np.einsum("kcj,c->kj", L, self._tau)
        gram = (gram + gram.conj().T) / 2.0
        w, U = (np.linalg.eigh(gram) if d else
                (np.zeros(0), np.zeros((0, 0), dtype=complex)))
        scale = float(w[-1]) if d else 0.0
        self.positive_definite = bool(d == 0 or w[0] > tol * max(scale, 1.0))
        if self.positive_definite and d:
            self._tsqrt = (U * np.sqrt(w)) @ U.conj().T
            self._tisqrt = (U * (1.0 / np.sqrt(w))) @ U.conj().T

    def tau(self, vec):
        return complex(np.asarray(vec, dtype=complex) @ self._tau)

    def rep(self, vec):
        """Left multiplication by ``vec`` in orthonormal coordinates."""
        if not self.positive_definite:
            raise FellBundleError(
                f"unit fiber over {self.unit!r} has a degenerate trace form "
                "and is not a C*-algebra", witness=self.unit)
        left = (np.asarray(vec, dtype=complex) @ self._left).reshape(
            self.dim, self.dim)
        return self._tsqrt @ left @ self._tisqrt if self.dim else left

    def basis_matrices(self):
        """``rep`` of every basis vector."""
        return [self.rep(e) for e in np.eye(self.dim)]

    def norm(self, vec):
        return float(np.linalg.norm(self.rep(vec), 2)) if self.dim else 0.0

    def herm_spectrum(self, vec):
        M = self.rep(vec)
        return np.linalg.eigvalsh((M + M.conj().T) / 2.0) if self.dim \
            else np.zeros(0)


def _section(xi):
    E = xi.bundle
    out = np.zeros(E.total_dim(), dtype=complex)
    out[E.first[xi.arrow]:E.first[xi.arrow] + xi.vec.size] = xi.vec
    return out


def _on_fiber(E, h, vec):
    from gpdkit.bundle import FiberElement
    return FiberElement(E, h, vec[E.first[h]:E.first[h] + E.dim(h)])


def fiber_product(x, y):
    """x y in the fiber over the composite."""
    E = x.bundle
    return _on_fiber(E, E.base.compose(x.arrow, y.arrow),
                     E.table().mul(_section(x), _section(y)))


def fiber_adjoint(x):
    """x* in the fiber over the inverse."""
    E = x.bundle
    return _on_fiber(E, E.base.inv[x.arrow], E.table().star(_section(x)))


def element_norm(xi):
    """||xi|| = ||xi* xi||^{1/2}, one SVD in the unit fiber over src(h)."""
    E = xi.bundle
    prod = fiber_product(fiber_adjoint(xi), xi)
    u = E.base.src[xi.arrow]
    return float(np.sqrt(max(DenseUnitFiber(E, u).norm(prod.vec), 0.0)))


def _draws(E, shape, rng):
    """The vector draw of the batched checks: standard normals of shape
    (*shape, 2, D), D the largest fiber dimension; ``_element`` reads one
    fiber element from it."""
    D = max((E.dim(h) for h in E.base.arrows), default=0)
    return rng.standard_normal((*shape, 2, D))


def _element(E, h, z):
    """The fiber element over h of the real and imaginary parts z[0] and
    z[1] of one padded draw."""
    from gpdkit.bundle import FiberElement
    d = E.dim(h)
    return FiberElement(E, h, z[0, :d] + 1j * z[1, :d])


def _row_rank(rows, tol):
    if not len(rows):
        return 0
    s = np.linalg.svd(np.stack(rows), compute_uv=False)
    return int(np.sum(s > tol * max(float(s[0]), 1.0)))


def dense_saturation_detail(E, tol):
    """(saturated, witness): the rank of the products of the basis pairs
    over (h1, h2) against the dimension over h1 h2, one composable pair at
    a time."""
    from gpdkit.bundle import FiberElement
    H = E.base
    for (h1, h2) in H.composable_pairs():
        d12 = E.dim(H.compose(h1, h2))
        if d12 == 0:
            continue
        rows = [fiber_product(FiberElement.basis(E, h1, i),
                              FiberElement.basis(E, h2, j)).vec
                for i in range(E.dim(h1)) for j in range(E.dim(h2))]
        rank = _row_rank(rows, tol)
        if rank < d12:
            return False, f"span E_{h1!r} * E_{h2!r} has rank {rank} < {d12}"
    return True, None


def sandwich_blocks(B, h, X, k):
    """The block T_hk L_{x,k} T_k^-1 of ``FiberBlocks.blocks`` for every
    row x = X[r] over h[r] and the fiber over k[r], padded to
    max(d_hk, d_k), one row at a time: L scattered from the section table
    entries in the basis coordinates, then multiplied by the Gram roots."""
    T, loc = B.table, B.loc
    tsqrt, tisqrt, _, _ = B.gram()
    out = []
    for hr, x, kr in zip(h, X, k):
        hk = B.compose(np.array([hr]), np.array([kr]))[0]
        g = max(B.dims[hk], B.dims[kr])
        e = (B.arrow[T.a] == hr) & (B.arrow[T.b] == kr)
        L = np.zeros((g, g), dtype=complex)
        np.add.at(L, (loc[T.c[e]], loc[T.b[e]]), T.w[e] * x[loc[T.a[e]]])
        out.append(tsqrt[hk, :g, :g] @ L @ tisqrt[kr, :g, :g])
    return out


class DenseSectionSpace:
    """The section Hilbert space with its dense total_dim x total_dim Gram
    matrix, filled one basis product at a time."""

    def __init__(self, E, tol=1e-9):
        from gpdkit.bundle import FellBundleError, FiberElement
        self.bundle = E
        H = E.base
        n = E.total_dim()
        gram = np.zeros((n, n), dtype=complex)
        for h in H.arrows:
            d = E.dim(h)
            alg = DenseUnitFiber(E, H.src[h]) if d else None
            for i in range(d):
                si = fiber_adjoint(FiberElement.basis(E, h, i))
                for j in range(d):
                    prod = fiber_product(si, FiberElement.basis(E, h, j))
                    gram[E.first[h] + i, E.first[h] + j] = alg.tau(prod.vec)
        gram = (gram + gram.conj().T) / 2.0
        w, U = (np.linalg.eigh(gram) if n else
                (np.zeros(0), np.zeros((0, 0), dtype=complex)))
        self.gram_margin = float(w[0]) / max(float(w[-1]), 1.0) if n else 1.0
        if not self.gram_margin > tol:
            raise FellBundleError("section inner product is degenerate; "
                                  "the bundle is not a Fell bundle")
        self._tsqrt = (U * np.sqrt(w)) @ U.conj().T
        self._tisqrt = (U * (1.0 / np.sqrt(w))) @ U.conj().T

    def matrix(self, vec):
        return self._tsqrt @ self.bundle.table().left(vec) @ self._tisqrt

    def blocks(self, vec):
        """The diagonal blocks of ``matrix`` on the slots over the arrows
        of one source unit, in the order of the unit's arrow index."""
        H, M = self.bundle.base, self.matrix(vec)
        src = np.array([H.index[H.src[h]] for h in slot_arrows(self.bundle)])
        return [M[np.ix_(src == u, src == u)] for u in np.unique(src)]

    def op_norm(self, vec):
        if self.bundle.total_dim() == 0:
            return 0.0
        return float(np.linalg.norm(self.matrix(vec), 2))

    def op_norm_of_fiber(self, xi):
        vec = np.zeros(self.bundle.total_dim(), dtype=complex)
        base = self.bundle.first[xi.arrow]
        vec[base:base + xi.vec.size] = xi.vec
        return self.op_norm(vec)


def dense_verify_axioms(E, tol=1e-9, samples=100, seed=0):
    """``verify_axioms`` one element at a time: the same checks, random
    draws, order and witnesses, with every norm an SVD of its own
    (``element_norm``, ``DenseSectionSpace.op_norm_of_fiber``) and axiom
    3 by the sorting path of the structure table."""
    from gpdkit.bundle import (AxiomReport, FellBundleError, FiberElement,
                               _LATER_CHECKS, _slot_witness)
    rng = np.random.default_rng(seed)
    rep = AxiomReport()
    H = E.base
    for name, error in zip(("axiom1_fiber_map", "axiom5_star_fiber_map"),
                           E.fiber_map_errors):
        rep.add(name, error is None, 0.0 if error is None else None,
                None if error is None else str(error))
    if not rep.passed:
        skipped = "not checked: " + "; ".join(
            e.witness for e in rep.entries if not e.passed)
        for name in _LATER_CHECKS:
            rep.add(name, False, None, skipped)
        return rep
    comp_pairs = [p for p in H.composable_pairs()
                  if E.dim(p[0]) and E.dim(p[1])]
    res2 = res6 = 0.0
    wit2 = wit6 = None
    # each group of draws: the arrow (pair) picks, then the vectors
    n = min(samples, 25) if comp_pairs else 0
    picks = rng.integers(max(len(comp_pairs), 1), size=n)
    z = _draws(E, (n, 3), rng)
    lams = rng.standard_normal((n, 2))
    for k in range(n):
        h1, h2 = comp_pairs[picks[k]]
        a, b, c = (_element(E, h, z[k, m])
                   for m, h in enumerate((h1, h1, h2)))
        lam = complex(lams[k, 0] + 1j * lams[k, 1])
        lhs = fiber_product(FiberElement(E, h1, lam * a.vec + b.vec), c)
        rhs = lam * fiber_product(a, c).vec + fiber_product(b, c).vec
        d = float(np.max(np.abs(lhs.vec - rhs), initial=0.0))
        if d > res2:
            res2, wit2 = d, f"(h={h1!r},{h2!r})"
        sl = fiber_adjoint(FiberElement(E, h1, lam * a.vec + b.vec))
        sr = np.conj(lam) * fiber_adjoint(a).vec + fiber_adjoint(b).vec
        d = float(np.max(np.abs(sl.vec - sr), initial=0.0))
        if d > res6:
            res6, wit6 = d, f"(h={h1!r})"
    rep.add("axiom2_bilinear", res2 <= tol, res2,
            wit2 if res2 > tol else None)
    rep.add("axiom6_conjugate_linear", res6 <= tol, res6,
            wit6 if res6 > tol else None)
    table = E.table()
    for name, (res, slots), form in (
            ("axiom3_associative", table._sorted_associativity_defect(),
             "(h={} e={})"),
            ("axiom7_involutive", table.involution_defect(), "(h={}, e={})"),
            ("axiom8_antimultiplicative", table.antimultiplicative_defect(),
             "(h={} e={})")):
        rep.add(name, res <= tol, res,
                _slot_witness(E, slots, form) if res > tol else None)
    degenerate = None
    for u in H.units:
        if E.dim(u) and not DenseUnitFiber(E, u).positive_definite:
            degenerate = f"unit fiber over {u!r} has degenerate trace form"
            break
    if degenerate is not None:
        for name in ("axiom4_submultiplicative", "axiom9_cstar_identity",
                     "axiom10_positive"):
            rep.add(name, False, None, degenerate)
        rep.add("norm_consistency", False, None, degenerate)
        rep.add("saturation", dense_saturation_detail(E, tol)[0], None, None)
        return rep
    basis = {(h, i): FiberElement.basis(E, h, i)
             for h in H.arrows for i in range(E.dim(h))}
    norms = {key: element_norm(x) for key, x in basis.items()}
    res4, wit4 = 0.0, None
    trials = [(h1, h2, basis[h1, i], norms[h1, i], basis[h2, j], norms[h2, j])
              for (h1, h2) in comp_pairs
              for i in range(E.dim(h1)) for j in range(E.dim(h2))]
    n = samples if comp_pairs else 0
    picks = rng.integers(max(len(comp_pairs), 1), size=n)
    z = _draws(E, (n, 2), rng)
    for k in range(n):
        h1, h2 = comp_pairs[picks[k]]
        x, y = _element(E, h1, z[k, 0]), _element(E, h2, z[k, 1])
        trials.append((h1, h2, x, element_norm(x), y, element_norm(y)))
    for h1, h2, x, nx, y, ny in trials:
        rel = (element_norm(fiber_product(x, y)) - nx * ny) / max(nx * ny,
                                                                 1e-30)
        if rel > res4:
            res4, wit4 = rel, f"(h={h1!r},{h2!r})"
    rep.add("axiom4_submultiplicative", res4 <= tol, res4,
            wit4 if res4 > tol else None)
    res10, wit10 = 0.0, None
    single = [(h, x, norms[h, i]) for (h, i), x in basis.items()]
    n = samples if single else 0
    picks = rng.integers(max(len(H.arrows), 1), size=n)
    z = _draws(E, (n,), rng)
    for k in range(n):
        h = H.arrows[picks[k]]
        if E.dim(h):
            x = _element(E, h, z[k])
            single.append((h, x, element_norm(x)))
    for h, x, _ in single:
        spec = DenseUnitFiber(E, H.src[h]).herm_spectrum(
            fiber_product(fiber_adjoint(x), x).vec)
        if spec.size:
            neg = max(0.0, -float(spec[0])) / max(float(spec[-1]), 1e-30)
            if neg > res10:
                res10, wit10 = neg, f"(h={h!r})"
    rep.add("axiom10_positive", res10 <= tol, res10,
            wit10 if res10 > tol else None)
    try:
        srep = DenseSectionSpace(E)
    except FellBundleError as exc:
        rep.add("axiom9_cstar_identity", False, None, str(exc))
        rep.add("norm_consistency", False, None, str(exc))
        rep.add("saturation", dense_saturation_detail(E, tol)[0])
        return rep
    res9 = cons = 0.0
    wit9 = witc = None
    for h, x, nx in single:
        n_op = srep.op_norm_of_fiber(x)
        sq = fiber_product(fiber_adjoint(x), x)
        n_sq = srep.op_norm_of_fiber(FiberElement(E, H.src[h], sq.vec))
        d = abs(n_sq - n_op ** 2) / max(n_op ** 2, 1e-30)
        if d > res9:
            res9, wit9 = d, f"(h={h!r})"
        c = abs(n_op - nx) / max(n_op, 1e-30)
        if c > cons:
            cons, witc = c, f"(h={h!r})"
    rep.add("axiom9_cstar_identity", res9 <= tol, res9,
            wit9 if res9 > tol else None)
    rep.add("norm_consistency", cons <= tol, cons,
            witc if cons > tol else None)
    sat, wit = dense_saturation_detail(E, tol)
    rep.add("saturation", sat, None, wit)
    return rep


def dense_bimodule_check(E, U, tol=1e-9, samples=50, seed=0):
    """``bisection_bimodule_check`` one element at a time: spectra per
    sample, a rank per arrow and the imprimitivity identity per basis
    triple, with the same draws, order and witnesses."""
    from gpdkit.bundle import FiberElement, NotSaturated
    from gpdkit.groupoid import Bisection, check_bisection
    from gpdkit.report import CheckList
    if not isinstance(U, Bisection):
        U = check_bisection(E.base, U)
    sat, wit = dense_saturation_detail(E, tol)
    if not sat:
        raise NotSaturated(f"bundle is not saturated: {wit}", witness=wit)
    H = E.base
    rng = np.random.default_rng(seed)
    report = CheckList()
    res_pos = 0.0
    per = max(1, samples // max(len(U.arrows), 1))
    live = [h for h in U.arrows if E.dim(h)]
    z = _draws(E, (len(live) * per,), rng)
    for k, h in enumerate(live):
        for m in range(per):
            xi = _element(E, h, z[k * per + m])
            b_spec = DenseUnitFiber(E, H.src[h]).herm_spectrum(
                fiber_product(fiber_adjoint(xi), xi).vec)
            a_spec = DenseUnitFiber(E, H.rng[h]).herm_spectrum(
                fiber_product(xi, fiber_adjoint(xi)).vec)
            for spec in (b_spec, a_spec):
                if spec.size:
                    res_pos = max(res_pos, max(0.0, -float(spec[0])) /
                                  max(float(spec[-1]), 1e-30))
    report.add("inner_products_positive", res_pos <= tol, res_pos)
    for side in ("B", "A"):
        wit = None
        for h in U.arrows:
            d = E.dim(h)
            dt = E.dim(H.src[h] if side == "B" else H.rng[h])
            if dt == 0:
                continue
            rows = []
            for i in range(d):
                for j in range(d):
                    x = FiberElement.basis(E, h, i)
                    y = FiberElement.basis(E, h, j)
                    rows.append(fiber_product(fiber_adjoint(x), y).vec
                                if side == "B"
                                else fiber_product(x, fiber_adjoint(y)).vec)
            rank = _row_rank(rows, tol)
            if rank < dt:
                wit = f"inner products over {h!r} span rank {rank} < {dt}"
                break
        report.add(f"fullness_{side}", wit is None, None, wit)
    res_imp, wit = 0.0, None
    for h in U.arrows:
        d = E.dim(h)
        for i in range(d):
            x = FiberElement.basis(E, h, i)
            for j in range(d):
                ys = fiber_adjoint(FiberElement.basis(E, h, j))
                left_part = fiber_product(x, ys)
                for k in range(d):
                    z = FiberElement.basis(E, h, k)
                    lhs = fiber_product(left_part, z)
                    rhs = fiber_product(x, fiber_product(ys, z))
                    dmax = float(np.max(np.abs(lhs.vec - rhs.vec))) \
                        if lhs.vec.size else 0.0
                    if dmax > res_imp:
                        res_imp, wit = dmax, f"(h={h!r}, e={i},{j},{k})"
    report.add("imprimitivity", res_imp <= tol, res_imp,
               wit if res_imp > tol else None)
    return report


# The input layer as per-entry loops: the structural checks of gpdkit.io
# and the axiom checks of validate_groupoid, one entry at a time and in
# the order that decides which failure is reported first.

def _loop_expect(cond, file, path, what):
    if not cond:
        raise ParseError(file, path, what)


def _loop_str_list(obj, file, path):
    _loop_expect(isinstance(obj, list), file, path, "a list")
    out = []
    for i, v in enumerate(obj):
        _loop_expect(isinstance(v, str), file, f"{path}[{i}]", "a string id")
        out.append(v)
    return out


def _loop_str_map(obj, file, path, keys):
    _loop_expect(isinstance(obj, dict), file, path, "an object")
    for k, v in obj.items():
        _loop_expect(isinstance(v, str), file, f"{path}.{k}", "a string id")
    missing = [k for k in keys if k not in obj]
    _loop_expect(not missing, file, path, f"an entry for {missing[0]!r}"
                 if missing else "")
    return dict(obj)


def _loop_complex(obj, file, path) -> complex:
    _loop_expect(isinstance(obj, list) and len(obj) == 2
                 and all(isinstance(v, (int, float)) and math.isfinite(v)
                         for v in obj),
                 file, path, "a [re, im] pair of finite numbers")
    return complex(obj[0], obj[1])


def loop_validate_groupoid(arrows, units, src, rng, inv, comp):
    """validate_groupoid, one arrow and one comp entry at a time."""
    arrows = tuple(arrows)
    arrow_set = set()
    for g in arrows:
        if g in arrow_set:
            raise GroupoidError(f"duplicate arrow identifier {g!r}", witness=g)
        arrow_set.add(g)
    units = tuple(units)
    for u in units:
        if u not in arrow_set:
            raise UnitFailure(f"unit {u!r} is not a declared arrow", witness=u)
    if not isinstance(comp, Mapping):
        comp = {(g1, g2): g12 for g1, g2, g12 in comp}
    unit_set = set(units)
    for table, name in ((src, "src"), (rng, "rng"), (inv, "inv")):
        for g in arrows:
            if g not in table:
                raise GroupoidError(f"{name} is not total: missing {g!r}",
                                    witness=g)
            if table[g] not in arrow_set:
                raise GroupoidError(
                    f"{name}[{g!r}] = {table[g]!r} is not a declared arrow",
                    witness=g)
    for g in arrows:
        if src[g] not in unit_set:
            raise UnitFailure(f"src[{g!r}] = {src[g]!r} is not a unit",
                              witness=g)
        if rng[g] not in unit_set:
            raise UnitFailure(f"rng[{g!r}] = {rng[g]!r} is not a unit",
                              witness=g)
    for (g1, g2), g12 in comp.items():
        if g1 not in arrow_set or g2 not in arrow_set or g12 not in arrow_set:
            raise IllegalComposite(
                f"comp entry ({g1!r}, {g2!r}) -> {g12!r} uses undeclared arrows",
                witness=(g1, g2, g12))
        if src[g1] != rng[g2]:
            raise IllegalComposite(
                f"comp defined on non-composable pair ({g1!r}, {g2!r})",
                witness=(g1, g2))
        if src[g12] != src[g2] or rng[g12] != rng[g1]:
            raise IllegalComposite(
                f"composite {g12!r} of ({g1!r}, {g2!r}) has wrong source or range",
                witness=(g1, g2, g12))
    G = FiniteGroupoid(arrows, units, src, rng, inv, comp)
    for g1, g2 in G.composable_pairs():
        if (g1, g2) not in comp:
            raise MissingComposite(
                f"composable pair ({g1!r}, {g2!r}) missing from comp",
                witness=(g1, g2))
    for u in units:
        if src[u] != u or rng[u] != u:
            raise UnitFailure(f"unit {u!r} has src/rng != itself", witness=u)
    for g in arrows:
        if comp[(rng[g], g)] != g:
            raise UnitFailure(
                f"left unit law fails: {rng[g]!r} * {g!r} != {g!r}",
                witness=(rng[g], g))
        if comp[(g, src[g])] != g:
            raise UnitFailure(
                f"right unit law fails: {g!r} * {src[g]!r} != {g!r}",
                witness=(g, src[g]))
    for g in arrows:
        gi = inv[g]
        if inv[gi] != g:
            raise InverseFailure(f"inv is not involutive at {g!r}", witness=g)
        if src[gi] != rng[g] or rng[gi] != src[g]:
            raise InverseFailure(f"inv[{g!r}] has wrong source or range",
                                 witness=g)
        if comp[(g, gi)] != rng[g]:
            raise InverseFailure(
                f"{g!r} * {gi!r} != rng({g!r})", witness=(g, gi))
        if comp[(gi, g)] != src[g]:
            raise InverseFailure(
                f"{gi!r} * {g!r} != src({g!r})", witness=(gi, g))
    res, triple = groupoid_table(G).associativity_defect()
    if res > 0:
        g1, g2, g3 = (arrows[i] for i in triple)
        raise AssociativityFailure(
            f"({g1!r}*{g2!r})*{g3!r} != {g1!r}*({g2!r}*{g3!r})",
            witness=(g1, g2, g3))
    return G


def _loop_resolve(source, loader, file, path):
    if isinstance(source, dict):
        return loader(source, file=file, at=path)
    raise ParseError(file, path, "an object or a path string")


def loop_load_groupoid(obj, file=None, at="$"):
    """gpdkit.io.load_groupoid of an inline object, one entry at a time."""
    _loop_expect(isinstance(obj, dict), file, at, "a groupoid object")
    for key in ("arrows", "units", "src", "rng", "inv", "comp"):
        _loop_expect(key in obj, file, at, f"key {key!r}")
    arrows = _loop_str_list(obj["arrows"], file, f"{at}.arrows")
    arrow_set = set(arrows)
    units = _loop_str_list(obj["units"], file, f"{at}.units")
    for i, u in enumerate(units):
        _loop_expect(u in arrow_set, file, f"{at}.units[{i}]",
                     "a declared arrow")
    tables = {}
    for name in ("src", "rng", "inv"):
        table = _loop_str_map(obj[name], file, f"{at}.{name}", arrows)
        for k, v in table.items():
            _loop_expect(k in arrow_set, file, f"{at}.{name}.{k}",
                         "a declared arrow key")
            _loop_expect(v in arrow_set, file, f"{at}.{name}.{k}",
                         "a declared arrow value")
        tables[name] = table
    _loop_expect(isinstance(obj["comp"], list), file, f"{at}.comp",
                 "a list of [g1, g2, g12] triples")
    comp = {}
    for i, triple in enumerate(obj["comp"]):
        _loop_expect(isinstance(triple, list) and len(triple) == 3
                     and all(isinstance(v, str) for v in triple),
                     file, f"{at}.comp[{i}]", "a [g1, g2, g12] string triple")
        g1, g2, g12 = triple
        for g in triple:
            _loop_expect(g in arrow_set, file, f"{at}.comp[{i}]",
                         f"declared arrows (got {g!r})")
        _loop_expect((g1, g2) not in comp, file, f"{at}.comp[{i}]",
                     "no duplicate composable pair")
        comp[(g1, g2)] = g12
    return loop_validate_groupoid(arrows, units, tables["src"], tables["rng"],
                                  tables["inv"], comp)


def loop_load_raw_groupoid_tables(obj, file=None):
    """gpdkit.io.load_raw_groupoid_tables of an inline object."""
    _loop_expect(isinstance(obj, dict), file, "$", "a groupoid object")
    for key in ("arrows", "units", "src", "rng", "inv", "comp"):
        _loop_expect(key in obj, file, "$", f"key {key!r}")
    arrows = _loop_str_list(obj["arrows"], file, "$.arrows")
    units = _loop_str_list(obj["units"], file, "$.units")
    src = _loop_str_map(obj["src"], file, "$.src", arrows)
    rng = _loop_str_map(obj["rng"], file, "$.rng", arrows)
    inv = _loop_str_map(obj["inv"], file, "$.inv", arrows)
    comp = {}
    _loop_expect(isinstance(obj["comp"], list), file, "$.comp", "a list")
    for i, triple in enumerate(obj["comp"]):
        _loop_expect(isinstance(triple, list) and len(triple) == 3
                     and all(isinstance(v, str) for v in triple),
                     file, f"$.comp[{i}]", "a [g1, g2, g12] string triple")
        _loop_expect((triple[0], triple[1]) not in comp, file,
                     f"$.comp[{i}]", "no duplicate composable pair")
        comp[(triple[0], triple[1])] = triple[2]
    return arrows, units, src, rng, inv, comp


def loop_load_morphism(obj, file=None, at="$"):
    """gpdkit.io.load_morphism of an inline object with inline groupoids."""
    _loop_expect(isinstance(obj, dict), file, at, "a morphism object")
    for key in ("domain", "codomain", "map"):
        _loop_expect(key in obj, file, at, f"key {key!r}")
    dom = _loop_resolve(obj["domain"], loop_load_groupoid, file,
                        f"{at}.domain")
    cod = _loop_resolve(obj["codomain"], loop_load_groupoid, file,
                        f"{at}.codomain")
    mapping = _loop_str_map(obj["map"], file, f"{at}.map", dom.arrows)
    for k, v in mapping.items():
        _loop_expect(k in dom.index, file, f"{at}.map.{k}", "a domain arrow")
        _loop_expect(v in cod.index, file, f"{at}.map.{k}",
                     "a codomain arrow")
    return GroupoidMorphism(dom, cod, mapping)


def loop_load_cocycle(obj, groupoid, file=None):
    """gpdkit.io.load_cocycle of an inline object on a given groupoid."""
    _loop_expect(isinstance(obj, dict), file, "$", "a cocycle object")
    _loop_expect("omega" in obj, file, "$", "key 'omega'")
    omega = {}
    _loop_expect(isinstance(obj["omega"], list), file, "$.omega", "a list")
    for i, triple in enumerate(obj["omega"]):
        _loop_expect(isinstance(triple, list) and len(triple) == 3,
                     file, f"$.omega[{i}]", "a [g1, g2, [re, im]] triple")
        g1, g2, val = triple
        _loop_expect(isinstance(g1, str) and g1 in groupoid.index,
                     file, f"$.omega[{i}][0]", "a groupoid arrow")
        _loop_expect(isinstance(g2, str) and g2 in groupoid.index,
                     file, f"$.omega[{i}][1]", "a groupoid arrow")
        _loop_expect(groupoid.composable(g1, g2), file, f"$.omega[{i}]",
                     "a composable pair")
        omega[(g1, g2)] = _loop_complex(val, file, f"$.omega[{i}][2]")
    _loop_expect(len(omega) == len(groupoid.comp), file, "$.omega",
                 "a value on every composable pair")
    return Cocycle(groupoid, omega)


def loop_load_action(obj, file=None):
    """gpdkit.io.load_action of an inline object with an inline groupoid."""
    _loop_expect(isinstance(obj, dict), file, "$", "an action object")
    for key in ("groupoid", "X", "rho", "act"):
        _loop_expect(key in obj, file, "$", f"key {key!r}")
    H = _loop_resolve(obj["groupoid"], loop_load_groupoid, file,
                      "$.groupoid")
    points = _loop_str_list(obj["X"], file, "$.X")
    pset = set(points)
    rho = _loop_str_map(obj["rho"], file, "$.rho", points)
    for x, u in rho.items():
        _loop_expect(x in pset, file, f"$.rho.{x}", "a declared point")
        _loop_expect(u in H.index, file, f"$.rho.{x}", "a groupoid arrow")
    _loop_expect(isinstance(obj["act"], list), file, "$.act",
                 "a list of triples")
    act = {}
    for i, triple in enumerate(obj["act"]):
        _loop_expect(isinstance(triple, list) and len(triple) == 3
                     and all(isinstance(v, str) for v in triple),
                     file, f"$.act[{i}]", "an [h, x, hx] string triple")
        h, x, hx = triple
        _loop_expect(h in H.index, file, f"$.act[{i}][0]", "a groupoid arrow")
        _loop_expect(x in pset and hx in pset, file, f"$.act[{i}]",
                     "declared points")
        act[(h, x)] = hx
    return GroupoidAction(H, points, rho, act)


def loop_load_group(obj, file=None):
    """gpdkit.io.load_group of an inline object."""
    _loop_expect(isinstance(obj, dict), file, "$", "a group object")
    for key in ("elements", "mul"):
        _loop_expect(key in obj, file, "$", f"key {key!r}")
    elements = _loop_str_list(obj["elements"], file, "$.elements")
    eset = set(elements)
    _loop_expect(isinstance(obj["mul"], list), file, "$.mul",
                 "a list of triples")
    mul = {}
    for i, triple in enumerate(obj["mul"]):
        _loop_expect(isinstance(triple, list) and len(triple) == 3
                     and all(isinstance(v, str) for v in triple),
                     file, f"$.mul[{i}]", "an [a, b, ab] string triple")
        for v in triple:
            _loop_expect(v in eset, file, f"$.mul[{i}]",
                         f"declared elements (got {v!r})")
        mul[(triple[0], triple[1])] = triple[2]
    kernel = _loop_str_list(obj.get("kernel", []), file, "$.kernel")
    for i, a in enumerate(kernel):
        _loop_expect(a in eset, file, f"$.kernel[{i}]", "a declared element")
    return elements, mul, kernel


# -- one row or one sample at a time: the references for the stacked
# norms of gpdkit.algebra and the stacked sample checks of gpdkit.cli

def dense_norms(table, summand, X):
    """The operator norm of every coefficient row of X in the regular
    representation of ``table`` cut to its summands (entries between
    basis elements of different summands left out): one dense SVD of the
    whole dim x dim matrix per row."""
    summand = np.asarray(summand)
    keep = summand[:, None] == summand[None, :]
    return np.array([float(np.linalg.norm(np.where(keep, table.left(x), 0),
                                          2)) if table.dim else 0.0
                     for x in X])


def loop_bundle_build(E, samples, seed):
    """(fiber_star_antimultiplicative, fiber_norm_cstar_identity)
    residuals of ``bundle build``, one sample at a time through
    fiber_mul, fiber_star and fiber_norm."""
    from gpdkit.bundle import fiber_mul, fiber_norm, fiber_star
    rng = np.random.default_rng(seed)
    res_star = res_norm = 0.0
    arrows = [h for h in E.base.arrows if E.dim(h)]
    # the draws of the batched command: the arrows of x, the vectors x,
    # the partner of every x that has one, the vectors y
    n = max(1, samples // 5)
    h1s = [arrows[k] for k in rng.integers(len(arrows), size=n)]
    zx = _draws(E, (n,), rng)
    partners = [[h2 for h2 in arrows if E.base.composable(h1, h2)]
                for h1 in h1s]
    paired = [k for k in range(n) if partners[k]]
    picks = rng.integers([len(partners[k]) for k in paired])
    zy = _draws(E, (len(paired),), rng)
    ys = {k: _element(E, partners[k][p], zy[m])
          for m, (k, p) in enumerate(zip(paired, picks))}
    for k, h1 in enumerate(h1s):
        x = _element(E, h1, zx[k])
        if k in ys:
            y = ys[k]
            lhs = fiber_star(fiber_mul(x, y))
            rhs = fiber_mul(fiber_star(y), fiber_star(x))
            res_star = max(res_star, float(np.max(np.abs(lhs.vec - rhs.vec)))
                           if lhs.vec.size else 0.0)
        nx = fiber_norm(x)
        sq = fiber_norm(fiber_mul(fiber_star(x), x))
        res_norm = max(res_norm, abs(sq - nx * nx) / max(nx * nx, 1e-30))
    return res_star, res_norm


def loop_wedderburn_samples(G, samples, seed, tol):
    """The residuals of the sample checks and the support check of ``alg
    wedderburn`` by name, one sample (and one arrow) at a time through
    cstar_norm, convolve, involute and conditional_expectation."""
    from gpdkit.algebra import (AlgebraElement, conditional_expectation,
                                convolve, cstar_norm, involute,
                                positivity_check, random_element)
    from gpdkit.groupoid import subgroupoid
    rng = np.random.default_rng(seed)
    res_cstar = res_subm = res_invol = res_pos = 0.0
    for _ in range(max(1, samples // 10)):
        f1, f2 = random_element(G, rng), random_element(G, rng)
        n1, n2 = cstar_norm(G, f1), cstar_norm(G, f2)
        sq = convolve(involute(f1), f1)
        res_cstar = max(res_cstar, abs(cstar_norm(G, sq) - n1 * n1)
                        / max(n1 * n1, 1e-30))
        res_subm = max(res_subm, (cstar_norm(G, convolve(f1, f2)) - n1 * n2)
                       / max(n1 * n2, 1e-30))
        res_invol = max(res_invol, abs(cstar_norm(G, involute(f1)) - n1)
                        / max(n1, 1e-30))
        if not positivity_check(G, sq, tol=tol):
            res_pos = 1.0
    units = subgroupoid(G, G.units)
    res_diag = 0.0
    for g in G.arrows:
        f = AlgebraElement.delta(G, g)
        ef = conditional_expectation(G, units, convolve(involute(f), f))
        for i, u in enumerate(ef.base.arrows):
            res_diag = max(res_diag, abs(ef.coeffs[i]
                                         - (1.0 if u == G.src[g] else 0.0)))
    return {"cstar_identity": res_cstar, "submultiplicative": res_subm,
            "involution_isometric": res_invol, "squares_positive": res_pos,
            "unit_expectation_faithful_support": res_diag}


def loop_expectation_contractive(E, samples, seed, tol):
    """The ``expectation_contractive`` residual of ``bundle verify``, one
    random section at a time through SectionAlgebra.norm and
    SectionAlgebra.expectation."""
    from gpdkit.bundle import section_algebra
    sa = section_algebra(E, tol=tol)
    rng = np.random.default_rng(seed)
    res = 0.0
    for _ in range(max(1, samples // 5)):
        s = sa.random_section(rng)
        norm = sa.norm(s)
        res = max(res, (sa.norm(sa.expectation(s)) - norm) / max(norm, 1e-30))
    return res
