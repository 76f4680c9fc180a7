"""Convolution *-algebras of finite groupoids.

The product is (f1 f2)(g) = sum over factorizations g = g1 g2 of
f1(g1) f2(g2); the involution is f*(g) = conj(f(inv(g))). The C*-norm is
the operator norm of the left regular representation, which acts block
per unit u on the span of the arrows with source u (twisted and section
algebras share :class:`RegularRepresentation`). For finite groupoids
this representation is faithful (the coefficient f(g) appears verbatim as
the matrix entry at (g, src(g))), so the operator norm is the unique
C*-norm of the finite-dimensional algebra.

Every algebra in the package is a :class:`StructureTable`: basis
e_0 .. e_{dim-1}, products e_a e_b = sum of w e_c over the entries
(a, b, c, w), and a conjugate-linear star e_s* = sum of sw e_t over the
entries (s, t, sw); repeated index tuples add up. A groupoid's w = 1 table
in the arrow basis is the groupoid's own storage of composition and
inverse (``FiniteGroupoid.table``); a 2-cocycle keeps its twist as those
entries with the weights w = omega(g1, g2) in table order
(``Cocycle.table``). A bundle gives the section
basis, its slots numbered arrow-major in the order of the base arrows.

Star weights are stored as given and never derived from the product
weights, because the two conventions below agree only for valid
cocycles: the twisted groupoid algebra uses e_g* = conj(omega(inv g, g))
e_{inv g}, while the bundle of a twisted morphism uses
e_g* = conj(omega(g, inv g)) e_{inv g}.

Associativity of every table is :meth:`StructureTable.associativity_defect`:
by gathers where each pair has one product term (the tables of groupoids,
twisted groupoids, groups and morphism bundles), by a sort elsewhere.
With every weight 1 and more than one pass of triples, Light's test
(Clifford and Preston 1961, *The Algebraic Theory of Semigroups* I, 1.2)
checks (x g) y = x (g y) for g in a generating set only: the gathers
check that x y is defined iff s(x) = r(y), with r(xy) = r(x) and s(xy) =
s(y), so the passing g are closed under products, (x(ab))y = ((xa)b)y =
(xa)(by) = x(a(by)) = x((ab)y). A failure takes the full scan's witness.
Block-size invariants of such algebras (the complete isomorphism
invariant at this scale) are computed by :func:`wedderburn_from_tables`
from the table and kept on it. The center comes from
:func:`center_basis`, which reads the table arrays: on the tables where
each commutator constraint holds at most one term per side (groupoids,
twisted groupoids, groups, morphism bundles) each component of the
constraints is one class sum with cocycle phases or nothing, read from
the table with no SVD; any other table takes one batched SVD per shape
of its constraint components. The block sizes come from the minimal
central projections, one k x k eigenproblem per component of the center
(:func:`central_projections`).

That a linear map between two such algebras keeps every norm is certified
over the whole basis, not sampled (:func:`isometry_certificate`): an
injective *-homomorphism between C*-algebras is isometric (Murphy 1990,
*C*-algebras and Operator Theory*, Thm 3.1.5), so it suffices that the map
is a bijective *-homomorphism and that each norm is taken in a faithful
*-representation, which :meth:`RegularRepresentation.star_defect` and
:meth:`RegularRepresentation.slice_margin` measure on the block entries.
Every basis map is certified by the same two functions: bijectivity by
the singular values of its blocks (:func:`block_bijectivity`), and the
*-homomorphism by its defects (:func:`map_defects`), whose multiplicative
scan takes g in the generating set a table keeps, as in Light's test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .groupoid import (FiniteGroupoid, PairLayout, _join, _ranks, inclusion,
                       subgroupoid)


class BaseMismatch(ValueError):
    pass


class NumericalDegeneracy(RuntimeError):
    """A Wedderburn solve failed its certificate, or its table is not
    associative."""


def _scatter(index, values, size: int) -> np.ndarray:
    """Complex vector of length ``size`` with values[i] added at index[i]
    (np.bincount takes real weights only)."""
    values = np.asarray(values, dtype=complex)
    return (np.bincount(index, values.real, size)
            + 1j * np.bincount(index, values.imag, size))


# triples per pass of associativity_defect (gathered: about 80 bytes each)
_TRIPLES_PER_PASS = 1 << 16
# One stacked numpy call holds at most _ROWS_PER_CALL rows and about
# _ENTRIES_PER_CALL block entries and table terms, at about 100 bytes each
_ROWS_PER_CALL = 1 << 16
_ENTRIES_PER_CALL = 1 << 14


def chunks(load) -> list:
    """Index arrays of consecutive rows, each of at most _ROWS_PER_CALL
    rows and about _ENTRIES_PER_CALL summed ``load``; a heavier row gets a
    call of its own."""
    load = np.asarray(load, dtype=np.int64)
    if len(load) <= _ROWS_PER_CALL and load.sum() <= _ENTRIES_PER_CALL:
        return [np.arange(len(load))] if len(load) else []
    part = (np.cumsum(load) // _ENTRIES_PER_CALL
            + np.arange(len(load)) // _ROWS_PER_CALL)
    return np.split(np.arange(len(load)), np.flatnonzero(np.diff(part)) + 1)


def stacked_matrices(owner, row, col, vals, shape):
    """Yield (owners, matrices) per shape and chunk: the matrix of every
    owner o, of shape (shape[0][o], shape[1][o]), with vals summed at
    (row, col) of the entries it owns; owners in ascending order, those of
    an empty shape left out."""
    nr, nc = (np.asarray(v, dtype=np.int64) for v in shape)
    key = nr * (int(nc.max(initial=0)) + 1) + nc
    for k in np.flatnonzero(np.bincount(key[(nr > 0) & (nc > 0)])):
        which = np.flatnonzero(key == k)
        a, b = int(nr[which[0]]), int(nc[which[0]])
        for chunk in chunks(np.full(len(which), a * b)):
            o = which[chunk]
            at = np.full(len(nr), -1)
            at[o] = np.arange(len(o))
            e = at[owner] >= 0
            yield o, _scatter((at[owner[e]] * a + row[e]) * b + col[e],
                              vals[e], len(o) * a * b).reshape(len(o), a, b)


def stacked_singular_values(owner, row, col, vals, shape):
    """Yield (owners, singular values) of :func:`stacked_matrices`: one
    batched SVD each, values in descending order."""
    for o, M in stacked_matrices(owner, row, col, vals, shape):
        yield o, np.linalg.svd(M, compute_uv=False)


def spectral_norms(S) -> np.ndarray:
    """Largest singular value of every matrix of the (..., m, n) stack S (0
    for an empty one): the square root of the largest eigenvalue of the
    smaller Gram matrix, S* S or S S*, by one batched eigvalsh. The largest
    singular value has the relative accuracy of an SVD this way
    (Golub-Van Loan, *Matrix Computations*, 8.6); small ones do not, so
    every rank decision stays on the SVD."""
    S = np.asarray(S)
    if S.shape[-2] < S.shape[-1]:
        S = S.swapaxes(-1, -2)  # the same singular values
    with np.errstate(over="ignore", invalid="ignore"):
        G = S.conj().swapaxes(-1, -2) @ S
        top = (np.linalg.eigvalsh(G).max(axis=-1, initial=0.0)
               if np.all(np.isfinite(np.diagonal(G, 0, -2, -1))) else np.inf)
    if not np.all(np.isfinite(top)):  # entries above ~1e154: the SVD scales
        return np.linalg.svd(S, compute_uv=False).max(axis=-1, initial=0.0)
    return np.sqrt(np.maximum(top, 0.0))


def _defect(lhs, rhs, dim: int):
    """(largest |coefficient difference| between two sums of terms, its
    entry without the last index) or (0.0, None). A side is a tuple of
    index arrays (below ``dim``) naming each term's entry, then weights."""
    shape = (dim,) * (len(lhs) - 1)
    uniq, sums = _term_sums(lhs, rhs, shape)
    if not len(sums) or sums.max() == 0:
        return 0.0, None
    i = int(np.argmax(sums))
    return float(sums[i]), tuple(
        int(v) for v in np.unravel_index(uniq[i], shape)[:-1])


def _term_sums(lhs, rhs, shape):
    """(sorted keys over ``shape``, |sum| at each) of :func:`_defect`."""
    keys = np.concatenate([np.ravel_multi_index(lhs[:-1], shape),
                           np.ravel_multi_index(rhs[:-1], shape)])
    uniq, slot = np.unique(keys, return_inverse=True)
    return uniq, np.abs(_scatter(slot, np.concatenate([lhs[-1], -rhs[-1]]),
                                 len(uniq)))


def _generating_set(L, P) -> np.ndarray:
    """Generators, greedy in basis order, of x y = P[L.off[x] + L.rpos[y]]
    (defined iff s(x) = r(y); L the :class:`~gpdkit.groupoid.PairLayout`
    of the labels s and r): a new one joins with every generated x times
    it, and new elements are multiplied on the right by every generator,
    so each element is a product ((g1 g2) ...) gk. A round serves every
    component of the graph joining r(x) to s(x) at once."""
    r, s, off, rpos = L.rng, L.src, L.off, L.rpos
    n = len(r)
    ids = np.arange(n)
    comp = _linked_columns(np.tile(ids, 2), np.concatenate((r, s)), n + 2)[r]
    order = np.lexsort((ids, comp))  # by component, then basis order
    starts = np.flatnonzero(np.diff(comp[order], prepend=-1))
    have = np.zeros(n, bool)
    gens = ids[:0]
    while True:
        g = np.minimum.reduceat(np.where(have[order], n, order), starts)
        g = g[g < n]
        if not len(g):
            return gens
        i, x = L.columns(g)
        new = np.concatenate((g, P[off[x] + rpos[g[i]]][have[x]]))
        gens = np.sort(np.concatenate((gens, g)))
        while len(new := np.flatnonzero(np.bincount(new, minlength=n)
                                        * ~have)):
            have[new] = True
            i, j = _join(s[new], r[gens])
            new = P[off[new[i]] + rpos[gens[j]]]


class StructureTable:
    """Sparse structure constants of a finite-dimensional *-algebra.

    e_a[i] e_b[i] contributes w[i] e_c[i]; e_s[i]* contributes sw[i] e_t[i]
    (the star is conjugate-linear in the coefficients). The arrays are
    read-only, since one table may be shared by every user of its algebra;
    so its associativity defect is kept on it once taken, and so are its
    Wedderburn solves (``solved``, per tol). A gathered defect of
    more than one pass of triples also keeps ``generators``: a set S of
    which every basis element is a product ((g1 g2) ...) gk, read from
    the pattern of the table (:func:`_generating_set`), so that a twisted
    table has those of its untwisted groupoid table. Light's test and
    :meth:`hom_defect` scan only the pairs with a factor in S.
    """

    __slots__ = ("dim", "a", "b", "c", "w", "s", "t", "sw", "_assoc",
                 "generators", "solved")

    def __init__(self, dim, a, b, c, w, s, t, sw):
        self.dim = int(dim)
        self.a, self.b, self.c, self.s, self.t = (
            np.asarray(v, dtype=np.int64).reshape(-1) for v in (a, b, c, s, t))
        self.w = np.asarray(w, dtype=complex).reshape(-1)
        self.sw = np.asarray(sw, dtype=complex).reshape(-1)
        for v in (self.a, self.b, self.c, self.w, self.s, self.t, self.sw):
            v.flags.writeable = False
        self._assoc = None
        self.generators = None
        self.solved = {}

    def mul(self, x, y) -> np.ndarray:
        """x y of two coefficient vectors, or row by row of two stacks of
        (k, dim) rows."""
        return self._rows(self.c, self.w * x[..., self.a] * y[..., self.b])

    def star(self, x) -> np.ndarray:
        """x* of a coefficient vector, or of each of (k, dim) rows."""
        return self._rows(self.t, self.sw * np.conj(x[..., self.s]))

    def _rows(self, index, values) -> np.ndarray:
        """values[..., i] added at index[i] of a coefficient vector, one
        vector per leading index of ``values``."""
        lead = values.shape[:-1]
        k = int(np.prod(lead))
        flat = (np.arange(k)[:, None] * self.dim + index).ravel()
        return _scatter(flat, values.reshape(-1), k * self.dim).reshape(
            *lead, self.dim)

    def left(self, x) -> np.ndarray:
        """Dense matrix of y -> x y."""
        n = self.dim
        return _scatter(self.c * n + self.b, self.w * x[self.a],
                        n * n).reshape(n, n)

    def left_stack(self) -> np.ndarray:
        """(dim, dim, dim) array whose slice [a] is the matrix of e_a."""
        n = self.dim
        return _scatter((self.a * n + self.c) * n + self.b, self.w,
                        n ** 3).reshape(n, n, n)

    def hom_defect(self, other: "StructureTable", U, generators=None,
                   tol: float = 0.0):
        """(max |coefficient difference| between U(e_x e_g) and
        U(e_x) U(e_g) over all basis pairs, the lexicographically first
        (x, g) of that largest difference or None), for the linear map U
        into the algebra of ``other`` whose column j is the image of e_j.

        With ``generators``, a set S of which every basis element is a
        product ((g1 g2) ...) gk in this table (:attr:`generators`), the
        pairs (x, g) with g in S are scanned first, over every x,
        composable or not, and a residual of at most ``tol`` there is the
        result. That decides every pair when both tables are associative,
        which the caller certifies, and every weight here is nonzero: for
        y = y' g with e_y' e_g = l e_y, l != 0, by induction on the word
        of y, l U(e_x e_y) = U((e_x e_y') e_g) = U(e_x e_y') U(e_g) =
        U(e_x) U(e_y') U(e_g) = l U(e_x) U(e_y), the map analogue of
        Light's test (module docstring). A larger residual, or no S,
        takes the scan with every basis element as g
        (:meth:`_generator_hom_defect`)."""
        rows, cols = np.nonzero(U)
        vals = U[rows, cols]
        scans = [np.arange(self.dim)]
        if generators is not None and np.all(self.w != 0):
            scans.insert(0, generators)
        for gens in scans:
            res = self._generator_hom_defect(other, rows, cols, vals, gens)
            if res[0] <= tol:
                break
        return res

    def _generator_hom_defect(self, other, rows, cols, vals, gens):
        """:meth:`hom_defect` over the pairs (x, g), g in ``gens``, for U
        given by its nonzero entries (rows, cols, vals): in passes over
        consecutive ranges of gens, each of about _TRIPLES_PER_PASS terms.
        Every term of one entry has the same g, so each difference is
        summed in a single pass, term by term in table order; of equal
        largest differences, the lexicographically first (x, g) is kept."""
        is_gen = np.zeros(self.dim, dtype=bool)
        is_gen[gens] = True
        i = np.flatnonzero(is_gen[self.b])  # table entries e_x e_g
        q = np.flatnonzero(is_gen[cols])  # U entries of generator columns
        touched = np.zeros(other.dim, dtype=bool)
        touched[rows[q]] = True
        p = np.flatnonzero(touched[other.b])  # e_P e_Q, Q a row of those
        # terms per generator: U(e_x e_g), then U(e_x) U(e_g)
        per_q = np.bincount(other.b[p], np.bincount(
            rows, minlength=other.dim)[other.a[p]], other.dim)
        load = (np.bincount(self.b[i], np.bincount(
            cols, minlength=self.dim)[self.c[i]], self.dim)
            + np.bincount(cols[q], per_q[rows[q]], self.dim))[gens]
        part = np.zeros(self.dim, np.int64)
        part[gens] = np.cumsum(load) // _TRIPLES_PER_PASS
        by_col = np.argsort(cols, kind="stable")
        by_row = np.argsort(rows, kind="stable")
        # the table entries and U entries of each pass, in entry order;
        # part[gens] does not decrease, and each later pass starts a run
        runs = part[gens]
        later = runs[1:][np.diff(runs) > 0]
        i, q = (v[np.argsort(part[key[v]], kind="stable")]
                for v, key in ((i, self.b), (q, cols)))
        best = (0.0, None)
        for e, n in zip(np.split(i, np.searchsorted(part[self.b[i]], later)),
                        np.split(q, np.searchsorted(part[cols[q]], later))):
            # entry e makes e_c, U maps e_c by entry j
            x, j = _join(self.c[e], cols, by_col)
            e = e[x]
            # U entry n in a generator column of this pass, in row Q;
            # entry t multiplies e_P e_Q; U entry m lies in row P
            t, y = _join(other.b[p], rows[n])
            t, n = p[t], n[y]
            z, m = _join(other.a[t], rows, by_row)
            t, n = t[z], n[z]
            res = _defect((self.a[e], self.b[e], rows[j],
                           self.w[e] * vals[j]),
                          (cols[m], cols[n], other.c[t],
                           vals[m] * vals[n] * other.w[t]),
                          max(self.dim, other.dim))
            if res[0] > best[0] or res[0] == best[0] > 0 and res[1] < best[1]:
                best = res
        return best

    def star_hom_defect(self, other: "StructureTable", U):
        """(max |coefficient difference| between U(e_s*) and U(e_s)*,
        (s,) of that entry or None), for U as in :meth:`hom_defect`."""
        rows, cols = np.nonzero(U)
        vals = U[rows, cols]
        i, k = _join(self.t, cols)  # e_s* has e_t, U maps e_t by k
        p, m = _join(other.s, rows)  # star entry p of e_P, U entry m in row P
        return _defect((self.s[i], rows[k], self.sw[i] * vals[k]),
                       (cols[m], other.t[p], np.conj(vals[m]) * other.sw[p]),
                       max(self.dim, other.dim))

    def associativity_defect(self):
        """(max |coefficient difference| between (e_a e_b) e_k and
        e_a (e_b e_k) over all basis triples, (a, b, k) of the first such
        entry in basis order, or None), in passes of _TRIPLES_PER_PASS
        triples: gathered as |w(a,b) w(ab,k) - w(b,k) w(a,bk)|, or the
        larger modulus where the sides differ in basis element (with every
        weight 1: 1.0 where they differ, and no products), on tables of
        the pattern below, sorted on any other; by Light's test where
        it applies (module docstring). Kept on the table."""
        if self._assoc is None:
            self._assoc = self._associativity_defect()
        return self._assoc

    def _associativity_defect(self):
        n, a, b, c = self.dim, self.a, self.b, self.c
        # r(b): the first a with an entry (a, b); s(a) = r(b) (n, n + 1:
        # none). Gathers take one entry for each pair with s(a) = r(b) and
        # no other, and s(c) = s(b), r(c) = r(a), so that both sides of
        # every triple exist; the row of a lists e_a e_b = W e_P at the
        # slots off[a] + rpos[b], b of label s(a) in basis order
        r, s = np.full(n, n), np.full(n, n + 1)
        np.minimum.at(r, b, a)
        s[a] = r[b]
        L = PairLayout(s, r)
        e = None if np.any((s[a] != r[b]) | (s[c] != s[b])
                           | (r[c] != r[a])) else L.place(a, b)
        if e is None:
            return self._sorted_associativity_defect()
        A, B, P, W = a, b, c, self.w
        if np.any(e != np.arange(len(e))):  # each entry in its place
            order = np.empty_like(e)
            order[e] = np.arange(len(e))
            A, B, P, W = (v[order] for v in (a, b, c, self.w))
        off, rpos = L.off, L.rpos
        width = np.diff(off)  # row length of a
        # slot q = (a, b) starts the triples (a, b, k), k over the row of
        # b: (b, k) is at off[b] + rpos[k], (a b, k) at off[a b] + rpos[k]
        # and (a, b k) at q - rpos[b] + rpos[b k]
        rpos_p = rpos[P]
        ones = bool(np.all(W == 1))

        def scan(slots):  # the triples of the given slots, in passes
            tri = np.concatenate(([0], np.cumsum(width[B[slots]])))
            cuts = np.concatenate(([0], np.flatnonzero(np.diff(
                tri[:-1] // _TRIPLES_PER_PASS)) + 1, [len(slots)]))
            best = (0.0, None)
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                q = slots[lo:hi]
                runs = width[B[q]]
                first = tri[lo:hi] - tri[lo]  # first triple of each slot
                bk = np.repeat(off[B[q]] - first, runs) + np.arange(
                    tri[hi] - tri[lo])
                left = bk + np.repeat(off[P[q]] - off[B[q]], runs)
                right = np.repeat(q - rpos[B[q]], runs) + rpos_p[bk]
                moved = P[left] != P[right]
                if ones:  # both sides weigh 1: off by 1 exactly where moved
                    res = moved.astype(float)
                else:
                    lw = np.repeat(W[q], runs)  # in place: few temporaries
                    lw *= W[left]
                    rw = W[bk]
                    rw *= W[right]
                    apart = np.maximum(np.abs(lw[moved]), np.abs(rw[moved]))
                    res = np.abs(np.subtract(lw, rw, out=lw))
                    res[moved] = apart
                if res.max(initial=0.0) > best[0]:
                    t = int(np.argmax(res))
                    qa = q[int(np.searchsorted(first, t, "right")) - 1]
                    best = (float(res[t]),
                            (int(A[qa]), int(B[qa]), int(B[bk[t]])))
            return best

        if width[B].sum() > _TRIPLES_PER_PASS:
            # generators of the pattern, shared with the untwisted table
            self.generators = _generating_set(L, P)
            if ones:  # Light's test
                light = scan(np.flatnonzero(np.isin(B, self.generators)))
                if light[0] == 0.0:
                    return light
        return scan(np.arange(len(B)))

    def _sorted_associativity_defect(self):
        """:meth:`associativity_defect` of any table: the terms of both
        sides are summed per (a, b, k, basis element) by a sort."""
        n = self.dim
        # terms of both sides per first factor a
        load = np.bincount(self.a, np.bincount(self.a, minlength=n)[self.c]
                           + np.bincount(self.c, minlength=n)[self.b], n)
        part = (np.cumsum(load) // _TRIPLES_PER_PASS)[self.a]
        best = (0.0, None)
        for sel in (np.flatnonzero(part == k)
                    for k in np.unique(part, return_counts=True)[0]):
            # (e_a e_b) e_k: entry i makes e_m, entry j multiplies e_m by e_k
            i, j = _join(self.c[sel], self.a)
            # e_a (e_b e_k): entry q makes e_m, entry p multiplies e_a by e_m
            p, q = _join(self.b[sel], self.c)
            i, p = sel[i], sel[p]
            res = _defect((self.a[i], self.b[i], self.b[j], self.c[j],
                           self.w[i] * self.w[j]),
                          (self.a[p], self.a[q], self.b[q], self.c[p],
                           self.w[q] * self.w[p]), n)
            best = max(best, res, key=lambda r: r[0])  # ties keep the first
        return best

    def involution_defect(self):
        """(max |coefficient difference| between e_s** and e_s, (s,) of
        that entry or None)."""
        i, j = _join(self.t, self.s)  # e_s* has e_t; entry j stars e_t
        ids = np.arange(self.dim)
        return _defect((self.s[i], self.t[j],
                        np.conj(self.sw[i]) * self.sw[j]),
                       (ids, ids, np.ones(self.dim)), self.dim)

    def antimultiplicative_defect(self):
        """(max |coefficient difference| between (e_a e_b)* and e_b* e_a*,
        (a, b) of that entry or None)."""
        # (e_a e_b)*: entry i makes e_m, star entry j sends e_m to e_n
        i, j = _join(self.c, self.s)
        # e_b* e_a*: star entries p (of e_b) and q (of e_a) give the first
        # and second factor of entry r
        r, p = _join(self.a, self.t)
        k, q = _join(self.b[r], self.t)
        r, p = r[k], p[k]
        return _defect((self.a[i], self.b[i], self.t[j],
                        np.conj(self.w[i]) * self.sw[j]),
                       (self.s[q], self.s[p], self.c[r],
                        self.sw[p] * self.sw[q] * self.w[r]), self.dim)


class AlgebraElement:
    """A complex-valued function on the arrows of a fixed groupoid."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base: FiniteGroupoid, coeffs):
        self.base = base
        c = np.asarray(coeffs, dtype=complex)
        if c.shape != (len(base.arrows),):
            raise ValueError(f"coefficient vector has shape {c.shape}, "
                             f"expected ({len(base.arrows)},)")
        self.coeffs = c

    @classmethod
    def zero(cls, base):
        return cls(base, np.zeros(len(base.arrows), dtype=complex))

    @classmethod
    def delta(cls, base, g, weight=1.0):
        c = np.zeros(len(base.arrows), dtype=complex)
        c[base.index[g]] = weight
        return cls(base, c)

    @classmethod
    def from_dict(cls, base, mapping):
        c = np.zeros(len(base.arrows), dtype=complex)
        for g, v in mapping.items():
            c[base.index[g]] = v
        return cls(base, c)

    def __getitem__(self, g):
        return self.coeffs[self.base.index[g]]

    def __add__(self, other):
        _same_base(self, other)
        return AlgebraElement(self.base, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _same_base(self, other)
        return AlgebraElement(self.base, self.coeffs - other.coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return convolve(self, other)
        return AlgebraElement(self.base, self.coeffs * complex(other))

    def __rmul__(self, scalar):
        return AlgebraElement(self.base, self.coeffs * complex(scalar))

    def star(self):
        return involute(self)

    def norm(self):
        return cstar_norm(self.base, self)

    def __repr__(self):
        support = sum(1 for v in self.coeffs if abs(v) > 0)
        return f"AlgebraElement(support {support}/{len(self.coeffs)})"


def _same_base(f1, f2):
    if f1.base is not f2.base:
        raise BaseMismatch("elements live on different groupoids")


def convolve(f1: AlgebraElement, f2: AlgebraElement) -> AlgebraElement:
    _same_base(f1, f2)
    return AlgebraElement(f1.base,
                          f1.base.table.mul(f1.coeffs, f2.coeffs))


def involute(f: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(f.base, f.base.table.star(f.coeffs))


def random_element(G: FiniteGroupoid, rng) -> AlgebraElement:
    """Independent standard complex Gaussian coefficients."""
    n = len(G.arrows)
    return AlgebraElement(G, rng.standard_normal(n) + 1j * rng.standard_normal(n))


class RegularRepresentation:
    """Left regular representation of the algebra of a structure table,
    one block per summand.

    Basis element j lies in summand ``summand[j]`` >= 0, whose block acts
    on the span of its basis elements in basis order. The block of x takes
    w x[a] at (row, col) for each of the ``entries`` (a, row, col, w) with
    row and col in one summand; by default these are the table entries
    (a, c, b, w) of e_a e_b = w e_c, and a basis that the block's inner
    product does not make orthonormal passes its entries in orthonormal
    coordinates (``SectionSpace``). Blocks of one size are scattered into
    one stack; no dim x dim matrix is formed. With a groupoid for
    ``summand`` (of which it keeps the arrow names, ``arrows``, and the
    source of each arrow, ``src_idx``), basis element j lies over the arrow
    ``over[j]`` (by default arrow j) and in the summand of its source
    unit; a groupoid for ``table`` stands for its untwisted table and
    itself. The checks that its blocks form a faithful *-representation,
    :meth:`star_defect` and :meth:`slice_margin`, are kept on it.
    """

    def __init__(self, table, summand=None, entries=None, over=None):
        if isinstance(table, FiniteGroupoid):
            table, summand = table.table, table
        self.arrows = self.src_idx = self.over = None
        if isinstance(summand, FiniteGroupoid):  # by source unit
            self.arrows, self.src_idx = summand.arrows, summand.src_idx
            self.over = np.arange(table.dim) if over is None \
                else np.asarray(over, dtype=np.int64)
            unit = np.zeros(len(summand.arrows), dtype=np.int64)
            unit[summand.unit_idx] = np.arange(len(summand.unit_idx))
            summand = unit[summand.src_idx[self.over]]
        self.table = T = table
        self._star = self._margin = None
        self.summand = summand = np.asarray(summand, dtype=np.int64)
        self.sizes, pos = _ranks(summand)  # pos: place in the block
        widths, group = np.unique(self.sizes, return_inverse=True)
        _, at = _ranks(group)  # place of a summand in its size group
        # entry (i, j) of a block lies at row_at[i] + col_at[j] of the flat
        # stack of its size group
        m = self.sizes[summand]
        row_at, col_at = pos * m, at[summand] * m * m + pos
        group = group[summand]

        def place(rows, cols):  # (size group or -1, flat index)
            return (np.where(summand[rows] == summand[cols], group[cols], -1),
                    row_at[rows] + col_at[cols])

        self.entries = a, rows, cols, w = (T.a, T.c, T.b, T.w) \
            if entries is None else entries
        e_group, e_at = place(rows, cols)
        self._groups = []
        for g, m in enumerate(widths.tolist()):
            if not m:
                continue
            e = np.flatnonzero(e_group == g)
            self._groups.append((np.flatnonzero(self.sizes == m), m, a[e],
                                 w[e], e_at[e]))

    def stacks(self, f):
        """Yield (summands, S) per block size, S[i] the block of f (an
        AlgebraElement or a coefficient vector) on summands[i]."""
        x = np.asarray(getattr(f, "coeffs", f))
        for members, _, S in self._row_stacks(x[None]):
            yield members, S[0]

    def _row_stacks(self, X):
        """Yield (summands, rows, S) per block size and chunk of the (k,
        dim) coefficient rows X (:func:`chunks`): S[r, i] is the block of
        X[rows[r]] on summands[i]."""
        for members, m, a, w, flat in self._groups:
            size = len(members) * m * m
            for rows in chunks(np.full(len(X), size + len(a))):
                yield members, rows, _scatter(
                    (np.arange(len(rows))[:, None] * size + flat).ravel(),
                    (w * X[rows[:, None], a]).ravel(),
                    len(rows) * size).reshape(len(rows), -1, m, m)

    def matrices(self, f) -> list:
        """The block of f on every nonempty summand, in summand order."""
        out = {u: M for members, S in self.stacks(f)
               for u, M in zip(members.tolist(), S)}
        return [out[u] for u in sorted(out)]

    def norms(self, X) -> np.ndarray:
        """Operator norms of the (k, dim) coefficient rows X: the largest
        :func:`spectral_norms` over the blocks of a row, one scatter and
        one batched kernel call per block size and chunk of rows."""
        X = np.asarray(X)
        out = np.zeros(len(X))
        for _, rows, S in self._row_stacks(X):
            out[rows] = np.maximum(out[rows], spectral_norms(S).max(axis=1))
        return out

    def norm(self, f) -> float:
        """Operator norm of f (an AlgebraElement or a coefficient vector):
        the one-row case of :meth:`norms`."""
        return float(self.norms(np.asarray(getattr(f, "coeffs", f))[None])[0])

    def star_defect(self):
        """(largest |entry difference| between the block of e_s conjugate
        transposed and the block of e_s* = sum of sw e_t, over the star
        entries (s, t, sw) of the table, (s, row) of that entry or None):
        zero exactly when the block of every x* is the adjoint of the block
        of x, since both sides are conjugate-linear in x. One join of the
        star entries with the block entries; kept on the rep."""
        if self._star is None:
            a, rows, cols, w = self.entries
            keep = self.summand[rows] == self.summand[cols]
            a, rows, cols, w = a[keep], rows[keep], cols[keep], w[keep]
            T = self.table
            j, e = _join(T.t, a)  # e_s* has sw e_t; e is a block entry of e_t
            self._star = _defect((a, cols, rows, np.conj(w)),
                                 (T.s[j], rows[e], cols[e], T.sw[j] * w[e]),
                                 T.dim)
        return self._star

    def slice_margin(self):
        """(smallest singular value of the unit-column slices, the cut it
        must clear, the arrow of ``base`` where it is smallest), kept on
        the rep; (inf, cut, None) without a nonempty fiber.

        The slice of the arrow h has a row per basis element over h and a
        column per (row, col) over (h, s(h)), and takes the weight w of
        every entry (a, row, col, w) there: the part of the representation
        that maps the unit fiber over s(h) into the fiber over h. Only the
        basis elements over h reach those columns, so full-rank slices
        make the representation injective; an entry of another arrow there
        sets the margin of its slice to 0. On a groupoid table each slice
        is the 1 x 1 coefficient of e_h in e_h e_s(h), and together they
        are the slice of :func:`faithfulness_defect`. The cut is the
        threshold that ``matrix_rank`` applies to the whole (dim, dim^2)
        stack, taken with sigma_max <= sum |w|. A slice has at least as
        many columns as rows, so when no column of any slice holds two
        entries (an exact integer test) S S* is diagonal and sigma_min is
        the smallest row norm of the slice; otherwise one batched SVD per
        slice shape and chunk."""
        if self._margin is None:
            src, over, n = self.src_idx, self.over, self.table.dim
            a, rows, cols, w = self.entries
            cut = float(np.abs(w).sum()) * n * n * np.finfo(float).eps
            dims = np.bincount(over, minlength=len(src))
            loc = _ranks(over)[1]  # place over its arrow
            on = np.flatnonzero(over[cols] == src[over[rows]])
            a, rows, cols, w = a[on], rows[on], cols[on], w[on]
            h, du = over[rows], dims[src]
            col = np.sort(rows * n + cols)  # slice columns: (row, col)
            if np.all(col[1:] != col[:-1]):
                own = over[a] == h  # the row norms of basis elements
                sigma = np.full(len(dims), np.inf)
                np.minimum.at(sigma, over, np.sqrt(np.bincount(
                    a[own], np.abs(w[own]) ** 2, n)))
            else:
                sigma = np.zeros(len(dims))
                for owners, s in stacked_singular_values(
                        h, loc[a], loc[rows] * du[h] + loc[cols], w,
                        (dims, dims * du)):
                    sigma[owners] = s[:, -1]
            sigma[h[over[a] != h]] = 0.0
            live = np.flatnonzero(dims > 0)
            k = int(live[np.argmin(sigma[live])]) if len(live) else None
            self._margin = (np.inf if k is None else float(sigma[k]), cut, k)
        return self._margin

    def describe(self, j) -> str:
        """Basis element j as (h=its arrow, e=its place over h)."""
        place = int(np.count_nonzero(self.over[:j] == self.over[j]))
        return f"(h={self.arrows[self.over[j]]!r}, e={place})"


def _regular(G: FiniteGroupoid) -> RegularRepresentation:
    if G._rep is None:  # built once per groupoid, like its table
        G._rep = RegularRepresentation(G)
    return G._rep


def cstar_norm(G: FiniteGroupoid, f: AlgebraElement) -> float:
    return _regular(G).norm(f)


def isometry_certificate(measured, sides, tol: float):
    """(passed, residual, witness) of the claim that a linear map U from
    the algebra of one representation onto that of another keeps the
    operator norm of every element, certified from hypotheses measured
    over the whole basis instead of from sampled norms.

    An injective *-homomorphism between C*-algebras is isometric (Murphy
    1990, *C*-algebras and Operator Theory*, Thm 3.1.5), and a
    finite-dimensional *-algebra has only one C*-norm. So ||rho_B(U x)|| =
    ||rho_A(x)|| for every x once U is bijective and a *-homomorphism and
    each rho is a faithful *-representation; a representation is a
    homomorphism exactly when its table is associative. ``sides`` holds
    (label, rep) of the two representations: this measures
    ``star_rep(label)`` (:meth:`RegularRepresentation.star_defect`) and
    ``faithful(label)`` (:meth:`RegularRepresentation.slice_margin`,
    residual 0.0 when the margin clears its cut). ``measured`` holds
    (name, residual, witness) of what the caller measured or cites:
    bijectivity, the defects of U, the associativity of each table and
    any check of the coordinates of a representation; residual None marks
    a hypothesis decided false.

    Residual and witness follow :func:`certificate`, over the hypotheses
    in the order of ``measured`` and then of ``sides``.
    """
    hypotheses = list(measured)
    for label, rep in sides:
        hypotheses.append(star_rep_hypothesis(label, rep))
        margin, cut, h = rep.slice_margin()
        hypotheses.append((f"faithful({label})", 0.0 if margin > cut
                           else None, f"sigma_min {margin:.3e} <= cut "
                           f"{cut:.3e} over {rep.arrows[h]!r}"
                           if h is not None else None))
    return certificate(hypotheses, tol)


def block_bijectivity(U, row_block, col_block):
    """(passed, residual, witness) of "U is bijective" for a U whose
    nonzero entries all lie in the blocks U[row_block == b][:, col_block
    == b]: U is block-diagonal up to an order of rows and columns, so its
    singular values are its blocks', one batched SVD per block shape
    (:func:`stacked_singular_values`), and its rank is the number above
    numpy's ``matrix_rank`` cut of U, sigma_max max(U.shape) eps. It
    passes, residual 0.0, when U is square of full rank; else the witness
    is its rank."""
    rb, cb = (np.asarray(v, np.int64) for v in (row_block, col_block))
    k = int(max(rb.max(initial=-1), cb.max(initial=-1))) + 1
    rows, cols = np.nonzero(U)
    sv = np.concatenate([np.zeros(0)] + [s.ravel() for _, s in
                         stacked_singular_values(
                             rb[rows], _ranks(rb)[1][rows],
                             _ranks(cb)[1][cols], U[rows, cols],
                             (np.bincount(rb, minlength=k),
                              np.bincount(cb, minlength=k)))])
    rank = int(np.count_nonzero(
        sv > sv.max(initial=0.0) * max(U.shape) * np.finfo(float).eps))
    ok = rank == U.shape[0] == U.shape[1]
    return ok, 0.0 if ok else None, None if ok else (
        f"rank {rank} of a {U.shape[0]} x {U.shape[1]} map")


def map_defects(D: StructureTable, T: StructureTable, U, names, associative,
                tol: float):
    """The entries (passed, residual, witness) "U is multiplicative" and
    "U is star-preserving" of the map U from the algebra of ``D`` into
    that of ``T``, column j the image of e_j, named ``names[j]``: the
    defects of :meth:`StructureTable.hom_defect`, with the generators D
    keeps exactly when the hypotheses (name, residual, witness) that make
    both tables associative pass their :func:`certificate`, and of
    :meth:`StructureTable.star_hom_defect`. A failure names the pair
    (x, g) or the element s of its largest difference, a pass nothing."""
    gens = D.generators if certificate(associative, tol)[0] else None
    res, pair = D.hom_defect(T, U, gens, tol)
    res_star, s = D.star_hom_defect(T, U)
    return ((res <= tol, res, None if res <= tol else
             f"({names[pair[0]]!r}, {names[pair[1]]!r})"),
            (res_star <= tol, res_star, None if res_star <= tol else
             repr(names[s[0]])))


def star_rep_hypothesis(label: str, rep: RegularRepresentation) -> tuple:
    """("star_rep(label)", residual, witness) of
    :meth:`RegularRepresentation.star_defect`: the blocks of ``rep`` form
    a *-representation of its table."""
    res, entry = rep.star_defect()
    return (f"star_rep({label})", res, None if entry is None else
            f"{rep.describe(entry[0])} at row {rep.describe(entry[1])}")


def certificate(hypotheses, tol: float):
    """(passed, residual, witness) of a claim proved from ``hypotheses``,
    each (name, residual, witness) with residual None for one decided
    false. The residual is the largest of the residuals, or None with one
    decided false, and the claim passes when it is at most ``tol``. A
    failure names the hypothesis, "name: witness": the first one decided
    false, else the first with the largest residual."""
    failed = [h for h in hypotheses if h[1] is None]
    name, res, witness = failed[0] if failed else max(
        hypotheses, key=lambda h: h[1])  # the first of the largest
    passed = res is not None and res <= tol
    return passed, res, None if passed else f"{name}: {witness}"


def positivity_check(G: FiniteGroupoid, f: AlgebraElement,
                     tol: float = 1e-9) -> bool:
    """True iff every regular-representation block of the self-adjoint f
    has spectrum >= -tol * ||f||; the first failing unit decides. f counts
    as self-adjoint within that cut, or within the rounding of a product
    of elements (dim * eps * ||f||), whichever is larger."""
    rep = _regular(G)
    k = len(rep.sizes)
    scale, herm, low = 0.0, np.zeros(k), np.full(k, np.inf)
    for units, S in rep.stacks(f):
        scale = max(scale, float(spectral_norms(S).max()))
        herm[units] = np.abs(S - S.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        low[units] = np.linalg.eigvalsh(S).min(axis=1)
    cut = tol * max(scale, 1.0)
    guard = max(cut, rep.table.dim * np.finfo(float).eps * max(scale, 1.0))
    bad = np.flatnonzero((herm > guard) | (low < -cut))
    if len(bad) and herm[bad[0]] > guard:
        raise ValueError(f"element is not self-adjoint "
                         f"(defect {float(herm[bad[0]]):.3e})")
    return not len(bad)


def faithfulness_defect(G: FiniteGroupoid):
    """(dim ker of f -> lambda(f), the smallest singular value of the
    unit-column slice below): (0, 1.0) on every valid groupoid, (0, 0.0)
    on the empty one.

    The slice is the n x n part of ``left_stack`` at the columns (c, s(c)):
    entry [a, c] is the coefficient of e_c in e_a e_s(c), which is the
    identity on a valid groupoid table; it is read, with its margin and
    cut, by :meth:`RegularRepresentation.slice_margin` of the regular
    representation. rank(M) >= rank(M[:, S]) for any column set S, so a
    full-rank slice proves the defect is zero; only a slice below the cut
    pays for the rank of the whole (dim, dim^2) stack.
    """
    n = len(G.arrows)
    defect, margin = 0, 0.0
    if n:
        rep = _regular(G)
        margin, cut, _ = rep.slice_margin()
        if not margin > cut:
            defect = n - int(np.linalg.matrix_rank(
                rep.table.left_stack().reshape(n, -1)))
    return defect, margin


def conditional_expectation(G: FiniteGroupoid, K, f: AlgebraElement,
                            embed: bool = False):
    """Restrict coefficients to an open subgroupoid K with the same units.

    K may be a FiniteGroupoid, whose src, rng, inv and composition must
    be G's through the inclusion (:func:`~gpdkit.groupoid.inclusion`), or
    an arrow collection. Returns an element of K, or of G supported on K
    when ``embed`` is set.
    """
    if f.base is not G:
        raise BaseMismatch("element does not live on G")
    sub = K if isinstance(K, FiniteGroupoid) else subgroupoid(G, K)
    ids = inclusion(G, sub)
    if embed:
        out = np.zeros(len(G.arrows), dtype=complex)
        out[ids] = f.coeffs[ids]
        return AlgebraElement(G, out)
    return AlgebraElement(sub, f.coeffs[ids])


@dataclass(frozen=True)
class WedderburnInvariants:
    """Matrix block sizes of a finite-dimensional C*-algebra, sorted
    descending; sum of squares equals the dimension and the number of
    blocks equals the center dimension.

    The margins ``central_gap`` and ``central_spread`` of the solve
    (:func:`central_projections`; None and 0.0 when no solve ran) are kept
    beside the invariants and left out of equality."""
    blocks: tuple
    dimension: int
    center_dimension: int
    central_gap: Optional[float] = field(default=None, compare=False)
    central_spread: float = field(default=0.0, compare=False)


def _linked_columns(row, col, ncols: int) -> np.ndarray:
    """Connected-component label of every column, where the entries
    (row[i], col[i]) link the columns that share a row: min-label
    propagation through the rows with pointer jumping. A label is the
    smallest column of its component."""
    label = np.arange(ncols)
    low = np.empty(int(row.max()) + 1, dtype=np.int64)
    while True:
        low.fill(ncols)
        np.minimum.at(low, row, label[col])
        new = label.copy()
        np.minimum.at(new, col, low[row])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def sparse_center_basis(dim: int, products: dict, tol: float = 1e-9) -> np.ndarray:
    """:func:`center_basis` of an algebra given by a dict of sparse
    structure constants products[(i, j)] = {k: coeff}."""
    terms = [(i, j, k, c) for (i, j), expansion in products.items()
             for k, c in expansion.items()]
    a, b, k, w = zip(*terms) if terms else ((),) * 4
    return center_basis(StructureTable(dim, a, b, k, w, [], [], []), tol)


def center_basis(table: StructureTable, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal (k, dim) rows spanning the center of the algebra of
    ``table``: the null space of its commutator constraints.

    Repeated (a, b, c) entries are summed and zero sums dropped. The
    constraint matrix has one row per (basis element, output) pair. A row
    only joins the basis elements that one product links, so the matrix is
    block diagonal over the connected components of columns that share a
    row (for groupoid tables: the conjugacy classes of the isotropy). The
    rows come component by component, in order of smallest column.

    Where every row holds at most one term of each side (the tables of
    groupoids, twisted groupoids and groups, where x e_b and e_b x each
    have one term at a given output), each component is read from the
    table by :func:`_phase_center`: a class sum with cocycle phases, or
    nothing (Karpilovsky 1985, *Projective Representations of Finite
    Groups*: the center of a twisted group algebra is spanned by the sums
    over the omega-regular classes). Every other table takes
    :func:`_svd_center`. The rows are those of :func:`_center_entries`.
    """
    k, j, a, v = _center_entries(table, tol)
    out = np.zeros((k, table.dim), dtype=complex)
    out[j, a] = v
    return out


def _center_entries(table: StructureTable, tol: float = 1e-9):
    """(k, j, a, value): the k rows of :func:`center_basis`, c_j[a] = value
    once per (j, a), with no dense (k, dim) array."""
    n = table.dim
    key = (table.a * n + table.b) * n + table.c
    if np.all(key[1:] > key[:-1]):  # nothing to sum (groupoid tables)
        w = table.w
    else:
        key, slot = np.unique(key, return_inverse=True)
        w = _scatter(slot, table.w, len(key))
    key, w = key[w != 0], w[w != 0]
    if not len(key):
        return n, np.arange(n), np.arange(n), np.ones(n, dtype=complex)
    a, b, k = key // (n * n), key // n % n, key % n
    # row (b, k) of [x, e_b] takes w at column a (the x e_b term); row
    # (a, k) of [x, e_a] takes -w at column b (the e_a x term)
    rows = np.concatenate([b * n + k, a * n + k])
    if n * n <= 4 * len(rows):  # numbered in key order with no sort
        row = (np.cumsum(np.bincount(rows, minlength=n * n) > 0) - 1)[rows]
    else:
        row = np.unique(rows, return_inverse=True)[1]
    col, val = np.concatenate([a, b]), np.concatenate([w, -w])
    label = _linked_columns(row, col, n)
    m = len(key)
    if np.bincount(row[:m]).max() <= 1 and np.bincount(row[m:]).max() <= 1:
        return _phase_center(row, col, val, label, tol)
    return _svd_center(row, col, val, label, tol)


def _phase_center(row, col, val, label, tol: float):
    """:func:`center_basis` where each constraint row holds at most one
    term per side: a row of two terms fixes the ratio of its two columns,
    and a row of one term (or of two at one column) asks its column's
    coefficient times its weight to vanish. So a component spans one line
    or none. Phases are propagated from the component's smallest column,
    set to 1, along the rows of two terms, in rounds that each set the
    columns one row away from a set one; the component is dropped when
    some row leaves a residual |sum of weight times phase| above the cut
    of :func:`_svd_center`, with the root of the largest sum of squared
    weights over a column's entries in place of the largest singular
    value (at least 1/sqrt(2) of it where the weights have one modulus).
    With every weight 1 each residual is 0 or 1. A kept component gives
    its phases, normalized: a row with a real positive first entry."""
    n, m, nrows = len(label), len(row) // 2, int(row.max()) + 1
    # the entry of each side of every row (the x e_b terms come first)
    side = np.full((2, nrows), -1)
    side[0, row[:m]], side[1, row[m:]] = np.arange(m), np.arange(m, 2 * m)
    p, q = side[:, (side >= 0).all(axis=0)]
    # the rows of two terms both ways: val[p] phi[col[p]] + val[q]
    # phi[col[q]] = 0 sets phi[v] from phi[u]
    p, q = np.concatenate([p, q]), np.concatenate([q, p])
    u, v = col[p], col[q]
    phi = (label == np.arange(n)).astype(complex)
    known = phi != 0
    while len(e := np.flatnonzero(known[u] & ~known[v])):
        first = np.full(n, len(u))
        np.minimum.at(first, v[e], e)  # one row per new column
        new = np.flatnonzero(first < len(u))
        e = first[new]
        phi[new] = -val[p[e]] / val[q[e]] * phi[u[e]]
        known[new] = True
    scale = float(np.sqrt(np.bincount(col, np.abs(val) ** 2, n).max()))
    cut = max(tol * max(scale, 1.0), n * np.finfo(float).eps * scale)
    res = np.abs(_scatter(row, val * phi[col], nrows))
    kept = np.ones(n, dtype=bool)
    kept[label[col[res[row] > cut]]] = False  # by smallest column
    kept = kept[label]
    norm = np.sqrt(np.bincount(label, np.abs(phi) ** 2, n))
    at = np.cumsum(kept & (label == np.arange(n))) - 1
    cols = np.flatnonzero(kept)
    return (int(at[-1]) + 1, at[label[cols]], cols,
            phi[cols] / norm[label[cols]])


def _svd_center(row, col, val, label, tol: float):
    """:func:`center_basis` of any table: the components are scattered into
    one stack per shape and chunk of :func:`chunks`, and each stack takes
    one batched SVD: thin, or full where a component has fewer rows than
    columns, where a thin one would drop null vectors; columns in no row
    are free. Ranks are cut at ``tol`` times the largest singular value
    over every component, which is the largest of the whole matrix, and
    never below dim * eps of it."""
    n = len(label)
    # a column (row) sits at its rank among those of its component, and
    # the components are numbered in order of their smallest column
    comp = np.unique(label, return_inverse=True)[1]
    ncols, pos = _ranks(comp)
    row_comp = np.empty(int(row.max()) + 1, dtype=np.int64)
    row_comp[row] = comp[col]
    nrows = np.bincount(row_comp, minlength=len(ncols))
    rpos = _ranks(row_comp)[1]
    # the components of a shape are consecutive in by_shape, and the
    # entries of consecutive ones in ``entries``
    shapes, shape = np.unique(np.stack([nrows, ncols], 1), axis=0,
                              return_inverse=True)
    count = np.bincount(shape)
    by_shape = np.argsort(shape, kind="stable")
    ecomp = np.argsort(by_shape)[comp[col]]
    entries = np.argsort(ecomp, kind="stable")
    bounds = np.searchsorted(ecomp[entries], np.arange(len(ncols) + 1))
    stacks, smax = [], 0.0
    for (R, C), lo, m in zip(shapes.tolist(), np.cumsum(count) - count, count):
        for part in chunks(np.full(m, R * C)):
            lo_p, cc = lo + part[0], by_shape[lo + part]
            e = entries[bounds[lo_p]:bounds[lo_p + len(part)]]
            S = _scatter((ecomp[e] - lo_p) * R * C + rpos[row[e]] * C
                         + pos[col[e]], val[e], len(cc) * R * C)
            # a free column (R = 0) gets no singular value and vh = 1
            stacks.append((cc, *np.linalg.svd(S.reshape(len(cc), R, C),
                                              full_matrices=R < C)[1:]))
            smax = max(smax, float(stacks[-1][1].max(initial=0.0)))
    cut = max(tol * max(smax, 1.0), n * np.finfo(float).eps * smax)
    rank = np.zeros(len(ncols), dtype=np.int64)
    for cc, sv, _ in stacks:
        rank[cc] = np.sum(sv > cut, axis=1)
    null = ncols - rank
    first_row, first_col = np.cumsum(null) - null, np.cumsum(ncols) - ncols
    cols = np.argsort(comp, kind="stable")  # by component, then column
    out = []
    for cc, _, vh in stacks:
        C = vh.shape[-1]
        i, j = np.nonzero(np.arange(C) >= rank[cc][:, None])
        g = cc[i]
        out.append((np.repeat(first_row[g] + j - rank[g], C),
                    cols[first_col[g][:, None] + np.arange(C)].ravel(),
                    vh[i, j].conj().ravel()))
    return (int(null.sum()), *(np.concatenate(v) for v in zip(*out)))


def wedderburn_from_tables(table: StructureTable, *,
                           tol: float = 1e-9) -> WedderburnInvariants:
    """Block sizes of the C*-algebra of ``table``: d_i^2 = Tr L(e_i) over
    its minimal central projections (:func:`central_projections`, at the
    fixed central element zeta, so that nothing is drawn), or all 1 with
    no solve when the center is the whole algebra. Kept on the table per
    tol (a NumericalDegeneracy is not)."""
    if tol in table.solved:
        return table.solved[tol]
    n, center = table.dim, _center_entries(table, tol)
    if center[0] == n:  # commutative: n blocks of size 1
        inv = WedderburnInvariants((1,) * n, n, n)
    else:
        _, sizes, gap, spread = central_projections(table, center)
        inv = WedderburnInvariants(tuple(sorted(sizes.tolist(), reverse=True)),
                                   n, center[0], gap, spread)
    table.solved[tol] = inv
    return inv


_CENTRAL_CUT = 1e-7  # of each certificate, relative to its scale


def _traces(table: StructureTable) -> np.ndarray:
    """Tr L(e_a) of every basis element: the entries (a, b, b, w)."""
    on = table.b == table.c
    return _scatter(table.a[on], table.w[on], table.dim)


def central_projections(table: StructureTable, center):
    """((i, j, value) terms of the minimal central projections e_i = sum of
    value c_j, numbered like the c_j; block sizes d_i; central_gap;
    central_spread) of the C*-algebra of ``table``, from orthonormal rows
    c_j spanning its center, given as (k, j, a, value) of c_j[a] = value
    (:func:`_center_entries`).

    The class-algebra route (Burnside; Dixon 1967, *High speed computation
    of group characters*, Numer. Math. 10): c_j c_l = sum of g[j, l, m] c_m
    is one scatter over the table entries joined with the nonzeros of the
    c_j (one term per entry for class sums). The left eigenvectors of
    M_z = sum of zeta_j g[j] are f_i = mu_i e_i: one batched eig per size
    of the components of g. zeta is fixed, zeta_j = e^{ij} (j = 1..k), and
    nothing is drawn: by Lindemann-Weierstrass these are linearly
    independent over the algebraic numbers, so two distinct central
    characters with algebraic values on the c_j never share an eigenvalue
    of M_z. Tr L(f) = mu d^2 and Tr L(f^2) = mu^2 d^2 give mu and d^2.
    Certified, each over _CENTRAL_CUT times its scale (NumericalDegeneracy
    names a failure and its margin): the eigen residual |x_i M_z -
    lambda_i x_i|, the unit residual |(sum of e_i) c_l - c_l|, the
    distance of each Tr L(e_i) from a square d_i^2 >= 1 (central_spread),
    and sum of d_i^2 = dim.
    central_gap is the smallest eigenvalue gap within a component over
    the same cut (None without a component of two)."""
    T, (k, cj, ca, cv) = table, center
    # table entry e has c_j at a (center entry p), c_l at b (q), c_m at c (r)
    by_a = np.argsort(ca, kind="stable")
    e, p = _join(T.a, ca, by_a)
    i, q = _join(T.b[e], ca, by_a)
    e, p = e[i], p[i]
    i, r = _join(T.c[e], ca, by_a)
    e, p, q = e[i], p[i], q[i]
    # the terms g of c_j c_l at c_m, summed by every scatter of them
    J, L, M, g = cj[p], cj[q], cj[r], T.w[e] * cv[p] * cv[q] * np.conj(cv[r])
    # c_j is the pos[j]-th member of the component of the c_j, c_l, c_m of
    # each term labelled comp[j] (its smallest j)
    comp = _linked_columns(np.tile(np.arange(len(g)), 3),
                           np.concatenate([J, L, M]), k) if len(g) \
        else np.arange(k)
    width, pos = _ranks(comp)
    first, members = np.cumsum(width) - width, np.argsort(comp, kind="stable")
    # the matrices of the components side by side in one flat stack, by
    # size: that of the component labelled c starts at off[c]
    roots = np.flatnonzero(width)
    roots = roots[np.argsort(width[roots], kind="stable")]
    off = np.zeros(k, np.int64)
    off[roots] = np.cumsum(width[roots] ** 2) - width[roots] ** 2
    s = width[comp]

    def stack(row, col, vals):  # vals of the terms at (row, col)
        return _scatter(off[comp[J]] + pos[row] * s[J] + pos[col], vals,
                        int((width ** 2).sum()))
    tau = _scatter(cj, cv * _traces(T)[ca], k)  # Tr L(c_j)
    zeta = np.exp(1j * np.arange(1, k + 1))
    # the transpose of M_z, whose eigenvectors are the x with x M_z = lam x
    Zt, Q = stack(M, L, zeta[J] * g), stack(J, L, g * tau[M])
    trace, unit, parts = np.zeros(k, complex), np.zeros(k, complex), []
    eig_res, gaps = [np.zeros(1)], [np.full(1, np.inf)]
    for size in np.flatnonzero(np.bincount(width[roots])).tolist():
        o = roots[width[roots] == size]
        at = slice(off[o[0]], off[o[0]] + len(o) * size * size)
        Z, Qs = (v[at].reshape(-1, size, size) for v in (Zt, Q))
        lam, V = np.linalg.eig(Z)
        scale = np.maximum(np.abs(lam).max(axis=1), 1.0) * _CENTRAL_CUT
        eig_res.append(np.abs(Z @ V - V * lam[:, None, :]).max(axis=(1, 2))
                       / scale)
        gaps.append((np.abs(lam[:, :, None] - lam[:, None, :]) + np.diag(
            np.full(size, np.inf))).min(axis=(1, 2)) / scale)
        ids = members[first[o][:, None] + np.arange(size)]
        tr_f = np.einsum("tj,tji->ti", tau[ids], V)  # Tr L(f), Tr L(f^2)
        tr_ff = np.einsum("tji,tjl,tli->ti", V, Qs, V)
        with np.errstate(divide="ignore", invalid="ignore"):
            X = V * (tr_f / tr_ff)[:, None, :]  # e_i = f_i / mu_i
            trace[ids] = tr_f ** 2 / tr_ff
        unit[ids] = X.sum(axis=2)
        parts.append((ids, X))
    U = stack(L, M, unit[J] * g)
    U[off[comp] + pos * (s + 1)] -= 1.0  # the diagonals
    res_unit = float(np.abs(U).max(initial=0.0))
    sizes = np.maximum(np.rint(np.sqrt(np.abs(trace))), 1.0)
    spread = float(np.max(np.abs(trace - sizes ** 2) / sizes ** 2,
                          initial=0.0)) / _CENTRAL_CUT
    for name, ratio in (("eigen residual", np.max(np.concatenate(eig_res))),
                        ("unit residual", res_unit / _CENTRAL_CUT),
                        ("distance of a trace from a perfect square",
                         spread)):
        if not ratio <= 1.0:  # NaN fails too
            raise NumericalDegeneracy(f"minimal central projections not "
                                      f"certified: {name} {ratio:.3e} "
                                      f"times its cut")
    sizes = sizes.astype(np.int64)
    if int((sizes ** 2).sum()) != T.dim:
        raise NumericalDegeneracy(f"sum of squared block sizes "
                                  f"{sorted(sizes.tolist())} != dimension "
                                  f"{T.dim}")
    gap = float(np.min(np.concatenate(gaps)))
    # e_i = sum over j of X[j, i] c_j
    return (tuple(np.concatenate([v.ravel() for v in vs]) for vs in zip(*(
        (np.broadcast_to(ids[:, None, :], X.shape),
         np.broadcast_to(ids[:, :, None], X.shape), X) for ids, X in parts))),
        sizes, gap if np.isfinite(gap) else None, spread)


def wedderburn(G: FiniteGroupoid, *,
               tol: float = 1e-9) -> WedderburnInvariants:
    """Block-size invariants of C*_r(G) for a groupoid, from its table and
    kept on it (:func:`wedderburn_from_tables`)."""
    return wedderburn_from_tables(G.table, tol=tol)
