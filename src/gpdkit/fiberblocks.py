"""Per-arrow numerics of a Fell bundle, in stacked numpy calls.

Left multiplication by x in the fiber E_h maps each fiber E_k with
r(k) = s(h) into E_hk, and distinct k go to distinct hk (Kumjian, *Fell
bundles over groupoids*, 1998). So every norm, spectrum and rank that the
bundle checks of :mod:`gpdkit.bundle` take is one of a small block, at
most the largest fiber dimension across, and blocks of one size are taken
together: one batched :func:`~gpdkit.algebra.spectral_norms`, eigh,
eigvalsh or (ranks) SVD per size and chunk instead of one call per
element, and never a decomposition of a total_dim x total_dim matrix.
The Gram blocks and their roots are kept at that size, d x d for a fiber
of dimension d, never padded to the largest fiber dimension. Where each
basis pair of the table has one product term and the inner-product
tensor no off-diagonal term, as in the bundles of groupoid morphisms, a
rank needs no SVD (:func:`stacked_ranks`), a Gram block is diagonal and
needs no eigh (:meth:`FiberBlocks.gram`), and putting the table into
orthonormal coordinates rescales its weights. Everything is read from
the section table of the bundle (:meth:`gpdkit.bundle.FellBundle.table`)
and the integer tables of its base, whose arrow indices name the arrows.

It also holds, once per bundle, what the norm certificate of
:func:`gpdkit.bundle.verify_axioms` measures: the Gram blocks must be
definite (:meth:`FiberBlocks.gram_margin`), their roots right
(:meth:`FiberBlocks.gram_defect`), and the section representation in
those coordinates (:meth:`FiberBlocks.representation`) a
*-representation. With axioms 3 and 7 and definite unit trace forms,
left multiplication L is then a *-homomorphism, and the norm axioms hold
on every element without a norm taken; the blocks below serve the checks
of a bundle that fails one of these.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .algebra import (RegularRepresentation, StructureTable, _join,
                      _scatter, chunks, spectral_norms, stacked_matrices,
                      stacked_singular_values)
from .groupoid import _grouped, _runs


def stacked_ranks(owner, row, col, vals, shape, tol: float) -> np.ndarray:
    """Numeric rank of the matrix of every owner o, of shape
    (shape[0][o], shape[1][o]), with vals summed at (row, col) of the
    entries it owns: the singular values above tol * max(largest, 1), 0
    for an empty matrix. Where no (owner, row) holds two entries, M* M is
    diagonal and the singular values are the column norms, read with one
    bincount (the product matrices of a table whose basis pairs have one
    product term each); elsewhere one batched SVD per shape and chunk
    (:func:`~gpdkit.algebra.stacked_singular_values`)."""
    nr, nc = (np.asarray(v, dtype=np.int64) for v in shape)
    key = np.sort((np.cumsum(nr) - nr)[owner] + row)
    if not np.any(key[1:] == key[:-1]):
        at = np.cumsum(nc) - nc
        norm = np.sqrt(np.bincount(at[owner] + col, np.abs(vals) ** 2,
                                   int(nc.sum())))
        of = np.repeat(np.arange(len(nc)), nc)
        top = np.zeros(len(nc))
        np.maximum.at(top, of, norm)
        return np.bincount(of, norm > tol * np.maximum(top[of], 1.0),
                           len(nc)).astype(np.int64)
    ranks = np.zeros(len(shape[0]), dtype=np.int64)
    for o, s in stacked_singular_values(owner, row, col, vals, shape):
        ranks[o] = np.sum(s > tol * np.maximum(s[:, :1], 1.0), axis=1)
    return ranks


def _roots(ev):
    """(square roots, inverse square roots or 0) of the eigenvalues ev,
    negative ones taken as 0."""
    root = np.sqrt(np.maximum(ev, 0.0))
    return root, np.divide(1.0, root, out=np.zeros_like(root),
                           where=root > 0)


def pick(items, n: int, rng) -> np.ndarray:
    """max(n, 0) uniform picks of ``items`` (none without items), in one
    draw."""
    return items[rng.integers(len(items), size=max(n, 0) if len(items)
                              else 0)]


class FiberBlocks:
    """The per-arrow numerics of one bundle, read from its section table.

    In the orthonormal coordinates of the Gram blocks
    G_h[i, j] = tau(e_i* e_j) (tau: the trace of left multiplication in the
    unit fiber over s(h)), left multiplication by x in E_h on E_k is the
    block T_hk L_{x,k} T_k^-1, with T = G^{1/2}: a unit-fiber C*-norm is the
    block of k = u, ||x|| is that of x* x, and the operator norm of x on
    the section space is the largest block over k. Arrows are indices into
    the base arrows; elements are rows of local coefficients padded to the
    largest fiber dimension D; blocks are scattered from the entries of
    :meth:`orthonormal`, stacked by size and taken in chunks
    (:func:`~gpdkit.algebra.chunks`). ``table`` is the bundle's, with the
    products of each pair of arrows and the stars of each arrow in one run
    (``runs`` by the base's table entry of the pair, ``star_runs`` by
    arrow), which products, stars and blocks expand: nothing is searched.
    """

    def __init__(self, E):
        H, T = E.base, E.table()
        n_arrows = len(H.arrows)
        self.base, self.nA, self.index = H, n_arrows, H.index
        # the slot layout of the bundle: fiber dimension per arrow, the
        # arrow of each slot, and its first slot and index in the fiber
        self.dims, self.arrow = E.dims, E.arrow
        # runs by base entry, the last one empty: that of -1, no pair
        (a, b, c, w), self.runs = _grouped(
            H.entry_ids(self.arrow[T.a], self.arrow[T.b]),
            len(H.table.a) + 1, (T.a, T.b, T.c, T.w))
        (s, t, sw), self.star_runs = _grouped(self.arrow[T.s], n_arrows,
                                              (T.s, T.t, T.sw))
        if a is not T.a or s is not T.s:
            T = StructureTable(T.dim, a, b, c, w, s, t, sw)
        self.table = T
        self.first = np.cumsum(self.dims) - self.dims
        self.D = int(self.dims.max(initial=0))
        # arrows, their ends and inverses are the base's arrow indices
        self.src, self.rng, self.inv = H.src_idx, H.rng_idx, H.inv_idx
        self.is_unit = H.unit_mask()
        self.loc = np.arange(T.dim) - self.first[self.arrow]
        # tau(e_a) in a unit fiber, the trace of left multiplication, at
        # (arrow, index) of a
        on = (self.is_unit[self.arrow[T.a]]
              & (self.arrow[T.a] == self.arrow[T.b]) & (T.b == T.c))
        self.tau = np.zeros((n_arrows, self.D), dtype=complex)
        self.tau[self.arrow, self.loc] = _scatter(T.a[on], T.w[on], T.dim)
        self._inner = {}
        self._gram = self._gram_defect = self._ortho = self._rep = None
        self._ortho_runs = None  # the runs of the orthonormal entries
        self.diagonal = None  # Gram blocks all diagonal, set by gram()
        self._saturation = {}

    def entries(self, h1, h2, orthonormal: bool = False) -> np.ndarray:
        """The number of table entries (of :meth:`orthonormal` entries,
        with ``orthonormal``) that multiply the fiber over h1[r] by the
        fiber over h2[r]."""
        return self._run(h1, h2, orthonormal)[1]

    def _run(self, h1, h2, orthonormal: bool = False):
        """(first, count) of those entries, as one run each."""
        if orthonormal:
            self.orthonormal()  # builds _ortho_runs
        first, count = self._ortho_runs if orthonormal else self.runs
        e = self.base.entry_ids(h1, h2)
        return first[e], count[e]

    def rows(self, items):
        """(arrow indices, padded coefficient rows) of (arrow, vector)
        pairs."""
        h = np.fromiter((self.index[a] for a, _ in items), np.int64,
                        len(items))
        d = self.dims[h]
        r = np.repeat(np.arange(len(items)), d)
        X = np.zeros((len(items), self.D), dtype=complex)
        X[r, np.arange(len(r)) - np.repeat(np.cumsum(d) - d, d)] = \
            np.concatenate([np.asarray(v, dtype=complex) for _, v in items]
                           + [np.zeros(0)])
        return h, X

    def random_rows(self, h, rng):
        """Standard complex Gaussian rows over the arrows h (any shape):
        one draw of shape (*h.shape, 2, D), the real then the imaginary
        parts, zero past each fiber's dimension."""
        Z = rng.standard_normal((*np.shape(h), 2, self.D))
        X = Z[..., 0, :] + 1j * Z[..., 1, :]
        X[np.arange(self.D) >= self.dims[h][..., None]] = 0.0
        return X

    def basis_rows(self):
        """(arrow indices, rows) of every basis vector, in slot order."""
        X = np.zeros((self.table.dim, self.D), dtype=complex)
        X[np.arange(self.table.dim), self.loc] = 1.0
        return self.arrow, X

    def inner(self, side: str):
        """Entries (h, i, j, m, weight) of the inner-product tensor: the
        coefficient of e_m in e_i* e_j (side "B", over s(h)) or in
        e_i e_j* (side "A", over r(h)) for the basis of the fiber over h.
        One join of star entries with product entries; the entries of each
        arrow are one run, whose (first, count) per arrow come last."""
        if side not in self._inner:
            T, arrow, loc = self.table, self.arrow, self.loc
            if side == "B":  # e_s* has e_t; entry p multiplies e_t by e_b
                j, p = _join(T.t, T.a)
                x, y = T.s[j], T.b[p]
            else:  # entry p multiplies e_a by e_t; e_s* has e_t
                p, j = _join(T.b, T.t)
                x, y = T.a[p], T.s[j]
            keep = arrow[x] == arrow[y]
            h = arrow[x][keep]
            terms, runs = _grouped(h, self.nA, (
                h, loc[x][keep], loc[y][keep], loc[T.c[p]][keep],
                (T.sw[j] * T.w[p])[keep]))
            self._inner[side] = (*terms, runs)
        return self._inner[side]

    def saturation(self, tol: float):
        """(saturated, witness): span E_h1 E_h2 = E_h1h2 for every
        composable pair, as the rank of the products of basis pairs (the
        table entries of the pair) against dim E_h1h2, kept per tolerance.
        Where each basis pair has one product term, each row of a pair's
        product matrix holds one entry and :func:`stacked_ranks` reads the
        ranks from the column norms, with no SVD; elsewhere the matrices
        are stacked by shape, one matrix per table entry of the base. The
        witness names the first pair, in ``composable_pairs`` order, that
        falls short."""
        if tol not in self._saturation:
            T, H = self.table, self.base
            owner = H.entry_ids(self.arrow[T.a], self.arrow[T.b])
            d1, d2, d12 = (self.dims[v] for v in (H.table.a, H.table.b,
                                                  H.table.c))
            ranks = stacked_ranks(
                owner, self.loc[T.a] * d2[owner] + self.loc[T.b],
                self.loc[T.c], T.w, (d1 * d2, d12), tol)
            h1, h2 = H.pair_ids()
            e = H.entry_ids(h1, h2)
            short = np.flatnonzero(ranks[e] < d12[e])
            k = short[0] if len(short) else None
            self._saturation[tol] = (True, None) if k is None else (
                False, f"span E_{H.arrows[h1[k]]!r} * E_{H.arrows[h2[k]]!r} "
                f"has rank {ranks[e[k]]} < {d12[e[k]]}")
        return self._saturation[tol]

    def square(self, h, X, side: str = "B") -> np.ndarray:
        """Rows of x* x (side "B", over s(h)) or of x x* (side "A", over
        r(h)) for the rows x = X[r] over h[r]."""
        _, i, j, m, w, (first, count) = self.inner(side)
        r, q = _runs(first[h], count[h])
        left, right = X[r, i[q]], X[r, j[q]]
        prod = np.conj(left) * right if side == "B" else left * np.conj(right)
        return _scatter(r * self.D + m[q], prod * w[q],
                        len(h) * self.D).reshape(len(h), self.D)

    def products(self, h1, X, h2, Y):
        """(arrows, rows) of the products of the rows X[r] over h1[r] with
        the rows Y[r] over h2[r]."""
        T, loc = self.table, self.loc
        r, p = _runs(*self._run(h1, h2))
        Z = _scatter(r * self.D + loc[T.c[p]],
                     T.w[p] * X[r, loc[T.a[p]]] * Y[r, loc[T.b[p]]],
                     len(h1) * self.D)
        return self.base.compose_ids(h1, h2), Z.reshape(len(h1), self.D)

    def stars(self, h, X):
        """(arrows, rows) of x* for the rows x = X[r] over h[r]."""
        T, loc = self.table, self.loc
        first, count = self.star_runs
        r, p = _runs(first[h], count[h])
        Z = _scatter(r * self.D + loc[T.t[p]],
                     T.sw[p] * np.conj(X[r, loc[T.s[p]]]), len(h) * self.D)
        return self.inv[h], Z.reshape(len(h), self.D)

    def traces(self, u, Y) -> np.ndarray:
        """tau(y) of the unit-fiber rows Y[r] over u[r]."""
        return (Y * self.tau[u]).sum(axis=1)

    def gram(self):
        """((row slot, column slot, T, T^-1), smallest and largest
        eigenvalue per arrow) of the Gram blocks G_h: the entries of their
        roots T = G_h^{1/2} and of T^-1, sorted by row slot. When no Gram
        term off the diagonal is nonzero (``diagonal``, tested before any
        block is built), one entry per slot holds the root of the diagonal
        and the eigenvalues are its entries, with no eigh; otherwise every
        entry of each d x d block, by one batched eigh per fiber dimension
        d and chunk. T^-1 inverts the positive part only, so a block that
        is not positive definite has no use but a failed check."""
        if self._gram is None:
            gh, gi, gj, g = terms = self._gram_terms()
            self.diagonal = not np.any(g[gi != gj])
            if self.diagonal:  # the eigenvalues, one per slot
                ev = np.bincount(self.first[gh] + gi, g.real, self.table.dim)
                row = col = np.arange(self.table.dim)
                t, ti = (r.astype(complex) for r in _roots(ev))
            else:  # every slot pair of an arrow, by row slot, then column
                row, col = _runs(self.first[self.arrow],
                                 self.dims[self.arrow])
                ev, t, ti = np.zeros(self.table.dim), *np.zeros(
                    (2, len(row)), dtype=complex)
                for a, G in stacked_matrices(*terms, (self.dims, self.dims)):
                    e, U = np.linalg.eigh((G + G.conj().transpose(0, 2, 1))
                                          / 2.0)
                    ev[np.isin(self.arrow, a)] = e.ravel()
                    on = np.isin(self.arrow[row], a)
                    t[on], ti[on] = ((U * r[:, None, :] @ U.conj().transpose(
                        0, 2, 1)).ravel() for r in _roots(e))
            lo, hi, live = np.zeros(self.nA), np.zeros(self.nA), self.dims > 0
            lo[live], hi[live] = (f.reduceat(ev, self.first[live])
                                  for f in (np.minimum, np.maximum))
            self._gram = (row, col, t, ti), lo, hi
        return self._gram

    def _gram_terms(self):
        """(h, i, j, value) of the terms of the inner-product tensor whose
        sums are the Gram blocks G_h[i, j] = tau(e_i* e_j)."""
        h, i, j, m, w, _ = self.inner("B")
        return h, i, j, w * self.tau[self.src[h], m]

    def gram_defect(self):
        """(largest |T_h* T_h - G_h| / max(largest |G_h|, 1) or
        |T_h^-1 T_h - 1| over the nonempty fibers, the index of its arrow
        or None): the roots of :meth:`gram`, the entries that
        :meth:`orthonormal` reads, are orthonormal coordinates of the
        section inner product and T^-1 inverts T, so that the blocks of
        :meth:`orthonormal` are those of left multiplication on the section
        space. Two batched products per fiber dimension and chunk."""
        if self._gram_defect is None:
            row, col, t, ti = self.gram()[0]
            h, i, j = self.arrow[row], self.loc[row], self.loc[col]
            res = np.zeros(self.nA)
            for (a, G), (_, T), (_, Ti) in zip(*(
                    stacked_matrices(*e, (self.dims, self.dims)) for e in (
                        self._gram_terms(), (h, i, j, t), (h, i, j, ti)))):
                scale = np.maximum(np.abs(G).max(axis=(1, 2)), 1.0)
                res[a] = np.maximum(
                    np.abs(T.conj().transpose(0, 2, 1) @ T - G).max(
                        axis=(1, 2)) / scale,
                    np.abs(Ti @ T - np.eye(len(G[0]))).max(axis=(1, 2)))
            k = int(np.argmax(res)) if len(res) and res.max() > 0 else None
            self._gram_defect = (0.0, None) if k is None else (
                float(res[k]), k)
        return self._gram_defect

    def gram_margin(self):
        """(smallest Gram eigenvalue over max(largest, 1), the index of the
        arrow with the smallest eigenvalue) across the nonempty fibers, or
        (1.0, None) without one: the margin of the test that the section
        inner product is definite."""
        _, lo, hi = self.gram()
        live = np.flatnonzero(self.dims > 0)
        if not len(live):
            return 1.0, None
        worst = int(live[np.argmin(lo[live])])
        return float(lo[worst]) / max(float(hi[live].max()), 1.0), worst

    def degenerate_unit(self, units) -> Optional[int]:
        """The first of ``units`` (arrow indices) whose fiber has a
        degenerate trace form, or None: a nonempty fiber whose smallest
        Gram eigenvalue is not above 1e-9 times max(largest, 1)."""
        _, lo, hi = self.gram()
        units = np.asarray(units, dtype=np.int64)
        bad = (self.dims[units] > 0) & ~(lo[units] >
                                         1e-9 * np.maximum(hi[units], 1.0))
        return int(units[np.argmax(bad)]) if bad.any() else None

    def orthonormal(self):
        """(a, c', b', w'), built once: entry e_a e_b = w e_c of the table
        becomes w T_hk[c', c] T_k^-1[b, b'] in the orthonormal coordinates
        of the Gram blocks, summed at each (a, c', b') after each root: at
        most d_h d_hk d_k entries over (h, k). Diagonal roots
        (:meth:`gram`), one entry per slot, rescale each weight w by
        T[c, c] T^-1[b, b]: one entry per table entry, in the runs of the
        table. The merged entries are put in runs by arrow pair once; their
        runs are ``_ortho_runs``."""
        if self._ortho is None:
            T, n = self.table, self.table.dim
            (row, col, t, ti), _, _ = self.gram()

            def merged(a, c, b, w):
                key, at = np.unique((a * n + c) * n + b, return_inverse=True)
                return (*np.unravel_index(key, (n, n, n)),
                        _scatter(at, w, len(key)))

            if self.diagonal:  # one entry per table entry, no merge
                a, c, b, w = T.a, T.c, T.b, t[T.c] * T.w * ti[T.b]
                self._ortho_runs = self.runs
            else:
                k = np.flatnonzero(t)  # T_hk[c', c]: c at col, c' at row
                e, p = _join(T.c, col[k])
                a, c, b, w = merged(T.a[e], row[k[p]], T.b[e],
                                    t[k[p]] * T.w[e])
                k = np.flatnonzero(ti)  # T_k^-1[b, b']: b at row, b' at col
                e, p = _join(b, row[k])
                a, c, b, w = merged(a[e], c[e], col[k[p]], w[e] * ti[k[p]])
                (a, c, b, w), self._ortho_runs = _grouped(
                    self.base.entry_ids(self.arrow[a], self.arrow[b]),
                    len(self.base.table.a) + 1, (a, c, b, w))
            self._ortho = a, c, b, w
        return self._ortho

    def representation(self) -> RegularRepresentation:
        """The :class:`~gpdkit.algebra.RegularRepresentation` of the section
        table in the orthonormal coordinates of :meth:`orthonormal`, one
        block per source unit, built once: its
        :meth:`~gpdkit.algebra.RegularRepresentation.star_defect` and
        :meth:`~gpdkit.algebra.RegularRepresentation.slice_margin` are
        kept on it for every user of the bundle."""
        if self._rep is None:
            self._rep = RegularRepresentation(
                self.table, self.base, self.orthonormal(),
                over=self.arrow)
        return self._rep

    def blocks(self, h, X, k):
        """Yield (rows, S): S[i] = T_hk L_{x,k} T_k^-1 for the row
        x = X[rows[i]] over h and the fiber over k (r(k) = s(h)), padded to
        g = max(d_hk, d_k), stacked by g and taken in chunks; one scatter
        of the :meth:`orthonormal` entries per chunk."""
        a, c, b, w = self.orthonormal()
        loc = self.loc
        g = np.maximum(self.dims[self.base.compose_ids(h, k)], self.dims[k])
        first, load = self._run(h, k, orthonormal=True)
        for size in np.flatnonzero(np.bincount(g[g > 0])):
            of_size = np.flatnonzero(g == size)
            for chunk in chunks(load[of_size] + size * size):
                rows = of_size[chunk]
                r, p = _runs(first[rows], load[rows])
                S = _scatter((r * size + loc[c[p]]) * size + loc[b[p]],
                             w[p] * X[rows[r], loc[a[p]]],
                             len(rows) * size * size)
                yield rows, S.reshape(len(rows), size, size)

    def unit_norms(self, u, Y, spectra: bool = False):
        """(2-norms, negativity ratios) of the unit-fiber elements Y[r]
        over u[r] in the trace-form representation; a ratio is
        max(0, -lambda_min) / lambda_max of the Hermitian part, taken only
        with ``spectra`` (0 on an empty fiber). Every fiber over u must have
        a positive definite trace form (:meth:`degenerate_unit`)."""
        norms, neg = np.zeros(len(u)), np.zeros(len(u))
        for rows, S in self.blocks(u, Y, u):
            norms[rows] = spectral_norms(S)
            if spectra:
                ev = np.linalg.eigvalsh(
                    (S + S.conj().transpose(0, 2, 1)) / 2.0)
                neg[rows] = (np.maximum(-ev[:, 0], 0.0)
                             / np.maximum(ev[:, -1], 1e-30))
        return norms, neg

    def fiber_norms(self, h, X, spectra: bool = False):
        """(||x|| = ||x* x||^{1/2}, negativity ratios of x* x) for the rows
        x = X[r] over h[r]; see :meth:`unit_norms`."""
        norms, neg = self.unit_norms(self.src[h], self.square(h, X), spectra)
        return np.sqrt(norms), neg

    def op_norms(self, h, X) -> np.ndarray:
        """||L_x|| on the section space for the rows x = X[r] over h[r]:
        the largest block over the arrows k with r(k) = s(h)."""
        r, e = self.base.row_entries(h)  # (h[r], k) over table entry e
        k = self.base.table.b[e]
        r, k = r[self.dims[k] > 0], k[self.dims[k] > 0]
        out = np.zeros(len(h))
        for rows, S in self.blocks(h[r], X[r], k):
            np.maximum.at(out, r[rows], spectral_norms(S))
        return out


def fiber_blocks(E) -> "FiberBlocks":
    """The FiberBlocks of a bundle, built on first use and kept on it."""
    if E._blocks is None:
        E._blocks = FiberBlocks(E)
    return E._blocks
