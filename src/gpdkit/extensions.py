"""Group extensions with abelian kernel, their dual actions and twists.

Given a finite group G and an abelian normal subgroup A, the quotient
H = G/A acts on the character set of A by (h.chi)(a) =
chi(c(h)^{-1} a c(h)) for any section c with c(unit) = unit, and a
2-cocycle on the action groupoid encodes the extension:

    omega((h1, h2.chi), (h2, chi)) = chi(c(h1 h2)^{-1} c(h1) c(h2)).

For central extensions this equals chi(f(h1, h2)) with the usual factor
set f(h1, h2) = c(h1) c(h2) c(h1 h2)^{-1}; the conjugated form is the one
satisfying the cocycle identity for noncentral kernels as well.

Every group is a :class:`GroupTable`, an integer product table over
element indices, and every computation here (cosets, quotients, subgroups,
orders, the dual action, the factor set, the cocycle and the basis map)
gathers from such tables. Characters are enumerated through an
invariant-factor style basis of the kernel and evaluated through integer
exponent arithmetic, so equal characters produce bit-identical complex
values.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Optional

import numpy as np

from .groupoid import FiniteGroupoid, GroupoidError, _ids, _index, _prefix
from .algebra import (StructureTable, _regular, block_bijectivity,
                      isometry_certificate, map_defects, wedderburn)
from .actions import (ActionGroupoid, Cocycle, GroupoidAction,
                      TwistedConvolutionAlgebra, build_action_groupoid,
                      cocycle_check)
from .report import CheckList


class NotNormal(GroupoidError):
    pass


class NotAbelianKernel(GroupoidError):
    pass


def unit_root(t: int, d: int) -> complex:
    """exp(2 pi i t / d) with the exponent reduced first, so equal
    rationals give bit-identical values."""
    t = t % d
    return cmath.exp(2j * cmath.pi * t / d)


class GroupTable:
    """A finite group as its element tuple and integer product table:
    M[i, j] is the index of elements[i] elements[j], ``unit`` the index of
    the unit and inv[i] that of the inverse of elements[i].

    ``mul`` is that table as an (n, n) integer array, or a mapping
    (a, b) -> ab of element names, read once here. The unit and inverses
    are read from the table, associativity from its w = 1 structure table
    by gathers in passes of bounded size, so memory stays bounded for a
    thousand elements; the structure table is kept as the table of
    :meth:`to_groupoid`. ``associative=True`` skips that scan, for a table
    known to be associative: a subgroup or a quotient of a checked group.
    """

    __slots__ = ("elements", "index", "M", "unit", "inv", "table",
                 "_groupoid")

    def __init__(self, elements, mul, associative=False):
        self.elements = tuple(elements)
        self.index = _index(self.elements, "element")
        self._groupoid = None
        n = len(self.elements)
        if isinstance(mul, np.ndarray):
            M = mul.astype(np.int64, copy=False)
        else:
            pairs = list(product(self.elements, repeat=2))
            values = list(map(mul.get, pairs))
            M = _ids(values, self.index)
            i = _prefix(M >= 0)
            if i < len(pairs):
                a, b = pairs[i]
                if values[i] is None:
                    raise GroupoidError(f"mul missing ({a!r}, {b!r})",
                                        witness=(a, b))
                raise GroupoidError(f"mul({a!r}, {b!r}) not an element",
                                    witness=(a, b))
            M = M.reshape(n, n)
        self.M = M
        rng_n = np.arange(n)
        is_unit = (M == rng_n).all(axis=1) & (M.T == rng_n).all(axis=1)
        if not is_unit.any():
            raise GroupoidError("table has no unit element")
        self.unit = int(np.argmax(is_unit))
        inverse = (M == self.unit) & (M.T == self.unit)
        i = _prefix(inverse.any(axis=1))
        if i < n:
            raise GroupoidError(f"{self.elements[i]!r} has no inverse",
                                witness=self.elements[i])
        self.inv = np.argmax(inverse, axis=1)
        self.table = StructureTable(n, np.repeat(rng_n, n), np.tile(rng_n, n),
                                    M, np.ones(n * n), rng_n, self.inv,
                                    np.ones(n))
        if associative:
            return
        _, triple = self.table.associativity_defect()
        if triple is not None:
            a, b, c = (self.elements[i] for i in triple)
            raise GroupoidError(f"associativity fails on ({a!r},{b!r},{c!r})",
                                witness=(a, b, c))

    def __len__(self):
        return len(self.elements)

    def powers(self, i: int, k: int) -> np.ndarray:
        """Indices of the powers 0 .. k-1 of element i."""
        out = np.empty(k, np.int64)
        x = self.unit
        for j in range(k):
            out[j] = x
            x = self.M[x, i]
        return out

    def orders(self) -> np.ndarray:
        """The order of every element, one table gather per power."""
        order = np.zeros(len(self), np.int64)
        every = np.arange(len(self))
        x, k = every, 1
        while not order.all():
            order[(x == self.unit) & (order == 0)] = k
            x, k = self.M[x, every], k + 1
        return order

    def subgroup(self, members) -> "GroupTable":
        """The subgroup on the element indices ``members`` (closed under
        the product), its elements in that order."""
        pos = np.zeros(len(self), np.int64)
        pos[members] = np.arange(len(members))
        return GroupTable([self.elements[i] for i in members],
                          pos[self.M[np.ix_(members, members)]],
                          associative=True)

    def quotient(self, members):
        """(reps, coset, Q) for the normal subgroup K on the element
        indices ``members``: each coset K g is named by its first element,
        reps lists those in element order, Q is the quotient group on them
        and coset[g] the index in Q of the coset of g."""
        first = self.M[members].min(axis=0)
        reps = np.flatnonzero(first == np.arange(len(self)))
        coset = np.searchsorted(reps, first)
        return reps, coset, GroupTable([self.elements[i] for i in reps],
                                       coset[self.M[np.ix_(reps, reps)]],
                                       associative=True)

    def to_groupoid(self) -> FiniteGroupoid:
        """The one-unit groupoid of the group, built once on the structure
        table of the group, so that its regular representation is built
        once too."""
        if self._groupoid is None:
            unit = np.full(len(self), self.unit)
            self._groupoid = FiniteGroupoid(self.elements, [self.unit], unit,
                                            unit, self.table, self.index)
        return self._groupoid


def _require_abelian(group: GroupTable):
    """NotAbelianKernel at the first pair, in element order, that does not
    commute."""
    bad = np.argwhere(group.M != group.M.T)
    if len(bad):
        a, b = (group.elements[i] for i in bad[0])
        raise NotAbelianKernel(f"({a!r}, {b!r}) do not commute",
                               witness=(a, b))


def _p_group_basis(group: GroupTable) -> list:
    """Independent generators (element index, order) of an abelian
    p-group."""
    if len(group) == 1:
        return []
    orders = group.orders()
    g = int(np.argmax(orders))  # the first element of the largest order
    cyc = group.powers(g, int(orders[g]))
    reps, _, quotient = group.quotient(cyc)
    basis = [(g, int(orders[g]))]
    for q, m in _p_group_basis(quotient):
        # order-preserving lift: q^m lands in <g> as g^t with m | t
        b = int(reps[q])
        t = int(np.flatnonzero(cyc == group.powers(b, m + 1)[m])[0])
        if t % m != 0:
            raise NotAbelianKernel("lift adjustment failed; kernel is not "
                                   "an abelian group",
                                   witness=group.elements[b])
        basis.append((int(group.M[b, cyc[-(t // m) % len(cyc)]]), m))
    return basis


def abelian_basis(group: GroupTable) -> list:
    """Generators (g_i, d_i) with A isomorphic to the product of the
    cyclic groups they generate; computed per Sylow subgroup, the
    elements whose order divides the largest power of p dividing |A|."""
    _require_abelian(group)
    orders = group.orders()
    basis = []
    m, p = len(group), 2
    while m > 1:
        q = 1
        while m % p == 0:
            m, q = m // p, q * p
        if q > 1:
            sylow = group.subgroup(np.flatnonzero(q % orders == 0))
            basis.extend((sylow.elements[i], d)
                         for i, d in _p_group_basis(sylow))
        p += 1
    return basis


class CharacterData:
    """Characters of a finite abelian group with exact exponents.

    Character index m (one exponent per basis generator) evaluates on the
    element with exponent vector e as unit_root(sum m_i e_i D/d_i, D)
    where D is the lcm of the generator orders. ``numerators`` holds that
    sum mod D for every character (rows, in the order of ``indices``) and
    element (columns).
    """

    def __init__(self, group: GroupTable):
        self.group = group
        self.basis = abelian_basis(group)
        self.orders = tuple(d for _, d in self.basis)
        D = 1
        for d in self.orders:
            D = D * d // gcd(D, d)
        self.lcm = D
        self.strides = np.array([int(np.prod(self.orders[i + 1:]))
                                 for i in range(len(self.orders))], np.int64)
        # the element prod g_i^e_i of each exponent vector e, in the order
        # of product(range(d_1), range(d_2), ...)
        x = np.array([group.unit])
        for g, d in self.basis:
            x = group.M[x[:, None], group.powers(group.index[g], d)].ravel()
        if np.bincount(x).max() > 1:
            raise NotAbelianKernel("generator decomposition is not free")
        if len(x) != len(group):
            raise NotAbelianKernel("basis does not enumerate the group")
        self.indices = list(product(*(range(d) for d in self.orders)))
        combos = np.array(self.indices, np.int64).reshape(len(x), -1)
        exponents = np.empty_like(combos)
        exponents[x] = combos
        self.steps = D // np.array(self.orders, np.int64)
        self.numerators = combos * self.steps @ exponents.T % D

    def char_id(self, m) -> str:
        return "chi(" + ",".join(str(v) for v in m) + ")"

    def value(self, m, a) -> complex:
        return unit_root(self.exponent_numerator(m, a), self.lcm)

    def values(self) -> np.ndarray:
        """value(m, a) of every character (rows, in the order of
        ``indices``) at every element (columns)."""
        roots = np.array([unit_root(t, self.lcm) for t in range(self.lcm)])
        return roots[self.numerators]

    def exponent_numerator(self, m, a) -> int:
        """Integer t with value(m, a) = unit_root(t, lcm)."""
        return int(self.numerators[int(np.dot(m, self.strides)),
                                   self.group.index[a]])

    def compose_with_map(self, images) -> np.ndarray:
        """The row of chi_k composed with the homomorphism sending
        generator i to the element images[..., i], for every character k
        (last axis); exact integer arithmetic."""
        t = self.numerators[:, images]
        if np.any(t % self.steps):
            raise NotAbelianKernel("conjugation image is not a character")
        return np.moveaxis(t // self.steps % (self.lcm // self.steps)
                           @ self.strides, 0, -1)


@dataclass
class GroupExtension:
    group: GroupTable
    kernel: GroupTable           # a normal subgroup, in the order given
    section: dict                # quotient rep -> chosen group element
    quotient: GroupTable         # cosets named by their first elements
    coset: np.ndarray            # quotient index of each group element

    @classmethod
    def from_tables(cls, elements, mul, kernel, section=None):
        """Validate and package an extension. The quotient is represented
        by the chosen section images; the default section picks the first
        element of each coset in element order (and the unit for the unit
        coset)."""
        G = GroupTable(elements, mul)
        kernel = tuple(kernel)
        k = _ids(kernel, G.index)
        i = _prefix(k >= 0)
        if i < len(k):
            raise GroupoidError(f"kernel element {kernel[i]!r} not in group",
                                witness=kernel[i])
        in_kernel = np.zeros(len(G), bool)
        in_kernel[k] = True
        if not in_kernel[G.unit]:
            raise GroupoidError("kernel does not contain the unit")
        inv_out = ~in_kernel[G.inv[k]]
        mul_out = ~in_kernel[G.M[np.ix_(k, k)]]
        i = _prefix(~(inv_out | mul_out.any(axis=1)))
        if i < len(k):
            a = kernel[i]
            if inv_out[i]:
                raise NotNormal(f"kernel not closed under inverse at {a!r}",
                                witness=a)
            b = kernel[int(np.argmax(mul_out[i]))]
            raise NotNormal(f"kernel not closed under product "
                            f"({a!r}, {b!r})", witness=(a, b))
        conj_out = ~in_kernel[G.M[G.M[:, k], G.inv[:, None]]]
        if conj_out.any():
            g, j = np.argwhere(conj_out)[0]
            a, g = kernel[j], G.elements[g]
            raise NotNormal(f"conjugate of {a!r} by {g!r} leaves the kernel",
                            witness=(g, a))
        A = G.subgroup(k)
        _require_abelian(A)

        _, coset, Q = G.quotient(k)
        unit_rep = Q.elements[coset[G.unit]]
        if section is None:
            section = {r: r for r in Q.elements}
            section[unit_rep] = G.elements[G.unit]
        else:
            section = dict(section)
            for r, g in section.items():
                if g not in G.index or Q.elements[coset[G.index[g]]] != r:
                    raise GroupoidError(f"section image {g!r} is not in the "
                                        f"coset of {r!r}", witness=(r, g))
            missing = [r for r in Q.elements if r not in section]
            if missing:
                raise GroupoidError(f"section has no image for the coset of "
                                    f"{missing[0]!r}", witness=missing[0])
            if section.get(unit_rep) != G.elements[G.unit]:
                raise GroupoidError("section must send the unit coset to "
                                    "the unit")
        return cls(G, A, section, Q, coset)


@dataclass
class ExtensionBundleResult(CheckList):
    extension: GroupExtension
    quotient: GroupTable
    characters: CharacterData
    action_groupoid: ActionGroupoid
    cocycle: Cocycle
    factor_set: dict             # (h1, h2) -> kernel element, f = c c c^{-1}
    char_of_point: dict          # point id -> character index tuple
    blocks_group: Optional[tuple] = None
    blocks_twisted: Optional[tuple] = None
    basis_map: Optional[np.ndarray] = None  # group basis -> twisted basis


def group_extension_bundle(ext: GroupExtension,
                           tol: float = 1e-9) -> ExtensionBundleResult:
    """The twisted action groupoid of an extension, with the certified
    isomorphism from the group algebra.

    Builds the dual action of the quotient on the kernel characters, the
    factor set of the section, and the cocycle; then checks the basis map
    U (``basis_map``): delta_g -> sum over chi of (h.chi)(a)
    delta_{(h, chi)} (for g = a c(h)) to be a bijective, multiplicative
    and star-preserving map onto the twisted algebra, and isometric on
    every element by
    :func:`~gpdkit.algebra.isometry_certificate` (Murphy 1990, Thm 3.1.5):
    from those three checks, the associativity of the group table and of
    the twisted table (``cocycle_identity``) and the faithful
    *-representations of both tables. U is block-diagonal by coset
    (:func:`~gpdkit.algebra.block_bijectivity`), and its defects are
    :func:`~gpdkit.algebra.map_defects`. Compares block invariants, which
    are not checked when the cocycle fails its identity.
    """
    G, A, Q = ext.group, ext.kernel, ext.quotient
    M, inv = G.M, G.inv
    chars = CharacterData(A)
    Hgpd = Q.to_groupoid()
    kernel = np.array([G.index[a] for a in A.elements], np.int64)
    kpos = np.full(len(G), -1)  # position in the kernel of each element
    kpos[kernel] = np.arange(len(A))
    sec = np.array([G.index[ext.section[h]] for h in Q.elements], np.int64)

    # dual action through exact exponent arithmetic: h.chi_k is chi_k
    # composed with a -> c(h)^-1 a c(h), as its row act_rows[h, k]
    gens = kernel[[A.index[g] for g, _ in chars.basis]]
    act_rows = chars.compose_with_map(
        kpos[M[M[inv[sec][:, None], gens], sec[:, None]]])
    point_ids = [chars.char_id(m) for m in chars.indices]
    char_of_point = dict(zip(point_ids, chars.indices))
    action = GroupoidAction(Hgpd, point_ids, np.repeat(
        Hgpd.unit_idx, len(point_ids)), act_rows)
    ag = build_action_groupoid(action)

    # f = c(h1) c(h2) c(h1 h2)^-1 and its conjugate c(h1 h2)^-1 c(h1) c(h2)
    c1c2, c12_inv = M[sec[:, None], sec], inv[sec[Q.M]]
    names = np.fromiter(G.elements, object, len(G))
    factor_set = dict(zip(product(Q.elements, repeat=2),
                          names[M[c1c2, c12_inv]].ravel().tolist()))
    conj_factor = kpos[M[c12_inv, c1c2]]

    # every h acts on every chi_k, so arrow j = h K + k of the action
    # groupoid is (h, chi_k) (its arrows are in (arrow, point) order)
    h, k = np.divmod(np.arange(len(Q) * len(point_ids)), len(point_ids))
    values = chars.values()
    # omega((h1, h2.chi), (h2, chi)) at every entry of the action
    # groupoid's table
    T = ag.groupoid.table
    cocycle = Cocycle(ag.groupoid, values[k[T.b], conj_factor[h[T.a], h[T.b]]])

    result = ExtensionBundleResult(ext, Q, chars, ag, cocycle, factor_set,
                                   char_of_point)
    ta = TwistedConvolutionAlgebra(ag.groupoid, cocycle)
    result.add_entries(map(cocycle_check(cocycle, 1e-12).entry,
                           ("cocycle_identity", "cocycle_normalized")))

    Ggpd = G.to_groupoid()
    n = len(G)

    # basis map: column g = a c(h) holds (h.chi_k)(a) at the arrow (h, chi_k)
    hg = ext.coset
    a = kpos[M[np.arange(n), inv[sec[hg]]]]
    U = np.where(h[:, None] == hg, values[act_rows[h, k]][:, a], 0j)

    result.basis_map = U
    result.add("basis_map_bijective", *block_bijectivity(U, h, hg))
    mul, star = map_defects(Ggpd.table, ta.table, U, G.elements,
                            result.cite("cocycle_identity"), 1e-8)
    result.add("basis_map_multiplicative", *mul)
    result.add("basis_map_star", *star)
    result.add("basis_map_isometric", *isometry_certificate(
        result.cite("basis_map_bijective", "basis_map_multiplicative",
                    "basis_map_star", "cocycle_identity"),
        [("group", _regular(Ggpd)), ("twisted", ta.rep)], 1e-8))

    # without the identity the twisted table is no associative algebra
    if not result.entry("cocycle_identity").passed:
        result.add("wedderburn_equal", False, None,
                   "not checked: cocycle_identity failed")
        return result
    result.blocks_group, result.blocks_twisted = result.add_wedderburn_equal(
        lambda: wedderburn(Ggpd, tol=tol), lambda: ta.wedderburn(tol=tol))
    return result
