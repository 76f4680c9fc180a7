"""Group extensions with abelian kernel, their dual actions and twists.

Given a finite group G and an abelian normal subgroup A, the quotient
H = G/A acts on the character set of A by (h.chi)(a) =
chi(c(h)^{-1} a c(h)) for any section c with c(unit) = unit, and a
2-cocycle on the action groupoid encodes the extension:

    omega((h1, h2.chi), (h2, chi)) = chi(c(h1 h2)^{-1} c(h1) c(h2)).

For central extensions this equals chi(f(h1, h2)) with the usual factor
set f(h1, h2) = c(h1) c(h2) c(h1 h2)^{-1}; the conjugated form is the one
satisfying the cocycle identity for noncentral kernels as well.

Characters are enumerated through an invariant-factor style basis of the
kernel, computed from the multiplication table, and evaluated through
integer exponent arithmetic so equal characters produce bit-identical
complex values.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from .groupoid import FiniteGroupoid, GroupoidError, _trusted
from .algebra import (NumericalDegeneracy, StructureTable, _regular,
                      groupoid_table, isometry_defect, wedderburn)
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
    """A finite group as an element list with a multiplication table.

    The unit and inverses are read from the integer index matrix of the
    products, associativity from its structure table by gathers in passes
    of bounded size, so memory stays bounded for a thousand elements.
    """

    __slots__ = ("elements", "mul", "unit", "inv", "index", "_groupoid")

    def __init__(self, elements, mul):
        self.elements = tuple(elements)
        self.mul = dict(mul)
        self.index = {a: i for i, a in enumerate(self.elements)}
        self._groupoid = None
        n = len(self.elements)
        M = np.empty((n, n), dtype=np.int64)
        for a in self.elements:
            ia = self.index[a]
            for b in self.elements:
                ab = self.mul.get((a, b))
                if ab is None:
                    raise GroupoidError(f"mul missing ({a!r}, {b!r})",
                                        witness=(a, b))
                k = self.index.get(ab)
                if k is None:
                    raise GroupoidError(f"mul({a!r}, {b!r}) not an element",
                                        witness=(a, b))
                M[ia, self.index[b]] = k
        rng_n = np.arange(n)
        unit_rows = np.flatnonzero(
            (M == rng_n[None, :]).all(axis=1) &
            (M.T == rng_n[None, :]).all(axis=1))
        if unit_rows.size == 0:
            raise GroupoidError("table has no unit element")
        self.unit = self.elements[int(unit_rows[0])]
        ue = int(unit_rows[0])
        inv = {}
        for ia, a in enumerate(self.elements):
            cands = np.flatnonzero((M[ia, :] == ue) & (M[:, ia] == ue))
            if cands.size == 0:
                raise GroupoidError(f"{a!r} has no inverse", witness=a)
            inv[a] = self.elements[int(cands[0])]
        self.inv = inv
        _, triple = StructureTable(n, np.repeat(rng_n, n), np.tile(rng_n, n),
                                   M, np.ones(n * n), [], [],
                                   []).associativity_defect()
        if triple is not None:
            a, b, c = (self.elements[i] for i in triple)
            raise GroupoidError(f"associativity fails on ({a!r},{b!r},{c!r})",
                                witness=(a, b, c))

    def __len__(self):
        return len(self.elements)

    def power(self, a, n: int):
        out = self.unit
        x = a
        n = int(n)
        if n < 0:
            x = self.inv[a]
            n = -n
        while n:
            if n & 1:
                out = self.mul[(out, x)]
            x = self.mul[(x, x)]
            n >>= 1
        return out

    def order(self, a) -> int:
        n = 1
        x = a
        while x != self.unit:
            x = self.mul[(x, a)]
            n += 1
        return n

    def to_groupoid(self) -> FiniteGroupoid:
        """The one-unit groupoid of the group, built once, so that its
        structure table and regular representation are built once too."""
        if self._groupoid is None:
            u = self.unit
            self._groupoid = _trusted(
                self.elements, (u,), {a: u for a in self.elements},
                {a: u for a in self.elements}, dict(self.inv),
                {(a, b): self.mul[(a, b)]
                 for a in self.elements for b in self.elements})
        return self._groupoid


def _p_group_basis(group: GroupTable, members) -> list:
    """Independent generators with orders for an abelian p-group given as
    a member list inside ``group``."""
    members = list(members)
    if len(members) == 1:
        return []
    g = max(members, key=lambda a: (group.order(a), -members.index(a)))
    cyc = set()
    x = group.unit
    while True:
        cyc.add(x)
        x = group.mul[(x, g)]
        if x == group.unit:
            break
    # quotient by <g>
    coset_of = {}
    reps = []
    for a in members:
        for r in reps:
            if group.mul[(a, group.inv[r])] in cyc:
                coset_of[a] = r
                break
        else:
            reps.append(a)
            coset_of[a] = a
    qmul = {(r1, r2): coset_of[group.mul[(r1, r2)]]
            for r1 in reps for r2 in reps}
    quotient = GroupTable(reps, qmul)
    basis = [(g, group.order(g))]
    for qgen, m in _p_group_basis(quotient, reps):
        # order-preserving lift: qgen^m lands in <g> as g^t with m | t
        am = group.power(qgen, m)
        t = 0
        x = group.unit
        while x != am:
            x = group.mul[(x, g)]
            t += 1
        if t % m != 0:
            raise NotAbelianKernel("lift adjustment failed; kernel is not "
                                   "an abelian group", witness=qgen)
        b = group.mul[(qgen, group.power(group.inv[g], t // m))]
        basis.append((b, m))
    return basis


def abelian_basis(group: GroupTable) -> list:
    """Generators (g_i, d_i) with A isomorphic to the product of the
    cyclic groups they generate; computed per Sylow subgroup."""
    n = len(group)
    for a in group.elements:
        for b in group.elements:
            if group.mul[(a, b)] != group.mul[(b, a)]:
                raise NotAbelianKernel(f"({a!r}, {b!r}) do not commute",
                                       witness=(a, b))
    if n == 1:
        return []
    primes = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    basis = []
    for p in primes:
        members = [a for a in group.elements if _is_p_power(group.order(a), p)]
        basis.extend(_p_group_basis(GroupTable(
            members, {(a, b): group.mul[(a, b)]
                      for a in members for b in members}), members))
    return basis


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


class CharacterData:
    """Characters of a finite abelian group with exact exponents.

    Character index m (one exponent per basis generator) evaluates on the
    element with exponent vector e as unit_root(sum m_i e_i D/d_i, D)
    where D is the lcm of the generator orders.
    """

    def __init__(self, group: GroupTable):
        self.group = group
        self.basis = abelian_basis(group)
        self.orders = tuple(d for _, d in self.basis)
        D = 1
        for d in self.orders:
            D = D * d // gcd(D, d)
        self.lcm = max(D, 1)
        self.exponents = {}
        from itertools import product as iproduct
        for combo in iproduct(*(range(d) for d in self.orders)):
            x = group.unit
            for (g, _), e in zip(self.basis, combo):
                x = group.mul[(x, group.power(g, e))]
            if x in self.exponents:
                raise NotAbelianKernel("generator decomposition is not free")
            self.exponents[x] = combo
        if len(self.exponents) != len(group):
            raise NotAbelianKernel("basis does not enumerate the group")
        self.indices = list(iproduct(*(range(d) for d in self.orders)))

    def char_id(self, m) -> str:
        return "chi(" + ",".join(str(v) for v in m) + ")"

    def value(self, m, a) -> complex:
        return unit_root(self.exponent_numerator(m, a), self.lcm)

    def exponent_numerator(self, m, a) -> int:
        """Integer t with value(m, a) = unit_root(t, lcm)."""
        D = self.lcm
        return sum(mi * ei * (D // di) for mi, ei, di in
                   zip(m, self.exponents[a], self.orders)) % D

    def compose_with_map(self, m, images) -> tuple:
        """The character index of chi_m composed with the homomorphism
        sending generator i to images[i]; exact integer arithmetic."""
        out = []
        for image, (_, di) in zip(images, self.basis):
            t = self.exponent_numerator(m, image)
            step = self.lcm // di
            if t % step != 0:
                raise NotAbelianKernel("conjugation image is not a character")
            out.append((t // step) % di)
        return tuple(out)


@dataclass
class GroupExtension:
    group: GroupTable
    kernel: tuple                # kernel element ids, a subgroup of group
    section: dict                # quotient rep -> chosen group element

    @classmethod
    def from_tables(cls, elements, mul, kernel, section=None):
        """Validate and package an extension. The quotient is represented
        by the chosen section images; the default section picks the first
        element of each coset in element order (and the unit for the unit
        coset)."""
        G = GroupTable(elements, mul)
        kset = set(kernel)
        for a in kernel:
            if a not in G.index:
                raise GroupoidError(f"kernel element {a!r} not in group",
                                    witness=a)
        if G.unit not in kset:
            raise GroupoidError("kernel does not contain the unit")
        for a in kernel:
            if G.inv[a] not in kset:
                raise NotNormal(f"kernel not closed under inverse at {a!r}",
                                witness=a)
            for b in kernel:
                if G.mul[(a, b)] not in kset:
                    raise NotNormal(f"kernel not closed under product "
                                    f"({a!r}, {b!r})", witness=(a, b))
        for g in G.elements:
            for a in kernel:
                conj = G.mul[(G.mul[(g, a)], G.inv[g])]
                if conj not in kset:
                    raise NotNormal(f"conjugate of {a!r} by {g!r} leaves "
                                    "the kernel", witness=(g, a))
        for a in kernel:
            for b in kernel:
                if G.mul[(a, b)] != G.mul[(b, a)]:
                    raise NotAbelianKernel(f"({a!r}, {b!r}) do not commute",
                                           witness=(a, b))

        coset_of = {}
        reps = []
        for g in G.elements:
            for r in reps:
                if G.mul[(g, G.inv[r])] in kset:
                    coset_of[g] = r
                    break
            else:
                reps.append(g)
                coset_of[g] = g
        if section is None:
            section = {r: r for r in reps}
            unit_rep = coset_of[G.unit]
            section[unit_rep] = G.unit
        else:
            section = dict(section)
            for r, g in section.items():
                if coset_of.get(g) != r:
                    raise GroupoidError(f"section image {g!r} is not in the "
                                        f"coset of {r!r}", witness=(r, g))
            if section[coset_of[G.unit]] != G.unit:
                raise GroupoidError("section must send the unit coset to "
                                    "the unit")
        ext = cls(G, tuple(kernel), section)
        ext._coset_of = coset_of
        ext._reps = tuple(reps)
        return ext

    def coset(self, g):
        return self._coset_of[g]

    def quotient_table(self) -> GroupTable:
        reps = self._reps
        qmul = {(r1, r2): self._coset_of[self.group.mul[(r1, r2)]]
                for r1 in reps for r2 in reps}
        return GroupTable(reps, qmul)


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


def group_extension_bundle(ext: GroupExtension, tol: float = 1e-9,
                           samples: int = 50, seed: int = 0) -> ExtensionBundleResult:
    """The twisted action groupoid of an extension, with the certified
    isomorphism from the group algebra.

    Builds the dual action of the quotient on the kernel characters, the
    factor set of the section, and the cocycle; then checks the basis map
    U (``basis_map``): delta_g -> sum over chi of (h.chi)(a)
    delta_{(h, chi)} (for g = a c(h)) to be a bijective (rank),
    multiplicative and star-preserving (defects between the group table
    and the twisted table over every basis pair or element) and isometric
    (``samples`` seeded random elements) map onto the twisted algebra, and
    compares block invariants.
    """
    G = ext.group
    A = GroupTable(ext.kernel, {(a, b): G.mul[(a, b)]
                                for a in ext.kernel for b in ext.kernel})
    chars = CharacterData(A)
    Q = ext.quotient_table()
    Hgpd = Q.to_groupoid()

    sec = ext.section

    def conj_into_kernel(h, a):
        c = sec[h]
        return G.mul[(G.mul[(G.inv[c], a)], c)]

    # dual action through exact exponent arithmetic
    conj_images = {}
    for h in Q.elements:
        conj_images[h] = [conj_into_kernel(h, gen) for gen, _ in chars.basis]
    act = {}
    point_ids = [chars.char_id(m) for m in chars.indices]
    char_of_point = {chars.char_id(m): m for m in chars.indices}
    anchor = {x: Hgpd.units[0] for x in point_ids}
    for h in Q.elements:
        for m in chars.indices:
            m2 = chars.compose_with_map(m, conj_images[h])
            act[(h, chars.char_id(m))] = chars.char_id(m2)
    action = GroupoidAction(Hgpd, tuple(point_ids), anchor, act)
    ag = build_action_groupoid(action)

    factor_set = {}
    conj_factor = {}
    for h1 in Q.elements:
        for h2 in Q.elements:
            h12 = Q.mul[(h1, h2)]
            f = G.mul[(G.mul[(sec[h1], sec[h2])], G.inv[sec[h12]])]
            factor_set[(h1, h2)] = f
            conj_factor[(h1, h2)] = G.mul[(G.inv[sec[h12]],
                                           G.mul[(sec[h1], sec[h2])])]

    omega = {}
    id_of = {hx: gid for gid, hx in ag.pairs.items()}
    for gid2, (h2, x) in ag.pairs.items():
        m = char_of_point[x]
        y = act[(h2, x)]
        for h1 in Q.elements:
            gid1 = id_of[(h1, y)]
            omega[(gid1, gid2)] = chars.value(m, conj_factor[(h1, h2)])
    cocycle = Cocycle(ag.groupoid, omega)

    result = ExtensionBundleResult(ext, Q, chars, ag, cocycle, factor_set,
                                   char_of_point)
    crep = cocycle_check(cocycle, 1e-12)
    result.add("cocycle_identity", crep.identity_residual <= 1e-12,
               crep.identity_residual, crep.witness)
    result.add("cocycle_normalized", crep.normalization_residual <= 1e-12,
               crep.normalization_residual)

    ta = TwistedConvolutionAlgebra(ag.groupoid, cocycle)
    Ggpd = G.to_groupoid()
    n = len(G.elements)
    narr = len(ag.groupoid.arrows)

    # basis map
    U = np.zeros((narr, n), dtype=complex)
    for gi, g in enumerate(G.elements):
        h = ext.coset(g)
        a = G.mul[(g, G.inv[sec[h]])]
        for m in chars.indices:
            hm = chars.compose_with_map(m, conj_images[h])  # index of h.chi_m
            gid = id_of[(h, chars.char_id(m))]
            U[ag.groupoid.index[gid], gi] = chars.value(hm, a)

    result.basis_map = U
    rank = int(np.linalg.matrix_rank(U))
    result.add("basis_map_bijective", rank == n == narr,
               0.0 if rank == n else None,
               None if rank == n else f"rank {rank} of {n}")

    domain = groupoid_table(Ggpd)
    res_mul, pair = domain.hom_defect(ta.table, U)
    result.add("basis_map_multiplicative", res_mul <= 1e-8, res_mul,
               None if pair is None else
               f"({G.elements[pair[0]]!r}, {G.elements[pair[1]]!r})")
    res_star = domain.star_hom_defect(ta.table, U)[0]
    result.add("basis_map_star", res_star <= 1e-8, res_star)
    res_iso = isometry_defect(_regular(Ggpd).norms, ta.rep.norms, U,
                              np.random.default_rng(seed), samples)
    result.add("basis_map_isometric", res_iso <= 1e-8, res_iso)

    try:
        bg = wedderburn(Ggpd, seed=seed, tol=tol)
        bt = ta.wedderburn(seed=seed, tol=tol)
    except NumericalDegeneracy as exc:  # e.g. a non-associative twist
        result.add("wedderburn_equal", False, None, str(exc))
        return result
    result.blocks_group = bg.blocks
    result.blocks_twisted = bt.blocks
    result.add_wedderburn_equal(bg.blocks, bt.blocks)
    return result
