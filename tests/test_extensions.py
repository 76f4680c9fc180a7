import json
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest

import gpdkit as gk
from gpdkit import corpus
from gpdkit.algebra import StructureTable
from gpdkit.cli import main
from gpdkit.extensions import (CharacterData, GroupExtension, GroupTable,
                               abelian_basis, unit_root)

from oracles import group_algebra_blocks, loop_heisenberg_elements


def cyclic_table(n):
    els = [str(i) for i in range(n)]
    mul = {(str(a), str(b)): str((a + b) % n)
           for a in range(n) for b in range(n)}
    return els, mul


def _scale_character_value(monkeypatch, m, a, factor):
    """Every character value table read by group_extension_bundle, with
    the value of chi_m at the kernel element a times ``factor``."""
    values = CharacterData.values

    def scaled(self):
        out = values(self)
        out[self.indices.index(m), self.group.index[a]] *= factor
        return out
    monkeypatch.setattr(CharacterData, "values", scaled)


class TestGroupTable:
    def test_cyclic(self):
        els, mul = cyclic_table(6)
        G = GroupTable(els, mul)
        two, five = G.index["2"], G.index["5"]
        assert G.elements[G.unit] == "0"
        assert G.elements[G.inv[two]] == "4"
        assert G.orders()[two] == 3
        assert list(G.orders()) == [1, 6, 3, 2, 3, 6]
        assert G.powers(five, 8)[7] == five

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_corpus_tables_match_loop_oracles(self, n):
        elements, M = corpus.heisenberg_elements(n)
        els, mul, _ = loop_heisenberg_elements(n)
        assert elements == els
        assert dict(zip(product(elements, repeat=2),
                        (elements[c] for c in M.ravel()))) == mul
        # the quotient sends [a,b,c] to (a,b), in the product order of Z_n^2
        pi = corpus.heisenberg_quotient(n)
        assert pi.map == {g: "({},{})".format(*g.strip("[]").split(",")[:2])
                          for g in els}
        square = [(f"({a},{b})", f"({c},{d})",
                   f"({(a + c) % n},{(b + d) % n})")
                  for a in range(n) for b in range(n)
                  for c in range(n) for d in range(n)]
        assert [(*p, c) for p, c in pi.codomain.comp.items()] == square

    def test_groupoid_keeps_the_table_of_the_group(self):
        T = GroupTable(*corpus.heisenberg_elements(3))
        G = T.to_groupoid()
        assert G.table is T.table
        # the same arrays as the table validate_groupoid builds from comp
        fresh = gk.validate_groupoid(
            G.arrows, G.units, G.src, G.rng, G.inv, G.comp).table
        for name in ("a", "b", "c", "w", "s", "t", "sw"):
            assert np.array_equal(getattr(T.table, name),
                                  getattr(fresh, name)), name

    def test_rejects_broken_table(self):
        els, mul = cyclic_table(3)
        mul[("1", "1")] = "0"
        with pytest.raises(Exception, match="associativity"):
            GroupTable(els, mul)

    def test_corrupted_group_names_the_first_failing_triple(self):
        # two products in one row of heis3 swapped: unit and inverses
        # survive, associativity does not
        els, mul, _ = loop_heisenberg_elements(3)
        a, b1, b2 = "[0,1,0]", els[5], els[9]
        mul[(a, b1)], mul[(a, b2)] = mul[(a, b2)], mul[(a, b1)]
        first = next((x, y, z) for x in els for y in els for z in els
                     if mul[(mul[(x, y)], z)] != mul[(x, mul[(y, z)])])
        with pytest.raises(gk.GroupoidError, match="associativity") as exc:
            GroupTable(els, mul)
        assert exc.value.witness == first

    def test_corrupted_group_fails_as_its_groupoid(self):
        # the same first triple through the group table and through the
        # one-unit groupoid of the same products
        els, mul, _ = loop_heisenberg_elements(3)
        inv = GroupTable(els, mul).to_groupoid().inv
        mul[("[0,1,0]", els[5])], mul[("[0,1,0]", els[9])] = \
            mul[("[0,1,0]", els[9])], mul[("[0,1,0]", els[5])]
        with pytest.raises(gk.GroupoidError) as by_group:
            GroupTable(els, mul)
        unit = {a: els[0] for a in els}
        with pytest.raises(gk.AssociativityFailure) as by_groupoid:
            gk.validate_groupoid(els, [els[0]], unit, unit, inv, mul)
        assert by_group.value.witness == by_groupoid.value.witness

    def test_heis6_associativity_memory_is_bounded(self):
        # the (216, 216, 216) int64 cubes of (a b) c and a (b c) would
        # take 77 MiB each
        els, mul, _ = loop_heisenberg_elements(6)
        tracemalloc.start()
        try:
            GroupTable(els, mul)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2 ** 20


class TestAbelianBasis:
    @pytest.mark.parametrize("orders", [(2,), (3,), (4,), (6,), (2, 2),
                                        (2, 4), (3, 3), (2, 2, 2), (12,)])
    def test_product_groups(self, orders):
        els = [t for t in np.ndindex(*orders)]
        ids = {t: repr(t) for t in els}
        mul = {(ids[a], ids[b]):
               ids[tuple((x + y) % d for x, y, d in zip(a, b, orders))]
               for a in els for b in els}
        G = GroupTable([ids[t] for t in els], mul)
        basis = abelian_basis(G)
        total = 1
        for _, d in basis:
            total *= d
        assert total == len(G)
        chars = CharacterData(G)
        assert len(chars.indices) == len(G)
        # orthogonality of the first nontrivial character against the sum
        if len(G) > 1:
            m = chars.indices[1]
            s = sum(chars.value(m, a) for a in G.elements)
            assert abs(s) < 1e-9

    def test_nonabelian_rejected(self):
        elements, mul, _ = loop_heisenberg_elements(2)
        with pytest.raises(gk.NotAbelianKernel):
            abelian_basis(GroupTable(elements, mul))


class TestExtensionValidation:
    def test_non_normal_rejected(self):
        # S3 with a non-normal order-2 subgroup
        import itertools
        perms = list(itertools.permutations(range(3)))
        ids = {p: repr(p) for p in perms}
        mul = {(ids[p], ids[q]): ids[tuple(p[q[i]] for i in range(3))]
               for p in perms for q in perms}
        swap = ids[(1, 0, 2)]
        unit = ids[(0, 1, 2)]
        with pytest.raises(gk.NotNormal):
            GroupExtension.from_tables([ids[p] for p in perms], mul,
                                       [unit, swap])

    @pytest.mark.parametrize("kernel, witness", [
        # closed, but conjugating the swap by another swap leaves it
        ([(0, 1, 2), (1, 0, 2)], ((0, 2, 1), (1, 0, 2))),
        # two swaps whose product, a cycle, is not in the kernel
        ([(0, 1, 2), (1, 0, 2), (0, 2, 1)], ((1, 0, 2), (0, 2, 1)))])
    def test_non_normal_kernel_is_named_before_any_quotient(
            self, kernel, witness):
        # the subgroup and quotient tables are not scanned for
        # associativity, so normality must be decided before they are built
        import itertools
        perms = list(itertools.permutations(range(3)))
        mul = {(repr(p), repr(q)): repr(tuple(p[q[i]] for i in range(3)))
               for p in perms for q in perms}
        with pytest.raises(gk.NotNormal) as exc:
            GroupExtension.from_tables([repr(p) for p in perms], mul,
                                       [repr(k) for k in kernel])
        assert exc.value.witness == tuple(repr(w) for w in witness)

    def test_nonabelian_kernel_rejected(self):
        elements, mul, _ = loop_heisenberg_elements(2)
        with pytest.raises(gk.NotAbelianKernel):
            GroupExtension.from_tables(elements, mul, elements)

    def test_section_missing_a_coset_is_rejected(self):
        # Z4 over {0, 2} has the cosets 0 and 1; the section names only 0
        els, mul = cyclic_table(4)
        with pytest.raises(gk.GroupoidError) as exc:
            GroupExtension.from_tables(els, mul, ["0", "2"],
                                       section={"0": "0"})
        assert type(exc.value) is gk.GroupoidError
        assert exc.value.witness == "1"
        assert str(exc.value) == "section has no image for the coset of '1'"

    def test_first_coset_without_image_is_named(self):
        # Z6 over {0, 3}: cosets 0, 1, 2 in quotient order; 1 and 2 miss
        els, mul = cyclic_table(6)
        with pytest.raises(gk.GroupoidError) as exc:
            GroupExtension.from_tables(els, mul, ["0", "3"],
                                       section={"0": "0", "2": "5"})
        assert exc.value.witness == "1"
        ext = GroupExtension.from_tables(els, mul, ["0", "3"], section={
            "0": "0", "1": "4", "2": "5"})
        assert gk.group_extension_bundle(ext).passed


class TestHeisenbergExtension:
    @pytest.mark.parametrize("n", [2, 3])
    def test_factor_set_is_ab_prime(self, n):
        ext = corpus.heisenberg_extension(n)
        res = gk.group_extension_bundle(ext)
        assert res.passed
        for (h1, h2), f in res.factor_set.items():
            a = int(h1.strip("[]").split(",")[0])
            b2 = int(h2.strip("[]").split(",")[1])
            assert f == f"[0,0,{(a * b2) % n}]"

    @pytest.mark.parametrize("n", [2, 3])
    def test_cocycle_equals_closed_form_exactly(self, n):
        ext = corpus.heisenberg_extension(n)
        res = gk.group_extension_bundle(ext)
        for (g1, g2), val in res.cocycle.omega.items():
            h1, _ = res.action_groupoid.pairs[g1]
            h2, x2 = res.action_groupoid.pairs[g2]
            a = int(h1.strip("[]").split(",")[0])
            b2 = int(h2.strip("[]").split(",")[1])
            t = corpus.heisenberg_center_exponent(
                res.characters, res.char_of_point[x2], n)
            expected = corpus.heisenberg_cocycle_closed_form(n, t, a, b2)
            assert val == expected  # bit-identical
        assert corpus.heisenberg_closed_form_defect(res, n) == (0.0, None)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_center_exponent_matches_closed_form(self, n):
        # the characters of the center Z_n alone, without the n^3 bundle:
        # chi_m([0,0,a b']) must be the closed form at the exponent t
        center = [f"[0,0,{c}]" for c in range(n)]
        A = GroupTable(center, {(f"[0,0,{c}]", f"[0,0,{d}]"):
                                f"[0,0,{(c + d) % n}]"
                                for c in range(n) for d in range(n)})
        chars = CharacterData(A)
        first_index_is_t = True
        for m in chars.indices:
            t = corpus.heisenberg_center_exponent(chars, m, n)
            assert unit_root(t, n) == chars.value(m, f"[0,0,{1 % n}]")
            first_index_is_t &= t == m[0]
            for a in range(n):
                for b2 in range(n):
                    assert chars.value(m, f"[0,0,{(a * b2) % n}]") == \
                        corpus.heisenberg_cocycle_closed_form(n, t, a, b2)
        # the center's basis is [0,0,1] for n = 2..5 but not for n = 6
        assert first_index_is_t == (n != 6)

    def test_changed_cocycle_value_fails_with_its_pair(self):
        res = gk.group_extension_bundle(corpus.heisenberg_extension(3))
        omega = dict(res.cocycle.omega)
        pair = sorted(omega)[7]
        omega[pair] *= 1j
        res.cocycle = gk.Cocycle(res.cocycle.base, omega)
        resid, witness = corpus.heisenberg_closed_form_defect(res, 3)
        assert resid == pytest.approx(abs(1j - 1))
        assert witness == f"({pair[0]!r}, {pair[1]!r})"

    @pytest.mark.parametrize("n", [2, 3])
    def test_wedderburn_matches_oracle(self, n):
        elements, mul, _ = loop_heisenberg_elements(n)
        oracle = group_algebra_blocks(elements, mul)
        res = gk.group_extension_bundle(corpus.heisenberg_extension(n))
        assert res.blocks_group == oracle
        assert res.blocks_twisted == oracle

    def test_central_action_is_trivial(self):
        # central kernel: the dual action fixes every character, so every
        # arrow of the action groupoid has equal source and range
        res = gk.group_extension_bundle(corpus.heisenberg_extension(3))
        G = res.action_groupoid.groupoid
        for gid in G.arrows:
            assert G.rng[gid] == G.src[gid]


class TestOtherExtensions:
    def test_split_z2z2_over_z2_has_trivial_cocycle(self):
        els = [f"({a},{b})" for a in range(2) for b in range(2)]
        mul = {(f"({a},{b})", f"({c},{d})"): f"({(a + c) % 2},{(b + d) % 2})"
               for a in range(2) for b in range(2)
               for c in range(2) for d in range(2)}
        ext = GroupExtension.from_tables(els, mul, ["(0,0)", "(0,1)"])
        res = gk.group_extension_bundle(ext)
        assert res.passed
        assert all(v == 1.0 for v in res.cocycle.omega.values())
        assert all(f == "(0,0)" for f in res.factor_set.values())

    def test_wrong_character_value_fails_the_basis_map(self, monkeypatch):
        # the split extension has a trivial factor set, so the cocycle only
        # reads characters at the unit; a wrong value of chi(1) at the
        # kernel generator reaches the basis map alone
        els = [f"({a},{b})" for a in range(2) for b in range(2)]
        mul = {(f"({a},{b})", f"({c},{d})"): f"({(a + c) % 2},{(b + d) % 2})"
               for a in range(2) for b in range(2)
               for c in range(2) for d in range(2)}
        ext = GroupExtension.from_tables(els, mul, ["(0,0)", "(0,1)"])
        _scale_character_value(monkeypatch, (1,), "(0,1)", 1j)
        res = gk.group_extension_bundle(ext)
        for name in ("cocycle_identity", "basis_map_bijective",
                     "wedderburn_equal"):
            assert res.entry(name).passed, name
        assert not res.entry("basis_map_isometric").passed
        entry = res.entry("basis_map_multiplicative")
        assert not entry.passed
        # dense oracle: |U(e_g e_k) - U(e_g) U(e_k)| per pair, U(e_g) U(e_k)
        # in the twisted algebra of the result
        U = res.basis_map
        twisted = gk.twisted_algebra(res.action_groupoid.groupoid,
                                     res.cocycle).table
        defect = {(g, k): float(np.abs(
            U[:, els.index(mul[(g, k)])]
            - twisted.mul(U[:, els.index(g)], U[:, els.index(k)])).max())
                  for g in els for k in els}
        worst = max(defect.values())
        assert worst == pytest.approx(2.0)  # (-i)^2 against 1
        assert entry.residual == pytest.approx(worst, rel=1e-12)
        assert entry.witness == "('(0,1)', '(0,1)')"
        assert defect[("(0,1)", "(0,1)")] == pytest.approx(worst, rel=1e-12)

    @staticmethod
    def _double_chi1_at_center(monkeypatch):
        # a wrong character value makes the twist non-associative, so its
        # blocks are not checked
        _scale_character_value(monkeypatch, (1,), "[0,0,1]", 2.0)

    def test_wedderburn_error_is_a_failed_check(self, monkeypatch):
        self._double_chi1_at_center(monkeypatch)
        res = gk.group_extension_bundle(corpus.heisenberg_extension(2))
        names = [e.name for e in res.entries]
        assert names[2:] == ["basis_map_bijective", "basis_map_multiplicative",
                             "basis_map_star", "basis_map_isometric",
                             "wedderburn_equal"]
        assert not res.entry("basis_map_multiplicative").passed
        entry = res.entry("wedderburn_equal")
        assert not entry.passed and entry.residual is None
        assert not res.entry("cocycle_identity").passed
        assert entry.witness == "not checked: cocycle_identity failed"
        assert res.blocks_group is None and res.blocks_twisted is None

    def test_non_associative_twist_raises_in_its_own_solve(self,
                                                           monkeypatch):
        # the twisted algebra of that cocycle has blocks (2, 1, 1, 1, 1) by
        # the center alone; its solve reads the table's associativity
        # defect and refuses
        self._double_chi1_at_center(monkeypatch)
        res = gk.group_extension_bundle(corpus.heisenberg_extension(2))
        ta = gk.TwistedConvolutionAlgebra(res.action_groupoid.groupoid,
                                          res.cocycle)
        with pytest.raises(gk.NumericalDegeneracy, match=(
                r"not associative: defect 3\.000e\+00 at \('\(\[1,0,0\],"
                r"chi\(1\)\)', '\(\[0,1,0\],chi\(1\)\)', "
                r"'\(\[0,1,0\],chi\(1\)\)'\)")):
            ta.wedderburn()
        assert ta.table.solved == {}

    def test_ext_analyze_reports_it_with_exit_1(self, monkeypatch, tmp_path,
                                               capsys):
        from gpdkit import io as gio
        from gpdkit.cli import main
        from gpdkit.report import canonical_json
        elements, mul, _ = loop_heisenberg_elements(2)
        path = tmp_path / "heis2.group.json"
        path.write_text(canonical_json(gio.save_group(
            elements, mul, ["[0,0,0]", "[0,0,1]"])))
        self._double_chi1_at_center(monkeypatch)
        code = main(["ext", "analyze", "--group", str(path)])
        out = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in out.err
        checks = {c["name"]: c for c in json.loads(out.out)["checks"]}
        assert checks["basis_map_bijective"]["pass"]
        assert not checks["wedderburn_equal"]["pass"]
        assert checks["wedderburn_equal"]["witness"] == \
            "not checked: cocycle_identity failed"

    def test_z4_over_2z4(self):
        els, mul = cyclic_table(4)
        ext = GroupExtension.from_tables(els, mul, ["0", "2"])
        res = gk.group_extension_bundle(ext)
        assert res.passed
        # oracle: the 4-element cyclic group algebra splits into 4 lines
        assert res.blocks_group == (1, 1, 1, 1)
        assert res.blocks_twisted == (1, 1, 1, 1)
        # the nontrivial character chi(2) = -1 shows up in the twist
        values = {complex(np.round(v, 12)) for v in res.cocycle.omega.values()}
        assert values == {1.0 + 0.0j, -1.0 + 0.0j}

    def test_s3_over_a3_nonCentral(self):
        # noncentral abelian kernel: the corrected factor set still
        # yields a valid cocycle and a certified isomorphism
        import itertools
        perms = list(itertools.permutations(range(3)))
        ids = {p: repr(p) for p in perms}
        mul = {(ids[p], ids[q]): ids[tuple(p[q[i]] for i in range(3))]
               for p in perms for q in perms}
        a3 = [ids[p] for p in perms
              if sum(1 for i, j in itertools.combinations(range(3), 2)
                     if p[i] > p[j]) % 2 == 0]
        ext = GroupExtension.from_tables([ids[p] for p in perms], mul, a3)
        res = gk.group_extension_bundle(ext)
        assert res.passed
        oracle = group_algebra_blocks([ids[p] for p in perms], mul)
        assert res.blocks_group == oracle == (2, 1, 1)


def test_unit_root_reduction():
    assert unit_root(17, 3) == unit_root(2, 3)
    assert unit_root(0, 5) == 1.0


def test_demo_heisenberg_scans_only_the_groups_it_builds(monkeypatch,
                                                          capsys):
    # the input group and the Z_3^2 codomain are scanned for
    # associativity; the kernel and the quotient of the extension, and
    # the Sylow subgroup and the quotient of the character basis, are a
    # subgroup or a quotient of a checked group and are not
    scanned = []
    scan = StructureTable.associativity_defect

    def spy(self):
        if isinstance(sys._getframe(1).f_locals.get("self"), GroupTable):
            scanned.append(self.dim)
        return scan(self)
    monkeypatch.setattr(StructureTable, "associativity_defect", spy)
    assert main(["demo", "heisenberg", "--n", "3", "--samples", "5"]) == 0
    capsys.readouterr()
    assert scanned == [27, 9]


def test_demo_heisenberg_lists_each_weight_as_printed(capsys):
    assert main(["demo", "heisenberg", "--n", "4", "--samples", "5"]) == 0
    values = json.loads(capsys.readouterr().out)["cocycle_values"]
    w = gk.group_extension_bundle(
        corpus.heisenberg_extension(4)).cocycle.table.w
    assert values == sorted({f"{v.real:+.6f}{v.imag:+.6f}i" for v in w})
