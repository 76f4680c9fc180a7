"""Command-line front end.

Every subcommand parses its input files, runs the relevant operations and
prints a deterministic JSON report on stdout plus a human summary on
stderr. The report's ``inputs`` are sha256 digests: of an input file's
bytes, or of a demo's groupoid as ``_groupoid_digest`` reads it. Exit
code 0 means every check passed, 1 means a verification failure, 2 means
malformed input (the diagnostic names the file, the JSON path and what
was expected there), a tolerance that is not a finite number >= 0, a
negative ``--samples`` or ``--depth``, or an ``--n`` below 1.

Each command is declared once, in the command table ``COMMANDS``. A run
builds the argparse parser of its own command only, with the help, usage
and error messages of the whole table's parser, once per process: later
``main`` calls reuse it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys

import numpy as np

from . import algebra, bundle, corpus, graphs, io as gio
from .actions import (ActionAxiomViolation, CocycleIdentityFailure,
                      abelian_extract, build_action_groupoid, cocycle_check,
                      covering_to_action)
from .algebra import (AlgebraElement, cstar_norm, positivity_check,
                      wedderburn)
from .bundle import (build_bundle, bisection_bimodule_check, psi_iso_check,
                     verify_axioms)
from .extensions import GroupExtension, group_extension_bundle
from .fiberblocks import fiber_blocks
from .groupoid import (GroupoidError, classify_morphism,
                       greedy_bisection_cover, isotropy_quotient, kernel,
                       validate_groupoid)
from .graphs import (check_graph_morphism, collapse_morphism,
                     cylinder_cover_check, grading_degree, lift_counts,
                     lift_paths)
from .report import Report, canonical_json, digest_bytes, digest_text

DEMOS = ("pair", "z3", "flip", "cuntz", "heisenberg")


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return digest_bytes(fh.read())


def _input_digests(args, names) -> dict:
    out = {}
    for name in names:
        path = getattr(args, name.replace("-", "_"), None)
        if path:
            try:
                out[name] = _digest_file(path)
            except OSError:
                out[name] = None
    return out


def _groupoid_digest(G) -> str:
    """The digest of a built groupoid: the sha256 of the canonical JSON of
    its arrow names, then of the little-endian int64 bytes of its unit,
    source, range and inverse indices and of its table's a, b and c, in
    (a, b) order as every table is."""
    T = G.table
    h = hashlib.sha256(canonical_json(list(G.arrows)).encode("utf-8"))
    for v in (G.unit_idx, G.src_idx, G.rng_idx, G.inv_idx, T.a, T.b, T.c):
        h.update(np.asarray(v, "<i8").tobytes())
    return h.hexdigest()


def cmd_gpd_validate(args, report: Report):
    G = validate_groupoid(*gio.load_raw_groupoid_tables(args.groupoid))
    report.add("groupoid_axioms", True, 0.0)
    report.extras["arrows"] = len(G.arrows)
    report.extras["units"] = len(G.units)
    cover = greedy_bisection_cover(G)  # each one checked by check_bisection
    report.add("bisection_cover", True, None,
               f"{len(cover)} maximal bisections")
    report.extras["bisection_cover_sizes"] = [len(b.arrows) for b in cover]
    R, pi = isotropy_quotient(G)
    cls = classify_morphism(pi)
    report.add("isotropy_quotient_fibration",
               cls.surjective and cls.fibration, None,
               None if cls.fibration else repr(cls.witness))
    report.extras["orbit_relation_arrows"] = len(R.arrows)
    report.extras["topology"] = "openness/continuity automatic " \
                                "(finite discrete)"


def cmd_gpd_morphism(args, report: Report):
    pi = gio.load_morphism(args.morphism)
    cls = classify_morphism(pi)
    report.add("is_morphism", cls.is_morphism, None,
               None if cls.is_morphism else repr(cls.witness))
    report.extras["classification"] = cls.as_dict()
    if cls.is_morphism and cls.surjective:
        dec = kernel(pi)
        report.extras["kernel"] = {
            "arrows": len(dec.groupoid.arrows),
            "fiber_sizes": {x: len(f) for x, f in sorted(
                dec.fibers.items(), key=lambda kv: str(kv[0]))},
            "amenable": "automatic (finite)",
        }
        report.add("kernel_subgroupoid", True, 0.0)
        if cls.covering:
            report.add(
                "covering_kernel_is_unit_space",
                set(dec.groupoid.arrows) == set(pi.domain.units), 0.0)


def cmd_alg_wedderburn(args, report: Report):
    """Block invariants of C*_r(G) and its C*-identities.

    The norm is that of the left regular representation lambda. Its four
    norm entries (``cstar_identity``, ``submultiplicative``,
    ``involution_isometric``, ``squares_positive``) are certified on every
    element, not sampled: when the table is associative (kept on it by
    ``validate_groupoid``) and the blocks of lambda form a
    *-representation (``star_rep(regular)``), lambda is a *-homomorphism.
    Then for every x, ||lambda(x* x)|| = ||lambda(x)* lambda(x)|| =
    ||lambda(x)||^2, ||lambda(xy)|| <= ||lambda(x)|| ||lambda(y)||,
    ||lambda(x*)|| = ||lambda(x)|| and lambda(x* x) = lambda(x)* lambda(x)
    >= 0 (Murphy 1990, *C*-algebras and Operator Theory*, 2.1). Each entry
    carries the largest hypothesis residual (``algebra.certificate``), and
    nothing is drawn."""
    G = gio.load_groupoid(args.groupoid)
    defect, sigma_min = algebra.faithfulness_defect(G)
    report.extras["margins"] = {"faithfulness_sigma_min": sigma_min}
    try:
        inv = wedderburn(G, tol=args.tol)
    except algebra.NumericalDegeneracy as exc:  # e.g. at --tol 0
        degenerate = exc  # reported last, once the other checks ran
    else:
        degenerate = None
        report.extras["blocks"] = list(inv.blocks)
        report.extras["dimension"] = inv.dimension
        report.extras["center_dimension"] = inv.center_dimension
        report.extras["margins"].update(central_gap=inv.central_gap,
                                        central_spread=inv.central_spread)
        report.add("sum_of_squares",
                   sum(b * b for b in inv.blocks) == inv.dimension, 0.0)
    report.add("faithful_regular_representation", defect == 0, 0.0)

    table = G.table
    certified = algebra.certificate([
        ("associative(regular)", *table.associativity_defect()),
        algebra.star_rep_hypothesis("regular", algebra._regular(G))],
        args.tol)
    for name in ("cstar_identity", "submultiplicative",
                 "involution_isometric", "squares_positive"):
        report.add(name, *certified)

    # expectation onto the unit diagonal: restriction, positive, faithful
    # on the delta basis by the exhaustive support identity: the unit
    # coefficients of e_g* e_g are those of e_s(g). Row g of the products
    # sums sw w e_c over the star entries (g, t, sw) and the product
    # entries (t, g, c, w); only the terms at a unit c are kept
    j, p = G.row_entries(table.t)
    on = (table.b[p] == table.s[j]) & G.unit_mask()[table.c[p]]
    res_diag, _ = algebra._defect(
        (table.s[j][on], table.c[p][on], (table.sw[j] * table.w[p])[on]),
        (np.arange(table.dim), G.src_idx, np.ones(table.dim)), table.dim)
    report.add("unit_expectation_faithful_support",
               res_diag <= args.tol, res_diag)

    if getattr(args, "element", None):
        f, base = gio.load_algebra_element(args.element)
        if set(base.arrows) != set(G.arrows):
            report.add("element_base_matches", False, None,
                       "element base differs from --groupoid")
        else:
            f = AlgebraElement.from_dict(
                G, {g: f.coeffs[base.index[g]] for g in base.arrows})
            report.extras["element_norm"] = cstar_norm(G, f)
    if degenerate is not None:
        report.add(type(degenerate).__name__, False, None, str(degenerate))


def _load_bundle_from_args(args, report: Report):
    twist = None
    if getattr(args, "morphism", None):
        pi = gio.load_morphism(args.morphism)
        if getattr(args, "cocycle", None):
            twist = gio.load_cocycle(args.cocycle, groupoid=pi.domain)
        E = build_bundle(pi, twist=twist)
        return E, pi
    if getattr(args, "bundle", None):
        return gio.load_bundle(args.bundle), None
    raise SystemExit2("one of --morphism or --bundle is required")


class SystemExit2(Exception):
    pass


def cmd_bundle_build(args, report: Report):
    E, pi = _load_bundle_from_args(args, report)
    G = pi.domain
    report.extras["fiber_dimensions"] = {h: E.dim(h) for h in E.base.arrows}
    report.add("fiber_dimensions_partition_domain",
               E.total_dim() == len(G.arrows), 0.0)
    dec = bundle.kernel_decomposition_report(pi, untwisted=not args.cocycle,
                                             tol=args.tol)
    report.extras["kernel_decomposition"] = dec
    report.add("kernel_direct_sum",
               dec.get("direct_sum_check", dec["dimension_check"]), 0.0)
    # (x y)* = y* x* is axiom 8 and ||x* x|| = ||x||^2 axiom 9, certified
    # on every element (measured only when the certificate fails)
    rep = verify_axioms(E, tol=args.tol, samples=args.samples,
                        seed=args.seed)
    for name, axiom in (("fiber_star_antimultiplicative",
                         "axiom8_antimultiplicative"),
                        ("fiber_norm_cstar_identity",
                         "axiom9_cstar_identity")):
        entry = rep.entry(axiom)
        report.add(name, entry.passed, entry.residual, entry.witness)


def cmd_bundle_verify(args, report: Report):
    E, _ = _load_bundle_from_args(args, report)
    rep = verify_axioms(E, tol=args.tol, samples=args.samples,
                        seed=args.seed)
    report.add_entries(rep.entries)
    report.extras["saturated"] = rep.saturated
    if not rep.axioms_pass:
        return
    # faithfulness: P(s* s) = 0 only for s = 0 exactly when every per-arrow
    # Gram block of the section inner product is positive definite. Axiom 9
    # requires the smallest Gram margin to exceed --tol, whether certified
    # or measured, so passing axioms already certify it.
    report.extras["gram_margin"] = fiber_blocks(E).gram_margin()[0]
    # ||E(s)|| <= ||s|| on every section s, certified
    report.add("expectation_contractive",
               *bundle.expectation_certificate(E, args.tol))
    report.add("expectation_faithful", True, None)
    if rep.saturated:
        for i, brep in enumerate(bisection_bimodule_check(
                E, greedy_bisection_cover(E.base), tol=args.tol,
                samples=args.samples // 2, seed=args.seed, axiom_report=rep)):
            report.add_entries(brep.entries, prefix=f"bimodule{i}_")
    else:
        report.extras["bimodule_checks"] = "skipped: bundle not saturated"


def cmd_bundle_psi(args, report: Report):
    pi = gio.load_morphism(args.morphism)
    iso = psi_iso_check(pi, tol=args.tol, seed=args.seed,
                        samples=args.samples)
    report.add_entries(iso.entries)
    report.extras["blocks_domain"] = list(iso.blocks_domain or ())
    report.extras["blocks_bundle"] = list(iso.blocks_bundle or ())


def cmd_graph_check(args, report: Report):
    phi = gio.load_graph_morphism(args.morphism)
    report.add_entries(check_graph_morphism(phi).entries)
    cyl = cylinder_cover_check(phi, args.depth)
    report.add("cylinder_cover", cyl["pass"], None, cyl["witness"])
    report.extras["cylinder_words_checked"] = cyl["words_checked"]


def _parse_word(word: str, edges) -> list:
    if "," in word:
        return word.split(",")
    eset = set(edges)
    if all(ch in eset for ch in word):
        return list(word)
    return [word] if word else []


def _add_count_check(report: Report, name: str, got: dict,
                     expected: dict):
    """One check that two terminal vertex -> count maps agree; a failure
    names the first terminal vertex, in repr order, where they differ."""
    bad = [v for v in sorted(set(got) | set(expected), key=repr)
           if got.get(v, 0) != expected.get(v, 0)]
    report.add(name, not bad, None if bad else 0.0,
               f"terminal {bad[0]!r}: {got.get(bad[0], 0)} != "
               f"{expected.get(bad[0], 0)}" if bad else None)


def cmd_graph_fibers(args, report: Report):
    phi = gio.load_graph_morphism(args.morphism)
    word = _parse_word(args.word, phi.codomain.edges)
    if args.origin is not None and args.origin not in phi.codomain.vertices:
        raise SystemExit2(f"--origin {args.origin!r} is not a vertex of the "
                          "codomain graph")
    try:
        ls = lift_paths(phi, word, origin=args.origin)
    except graphs.MalformedWord as exc:
        raise SystemExit2(f"--word {args.word!r}: {exc}") from None
    counts, _ = lift_counts(phi, word, origin=args.origin)
    pair_counts, _ = lift_counts(phi, word, origin=args.origin, pairs=True)
    report.extras["word"] = word
    report.extras["lift_count"] = len(ls)
    report.extras["blocks"] = sorted(counts.values(), reverse=True)
    report.extras["window_note"] = ("finite-depth fibers; infinite words "
                                    "are limits of this block sequence, "
                                    "never computed objects")
    report.add("prefixes_extend", ls.all_prefixes_extend, 0.0)
    _add_count_check(report, "blocks_partition_lifts", counts,
                     {v: len(p) for v, p in ls.by_terminal.items()})
    # the diagonal of the fiber-product counts is the arrow count of K
    _add_count_check(report, "block_squares_count_arrows",
                     {v: n * n for v, n in counts.items()},
                     {u: n for (u, u2), n in pair_counts.items() if u == u2})


def cmd_graph_grading(args, report: Report):
    V = gio.load_graph(args.graph)
    phi = collapse_morphism(V)
    g = grading_degree(phi, args.depth)
    report.extras["grading"] = g.as_dict()
    report.add_entries(g.entries)


def cmd_action_build(args, report: Report):
    a = gio.load_action(args.action)
    try:
        ag = build_action_groupoid(a)  # validate_action runs first
    except ActionAxiomViolation as exc:
        report.add("action_axioms", False, None, repr(exc.witness))
        return
    report.extras["arrows"] = len(ag.groupoid.arrows)
    report.add("action_axioms", True, 0.0)
    report.add("projection_is_covering", ag.classification.covering,
               None, None if ag.classification.covering
               else repr(ag.classification.witness))


def cmd_action_roundtrip(args, report: Report):
    if getattr(args, "action", None):
        a = gio.load_action(args.action)
        ag = build_action_groupoid(a)
        pi = ag.projection
    elif getattr(args, "morphism", None):
        pi = gio.load_morphism(args.morphism)
    else:
        raise SystemExit2("one of --action or --morphism is required")
    ca = covering_to_action(pi)
    report.add("roundtrip_isomorphism_exact", ca.exact, 0.0)
    report.extras["points"] = len(ca.action.points)


def cmd_abelian_extract(args, report: Report):
    if getattr(args, "bundle", None):
        E = gio.load_bundle(args.bundle)
    elif getattr(args, "morphism", None):
        pi = gio.load_morphism(args.morphism)
        twist = None
        if getattr(args, "cocycle", None):
            twist = gio.load_cocycle(args.cocycle, groupoid=pi.domain)
            checks = cocycle_check(twist, 1e-9)
            identity = checks.entry("cocycle_identity")
            report.add("input_cocycle_valid", checks.passed,
                       identity.residual, identity.witness)
        E = build_bundle(pi, twist=twist)
    else:
        raise SystemExit2("one of --bundle or --morphism is required")
    res = abelian_extract(E, tol=args.tol, seed=args.seed)
    report.add_entries(res.entries)
    report.extras["points"] = [str(x) for x in res.points]
    report.extras["blocks_twisted"] = list(res.blocks_twisted or ())
    report.extras["blocks_bundle"] = list(res.blocks_bundle or ())
    if not res.entry("cocycle_identity").passed:
        report.add("extracted_twist_validates", False, None,
                   "not checked: cocycle_identity failed")
        return
    # the extracted twist validates when the cocycle_check the extraction
    # ran at 1e-12 passes: its identity, modulus and normalization
    if not (res.entry("cocycle_modulus").passed
            and res.entry("cocycle_normalized").passed):
        raise CocycleIdentityFailure(
            f"cocycle fails validation (identity residual "
            f"{res.entry('cocycle_identity').residual:.3e})")
    report.add("extracted_twist_validates", True, 0.0)


def cmd_ext_analyze(args, report: Report):
    elements, mul, kern = gio.load_group(args.group)
    ext = GroupExtension.from_tables(elements, mul, kern)
    res = group_extension_bundle(ext, tol=args.tol)
    report.add_entries(res.entries)
    report.extras["blocks_group"] = list(res.blocks_group or ())
    report.extras["blocks_twisted"] = list(res.blocks_twisted or ())
    report.extras["kernel_size"] = len(ext.kernel)
    report.extras["quotient_size"] = len(res.quotient)


def cmd_demo(args, report: Report):
    name = args.name
    if name == "pair":
        G = corpus.pair_groupoid(2)
        report.inputs["pair"] = _groupoid_digest(G)
        inv = wedderburn(G, tol=args.tol)
        report.extras["blocks"] = list(inv.blocks)
        report.add("blocks_full_matrix", inv.blocks == (2,), 0.0)
        iso = psi_iso_check(corpus.identity_morphism(G), tol=args.tol,
                            seed=args.seed, samples=args.samples)
        report.add_entries(iso.entries)
    elif name == "z3":
        G = corpus.cyclic_groupoid(3)
        report.inputs["z3"] = _groupoid_digest(G)
        inv = wedderburn(G, tol=args.tol)
        report.extras["blocks"] = list(inv.blocks)
        report.add("blocks_abelian", inv.blocks == (1, 1, 1), 0.0)
        f = AlgebraElement.from_dict(
            G, {"g0": 1.0, "g1": -1.0, "g2": -1.0})
        report.add("indicator_not_positive",
                   not positivity_check(G, f, tol=args.tol), 0.0)
    elif name == "flip":
        a = corpus.flip_action()
        ag = build_action_groupoid(a)
        report.inputs["flip"] = _groupoid_digest(ag.groupoid)
        report.add("projection_is_covering",
                   ag.classification.covering, 0.0)
        ca = covering_to_action(ag.projection)
        report.add("roundtrip_isomorphism_exact", ca.exact, 0.0)
        E = build_bundle(ag.projection)
        rep = verify_axioms(E, tol=args.tol, samples=args.samples,
                            seed=args.seed)
        report.add_entries(rep.entries)
        res = abelian_extract(E, tol=args.tol, seed=args.seed)
        report.add_entries(res.entries, prefix="extract_")
        d = res.cocycle.table.w - 1.0
        triv = float(np.hypot(d.real, d.imag).max())  # as abs(complex)
        report.add("extracted_cocycle_trivial", triv <= args.tol, triv)
        report.extras["blocks"] = list(res.blocks_bundle or ())
    elif name == "cuntz":
        V, W, phi = corpus.cuntz_graphs()
        report.inputs["cuntz"] = digest_text(
            canonical_json(gio.save_graph_morphism(phi)))
        report.add_entries([check_graph_morphism(phi).entry("path_lifting")])
        counts_ok = True
        import itertools
        for n in range(1, 7):
            for w in itertools.product("12", repeat=n):
                counts, _ = lift_counts(phi, w)
                ones = sum(1 for ch in w if ch == "1")
                if list(counts.values()) != [2 ** ones]:
                    counts_ok = False
        report.add("fiber_blocks_2_pow_ones", counts_ok, 0.0)
        pi = corpus.graph_path_groupoid_morphism(phi, 2)
        rep = verify_axioms(build_bundle(pi), tol=args.tol,
                            samples=args.samples, seed=args.seed)
        report.add_entries(rep.entries)
        report.extras["depth"] = 2
        report.extras["window_note"] = ("finite window of the infinite path "
                                        "groupoid; the limit object is out "
                                        "of scope")
    elif name == "heisenberg":
        n = args.n
        ext = corpus.heisenberg_extension(n)
        # the quotient's domain is the groupoid of the extension's group,
        # built once and shared with the extension bundle
        pi = corpus.heisenberg_quotient(n, ext.group)
        G = pi.domain
        report.inputs[f"heis{n}"] = _groupoid_digest(G)
        iso = psi_iso_check(pi, tol=args.tol, seed=args.seed,
                            samples=args.samples)
        # psi solved G's Wedderburn at this tolerance (kept on G's table)
        blocks = wedderburn(G, tol=args.tol).blocks
        report.extras["blocks"] = list(blocks)
        report.add("blocks_sum_of_squares",
                   sum(b * b for b in blocks) == n ** 3, 0.0)
        report.add_entries(iso.entries, prefix="psi_")
        res = group_extension_bundle(ext, tol=args.tol)
        report.add_entries(res.entries, prefix="ext_")
        # the canonical section must reproduce the closed-form twist
        # chi_t(a b') with zero residual
        resid, pair = corpus.heisenberg_closed_form_defect(res, n)
        report.add("cocycle_matches_closed_form", resid == 0.0, resid, pair)
        # each distinct weight formatted once, told apart by its bytes:
        # -0.0 and +0.0 are equal but print differently (return_index
        # keeps np.unique from importing numpy.ma)
        w = np.ascontiguousarray(res.cocycle.table.w)
        first = np.unique(w.view("V16"), return_index=True)[1]
        report.extras["cocycle_values"] = sorted(
            {f"{v.real:+.6f}{v.imag:+.6f}i" for v in w[first]})
    return


# The command table, the one place a command is declared: each group's
# help and commands, and for each command its handler, its help and the
# keyword arguments of its flags besides the common ones. The demo group
# has no commands: its one entry, named None, gives the flags of the group
# parser itself.
COMMANDS = {
    "gpd": ("groupoid table operations", {
        "validate": (cmd_gpd_validate, "validate a groupoid file",
                     {"--groupoid": dict(required=True)}),
        "morphism": (cmd_gpd_morphism, "classify a groupoid morphism",
                     {"--morphism": dict(required=True)})}),
    "alg": ("convolution algebra checks", {
        "wedderburn": (cmd_alg_wedderburn,
                       "block invariants and algebra sanity checks",
                       {"--groupoid": dict(required=True),
                        "--element": dict(
                            help="optional element file to analyze")})}),
    "bundle": ("bundle construction and checks", {
        "build": (cmd_bundle_build, "build the bundle of a morphism",
                  {"--morphism": dict(required=True),
                   "--cocycle": dict(help="optional twist on the domain")}),
        "verify": (cmd_bundle_verify, "verify bundle axioms",
                   {"--morphism": {}, "--bundle": {}, "--cocycle": {}}),
        "psi-check": (cmd_bundle_psi, "certify the restriction isomorphism",
                      {"--morphism": dict(required=True)})}),
    "graph": ("graph morphism operations", {
        "check": (cmd_graph_check, "check a graph morphism",
                  {"--morphism": dict(required=True),
                   "--depth": dict(type=int, default=4,
                                   help="cylinder cover depth")}),
        "fibers": (cmd_graph_fibers, "kernel fibers over a word",
                   {"--morphism": dict(required=True),
                    "--word": dict(required=True, help="edge ids, comma "
                                   "separated or single characters"),
                    "--origin": dict(
                        help="origin vertex for the empty word")}),
        "grading": (cmd_graph_grading, "window grading of a collapse map",
                    {"--graph": dict(required=True),
                     "--depth": dict(type=int, default=3)})}),
    "action": ("groupoid actions", {
        "build": (cmd_action_build, "build the action groupoid",
                  {"--action": dict(required=True)}),
        "roundtrip": (cmd_action_roundtrip,
                      "covering -> action -> covering round trip",
                      {"--action": {},
                       "--morphism": dict(help="a covering morphism file")})}),
    "abelian": ("commutative-fiber bundles", {
        "extract": (cmd_abelian_extract,
                    "recover the twisted covering of a bundle",
                    {"--bundle": {},
                     "--morphism": dict(
                         help="build the bundle from this covering"),
                     "--cocycle": dict(
                         help="optional twist when building")})}),
    "ext": ("group extensions", {
        "analyze": (cmd_ext_analyze, "dual action and twist of an "
                    "extension with abelian kernel",
                    {"--group": dict(required=True)})}),
    "demo": ("run a built-in example", {
        None: (cmd_demo, None,
               {"name": dict(choices=DEMOS),
                "--n": dict(type=int, default=3,
                            help="modulus for the heisenberg demo")})}),
}

HANDLERS = {(group, name): handler
            for group, (_, commands) in COMMANDS.items()
            for name, (handler, _, _) in commands.items() if name}

_INPUT_FLAGS = ("groupoid", "morphism", "bundle", "cocycle", "graph",
                "action", "group", "element")


def _add_flags(p, flags):
    for name, kwargs in flags.items():
        p.add_argument(name, **kwargs)
    p.add_argument("--tol", type=float, default=None,
                   help="numeric tolerance (env GPD_TOL; flag wins)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out", type=str, default=None,
                   help="also write the JSON report to this path")


def _subparsers(parser, dest: str, table: dict, key):
    """(subparsers action, the entries of ``table`` to add): the entry
    ``key`` if it is one, else all; the usage lists all either way."""
    if key not in table:
        return parser.add_subparsers(dest=dest, required=True), table.items()
    return (parser.add_subparsers(dest=dest, required=True,
                                  metavar="{%s}" % ",".join(table)),
            [(key, table[key])])


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of what ``argv`` can reach in the command table: the
    group and command it names, a group it names with all its commands,
    or else (also for None) the whole table. It parses ``argv`` as the
    whole table's parser does, with the same output and exit status.
    Each of these parsers is built once per process, on its first call,
    and later calls return it: parsing and help output leave a parser as
    it was, and the terminal width and ``GPD_TOL`` are read when a run
    happens, not when its parser is built."""
    group, name = [*(argv or ()), None, None][:2]
    if group not in COMMANDS:
        return _parser(None, None)
    return _parser(group, name if name in COMMANDS[group][1] else None)


@functools.lru_cache(maxsize=None)  # at most one entry per table key
def _parser(group, name) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gpdkit",
        description="finite groupoid / fiber bundle verification toolkit")
    sub, groups = _subparsers(p, "cmd", COMMANDS, group)
    for gname, (ghelp, commands) in groups:
        gp = sub.add_parser(gname, help=ghelp)
        if None in commands:  # the group parser is the command's
            _add_flags(gp, commands[None][2])
            continue
        gsub, reached = _subparsers(gp, "sub", commands, name)
        for cname, (_, chelp, flags) in reached:
            _add_flags(gsub.add_parser(cname, help=chelp), flags)
    return p


def _tolerance(flag):
    """The tolerance of a run: ``--tol``, else GPD_TOL, else 1e-9. Raises
    SystemExit2 unless it is a finite number >= 0."""
    source, text = ("--tol", flag) if flag is not None else \
        ("GPD_TOL", os.environ.get("GPD_TOL", "1e-9"))
    try:
        tol = float(text)
    except ValueError:
        tol = float("nan")
    if not 0.0 <= tol < float("inf"):
        raise SystemExit2(f"{source} {text!r} is not a finite number >= 0")
    return tol


def _check_counts(args):
    """Raise SystemExit2 on a negative --samples, --depth or --seed, or an
    --n below 1."""
    for flag, low in (("samples", 0), ("depth", 0), ("seed", 0), ("n", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            raise SystemExit2(f"--{flag} {value} is not an integer >= {low}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        args.tol = _tolerance(args.tol)
        _check_counts(args)
    except SystemExit2 as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    sub = getattr(args, "sub", None)  # None for a demo
    handler = COMMANDS[args.cmd][1][sub][0]
    command = f"{args.cmd} {args.name if sub is None else sub}"
    report = Report(command=command, seed=args.seed, tolerance=args.tol)
    report.inputs.update(_input_digests(args, _INPUT_FLAGS))
    try:
        handler(args, report)
    except (gio.ParseError, SystemExit2) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (GroupoidError, bundle.FellBundleError, graphs.GraphError) as exc:
        # the witness, or the message of an error that carries none
        witness = getattr(exc, "witness", None)
        report.add(type(exc).__name__, False, None,
                   str(exc) if witness is None else repr(witness))
    except (algebra.NumericalDegeneracy, np.linalg.LinAlgError) as exc:
        report.add(type(exc).__name__, False, None, str(exc))
    text = report.to_json()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
