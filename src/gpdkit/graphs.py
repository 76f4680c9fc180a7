"""Directed graphs, edge-lifting morphisms and finite-depth path groupoids.

Path convention: a path e1 e2 ... en requires terminus(e_i) ==
origin(e_{i+1}), and "an edge starting at v" means origin(e) == v. The
infinite path groupoid of a graph is out of reach of a finite model; this
module works at a fixed window depth with lag-zero kernel groupoids
(pairs of equal-length paths with equal image and terminus) and a
symbolic integer grading for collapse maps. Such a kernel fiber is one
full pair block per terminal vertex, so its invariants are exact lift
counts (``lift_counts``, one transfer step per letter); the groupoid
itself is built only by ``kernel_fiber_groupoid``, also the windows
R_n(E) of ``corpus.graph_path_groupoid_morphism``: the fibers over z^n
of the collapse map. ``lift_paths`` and ``lift_counts`` share one loop,
``_transfer``, but step along different tables, so each checks the other.
The cylinder cover check scans the one-letter words, which decide it on
an incidence-preserving map. Reports mention the window whenever the full
object would be infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from .groupoid import pair_blocks
from .algebra import WedderburnInvariants
from .report import CheckList


class GraphError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class IncidenceViolation(GraphError):
    pass


class NotLiftable(GraphError):
    pass


class MalformedWord(GraphError):
    """A word that is no path of the codomain (an unknown letter, an
    inadmissible step) or does not start at the given origin: malformed
    input rather than a failed verification."""


class DomainNotCollapse(GraphError):
    pass


class DirectedGraph:
    """Finite directed multigraph with explicit edge endpoints."""

    __slots__ = ("vertices", "edges", "origin", "terminus", "_out")

    def __init__(self, vertices, edges, origin, terminus):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.origin = dict(origin)
        self.terminus = dict(terminus)
        vset = set(self.vertices)
        for e in self.edges:
            for table, name in ((self.origin, "origin"),
                                (self.terminus, "terminus")):
                if e not in table:
                    raise GraphError(f"{name} missing for edge {e!r}", witness=e)
                if table[e] not in vset:
                    raise GraphError(f"{name}[{e!r}] is not a vertex", witness=e)
        out = {v: [] for v in self.vertices}
        for e in self.edges:
            out[self.origin[e]].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}

    def edges_from(self, v) -> tuple:
        return self._out[v]

    def sinks(self) -> tuple:
        return tuple(v for v in self.vertices if not self._out[v])

    def require_no_sinks(self):
        s = self.sinks()
        if s:
            raise GraphError(f"graph has sinks: {s[0]!r}", witness=s[0])

    def __repr__(self):
        return (f"DirectedGraph({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges)")


class GraphMorphism:
    __slots__ = ("domain", "codomain", "vmap", "emap")

    def __init__(self, domain: DirectedGraph, codomain: DirectedGraph,
                 vmap, emap):
        self.domain = domain
        self.codomain = codomain
        self.vmap = dict(vmap)
        self.emap = dict(emap)


def _require_incidence(phi: GraphMorphism):
    """Raise IncidenceViolation, naming the first vertex or edge, unless
    phi maps vertices to vertices and edges to edges with their ends."""
    V, W = phi.domain, phi.codomain
    wv, we = set(W.vertices), set(W.edges)
    for v in V.vertices:
        if v not in phi.vmap or phi.vmap[v] not in wv:
            raise IncidenceViolation(f"vertex map undefined or out of range "
                                     f"at {v!r}", witness=v)
    for e in V.edges:
        if e not in phi.emap or phi.emap[e] not in we:
            raise IncidenceViolation(f"edge map undefined or out of range "
                                     f"at {e!r}", witness=e)
        if W.origin[phi.emap[e]] != phi.vmap[V.origin[e]] or \
                W.terminus[phi.emap[e]] != phi.vmap[V.terminus[e]]:
            raise IncidenceViolation(f"incidence not preserved at edge {e!r}",
                                     witness=e)


def check_graph_morphism(phi: GraphMorphism) -> CheckList:
    """The entries ``incidence``, ``surjective_vertices``,
    ``surjective_edges`` and ``path_lifting``: the edge-lifting property
    (for every domain vertex v and codomain edge b starting at the image
    of v there is an edge starting at v mapping to b) on a map onto both
    vertices and edges. Exhaustive; incidence passes or raises
    IncidenceViolation. Every failing entry carries the first failure
    found: a codomain vertex, else an edge, without a preimage, else the
    first missing lift in vertex and edge order."""
    V, W = phi.domain, phi.codomain
    V.require_no_sinks()
    W.require_no_sinks()
    _require_incidence(phi)
    missing_v = sorted(set(W.vertices) - {phi.vmap[v] for v in V.vertices},
                       key=repr)
    missing_e = sorted(set(W.edges) - {phi.emap[e] for e in V.edges},
                       key=repr)
    unlifted = next(((b, v) for v in V.vertices
                     for b in W.edges_from(phi.vmap[v])
                     if not any(phi.emap[a] == b for a in V.edges_from(v))),
                    None)
    witness = (f"vertex {missing_v[0]!r} has no preimage" if missing_v else
               f"edge {missing_e[0]!r} has no preimage" if missing_e else
               None if unlifted is None else
               "no lift of edge {!r} at vertex {!r}".format(*unlifted))
    checks = CheckList()
    for name, ok in (("incidence", True),
                     ("surjective_vertices", not missing_v),
                     ("surjective_edges", not missing_e),
                     ("path_lifting", witness is None)):
        checks.add(name, ok, None, None if ok else witness)
    return checks


@dataclass(frozen=True)
class LiftSet:
    """All depth-|word| lifts of a codomain edge word, with the partition
    by terminal vertex and the record that every partial lift extended."""
    word: tuple
    lifts: tuple            # tuples of domain edges
    by_terminal: dict       # terminal vertex -> tuple of lifts
    all_prefixes_extend: bool

    def __len__(self):
        return len(self.lifts)


def _step_table(phi: GraphMorphism) -> dict:
    """(domain vertex, codomain edge) -> the termini of the domain edges
    leaving that vertex over that edge, one entry per domain edge."""
    V = phi.domain
    step = {}
    for a in V.edges:
        step.setdefault((V.origin[a], phi.emap[a]), []).append(V.terminus[a])
    return step


def _transfer(phi: GraphMorphism, word, origin, start, extend) -> tuple:
    """The one walk of a word's lifts: the validated word, the final
    states with their counts, and all_prefixes_extend. The word is a path
    of the codomain from ``origin``, by default the origin of its first
    letter (else MalformedWord; the empty word needs an origin unless the
    codomain has one vertex). States start at count 1 on ``start`` of the
    domain vertices over the origin; letter b moves each to all of
    ``extend(state, b)``, adding counts, and one with none makes
    all_prefixes_extend False. Raises NotLiftable with the first prefix
    that no state survives."""
    W = phi.codomain
    word, eset = tuple(word), set(W.edges)
    for pos, b in enumerate(word):
        if b not in eset:
            raise MalformedWord(f"word position {pos}: {b!r} is not an edge",
                                witness=(pos, b))
        if pos and W.origin[b] != W.terminus[word[pos - 1]]:
            raise MalformedWord(f"word position {pos}: {word[pos-1]!r} -> "
                                f"{b!r} is not incidence-admissible",
                                witness=(pos, b))
    if origin is None and (word or len(W.vertices) == 1):
        origin = W.origin[word[0]] if word else W.vertices[0]
    if origin is None:
        raise MalformedWord("empty word needs an origin vertex")
    if word and W.origin[word[0]] != origin:
        raise MalformedWord(f"word starts at {W.origin[word[0]]!r}, "
                            f"not at {origin!r}")
    states = dict.fromkeys(start(
        [v for v in phi.domain.vertices if phi.vmap[v] == origin]), 1)
    all_extend = True
    for pos, b in enumerate(word):
        nxt = {}
        for state, n in states.items():
            out = extend(state, b)
            if not out:
                all_extend = False
            for t in out:
                nxt[t] = nxt.get(t, 0) + n
        if not nxt:
            raise NotLiftable(f"no lift of prefix {word[:pos + 1]!r}",
                              witness=word[:pos + 1])
        states = nxt
    return word, states, all_extend


def lift_paths(phi: GraphMorphism, word, origin=None) -> LiftSet:
    """Enumerate the lifts of an admissible edge word, depth first in edge
    order, grouped by terminal vertex.

    For the empty word the lifts are the domain vertices over ``origin``
    (required then unless the codomain has a single vertex). Raises
    NotLiftable with the failing prefix if some prefix has no lifts at
    all, which cannot happen once path lifting has been verified. It
    steps along the out-edges, not ``lift_counts``' table, to check it.
    """
    V = phi.domain

    def extend(state, b):  # a loop, not a comprehension: one call less
        edges, v = state
        out = []
        for a in V.edges_from(v):
            if phi.emap[a] == b:
                out.append((edges + (a,), V.terminus[a]))
        return out
    word, states, all_extend = _transfer(
        phi, word, origin, lambda starts: (((), v) for v in starts), extend)
    by_term = {}
    for edges, v in states:
        by_term.setdefault(v, []).append(edges or (v,))
    return LiftSet(word, tuple(edges or (v,) for edges, v in states),
                   {v: tuple(ls) for v, ls in by_term.items()}, all_extend)


def lift_counts(phi: GraphMorphism, word, origin=None,
                pairs=False) -> tuple:
    """Exact lift counts of an admissible edge word, by terminal vertex.

    Returns ``(counts, all_prefixes_extend)``: ``counts`` maps each
    terminal vertex that some lift reaches to its number of lifts, a
    Python int (exact at any length). One transfer step per letter moves
    a sparse count vector along the domain edges over that letter, so the
    cost is the word length times the domain edges, not the lift count.

    With ``pairs=True`` the same steps run on the fiber-product graph
    V x_W V (both edges of a pair over the same letter) and the counts are
    keyed by terminal pair: entry (u, v) counts the pairs of lifts ending
    at u and v, so the diagonal sums to the arrow count of the kernel
    fiber groupoid. Word, origin, empty-word and NotLiftable rules are
    those of ``lift_paths``.
    """
    step = _step_table(phi)
    if pairs:
        def extend(state, b):
            u, u2 = state
            return list(product(step.get((u, b), ()), step.get((u2, b), ())))
        start = partial(product, repeat=2)
    else:
        def extend(state, b):
            return step.get((state, b), ())
        start = iter
    _, counts, all_extend = _transfer(phi, word, origin, start, extend)
    return counts, all_extend


def _path_id(path) -> str:
    return ".".join(str(e) for e in path) if path else "()"


def kernel_fiber_groupoid(phi: GraphMorphism, word, origin=None):
    """The pairs of lifts of a word sharing a terminal vertex, with the
    pairwise composition (p, q)(q, r) = (p, r).

    This is the depth-|word| lag-zero kernel fiber of the induced map on
    path groupoids. It splits into one full pair block per terminal
    vertex, so its block invariants are the terminal partition sizes;
    returned alongside the groupoid, they need no eigensolve.

    A library builder and test oracle: it has |lifts|^2 arrows, so the
    CLI reads the same invariants from ``lift_counts`` instead.
    """
    ls = lift_paths(phi, word, origin=origin)
    K = pair_blocks([[_path_id(p) for p in ls.by_terminal[term]]
                     for term in sorted(ls.by_terminal, key=repr)])
    sizes = tuple(sorted((len(b) for b in ls.by_terminal.values()),
                         reverse=True))
    inv_blocks = WedderburnInvariants(sizes, sum(s * s for s in sizes),
                                      len(sizes))
    return K, inv_blocks


def _path_counts(G: DirectedGraph, depth: int):
    """For n = 1 .. depth, the number of paths of length n ending at each
    vertex: a transfer DP with Python ints, one step per length."""
    paths = dict.fromkeys(G.vertices, 1)
    for _ in range(depth):
        nxt = dict.fromkeys(G.vertices, 0)
        for e in G.edges:
            nxt[G.terminus[e]] += paths[G.origin[e]]
        paths = nxt
        yield paths


def cylinder_cover_check(phi: GraphMorphism, depth: int) -> dict:
    """Every admissible codomain word up to the given length lifts, and
    every partial lift extends: the finite-depth content of image paths
    covering whole cylinders.

    A word wb fails when its lifts end nowhere (witness ``no lift of
    prefix (...)``) or a vertex where w's lifts end has no edge over b
    (``a partial lift of (...) got stuck``). On an incidence-preserving
    map (IncidenceViolation otherwise) the lifts of w end over the origin
    of b, and both failure conditions only grow with the set of ends, so
    wb fails only if the one-letter word b fails. In the order of length,
    then edge order, the first failing word is thus the first failing
    letter, and ``words_checked`` its place; on a pass it is the number
    of words, counted by ``_path_counts`` on the codomain.
    """
    _require_incidence(phi)
    V, W = phi.domain, phi.codomain
    step = _step_table(phi)
    for k, b in enumerate(W.edges if depth else ()):
        outs = [step.get((v, b), ()) for v in V.vertices
                if phi.vmap[v] == W.origin[b]]
        if not any(outs):
            witness = f"no lift of prefix {(b,)!r}"
        elif not all(outs):
            witness = f"a partial lift of {(b,)!r} got stuck"
        else:
            continue
        return {"depth": depth, "words_checked": k + 1, "pass": False,
                "witness": witness}
    return {"depth": depth,
            "words_checked": sum(sum(c.values())
                                 for c in _path_counts(W, depth)),
            "pass": True, "witness": None}


@dataclass
class GradingReport(CheckList):
    """The window grading of a collapse map at ``depth``: its arrow count,
    its degree range and the entries ``degree_additive``,
    ``involution_flips_degree`` and ``degree_zero_matches_kernel``
    (:func:`grading_degree`)."""
    depth: int
    n_arrows: int
    degree_range: tuple = (0, 0)

    def as_dict(self) -> dict:
        zero = self.entry("degree_zero_matches_kernel")
        return {"depth": self.depth, "n_arrows": self.n_arrows,
                "degree_range": list(self.degree_range),
                "additive": self.entry("degree_additive").passed,
                "involution_flips": self.entry(
                    "involution_flips_degree").passed,
                "degree_zero_matches_kernel": zero.passed,
                "pass": self.passed, "witness": zero.witness}


def grading_degree(phi: GraphMorphism, depth: int) -> GradingReport:
    """Integer grading of the window groupoid of a collapse map.

    The codomain must be the one-vertex one-loop graph. Window arrows are
    pairs (p, q) of domain paths of length 1..depth with equal terminus,
    graded by len(p) - len(q); composition is (p, q)(q, r) = (p, r) and
    the involution is (p, q) -> (q, p).

    Nothing is enumerated. A terminal vertex v with N(v) paths holds
    N(v)^2 arrows, N(v) summed from the per-terminal path counts of
    ``_path_counts``, as Python ints. The domain is sink-free, so a path
    of length depth exists, and it ends where its last edge, a path of
    length 1, ends: the degrees run over 1 - depth .. depth - 1. The
    content is in the degree-zero comparison:
    the depth-length paths per terminal vertex must be the kernel fiber
    blocks, the ``lift_counts`` of the word z^depth.
    """
    W = phi.codomain
    if len(W.vertices) != 1 or len(W.edges) != 1:
        raise DomainNotCollapse(
            "grading needs the one-vertex one-loop codomain")
    V = phi.domain
    V.require_no_sinks()

    total = dict.fromkeys(V.vertices, 0)
    counts = {}  # then the paths of length depth, by terminal vertex
    for counts in _path_counts(V, depth):
        for v, c in counts.items():
            total[v] += c
    span = max(depth - 1, 0)
    report = GradingReport(depth=depth,
                           n_arrows=sum(c * c for c in total.values()),
                           degree_range=(-span, span))
    # the degree of (p, q) is len(p) - len(q): additive under
    # (p, q)(q, r) = (p, r) and flipped by (p, q) -> (q, p) by
    # construction, so both entries pass
    report.add("degree_additive", True)
    report.add("involution_flips_degree", True)
    sizes = blocks = ()
    if depth:
        sizes = tuple(sorted((c for c in counts.values() if c),
                             reverse=True))
        kernel, _ = lift_counts(phi, (W.edges[0],) * depth)
        blocks = tuple(sorted(kernel.values(), reverse=True))
    report.add("degree_zero_matches_kernel", sizes == blocks, None,
               None if sizes == blocks else f"degree-0 window blocks "
               f"{sizes} != kernel fiber blocks {blocks}")
    return report


def collapse_morphism(V: DirectedGraph) -> GraphMorphism:
    """The map of a sink-free graph onto the one-vertex one-loop graph."""
    V.require_no_sinks()
    W = DirectedGraph(("*",), ("z",), {"z": "*"}, {"z": "*"})
    return GraphMorphism(V, W, {v: "*" for v in V.vertices},
                         {e: "z" for e in V.edges})
