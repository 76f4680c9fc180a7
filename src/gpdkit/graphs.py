"""Directed graphs, edge-lifting morphisms and finite-depth path groupoids.

Path convention: a path e1 e2 ... en requires terminus(e_i) ==
origin(e_{i+1}), and "an edge starting at v" means origin(e) == v. The
infinite path groupoid of a graph is out of reach of a finite model; this
module works at a fixed window depth with lag-zero kernel groupoids
(pairs of equal-length paths with equal image and terminus) and a
symbolic integer grading for collapse maps. Reports mention the window
whenever the full object would be infinite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .groupoid import pair_blocks, pair_id
from .algebra import WedderburnInvariants


class GraphError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class IncidenceViolation(GraphError):
    pass


class NotLiftable(GraphError):
    pass


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


@dataclass(frozen=True)
class GraphMorphismReport:
    incidence: bool
    surjective_vertices: bool
    surjective_edges: bool
    path_lifting: bool
    witness: Optional[str] = None

    def as_dict(self) -> dict:
        return {"incidence": self.incidence,
                "surjective_vertices": self.surjective_vertices,
                "surjective_edges": self.surjective_edges,
                "path_lifting": self.path_lifting,
                "witness": self.witness}


def check_graph_morphism(phi: GraphMorphism) -> GraphMorphismReport:
    """Incidence, surjectivity, and the edge-lifting property: for every
    domain vertex v and codomain edge b starting at the image of v there
    must be an edge starting at v mapping to b. Exhaustive with witness."""
    V, W = phi.domain, phi.codomain
    V.require_no_sinks()
    W.require_no_sinks()
    for v in V.vertices:
        if v not in phi.vmap or phi.vmap[v] not in set(W.vertices):
            raise IncidenceViolation(f"vertex map undefined or out of range "
                                     f"at {v!r}", witness=v)
    for e in V.edges:
        if e not in phi.emap or phi.emap[e] not in set(W.edges):
            raise IncidenceViolation(f"edge map undefined or out of range "
                                     f"at {e!r}", witness=e)
        if W.origin[phi.emap[e]] != phi.vmap[V.origin[e]] or \
                W.terminus[phi.emap[e]] != phi.vmap[V.terminus[e]]:
            raise IncidenceViolation(f"incidence not preserved at edge {e!r}",
                                     witness=e)

    surj_v = set(phi.vmap[v] for v in V.vertices) == set(W.vertices)
    surj_e = set(phi.emap[e] for e in V.edges) == set(W.edges)
    witness = None
    if not surj_v:
        missing = sorted(set(W.vertices) - {phi.vmap[v] for v in V.vertices},
                         key=repr)
        witness = f"vertex {missing[0]!r} has no preimage"
    elif not surj_e:
        missing = sorted(set(W.edges) - {phi.emap[e] for e in V.edges},
                         key=repr)
        witness = f"edge {missing[0]!r} has no preimage"

    lifting = True
    for v in V.vertices:
        w = phi.vmap[v]
        for b in W.edges_from(w):
            if not any(phi.emap[a] == b for a in V.edges_from(v)):
                lifting = False
                if witness is None:
                    witness = f"no lift of edge {b!r} at vertex {v!r}"
    return GraphMorphismReport(True, surj_v, surj_e,
                               surj_v and surj_e and lifting, witness)


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


def _validate_word(W: DirectedGraph, word) -> tuple:
    word = tuple(word)
    eset = set(W.edges)
    for pos, b in enumerate(word):
        if b not in eset:
            raise GraphError(f"word position {pos}: {b!r} is not an edge",
                             witness=(pos, b))
        if pos and W.origin[b] != W.terminus[word[pos - 1]]:
            raise GraphError(f"word position {pos}: {word[pos-1]!r} -> {b!r} "
                             "is not incidence-admissible", witness=(pos, b))
    return word


def lift_paths(phi: GraphMorphism, word, origin=None) -> LiftSet:
    """Enumerate the lifts of an admissible edge word, depth first in edge
    order, grouped by terminal vertex.

    For the empty word the lifts are the domain vertices over ``origin``
    (required then unless the codomain has a single vertex). Raises
    NotLiftable with the failing prefix if some prefix has no lifts at
    all, which cannot happen once path lifting has been verified.
    """
    V, W = phi.domain, phi.codomain
    word = _validate_word(W, word)
    if origin is None:
        if word:
            origin = W.origin[word[0]]
        elif len(W.vertices) == 1:
            origin = W.vertices[0]
        else:
            raise GraphError("empty word needs an origin vertex")
    elif word and W.origin[word[0]] != origin:
        raise GraphError(f"word starts at {W.origin[word[0]]!r}, "
                         f"not at {origin!r}")

    starts = [v for v in V.vertices if phi.vmap[v] == origin]
    if not word:
        return LiftSet(word, tuple((v,) for v in starts),
                       {v: ((v,),) for v in starts}, True)

    partial = [((), v) for v in starts]  # (edges so far, current vertex)
    all_extend = True
    for pos, b in enumerate(word):
        nxt = []
        for edges, v in partial:
            ext = [(edges + (a,), V.terminus[a])
                   for a in V.edges_from(v) if phi.emap[a] == b]
            if not ext:
                all_extend = False
            nxt.extend(ext)
        if not nxt:
            raise NotLiftable(f"no lift of prefix {word[:pos + 1]!r}",
                              witness=word[:pos + 1])
        partial = nxt
    lifts = tuple(edges for edges, _ in partial)
    by_term = {}
    for edges, v in partial:
        by_term.setdefault(v, []).append(edges)
    by_term = {v: tuple(ls) for v, ls in by_term.items()}
    return LiftSet(word, lifts, by_term, all_extend)


def _path_id(path) -> str:
    return ".".join(str(e) for e in path) if path else "()"


def kernel_fiber_groupoid(phi: GraphMorphism, word, origin=None):
    """The pairs of lifts of a word sharing a terminal vertex, with the
    pairwise composition (p, q)(q, r) = (p, r).

    This is the depth-|word| lag-zero kernel fiber of the induced map on
    path groupoids. It splits into one full pair block per terminal
    vertex, so its block invariants are the terminal partition sizes;
    returned alongside the groupoid, they need no eigensolve.
    """
    ls = lift_paths(phi, word, origin=origin)
    K = pair_blocks([[_path_id(p) for p in ls.by_terminal[term]]
                     for term in sorted(ls.by_terminal, key=repr)])
    sizes = tuple(sorted((len(b) for b in ls.by_terminal.values()),
                         reverse=True))
    inv_blocks = WedderburnInvariants(sizes, sum(s * s for s in sizes),
                                      len(sizes))
    return K, inv_blocks


def cylinder_cover_check(phi: GraphMorphism, depth: int) -> dict:
    """Every admissible codomain word up to the given length lifts, and
    every partial lift extends: the finite-depth content of image paths
    covering whole cylinders."""
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


@dataclass
class GradingReport:
    depth: int
    n_arrows: int
    degrees: dict = field(default_factory=dict)  # arrow id -> int
    additive: bool = True
    involution_flips: bool = True
    degree_zero_matches_kernel: bool = True
    witness: Optional[str] = None

    @property
    def passed(self) -> bool:
        return (self.additive and self.involution_flips
                and self.degree_zero_matches_kernel)

    def as_dict(self) -> dict:
        degs = sorted(self.degrees.values())
        return {"depth": self.depth, "n_arrows": self.n_arrows,
                "degree_range": [min(degs), max(degs)] if degs else [0, 0],
                "additive": self.additive,
                "involution_flips": self.involution_flips,
                "degree_zero_matches_kernel": self.degree_zero_matches_kernel,
                "pass": self.passed, "witness": self.witness}


def grading_degree(phi: GraphMorphism, depth: int) -> GradingReport:
    """Integer grading of the window groupoid of a collapse map.

    The codomain must be the one-vertex one-loop graph. Window arrows are
    pairs (p, q) of domain paths of length <= depth with equal terminus,
    graded by len(p) - len(q); composition (p, q)(q, r) = (p, r) adds
    degrees and the involution (p, q) -> (q, p) flips the sign. All checks
    are exact over the window; the degree-zero part at full depth is
    compared against the kernel fiber blocks.
    """
    W = phi.codomain
    if len(W.vertices) != 1 or len(W.edges) != 1:
        raise DomainNotCollapse(
            "grading needs the one-vertex one-loop codomain")
    V = phi.domain
    V.require_no_sinks()

    paths = [()]
    all_paths = []
    for _ in range(depth):
        paths = [p + (a,) for p in paths
                 for a in (V.edges_from(V.terminus[p[-1]]) if p else V.edges)]
        all_paths.extend(paths)

    def term(p):
        return V.terminus[p[-1]]

    arrows = []
    degree = {}
    members = {}
    by_first = {}
    for p in all_paths:
        for q in all_paths:
            if term(p) != term(q):
                continue
            g = pair_id(_path_id(p), _path_id(q))
            arrows.append(g)
            degree[g] = len(p) - len(q)
            members[g] = (p, q)
            by_first.setdefault(p, []).append(g)

    report = GradingReport(depth=depth, n_arrows=len(arrows), degrees=degree)
    for g1 in arrows:
        p, q = members[g1]
        for g2 in by_first.get(q, ()):
            _, r = members[g2]
            g12 = pair_id(_path_id(p), _path_id(r))
            if degree[g12] != degree[g1] + degree[g2]:
                report.additive = False
                report.witness = f"degree not additive on ({g1}, {g2})"
                break
        if not report.additive:
            break
    for g in arrows:
        p, q = members[g]
        gi = pair_id(_path_id(q), _path_id(p))
        if degree.get(gi) != -degree[g]:
            report.involution_flips = False
            report.witness = f"involution does not flip degree at {g}"
            break

    word = tuple(W.edges[0] for _ in range(depth))
    _, blocks = kernel_fiber_groupoid(phi, word) if depth else (None, None)
    if depth:
        zero_sizes = {}
        for g in arrows:
            p, q = members[g]
            if len(p) == len(q) == depth:
                zero_sizes.setdefault(term(p), set()).add(p)
        sizes = tuple(sorted((len(s) for s in zero_sizes.values()),
                             reverse=True))
        if sizes != blocks.blocks:
            report.degree_zero_matches_kernel = False
            report.witness = (f"degree-0 window blocks {sizes} != kernel "
                              f"fiber blocks {blocks.blocks}")
    return report


def collapse_morphism(V: DirectedGraph) -> GraphMorphism:
    """The map of a sink-free graph onto the one-vertex one-loop graph."""
    V.require_no_sinks()
    W = DirectedGraph(("*",), ("z",), {"z": "*"}, {"z": "*"})
    return GraphMorphism(V, W, {v: "*" for v in V.vertices},
                         {e: "z" for e in V.edges})
