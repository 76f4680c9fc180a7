"""Outside-in span tracer for the traced benchmark passes.

``Tracer.install`` wraps the public operations of each gpdkit layer from
the outside: every gpdkit module attribute that binds a wrapped function
is replaced, because ``cli``, ``bundle``, ``actions`` and ``extensions``
import functions by name and patching only the defining module would miss
those calls. ``uninstall`` restores the originals, so untraced passes run
the program untouched.

Spans (name, start, end, parent, item) stay in memory and are written out
when the run ends. A layer's self time is its span duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

# (span name, module, attribute or Class.method); a span name may cover
# several functions of one layer.
TARGETS = [
    *(("io.load", "gpdkit.io", f) for f in (
        "load_groupoid", "load_raw_groupoid_tables", "load_morphism",
        "load_algebra_element", "load_bundle", "load_graph",
        "load_graph_morphism", "load_group", "load_action", "load_cocycle")),
    *((f"groupoid.{f}", "gpdkit.groupoid", f) for f in (
        "validate_groupoid", "classify_morphism", "kernel",
        "isotropy_quotient", "greedy_bisection_cover", "check_bisection")),
    *((f"algebra.{f}", "gpdkit.algebra", f) for f in (
        "wedderburn", "wedderburn_from_tables", "sparse_center_basis",
        "faithfulness_defect", "convolve", "involute", "random_element",
        "cstar_norm", "positivity_check", "conditional_expectation")),
    *((f"bundle.{f}", "gpdkit.bundle", f) for f in (
        "build_bundle", "verify_axioms", "section_algebra", "psi_iso_check",
        "psi", "bisection_bimodule_check", "fiber_mul", "fiber_star",
        "fiber_norm")),
    ("bundle.SectionSpace", "gpdkit.bundle", "SectionSpace.__init__"),
    *((f"bundle.SectionAlgebra.{m}", "gpdkit.bundle", f"SectionAlgebra.{m}")
      for m in ("product", "star", "norm", "expectation", "random_section",
                "wedderburn")),
    *((f"actions.{f}", "gpdkit.actions", f) for f in (
        "build_action_groupoid", "covering_to_action", "cocycle_check",
        "abelian_extract", "twisted_algebra")),
    *((f"actions.TwistedConvolutionAlgebra.{m}", "gpdkit.actions",
       f"TwistedConvolutionAlgebra.{m}") for m in ("convolve", "wedderburn")),
    ("extensions.group_extension_bundle", "gpdkit.extensions",
     "group_extension_bundle"),
    ("extensions.GroupTable", "gpdkit.extensions", "GroupTable.__init__"),
    ("extensions.CharacterData", "gpdkit.extensions",
     "CharacterData.__init__"),
    *((f"graphs.{f}", "gpdkit.graphs", f) for f in (
        "check_graph_morphism", "lift_paths", "kernel_fiber_groupoid",
        "cylinder_cover_check", "grading_degree", "collapse_morphism")),
    *(("corpus.heisenberg", "gpdkit.corpus", f) for f in (
        "heisenberg_groupoid", "heisenberg_quotient",
        "heisenberg_extension")),
    *((f"corpus.{f}", "gpdkit.corpus", f) for f in (
        "cuntz_graphs", "graph_path_groupoid_morphism", "pair_groupoid",
        "cyclic_groupoid", "flip_action")),
    ("report.to_json", "gpdkit.report", "Report.to_json"),
]

ITEM = "cli.main"


def _triples(G) -> int:
    """Composable triples of a groupoid: for each middle arrow, the arrows
    leaving its range times the arrows arriving at its source."""
    out, into = {}, {}
    for g in G.arrows:
        out[G.src[g]] = out.get(G.src[g], 0) + 1
        into[G.rng[g]] = into.get(G.rng[g], 0) + 1
    return sum(out[G.rng[g]] * into[G.src[g]] for g in G.arrows)


def _center_rows(args):
    dim, products = args[0], args[1]
    keys = set()
    for (a, b), expansion in products.items():
        for k, c in expansion.items():
            if c != 0:
                keys.add((b, k))
                keys.add((a, k))
    return {"algebra.center.rows": len(keys), "algebra.center.cols": dim}


# span name -> f(args, result) -> {counter: increment}, run after the span
HOOKS = {
    "io.load": lambda a, r: {"io.bytes": os.path.getsize(a[0])}
    if a and isinstance(a[0], str) else {},
    "groupoid.validate_groupoid":
        lambda a, r: {"groupoid.validate.triples": _triples(r)},
    "algebra.sparse_center_basis": lambda a, r: _center_rows(a),
    "bundle.build_bundle": lambda a, r: {"bundle.total_dim": r.total_dim()},
    "bundle.psi_iso_check":
        lambda a, r: {"bundle.psi.pairs": len(a[0].domain.comp)},
    "actions.cocycle_check":
        lambda a, r: {"actions.cocycle.triples": _triples(a[0].base)},
    "graphs.lift_paths": lambda a, r: {"graphs.lifts": len(r)},
    "graphs.kernel_fiber_groupoid":
        lambda a, r: {"graphs.window_arrows": len(r[0].arrows)},
    "graphs.grading_degree":
        lambda a, r: {"graphs.window_arrows": r.n_arrows},
    "graphs.cylinder_cover_check":
        lambda a, r: {"graphs.words_checked": r["words_checked"]},
}


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.items = [], []
        self.errors = {}
        self.counters = {}
        self.stack = [-1]
        self.item = -1
        self._patches = []

    def _open(self, name) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.items.append(self.item)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                # counted once, at the innermost span it left
                if not getattr(exc, "_span_counted", False):
                    tracer.errors[name] = tracer.errors.get(name, 0) + 1
                    exc._span_counted = True
                raise
            tracer._close(idx)
            if hook is not None:
                for key, inc in hook(args, result).items():
                    tracer.counters[key] = tracer.counters.get(key, 0) + inc
            return result
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "gpdkit" or n.startswith("gpdkit.")]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []

    def run_item(self, item_id, fn):
        """Run one CLI call as the root span of its item."""
        self.item = item_id
        idx = self._open(ITEM)
        try:
            return fn()
        finally:
            self._close(idx)
            self.item = -1

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("item\tname\tstart\tend\tparent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{self.items[i]}\t{name}\t{self.starts[i]:.9f}\t"
                         f"{self.ends[i]:.9f}\t{self.parents[i]}\n")

    def summary(self, factors) -> dict:
        """Totals over every traced span: self seconds and calls per span
        name, counters, the psi useful-product ratio and the share of item
        time covered by layer spans. Durations are scaled by the host speed
        correction of their item, ``factors[item]``."""
        dur = [(e - s) * factors[i]
               for s, e, i in zip(self.starts, self.ends, self.items)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        self_s, calls = {}, {}
        item_s = covered = 0.0
        product_calls_in_psi = 0
        for i, name in enumerate(self.names):
            if name == ITEM:
                item_s += dur[i]
                covered += child[i]
                continue
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "bundle.SectionAlgebra.product":
                p = self.parents[i]
                while p >= 0 and self.names[p] != "bundle.psi_iso_check":
                    p = self.parents[p]
                product_calls_in_psi += p >= 0
        pairs = self.counters.get("bundle.psi.pairs", 0)
        return {
            "self_s": self_s, "calls": calls, "errors": dict(self.errors),
            "counters": dict(self.counters),
            "coverage_frac": covered / item_s if item_s else 0.0,
            "psi_useful_frac": pairs / product_calls_in_psi
            if product_calls_in_psi else 0.0,
        }
