"""The benchmark's outside-in tracer (perfbench/tracer.py) patches gpdkit
functions and methods by name. A refactor that renames, moves or inlines a
traced name would break traced benchmark runs without failing anything
else, so these tests pin the names and run seven commands under the
tracer: the two graph commands for the hooks that read their results, and
an action roundtrip for the two action builders.
"""

import importlib.util
import sys
from pathlib import Path

import gpdkit.cli  # noqa: F401  (imports every module the tracer patches)
from gpdkit import corpus
from gpdkit.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_where_it_is_patched():
    for name, modname, attr in _load_tracer().TARGETS:
        owner = sys.modules[modname]
        if "." in attr:
            # patched through the class body, as the tracer reads it
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, attr, None)), name


def test_traced_commands_run(capsys):
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        codes = [
            tracer.run_item(0, lambda: main(
                ["alg", "wedderburn", "--groupoid",
                 corpus.data_path("z3.groupoid.json"), "--samples", "10"])),
            tracer.run_item(1, lambda: main(
                ["bundle", "psi-check", "--morphism",
                 corpus.data_path("heis2_quotient.morphism.json"),
                 "--samples", "5"])),
            tracer.run_item(2, lambda: main(
                ["abelian", "extract", "--morphism",
                 corpus.data_path("flip_covering.morphism.json")])),
            tracer.run_item(3, lambda: main(
                ["ext", "analyze", "--group",
                 corpus.data_path("heis2.group.json")])),
            tracer.run_item(4, lambda: main(
                ["graph", "grading", "--graph",
                 corpus.data_path("cuntz_v.graph.json")])),
            tracer.run_item(5, lambda: main(
                ["graph", "check", "--morphism",
                 corpus.data_path("cuntz.graphmorphism.json")])),
            tracer.run_item(6, lambda: main(
                ["action", "roundtrip", "--action",
                 corpus.data_path("flip.action.json")])),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * 7
    summary = tracer.summary([1.0] * len(codes))
    assert summary["errors"] == {}
    assert summary["calls"]["algebra.wedderburn"] >= 1
    assert summary["calls"]["bundle.psi_iso_check"] == 1
    assert summary["calls"]["actions.abelian_extract"] == 1
    assert summary["calls"]["extensions.group_extension_bundle"] == 1
    # the roundtrip calls each action builder once, and covering_to_action
    # builds the action groupoid of the action it reads off once more
    root = tracer.items.index(6)
    top = [n for n, p in zip(tracer.names, tracer.parents) if p == root]
    assert top.count("actions.build_action_groupoid") == 1
    assert top.count("actions.covering_to_action") == 1
    inner = tracer.names.index("actions.covering_to_action", root)
    assert "actions.build_action_groupoid" in [
        n for n, p in zip(tracer.names, tracer.parents) if p == inner]
    # the hooks that read the name views of a groupoid (src, rng, the
    # length of comp) count what they counted on the dict tables
    counters = summary["counters"]
    # (the roundtrip's Z_2 adds its 8 composable triples)
    assert counters["groupoid.validate.triples"] == 627 + 8
    assert counters["bundle.psi.pairs"] == 64
    # one cocycle_check per extraction (the CLI reads the twist's
    # validation from its entries) and one per ext analyze
    assert counters["actions.cocycle.triples"] == 144
    # grading_degree(...).n_arrows at depth 3 and the words of
    # cylinder_cover_check(...)["words_checked"] up to depth 4
    assert counters["graphs.window_arrows"] == 1521
    assert counters["graphs.words_checked"] == 30
