"""The CLI builds only the parser of the command it is given, from the one
command table in gpdkit.cli, once per process. These tests hold that
parser, new or reused, to the parser of the whole table: the same
namespace, output and exit status."""

import argparse

import pytest

from gpdkit import cli, corpus
from gpdkit.cli import COMMANDS, build_parser, main

D = corpus.data_path
MORPHISM = D("flip_covering.morphism.json")
CUNTZ = D("cuntz.graphmorphism.json")

# the input files of one passing run of each command; the table must not
# name a command without one
RUN_FLAGS = {
    ("gpd", "validate"): ["--groupoid", D("pair.groupoid.json")],
    ("gpd", "morphism"): ["--morphism", D("heis2_quotient.morphism.json")],
    ("alg", "wedderburn"): ["--groupoid", D("z3.groupoid.json")],
    ("bundle", "build"): ["--morphism", MORPHISM],
    ("bundle", "verify"): ["--morphism", MORPHISM],
    ("bundle", "psi-check"): ["--morphism", MORPHISM],
    ("graph", "check"): ["--morphism", CUNTZ, "--depth", "3"],
    ("graph", "fibers"): ["--morphism", CUNTZ, "--word", "121"],
    ("graph", "grading"): ["--graph", D("cuntz_v.graph.json"),
                           "--depth", "2"],
    ("action", "build"): ["--action", D("flip.action.json")],
    ("action", "roundtrip"): ["--action", D("flip.action.json")],
    ("abelian", "extract"): ["--morphism", MORPHISM],
    ("ext", "analyze"): ["--group", D("z4.group.json")],
    ("demo", None): ["z3"],
}

COMMAND_ARGVS = [[group] + ([name] if name else []) + flags
                 + ["--samples", "5", "--seed", "2"]
                 for (group, name), flags in RUN_FLAGS.items()]

MALFORMED = {
    "no arguments": [],
    "unknown group": ["bogus"],
    "unknown group, known command": ["bogus", "validate"],
    "unknown command": ["bundle", "bogus"],
    "command of another group": ["gpd", "build"],
    "group without command": ["bundle"],
    "demo without name": ["demo"],
    "missing required flag": ["gpd", "validate"],
    "missing either flag": ["bundle", "verify"],
    "unknown flag": ["gpd", "validate", "--groupoid", D("z3.groupoid.json"),
                     "--bogus", "1"],
    "extra argument": ["bundle", "psi-check", "--morphism", MORPHISM,
                       "extra"],
    "non-integer --seed": ["bundle", "verify", "--morphism", MORPHISM,
                           "--seed", "x"],
    "non-integer --n": ["demo", "heisenberg", "--n", "x"],
    "non-integer --depth": ["graph", "check", "--morphism", CUNTZ,
                            "--depth", "1.5"],
    "bad demo name": ["demo", "bogus"],
    "option before the group": ["--seed", "1", "gpd", "validate",
                                "--groupoid", D("z3.groupoid.json")],
    "-h": ["-h"],
    "--help": ["--help"],
    "group -h": ["bundle", "-h"],
    "demo -h": ["demo", "-h"],
    "command -h": ["graph", "fibers", "-h"],
    "abbreviated --help": ["abelian", "extract", "--he"],
}


def test_every_command_has_a_run():
    assert set(RUN_FLAGS) == {(group, name) for group, (_, commands)
                              in COMMANDS.items() for name in commands}


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv); argparse's exits give
    their SystemExit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def _whole_parser():
    """A new parser of the whole table, built past the cache of parsers."""
    return cli._parser.__wrapped__(None, None)


def _whole_table_outcome(argv, capsys, monkeypatch):
    whole = _whole_parser()
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: whole)
    try:
        return _outcome(argv, capsys)
    finally:
        monkeypatch.undo()


ARGVS = {" ".join(argv[:2]): argv for argv in COMMAND_ARGVS}
ARGVS.update({f"{' '.join(argv[:2])} -h": argv[:2] + ["-h"]
              for argv in COMMAND_ARGVS})
ARGVS.update(MALFORMED)


@pytest.mark.parametrize("argv", ARGVS.values(), ids=ARGVS.keys())
def test_main_matches_the_whole_tables_parser(argv, capsys, monkeypatch):
    got = _outcome(argv, capsys)
    assert got == _whole_table_outcome(argv, capsys, monkeypatch)
    assert got[0] in (0, 2, ("SystemExit", 0), ("SystemExit", 2))


@pytest.mark.parametrize("argv", COMMAND_ARGVS,
                         ids=[" ".join(a[:2]) for a in COMMAND_ARGVS])
def test_parse_gives_the_whole_tables_namespace(argv):
    # every flag's default is in the namespace, so a flag the filter
    # dropped shows here even where the run does not use it
    assert vars(build_parser(argv).parse_args(argv)) == \
        vars(_whole_parser().parse_args(argv))


def test_a_command_builds_only_its_own_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()  # earlier tests may have built it
    argv = ["graph", "fibers", "--morphism", CUNTZ, "--word", "1"]
    assert main(argv) == 0
    # the top level, the group and the command
    assert len(built) <= 3, built
    built.clear()
    assert main(argv) == 0
    capsys.readouterr()
    assert built == []


def test_reused_parsers_give_the_whole_tables_outcomes(capsys, monkeypatch):
    # every run twice, forward and then backward, so that each parser is
    # reused after runs, errors and help output of the others
    argvs = list(ARGVS.values())
    expected = [_whole_table_outcome(argv, capsys, monkeypatch)
                for argv in argvs]
    for order in (range(len(argvs)), reversed(range(len(argvs)))):
        for i in order:
            assert _outcome(argvs[i], capsys) == expected[i], argvs[i]


def test_a_failed_parse_leaves_the_parser_as_it_was(capsys):
    argv = ["graph", "fibers", "--morphism", CUNTZ, "--word", "1121"]
    first = _outcome(argv, capsys)
    assert first[0] == 0
    failed = _outcome(argv[:-2], capsys)  # no --word
    assert failed[0] == ("SystemExit", 2) and "--word" in failed[2]
    assert _outcome(argv, capsys) == first
