import contextlib
import gc
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numsem
from numsem import (
    ALL_SEMIGROUPS,
    DoubleLabel,
    NumericalSemigroup,
    arithmetic_extensions,
    cli,
    depth_predicate,
    enumerate_tree,
    export_tree,
)
from numsem.cli import main
from support import tree_json_dict

VARIETY_GOLDEN = "<1>\n<2,3>\n<2,5>\n<3,4,5>\n<3,5,7>\n<4,5,6,7>\n<5,6,7,8,9>\n"

DOUBLES_GOLDEN = """\
S(5; 3,6,7) = <5,8,11,17> F=14
S(5; 6,7) = <5,8,17,19> F=14
S(9; 1,2,6,7) = <8,9,10,11,13> F=15
S(9; 1,2,3,6,7) = <8,9,10,11,13,15> F=14
S(9; 1,3,6,7) = <8,9,10,11,15> F=14
S(9; 1,6,7) = <8,9,10,11,23> F=15
S(9; 2,6,7) = <8,9,10,13> F=15
S(9; 2,3,6,7) = <8,9,10,13,15> F=14
S(9; 3,6,7) = <8,9,10,15,21,22> F=14
S(9; 6,7) = <8,9,10,21,22,23> F=15
S(11; 1,2,3,6,7) = <8,10,11,13,15,17> F=14
S(11; 1,3,6,7) = <8,10,11,13,17> F=15
S(11; 2,3,6,7) = <8,10,11,15,17> F=14
S(11; 3,6,7) = <8,10,11,17,23> F=15
S(13; 1,2,3,6,7) = <8,10,13,15,17,19,22> F=14
S(13; 2,3,6,7) = <8,10,13,17,19,22> F=15
S(15; 1,2,3,6,7) = <8,10,15,17,19,21,22> F=14
S(17; 1,2,3,6,7) = <8,10,17,19,21,22,23> F=15
"""


def as_json(value) -> str:
    """What ``--format json`` prints for ``value``."""
    return json.dumps(value, indent=2) + "\n"


def semigroup_json(generators, gaps, depth) -> dict:
    """A semigroup's ``to_json_dict``, spelled out; its multiplicity is its first generator."""
    return {"generators": generators, "gaps": gaps, "frobenius": max(gaps, default=-1),
            "genus": len(gaps), "multiplicity": generators[0], "depth": depth}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def numsem_process(*argv: str, **kwargs) -> subprocess.Popen:
    """``python -m numsem ARGV`` in a child process, on this checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(Path(numsem.__file__).parents[1])}
    return subprocess.Popen([sys.executable, "-m", "numsem", *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **kwargs)


class TestGoldenOutputs:
    def test_variety(self, capsys):
        code, out, _ = run(capsys, "variety", "2,5", "3,5,7")
        assert code == 0
        assert out == VARIETY_GOLDEN

    def test_extensions(self, capsys):
        code, out, _ = run(capsys, "extensions", "3,5,7")
        assert (code, out) == (0, "<1>\n<2,3>\n<3,4,5>\n<3,5,7>\n")

    def test_upper_sets(self, capsys):
        code, out, _ = run(capsys, "upper-sets", "4,5,11", "--modulus", "5")
        assert code == 0
        assert out == "{3,6,7}\n{3,7}\n{6}\n{6,7}\n{7}\n"
        code, out, _ = run(capsys, "upper-sets", "4,5,11", "--modulus", "5", "--format", "json")
        assert (code, out) == (0, as_json([[3, 6, 7], [3, 7], [6], [6, 7], [7]]))

    def test_tree_dot_single_edge(self, capsys):
        code, out, _ = run(capsys, "tree", "--frobenius-bound", "1", "--format", "dot")
        assert code == 0
        assert out == 'digraph variety_tree {\n  "<1>";\n  "<2,3>";\n  "<1>" -> "<2,3>";\n}\n'

    def test_tree_dot_depth_two(self, capsys):
        code, out, _ = run(capsys, "tree", "--frobenius-bound", "5", "--depth", "2", "--format", "dot")
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for l in lines if l.endswith('";') and "->" not in l) == 11
        assert sum(1 for l in lines if "->" in l) == 10

    def test_tree_text_indentation(self, capsys):
        _, out, _ = run(capsys, "tree", "--frobenius-bound", "3")
        assert out == "<1>\n  <2,3>\n    <3,4,5>\n    <4,5,6,7>\n  <2,5>\n"

    def test_doubles_lines(self, capsys):
        code, out, _ = run(capsys, "doubles", "4,5,11", "--frobenius-bound", "15")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 18
        assert "S(5; 3,6,7) = <5,8,11,17> F=14" in lines
        assert "S(9; 6,7) = <8,9,10,21,22,23> F=15" in lines
        assert out == DOUBLES_GOLDEN
        code, out, _ = run(capsys, "doubles", "2,3", "--frobenius-bound", "4", "--format", "json")
        assert (code, out) == (0, as_json([
            {"m": 3, "H": [1], "semigroup": semigroup_json([3, 4, 5], [1, 2], 1)},
            {"m": 5, "H": [1], "semigroup": semigroup_json([4, 5, 6, 7], [1, 2, 3], 1)}]))
        for fmt, empty in (("text", ""), ("json", "[]\n")):
            assert run(capsys, "doubles", "2,3", "--frobenius-bound", "1", "--format", fmt) == (
                0, empty, "")

    def test_double_with_empty_upper_set(self, capsys):
        code, out, _ = run(capsys, "double", "2,3", "--modulus", "3")
        assert (code, out) == (0, "S(3; ) = <3,4> F=5\n")

    def test_double_lists_a_repeated_element_once(self, capsys):
        code, out, _ = run(capsys, "double", "2,3", "--modulus", "3", "--upper-set", "1,1")
        assert (code, out) == (0, "S(3; 1) = <3,4,5> F=2\n")
        code, out, _ = run(
            capsys, "double", "2,3", "--modulus", "3", "--upper-set", "1,1", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert (data["m"], data["H"], data["semigroup"]["generators"]) == (3, [1], [3, 4, 5])

    def test_info_text(self, capsys):
        _, out, _ = run(capsys, "info", "4,5,11")
        assert out == "<4,5,11> F=7 m=4 g=5 e=3 depth=2 gaps=1,2,3,6,7\n"

    def test_info_json(self, capsys):
        _, out, _ = run(capsys, "info", "2,5", "--format", "json")
        assert json.loads(out) == {
            "generators": [2, 5],
            "gaps": [1, 3],
            "frobenius": 3,
            "genus": 2,
            "multiplicity": 2,
            "depth": 2,
        }

    def test_quotient_and_pm_and_intersect(self, capsys):
        assert run(capsys, "quotient", "3,5,7", "2")[1] == "<3,4,5>\n"
        assert run(capsys, "pm", "3", "7", "1")[1] == "<3,5,7>\n"
        assert run(capsys, "intersect", "2,5", "3,5,7")[1] == "<5,6,7,8,9>\n"
        assert run(capsys, "quotient", "3,5,7", "2", "--format", "json") == (
            0, as_json(semigroup_json([3, 4, 5], [1, 2], 1)), "")
        assert run(capsys, "pm", "3", "7", "1", "--format", "json") == (
            0, as_json(semigroup_json([3, 5, 7], [1, 2, 4], 2)), "")
        assert run(capsys, "intersect", "2,5", "3,5,7", "--format", "json") == (
            0, as_json(semigroup_json([5, 6, 7, 8, 9], [1, 2, 3, 4], 1)), "")

    def test_fundamental_gaps(self, capsys):
        assert run(capsys, "fundamental-gaps", "5,7,9")[1] == "6,8,11,13\n"
        assert run(capsys, "fundamental-gaps", "1")[1] == "\n"
        assert run(capsys, "fundamental-gaps", "5,7,9", "--format", "json") == (
            0, "[\n  6,\n  8,\n  11,\n  13\n]\n", "")
        assert run(capsys, "fundamental-gaps", "1", "--format", "json") == (0, "[]\n", "")

    def test_is_extension(self, capsys):
        assert run(capsys, "is-extension", "2,5", "2,3") == (0, "true\n", "")
        assert run(capsys, "is-extension", "3,5,7", "2,5") == (0, "false\n", "")
        assert run(capsys, "is-extension", "2,5", "2,3", "--format", "json") == (0, "true\n", "")
        assert run(capsys, "is-extension", "3,5,7", "2,5", "--format", "json") == (0, "false\n", "")

    def test_hull(self, capsys):
        assert run(capsys, "hull", "5,7,9", "--elements", "6")[1] == "<5,6,7,8,9>\n"
        assert run(capsys, "hull", "5,7,9", "--elements", "")[1] == "<5,7,9>\n"
        assert run(capsys, "hull", "5,7,9", "--elements", "6", "--format", "json") == (
            0, as_json(semigroup_json([5, 6, 7, 8, 9], [1, 2, 3, 4], 1)), "")
        code, out, err = run(capsys, "hull", "5,7,9", "--elements", "x")
        assert (code, out) == (2, "")
        assert err.endswith("numsem hull: error: argument --elements: "
                            "expected comma-separated nonnegative integers, got 'x'\n")

    def test_hull_skips_the_variety(self, capsys):
        start = time.monotonic()
        code, out, _ = run(capsys, "hull", "300,301", "--elements", "5")
        assert (code, out) == (0, "<5,301>\n")
        assert time.monotonic() - start < 10

    def test_enumerate_all(self, capsys):
        code, out, _ = run(capsys, "enumerate-all", "--frobenius-bound", "5")
        assert code == 0
        assert len(out.splitlines()) == 12

    def test_variety_json(self, capsys):
        _, out, _ = run(capsys, "variety", "2,5", "--format", "json")
        data = json.loads(out)
        assert [m["generators"] for m in data["members"]] == [[1], [2, 3], [2, 5]]

    def test_tree_json_bytes(self, capsys):
        code, out, _ = run(capsys, "tree", "--frobenius-bound", "12", "--format", "json")
        assert code == 0
        assert out == json.dumps(tree_json_dict(enumerate_tree(12)), indent=2) + "\n"

    def test_large_json_is_json_dumps_of_the_record(self, capsys):
        """One semigroup with 499,500 gaps, and a family of 11,336 members."""
        info = NumericalSemigroup.from_generators([1000, 1001])
        family = arithmetic_extensions(NumericalSemigroup.from_generators([40, 41]))
        assert (info.genus, len(family)) == (499500, 11336)
        for argv, record in ((("info", "1000,1001"), info), (("extensions", "40,41"), family)):
            code, out, err = run(capsys, *argv, "--format", "json")
            assert (code, err) == (0, "")
            assert out == json.dumps(record.to_json_dict(), indent=2) + "\n", argv


class TestDeterminismAndOutput:
    def test_repeat_runs_identical(self, capsys):
        _, first, _ = run(capsys, "variety", "2,5", "3,5,7")
        _, second, _ = run(capsys, "variety", "2,5", "3,5,7")
        assert first == second

    def test_output_file_byte_identical(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, "tree", "--frobenius-bound", "5", "--format", "json")
        target = tmp_path / "tree.json"
        code, out, _ = run(
            capsys, "tree", "--frobenius-bound", "5", "--format", "json",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == stdout_text

    def test_streamed_tree_equals_export_tree_and_the_output_file(self, capsys, tmp_path):
        """stdout, ``--output`` and ``export_tree`` agree for every format, edgeless trees too."""
        target = tmp_path / "tree.out"
        for bound in range(1, 17):
            for depth in (None, 0, 1, 2, 3):  # depth 0: the root alone, no edges
                pred = ALL_SEMIGROUPS if depth is None else depth_predicate(depth)
                tree = enumerate_tree(bound, pred)
                argv = ["tree", "--frobenius-bound", str(bound)]
                argv += [] if depth is None else ["--depth", str(depth)]
                for fmt in ("text", "json", "dot"):
                    expected = export_tree(tree, fmt)
                    assert run(capsys, *argv, "--format", fmt) == (0, expected, "")
                    assert run(capsys, *argv, "--format", fmt, "--output", str(target)) == (0, "", "")
                    assert target.read_text() == expected

    def test_tree_is_written_without_its_whole_text(self, monkeypatch):
        """Once the walk is done, rendering and writing hold less than half the output at once."""
        size = len(export_tree(enumerate_tree(16), "json"))
        held = []

        def walked(*args):
            tree = enumerate_tree(*args)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return tree

        monkeypatch.setattr(numsem.tree, "enumerate_tree", walked)
        with open(os.devnull, "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                assert main(["tree", "--frobenius-bound", "16", "--format", "json"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - held[0] < size / 2

    def test_tree_is_written_in_chunks(self, monkeypatch, tmp_path):
        """Each write to stdout or ``--output`` carries about a buffer, not a node or an edge."""

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        tree = enumerate_tree(16)
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Recorder(), raising=False)
        for fmt in ("json", "text", "dot"):
            text = export_tree(tree, fmt)
            for extra in ((), ("--output", str(tmp_path / "tree.out"))):
                writes = []
                monkeypatch.setattr(sys, "stdout", Recorder())
                assert main(["tree", "--frobenius-bound", "16", "--format", fmt, *extra]) == 0
                assert "".join(writes) == text
                assert len(writes) <= len(text) // 8192 + 2, (fmt, extra, len(writes))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_full_stdout_is_one(self):
        with open("/dev/full", "w") as full:
            for argv in (("tree", "--frobenius-bound", "20", "--format", "json"), ("info", "3,5")):
                child = numsem_process(*argv, stdout=full)
                _, err = child.communicate(timeout=60)
                assert (child.returncode, err) == (
                    1, "error: OSError: [Errno 28] No space left on device\n")

    def test_a_closed_pipe_is_one(self):
        child = numsem_process("tree", "--frobenius-bound", "20", "--format", "json",
                               stdout=subprocess.PIPE)
        assert child.stdout.read(10) == '{\n  "nodes'
        child.stdout.close()
        assert child.wait(timeout=60) == 1
        assert child.stderr.read() == "error: BrokenPipeError: [Errno 32] Broken pipe\n"
        child.stderr.close()

    def test_output_to_a_missing_directory_is_one(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "info", "3,5", "--output", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: FileNotFoundError: [Errno 2] No such file or directory: '{target}'\n"
        assert not target.parent.exists()

    def test_output_to_a_directory_is_one(self, capsys, tmp_path):
        code, out, err = run(capsys, "info", "3,5", "--output", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == f"error: IsADirectoryError: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, out, err = run(capsys, "info", "4,6")
        assert code == 1
        assert out == ""
        assert "GcdNotOne" in err

    def test_unknown_verb_is_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag_is_two(self, capsys):
        assert run(capsys, "upper-sets", "4,5,11")[0] == 2

    def test_bad_generator_string_is_two(self, capsys):
        assert run(capsys, "info", "2,x")[0] == 2
        assert run(capsys, "info", "0,3")[0] == 2

    def test_dot_format_only_for_tree(self, capsys):
        assert run(capsys, "info", "2,5", "--format", "dot")[0] == 2

    def test_bad_modulus_is_domain_error(self, capsys):
        code, _, err = run(capsys, "upper-sets", "4,5,11", "--modulus", "4")
        assert code == 1
        assert "BadM" in err

    def test_oracle_check_passes(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--frobenius-bound", "12")
        assert code == 0
        assert out.endswith("oracle-check: PASS\n")

    def test_oracle_check_reports_mismatches(self, capsys, monkeypatch):
        monkeypatch.setattr(numsem.doubles, "doubles_bounded", lambda s, f: [])
        code, out, _ = run(capsys, "oracle-check", "--frobenius-bound", "3")
        assert (code, out) == (1, "ok tree-vs-bruteforce: 3/3 bounds agree\n" + "".join(
            f"MISMATCH doubles-vs-bruteforce: S={s} F={f}\n"
            for s, f in (("<1>", 1), ("<1>", 2), ("<1>", 3), ("<2,3>", 2), ("<2,3>", 3)))
            + "ok extensions-vs-bruteforce: 5 semigroups agree\noracle-check: FAIL\n")
        monkeypatch.undo()
        monkeypatch.setattr(numsem.tree, "enumerate_tree", lambda f: enumerate_tree(1))
        code, out, _ = run(capsys, "oracle-check", "--frobenius-bound", "3")
        assert (code, out.splitlines()[0]) == (1, "MISMATCH tree-vs-bruteforce: 1/3 bounds agree")
        assert out.endswith("oracle-check: FAIL\n")


HELP_FIXTURE = Path(__file__).parent / "fixtures" / "cli_help.txt"

# One usage error per verb: a missing required argument or a value its type rejects.
BAD_INPUT = {
    "info": ("0,3",),
    "quotient": ("3,5",),
    "intersect": (),
    "fundamental-gaps": ("x",),
    "pm": ("3", "7", "0"),
    "extensions": (),
    "variety": ("2,5", "3,x"),
    "is-extension": ("2,5",),
    "hull": ("5,7,9", "--elements", "-1"),
    "upper-sets": ("4,5,11",),
    "double": ("2,3", "--modulus", "0"),
    "doubles": ("2,3",),
    "tree": ("--frobenius-bound", "5", "--depth", "-1"),
    "enumerate-all": (),
    "oracle-check": ("--frobenius-bound", "x"),
}


def fixture_helps() -> dict[str, str]:
    """The help texts of ``HELP_FIXTURE``, by verb ("" for ``numsem --help``)."""
    helps = {}
    for part in HELP_FIXTURE.read_text().split("$ numsem ")[1:]:
        command, text = part.split("\n", 1)
        helps[command.removesuffix("--help").strip()] = text
    return helps


def full_parser_exit(capsys, argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the full parser on ``argv``, which must exit."""
    with pytest.raises(SystemExit) as exit_:
        cli.build_parser().parse_args(list(argv))
    return (int(exit_.value.code or 0), *capsys.readouterr())


class TestParsers:
    """A verb named first, with exact options once each and its positionals in one run, is
    read from ``cli._VERBS`` without argparse; help, usage, errors and every other spelling
    go to the full parser, ``cli.build_parser()``.

    ``tests/fixtures/cli_help.txt`` is the output of ``numsem --help`` and
    ``numsem VERB --help`` for every verb, with ``COLUMNS=80``, each after a
    ``$ numsem ... --help`` line.  Rerun those commands to regenerate it after
    an intentional change.  It matches byte for byte on CPython 3.10.13,
    3.11.7 and 3.12.1; 3.13.0 wraps three usage lines differently.
    """

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_help_matches_the_fixture(self, capsys):
        helps = fixture_helps()
        assert list(helps) == ["", *BAD_INPUT]
        for verb, text in helps.items():
            argv = [verb, "--help"] if verb else ["--help"]
            assert run(capsys, *argv) == (0, text, ""), verb
            assert full_parser_exit(capsys, argv) == (0, text, ""), verb

    def test_a_verbs_parser_is_the_full_parsers_for_that_verb(self, capsys):
        for verb, bad in BAD_INPUT.items():
            help_text = full_parser_exit(capsys, [verb, "-h"])[1]
            assert run(capsys, verb, "-h") == (0, help_text, "")
            code, out, err = full_parser_exit(capsys, [verb, *bad])
            assert (code, out) == (2, "") and err.startswith(f"usage: numsem {verb} "), err
            assert run(capsys, verb, *bad) == (code, out, err)

    def test_everything_else_is_the_full_parsers(self, capsys):
        for argv in ([], ["-h"], ["--help"], ["frobnicate"], ["--format", "json", "tree"],
                     ["info", "3,5", "extra"], ["oracle-check", "--format", "json"]):
            expected = full_parser_exit(capsys, argv)
            assert run(capsys, *argv) == expected, argv
            assert expected[0] == 0 or expected[2].startswith("usage: numsem [-h]\n"), argv


# Valid and invalid values per type function (None: --output), small enough to run fast.
PARSE_VALUES = {
    cli._generators: (["3,5", "2,5,7", "4,6,7,9", "1", "4,6"], ["0,3", "x", ""]),
    cli._element_list: (["6", "1,2", "4,13", ""], ["x"]),
    cli._positive_int: (["1", "3", "6", "05"], ["0", "x"]),
    cli._nonnegative_int: (["0", "2"], ["x"]),
    None: ([os.devnull], [""]),
}


@st.composite
def verb_argv(draw) -> list[str]:
    """A verb and its arguments as a user might spell them, now and then in a spelling
    only the full parser reads: an abbreviation, a repeated option, ``--``, ``-h``, a
    value that starts with "-" or positionals split by an option."""
    verb = draw(st.sampled_from(list(cli._VERBS)))
    arguments = cli._arguments(*cli._VERBS[verb][2:])

    def value(options) -> str:
        valid, invalid = ((options["choices"], ["xml"]) if "choices" in options
                          else PARSE_VALUES[options.get("type")])
        return draw(st.sampled_from(valid if draw(st.integers(0, 4)) else invalid))

    twist = draw(st.sampled_from([None] * 8 + ["abbreviation", "repeat", "dash", "split",
                                               "--", "-h"]))
    groups, run = [], []
    for name, options in arguments:
        if name[0] != "-":
            many = st.integers(2 if twist == "split" else 0, 3)
            run += [value(options) for _ in range(draw(many if options.get("nargs")
                                                       else st.sampled_from([1] * 9 + [0])))]
        elif draw(st.integers(0, 9)) >= (1 if options.get("required") else 4):
            text = value(options)
            groups.append([f"{name}={text}"] if draw(st.booleans()) else [name, text])
    groups = draw(st.permutations(groups))
    if twist in ("abbreviation", "repeat", "dash") and groups:
        index = draw(st.integers(0, len(groups) - 1))
        name, equals, text = groups[index][0].partition("=")
        if twist == "abbreviation":
            name = name[:draw(st.integers(3, len(name) - 1))]
        text = (draw(st.sampled_from(["-1", "-0", "-x"])) if twist == "dash"
                else value(dict(arguments)[name]) if twist == "repeat"
                else text if equals else groups[index][1])
        group = [f"{name}={text}"] if equals else [name, text]
        groups[index:index + (twist != "repeat")] = [group]
    at = draw(st.integers(0, len(groups)))
    if twist == "split" and groups and len(run) > 1:
        cut = draw(st.integers(1, len(run) - 1))
        groups.insert(at, run[:cut] + groups.pop(0) + run[cut:])
    else:
        groups.insert(at, run)
    tokens = [token for group in groups for token in group]
    if twist in ("--", "-h"):
        tokens.insert(draw(st.integers(0, len(tokens))), twist)
    return [verb, *tokens]


def printed(argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of ``main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=500)
@given(verb_argv())
@example(["intersect", "2,5", "--format", "json", "3,5,7"])
@example(["quotient", "6,9", "--format=json", "2"])
@example(["tree", "--frob", "6"])
@example(["tree", "--frobenius-bound", "5", "--frobenius-bound=6"])
@example(["info", "--", "3,5"])
@example(["hull", "5,7,9", "--elements="])
@example(["tree", "--frobenius-bound", "6", "--depth", "-0"])
def test_the_table_parse_says_what_the_full_parser_says(argv):
    """``main`` prints what it prints with every argv handed to the full parser, and a
    namespace the table parse makes is the full parser's, but for ``verb``."""
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        patch.chdir(scratch)  # where an --output such as "-x" writes
        patch.setenv("COLUMNS", "80")
        with pytest.MonkeyPatch.context() as full:
            full.setattr(cli, "_parse", lambda argv: None)
            full_parser_path = printed(argv)
        assert printed(argv) == full_parser_path
    table = cli._parse(argv)
    if table is not None:
        full = vars(cli.build_parser().parse_args(argv))
        assert vars(table) == {key: value for key, value in full.items() if key != "verb"}


class TestWorkLimits:
    def test_pm_beyond_the_limit_fails_fast(self, capsys):
        start = time.monotonic()
        code, out, err = run(capsys, "pm", "1", "1000000000", "1")
        assert (code, out) == (1, "")
        assert "TooLarge" in err
        assert time.monotonic() - start < 10

    def test_huge_generator_fails_fast(self, capsys):
        for gens in ("2,10000000000001", "2,100000001"):
            start = time.monotonic()
            code, out, err = run(capsys, "info", gens)
            assert (code, out) == (1, "")
            assert err.startswith("error: TooLarge: ")
            assert "Traceback" not in err
            assert time.monotonic() - start < 10

    def test_huge_modulus_fails_fast(self, capsys):
        for verb, gens in (("double", "2,5"), ("upper-sets", "4,5,11")):
            for m in ("10000000000001", "100000001"):
                start = time.monotonic()
                code, out, err = run(capsys, verb, gens, "--modulus", m)
                assert (code, out) == (1, "")
                assert err.startswith("error: TooLarge: ")
                assert "Traceback" not in err
                assert time.monotonic() - start < 10

    def test_huge_frobenius_bound_fails_fast(self, capsys):
        for argv in (("tree",), ("doubles", "2,3")):
            start = time.monotonic()
            code, out, err = run(capsys, *argv, "--frobenius-bound", "100000000")
            assert (code, out) == (1, "")
            assert err.startswith("error: TooLarge: ")
            assert "Traceback" not in err
            assert time.monotonic() - start < 10

    def test_is_extension_of_a_large_semigroup(self, capsys):
        start = time.monotonic()
        assert run(capsys, "is-extension", "400,401", "2,3") == (0, "true\n", "")
        assert time.monotonic() - start < 10

    def test_large_conductor_info(self, capsys):
        start = time.monotonic()
        code, out, _ = run(capsys, "info", "300,301")
        assert code == 0
        assert out.startswith("<300,301> F=89699 m=300 g=44850 e=2 depth=299 gaps=1,2,3,")
        assert time.monotonic() - start < 10


def fresh_interpreter(code: str, stdin: bytes = b"", argv: tuple[str, ...] = ()) -> str:
    """Run ``code`` with ``argv`` in a new interpreter that finds this numsem; return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(numsem.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                          input=stdin, capture_output=True, timeout=60)
    return done.stdout.decode()


def modules_added_by(code: str) -> set[str]:
    """Modules in ``sys.modules`` after ``code`` that a bare interpreter does not load."""
    listing = "import sys; print(' '.join(sorted(sys.modules)))"
    return set(fresh_interpreter(code + "; " + listing).split()) - set(fresh_interpreter(listing).split())


class TestStartup:
    def test_cli_import_leaves_out_dataclasses_and_json(self):
        """Importing the CLI loads none of these beyond what a bare interpreter loads."""
        added = modules_added_by("import numsem.cli")
        assert "numsem.cli" in added
        assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}

    def test_json_output_never_imports_json(self):
        """``python -m numsem`` writes JSON without the ``json`` module, lone semigroup or tree."""
        env = {**os.environ, "PYTHONPATH": str(Path(numsem.__file__).parents[1])}
        for argv in (("info", "3,5"), ("tree", "--frobenius-bound", "6")):
            child = subprocess.run([sys.executable, "-X", "importtime", "-m", "numsem", *argv,
                                    "--format", "json"], capture_output=True, text=True,
                                   timeout=60, env=env, check=True)
            imported = {line.rsplit("|", 1)[1].strip() for line in child.stderr.splitlines()
                        if line.startswith("import time:")}
            assert "numsem.cli" in imported and json.loads(child.stdout), argv
            assert not {name for name in imported if name.split(".")[0] in ("json", "_json")}

    def test_a_run_imports_argparse_only_for_help_and_errors(self, monkeypatch):
        """``python -m numsem`` reads a verb's arguments without ``argparse`` or the ``gettext``
        and ``locale`` it imports; help and a usage error still print the full parser's."""
        env = {**os.environ, "PYTHONPATH": str(Path(numsem.__file__).parents[1])}
        for argv in (("variety", "3,5"), ("tree", "--frobenius-bound", "6", "--format", "json"),
                     ("oracle-check", "--frobenius-bound", "4")):
            child = subprocess.run([sys.executable, "-X", "importtime", "-m", "numsem", *argv],
                                   capture_output=True, text=True, timeout=60, env=env, check=True)
            imported = {line.rsplit("|", 1)[1].strip() for line in child.stderr.splitlines()
                        if line.startswith("import time:")}
            assert "numsem.cli" in imported and child.stdout, argv
            assert not imported & {"argparse", "gettext", "locale"}, argv
        monkeypatch.setenv("COLUMNS", "80")
        help_text = fixture_helps()["tree"]
        error = (help_text.split("\n\n")[0] + "\nnumsem tree: error: argument --frobenius-bound: "
                 "expected a positive integer, got 0\n")
        for argv, expected in ((("tree", "-h"), (0, help_text, "")),
                               (("tree", "--frobenius-bound", "0"), (2, "", error))):
            child = numsem_process(*argv, stdout=subprocess.PIPE)
            out, err = child.communicate(timeout=60)
            assert (child.returncode, out, err) == expected, argv

    def test_package_import_is_lazy_and_the_cli_loads_every_layer(self):
        """``import numsem`` loads no submodule and a name loads only its own; the CLI
        registers all six layers, which ``benchmarks/trace_child.py`` reads from ``sys.modules``."""
        def numsem_modules(code: str) -> set[str]:
            return {name for name in modules_added_by(code) if name.startswith("numsem.")}

        assert numsem_modules("import numsem") == set()
        assert numsem_modules("from numsem import NumericalSemigroup") == {"numsem.core", "numsem.errors"}
        layers = {f"numsem.{name}" for name in ("core", "doubles", "errors", "oracle", "tree", "varieties")}
        assert numsem_modules("import numsem.cli") == layers | {"numsem.cli"}

    def test_each_verb_runs_only_the_layers_it_calls(self):
        """A fresh interpreter running one verb executes these ``numsem`` modules and no
        other; a layer it never calls stays registered and unrun."""
        listing = ("import os, sys, types; from numsem.cli import main; "
                   "code = main(sys.argv[1:] + ['--output', os.devnull]); "
                   "print(code, *sorted(name for name, m in sys.modules.items() "
                   "if name.startswith('numsem.') and type(m) is types.ModuleType))")
        base = ["cli", "core", "errors"]
        for argv, layers in ((("variety", "4,6,7,9", "3,5"), ["varieties"]),
                             (("tree", "--frobenius-bound", "8"), ["doubles", "tree"]),
                             (("tree", "--frobenius-bound", "8", "--format", "json"),
                              ["_json_writer", "doubles", "tree"]),
                             (("oracle-check", "--frobenius-bound", "6"),
                              ["doubles", "oracle", "tree", "varieties"])):
            ran = fresh_interpreter(listing, argv=argv).split()
            assert ran == ["0", *sorted(f"numsem.{name}" for name in base + layers)], argv

    def test_a_layer_is_one_module_whether_imported_before_or_after_the_cli(self):
        """A layer imported before ``numsem.cli`` is the one the CLI uses, and one the CLI
        registered is on the package, so ``numsem.doubles.upper_m_sets`` resolves."""
        check = """if True:
            import importlib, sys
            first = [importlib.import_module(f"numsem.{name}") for name in sys.argv[1:]]
            import numsem.cli, numsem.doubles, numsem.oracle, numsem.tree, numsem.varieties
            for name in ("doubles", "oracle", "tree", "varieties"):
                module = sys.modules[f"numsem.{name}"]
                assert getattr(numsem, name) is getattr(numsem.cli, name) is module, name
                assert importlib.import_module(f"numsem.{name}") is module, name
            assert all(module is sys.modules[module.__name__] for module in first)
            for name, home in numsem._HOME.items():
                assert getattr(numsem, name) is getattr(sys.modules[f"numsem.{home}"], name), name
            print(numsem.doubles.upper_m_sets.__module__, numsem.tree.enumerate_tree.__module__)
        """
        for first in ((), ("doubles",), ("tree", "varieties"), ("doubles", "oracle", "tree", "varieties")):
            assert fresh_interpreter(check, argv=first) == "numsem.doubles numsem.tree\n", first

    def test_threads_that_first_use_the_layers_together_each_meet_them_whole(self):
        """Twelve threads reach the four unrun layers at once, with a short switch interval:
        none may find a layer, or a layer a name it imports, half run."""
        check = """if True:
            import sys, threading
            import numsem.cli
            sys.setswitchinterval(1e-6)
            uses = [("doubles", "upper_m_sets"), ("oracle", "all_semigroups_up_to"),
                    ("tree", "enumerate_tree"), ("varieties", "smallest_variety")] * 3
            start, failed = threading.Barrier(len(uses)), []
            def use(layer, name):
                start.wait()
                try:
                    getattr(getattr(numsem.cli, layer), name)
                except Exception as exc:
                    failed.append(repr(exc))
            threads = [threading.Thread(target=use, args=pair) for pair in uses]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            print(sum(thread.is_alive() for thread in threads), failed)
        """
        for _ in range(3):
            assert fresh_interpreter(check) == "0 []\n"

    def test_the_layer_helper_keeps_an_imported_layer_and_registers_a_missing_one(self, monkeypatch):
        assert cli._layer("tree") is sys.modules["numsem.tree"] is numsem.tree is cli.tree
        monkeypatch.delitem(sys.modules, "numsem.oracle")
        monkeypatch.delattr(numsem, "oracle")
        module = cli._layer("oracle")
        assert sys.modules["numsem.oracle"] is module is numsem.oracle
        assert type(module) is not types.ModuleType  # registered, not yet run
        assert module.all_semigroups_up_to(6).semigroups == numsem.all_semigroups_up_to(6).semigroups
        assert type(module) is types.ModuleType

    def test_records_unpickle_in_an_interpreter_that_imported_the_cli_first(self):
        """Pickles name the layers' modules, which the CLI registered and has not yet run."""
        values = (DoubleLabel(5, frozenset({3, 6})), arithmetic_extensions(
            NumericalSemigroup.from_generators([3, 5])), enumerate_tree(6))
        check = ("import pickle, sys, types, numsem.cli; "
                 "unrun = [type(sys.modules[f'numsem.{name}']) is not types.ModuleType "
                 "for name in ('doubles', 'tree', 'varieties')]; "
                 "got = pickle.loads(sys.stdin.buffer.read()); "
                 "from numsem import DoubleLabel, NumericalSemigroup, arithmetic_extensions, enumerate_tree; "
                 "want = (DoubleLabel(5, frozenset({3, 6})), arithmetic_extensions("
                 "NumericalSemigroup.from_generators([3, 5])), enumerate_tree(6)); "
                 "sys.stdout.write(repr((all(unrun), got == want)))")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert fresh_interpreter(check, pickle.dumps(values, protocol)) == "(True, True)"

    def test_records_unpickle_in_an_interpreter_that_imported_only_pickle(self):
        values = (NumericalSemigroup.from_generators([4, 5, 11]), DoubleLabel(5, frozenset({3, 6})),
                  enumerate_tree(6))
        check = ("import pickle, sys; got = pickle.loads(sys.stdin.buffer.read()); "
                 "from numsem import DoubleLabel, NumericalSemigroup, enumerate_tree; "
                 "want = (NumericalSemigroup.from_generators([4, 5, 11]), "
                 "DoubleLabel(5, frozenset({3, 6})), enumerate_tree(6)); "
                 "sys.stdout.write(repr(got == want))")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert fresh_interpreter(check, pickle.dumps(values, protocol)) == "True"

    def test_in_process_main_never_freezes_the_heap(self, capsys):
        """Only ``python -m numsem`` freezes what its imports made; library callers never."""
        frozen = gc.get_freeze_count()
        for argv in (["info", "3,5"], ["info", "4,6"], ["info", "2,x"], ["--help"],
                     ["tree", "--frobenius-bound", "6", "--format", "json"]):
            run(capsys, *argv)
        assert gc.get_freeze_count() == frozen

    def test_a_process_says_what_in_process_main_says(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv, code in ((("info", "3,5"), 0), (("info", "4,6"), 1), (("info", "2,x"), 2),
                           (("--help",), 0)):
            child = numsem_process(*argv, stdout=subprocess.PIPE)
            out, err = child.communicate(timeout=60)
            assert (child.returncode, out, err) == run(capsys, *argv)
            assert child.returncode == code

    def test_a_process_runs_its_exit_handlers(self):
        """``python -m numsem`` ends through ``sys.exit``, so profilers and coverage still report."""
        code = ("import atexit, runpy, sys; atexit.register(print, 'exit handler ran'); "
                "sys.argv = ['numsem', 'info', '3,5']; runpy.run_module('numsem', run_name='__main__')")
        assert fresh_interpreter(code) == "<3,5> F=7 m=3 g=4 e=2 depth=3 gaps=1,2,4,7\nexit handler ran\n"

    def test_every_program_entry_freezes_the_heap_and_says_the_same(self, capsys, monkeypatch,
                                                                     tmp_path):
        """``python -m numsem``, ``python -m numsem.cli`` and the ``numsem`` script, which
        calls ``sys.exit(main())``, each freeze the heap before exit and print the same."""
        monkeypatch.setenv("COLUMNS", "80")
        (tmp_path / "sitecustomize.py").write_text(  # imported at start-up by ``site``
            "import atexit, gc\n"
            "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n")
        path = os.pathsep.join([str(tmp_path), str(Path(numsem.__file__).parents[1])])
        entries = (["-m", "numsem"], ["-m", "numsem.cli"],
                   ["-c", "import sys; from numsem.cli import main; sys.exit(main())"])
        for argv, code in ((("info", "3,5"), 0), (("info", "4,6"), 1), (("info", "2,x"), 2)):
            in_process = run(capsys, *argv)
            assert in_process[0] == code
            for entry in entries:
                child = subprocess.run([sys.executable, *entry, *argv], capture_output=True,
                                       text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
                assert (child.returncode, child.stdout, child.stderr) == (
                    code, in_process[1] + "frozen at exit: True\n", in_process[2]), entry


class TestOutputDigest:
    def test_every_case_prints_the_bytes_of_the_fixture(self):
        """``tools/output_digest.py``, run in a child process, hashes 494 invocations; each
        case line must equal the committed one.  A change of output on purpose changes
        ``tests/fixtures/output_digest.txt`` in the same diff."""
        root = Path(__file__).resolve().parents[1]
        listing = subprocess.run([sys.executable, str(root / "tools" / "output_digest.py")],
                                 capture_output=True, text=True, timeout=300, check=True).stdout
        *cases, total = listing.splitlines()
        want = (root / "tests" / "fixtures" / "output_digest.txt").read_text().splitlines()
        assert len(want) == 494 and total.startswith("total ")
        assert cases == want, [case for case, line in zip(cases, want) if case != line]
