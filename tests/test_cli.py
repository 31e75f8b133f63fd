import io
import json
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import numsem
from numsem import (
    ALL_SEMIGROUPS,
    DoubleLabel,
    NumericalSemigroup,
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

    def test_fundamental_gaps(self, capsys):
        assert run(capsys, "fundamental-gaps", "5,7,9")[1] == "6,8,11,13\n"
        assert run(capsys, "fundamental-gaps", "1")[1] == "\n"

    def test_is_extension(self, capsys):
        assert run(capsys, "is-extension", "2,5", "2,3") == (0, "true\n", "")
        assert run(capsys, "is-extension", "3,5,7", "2,5") == (0, "false\n", "")

    def test_hull(self, capsys):
        assert run(capsys, "hull", "5,7,9", "--elements", "6")[1] == "<5,6,7,8,9>\n"
        assert run(capsys, "hull", "5,7,9", "--elements", "")[1] == "<5,7,9>\n"

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

        monkeypatch.setattr(cli, "enumerate_tree", walked)
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
        monkeypatch.setattr(cli, "doubles_bounded", lambda s, f: [])
        code, out, _ = run(capsys, "oracle-check", "--frobenius-bound", "3")
        assert (code, out) == (1, "ok tree-vs-bruteforce: 3/3 bounds agree\n" + "".join(
            f"MISMATCH doubles-vs-bruteforce: S={s} F={f}\n"
            for s, f in (("<1>", 1), ("<1>", 2), ("<1>", 3), ("<2,3>", 2), ("<2,3>", 3)))
            + "ok extensions-vs-bruteforce: 5 semigroups agree\noracle-check: FAIL\n")
        monkeypatch.undo()
        monkeypatch.setattr(cli, "enumerate_tree", lambda f: enumerate_tree(1))
        code, out, _ = run(capsys, "oracle-check", "--frobenius-bound", "3")
        assert (code, out.splitlines()[0]) == (1, "MISMATCH tree-vs-bruteforce: 1/3 bounds agree")
        assert out.endswith("oracle-check: FAIL\n")


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


def fresh_interpreter(code: str, stdin: bytes = b"") -> str:
    """Run ``code`` in a new interpreter that finds this numsem; return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(numsem.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
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

    def test_package_import_is_lazy_and_the_cli_loads_every_layer(self):
        """``import numsem`` loads no submodule and a name loads only its own; the CLI
        loads all six layers, which ``benchmarks/trace_child.py`` reads from ``sys.modules``."""
        def numsem_modules(code: str) -> set[str]:
            return {name for name in modules_added_by(code) if name.startswith("numsem.")}

        assert numsem_modules("import numsem") == set()
        assert numsem_modules("from numsem import NumericalSemigroup") == {"numsem.core", "numsem.errors"}
        layers = {f"numsem.{name}" for name in ("core", "doubles", "errors", "oracle", "tree", "varieties")}
        assert numsem_modules("import numsem.cli") == layers | {"numsem.cli"}

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
