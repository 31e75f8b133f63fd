"""Benchmark of the numsem command line, one child process at a time.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload tree-json --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seconds 5

A run first invokes the workload's CLI command once, untimed, to fill
the byte-code cache, and verifies that output with ``check.py``.  Then
it repeats the same invocation until ``--seconds`` have passed, each
one after a set-up sample (a child that only imports numsem) and
before a run of the fixed reference program ``reference.py``; one more
reference run comes before the first.  Every repeat must write the
same bytes as the verified one.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics of ``trace_child.py`` with ``--trace 1``.

``rel_wall`` is the median, over the run, of each invocation's wall
time divided by the mean of the reference runs right before and right
after it.  On a shared host the same invocation runs at two speeds
about 1.6x apart, for seconds to minutes at a time, and the reference
program slows with it; wall times alone, even the fastest of a run,
follow the host as much as the program (see README.md).

The package runs from ``src/`` of the checkout; nothing is installed.
Results and spans go to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPAWN = HERE / "spawn.py"
TRACE_CHILD = HERE / "trace_child.py"
REFERENCE = HERE / "reference.py"

#: Size of the reference program: 0.3 to 0.5 s on a shared 2-vCPU host, interpreter start included.
REFERENCE_BOUND = 18

#: A run ends, with every child stopped, this long after it started.
RUN_DEADLINE_S = 170.0

#: The family of the ``variety`` workload: the first three semigroups
#: come from the family timed in ROADMAP.md; the fourth keeps the
#: cartesian product of extension sets at 22*15*31*3 = 30,690 tuples.
VARIETY_FAMILY = ((11, 13, 17), (10, 13, 17, 19), (9, 14, 19), (4, 6, 7, 9))


def _options(rng: random.Random, pairs: list[tuple[str, str]]) -> list[str]:
    """Options in a seeded order, each spelled ``--flag value`` or ``--flag=value``."""
    pairs = list(pairs)
    rng.shuffle(pairs)
    argv: list[str] = []
    for flag, value in pairs:
        argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
    return argv


# Each workload builds, from the seeded generator, the argument list of
# one CLI invocation and the check of its output (returning the number
# of items).  The seed changes only how the input is written, never the
# problem, so every seed does the same work and expects the same answer.


def tree_json(rng: random.Random, bound: int = 20):
    argv = ["tree", *_options(rng, [("--frobenius-bound", str(bound)), ("--format", "json")])]
    return argv, lambda text: check.check_tree_json(text, bound)


def tree_text(rng: random.Random, bound: int = 17, depth: int = 3):
    pairs = [("--frobenius-bound", str(bound)), ("--depth", str(depth))]
    if rng.random() < 0.5:
        pairs.append(("--format", "text"))
    argv = ["tree", *_options(rng, pairs)]
    return argv, lambda text: check.check_tree_text(text, bound, depth)


def variety(rng: random.Random, family=VARIETY_FAMILY):
    """Each member with its generators shuffled and sometimes one
    redundant generator (a sum of two) added.  The members keep their
    order: ``smallest_variety`` folds the product of their extension
    sets from the left, so another order is other work."""
    members = [list(gens) for gens in family]
    for gens in members:
        if rng.random() < 0.5:
            gens.append(rng.choice(gens) + rng.choice(gens))
        rng.shuffle(gens)
    argv = ["variety", *(",".join(map(str, gens)) for gens in members)]
    return argv, lambda text: check.check_variety(text, members)


def oracle_check(rng: random.Random, bound: int = 12):
    argv = ["oracle-check", *_options(rng, [("--frobenius-bound", str(bound))])]
    return argv, lambda text: check.check_oracle_check(text, bound)


WORKLOADS: dict[str, Callable] = {
    "tree-json": tree_json,
    "tree-text": tree_text,
    "variety": variety,
    "oracle-check": oracle_check,
}

#: Small sizes for ``selftest.py``: the same code paths in a fraction of a second.
SMALL = {
    "tree-json": {"bound": 10},
    "tree-text": {"bound": 10, "depth": 2},
    "variety": {"family": ((4, 6, 7, 9), (3, 5))},
    "oracle-check": {"bound": 8},
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package, wrong package)."""


def metric_units(trace: bool) -> dict[str, str]:
    """Name to unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


@dataclass
class Child:
    """What one finished child process did."""

    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes


def _child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_child(argv: list[str], deadline: float) -> Child:
    """Run ``argv`` to completion through ``spawn.py``; see there for why.

    The child is stopped at ``deadline`` and then reports exit -9.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    left = max(deadline - time.monotonic(), 0.001)
    stdout, stderr = OUT / "stdout.bin", OUT / "stderr.txt"
    spawn = [sys.executable, "-I", "-S", str(SPAWN), repr(left), str(stdout), str(stderr), *argv]
    proc = subprocess.Popen(spawn, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        report, _ = proc.communicate(timeout=left + 10)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    code, wall, rss_kb = report.split()
    return Child(int(code), float(wall), int(rss_kb) / 1024, stdout.read_bytes())


def measure_setup(deadline: float) -> float:
    """Start an interpreter that only imports numsem; return its wall time.

    It also confirms that the package comes from this checkout's ``src/``.
    """
    code = "import numsem, sys; sys.stdout.write(numsem.__file__)"
    child = run_child([sys.executable, "-c", code], deadline)
    if child.code != 0:
        raise SetupError(f"`import numsem` failed: {(OUT / 'stderr.txt').read_text()[-500:]}")
    where = Path(child.stdout.decode()).resolve()
    if where != (SRC / "numsem" / "__init__.py").resolve():
        raise SetupError(f"numsem was imported from {where}, not from {SRC}")
    return child.wall_s


@dataclass
class Run:
    """Operations of one run and what they measured."""

    checker: Callable[[str], int]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reference: bytes | None = None
    items: int = 0
    ops: list[Child] = field(default_factory=list)
    refs: list[Child] = field(default_factory=list)

    def record(self, child: Child, timed: bool = True) -> bool:
        """Count one operation and check its output; False when it failed."""
        self.attempted += 1
        if child.code != 0:
            self.failed += 1
            return False
        if self.reference is None:
            try:
                self.items = self.checker(child.stdout.decode())
            except (check.CheckError, ValueError, LookupError, TypeError, AttributeError) as exc:
                self.problems.append(f"{type(exc).__name__}: {exc}")
            self.reference = child.stdout
        elif child.stdout != self.reference:
            self.problems.append("output differs from the first verified output")
        if timed:
            self.ops.append(child)
        return True

    def record_reference(self, child: Child, expected: int) -> None:
        """Keep a reference run: one before the first timed invocation,
        then one after each."""
        if child.code != 0 or child.stdout.split() != [str(expected).encode()]:
            self.problems.append(f"the reference program printed {child.stdout[:80]!r} "
                                 f"(exit {child.code}), not {expected}")
        self.refs.append(child)

    @property
    def correct(self) -> bool:
        return not self.problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns the result object printed as JSON and
    the run's detail, which is also written to ``benchmarks/out/``."""
    if not (SRC / "numsem" / "__init__.py").is_file():
        raise SetupError(f"no numsem package under {SRC}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    rng = random.Random(f"{name}:{seed}")
    argv, checker = WORKLOADS[name](rng, **(sizes or {}))
    cli = [sys.executable, "-m", "numsem", *argv]
    ref_cmd = [sys.executable, str(REFERENCE), str(REFERENCE_BOUND)]
    reference_count = len(check.removal_tree(REFERENCE_BOUND))
    setup = [measure_setup(deadline)]

    run = Run(checker)
    run.record(run_child(cli, deadline), timed=False)  # warm-up and full check
    traced: list[tuple[Child, dict]] = []
    spans, report = OUT / f"spans-{name}.tsv", OUT / f"layers-{name}.json"
    traced_cli = [sys.executable, str(TRACE_CHILD), str(spans), str(report), *argv]
    run.record_reference(run_child(ref_cmd, deadline), reference_count)
    begin = time.monotonic()
    while time.monotonic() - begin < seconds or not run.ops:
        if time.monotonic() >= deadline:
            break
        setup.append(measure_setup(deadline))
        if run.record(run_child(cli, deadline)):
            run.record_reference(run_child(ref_cmd, deadline), reference_count)
        if trace:
            child = run_child(traced_cli, deadline)
            if run.record(child, timed=False):
                traced.append((child, json.loads(report.read_text())))
    if not run.ops:
        raise SetupError(f"every invocation of {' '.join(argv)} failed: "
                         f"{(OUT / 'stderr.txt').read_text()[-500:]}")

    fastest = min(c.wall_s for c in run.ops)
    ratios = [2 * c.wall_s / (before.wall_s + after.wall_s)
              for c, before, after in zip(run.ops, run.refs, run.refs[1:])]
    if trace:
        if not traced:
            raise SetupError("no traced invocation succeeded")
        child, layers = min(traced, key=lambda pair: pair[0].wall_s)
        layers["cli.output_bytes"] = len(run.reference)
        layers["trace.overhead_s"] = child.wall_s - fastest
    else:
        layers = {
            "rel_wall": statistics.median(ratios),
            "peak_rss_mb": statistics.median(c.rss_mb for c in run.ops),
            "setup_s": statistics.median(setup),
        }
    units = metric_units(trace)
    if set(layers) != set(units):
        raise SetupError(f"metrics {sorted(set(layers) ^ set(units))} are not both "
                         "measured and listed in BENCHMARK.json")
    metrics = {key: {"value": layers[key], "unit": units[key]} for key in units}
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    detail = {"workload": name, "seed": seed, "argv": argv, "items": run.items,
              "problems": run.problems, "median_wall_s": statistics.median(c.wall_s for c in run.ops),
              "wall_s": [c.wall_s for c in run.ops],
              "reference_s": [r.wall_s for r in run.refs], "rel_wall": ratios,
              "rss_mb": [c.rss_mb for c in run.ops], "setup_s": setup, **result}
    (OUT / f"result-{name}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return result, detail


def _summary(name: str, result: dict, detail: dict) -> str:
    parts = [f"{key} {m['value']:.6g} {m['unit']}" for key, m in result["metrics"].items()]
    return (f"{name}: " + "  ".join(parts) + f"  items {detail['items']}"
            f"  wall fastest {min(detail['wall_s']):.4g} s median {detail['median_wall_s']:.4g} s"
            f"  reference median {statistics.median(detail['reference_s']):.4g} s  attempted {result['attempted']}"
            f"  failed {result['failed']}  correct {str(result['correct']).lower()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # stop the children too when the benchmark itself is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"benchmark cannot run: {exc}", file=sys.stderr)
            return 2
        print(_summary(name, result, detail))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
