"""Quick self-test of the benchmark: python3 benchmarks/selftest.py

1. The checker's removal tree equals a brute-force walk over gap
   subsets for every bound up to 14, and its generator sieve, minimal
   generators and half-quotient agree on every semigroup it finds.
2. Each workload runs at a small size, untraced and traced, through the
   same code as a full run, with every output check on.
3. The checks reject a corrupted copy of each small output.

Prints one line per step and exits 0 only when all of them pass.
"""

from __future__ import annotations

import json
import random
import sys
import time

import check
import run


def checker_agrees_with_brute_force() -> str:
    for bound in range(1, 15):
        tree = check.removal_tree(bound)
        if len(set(tree)) != len(tree) or set(tree) != set(check.brute_force(bound)):
            raise AssertionError(f"removal tree and brute force differ at F<={bound}")
    found = set(tree)
    for g in tree:
        if check.from_generators(check.min_generators(g)) != g:
            raise AssertionError(f"generators of gap mask {g:b} do not give it back")
        if g and check.quotient(g, 2) not in found:
            raise AssertionError(f"half of gap mask {g:b} is missing")
    return f"removal tree = brute force for F<=1..14 ({len(tree)} semigroups at 14)"


def _corrupt(name: str, text: str) -> list[str]:
    """Wrong outputs the check must refuse."""
    lines = text.splitlines(keepends=True)
    if name == "tree-json":
        data = json.loads(text)
        last = len(data["nodes"]) - 1
        del data["nodes"][last]
        data["edges"] = [e for e in data["edges"] if last not in e]
        swapped = json.loads(text)
        swapped["edges"][0], swapped["edges"][-1] = (
            [swapped["edges"][0][0], swapped["edges"][-1][1]],
            [swapped["edges"][-1][0], swapped["edges"][0][1]])
        return [json.dumps(data), json.dumps(swapped)]
    middle = len(lines) // 2
    dropped = "".join(lines[:middle] + lines[middle + 1:])
    if name == "tree-text":
        return [dropped, text[:-len(lines[-1])] + "  " + lines[-1]]
    if name == "oracle-check":
        return [dropped, text.replace("/", "0/", 1)]
    return [dropped]


def workload_small(name: str) -> str:
    sizes = run.SMALL[name]
    for trace in (False, True):
        result, _ = run.run_workload(name, seed=7, seconds=0, trace=trace, sizes=sizes)
        if not result["correct"] or result["failed"] or result["attempted"] < 2:
            raise AssertionError(f"{name} trace={trace}: {result}")
        if not trace and min(m["value"] for m in result["metrics"].values()) <= 0:
            raise AssertionError(f"{name}: an end-to-end metric is not positive: {result}")
    argv, checker = run.WORKLOADS[name](random.Random(7), **sizes)
    child = run.run_child([sys.executable, "-m", "numsem", *argv], time.monotonic() + 60)
    items = checker(child.stdout.decode())
    for wrong in _corrupt(name, child.stdout.decode()):
        try:
            checker(wrong)
        except check.CheckError:
            continue
        raise AssertionError(f"{name}: a corrupted output passed the check")
    return f"{name} {' '.join(argv)}: {items} items, traced and untraced, corruptions refused"


def main() -> int:
    steps = [checker_agrees_with_brute_force] + [
        (lambda name=name: workload_small(name)) for name in run.WORKLOADS]
    failures = 0
    for step in steps:
        try:
            print("ok", step(), flush=True)
        except (AssertionError, check.CheckError, run.SetupError) as exc:
            failures += 1
            print("FAIL", exc, flush=True)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
