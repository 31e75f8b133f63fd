"""Build or compare a committed BENCH_<n>.json file from benchmark detail files.

    python3 tools/bench_file.py --parent DIR --change DIR \
        --parent-sha SHA --change-sha SHA [--note TEXT] --output BENCH_<n>.json
    python3 tools/bench_file.py --compare A.json B.json

Without ``--compare`` it reads every ``*.json`` detail file that
``benchmarks/run.py --trace 0`` wrote (``benchmarks/out/
result-<workload>-trace0.json``, copied aside after each run, since the
next run overwrites it) from the two directories, pairs the runs of each
workload by seed, and writes per workload the first quartile, median and
third quartile of each side's ``rel_wall``, ``peak_rss_mb`` and
``setup_s``, the change/parent ratio of the medians, the number of pairs
the change won (lower, ties counting for neither), and the attempted and
failed invocations.  It also prints those ratios.  Run it on the host and
interpreter that made the runs, and with their environment: the file
records their Python version, CPU count and ``PYTHONDONTWRITEBYTECODE``
(null when unset), since a side that may reuse a ``__pycache__`` skips
compiling the package on every invocation.  ``--compare`` prints, for
two such files, the ratio of B's change medians to A's change medians,
workload by workload.

Standard library only; it imports nothing from numsem or the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

METRICS = ("rel_wall", "peak_rss_mb", "setup_s")


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _runs(directory: Path) -> dict[str, dict[int, dict]]:
    """Detail files of untraced runs, by workload and seed."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        detail = json.loads(path.read_text())
        if "rel_wall" not in detail.get("metrics", {}):
            continue  # a traced run reports per-layer metrics only
        seeds = runs.setdefault(detail["workload"], {})
        if detail["seed"] in seeds:
            raise SystemExit(f"{path}: a second run of {detail['workload']} seed {detail['seed']}")
        seeds[detail["seed"]] = detail
    return runs


def _side(details: list[dict]) -> dict:
    side = {m: _quartiles([d["metrics"][m]["value"] for d in details]) for m in METRICS}
    side["attempted"] = sum(d["attempted"] for d in details)
    side["failed"] = sum(d["failed"] for d in details)
    side["correct"] = all(d["correct"] for d in details)
    return side


def build(args: argparse.Namespace) -> dict:
    parent, change = _runs(Path(args.parent)), _runs(Path(args.change))
    if set(parent) != set(change):
        raise SystemExit(f"workloads differ: parent {sorted(parent)}, change {sorted(change)}")
    workloads = {}
    seeds: set[int] = set()
    for name in sorted(parent):
        paired = sorted(set(parent[name]) & set(change[name]))
        if len(paired) != len(parent[name]) or len(paired) != len(change[name]):
            raise SystemExit(f"{name}: the seeds of the two sides differ")
        if len(paired) < 2:
            raise SystemExit(f"{name}: {len(paired)} pair of runs; the quartiles need at least 2")
        seeds.update(paired)
        p = [parent[name][s] for s in paired]
        c = [change[name][s] for s in paired]
        pside, cside = _side(p), _side(c)
        workloads[name] = {
            "parent": pside,
            "change": cside,
            "ratio": {m: cside[m]["median"] / pside[m]["median"] for m in METRICS},
            "change_lower_in_pairs": {
                m: sum(b["metrics"][m]["value"] < a["metrics"][m]["value"] for a, b in zip(p, c))
                for m in METRICS
            },
            "pairs": len(paired),
        }
    return {
        "command": "python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0",
        "seconds": args.seconds,
        "seeds": sorted(seeds),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "parent_sha": args.parent_sha,
        "change_sha": args.change_sha,
        "note": args.note,
        "workloads": workloads,
    }


def _print_ratios(label: str, rows: dict[str, dict[str, float]]) -> None:
    print(f"{'workload':<14}" + "".join(f"{m:>14}" for m in METRICS) + f"  ({label})")
    for name, ratios in rows.items():
        print(f"{name:<14}" + "".join(f"{ratios[m]:>14.4f}" for m in METRICS))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the ratios of B's change medians to A's")
    parser.add_argument("--parent", help="directory of the parent's detail files")
    parser.add_argument("--change", help="directory of the change's detail files")
    parser.add_argument("--parent-sha")
    parser.add_argument("--change-sha")
    parser.add_argument("--seconds", type=float, default=25.0, help="the --seconds of every run")
    parser.add_argument("--note", default="")
    parser.add_argument("--output")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text())["workloads"] for p in args.compare)
        rows = {
            name: {m: b[name]["change"][m]["median"] / a[name]["change"][m]["median"]
                   for m in METRICS}
            for name in sorted(set(a) & set(b))
        }
        _print_ratios(f"{args.compare[1]} / {args.compare[0]}, change medians", rows)
        return 0
    missing = [f"--{k.replace('_', '-')}" for k in ("parent", "change", "parent_sha",
               "change_sha", "output") if getattr(args, k) is None]
    if missing:
        parser.error(f"without --compare these are required: {' '.join(missing)}")
    bench = build(args)
    Path(args.output).write_text(json.dumps(bench, indent=1) + "\n")
    _print_ratios("change / parent medians", {n: w["ratio"] for n, w in bench["workloads"].items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
