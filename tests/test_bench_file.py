import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_file.py"
spec = importlib.util.spec_from_file_location("bench_file", TOOL)
bench_file = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_file)


def write_runs(directory: Path, workload: str, rel_walls: list[float], failed: int = 0) -> None:
    directory.mkdir(exist_ok=True)
    for seed, value in enumerate(rel_walls, 1):
        metrics = {"rel_wall": value, "peak_rss_mb": 20.0 + seed, "setup_s": 0.04}
        detail = {"workload": workload, "seed": seed, "attempted": 10, "failed": failed,
                  "correct": True,
                  "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
        (directory / f"{workload}-seed{seed}.json").write_text(json.dumps(detail))
    # a traced run of the same seed carries no end-to-end metrics and is skipped
    traced = {"workload": workload, "seed": 1, "metrics": {"trace.spans": {"value": 1}}}
    (directory / f"{workload}-traced.json").write_text(json.dumps(traced))


def test_build_and_compare(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    write_runs(tmp_path / "parent", "tree-json", [0.50, 0.52, 0.54, 0.56, 0.58])
    write_runs(tmp_path / "change", "tree-json", [0.45, 0.47, 0.60, 0.51, 0.53], failed=1)
    out = tmp_path / "BENCH.json"
    assert bench_file.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--parent-sha", "p", "--change-sha", "c", "--output", str(out),
    ]) == 0
    bench = json.loads(out.read_text())
    assert (bench["parent_sha"], bench["change_sha"], bench["seeds"]) == ("p", "c", [1, 2, 3, 4, 5])
    assert bench["pythondontwritebytecode"] is None
    w = bench["workloads"]["tree-json"]
    assert w["parent"]["rel_wall"] == pytest.approx({"q1": 0.52, "median": 0.54, "q3": 0.56})
    assert w["change"]["rel_wall"]["median"] == pytest.approx(0.51)
    assert w["ratio"]["rel_wall"] == pytest.approx(0.51 / 0.54)
    assert w["change_lower_in_pairs"] == {"rel_wall": 4, "peak_rss_mb": 0, "setup_s": 0}
    assert (w["parent"]["failed"], w["change"]["failed"], w["change"]["attempted"]) == (0, 5, 50)
    assert "tree-json" in capsys.readouterr().out

    assert bench_file.main(["--compare", str(out), str(out)]) == 0
    assert "1.0000" in capsys.readouterr().out


def test_unpaired_seeds_are_refused(tmp_path):
    write_runs(tmp_path / "parent", "variety", [0.2, 0.3])
    write_runs(tmp_path / "change", "variety", [0.2])
    with pytest.raises(SystemExit):
        bench_file.main([
            "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--parent-sha", "p", "--change-sha", "c", "--output", str(tmp_path / "b.json"),
        ])


def test_a_single_pair_is_refused_by_name(tmp_path):
    write_runs(tmp_path / "parent", "variety", [0.2])
    write_runs(tmp_path / "change", "variety", [0.2])
    with pytest.raises(SystemExit, match="variety: 1 pair of runs"):
        bench_file.main([
            "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--parent-sha", "p", "--change-sha", "c", "--output", str(tmp_path / "b.json"),
        ])
    assert not (tmp_path / "b.json").exists()


def test_the_bytecode_setting_is_recorded(tmp_path, monkeypatch):
    write_runs(tmp_path / "parent", "variety", [0.2, 0.3])
    write_runs(tmp_path / "change", "variety", [0.2, 0.3])
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    out = tmp_path / "b.json"
    assert bench_file.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--parent-sha", "p", "--change-sha", "c", "--output", str(out),
    ]) == 0
    assert json.loads(out.read_text())["pythondontwritebytecode"] == "1"
