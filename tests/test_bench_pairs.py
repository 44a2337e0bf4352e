import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pair(parent: dict, change: dict) -> dict:
    return {side: {k: {"value": v} for k, v in values.items()}
            for side, values in (("parent", parent), ("change", change))}


def test_summary_counts_wins_in_the_better_direction():
    runs = [_pair({"oracle.solve_s": p, "oracle.items_per_s": 1 / p, "oracle.other": 1},
                  {"oracle.solve_s": c, "oracle.items_per_s": 1 / c, "oracle.other": 2})
            for p, c in ((1.4, 1.3), (1.5, 1.3), (1.45, 1.5), (1.42, 1.32))]
    lines = bench_pairs.summarize(runs, {"solve_s": "lower", "items_per_s": "higher"})
    assert len(lines) == 2  # a metric without a direction is not summarized
    solve, items = lines
    assert solve.startswith("oracle.solve_s") and items.startswith("oracle.items_per_s")
    for line in lines:
        assert "change better in 3 of 4" in line and "a gain beyond the parent's IQR" in line
    assert "parent 1.435" in solve and "change 1.31 " in solve
    slower = [_pair({"oracle.solve_s": p}, {"oracle.solve_s": p + 0.2}) for p in (1.4, 1.41, 1.43)]
    (line,) = bench_pairs.summarize(slower, {"solve_s": "lower"})
    assert "change better in 0 of 3" in line and "a loss beyond the parent's IQR" in line


def test_refuses_checkouts_whose_paths_differ_in_length(tmp_path):
    for name in ("parent", "p"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("raise SystemExit(3)\n")
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "parent"),
                           str(tmp_path / "p"), "--workload", "oracle", "--seeds", "1", "2"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "unequal length" in done.stderr
