"""bench/cli_walls.py: what it records from the runs it is handed.

The script is loaded by path, as a module, so nothing it would time is
started: `_summary`, the pair-ratio helper and `time_case` are checked
on synthetic runs, with `run_once` replaced where a run would start.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

CLI_WALLS = Path(__file__).resolve().parent.parent / "bench" / "cli_walls.py"


def _cli_walls():
    spec = importlib.util.spec_from_file_location("bench_cli_walls", CLI_WALLS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run(wall, cpu, code=0, stdout=b"{}\n", stderr=b"", peak=40.0):
    """A run as `run_once` returns it."""
    return wall, code, stdout, stderr, peak, cpu


def test_summary_records_cpu_beside_wall():
    walls = _cli_walls()
    runs = [_run(0.30, 0.21, peak=41.0), _run(0.10, 0.0714), _run(0.20, 0.09, peak=39.0)]
    out = walls._summary(["ring", "eval"], runs)
    assert out["argv"] == ["ring", "eval"]
    assert (out["runs_s"], out["median_s"]) == ([0.3, 0.1, 0.2], 0.2)
    assert (out["runs_cpu_s"], out["median_cpu_s"]) == ([0.21, 0.071, 0.09], 0.09)
    assert (out["runs_peak_rss_mb"], out["median_peak_rss_mb"]) == ([41.0, 40.0, 39.0], 40.0)
    assert out["exit"] == [0]
    assert out["stdout_sha256"] == [hashlib.sha256(b"{}\n").hexdigest()]
    assert "errors" not in out


def test_summary_names_the_errors_of_failed_runs():
    walls = _cli_walls()
    refused = json.dumps({"error": "BoundExceeded", "message": "past the cap"}).encode()
    runs = [_run(0.1, 0.08, code=1, stdout=b"", stderr=refused),
            _run(0.1, 0.08, code=1, stdout=b"", stderr=b"Traceback\nMemoryError\n")]
    out = walls._summary(["report"], runs)
    assert out["exit"] == [1]
    assert out["errors"] == ["BoundExceeded", "MemoryError"]


def test_pair_ratios_are_second_over_first():
    walls = _cli_walls()
    assert walls._pair_ratios([0.1, 0.2, 0.4], [0.11, 0.2, 0.3]) == \
        {"runs": [1.1, 1.0, 0.75], "median": 1.0, "range": [0.75, 1.1]}


def test_time_case_pairs_walls_and_cpu_times_run_by_run(monkeypatch):
    walls = _cli_walls()
    parent, change = Path("parent"), Path("change")
    # the change side takes 1.5 times the wall and 1.2 times the CPU of
    # the parent run it is paired with; the host slows down run by run
    calls = []

    def fake_run_once(src, argv, env):
        calls.append(src)
        k = sum(1 for c in calls if c == src)
        slow = 1.5 if src == change else 1.0
        return _run(0.1 * k * slow, 0.05 * k * (1.2 if src == change else 1.0))

    monkeypatch.setattr(walls, "run_once", fake_run_once)
    first, second = walls.time_case([parent, change], ["ring", "eval"])
    # the checkouts take turns, in reverse order every other run
    assert calls == [parent, change, change, parent, parent, change]
    assert "pair_ratios" not in first and "cpu_pair_ratios" not in first
    assert second["pair_ratios"] == {"runs": [1.5] * 3, "median": 1.5, "range": [1.5, 1.5]}
    assert second["cpu_pair_ratios"] == {"runs": [1.2] * 3, "median": 1.2,
                                         "range": [1.2, 1.2]}
    assert first["runs_cpu_s"] == [0.05, 0.1, 0.15]
    assert second["runs_cpu_s"] == [0.06, 0.12, 0.18]
