"""bench/trajectory.py: the change side of each BENCH file, per command.

The script is loaded by path, as a module, and reads synthetic
documents; nothing it reads is timed, and it starts no process.
"""

import importlib.util
import json
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parent.parent / "bench" / "trajectory.py"


def _trajectory():
    spec = importlib.util.spec_from_file_location("bench_trajectory", TRAJECTORY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _doc(*entries):
    return {"script": "bench/cli_walls.py",
            "entries": [{"commit": c, "walls": walls} for c, walls in entries]}


# a file from before CPU times and pair ratios, and one with both; in
# each, the parent comes first and the change last
OLD = _doc(("p1", {"f2": {"median_s": 0.5}}), ("c1", {"f2": {"median_s": 0.4}}))
NEW = _doc(("p2", {"f2": {"median_s": 0.3, "median_cpu_s": 0.25}}),
           ("c2", {"f2": {"median_s": 0.2, "median_cpu_s": 0.19,
                          "pair_ratios": {"median": 0.667},
                          "cpu_pair_ratios": {"median": 0.76}},
                   "Z/12": {"median_s": 1.1, "median_cpu_s": 1.0}}))


def test_trajectory_reads_the_change_side_of_each_file():
    table = _trajectory().trajectory([("BENCH_9.json", OLD), ("BENCH_10.json", NEW)])
    assert table == {
        "f2": [("BENCH_9.json", 0.4, None, None, None),
               ("BENCH_10.json", 0.2, 0.19, 0.667, 0.76)],
        "Z/12": [("BENCH_10.json", 1.1, 1.0, None, None)],
    }


def test_render_prints_a_dash_for_a_missing_figure():
    mod = _trajectory()
    text = mod.render(mod.trajectory([("BENCH_9.json", OLD), ("BENCH_10.json", NEW)]))
    lines = text.splitlines()
    assert lines[0] == "f2"
    assert lines[2].split() == ["BENCH_9.json", "0.400", "-", "-", "-"]
    assert lines[3].split() == ["BENCH_10.json", "0.200", "0.190", "0.667", "0.760"]
    assert lines[4] == "Z/12"


def test_load_orders_files_by_number_and_skips_other_names(tmp_path):
    mod = _trajectory()
    for name, doc in (("BENCH_10.json", NEW), ("BENCH_9.json", OLD),
                      ("BENCH_x.json", NEW), ("NOTES.json", OLD)):
        (tmp_path / name).write_text(json.dumps(doc))
    assert mod.load(tmp_path) == [("BENCH_9.json", OLD), ("BENCH_10.json", NEW)]


def test_main_prints_the_committed_files(capsys):
    # every committed file parses, and the first command is the f2 report
    assert _trajectory().main([]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "f2"
    assert out[2].split()[0] == "BENCH_6.json"
