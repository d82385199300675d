"""The CLI walls of every BENCH_*.json, command by command.

    python3 bench/trajectory.py        # the files at the root of this repository
    python3 bench/trajectory.py DIR    # the files in DIR

Each file holds the entries `bench/cli_walls.py` wrote there.  Its
change side is its last entry: the script appends the change after the
parent it alternated with.  For each command, one line per file, in the
files' numeric order, gives the change side's median wall and median
CPU time, and the medians of its wall and CPU pair ratios (change over
parent, run by run).  Files written before CPU times were recorded show
walls only, and files written before pair ratios show none; a missing
figure prints as "-".  A command keeps its label across files, so a
line of the same label compares like with like only as far as the
command did not change.  Standard library only: it reads the files and
starts no process.
"""

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"BENCH_(\d+)\.json")


def load(folder):
    """(file name, document) of every BENCH_<n>.json in folder, by n."""
    found = []
    for path in folder.iterdir():
        match = NAME.fullmatch(path.name)
        if match:
            found.append((int(match.group(1)), path.name, json.loads(path.read_text())))
    return [(name, doc) for _, name, doc in sorted(found)]


def trajectory(docs):
    """label -> [(file, wall, cpu, wall ratio, cpu ratio)], the change
    side of each file; None where a file has no such figure."""
    out = {}
    for name, doc in docs:
        for label, res in doc["entries"][-1]["walls"].items():
            out.setdefault(label, []).append((
                name, res.get("median_s"), res.get("median_cpu_s"),
                res.get("pair_ratios", {}).get("median"),
                res.get("cpu_pair_ratios", {}).get("median")))
    return out


def _cell(value, width):
    return f"{'-' if value is None else f'{value:.3f}':>{width}}"


def render(table):
    """The trajectory as text, one block per command."""
    lines = []
    for label, rows in table.items():
        lines.append(label)
        lines.append(f"  {'file':14s}{'wall s':>9s}{'cpu s':>9s}"
                     f"{'wall ratio':>12s}{'cpu ratio':>11s}")
        for name, wall, cpu, ratio, cpu_ratio in rows:
            lines.append(f"  {name:14s}{_cell(wall, 9)}{_cell(cpu, 9)}"
                         f"{_cell(ratio, 12)}{_cell(cpu_ratio, 11)}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("folder", type=Path, nargs="?", default=ROOT,
                    help="folder holding the BENCH_*.json files (default: this repository)")
    args = ap.parse_args(argv)
    print(render(trajectory(load(args.folder))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
