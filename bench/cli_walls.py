"""Wall time of `symwitt report vaserstein` on named rings.

    python3 bench/cli_walls.py                      # time this checkout
    python3 bench/cli_walls.py --src OTHER_CHECKOUT # time another checkout

Every command runs RUNS times, each in a fresh interpreter with
PYTHONPATH set to the checkout's src/, so a wall includes start-up and
import.  The median wall per command goes into the output file
(BENCH_6.json at the root of this repository by default) under the timed
checkout's commit, together with the machine: nproc, Python and
platform.  Entries already in the file for other commits are kept, so
one file holds a parent and a change side by side.  The sha256 of each
command's stdout is recorded too, to show both sides printed the same
bytes.  Standard library only.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3
RUN_LIMIT_S = 900.0

# (label, ring descriptor, ideal generator or None)
CASES = (
    ("f2", "f2", None),
    ("f3", "f3", None),
    ("f4", "f4", None),
    ("f5", "f5", None),
    ("f7", "f7", None),
    ("Z/4", "zmod:4", None),
    ("Z/8", "zmod:8", None),
    ("Z/9", "zmod:9", None),
    ("Z/4 (2)", "zmod:4", 2),
    ("Z/8 (4)", "zmod:8", 4),
)

LAUNCH = "import sys; from symwitt.cli import main; sys.exit(main(sys.argv[1:]))"


def _git(src, *args):
    try:
        out = subprocess.run(["git", "-C", str(src)] + list(args), check=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def time_case(src, argv):
    """Walls of RUNS runs of one command, its exit code and stdout digest."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"), PYTHONHASHSEED="0")
    walls, codes, digests = [], set(), set()
    for _ in range(RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", LAUNCH] + argv, cwd=src,
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=RUN_LIMIT_S)
        walls.append(time.perf_counter() - t0)
        codes.add(proc.returncode)
        digests.add(hashlib.sha256(proc.stdout).hexdigest())
    return {"argv": argv, "median_s": round(statistics.median(walls), 3),
            "runs_s": [round(w, 3) for w in walls],
            "exit": sorted(codes), "stdout_sha256": sorted(digests)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT,
                    help="checkout to time (default: this one)")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_6.json")
    args = ap.parse_args()
    src = args.src.resolve()
    entry = {
        "commit": _git(src, "rev-parse", "HEAD"),
        "src_dirty": bool(_git(src, "status", "--porcelain", "src")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "runs_per_command": RUNS,
        "walls": {},
    }
    for label, spec, gen in CASES:
        argv = ["report", "vaserstein", "--ring", spec]
        if gen is not None:
            argv += ["--ideal", str(gen)]
        entry["walls"][label] = time_case(src, argv)
        print(f"{label:10s} {entry['walls'][label]['median_s']:9.3f} s",
              file=sys.stderr, flush=True)
    doc = {"script": "bench/cli_walls.py", "entries": []}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    key = (entry["commit"], entry["src_dirty"])
    doc["entries"] = [e for e in doc["entries"]
                      if (e["commit"], e["src_dirty"]) != key] + [entry]
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
