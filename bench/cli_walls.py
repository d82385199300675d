"""Wall time, CPU time and peak RSS of symwitt commands on named rings.

    python3 bench/cli_walls.py                      # time this checkout
    python3 bench/cli_walls.py --src OTHER_CHECKOUT # time another checkout
    python3 bench/cli_walls.py --src PARENT --src CHANGE  # time both

Every command runs RUNS times per checkout, each in a fresh
interpreter with PYTHONPATH set to the checkout's src/, so a wall
includes start-up and import.  Each checkout's src/ is byte-compiled
before the first run, so a fresh clone does not compile its modules in
every run where PYTHONDONTWRITEBYTECODE=1 is set.  Given two
checkouts, their runs of each command alternate (parent, change, then
change, parent, ...), so drift of the host between runs falls on both
sides alike instead of reading as a change.  The CPU time of each run
is the child's ru_utime + ru_stime and its peak RSS is the child's
ru_maxrss, both read with os.wait4; CPU time leaves out the waits that
a busy host adds to a wall.  The medians per command go into the
output file (BENCH_33.json at the root of this repository by default)
under each timed checkout's commit, together with the machine: nproc,
Python and platform.  Entries already in the file for
other commits are kept, so one file holds a parent and a change side
by side.  The sha256 of each command's stdout and the error name of a
failed run are recorded too, to show both sides printed the same
bytes.  Given two checkouts, the second one's entry also records, per
command, the wall and the CPU ratio (second over first) of each pair
of runs made back to back, with their median and range: drift of the
host between pairs falls on both runs of a pair, so it leaves the
ratios unskewed, while their range shows the noise that remains.

The report group ends with the absolute report over Z/12, whose BFS
partitions 209,664 universe states.  Its rows with no unit entry, such
as (2, 3, 0), and every row of the relative reports (Z/4 (2), Z/8 (4),
Z/9 (3) and Z/6 (3) stab 2) get their symbols' completions from the
completion search, so their stdout digests check its witnesses.

The polynomial group monicizes X1^100+X2^100 over Z/2, whose
substitution runs on the dict loops, and a dense input over Z/3 with a
quartic phi, whose substitution runs on the packed big int; both parse
and print through the shared term grammar.

The orbit group partitions the relative symbol universe of Z/16 (2)
at size 4, a BFS over 96 basis moves (378 exact generators), and
reports on Z/16 (2), which builds the relative rows' and symbols'
generator sets and runs that BFS (about 2.3 s in process), so unlike
the short relative reports of the report group it times relative work
rather than start-up and import.

The span group holds the relative reports over Z/9 (3) at level 1 and
Z/8 (4) at levels 1 and 2.  Levels never search: each level-0 class is
a whole residue coset mod I, which no level can merge, so both print
"merged": [] at every level without a partition.  (Their levels once
partitioned translation spans far past the memory cap as lists:
4,782,969 vectors of 15 entries; 16,384 of 15, then 2^27 of 28.)  They
time the relative universe (486 and 64 states), its level-0 translation
partition through an echelon table of each span, and the rows and
their symbols.

The large-ring group holds commands over rings of 10^7 elements and
more, which must be answered or refused without enumerating the ring;
a report over Z/72, whose 72^6 symbol candidates must be refused before
its 373,248 rows are completed one by one; a row product over Z/211,
whose 211^3 rows must be refused before any search; the members of
a double ring of 3000 * 3000 pairs, which must be refused before any
pair is drawn; the 10^5 members of an ideal of Z/200000, which must
be listed in time and memory linear in the ring; a report over
Z/6 (3) stabilized to level 2, whose levels never search (one used to
search 149,797 states of 8 x 8 matrices and be refused at the memory
cap); and the lift of a row
of Z/65536 (2) to R (+) I, which asks the ideal and its pair ideal
whether each entry lies in them; and the completion of (2, 4, 6) over
Z/16384, which has no unit entry, so its completion search would try
8192 partial sums against 16,384 elements at its second entry and must
be refused before that step (it used to run about 43 s).  The child sets its own
address-space limit of AS_LIMIT_MB before it imports symwitt, so a
checkout that does enumerate fails with a MemoryError at the cap
instead of taking the machine's memory; the reports stay far below it.
Standard library only.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
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
    ("Z/12", "zmod:12", None),
    ("Z/4 (2)", "zmod:4", 2),
    ("Z/8 (4)", "zmod:8", 4),
)

POLY_CASES = (
    ("nagata Z/2 dict",
     ["poly", "nagata", "--ring", "zmod:2", "--nvars", "2",
      "--poly", "X1^100+X2^100"]),
    ("nagata Z/3 packed",
     ["poly", "nagata", "--ring", "zmod:3", "--nvars", "2",
      "--poly", "X1^4*X2^6+2*X2^7+X1^3*X2^2+X1+1",
      "--phi", "X1^4+X1^3+2*X1+1"]),
)

ORBIT_CASES = (
    ("alt Z/16 (2)",
     ["orbit", "alt", "--ring", "zmod:16", "--ideal", "2", "--size", "4"]),
    ("report Z/16 (2)",
     ["report", "vaserstein", "--ring", "zmod:16", "--ideal", "2"]),
)

SPAN_CASES = (
    ("report Z/9 (3)",
     ["report", "vaserstein", "--ring", "zmod:9", "--ideal", "3"]),
    ("report Z/8 (4) stab 2",
     ["report", "vaserstein", "--ring", "zmod:8", "--ideal", "4", "--stab", "2"]),
)

AS_LIMIT_MB = 1536
LARGE_CASES = (
    ("eval Z/30000001 x Z/3",
     ["ring", "eval", "--ring",
      '{"kind":"product","factors":["zmod:30000001","zmod:3"]}',
      "--op", "add", "--args", "(1|1)", "(2|1)"]),
    ("eval Z/(20000003)",
     ["ring", "eval", "--ring",
      '{"kind":"quotient","base":"z","moduli":["20000003"]}',
      "--op", "add", "--args", "20000002", "5"]),
    ("report Z/50000017",
     ["report", "vaserstein", "--ring", "zmod:50000017"]),
    ("report Z/72",
     ["report", "vaserstein", "--ring", "zmod:72"]),
    ("members Z/50000017 (7)",
     ["ideal", "members", "--ring", "zmod:50000017", "--ideal", "7"]),
    ("um vdk Z/211",
     ["um", "vdk", "--ring", "zmod:211", "--u", '["2","1","0"]',
      "--v", '["1","0","1"]']),
    ("members Z/200000 (2)",
     ["ideal", "members", "--ring", "zmod:200000", "--ideal", "2"]),
    ("members D(Z/3000,(1))",
     ["ideal", "members", "--ring",
      '{"kind":"double","ideal":{"ring":"zmod:3000","generators":["1"]}}',
      "--ideal", "(1|1)"]),
    ("report Z/6 (3) stab 2",
     ["report", "vaserstein", "--ring", "zmod:6", "--ideal", "3", "--stab", "2"]),
    ("um lift Z/65536 (2)",
     ["um", "lift", "--ring", "zmod:65536", "--ideal", "2", "--row", '["3","2","0"]']),
    ("um complete Z/16384 (2,4,6)",
     ["um", "complete", "--ring", "zmod:16384", "--row", '["2","4","6"]']),
)

LAUNCH = (
    "import resource, sys; "
    f"resource.setrlimit(resource.RLIMIT_AS, ({AS_LIMIT_MB << 20}, {AS_LIMIT_MB << 20})); "
    "from symwitt.cli import main; sys.exit(main(sys.argv[1:]))")


def _git(src, *args):
    try:
        out = subprocess.run(["git", "-C", str(src)] + list(args), check=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(src, argv, env):
    """One run: wall seconds, exit code, stdout, stderr, peak RSS in MB
    and CPU seconds (user plus system)."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH] + argv, cwd=src,
                                env=env, stdout=out, stderr=err)
        timer = threading.Timer(RUN_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        # ru_maxrss is in KB on Linux
        return (wall, proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024,
                usage.ru_utime + usage.ru_stime)


def _error_name(stderr):
    """The structured error's name, else the last line of stderr."""
    try:
        return json.loads(stderr)["error"]
    except (ValueError, KeyError, TypeError):
        lines = stderr.decode(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""


def time_case(srcs, argv):
    """One summary per checkout of RUNS runs of one command.  The
    checkouts take turns run by run, in reverse order every other run,
    so run i of each checkout forms the i-th pair."""
    runs = [[] for _ in srcs]
    order = list(range(len(srcs)))
    for _ in range(RUNS):
        for k in order:
            env = dict(os.environ, PYTHONPATH=str(srcs[k] / "src"), PYTHONHASHSEED="0")
            runs[k].append(run_once(srcs[k], argv, env))
        order.reverse()
    out = [_summary(argv, r) for r in runs]
    if len(srcs) == 2:
        parent, change = runs
        for key, at in (("pair_ratios", 0), ("cpu_pair_ratios", 5)):
            out[1][key] = _pair_ratios([r[at] for r in parent], [r[at] for r in change])
    return out


def _pair_ratios(first, second):
    """Ratios second / first of paired runs, with their median and range."""
    ratios = [b / a for a, b in zip(first, second)]
    return {"runs": [round(r, 3) for r in ratios],
            "median": round(statistics.median(ratios), 3),
            "range": [round(min(ratios), 3), round(max(ratios), 3)]}


def _summary(argv, runs):
    """Walls, CPU times and peak RSS of the runs of one command, its
    exit code, error name and stdout digest."""
    walls, cpus, rss, codes, digests, errors = [], [], [], set(), set(), set()
    for wall, code, stdout, stderr, peak, cpu in runs:
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        codes.add(code)
        digests.add(hashlib.sha256(stdout).hexdigest())
        if code:
            errors.add(_error_name(stderr))
    out = {"argv": argv, "median_s": round(statistics.median(walls), 3),
           "runs_s": [round(w, 3) for w in walls],
           "median_cpu_s": round(statistics.median(cpus), 3),
           "runs_cpu_s": [round(c, 3) for c in cpus],
           "median_peak_rss_mb": round(statistics.median(rss), 1),
           "runs_peak_rss_mb": [round(m, 1) for m in rss],
           "exit": sorted(codes), "stdout_sha256": sorted(digests)}
    if errors:
        out["errors"] = sorted(errors)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, action="append",
                    help="checkout to time (default: this one); give it twice, "
                         "parent then change, to time both runs alternately")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_33.json")
    args = ap.parse_args()
    srcs = [src.resolve() for src in args.src or [ROOT]]
    for src in srcs:
        compileall.compile_dir(src / "src", quiet=1)
    entries = [{
        "commit": _git(src, "rev-parse", "HEAD"),
        "src_dirty": bool(_git(src, "status", "--porcelain", "src")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "runs_per_command": RUNS,
        "as_limit_mb": AS_LIMIT_MB,
        "walls": {},
    } for src in srcs]
    for entry in entries:
        entry["alternated_with"] = [e["commit"] for e in entries if e is not entry]
    cases = []
    for label, spec, gen in CASES:
        argv = ["report", "vaserstein", "--ring", spec]
        if gen is not None:
            argv += ["--ideal", str(gen)]
        cases.append((label, argv))
    for label, argv in (cases + list(POLY_CASES) + list(ORBIT_CASES) + list(SPAN_CASES)
                        + list(LARGE_CASES)):
        for entry, res in zip(entries, time_case(srcs, argv)):
            entry["walls"][label] = res
            ratio, cpu = res.get("pair_ratios"), res.get("cpu_pair_ratios")
            print(f"{label:24s} {str(entry['commit'])[:7]:7s} {res['median_s']:9.3f} s "
                  f"{res['median_cpu_s']:9.3f} s cpu "
                  f"{res['median_peak_rss_mb']:8.1f} MB  exit {res['exit']}"
                  + (f"  ratio {ratio['median']:.3f} cpu {cpu['median']:.3f}"
                     if ratio else ""),
                  file=sys.stderr, flush=True)
    doc = {"script": "bench/cli_walls.py", "entries": []}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    for entry in entries:
        key = (entry["commit"], entry["src_dirty"])
        doc["entries"] = [e for e in doc["entries"]
                          if (e["commit"], e["src_dirty"]) != key] + [entry]
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
