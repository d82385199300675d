"""symwitt benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload monicize --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it needs src/symwitt and
docs/schemas).  The workload runs in a child process (worker.py) with an
address-space limit and a wall limit per operation; set-up is timed in
that child and in a few more set-up-only children, and the median is
reported.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; a results file with the machine,
the figures and the checks goes to perfbench/results/.
"""

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER = HERE / "worker.py"

WORKLOADS = ("monicize", "reports-absolute", "reports-relative", "queries")
ADDRESS_SPACE_LIMIT = 1 << 30   # bytes, per workload process
RUN_LIMIT_S = 170.0             # the whole run, children included
SETUP_SAMPLES = 5               # set-ups timed per run; the median is reported

END_TO_END = (("ops_per_s", "ops/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER_UNITS = {"_s": "s", "_ns": "ns", "_pct": "%"}


class BenchError(Exception):
    pass


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def run_worker(args, deadline):
    """Run worker.py with args in a limited child; return its JSON object."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached before a worker could start")
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + args, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=remaining,
                              preexec_fn=_limit_address_space)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past {RUN_LIMIT_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def machine():
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unknown: {exc}"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "commit": commit}


def per_layer_unit(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run(workload, seed, seconds, trace):
    """Run one workload; returns the result object printed for it."""
    deadline = time.monotonic() + RUN_LIMIT_S
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    base = f"{stamp}-{workload}-s{seed}-t{trace}"
    RESULTS.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed)]
    spans = ["--spans", str(RESULTS / f"{base}.spans")] if trace else []
    main_out = run_worker(common + ["--seconds", str(seconds), "--trace", str(trace)]
                          + spans, deadline)
    setups = [main_out["setup_s"]]
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(common + ["--setup-only"], deadline)["setup_s"])

    if trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in sorted(main_out["per_layer"].items())}
    else:
        values = dict(main_out, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    for problem in main_out["problems"] + main_out["errors"]:
        print(f"run.py: {workload}: {problem}", file=sys.stderr)

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine(), "setup_samples_s": setups, "metrics": metrics,
              **{k: v for k, v in main_out.items() if k != "per_layer" and k not in metrics}}
    if trace:
        record["spans_file"] = f"{base}.spans"
        record["tracing_overhead_pct"] = main_out["per_layer"]["trace.overhead_pct"]
    (RESULTS / f"{base}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return {"correct": main_out["correct"], "attempted": main_out["attempted"],
            "failed": main_out["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description="symwitt benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all four in turn (one JSON line each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    for need in (ROOT / "src" / "symwitt" / "__init__.py",
                 ROOT / "docs" / "schemas" / "bijectivity-report.v1.json"):
        if not need.is_file():
            print(f"run.py: {need.relative_to(ROOT)} not found; run from the root "
                  "of a symwitt source checkout", file=sys.stderr)
            return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result if len(names) == 1 else {"workload": name, **result}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
