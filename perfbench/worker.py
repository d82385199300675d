"""One workload in its own process: set-up, timed rounds, checks.

Started by run.py, which sets this process's address-space limit.  It
prints one JSON object on stdout.  With --setup-only it stops after
set-up and reports only how long that took.
"""

import argparse
import atexit
import bisect
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time

import tracing
import workloads

_now = time.perf_counter
# Operation and round times are CPU time of this process, scaled by the
# host's speed (below).  On a shared VM the host's load adds wall time that
# is not the program's; the workloads are single-threaded and do no I/O,
# so CPU time is the time they would take on a machine of their own.  It
# is read from the thread clock: with a process-wide CPU timer armed (the
# sampling below arms one) Linux updates the process clock only at
# scheduler ticks, 4 ms apart, and the workloads run on this one thread.
_cpu = time.thread_time
RUN_DEADLINE_S = 150.0  # no operation may run past this point of the run
MAX_PROBLEMS = 20

# Host speed.  CPU time is not steady either: on the reference VM a fixed
# Python loop took between 24 and 43 ms of CPU time, switching abruptly
# between speeds that each held for seconds to tens of seconds, so a run
# that happened to fall in a fast stretch read up to 1.6x faster.  A fixed
# reference loop (below; it calls nothing of symwitt) is therefore timed
# at the start and end of every round and every REF_EVERY_S of CPU time in
# between, from a profiling-timer signal, so also in the middle of a long
# operation; samples a tenth of a second apart or more missed the quick
# changes of speed around a switch.  CPU time is scaled piece by piece:
# each stretch between two samples by REF_NOMINAL_S over the mean of the
# two.  Reported times are CPU times on a host where the reference loop
# takes REF_NOMINAL_S; a change to symwitt moves them, a change of the
# host's speed does not.
REF_NOMINAL_S = 0.33e-3  # about its time on the reference VM
REF_EVERY_S = 0.02


class OpTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so `except Exception` in symwitt
    cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def percentile(sorted_values, q):
    """Nearest-rank percentile: a value that was actually measured."""
    k = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(k)]


class _Mod:
    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p


def _reference_loop():
    """Fixed interpreter work of the kind symwitt does: method calls on a
    small ring object, modular arithmetic, tuple keys in dicts and sets."""
    r = _Mod(7)
    acc, seen = {}, set()
    for i in range(20):
        for j in range(20):
            k = (i % 5, j % 5, (i + j) % 3)
            acc[k] = r.add(acc.get(k, 0), r.mul(i, j))
            seen.add((k, acc[k]))
    return len(seen)


def reference_s():
    """CPU seconds of one reference loop now.

    The collector is held off so that a collection of symwitt's heap is
    charged to the operation that caused it, not to the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = _cpu()
        _reference_loop()
        return _cpu() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference samples on a clock of CPU time net of the sampling itself.

    `start` makes SIGPROF take a sample every REF_EVERY_S of CPU time;
    the time a sample takes is kept off the clock, so operations are timed
    without it."""

    def __init__(self):
        self.at, self.ref = [], []  # net CPU time of each sample, its reading
        self.spent = 0.0            # CPU seconds spent sampling
        self.count = 0
        self._busy = False

    def now(self):
        while True:
            n = self.count
            t = _cpu() - self.spent
            if n == self.count:  # no sample landed between the two reads
                return t

    def sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = _cpu()
            reading = reference_s()
            self.at.append(t0 - self.spent)
            self.ref.append(reading)
            self.spent += _cpu() - t0
            self.count += 1
        finally:
            self._busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, REF_EVERY_S, REF_EVERY_S)
        atexit.register(self.stop)  # before the handler goes at shutdown

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def reset(self):
        """Drop the samples before a new round; the clock runs on."""
        self.at, self.ref = [], []
        self.sample()

    def scale(self):
        """A function from net CPU time to scaled seconds, over the samples
        taken so far (at least two, the last after every time it is given)."""
        at, ref = list(self.at), list(self.ref)
        rates = [REF_NOMINAL_S / ((ref[k] + ref[k + 1]) / 2) for k in range(len(at) - 1)]
        cum = [0.0]
        for k, rate in enumerate(rates):
            cum.append(cum[-1] + (at[k + 1] - at[k]) * rate)

        def scaled(t):
            k = min(max(bisect.bisect_right(at, t) - 1, 0), len(rates) - 1)
            return cum[k] + (t - at[k]) * rates[k]
        return scaled


def run_round(ops, limit, deadline, tracer, speed):
    """Run every op once; returns (per-op scaled seconds, per-op CPU
    seconds, raw results, failures).  A failed op leaves None in each."""
    spans, raws, failures = [], [], []
    speed.reset()
    for i, op in enumerate(ops):
        budget = min(limit, deadline - _now())
        if budget <= 0:
            failures.append((i, "run deadline passed"))
            spans.append(None)
            raws.append(None)
            continue
        t0 = speed.now()
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                raw = op() if tracer is None else tracer.call("bench.op", op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            failures.append((i, f"over the {budget:.0f} s operation limit"))
            raw = None
        except Exception as exc:  # MemoryError under the address-space cap too
            failures.append((i, f"{type(exc).__name__}: {exc}"))
            raw = None
        spans.append(None if raw is None else (t0, speed.now()))
        raws.append(raw)
    speed.sample()
    scaled = speed.scale()
    times = [None if sp is None else scaled(sp[1]) - scaled(sp[0]) for sp in spans]
    cpu_times = [None if sp is None else sp[1] - sp[0] for sp in spans]
    return times, cpu_times, raws, failures


def op_latencies(per_round):
    """Each operation's median time over the rounds it completed in.

    Every round repeats the same operations, so the percentiles are taken
    over one value per operation however many rounds the run fitted in.
    """
    out = []
    for samples in zip(*per_round):
        done = sorted(t for t in samples if t is not None)
        if done:
            out.append(statistics.median(done))
    return sorted(out)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)

    speed = HostSpeed()
    speed.start()
    speed.sample()
    t0 = speed.now()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    ops = wl.setup()
    t1 = speed.now()
    speed.sample()
    scaled = speed.scale()
    setup_s, setup_cpu_s = scaled(t1) - scaled(t0), t1 - t0
    input_digest = hashlib.sha256(repr(wl.specs).encode()).hexdigest()
    if args.setup_only:
        speed.stop()
        print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu_s,
                          "input_digest": input_digest}))
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    deadline = _now() + RUN_DEADLINE_S
    tracer = tracing.Tracer() if args.trace else None
    plain_busy, traced_busy, plain_times, plain_cpu = [], [], [], []
    attempted = failed = 0
    first, problems, errors = None, [], []
    rounds = 0
    t_start = _now()
    while True:
        # traced runs alternate plain and traced rounds; the plain ones
        # give the baseline for the tracing overhead
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        t_wall = _now()
        try:
            times, cpu_times, raws, failures = run_round(
                ops, wl.op_limit_s, deadline, tracer if traced else None, speed)
        finally:
            if traced:
                tracer.uninstall()
        wall = _now() - t_wall
        rounds += 1
        busy = sum(t for t in times if t is not None)
        if traced:
            traced_busy.append(busy)
        else:
            plain_busy.append(busy)
            plain_times.append(times)
            plain_cpu.append(sum(t for t in cpu_times if t is not None))
        attempted += len(ops)
        failed += len(failures)
        errors += [f"op {i}: {msg}" for i, msg in failures]
        results = [None if raw is None else wl.post(i, raw) for i, raw in enumerate(raws)]
        if first is None:
            first = results
        elif results != first:
            bad = sum(1 for a, b in zip(results, first)
                      if a is not None and b is not None and a != b)
            if bad:
                problems.append(f"round {rounds}: {bad} results differ from round 1")
        elapsed = _now() - t_start
        enough = rounds >= (2 if tracer else 1) and (tracer is None or traced)
        if enough and elapsed + wall > args.seconds:
            break
        if _now() > deadline:
            break

    speed.stop()
    problems += wl.check(first)
    verdicts = wl.verdicts(first) if hasattr(wl, "verdicts") else None

    # each operation's median over the rounds, so a round that a host
    # stall hit moves it less
    latencies = op_latencies(plain_times)
    throughput = len(latencies) / sum(latencies) if latencies else 0.0
    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "measured_scaled_s": sum(plain_busy),
        "measured_cpu_s": sum(plain_cpu),
        "measured_wall_s": _now() - t_start,
        "sampling_cpu_s": speed.spent,
        "thread_cpu_s": _cpu(),
        "input_digest": input_digest,
        "output_digest": hashlib.sha256(repr(first).encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": problems[:MAX_PROBLEMS],
        "errors": errors[:MAX_PROBLEMS],
    }
    if verdicts is not None:
        out["verdicts"] = verdicts
    if tracer is None:
        out["ops_per_s"] = throughput
        out["op_p50_ms"] = percentile(latencies, 50) * 1e3 if latencies else None
        out["op_p90_ms"] = percentile(latencies, 90) * 1e3 if latencies else None
    else:
        pairs = min(len(plain_busy), len(traced_busy))
        layers = tracer.layer_metrics(len(traced_busy))
        import symwitt.ringio
        layers["rings.f4_op_ns"] = tracing.ring_probe(symwitt.ringio.parse_ring, "f4")
        layers["rings.zmod8_op_ns"] = tracing.ring_probe(symwitt.ringio.parse_ring, "zmod:8")
        layers["trace.overhead_pct"] = 100.0 * (
            sum(traced_busy[:pairs]) / sum(plain_busy[:pairs]) - 1.0)
        out["per_layer"] = layers
        out["spans"] = len(tracer.start)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
