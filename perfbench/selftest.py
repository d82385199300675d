"""Self-test of the benchmark: every oracle must reject a planted wrong answer,
and the workloads must be reproducible from their seed.

    python3 perfbench/selftest.py

Takes about a minute.  Exits 0 when every check holds, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles      # noqa: E402
import workloads    # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def worker(*args):
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0", "PATH": ""}
    out = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def planted_report_counts():
    import jsonschema
    wl = workloads.ReportsAbsolute(0)
    wl.specs = [c for c in wl.specs if c[0] == "f3"]
    ops = wl.setup()
    result = wl.post(0, ops[0]())
    expect(wl.check([result]) == [], "f3 report passes its oracles")
    text, row_sizes, universe, universe_sizes = result
    validator = jsonschema.Draft202012Validator(
        json.loads(workloads.REPORT_SCHEMA.read_text()))
    case = ("f3", "f3", None, True)
    obj = json.loads(text)
    obj["mse"]["objects"] += 1
    expect(oracles.check_report(case, obj, (row_sizes, universe, universe_sizes),
                                validator) != [], "row count off by one is rejected")
    obj = json.loads(text)
    expect(oracles.check_report(case, obj, (row_sizes, universe + 1, universe_sizes),
                                validator) != [], "universe size off by one is rejected")
    expect(oracles.check_report(case, obj, (row_sizes, universe,
                                            universe_sizes + (1,)), validator) != [],
           "orbit sizes that miss the object count are rejected")
    obj["verdict"] = "refuted"
    expect(oracles.check_report(case, obj, (row_sizes, universe, universe_sizes),
                                validator) != [], "a refuted verdict is rejected")


def planted_certificate():
    wl = workloads.Queries(0)
    keep = [i for i, s in enumerate(wl.specs)
            if s[0] == "cert" and s[1] == "zmod:4" and s[3] == (1, 0, 2)]
    wl.specs = [wl.specs[i] for i in keep]
    ops = wl.setup()
    result = wl.post(0, ops[0]())
    expect(wl.check([result]) == [], "Z/4 (2) certificate replays")
    xs, ys, (t, size, tokens) = result
    ar = oracles.Arith("zmod:4")
    ideal = oracles.ideal_codes(ar, 2)

    def corrupt(tok):
        if tok[0] == "e":
            return ("e", tok[1], tok[2], ar.add(tok[3], 1))
        if tok[0] == "c":
            return ("c", tok[1], corrupt(tok[2]))
        return ("inv", corrupt(tok[1]))

    bad = (corrupt(tokens[0]),) + tokens[1:]
    expect(oracles.check_certificate(ar, ideal, xs, ys, t, size, bad) != [],
           "a corrupted certificate token is rejected")
    expect(oracles.check_certificate(ar, ideal, xs, ys, t, size, tokens[1:]) != [],
           "a certificate with a token dropped is rejected")


def planted_row_product():
    ar = oracles.Arith("f4")
    every = set(ar.elements)
    expect(oracles.check_row_product(ar, every, (1, 2, 3)) == [],
           "a unimodular f4 row passes")
    expect(oracles.check_row_product(ar, every, (0, 0, 0)) != [],
           "a zero row is rejected")
    ar = oracles.Arith("zmod:4")
    expect(oracles.check_row_product(ar, oracles.ideal_codes(ar, 2), (1, 1, 0)) != [],
           "a Z/4 row off the e1 coset is rejected")


def planted_coefficient():
    wl = workloads.Monicize(0)
    wl.specs = wl.specs[:40]
    ops = wl.setup()
    results = [wl.post(i, op()) for i, op in enumerate(ops)]
    expect(wl.check(results) == [], "40 monicizations pass their oracle")
    exponents, negate, c, h, back = results[0]
    p = wl.specs[0][0]
    (e, x), rest = h[0], h[1:]
    planted = (
        ((exponents, negate, c, ((e, (x + 1) % p),) + rest, back),
         "a perturbed coefficient of h"),
        ((exponents, negate, (c + 1) % p, h, back), "a perturbed unit c"),
        ((exponents, negate, c, h, back[1:]), "a wrong inverse substitution"),
    )
    for bad, what in planted:
        expect(wl.check([bad] + results[1:]) != [], f"{what} is rejected")


def reproducible():
    for name in ("monicize", "queries", "reports-absolute"):
        a = worker("--workload", name, "--seed", "11", "--setup-only")
        b = worker("--workload", name, "--seed", "11", "--setup-only")
        c = worker("--workload", name, "--seed", "12", "--setup-only")
        expect(a["input_digest"] == b["input_digest"], f"{name}: one seed, same inputs")
        expect(a["input_digest"] != c["input_digest"], f"{name}: another seed, other inputs")
    for name in ("monicize", "queries"):
        a = worker("--workload", name, "--seed", "5", "--seconds", "0")
        b = worker("--workload", name, "--seed", "5", "--seconds", "0")
        expect(a["correct"] and b["correct"], f"{name}: both runs correct")
        expect(a["output_digest"] == b["output_digest"],
               f"{name}: one seed, same digest of outputs")


def main():
    planted_report_counts()
    planted_certificate()
    planted_row_product()
    planted_coefficient()
    reproducible()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
