"""The four workloads: seeded inputs, the operations, and their checks.

Inputs are plain data made from the seed by this file alone; symwitt
only sees them after `setup` has turned them into its own objects.  A
round is the full list of operations; every round of a run repeats the
same operations, so every later round must reproduce round one exactly.
"""

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
REPORT_SCHEMA = ROOT / "docs" / "schemas" / "bijectivity-report.v1.json"


class OpFailed(Exception):
    """An operation that returned an error status instead of raising."""


def _allocate(weights, total):
    """Largest-remainder split of `total` draws in proportion to weights."""
    whole = sum(weights.values())
    exact = {k: total * w / whole for k, w in weights.items()}
    quota = {k: int(x) for k, x in exact.items()}
    rest = total - sum(quota.values())
    for k in sorted(exact, key=lambda k: (quota[k] - exact[k], k))[:rest]:
        quota[k] += 1
    return quota


def _symwitt():
    """Import symwitt; part of set-up time."""
    import symwitt
    import symwitt.cli
    return symwitt


# ---------------------------------------------------------------------------
# monicize
# ---------------------------------------------------------------------------

MONOS = tuple((i, j) for i in range(4) for j in range(4 - i))  # total degree <= 3
PHIS = ({(1, 0): 1}, {(2, 0): 1, (1, 0): 1, (0, 0): 1})       # X1, X1^2+X1+1
PHI_TEXT = ("X1", "X1^2+X1+1")
MONICIZE_DRAWS = 1000  # polynomials per round, each transformed under both phis


def monicize_inputs(seed):
    """A stratified draw from the criterion-5 family.

    Strata are (p, number of monomials, largest exponent, set of X2
    exponents), the features that set a transform's cost; each stratum
    gets draws in proportion to its share of the family (supports times
    nonzero coefficient choices), so only the members drawn depend on
    the seed, not the cost mix.
    """
    strata = {}
    for p in (2, 3):
        for k in range(1, 6):
            for supp in itertools.combinations(MONOS, k):
                key = (p, k, max(max(e) for e in supp),
                       tuple(sorted({e[1] for e in supp})))
                strata.setdefault(key, []).append(supp)
    quota = _allocate({key: len(v) * (key[0] - 1) ** key[1]
                       for key, v in strata.items()}, MONICIZE_DRAWS)
    rng = random.Random(seed)
    specs = []
    for key in sorted(strata):
        p = key[0]
        for _ in range(quota[key]):
            supp = rng.choice(strata[key])
            f = tuple((e, rng.randrange(1, p)) for e in supp)
            specs.extend((p, f, phi) for phi in (0, 1))
    rng.shuffle(specs)
    return specs


class Monicize:
    name = "monicize"
    op_limit_s = 5.0

    def __init__(self, seed):
        self.specs = monicize_inputs(seed)

    def setup(self):
        sw = _symwitt()
        poly = sw.polytools
        rings = {p: sw.ModularRing(p) for p in (2, 3)}
        phis = {p: [poly.MultiPoly.parse(rings[p], 2, t) for t in PHI_TEXT]
                for p in (2, 3)}

        def transform(f, phi):
            sub, c, h = poly.nagata_transform(f, phi)
            back = sub.inverse().apply(h.scale(c))
            return sub, c, h, back

        return [lambda f=poly.MultiPoly.make(rings[p], 2, dict(fd)),
                phi=phis[p][k]: transform(f, phi)
                for p, fd, k in self.specs]

    @staticmethod
    def post(i, raw):
        sub, c, h, back = raw
        return (sub.exponents, sub.negate, c, h.terms, back.terms)

    def check(self, results):
        problems, cache = [], {}
        for (p, f, k), res in zip(self.specs, results):
            if res is None:  # failed operation, counted apart
                continue
            exponents, negate, c, h, back = res
            if negate or len(exponents) != 1:
                problems.append(f"unexpected substitution {exponents} negate={negate}")
                continue
            problems += oracles.check_monicization(
                p, dict(f), PHIS[k], exponents[0], c, dict(h), dict(back), cache)
        return problems


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

# (label, ring, ideal generator, assert confirmed, conjugation depth or None
# for the command's default)
ABSOLUTE_CASES = (
    ("f3", "f3", None, True, None),
    ("f4", "f4", None, True, None),
    ("f5", "f5", None, True, None),
    ("Z/4", "zmod:4", None, True, None),
)
# Z/8 (4) is reported inconclusive today (2 bounded symbol classes against
# 1 row class); its verdict is recorded, not asserted.
RELATIVE_CASES = (
    ("Z/4 (2)", "zmod:4", 2, True, None),
    ("Z/8 (4)", "zmod:8", 4, False, 1),
)


class Reports:
    op_limit_s = 40.0

    def __init__(self, seed):
        self.specs = list(self.cases)
        random.Random(seed).shuffle(self.specs)

    def setup(self):
        sw = _symwitt()
        cli = sw.cli
        original = sw.orbits.vaserstein_report
        captured = []

        def capture(*args, **kwargs):
            # look the function up at call time so a traced wrapper is seen
            report = sw.orbits.vaserstein_report(*args, **kwargs)
            captured.append(report)
            return report

        if cli.vaserstein_report is not original:
            raise RuntimeError("symwitt.cli no longer calls orbits.vaserstein_report")
        cli.vaserstein_report = capture

        def report(argv):
            captured.clear()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            if rc != 0:
                raise OpFailed(f"{' '.join(argv)} exited {rc}")
            return buf.getvalue(), captured[-1]

        ops = []
        for label, spec, gen, _, depth in self.specs:
            argv = ["report", "vaserstein", "--ring", spec]
            if gen is not None:
                argv += ["--ideal", str(gen)]
            if depth is not None:
                argv += ["--conj-depth", str(depth)]
            ops.append(lambda argv=argv: report(argv))
        return ops

    @staticmethod
    def post(i, raw):
        text, rep = raw
        return (text, rep.rows.orbit_sizes(), len(rep.classes.base.objects),
                rep.classes.base.orbit_sizes())

    def check(self, results):
        import jsonschema
        schema = json.loads(REPORT_SCHEMA.read_text())
        validator = jsonschema.Draft202012Validator(schema)
        problems = []
        for (label, spec, gen, confirm, _), res in zip(self.specs, results):
            if res is None:
                continue
            text, row_sizes, universe, universe_sizes = res
            obj = json.loads(text)
            problems += oracles.check_report((label, spec, gen, confirm), obj,
                                             (row_sizes, universe, universe_sizes),
                                             validator)
        return problems

    def verdicts(self, results):
        return {spec[0]: json.loads(res[0])["verdict"]
                for spec, res in zip(self.specs, results) if res is not None}


class ReportsAbsolute(Reports):
    name = "reports-absolute"
    cases = ABSOLUTE_CASES


class ReportsRelative(Reports):
    name = "reports-relative"
    op_limit_s = 90.0
    cases = RELATIVE_CASES


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

# (ring, ideal generator, row products per round)
VDK_RINGS = (("f3", None, 10), ("f4", None, 20), ("zmod:4", 2, 10))
CERT_RINGS = (("f2", None), ("zmod:4", 2))
NICE_CHECKS = 15


def queries_inputs(seed):
    """Row products on random row pairs, nice-multiplication checks on
    random unit pairs and tails, and one certificate question per row:
    is the symbol of this row equivalent to the symbol of e1?

    The certificate questions cover every row of f2 and Z/4 (2) in every
    round (only their order depends on the seed): their cost grows
    steeply with path length (about 3 ms at length 0 to 5 s at length 4),
    so a random pair draw would make a run's cost a matter of how many
    long paths the seed picked.
    """
    rng = random.Random(seed)
    specs = []
    for spec, gen, count in VDK_RINGS:
        ar = oracles.Arith(spec)
        rows = oracles.unimodular_rows(ar, oracles.ideal_codes(ar, gen))
        for _ in range(count):
            specs.append(("vdk", spec, gen, rng.choice(rows), rng.choice(rows)))
    ar = oracles.Arith("f4")
    for _ in range(NICE_CHECKS):
        specs.append(("nice", "f4", None, (rng.choice(ar.units), rng.choice(ar.units)),
                      (rng.choice(ar.elements), rng.choice(ar.elements))))
    for spec, gen in CERT_RINGS:
        ar = oracles.Arith(spec)
        for row in oracles.unimodular_rows(ar, oracles.ideal_codes(ar, gen)):
            specs.append(("cert", spec, gen, row, (1, 0, 0)))
    rng.shuffle(specs)
    return specs


def _decode_token(ar, tok):
    kind = type(tok).__name__
    if kind == "Elem":
        return ("e", tok.i, tok.j, ar.code(tok.a))
    if kind == "Conj":
        return ("c", tuple(_decode_token(ar, e) for e in tok.conjugator),
                _decode_token(ar, tok.core))
    if kind == "Inv":
        return ("inv", _decode_token(ar, tok.token))
    raise ValueError(f"unknown token type {kind}")


class Queries:
    name = "queries"
    op_limit_s = 30.0

    def __init__(self, seed):
        self.specs = queries_inputs(seed)
        self.arith = {spec: oracles.Arith(spec) for spec in ("f2", "f3", "f4", "zmod:4")}

    def setup(self):
        sw = _symwitt()
        orbits, umrows = sw.orbits, sw.umrows
        rings = {spec: sw.parse_ring(spec) for spec in self.arith}

        def certify(u, v):
            x, y = umrows.vaserstein_symbol(u), umrows.vaserstein_symbol(v)
            return x, y, orbits.find_equivalence_certificate(x, y)

        ops = []
        for kind, spec, gen, a, b in self.specs:
            ring, ar = rings[spec], self.arith[spec]
            enc = lambda codes, ar=ar: tuple(ar.payload(x) for x in codes)
            if kind == "nice":
                ops.append(lambda a=enc(a), t=enc(b), ring=ring:
                           orbits.nice_mult_check(a[0], a[1], t, ring))
                continue
            if gen is not None:
                ideal = sw.Ideal(ring, (ring.parse(str(gen)),))
            else:
                ideal = sw.unit_ideal(ring) if kind == "cert" else None
            u = umrows.um_row(ring, enc(a), ideal)
            v = umrows.um_row(ring, enc(b), ideal)
            if kind == "vdk":
                ops.append(lambda u=u, v=v: orbits.vdk_product_aligned(u, v))
            else:
                ops.append(lambda u=u, v=v: certify(u, v))
        return ops

    def post(self, i, raw):
        kind, spec = self.specs[i][:2]
        ar = self.arith[spec]
        if kind == "nice":
            return raw
        if kind == "cert":
            x, y, cert = raw
            xs = tuple(ar.code(e) for e in x.rep.entries)
            ys = tuple(ar.code(e) for e in y.rep.entries)
            if cert is None:
                return (xs, ys, None)
            return (xs, ys, (cert.t, cert.epsilon.size,
                             tuple(_decode_token(ar, t) for t in cert.epsilon.tokens)))
        return tuple(ar.code(e) for e in raw.entries)

    def check(self, results):
        problems = []
        for (kind, spec, gen, _, _), res in zip(self.specs, results):
            if res is None:
                continue
            ar = self.arith[spec]
            ideal = oracles.ideal_codes(ar, gen)
            if kind == "vdk":
                problems += oracles.check_row_product(ar, ideal, res)
            elif kind == "nice":
                # Um_3(F)/E_3(F) is one point over a field, so the product
                # rule holds for every pair
                if res is not True:
                    problems.append(f"nice_mult_check over {spec} returned {res}")
            else:
                xs, ys, cert = res
                if cert is None:
                    problems.append(f"no certificate over {spec}")
                    continue
                t, size, tokens = cert
                problems += [f"{spec}: {p}" for p in oracles.check_certificate(
                    ar, ideal, xs, ys, t, size, tokens)]
        return problems


WORKLOADS = {w.name: w for w in (Monicize, ReportsAbsolute, ReportsRelative, Queries)}
