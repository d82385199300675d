"""Acceptance gate: nine go/no-go checks with fixed time budgets.

Each criterion is wrapped so the terminal summary carries one PASS/FAIL
line per criterion.  Payloads from criteria 1-8 are serialized; the
ninth criterion reruns everything with the same seed and requires
byte-identical output.
"""

import itertools
import random
import time

import pytest

from conftest import ACCEPTANCE_LINES, Z, f4, ideal_of, rand_alternating, rand_element, rand_word, zmod
from symwitt import (
    CONFIRMED,
    INCONCLUSIVE,
    DoubleRing,
    MultiPoly,
    NonInvertibleIndex,
    RingMatrix,
    canonical_json,
    chi_n,
    determinant,
    double_to_excision,
    excision_to_double,
    make_witt_symbol,
    map_i,
    map_p1,
    nagata_transform,
    nice_mult_check,
    orth_sum,
    parse_ring,
    pf_unit,
    pfaffian,
    ring_to_spec,
    split_section,
    theta_independence_cert,
    theta_matrix,
    um_orbit_partition,
    um_row,
    unipotent_root,
    unit_ideal,
    vaserstein_report,
    vdk_product_aligned,
    witt_classes_bounded,
    witt_universe,
    word_eval,
    word_inverse,
)

SEED = 20260814
REPORTS = {}


def _gate(k, name, budget, fn):
    t0 = time.perf_counter()
    status = "FAIL"
    try:
        payload = fn(SEED)
        elapsed = time.perf_counter() - t0
        # recorded before the budget check: an overrun fails this criterion
        # only, not the rerun comparison of criterion 9
        REPORTS[k] = canonical_json(payload)
        if budget is not None:
            assert elapsed < budget, (
                f"criterion {k} took {elapsed:.1f}s, budget {budget:.0f}s")
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - t0
        extra = f"{elapsed:.1f}s" + (f" / {budget:.0f}s budget" if budget else "")
        ACCEPTANCE_LINES.append(f"criterion {k} ({name}): {status} [{extra}]")
    return payload


# -- criterion 1 -------------------------------------------------------------

def _crit_pfaffian(seed):
    rng = random.Random(seed)
    rings = [zmod(3), zmod(4), f4()]
    for ring in [Z] + rings:
        for n in range(1, 5):
            assert pfaffian(chi_n(ring, n)) == ring.one

    pf_trace = []
    for _ in range(200):
        ring = rings[rng.randrange(3)]
        a = rand_alternating(rng, ring, rng.choice((2, 4, 6)))
        b = rand_alternating(rng, ring, rng.choice((2, 4, 6)))
        pa, pb = pfaffian(a), pfaffian(b)
        assert pfaffian(orth_sum(a, b)) == ring.mul(pa, pb)
        assert determinant(a) == ring.mul(pa, pa)
        assert determinant(b) == ring.mul(pb, pb)
        pf_trace.append(ring.fmt(ring.mul(pa, pb)))

    word_trace = []
    for _ in range(200):
        ring = rings[rng.randrange(3)]
        size = rng.choice((2, 4, 6))
        a = rand_alternating(rng, ring, size)
        eps = word_eval(rand_word(rng, ring, size, length=5))
        assert pfaffian(a.congruent_by(eps)) == pfaffian(a)
        word_trace.append(ring.fmt(pfaffian(a)))
    return {"chi": 4, "pairs": pf_trace, "words": word_trace}


def test_criterion_1_pfaffian_suite():
    _gate(1, "pfaffian suite", 10, _crit_pfaffian)


# -- criterion 2 -------------------------------------------------------------

def _crit_theta(seed):
    out = []
    for ring in (zmod(2), zmod(3)):
        els = ring.elements()
        triples = list(itertools.product(els, repeat=3))
        for a in triples:
            for b in triples:
                assert pfaffian(theta_matrix(ring, a, b)) == ring.dot(a, b)

        certs = 0
        for b in triples:
            comps = [a for a in triples if ring.dot(a, b) == ring.one]
            brow = um_row(ring, b) if comps else None
            for a in comps:
                arow = um_row(ring, a)
                ta = theta_matrix(ring, a, b)
                for c in comps:
                    word = theta_independence_cert(arow, um_row(ring, c), brow)
                    eps = word_eval(word)
                    assert theta_matrix(ring, c, b) == ta.congruent_by(eps)
                    certs += 1
        out.append({"ring": ring_to_spec(ring), "pairs": len(triples) ** 2,
                    "certs": certs})
    assert out[0]["certs"] == 7 * 16
    assert out[1]["certs"] == 26 * 81
    return {"suites": out}


def test_criterion_2_theta_suite():
    _gate(2, "theta identities", 60, _crit_theta)


# -- criterion 3 -------------------------------------------------------------

def _crit_excision_double(seed):
    rng = random.Random(seed)
    doubles = []
    checked = []
    for n in range(2, 9):
        base = zmod(n)
        for d in (d for d in range(1, n + 1) if n % d == 0):
            dbl = DoubleRing(base, ideal_of(base, d % n))
            exc, _ = double_to_excision(dbl, dbl.one)
            els = dbl.elements()
            images = set()
            for x in els:
                _, fx = double_to_excision(dbl, x)
                images.add(fx)
                back_ring, back = excision_to_double(exc, fx)
                assert back_ring == dbl and back == x
            assert len(images) == len(els)
            assert double_to_excision(dbl, dbl.one)[1] == exc.one
            for x in els:
                _, fx = double_to_excision(dbl, x)
                for y in els:
                    _, fy = double_to_excision(dbl, y)
                    assert double_to_excision(dbl, dbl.add(x, y))[1] == exc.add(fx, fy)
                    assert double_to_excision(dbl, dbl.mul(x, y))[1] == exc.mul(fx, fy)
            doubles.append((dbl, exc))
            checked.append({"n": n, "d": d, "size": dbl.size})

    for size in (2, 3):
        for _ in range(100):
            dbl, exc = doubles[rng.randrange(len(doubles))]
            m = RingMatrix(dbl, size, size,
                           tuple(rand_element(rng, dbl) for _ in range(size * size)))
            h = RingMatrix(exc, size, size,
                           tuple(double_to_excision(dbl, x)[1] for x in m.entries))
            g = RingMatrix(dbl, size, size,
                           tuple(excision_to_double(exc, x)[1] for x in h.entries))
            assert g == m
    return {"rings": checked, "matrices": 200}


def test_criterion_3_excision_double_suite():
    _gate(3, "excision/double isomorphism", 30, _crit_excision_double)


# -- criterion 4 -------------------------------------------------------------

def _crit_roots(seed):
    rng = random.Random(seed)
    cases = [(zmod(9), (2, 4)), (zmod(25), (2, 3, 4)), (zmod(5), (2, 3, 4))]
    trace = []
    for k in range(50):
        ring, ms = cases[k % 3]
        size = rng.choice((2, 3, 4))
        m = ms[rng.randrange(len(ms))]
        rows = [[ring.zero] * size for _ in range(size)]
        for i in range(size):
            rows[i][i] = ring.one
            for j in range(i + 1, size):
                rows[i][j] = rand_element(rng, ring)
        gamma = RingMatrix.from_rows(ring, rows)
        w = rand_word(rng, ring, size, length=3)
        g, ginv = word_eval(w), word_eval(word_inverse(w))
        gamma = ginv.mul(gamma).mul(g)
        delta = unipotent_root(gamma, m)
        power = delta
        for _ in range(m - 1):
            power = power.mul(delta)
        assert power == gamma
        trace.append([ring.fmt(x) for x in delta.entries])

    with pytest.raises(NonInvertibleIndex):
        unipotent_root(RingMatrix.from_rows(zmod(4), [[1, 2], [0, 1]]), 2)
    return {"roots": trace, "non_invertible_raised": True}


def test_criterion_4_unipotent_roots():
    _gate(4, "unipotent roots", 10, _crit_roots)


# -- criterion 5 -------------------------------------------------------------

def _crit_nagata(seed):
    monos = [(i, j) for i in range(4) for j in range(4 - i)]
    counts = {}
    for ring in (zmod(2), zmod(3)):
        nz = [x for x in ring.elements() if x != ring.zero]
        phis = [MultiPoly.gen(ring, 2, 1), MultiPoly.parse(ring, 2, "X1^2+X1+1")]
        # substitution invertibility on the generators, once per phi
        x1, x2 = MultiPoly.gen(ring, 2, 1), MultiPoly.gen(ring, 2, 2)
        total = 0
        for k in range(1, 6):
            for combo in itertools.combinations(monos, k):
                for coeffs in itertools.product(nz, repeat=k):
                    f = MultiPoly.make(ring, 2, dict(zip(combo, coeffs)))
                    for phi in phis:
                        sub, c, h = nagata_transform(f, phi)
                        w = h.degree_in(1)
                        lead = h.coeff_in(1, w)
                        assert lead.total_degree() <= 0
                        assert lead.constant() == ring.one
                        assert ring.is_unit(c)
                        inv = sub.inverse()
                        assert inv.apply(h.scale(c)) == f
                        if total < 4:
                            assert inv.apply(sub.apply(x1)) == x1
                            assert inv.apply(sub.apply(x2)) == x2
                        total += 1
        counts[f"zmod:{ring.size}"] = total
    assert counts["zmod:2"] == 637 * 2
    assert counts["zmod:3"] == 12584 * 2
    return {"transforms": counts}


def test_criterion_5_nagata_suite():
    _gate(5, "monicization sweep", 30, _crit_nagata)


# -- criterion 6 -------------------------------------------------------------

def _crit_exact_sequence(seed):
    base = zmod(8)
    ideal = ideal_of(base, 2)
    valid = [a for a in base.elements()
             if ideal.contains(base.sub(a, base.one))]
    assert [base.fmt(a) for a in valid] == ["1", "3", "5", "7"]
    for a in valid:
        assert pf_unit(split_section(a, ideal)) == a

    sizes = {}
    for ring in (zmod(2), zmod(3)):
        triv_ideal = unit_ideal(ring)
        fam = witt_classes_bounded(ring, triv_ideal, 4, levels=1)
        trivial = fam.class_of(chi_n(ring, 2).entries)
        universe = witt_universe(ring, triv_ideal, 4)
        for m in universe:
            sym = make_witt_symbol(triv_ideal, m)
            image = map_p1(map_i(sym))
            assert fam.class_of(image.entries) == trivial
        sizes[f"zmod:{ring.size}"] = len(universe)
    return {"sections": len(valid), "universes": sizes}


def test_criterion_6_exact_sequence_spot_checks():
    _gate(6, "exact-sequence spot checks", 300, _crit_exact_sequence)


# -- criterion 7 -------------------------------------------------------------

def _crit_bijectivity(seed):
    cases = [(parse_ring("f2"), None), (parse_ring("f3"), None),
             (f4(), None), (zmod(4), None), (zmod(4), 2)]
    reports = []
    for ring, gen in cases:
        ideal = None if gen is None else ideal_of(ring, gen)
        report = vaserstein_report(ring, ideal, levels=1, depth=2)
        assert report.verdict != "refuted", "refuted verdict fails the build"
        obj = report.to_obj()
        if report.verdict == INCONCLUSIVE:
            assert (obj["mse"]["saturated"] is False
                    or obj["witt"]["saturated"] is False), \
                "inconclusive requires saturation=false on record"
        else:
            assert report.verdict == CONFIRMED
        reports.append(obj)
    assert all(r["verdict"] == CONFIRMED for r in reports)
    return {"reports": reports}


def test_criterion_7_bijectivity_reports():
    _gate(7, "row/symbol bijectivity", 900, _crit_bijectivity)


# -- criterion 8 -------------------------------------------------------------

def _crit_vdk(seed):
    out = {}
    for ring in (parse_ring("f2"), parse_ring("f3"), f4()):
        part = um_orbit_partition(ring, 3)
        e1 = (ring.one, ring.zero, ring.zero)
        row = lambda entries: um_row(ring, entries)
        cid = lambda entries: part.id_of(entries)

        for u in part.reps:
            assert cid(vdk_product_aligned(row(u), row(e1)).entries) == cid(u)
            assert cid(vdk_product_aligned(row(e1), row(u)).entries) == cid(u)

        for u, v, w in itertools.product(part.reps, repeat=3):
            uv_w = vdk_product_aligned(vdk_product_aligned(row(u), row(v)), row(w))
            u_vw = vdk_product_aligned(row(u), vdk_product_aligned(row(v), row(w)))
            assert cid(uv_w.entries) == cid(u_vw.entries)

        for u in part.reps:
            assert any(
                cid(vdk_product_aligned(row(u), row(v)).entries) == cid(e1)
                for v in part.objects)

        units = [x for x in ring.elements() if ring.is_unit(x)]
        nice = 0
        for a, b in itertools.product(units, repeat=2):
            for tail in itertools.product(ring.elements(), repeat=2):
                assert nice_mult_check(a, b, tail, ring)
                nice += 1
        out[f"order-{ring.size}"] = {"orbits": part.norbits, "nice": nice}
    assert [v["nice"] for v in out.values()] == [4, 36, 144]
    return {"fields": out}


def test_criterion_8_vdk_group_law():
    _gate(8, "van der Kallen group law", 300, _crit_vdk)


# -- criterion 9 -------------------------------------------------------------

def _crit_determinism(seed):
    crits = [(1, _crit_pfaffian), (2, _crit_theta), (3, _crit_excision_double),
             (4, _crit_roots), (5, _crit_nagata), (6, _crit_exact_sequence),
             (7, _crit_bijectivity), (8, _crit_vdk)]
    for k, fn in crits:
        # a criterion that has not run in this session (run alone, or
        # deselected) gets its first run here
        first = REPORTS[k] if k in REPORTS else canonical_json(fn(seed))
        assert canonical_json(fn(seed)) == first, \
            f"criterion {k} rerun is not byte-identical"
    return {"reruns": [k for k, _ in crits], "identical": True}


def test_criterion_9_determinism():
    _gate(9, "byte-identical reruns", None, _crit_determinism)
