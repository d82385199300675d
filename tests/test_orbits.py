"""Orbit engine: enumeration, BFS partitions, bounded Witt classes,
certificate search, and the bijectivity report."""

import itertools
import random

import pytest

from conftest import Z, f4, ideal_of, zmod
from symwitt import (
    BoundExceeded,
    Ideal,
    MalformedSpec,
    RingMatrix,
    VerificationFailed,
    alt_orbit_partition,
    chi_n,
    complete,
    elementary_generators,
    enumerate_um,
    find_equivalence_certificate,
    make_witt_symbol,
    nice_mult_check,
    orbit_bfs,
    pfaffian,
    standard_form_witness,
    um_orbit_partition,
    um_row,
    unit_ideal,
    vaserstein_report,
    vdk_product,
    vdk_product_aligned,
    verify_equivalence,
    witt_classes_bounded,
    witt_universe,
)
from symwitt.orbits import (
    ACTION_CONGRUENCE,
    ACTION_ROW,
    CONFIRMED,
    INCONCLUSIVE,
    _additive_span,
    _partition,
)

F2 = zmod(2)
F3 = zmod(3)
M4 = zmod(4)
I24 = ideal_of(M4, 2)


def test_enumerate_um_counts():
    assert len(enumerate_um(F2, 3)) == 7
    assert len(enumerate_um(M4, 2)) == 12
    assert len(enumerate_um(M4, 3)) == 56
    rel = enumerate_um(M4, 3, I24)
    assert len(rel) == 8
    assert [r.entries for r in rel[:4]] == [(1, 0, 0), (1, 0, 2), (1, 2, 0), (1, 2, 2)]


@pytest.mark.parametrize("ring", [F2, F3, f4()])
def test_field_row_count_matches_completion_oracle(ring):
    rows = enumerate_um(ring, 3)
    assert len(rows) == ring.size ** 3 - 1
    for r in rows:
        b = complete(r)
        assert b is not None and r.dot(b) == ring.one


def test_enumerate_um_memory_cap():
    with pytest.raises(BoundExceeded):
        enumerate_um(zmod(257), 3)


def test_generator_counts():
    assert len(elementary_generators(F2, 3)) == 6
    assert len(elementary_generators(M4, 2, I24, depth=0)) == 2
    # depth-1 conjugates collapse to one extra generator after dedup
    assert len(elementary_generators(M4, 2, I24, depth=1)) == 3
    # unit ideal falls back to the absolute generators
    assert len(elementary_generators(F3, 2, unit_ideal(F3))) == \
        len(elementary_generators(F3, 2))


def test_orbit_bfs_closed_mode():
    gens = elementary_generators(F2, 2)
    with pytest.raises(VerificationFailed):
        orbit_bfs(((1, 0),), ACTION_ROW, gens, closed=True)
    part = orbit_bfs(((1, 0),), ACTION_ROW, gens, closed=False)
    assert part.norbits == 1
    with pytest.raises(MalformedSpec):
        orbit_bfs((), ACTION_ROW, gens)


def test_um_orbit_partitions_single():
    for ring, n in ((F2, 3), (M4, 2), (M4, 3)):
        part = um_orbit_partition(ring, n)
        assert part.norbits == 1 and part.saturated
    rel = um_orbit_partition(M4, 3, I24)
    assert rel.norbits == 1 and rel.saturated


def test_depth_monotone_and_refinement():
    d0 = um_orbit_partition(M4, 2, I24, depth=0)
    d1 = um_orbit_partition(M4, 2, I24, depth=1)
    assert d0.norbits == 2 and d0.ids == (0, 0, 1, 1)
    assert d0.reps == ((1, 0), (3, 0))
    assert d1.norbits == 1
    # deeper generator sets only merge, never split
    for i, j in itertools.combinations(range(len(d0.objects)), 2):
        if d0.ids[i] == d0.ids[j]:
            assert d1.ids[i] == d1.ids[j]
    # and relative orbits refine absolute ones
    absolute = um_orbit_partition(M4, 2)
    for i, j in itertools.combinations(range(len(d1.objects)), 2):
        if d1.ids[i] == d1.ids[j]:
            assert absolute.id_of(d1.objects[i]) == absolute.id_of(d1.objects[j])


def test_rep_idempotence():
    part = um_orbit_partition(M4, 2, I24, depth=0)
    for k, rep in enumerate(part.reps):
        assert part.id_of(rep) == k
    assert part.orbit_sizes() == (2, 2)


def test_translation_fast_path_matches_generic_bfs():
    # I^2 = 0 engages the translation strategy; compare with plain BFS
    rows = enumerate_um(M4, 3, I24)
    states = tuple(r.entries for r in rows)
    gens = elementary_generators(M4, 3, I24, 1)
    fast = um_orbit_partition(M4, 3, I24)
    slow = orbit_bfs(states, ACTION_ROW, gens)
    assert fast.ids == slow.ids
    assert fast.reps == slow.reps
    alt_fast = alt_orbit_partition(M4, I24, 4)
    alt_slow = orbit_bfs(alt_fast.objects, ACTION_CONGRUENCE,
                         elementary_generators(M4, 4, I24, 1))
    assert alt_fast.ids == alt_slow.ids

    # open mode, as the stabilization levels use it: only listed seeds get
    # ids, and a seed subset need not hold whole orbits
    m8, m9 = zmod(8), zmod(9)
    cases = [(ring, ideal, ACTION_CONGRUENCE, 4,
              tuple(m.entries for m in witt_universe(ring, ideal, 4)))
             for ring, ideal in ((M4, I24), (m8, ideal_of(m8, 4)))]
    i39 = ideal_of(m9, 3)
    cases.append((m9, i39, ACTION_ROW, 3,
                  tuple(r.entries for r in enumerate_um(m9, 3, i39))))
    for ring, ideal, action, n, objects in cases:
        gens = elementary_generators(ring, n, ideal, 1)
        for seeds in (objects, objects[::3], objects[1::5]):
            fast = _partition(ring, seeds, gens, action, n, ideal, None,
                              closed=False)
            slow = orbit_bfs(seeds, action, gens, closed=False)
            assert fast.meta["fast_path"] == "translation"
            assert fast.ids == slow.ids
            assert fast.reps == slow.reps
        # closed mode refuses a subset that cuts an orbit
        with pytest.raises(VerificationFailed):
            _partition(ring, objects[::3], gens, action, n, ideal, None)


def _brute_span(n, width, deltas):
    return {tuple(sum(c * d[t] for c, d in zip(coeffs, deltas)) % n
                  for t in range(width))
            for coeffs in itertools.product(range(n), repeat=len(deltas))}


@pytest.mark.parametrize("n, deltas", [
    (8, [(1, 2, 0)]),                       # order 8
    (8, [(2, 4, 6), (4, 0, 4)]),            # orders 4 and 2
    (9, [(3, 6, 0)]),                       # order 3
    (9, [(1, 3, 0), (0, 3, 3)]),            # order 9 plus order 3
    (12, [(4, 8, 0), (3, 0, 9)]),           # orders 3 and 4
    (12, [(4, 0, 0), (6, 6, 0), (0, 0, 0)]),
    (12, []),
])
def test_additive_span_matches_brute_force(n, deltas):
    assert _additive_span(zmod(n), 3, deltas) == _brute_span(n, 3, deltas)


def test_additive_span_random_deltas():
    rng = random.Random(20210205)
    for n in (8, 9, 12):
        for _ in range(30):
            deltas = [tuple(rng.randrange(n) for _ in range(3))
                      for _ in range(rng.randint(1, 3))]
            assert _additive_span(zmod(n), 3, deltas) == _brute_span(n, 3, deltas)


def test_witt_universe_counts():
    assert len(witt_universe(F2, unit_ideal(F2), 4)) == 28
    assert len(witt_universe(F3, unit_ideal(F3), 4)) == 234
    assert len(witt_universe(M4, unit_ideal(M4), 4)) == 896
    assert len(witt_universe(M4, I24, 4)) == 32


def test_witt_universe_members_are_symbols():
    ideal = I24
    for m in witt_universe(M4, ideal, 4):
        assert m.is_alternating()
        assert pfaffian(m) == M4.one
        assert standard_form_witness(m, ideal) is not None


def test_witt_classes_single():
    fam = witt_classes_bounded(F2, None, 4, levels=1)
    assert fam.class_count == 1
    assert fam.saturated
    assert fam.merge_log == ({"t": 1, "skipped": "single class"},)
    rel = witt_classes_bounded(M4, I24, 4, levels=1)
    assert rel.class_count == 1 and rel.saturated
    assert rel.base.norbits == 1
    state = rel.base.objects[5]
    assert rel.class_of(state) == 0


def test_find_certificate_trivial_and_nontrivial():
    u = unit_ideal(F2)
    x = make_witt_symbol(u, chi_n(F2, 1))
    same = find_equivalence_certificate(x, x, levels=0)
    assert same is not None and same.epsilon.tokens == ()
    y = make_witt_symbol(u, RingMatrix.from_rows(
        F2, [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]))
    cert = find_equivalence_certificate(x, y, levels=1, bound=30000)
    assert cert is not None
    assert cert.t == 0 and len(cert.epsilon.tokens) == 3
    assert verify_equivalence(x, y, cert)


def test_find_certificate_none_on_pfaffian_mismatch():
    x = make_witt_symbol(I24, chi_n(M4, 1))
    y = make_witt_symbol(I24, RingMatrix.from_rows(M4, [[0, 3], [1, 0]]))
    assert find_equivalence_certificate(x, y, levels=0, bound=5000) is None


def test_vdk_product_aligned():
    u = um_row(F3, (2, 1, 0))
    v = um_row(F3, (1, 2, 0))
    aligned = vdk_product_aligned(u, v)
    assert aligned.entries == (2, 0, 1)
    assert complete(aligned) is not None
    w = um_row(F3, (2, 0, 1))
    same_tail = um_row(F3, (1, 0, 1))
    assert vdk_product_aligned(w, same_tail).entries == \
        vdk_product(w, same_tail).entries


def test_nice_mult_check():
    assert nice_mult_check(1, 2, (1, 0), F3)
    ringf4 = f4()
    units = [x for x in ringf4.elements() if ringf4.is_unit(x)]
    for a, b in itertools.product(units[:2], units):
        assert nice_mult_check(a, b, (ringf4.zero, ringf4.zero), ringf4)
    assert nice_mult_check(3, 3, (2, 0), M4)
    assert nice_mult_check(3, 3, (0, 2), M4, I24)


def test_vaserstein_report_confirmed():
    rep = vaserstein_report(F3)
    assert rep.verdict == CONFIRMED
    assert rep.rows.norbits == 1
    assert rep.classes.class_count == 1
    assert rep.claims["injective"] == CONFIRMED
    assert rep.claims["surjective"] == CONFIRMED
    rel = vaserstein_report(M4, I24)
    assert rel.verdict == CONFIRMED
    assert rel.counterexample is None
    obj = rel.to_obj()
    assert obj["verdict"] == CONFIRMED
    assert obj["mse"]["count"] == 1


def test_vaserstein_report_inconclusive_when_capped():
    rep = vaserstein_report(F3, bound=2)
    assert rep.verdict == INCONCLUSIVE
    assert rep.notes
