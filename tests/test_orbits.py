"""Orbit engine: enumeration, BFS partitions, bounded Witt classes,
certificate search, and the bijectivity report."""

import functools
import itertools
import math
import random
from collections import deque

import pytest

from conftest import Z, f4, ideal_of, zmod
from symwitt import (
    BoundExceeded,
    Conj,
    Elem,
    Generator,
    GroupWord,
    Ideal,
    InfiniteRing,
    MalformedSpec,
    NotCompleted,
    NotRelative,
    RingMatrix,
    RingMismatch,
    SizeMismatch,
    VerificationFailed,
    WittSymbol,
    alt_orbit_partition,
    chi_n,
    complete,
    congruent_mod_ideal,
    elementary_generators,
    enumerate_um,
    find_equivalence_certificate,
    make_witt_symbol,
    nice_mult_check,
    orbit_bfs,
    orth_sum,
    parse_ring,
    pfaffian,
    relative_level,
    standard_form_witness,
    token_matrix,
    um_orbit_partition,
    um_row,
    unit_ideal,
    vaserstein_report,
    vaserstein_symbol,
    vdk_product,
    vdk_product_aligned,
    verify_equivalence,
    witt_classes_bounded,
    witt_universe,
    word_eval,
)
from symwitt.orbits import (
    ACTION_CONGRUENCE,
    ACTION_ROW,
    CONFIRMED,
    INCONCLUSIVE,
    MEMORY_CAP,
    OrbitPartition,
    _EchelonSpan,
    _bfs,
    _compile_moves,
    _decode,
    _encode,
    _partition,
    _path,
    _row_pool,
    _search_moves,
    _size,
    _step,
    _symbol_states,
    _unimodular_states,
    _universe_states,
    _upper,
    _vec_add,
)
from symwitt.matrices import _pf_expand
from symwitt.rings import ModularRing, additive_span
from symwitt.umrows import _finite_complete

F2 = zmod(2)
F3 = zmod(3)
M4 = zmod(4)
I24 = ideal_of(M4, 2)


def _states(ring, action, objects):
    """Payload tuples (rows, or n x n matrices) as the table states every
    partition function takes."""
    tables = ring.compile()
    size = len if action == ACTION_ROW else lambda o: math.isqrt(len(o))
    return tuple(_encode(tables, action, size(o), o) for o in objects)


def test_enumerate_um_counts():
    assert len(enumerate_um(F2, 3)) == 7
    assert len(enumerate_um(M4, 2)) == 12
    assert len(enumerate_um(M4, 3)) == 56
    rel = enumerate_um(M4, 3, I24)
    assert len(rel) == 8
    assert [r.entries for r in rel[:4]] == [(1, 0, 0), (1, 0, 2), (1, 2, 0), (1, 2, 2)]



@pytest.mark.parametrize("n, side", [(2, 2048), (3, 161)])
def test_row_pool_refuses_without_enumerating_the_ring(n, side):
    # side^n rows fit under the cap and (side + 1)^n do not, so the absolute
    # pool draws side + 1 elements and refuses; it never lists all of Z/p
    ring = ModularRing(50000017)
    drawn = []

    def counting():
        for x in range(ring.n):
            drawn.append(x)
            yield x

    ring._iter_elements = counting
    assert side ** n <= MEMORY_CAP < (side + 1) ** n
    with pytest.raises(BoundExceeded, match=rf"at least {side + 1}\^{n} rows"):
        enumerate_um(ring, n)
    assert len(drawn) == side + 1
    assert ring._elements is None

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
    # n = 2: e_12(2), e_21(2) and one conjugate; n >= 3: the z_ij(x, a)
    # after dedup
    for n, gen, size, count in ((4, 2, 2, 3), (4, 2, 3, 9), (8, 4, 3, 9),
                                (8, 2, 3, 45), (9, 3, 3, 24), (8, 4, 4, 18)):
        ring = zmod(n)
        assert len(elementary_generators(ring, size, ideal_of(ring, gen))) == count
    # unit ideal falls back to the absolute generators
    assert len(elementary_generators(F3, 2, unit_ideal(F3))) == \
        len(elementary_generators(F3, 2))


def test_orbit_bfs_refuses_a_step_off_the_object_set():
    gens = elementary_generators(F2, 2)
    seed = _states(F2, ACTION_ROW, ((1, 0),))
    with pytest.raises(VerificationFailed, match="orbit step left the object set"):
        orbit_bfs(F2, seed, ACTION_ROW, gens)
    with pytest.raises(MalformedSpec):
        orbit_bfs(F2, (), ACTION_ROW, gens)


def test_orbit_bfs_empty_generators_is_the_trivial_group():
    rows = ((1, 0), (0, 1), (1, 1))
    part = orbit_bfs(F2, _states(F2, ACTION_ROW, rows), ACTION_ROW, ())
    assert part.ids == (0, 1, 2) and part.reps == rows
    assert part.meta["generators"] == 0
    mats = tuple(m.entries for m in witt_universe(F2, unit_ideal(F2), 4))
    assert len(mats) > 1
    part = orbit_bfs(F2, _states(F2, ACTION_CONGRUENCE, mats), ACTION_CONGRUENCE, ())
    assert part.ids == tuple(range(len(mats))) and part.reps == mats


def test_congruence_states_of_no_triangle_width_are_refused():
    # a 4 x 4 payload over Z/2 has 16 entries that are also element
    # indices, one more than the 15 of a 6 x 6 upper triangle
    mats = tuple(m.entries for m in witt_universe(F2, unit_ideal(F2), 4))
    for call in (lambda: orbit_bfs(F2, mats, ACTION_CONGRUENCE, ()),
                 lambda: _partition(F2, mats, ACTION_CONGRUENCE, 4, None)):
        with pytest.raises(SizeMismatch, match="state of 16 entries is no upper triangle"):
            call()
    assert [_size(ACTION_CONGRUENCE, ((0,) * w,)) for w in (1, 6, 15)] == [2, 4, 6]


def test_um_orbit_partitions_single():
    for ring, n in ((F2, 3), (M4, 2), (M4, 3)):
        part = um_orbit_partition(ring, n)
        assert part.norbits == 1
    rel = um_orbit_partition(M4, 3, I24)
    assert rel.norbits == 1


def _assert_refines(fine, coarse):
    for i, j in itertools.combinations(range(len(fine.objects)), 2):
        if fine.ids[i] == fine.ids[j]:
            assert coarse.id_of(fine.objects[i]) == coarse.id_of(fine.objects[j])


def test_relative_orbits_refine_absolute():
    m8 = zmod(8)
    for ring, ideal, n in ((M4, I24, 2), (M4, I24, 3), (m8, ideal_of(m8, 2), 3)):
        _assert_refines(um_orbit_partition(ring, n, ideal),
                        um_orbit_partition(ring, n))
    _assert_refines(alt_orbit_partition(M4, I24, 4),
                    alt_orbit_partition(M4, None, 4))


def test_depth_is_recorded_only():
    # the generator sets are exact: a report only records its depth
    objs = [vaserstein_report(M4, I24, depth=d).to_obj() for d in (0, 1, 2)]
    assert [(o.pop("depth"), o["witt"].pop("depth")) for o in objs] == \
        [(0, 0), (1, 1), (2, 2)]
    assert objs[0] == objs[1] == objs[2]
    with pytest.raises(MalformedSpec, match="conjugation depth must be >= 0, got -1"):
        vaserstein_report(M4, I24, depth=-1)


def test_rep_idempotence():
    m8 = zmod(8)
    part = alt_orbit_partition(m8, ideal_of(m8, 4), 4)
    for k, rep in enumerate(part.reps):
        assert part.id_of(rep) == k
    assert part.orbit_sizes() == (32, 32)


def test_translation_fast_path_matches_generic_bfs():
    # I^2 = 0 engages the translation strategy; compare with plain BFS
    rows = _states(M4, ACTION_ROW, (r.entries for r in enumerate_um(M4, 3, I24)))
    gens = elementary_generators(M4, 3, I24)
    fast = um_orbit_partition(M4, 3, I24)
    slow = orbit_bfs(M4, rows, ACTION_ROW, gens)
    assert fast.ids == slow.ids
    assert fast.reps == slow.reps
    alt_fast = alt_orbit_partition(M4, I24, 4)
    alt_slow = orbit_bfs(M4, alt_fast.states, ACTION_CONGRUENCE,
                         elementary_generators(M4, 4, I24))
    assert alt_fast.ids == alt_slow.ids

    m8, m9 = zmod(8), zmod(9)
    cases = [(ring, ideal, ACTION_CONGRUENCE, 4, tuple(_universe_states(ring, ideal, 4)))
             for ring, ideal in ((M4, I24), (m8, ideal_of(m8, 4)))]
    i39 = ideal_of(m9, 3)
    cases.append((m9, i39, ACTION_ROW, 3,
                  _states(m9, ACTION_ROW, (r.entries for r in enumerate_um(m9, 3, i39)))))
    for ring, ideal, action, n, objects in cases:
        fast = _partition(ring, objects, action, n, ideal)
        slow = orbit_bfs(ring, objects, action, elementary_generators(ring, n, ideal))
        assert fast.meta["fast_path"] == "translation"
        assert (fast.ids, fast.reps) == (slow.ids, slow.reps)
        # a subset that cuts an orbit is refused
        with pytest.raises(VerificationFailed, match="translation left the object set"):
            _partition(ring, objects[::3], action, n, ideal)


def _depth_k_generators(ring, n, ideal, depth):
    """Reference: g e_ij(x) g^-1 for x in I and g a product of at most
    `depth` absolute transvections, deduplicated by matrix.  This is the
    conjugation-depth builder the exact generating sets replaced."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    cores = [Elem(i, j, x) for i, j in pairs for x in ideal.members()
             if x != ring.zero]
    steps = [(Elem(i, j, a), token_matrix(ring, n, Elem(i, j, a)),
              token_matrix(ring, n, Elem(i, j, ring.neg(a))))
             for i, j in pairs for a in ring.elements() if a != ring.zero]
    ident = RingMatrix.identity(ring, n)
    layer = prefixes = [((), ident, ident)]
    for _ in range(depth):
        layer = [(w + (t,), g.mul(m), mi.mul(gi))
                 for w, g, gi in layer for t, m, mi in steps]
        prefixes = prefixes + layer
    gens, seen = [], set()
    for w, g, gi in prefixes:
        for c in cores:
            m = g.mul(token_matrix(ring, n, c)).mul(gi)
            if m.entries not in seen:
                seen.add(m.entries)
                u = tuple(g.get(r, c.i - 1) for r in range(n))
                v = tuple(gi.get(c.j - 1, k) for k in range(n))
                gens.append(Generator(Conj(w, c) if w else c, c.a, u, v))
    return gens


@pytest.mark.parametrize("kind, n, gen, size", [
    ("rows", 4, 2, 3), ("rows", 8, 4, 3), ("rows", 8, 2, 3), ("rows", 9, 3, 3),
    ("rows", 4, 2, 2), ("alt", 4, 2, 4), ("alt", 8, 4, 4),
])
def test_exact_generators_match_depth_k(kind, n, gen, size):
    ring = zmod(n)
    ideal = ideal_of(ring, gen)
    if kind == "rows":
        exact, action = um_orbit_partition(ring, size, ideal), ACTION_ROW
    else:
        exact, action = alt_orbit_partition(ring, ideal, size), ACTION_CONGRUENCE
    for depth in (1, 2):
        ref = orbit_bfs(ring, exact.states, action,
                        _depth_k_generators(ring, size, ideal, depth))
        assert (exact.ids, exact.reps) == (ref.ids, ref.reps), depth


@pytest.mark.parametrize("n, gen, size", [
    # Z/12 (2) at size 2 needs conjugator chains of length 2
    (4, 2, 2), (8, 2, 2), (9, 3, 2), (8, 4, 2), (12, 2, 2),
    (4, 2, 3), (8, 2, 3), (9, 3, 3), (6, 2, 3), (4, 2, 4), (8, 4, 4),
    (4, 1, 3),
])
def test_generators_replay_and_lie_in_level(n, gen, size):
    ring = zmod(n)
    ideal = ideal_of(ring, gen)
    for g in elementary_generators(ring, size, ideal):
        m = token_matrix(ring, size, g.token)
        assert m == _rank_one_matrix(ring, size, g)
        ident = RingMatrix.identity(ring, size)
        assert all(ideal.contains(ring.sub(x, e))
                   for x, e in zip(m.entries, ident.entries))


@pytest.mark.parametrize("n, gen", [(4, 2), (8, 2), (8, 4), (9, 3), (6, 3), (12, 2)])
def test_two_by_two_set_is_conjugation_closed(n, gen):
    ring = zmod(n)
    mats = {token_matrix(ring, 2, g.token).entries
            for g in elementary_generators(ring, 2, ideal_of(ring, gen))}
    for t in elementary_generators(ring, 2):
        t_inv = token_matrix(ring, 2, Elem(t.token.i, t.token.j, ring.neg(t.a)))
        for m in mats:
            conj = token_matrix(ring, 2, t.token).mul(RingMatrix(ring, 2, 2, m)).mul(t_inv)
            assert conj.entries in mats


def _rank_one_matrix(ring, n, g):
    """I + a*u*w^T by the ring's own ops: the payload matrix that
    generators carried before their a*u*w^T key replaced it."""
    return RingMatrix(ring, n, n, tuple(
        ring.add(ring.one if i == j else ring.zero,
                 ring.mul(ring.mul(g.a, g.u[i]), g.w[j]))
        for i in range(n) for j in range(n)))


def _payload_generators(ring, n, ideal, basis=False):
    """Reference builder deduplicating by payload matrix: the bare e_ij(x),
    x in I (in I's basis with basis), then conjugates by a scan of every
    transvection, which n >= 3 filters down to e_ji(b), b in R, and
    n <= 2 closes to a fixpoint (b in R's basis with basis)."""
    def transvections(pool):
        return [(i, j, a) for i in range(1, n + 1) for j in range(1, n + 1)
                if i != j for a in pool if a != ring.zero]

    def unit(k):
        return tuple(ring.one if t == k - 1 else ring.zero for t in range(n))

    out = [Generator(Elem(i, j, a), a, unit(i), unit(j))
           for i, j, a in transvections(ideal.basis() if basis else ideal.members())]
    if ideal.has_unit_generator():
        return tuple(out)
    seen = {_rank_one_matrix(ring, n, g).entries for g in out}
    conj = transvections(unit_ideal(ring).basis() if basis and n <= 2 else ring.elements())
    for g in (tuple(out) if n >= 3 else out):
        for k, l, b in conj:
            if n >= 3 and (k, l) != (g.token.j, g.token.i):
                continue
            u, w = list(g.u), list(g.w)
            u[k - 1] = ring.add(u[k - 1], ring.mul(b, g.u[l - 1]))
            w[l - 1] = ring.sub(w[l - 1], ring.mul(b, g.w[k - 1]))
            tok = g.token
            chain, core = (tok.conjugator, tok.core) if isinstance(tok, Conj) else ((), tok)
            h = Generator(Conj((Elem(k, l, b),) + chain, core), g.a, tuple(u), tuple(w))
            m = _rank_one_matrix(ring, n, h).entries
            if m not in seen:
                seen.add(m)
                out.append(h)
    return tuple(out)


Z2xZ4 = '{"kind":"product","factors":["zmod:2","zmod:4"]}'
F4xZ2 = '{"kind":"product","factors":["f4","zmod:2"]}'
F4_EPS = '{"kind":"quotient","base":{"kind":"poly","base":"f4","var":"t"},"moduli":["t^2"]}'


@pytest.mark.parametrize("spec, gen", [
    ("f4", None), (F4_EPS, "t"), (F4xZ2, "(1|0)"),
    (Z2xZ4, "(0|2)"), (Z2xZ4, "(1|2)"), (Z2xZ4, "(1|0)"),
    ("zmod:4", "2"), ("zmod:8", "4"), ("zmod:9", "3"), ("zmod:27", "3"),
    ("zmod:16", "2"), ("zmod:12", "2"),
])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_product_key_dedup_matches_payload_matrices(spec, gen, n):
    # the builder conjugates on element indices and skips a b whose xb
    # repeats for the same core; the reference tries every b on payloads
    # (the absolute basis set at n >= 3 is the n-cycle, checked against
    # the exact set by test_cycle_moves_match_exact_generators)
    ring = parse_ring(spec)
    ideal = None if gen is None else Ideal(ring, (ring.parse(gen),))
    for basis in (False, True) if ideal is not None or n <= 2 else (False,):
        ref = _payload_generators(
            ring, n, ideal if ideal is not None else unit_ideal(ring), basis)
        gens = elementary_generators(ring, n, ideal, basis)
        assert [g.token for g in gens] == [g.token for g in ref], basis
        assert gens == ref, basis


def test_only_kept_moves_become_generators(monkeypatch):
    # over (4) in Z/8 at size 4, 12 of the 96 candidates are bare and 6 of
    # the 84 conjugates are kept; the 78 dropped are never decoded
    import symwitt.orbits as orbits
    build, made = orbits.Generator, []

    def counting(*args):
        made.append(args)
        return build(*args)

    monkeypatch.setattr(orbits, "Generator", counting)
    ring = zmod(8)
    gens = elementary_generators(ring, 4, ideal_of(ring, 4), basis=True)
    assert len(gens) == 18
    assert len(made) == 18


def _span(ring, width, deltas):
    # the listed span of index vectors under the table add, the reference
    # that the translation partition's _EchelonSpan is checked against
    tables = ring.compile()
    return additive_span((tables.zero,) * width, functools.partial(_vec_add, tables.add),
                         deltas, width)


def test_additive_span_refuses_past_cap():
    # 3^10 vectors of width 36 fit under the cap, the whole span of 3^11
    # would not (and stays small enough to build if the cap were missing)
    width = 36
    deltas = [tuple(int(t == k) for t in range(width)) for k in range(11)]
    with pytest.raises(BoundExceeded, match=rf"118098 vectors x 36 entries .* {MEMORY_CAP}"):
        _span(F3, width, deltas)


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
    assert _span(zmod(n), 3, deltas) == _brute_span(n, 3, deltas)


def test_additive_span_random_deltas():
    rng = random.Random(20210205)
    for n in (8, 9, 12):
        for _ in range(30):
            deltas = [tuple(rng.randrange(n) for _ in range(3))
                      for _ in range(rng.randint(1, 3))]
            assert _span(zmod(n), 3, deltas) == _brute_span(n, 3, deltas)


ECHELON_RINGS = ["zmod:8", "zmod:9", "zmod:12", "f4", "f9",
                 '{"kind":"product","factors":["zmod:4","zmod:2"]}',
                 '{"kind":"product","factors":["zmod:2","zmod:2","zmod:3"]}']


def _random_deltas(rng, tables, width):
    """Zero to four deltas; an entry pool is the whole ring or the multiples
    of one element, and a delta may be zero, a repeat or a sum of earlier
    ones, so the span is often a proper subgroup."""
    q, add = len(tables.elements), tables.add
    deltas = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(6)
        if kind == 0:
            d = (tables.zero,) * width
        elif kind == 1 and deltas:
            d = rng.choice(deltas)
        elif kind == 2 and len(deltas) > 1:
            d = _vec_add(add, *rng.sample(deltas, 2))
        else:
            g, pool = rng.randrange(q), [tables.zero]
            while add[pool[-1]][g] != tables.zero:
                pool.append(add[pool[-1]][g])
            pool = range(q) if kind == 3 else pool
            d = tuple(rng.choice(pool) for _ in range(width))
        deltas.append(d)
    return deltas


@pytest.mark.parametrize("spec", ECHELON_RINGS,
                         ids=["Z8", "Z9", "Z12", "f4", "f9", "Z4xZ2", "Z2xZ2xZ3"])
def test_echelon_span_matches_listed_span(spec):
    # membership and size of the translation partition's table against the
    # listed span, and, over Z/n (whose index k is the residue k) with at
    # most three deltas, against every combination of the deltas
    ring = parse_ring(spec)
    tables = ring.compile()
    rng = random.Random(20261019)
    vectors = {}
    for _ in range(150):
        width = rng.randint(1, 4)
        deltas = _random_deltas(rng, tables, width)
        table = _EchelonSpan(tables, width, deltas)
        span = _span(ring, width, deltas)
        if spec.startswith("zmod:") and len(deltas) <= 3:
            assert span == _brute_span(ring.n, width, deltas)
        assert len(table) == len(span)
        if width not in vectors:
            vectors[width] = list(itertools.product(range(len(tables.elements)),
                                                    repeat=width))
        probe = vectors[width] if len(vectors[width]) <= 2000 else (
            rng.sample(vectors[width], 500) + list(span))
        for v in probe:
            assert (v in table) == (v in span), (deltas, v)


def test_witt_universe_counts():
    assert len(witt_universe(F2, unit_ideal(F2), 4)) == 28
    assert len(witt_universe(F3, unit_ideal(F3), 4)) == 234
    assert len(witt_universe(M4, unit_ideal(M4), 4)) == 896
    assert len(witt_universe(M4, I24, 4)) == 32


def test_witt_universe_members_are_symbols():
    m8, m9 = zmod(8), zmod(9)
    # forms modulo I times |I|^5: Z/8 (4) has 4 forms, Z/9 (3) has 2
    for ring, ideal, count in ((M4, I24, 32), (m8, ideal_of(m8, 4), 64),
                               (m9, ideal_of(m9, 3), 486)):
        universe = witt_universe(ring, ideal, 4)
        assert len(universe) == count
        for m in universe:
            assert m.is_alternating()
            assert pfaffian(m) == ring.one
            assert standard_form_witness(m, ideal) is not None


def _brute_universe(ring, ideal, size):
    """Every alternating matrix over ring.elements(), filtered."""
    pos = [(i, j) for i in range(size) for j in range(i + 1, size)]
    out = []
    for combo in itertools.product(ring.elements(), repeat=len(pos)):
        ent = [ring.zero] * (size * size)
        for (i, j), a in zip(pos, combo):
            ent[i * size + j] = a
            ent[j * size + i] = ring.neg(a)
        m = RingMatrix(ring, size, size, tuple(ent))
        if pfaffian(m) == ring.one and standard_form_witness(m, ideal) is not None:
            out.append(m)
    return tuple(out)


@pytest.mark.parametrize("n, gen, size", [
    (2, 1, 4), (3, 1, 4), (4, 1, 4), (4, 2, 4), (4, 0, 4),
    # Z/6 is not local, and (2)^2 = (2) there
    (6, 2, 4), (6, 3, 4),
    (2, 1, 2), (2, 1, 6),
])
def test_witt_universe_matches_brute_force(n, gen, size):
    ring = zmod(n)
    ideal = ideal_of(ring, gen)
    assert witt_universe(ring, ideal, size) == _brute_universe(ring, ideal, size)


def test_witt_universe_cap_counts_cosets():
    ring = zmod(257)
    with pytest.raises(BoundExceeded, match=r"1 form cosets x 257\^6"):
        witt_universe(ring, unit_ideal(ring), 4)


def test_witt_classes_single():
    fam = witt_classes_bounded(F2, None, 4, levels=1)
    assert fam.class_count == 1
    assert fam.merge_log == ({"t": 1, "skipped": "single class"},)
    rel = witt_classes_bounded(M4, I24, 4, levels=1)
    assert rel.class_count == 1
    assert rel.base.norbits == 1
    state = rel.base.objects[5]
    assert rel.class_of(state) == 0


def test_position_refuses_what_is_not_a_partitioned_object():
    # a wrong length, a non-alternating matrix and an entry outside the
    # ring have no table state, so they are refused like an unlisted object
    rows = um_orbit_partition(M4, 3, I24)
    fam = witt_classes_bounded(M4, I24, 4)
    mat = fam.base.objects[0]
    skew = (mat[0], M4.add(mat[1], 1)) + mat[2:]  # (1, 2) moves, (2, 1) not
    outside = (5,) + mat[1:]
    for call, obj in [(rows.id_of, (1, 0)), (rows.id_of, (1, 0, 5)),
                      (fam.base.id_of, skew), (fam.class_of, mat[:-1]),
                      (fam.class_of, skew), (fam.class_of, outside)]:
        with pytest.raises(VerificationFailed,
                           match="state is not one of the partitioned objects"):
            call(obj)


def test_split_level0_orbit_is_kept_apart_and_noted(monkeypatch):
    # level-0 classes are residue cosets mod I (tests/test_ring_zoo.py), so
    # no real ring has two that agree mod I; split the first true orbit of
    # Z/8 (4) into the classes before and after the second one instead
    import symwitt.orbits as orbits
    ring, ideal = zmod(8), ideal_of(zmod(8), 4)
    real = alt_orbit_partition(ring, ideal, 4)
    assert real.norbits == 2
    first = real.ids.index(1)
    ids = tuple(1 if c else 0 if k < first else 2 for k, c in enumerate(real.ids))
    reps = tuple(real.objects[ids.index(c)] for c in range(3))
    split = OrbitPartition(ring, real.states, real.at, ids, reps, dict(real.meta))
    sizes, partition = [], orbits._partition

    def spy(ring, states, action, n, ideal):
        sizes.append(n)
        return partition(ring, states, action, n, ideal)

    monkeypatch.setattr(orbits, "alt_orbit_partition", lambda *args: split)
    monkeypatch.setattr(orbits, "_partition", spy)
    fam = witt_classes_bounded(ring, ideal, 4, levels=1)
    assert fam.base is split
    assert fam.merge_log == ({"t": 1, "merged": [], "saturated": True},)
    assert (fam.class_count, fam.class_of(reps[2])) == (3, 2)
    # no level searches: the report partitions only its rows
    report = vaserstein_report(ring, ideal, levels=1)
    assert sizes == [3]
    assert report.to_obj()["witt"]["count"] == 3
    assert "level-0 classes 0 and 2 agree mod I, so a level might merge them" in \
        report.notes
    assert set(report.claims.values()) == {INCONCLUSIVE}


def test_unbounded_search_fails_fast():
    # the two Z/6 (3) level-0 classes differ mod I, so no path joins them:
    # an open search of 28-entry states must stop at the cap
    ring = zmod(6)
    ideal = ideal_of(ring, 3)
    fam = witt_classes_bounded(ring, ideal, 4, levels=0)
    x, y = (make_witt_symbol(ideal, RingMatrix(ring, 4, 4, rep)) for rep in fam.base.reps)
    with pytest.raises(BoundExceeded, match="x 28 entries is past the memory cap"):
        find_equivalence_certificate(x, y, levels=0)


@pytest.mark.parametrize("n, gen, levels", [(6, 3, 2), (12, 4, 1), (8, 4, 2), (9, 3, 1)])
def test_levels_search_only_classes_that_agree_mod_ideal(monkeypatch, n, gen, levels):
    # E_n(R, I) is 1 mod I, so classes whose representatives differ mod I
    # are never partitioned together: here no level partitions at all
    import symwitt.orbits as orbits
    ring = zmod(n)
    ideal = ideal_of(ring, gen)
    sizes, partition = [], orbits._partition

    def spy(ring, objects, action, size, *args, **kwargs):
        sizes.append(size)
        return partition(ring, objects, action, size, *args, **kwargs)

    monkeypatch.setattr(orbits, "_partition", spy)
    fam = witt_classes_bounded(ring, ideal, 4, levels=levels)
    assert sizes == [4]
    reps = [RingMatrix(ring, 4, 4, rep) for rep in fam.base.reps]
    assert len(reps) == 2 and not congruent_mod_ideal(*reps, ideal)
    assert fam.merge_log == tuple({"t": t, "merged": [], "saturated": True}
                                  for t in range(1, levels + 1))


def test_find_certificate_trivial_and_nontrivial():
    u = unit_ideal(F2)
    x = make_witt_symbol(u, chi_n(F2, 1))
    same = find_equivalence_certificate(x, x, levels=0)
    assert same is not None and same.epsilon.tokens == ()
    y = make_witt_symbol(u, RingMatrix.from_rows(
        F2, [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]))
    cert = find_equivalence_certificate(x, y, levels=1)
    assert cert is not None
    assert cert.t == 0 and len(cert.epsilon.tokens) == 3
    assert verify_equivalence(x, y, cert)


def test_find_certificate_none_on_pfaffian_mismatch():
    x = make_witt_symbol(I24, chi_n(M4, 1))
    y = make_witt_symbol(I24, RingMatrix.from_rows(M4, [[0, 3], [1, 0]]))
    assert find_equivalence_certificate(x, y, levels=0) is None


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


def test_vdk_product_aligned_equal_z_tails():
    # equal tails skip the search; over Z, p0 is the inverse of a0 modulo
    # the gcd of the tail, the first one in 0..g-1
    u, v = um_row(Z, (3, 5, 10)), um_row(Z, (2, 5, 10))
    p0 = next(p for p in range(5) if (3 * p - 1) % 5 == 0)
    q = 2 + p0
    prod = vdk_product_aligned(u, v)
    assert prod.entries == (3 * q - 1, 5 * q, 10)
    assert prod.dot(complete(prod)) == 1


def test_vdk_product_aligned_searches_one_orbit_once(monkeypatch):
    # v lies in u's orbit, so u's closure is v's too and is searched once
    import symwitt.orbits as orbits
    u, v = um_row(F3, (2, 1, 0)), um_row(F3, (1, 0, 1))
    want = vdk_product_aligned(u, v).entries
    assert complete(um_row(F3, want)) is not None
    starts, bfs = [], orbits._bfs

    def spy(start, *args):
        starts.append(start)
        return bfs(start, *args)

    monkeypatch.setattr(orbits, "_bfs", spy)
    assert vdk_product_aligned(u, v).entries == want
    assert len(starts) == 1


def test_vdk_product_aligned_capped_search(monkeypatch):
    # a search past the memory cap is refused, never cut short into a
    # failed tail alignment
    import symwitt.orbits as orbits
    u, v = um_row(F3, (2, 1, 0)), um_row(F3, (1, 0, 1))
    want = vdk_product_aligned(u, v).entries
    monkeypatch.setattr(orbits, "MEMORY_CAP", 3 * 25)
    with pytest.raises(BoundExceeded, match="search of 26 states x 3 entries"):
        vdk_product_aligned(u, v)
    monkeypatch.setattr(orbits, "MEMORY_CAP", 3 * 26)
    assert vdk_product_aligned(u, v).entries == want


def test_search_refuses_past_the_memory_cap(monkeypatch):
    import symwitt.orbits as orbits
    tables, moves = _search_moves(F3, ACTION_ROW, 3, None)
    start = _encode(tables, ACTION_ROW, 3, (1, 0, 0))
    assert len(_bfs(start, moves, tables)) == 26  # every nonzero row of F3^3
    monkeypatch.setattr(orbits, "MEMORY_CAP", 3 * 25)
    with pytest.raises(BoundExceeded, match="search of 26 states x 3 entries"):
        _bfs(start, moves, tables)


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
    obj = rel.to_obj()
    assert obj["counterexample"] is None
    assert obj["verdict"] == CONFIRMED
    assert obj["mse"]["count"] == 1


def test_vaserstein_report_refuses_past_the_memory_cap(monkeypatch):
    # the report's searches are whole or refused: a cap they meet raises,
    # and no claim is left inconclusive by a cut search
    import symwitt.orbits as orbits
    monkeypatch.setattr(orbits, "MEMORY_CAP", 729)  # 3^6, the universe's size
    with pytest.raises(BoundExceeded, match="x 6 entries is past the memory cap of 729"):
        vaserstein_report(F3)


# ---------------------------------------------------------------------------
# the compiled engine against the generic-ring steps it replaced
# ---------------------------------------------------------------------------

def _row_neighbors(ring, n, gens):
    """Reference row step: v -> v + a (v . u) w with the ring's own ops."""
    zero = ring.zero

    def step(state):
        out = []
        for g in gens:
            s = zero
            for x, ux in zip(state, g.u):
                s = ring.add(s, ring.mul(x, ux))
            s = ring.mul(g.a, s)
            if s == zero:
                out.append(state)
                continue
            out.append(tuple(ring.add(state[t], ring.mul(s, g.w[t]))
                             for t in range(n)))
        return out

    return step


def _congruence_neighbors(ring, n, gens):
    """Reference congruence step on whole matrices: M + q w^T - w q^T with
    q = a M u, which is g^T M g for alternating M."""
    zero = ring.zero

    def step(state):
        out = []
        for g in gens:
            aq = []
            for i in range(n):
                s = zero
                row = state[i * n:(i + 1) * n]
                for x, ux in zip(row, g.u):
                    s = ring.add(s, ring.mul(x, ux))
                aq.append(ring.mul(g.a, s))
            if all(x == zero for x in aq):
                out.append(state)
                continue
            new = list(state)
            for i in range(n):
                for j in range(n):
                    d = ring.sub(ring.mul(aq[i], g.w[j]),
                                 ring.mul(g.w[i], aq[j]))
                    if d != zero:
                        new[i * n + j] = ring.add(new[i * n + j], d)
            out.append(tuple(new))
        return out

    return step


def _ref_neighbors(action, ring, n, gens):
    return (_row_neighbors if action == ACTION_ROW else _congruence_neighbors)(ring, n, gens)


def _ref_bfs(start, neighbors, gens, goal=None):
    links = {start: None}
    queue = deque([start])
    while queue and goal not in links:
        x = queue.popleft()
        for g, y in zip(gens, neighbors(x)):
            if y in links:
                continue
            links[y] = (x, g.token)
            queue.append(y)
    return links


def _ref_orbit_bfs(ring, objects, action, gens):
    """(ids, reps) of the generic-ring partition."""
    n = len(gens[0].u)
    neighbors = _ref_neighbors(action, ring, n, gens)
    index = {s: k for k, s in enumerate(objects)}
    ids, reps = [-1] * len(objects), []
    for k, s in enumerate(objects):
        if ids[k] >= 0:
            continue
        members = []
        for x in _ref_bfs(s, neighbors, gens):
            j = index.get(x)
            if j is None:
                raise VerificationFailed("orbit step left the object set")
            assert ids[j] < 0, "a whole orbit reached an earlier one"
            members.append(j)
        members.sort()
        for j in members:
            ids[j] = len(reps)
        reps.append(objects[members[0]])
    return tuple(ids), tuple(reps)


def _padded_ends(x, y, t):
    """Start (y padded) and goal (x padded) of the level-t search."""
    ring = x.ring
    return (orth_sum(y.rep, chi_n(ring, x.half + t)).entries,
            orth_sum(x.rep, chi_n(ring, y.half + t)).entries)


def _ref_certificate(x, y):
    """Tokens of the level-0 path the one-ended search finds, or None.  It
    runs on the compiled states, over the exact set's moves in order."""
    tables, moves = _search_moves(x.ring, ACTION_CONGRUENCE, 8, x.ideal)
    start, goal = (_encode(tables, ACTION_CONGRUENCE, 8, s) for s in _padded_ends(x, y, 0))
    links = _ref_bfs(start, lambda s: [_step(s, terms, tables.add) for _, terms in moves],
                     elementary_generators(x.ring, 8, x.ideal), goal)
    if goal not in links:
        return None
    tokens, state = [], goal
    while links[state] is not None:
        state, tok = links[state]
        tokens.append(tok)
    return tuple(reversed(tokens))


def _ref_inverse(ring, n, tok):
    """e_ij(a) -> e_ij(-a), core entries likewise, checked on matrices."""
    if isinstance(tok, Conj):
        inv = Conj(tok.conjugator, Elem(tok.core.i, tok.core.j, ring.neg(tok.core.a)))
    else:
        inv = Elem(tok.i, tok.j, ring.neg(tok.a))
    assert token_matrix(ring, n, tok).mul(token_matrix(ring, n, inv)) == \
        RingMatrix.identity(ring, n)
    return inv


def _ref_path(ring, n, start, goal, gens):
    """Tokens of the two-ended generic-ring search's word, or None.

    Whole levels of the smaller frontier (the start's on a tie), moves in
    order, up to the first new state the other end holds; the goal half
    joins reversed and inverted.
    """
    if start == goal:
        return ()
    neighbors = _congruence_neighbors(ring, n, gens)
    links, frontiers = ({start: None}, {goal: None}), [[start], [goal]]

    def trace(side, state):
        tokens = []
        while links[side][state] is not None:
            state, tok = links[side][state]
            tokens.insert(0, tok)
        return tokens

    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        level = []
        for x in frontiers[side]:
            for g, y in zip(gens, neighbors(x)):
                if y in links[side]:
                    continue
                if y in links[1 - side]:
                    ends = {side: trace(side, x) + [g.token], 1 - side: trace(1 - side, y)}
                    return tuple(ends[0]) + tuple(_ref_inverse(ring, n, tok)
                                                  for tok in reversed(ends[1]))
                links[side][y] = (x, g.token)
                level.append(y)
        frontiers[side] = level
    return None


def _compiled_reached(ring, action, n, gens, start):
    tables = ring.compile()
    moves = _compile_moves(tables, action, n, gens)
    return {_decode(tables, action, n, state)
            for state in _bfs(_encode(tables, action, n, start), moves, tables)}


def _objects(ring, ideal, action, n):
    if action == ACTION_ROW:
        return tuple(r.entries for r in enumerate_um(ring, n, ideal))
    return tuple(m.entries for m in
                 witt_universe(ring, ideal if ideal is not None else unit_ideal(ring), n))


def _gens(ring, ideal, n, kind):
    if kind == "depth-2":
        return _depth_k_generators(ring, n, ideal, 2)
    return elementary_generators(ring, n, ideal, basis=kind == "basis")


# (ring, ideal generator or None, action, n, generator kind, whether a
# cut of the objects is checked for refusal too); the rings whose exact
# sets are slow on the reference move over the basis set, the one
# partitions search
ENGINE_CASES = [
    ("f2", None, ACTION_CONGRUENCE, 4, "exact", True),
    ("f3", None, ACTION_CONGRUENCE, 4, "exact", True),
    ("f4", None, ACTION_CONGRUENCE, 4, "basis", False),
    ("f5", None, ACTION_CONGRUENCE, 4, "basis", False),
    ("zmod:4", None, ACTION_CONGRUENCE, 4, "exact", True),
    ("zmod:6", None, ACTION_CONGRUENCE, 4, "basis", False),
    ("f4", None, ACTION_ROW, 3, "exact", True),
    ("f5", None, ACTION_ROW, 3, "exact", True),
    ("zmod:6", None, ACTION_ROW, 3, "exact", True),
    # the z_ij(x, a) at n = 3 and 4, the n = 2 conjugation closure, and
    # the depth-k conjugates, whose u and w are general vectors
    ("zmod:8", 2, ACTION_ROW, 3, "exact", True),
    ("zmod:9", 3, ACTION_ROW, 3, "exact", True),
    ("zmod:8", 4, ACTION_CONGRUENCE, 4, "exact", True),
    ("zmod:12", 2, ACTION_ROW, 2, "exact", True),
    ("zmod:8", 2, ACTION_ROW, 2, "exact", True),
    ("zmod:4", 2, ACTION_ROW, 3, "depth-2", True),
    ("zmod:4", 2, ACTION_CONGRUENCE, 4, "depth-2", True),
]


@pytest.mark.parametrize("spec, gen, action, n, kind, full", ENGINE_CASES)
def test_compiled_bfs_matches_reference(spec, gen, action, n, kind, full):
    ring = parse_ring(spec)
    ideal = None if gen is None else ideal_of(ring, ring.parse(str(gen)))
    gens = _gens(ring, ideal, n, kind)
    objects = _objects(ring, ideal, action, n)
    neighbors = _ref_neighbors(action, ring, n, gens)
    for start in (objects[0], objects[len(objects) // 2]):
        assert _compiled_reached(ring, action, n, gens, start) == \
            _ref_bfs(start, neighbors, gens).keys()


@pytest.mark.parametrize("spec, gen, action, n, kind, full", ENGINE_CASES)
def test_compiled_partition_matches_reference(spec, gen, action, n, kind, full):
    ring = parse_ring(spec)
    ideal = None if gen is None else ideal_of(ring, ring.parse(str(gen)))
    gens = _gens(ring, ideal, n, kind)
    objects = _objects(ring, ideal, action, n)
    # the engine partitions states, the reference the payloads themselves
    part = orbit_bfs(ring, _states(ring, action, objects), action, gens)
    assert (part.ids, part.reps) == _ref_orbit_bfs(ring, objects, action, gens)
    if full:
        cut = objects[1::3]
        with pytest.raises(VerificationFailed):
            _ref_orbit_bfs(ring, cut, action, gens)
        with pytest.raises(VerificationFailed):
            orbit_bfs(ring, _states(ring, action, cut), action, gens)


@pytest.mark.parametrize("spec, gen, action, n, kind, full", ENGINE_CASES)
def test_partition_from_payloads_matches_partition_from_states(spec, gen, action, n,
                                                               kind, full):
    ring = parse_ring(spec)
    ideal = None if gen is None else ideal_of(ring, ring.parse(str(gen)))
    gens = _gens(ring, ideal, n, kind)
    objects = _objects(ring, ideal, action, n)
    # the states the engine enumerates, in the order of their payloads
    if action == ACTION_ROW:
        tables, relative = ring.compile(), ideal is not None and not ideal.contains(ring.one)
        enumerated = tuple(_unimodular_states(
            tables, [tables.index[x] for x in _row_pool(ring, n, ideal)], n, relative))
    else:
        enumerated = tuple(_universe_states(
            ring, ideal if ideal is not None else unit_ideal(ring), n))
    # payloads encoded at the edge are the enumerated states
    states = _states(ring, action, objects)
    assert states == enumerated
    part = orbit_bfs(ring, states, action, gens)
    assert "objects" not in vars(part)
    # each representative is its orbit's first listed object
    assert part.reps == tuple(objects[part.ids.index(c)] for c in range(part.norbits))
    assert part.objects == objects
    assert [part.id_of(s) for s in objects] == list(part.ids)


def _symbols_to_e1(spec, gen):
    ring = parse_ring(spec)
    ideal = unit_ideal(ring) if gen is None else ideal_of(ring, gen)
    e1 = vaserstein_symbol(um_row(ring, (ring.one, ring.zero, ring.zero), ideal))
    return ring, e1, [(row.entries, vaserstein_symbol(row))
                      for row in enumerate_um(ring, 3, ideal)]


def _reaches_within(x, y, depth):
    """Whether a one-ended search over the exact set's compiled moves
    reaches x's padding from y's within depth moves.  It holds only the
    levels below depth and compares the last one with the goal, so it
    stays small where a full one-ended search would not."""
    tables, moves = _search_moves(x.ring, ACTION_CONGRUENCE, 8, x.ideal)
    start, goal = (_encode(tables, ACTION_CONGRUENCE, 8, s) for s in _padded_ends(x, y, 0))
    seen, level = {start}, [start]
    for d in range(depth):
        below = []
        for s in level:
            for _, terms in moves:
                z = _step(s, terms, tables.add)
                if z == goal:
                    return True
                if d < depth - 1 and z not in seen:
                    seen.add(z)
                    below.append(z)
        level = below
    return start == goal


# f3 and Z/9 (3) have e_ij(-a) != e_ij(a); in Z/4 (2), -2 = 2.  A full
# one-ended search from the six f3 rows at distance 4 is past the memory
# cap, so there the one-ended length is 4 by a depth-3 search that
# misses the goal.
@pytest.mark.parametrize("spec, gen, far", [
    ("f2", None, ()), ("zmod:4", 2, ()), ("zmod:9", 3, ()),
    ("f3", None, ((0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2), (2, 1, 2), (2, 2, 2))),
], ids=["f2-None", "zmod:4-2", "zmod:9-3", "f3-None"])
def test_certificates_match_reference_tokens(spec, gen, far):
    ring, e1, rows = _symbols_to_e1(spec, gen)
    gens = elementary_generators(ring, 8, e1.ideal)
    for row, x in rows:
        cert = find_equivalence_certificate(x, e1, levels=0)
        assert cert is not None and cert.t == 0
        assert cert.epsilon.tokens == _ref_path(ring, 8, *_padded_ends(x, e1, 0), gens)
        assert verify_equivalence(x, e1, cert)
        assert all(type(tok) in (Elem, Conj) for tok in cert.epsilon.tokens)
        if row in far:
            assert len(cert.epsilon.tokens) == 4 and not _reaches_within(x, e1, 3)
        else:
            assert len(cert.epsilon.tokens) == len(_ref_certificate(x, e1))


def test_every_f3_row_reaches_e1_at_level_0():
    # a one-ended search from the farthest rows stops at the memory cap
    _, e1, rows = _symbols_to_e1("f3", None)
    lengths = []
    for _, x in rows:
        cert = find_equivalence_certificate(x, e1, levels=0)
        assert cert is not None and cert.t == 0 and verify_equivalence(x, e1, cert)
        lengths.append(len(cert.epsilon.tokens))
    assert len(lengths) == 26 and max(lengths) == 4


@pytest.mark.parametrize("spec, gen", [("f3", None), ("zmod:9", 3)])
def test_path_undoes_short_exact_words(spec, gen):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ring, e1, rows = _symbols_to_e1(spec, gen)
    gens = elementary_generators(ring, 8, e1.ideal)
    tables, moves = _search_moves(ring, ACTION_CONGRUENCE, 8, e1.ideal)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.sampled_from(range(len(rows))),
                      st.lists(st.sampled_from(range(len(gens))), max_size=3))
    def check(k, picks):
        padded = orth_sum(rows[k][1].rep, chi_n(ring, 2))
        word = GroupWord(ring, 8, tuple(gens[p].token for p in picks))
        moved = padded.congruent_by(word_eval(word))
        tokens = _path(*(_encode(tables, ACTION_CONGRUENCE, 8, m.entries)
                         for m in (padded, moved)), moves, ring)
        assert tokens is not None and len(tokens) <= len(picks)
        found = GroupWord(ring, 8, tokens)
        assert relative_level(found, e1.ideal)
        assert padded.congruent_by(word_eval(found)) == moved

    check()


def test_partitions_refuse_mismatched_sizes():
    gens3 = elementary_generators(M4, 3)
    cases = [
        # a row longer or shorter than the generators
        (ACTION_ROW, (1, 0, 0, 0), gens3),
        (ACTION_ROW, (1, 0), gens3),
        # a 2 x 2 alternating object under size-4 generators
        (ACTION_CONGRUENCE, chi_n(M4, 1).entries, elementary_generators(M4, 4)),
        # generators of two sizes
        (ACTION_ROW, (1, 0, 0), gens3 + elementary_generators(M4, 2)),
        (ACTION_ROW, (1, 0), elementary_generators(M4, 2) + gens3),
    ]
    for action, obj, gens in cases:
        with pytest.raises(SizeMismatch):
            orbit_bfs(M4, _states(M4, action, (obj,)), action, gens)
    # the translation fast path reads the size off its states too
    for ideal in (I24, None):
        with pytest.raises(SizeMismatch):
            _partition(M4, _states(M4, ACTION_ROW, ((1, 0, 0, 0),)), ACTION_ROW, 3, ideal)
        with pytest.raises(SizeMismatch):
            _partition(M4, _states(M4, ACTION_CONGRUENCE, (chi_n(M4, 1).entries,)),
                       ACTION_CONGRUENCE, 4, ideal)


def test_universe_refuses_an_ideal_of_another_ring():
    ideal = ideal_of(zmod(8), 4)
    for call in (witt_universe, alt_orbit_partition, witt_classes_bounded):
        with pytest.raises(RingMismatch, match="ideal over a different ring"):
            call(M4, ideal, 4)
    with pytest.raises(RingMismatch, match="ideal over a different ring"):
        vaserstein_report(M4, ideal)


@pytest.mark.parametrize("call, error, message", [
    (lambda: elementary_generators(Z, 2), InfiniteRing, "cannot enumerate generators"),
    (lambda: elementary_generators(M4, 2, ideal_of(zmod(8), 4)), RingMismatch,
     "ideal over a different ring"),
    (lambda: _compile_moves(M4.compile(), "slide", 2, elementary_generators(M4, 2)),
     MalformedSpec, "unknown action 'slide'"),
    (lambda: um_orbit_partition(F2, 2).id_of((0, 0)), VerificationFailed,
     "state is not one of the partitioned objects"),
    (lambda: orbit_bfs(F2, (), ACTION_ROW, ()), MalformedSpec, "nothing to partition"),
    (lambda: _partition(M4, (), ACTION_ROW, 3, I24), MalformedSpec,
     "nothing to partition"),
    (lambda: orbit_bfs(F2, _states(F2, ACTION_ROW, ((1, 0), (1, 0))), ACTION_ROW, ()),
     MalformedSpec, "duplicate objects"),
    (lambda: _partition(M4, _states(M4, ACTION_ROW, ((1, 0, 0), (1, 0, 0))), ACTION_ROW,
                        3, I24),
     MalformedSpec, "duplicate objects"),
    (lambda: enumerate_um(Z, 3), InfiniteRing, "cannot enumerate rows"),
    (lambda: enumerate_um(F2, 0), MalformedSpec, "row length must be >= 1, got 0"),
    (lambda: _universe_states(Z, unit_ideal(Z), 4), InfiniteRing,
     "cannot enumerate matrices"),
    (lambda: _universe_states(M4, ideal_of(zmod(8), 4), 4), RingMismatch,
     "ideal over a different ring"),
    (lambda: witt_classes_bounded(F2, None, 4, levels=-1), MalformedSpec,
     "stabilization must be >= 0, got -1"),
    (lambda: find_equivalence_certificate(make_witt_symbol(I24, chi_n(M4, 1)),
                                          make_witt_symbol(unit_ideal(M4), chi_n(M4, 1))),
     RingMismatch, "symbols relative to different ideals"),
    # no level to search is a refusal, not the None of an exhausted search
    (lambda: find_equivalence_certificate(make_witt_symbol(I24, chi_n(M4, 1)),
                                          make_witt_symbol(I24, chi_n(M4, 1)), levels=-1),
     MalformedSpec, "stabilization must be >= 0, got -1"),
    (lambda: find_equivalence_certificate(
        make_witt_symbol(I24, chi_n(M4, 1)),
        make_witt_symbol(I24, RingMatrix.from_rows(M4, [[0, 3], [1, 0]])), levels=-1),
     MalformedSpec, "stabilization must be >= 0, got -1"),
    (lambda: vdk_product_aligned(um_row(F3, (1, 0, 0)), um_row(M4, (1, 0, 0))),
     RingMismatch, "rows over different rings"),
    (lambda: vdk_product_aligned(um_row(M4, (1, 0, 0), I24), um_row(M4, (1, 0, 0))),
     RingMismatch, "rows relative to different ideals"),
    (lambda: vdk_product_aligned(um_row(F3, (1, 0, 0)), um_row(F3, (1, 0))),
     SizeMismatch, "row lengths differ: 3 vs 2"),
], ids=["generators-Z", "generators-other-ideal", "unknown-action", "unlisted-state",
        "empty-bfs", "empty-translation", "duplicate-bfs", "duplicate-translation",
        "rows-Z", "rows-n0", "universe-Z", "universe-other-ideal", "negative-levels",
        "certificate-other-ideals", "certificate-negative-levels-same",
        "certificate-negative-levels", "vdk-other-rings", "vdk-other-ideals",
        "vdk-other-lengths"])
def test_orbit_engine_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and message in str(exc.value)


def test_congruence_refuses_non_alternating_objects():
    # the skew update is g^T M g only on alternating M: the identity under
    # e_12(1) over Z/3 would come out (1, 1, 2, 1), not (1, 1, 1, 2)
    gens = elementary_generators(F3, 2)
    ident = RingMatrix.identity(F3, 2)
    g = next(g for g in gens if g.token == Elem(1, 2, 1))
    gm = token_matrix(F3, 2, g.token)
    assert gm.transpose().mul(ident).mul(gm).entries == (1, 1, 1, 2)
    assert _congruence_neighbors(F3, 2, [g])(ident.entries) == [(1, 1, 2, 1)]
    # payloads reach a partition through _encode, which refuses them
    for ring in (F3, zmod(9)):
        with pytest.raises(MalformedSpec, match="alternating"):
            _encode(ring.compile(), ACTION_CONGRUENCE, 2, RingMatrix.identity(ring, 2).entries)
    x = make_witt_symbol(unit_ideal(F3), chi_n(F3, 1))
    with pytest.raises(MalformedSpec, match="alternating"):
        find_equivalence_certificate(x, WittSymbol(x.ideal, ident, x.witness))


@pytest.mark.parametrize("ring", [zmod(2), zmod(6), zmod(9), f4()],
                         ids=lambda r: r.describe())
def test_table_pfaffian_matches_pfaffian(ring):
    rng = random.Random(7)
    tables = ring.compile()
    els = ring.elements()
    for size in (2, 4, 6):
        for _ in range(25):
            state = tuple(rng.randrange(len(els)) for _ in range(size * (size - 1) // 2))
            m = RingMatrix(ring, size, size,
                           _decode(tables, ACTION_CONGRUENCE, size, state))
            a = [[None] * size for _ in range(size)]
            for (i, j), x in zip(_upper(size), state):
                a[i][j] = x
            pf = _pf_expand(a, lambda x, y: tables.add[x][y],
                            lambda x, y: tables.mul[x][y], tables.neg.__getitem__,
                            tables.zero, tables.one)
            assert els[pf((1 << size) - 1)] == pfaffian(m)


def test_nice_mult_check_errors():
    with pytest.raises(NotCompleted):
        nice_mult_check(0, 1, (0, 0), F3)
    with pytest.raises(NotRelative):
        nice_mult_check(3, 3, (1, 0), M4, I24)
    # the product (0, 2, 0) of (2, 1, 0) with itself is not (1, 1, 0), so
    # the check holds only through a search that joins the two
    prod = vdk_product(um_row(F3, (2, 1, 0)), um_row(F3, (2, 1, 0)))
    assert prod.entries == (0, 2, 0)
    assert nice_mult_check(2, 2, (1, 0), F3)


def test_path_searches_refuse_past_the_memory_cap(monkeypatch):
    # the two ends' states count together, and a search that meets the
    # cap raises rather than answering False
    import symwitt.orbits as orbits
    monkeypatch.setattr(orbits, "MEMORY_CAP", 3 * 10)
    with pytest.raises(BoundExceeded, match="search of 11 states x 3 entries"):
        nice_mult_check(2, 2, (1, 0), F3)
    monkeypatch.setattr(orbits, "MEMORY_CAP", 3 * 26)
    assert nice_mult_check(2, 2, (1, 0), F3)


# ---------------------------------------------------------------------------
# moves over an additive basis against the exact generating sets
# ---------------------------------------------------------------------------

F2_EPS = '{"kind":"quotient","base":{"kind":"poly","base":"zmod:2","var":"t"},"moduli":["t^2"]}'
EXC4 = '{"kind":"excision","ideal":{"ring":"zmod:4","generators":["2"]}}'
DBL4 = '{"kind":"double","ideal":{"ring":"zmod:4","generators":["2"]}}'


def _ring_ideal(spec, gen):
    ring = parse_ring(spec)
    return ring, None if gen is None else Ideal(ring, (ring.parse(str(gen)),))


@pytest.mark.parametrize("spec, gen", [
    ("f2", None), ("f4", None), ("zmod:9", None), ("zmod:6", None),
    ("zmod:16", 4), ("zmod:8", 2), ("zmod:6", 3), ("zmod:12", 2),
    (Z2xZ4, None), (Z2xZ4, "(1|2)"), (F2_EPS, None), (F2_EPS, "t"),
    (EXC4, None), (DBL4, None), (DBL4, "(2|0)"),
])
def test_ideal_basis_is_a_greedy_generating_set(spec, gen):
    ring, ideal = _ring_ideal(spec, gen)
    ideal = ideal if ideal is not None else unit_ideal(ring)
    basis, members = ideal.basis(), ideal.members()
    assert _ordered_subset(basis, members)
    # each basis element lies outside the span of those before it, and
    # the whole basis spans the ideal
    for k, x in enumerate(basis):
        assert x not in additive_span(ring.zero, ring.add, basis[:k])
    assert additive_span(ring.zero, ring.add, basis) == set(members)
    # greedy: every member the basis skipped lies in the span before it
    for x in members:
        before = [b for b in basis if members.index(b) < members.index(x)]
        assert x in basis or x in additive_span(ring.zero, ring.add, before)


def _ordered_subset(small, big):
    pos = [big.index(x) for x in small]
    return pos == sorted(pos)


# (ring, ideal generator or None, action, n); n is a row length or a
# matrix size.  Translation cases have I^2 = 0.
BASIS_CASES = [
    ("f2", None, ACTION_ROW, 4), ("f2", None, ACTION_CONGRUENCE, 4),
    ("f3", None, ACTION_ROW, 3), ("f3", None, ACTION_CONGRUENCE, 4),
    ("f4", None, ACTION_ROW, 2), ("f4", None, ACTION_ROW, 3),
    ("f4", None, ACTION_CONGRUENCE, 4),
    ("zmod:4", None, ACTION_ROW, 4), ("zmod:4", None, ACTION_CONGRUENCE, 4),
    ("zmod:8", None, ACTION_ROW, 3), ("zmod:8", None, ACTION_CONGRUENCE, 2),
    ("zmod:9", None, ACTION_ROW, 2), ("zmod:9", None, ACTION_ROW, 3),
    ("zmod:6", None, ACTION_ROW, 3), ("zmod:6", None, ACTION_CONGRUENCE, 2),
    (Z2xZ4, None, ACTION_ROW, 3), (Z2xZ4, "(1|2)", ACTION_ROW, 2),
    (Z2xZ4, "(1|2)", ACTION_ROW, 3),
    (EXC4, None, ACTION_ROW, 3), (DBL4, None, ACTION_ROW, 3),
    (DBL4, "(2|0)", ACTION_ROW, 3),
    (F2_EPS, None, ACTION_ROW, 3), (F2_EPS, None, ACTION_CONGRUENCE, 4),
    (F2_EPS, "t", ACTION_ROW, 3),
    # relative, on the BFS path: the n = 2 closure and the z_ij(x, a)
    ("zmod:8", 2, ACTION_ROW, 2), ("zmod:8", 2, ACTION_ROW, 3),
    ("zmod:8", 2, ACTION_CONGRUENCE, 2), ("zmod:12", 2, ACTION_ROW, 2),
    ("zmod:6", 3, ACTION_ROW, 3),
    # relative, on the translation path
    ("zmod:9", 3, ACTION_ROW, 2), ("zmod:9", 3, ACTION_ROW, 4),
    ("zmod:9", 3, ACTION_CONGRUENCE, 2), ("zmod:9", 3, ACTION_CONGRUENCE, 4),
    ("zmod:16", 4, ACTION_ROW, 3), ("zmod:16", 4, ACTION_CONGRUENCE, 4),
]


@pytest.mark.parametrize("spec, gen, action, n", BASIS_CASES)
def test_basis_partition_matches_exact_generators(spec, gen, action, n):
    ring, ideal = _ring_ideal(spec, gen)
    if action == ACTION_ROW:
        part = um_orbit_partition(ring, n, ideal)
    else:
        part = alt_orbit_partition(ring, ideal, n)
    exact = elementary_generators(ring, n, ideal)
    ref = orbit_bfs(ring, part.states, action, exact)
    assert (part.ids, part.reps) == (ref.ids, ref.reps)
    moves = elementary_generators(ring, n, ideal, basis=True)
    assert part.meta["generators"] == len(moves)
    relative = ideal is not None and not ideal.contains(ring.one)
    translation = relative and ideal.products_vanish()
    assert ("fast_path" in part.meta) == translation
    if part.orbit_sizes()[0] > 1:
        # without its first state the first orbit is cut, which is refused
        with pytest.raises(VerificationFailed, match="left the object set"):
            _partition(ring, part.states[1:], action, n, ideal)


F2xF2 = '{"kind":"product","factors":["f2","f2"]}'
F2xF3 = '{"kind":"product","factors":["f2","f3"]}'
CYCLE_RINGS = ["f2", "f3", "f4", "zmod:4", "zmod:6", F2xF2, F2xF3]
CYCLE_CASES = ([(spec, ACTION_ROW, n) for spec in CYCLE_RINGS for n in (3, 4)]
               + [(spec, ACTION_CONGRUENCE, 4) for spec in CYCLE_RINGS]
               + [("f8", ACTION_ROW, 3)])


def _cycle_faults(ring, n):
    """The absolute basis set at n >= 3 and two planted faults: the open
    chain (no e_n1(1)) and the bare cycle (no e_12(b), b != 1)."""
    moves = elementary_generators(ring, n, basis=True)
    chain = [g for g in moves if g.token != Elem(n, 1, ring.one)]
    cycle = [g for g in moves if g.a == ring.one]
    return moves, chain, cycle


@pytest.mark.parametrize("spec, action, n", CYCLE_CASES)
def test_cycle_moves_match_exact_generators(spec, action, n):
    ring = parse_ring(spec)
    moves, chain, cycle = _cycle_faults(ring, n)
    basis = unit_ideal(ring).basis()
    assert len(moves) == n + len([b for b in basis if b != ring.one])
    if action == ACTION_ROW:
        part = um_orbit_partition(ring, n)
    else:
        part = alt_orbit_partition(ring, None, n)
    exact = orbit_bfs(ring, part.states, action, elementary_generators(ring, n))
    assert (part.ids, part.reps) == (exact.ids, exact.reps)
    # without the closing move the chain is unitriangular, so it splits
    split = orbit_bfs(ring, part.states, action, chain)
    assert split.norbits > exact.norbits
    # the bare cycle moves by the multiples of 1 only: it splits f4, f8
    # and f2 x f2, and is all it takes where 1 spans R, as over f2 x f3
    bare = orbit_bfs(ring, part.states, action, cycle)
    if len(additive_span(ring.zero, ring.add, [ring.one])) < len(ring.elements()):
        assert bare.norbits > exact.norbits
    else:
        assert (bare.ids, bare.reps) == (exact.ids, exact.reps)


def test_cycle_moves_match_exact_generators_on_padded_seeds():
    # at size 6, from the size-4 universe over f2 padded with chi_1: the
    # n-cycle closes the exact set's orbit, which holds every padded seed
    pad = chi_n(F2, 1)
    seeds = _states(F2, ACTION_CONGRUENCE, (orth_sum(RingMatrix(F2, 4, 4, m), pad).entries
                                            for m in alt_orbit_partition(F2, None, 4).objects))
    tables = F2.compile()
    moves, chain, _ = _cycle_faults(F2, 6)

    def closure(gens):
        return _bfs(seeds[0], _compile_moves(tables, ACTION_CONGRUENCE, 6, gens), tables)

    exact = closure(elementary_generators(F2, 6))
    assert closure(moves) == exact
    assert set(seeds) <= exact
    # the open chain misses a padded seed
    assert not set(seeds) <= closure(chain)


def test_basis_moves_are_fewer_where_the_basis_is():
    # the absolute report's moves: the 4-cycle e_12(1), ..., e_41(1) over
    # Z/n, plus e_12(x) over f4 and both e_12(b) over f2 x f2, whose
    # basis (0|1), (1|0) lacks 1
    m9 = zmod(9)
    assert len(elementary_generators(m9, 4)) == 96
    assert len(elementary_generators(m9, 4, basis=True)) == 4
    assert len(elementary_generators(f4(), 4, basis=True)) == 5
    assert len(elementary_generators(parse_ring(F2xF2), 4, basis=True)) == 6
    assert len(elementary_generators(zmod(16), 3, ideal_of(zmod(16), 4),
                                     basis=True)) < \
        len(elementary_generators(zmod(16), 3, ideal_of(zmod(16), 4)))
    # the payloads count the moves searched: e_12(1), e_21(1) over Z/9,
    # and over (2) in Z/4 the basis set, which is the exact set there
    assert alt_orbit_partition(m9, None, 2).meta["generators"] == 2
    assert um_orbit_partition(M4, 3, I24).meta["generators"] == 9


@pytest.mark.parametrize("spec", [f"zmod:{m}" for m in (4, 6, 8, 9, 12, 16, 18, 25, 27)]
                         + ["f4"])
def test_basis_set_is_the_exact_set_where_the_basis_is_not_smaller(spec):
    # a proper ideal whose basis is no smaller than its nonzero members is
    # 0 or {0, x}; there the basis set is the exact set token for token,
    # so partitions may move over the basis set everywhere
    ring = parse_ring(spec)
    ideals = {frozenset(i.members()): i for i in (Ideal(ring, (x,)) for x in ring.elements())
              if not i.contains(ring.one)}
    small = [i for i in ideals.values() if len(i.basis()) >= len(i.members()) - 1]
    assert sorted(len(i.members()) for i in small) in ([1], [1, 2])
    for ideal in small:
        for n in (2, 3, 4, 6):
            assert elementary_generators(ring, n, ideal, basis=True) == \
                elementary_generators(ring, n, ideal), (ideal.members(), n)


@pytest.mark.parametrize("argv", [
    ["report", "vaserstein", "--ring", "f3"],
    ["report", "vaserstein", "--ring", "zmod:4", "--ideal", "2"],
    ["orbit", "alt", "--ring", "zmod:9", "--ideal", "3", "--size", "4"],
    ["orbit", "um", "--ring", "f4", "--n", "3"],
], ids=" ".join)
def test_reports_and_partitions_build_only_basis_sets(monkeypatch, capsys, argv):
    import symwitt.orbits as orbits
    from symwitt.cli import main
    build, calls = orbits.elementary_generators, []

    def spy(ring, n, ideal=None, basis=False):
        calls.append(basis)
        return build(ring, n, ideal, basis)

    monkeypatch.setattr(orbits, "elementary_generators", spy)
    assert main(argv) == 0
    capsys.readouterr()
    assert calls and all(calls)


def _exact_only(monkeypatch):
    """Make the module build the exact set wherever it asks for the basis;
    returns the basis flags of the calls made through the patch."""
    import symwitt.orbits as orbits
    build, calls = orbits.elementary_generators, []

    def exact(ring, n, ideal=None, basis=False):
        calls.append(basis)
        return build(ring, n, ideal)

    monkeypatch.setattr(orbits, "elementary_generators", exact)
    return calls


# (ring, ideal generator, sampled row pairs or None for every pair)
@pytest.mark.parametrize("spec, gen, sample", [
    ("f3", None, None), ("f4", None, 200), ("zmod:4", 2, 40),
])
def test_row_searches_match_exact_generators(monkeypatch, spec, gen, sample):
    # absolute rows move over the 3-cycle (and e_12(x) over f4); each side
    # runs on its own handle, which keeps the moves of its first search
    def answers():
        ring, ideal = _ring_ideal(spec, gen)
        rows = enumerate_um(ring, 3, ideal)
        pairs = list(itertools.product(rows, repeat=2))
        if sample is not None:
            pairs = random.Random(12).sample(pairs, sample)
        tails = sorted({r.entries[1:] for r in rows})
        firsts = sorted({r.entries[0] for r in rows})
        if sample is not None:
            tails, firsts = tails[:6], firsts[:3]
        out = [vdk_product_aligned(u, v).entries for u, v in pairs]
        for a, b, t in ((a, b, t) for a in firsts for b in firsts for t in tails):
            try:
                out.append(nice_mult_check(a, b, t, ring, ideal))
            except (NotCompleted, NotRelative) as e:
                out.append(type(e).__name__)
        return out

    fast = answers()
    assert True in fast
    calls = _exact_only(monkeypatch)
    assert answers() == fast
    assert True in calls  # a basis set was asked for and the exact set given


# ---------------------------------------------------------------------------
# compiled moves kept on the ring handle
# ---------------------------------------------------------------------------

def _symbol(ring, entries, gen):
    ideal = unit_ideal(ring) if gen is None else ideal_of(ring, gen)
    return vaserstein_symbol(um_row(ring, entries, ideal))


def test_kept_moves_are_keyed_by_ideal_and_action():
    ring = zmod(4)
    e1 = (1, 0, 0)
    assert find_equivalence_certificate(_symbol(ring, (1, 2, 0), None),
                                        _symbol(ring, e1, None), levels=0)
    # the same handle, now relative to (2): moves by entries in (2) only
    ideal = ideal_of(ring, 2)
    for row in enumerate_um(ring, 3, ideal):
        cert = find_equivalence_certificate(_symbol(ring, row.entries, 2),
                                            _symbol(ring, e1, 2), levels=0)
        assert cert is not None and relative_level(cert.epsilon, ideal)
    # a row search and a congruence search at one size keep their own
    # moves, and no ideal shares the unit ideal's entry
    rows = _search_moves(ring, ACTION_ROW, 4, None)[1]
    congruence = _search_moves(ring, ACTION_CONGRUENCE, 4, None)[1]
    assert rows == _search_moves(zmod(4), ACTION_ROW, 4, None)[1]
    assert congruence == _search_moves(zmod(4), ACTION_CONGRUENCE, 4, None)[1]
    assert _search_moves(ring, ACTION_CONGRUENCE, 4, unit_ideal(ring))[1] is congruence


def test_kept_row_moves_still_meet_the_memory_cap(monkeypatch):
    import symwitt.orbits as orbits
    _search_moves(F3, ACTION_ROW, 3, None)
    monkeypatch.setattr(orbits, "MEMORY_CAP", 26)
    with pytest.raises(BoundExceeded, match=r"3\^3 rows"):
        _search_moves(F3, ACTION_ROW, 3, None)


@pytest.mark.parametrize("spec, gen", [("f2", None), ("zmod:4", 2)])
def test_warmed_certificates_match_fresh_handles(spec, gen):
    warm = parse_ring(spec)
    # warm entries that differ in one part of the key: the row one and the
    # absolute one at size 8, and the same ideal's at size 4
    ideal = None if gen is None else ideal_of(warm, gen)
    _search_moves(warm, ACTION_ROW, 8, ideal)
    _search_moves(warm, ACTION_CONGRUENCE, 8, None)
    _search_moves(warm, ACTION_CONGRUENCE, 4, ideal)
    for row in enumerate_um(warm, 3, ideal):
        tokens = []
        for ring in (warm, parse_ring(spec)):
            cert = find_equivalence_certificate(_symbol(ring, row.entries, gen),
                                                _symbol(ring, (1, 0, 0), gen), levels=0)
            tokens.append(cert.epsilon.tokens)
        assert tokens[0] == tokens[1], row.entries


def test_warmed_alignment_matches_fresh_handles():
    warm = f4()
    _search_moves(warm, ACTION_ROW, 2, None)
    _search_moves(warm, ACTION_CONGRUENCE, 3, None)
    rows = [r.entries for r in enumerate_um(warm, 3)]
    rng = random.Random(27)
    for u, v in (rng.sample(rows, 2) for _ in range(20)):
        fresh = f4()
        assert vdk_product_aligned(um_row(warm, u), um_row(warm, v)).entries == \
            vdk_product_aligned(um_row(fresh, u), um_row(fresh, v)).entries


def test_certificate_searches_build_moves_once_per_key(monkeypatch):
    import symwitt.orbits as orbits
    build, calls = orbits.elementary_generators, []

    def spy(ring, n, ideal=None, basis=False):
        calls.append((n, ideal))
        return build(ring, n, ideal, basis)

    monkeypatch.setattr(orbits, "elementary_generators", spy)
    ring = zmod(4)
    # every question brings its own Ideal objects, as the queries do
    relative = [r.entries for r in enumerate_um(ring, 3, ideal_of(ring, 2))]
    absolute = [(0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (3, 0, 0), (1, 1, 1)]
    for rows, gen in ((relative, 2), (absolute, None)):
        for entries in rows:
            assert find_equivalence_certificate(_symbol(ring, entries, gen),
                                                _symbol(ring, (1, 0, 0), gen), levels=0)
    assert len(relative) + len(absolute) == 15
    assert calls == [(8, ideal_of(ring, 2)), (8, unit_ideal(ring))]


@pytest.mark.parametrize("spec, gen, size", [
    ("f2", None, 4), ("f3", None, 4), ("zmod:4", None, 4),
    ("zmod:8", 4, 4), ("zmod:9", 3, 4),
])
def test_alt_partition_objects_are_the_universe(spec, gen, size):
    ring, ideal = _ring_ideal(spec, gen)
    part = alt_orbit_partition(ring, ideal, size)
    universe = witt_universe(ring, ideal if ideal is not None else unit_ideal(ring), size)
    assert part.objects == tuple(m.entries for m in universe)
    assert [part.id_of(m.entries) for m in universe] == list(part.ids)


# ---------------------------------------------------------------------------
# the report on table states against the payload oracles
# ---------------------------------------------------------------------------

TABLE_CASES = [
    ("f2", None), ("f3", None), ("f4", None), ("f5", None), ("zmod:4", None),
    ("zmod:6", None), ("zmod:8", None), ("zmod:9", None), (F2xF3, None),
    (F2_EPS, None), ("zmod:4", 2), ("zmod:8", 4), ("zmod:9", 3), ("zmod:6", 3),
]


@pytest.mark.parametrize("spec, gen", TABLE_CASES)
def test_table_unimodularity_matches_completion_search(spec, gen):
    # Z/6 and f2 x f3 are not local: (2, 3, 0) and ((1|0), (0|1), 0) are
    # unimodular without a unit entry
    ring, ideal = _ring_ideal(spec, gen)
    relative = ideal is not None and not ideal.contains(ring.one)
    pool = ideal.members() if relative else ring.elements()
    for n in (1, 2, 3):
        candidates = itertools.product(pool, repeat=n)
        if relative:
            candidates = ((ring.add(ring.one, c[0]),) + c[1:] for c in candidates)
        want = tuple(um_row(ring, c, ideal) for c in candidates
                     if _finite_complete(ring, c) is not None)
        assert enumerate_um(ring, n, ideal) == want


@pytest.mark.parametrize("spec, gen", TABLE_CASES)
def test_table_symbols_match_payload_symbols(spec, gen):
    ring, ideal = _ring_ideal(spec, gen)
    ideal = ideal if ideal is not None else unit_ideal(ring)
    tables = ring.compile()
    rows = enumerate_um(ring, 3, ideal)
    states = _symbol_states(tables, ideal, [_encode(tables, ACTION_ROW, 3, r.entries)
                                            for r in rows])
    for row, state in zip(rows, states):
        assert (_decode(tables, ACTION_CONGRUENCE, 4, state)
                == vaserstein_symbol(row).rep.entries)


def test_enumerate_um_refuses_an_ideal_of_another_ring():
    with pytest.raises(RingMismatch, match="ideal over a different ring"):
        enumerate_um(M4, 3, ideal_of(zmod(8), 4))


@pytest.mark.parametrize("spec, gen", [("f5", None), ("zmod:8", 4)])
def test_report_decodes_only_representatives(monkeypatch, spec, gen):
    import symwitt.orbits as orbits
    ring, ideal = _ring_ideal(spec, gen)
    decoded, decode = [], orbits._decode

    def counting(tables, action, n, state):
        decoded.append(action)
        return decode(tables, action, n, state)

    monkeypatch.setattr(orbits, "_decode", counting)
    report = vaserstein_report(ring, ideal, depth=1)
    universe, rows = report.classes.base, report.rows
    # a representative per symbol orbit and per row orbit, and the table
    # symbol of each row class representative for its payload cross-check
    assert decoded == ([ACTION_CONGRUENCE] * universe.norbits + [ACTION_ROW] * rows.norbits
                       + [ACTION_CONGRUENCE] * rows.norbits)
    assert len(decoded) < len(universe.ids)
    assert "objects" not in vars(universe) and "objects" not in vars(rows)


def test_partition_from_states_decodes_its_objects_on_first_access():
    ring, ideal = zmod(8), ideal_of(zmod(8), 4)
    for part, payloads in (
            (alt_orbit_partition(ring, ideal, 4),
             tuple(m.entries for m in witt_universe(ring, ideal, 4))),
            (um_orbit_partition(ring, 3), tuple(r.entries for r in enumerate_um(ring, 3)))):
        assert "objects" not in vars(part)
        assert part.objects == payloads
        assert "objects" in vars(part)
        assert [part.id_of(p) for p in payloads] == list(part.ids)
