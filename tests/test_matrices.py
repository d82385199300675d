"""Matrices: Pfaffians, chi forms, congruences, and elementary words."""

import itertools

import pytest

from conftest import Z, f4, ideal_of, rand_alternating, rand_element, rand_word, zmod
from symwitt import (
    BadIndices,
    Conj,
    Elem,
    FormWitness,
    GroupWord,
    IndexOutOfRange,
    Inv,
    NotAlternating,
    OddSize,
    RingMatrix,
    RingMismatch,
    SizeMismatch,
    chi_n,
    chi_of_signs,
    congruent_mod_ideal,
    determinant,
    double_matrix_join,
    double_matrix_split,
    DoubleRing,
    orth_sum,
    pfaffian,
    relative_level,
    token_matrix,
    unit_ideal,
    witt_universe,
    word_eval,
    word_inverse,
)
from symwitt.matrices import _pf_expand


def test_pfaffian_chi():
    for n in range(1, 5):
        assert pfaffian(chi_n(Z, n)) == 1
    assert pfaffian(chi_of_signs(Z, (-1,))) == -1
    assert chi_n(Z, 1).entries == (0, 1, -1, 0)


def test_determinant_int():
    m = RingMatrix.from_rows(Z, [[1, 2], [3, 4]])
    assert determinant(m) == -2
    assert determinant(RingMatrix.identity(Z, 3)) == 1


def test_pfaffian_rejects():
    with pytest.raises(OddSize):
        pfaffian(RingMatrix.zeros(Z, 3, 3))
    with pytest.raises(NotAlternating):
        pfaffian(RingMatrix.identity(Z, 2))


@pytest.mark.parametrize("ring", [zmod(3), zmod(4), f4()])
def test_pfaffian_properties_random(ring, rng):
    for _ in range(40):
        size_a = 2 * rng.randrange(1, 4)
        size_b = 2 * rng.randrange(1, 3)
        a = rand_alternating(rng, ring, size_a)
        b = rand_alternating(rng, ring, size_b)
        assert pfaffian(orth_sum(a, b)) == ring.mul(pfaffian(a), pfaffian(b))
        assert determinant(a) == ring.mul(pfaffian(a), pfaffian(a))


@pytest.mark.parametrize("ring", [zmod(3), zmod(4)])
def test_pfaffian_congruence_invariance(ring, rng):
    # elementary words have determinant 1, so Pf is preserved
    for _ in range(25):
        a = rand_alternating(rng, ring, 4)
        eps = word_eval(rand_word(rng, ring, 4, length=5, conjugated=True))
        assert pfaffian(a.congruent_by(eps)) == pfaffian(a)


# ---------------------------------------------------------------------------
# independent oracles: the Leibniz determinant and the Pfaffian summed over
# perfect matchings, each term signed by the inversions of its permutation
# ---------------------------------------------------------------------------

def _sign(seq) -> int:
    inversions = sum(x > y for k, x in enumerate(seq) for y in seq[k + 1:])
    return -1 if inversions % 2 else 1


def _signed_sum(ring, terms):
    acc = ring.zero
    for sign, factors in terms:
        prod = ring.one
        for x in factors:
            prod = ring.mul(prod, x)
        acc = ring.add(acc, prod if sign == 1 else ring.neg(prod))
    return acc


def _leibniz(m):
    return _signed_sum(m.ring, ((_sign(p), [m.get(i, p[i]) for i in range(m.rows)])
                                for p in itertools.permutations(range(m.rows))))


def _matchings(idx: tuple):
    if not idx:
        yield ()
        return
    for k in range(1, len(idx)):
        for rest in _matchings(idx[1:k] + idx[k + 1:]):
            yield ((idx[0], idx[k]),) + rest


def _pf_matchings(m):
    return _signed_sum(m.ring, ((_sign([x for pair in mt for x in pair]),
                                 [m.get(i, j) for i, j in mt])
                                for mt in _matchings(tuple(range(m.rows)))))


def _table_pf(m):
    tables = m.ring.compile()
    a = [[tables.index[x] for x in m.row(i)] for i in range(m.rows)]
    pf = _pf_expand(a, lambda x, y: tables.add[x][y],
                    lambda x, y: tables.mul[x][y], tables.neg.__getitem__,
                    tables.zero, tables.one)
    return tables.elements[pf((1 << m.rows) - 1)]


def _alternating(ring, size, upper):
    """The alternating matrix with upper triangle `upper`, row-major."""
    rows = [[ring.zero] * size for _ in range(size)]
    for (i, j), x in zip(itertools.combinations(range(size), 2), upper):
        rows[i][j], rows[j][i] = x, ring.neg(x)
    return RingMatrix.from_rows(ring, rows)


def _draw(rng, ring):
    return rng.randrange(-4, 5) if ring == Z else rand_element(rng, ring)


ORACLE_RINGS = [Z, zmod(6), zmod(8), f4()]


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: r.describe())
def test_determinant_matches_leibniz(ring, rng):
    for n in range(7):
        for _ in range(3 if n < 6 else 1):
            m = RingMatrix.from_rows(ring, [[_draw(rng, ring) for _ in range(n)]
                                            for _ in range(n)])
            assert determinant(m) == _leibniz(m)


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: r.describe())
def test_pfaffian_matches_matchings(ring, rng):
    for size in (0, 2, 4, 6):
        for _ in range(6):
            m = _alternating(ring, size, [_draw(rng, ring)
                                          for _ in range(size * (size - 1) // 2)])
            pf = _pf_matchings(m)
            assert pfaffian(m) == pf
            if ring.is_finite:
                assert _table_pf(m) == pf


def test_universe_matches_matchings():
    # with the unit ideal the universe is every alternating matrix of Pf 1
    ring = f4()
    els = ring.elements()
    want = []
    for upper in itertools.product(els, repeat=6):
        m = _alternating(ring, 4, upper)
        if _pf_matchings(m) == ring.one:
            want.append(m.entries)
    got = [m.entries for m in witt_universe(ring, unit_ideal(ring), 4)]
    assert sorted(got) == sorted(want)


def test_word_eval_elem():
    w = GroupWord(Z, 2, (Elem(1, 2, 1),))
    assert word_eval(w).entries == (1, 1, 0, 1)
    two = GroupWord(Z, 2, (Elem(1, 2, 1), Elem(2, 1, 3)))
    assert word_eval(two).entries == (4, 1, 3, 1)


def _dense_token(ring, size, tok, inverse=False):
    """The old dense evaluation, the oracle for word_eval: I + a E_ij
    multiplied with RingMatrix.mul, a conjugate as c core c^-1, and an
    inverse by flipping the sign of every transvection it is made of."""
    if isinstance(tok, Elem):
        m = list(RingMatrix.identity(ring, size).entries)
        m[(tok.i - 1) * size + (tok.j - 1)] = ring.neg(tok.a) if inverse else tok.a
        return RingMatrix(ring, size, size, tuple(m))
    if isinstance(tok, Conj):
        c = c_inv = RingMatrix.identity(ring, size)
        for e in tok.conjugator:
            c = c.mul(_dense_token(ring, size, e))
        for e in reversed(tok.conjugator):
            c_inv = c_inv.mul(_dense_token(ring, size, e, True))
        return c.mul(_dense_token(ring, size, tok.core, inverse)).mul(c_inv)
    return _dense_token(ring, size, tok.token, not inverse)


def _rand_token(rng, ring, size, depth=0):
    """An Elem, a Conj with 0-3 conjugators, or an Inv of any of the three."""
    kind = rng.randrange(3 if depth < 2 else 2)
    if kind == 0:
        return _rand_elem(rng, ring, size)
    if kind == 1:
        return Conj(tuple(_rand_elem(rng, ring, size) for _ in range(rng.randrange(4))),
                    _rand_elem(rng, ring, size))
    return Inv(_rand_token(rng, ring, size, depth + 1))


def _rand_elem(rng, ring, size):
    i, j = rng.sample(range(1, size + 1), 2)
    return Elem(i, j, _draw(rng, ring))


@pytest.mark.parametrize("ring", [Z, zmod(8), f4()], ids=lambda r: r.describe())
def test_word_eval_matches_dense_products(ring, rng):
    for size in (2, 3, 4, 8):
        for _ in range(8):
            tokens = tuple(_rand_token(rng, ring, size) for _ in range(rng.randrange(1, 6)))
            want = RingMatrix.identity(ring, size)
            for tok in tokens:
                dense = _dense_token(ring, size, tok)
                assert token_matrix(ring, size, tok) == dense
                want = want.mul(dense)
            assert word_eval(GroupWord(ring, size, tokens)) == want


def test_conj_token_semantics():
    ring = zmod(7)
    g = Elem(2, 3, 4)
    core = Elem(1, 3, 2)
    got = token_matrix(ring, 3, Conj((g,), core))
    gm = token_matrix(ring, 3, g)
    inv = token_matrix(ring, 3, Elem(2, 3, ring.neg(4)))
    assert got.entries == gm.mul(token_matrix(ring, 3, core)).mul(inv).entries


def test_inv_token_and_word_inverse(rng):
    ring = zmod(9)
    w = rand_word(rng, ring, 3, length=6, conjugated=True)
    prod = word_eval(w).mul(word_eval(word_inverse(w)))
    assert prod.entries == RingMatrix.identity(ring, 3).entries
    e = Elem(1, 2, 5)
    assert token_matrix(ring, 2, Inv(e)).entries == (1, 4, 0, 1)


def test_word_token_validation():
    with pytest.raises(BadIndices):
        word_eval(GroupWord(Z, 2, (Elem(1, 1, 1),)))
    with pytest.raises(IndexOutOfRange):
        word_eval(GroupWord(Z, 2, (Elem(1, 3, 1),)))
    with pytest.raises(SizeMismatch):
        GroupWord(Z, 0, ())


@pytest.mark.parametrize("tok, error", [
    (Conj((Elem(1, 1, 1), Elem(1, 2, 9)), Elem(1, 2, 1)), BadIndices),
    (Conj((Elem(1, 3, 1), Elem(1, 2, 9)), Elem(1, 2, 1)), IndexOutOfRange),
    (Conj((Elem(1, 2, 9),), Elem(1, 1, 1)), RingMismatch),
], ids=["indices", "range", "payload"])
def test_conj_checks_its_transvections_in_order(tok, error):
    # the first faulty transvection of c core c^-1 decides the error,
    # though a later conjugator's payload is checked when it is inverted
    with pytest.raises(error):
        token_matrix(zmod(4), 2, tok)


def test_relative_level():
    ideal = ideal_of(zmod(8), 2)
    good = GroupWord(zmod(8), 3, (Elem(1, 2, 2), Conj((Elem(2, 3, 5),), Elem(3, 1, 4))))
    assert relative_level(good, ideal)
    bad = GroupWord(zmod(8), 3, (Elem(1, 2, 1),))
    assert not relative_level(bad, ideal)


def test_relative_words_stay_in_level(rng):
    ring = zmod(8)
    ideal = ideal_of(ring, 2)
    for _ in range(20):
        w = rand_word(rng, ring, 3, ideal=ideal, length=4, conjugated=True)
        assert relative_level(w, ideal)
        assert congruent_mod_ideal(word_eval(w), RingMatrix.identity(ring, 3), ideal)


def test_congruent_mod_ideal():
    ideal = ideal_of(Z, 2)
    assert congruent_mod_ideal(chi_n(Z, 2), chi_n(Z, 2).neg(), ideal)
    assert not congruent_mod_ideal(chi_n(Z, 1), RingMatrix.zeros(Z, 2, 2), ideal_of(Z, 3))
    ident = RingMatrix.identity(Z, 3)
    assert congruent_mod_ideal(ident, ident, ideal_of(Z, 0))


def test_chi_and_forms():
    m = chi_of_signs(Z, (1, -1))
    assert m.get(0, 1) == 1 and m.get(2, 3) == -1
    w = FormWitness((1, -1, 1))
    assert w.n == 3
    assert w.realize(Z) == orth_sum(m, chi_n(Z, 1))
    with pytest.raises(BadIndices):
        FormWitness((1, 0))


def test_orth_sum_shapes():
    a = chi_n(Z, 1)
    s = orth_sum(a, a)
    assert s.rows == 4 and s.get(2, 3) == 1 and s.get(0, 2) == 0
    with pytest.raises(SizeMismatch):
        orth_sum(a, RingMatrix.zeros(Z, 2, 3))


def test_double_matrix_split_join():
    base = zmod(8)
    dbl = DoubleRing(base, ideal_of(base, 2))
    m = RingMatrix.from_rows(dbl, [[(5, 3), (0, 0)], [(2, 2), (1, 1)]])
    first, second = double_matrix_split(m)
    assert first.entries == (5, 0, 2, 1)
    assert second.entries == (3, 0, 2, 1)
    back = double_matrix_join(first, second, dbl)
    assert back.entries == m.entries


def test_inv_tokens_invert_and_keep_their_level():
    ring = zmod(8)
    ideal = ideal_of(ring, 2)
    core = Conj((Elem(2, 3, 5),), Elem(3, 1, 4))
    w = GroupWord(ring, 3, (Inv(Elem(1, 2, 2)), Inv(core)))
    inv = word_inverse(w)
    assert inv.tokens == (core, Elem(1, 2, 2))
    assert word_eval(w).mul(word_eval(inv)) == RingMatrix.identity(ring, 3)
    assert relative_level(w, ideal)
    assert not relative_level(GroupWord(ring, 3, (Inv(Inv(Elem(1, 2, 1))),)), ideal)
