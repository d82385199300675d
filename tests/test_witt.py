"""Witt symbols: witnesses, certificates, the split sequence, roots."""

import pytest

from conftest import Z, ideal_of, rand_alternating, rand_word, zmod
from symwitt import (
    Elem,
    EquivalenceCertificate,
    GroupWord,
    MalformedSpec,
    MultiPoly,
    NonInvertibleIndex,
    NotAUnit,
    NotInC,
    NotUnipotent,
    RingMatrix,
    RingMismatch,
    FormWitness,
    VerificationFailed,
    chi_n,
    compose_certificates,
    determinant,
    identity_certificate,
    make_witt_symbol,
    map_i,
    map_p1,
    orth_sum,
    pf_unit,
    pfaffian,
    split_section,
    standard_form_witness,
    standard_forms,
    symmetric_certificate,
    tilde_lift_alt,
    unipotent_root,
    unit_ideal,
    verify_equivalence,
    witt_product,
    word_eval,
)

M8 = zmod(8)
I2_M8 = ideal_of(M8, 2)


def _perturb(ring, ideal, size, pairs):
    """chi_size plus ideal-entry bumps at the given (i, j) positions."""
    m = [list(chi_n(ring, size // 2).row(i)) for i in range(size)]
    for (i, j, v) in pairs:
        m[i][j] = ring.add(m[i][j], v)
        m[j][i] = ring.neg(m[i][j])
    return RingMatrix.from_rows(ring, m)


def test_standard_form_witness_scan():
    # chi_r^{s1} (+) chi_{n-r}^{s2}: the two-run sign vectors, each once
    assert [f.signs for f in standard_forms(3)] == [
        (1, 1, 1), (-1, -1, -1), (1, -1, -1), (-1, 1, 1), (1, 1, -1), (-1, -1, 1)]
    w = standard_form_witness(chi_n(Z, 2), ideal_of(Z, 2))
    assert w == FormWitness((1, 1))
    assert standard_form_witness(chi_n(Z, 2).neg(), ideal_of(Z, 5)) == FormWitness((-1, -1))
    bumped = _perturb(Z, None, 4, [(0, 2, 2)])
    assert standard_form_witness(bumped, ideal_of(Z, 2)) is not None
    mixed = orth_sum(chi_n(Z, 1), chi_n(Z, 1).scale(3))
    w2 = standard_form_witness(mixed, ideal_of(Z, 2))
    assert w2 is not None and abs(w2.signs[1]) == 1
    assert standard_form_witness(chi_n(Z, 1).scale(2), ideal_of(Z, 5)) is None


def test_make_witt_symbol_errors():
    ideal = ideal_of(Z, 2)
    with pytest.raises(VerificationFailed):
        make_witt_symbol(ideal, RingMatrix.identity(Z, 2))
    with pytest.raises(NotAUnit):
        make_witt_symbol(ideal, chi_n(Z, 1).scale(2))
    skew = _perturb(Z, None, 4, [(0, 2, 1)])  # invertible, no witness mod 5
    with pytest.raises(VerificationFailed):
        make_witt_symbol(ideal_of(Z, 5), skew)
    with pytest.raises(RingMismatch):
        make_witt_symbol(ideal, chi_n(zmod(3), 1))


def test_verify_reflexive():
    x = make_witt_symbol(I2_M8, chi_n(M8, 2))
    assert verify_equivalence(x, x, identity_certificate(x, x))


def test_verify_construct_then_check(rng):
    for _ in range(10):
        alpha = make_witt_symbol(I2_M8, _perturb(M8, I2_M8, 4, [(0, 2, 2), (1, 3, 6)]))
        eps = rand_word(rng, M8, 4, ideal=I2_M8, length=3, conjugated=True)
        beta_rep = alpha.rep.congruent_by(word_eval(eps))
        beta = make_witt_symbol(I2_M8, beta_rep)
        cert = EquivalenceCertificate(0, GroupWord(eps.ring, 8, eps.tokens))
        assert verify_equivalence(beta, alpha, cert)
        assert verify_equivalence(alpha, beta, symmetric_certificate(beta, alpha, cert))


def test_verify_rejects_non_relative_word():
    x = make_witt_symbol(ideal_of(Z, 2), chi_n(Z, 2))
    cert = EquivalenceCertificate(0, GroupWord(Z, 8, (Elem(1, 2, 1),)))
    assert not verify_equivalence(x, x, cert)


def test_verify_refuses_pieces_that_do_not_match():
    x = make_witt_symbol(I2_M8, chi_n(M8, 1))
    y = make_witt_symbol(ideal_of(M8, 4), chi_n(M8, 1))
    with pytest.raises(RingMismatch, match="symbols relative to different ideals"):
        verify_equivalence(x, y, EquivalenceCertificate(0, GroupWord(M8, 4, ())))
    with pytest.raises(RingMismatch, match="certificate pieces live over different rings"):
        verify_equivalence(x, x, EquivalenceCertificate(0, GroupWord(zmod(4), 4, ())))
    with pytest.raises(MalformedSpec, match="stabilization level must be >= 0, got -1"):
        EquivalenceCertificate(-1, GroupWord(M8, 4, ()))


def test_verify_rejects_word_of_wrong_size():
    # chi_2 against itself needs a word of size 8 at t = 0
    x = make_witt_symbol(I2_M8, chi_n(M8, 2))
    cert = EquivalenceCertificate(0, GroupWord(M8, 4, ()))
    assert not verify_equivalence(x, x, cert)


def test_neutrality_padding():
    x = make_witt_symbol(I2_M8, chi_n(M8, 1))
    for k in range(1, 4):
        y = make_witt_symbol(I2_M8, orth_sum(x.rep, chi_n(M8, k)))
        assert verify_equivalence(x, y, identity_certificate(x, y))


def test_certificate_composition(rng):
    ring = zmod(3)
    ideal = unit_ideal(ring)
    for _ in range(5):
        a = rand_alternating(rng, ring, 4)
        while not ring.is_unit(determinant(a)):
            a = rand_alternating(rng, ring, 4)
        alpha = make_witt_symbol(ideal, a)
        e1 = rand_word(rng, ring, 4, length=3)
        e2 = rand_word(rng, ring, 4, length=3)
        beta = make_witt_symbol(ideal, alpha.rep.congruent_by(word_eval(e1)))
        gamma = make_witt_symbol(ideal, beta.rep.congruent_by(word_eval(e2)))
        c1 = EquivalenceCertificate(0, GroupWord(e1.ring, 8, e1.tokens))
        c2 = EquivalenceCertificate(0, GroupWord(e2.ring, 8, e2.tokens))
        assert verify_equivalence(beta, alpha, c1)
        assert verify_equivalence(gamma, beta, c2)
        composed = compose_certificates(gamma, beta, alpha, c2, c1)
        assert verify_equivalence(gamma, alpha, composed)


def test_certificate_soundness(rng):
    # a verified certificate forces equal pfaffians
    alpha = make_witt_symbol(I2_M8, _perturb(M8, I2_M8, 4, [(0, 2, 4)]))
    eps = rand_word(rng, M8, 4, ideal=I2_M8, length=4)
    beta = make_witt_symbol(I2_M8, alpha.rep.congruent_by(word_eval(eps)))
    cert = EquivalenceCertificate(0, GroupWord(eps.ring, 8, eps.tokens))
    assert verify_equivalence(beta, alpha, cert)
    assert pfaffian(alpha.rep) == pfaffian(beta.rep)


def test_witt_product():
    x = make_witt_symbol(I2_M8, chi_n(M8, 1))
    y = make_witt_symbol(I2_M8, chi_n(M8, 2))
    prod = witt_product(x, y)
    assert prod.rep.entries == chi_n(M8, 3).entries
    assert pf_unit(prod) == M8.one
    other = make_witt_symbol(ideal_of(M8, 4), chi_n(M8, 1))
    with pytest.raises(RingMismatch):
        witt_product(x, other)


def test_pf_unit_and_split_section():
    s = split_section(3, I2_M8)
    assert s.rep.entries == (0, 3, 5, 0)
    assert pf_unit(s) == 3
    assert split_section(1, I2_M8).rep.entries == chi_n(M8, 1).entries
    with pytest.raises(NotInC):
        split_section(2, ideal_of(Z, 2))
    with pytest.raises(NotInC):
        split_section(3, ideal_of(M8, 4))  # unit but 3 - 1 not in (4)
    # section then pfaffian is the identity on units congruent to 1
    for a in (1, 3, 5, 7):
        assert pf_unit(split_section(a, I2_M8)) == a


def test_tilde_lift_alt():
    # chi_1 + 2(E12 - E21); over Z/8 so that det = 9 stays invertible
    rep = _perturb(M8, I2_M8, 2, [(0, 1, 2)])
    x = make_witt_symbol(I2_M8, rep)
    lift = tilde_lift_alt(x)
    assert lift.get(0, 1) == (1, 2)
    assert lift.ring.kind == "excision"
    assert lift.is_alternating()
    # retract entrywise recovers the representative
    back = [[lift.ring.retract(lift.get(i, j)) for j in range(2)] for i in range(2)]
    assert RingMatrix.from_rows(M8, back).entries == rep.entries
    plain = make_witt_symbol(I2_M8, chi_n(M8, 2))
    assert all(e[1] == 0 for e in tilde_lift_alt(plain).entries)


def test_map_i_map_p1():
    rep = _perturb(M8, I2_M8, 2, [(0, 1, 2)])
    x = make_witt_symbol(I2_M8, rep)
    pair = map_i(x)
    assert pair.ring.kind == "double"
    assert pair.get(0, 1) == (1, 3)
    assert map_p1(pair).entries == x.witness.realize(M8).entries
    diag = map_i(make_witt_symbol(I2_M8, chi_n(M8, 2)))
    assert all(a == b for a, b in diag.entries)
    with pytest.raises(RingMismatch):
        map_p1(chi_n(M8, 2))


def test_unipotent_root_examples():
    m9 = zmod(9)
    assert unipotent_root(RingMatrix.identity(m9, 3), 2).entries == \
        RingMatrix.identity(m9, 3).entries
    gamma = RingMatrix.from_rows(m9, [[1, 3], [0, 1]])
    delta = unipotent_root(gamma, 2)
    assert delta.entries == (1, 6, 0, 1)
    assert delta.mul(delta).entries == gamma.entries
    with pytest.raises(NonInvertibleIndex):
        unipotent_root(RingMatrix.from_rows(zmod(4), [[1, 2], [0, 1]]), 2)
    with pytest.raises(NotUnipotent):
        unipotent_root(RingMatrix.from_rows(m9, [[2, 0], [0, 2]]), 2)


def test_unipotent_root_random(rng):
    m25 = zmod(25)
    for _ in range(10):
        n = rng.choice((2, 3))
        raw = [[m25.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                raw[i][j] = m25.mul(5, rng.randrange(5))
        gamma = RingMatrix.identity(m25, n).add(RingMatrix.from_rows(m25, raw))
        for m in (2, 3, 4):
            delta = unipotent_root(gamma, m)
            acc = RingMatrix.identity(m25, n)
            for _ in range(m):
                acc = acc.mul(delta)
            assert acc.entries == gamma.entries
