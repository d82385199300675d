"""Unimodular rows: completion, theta symbols, vdk product, lifts."""

import itertools
from fractions import Fraction

import pytest

from conftest import Z, ideal_of, zmod
from symwitt import (
    BoundExceeded,
    LaurentRing,
    NoP0Found,
    NotCompleted,
    NotRelative,
    RationalField,
    RingMatrix,
    RingMismatch,
    SizeMismatch,
    TailAlignmentFailed,
    chi_n,
    complete,
    complete_relative,
    congruent_mod_ideal,
    excision_map_f,
    pfaffian,
    relative_level,
    theta,
    theta_independence_cert,
    theta_matrix,
    tilde_row_lift,
    um_row,
    vaserstein_symbol,
    vdk_product,
    verify_equivalence,
    word_eval,
    zero_ideal,
)
from symwitt.umrows import _ext_gcd

M8 = zmod(8)
M9 = zmod(9)


def test_complete():
    assert complete(um_row(Z, (1, 0, 0))) == (1, 0, 0)
    b = complete(um_row(Z, (3, 5, 7)))
    assert b == (2, -1, 0)
    assert um_row(Z, (3, 5, 7)).dot(b) == 1
    assert complete(um_row(zmod(4), (2, 2, 2))) is None


def test_complete_relative():
    ideal = ideal_of(M9, 3)
    e1 = um_row(M9, (1, 0, 0), ideal)
    assert complete_relative(e1).entries == (1, 0, 0)
    v = um_row(M9, (4, 3, 0), ideal)
    a = complete_relative(v)
    assert a.entries == (7, 0, 0)
    assert v.dot(a.entries) == M9.one
    assert ideal.contains(M9.sub(a.entries[0], 1))
    i28 = ideal_of(M8, 2)
    w = um_row(M8, (3, 2, 2), i28)
    aw = complete_relative(w)
    assert w.dot(aw.entries) == M8.one
    assert all(i28.contains(x) for x in aw.entries[1:])


def test_complete_relative_over_z_with_the_zero_ideal():
    # e1 is the one row congruent to e1 modulo 0, and completes to itself
    row = complete_relative(um_row(Z, (1, 0, 0), zero_ideal(Z)))
    assert row.entries == (1, 0, 0) and row.ideal == zero_ideal(Z)


def test_complete_relative_none_without_completion():
    # 4 is 1 mod 3 but not a unit of Z/6, so (4, 0, 0) completes to nothing
    m6 = zmod(6)
    assert complete_relative(um_row(m6, (4, 0, 0), ideal_of(m6, 3))) is None


def test_complete_relative_over_z():
    ideal = ideal_of(Z, 2)
    v = um_row(Z, (3, 2, 0), ideal)
    a = complete_relative(v)
    assert v.dot(a.entries) == 1
    assert (a.entries[0] - 1) % 2 == 0 and all(x % 2 == 0 for x in a.entries[1:])
    # gcd(3, 6, 0) = 3: congruent to e1 mod 2, but not unimodular
    assert complete_relative(um_row(Z, (3, 6, 0), ideal)) is None


def test_complete_over_z_with_negative_gcd():
    # extended Euclid on (-2, -3) ends at -1, so the coefficients flip sign
    assert _ext_gcd(-2, -3)[0] == -1
    v = um_row(Z, (-2, -3))
    assert v.dot(complete(v)) == 1


def test_um_row_validation():
    with pytest.raises(NotRelative):
        um_row(M8, (1, 1, 0), ideal_of(M8, 2))
    with pytest.raises(SizeMismatch):
        um_row(M8, ())


def test_theta_display():
    a = um_row(Z, (1, 0, 0))
    m = theta(a, a)
    assert m.entries == (0, -1, 0, 0,
                         1, 0, 0, 0,
                         0, 0, 0, -1,
                         0, 0, 1, 0)
    assert pfaffian(m) == 1
    with pytest.raises(NotCompleted):
        theta(um_row(Z, (2, 0, 0)), a)


def test_theta_pfaffian_identity():
    # Pf(theta(a, b)) = sum a_i b_i for arbitrary rows, completed or not
    m3 = zmod(3)
    for a in itertools.product(m3.elements(), repeat=3):
        for b in itertools.product(m3.elements(), repeat=3):
            assert pfaffian(theta_matrix(m3, a, b)) == m3.dot(a, b)


def test_theta_independence_cert():
    b = um_row(Z, (3, 5, 7))
    a = um_row(Z, (2, -1, 0))
    c = um_row(Z, (7, -4, 0))
    assert a.dot(b.entries) == 1 and c.dot(b.entries) == 1
    eps = theta_independence_cert(a, c, b)
    assert len(eps.tokens) == 3
    g = word_eval(eps)
    assert theta(c, b).entries == theta(a, b).congruent_by(g).entries
    same = theta_independence_cert(a, a, b)
    assert word_eval(same).entries == RingMatrix.identity(Z, 4).entries


def test_theta_independence_cert_exhaustive_f5():
    m5 = zmod(5)
    b = um_row(m5, (2, 1, 0))
    comps = [a for a in itertools.product(m5.elements(), repeat=3)
             if m5.dot(a, b.entries) == m5.one]
    for a_e, c_e in itertools.islice(itertools.product(comps, comps), 60):
        a, c = um_row(m5, a_e), um_row(m5, c_e)
        eps = theta_independence_cert(a, c, b)
        g = word_eval(eps)
        assert theta(c, b).entries == theta(a, b).congruent_by(g).entries


def test_vaserstein_symbol():
    ideal = ideal_of(M9, 3)
    triv = vaserstein_symbol(um_row(M9, (1, 0, 0), ideal))
    assert pfaffian(triv.rep) == M9.one
    v = um_row(M9, (4, 3, 0), ideal)
    sym = vaserstein_symbol(v)
    assert pfaffian(sym.rep) == M9.one
    assert sym.rep.row(0) == (0, M9.neg(4), M9.neg(3), 0)
    assert sym.witness.signs == (-1, -1)
    assert congruent_mod_ideal(sym.rep, sym.witness.realize(M9), ideal)


def test_vaserstein_symbol_well_defined():
    # two coset completions yield certificate-equal symbols
    ideal = ideal_of(M9, 3)
    v = um_row(M9, (4, 3, 0), ideal)
    a1 = um_row(M9, (7, 0, 0), ideal)
    a2 = um_row(M9, (7, 3, 0), ideal)
    assert v.dot(a1.entries) == v.dot(a2.entries) == M9.one
    eps = theta_independence_cert(a1, a2, v)
    assert relative_level(eps, ideal)
    assert theta(a2, v).entries == theta(a1, v).congruent_by(word_eval(eps)).entries


def test_vdk_product():
    m5 = zmod(5)
    u = um_row(m5, (2, 0, 0))
    v = um_row(m5, (1, 0, 0))
    assert vdk_product(u, v).entries == (2, 0, 0)
    with pytest.raises(SizeMismatch):
        vdk_product(u, um_row(m5, (1, 0)))


def test_vdk_product_refuses_rows_that_do_not_match():
    m5 = zmod(5)
    u = um_row(m5, (2, 0, 0))
    with pytest.raises(RingMismatch, match="rows over different rings"):
        vdk_product(u, um_row(zmod(7), (1, 0, 0)))
    with pytest.raises(RingMismatch, match="rows relative to different ideals"):
        vdk_product(um_row(M9, (1, 3, 0), ideal_of(M9, 3)), um_row(M9, (1, 3, 0)))
    with pytest.raises(TailAlignmentFailed, match="tails differ"):
        vdk_product(u, um_row(m5, (1, 1, 0)))


def test_vdk_no_p0():
    # tail (0, 0) forces a0 * p0 = 1; a0 = 2 has no inverse mod 4
    m4 = zmod(4)
    u = um_row(m4, (2, 1, 0))
    v = um_row(m4, (2, 1, 0))
    with pytest.raises(NoP0Found):
        vdk_product(um_row(m4, (2, 0, 0)), um_row(m4, (2, 0, 0)))
    # but a unit tail entry rescues p0
    assert vdk_product(u, v) is not None


def test_tilde_row_lift():
    i28 = ideal_of(M8, 2)
    e1 = um_row(M8, (1, 0, 0), i28)
    assert tilde_row_lift(e1).entries == ((1, 0), (0, 0), (0, 0))
    v = um_row(M8, (3, 2, 2), i28)
    lifted = tilde_row_lift(v)
    assert lifted.entries == ((1, 2), (0, 2), (0, 2))
    assert lifted.ring.kind == "excision"
    with pytest.raises(NotRelative):
        tilde_row_lift(um_row(M8, (3, 2, 2)))


def test_excision_map_f_round_trip():
    i28 = ideal_of(M8, 2)
    v = um_row(M8, (3, 2, 2), i28)
    back = excision_map_f(tilde_row_lift(v))
    assert back.entries == v.entries
    assert back.ideal == i28


def test_completion_search_refuses_past_the_memory_cap():
    # after the entry 2, the partial sums of (2, 4, 6) over Z/16384 are the
    # 8192 even residues, each tried against all 16384 elements
    with pytest.raises(BoundExceeded,
                       match=r"8192 sums x 16384 pool entries is past the memory cap of 4194304"):
        complete(um_row(zmod(16384), (2, 4, 6)))
    ring = zmod(65536)
    with pytest.raises(BoundExceeded, match=r"32768 sums x 32768 pool entries"):
        complete_relative(um_row(ring, (3, 4, 6), ideal_of(ring, 2)))
    # the cap counts candidates, not ring elements: (2048, 1024, 6) over
    # Z/4096 has at most 4 partial sums, and is not unimodular
    assert complete(um_row(zmod(4096), (2048, 1024, 6))) is None


def test_complete_zero_row_over_q():
    q = RationalField()
    assert complete(um_row(q, (q.zero,) * 3)) is None
    z = q.zero
    assert complete(um_row(q, (z, Fraction(2, 3), z))) == (z, Fraction(3, 2), z)


def test_vdk_p0_over_z_with_a_zero_or_shared_factor_tail():
    # a zero tail leaves p0 = a0^-1, which exists only for a0 = +-1
    assert vdk_product(um_row(Z, (1, 0, 0)), um_row(Z, (1, 0, 0))).entries == (1, 0, 0)
    assert vdk_product(um_row(Z, (-1, 0, 0)), um_row(Z, (1, 0, 0))).entries == (-1, 0, 0)
    with pytest.raises(NoP0Found):
        vdk_product(um_row(Z, (2, 0, 0)), um_row(Z, (3, 0, 0)))
    # gcd(a0, tail) = 2: no a0 * p0 is 1 modulo (4)
    with pytest.raises(NoP0Found):
        vdk_product(um_row(Z, (2, 4, 0)), um_row(Z, (3, 4, 0)))


def test_complete_reads_one_inverse(monkeypatch):
    # the unit shortcut takes the inverse it tested, not a second one
    ring = LaurentRing(zmod(12), "t")
    rows = [um_row(ring, (ring.one, ring.zero, ring.zero)),
            um_row(ring, (ring.parse("3*t"), ring.parse("4*t^-1+9+6*t"), ring.zero))]
    calls = []
    inverse = ring._inverse
    monkeypatch.setattr(ring, "_inverse", lambda a: calls.append(a) or inverse(a))
    for v, asked in zip(rows, (1, 2)):  # 3t is not a unit; the entry after it is
        calls.clear()
        b = complete(v)
        assert ring.dot(v.entries, b) == ring.one
        assert len(calls) == asked
