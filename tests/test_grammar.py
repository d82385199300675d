"""The polynomial layer against dense references: one grammar for
univariate, laurent, Rees and X1..Xd polynomials, and their sums and
products computed coefficient by coefficient."""

import itertools

import pytest

from conftest import f4, ideal_of, zmod
from symwitt import (
    DoubleRing,
    ExcisionRing,
    ExtendedReesRing,
    LaurentRing,
    MalformedSpec,
    MultiPoly,
    PolynomialRing,
    ProductRing,
    ReesRing,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=120, deadline=None,
                               derandomize=True, database=None)


def _univariate_rings():
    m8, m9 = zmod(8), zmod(9)
    return [
        PolynomialRing(m9, "X"), PolynomialRing(f4(), "X"),
        LaurentRing(zmod(6), "t"), LaurentRing(f4(), "t"),
        LaurentRing(ProductRing((zmod(2), m9)), "t"),
        ReesRing(m8, ideal_of(m8, 2), "t"),
        ExtendedReesRing(m9, ideal_of(m9, 3), "t"),
    ]


UNIVARIATE = _univariate_rings()


def _coefficients(ring, exp):
    """The coefficients a graded ring allows at t^exp."""
    if ring.kind in ("rees", "extended_rees") and exp >= 1:
        return ring.ideal.power(exp).members()
    return ring.base.elements()


def _dense(ring, lo, picks):
    """{exponent: coefficient} from picks, starting at t^lo."""
    return {lo + k: _pick(_coefficients(ring, lo + k), p) for k, p in enumerate(picks)}


def _pick(choices, p):
    return choices[p % len(choices)]


def _payload(ring, dense):
    """The canonical payload of a dense {exponent: coefficient} map."""
    zero = ring.base.zero
    exps = [e for e, c in dense.items() if c != zero]
    laurent = ring.kind in ("laurent", "extended_rees")
    if not exps:
        return (0, ()) if laurent else ()
    lo = min(exps) if laurent else 0
    coeffs = tuple(dense.get(e, zero) for e in range(lo, max(exps) + 1))
    return (lo, coeffs) if laurent else coeffs


def _dense_add(base, x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = base.add(out.get(e, base.zero), c)
    return out


def _dense_mul(base, x, y):
    out = {}
    for (e1, c1), (e2, c2) in itertools.product(x.items(), y.items()):
        out[e1 + e2] = base.add(out.get(e1 + e2, base.zero), base.mul(c1, c2))
    return out


@SETTINGS
@hypothesis.given(st.sampled_from(range(len(UNIVARIATE))),
                  st.integers(-3, 2), st.lists(st.integers(0, 99), max_size=5),
                  st.integers(-3, 2), st.lists(st.integers(0, 99), max_size=5))
def test_univariate_grammar_and_arithmetic_property(which, lo1, p1, lo2, p2):
    ring = UNIVARIATE[which]
    if ring.kind in ("polynomial", "rees"):
        lo1 = lo2 = 0
    dx, dy = _dense(ring, lo1, p1), _dense(ring, lo2, p2)
    x, y = _payload(ring, dx), _payload(ring, dy)
    assert ring.check(x) == x
    assert ring.parse(ring.fmt(x)) == x
    assert ring.add(x, y) == _payload(ring, _dense_add(ring.base, dx, dy))
    assert ring.mul(x, y) == _payload(ring, _dense_mul(ring.base, dx, dy))
    assert ring.add(x, ring.neg(x)) == ring.zero


MULTI_BASES = [zmod(6), zmod(9), f4(), ProductRing((zmod(2), zmod(3)))]


@SETTINGS
@hypothesis.given(st.sampled_from(range(len(MULTI_BASES))), st.integers(1, 3),
                  st.lists(st.integers(0, 99), max_size=27),
                  st.lists(st.integers(0, 99), max_size=27))
def test_multipoly_grammar_and_arithmetic_property(which, nvars, p1, p2):
    ring = MULTI_BASES[which]
    els = ring.elements()
    box = list(itertools.product(range(3), repeat=nvars))
    dx = {e: _pick(els, p) for e, p in zip(box, p1)}
    dy = {e: _pick(els, p) for e, p in zip(box, p2)}
    f, g = MultiPoly.make(ring, nvars, dx), MultiPoly.make(ring, nvars, dy)
    assert MultiPoly.parse(ring, nvars, f.fmt()) == f
    # dense references over the box of exponents below 5 in every variable
    wide = list(itertools.product(range(5), repeat=nvars))
    add = {e: ring.add(dx.get(e, ring.zero), dy.get(e, ring.zero)) for e in wide}
    mul = {e: ring.zero for e in wide}
    for (e1, c1), (e2, c2) in itertools.product(dx.items(), dy.items()):
        e = tuple(a + b for a, b in zip(e1, e2))
        mul[e] = ring.add(mul[e], ring.mul(c1, c2))
    assert f.add(g) == MultiPoly.make(ring, nvars, add)
    assert f.mul(g) == MultiPoly.make(ring, nvars, mul)


def test_pair_coefficients_wrapped_once_or_twice():
    """A tuple coefficient reads the same with its own parentheses only
    as with the extra pair fmt prints around every coefficient."""
    m8, m9 = zmod(8), zmod(9)
    laurent = LaurentRing(ProductRing((zmod(2), m9)), "t")
    once = laurent.parse("(1|3)+(0|1)*t")
    assert once == laurent.parse("((1|3))+((0|1))*t") == (0, ((1, 3), (0, 1)))
    assert laurent.parse("(1|3)*t^-1-t") == (-1, ((1, 3), (0, 0), (1, 8)))
    for base, text in ((ProductRing((zmod(2), m9)), "(1|3)*X1^2*X2-(0|1)"),
                       (ExcisionRing(m8, ideal_of(m8, 2)), "(1|2)*X1+(3|0)*X2^2"),
                       (DoubleRing(m8, ideal_of(m8, 2)), "(1|3)*X1*X2+(5|5)")):
        f = MultiPoly.parse(base, 2, text)
        twice = text.replace("(", "((").replace(")", "))")
        assert f == MultiPoly.parse(base, 2, twice)
        assert MultiPoly.parse(base, 2, f.fmt()) == f
    # a factor the base rejects either way keeps the unwrapped error
    with pytest.raises(MalformedSpec, match="'1\\|x'"):
        laurent.parse("(1|x)+t")
