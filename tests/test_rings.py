"""Ring tower: axioms, grammar round-trips, ideals, excision/double/Rees."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import Z, f4, ideal_of, zmod
from symwitt import (
    BoundExceeded,
    DoubleRing,
    ExcisionRing,
    ExtendedReesRing,
    Ideal,
    IntegerRing,
    LaurentRing,
    MalformedSpec,
    ModularRing,
    NotAUnit,
    PolynomialRing,
    ProductRing,
    QuotientRing,
    RationalField,
    ReesRing,
    Ring,
    RingMismatch,
    UndecidableMembership,
    complete,
    double_to_excision,
    excision_to_double,
    rees_contains,
    um_row,
    unit_ideal,
    parse_ring,
    zero_ideal,
)


def check_ring_axioms(ring):
    els = ring.elements()
    assert len(els) <= 16
    for a in els:
        assert ring.add(a, ring.zero) == a
        assert ring.mul(a, ring.one) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
    for a, b in itertools.product(els, repeat=2):
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, b) == ring.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        lhs = ring.mul(a, ring.add(b, c))
        assert lhs == ring.add(ring.mul(a, b), ring.mul(a, c))


M4 = zmod(4)
M8 = zmod(8)
M9 = zmod(9)


@pytest.mark.parametrize("ring", [
    zmod(2),
    M4,
    M8,
    f4(),
    ProductRing((zmod(2), zmod(2))),
    ExcisionRing(M4, ideal_of(M4, 2)),
    DoubleRing(M4, ideal_of(M4, 2)),
])
def test_axioms_exhaustive(ring):
    check_ring_axioms(ring)


def test_sizes():
    assert zmod(2).size == 2
    assert f4().size == 4
    assert ProductRing((zmod(2), zmod(2))).size == 4
    assert ExcisionRing(M4, ideal_of(M4, 2)).size == 8
    assert DoubleRing(M4, ideal_of(M4, 2)).size == 8


def test_modular_basics():
    assert M9.inv(4) == 7
    assert M9.scalar_int(13) == 4
    assert not M9.is_unit(3)
    assert M8.is_nilpotent(2)
    assert not M8.is_nilpotent(3)
    with pytest.raises(NotAUnit):
        M8.inv(2)
    with pytest.raises(MalformedSpec):
        ModularRing(1)


def test_integers_and_rationals():
    assert Z.scalar_int(-3) == -3
    assert not Z.is_finite
    q = RationalField()
    x = q.parse("3/4")
    assert q.fmt(q.mul(x, q.inv(x))) == "1"
    assert q.fmt(q.add(x, x)) == "3/2"
    assert (q.spec_key(), q.describe(), Z.spec_key()) == (("rationals",), "Q", ("integers",))
    assert q.scalar_int(-3) == q.parse("-3") and q.check(x) is x
    assert q.is_unit(x) and not q.is_unit(q.zero)
    assert q.is_nilpotent(q.zero) and not q.is_nilpotent(x)
    with pytest.raises(NotAUnit):
        q.inv(q.zero)
    with pytest.raises(NotAUnit):
        Z.inv(2)
    with pytest.raises(RingMismatch):
        q.check(3)
    with pytest.raises(MalformedSpec):
        q.parse("3/0")
    with pytest.raises(MalformedSpec):
        q.parse("x")
    # handles compare by kind: equal to their own, unequal to each other
    assert q == RationalField() and hash(q) == hash(RationalField())
    assert Z == IntegerRing() and hash(Z) == hash(IntegerRing())
    assert q != Z and Z != q and len({q, Z, RationalField(), IntegerRing()}) == 2


def test_polynomial_grammar():
    p = PolynomialRing(Z, "t")
    x = p.parse("3*t^2+1")
    assert x == (1, 0, 3)
    assert p.fmt(x) == "3*t^2+1"
    assert p.parse(p.fmt(x)) == x
    y = p.mul(p.parse("t+1"), p.parse("t-1"))
    assert y == (-1, 0, 1)
    with pytest.raises(MalformedSpec):
        PolynomialRing(Z, "2bad")


def test_quotient_int_mode():
    r = QuotientRing(Z, (12,))
    assert r.size == 12
    assert r.mul(r.scalar_int(5), r.scalar_int(5)) == r.one
    with pytest.raises(MalformedSpec):
        QuotientRing(Z, (0,))


def test_compiled_quotient_checks_like_uncompiled(monkeypatch):
    # a compiled handle reads canonical form off its element index, so it
    # must accept and refuse exactly what reduction does, without dividing
    import symwitt.rings as rings
    plain, compiled = f4(), f4()
    compiled.compile()
    payloads = [*compiled.elements(), (0, 0, 1), (1, 1, 1), (1, 0), (2,), [1], "x", 1]

    def outcome(ring, a):
        try:
            return ring.check(a)
        except RingMismatch as e:
            return str(e)

    want = [outcome(plain, a) for a in payloads]
    assert want[:4] == list(compiled.elements())
    assert want[4] == "payload (0, 0, 1) is not in canonical form"

    def no_division(*args):
        raise AssertionError("a compiled handle divided to check a payload")

    monkeypatch.setattr(rings, "_poly_divmod", no_division)
    assert [outcome(compiled, a) for a in payloads] == want


def test_laurent_arithmetic():
    l = LaurentRing(Z, "t")
    x = l.parse("t+t^-1")
    sq = l.mul(x, x)
    assert sq == (-2, (1, 0, 2, 0, 1))
    assert l.parse(l.fmt(sq)) == sq


@pytest.mark.parametrize("ring", [
    zmod(5),
    f4(),
    ExcisionRing(M4, ideal_of(M4, 2)),
    DoubleRing(M8, ideal_of(M8, 2)),
    ProductRing((zmod(2), zmod(3))),
])
def test_grammar_round_trip_exhaustive(ring):
    for x in ring.elements():
        assert ring.parse(ring.fmt(x)) == x


def test_excision_multiplication():
    exc = ExcisionRing(Z, ideal_of(Z, 2))
    prod = exc.mul((3, 2), (1, 4))
    # (rs, rj + si + ij) = (3, 12 + 2 + 8)
    assert prod == (3, 22)
    assert exc.one == (1, 0)


def test_double_membership():
    dbl = DoubleRing(M8, ideal_of(M8, 2))
    dbl.check((5, 3))
    with pytest.raises(RingMismatch):
        dbl.check((5, 2))


def test_double_to_excision_iso():
    ideal = ideal_of(M8, 2)
    dbl = DoubleRing(M8, ideal)
    exc, img = double_to_excision(dbl, (5, 3))
    assert img == (3, 2)
    assert excision_to_double(exc, img)[1] == (5, 3)
    # diagonal pairs map to zero ideal part
    for a in M8.elements():
        assert double_to_excision(dbl, (a, a))[1] == (a, 0)
    # exhaustive homomorphism + bijection check
    seen = set()
    for x in dbl.elements():
        _, fx = double_to_excision(dbl, x)
        seen.add(fx)
        assert excision_to_double(exc, fx)[1] == x
        for y in dbl.elements():
            _, fy = double_to_excision(dbl, y)
            assert double_to_excision(dbl, dbl.add(x, y))[1] == exc.add(fx, fy)
            assert double_to_excision(dbl, dbl.mul(x, y))[1] == exc.mul(fx, fy)
    assert len(seen) == dbl.size == exc.size


def test_ideal_closure():
    ideal = ideal_of(M8, 2)
    assert ideal.members() == (0, 2, 4, 6)
    again = Ideal(M8, ideal.members())
    assert again.members() == ideal.members()
    assert ideal.contains(6)
    assert not ideal.contains(3)



def _worklist_members(ideal):
    """The quadratic closure that enumerated ideals before the linear
    span, kept as the reference: add every new element to every member."""
    ring = ideal.ring
    seeds = {ring.mul(r, g) for g in ideal.gens for r in ring.elements()}
    group = {ring.zero}
    for s in seeds:
        worklist = [s]
        while worklist:
            x = worklist.pop()
            if x not in group:
                group.add(x)
                worklist.extend(ring.add(x, y) for y in tuple(group))
    order = {x: k for k, x in enumerate(ring.elements())}
    return tuple(sorted(group, key=order.__getitem__))


def _ideal_cases():
    prod = ProductRing((M4, zmod(6)))
    exc = ExcisionRing(M8, ideal_of(M8, 2))
    dbl = DoubleRing(M8, ideal_of(M8, 2))
    quo = QuotientRing(zmod(24), (8,))
    f9 = parse_ring("f9")
    return [
        (M8, (2,)), (M8, (0,)), (M8, (3,)), (zmod(12), (4, 6)), (zmod(36), (6, 4)),
        (zmod(30), (6, 10, 15)), (zmod(24), (8, 12)), (zmod(27), (9, 18)),
        (f4(), (f4().zero,)), (f4(), (f4().parse("x"),)),
        (f9, (f9.zero,)), (f9, (f9.parse("x+1"),)),
        (prod, ((2, 0),)), (prod, ((2, 3), (0, 2))), (prod, ((0, 3), (2, 0))),
        (exc, ((0, 2),)), (exc, ((2, 0),)), (exc, ((0, 4), (4, 0))),
        (dbl, ((2, 2),)), (dbl, ((2, 0), (6, 6))), (dbl, ((4, 0),)),
        (quo, (2,)), (quo, (4, 6)), (quo, (3,)),
    ]


@pytest.mark.parametrize("ring, gens", _ideal_cases(),
                         ids=lambda v: v.describe() if hasattr(v, "describe") else repr(v))
def test_members_match_worklist_reference(ring, gens):
    ideal = Ideal(ring, gens)
    assert ideal.members() == _worklist_members(ideal)
    if ideal.has_unit_generator():
        assert ideal.members() is ring.elements()  # no span is built


@pytest.mark.parametrize("base, moduli", [
    (M8, (4,)), (zmod(12), (4, 6)), (zmod(36), (6, 4)),
    (ProductRing((M4, zmod(6))), ((2, 3),)),
    (ProductRing((M8, zmod(9))), ((4, 3), (2, 0))),
], ids=repr)
def test_coset_quotient_reps_are_first_in_enumeration_order(base, moduli):
    quo = QuotientRing(base, moduli)
    ideal = Ideal(base, moduli)
    els = base.elements()
    firsts = []
    for x in els:
        first = next(y for y in els if ideal.contains(base.sub(x, y)))
        assert quo.reduce(x) == first
        if first == x:
            firsts.append(x)
    assert quo.elements() == tuple(firsts)


def test_members_form_an_ideal_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rings = [zmod(n) for n in (2, 4, 6, 8, 9, 12, 16, 18, 30, 36)] + [
        f4(), ProductRing((M4, zmod(6))), ProductRing((zmod(2), zmod(9))),
        ExcisionRing(M8, ideal_of(M8, 4)), DoubleRing(zmod(9), ideal_of(zmod(9), 3)),
        QuotientRing(zmod(24), (8,))]

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.sampled_from(rings), st.lists(st.integers(0, 10 ** 6), max_size=3))
    def check(ring, picks):
        els = ring.elements()
        gens = tuple(els[k % len(els)] for k in picks)
        members = Ideal(ring, gens).members()
        group = set(members)
        assert len(group) == len(members) and ring.zero in group
        assert all(g in group for g in gens)
        assert all(ring.add(x, y) in group for x in members for y in members)
        assert all(ring.mul(r, x) in group for r in els for x in members)
        assert len(els) % len(members) == 0

    check()

def test_ideal_power_and_vanishing():
    ideal = ideal_of(M8, 2)
    assert ideal.power(2).members() == (0, 4)
    assert not ideal.products_vanish()
    assert ideal_of(M4, 2).products_vanish()
    assert ideal.power(0).has_unit_generator()


def test_integer_ideal_gcd():
    ideal = ideal_of(Z, 4, 6)
    assert ideal.contains(2)
    assert not ideal.contains(3)
    assert zero_ideal(Z).is_zero()
    assert unit_ideal(Z).has_unit_generator()


def test_polynomial_ideal_membership():
    p = PolynomialRing(Z, "X")
    principal = Ideal(p, (p.parse("X"),))
    assert principal.contains(p.parse("X^2"))
    assert not principal.contains(p.one)
    constant = Ideal(p, ((2,),))
    assert constant.contains(p.parse("4*X+2"))
    assert not constant.contains(p.parse("2*X+1"))


def test_polynomial_ideal_membership_over_a_field():
    # a principal ideal with a unit leading coefficient decides membership
    # by the remainder of polynomial division
    p = PolynomialRing(zmod(3), "X")
    ideal = Ideal(p, (p.parse("X^2+1"),))
    assert ideal.contains(p.parse("X^3+X"))
    assert not ideal.contains(p.parse("X"))


@pytest.mark.parametrize("content, core", [
    (2, "X+1"), (3, "X^2-1"), (-2, "X"), (1, "X^2+X+1"), (-4, "2*X^3+3*X"),
])
def test_zx_principal_membership_matches_construction(content, core):
    # g = content * core with core primitive, so by Gauss's lemma core * q
    # lies in (g) iff content divides every coefficient of q; g * q + r with
    # r a nonzero constant never does, since deg g >= 1
    p = PolynomialRing(Z, "X")
    core = p.parse(core)
    g = p.mul(p.constant(content), core)
    ideal = Ideal(p, (g,))
    rng = random.Random(content * 101 + len(core))
    for _ in range(60):
        q = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
        while q and q[-1] == 0:
            q.pop()
        q = tuple(q)
        assert ideal.contains(p.mul(g, q))
        assert ideal.contains(p.mul(core, q)) == all(c % content == 0 for c in q)
        r = rng.choice([c for c in range(-5, 6) if c])
        assert not ideal.contains(p.add(p.mul(g, q), p.constant(r)))
    assert not Ideal(p, (p.parse("2*X+2"),)).contains(p.parse("X+1"))


def test_rees_grading():
    ideal = ideal_of(M9, 3)
    rees = ReesRing(M9, ideal, "t")
    x = rees.check((1, 3))
    assert rees.fmt(x) == "3*t+1"
    assert rees.parse("3*t+1") == (1, 3)
    # degree-2 coefficient must lie in I^2 = (0) over Z/9
    with pytest.raises(RingMismatch):
        rees.check((1, 3, 3))
    assert rees_contains(rees, (1, 3))
    assert not rees_contains(rees, (1, 1))


def test_rees_multiplicativity():
    ideal = ideal_of(Z, 2)
    rees = ReesRing(Z, ideal, "t")
    a = rees.check((1, 2))
    b = rees.check((3, 4, 8))
    prod = rees.mul(a, b)
    assert rees_contains(rees, prod)
    assert prod == (3, 10, 16, 16)


def test_extended_rees():
    ideal = ideal_of(Z, 2)
    ext = ExtendedReesRing(Z, ideal, "t")
    tinv = ext.check((-1, (1,)))
    two_t = ext.check((1, (2,)))
    assert ext.mul(tinv, two_t) == (0, (2,))
    assert rees_contains(ext, ext.mul(tinv, two_t))
    # positive-degree coefficients outside I^i are rejected
    with pytest.raises(RingMismatch):
        ext.check((1, (1,)))


def test_ring_identity_and_mismatch():
    assert zmod(5) == ModularRing(5)
    assert hash(zmod(5)) == hash(ModularRing(5))
    assert zmod(5) != zmod(7)
    with pytest.raises(MalformedSpec):
        DoubleRing(M8, ideal_of(M4, 2))
    with pytest.raises(MalformedSpec):
        ExcisionRing(M8, ideal_of(M4, 2))


@pytest.mark.parametrize("ring", [
    zmod(2), zmod(6), M8, zmod(9),
    f4(), parse_ring("f8"), parse_ring("f9"),
    QuotientRing(M8, (4,)),
    ProductRing((zmod(2), zmod(3))),
    ExcisionRing(M4, ideal_of(M4, 2)),
    DoubleRing(M8, ideal_of(M8, 2)),
], ids=lambda r: r.describe())
def test_compiled_tables_match_ring_ops(ring):
    # the oracle is the raw class methods: after compile, ring.add and the
    # rest of a composite handle are lookups in the tables under test
    raw = type(ring)
    tables = ring.compile()
    els = tables.elements
    assert els == ring.elements()
    assert all(tables.index[x] == k for k, x in enumerate(els))
    assert (els[tables.zero], els[tables.one]) == (ring.zero, ring.one)
    for i, a in enumerate(els):
        assert els[tables.neg[i]] == raw.neg(ring, a) == ring.neg(a)
        inverses = [b for b in els if raw.mul(ring, a, b) == ring.one]
        assert tables.inv[i] == (tables.index[inverses[0]] if inverses else None)
        assert ring.is_unit(a) == bool(inverses)
        if inverses:
            assert ring.inv(a) == inverses[0]
        for j, b in enumerate(els):
            assert els[tables.add[i][j]] == raw.add(ring, a, b) == ring.add(a, b)
            assert els[tables.mul[i][j]] == raw.mul(ring, a, b) == ring.mul(a, b)
            assert ring.sub(a, b) == raw.add(ring, a, raw.neg(ring, b))
    assert ring.compile() is tables


def test_table_ops_bind_on_first_compile_only():
    ring = QuotientRing(M8, (4,))
    assert "add" not in vars(ring)  # raw ops until the first compile
    ring.compile()
    assert {"add", "neg", "sub", "mul"} <= set(vars(ring))
    mod = zmod(12)
    mod.compile()
    assert "add" not in vars(mod)  # Z/n keeps its % ops


def test_quotient_units_past_table_cap():
    # a quotient of Z tests units by gcd, like Z/n, at any size
    ring = QuotientRing(Z, (10007,))
    assert ring.add(10006, 2) == 1
    assert ring.is_unit(3) and ring.mul(3, ring.inv(3)) == 1
    with pytest.raises(NotAUnit):
        ring.inv(0)
    # a monic quotient past the table cap refuses at once
    big = QuotientRing(PolynomialRing(zmod(3)), ((0,) * 7 + (1,),))
    with pytest.raises(BoundExceeded, match=r"at least 2049 elements"):
        big.is_unit((1, 1))
    with pytest.raises(BoundExceeded):
        big.inv((1, 1))


def test_ideals_and_rows_past_table_cap():
    # membership and completion fall back to closures and the DP when the
    # unit test is refused, as they do when it is undecidable
    ring = QuotientRing(Z, (3003,))  # 3 * 7 * 11 * 13
    ideal = Ideal(ring, (7,))
    assert ideal.contains(14) and not ideal.contains(5)
    assert Ideal(ring, (5,)).contains(1)
    v = um_row(ring, (8, 14), ideal)
    b = complete(v)
    assert ring.dot(v.entries, b) == ring.one
    QuotientRing(PolynomialRing(ring), ((1, 0, 1),))  # monic over Z/(3003)
    big = QuotientRing(PolynomialRing(zmod(3)), ((0,) * 7 + (1,),))  # 3^7 elements
    x = Ideal(big, ((0, 1),))
    assert not x.has_unit_generator()
    assert x.contains((0, 0, 1)) and not x.contains(big.one)
    b = complete(um_row(big, ((1, 1),)))
    assert big.mul((1, 1), b[0]) == big.one


def test_compile_refuses_past_cap():
    # 2049^2 table entries pass the 2^22 cap; 2048^2 would not
    with pytest.raises(BoundExceeded, match=r"2049 elements .* 4194304"):
        zmod(2049).compile()


def test_known_size_refuses_without_drawing(monkeypatch):
    # Z/n, a quotient of Z and their products know their size, so
    # elements() refuses a ring past MEMORY_CAP before drawing any of it;
    # 2048 * 2049 passes 2^22, though each factor is small
    def no_draw(self, cap):
        raise AssertionError("drew elements of a ring past the cap")

    monkeypatch.setattr(Ring, "_take", no_draw)
    for ring in (zmod(50000017), QuotientRing(Z, (20000003,)),
                 ProductRing((zmod(2048), zmod(2049)))):
        with pytest.raises(BoundExceeded, match=r"more than 4194304 elements"):
            ring.elements()
        with pytest.raises(BoundExceeded):
            Ideal(ring, (ring.one,)).members()
    monkeypatch.undo()
    assert len(ProductRing((zmod(3), QuotientRing(Z, (5,)))).elements()) == 15


def test_pair_rings_refuse_without_drawing_pairs(monkeypatch):
    # |R| * |I| follows from the base's size and the ideal's members, so a
    # double or excision ring past MEMORY_CAP is refused before any pair
    # is drawn: 3000 * 3000 and 3000 * 1500 both pass 2^22
    def no_draw(self):
        raise AssertionError("drew pairs of a ring past the cap")

    monkeypatch.setattr(DoubleRing, "_iter_elements", no_draw)
    monkeypatch.setattr(ExcisionRing, "_iter_elements", no_draw)
    m = zmod(3000)
    for ideal in (Ideal(m, (1,)), ideal_of(m, 2)):
        for ring in (DoubleRing(m, ideal), ExcisionRing(m, ideal)):
            with pytest.raises(BoundExceeded, match=r"more than 4194304 elements"):
                ring.elements()
            with pytest.raises(BoundExceeded):
                Ideal(ring, (ring.one,)).members()
    monkeypatch.undo()
    m = zmod(12)
    for ideal, size in ((ideal_of(m, 4), 36), (ideal_of(m, 5), 144)):
        for ring in (DoubleRing(m, ideal), ExcisionRing(m, ideal)):
            assert ring._known_size() == size == len(ring.elements())
    assert ExcisionRing(Z, ideal_of(m, 4))._known_size() is None


def test_polynomial_inverse_by_nilpotent_tail():
    p = PolynomialRing(M9, "X")
    a = p.parse("1+3*X")
    assert p.is_unit(a)
    assert p.inv(a) == p.parse("1+6*X")
    assert p.mul(a, p.inv(a)) == p.one
    assert not p.is_unit(p.parse("3+X")) and not p.is_unit(p.zero)
    with pytest.raises(NotAUnit):
        p.inv(p.parse("3+X"))


def test_laurent_add_and_units():
    l = LaurentRing(M9, "t")
    x, y = l.parse("3*t^2+t^-1"), l.parse("6*t^2+2")
    assert l.add(x, y) == l.parse("2+t^-1") == (-1, (1, 2))
    assert l.add(x, l.neg(x)) == l.zero
    assert l.add(l.zero, x) == x == l.add(x, l.zero)
    assert l.is_unit(x) and l.inv(x) == l.parse("6*t^4+t")
    assert l.mul(x, l.inv(x)) == l.one
    assert not l.is_unit(l.parse("t+t^-1")) and not l.is_unit(l.zero)
    with pytest.raises(NotAUnit):
        l.inv(l.parse("3*t"))
    lz = LaurentRing(Z, "t")
    assert lz.inv(lz.parse("-t^-3")) == lz.parse("-t^3")
    assert not lz.is_unit(lz.parse("2*t"))


def test_laurent_monomial_generators_membership():
    # 2*t^-1 and 6*t^3 are 2 and 6 times units, so they generate (2):
    # membership is every coefficient even
    l = LaurentRing(Z, "t")
    ideal = Ideal(l, (l.parse("2*t^-1"), l.parse("6*t^3")))
    for text in ("4*t^2+2", "-2*t^-5+8*t", "3*t+2*t^-1", "1", "t^3", "6*t-3"):
        x = l.parse(text)
        assert ideal.contains(x) == all(c % 2 == 0 for c in x[1]), text


def test_laurent_units_split_over_idempotents():
    # Z/6 = Z/2 x Z/3: 3*(2+3t) = 3t and 4*(2+3t) = 2 are units of the
    # two factors, so (2+3t)(2+3t^-1) = 1; 2+2t dies in the Z/2 factor
    l = LaurentRing(zmod(6), "t")
    a = l.parse("2+3*t")
    assert l.is_unit(a)
    assert l.inv(a) == l.parse("2+3*t^-1")
    assert l.mul(a, l.inv(a)) == l.one
    assert not l.is_unit(l.parse("2+2*t"))
    with pytest.raises(NotAUnit):
        l.inv(l.parse("2+2*t"))
    # a unit with a nilpotent tail in one factor: Z/12 = Z/4 x Z/3
    l12 = LaurentRing(zmod(12), "t")
    b = l12.parse("4*t^-1+9+6*t")
    assert l12.is_unit(b) and l12.mul(b, l12.inv(b)) == l12.one


def test_rees_ops_and_escaping_inverse():
    rees = ReesRing(M9, ideal_of(M9, 3), "t")
    a = rees.parse("3*t+2")
    assert rees.add(a, rees.parse("6*t+7")) == ()
    assert rees.neg(a) == (7, 6)
    assert rees.is_unit(a) and rees.inv(a) == (5, 6)
    assert rees.mul(a, rees.inv(a)) == rees.one
    assert rees.contains(a) and not rees.contains((1, 1))
    assert not rees.is_unit(rees.parse("3*t"))
    # 1+3t+3t^2 is not graded (3 is not in I^2 = 0); its inverse
    # 1+6t+6t^2 is refused rather than returned, and is_unit agrees
    assert not rees.is_unit((1, 3, 3))
    with pytest.raises(NotAUnit, match="escapes"):
        rees.inv((1, 3, 3))


def test_extended_rees_ops_and_escaping_inverse():
    ext = ExtendedReesRing(M9, ideal_of(M9, 3), "t")
    a = ext.parse("3*t+1")
    assert ext.add(a, ext.parse("t^-1+6*t")) == (-1, (1, 1))
    assert ext.neg(a) == (0, (8, 6))
    assert ext.is_unit(a) and ext.inv(a) == ext.parse("6*t+1")
    assert ext.contains(ext.parse("t^-2+3*t")) and not ext.contains((1, (1,)))
    # t^-1 is a unit of the laurent ring, but its inverse t is not graded
    for x in ("t^-1", "t^-1+3"):
        assert not ext.is_unit(ext.parse(x))
        with pytest.raises(NotAUnit, match="escapes"):
            ext.inv(ext.parse(x))


def _polys(base, coeffs, deg):
    """Every polynomial payload of degree at most deg over coeffs."""
    p = PolynomialRing(base, "X")  # add strips the trailing zeros
    return sorted({p.add(tup, p.zero) for tup in itertools.product(coeffs, repeat=deg + 1)},
                  key=repr)


def _unit_rule_cases():
    """(ring, elements): every element of a finite ring, a fixed sample
    of an infinite one, over every ring kind."""
    yield Z, range(-4, 5)
    yield RationalField(), [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)]
    for n in (2, 6, 8, 9, 12):
        yield zmod(n), None
    yield f4(), None
    yield parse_ring("f9"), None  # a monic quotient of Z/3[x]
    yield QuotientRing(Z, (6,)), None
    yield QuotientRing(PolynomialRing(M4, "x"), ((0, 0, 1),)), None
    yield QuotientRing(zmod(12), (4,)), None  # a coset quotient
    yield ProductRing((M4, zmod(3))), None
    yield ProductRing((Z, zmod(3))), [(a, b) for a in range(-2, 3) for b in range(3)]
    for n, g in ((4, 2), (6, 3), (4, 1)):
        m = zmod(n)
        yield ExcisionRing(m, ideal_of(m, g)), None
        yield DoubleRing(m, ideal_of(m, g)), None
    yield ExcisionRing(Z, ideal_of(M4, 2)), [(a, i) for a in range(-2, 3) for i in (0, 2)]
    for base, coeffs, gens in ((M4, range(4), (2, 1)), (zmod(6), range(6), (2, 3)),
                               (M9, range(9), (3,)), (zmod(12), range(12), (6,)),
                               (Z, range(-2, 3), (2,))):
        deg = 2 if len(coeffs) <= 6 else 1
        polys = _polys(base, coeffs, deg)
        laurent = LaurentRing(base, "t")
        shifted = [laurent._norm(v, p) if p else laurent.zero
                   for v in (-1, 0, 1) for p in polys]
        yield PolynomialRing(base, "X"), polys
        yield laurent, shifted
        for g in gens:
            rees = ReesRing(base, ideal_of(base, g), "t")
            yield rees, [p for p in polys if rees.contains(p)]
            ext = ExtendedReesRing(base, ideal_of(base, g), "t")
            yield ext, [x for x in shifted if ext.contains(x)]


@pytest.mark.parametrize("ring, els", [pytest.param(r, els, id=r.describe())
                                       for r, els in _unit_rule_cases()])
def test_is_unit_holds_exactly_when_inv_returns(ring, els):
    for a in ring.elements() if els is None else els:
        try:
            b = ring.inv(a)
        except NotAUnit:
            assert not ring.is_unit(a), ring.fmt(a)
            continue
        assert ring.is_unit(a), ring.fmt(a)
        assert ring.check(b) == b  # a payload of this ring, grading included
        assert ring.mul(a, b) == ring.one
        assert ring.inv(b) == a


def test_polynomial_and_laurent_scalar_int():
    assert PolynomialRing(M4, "X").scalar_int(6) == (2,)
    assert PolynomialRing(M4, "X").scalar_int(8) == ()
    assert LaurentRing(M4, "t").scalar_int(-1) == (0, (3,))
    assert LaurentRing(M4, "t").scalar_int(4) == LaurentRing(M4, "t").zero


# ---------------------------------------------------------------------------
# membership rules: chosen once per ideal, from the generators' shape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, g", [(8, 4), (12, 4), (6, 3)])
@pytest.mark.parametrize("kind", [ExcisionRing, DoubleRing])
def test_pair_rule_matches_worklist_reference(kind, n, g):
    # component-zero generators take the structural rule (x[0] = 0 and
    # x[1] in the sub-ideal); the quadratic closure is the oracle
    m = zmod(n)
    ring = kind(m, ideal_of(m, g))
    members = ideal_of(m, g).members()
    for gens in ([(0, members[1])], [(0, x) for x in members]):
        ideal = Ideal(ring, gens)
        expected = set(_worklist_members(ideal))
        assert len(expected) < ring.size
        for x in ring.elements():
            assert ideal.contains(x) == (x in expected), ring.fmt(x)


def test_zero_is_answered_before_any_rule():
    # neither ideal has a rule for a nonzero element, but zero lies in every ideal
    zx = PolynomialRing(Z, "X")
    ideal = Ideal(zx, ((3,), (0, 1)))
    assert ideal.contains(zx.zero)
    with pytest.raises(UndecidableMembership, match="no membership rule"):
        ideal.contains((1,))
    with pytest.raises(UndecidableMembership):
        ideal.contains((1,))  # on every question, not only the first
    assert ideal.contains(())
    z_plus = ExcisionRing(Z, ideal_of(M4, 2))  # Z (+) (2): no structural rule
    ideal = Ideal(z_plus, ((0, 2),))
    assert ideal.contains(z_plus.zero)
    for x in ((0, 2), (1, 0)):
        with pytest.raises(UndecidableMembership, match="no membership rule"):
            ideal.contains(x)


def _count_ideals(monkeypatch):
    made = []
    init = Ideal.__init__

    def counting(self, ring, generators):
        made.append(ring)
        init(self, ring, generators)

    monkeypatch.setattr(Ideal, "__init__", counting)
    return made


@pytest.mark.parametrize("ring, gens, questions", [
    (DoubleRing(zmod(3000), ideal_of(zmod(3000), 2)), ((0, 2),),
     [(2 * k % 3000, 2 * k % 3000) if k % 2 else (0, 2 * k) for k in range(100)]),
    (PolynomialRing(zmod(4096), "X"), ((2,),),
     [(k % 4096, 2, 6 * k % 4096 or 1) for k in range(100)]),
], ids=["D(Z/3000,(2))", "Z/4096[X]"])
def test_rule_is_chosen_once(monkeypatch, ring, gens, questions):
    ideal = Ideal(ring, gens)
    made = _count_ideals(monkeypatch)
    answers = [ideal.contains(x) for x in questions]
    assert len(made) <= 1  # the one inner ideal of the rule
    assert True in answers and False in answers
    monkeypatch.undo()
    # the answers agree with a rule kept by no one: a fresh ideal per question
    assert answers == [Ideal(ring, gens).contains(x) for x in questions]


def test_laurent_idempotents_found_once(monkeypatch):
    base = zmod(12)
    scans = []
    elements = base.elements
    monkeypatch.setattr(base, "elements", lambda: scans.append(1) or elements())
    l12 = LaurentRing(base, "t")
    assert l12.is_unit(l12.one) and l12.is_unit(l12.parse("4*t^-1+9+6*t"))
    assert len(scans) == 1
    # a base past the memory cap is refused on every unit question
    big = LaurentRing(zmod(50000017), "t")
    for _ in range(2):
        with pytest.raises(BoundExceeded, match="past the memory cap"):
            big.is_unit(big.one)
