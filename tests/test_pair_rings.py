"""Double and excision rings against their earlier implementations.

DoubleRing is the product R x R restricted by a congruence, and
ExcisionRing lifts a base element into the host ring once.  The two
classes below are the componentwise implementations they replaced,
kept as references: every operation, error, element order and compiled
table must agree with them.
"""

import itertools
import random

import pytest

from conftest import Z, ideal_of, zmod
from symwitt import (
    ArtifactError,
    DoubleRing,
    ExcisionRing,
    Ideal,
    InfiniteRing,
    MalformedSpec,
    NotAUnit,
    ProductRing,
    Ring,
    RingMismatch,
    UndecidableMembership,
)
from symwitt.rings import _fmt_pair, _parse_pair


class RefExcisionRing(Ring):
    """B (+) I with multiplication (b,i)(c,j) = (bc, b.j + c.i + ij)."""

    kind = "excision"

    def __init__(self, base, ideal):
        super().__init__()
        host = ideal.ring
        if base != host and base.kind != "integers":
            raise MalformedSpec("excision base must match the ideal's ring or be Z")
        self.base, self.ideal, self.host = base, ideal, host
        self._same = base == host
        self.zero = (base.zero, host.zero)
        self.one = (base.one, host.zero)

    def _act(self, b, j):
        if self._same:
            return self.host.mul(b, j)
        return self.host.mul(self.host.scalar_int(b), j)

    def spec_key(self):
        return ("excision", self.base.spec_key(), self.host.spec_key(), self.ideal.gens)

    def describe(self):
        return f"{self.base.describe()}(+){self.ideal.describe()}"

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.host.add(a[1], b[1]))

    def neg(self, a):
        return (self.base.neg(a[0]), self.host.neg(a[1]))

    def mul(self, a, b):
        (r, i), (s, j) = a, b
        cross = self.host.add(self._act(r, j), self._act(s, i))
        return (self.base.mul(r, s), self.host.add(cross, self.host.mul(i, j)))

    def scalar_int(self, n):
        return (self.base.scalar_int(n), self.host.zero)

    def retract(self, a):
        if self._same:
            return self.host.add(a[0], a[1])
        return self.host.add(self.host.scalar_int(a[0]), a[1])

    def is_unit(self, a):
        try:
            if not self.base.is_unit(a[0]):
                return False
            return self.host.is_unit(self.retract(a))
        except UndecidableMembership:
            raise
        except InfiniteRing:
            raise UndecidableMembership("unit test unavailable here")

    def inv(self, a):
        if not self.is_unit(a):
            raise NotAUnit(f"{self.fmt(a)} is not a unit of {self.describe()}")
        r_inv = self.base.inv(a[0])
        j = self.host.sub(self.host.inv(self.retract(a)),
                          self._inv_base_in_host(a[0]))
        return (r_inv, j)

    def _inv_base_in_host(self, r):
        if self._same:
            return self.host.inv(r)
        return self.host.scalar_int(self.base.inv(r))

    @property
    def is_finite(self):
        return self.base.is_finite and self.host.is_finite

    def _iter_elements(self):
        members = self.ideal.members()
        return ((b, i) for b in self.base.elements() for i in members)

    def check(self, a):
        if not (isinstance(a, tuple) and len(a) == 2):
            raise RingMismatch(f"excision payload must be a pair, got {a!r}")
        self.base.check(a[0])
        self.host.check(a[1])
        if not self.ideal.contains(a[1]):
            raise RingMismatch(
                f"second component {self.host.fmt(a[1])} lies outside the ideal")
        return a

    def fmt(self, a):
        return _fmt_pair((self.base.fmt(a[0]), self.host.fmt(a[1])))

    def parse(self, s):
        r, i = _parse_pair(s, 2)
        return self.check((self.base.parse(r), self.host.parse(i)))


class RefDoubleRing(Ring):
    """Fibre product {(a, b) in R x R : a - b in I}, componentwise ops."""

    kind = "double"

    def __init__(self, base, ideal):
        if ideal.ring != base:
            raise MalformedSpec("double ring ideal must live over the base ring")
        super().__init__()
        self.base, self.ideal = base, ideal
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.one)

    def spec_key(self):
        return ("double", self.base.spec_key(), self.ideal.gens)

    def describe(self):
        return f"D({self.base.describe()},{self.ideal.describe()})"

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def neg(self, a):
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def mul(self, a, b):
        return (self.base.mul(a[0], b[0]), self.base.mul(a[1], b[1]))

    def scalar_int(self, n):
        c = self.base.scalar_int(n)
        return (c, c)

    def is_unit(self, a):
        return self.base.is_unit(a[0]) and self.base.is_unit(a[1])

    def inv(self, a):
        if not self.is_unit(a):
            raise NotAUnit(f"{self.fmt(a)} is not a unit of {self.describe()}")
        return (self.base.inv(a[0]), self.base.inv(a[1]))

    @property
    def is_finite(self):
        return self.base.is_finite

    def _iter_elements(self):
        members = self.ideal.members()
        return ((a, self.base.sub(a, d)) for a in self.base.elements() for d in members)

    def check(self, a):
        if not (isinstance(a, tuple) and len(a) == 2):
            raise RingMismatch(f"double payload must be a pair, got {a!r}")
        self.base.check(a[0])
        self.base.check(a[1])
        if not self.ideal.contains(self.base.sub(a[0], a[1])):
            raise RingMismatch("components do not agree modulo the ideal")
        return a

    def fmt(self, a):
        return _fmt_pair((self.base.fmt(a[0]), self.base.fmt(a[1])))

    def parse(self, s):
        x, y = _parse_pair(s, 2)
        return self.check((self.base.parse(x), self.base.parse(y)))


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of its error."""
    try:
        return "ok", fn(*args)
    except ArtifactError as err:
        return type(err).__name__, str(err)


def _z_samples(ideal):
    """Integer-base excision elements: small integers against ideal members."""
    host = ideal.ring
    if host.is_finite:
        members = ideal.members()
    else:
        members = [i for i in range(-6, 7) if ideal.contains(i)]
    return [(r, i) for r in range(-3, 4) for i in members]


def _pair_rings():
    """(label, build(cls), element sample or None for all elements)."""
    m8, m9, m12 = zmod(8), zmod(9), zmod(12)
    host = ProductRing((zmod(2), zmod(4)))
    out = []
    for base, gen in ((m8, 2), (m9, 3), (m12, 4), (zmod(3000), 1000)):
        ideal = ideal_of(base, gen)
        out.append((f"D(Z/{base.n},({gen}))",
                    lambda cls, b=base, i=ideal: cls(b, i), "double"))
    for label, base, ideal in (
            ("Z(+)(2) over Z/8", Z, ideal_of(m8, 2)),
            ("Z(+)(2) over Z/9", Z, ideal_of(m9, 2)),
            ("Z/8(+)(2)", m8, ideal_of(m8, 2)),
            ("Z(+)(2) over Z", Z, ideal_of(Z, 2)),
            ("Z/2xZ/4(+)((0|2))", host, Ideal(host, ((0, 2),)))):
        out.append((label, lambda cls, b=base, i=ideal: cls(b, i), "excision"))
    return out


PAIR_RINGS = _pair_rings()


def _build(build, kind):
    new, ref = (DoubleRing, RefDoubleRing) if kind == "double" else (
        ExcisionRing, RefExcisionRing)
    return build(new), build(ref)


def _sample(ring, ref):
    if not ring.is_finite:
        return _z_samples(ring.ideal)
    els = ring.elements()
    assert els == ref.elements()  # enumeration order
    if len(els) > 64:
        return random.Random(len(els)).sample(els, 48)
    return els


@pytest.mark.parametrize("label, build, kind", PAIR_RINGS,
                         ids=[p[0] for p in PAIR_RINGS])
def test_pair_ring_matches_reference(label, build, kind):
    ring, ref = _build(build, kind)
    assert ring == ref and ring.describe() == ref.describe()
    assert (ring.zero, ring.one) == (ref.zero, ref.one)
    assert ring.is_finite == ref.is_finite
    xs = _sample(ring, ref)
    for n in range(-4, 5):
        assert ring.scalar_int(n) == ref.scalar_int(n)
    for x in xs:
        assert ring.check(x) == x
        assert ring.neg(x) == ref.neg(x)
        assert _outcome(ring.inv, x) == _outcome(ref.inv, x)
        assert _outcome(ring.is_unit, x) == _outcome(ref.is_unit, x)
        assert ring.fmt(x) == ref.fmt(x) and ring.parse(ref.fmt(x)) == x
        if kind == "excision":
            assert ring.retract(x) == ref.retract(x)
    for x, y in itertools.product(xs, repeat=2):
        assert ring.add(x, y) == ref.add(x, y)
        assert ring.mul(x, y) == ref.mul(x, y)
    # compiled tables, or the same refusal; fresh handles, since the
    # first compile rebinds the ops to table lookups
    ring, ref = _build(build, kind)
    assert _outcome(ring.compile) == _outcome(ref.compile)


@pytest.mark.parametrize("label, build, kind", PAIR_RINGS,
                         ids=[p[0] for p in PAIR_RINGS])
def test_pair_ring_errors_match_reference(label, build, kind):
    ring, ref = _build(build, kind)
    one = ring.host.one if kind == "excision" else ring.base.one
    zero = ring.base.zero
    bad = [5, (zero,), (zero, zero, zero), [zero, zero], (zero, one),
           (one, zero), ("x", zero)]
    for x in bad:
        assert _outcome(ring.check, x) == _outcome(ref.check, x)
    strings = ["(0|1)", "(1|0)", "(1)", "0|1", "(1|1|1)", "(x|0)", "((0|1)|0)",
               "(1|((0|2)))", "(3|((1|2)))"]
    for s in strings:
        assert _outcome(ring.parse, s) == _outcome(ref.parse, s)
