"""Multivariate polynomials and the monicization change of variables.

Variables are X1..Xd.  A polynomial is a sorted tuple of (exponent
vector, coefficient) pairs over any ring handle; strings use the
univariate grammar of rings.parse_terms and rings.fmt_terms
("X1^2*X2-3" style, non-integer coefficients parenthesised).

Over Z/n, `substitute` runs on a packed form (Kronecker
substitution): coefficients lifted to [0, n) sit in fixed-width byte
slots of one Python int, the slot of an exponent vector is its
mixed-radix index with X1 most significant, and big-int products do the
work of the term-by-term loops.  Slots are wide enough for the largest
coefficient the integer arithmetic can reach, so no slot carries into
the next, and the result is unpacked and reduced mod n once.  Every
other ring, and input whose layout would be mostly empty slots or over a
mebibyte, uses the dict loops.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import struct
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .errors import (
    MalformedSpec,
    NotAUnit,
    RingMismatch,
    SizeMismatch,
    ZeroPolynomial,
)
from .rings import Ideal, ModularRing, Ring, fmt_terms, parse_terms

_VAR_RE = re.compile(r"X([0-9]+)(?:\^([0-9]+))?\Z")


@dataclass(frozen=True)
class MultiPoly:
    ring: Ring
    nvars: int
    terms: tuple  # ((exps, coeff), ...) with nonzero coeffs, sorted descending

    # -- construction ------------------------------------------------------
    @classmethod
    def make(cls, ring: Ring, nvars: int, mapping: dict) -> "MultiPoly":
        """Validated constructor for caller input: {exponent vector: coeff}."""
        if nvars < 1:
            raise SizeMismatch(f"need at least one variable, got {nvars}")
        clean = {}
        for exps, c in mapping.items():
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise MalformedSpec(f"bad exponent vector {exps!r}")
            c = ring.check(c)
            if c != ring.zero:
                clean[exps] = c
        return cls(ring, nvars, tuple(sorted(clean.items(), reverse=True)))

    @classmethod
    def _trusted(cls, ring: Ring, nvars: int, acc: dict) -> "MultiPoly":
        """Internal results: exponent tuples and payloads are already valid."""
        zero = ring.zero
        return cls(ring, nvars,
                   tuple(sorted(((e, c) for e, c in acc.items() if c != zero),
                                reverse=True)))

    @classmethod
    def const(cls, ring: Ring, nvars: int, c) -> "MultiPoly":
        return cls.make(ring, nvars, {(0,) * nvars: c})

    @classmethod
    def zero(cls, ring: Ring, nvars: int) -> "MultiPoly":
        return cls.make(ring, nvars, {})

    @classmethod
    def one(cls, ring: Ring, nvars: int) -> "MultiPoly":
        return cls.const(ring, nvars, ring.one)

    @classmethod
    def gen(cls, ring: Ring, nvars: int, j: int) -> "MultiPoly":
        if not (1 <= j <= nvars):
            raise SizeMismatch(f"variable X{j} out of range for {nvars} variables")
        exps = tuple(1 if k == j - 1 else 0 for k in range(nvars))
        return cls.make(ring, nvars, {exps: ring.one})

    # -- arithmetic ----------------------------------------------------------
    def _peer(self, other: "MultiPoly"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch("polynomials over different rings")
        if self.nvars != other.nvars:
            raise SizeMismatch("polynomials in different variable counts")

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "MultiPoly") -> "MultiPoly":
        self._peer(other)
        acc = dict(self.terms)
        r = self.ring
        for exps, c in other.terms:
            acc[exps] = r.add(acc.get(exps, r.zero), c)
        return MultiPoly._trusted(r, self.nvars, acc)

    def neg(self) -> "MultiPoly":
        r = self.ring
        return MultiPoly(r, self.nvars,
                         tuple((e, r.neg(c)) for e, c in self.terms))

    def sub(self, other: "MultiPoly") -> "MultiPoly":
        return self.add(other.neg())

    def mul(self, other: "MultiPoly") -> "MultiPoly":
        self._peer(other)
        r = self.ring
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = r.add(acc.get(e, r.zero), r.mul(c1, c2))
        return MultiPoly._trusted(r, self.nvars, acc)

    def pow(self, k: int) -> "MultiPoly":
        if k < 0:
            raise MalformedSpec("negative power of a polynomial")
        out = MultiPoly.one(self.ring, self.nvars)
        base = self
        while k:
            if k & 1:
                out = out.mul(base)
            base = base.mul(base)
            k >>= 1
        return out

    def scale(self, c) -> "MultiPoly":
        r = self.ring
        c = r.check(c)
        scaled = ((e, r.mul(c, x)) for e, x in self.terms)  # order is kept
        return MultiPoly(r, self.nvars,
                         tuple((e, x) for e, x in scaled if x != r.zero))

    # -- degrees and coefficients ---------------------------------------------
    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def degree_in(self, j: int) -> int:
        if not self.terms:
            return -1
        return max(e[j - 1] for e, _ in self.terms)

    def coeff_in(self, j: int, k: int) -> "MultiPoly":
        """Coefficient of Xj^k, as a polynomial with the Xj exponent removed."""
        # the kept terms agree in Xj, so clearing it keeps their order
        return MultiPoly(self.ring, self.nvars,
                         tuple((exps[:j - 1] + (0,) + exps[j:], c)
                               for exps, c in self.terms if exps[j - 1] == k))

    def constant(self):
        for exps, c in self.terms:
            if not any(exps):
                return c
        return self.ring.zero

    # -- substitution ----------------------------------------------------------
    def substitute(self, mapping: dict) -> "MultiPoly":
        """Replace Xj by mapping[j] (1-based); unmapped variables stay fixed."""
        for p in mapping.values():
            self._peer(p)
        if not isinstance(self.ring, ModularRing) or not self.terms:
            return self._substitute_dict(mapping)
        mapped = [k for k in range(self.nvars) if k + 1 in mapping]
        images = [mapping[k + 1] for k in mapped]
        # degree and coefficient-sum bounds from the highest power of each
        # image (a zero image leaves only the terms free of its variable),
        # and a bound on the distinct monomials: p^e has at most
        # C(e + t - 1, e) of them when p has t terms
        degs, bound = _shape(self)
        tops = [degs[k] for k in mapped]
        for k in mapped:
            degs[k] = 0
        monomials = len(self.terms)
        for p, top in zip(images, tops):
            pdegs, pl1 = _shape(p)
            degs = [a + top * b for a, b in zip(degs, pdegs)]
            bound *= max(pl1, 1) ** top
            monomials *= math.comb(top + max(len(p.terms), 1) - 1, top)
        pk = _Packing(degs, bound)
        if not pk.fits(monomials):
            return self._substitute_dict(mapping)
        kept = [0 if k in mapped else s for k, s in enumerate(pk.strides)]
        bases = [pk.pack(p.terms) if top else 0 for p, top in zip(images, tops)]

        def horner(terms, level):
            # sum of terms[i] with mapped[level:] replaced by their images:
            # (..(A_top * B + A_top-1) * B + ..) * B + A_0 in the image B of
            # mapped[level], so only one running value is held
            if level == len(mapped):
                return pk.pack(terms, kept)
            k, base = mapped[level], bases[level]
            by_exp: dict = {}
            for term in terms:
                by_exp.setdefault(term[0][k], []).append(term)
            acc = 0
            for e in range(max(by_exp), -1, -1):
                acc *= base
                if e in by_exp:
                    acc += horner(by_exp[e], level + 1)
            return acc

        return pk.unpack(self.ring, horner(self.terms, 0))

    def _substitute_dict(self, mapping: dict) -> "MultiPoly":
        """Substitution by dict products over any ring; the reference path."""
        for p in mapping.values():
            self._peer(p)
        r, d = self.ring, self.nvars
        one = MultiPoly.one(r, d)
        caches = {j: [one] for j in mapping}
        acc: dict = {}
        for exps, coeff in self.terms:
            kept = tuple(0 if (k + 1) in mapping else e for k, e in enumerate(exps))
            prod = one
            for k, e in enumerate(exps):
                if e and (k + 1) in mapping:
                    c = caches[k + 1]
                    while len(c) <= e:
                        c.append(c[-1].mul(mapping[k + 1]))
                    prod = prod.mul(c[e])
            for e2, c2 in prod.terms:
                e = tuple(a + b for a, b in zip(kept, e2))
                acc[e] = r.add(acc.get(e, r.zero), r.mul(coeff, c2))
        return MultiPoly._trusted(r, d, acc)

    def evaluate(self, point: Sequence):
        r = self.ring
        point = [r.check(x) for x in point]
        if len(point) != self.nvars:
            raise SizeMismatch(f"expected {self.nvars} coordinates")
        out = r.zero
        for exps, c in self.terms:
            v = c
            for x, e in zip(point, exps):
                if e:
                    v = r.mul(v, r.pow(x, e))
            out = r.add(out, v)
        return out

    # -- strings -------------------------------------------------------------
    def fmt(self) -> str:
        return fmt_terms(self.ring, (
            ("*".join(f"X{k + 1}" if e == 1 else f"X{k + 1}^{e}"
                      for k, e in enumerate(exps) if e), c)
            for exps, c in self.terms))

    @classmethod
    def parse(cls, ring: Ring, nvars: int, s: str) -> "MultiPoly":
        s = s.replace(" ", "")

        def read_var(factor):
            m = _VAR_RE.match(factor)
            if m is None:
                return None
            j = int(m.group(1))
            if not (1 <= j <= nvars):
                raise MalformedSpec(f"variable X{j} out of range in {s!r}")
            return j - 1, int(m.group(2) or 1)

        return cls.make(ring, nvars, parse_terms(ring, s, read_var, nvars, "polynomial"))


# ---------------------------------------------------------------------------
# packed arithmetic over Z/n
# ---------------------------------------------------------------------------

# A packed result walks every slot of its layout; the dict loops pay once per
# term product, about this many times more per step.  A layout with more
# slots than this per possible result monomial is mostly empty, and one over
# _MAX_BYTES costs more memory than the dict result: both take the dict path.
_DENSE = 16
_MAX_BYTES = 1 << 20
_ARRAY_CODES = {struct.calcsize(code): code for code in "QIHB"}


def _shape(p: MultiPoly) -> tuple:
    """Per-variable degrees and coefficient sum of p."""
    if not p.terms:
        return [0] * p.nvars, 0
    return (list(map(max, zip(*[e for e, _ in p.terms]))),
            sum(c for _, c in p.terms))


def _descending(degs):
    """Exponent vectors of a layout in descending order, slot by slot."""
    return itertools.product(*[range(dg, -1, -1) for dg in degs])


class _Packing:
    """Slot layout for results of per-variable degree at most degs[k] whose
    (non-negative, unreduced) coefficients are at most bound."""

    __slots__ = ("degs", "width", "code", "strides", "nslots")

    def __init__(self, degs: list, bound: int):
        self.degs = degs
        w = 1  # bytes per slot: 1, 2, 4 or 8 map onto one array, wider by slicing
        while bound >> (8 * w):
            w *= 2
        self.width, self.code = w, _ARRAY_CODES.get(w)
        strides = []  # slots per unit of each exponent, X1 most significant
        step = 1
        for dg in reversed(degs):
            strides.append(step)
            step *= dg + 1
        strides.reverse()
        self.strides, self.nslots = strides, step

    def fits(self, monomials: int) -> bool:
        """Whether a result of at most `monomials` terms should use this layout."""
        return (self.nslots <= _DENSE * monomials
                and self.nslots * self.width <= _MAX_BYTES)

    def pack(self, terms, strides=None) -> int:
        """Terms with distinct slots under strides (the layout's by default)."""
        if strides is None:
            strides = self.strides
        if self.code is None:
            bits = 8 * self.width
            return sum(c << (bits * sum(map(operator.mul, exps, strides)))
                       for exps, c in terms)
        buf = bytearray(self.nslots * self.width)
        slots = memoryview(buf).cast(self.code)
        for exps, c in terms:
            slots[sum(map(operator.mul, exps, strides))] = c
        return int.from_bytes(buf, sys.byteorder)

    def unpack(self, ring: ModularRing, value: int) -> MultiPoly:
        n, w = ring.n, self.width
        raw = value.to_bytes(self.nslots * w, sys.byteorder)
        if self.code is None:
            vals = [int.from_bytes(raw[i:i + w], sys.byteorder)
                    for i in range(0, len(raw), w)]
        else:
            vals = memoryview(raw).cast(self.code).tolist()
        vals.reverse()  # top slot first
        terms = []
        for exps, c in itertools.compress(zip(_descending(self.degs), vals), vals):
            c %= n
            if c:
                terms.append((exps, c))
        return MultiPoly(ring, len(self.degs), tuple(terms))


# ---------------------------------------------------------------------------
# the monicization substitution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Substitution:
    """X1 fixed; Xj moves by +- phi(X1)^{r_j} for j = 2..d."""

    phi: MultiPoly
    exponents: tuple  # (r_2, ..., r_d)
    negate: bool = False

    def mapping(self) -> dict:
        ring, d = self.phi.ring, self.phi.nvars
        out = {}
        for j, r in enumerate(self.exponents, start=2):
            shift = _phi_power(self.phi, r)
            if self.negate:
                shift = shift.neg()
            out[j] = MultiPoly.gen(ring, d, j).add(shift)
        return out

    def apply(self, f: MultiPoly) -> MultiPoly:
        self.phi._peer(f)
        return f.substitute(self.mapping())

    def inverse(self) -> "Substitution":
        return replace(self, negate=not self.negate)


# phi^r for the last few (phi, r): a substitution and its inverse, and every
# substitution that shares phi, compute it once.  Held here, not on each
# Substitution, so a caller that keeps many substitutions keeps no copies.
@functools.lru_cache(maxsize=64)
def _phi_power(phi: MultiPoly, r: int) -> MultiPoly:
    return phi.pow(r)


def _check_phi(phi: MultiPoly) -> int:
    """phi must be univariate in X1, monic, of positive degree; returns it."""
    if any(any(e[1:]) for e, _ in phi.terms):
        raise MalformedSpec("phi must only involve X1")
    n = phi.degree_in(1)
    if n < 1:
        raise MalformedSpec("phi must have positive degree")
    if phi.coeff_in(1, n).constant() != phi.ring.one:
        raise MalformedSpec("phi must be monic")
    return n


def nagata_transform(f: MultiPoly, phi: Optional[MultiPoly] = None):
    """Change of variables making f a unit multiple of an X1-monic polynomial.

    Returns (substitution, c, h) with substitution(f) = c * h and h monic
    in X1.  Exponents are r_j = m^{j-1} where m = 1 + n * (largest
    exponent in f) separates the monomials of f by X1-degree.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot monicize the zero polynomial")
    ring, d = f.ring, f.nvars
    if phi is None:
        phi = MultiPoly.gen(ring, d, 1)
    f._peer(phi)
    n = _check_phi(phi)
    maxexp = max((e for exps, _ in f.terms for e in exps), default=0)
    m = 1 + n * maxexp
    exponents = tuple(m ** (j - 1) for j in range(2, d + 1))
    weights = [exps[0] + n * sum(r * e for r, e in zip(exponents, exps[1:]))
               for exps, _ in f.terms]
    assert len(set(weights)) == len(weights), "monomial weights collided"
    sub = Substitution(phi, exponents)
    g = sub.apply(f)
    w = g.degree_in(1)
    assert w == max(weights), "top weight does not match the substituted degree"
    lead = g.coeff_in(1, w)
    assert lead.total_degree() <= 0, "leading X1-coefficient is not constant"
    c = lead.constant()
    inverse = ring._inverse(c)
    if inverse is None:
        raise NotAUnit(f"leading coefficient {ring.fmt(c)} is not a unit")
    return sub, c, g.scale(inverse)


# ---------------------------------------------------------------------------
# Weierstrass predicate for univariate polynomials over a ring
# ---------------------------------------------------------------------------

def is_weierstrass(ring, f, ideal: Ideal) -> bool:
    """Monic with every non-leading coefficient in the ideal.

    f is a payload of a univariate polynomial ring over the ideal's ring.
    """
    if ring.kind != "polynomial":
        raise RingMismatch("is_weierstrass needs a univariate polynomial ring")
    if ideal.ring != ring.base:
        raise RingMismatch("ideal must live over the coefficient ring")
    f = ring.check(f)
    if not f:
        return False
    if f[-1] != ring.base.one:
        return False
    return all(ideal.contains(c) for c in f[:-1])
