"""Exact arithmetic for a small tower of commutative rings.

Every ring is a handle object operating on plain hashable payloads:

    integers            int
    modular n           int in [0, n)
    polynomial / laurent  tuple of base payloads (ascending degree;
                        laurent payloads carry a valuation: (val, coeffs))
    quotient            canonically reduced base payload
    product             tuple of factor payloads
    excision R (+) I    pair (r, i) with i in I
    double ring         pair (a, b) with a - b in I
    rees / extended rees  polynomial (laurent) payload whose degree-i
                        coefficient lies in I^i

Handles compare equal when they describe the same ring, so payloads can
travel between independently constructed handles.  All arithmetic is
exact; nothing here ever touches floats.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import (
    BoundExceeded,
    InfiniteRing,
    MalformedSpec,
    NotAUnit,
    RingMismatch,
    UndecidableMembership,
)

MEMORY_CAP = 1 << 22  # entries any one enumeration, table or span may hold
_INT_RE = re.compile(r"-?[0-9]+\Z")


# ---------------------------------------------------------------------------
# polynomial payload helpers (shared by polynomial, laurent, rees variants)
# ---------------------------------------------------------------------------

def _strip(base: "Ring", coeffs: tuple) -> tuple:
    k = len(coeffs)
    while k and coeffs[k - 1] == base.zero:
        k -= 1
    return tuple(coeffs[:k])


def _poly_add(base: "Ring", p: tuple, q: tuple) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for k, c in enumerate(q):
        out[k] = base.add(out[k], c)
    return _strip(base, tuple(out))


def _poly_neg(base: "Ring", p: tuple) -> tuple:
    return tuple(base.neg(c) for c in p)


def _poly_mul(base: "Ring", p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    out = [base.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == base.zero:
            continue
        for j, b in enumerate(q):
            out[i + j] = base.add(out[i + j], base.mul(a, b))
    return _strip(base, tuple(out))


def _poly_divmod(base: "Ring", p: tuple, g: tuple) -> tuple[tuple, tuple]:
    """Divide by g whose leading coefficient is a unit of the base."""
    if not g:
        raise MalformedSpec("division by the zero polynomial")
    lead_inv = base.inv(g[-1])
    rem = list(p)
    quo = [base.zero] * max(0, len(p) - len(g) + 1)
    while len(rem) >= len(g):
        while rem and rem[-1] == base.zero:
            rem.pop()
        if len(rem) < len(g):
            break
        shift = len(rem) - len(g)
        factor = base.mul(rem[-1], lead_inv)
        quo[shift] = factor
        for k, c in enumerate(g):
            rem[shift + k] = base.sub(rem[shift + k], base.mul(factor, c))
    return _strip(base, tuple(quo)), _strip(base, tuple(rem))


def _neumann(ring: "Ring", start, ratio):
    """start * (1 - ratio + ratio^2 - ...), a finite sum for a nilpotent
    ratio: the inverse of 1 + ratio, times start."""
    out = term = start
    while True:
        term = ring.mul(term, ring.neg(ratio))
        if term == ring.zero:
            return out
        out = ring.add(out, term)


# ---------------------------------------------------------------------------
# additive spans (ideal members and bases, hence quotient cosets;
# translation orbits use orbits._EchelonSpan instead)
# ---------------------------------------------------------------------------

def additive_span(zero, add, deltas, width: int = 1) -> set:
    """Additive subgroup generated by deltas, with group law add(x, d).

    Each delta d extends the span H by whole cosets H + d, H + 2d, ...
    until k*d already lies in it, so every element is built once.  An
    element holds `width` entries; a span that would pass MEMORY_CAP
    entries raises before it is built.
    """
    span = {zero}
    for d in deltas:
        coset, shift = span, d
        while shift not in span:
            if (len(span) + len(coset)) * width > MEMORY_CAP:
                raise BoundExceeded(
                    f"additive span of {len(span) + len(coset)} vectors x "
                    f"{width} entries is past the memory cap of {MEMORY_CAP}")
            coset = {add(x, d) for x in coset}
            span |= coset
            shift = add(shift, d)
    return span


# ---------------------------------------------------------------------------
# element string grammar
# ---------------------------------------------------------------------------
#
# integers/modular      -42, 3
# polynomial in t       3*t^2+t+1, (X+1)*t^2   (non-integer coefficients
#                       are parenthesised so parsing never backtracks)
# laurent, rees         t^2+3*t^-1
# X1..Xd (polytools)    X1^2*X2-3
# pairs / tuples        (a|b), (a|b|c)
#
# Every polynomial string is read by parse_terms and written by
# fmt_terms.  parse(fmt(x)) == x holds payload-exactly for every ring
# variant.

def _split_top(s: str, seps: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise MalformedSpec(f"unbalanced parentheses in {s!r}")
        # a sign right after "^" belongs to the exponent, not a new term
        if depth == 0 and ch in seps and not (cur and cur[-1] == "^"):
            parts.append("".join(cur))
            parts.append(ch)
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise MalformedSpec(f"unbalanced parentheses in {s!r}")
    parts.append("".join(cur))
    return parts


def _unwrap(s: str) -> str:
    if not (s.startswith("(") and s.endswith(")")):
        return s
    depth = 0
    for ch in s[1:-1]:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return s  # the outer parens do not match each other
    return s[1:-1] if depth == 0 else s


def fmt_terms(base: "Ring", terms) -> str:
    """Join (monomial, coefficient) pairs, in print order, into a sum.

    A monomial is its printed variable part, "" for the constant term;
    coefficients are nonzero and parenthesised unless integer literals.
    """
    out = ""
    for mono, c in terms:
        cs = base.fmt(c)
        if not _INT_RE.match(cs):
            cs = "(" + cs + ")"
        if not mono:
            part = cs
        elif cs in ("1", "-1"):
            part = cs[:-1] + mono  # 1*m prints as m, -1*m as -m
        else:
            part = cs + "*" + mono
        out += "+" + part if out and not part.startswith("-") else part
    return out or "0"


def parse_terms(base: "Ring", s: str, read_var, nvars: int = 1,
                what: str = "element") -> dict:
    """Parse a sum of signed terms into {exponent tuple: nonzero coefficient}.

    A term is a "*"-product of factors.  read_var(factor) returns the
    (variable slot, exponent) a variable factor contributes, or None for a
    coefficient factor, which the base parses; a parenthesised factor is
    always a coefficient.  Signs bind to the next term.
    """
    s = s.replace(" ", "")
    if not s:
        raise MalformedSpec(f"empty {what} string")
    if s == "0":  # fmt_terms' zero, which a tuple base cannot read
        return {}
    acc: dict = {}
    sign = 1
    for tok in _split_top(s, "+-"):
        if tok == "-":
            sign = -sign
        elif tok not in ("", "+"):
            coeff, exps = base.one, [0] * nvars
            for factor in _split_top(tok, "*")[::2]:  # odd places hold "*"
                hit = None if factor.startswith("(") else read_var(factor)
                if hit is None:
                    coeff = base.mul(coeff, _parse_coeff(base, factor))
                else:
                    exps[hit[0]] += hit[1]
            if sign < 0:
                coeff = base.neg(coeff)
            key = tuple(exps)
            acc[key] = base.add(acc.get(key, base.zero), coeff)
            sign = 1
    if not acc:
        raise MalformedSpec(f"no terms in {s!r}")
    return {e: c for e, c in acc.items() if c != base.zero}


def _parse_coeff(base: "Ring", factor: str):
    """A coefficient factor, read by the base with one pair of parentheses
    stripped (fmt_terms wraps every non-integer coefficient in one), or
    else as written, so a tuple coefficient may be wrapped once or twice."""
    inner = _unwrap(factor)
    try:
        return base.parse(inner)
    except MalformedSpec as err:
        if inner == factor:
            raise
        try:
            return base.parse(factor)
        except MalformedSpec:
            raise err from None


def _fmt_univariate(base: "Ring", var: str, val: int, coeffs: tuple) -> str:
    """Print sum(coeffs[k] * var^(val + k)), highest power first."""
    return fmt_terms(base, (("" if e == 0 else var if e == 1 else f"{var}^{e}", c)
                            for e, c in reversed(list(enumerate(coeffs, val)))
                            if c != base.zero))


def _parse_univariate(base: "Ring", var: str, s: str) -> tuple[int, tuple]:
    """The laurent payload (valuation, coefficients) of s."""
    vpat = re.compile(re.escape(var) + r"(?:\^(-?[0-9]+))?\Z")

    def read_var(factor):
        m = vpat.match(factor)
        return m and (0, int(m.group(1) or 1))

    terms = {e: c for (e,), c in parse_terms(base, s, read_var).items()}
    if not terms:
        return 0, ()
    lo = min(terms)
    return lo, tuple(terms.get(k, base.zero) for k in range(lo, max(terms) + 1))


def _fmt_pair(items: Iterable[str]) -> str:
    return "(" + "|".join(items) + ")"


def _parse_pair(s: str, arity: int) -> list[str]:
    s = s.strip().replace(" ", "")
    if not (s.startswith("(") and s.endswith(")")):
        raise MalformedSpec(f"expected parenthesised tuple, got {s!r}")
    comps = _split_top(s[1:-1], "|")[::2]
    if len(comps) != arity:
        raise MalformedSpec(f"expected {arity} components in {s!r}")
    return comps


# ---------------------------------------------------------------------------
# ring handles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingTables:
    """A finite ring compiled to element indices: add[x][y], neg[x] and
    mul[x][y] are indices, as are zero and one; inv[x] is the index of
    the inverse of x, or None when x is not a unit."""

    elements: tuple
    index: dict
    add: tuple
    neg: tuple
    mul: tuple
    inv: tuple
    zero: int
    one: int


class Ring:
    """Base class: exact ops on payloads, plus enumeration for finite rings."""

    kind = "?"
    _table_ops = True  # compile() rebinds add/neg/sub/mul to table lookups

    def __init__(self):
        self._elements: Optional[tuple] = None
        self._tables: Optional[RingTables] = None
        # (action, n, ideal) -> moves compiled on _tables (orbits._search_moves)
        self._moves: dict = {}

    # -- identity ------------------------------------------------------
    def spec_key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self.spec_key() == other.spec_key()

    def __hash__(self):
        return hash(self.spec_key())

    def __repr__(self):
        return f"<ring {self.describe()}>"

    def describe(self) -> str:
        raise NotImplementedError

    # -- arithmetic ------------------------------------------------------
    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def pow(self, a, k: int):
        if k < 0:
            return self.pow(self.inv(a), -k)
        out, base = self.one, a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def dot(self, u, v):
        out = self.zero
        for a, b in zip(u, v):
            out = self.add(out, self.mul(a, b))
        return out

    def scalar_int(self, n: int):
        """Image of the integer n under the canonical map Z -> R."""
        raise NotImplementedError

    # -- units -----------------------------------------------------------
    def _inverse(self, a):
        """The inverse of a, or None when a is not a unit.  Each ring kind
        states its unit rule here once; is_unit and inv both read it."""
        t = self.compile()
        k = t.inv[t.index[a]]
        return None if k is None else t.elements[k]

    def is_unit(self, a) -> bool:
        return self._inverse(a) is not None

    def inv(self, a):
        out = self._inverse(a)
        if out is None:
            raise NotAUnit(f"{self.fmt(a)} is not a unit of {self.describe()}")
        return out

    def is_nilpotent(self, a) -> bool:
        if a == self.zero:
            return True
        if not self.is_finite:
            raise UndecidableMembership(
                f"no nilpotency test over {self.describe()}")
        seen, x = set(), a  # the powers of a repeat within |R| steps
        while x not in seen:
            seen.add(x)
            x = self.mul(x, a)
            if x == self.zero:
                return True
        return False

    # -- enumeration -------------------------------------------------------
    @property
    def is_finite(self) -> bool:
        return False

    @property
    def size(self) -> int:
        return len(self.elements())

    def elements(self) -> tuple:
        """Every element in enumeration order.  A ring past MEMORY_CAP
        elements is refused, from its known size when it has one."""
        if self._elements is None:
            size = self._known_size()
            if size is None or size <= MEMORY_CAP:
                els = self._take(MEMORY_CAP)
                size = len(els)
            if size > MEMORY_CAP:
                raise BoundExceeded(
                    f"{self.describe()} has more than {MEMORY_CAP} elements, "
                    f"past the memory cap")
            self._elements = els
        return self._elements

    def _take(self, cap: int) -> tuple:
        """The elements in enumeration order, but at most cap + 1 of them."""
        if self._elements is not None:
            return self._elements
        if not self.is_finite:
            raise InfiniteRing(f"{self.describe()} has infinitely many elements")
        return tuple(itertools.islice(self._iter_elements(), cap + 1))

    def _iter_elements(self):
        raise InfiniteRing(self.describe())

    def _known_size(self) -> Optional[int]:
        """The number of elements where it is known without counting them."""
        return None

    def compile(self) -> "RingTables":
        """Operation tables on element indices, built once per handle.

        Index k stands for elements()[k].  The tables hold |R|^2 entries
        each, so a ring past sqrt(MEMORY_CAP) elements is refused before
        more than that many elements are drawn.  Unless _table_ops is
        off (Z/n), the first compile also rebinds the handle's add, neg,
        sub and mul to lookups in the tables.
        """
        if self._tables is None:
            side = math.isqrt(MEMORY_CAP)
            els = self._take(side)
            q = len(els)
            if q > side:
                raise BoundExceeded(
                    f"op tables of a ring with at least {q} elements (at least "
                    f"{q}^2 entries) are past the memory cap of {MEMORY_CAP}")
            self._elements = els
            index = {x: k for k, x in enumerate(els)}
            one = index[self.one]
            mul = tuple(tuple(index[self.mul(a, b)] for b in els) for a in els)
            t = self._tables = RingTables(
                els, index,
                tuple(tuple(index[self.add(a, b)] for b in els) for a in els),
                tuple(index[self.neg(a)] for a in els),
                mul,
                tuple(row.index(one) if one in row else None for row in mul),
                index[self.zero], one)
            if self._table_ops:
                add, neg = t.add, t.neg
                self.add = lambda a, b: els[add[index[a]][index[b]]]
                self.neg = lambda a: els[neg[index[a]]]
                self.sub = lambda a, b: els[add[index[a]][neg[index[b]]]]
                self.mul = lambda a, b: els[mul[index[a]][index[b]]]
        return self._tables

    # -- payload hygiene and strings ----------------------------------------
    def check(self, a):
        """Validate (and return) a payload; raise RingMismatch if malformed."""
        raise NotImplementedError

    def fmt(self, a) -> str:
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError


class _NumberRing(Ring):
    """Z or Q: Python's own arithmetic on int or Fraction payloads."""

    def spec_key(self):
        return (self.kind,)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_nilpotent(self, a):
        return a == 0

    def fmt(self, a):
        return str(a)


class IntegerRing(_NumberRing):
    kind = "integers"
    zero, one = 0, 1

    def describe(self):
        return "Z"

    def scalar_int(self, n):
        return n

    def _inverse(self, a):
        return a if a in (1, -1) else None

    def check(self, a):
        if not isinstance(a, int) or isinstance(a, bool):
            raise RingMismatch(f"integer payload expected, got {a!r}")
        return a

    def parse(self, s):
        s = s.strip()
        if not _INT_RE.match(s):
            raise MalformedSpec(f"not an integer literal: {s!r}")
        return int(s)


class RationalField(_NumberRing):
    """The rationals; payloads are Fractions (always in lowest terms)."""

    kind = "rationals"
    zero, one = Fraction(0), Fraction(1)

    def describe(self):
        return "Q"

    def scalar_int(self, n):
        return Fraction(n)

    def _inverse(self, a):
        return 1 / a if a != 0 else None

    def check(self, a):
        if not isinstance(a, Fraction):
            raise RingMismatch(f"Fraction payload expected, got {a!r}")
        return a

    def parse(self, s):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError):
            raise MalformedSpec(f"not a rational literal: {s!r}") from None


class ModularRing(Ring):
    kind = "modular"
    _table_ops = False  # % beats a table lookup

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise MalformedSpec(f"modulus must be an integer >= 2, got {n!r}")
        super().__init__()
        self.n = n
        self.zero, self.one = 0, 1 % n

    def spec_key(self):
        return ("modular", self.n)

    def describe(self):
        return f"Z/{self.n}"

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def scalar_int(self, k):
        return k % self.n

    def _inverse(self, a):
        return pow(a, -1, self.n) if math.gcd(a, self.n) == 1 else None

    @property
    def is_finite(self):
        return True

    def _iter_elements(self):
        return iter(range(self.n))

    def _known_size(self):
        return self.n

    def check(self, a):
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.n:
            raise RingMismatch(f"payload {a!r} outside Z/{self.n}")
        return a

    def fmt(self, a):
        return str(a)

    def parse(self, s):
        s = s.strip()
        if not _INT_RE.match(s):
            raise MalformedSpec(f"not an integer literal: {s!r}")
        return int(s) % self.n


class PolynomialRing(Ring):
    kind = "polynomial"

    def __init__(self, base: Ring, var: str = "X"):
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", var):
            raise MalformedSpec(f"bad variable name {var!r}")
        super().__init__()
        self.base, self.var = base, var
        self.zero, self.one = (), (base.one,)

    def spec_key(self):
        return ("polynomial", self.base.spec_key(), self.var)

    def describe(self):
        return f"{self.base.describe()}[{self.var}]"

    def add(self, a, b):
        return _poly_add(self.base, a, b)

    def neg(self, a):
        return _poly_neg(self.base, a)

    def mul(self, a, b):
        return _poly_mul(self.base, a, b)

    def scalar_int(self, n):
        return self.constant(self.base.scalar_int(n))

    def constant(self, c):
        return (c,) if c != self.base.zero else ()

    def _inverse(self, a):
        # a unit: a unit constant term c0 and nilpotent higher terms, so
        # a = c0 (1 + tail) with tail nilpotent
        u = self.base._inverse(a[0]) if a else None
        if u is None or not all(self.base.is_nilpotent(c) for c in a[1:]):
            return None
        c0_inv = self.constant(u)
        tail = self.mul(c0_inv, _poly_add(self.base, a, _poly_neg(self.base, (a[0],))))
        return _neumann(self, c0_inv, tail)

    def check(self, a):
        if not isinstance(a, tuple):
            raise RingMismatch(f"polynomial payload must be a tuple, got {a!r}")
        for c in a:
            self.base.check(c)
        if a and a[-1] == self.base.zero:
            raise RingMismatch("polynomial payload has trailing zero")
        return a

    def fmt(self, a):
        return _fmt_univariate(self.base, self.var, 0, a)

    def parse(self, s):
        lo, coeffs = _parse_univariate(self.base, self.var, s)
        if lo < 0:
            raise MalformedSpec(f"negative exponent outside a laurent ring: {s!r}")
        return (self.base.zero,) * lo + coeffs


class LaurentRing(Ring):
    kind = "laurent"

    def __init__(self, base: Ring, var: str = "t"):
        super().__init__()
        self.base, self.var = base, var
        self.zero, self.one = (0, ()), (0, (base.one,))
        self._blocks: Optional[tuple] = None

    def spec_key(self):
        return ("laurent", self.base.spec_key(), self.var)

    def describe(self):
        return f"{self.base.describe()}[{self.var},{self.var}^-1]"

    def _norm(self, val: int, coeffs: tuple) -> tuple:
        """The payload of sum(coeffs[k] * t^(val + k)); coeffs has no trailing zero."""
        if not coeffs:
            return (0, ())
        lo = 0
        while coeffs[lo] == self.base.zero:
            lo += 1
        return (val + lo, coeffs[lo:])

    def add(self, a, b):
        (va, ca), (vb, cb) = a, b
        lo, pad = min(va, vb), (self.base.zero,)
        return self._norm(lo, _poly_add(self.base, pad * (va - lo) + ca,
                                        pad * (vb - lo) + cb))

    def neg(self, a):
        return (a[0], _poly_neg(self.base, a[1]))

    def mul(self, a, b):
        (va, ca), (vb, cb) = a, b
        return self._norm(va + vb, _poly_mul(self.base, ca, cb))

    def scalar_int(self, n):
        c = self.base.scalar_int(n)
        return (0, (c,)) if c != self.base.zero else (0, ())

    def _inverse(self, a):
        """Split a by the primitive idempotents e of the base, R = prod eR.

        Over a local ring a unit is a unit monomial u*t^d plus nilpotent
        terms, so a is a unit iff each e*a has exactly one coefficient
        that is a unit of eR and nilpotent others.  The inverse is the sum
        of the inverses of the e*a in eR[t, t^-1].  An infinite base is
        taken to have no idempotents but 0 and 1.  The idempotents are
        found once per handle, at the first unit question.
        """
        base = self.base
        if self._blocks is None:
            idem = ([x for x in base.elements()
                     if x != base.zero and base.mul(x, x) == x]
                    if base.is_finite else [base.one])
            self._blocks = tuple(e for e in idem
                                 if all(base.mul(e, f) in (base.zero, e) for f in idem))
        val, coeffs = a
        out = self.zero
        for e in self._blocks:
            off = base.sub(base.one, e)
            # e*c + 1 - e is a unit of R iff e*c is a unit of eR
            inverses = [base._inverse(base.add(base.mul(e, c), off)) for c in coeffs]
            units = [k for k, y in enumerate(inverses) if y is not None]
            if len(units) != 1 or not all(
                    base.is_nilpotent(base.mul(e, c))
                    for k, c in enumerate(coeffs) if k != units[0]):
                return None
            k = units[0]
            # e*a = m*(e + r) with m = e*u*t^d and r nilpotent: invert
            # e + r in eR by a geometric series
            ident = (0, (e,))
            m_inv = (-(val + k), (base.mul(e, inverses[k]),))
            ratio = self.sub(self.mul(self.mul(ident, a), m_inv), ident)
            out = self.add(out, self.mul(_neumann(self, ident, ratio), m_inv))
        return out

    def check(self, a):
        if not (isinstance(a, tuple) and len(a) == 2 and isinstance(a[0], int)):
            raise RingMismatch(f"laurent payload must be (valuation, coeffs), got {a!r}")
        val, coeffs = a
        for c in coeffs:
            self.base.check(c)
        if coeffs and (coeffs[0] == self.base.zero or coeffs[-1] == self.base.zero):
            raise RingMismatch("laurent payload not normalised")
        if not coeffs and val != 0:
            raise RingMismatch("zero laurent payload must have valuation 0")
        return a

    def fmt(self, a):
        return _fmt_univariate(self.base, self.var, *a)

    def parse(self, s):
        return _parse_univariate(self.base, self.var, s)


class QuotientRing(Ring):
    """base / (generators), with a canonical representative per class.

    Three reduction strategies, picked at construction:
      * base Z, one nonzero modulus: remainder mod |n|;
      * base a polynomial ring, one modulus with unit leading coefficient:
        remainder under polynomial division;
      * any finite base: each coset is represented by its first element
        in the base's enumeration order.
    """

    kind = "quotient"

    def __init__(self, base: Ring, moduli: tuple):
        super().__init__()
        moduli = tuple(base.check(m) for m in moduli)
        if not moduli or all(m == base.zero for m in moduli):
            raise MalformedSpec("quotient needs at least one nonzero modulus")
        self.base, self.moduli = base, moduli
        if base.kind == "integers" and len(moduli) == 1:
            self._mode = "int"
            self._m = abs(moduli[0])
            if self._m == 1:
                raise MalformedSpec("quotient by a unit collapses the ring")
        elif (base.kind == "polynomial" and len(moduli) == 1
              and base.base.is_unit(moduli[0][-1])):
            if len(moduli[0]) == 1:
                raise MalformedSpec("quotient by a unit collapses the ring")
            self._mode = "monic"
        elif base.is_finite:
            self._mode = "coset"
            closure = Ideal(base, moduli).members()
            if base.one in closure:
                raise MalformedSpec("quotient by the unit ideal collapses the ring")
            reps: dict = {}
            for x in base.elements():
                if x not in reps:
                    for d in closure:
                        reps[base.add(x, d)] = x
            self._reps = reps
        else:
            raise MalformedSpec(
                "quotient needs base Z, a monic polynomial modulus, or a finite base")
        self.zero = self.reduce(base.zero)
        self.one = self.reduce(base.one)

    def reduce(self, x):
        if self._mode == "int":
            return x % self._m
        if self._mode == "monic":
            return _poly_divmod(self.base.base, x, self.moduli[0])[1]
        return self._reps[x]

    def spec_key(self):
        return ("quotient", self.base.spec_key(), self.moduli)

    def describe(self):
        gens = ",".join(self.base.fmt(m) for m in self.moduli)
        return f"{self.base.describe()}/({gens})"

    def add(self, a, b):
        return self.reduce(self.base.add(a, b))

    def neg(self, a):
        return self.reduce(self.base.neg(a))

    def mul(self, a, b):
        return self.reduce(self.base.mul(a, b))

    def scalar_int(self, n):
        return self.reduce(self.base.scalar_int(n))

    @property
    def is_finite(self):
        if self._mode == "int" or self._mode == "coset":
            return True
        return self.base.base.is_finite

    def _inverse(self, a):
        if self._mode != "int":
            return super()._inverse(a)
        return pow(a, -1, self._m) if math.gcd(a, self._m) == 1 else None

    def _known_size(self):
        return self._m if self._mode == "int" else None

    def _iter_elements(self):
        if self._mode == "int":
            return iter(range(self._m))
        if self._mode == "coset":
            return (x for x in self.base.elements() if self._reps[x] == x)
        deg = len(self.moduli[0]) - 1
        coeff = self.base.base
        return (_strip(coeff, tup) for tup in
                itertools.product(coeff.elements(), repeat=deg))

    def check(self, a):
        self.base.check(a)
        # a compiled handle lists exactly the canonical forms
        canonical = (a in self._tables.index if self._tables is not None
                     else self.reduce(a) == a)
        if not canonical:
            raise RingMismatch(f"payload {a!r} is not in canonical form")
        return a

    def fmt(self, a):
        return self.base.fmt(a)

    def parse(self, s):
        return self.reduce(self.base.parse(s))


class ProductRing(Ring):
    kind = "product"

    def __init__(self, factors: tuple):
        if len(factors) < 2:
            raise MalformedSpec("product ring needs at least two factors")
        super().__init__()
        self.factors = tuple(factors)
        self.zero = tuple(f.zero for f in factors)
        self.one = tuple(f.one for f in factors)

    def spec_key(self):
        return ("product", tuple(f.spec_key() for f in self.factors))

    def describe(self):
        return " x ".join(f.describe() for f in self.factors)

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a):
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def scalar_int(self, n):
        return tuple(f.scalar_int(n) for f in self.factors)

    def _inverse(self, a):
        out = []
        for f, x in zip(self.factors, a):
            y = f._inverse(x)
            if y is None:
                return None
            out.append(y)
        return tuple(out)

    @property
    def is_finite(self):
        return all(f.is_finite for f in self.factors)

    def _iter_elements(self):
        return itertools.product(*(f.elements() for f in self.factors))

    def _known_size(self):
        sizes = [f._known_size() for f in self.factors]
        return None if None in sizes else math.prod(sizes)

    def check(self, a):
        if not isinstance(a, tuple) or len(a) != len(self.factors):
            raise RingMismatch(f"product payload arity mismatch: {a!r}")
        for f, x in zip(self.factors, a):
            f.check(x)
        return a

    def fmt(self, a):
        return _fmt_pair(f.fmt(x) for f, x in zip(self.factors, a))

    def parse(self, s):
        comps = _parse_pair(s, len(self.factors))
        return tuple(f.parse(c) for f, c in zip(self.factors, comps))


class ExcisionRing(Ring):
    """B (+) I with multiplication (b,i)(c,j) = (bc, b.j + c.i + ij).

    B is either the host ring of the ideal itself or the integers acting
    through n -> n*1.  The identity is (1, 0).
    """

    kind = "excision"

    def __init__(self, base: Ring, ideal: "Ideal"):
        super().__init__()
        host = ideal.ring
        if base != host and base.kind != "integers":
            raise MalformedSpec("excision base must match the ideal's ring or be Z")
        self.base, self.ideal, self.host = base, ideal, host
        # a base element acts on I through its image in the host
        self._lift = (lambda r: r) if base == host else host.scalar_int
        self.zero = (base.zero, host.zero)
        self.one = (base.one, host.zero)

    def spec_key(self):
        return ("excision", self.base.spec_key(), self.host.spec_key(), self.ideal.gens)

    def describe(self):
        return f"{self.base.describe()}(+){self.ideal.describe()}"

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.host.add(a[1], b[1]))

    def neg(self, a):
        return (self.base.neg(a[0]), self.host.neg(a[1]))

    def mul(self, a, b):
        (r, i), (s, j), host = a, b, self.host
        cross = host.add(host.mul(self._lift(r), j), host.mul(self._lift(s), i))
        return (self.base.mul(r, s), host.add(cross, host.mul(i, j)))

    def scalar_int(self, n):
        return (self.base.scalar_int(n), self.host.zero)

    def retract(self, a):
        """(r, i) -> r*1 + i in the host ring."""
        return self.host.add(self._lift(a[0]), a[1])

    def _inverse(self, a):
        try:
            r_inv = self.base._inverse(a[0])
            whole = None if r_inv is None else self.host._inverse(self.retract(a))
        except InfiniteRing:
            raise UndecidableMembership("unit test unavailable here")
        if whole is None:
            return None
        # (r+i)^-1 - r^-1 lies in I, giving the ideal component of the inverse
        return (r_inv, self.host.sub(whole, self._lift(r_inv)))

    @property
    def is_finite(self):
        return self.base.is_finite and self.host.is_finite

    def _iter_elements(self):
        members = self.ideal.members()
        return ((b, i) for b in self.base.elements() for i in members)

    def _known_size(self):
        size = self.base._known_size()
        return None if size is None else size * len(self.ideal.members())

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


class DoubleRing(ProductRing):
    """Fibre product {(a, b) in R x R : a - b in I}: the subring of the
    product R x R cut out by the congruence, with the product's ops and
    units (the inverse of a congruent pair is again congruent)."""

    kind = "double"

    def __init__(self, base: Ring, ideal: "Ideal"):
        if ideal.ring != base:
            raise MalformedSpec("double ring ideal must live over the base ring")
        super().__init__((base, base))
        self.base, self.ideal = base, ideal

    def spec_key(self):
        return ("double", self.base.spec_key(), self.ideal.gens)

    def describe(self):
        return f"D({self.base.describe()},{self.ideal.describe()})"

    def _iter_elements(self):
        members = self.ideal.members()
        return ((a, self.base.sub(a, d)) for a in self.base.elements() for d in members)

    def _known_size(self):
        # |R| * |I|, not the product's |R|^2
        size = self.base._known_size()
        return None if size is None else size * len(self.ideal.members())

    def check(self, a):
        if not (isinstance(a, tuple) and len(a) == 2):
            raise RingMismatch(f"double payload must be a pair, got {a!r}")
        super().check(a)
        if not self.ideal.contains(self.base.sub(a[0], a[1])):
            raise RingMismatch("components do not agree modulo the ideal")
        return a

    def parse(self, s):
        return self.check(super().parse(s))


class _Graded:
    """The Rees rings: the payloads of a polynomial (laurent) ring whose
    degree-i coefficient lies in I^i for every i >= 1."""

    def __init__(self, base: Ring, ideal: "Ideal", var: str = "t"):
        if ideal.ring != base:
            raise MalformedSpec("rees ideal must live over the base ring")
        super().__init__(base, var)
        self.ideal = ideal

    def spec_key(self):
        return (self.kind, self.base.spec_key(), self.ideal.gens, self.var)

    def _inverse(self, a):
        out = super()._inverse(a)
        return out if out is not None and self.contains(out) else None

    def inv(self, a):
        try:
            return super().inv(a)
        except NotAUnit:
            if super()._inverse(a) is None:
                raise
            raise NotAUnit("inverse escapes the graded subring") from None

    def contains(self, a) -> bool:
        return rees_contains(self, a)

    def check(self, a):
        super().check(a)
        if not self.contains(a):
            raise RingMismatch(
                f"{self.fmt(a)} violates the grading of {self.describe()}")
        return a

    def parse(self, s):
        return self.check(super().parse(s))


class ReesRing(_Graded, PolynomialRing):
    """R[It]: polynomials in t whose degree-i coefficient lies in I^i."""

    kind = "rees"

    def describe(self):
        return f"{self.base.describe()}[{self.ideal.describe()}{self.var}]"


class ExtendedReesRing(_Graded, LaurentRing):
    """R[It, t^-1]: laurent polynomials, graded only in positive degrees."""

    kind = "extended_rees"

    def describe(self):
        return f"{self.base.describe()}[{self.ideal.describe()}{self.var},{self.var}^-1]"


def rees_contains(ring: _Graded, a) -> bool:
    """Graded membership: the t^i coefficient must lie in I^i for i >= 1."""
    base, ideal = ring.base, ring.ideal
    if isinstance(ring, LaurentRing):
        val, coeffs = a
        pairs = [(val + k, c) for k, c in enumerate(coeffs)]
    else:
        pairs = list(enumerate(a))
    for i, c in pairs:
        if i >= 1 and c != base.zero and not ideal.power(i).contains(c):
            return False
    return True


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

class Ideal:
    """Finitely generated ideal with decidable membership where possible.

    The rule is chosen once, from the generators' shape, at the first
    question about a nonzero element: gcd over Z, division for principal
    ideals of Z[X] and single moduli with a unit leading coefficient,
    coefficientwise for constant generators of polynomial and Laurent
    rings, the second component for component-zero ideals of R (+) I and
    D(R, I).  Finite rings fall back to the member set; anything else
    raises UndecidableMembership on every question.
    """

    def __init__(self, ring: Ring, generators: Iterable):
        self.ring = ring
        self.gens = tuple(ring.check(g) for g in generators)
        self._members: Optional[tuple] = None
        self._basis: Optional[tuple] = None
        self._span: Optional[set] = None
        self._rule = None  # the membership test, chosen at the first nonzero question
        self._powers: dict[int, "Ideal"] = {}

    def spec_key(self):
        return (self.ring.spec_key(), self.gens)

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.spec_key() == other.spec_key()

    def __hash__(self):
        return hash(self.spec_key())

    def describe(self):
        return "(" + ",".join(self.ring.fmt(g) for g in self.gens) + ")"

    def is_zero(self) -> bool:
        return all(g == self.ring.zero for g in self.gens)

    def has_unit_generator(self) -> bool:
        try:
            return any(self.ring.is_unit(g) for g in self.gens)
        except (UndecidableMembership, InfiniteRing, BoundExceeded):
            # a unit generator makes the closure the whole ring, so callers
            # that fall back to the closure still get the right answer
            return False

    # -- membership --------------------------------------------------------
    def contains(self, x) -> bool:
        if x == self.ring.zero:
            return True
        if self._rule is None:
            self._rule = self._membership_rule()
        return self._rule(x)

    def _membership_rule(self):
        """The test of a nonzero element: the first case that fits."""
        ring, gens = self.ring, self.gens
        if self.is_zero():
            return lambda x: False
        if self.has_unit_generator():
            return lambda x: True
        if ring.kind == "integers":
            g = math.gcd(*gens)
            return lambda x: x % g == 0
        if ring.kind in ("polynomial", "laurent"):
            base = ring.base
            coeffs = (lambda a: a[1]) if ring.kind == "laurent" else (lambda a: a)
            if all(len(coeffs(g)) <= 1 for g in gens):
                # constant generators: coefficientwise membership in the core
                core = Ideal(base, tuple(coeffs(g)[0] for g in gens if coeffs(g)))
                return lambda x: all(map(core.contains, coeffs(x)))
            if ring.kind == "polynomial" and len(gens) == 1:
                g = gens[0]
                if base.kind == "integers":
                    # x = g q in Z[X] iff the quotient over Q is integral
                    q, gq = RationalField(), tuple(map(Fraction, g))

                    def rule(x):
                        quo, rem = _poly_divmod(q, tuple(map(Fraction, x)), gq)
                        return rem == () and all(c.denominator == 1 for c in quo)
                    return rule
                if base.is_unit(g[-1]):
                    return lambda x: _poly_divmod(base, x, g)[1] == ()
        if ring.kind in ("excision", "double"):
            zero0, host = ring.base.zero, ring.ideal.ring
            # the Z (+) I case has no clean structural rule
            if host == ring.base and all(g[0] == zero0 for g in gens):
                sub = Ideal(host, tuple(g[1] for g in gens))
                return lambda x: x[0] == zero0 and sub.contains(x[1])
        if ring.is_finite:
            self.members()  # no unit generator, so this builds the span
            return self._span.__contains__
        message = f"no membership rule for {self.describe()} over {ring.describe()}"

        def undecidable(x):
            raise UndecidableMembership(message)
        return undecidable

    # -- enumeration ---------------------------------------------------------
    def members(self) -> tuple:
        """All ideal elements, in the ring's enumeration order: the
        additive span of the r*g, r in R, g a generator."""
        if self._members is None:
            ring = self.ring
            if not ring.is_finite:
                raise InfiniteRing(
                    f"cannot enumerate {self.describe()} over {ring.describe()}")
            els = ring.elements()
            if self.has_unit_generator():
                self._members = els
            else:
                span = self._span = additive_span(
                    ring.zero, ring.add, (ring.mul(r, g) for g in self.gens for r in els))
                self._members = tuple(x for x in els if x in span)
        return self._members

    def basis(self) -> tuple:
        """Additive generating set, greedy in enumeration order: each
        member that is not in the span of the members kept before it.
        Over a unit ideal this is R's own basis.  Every member is a sum
        of basis elements, so e_ij(x + y) = e_ij(x) e_ij(y) lets moves
        over the basis stand for moves over every member."""
        if self._basis is None:
            ring, basis, span = self.ring, [], {self.ring.zero}
            for x in self.members():
                if x not in span:
                    basis.append(x)
                    span = additive_span(ring.zero, ring.add, basis)
            self._basis = tuple(basis)
        return self._basis

    def power(self, k: int) -> "Ideal":
        if k < 0:
            raise MalformedSpec("ideal powers need k >= 0")
        if k == 0:
            return Ideal(self.ring, (self.ring.one,))
        if k == 1:
            return self
        cached = self._powers.get(k)
        if cached is None:
            prods = set()
            for combo in itertools.combinations_with_replacement(self.gens, k):
                p = self.ring.one
                for g in combo:
                    p = self.ring.mul(p, g)
                prods.add(p)
            cached = self._powers[k] = Ideal(self.ring, tuple(sorted(prods, key=repr)))
        return cached

    def products_vanish(self) -> bool:
        """True when I*I = 0, i.e. all pairwise generator products are zero."""
        z = self.ring.zero
        return all(self.ring.mul(g, h) == z
                   for g in self.gens for h in self.gens)


def unit_ideal(ring: Ring) -> Ideal:
    return Ideal(ring, (ring.one,))


def zero_ideal(ring: Ring) -> Ideal:
    return Ideal(ring, (ring.zero,))


# ---------------------------------------------------------------------------
# the named maps between the tower's floors
# ---------------------------------------------------------------------------

def double_to_excision(double: DoubleRing, x) -> tuple[ExcisionRing, tuple]:
    """(a, b) -> (b, a - b); an isomorphism onto R (+) I."""
    target = ExcisionRing(double.base, double.ideal)
    a, b = x
    return target, (b, double.base.sub(a, b))


def excision_to_double(exc: ExcisionRing, x) -> tuple[DoubleRing, tuple]:
    """Inverse of double_to_excision: (r, i) -> (r + i, r)."""
    if exc.base != exc.host:
        raise MalformedSpec("only R (+) I excision rings match a double ring")
    target = DoubleRing(exc.base, exc.ideal)
    r, i = x
    return target, (exc.base.add(r, i), r)
