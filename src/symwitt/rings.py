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
    InfiniteRing,
    MalformedSpec,
    NotAUnit,
    RingMismatch,
    UndecidableMembership,
)

_MEMO_SIZE_CAP = 512  # composite rings up to this size cache op tables
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


# ---------------------------------------------------------------------------
# element string grammar
# ---------------------------------------------------------------------------
#
# integers/modular      -42, 3
# polynomial in t       3*t^2+t+1, (X+1)*t^2   (non-integer coefficients
#                       are parenthesised so parsing never backtracks)
# laurent               t^2+3*t^-1
# pairs / tuples        (a|b), (a|b|c)
#
# parse(fmt(x)) == x holds payload-exactly for every ring variant.

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


def _fmt_coeff(base: "Ring", c) -> str:
    s = base.fmt(c)
    return s if _INT_RE.match(s) else "(" + s + ")"


def _fmt_terms(base: "Ring", var: str, terms: list[tuple[int, object]]) -> str:
    """terms: (exponent, coefficient) with nonzero coefficients."""
    if not terms:
        return "0"
    parts = []
    for exp, c in sorted(terms, key=lambda t: -t[0]):
        cs = _fmt_coeff(base, c)
        if exp == 0:
            parts.append(cs)
            continue
        vp = var if exp == 1 else f"{var}^{exp}"
        if cs == "1":
            parts.append(vp)
        elif cs == "-1":
            parts.append("-" + vp)
        else:
            parts.append(cs + "*" + vp)
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def _parse_terms(base: "Ring", var: str, s: str) -> dict[int, object]:
    s = s.replace(" ", "")
    if not s:
        raise MalformedSpec("empty element string")
    toks = _split_top(s, "+-")
    # group into signed term strings; separators bind to the next term
    terms: list[tuple[int, str]] = []
    next_sign = 1
    for tok in toks:
        if tok == "+":
            continue
        if tok == "-":
            next_sign = -next_sign
            continue
        if tok == "":
            continue
        terms.append((next_sign, tok))
        next_sign = 1
    if not terms:
        raise MalformedSpec(f"no terms in {s!r}")
    acc: dict[int, object] = {}
    vpat = re.compile(re.escape(var) + r"(?:\^(-?[0-9]+))?\Z")
    for sg, term in terms:
        if term == "":
            raise MalformedSpec(f"dangling sign in {s!r}")
        coeff = base.one
        exp = 0
        for factor in _split_top(term, "*"):
            if factor == "*":
                continue
            m = vpat.match(factor)
            if m and not factor.startswith("("):
                exp += int(m.group(1)) if m.group(1) else 1
            else:
                coeff = base.mul(coeff, base.parse(_unwrap(factor)))
        if sg < 0:
            coeff = base.neg(coeff)
        acc[exp] = base.add(acc.get(exp, base.zero), coeff)
    return {e: c for e, c in acc.items() if c != base.zero}


def _fmt_pair(items: Iterable[str]) -> str:
    return "(" + "|".join(items) + ")"


def _parse_pair(s: str, arity: int) -> list[str]:
    s = s.strip().replace(" ", "")
    if not (s.startswith("(") and s.endswith(")")):
        raise MalformedSpec(f"expected parenthesised tuple, got {s!r}")
    toks = _split_top(s[1:-1], "|")
    comps = [t for t in toks if t != "|"]
    if len(comps) != arity:
        raise MalformedSpec(f"expected {arity} components in {s!r}")
    return comps


# ---------------------------------------------------------------------------
# ring handles
# ---------------------------------------------------------------------------

class Ring:
    """Base class: exact ops on payloads, plus enumeration for finite rings."""

    kind = "?"

    def __init__(self):
        self._elements: Optional[tuple] = None
        self._index: Optional[dict] = None
        self._inv_table: Optional[dict] = None
        self._nil_table: Optional[dict] = None

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
    def is_unit(self, a) -> bool:
        self._build_inverses()
        return a in self._inv_table

    def inv(self, a):
        self._build_inverses()
        try:
            return self._inv_table[a]
        except KeyError:
            raise NotAUnit(f"{self.fmt(a)} is not a unit of {self.describe()}")

    def _build_inverses(self):
        if self._inv_table is not None:
            return
        table = {}
        for a in self.elements():
            for b in self.elements():
                if self.mul(a, b) == self.one:
                    table[a] = b
                    break
        self._inv_table = table

    def is_nilpotent(self, a) -> bool:
        if a == self.zero:
            return True
        if not self.is_finite:
            raise UndecidableMembership(
                f"no nilpotency test over {self.describe()}")
        if self._nil_table is None:
            self._nil_table = {}
        cached = self._nil_table.get(a)
        if cached is not None:
            return cached
        seen, x = set(), a
        result = False
        while x not in seen:
            seen.add(x)
            x = self.mul(x, a)
            if x == self.zero:
                result = True
                break
        self._nil_table[a] = result
        return result

    # -- enumeration -------------------------------------------------------
    @property
    def is_finite(self) -> bool:
        return False

    @property
    def size(self) -> int:
        return len(self.elements())

    def elements(self) -> tuple:
        if not self.is_finite:
            raise InfiniteRing(f"{self.describe()} has infinitely many elements")
        if self._elements is None:
            self._elements = tuple(self._iter_elements())
        return self._elements

    def _iter_elements(self):
        raise InfiniteRing(self.describe())

    def element_index(self, a) -> int:
        if self._index is None:
            self._index = {x: k for k, x in enumerate(self.elements())}
        return self._index[a]

    # -- payload hygiene and strings ----------------------------------------
    def check(self, a):
        """Validate (and return) a payload; raise RingMismatch if malformed."""
        raise NotImplementedError

    def fmt(self, a) -> str:
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    def _install_memo(self):
        try:
            if not self.is_finite or self.size > _MEMO_SIZE_CAP:
                return
        except InfiniteRing:
            return
        raw_add, raw_mul = self.add, self.mul
        add_memo: dict = {}
        mul_memo: dict = {}

        def add(a, b):
            k = (a, b)
            v = add_memo.get(k)
            if v is None:
                v = add_memo[k] = raw_add(a, b)
            return v

        def mul(a, b):
            k = (a, b)
            v = mul_memo.get(k)
            if v is None:
                v = mul_memo[k] = raw_mul(a, b)
            return v

        self.add, self.mul = add, mul


class IntegerRing(Ring):
    kind = "integers"
    zero, one = 0, 1

    def spec_key(self):
        return ("integers",)

    def describe(self):
        return "Z"

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def scalar_int(self, n):
        return n

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise NotAUnit(f"{a} is not a unit of Z")

    def is_nilpotent(self, a):
        return a == 0

    def check(self, a):
        if not isinstance(a, int) or isinstance(a, bool):
            raise RingMismatch(f"integer payload expected, got {a!r}")
        return a

    def fmt(self, a):
        return str(a)

    def parse(self, s):
        s = s.strip()
        if not _INT_RE.match(s):
            raise MalformedSpec(f"not an integer literal: {s!r}")
        return int(s)


class RationalField(Ring):
    """The rationals; payloads are Fractions (always in lowest terms)."""

    kind = "rationals"
    zero, one = Fraction(0), Fraction(1)

    def spec_key(self):
        return ("rationals",)

    def describe(self):
        return "Q"

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def scalar_int(self, n):
        return Fraction(n)

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotAUnit("0 is not a unit of Q")
        return 1 / a

    def is_nilpotent(self, a):
        return a == 0

    def check(self, a):
        if not isinstance(a, Fraction):
            raise RingMismatch(f"Fraction payload expected, got {a!r}")
        return a

    def fmt(self, a):
        return str(a)

    def parse(self, s):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError):
            raise MalformedSpec(f"not a rational literal: {s!r}") from None


class ModularRing(Ring):
    kind = "modular"

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

    def is_unit(self, a):
        return math.gcd(a, self.n) == 1

    def inv(self, a):
        if math.gcd(a, self.n) != 1:
            raise NotAUnit(f"{a} is not a unit of Z/{self.n}")
        return pow(a, -1, self.n)

    @property
    def is_finite(self):
        return True

    def _iter_elements(self):
        return iter(range(self.n))

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
        c = self.base.scalar_int(n)
        return (c,) if c != self.base.zero else ()

    def constant(self, c):
        return (c,) if c != self.base.zero else ()

    def gen(self):
        return (self.base.zero, self.base.one)

    def degree(self, a) -> int:
        """Degree with deg 0 = -1 for the zero polynomial."""
        return len(a) - 1

    def is_unit(self, a):
        # unit iff constant term is a unit and the rest is nilpotent
        if not a:
            return False
        if not self.base.is_unit(a[0]):
            return False
        return all(self.base.is_nilpotent(c) for c in a[1:])

    def inv(self, a):
        if not self.is_unit(a):
            raise NotAUnit(f"{self.fmt(a)} is not a unit of {self.describe()}")
        # geometric series against the nilpotent tail
        c0_inv = self.constant(self.base.inv(a[0]))
        tail = self.mul(c0_inv, _poly_add(self.base, a, _poly_neg(self.base, (a[0],))))
        out, term = self.one, self.one
        while True:
            term = self.mul(term, self.neg(tail))
            if term == self.zero:
                break
            out = self.add(out, term)
        return self.mul(out, c0_inv)

    def check(self, a):
        if not isinstance(a, tuple):
            raise RingMismatch(f"polynomial payload must be a tuple, got {a!r}")
        for c in a:
            self.base.check(c)
        if a and a[-1] == self.base.zero:
            raise RingMismatch("polynomial payload has trailing zero")
        return a

    def fmt(self, a):
        return _fmt_terms(self.base, self.var, [(k, c) for k, c in enumerate(a) if c != self.base.zero])

    def parse(self, s):
        terms = _parse_terms(self.base, self.var, s)
        if any(e < 0 for e in terms):
            raise MalformedSpec(f"negative exponent outside a laurent ring: {s!r}")
        if not terms:
            return ()
        deg = max(terms)
        return _strip(self.base, tuple(terms.get(k, self.base.zero) for k in range(deg + 1)))


class LaurentRing(Ring):
    kind = "laurent"

    def __init__(self, base: Ring, var: str = "t"):
        super().__init__()
        self.base, self.var = base, var
        self.zero, self.one = (0, ()), (0, (base.one,))

    def spec_key(self):
        return ("laurent", self.base.spec_key(), self.var)

    def describe(self):
        return f"{self.base.describe()}[{self.var},{self.var}^-1]"

    def _norm(self, val: int, coeffs: list) -> tuple:
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == self.base.zero:
            lo += 1
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == self.base.zero:
            hi -= 1
        if lo == hi:
            return (0, ())
        return (val + lo, tuple(coeffs[lo:hi]))

    def add(self, a, b):
        (va, ca), (vb, cb) = a, b
        if not ca:
            return b
        if not cb:
            return a
        lo = min(va, vb)
        hi = max(va + len(ca), vb + len(cb))
        out = [self.base.zero] * (hi - lo)
        for k, c in enumerate(ca):
            out[va - lo + k] = self.base.add(out[va - lo + k], c)
        for k, c in enumerate(cb):
            out[vb - lo + k] = self.base.add(out[vb - lo + k], c)
        return self._norm(lo, out)

    def neg(self, a):
        return (a[0], _poly_neg(self.base, a[1]))

    def mul(self, a, b):
        (va, ca), (vb, cb) = a, b
        if not ca or not cb:
            return (0, ())
        return self._norm(va + vb, list(_poly_mul(self.base, ca, cb)))

    def scalar_int(self, n):
        c = self.base.scalar_int(n)
        return (0, (c,)) if c != self.base.zero else (0, ())

    def is_unit(self, a):
        # some power of the variable times a unit, up to nilpotent noise
        val, coeffs = a
        if not coeffs:
            return False
        hits = [k for k, c in enumerate(coeffs) if self.base.is_unit(c)]
        if len(hits) != 1:
            return False
        return all(self.base.is_nilpotent(c) for k, c in enumerate(coeffs) if k != hits[0])

    def inv(self, a):
        if not self.is_unit(a):
            raise NotAUnit(f"{self.fmt(a)} is not a unit of {self.describe()}")
        val, coeffs = a
        k = next(k for k, c in enumerate(coeffs) if self.base.is_unit(c))
        # a = u*t^d + n with n nilpotent; invert by a geometric series
        m_inv = (-(val + k), (self.base.inv(coeffs[k]),))
        rest = self.sub(a, (val + k, (coeffs[k],)))
        ratio = self.mul(rest, m_inv)
        out = term = self.one
        while True:
            term = self.mul(term, self.neg(ratio))
            if term == (0, ()):
                break
            out = self.add(out, term)
        return self.mul(out, m_inv)

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
        val, coeffs = a
        return _fmt_terms(self.base, self.var,
                          [(val + k, c) for k, c in enumerate(coeffs) if c != self.base.zero])

    def parse(self, s):
        terms = _parse_terms(self.base, self.var, s)
        if not terms:
            return (0, ())
        lo, hi = min(terms), max(terms)
        return self._norm(lo, [terms.get(k, self.base.zero) for k in range(lo, hi + 1)])


class QuotientRing(Ring):
    """base / (generators), with a canonical representative per class.

    Three reduction strategies, picked at construction:
      * base Z, one nonzero modulus: remainder mod |n|;
      * base a polynomial ring, one modulus with unit leading coefficient:
        remainder under polynomial division;
      * any finite base: coset representatives from the ideal closure.
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
            closure = set(Ideal(base, moduli).members())
            if base.one in closure:
                raise MalformedSpec("quotient by the unit ideal collapses the ring")
            reps: dict = {}
            for x in base.elements():
                if x in reps:
                    continue
                coset = sorted((base.add(x, d) for d in closure), key=base.element_index)
                rep = coset[0]
                for y in coset:
                    reps[y] = rep
            self._reps = reps
        else:
            raise MalformedSpec(
                "quotient needs base Z, a monic polynomial modulus, or a finite base")
        self.zero = self.reduce(base.zero)
        self.one = self.reduce(base.one)
        self._install_memo()

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

    def _iter_elements(self):
        if self._mode == "int":
            return iter(range(self._m))
        if self._mode == "coset":
            seen = sorted(set(self._reps.values()), key=self.base.element_index)
            return iter(seen)
        deg = len(self.moduli[0]) - 1
        coeff = self.base.base
        return (_strip(coeff, tup) for tup in
                itertools.product(coeff.elements(), repeat=deg))

    def check(self, a):
        self.base.check(a)
        if self.reduce(a) != a:
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
        self._install_memo()

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

    def is_unit(self, a):
        return all(f.is_unit(x) for f, x in zip(self.factors, a))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    @property
    def is_finite(self):
        return all(f.is_finite for f in self.factors)

    def _iter_elements(self):
        return itertools.product(*(f.elements() for f in self.factors))

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
        self._same = base == host
        self.zero = (base.zero, host.zero)
        self.one = (base.one, host.zero)
        self._install_memo()

    def _act(self, b, j):
        """Multiply an ideal element by a base element inside the host."""
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
        """(r, i) -> r*1 + i in the host ring."""
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
        # (r+i)^-1 - r^-1 lies in I, giving the ideal component of the inverse
        j = self.host.sub(self.host.inv(self.retract(a)),
                          self._inv_base_in_host(a[0]))
        return (r_inv, j)

    def _inv_base_in_host(self, r):
        if self._same:
            return self.host.inv(r)
        # r = +-1 in Z; its image inverts to itself
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


class DoubleRing(Ring):
    """Fibre product {(a, b) in R x R : a - b in I}, componentwise ops."""

    kind = "double"

    def __init__(self, base: Ring, ideal: "Ideal"):
        if ideal.ring != base:
            raise MalformedSpec("double ring ideal must live over the base ring")
        super().__init__()
        self.base, self.ideal = base, ideal
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.one)
        self._install_memo()

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
        # inverse of a congruent pair is again congruent
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


class ReesRing(Ring):
    """R[It]: polynomials in t whose degree-i coefficient lies in I^i."""

    kind = "rees"
    _extended = False

    def __init__(self, base: Ring, ideal: "Ideal", var: str = "t"):
        if ideal.ring != base:
            raise MalformedSpec("rees ideal must live over the base ring")
        super().__init__()
        self.base, self.ideal, self.var = base, ideal, var
        self._inner = PolynomialRing(base, var)
        self.zero, self.one = self._inner.zero, self._inner.one

    def spec_key(self):
        return ("rees", self.base.spec_key(), self.ideal.gens, self.var)

    def describe(self):
        return f"{self.base.describe()}[{self.ideal.describe()}{self.var}]"

    def add(self, a, b):
        return self._inner.add(a, b)

    def neg(self, a):
        return self._inner.neg(a)

    def mul(self, a, b):
        return self._inner.mul(a, b)

    def scalar_int(self, n):
        return self._inner.scalar_int(n)

    def is_unit(self, a):
        return self._inner.is_unit(a)

    def inv(self, a):
        out = self._inner.inv(a)
        if not self.contains(out):
            raise NotAUnit("inverse escapes the graded subring")
        return out

    def contains(self, a) -> bool:
        return rees_contains(self, a)

    def check(self, a):
        self._inner.check(a)
        if not self.contains(a):
            raise RingMismatch(
                f"{self._inner.fmt(a)} violates the grading of {self.describe()}")
        return a

    def fmt(self, a):
        return self._inner.fmt(a)

    def parse(self, s):
        return self.check(self._inner.parse(s))


class ExtendedReesRing(ReesRing):
    """R[It, t^-1]: laurent polynomials, graded only in positive degrees."""

    kind = "extended_rees"
    _extended = True

    def __init__(self, base: Ring, ideal: "Ideal", var: str = "t"):
        if ideal.ring != base:
            raise MalformedSpec("rees ideal must live over the base ring")
        Ring.__init__(self)
        self.base, self.ideal, self.var = base, ideal, var
        self._inner = LaurentRing(base, var)
        self.zero, self.one = self._inner.zero, self._inner.one

    def spec_key(self):
        return ("extended_rees", self.base.spec_key(), self.ideal.gens, self.var)

    def describe(self):
        return f"{self.base.describe()}[{self.ideal.describe()}{self.var},{self.var}^-1]"


def rees_contains(ring: ReesRing, a) -> bool:
    """Graded membership: the t^i coefficient must lie in I^i for i >= 1."""
    base, ideal = ring.base, ring.ideal
    if ring._extended:
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

    Membership is structural for Z (gcd), principal ideals of Z[X] and
    single monic moduli (division), constant-generator ideals of
    polynomial rings (coefficientwise), and component-zero ideals of
    excision/double rings.  Finite rings fall back to the closure set;
    anything else raises UndecidableMembership.
    """

    def __init__(self, ring: Ring, generators: Iterable):
        self.ring = ring
        self.gens = tuple(ring.check(g) for g in generators)
        self._members: Optional[tuple] = None
        self._member_set: Optional[frozenset] = None
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
        except (UndecidableMembership, InfiniteRing):
            return False

    # -- membership --------------------------------------------------------
    def contains(self, x) -> bool:
        ring = self.ring
        if self.is_zero():
            return x == ring.zero
        if x == ring.zero or self.has_unit_generator():
            return True
        if ring.kind == "integers":
            g = 0
            for a in self.gens:
                g = math.gcd(g, abs(a))
            return x % g == 0
        if ring.kind in ("polynomial", "laurent"):
            verdict = self._poly_contains(x)
            if verdict is not None:
                return verdict
        if ring.kind in ("excision", "double"):
            verdict = self._pair_contains(x)
            if verdict is not None:
                return verdict
        if ring.is_finite:
            if self._member_set is None:
                self._member_set = frozenset(self.members())
            return x in self._member_set
        raise UndecidableMembership(
            f"no membership rule for {self.describe()} over {ring.describe()}")

    def _poly_contains(self, x) -> Optional[bool]:
        ring, base = self.ring, self.ring.base
        if ring.kind == "polynomial":
            if all(len(g) <= 1 for g in self.gens):
                # constant generators: coefficientwise membership below
                core = Ideal(base, tuple(g[0] for g in self.gens if g))
                return all(core.contains(c) for c in x)
            if len(self.gens) == 1:
                g = self.gens[0]
                if base.kind == "integers":
                    return _zx_divides(g, x)
                if base.is_unit(g[-1]):
                    return _poly_divmod(base, x, g)[1] == ()
        else:  # laurent
            if all(len(g[1]) <= 1 for g in self.gens):
                core = Ideal(base, tuple(g[1][0] for g in self.gens if g[1]))
                return all(core.contains(c) for c in x[1])
        return None

    def _pair_contains(self, x) -> Optional[bool]:
        ring = self.ring
        zero0 = ring.base.zero
        if not all(g[0] == zero0 for g in self.gens):
            return None
        if ring.kind == "excision" and not ring._same:
            return None  # the Z (+) I case has no clean structural rule
        host = ring.host if ring.kind == "excision" else ring.base
        sub = Ideal(host, tuple(g[1] for g in self.gens))
        return x[0] == zero0 and sub.contains(x[1])

    # -- closure -------------------------------------------------------------
    def members(self) -> tuple:
        """All ideal elements, sorted in the ring's enumeration order."""
        if self._members is not None:
            return self._members
        ring = self.ring
        if not ring.is_finite:
            raise InfiniteRing(f"cannot enumerate {self.describe()} over {ring.describe()}")
        seeds = set()
        for g in self.gens:
            for r in ring.elements():
                seeds.add(ring.mul(r, g))
        group = {ring.zero}
        for s in seeds:
            if s in group:
                continue
            worklist = [s]
            while worklist:
                x = worklist.pop()
                if x in group:
                    continue
                group.add(x)
                worklist.extend(ring.add(x, y) for y in tuple(group))
        self._members = tuple(sorted(group, key=ring.element_index))
        self._member_set = frozenset(group)
        return self._members

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


def _zx_divides(g: tuple, x: tuple) -> bool:
    """Divisibility in Z[X] via exact division over Q."""
    if not g:
        return not x
    if not x:
        return True
    gq = [Fraction(c) for c in g]
    rem = [Fraction(c) for c in x]
    lead = gq[-1]
    quo: list[Fraction] = []
    while len(rem) >= len(g):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(g):
            break
        f = rem[-1] / lead
        quo.append(f)
        shift = len(rem) - len(g)
        for k, c in enumerate(gq):
            rem[shift + k] -= f * c
    return all(c == 0 for c in rem) and all(f.denominator == 1 for f in quo)


def unit_ideal(ring: Ring) -> Ideal:
    return Ideal(ring, (ring.one,))


def zero_ideal(ring: Ring) -> Ideal:
    return Ideal(ring, (ring.zero,))


# ---------------------------------------------------------------------------
# element wrapper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class El:
    """A payload tagged with its ring, with operator sugar."""

    ring: Ring
    value: object

    @classmethod
    def make(cls, ring: Ring, value) -> "El":
        return cls(ring, ring.check(value))

    @classmethod
    def parse(cls, ring: Ring, s: str) -> "El":
        return cls(ring, ring.parse(s))

    def _coerce(self, other) -> object:
        if isinstance(other, El):
            if other.ring != self.ring:
                raise RingMismatch(
                    f"{self.ring.describe()} vs {other.ring.describe()}")
            return other.value
        return other

    def __add__(self, other):
        return El(self.ring, self.ring.add(self.value, self._coerce(other)))

    def __sub__(self, other):
        return El(self.ring, self.ring.sub(self.value, self._coerce(other)))

    def __mul__(self, other):
        return El(self.ring, self.ring.mul(self.value, self._coerce(other)))

    def __neg__(self):
        return El(self.ring, self.ring.neg(self.value))

    def __str__(self):
        return self.ring.fmt(self.value)

    def is_unit(self) -> bool:
        return self.ring.is_unit(self.value)

    def inv(self) -> "El":
        return El(self.ring, self.ring.inv(self.value))


# ---------------------------------------------------------------------------
# the named maps between the tower's floors
# ---------------------------------------------------------------------------

def excision_section(ring: ExcisionRing, r):
    """The multiplicative section r -> (r, 0)."""
    ring.base.check(r)
    return (r, ring.host.zero)


def excision_project(ring: ExcisionRing, x, which: str = "retract"):
    """Project (r, i): 'first' keeps r, 'retract' evaluates r + i in the host."""
    if which == "first":
        return x[0]
    if which == "retract":
        return ring.retract(x)
    raise MalformedSpec(f"unknown projection {which!r}")


def double_to_excision(double: DoubleRing, x) -> tuple[ExcisionRing, tuple]:
    """(a, b) -> (b, a - b); an isomorphism onto R (+) I."""
    target = ExcisionRing(double.base, double.ideal)
    a, b = x
    return target, (b, double.base.sub(a, b))


def excision_to_double(exc: ExcisionRing, x) -> tuple[DoubleRing, tuple]:
    """Inverse of double_to_excision: (r, i) -> (r + i, r)."""
    if not exc._same:
        raise MalformedSpec("only R (+) I excision rings match a double ring")
    target = DoubleRing(exc.base, exc.ideal)
    r, i = x
    return target, (exc.base.add(r, i), r)
