"""Matrices over the ring tower: Pfaffians, standard forms, group words.

Matrices are immutable row-major payload tuples.  The Pfaffian and the
determinant are both computed by division-free minor expansion with
bitmask memoisation, so they are exact over every ring variant,
including rings of characteristic 2 where "alternating" must mean
skew-symmetric with zero diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import (
    BadIndices,
    IndexOutOfRange,
    NotAlternating,
    OddSize,
    RingMismatch,
    SizeMismatch,
)
from .rings import Ideal, Ring


@dataclass(frozen=True)
class RingMatrix:
    ring: Ring
    rows: int
    cols: int
    entries: tuple

    @classmethod
    def from_rows(cls, ring: Ring, rows: Sequence[Sequence]) -> "RingMatrix":
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise SizeMismatch("ragged rows")
        flat = tuple(ring.check(x) for row in rows for x in row)
        return cls(ring, len(rows), len(rows[0]) if rows else 0, flat)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "RingMatrix":
        e = [ring.zero] * (n * n)
        for k in range(n):
            e[k * n + k] = ring.one
        return cls(ring, n, n, tuple(e))

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "RingMatrix":
        return cls(ring, rows, cols, (ring.zero,) * (rows * cols))

    def get(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def _check_peer(self, other: "RingMatrix"):
        if self.ring != other.ring:
            raise RingMismatch("matrices over different rings")

    def add(self, other: "RingMatrix") -> "RingMatrix":
        self._check_peer(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise SizeMismatch("shape mismatch in add")
        r = self.ring
        return RingMatrix(r, self.rows, self.cols,
                          tuple(r.add(a, b) for a, b in zip(self.entries, other.entries)))

    def sub(self, other: "RingMatrix") -> "RingMatrix":
        return self.add(other.neg())

    def neg(self) -> "RingMatrix":
        r = self.ring
        return RingMatrix(r, self.rows, self.cols, tuple(r.neg(a) for a in self.entries))

    def mul(self, other: "RingMatrix") -> "RingMatrix":
        self._check_peer(other)
        if self.cols != other.rows:
            raise SizeMismatch("shape mismatch in mul")
        r = self.ring
        n, m, k = self.rows, other.cols, self.cols
        out = []
        for i in range(n):
            base = i * k
            for j in range(m):
                acc = r.zero
                for t in range(k):
                    a = self.entries[base + t]
                    if a != r.zero:
                        acc = r.add(acc, r.mul(a, other.entries[t * m + j]))
                out.append(acc)
        return RingMatrix(r, n, m, tuple(out))

    def scale(self, c) -> "RingMatrix":
        r = self.ring
        c = r.check(c)
        return RingMatrix(r, self.rows, self.cols,
                          tuple(r.mul(c, a) for a in self.entries))

    def transpose(self) -> "RingMatrix":
        return RingMatrix(self.ring, self.cols, self.rows,
                          tuple(self.entries[j * self.cols + i]
                                for i in range(self.cols) for j in range(self.rows)))

    def is_alternating(self) -> bool:
        """Skew-symmetric with zero diagonal (the right notion in char 2)."""
        if self.rows != self.cols:
            return False
        r = self.ring
        for i in range(self.rows):
            if self.get(i, i) != r.zero:
                return False
            for j in range(i + 1, self.cols):
                if self.get(i, j) != r.neg(self.get(j, i)):
                    return False
        return True

    def congruent_by(self, g: "RingMatrix") -> "RingMatrix":
        """g^T * self * g."""
        return g.transpose().mul(self).mul(g)


def orth_sum(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Block diagonal sum of two square matrices."""
    a._check_peer(b)
    if a.rows != a.cols or b.rows != b.cols:
        raise SizeMismatch("orth_sum needs square blocks")
    r = a.ring
    n = a.rows + b.rows
    out = [r.zero] * (n * n)
    for i in range(a.rows):
        for j in range(a.cols):
            out[i * n + j] = a.get(i, j)
    for i in range(b.rows):
        for j in range(b.cols):
            out[(a.rows + i) * n + (a.rows + j)] = b.get(i, j)
    return RingMatrix(r, n, n, tuple(out))


def pfaffian(m: RingMatrix):
    """Division-free Pfaffian by expansion along the first remaining index."""
    if m.rows != m.cols:
        raise SizeMismatch("pfaffian needs a square matrix")
    if m.rows % 2:
        raise OddSize(f"pfaffian undefined for size {m.rows}")
    if not m.is_alternating():
        raise NotAlternating("pfaffian needs an alternating matrix")
    ring = m.ring
    n = m.rows
    if n == 0:
        return ring.one
    a = [list(m.row(i)) for i in range(n)]
    memo = {0: ring.one}

    def pf(mask: int):
        got = memo.get(mask)
        if got is not None:
            return got
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        acc = ring.zero
        pos = 0
        mm = rest
        while mm:
            j = (mm & -mm).bit_length() - 1
            mm ^= 1 << j
            pos += 1
            aij = a[i][j]
            if aij != ring.zero:
                term = ring.mul(aij, pf(rest ^ (1 << j)))
                acc = ring.add(acc, term if pos % 2 else ring.neg(term))
        memo[mask] = acc
        return acc

    return pf((1 << n) - 1)


def determinant(m: RingMatrix):
    """Division-free determinant (minor expansion, memoised on column sets)."""
    if m.rows != m.cols:
        raise SizeMismatch("determinant needs a square matrix")
    ring = m.ring
    n = m.rows
    if n == 0:
        return ring.one
    a = [list(m.row(i)) for i in range(n)]
    memo = {0: ring.one}

    def minor(mask: int):
        got = memo.get(mask)
        if got is not None:
            return got
        r = n - bin(mask).count("1")
        acc = ring.zero
        pos = 0
        mm = mask
        while mm:
            j = (mm & -mm).bit_length() - 1
            mm ^= 1 << j
            arj = a[r][j]
            if arj != ring.zero:
                term = ring.mul(arj, minor(mask ^ (1 << j)))
                acc = ring.add(acc, term if pos % 2 == 0 else ring.neg(term))
            pos += 1
        memo[mask] = acc
        return acc

    return minor((1 << n) - 1)


# ---------------------------------------------------------------------------
# standard symplectic forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardForm:
    """chi_r^{s1} (+) chi_{n-r}^{s2}: r leading blocks of sign s1, the rest s2."""

    r: int
    n: int
    signs: tuple

    def __post_init__(self):
        if not (0 <= self.r <= self.n):
            raise BadIndices(f"need 0 <= r <= n, got r={self.r}, n={self.n}")
        if tuple(self.signs) not in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            raise BadIndices(f"signs must be a pair of +-1, got {self.signs!r}")

    def sign_vector(self) -> tuple:
        return (self.signs[0],) * self.r + (self.signs[1],) * (self.n - self.r)

    def realize(self, ring: Ring) -> RingMatrix:
        return chi_of_signs(ring, self.sign_vector())


@dataclass(frozen=True)
class FormWitness:
    """One sign per 2x2 block; closed under orthogonal sums, unlike the
    two-run StandardForm shape."""

    signs: tuple

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.signs):
            raise BadIndices(f"signs must be +-1, got {self.signs!r}")

    @property
    def n(self) -> int:
        return len(self.signs)

    @classmethod
    def from_standard(cls, form: StandardForm) -> "FormWitness":
        return cls(form.sign_vector())

    def as_standard(self) -> Union[StandardForm, None]:
        """The (r, signs) shape if the sign vector has at most two runs."""
        s = self.signs
        if not s:
            return StandardForm(0, 0, (1, 1))
        r = 0
        while r < len(s) and s[r] == s[0]:
            r += 1
        if any(x != s[r] for x in s[r:]):
            return None
        if r == len(s):
            return StandardForm(0, len(s), (1, s[0]))
        return StandardForm(r, len(s), (s[0], s[r]))

    def realize(self, ring: Ring) -> RingMatrix:
        return chi_of_signs(ring, self.signs)


def chi_of_signs(ring: Ring, signs: Sequence[int]) -> RingMatrix:
    n = len(signs)
    out = [ring.zero] * (2 * n) * (2 * n)
    for k, s in enumerate(signs):
        v = ring.one if s == 1 else ring.neg(ring.one)
        out[(2 * k) * 2 * n + (2 * k + 1)] = v
        out[(2 * k + 1) * 2 * n + (2 * k)] = ring.neg(v)
    return RingMatrix(ring, 2 * n, 2 * n, tuple(out))


def chi(ring: Ring, r: int, n: int, signs: tuple = (1, 1)) -> RingMatrix:
    return StandardForm(r, n, tuple(signs)).realize(ring)


def chi_n(ring: Ring, n: int) -> RingMatrix:
    """The standard chi_n = chi_1 (+) ... (+) chi_1."""
    return chi_of_signs(ring, (1,) * n)


# ---------------------------------------------------------------------------
# congruences modulo an ideal
# ---------------------------------------------------------------------------

def congruent_mod_ideal(a: RingMatrix, b: RingMatrix, ideal: Ideal) -> bool:
    a._check_peer(b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise SizeMismatch("shape mismatch in congruence test")
    r = a.ring
    return all(ideal.contains(r.sub(x, y)) for x, y in zip(a.entries, b.entries))


def in_congruence_level(m: RingMatrix, ideal: Ideal) -> bool:
    """Entrywise membership of m - identity in the ideal."""
    if m.rows != m.cols:
        raise SizeMismatch("congruence level needs a square matrix")
    return congruent_mod_ideal(m, RingMatrix.identity(m.ring, m.rows), ideal)


# ---------------------------------------------------------------------------
# group words for (relative) elementary matrices
# ---------------------------------------------------------------------------
#
# A word is syntax, not a matrix: membership in the relative elementary
# group is a property of how the matrix was written down, so the tokens
# are kept around and evaluated on demand.

@dataclass(frozen=True)
class Elem:
    """e_{ij}(a) = identity + a E_{ij}; indices are 1-based."""

    i: int
    j: int
    a: object


@dataclass(frozen=True)
class Conj:
    """conjugator * core * conjugator^{-1}, conjugator a tuple of Elem."""

    conjugator: tuple
    core: Elem


@dataclass(frozen=True)
class Inv:
    token: object


Token = Union[Elem, Conj, Inv]


@dataclass(frozen=True)
class GroupWord:
    ring: Ring
    size: int
    tokens: tuple

    def __post_init__(self):
        if self.size < 1:
            raise SizeMismatch(f"word size must be positive, got {self.size}")


def _elem_matrix(ring: Ring, size: int, tok: Elem) -> RingMatrix:
    if tok.i == tok.j:
        raise BadIndices(f"e_{{{tok.i}{tok.j}}} needs distinct indices")
    if not (1 <= tok.i <= size and 1 <= tok.j <= size):
        raise IndexOutOfRange(f"indices {tok.i},{tok.j} exceed size {size}")
    m = [ring.zero] * (size * size)
    for k in range(size):
        m[k * size + k] = ring.one
    m[(tok.i - 1) * size + (tok.j - 1)] = ring.check(tok.a)
    return RingMatrix(ring, size, size, tuple(m))


def _invert_token(ring: Ring, tok: Token) -> Token:
    if isinstance(tok, Elem):
        return Elem(tok.i, tok.j, ring.neg(ring.check(tok.a)))
    if isinstance(tok, Conj):
        return Conj(tok.conjugator, _invert_token(ring, tok.core))
    if isinstance(tok, Inv):
        return tok.token
    raise BadIndices(f"unknown token {tok!r}")


def token_matrix(ring: Ring, size: int, tok: Token) -> RingMatrix:
    if isinstance(tok, Elem):
        return _elem_matrix(ring, size, tok)
    if isinstance(tok, Conj):
        c = RingMatrix.identity(ring, size)
        for e in tok.conjugator:
            c = c.mul(_elem_matrix(ring, size, e))
        c_inv = RingMatrix.identity(ring, size)
        for e in reversed(tok.conjugator):
            c_inv = c_inv.mul(_elem_matrix(ring, size, _invert_token(ring, e)))
        return c.mul(token_matrix(ring, size, tok.core)).mul(c_inv)
    if isinstance(tok, Inv):
        return token_matrix(ring, size, _invert_token(ring, tok.token))
    raise BadIndices(f"unknown token {tok!r}")


def word_eval(word: GroupWord) -> RingMatrix:
    out = RingMatrix.identity(word.ring, word.size)
    for tok in word.tokens:
        out = out.mul(token_matrix(word.ring, word.size, tok))
    return out


def word_inverse(word: GroupWord) -> GroupWord:
    toks = tuple(_invert_token(word.ring, t) for t in reversed(word.tokens))
    return GroupWord(word.ring, word.size, toks)


def pad_word(word: GroupWord, size: int) -> GroupWord:
    """Same tokens acting on a larger identity block."""
    if size < word.size:
        raise SizeMismatch("cannot shrink a word")
    return GroupWord(word.ring, size, word.tokens)


def _core_entry(tok: Token):
    if isinstance(tok, Elem):
        return tok.a
    if isinstance(tok, Conj):
        return tok.core.a
    if isinstance(tok, Inv):
        return _core_entry(tok.token)
    raise BadIndices(f"unknown token {tok!r}")


def relative_level(word: GroupWord, ideal: Ideal) -> bool:
    """True when every core transvection entry lies in the ideal.

    Conjugator entries are unconstrained: the relative elementary group
    is generated by arbitrary conjugates of ideal-entry transvections.
    """
    if ideal.ring != word.ring:
        raise RingMismatch("ideal over a different ring than the word")
    return all(ideal.contains(word.ring.check(_core_entry(t))) for t in word.tokens)


# ---------------------------------------------------------------------------
# matrices over double rings
# ---------------------------------------------------------------------------

def double_matrix_split(m: RingMatrix) -> tuple[RingMatrix, RingMatrix]:
    """M_n(D) -> M_n(R) x M_n(R), componentwise."""
    ring = m.ring
    if ring.kind != "double":
        raise RingMismatch("double_matrix_split needs a matrix over a double ring")
    base = ring.base
    first = tuple(x[0] for x in m.entries)
    second = tuple(x[1] for x in m.entries)
    return (RingMatrix(base, m.rows, m.cols, first),
            RingMatrix(base, m.rows, m.cols, second))


def double_matrix_join(a: RingMatrix, b: RingMatrix, double) -> RingMatrix:
    """Pair two matrices over R into one over D, checking the congruence."""
    a._check_peer(b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise SizeMismatch("shape mismatch in double_matrix_join")
    if a.ring != double.base:
        raise RingMismatch("components must live over the double ring's base")
    entries = tuple(double.check((x, y)) for x, y in zip(a.entries, b.entries))
    return RingMatrix(double, a.rows, a.cols, entries)
