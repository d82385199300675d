"""Unimodular rows, completions, the theta form, and row-level lifts.

A row is unimodular when some column completes it to 1; the relative
variant additionally requires congruence to (1,0,...,0) modulo the
ideal.  Completion is exact: dynamic programming over a finite ring,
iterated extended Euclid over the integers.  Nothing is ever sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    BoundExceeded,
    InfiniteRing,
    NoP0Found,
    NoRelativeCompletionFound,
    NotCompleted,
    NotRelative,
    RingMismatch,
    SizeMismatch,
    TailAlignmentFailed,
    UndecidableCompletion,
    UndecidableMembership,
    VerificationFailed,
)
from .matrices import Elem, GroupWord, RingMatrix, word_eval
from .rings import MEMORY_CAP, ExcisionRing, Ideal, Ring
from .witt import WittSymbol, make_witt_symbol


@dataclass(frozen=True)
class UmRow:
    ring: Ring
    entries: tuple
    ideal: Optional[Ideal] = None

    @property
    def n(self) -> int:
        return len(self.entries)

    def dot(self, coeffs: tuple):
        return self.ring.dot(self.entries, coeffs)


def um_row(ring: Ring, entries, ideal: Optional[Ideal] = None) -> UmRow:
    """Payload-checked row; enforces the relative congruence when given."""
    entries = tuple(ring.check(x) for x in entries)
    if not entries:
        raise SizeMismatch("empty row")
    if ideal is not None:
        if ideal.ring != ring:
            raise RingMismatch("ideal over a different ring")
        head = ring.sub(entries[0], ring.one)
        if not ideal.contains(head) or not all(ideal.contains(x) for x in entries[1:]):
            raise NotRelative("row is not congruent to e1 modulo the ideal")
    return UmRow(ring, entries, ideal)


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _int_complete(entries: tuple) -> Optional[tuple]:
    g, coeffs = entries[0], [1]
    for a in entries[1:]:
        g, x, y = _ext_gcd(g, a)
        coeffs = [c * x for c in coeffs] + [y]
    if g == 1:
        return tuple(coeffs)
    if g == -1:
        return tuple(-c for c in coeffs)
    return None


def _finite_complete(ring: Ring, entries: tuple, pool: Optional[tuple] = None,
                     target=None) -> Optional[tuple]:
    """A column b over pool (default: the ring) with entries . b = target
    (default: one), by a DP over partial sums; the first witness in pool
    order, or None.  A step that would try more than MEMORY_CAP
    (partial sum, pool entry) candidates is refused before it runs."""
    if pool is None:
        pool = ring.elements()
    sums = {ring.zero: ()}
    for a in entries:
        if len(sums) * len(pool) > MEMORY_CAP:
            raise BoundExceeded(
                f"completion step of {len(sums)} sums x {len(pool)} pool entries "
                f"is past the memory cap of {MEMORY_CAP}")
        nxt: dict = {}
        for s, prefix in sums.items():
            for b in pool:
                s2 = ring.add(s, ring.mul(a, b))
                if s2 not in nxt:
                    nxt[s2] = prefix + (b,)
        sums = nxt
    return sums.get(ring.one if target is None else target)


def complete(v: UmRow) -> Optional[tuple]:
    """A column b with v . b = 1, or None when v is not unimodular."""
    ring = v.ring
    for k, a in enumerate(v.entries):
        try:
            inverse = ring._inverse(a)
            if inverse is not None:
                return tuple(inverse if j == k else ring.zero for j in range(v.n))
        except (InfiniteRing, UndecidableMembership, BoundExceeded):
            break
    if ring.kind == "integers":
        return _int_complete(v.entries)
    if ring.is_finite:
        return _finite_complete(ring, v.entries)
    if ring.kind == "rationals":
        return None  # all entries zero, otherwise the unit shortcut fired
    raise UndecidableCompletion(f"no completion procedure over {ring.describe()}")


def complete_relative(v: UmRow) -> Optional[UmRow]:
    """A row a with a ≡ e1 mod I and a . v = 1, or None."""
    if v.ideal is None:
        raise NotRelative("complete_relative needs a row with an ideal")
    ring, ideal = v.ring, v.ideal
    e1 = (ring.one,) + (ring.zero,) * (v.n - 1)
    if ideal.contains(ring.one):
        b = complete(v)
        return None if b is None else um_row(ring, b, ideal)
    target = ring.sub(ring.one, v.entries[0])
    if ring.is_finite:
        shift = _finite_complete(ring, v.entries, ideal.members(), target)
        if shift is None:
            return None
        return um_row(ring, tuple(ring.add(x, i) for x, i in zip(e1, shift)), ideal)
    if ring.kind == "integers":
        d = math.gcd(*ideal.gens)
        if d == 0:
            return um_row(ring, e1, ideal) if v.entries == e1 else None
        coeffs = _int_complete(v.entries)
        if coeffs is None:
            return None
        u = target // d  # exact: v relative means d divides 1 - v_1
        a = tuple(x + d * u * c for x, c in zip(e1, coeffs))
        return um_row(ring, a, ideal)
    raise UndecidableCompletion(f"no relative completion over {ring.describe()}")


# ---------------------------------------------------------------------------
# the theta form and its independence certificate
# ---------------------------------------------------------------------------

def theta_matrix(ring: Ring, a, b) -> RingMatrix:
    """The 4x4 alternating form of two length-3 rows; Pf = a . b always."""
    a = tuple(ring.check(x) for x in a)
    b = tuple(ring.check(x) for x in b)
    if len(a) != 3 or len(b) != 3:
        raise SizeMismatch("theta needs two rows of length 3")
    z, ng = ring.zero, ring.neg
    return RingMatrix.from_rows(ring, [
        [z, ng(b[0]), ng(b[1]), ng(b[2])],
        [b[0], z, ng(a[2]), a[1]],
        [b[1], a[2], z, ng(a[0])],
        [b[2], ng(a[1]), a[0], z],
    ])


def theta(a: UmRow, b: UmRow) -> RingMatrix:
    if a.ring != b.ring:
        raise RingMismatch("rows over different rings")
    if a.n != 3 or b.n != 3:
        raise SizeMismatch("theta needs rows of length 3")
    if a.dot(b.entries) != a.ring.one:
        raise NotCompleted("theta needs a . b = 1")
    return theta_matrix(a.ring, a.entries, b.entries)


def theta_independence_cert(a: UmRow, c: UmRow, b: UmRow) -> GroupWord:
    """The explicit word with theta(c,b) = eps^T theta(a,b) eps.

    Row-1 entries are the cross products d1 = c3 a2 - c2 a3,
    d2 = c1 a3 - c3 a1, d3 = c2 a1 - c1 a2; when a, c are both congruent
    to e1 mod I the d_i land in I, so the word is relative.
    """
    ring = a.ring
    if c.ring != ring or b.ring != ring:
        raise RingMismatch("rows over different rings")
    if a.dot(b.entries) != ring.one or c.dot(b.entries) != ring.one:
        raise NotCompleted("both rows must complete b to 1")
    a1, a2, a3 = a.entries
    c1, c2, c3 = c.entries
    d1 = ring.sub(ring.mul(c3, a2), ring.mul(c2, a3))
    d2 = ring.sub(ring.mul(c1, a3), ring.mul(c3, a1))
    d3 = ring.sub(ring.mul(c2, a1), ring.mul(c1, a2))
    word = GroupWord(ring, 4, (Elem(1, 2, d1), Elem(1, 3, d2), Elem(1, 4, d3)))
    eps = word_eval(word)
    lhs = theta_matrix(ring, c.entries, b.entries)
    if lhs != theta_matrix(ring, a.entries, b.entries).congruent_by(eps):
        raise VerificationFailed("independence identity failed; arithmetic bug")
    return word


def vaserstein_symbol(v: UmRow) -> WittSymbol:
    """The Witt symbol of a relative unimodular row of length 3."""
    if v.ideal is None:
        raise NotRelative("the symbol needs a row with an ideal")
    if v.n != 3:
        raise SizeMismatch("the symbol is defined for rows of length 3")
    a = complete_relative(v)
    if a is None:
        raise NoRelativeCompletionFound("row has no relative completion")
    rep = theta(a, v)
    return make_witt_symbol(v.ideal, rep)


# ---------------------------------------------------------------------------
# van der Kallen's product formula
# ---------------------------------------------------------------------------

def _find_p0(ring: Ring, a0, tail: tuple, ideal: Optional[Ideal]):
    """First p0 in enumeration order with a0 * p0 = 1 modulo (tail).

    Relative rows draw p0 from the coset 1 + I so the product row stays
    congruent to e1.
    """
    j = Ideal(ring, tail)
    if ring.is_finite:
        if ideal is not None and not ideal.contains(ring.one):
            candidates = (ring.add(ring.one, i) for i in ideal.members())
        else:
            candidates = iter(ring.elements())
        for p0 in candidates:
            if j.contains(ring.sub(ring.mul(a0, p0), ring.one)):
                return p0
        return None
    if ring.kind == "integers":
        g = math.gcd(*tail)
        if g == 0:
            return a0 if a0 in (1, -1) else None
        if math.gcd(a0, g) != 1:
            return None
        return pow(a0 % g, -1, g) if g > 1 else 0
    raise UndecidableCompletion(f"no p0 search over {ring.describe()}")


def vdk_product(u: UmRow, v: UmRow) -> UmRow:
    """The product row of aligned representatives: a from u, b from v.

    Requires equal tails (align via the orbit engine first); produces
    (a0(b0+p0)-1, (b0+p0)a1, a2, ..., ad) and re-verifies unimodularity.
    """
    if u.ring != v.ring:
        raise RingMismatch("rows over different rings")
    if u.n != v.n:
        raise SizeMismatch("rows of different lengths")
    if u.ideal != v.ideal:
        raise RingMismatch("rows relative to different ideals")
    if u.entries[1:] != v.entries[1:]:
        raise TailAlignmentFailed("tails differ; align representatives first")
    ring = u.ring
    a0, b0, tail = u.entries[0], v.entries[0], u.entries[1:]
    p0 = _find_p0(ring, a0, tail, u.ideal)
    if p0 is None:
        raise NoP0Found("no p0 with a0 * p0 = 1 modulo the tail ideal")
    q = ring.add(b0, p0)
    out = (ring.sub(ring.mul(a0, q), ring.one),
           ring.mul(q, tail[0])) + tail[1:]
    row = um_row(ring, out, u.ideal)
    if complete(row) is None:
        raise VerificationFailed("product row failed the unimodularity re-check")
    return row


# ---------------------------------------------------------------------------
# excision lifts
# ---------------------------------------------------------------------------

def tilde_row_lift(v: UmRow) -> UmRow:
    """(1+i1, i2, ..., in) -> ((1,i1), (0,i2), ..., (0,in)) over R (+) I."""
    if v.ideal is None:
        raise NotRelative("tilde lift needs a row with an ideal")
    ring, ideal = v.ring, v.ideal
    exc = ExcisionRing(ring, ideal)
    entries = [(ring.one, ring.sub(v.entries[0], ring.one))]
    entries += [(ring.zero, x) for x in v.entries[1:]]
    sub = Ideal(exc, tuple((ring.zero, g) for g in ideal.gens))
    return um_row(exc, entries, sub)


def excision_map_f(v: UmRow) -> UmRow:
    """Entrywise (r, i) -> r*1 + i from an excision-ring row into the host."""
    exc = v.ring
    if exc.kind != "excision":
        raise RingMismatch("excision_map_f needs a row over an excision ring")
    if v.ideal is None:
        raise NotRelative("excision_map_f expects a relative row")
    host = exc.host
    return um_row(host, tuple(exc.retract(x) for x in v.entries), exc.ideal)
