"""Relative symplectic Witt symbols and their equivalence certificates.

A symbol is an alternating invertible matrix together with a sign
witness: the matrix must be entrywise congruent, modulo the ideal, to
the standard form the witness realizes.  Equivalence of symbols is
never decided here; it is only *verified* against an explicit
certificate (a stabilization level t and a relative elementary word
epsilon), so every positive answer is a checkable proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    MalformedSpec,
    NonInvertibleIndex,
    NotAUnit,
    NotInC,
    NotUnipotent,
    RingMismatch,
    SizeMismatch,
    VerificationFailed,
)
from .matrices import (
    FormWitness,
    GroupWord,
    RingMatrix,
    chi_n,
    congruent_mod_ideal,
    double_matrix_join,
    double_matrix_split,
    orth_sum,
    pfaffian,
    relative_level,
    word_eval,
    word_inverse,
)
from .rings import DoubleRing, ExcisionRing, Ideal


@dataclass(frozen=True)
class WittSymbol:
    ideal: Ideal
    rep: RingMatrix
    witness: FormWitness

    @property
    def ring(self):
        return self.rep.ring

    @property
    def half(self) -> int:
        return self.rep.rows // 2


@dataclass(frozen=True)
class EquivalenceCertificate:
    t: int
    epsilon: GroupWord

    def __post_init__(self):
        if self.t < 0:
            raise MalformedSpec(f"stabilization level must be >= 0, got {self.t}")


def standard_forms(n: int):
    """The standard forms chi_r^{s1} (+) chi_{n-r}^{s2} as sign vectors,
    each once: r ascending, then (+,+), (+,-), (-,+), (-,-)."""
    seen = set()
    for r in range(n + 1):
        for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            signs = (s1,) * r + (s2,) * (n - r)
            if signs not in seen:
                seen.add(signs)
                yield FormWitness(signs)


def standard_form_witness(a: RingMatrix, ideal: Ideal) -> Optional[FormWitness]:
    """First standard form, in standard_forms order, congruent to a
    modulo the ideal; absence is a value, not an error."""
    if a.rows != a.cols or a.rows % 2:
        raise SizeMismatch("witness scan needs an even square matrix")
    for form in standard_forms(a.rows // 2):
        if congruent_mod_ideal(a, form.realize(a.ring), ideal):
            return form
    return None


def make_witt_symbol(ideal: Ideal, rep: RingMatrix) -> WittSymbol:
    """Validated constructor: alternating, invertible, witnessed mod I."""
    if ideal.ring != rep.ring:
        raise RingMismatch("ideal and representative over different rings")
    if not rep.is_alternating():
        raise VerificationFailed("representative is not alternating")
    # det = Pf^2, and an odd alternating matrix has det 0
    if rep.rows % 2 or not rep.ring.is_unit(pfaffian(rep)):
        raise NotAUnit("representative is not invertible")
    witness = standard_form_witness(rep, ideal)
    if witness is None:
        raise VerificationFailed("no standard form witness modulo the ideal")
    return WittSymbol(ideal, rep, witness)


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------

def verify_equivalence(alpha: WittSymbol, beta: WittSymbol,
                       cert: EquivalenceCertificate) -> bool:
    """a (+) chi_{n+t} == eps^T (b (+) chi_{m+t}) eps, eps relative, for
    the representatives a of size 2m and b of size 2n."""
    if alpha.ideal != beta.ideal:
        raise RingMismatch("symbols relative to different ideals")
    a, b, ring = alpha.rep, beta.rep, alpha.ring
    if b.ring != ring or cert.epsilon.ring != ring:
        raise RingMismatch("certificate pieces live over different rings")
    if a.rows % 2 or b.rows % 2:
        raise SizeMismatch("symbol matrices must have even size")
    m, n = a.rows // 2, b.rows // 2
    if cert.epsilon.size != 2 * (m + n + cert.t):
        return False
    if not relative_level(cert.epsilon, alpha.ideal):
        return False
    eps = word_eval(cert.epsilon)
    return (orth_sum(a, chi_n(ring, n + cert.t))
            == orth_sum(b, chi_n(ring, m + cert.t)).congruent_by(eps))


def identity_certificate(alpha: WittSymbol, beta: WittSymbol,
                         t: int = 0) -> EquivalenceCertificate:
    """The empty-word certificate at level t (verifies when the padded
    matrices agree on the nose, e.g. beta = alpha (+) chi_k)."""
    size = 2 * (alpha.half + beta.half + t)
    return EquivalenceCertificate(t, GroupWord(alpha.ring, size, ()))


def symmetric_certificate(alpha: WittSymbol, beta: WittSymbol,
                          cert: EquivalenceCertificate) -> EquivalenceCertificate:
    """A certificate for (beta, alpha) from one for (alpha, beta)."""
    return EquivalenceCertificate(cert.t, word_inverse(cert.epsilon))


def compose_certificates(alpha: WittSymbol, beta: WittSymbol, gamma: WittSymbol,
                         first: EquivalenceCertificate,
                         second: EquivalenceCertificate) -> EquivalenceCertificate:
    """Transitivity: from (alpha~beta, t1) and (beta~gamma, t2) build
    alpha~gamma at level t3 = half(beta) + t1 + t2.

    The padded epsilon_2 then epsilon_1 tokens multiply to the combined
    conjugator; chi padding blocks commute because all signs are +1.
    """
    t3 = beta.half + first.t + second.t
    size = 2 * (alpha.half + gamma.half + t3)
    tokens = second.epsilon.tokens + first.epsilon.tokens
    return EquivalenceCertificate(t3, GroupWord(alpha.ring, size, tokens))


# ---------------------------------------------------------------------------
# group structure and the split exact sequence
# ---------------------------------------------------------------------------

def witt_product(x: WittSymbol, y: WittSymbol) -> WittSymbol:
    if x.ideal != y.ideal:
        raise RingMismatch("symbols relative to different ideals")
    return WittSymbol(x.ideal, orth_sum(x.rep, y.rep),
                      FormWitness(x.witness.signs + y.witness.signs))


def pf_unit(x: WittSymbol):
    """Pfaffian of the representative, checked to be a unit congruent
    to 1 modulo the ideal."""
    p = pfaffian(x.rep)
    ring = x.ring
    if not ring.is_unit(p) or not x.ideal.contains(ring.sub(p, ring.one)):
        raise NotAUnit(f"pfaffian {ring.fmt(p)} is not a unit congruent to 1")
    return p


def split_section(a, ideal: Ideal) -> WittSymbol:
    """The symbol [[0, a], [-a, 0]] for a unit a congruent to 1 mod I."""
    ring = ideal.ring
    a = ring.check(a)
    if not ring.is_unit(a) or not ideal.contains(ring.sub(a, ring.one)):
        raise NotInC(f"{ring.fmt(a)} is not a unit congruent to 1 mod the ideal")
    rep = RingMatrix.from_rows(ring, [[ring.zero, a], [ring.neg(a), ring.zero]])
    return WittSymbol(ideal, rep, FormWitness((1,)))


def tilde_lift_alt(x: WittSymbol) -> RingMatrix:
    """Entrywise lift (s_ij, a_ij - s_ij) into R (+) I, s = chi(witness)."""
    ring = x.ring
    exc = ExcisionRing(ring, x.ideal)
    s = x.witness.realize(ring)
    entries = tuple((sv, ring.sub(av, sv))
                    for av, sv in zip(x.rep.entries, s.entries))
    return RingMatrix(exc, x.rep.rows, x.rep.cols,
                      tuple(exc.check(e) for e in entries))


def map_i(x: WittSymbol) -> RingMatrix:
    """Pair matrix (chi(witness), representative) over the double ring."""
    return double_matrix_join(x.witness.realize(x.ring), x.rep,
                              DoubleRing(x.ring, x.ideal))


def map_p1(p: RingMatrix) -> RingMatrix:
    """First components of a matrix over a double ring."""
    return double_matrix_split(p)[0]


# ---------------------------------------------------------------------------
# unipotent roots
# ---------------------------------------------------------------------------

def _nilpotency_index(m: RingMatrix) -> Optional[int]:
    """Smallest s with m^s = 0; None if no power vanishes.

    Finite rings: successive powers either hit zero or repeat.  Infinite
    rings: powers up to twice the size are checked (exact over domains,
    where the index never exceeds the size).
    """
    ring = m.ring
    zero = RingMatrix.zeros(ring, m.rows, m.cols)
    bound = None if ring.is_finite else max(2 * m.rows, 8)
    seen = set()
    p, k = m, 1
    while p != zero:
        if p.entries in seen:
            return None
        seen.add(p.entries)
        k += 1
        if bound is not None and k > bound:
            return None
        p = p.mul(m)
    return k


def _fraction_in(ring, f: Fraction):
    inverse = ring._inverse(ring.scalar_int(f.denominator))
    if inverse is None:
        raise NonInvertibleIndex(
            f"denominator {f.denominator} is not invertible in {ring.describe()}")
    return ring.mul(ring.scalar_int(f.numerator), inverse)


def unipotent_root(gamma: RingMatrix, m: int) -> RingMatrix:
    """delta with delta^m = gamma, for unipotent gamma and invertible m.

    delta = sum_k C(1/m, k) N^k with N = gamma - identity; the binomial
    coefficients are exact reduced fractions mapped into the ring, so
    only denominators that actually survive reduction must be units.
    """
    if gamma.rows != gamma.cols:
        raise SizeMismatch("unipotent_root needs a square matrix")
    if m < 1:
        raise MalformedSpec(f"root index must be positive, got {m}")
    ring = gamma.ring
    if not ring.is_unit(ring.scalar_int(m)):
        raise NonInvertibleIndex(f"{m} is not invertible in {ring.describe()}")
    n_mat = gamma.sub(RingMatrix.identity(ring, gamma.rows))
    s = _nilpotency_index(n_mat)
    if s is None:
        raise NotUnipotent("gamma - identity is not nilpotent")
    delta = RingMatrix.zeros(ring, gamma.rows, gamma.cols)
    coeff = Fraction(1)
    power = RingMatrix.identity(ring, gamma.rows)
    for k in range(s):
        if k:
            coeff = coeff * (Fraction(1, m) - (k - 1)) / k
            power = power.mul(n_mat)
        delta = delta.add(power.scale(_fraction_in(ring, coeff)))
    check = RingMatrix.identity(ring, gamma.rows)
    for _ in range(m):
        check = check.mul(delta)
    if check != gamma:
        raise VerificationFailed("extracted root fails delta^m = gamma")
    return delta
