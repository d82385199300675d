"""Every finite ring answers 1 <-> 1: the theorem as a property.

A finite commutative ring is a product of local rings.  Over a local
ring every unimodular row has a unit entry, so E_3 is transitive on
Um_3, and every Pfaffian-one alternating matrix is E-congruent to chi.
So the absolute report over any finite ring must be confirmed with one
row class and one symbol class, already at level 0.

The counts are checked against formulas over the local factors R_i,
with maximal ideal m_i and residue field k_i of q_i elements, derived
here from the ring's description and not from the engine:

    |Um_3(R)|  = prod |R_i|^3 - |m_i|^3         (a row is unimodular iff
                                                 it is so mod each m_i)
    |universe| = prod |GL_4(k_i)| / (|Sp_4(k_i)| (q_i - 1)) * |m_i|^5

The invertible alternating forms over k are the GL_4-orbit of chi, with
stabilizer Sp_4, and scaling spreads them evenly over the q - 1 values
of the Pfaffian; over R_i each one lifts to |m_i|^6 forms, whose
Pfaffians spread evenly over a coset of m_i.

Relative to an ideal I, the level-0 symbol classes are the residue
cosets mod I of the universe: E_n(R, I) is 1 mod I, so no class meets
two cosets, and over a local R a g with g^T A g = B, A = B mod I, can
be corrected by a lift of Sp(A mod I) to lie in SL_n(R, I) = E_n(R, I)
(Bass: R has stable rank 1).  So no stabilization level can merge two
classes, and the report searches none; the coset property below is the
evidence for that.
"""

import functools
import itertools
import json

import pytest

from conftest import ideal_of
from symwitt import CONFIRMED, alt_orbit_partition, ring_from_spec, vaserstein_report

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# the absolute universe of Z/9, the largest the property draws
BUDGET = 56_862


def _prime_powers(n):
    """(p, k) with p^k exactly dividing n, p ascending."""
    out, p = [], 2
    while n > 1:
        k = 0
        while n % p == 0:
            n, k = n // p, k + 1
        if k:
            out.append((p, k))
        p += 1
    return out


def _monic(p, d):
    """Monic polynomials of degree d over F_p, coefficients low to high."""
    return [list(c) + [1] for c in itertools.product(range(p), repeat=d)]


def _divide(f, g, p):
    """Quotient of f by the monic g over F_p, or None if g does not divide f."""
    f, quo = list(f), [0] * (len(f) - len(g) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = f[k + len(g) - 1]
        for i, x in enumerate(g):
            f[k + i] = (f[k + i] - c * x) % p
    return quo if not any(f) else None


def _quotient_factors(p, f):
    """(q, |m|) per local factor of F_p[t]/(f): one per irreducible g with
    g^e exactly dividing f, with residue field F_p[t]/(g) and maximal
    ideal (g)/(g^e).  Divisors are tried by ascending degree and divided
    out whole, so each one found is irreducible."""
    out, d = [], 1
    while len(f) > 1:
        for g in _monic(p, d):
            e = 0
            while len(f) > len(g) - 1 and (quo := _divide(f, g, p)) is not None:
                f, e = quo, e + 1
            if e:
                out.append((p ** d, p ** (d * (e - 1))))
        d += 1
    return out


def _poly_text(f):
    """Grammar text of a polynomial in t, coefficients low to high."""
    terms = []
    for k in range(len(f) - 1, -1, -1):
        mono = "t" if k == 1 else f"t^{k}"
        if f[k] and k == 0:
            terms.append(str(f[k]))
        elif f[k]:
            terms.append(mono if f[k] == 1 else f"{f[k]}*{mono}")
    return "+".join(terms)


def _universe(factors):
    total = 1
    for q, m in factors:
        gl4 = (q ** 4 - 1) * (q ** 4 - q) * (q ** 4 - q ** 2) * (q ** 4 - q ** 3)
        sp4 = q ** 4 * (q ** 2 - 1) * (q ** 4 - 1)
        total *= gl4 // (sp4 * (q - 1)) * m ** 5
    return total


def _um3(factors):
    total = 1
    for q, m in factors:
        total *= (q * m) ** 3 - m ** 3
    return total


def _size(factors):
    total = 1
    for q, m in factors:
        total *= q * m
    return total


def _atoms():
    """(spec, local factors) of Z/n, f_q and F_p[t]/(monic f)."""
    atoms = [(f"zmod:{n}", [(p, p ** (k - 1)) for p, k in _prime_powers(n)])
             for n in range(2, 10)]
    atoms += [(f"f{q}", [(q, 1)]) for q in (2, 3, 4, 5, 7, 8, 9)]
    for p, d in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        for f in _monic(p, d):
            atoms.append(({"kind": "quotient",
                           "base": {"kind": "poly", "base": f"zmod:{p}", "var": "t"},
                           "moduli": [_poly_text(f)]}, _quotient_factors(p, f)))
    return atoms


def _zoo():
    atoms = _atoms()
    pairs = [({"kind": "product", "factors": [a, b]}, fa + fb)
             for (a, fa), (b, fb) in itertools.combinations_with_replacement(atoms, 2)]
    return [(json.dumps(spec), factors) for spec, factors in atoms + pairs
            if _universe(factors) <= BUDGET]


ZOO = _zoo()
NAMED = {spec: factors for spec, factors in ZOO}


def _quotient(p, text):
    return json.dumps({"kind": "quotient",
                       "base": {"kind": "poly", "base": f"zmod:{p}", "var": "t"},
                       "moduli": [text]})


def test_local_counts_match_the_checked_values():
    assert [_universe(NAMED[json.dumps(s)]) for s in ("f4", "zmod:6", "zmod:9")] == \
        [1008, 6552, BUDGET]
    # F_3[t]/((t+1)^2) is local with |m| = 3; F_2[t]/(t^3+1) is f2 x f4;
    # f9 and F_3[t]/(t^2+1) are past the budget
    assert NAMED[_quotient(3, "t^2+2*t+1")] == [(3, 3)]
    assert NAMED[_quotient(2, "t^3+1")] == [(2, 1), (4, 1)]
    assert json.dumps("f9") not in NAMED and _quotient(3, "t^2+1") not in NAMED
    assert NAMED[json.dumps({"kind": "product", "factors": ["zmod:2", "zmod:4"]})] == \
        [(2, 1), (2, 2)]


@hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(ZOO))
@hypothesis.example((json.dumps("f4"), NAMED[json.dumps("f4")]))
@hypothesis.example((json.dumps("zmod:6"), NAMED[json.dumps("zmod:6")]))
@hypothesis.example((json.dumps("zmod:9"), NAMED[json.dumps("zmod:9")]))
def test_absolute_report_over_every_finite_ring_is_one_class(draw):
    spec, factors = draw
    ring = ring_from_spec(json.loads(spec))
    assert ring.size == _size(factors), spec
    report = vaserstein_report(ring)
    obj = report.to_obj()
    assert obj["verdict"] == CONFIRMED, spec
    assert (obj["mse"]["count"], obj["witt"]["level0_count"], obj["witt"]["count"]) == \
        (1, 1, 1), spec
    assert obj["mse"]["objects"] == _um3(factors), spec
    assert len(report.classes.base.ids) == _universe(factors), spec


@pytest.mark.xfail(strict=True, reason=(
    "the relative universe keeps the -chi coset beside chi mod I, so Z/8 (4) "
    "has 2 level-0 classes (ROADMAP.md item 1)"))
def test_relative_report_over_a_local_ring_is_one_class():
    ring = ring_from_spec("zmod:8")
    obj = vaserstein_report(ring, ideal_of(ring, 4)).to_obj()
    assert obj["verdict"] == CONFIRMED
    assert (obj["mse"]["count"], obj["witt"]["level0_count"], obj["witt"]["count"]) == \
        (1, 1, 1)


@functools.cache
def _proper_principal_ideals(spec):
    """Generator texts of the proper principal ideals of a ring, one per
    ideal, whose |I|^5 Pfaffian-one candidates per universe coset are
    within BUDGET."""
    ring = ring_from_spec(json.loads(spec))
    found = {}
    for a in ring.elements():
        members = frozenset(ideal_of(ring, a).members())
        if ring.one not in members and len(members) ** 5 <= BUDGET:
            found.setdefault(members, ring.fmt(a))
    return list(found.values())


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(ZOO).flatmap(lambda draw: st.tuples(
    st.just(draw[0]), st.sampled_from(_proper_principal_ideals(draw[0])))))
@hypothesis.example((json.dumps("zmod:8"), "4"))
@hypothesis.example((json.dumps("zmod:9"), "3"))
@hypothesis.example((json.dumps("zmod:6"), "3"))
@hypothesis.example((json.dumps("zmod:12"), "4"))
@hypothesis.example((json.dumps({"kind": "product", "factors": ["f3", "f3"]}), "(0|1)"))
@hypothesis.example((_quotient(3, "t^2"), "t"))
def test_level0_classes_are_residue_cosets(draw):
    spec, gen = draw
    ring = ring_from_spec(json.loads(spec))
    ideal = ideal_of(ring, ring.parse(gen))
    part = alt_orbit_partition(ring, ideal, 4)
    # x -> the coset x + I, named by its first member in element order
    order = {x: k for k, x in enumerate(ring.elements())}
    coset = {x: min((ring.add(x, i) for i in ideal.members()), key=order.__getitem__)
             for x in ring.elements()}
    reps = {tuple(map(coset.__getitem__, rep)) for rep in part.reps}
    assert len(reps) == part.norbits, (spec, gen)
    residues = {tuple(map(coset.__getitem__, obj)) for obj in part.objects}
    assert part.norbits == len(residues), (spec, gen)
