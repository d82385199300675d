"""Correctness oracles that share no code with symwitt.

Each check recomputes an answer with the benchmark's own arithmetic (or
from a closed-form count) and returns a list of problems; an empty list
means the answer passed.  Nothing here imports symwitt: payloads coming
out of symwitt are decoded into small integer codes first.
"""

import itertools
import math

# ---------------------------------------------------------------------------
# arithmetic on integer codes
# ---------------------------------------------------------------------------


def _gf4_mul(a, b):
    """Carry-less product of two bit-codes reduced modulo x^2 + x + 1."""
    out = 0
    for k in range(2):
        if b >> k & 1:
            out ^= a << k
    if out & 0b100:
        out ^= 0b111
    return out


class Arith:
    """Exact arithmetic of one small ring named by its symwitt descriptor.

    `zmod:N` and the prime fields `f2`, `f3`, `f5` use residues 0..N-1;
    `f4` uses the bit-code of its polynomial payload (x^2 = x + 1).
    """

    def __init__(self, spec):
        self.spec = spec
        if spec == "f4":
            self.size, add, mul = 4, (lambda a, b: a ^ b), _gf4_mul
        else:
            n = int(spec[5:]) if spec.startswith("zmod:") else int(spec[1:])
            self.size, add, mul = n, (lambda a, b: (a + b) % n), (lambda a, b: (a * b) % n)
        self.elements = tuple(range(self.size))
        self.add_t = [[add(a, b) for b in self.elements] for a in self.elements]
        self.mul_t = [[mul(a, b) for b in self.elements] for a in self.elements]
        self.neg_t = [self.add_t[a].index(0) for a in self.elements]
        self.units = tuple(a for a in self.elements if 1 in self.mul_t[a])

    # payload <-> code
    def code(self, payload):
        if self.spec == "f4":
            return sum(c << k for k, c in enumerate(payload))
        return payload

    def payload(self, code):
        if self.spec == "f4":
            bits = (code & 1, code >> 1)
            while bits and not bits[-1]:
                bits = bits[:-1]
            return bits
        return code

    def add(self, a, b):
        return self.add_t[a][b]

    def mul(self, a, b):
        return self.mul_t[a][b]

    def neg(self, a):
        return self.neg_t[a]

    def dot(self, u, v):
        out = 0
        for a, b in zip(u, v):
            out = self.add_t[out][self.mul_t[a][b]]
        return out


def ideal_codes(ar, gen):
    """The principal ideal (gen) as a set of codes; gen None is the unit ideal."""
    if gen is None:
        return set(ar.elements)
    return {ar.mul(gen, x) for x in ar.elements}


def completion(ar, row):
    """A column b with row . b = 1, found by exhaustive search, or None."""
    for b in itertools.product(ar.elements, repeat=len(row)):
        if ar.dot(row, b) == 1:
            return b
    return None


def congruent_to_e1(ar, ideal, row):
    return (ar.add(row[0], ar.neg(1)) in ideal
            and all(x in ideal for x in row[1:]))


def unimodular_rows(ar, ideal):
    """Every unimodular row of length 3; for a proper ideal I only those
    congruent to e1 mod I."""
    relative = ideal != set(ar.elements)
    rows = []
    for row in itertools.product(ar.elements, repeat=3):
        if relative and not congruent_to_e1(ar, ideal, row):
            continue
        if completion(ar, row) is not None:
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# closed-form counts
# ---------------------------------------------------------------------------


def _prime_of(n):
    """The prime p with n a power of p."""
    p = next(d for d in range(2, n + 1) if n % d == 0)
    m = n
    while m % p == 0:
        m //= p
    if m != 1:
        raise ValueError(f"{n} is not a prime power")
    return p


def _gl4(q):
    return math.prod(q ** 4 - q ** k for k in range(4))


def _sp4(q):
    return q ** 4 * (q ** 2 - 1) * (q ** 4 - 1)


def ring_shape(spec, ideal_gen):
    """(residue field size q, |R|, |m|, |I|) for a field or a local Z/p^k."""
    if spec.startswith("zmod:"):
        n = int(spec[5:])
        q = _prime_of(n)
        size, m = n, n // q
    else:
        q = size = int(spec[1:])
        m = 1
    ideal = size if ideal_gen is None else size // math.gcd(ideal_gen, size)
    return q, size, m, ideal


def expected_rows(spec, ideal_gen=None):
    """|Um_3|: q^3 - 1 over F_q, |R|^3 - |m|^3 over a local ring, |I|^3
    in the relative local case."""
    _, size, m, ideal = ring_shape(spec, ideal_gen)
    if ideal < size:
        return ideal ** 3
    return size ** 3 - m ** 3


def expected_universe(spec, ideal_gen=None):
    """Alternating 4x4 matrices with Pfaffian 1 and a standard form mod I.

    Absolute: |GL_4(k)| / (|Sp_4(k)| (q-1)) nondegenerate residue forms
    with a given Pfaffian, times |m|^5 lifts (|m|^6 lifts, spread evenly
    over the |m| Pfaffian values above 1).  Relative: each standard form
    with Pfaffian congruent to 1 mod I contributes |I|^6 / |I| matrices;
    distinct forms are counted modulo I.
    """
    q, size, m, ideal = ring_shape(spec, ideal_gen)
    if ideal == size:
        return _gl4(q) // (_sp4(q) * (q - 1)) * m ** 5
    g = math.gcd(ideal_gen, size)
    forms = {(s1 % g, s2 % g) for s1 in (1, -1) for s2 in (1, -1)
             if (s1 * s2 - 1) % g == 0}
    return len(forms) * ideal ** 5


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def check_report(case, obj, captured, validator):
    """Method properties and counts of one `report vaserstein` payload.

    `case` is (label, spec, ideal_gen, assert_confirmed); `captured` is
    (row orbit sizes, universe size, universe orbit sizes) read off the
    report object; `validator` checks the JSON schema.
    """
    label, spec, gen, assert_confirmed = case
    problems = [f"{label}: schema: {e.message}" for e in validator.iter_errors(obj)]
    row_sizes, universe, universe_sizes = captured
    want_rows = expected_rows(spec, gen)
    if obj["mse"]["objects"] != want_rows:
        problems.append(f"{label}: {obj['mse']['objects']} rows, expected {want_rows}")
    want_universe = expected_universe(spec, gen)
    if universe != want_universe:
        problems.append(f"{label}: universe {universe}, expected {want_universe}")
    if sum(row_sizes) != obj["mse"]["objects"]:
        problems.append(f"{label}: row orbit sizes sum to {sum(row_sizes)}")
    if sum(universe_sizes) != universe:
        problems.append(f"{label}: universe orbit sizes sum to {sum(universe_sizes)}")
    if any("not constant" in note for note in obj["notes"]):
        problems.append(f"{label}: symbol map not constant on a row class")
    if obj["verdict"] == "refuted":
        problems.append(f"{label}: verdict refuted")
    if obj["mse"]["count"] != 1:
        problems.append(f"{label}: {obj['mse']['count']} row classes; E_3 is "
                        "transitive on Um_3 in stable rank 1")
    if assert_confirmed and obj["verdict"] != "confirmed-within-bounds":
        problems.append(f"{label}: verdict {obj['verdict']}")
    return problems


# ---------------------------------------------------------------------------
# monicization
# ---------------------------------------------------------------------------


def _pmul(a, b, p):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def _padd(a, b, p):
    out = dict(a)
    for e, c in b.items():
        out[e] = (out.get(e, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def _ppow(a, k, p):
    out = {(0, 0): 1}
    for _ in range(k):
        out = _pmul(out, a, p)
    return out


def expand_shift(f, phi, r, p, sign=1):
    """f(X1, X2 + sign * phi(X1)^r) mod p, on exponent dictionaries."""
    shift = {e: (sign * c) % p for e, c in _ppow(phi, r, p).items()}
    x2 = _padd({(0, 1): 1}, shift, p)
    out, powers = {}, [{(0, 0): 1}]
    for (i, j), c in f.items():
        while len(powers) <= j:
            powers.append(_pmul(powers[-1], x2, p))
        out = _padd(out, _pmul({(i, 0): c}, powers[j], p), p)
    return out


def check_monicization(p, f, phi, r, c, h, back, cache):
    """f(X1, X2 + phi^r) = c h with h monic in X1, and the inverse
    substitution returns f.  `cache` memoises expansions across ops."""
    problems = []
    key = (p, tuple(sorted(f.items())), tuple(sorted(phi.items())), r)
    g = cache.get(key)
    if g is None:
        g = cache[key] = expand_shift(f, phi, r, p)
    ch = {e: (c * x) % p for e, x in h.items()}
    if {e: x for e, x in ch.items() if x} != g:
        problems.append(f"p={p} f={sorted(f.items())}: c*h differs from the expansion")
    w = max(e[0] for e in h) if h else -1
    top = {e: x for e, x in h.items() if e[0] == w}
    if top != {(w, 0): 1}:
        problems.append(f"p={p} f={sorted(f.items())}: h is not monic in X1")
    if back != f:
        problems.append(f"p={p} f={sorted(f.items())}: inverse substitution "
                        "does not return f")
    return problems


# ---------------------------------------------------------------------------
# certificates and row products
# ---------------------------------------------------------------------------


def _identity(n):
    return [1 if i == j else 0 for i in range(n) for j in range(n)]


def mat_mul(ar, a, b, n):
    out = []
    for i in range(n):
        for j in range(n):
            acc = 0
            for t in range(n):
                acc = ar.add(acc, ar.mul(a[i * n + t], b[t * n + j]))
            out.append(acc)
    return out


def _transpose(a, n):
    return [a[j * n + i] for i in range(n) for j in range(n)]


def _orth_chi(ar, a, k, n_a):
    """a (+) chi_k, chi_k made of blocks [[0, 1], [-1, 0]]."""
    n = n_a + 2 * k
    out = [0] * (n * n)
    for i in range(n_a):
        for j in range(n_a):
            out[i * n + j] = a[i * n_a + j]
    for b in range(k):
        i = n_a + 2 * b
        out[i * n + i + 1] = 1
        out[(i + 1) * n + i] = ar.neg(1)
    return out


def _elem(ar, n, i, j, a):
    m = _identity(n)
    m[(i - 1) * n + (j - 1)] = a
    return m


def token_matrix(ar, n, tok):
    """Matrix of a decoded token: ("e", i, j, a), ("c", conj, core), ("inv", t)."""
    kind = tok[0]
    if kind == "e":
        return _elem(ar, n, *tok[1:])
    if kind == "c":
        conj, core = tok[1], tok[2]
        left, right = _identity(n), _identity(n)
        for (_, i, j, a) in conj:
            left = mat_mul(ar, left, _elem(ar, n, i, j, a), n)
        for (_, i, j, a) in reversed(conj):
            right = mat_mul(ar, right, _elem(ar, n, i, j, ar.neg(a)), n)
        return mat_mul(ar, mat_mul(ar, left, token_matrix(ar, n, core), n), right, n)
    if kind == "inv":
        return token_matrix(ar, n, invert_token(ar, tok[1]))
    raise ValueError(f"unknown token {tok!r}")


def invert_token(ar, tok):
    if tok[0] == "e":
        return ("e", tok[1], tok[2], ar.neg(tok[3]))
    if tok[0] == "c":
        return ("c", tok[1], invert_token(ar, tok[2]))
    return tok[1]


def core_entry(tok):
    if tok[0] == "e":
        return tok[3]
    if tok[0] == "c":
        return core_entry(tok[2])
    return core_entry(tok[1])


def check_certificate(ar, ideal, x_rep, y_rep, t, size, tokens):
    """x (+) chi_{hy+t} = eps^T (y (+) chi_{hx+t}) eps with eps the word,
    every core entry in I.  Matrices are flat code lists."""
    problems = []
    nx = math.isqrt(len(x_rep))
    ny = math.isqrt(len(y_rep))
    n = nx + ny + 2 * t
    if size != n:
        return [f"word size {size}, expected {n}"]
    for tok in tokens:
        if core_entry(tok) not in ideal:
            problems.append(f"core entry {core_entry(tok)} outside the ideal")
    eps = _identity(n)
    for tok in tokens:
        eps = mat_mul(ar, eps, token_matrix(ar, n, tok), n)
    lhs = _orth_chi(ar, list(x_rep), ny // 2 + t, nx)
    rhs = _orth_chi(ar, list(y_rep), nx // 2 + t, ny)
    if mat_mul(ar, mat_mul(ar, _transpose(eps, n), rhs, n), eps, n) != lhs:
        problems.append("certificate word does not replay")
    return problems


def check_row_product(ar, ideal, row):
    """The product row is unimodular (by a completion found here) and,
    relative to a proper ideal, congruent to e1."""
    problems = []
    if completion(ar, row) is None:
        problems.append(f"product row {row} has no completion")
    if not congruent_to_e1(ar, ideal, row):
        problems.append(f"product row {row} is not congruent to e1")
    return problems
