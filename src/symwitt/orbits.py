"""Bounded orbit search over finite rings.

Ground truth by brute force: enumerate unimodular rows or alternating
matrices, close them up under (relative) elementary moves, and compare
the row-class group against the symbol classes.  Everything here is
finite, deterministic, and honest about bounds: a capped search is
reported unsaturated, never complete.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import itertools

from .errors import (
    BoundExceeded,
    InfiniteRing,
    MalformedSpec,
    NotCompleted,
    RingMismatch,
    SizeMismatch,
    TailAlignmentFailed,
    VerificationFailed,
)
from .rings import Ideal, Ring, unit_ideal
from .matrices import (
    Conj,
    Elem,
    GroupWord,
    RingMatrix,
    chi_n,
    orth_sum,
    pfaffian,
)
from .witt import (
    EquivalenceCertificate,
    WittSymbol,
    standard_form_witness,
    verify_equivalence,
)
from .umrows import UmRow, _finite_complete, um_row, vaserstein_symbol, vdk_product

MEMORY_CAP = 1 << 22
ACTION_ROW = "row"
ACTION_CONGRUENCE = "congruence"

CONFIRMED = "confirmed-within-bounds"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Generator:
    """One elementary move, kept as a rank-one update I + a*u*w^T.

    The token records how the matrix was written (a bare transvection or
    a conjugate of one), so BFS paths can be replayed as group words.
    """

    token: object
    a: object
    u: tuple
    w: tuple
    matrix: RingMatrix


def _rank_one_update(ring: Ring, n: int, a, u: tuple, w: tuple) -> RingMatrix:
    ent = []
    for i in range(n):
        aui = ring.mul(a, u[i])
        for j in range(n):
            x = ring.one if i == j else ring.zero
            ent.append(ring.add(x, ring.mul(aui, w[j])))
    return RingMatrix(ring, n, n, tuple(ent))


def _transvections(ring: Ring, n: int, pool) -> list:
    return [(i, j, a)
            for i in range(1, n + 1)
            for j in range(1, n + 1) if i != j
            for a in pool if a != ring.zero]


def _basis(ring: Ring, n: int, k: int) -> tuple:
    return tuple(ring.one if t == k else ring.zero for t in range(n))


def elementary_generators(ring: Ring, n: int, ideal: Optional[Ideal] = None,
                          depth: int = 1) -> tuple:
    """Generator set for the elementary action at size n.

    Every g e_{ij}(a) g^{-1} with a in the ideal and g a product of at
    most `depth` absolute transvections.  The absolute case (no ideal or
    a unit ideal) is depth zero with a ranging over the whole ring.
    Duplicate matrices are kept once (first token wins).
    """
    if not ring.is_finite:
        raise InfiniteRing(f"cannot enumerate generators over {ring.describe()}")
    if depth < 0:
        raise MalformedSpec(f"conjugation depth must be >= 0, got {depth}")
    if ideal is not None and ideal.ring != ring:
        raise RingMismatch("ideal over a different ring")
    relative = ideal is not None and not ideal.has_unit_generator()
    cores = _transvections(ring, n, ideal.members() if relative else ring.elements())
    depth = depth if relative else 0
    conj = _transvections(ring, n, ring.elements()) if depth else []
    if len(conj) ** depth > 200_000:
        raise BoundExceeded(
            f"{len(conj)}^{depth} conjugators is past the enumeration cap")
    steps = [(Elem(i, j, a),
              _rank_one_update(ring, n, a, _basis(ring, n, i - 1),
                               _basis(ring, n, j - 1)),
              _rank_one_update(ring, n, ring.neg(a), _basis(ring, n, i - 1),
                               _basis(ring, n, j - 1)))
             for i, j, a in conj]

    ident = RingMatrix.identity(ring, n)
    layer = [((), ident, ident)]
    prefixes = list(layer)
    for _ in range(depth):
        layer = [(toks + (tok,), g.mul(m), mi.mul(gi))
                 for toks, g, gi in layer for tok, m, mi in steps]
        prefixes.extend(layer)

    out, seen = [], set()
    for toks, g, gi in prefixes:
        for i, j, a in cores:
            # g e_ij(a) g^-1 = I + a * (g e_i) (e_j^T g^-1)
            u = tuple(g.get(r, i - 1) for r in range(n))
            w = tuple(gi.get(j - 1, c) for c in range(n))
            m = _rank_one_update(ring, n, a, u, w)
            if m.entries in seen:
                continue
            seen.add(m.entries)
            token = Elem(i, j, a) if not toks else Conj(toks, Elem(i, j, a))
            out.append(Generator(token, a, u, w, m))
    return tuple(out)


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def _row_neighbors(ring: Ring, n: int, gens: Sequence[Generator]) -> Callable:
    zero = ring.zero

    def step(state):
        out = []
        for g in gens:
            s = zero
            for x, ux in zip(state, g.u):
                s = ring.add(s, ring.mul(x, ux))
            s = ring.mul(g.a, s)
            if s == zero:
                out.append(state)
                continue
            out.append(tuple(ring.add(state[t], ring.mul(s, g.w[t]))
                             for t in range(n)))
        return out

    return step


def _congruence_neighbors(ring: Ring, n: int, gens: Sequence[Generator]) -> Callable:
    zero = ring.zero

    def step(state):
        out = []
        for g in gens:
            aq = []
            for i in range(n):
                s = zero
                row = state[i * n:(i + 1) * n]
                for x, ux in zip(row, g.u):
                    s = ring.add(s, ring.mul(x, ux))
                aq.append(ring.mul(g.a, s))
            if all(x == zero for x in aq):
                out.append(state)
                continue
            new = list(state)
            for i in range(n):
                for j in range(n):
                    d = ring.sub(ring.mul(aq[i], g.w[j]),
                                 ring.mul(g.w[i], aq[j]))
                    if d != zero:
                        new[i * n + j] = ring.add(new[i * n + j], d)
            out.append(tuple(new))
        return out

    return step


def _neighbors_for(action: str, ring: Ring, n: int,
                   gens: Sequence[Generator]) -> Callable:
    if action == ACTION_ROW:
        return _row_neighbors(ring, n, gens)
    if action == ACTION_CONGRUENCE:
        return _congruence_neighbors(ring, n, gens)
    raise MalformedSpec(f"unknown action {action!r}")


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

@dataclass
class OrbitPartition:
    ring: Ring
    objects: tuple
    index: dict
    ids: tuple
    reps: tuple
    orbit_saturated: tuple
    bound: Optional[int]
    meta: dict = field(default_factory=dict)

    @property
    def norbits(self) -> int:
        return len(self.reps)

    @property
    def saturated(self) -> bool:
        return all(self.orbit_saturated)

    def id_of(self, state) -> int:
        k = self.index.get(state)
        if k is None:
            raise VerificationFailed("state is not one of the partitioned objects")
        return self.ids[k]

    def orbit_sizes(self) -> tuple:
        sizes = [0] * self.norbits
        for k in self.ids:
            sizes[k] += 1
        return tuple(sizes)

    def _fmt_state(self, state):
        shape = self.meta.get("shape")
        if shape and shape[0] == "matrix":
            n = shape[1]
            return [[self.ring.fmt(state[i * n + j]) for j in range(n)]
                    for i in range(n)]
        return [self.ring.fmt(x) for x in state]

    def to_obj(self) -> dict:
        orbits = [{"rep": self._fmt_state(rep), "size": size, "saturated": sat}
                  for rep, size, sat in zip(self.reps, self.orbit_sizes(),
                                            self.orbit_saturated)]
        obj = {"count": self.norbits, "objects": len(self.objects),
               "orbits": orbits, "saturated": self.saturated}
        if self.bound is not None:
            obj["bound"] = self.bound
        obj.update({k: v for k, v in self.meta.items() if k != "shape"})
        return obj


def _bfs(start, neighbors: Callable, gens: Sequence[Generator],
         bound: Optional[int], goal=None):
    """Breadth-first search from start, trying generators in order.

    Returns (links, complete): links maps every reached state to the
    (parent, token) step that first reached it (None for start), and
    complete is False if the bound cut the search off.  With a goal the
    search stops once the goal is reached.
    """
    links = {start: None}
    queue = deque([start])
    while queue and goal not in links:
        x = queue.popleft()
        for g, y in zip(gens, neighbors(x)):
            if y in links:
                continue
            if bound is not None and len(links) >= bound:
                return links, False
            links[y] = (x, g.token)
            queue.append(y)
    return links, True


def _index_map(objects: Sequence) -> dict:
    index = {s: k for k, s in enumerate(objects)}
    if len(index) != len(objects):
        raise MalformedSpec("duplicate objects in orbit enumeration")
    return index


def _meta(action: str, n: int, gens) -> dict:
    shape = ("matrix", n) if action == ACTION_CONGRUENCE else ("row", n)
    return {"action": action, "shape": shape, "generators": len(gens)}


def orbit_bfs(objects: Sequence, action: str, generators: Sequence[Generator],
              bound: Optional[int] = None, closed: bool = True) -> OrbitPartition:
    """Partition `objects` into orbits under the configured action.

    Closed mode asserts every BFS edge stays inside the object set (the
    action must preserve the defining invariants); open mode tolerates
    excursions and assigns ids only to listed objects.  A capped orbit is
    flagged unsaturated and later objects it failed to reach start their
    own (possibly spurious) orbit.
    """
    objects = tuple(objects)
    if not objects:
        raise MalformedSpec("nothing to partition")
    if not generators:
        raise MalformedSpec("empty generator set")
    ring = generators[0].matrix.ring
    n = generators[0].matrix.rows
    neighbors = _neighbors_for(action, ring, n, generators)
    index = _index_map(objects)

    ids = [-1] * len(objects)
    reps, sat_flags = [], []
    for k, s in enumerate(objects):
        if ids[k] >= 0:
            continue
        comp, saturated = _bfs(s, neighbors, generators, bound)
        members, overlap = [], False
        for x in comp:
            j = index.get(x)
            if j is None:
                if closed:
                    raise VerificationFailed("orbit step left the object set")
                continue
            if ids[j] >= 0:
                # reached into an earlier capped orbit: the split between
                # them is an artifact of the cap, so neither side is exact
                overlap = True
                continue
            members.append(j)
        members.sort()
        oid = len(reps)
        for j in members:
            ids[j] = oid
        reps.append(objects[members[0]])
        sat_flags.append(saturated and not overlap)
    return OrbitPartition(ring, objects, index, tuple(ids), tuple(reps),
                          tuple(sat_flags), bound, _meta(action, n, generators))


def _additive_span(ring: Ring, width: int, deltas) -> set:
    """Additive subgroup of R^width generated by deltas.

    Each delta d extends the span H by whole cosets H + d, H + 2d, ...
    until k*d already lies in it, so every element is built once.
    """
    span = {(ring.zero,) * width}
    for d in deltas:
        coset, shift = span, d
        while shift not in span:
            coset = {tuple(map(ring.add, x, d)) for x in coset}
            span |= coset
            shift = tuple(map(ring.add, shift, d))
    return span


def _translation_partition(ring: Ring, objects: tuple, gens, action: str,
                           n: int, closed: bool = True) -> OrbitPartition:
    """Exact orbits when the ideal squares to zero.

    Every generator then moves a whole congruence coset by a constant
    vector, so each orbit is seed + (additive span of the per-generator
    deltas) and saturation is unconditional.  An orbit's members are the
    listed objects in that coset; closed mode asserts it was listed whole.
    """
    neighbors = _neighbors_for(action, ring, n, gens)
    index = _index_map(objects)
    ids = [-1] * len(objects)
    reps = []
    for k, s in enumerate(objects):
        if ids[k] >= 0:
            continue
        span = _additive_span(ring, len(s),
                              {tuple(map(ring.sub, t, s)) for t in neighbors(s)})
        members = [j for j in range(k, len(objects))
                   if ids[j] < 0 and tuple(map(ring.sub, objects[j], s)) in span]
        if closed and len(members) < len(span):
            raise VerificationFailed("translation left the object set")
        for j in members:
            ids[j] = len(reps)
        reps.append(s)
    meta = _meta(action, n, gens)
    meta["fast_path"] = "translation"
    return OrbitPartition(ring, objects, index, tuple(ids), tuple(reps),
                          (True,) * len(reps), None, meta)


# perfbench/tracing.py hooks both names, so the open-mode one stays bound
_translation_partition_open = _translation_partition


def _partition(ring: Ring, objects: tuple, gens, action: str, n: int,
               ideal: Optional[Ideal], bound: Optional[int],
               closed: bool = True) -> OrbitPartition:
    relative = ideal is not None and not ideal.has_unit_generator()
    if relative and ideal.products_vanish():
        return _translation_partition(ring, objects, gens, action, n, closed)
    return orbit_bfs(objects, action, gens, bound=bound, closed=closed)


# ---------------------------------------------------------------------------
# object enumeration
# ---------------------------------------------------------------------------

def enumerate_um(ring: Ring, n: int, ideal: Optional[Ideal] = None) -> tuple:
    """All unimodular rows of length n, in enumeration order.

    With an ideal: only rows in the coset e1 + I^n.  Unimodularity is
    decided by the exhaustive completion search, not by any closed form.
    """
    if not ring.is_finite:
        raise InfiniteRing(f"cannot enumerate rows over {ring.describe()}")
    if n < 1:
        raise MalformedSpec(f"row length must be >= 1, got {n}")
    relative = ideal is not None and not ideal.has_unit_generator()
    pool = ideal.members() if relative else ring.elements()
    if len(pool) ** n > MEMORY_CAP:
        raise BoundExceeded(f"{len(pool)}^{n} rows is past the memory cap")
    rows = []
    for combo in itertools.product(pool, repeat=n):
        if relative:
            combo = (ring.add(ring.one, combo[0]),) + combo[1:]
        if _finite_complete(ring, combo) is not None:
            rows.append(um_row(ring, combo, ideal))
    return tuple(rows)


def um_orbit_partition(ring: Ring, n: int, ideal: Optional[Ideal] = None,
                       depth: int = 1,
                       bound: Optional[int] = None) -> OrbitPartition:
    rows = enumerate_um(ring, n, ideal)
    states = tuple(r.entries for r in rows)
    gens = elementary_generators(ring, n, ideal, depth)
    part = _partition(ring, states, gens, ACTION_ROW, n, ideal, bound)
    part.meta.update({"kind": "um", "n": n, "depth": depth,
                      "relative": ideal is not None and not ideal.has_unit_generator()})
    return part


def witt_universe(ring: Ring, ideal: Ideal, size: int) -> tuple:
    """Alternating size x size matrices with Pfaffian one and a standard
    witness modulo the ideal.  det = Pf^2, so these are all invertible."""
    if size < 2 or size % 2:
        raise SizeMismatch(f"universe size must be even and positive, got {size}")
    if not ring.is_finite:
        raise InfiniteRing(f"cannot enumerate matrices over {ring.describe()}")
    pos = [(i, j) for i in range(size) for j in range(i + 1, size)]
    elems = ring.elements()
    if len(elems) ** len(pos) > MEMORY_CAP:
        raise BoundExceeded(
            f"{len(elems)}^{len(pos)} matrices is past the memory cap")
    out = []
    for combo in itertools.product(elems, repeat=len(pos)):
        ent = [ring.zero] * (size * size)
        for (i, j), a in zip(pos, combo):
            ent[i * size + j] = a
            ent[j * size + i] = ring.neg(a)
        m = RingMatrix(ring, size, size, tuple(ent))
        if pfaffian(m) != ring.one:
            continue
        if standard_form_witness(m, ideal) is None:
            continue
        out.append(m)
    return tuple(out)


def alt_orbit_partition(ring: Ring, ideal: Optional[Ideal], size: int,
                        depth: int = 1,
                        bound: Optional[int] = None) -> OrbitPartition:
    """Level-zero symbol classes: congruence orbits on the witt universe."""
    ideal = ideal if ideal is not None else unit_ideal(ring)
    mats = witt_universe(ring, ideal, size)
    states = tuple(m.entries for m in mats)
    gens = elementary_generators(ring, size, ideal, depth)
    part = _partition(ring, states, gens, ACTION_CONGRUENCE, size, ideal, bound)
    part.meta.update({"kind": "alt", "size": size, "depth": depth})
    return part


# ---------------------------------------------------------------------------
# bounded Witt classes
# ---------------------------------------------------------------------------

@dataclass
class WittClassFamily:
    ring: Ring
    ideal: Ideal
    size: int
    levels: int
    depth: int
    base: OrbitPartition
    merge_log: tuple
    final_ids: tuple
    final_reps: tuple
    saturated: bool

    @property
    def class_count(self) -> int:
        return len(self.final_reps)

    def class_of(self, state) -> int:
        return self.final_ids[self.base.index[state]]

    def to_obj(self) -> dict:
        n = self.size
        reps = [[[self.ring.fmt(r[i * n + j]) for j in range(n)]
                 for i in range(n)] for r in self.final_reps]
        return {"size": self.size, "levels": self.levels, "depth": self.depth,
                "level0_count": self.base.norbits,
                "count": self.class_count, "reps": reps,
                "merges": list(self.merge_log), "saturated": self.saturated}


def _find(parent: list, a: int) -> int:
    """Root of a's class (its smallest member), halving the path on the way."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def witt_classes_bounded(ring: Ring, ideal: Optional[Ideal], size: int,
                         levels: int = 1, depth: int = 1,
                         bound: Optional[int] = None) -> WittClassFamily:
    """Symbol classes of the given size with stabilization up to `levels`.

    Level zero is a full partition of the universe; each higher level t
    only pads one representative per class with chi_t and merges classes
    whose padded representatives meet.  A single surviving class stops
    the climb early, since merging cannot split.
    """
    ideal = ideal if ideal is not None else unit_ideal(ring)
    if levels < 0:
        raise MalformedSpec(f"stabilization must be >= 0, got {levels}")
    base = alt_orbit_partition(ring, ideal, size, depth, bound)
    parent = list(range(base.norbits))
    merge_log = []
    saturated = base.saturated

    for t in range(1, levels + 1):
        roots = sorted({_find(parent, c) for c in range(base.norbits)})
        if len(roots) <= 1:
            merge_log.append({"t": t, "skipped": "single class"})
            continue
        padded = size + 2 * t
        pad = chi_n(ring, t)
        seeds = tuple(orth_sum(RingMatrix(ring, size, size, base.reps[c]),
                               pad).entries for c in roots)
        gens = elementary_generators(ring, padded, ideal, depth)
        part = _partition(ring, seeds, gens, ACTION_CONGRUENCE, padded, ideal,
                          bound, closed=False)
        merged = []
        for oid in range(part.norbits):
            group = [roots[k] for k in range(len(roots)) if part.ids[k] == oid]
            if len(group) > 1:
                merged.append(group)
                # distinct roots, smallest first: link the rest under it
                for other in group[1:]:
                    parent[other] = group[0]
        saturated = saturated and part.saturated
        merge_log.append({"t": t, "merged": merged,
                          "saturated": part.saturated})

    final_root = [_find(parent, c) for c in range(base.norbits)]
    relabel, order = {}, []
    for r in final_root:
        if r not in relabel:
            relabel[r] = len(order)
            order.append(r)
    final_ids = tuple(relabel[final_root[base.ids[k]]]
                      for k in range(len(base.objects)))
    final_reps = tuple(base.reps[r] for r in order)
    return WittClassFamily(ring, ideal, size, levels, depth, base,
                           tuple(merge_log), final_ids, final_reps, saturated)


# ---------------------------------------------------------------------------
# certificates from paths
# ---------------------------------------------------------------------------

def find_equivalence_certificate(x: WittSymbol, y: WittSymbol,
                                 levels: int = 1, depth: int = 1,
                                 bound: Optional[int] = None
                                 ) -> Optional[EquivalenceCertificate]:
    """Bounded search for a certificate that x and y are the same class.

    BFS over congruence moves from y's padding towards x's padding, one
    stabilization level at a time; the path replays as the word epsilon.
    None means the search was exhausted (or capped), not that the
    symbols differ.
    """
    if x.ideal != y.ideal:
        raise RingMismatch("symbols relative to different ideals")
    ring = x.ring
    hx, hy = x.half, y.half
    for t in range(levels + 1):
        n = 2 * (hx + hy + t)
        gens = elementary_generators(ring, n, x.ideal, depth)
        start = orth_sum(y.rep, chi_n(ring, hx + t)).entries
        goal = orth_sum(x.rep, chi_n(ring, hy + t)).entries
        links, _ = _bfs(start, _congruence_neighbors(ring, n, gens), gens,
                        bound, goal)
        if goal not in links:
            continue
        tokens, state = [], goal
        while links[state] is not None:
            state, tok = links[state]
            tokens.append(tok)
        tokens.reverse()
        cert = EquivalenceCertificate(t, GroupWord(ring, n, tuple(tokens)))
        if not verify_equivalence(x, y, cert):
            raise VerificationFailed("path replay failed to verify")
        return cert
    return None


# ---------------------------------------------------------------------------
# row class arithmetic
# ---------------------------------------------------------------------------

def vdk_product_aligned(u: UmRow, v: UmRow, depth: int = 1,
                        bound: Optional[int] = None) -> UmRow:
    """Row-class product, aligning tails by orbit search when needed.

    Both factors are moved within their elementary orbits until the
    tails agree (canonically: smallest matching pair in enumeration
    order); the coordinate formula then applies.
    """
    if u.ring != v.ring:
        raise RingMismatch("rows over different rings")
    if u.ideal != v.ideal:
        raise RingMismatch("rows relative to different ideals")
    if u.n != v.n:
        raise SizeMismatch(f"row lengths differ: {u.n} vs {v.n}")
    if u.entries[1:] == v.entries[1:]:
        return vdk_product(u, v)
    ring, n = u.ring, u.n
    gens = elementary_generators(ring, n, u.ideal, depth)
    neighbors = _row_neighbors(ring, n, gens)
    orb_u, sat_u = _bfs(u.entries, neighbors, gens, bound)
    orb_v, sat_v = _bfs(v.entries, neighbors, gens, bound)

    def key(state):
        return tuple(ring.element_index(x) for x in state)

    by_tail = {}
    for s in sorted(orb_u, key=key):
        by_tail.setdefault(s[1:], s)
    for s in sorted(orb_v, key=key):
        mate = by_tail.get(s[1:])
        if mate is not None:
            return vdk_product(um_row(ring, mate, u.ideal),
                               um_row(ring, s, v.ideal))
    raise TailAlignmentFailed(
        "no common tail found"
        + ("" if sat_u and sat_v else " (search was capped)"))


def nice_mult_check(a, b, tail, ring: Ring, ideal: Optional[Ideal] = None,
                    depth: int = 1, bound: Optional[int] = None) -> bool:
    """Does the coordinatewise product rule hold for (a, tail), (b, tail)?

    True iff vdk_product((b, tail), (a, tail)) lands in the same orbit
    as (ab, tail).
    """
    a, b = ring.check(a), ring.check(b)
    tail = tuple(ring.check(x) for x in tail)
    rows = [(b,) + tail, (a,) + tail, (ring.mul(a, b),) + tail]
    for entries in rows:
        if _finite_complete(ring, entries) is None:
            raise NotCompleted(f"({', '.join(ring.fmt(x) for x in entries)})"
                               " is not unimodular")
    left = um_row(ring, rows[0], ideal)
    right = um_row(ring, rows[1], ideal)
    target = um_row(ring, rows[2], ideal)
    prod = vdk_product(left, right)
    part = um_orbit_partition(ring, len(tail) + 1, ideal, depth, bound)
    return part.id_of(prod.entries) == part.id_of(target.entries)


# ---------------------------------------------------------------------------
# the bijectivity report
# ---------------------------------------------------------------------------

@dataclass
class BijectivityReport:
    ring: Ring
    ideal: Ideal
    levels: int
    depth: int
    rows: OrbitPartition
    classes: WittClassFamily
    assignments: tuple
    claims: dict
    verdict: str
    counterexample: Optional[dict]
    notes: tuple

    def to_obj(self) -> dict:
        from .ringio import ideal_to_spec, ring_to_spec
        fibers = {}
        for mse_id, witt_id in enumerate(self.assignments):
            fibers.setdefault(witt_id, []).append(mse_id)
        return {
            "ring": ring_to_spec(self.ring),
            "ideal": ideal_to_spec(self.ideal),
            "levels": self.levels,
            "depth": self.depth,
            "mse": {"count": self.rows.norbits,
                    "objects": len(self.rows.objects),
                    "reps": [[self.ring.fmt(x) for x in rep]
                             for rep in self.rows.reps],
                    "saturated": self.rows.saturated},
            "witt": self.classes.to_obj(),
            "map": list(self.assignments),
            "image": sorted(set(self.assignments)),
            "fibers": {str(k): v for k, v in sorted(fibers.items())},
            "claims": dict(self.claims),
            "verdict": self.verdict,
            "counterexample": self.counterexample,
            "notes": list(self.notes),
        }


def vaserstein_report(ring: Ring, ideal: Optional[Ideal] = None,
                      levels: int = 1, depth: int = 1,
                      bound: Optional[int] = None) -> BijectivityReport:
    """Empirical check that row classes biject onto symbol classes.

    Every unimodular row (not just class representatives) is pushed
    through the symbol map, so constancy on orbits is itself observed
    rather than assumed.  Verdicts are three-valued; a failed claim
    under fully saturated search is still only `inconclusive` because
    the generator depth and stabilization level are bounds too.
    """
    ideal = ideal if ideal is not None else unit_ideal(ring)
    rows = um_orbit_partition(ring, 3, ideal, depth, bound)
    classes = witt_classes_bounded(ring, ideal, 4, levels, depth, bound)

    notes = []
    per_class: dict = {}
    for state, mse_id in zip(rows.objects, rows.ids):
        sym = vaserstein_symbol(um_row(ring, state, ideal))
        k = classes.base.index.get(sym.rep.entries)
        if k is None:
            raise VerificationFailed("symbol landed outside the universe")
        per_class.setdefault(mse_id, set()).add(classes.final_ids[k])

    constant = all(len(v) == 1 for v in per_class.values())
    if not constant:
        notes.append("symbol map is not constant on some bounded row class")
    assignments = tuple(min(per_class[c]) for c in range(rows.norbits))

    sat = rows.saturated and classes.saturated and constant
    injective = len(set(assignments)) == len(assignments)
    surjective = set(assignments) == set(range(classes.class_count))
    claims = {}
    for name, ok in (("injective", injective), ("surjective", surjective)):
        claims[name] = CONFIRMED if ok and sat else INCONCLUSIVE
        if not ok:
            notes.append(f"{name} fails within bounds "
                         f"(levels={levels}, depth={depth})")
        elif not sat:
            notes.append(f"{name} holds but some search was not saturated")
    bijective = claims["injective"] == CONFIRMED and claims["surjective"] == CONFIRMED
    claims["bijective"] = CONFIRMED if bijective else INCONCLUSIVE
    verdict = claims["bijective"]
    return BijectivityReport(ring, ideal, levels, depth, rows, classes,
                             assignments, claims, verdict, None, tuple(notes))
