"""Exhaustive orbit search over finite rings.

Ground truth by brute force: enumerate unimodular rows or alternating
matrices, close them up under (relative) elementary moves, and compare
the row-class group against the symbol classes.  Everything here is
finite and deterministic: every search runs to saturation, or is
refused with BoundExceeded once it would hold more than MEMORY_CAP
state entries.
"""

from collections import deque
from dataclasses import dataclass
from operator import getitem, itemgetter
from typing import Optional, Sequence

import functools
import itertools
import math

from .errors import (
    BoundExceeded,
    InfiniteRing,
    MalformedSpec,
    NoRelativeCompletionFound,
    NotCompleted,
    RingMismatch,
    SizeMismatch,
    TailAlignmentFailed,
    VerificationFailed,
)
from .rings import MEMORY_CAP, Ideal, Ring, unit_ideal
from .matrices import (
    Conj,
    Elem,
    GroupWord,
    RingMatrix,
    _invert_token,
    _pf_expand,
    chi_n,
    congruent_mod_ideal,
    orth_sum,
)
from .witt import (
    EquivalenceCertificate,
    WittSymbol,
    standard_forms,
    verify_equivalence,
)
from .umrows import UmRow, _finite_complete, um_row, vaserstein_symbol, vdk_product
from .ringio import _fmt_rows, ideal_to_spec, ring_to_spec

ACTION_ROW = "row"
ACTION_CONGRUENCE = "congruence"

CONFIRMED = "confirmed-within-bounds"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Generator:
    """One elementary move, the rank-one update I + a*u*w^T.

    The token records how the move was written (a bare transvection or
    a conjugate of one), so BFS paths can be replayed as group words.
    """

    token: object
    a: object
    u: tuple
    w: tuple


def _transvections(ring: Ring, n: int, pool) -> list:
    return [(i, j, a)
            for i in range(1, n + 1)
            for j in range(1, n + 1) if i != j
            for a in pool if a != ring.zero]


def elementary_generators(ring: Ring, n: int, ideal: Optional[Ideal] = None,
                          basis: bool = False) -> tuple:
    """Generating set of the elementary action at size n.

    Absolute (no ideal, or a unit ideal): the transvections e_ij(a).
    Relative, n >= 3: the z_ij(x, a) = e_ji(a) e_ij(x) e_ji(-a), x in I,
    a in R, which generate E_n(R, I) (Vaserstein-Suslin 1976; Suslin
    1977).  Relative, n <= 2: the e_ij(x), x in I, closed under
    conjugation by every transvection e_kl(b), so they generate the
    normal closure of E_n(I).  Duplicates (equal a*u*w^T) are kept once,
    and the first token wins.

    By default x (or a, absolute) runs over every member: the exact set,
    whose tokens certificates replay.  With basis it runs over the
    ideal's additive basis only, and the n <= 2 closure conjugates only
    by b in R's basis.  e_ij(x + y) = e_ij(x) e_ij(y) and
    z_ij(x + y, a) = z_ij(x, a) z_ij(y, a), and a finite set closed under
    conjugation by generators of a finite group is closed under the
    whole group, so the smaller set generates the same group: it has the
    same orbits, and fewer moves to try.

    Absolute with basis at n >= 3, the set is smaller still: the n-cycle
    e_12(1), e_23(1), ..., e_n1(1), then e_12(b) for b != 1 in R's basis.
    By [e_ij(a), e_jk(b)] = e_ik(ab) (i, j, k distinct), commutators
    along the cycle give every e_ij(1), commutators of e_12(b) with
    those give every e_ij(b), and additivity gives every e_ij(c).

    Relative sets are conjugated and deduplicated on element indices
    (Ring.compile): a move is held as its conjugator chain, its core
    e_ij(x) and the indices of a, u and w, and only a kept move is
    decoded into a Generator.  At n >= 3 the matrix of z_ij(x, b) has
    entries x, -xb, xb and -xb^2, and when xb = xb' in a commutative R,
    xb^2 = (xb')b = (xb)b' = xb'^2: the matrix depends on b only through
    xb.  So for one core a b whose xb was already tried is skipped
    before its product is built, and so is a b with xb = 0, which gives
    the core back.
    """
    if not ring.is_finite:
        raise InfiniteRing(f"cannot enumerate generators over {ring.describe()}")
    ideal = ideal if ideal is not None else unit_ideal(ring)
    if ideal.ring != ring:
        raise RingMismatch("ideal over a different ring")
    absolute = ideal.contains(ring.one)
    if basis and absolute and n >= 3:
        steps = [(i, i % n + 1, ring.one) for i in range(1, n + 1)]
        steps += [(1, 2, b) for b in ideal.basis() if b != ring.one]
    else:
        steps = _transvections(ring, n, ideal.basis() if basis else ideal.members())
    if absolute:
        unit = [tuple(ring.one if t == k else ring.zero for t in range(n))
                for k in range(n)]
        return tuple(Generator(Elem(i, j, a), a, unit[i - 1], unit[j - 1])
                     for i, j, a in steps)
    t = ring.compile()
    els, ix, add, neg, mul, zero = t.elements, t.index, t.add, t.neg, t.mul, t.zero
    unit = [tuple(t.one if s == k else zero for s in range(n)) for k in range(n)]
    # (conjugators (k, l, b) front first, core e_ij(x), then a = x, u and w
    # as indices); conjugation keeps a and the core
    moves = [((), Elem(i, j, x), ix[x], unit[i - 1], unit[j - 1]) for i, j, x in steps]
    seen = {tuple(r[z] for r in [mul[mul[a][y]] for y in u] for z in w)
            for _, _, a, u, w in moves}
    if n >= 3:
        nonzero = [b for b in range(len(els)) if b != zero]
    else:
        # walk `moves` while it grows, so the closure reaches a fixpoint
        conjugators = [(k, l, ix[b]) for k, l, b in _transvections(
            ring, n, unit_ideal(ring).basis() if basis else ring.elements())]
    for chain, core, a, u0, w0 in (tuple(moves) if n >= 3 else moves):
        if n >= 3:
            # e_ji(b), one b for each nonzero xb, the first
            tried, conjugators = {zero}, []
            for b in nonzero:
                xb = mul[a][b]
                if xb not in tried:
                    tried.add(xb)
                    conjugators.append((core.j, core.i, b))
        rows = mul[a]
        for k, l, b in conjugators:
            # e_kl(b) g e_kl(-b): u gains b*u_l in row k, w loses b*w_k in column l
            u, w = list(u0), list(w0)
            u[k - 1] = add[u0[k - 1]][mul[b][u0[l - 1]]]
            w[l - 1] = add[w0[l - 1]][neg[mul[b][w0[k - 1]]]]
            key = tuple(r[z] for r in [mul[rows[y]] for y in u] for z in w)
            if key not in seen:
                seen.add(key)
                moves.append((((k, l, b),) + chain, core, a, tuple(u), tuple(w)))
    return tuple(
        Generator(Conj(tuple(Elem(k, l, els[b]) for k, l, b in chain), core)
                  if chain else core,
                  core.a, tuple(map(els.__getitem__, u)), tuple(map(els.__getitem__, w)))
        for chain, core, a, u, w in moves)


# ---------------------------------------------------------------------------
# actions, compiled to element indices
# ---------------------------------------------------------------------------
#
# A BFS state is a tuple of element indices (see Ring.compile): the row
# itself under ACTION_ROW, the upper triangle (row-major) of the
# alternating matrix under ACTION_CONGRUENCE.  Both actions are linear in
# the state, so each generator compiles to the sparse terms of its map.

@functools.lru_cache(maxsize=None)
def _upper(n: int) -> tuple:
    """Positions (i, j), i < j, of an n x n upper triangle, row-major."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@functools.lru_cache(maxsize=None)
def _slots(n: int) -> tuple:
    """slot[r][k]: the position of (min(r, k), max(r, k)) in _upper(n)."""
    at = {p: k for k, p in enumerate(_upper(n))}
    return tuple(tuple(at.get((min(r, k), max(r, k))) for k in range(n))
                 for r in range(n))


def _encode(tables, action: str, n: int, obj: tuple) -> tuple:
    """Payload tuple -> state; a congruence object must be alternating."""
    size = n if action == ACTION_ROW else n * n
    if len(obj) != size:
        raise SizeMismatch(f"object of {len(obj)} entries, expected {size}")
    ix = tuple(map(tables.index.__getitem__, obj))
    if action == ACTION_ROW:
        return ix
    neg, zero = tables.neg, tables.zero
    if any(ix[i * n + i] != zero for i in range(n)) or any(
            ix[j * n + i] != neg[ix[i * n + j]] for i, j in _upper(n)):
        raise MalformedSpec("congruence object is not an alternating matrix")
    return tuple(ix[i * n + j] for i, j in _upper(n))


@functools.lru_cache(maxsize=None)
def _entries(n: int):
    """Getter of the n x n entries, row-major, from an upper triangle t
    extended to t + (-t) + (zero,)."""
    m = len(_upper(n))
    slot = {p: k for k, p in enumerate(_upper(n))}
    return itemgetter(*(slot[i, j] if i < j else m + slot[j, i] if i > j else 2 * m
                        for i in range(n) for j in range(n)))


def _size(action: str, states: tuple) -> int:
    """The action's size n, read from the first state: n entries, or the
    n(n-1)/2 of an upper triangle.  A congruence state of any other
    width (an n x n payload, say) is refused, not read as a triangle."""
    width = len(states[0])
    if action == ACTION_ROW:
        return width
    n = (1 + math.isqrt(1 + 8 * width)) // 2
    if n * (n - 1) // 2 != width:
        raise SizeMismatch(f"congruence state of {width} entries is no upper triangle")
    return n


def _decode(tables, action: str, n: int, state: tuple) -> tuple:
    """State -> payload tuple."""
    if action == ACTION_CONGRUENCE:
        state = _entries(n)(state + tuple(map(tables.neg.__getitem__, state))
                            + (tables.zero,))
    return tuple(map(tables.elements.__getitem__, state))


def _compile_moves(tables, action: str, n: int, gens: Sequence[Generator]) -> tuple:
    """One (token, terms) move per generator.  A move maps a state x to
    y with y[t] = x[t] + sum of row[x[s]] over its (t, s, row) terms,
    where row is the mul table row of a coefficient.

    Row v: v g = v + q w with q = a (v . u).  Congruence on alternating
    M: g^T M g = M + q w^T - w q^T with q = a M u, so slot (r, s) gains
    q_r w_s - w_r q_s.  The q are linear forms in the state; expanding
    them gives the terms.  For a bare e_ij(a), u = e_i and w = e_j, so
    only the slots in row and column j change.
    """
    add, mul, neg, zero, ix = (tables.add, tables.mul, tables.neg,
                               tables.zero, tables.index)
    slot = _slots(n)
    moves = []
    for g in gens:
        if len(g.u) != n or len(g.w) != n:
            raise SizeMismatch(f"generator of size {len(g.u)} in an action at size {n}")
        au = [mul[ix[g.a]][ix[x]] for x in g.u]
        w = [ix[x] for x in g.w]
        if action == ACTION_ROW:
            qforms = [{t: c for t, c in enumerate(au) if c != zero}]
            updates = [(t, 0, c) for t, c in enumerate(w) if c != zero]
        elif action == ACTION_CONGRUENCE:
            # q_r = sum_k M[r][k] au_k, where M[r][k] is slot (r, k) above
            # the diagonal and minus slot (k, r) below it; a nonzero w_s
            # feeds q_r w_s into every slot (r, s) and -w_s q_r into (s, r)
            nonzero = [(k, c) for k, c in enumerate(au) if c != zero]
            qforms = [{slot[r][k]: c if r < k else neg[c] for k, c in nonzero if k != r}
                      for r in range(n)]
            updates = [(slot[r][s], r, c if r < s else neg[c])
                       for s, c in enumerate(w) if c != zero
                       for r in range(n) if r != s]
        else:
            raise MalformedSpec(f"unknown action {action!r}")
        coef = {}
        for t, qr, c in updates:
            for s, d in qforms[qr].items():
                coef[t, s] = add[coef.get((t, s), zero)][mul[c][d]]
        moves.append((g.token, tuple((t, s, mul[c]) for (t, s), c in coef.items()
                                     if c != zero)))
    return tuple(moves)


def _step(state: tuple, terms: tuple, add: tuple) -> tuple:
    new = list(state)
    for t, s, row in terms:
        new[t] = add[new[t]][row[state[s]]]
    return tuple(new)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

class OrbitPartition:
    """Orbit ids and representatives of objects held as table states.

    `states` are the objects' states on the ring's tables and `at` maps
    each state to its position, the partition's one index of them.  Only
    the representatives are decoded when the partition is built; the
    payload tuples `objects` are decoded on first access.
    """

    def __init__(self, ring: Ring, states: tuple, at: dict, ids: tuple, reps: tuple,
                 meta: dict):
        self.ring, self.states, self.at = ring, states, at
        self.ids, self.reps, self.meta = ids, reps, meta

    @functools.cached_property
    def objects(self) -> tuple:
        tables, action = self.ring.compile(), self.meta["action"]
        n = _size(action, self.states)
        return tuple(_decode(tables, action, n, st) for st in self.states)

    @property
    def norbits(self) -> int:
        return len(self.reps)

    def id_of(self, obj) -> int:
        """Orbit id of a payload tuple, through its state and `at`."""
        tables, action = self.ring.compile(), self.meta["action"]
        try:
            k = self.at.get(_encode(tables, action, _size(action, self.states), obj))
        except (KeyError, SizeMismatch, MalformedSpec):
            k = None  # not a state of this action, so not a listed one
        if k is None:
            raise VerificationFailed("state is not one of the partitioned objects")
        return self.ids[k]

    def orbit_sizes(self) -> tuple:
        sizes = [0] * self.norbits
        for k in self.ids:
            sizes[k] += 1
        return tuple(sizes)

    def to_obj(self) -> dict:
        # every orbit is searched whole, so each is saturated
        matrix = self.meta["action"] == ACTION_CONGRUENCE
        orbits = [{"rep": _fmt_rows(self.ring, rep, math.isqrt(len(rep))) if matrix
                   else [self.ring.fmt(x) for x in rep],
                   "size": size, "saturated": True}
                  for rep, size in zip(self.reps, self.orbit_sizes())]
        obj = {"count": self.norbits, "objects": len(self.ids),
               "orbits": orbits, "saturated": True}
        obj.update(self.meta)
        return obj


def _refuse_past_cap(states: int, width: int) -> None:
    """Refuse a search that would hold `states` states of `width`
    entries each, past MEMORY_CAP state entries."""
    if states * width > MEMORY_CAP:
        raise BoundExceeded(
            f"search of {states} states x {width} entries "
            f"is past the memory cap of {MEMORY_CAP}")


def _bfs(start: tuple, moves: tuple, tables) -> set:
    """The set of states reached from start under moves: its whole
    orbit, since each move permutes the finite set of states.  Past
    MEMORY_CAP state entries the search raises (`_refuse_past_cap`).
    """
    add = tables.add
    width = len(start)
    reached = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for _, terms in moves:
            y = _step(x, terms, add)
            if y in reached:
                continue
            _refuse_past_cap(len(reached) + 1, width)
            reached.add(y)
            queue.append(y)
    return reached


def _trace(links: dict, state: tuple) -> list:
    """Tokens of the linked steps from the search's root to state."""
    tokens = []
    while links[state] is not None:
        state, token = links[state]
        tokens.append(token)
    tokens.reverse()
    return tokens


def _path(start: tuple, goal: tuple, moves: tuple, ring: Ring) -> Optional[tuple]:
    """Tokens of a shortest word over moves from start to goal, or None.

    States are on `ring.compile()`'s tables.  The search runs from both
    ends, with one link dict each.  It expands one whole level of the
    smaller frontier at a time (the start side on a tie), trying moves
    in order, and stops at the first new state that the other end has
    reached.  The start half's tokens come in path order; the goal
    half's come reversed and inverted (`_invert_token`), so the moves
    must be closed under inverses for the word to lie over them.  Over
    a finite group each move's inverse is a power of it, so whether a
    path exists does not depend on that.  None means the ends lie in
    different orbits.  Past MEMORY_CAP state entries of both ends
    together the search raises (`_refuse_past_cap`).
    """
    if start == goal:
        return ()
    add = ring.compile().add
    width = len(start)
    ends = ({start: None}, {goal: None})
    frontiers = [[start], [goal]]
    total = 2
    while frontiers[0] and frontiers[1]:
        side = int(len(frontiers[1]) < len(frontiers[0]))
        links, other = ends[side], ends[1 - side]
        level = []
        for x in frontiers[side]:
            for token, terms in moves:
                y = _step(x, terms, add)
                if y in links:
                    continue
                if y in other:
                    near, far = _trace(links, x) + [token], _trace(other, y)
                    head, tail = (near, far) if side == 0 else (far, near)
                    return tuple(head) + tuple(_invert_token(ring, tok)
                                               for tok in reversed(tail))
                total += 1
                _refuse_past_cap(total, width)
                links[y] = (x, token)
                level.append(y)
        frontiers[side] = level
    return None


def _setup(ring: Ring, states: tuple, action: str, gens: Sequence[Generator]) -> tuple:
    """Tables, moves, size n and state -> position map of a partition.

    The states are trusted: they are built on the ring's tables, by
    this module or by `_encode` at the edges.  n is read from the first
    of them.  The map is the partition's one index of its objects, so
    duplicates are refused there.
    """
    if not states:
        raise MalformedSpec("nothing to partition")
    n = _size(action, states)
    tables = ring.compile()
    moves = _compile_moves(tables, action, n, gens)
    at = {st: k for k, st in enumerate(states)}
    if len(at) != len(states):
        raise MalformedSpec("duplicate objects in orbit enumeration")
    return tables, moves, n, at


def orbit_bfs(ring: Ring, states: tuple, action: str,
              generators: Sequence[Generator]) -> OrbitPartition:
    """Partition `states` into orbits under the configured action.

    Every BFS edge must stay inside the listed states (the action must
    preserve the defining invariants), else the partition is refused.
    Each search closes a whole orbit, so it reaches no state an earlier
    one labeled.  Callers encode payload tuples first (`_encode`), which
    checks that a congruence object is alternating.  The action's size
    comes from the states, so an empty generator set acts as the
    trivial group.
    """
    tables, moves, n, at = _setup(ring, states, action, generators)
    ids = [-1] * len(states)
    reps = []
    for k, start in enumerate(states):
        if ids[k] >= 0:
            continue
        label = len(reps)
        for x in _bfs(start, moves, tables):
            j = at.get(x)
            if j is None:
                raise VerificationFailed("orbit step left the object set")
            ids[j] = label
        # every earlier object already has an id, so k is the smallest
        reps.append(_decode(tables, action, n, start))
    return OrbitPartition(ring, states, at, tuple(ids), tuple(reps),
                          {"action": action, "generators": len(generators)})


def _vec_add(add: tuple, x: tuple, d: tuple) -> tuple:
    return tuple(map(getitem, map(add.__getitem__, x), d))


class _EchelonSpan:
    """Additive span of index vectors, held as an echelon (Sims) table.

    Level p maps each entry h of a subgroup H_p of (R, +) to a span
    vector that is zero before p and has -h at p, so adding it clears
    an entry h at p.  H_p is every entry at p of a span vector that is
    zero before p, hence |span| = prod |H_p|, and a vector lies in the
    span iff clearing its entries level by level leaves zero.  A delta
    is cleared the same way; a residue whose entry e at p lies outside
    H_p extends H_p by whole cosets H_p + e, H_p + 2e, ... until m*e
    lies in H_p, and the residue times m clears on, which inserts the
    correction at later levels.  The table holds at most width * |R|
    vectors, never the span.
    """

    def __init__(self, tables, width: int, deltas):
        add, neg, zero = tables.add, tables.neg, tables.zero
        zeros = (zero,) * width
        levels = [{zero: zeros} for _ in range(width)]
        for v in deltas:
            p = 0
            while p < width:
                e = v[p]
                if e == zero:
                    p += 1
                    continue
                level = levels[p]
                clear = level.get(e)
                if clear is not None:
                    v = _vec_add(add, v, clear)
                    p += 1
                    continue
                minus = tuple(map(neg.__getitem__, v))
                coset, multiple = level, v
                while multiple[p] not in level:
                    coset = {add[h][e]: _vec_add(add, c, minus) for h, c in coset.items()}
                    level.update(coset)
                    multiple = _vec_add(add, multiple, v)
                v = multiple
        # membership reads only the nontrivial levels, each clearing vector
        # as its nonzero (position, entry) pairs; an entry left at a
        # trivial level fails the final comparison with zero
        self.add, self.cleared = add, [zero] * width
        self.pivots = [(p, {h: [(q, x) for q, x in enumerate(c) if x != zero]
                            for h, c in level.items()})
                       for p, level in enumerate(levels) if len(level) > 1]

    def __len__(self) -> int:
        return math.prod(len(level) for _, level in self.pivots)

    def __contains__(self, v: tuple) -> bool:
        add, v = self.add, list(v)
        for p, level in self.pivots:
            clear = level.get(v[p])
            if clear is None:
                return False
            for q, x in clear:
                v[q] = add[v[q]][x]
        return v == self.cleared


def _translation_partition(ring: Ring, states: tuple, gens, action: str
                           ) -> OrbitPartition:
    """Exact orbits when the ideal squares to zero.

    Every generator then moves a whole congruence coset by a constant
    vector, so each orbit is seed + (additive span of the per-generator
    deltas).  An orbit's members are the listed states in that coset,
    and it must be listed whole.  The span holds states, so a
    congruence vector is an upper triangle.
    """
    tables, moves, n, at = _setup(ring, states, action, gens)
    add, neg = tables.add, tables.neg
    ids = [-1] * len(states)
    reps = []
    for k, seed in enumerate(states):
        if ids[k] >= 0:
            continue
        minus = tuple(map(neg.__getitem__, seed))
        span = _EchelonSpan(tables, len(minus), {
            _vec_add(add, _step(seed, terms, add), minus) for _, terms in moves})
        members = [j for j in range(k, len(states))
                   if ids[j] < 0 and _vec_add(add, states[j], minus) in span]
        if len(members) < len(span):
            raise VerificationFailed("translation left the object set")
        for j in members:
            ids[j] = len(reps)
        reps.append(_decode(tables, action, n, seed))
    return OrbitPartition(ring, states, at, tuple(ids), tuple(reps),
                          {"action": action, "generators": len(gens),
                           "fast_path": "translation"})


# perfbench/tracing.py hooks this name as well, so it stays bound
_translation_partition_open = _translation_partition


def _partition(ring: Ring, states: tuple, action: str, n: int,
               ideal: Optional[Ideal]) -> OrbitPartition:
    """Orbits of E_n(R, I), moving over the basis set.

    The basis set (`elementary_generators` with basis) generates the
    same group as the exact set, so ids and reps are the same; absolute
    at n >= 3 it is the n-cycle of e_i,i+1(1) and the e_12(b).  The
    payload counts the moves searched.
    """
    ideal = ideal if ideal is not None else unit_ideal(ring)
    moves = elementary_generators(ring, n, ideal, basis=True)
    if not ideal.contains(ring.one) and ideal.products_vanish():
        return _translation_partition(ring, states, moves, action)
    return orbit_bfs(ring, states, action, moves)


# ---------------------------------------------------------------------------
# object enumeration
# ---------------------------------------------------------------------------

def _row_pool(ring: Ring, n: int, ideal: Optional[Ideal]) -> tuple:
    """Entries a row of length n (in e1 + I^n, with an ideal) draws from,
    once the rows are known to fit under MEMORY_CAP.  An absolute pool
    draws at most one element more than fits, so a large ring is refused
    without being enumerated."""
    if ideal is not None and not ideal.contains(ring.one):
        pool = ideal.members()
    else:
        side = round(MEMORY_CAP ** (1 / n))
        while side ** n > MEMORY_CAP:
            side -= 1
        pool = ring._take(side)
    if len(pool) ** n > MEMORY_CAP:
        raise BoundExceeded(f"at least {len(pool)}^{n} rows is past the memory cap")
    return pool


def _search_moves(ring: Ring, action: str, n: int,
                  ideal: Optional[Ideal]) -> tuple:
    """Tables and compiled moves of a path search at size n: row searches
    move over the basis set once their rows are known to fit under
    MEMORY_CAP (absolute at n >= 3: the n-cycle of e_i,i+1(1) and the
    e_12(b), see `elementary_generators`), certificate searches over the
    exact set, which is closed under inverses and measured to reach more
    over f3 (README).

    The moves index the handle's tables, so the handle keeps them beside
    those tables, one entry per (action, n, ideal), with no ideal the unit
    ideal.  The row check runs on every call, before the lookup, so a
    lowered MEMORY_CAP refuses a row search whose moves are kept."""
    rows = action == ACTION_ROW
    if rows:
        _row_pool(ring, n, ideal)
    tables = ring.compile()
    key = (action, n, ideal if ideal is not None else unit_ideal(ring))
    moves = ring._moves.get(key)
    if moves is None:
        gens = elementary_generators(ring, n, ideal, basis=rows)
        moves = ring._moves[key] = _compile_moves(tables, action, n, gens)
    return tables, moves


def _unimodular_states(tables, pool: Sequence, n: int, relative: bool) -> list:
    """Row states over the pool's element indices, in enumeration order,
    whose entries generate the unit ideal; relative, the first entry is
    one plus the pool entry.

    A row is unimodular iff 1 lies in a_1 R + ... + a_n R, a sum of
    principal ideals.  Each a R is the set of entries of a's mul table
    row, and each partial sum is an ideal of R; the sums are built once
    per (partial sum, entry) and named by number, so a row costs n
    lookups.  This is exact over every finite ring, local or not.
    """
    add, mul, one = tables.add, tables.mul, tables.one
    sums = [frozenset((tables.zero,))]
    number = {sums[0]: 0}
    step = {}
    out = []
    for combo in itertools.product(pool, repeat=n):
        if relative:
            combo = (add[one][combo[0]],) + combo[1:]
        k = 0
        for a in combo:
            nxt = step.get((k, a))
            if nxt is None:
                principal = set(mul[a])
                ideal = frozenset(add[x][y] for x in sums[k] for y in principal)
                nxt = step[k, a] = number.setdefault(ideal, len(sums))
                if nxt == len(sums):
                    sums.append(ideal)
            k = nxt
        if one in sums[k]:
            out.append(combo)
    return out


def enumerate_um(ring: Ring, n: int, ideal: Optional[Ideal] = None) -> tuple:
    """All unimodular rows of length n, in enumeration order.

    With an ideal: only rows in the coset e1 + I^n.  Unimodularity is
    decided exactly on the ring's tables (`_unimodular_states`); the
    exhaustive completion search `umrows._finite_complete` is its oracle
    in the tests.
    """
    if not ring.is_finite:
        raise InfiniteRing(f"cannot enumerate rows over {ring.describe()}")
    if n < 1:
        raise MalformedSpec(f"row length must be >= 1, got {n}")
    if ideal is not None and ideal.ring != ring:
        raise RingMismatch("ideal over a different ring")
    relative = ideal is not None and not ideal.contains(ring.one)
    pool = _row_pool(ring, n, ideal)
    tables = ring.compile()
    els, ix = tables.elements, tables.index
    states = _unimodular_states(tables, [ix[x] for x in pool], n, relative)
    # the rows are congruent to e1 by construction, so they skip um_row
    return tuple(UmRow(ring, tuple(map(els.__getitem__, st)), ideal) for st in states)


def um_orbit_partition(ring: Ring, n: int, ideal: Optional[Ideal] = None
                       ) -> OrbitPartition:
    # enumerate_um decodes each row state into a UmRow, encoded back here;
    # the round trip stays while perfbench counts rows from enumerate_um
    tables = ring.compile()
    states = tuple(_encode(tables, ACTION_ROW, n, r.entries)
                   for r in enumerate_um(ring, n, ideal))
    part = _partition(ring, states, ACTION_ROW, n, ideal)
    part.meta.update({"kind": "um", "n": n,
                      "relative": ideal is not None and not ideal.contains(ring.one)})
    return part


def _pfaffian_one(tables, n: int, values: Sequence) -> list:
    """Upper-triangle states with entry p in values[p] and Pfaffian one.

    Pf is linear in the first row: Pf = sum_j (-1)^(j-1) a_0j Pf_j, with
    Pf_j the Pfaffian without rows and columns 0 and j.  For each choice
    of the other rows the Pf_j are computed once; the first row is
    enumerated but for its last entry, which is looked up by the value
    its term must take.
    """
    add, mul, neg, zero, one = (tables.add, tables.mul, tables.neg,
                                tables.zero, tables.one)
    ops = (lambda x, y: add[x][y], lambda x, y: mul[x][y], neg.__getitem__,
           zero, one)
    first, others = values[:n - 1], values[n - 1:]
    below = _upper(n)[n - 1:]
    rest = (1 << n) - 2  # the indices 1..n-1
    a = [[zero] * n for _ in range(n)]
    out = []
    for rows in itertools.product(*others):
        for (i, j), x in zip(below, rows):
            a[i][j] = x
        pf, coef = _pf_expand(a, *ops), []
        for p in range(n - 1):
            minor = pf(rest ^ (2 << p))
            coef.append(mul[neg[minor] if p % 2 else minor])
        last = {}
        for x in first[-1]:
            last.setdefault(coef[-1][x], []).append(x)
        partial = [((), zero)]
        for vals, row in zip(first[:-1], coef):
            partial = [(h + (x,), add[acc][row[x]]) for h, acc in partial for x in vals]
        for h, acc in partial:
            for x in last.get(add[one][neg[acc]], ()):
                out.append(h + (x,) + rows)
    return out


def witt_universe(ring: Ring, ideal: Ideal, size: int) -> tuple:
    """Alternating size x size matrices with Pfaffian one and a standard
    witness modulo the ideal.  det = Pf^2, so these are all invertible.
    They are the states of _universe_states, as matrices."""
    states = _universe_states(ring, ideal, size)
    tables = ring.compile()
    return tuple(RingMatrix(ring, size, size,
                            _decode(tables, ACTION_CONGRUENCE, size, st))
                 for st in states)


def _universe_states(ring: Ring, ideal: Ideal, size: int) -> list:
    """The witt universe as congruence states (upper triangles).

    A matrix has a witness iff it lies in F + Alt(I) for a standard form
    F, where Alt(I) holds the alternating matrices with upper-triangle
    entries in I.  So the universe is built coset by coset: the forms
    are deduplicated modulo I (equal cosets, or disjoint ones), each
    coset is enumerated as element indices and kept where the table
    Pfaffian is one.  A unit ideal gives a single coset, every
    alternating matrix.  The result is sorted by the element indices of
    the upper triangle, which is the order of enumerating every
    alternating matrix over ring.elements().
    """
    if size < 2 or size % 2:
        raise SizeMismatch(f"universe size must be even and positive, got {size}")
    if not ring.is_finite:
        raise InfiniteRing(f"cannot enumerate matrices over {ring.describe()}")
    if ideal.ring != ring:
        raise RingMismatch("ideal over a different ring")
    pos = _upper(size)
    forms = []
    for witness in standard_forms(size // 2):
        form = witness.realize(ring)
        if not any(congruent_mod_ideal(form, g, ideal) for g in forms):
            forms.append(form)
    pool = ideal.members()
    if len(forms) * len(pool) ** len(pos) > MEMORY_CAP:
        raise BoundExceeded(
            f"{len(forms)} form cosets x {len(pool)}^{len(pos)} matrices "
            f"is past the memory cap of {MEMORY_CAP}")
    tables = ring.compile()
    add, ix = tables.add, tables.index
    pool = [ix[x] for x in pool]
    states = []
    for form in forms:
        states += _pfaffian_one(tables, size, [
            tuple(add[ix[form.get(i, j)]][x] for x in pool) for i, j in pos])
    states.sort()
    return states


def alt_orbit_partition(ring: Ring, ideal: Optional[Ideal], size: int
                        ) -> OrbitPartition:
    """Level-zero symbol classes: congruence orbits on the witt universe."""
    ideal = ideal if ideal is not None else unit_ideal(ring)
    states = tuple(_universe_states(ring, ideal, size))
    part = _partition(ring, states, ACTION_CONGRUENCE, size, ideal)
    part.meta.update({"kind": "alt", "size": size})
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
    base: OrbitPartition
    merge_log: tuple

    @property
    def class_count(self) -> int:
        return self.base.norbits

    def class_of(self, obj) -> int:
        return self.base.id_of(obj)

    def to_obj(self) -> dict:
        return {"size": self.size, "levels": self.levels,
                "level0_count": self.base.norbits, "count": self.class_count,
                "reps": [_fmt_rows(self.ring, r, self.size) for r in self.base.reps],
                "merges": list(self.merge_log), "saturated": True}


def witt_classes_bounded(ring: Ring, ideal: Optional[Ideal], size: int,
                         levels: int = 1) -> WittClassFamily:
    """Symbol classes of the given size, stabilized up to `levels`.

    The classes are the level-zero partition of the universe.  No level
    searches: over a finite ring each level-zero class is a whole residue
    coset mod I, which padding and E_n(R, I) keep apart (proof sketch in
    README: over a local ring Sp lifts from R/I, and SL_n(R, I) = E_n(R, I)
    for a semilocal R, by Bass).  The evidence is the property test in
    tests/test_ring_zoo.py.
    """
    ideal = ideal if ideal is not None else unit_ideal(ring)
    if levels < 0:
        raise MalformedSpec(f"stabilization must be >= 0, got {levels}")
    base = alt_orbit_partition(ring, ideal, size)
    merge_log = tuple({"t": t, "skipped": "single class"} if base.norbits <= 1
                      else {"t": t, "merged": [], "saturated": True}
                      for t in range(1, levels + 1))
    return WittClassFamily(ring, ideal, size, levels, base, merge_log)


# ---------------------------------------------------------------------------
# certificates from paths
# ---------------------------------------------------------------------------

def find_equivalence_certificate(x: WittSymbol, y: WittSymbol, levels: int = 1
                                 ) -> Optional[EquivalenceCertificate]:
    """Search for a certificate that x and y are the same class.

    A search from y's padding towards x's padding, one stabilization
    level at a time, over the exact set (`_search_moves`).  It runs
    from both ends (`_path`): the start half keeps its tokens, and the
    goal half's are reversed and inverted, e_ij(a) to e_ij(-a) and a
    conjugate's core likewise, so the word epsilon has only Elem and
    Conj tokens with core entries in I, and is a shortest word over the
    exact set.  None means no level up to `levels` joins them, not
    that the symbols differ.
    """
    if x.ideal != y.ideal:
        raise RingMismatch("symbols relative to different ideals")
    if levels < 0:
        raise MalformedSpec(f"stabilization must be >= 0, got {levels}")
    ring = x.ring
    hx, hy = x.half, y.half
    for t in range(levels + 1):
        n = 2 * (hx + hy + t)
        tables, moves = _search_moves(ring, ACTION_CONGRUENCE, n, x.ideal)
        start, goal = (_encode(tables, ACTION_CONGRUENCE, n,
                               orth_sum(rep, chi_n(ring, h + t)).entries)
                       for rep, h in ((y.rep, hx), (x.rep, hy)))
        tokens = _path(start, goal, moves, ring)
        if tokens is None:
            continue
        cert = EquivalenceCertificate(t, GroupWord(ring, n, tokens))
        if not verify_equivalence(x, y, cert):
            raise VerificationFailed("path replay failed to verify")
        return cert
    return None


# ---------------------------------------------------------------------------
# row class arithmetic
# ---------------------------------------------------------------------------

def vdk_product_aligned(u: UmRow, v: UmRow) -> UmRow:
    """Row-class product, aligning tails by orbit search when needed.

    Both factors are moved within their elementary orbits until the
    tails agree (canonically: smallest matching pair in enumeration
    order); the coordinate formula then applies.  When v lies in u's
    orbit the two orbits are one set, searched once.  Rows that would
    not all fit under MEMORY_CAP are refused before any search.
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
    tables, moves = _search_moves(ring, ACTION_ROW, n, u.ideal)
    orb_u = _bfs(_encode(tables, ACTION_ROW, n, u.entries), moves, tables)
    v_state = _encode(tables, ACTION_ROW, n, v.entries)
    orb_v = orb_u if v_state in orb_u else _bfs(v_state, moves, tables)
    # states are element indices, so their order is enumeration order
    by_tail = {}
    for s in sorted(orb_u):
        by_tail.setdefault(s[1:], s)
    for s in sorted(orb_v):
        mate = by_tail.get(s[1:])
        if mate is not None:
            return vdk_product(um_row(ring, _decode(tables, ACTION_ROW, n, mate), u.ideal),
                               um_row(ring, _decode(tables, ACTION_ROW, n, s), v.ideal))
    raise TailAlignmentFailed("no common tail found")


def nice_mult_check(a, b, tail, ring: Ring, ideal: Optional[Ideal] = None) -> bool:
    """Does the coordinatewise product rule hold for (a, tail), (b, tail)?

    True iff vdk_product((b, tail), (a, tail)) lands in the same orbit
    as (ab, tail): a search from both ends (`_path`).  The ends share
    an orbit iff some word joins them, so the search may run over the
    basis set.
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
    n = len(tail) + 1
    tables, moves = _search_moves(ring, ACTION_ROW, n, ideal)
    return _path(_encode(tables, ACTION_ROW, n, prod.entries),
                 _encode(tables, ACTION_ROW, n, target.entries),
                 moves, ring) is not None


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
    notes: tuple

    def to_obj(self) -> dict:
        fibers = {}
        for mse_id, witt_id in enumerate(self.assignments):
            fibers.setdefault(witt_id, []).append(mse_id)
        return {
            "ring": ring_to_spec(self.ring),
            "ideal": ideal_to_spec(self.ideal),
            "levels": self.levels,
            "depth": self.depth,
            "mse": {"count": self.rows.norbits,
                    "objects": len(self.rows.ids),
                    "reps": [[self.ring.fmt(x) for x in rep]
                             for rep in self.rows.reps],
                    "saturated": True},
            "witt": dict(self.classes.to_obj(), depth=self.depth),
            "map": list(self.assignments),
            "image": sorted(set(self.assignments)),
            "fibers": {str(k): v for k, v in sorted(fibers.items())},
            "claims": dict(self.claims),
            "verdict": self.verdict,
            "counterexample": None,
            "notes": list(self.notes),
        }


def _symbol_states(tables, ideal: Ideal, rows: Sequence) -> list:
    """The upper triangle of the symbol matrix theta(a, v) of each row
    state v of length 3, built on the tables as `vaserstein_symbol`
    builds it.

    a is v's relative completion as `complete_relative` finds it:
    absolute, the inverse of v's first unit entry, found on the tables;
    otherwise `umrows._finite_complete` runs on v's entries, and a is
    its first witness of a . v = 1 over R, or relative, e1 plus its
    first witness of shift . v = 1 - v_1 over I.  The symbol is then the
    upper triangle (-v_1, -v_2, -v_3, -a_3, a_2, -a_1) of `theta_matrix`.
    """
    add, mul, neg, inv, zero, one = (tables.add, tables.mul, tables.neg, tables.inv,
                                     tables.zero, tables.one)
    ring, els, ix = ideal.ring, tables.elements, tables.index
    absolute = ideal.contains(ring.one)
    pool = ring.elements() if absolute else ideal.members()
    out = []
    for v in rows:
        units = [k for k, x in enumerate(v) if inv[x] is not None] if absolute else ()
        if units:
            a = tuple(inv[x] if j == units[0] else zero for j, x in enumerate(v))
        else:
            entries = tuple(map(els.__getitem__, v))
            target = ring.one if absolute else ring.sub(ring.one, entries[0])
            b = _finite_complete(ring, entries, pool, target)
            if b is None:
                raise NoRelativeCompletionFound("row has no relative completion")
            a = tuple(map(ix.__getitem__, b))
            if not absolute:
                a = (add[one][a[0]],) + a[1:]
        (a1, a2, a3), (v1, v2, v3) = a, v
        if add[add[mul[a1][v1]][mul[a2][v2]]][mul[a3][v3]] != one:
            raise NotCompleted("theta needs a . b = 1")
        out.append((neg[v1], neg[v2], neg[v3], neg[a3], a2, neg[a1]))
    return out


def vaserstein_report(ring: Ring, ideal: Optional[Ideal] = None,
                      levels: int = 1, depth: int = 1) -> BijectivityReport:
    """Empirical check that row classes biject onto symbol classes.

    Every unimodular row (not just class representatives) is pushed
    through the symbol map, so constancy on orbits is itself observed
    rather than assumed.  Rows and symbols stay table states: each
    row's symbol is built on the tables (`_symbol_states`) and looked up
    in the universe's state map.  The universe holds exactly the
    Pfaffian-one matrices with a standard witness mod I, so a symbol
    outside it fails what `make_witt_symbol` checks.  The payload map
    `vaserstein_symbol` cross-checks one row per row class.  A claim is
    confirmed or inconclusive: every orbit is searched whole, but a
    failed claim is still only `inconclusive` (`depth` is only recorded).
    A symbol map not constant on a row class, or two level-zero classes
    that agree mod I (named in a note), leave every claim inconclusive.
    """
    if depth < 0:
        raise MalformedSpec(f"conjugation depth must be >= 0, got {depth}")
    ideal = ideal if ideal is not None else unit_ideal(ring)
    # the symbol universe's size check (|R|^6, or |I|^6 relative) refuses
    # a large ring before the row enumeration's (|R|^3) would
    classes = witt_classes_bounded(ring, ideal, 4, levels)
    rows = um_orbit_partition(ring, 3, ideal)

    tables = ring.compile()
    symbols = _symbol_states(tables, ideal, rows.states)
    universe = classes.base.at
    notes = []
    per_class: dict = {}
    for sym, mse_id in zip(symbols, rows.ids):
        k = universe.get(sym)
        if k is None:
            raise VerificationFailed("symbol landed outside the universe")
        per_class.setdefault(mse_id, set()).add(classes.base.ids[k])
    for c, rep in enumerate(rows.reps):
        payload = vaserstein_symbol(um_row(ring, rep, ideal)).rep.entries
        if payload != _decode(tables, ACTION_CONGRUENCE, 4, symbols[rows.ids.index(c)]):
            raise VerificationFailed("table symbol differs from the payload symbol")

    constant = all(len(v) == 1 for v in per_class.values())
    if not constant:
        notes.append("symbol map is not constant on some bounded row class")
    mats = [RingMatrix(ring, 4, 4, rep) for rep in classes.base.reps]
    agree = [(c, d) for c, d in itertools.combinations(range(len(mats)), 2)
             if congruent_mod_ideal(mats[c], mats[d], ideal)]
    notes += [f"level-0 classes {c} and {d} agree mod I, so a level might merge them"
              for c, d in agree]
    assignments = tuple(min(per_class[c]) for c in range(rows.norbits))

    injective = len(set(assignments)) == len(assignments)
    surjective = set(assignments) == set(range(classes.class_count))
    claims = {}
    for name, ok in (("injective", injective), ("surjective", surjective)):
        claims[name] = CONFIRMED if ok and constant and not agree else INCONCLUSIVE
        if not ok:
            notes.append(f"{name} fails within bounds "
                         f"(levels={levels}, depth={depth})")
    bijective = claims["injective"] == CONFIRMED and claims["surjective"] == CONFIRMED
    claims["bijective"] = CONFIRMED if bijective else INCONCLUSIVE
    verdict = claims["bijective"]
    return BijectivityReport(ring, ideal, levels, depth, rows, classes,
                             assignments, claims, verdict, tuple(notes))
