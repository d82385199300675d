"""Spans recorded from outside symwitt, and the per-layer figures.

The tracer replaces module-level functions (every binding of the same
function object across symwitt's modules, so `symwitt.orbits.pfaffian`
is caught as well as `symwitt.matrices.pfaffian`) and a few methods with
wrappers that record a span: name, start, end and parent.  Spans stay in
flat in-memory arrays until the run ends.  A layer figure is self time:
a span's duration minus the time covered by its direct children.
"""

import json
import sys
import time
from array import array

_now = time.perf_counter

# (module, attribute, class or None, span name or None, counter, result hook)
# A span name of None counts calls without timing them, so their time
# stays in the caller's self time.
HOOKS = (
    ("polytools", "nagata_transform", None, "polytools.nagata", None, None),
    ("polytools", "substitute", "MultiPoly", "polytools.substitute", None, None),
    ("polytools", "mul", "MultiPoly", "polytools.mul", "polytools.mul_calls", None),
    ("polytools", "make", "MultiPoly", None, "polytools.make_calls", None),
    ("orbits", "witt_universe", None, "orbits.universe", None,
     lambda a, k, r: ("orbits.universe_kept", len(r))),
    ("orbits", "_translation_partition", None, "orbits.translation", None, None),
    ("orbits", "_translation_partition_open", None, "orbits.translation", None, None),
    ("witt", "standard_form_witness", None, "witt.standard_form",
     "witt.standard_form_calls", None),
    ("matrices", "pfaffian", None, "matrices.pfaffian", "matrices.pfaffian_calls", None),
    ("orbits", "orbit_bfs", None, "orbits.bfs", None,
     lambda a, k, r: ("orbits.bfs_objects", len(r.objects))),
    ("orbits", "elementary_generators", None, "orbits.generators", None,
     lambda a, k, r: ("orbits.generators", len(r))),
    ("orbits", "witt_classes_bounded", None, "orbits.stabilize", None, None),
    ("orbits", "um_orbit_partition", None, "orbits.partition",
     "orbits.partition_builds", None),
    ("orbits", "alt_orbit_partition", None, "orbits.partition",
     "orbits.partition_builds", None),
    ("orbits", "vaserstein_report", None, "orbits.report", None, None),
    ("orbits", "vdk_product_aligned", None, "orbits.align", None, None),
    ("orbits", "nice_mult_check", None, "orbits.nice_check", None, None),
    ("orbits", "find_equivalence_certificate", None, "orbits.path_search", None,
     lambda a, k, r: ("orbits.certificates", int(r is not None))),
    ("matrices", "word_eval", None, "matrices.word_eval", None, None),
    ("witt", "verify_equivalence", None, "witt.verify", None, None),
    ("orbits", "enumerate_um", None, "orbits.enumerate_um", None,
     lambda a, k, r: ("orbits.rows", len(r))),
    ("umrows", "vaserstein_symbol", None, "umrows.symbol", "umrows.symbols", None),
    ("umrows", "vdk_product", None, "umrows.vdk", None, None),
    ("cli", "main", None, "cli.main", None, None),
    ("ringio", "canonical_json", None, "ringio.canonical_json", None, None),
)

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "polytools.nagata_s": "polytools.nagata",
    "polytools.substitute_s": "polytools.substitute",
    "polytools.mul_s": "polytools.mul",
    "orbits.universe_s": "orbits.universe",
    "orbits.translation_s": "orbits.translation",
    "witt.standard_form_s": "witt.standard_form",
    "matrices.pfaffian_s": "matrices.pfaffian",
    "orbits.bfs_s": "orbits.bfs",
    "orbits.generators_s": "orbits.generators",
    "orbits.stabilize_s": "orbits.stabilize",
    "orbits.partition_s": "orbits.partition",
    "orbits.report_s": "orbits.report",
    "orbits.align_s": "orbits.align",
    "orbits.nice_check_s": "orbits.nice_check",
    "orbits.path_search_s": "orbits.path_search",
    "matrices.word_eval_s": "matrices.word_eval",
    "witt.verify_s": "witt.verify",
    "orbits.enumerate_um_s": "orbits.enumerate_um",
    "umrows.symbol_s": "umrows.symbol",
    "umrows.vdk_s": "umrows.vdk",
    "cli.main_s": "cli.main",
    "ringio.canonical_json_s": "ringio.canonical_json",
}

COUNTS = ("polytools.mul_calls", "polytools.make_calls", "orbits.universe_candidates",
          "orbits.universe_kept", "witt.standard_form_calls", "matrices.pfaffian_calls",
          "orbits.bfs_objects", "orbits.generators", "orbits.partition_builds",
          "orbits.certificates", "orbits.rows", "umrows.symbols")


class Tracer:
    """Flat span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._patches = []  # (owner, attribute, original value)

    def _intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans -------------------------------------------------------------
    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx):
        self.end[idx] = _now()
        self._stack.pop()

    def call(self, name, fn, *args):
        """Run fn(*args) under a span of the given name."""
        idx = self.open(self._intern(name))
        try:
            return fn(*args)
        finally:
            self.close(idx)

    # -- wrappers ------------------------------------------------------------
    def _wrapper(self, fn, span, counter, hook):
        nid = None if span is None else self._intern(span)
        counts, opn, cls = self.counts, self.open, self.close

        if nid is None:
            def traced(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return traced

        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            idx = opn(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                cls(idx)
            if hook is not None:
                key, n = hook(args, kwargs, result)
                counts[key] += n
            return result
        return traced

    def install(self):
        """Wrap every hooked name; `uninstall` puts the originals back."""
        pkg = sys.modules["symwitt"]
        mods = [pkg] + [m for n, m in sorted(sys.modules.items())
                        if n.startswith("symwitt.") and m is not None]
        for modname, attr, clsname, span, counter, hook in HOOKS:
            home = sys.modules["symwitt." + modname]
            if clsname is not None:
                owner = getattr(home, clsname)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrapper(raw.__func__, span,
                                                        counter, hook))
                else:
                    wrapped = self._wrapper(raw, span, counter, hook)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrapper(original, span, counter, hook)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, value))
                        setattr(mod, name, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------
    def self_times(self):
        """Self seconds per span name."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = dict.fromkeys(self.names, 0.0)
        names, name = self.names, self.name
        for i in range(n):
            out[names[name[i]]] += end[i] - start[i] - child[i]
        return out

    def nested_count(self, child_name, parent_name):
        """Spans named child_name whose direct parent is named parent_name."""
        ids = self._ids
        if child_name not in ids or parent_name not in ids:
            return 0
        c, p = ids[child_name], ids[parent_name]
        name, parent = self.name, self.parent
        return sum(1 for i in range(len(name))
                   if name[i] == c and parent[i] >= 0 and name[parent[i]] == p)

    def layer_metrics(self, rounds):
        """Per-layer figures per traced round: self seconds and counts."""
        selfs = self.self_times()
        counts = dict(self.counts)
        counts["orbits.universe_candidates"] = self.nested_count(
            "matrices.pfaffian", "orbits.universe")
        out = {}
        for metric, span in SELF_TIMES.items():
            out[metric] = selfs.get(span, 0.0) / rounds
        for metric in COUNTS:
            out[metric] = counts[metric] / rounds
        return out

    def write(self, path):
        """One JSON header line, then the name, start, end and parent arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "fields": ["name:int32", "start:float64", "end:float64",
                             "parent:int32"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(fh)


def ring_probe(parse_ring, spec, budget_s=0.05):
    """Nanoseconds per add, sub, neg or mul over all element pairs.

    Repeats full passes for about budget_s and reports the median pass,
    so the ring's own operation memo is warm, as it is inside a report.
    """
    ring = parse_ring(spec)
    els = ring.elements()
    pairs = [(a, b) for a in els for b in els]
    add, sub, neg, mul = ring.add, ring.sub, ring.neg, ring.mul
    passes = []
    deadline = _now() + budget_s
    while len(passes) < 5 or _now() < deadline:
        t0 = _now()
        for a, b in pairs:
            add(a, b)
            sub(a, b)
            neg(a)
            mul(a, b)
        passes.append(_now() - t0)
    passes.sort()
    return passes[len(passes) // 2] / (4 * len(pairs)) * 1e9
