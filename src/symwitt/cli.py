"""Command-line surface: rings, Pfaffians, symbols, orbits, reports.

Every command prints one canonical JSON object on stdout.  Errors are
structured JSON on stderr.  Exit codes: 0 success, 1 artifact or
internal error, 64 usage error.
"""

import argparse
import functools
import json
import os
import re
import sys
from typing import Optional

from .errors import ArtifactError, MalformedSpec
from .rings import Ideal, unit_ideal, zero_ideal
from .matrices import determinant, pfaffian, word_eval
from .polytools import MultiPoly, nagata_transform
from .witt import (
    EquivalenceCertificate,
    make_witt_symbol,
    tilde_lift_alt,
    unipotent_root,
    verify_equivalence,
    witt_product,
)
from .umrows import (
    complete,
    complete_relative,
    theta_matrix,
    tilde_row_lift,
    um_row,
    vaserstein_symbol,
)
from .orbits import (
    alt_orbit_partition,
    um_orbit_partition,
    vaserstein_report,
    vdk_product_aligned,
)
from .ringio import (
    _as_int,
    canonical_json,
    element_in,
    matrix_from_obj,
    matrix_to_obj,
    parse_ring,
    ring_to_spec,
    vector_from_obj,
    word_from_obj,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that exits 64 on bad usage instead of 2, and reads any
    single-dash word as a value, since every flag is a --long one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # so `--args -2/3` or `--poly -X1+X2` is a value; -h is looked up
        # as an option first and still asks for help
        self._negative_number_matcher = re.compile(r"-[^-]")

    def error(self, message):
        self.exit(64, f"{self.prog}: error: {message}\n")


def _need(ns, name):
    val = getattr(ns, name, None)
    if val is None:
        raise UsageError(f"missing --{name.replace('_', '-')}")
    return val


def _ring_of(ns):
    return parse_ring(_need(ns, "ring"))


def _decode(text: str, name: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedSpec(f"--{name} is not valid JSON: {e}") from None


def _ideal_of(ring, text: Optional[str], required: bool = False) -> Optional[Ideal]:
    if text is None:
        if required:
            raise UsageError("missing --ideal")
        return None
    t = text.strip()
    if t == "unit":
        return unit_ideal(ring)
    if t == "zero":
        return zero_ideal(ring)
    if t.startswith("["):
        gens = [element_in(ring, g) for g in _decode(t, "ideal")]
    else:
        gens = [ring.parse(p) for p in t.split(",")]
    return Ideal(ring, gens)


def _json_arg(ns, name):
    return _decode(_need(ns, name), name)


def _matrix_of(ns, ring, name="matrix"):
    return matrix_from_obj(_json_arg(ns, name), ring)


def _row_of(ns, ring, ideal, name="row"):
    _, coords = vector_from_obj(_json_arg(ns, name), ring)
    return um_row(ring, coords, ideal)


# ---------------------------------------------------------------------------
# handlers: each returns its payload dict
# ---------------------------------------------------------------------------

def _h_ring_eval(ns):
    ring = _ring_of(ns)
    op = getattr(ns, "op", None) or "parse"
    args = [ring.parse(a) for a in (ns.args or [])]
    unary = {"parse": lambda a: a, "neg": ring.neg, "inv": ring.inv}
    binary = {"add": ring.add, "sub": ring.sub, "mul": ring.mul}
    if op in unary:
        if len(args) != 1:
            raise UsageError(f"{op} takes one argument")
        out = unary[op](args[0])
    elif op in binary:
        if len(args) != 2:
            raise UsageError(f"{op} takes two arguments")
        out = binary[op](args[0], args[1])
    elif op == "pow":
        if len(args) != 1 or ns.exp is None:
            raise UsageError("pow takes one argument and --exp")
        out = ring.pow(args[0], ns.exp)
    else:
        raise UsageError(f"unknown op {op!r}")
    return {"schema": "ring-eval/1", "ring": ring_to_spec(ring), "op": op,
            "args": [ring.fmt(a) for a in args], "result": ring.fmt(out)}


def _h_ideal_members(ns):
    ring = _ring_of(ns)
    ideal = _ideal_of(ring, _need(ns, "ideal"))
    return {"schema": "ideal-members/1", "ring": ring_to_spec(ring),
            "generators": [ring.fmt(g) for g in ideal.gens],
            "members": [ring.fmt(x) for x in ideal.members()]}


def _h_poly_nagata(ns):
    ring = _ring_of(ns)
    nvars = _need(ns, "nvars")
    f = MultiPoly.parse(ring, nvars, _need(ns, "poly"))
    phi = MultiPoly.parse(ring, nvars, ns.phi) if ns.phi else None
    sub, c, h = nagata_transform(f, phi)
    return {"schema": "nagata/1", "ring": ring_to_spec(ring),
            "phi": sub.phi.fmt(), "exponents": list(sub.exponents),
            "c": ring.fmt(c), "h": h.fmt()}


def _h_mat_pf(ns):
    ring = _ring_of(ns)
    m = _matrix_of(ns, ring)
    return {"schema": "pfaffian/1", "pfaffian": ring.fmt(pfaffian(m))}


def _h_mat_det(ns):
    ring = _ring_of(ns)
    m = _matrix_of(ns, ring)
    return {"schema": "determinant/1",
            "determinant": ring.fmt(determinant(m))}


def _h_word_eval(ns):
    ring = _ring_of(ns)
    obj = _json_arg(ns, "word")
    if isinstance(obj, dict) and "size" not in obj and ns.size is not None:
        obj = dict(obj, size=ns.size)
    if isinstance(obj, list):
        obj = {"size": _need(ns, "size"), "tokens": obj}
    word = word_from_obj(obj, ring)
    return {"schema": "word-eval/1",
            "matrix": matrix_to_obj(word_eval(word))}


def _cert_from_obj(ring, obj) -> EquivalenceCertificate:
    if not isinstance(obj, dict):
        raise MalformedSpec("certificate must be an object")
    t = _as_int(obj.get("t", 0), "certificate t")
    word = word_from_obj(obj.get("word", obj.get("epsilon")), ring)
    return EquivalenceCertificate(t, word)


def _h_witt_verify(ns):
    ring = _ring_of(ns)
    ideal = _ideal_of(ring, ns.ideal, required=True)
    alpha = make_witt_symbol(ideal, _matrix_of(ns, ring, "alpha"))
    beta = make_witt_symbol(ideal, _matrix_of(ns, ring, "beta"))
    cert = _cert_from_obj(ring, _json_arg(ns, "cert"))
    ok = verify_equivalence(alpha, beta, cert)
    return {"schema": "witt-verify/1", "verified": ok}


def _h_witt_product(ns):
    ring = _ring_of(ns)
    ideal = _ideal_of(ring, ns.ideal, required=True)
    x = make_witt_symbol(ideal, _matrix_of(ns, ring, "alpha"))
    y = make_witt_symbol(ideal, _matrix_of(ns, ring, "beta"))
    z = witt_product(x, y)
    return {"schema": "witt-product/1", "matrix": matrix_to_obj(z.rep),
            "witness": list(z.witness.signs)}


def _h_witt_lift(ns):
    ring = _ring_of(ns)
    ideal = _ideal_of(ring, ns.ideal, required=True)
    x = make_witt_symbol(ideal, _matrix_of(ns, ring, "alpha"))
    lifted = tilde_lift_alt(x)
    return {"schema": "witt-lift/1", "matrix": matrix_to_obj(lifted)}


def _h_witt_root(ns):
    ring = _ring_of(ns)
    gamma = _matrix_of(ns, ring)
    delta = unipotent_root(gamma, _need(ns, "m"))
    return {"schema": "witt-root/1", "m": ns.m,
            "matrix": matrix_to_obj(delta)}


def _h_um_complete(ns):
    ring = _ring_of(ns)
    ideal = _ideal_of(ring, ns.ideal)
    row = _row_of(ns, ring, ideal)
    if ideal is None:
        found = complete(row)
        coords = None if found is None else [ring.fmt(x) for x in found]
    else:
        found = complete_relative(row)
        coords = None if found is None else [ring.fmt(x) for x in found.entries]
    return {"schema": "um-complete/1", "completion": coords}


def _h_um_theta(ns):
    ring = _ring_of(ns)
    _, a = vector_from_obj(_json_arg(ns, "a"), ring)
    _, b = vector_from_obj(_json_arg(ns, "b"), ring)
    m = theta_matrix(ring, a, b)
    return {"schema": "um-theta/1", "matrix": matrix_to_obj(m),
            "pfaffian": ring.fmt(pfaffian(m))}


def _h_um_symbol(ns):
    ring = _ring_of(ns)
    ideal = _ideal_of(ring, ns.ideal, required=True)
    row = _row_of(ns, ring, ideal)
    sym = vaserstein_symbol(row)
    return {"schema": "um-symbol/1", "matrix": matrix_to_obj(sym.rep),
            "witness": list(sym.witness.signs),
            "pfaffian": ring.fmt(pfaffian(sym.rep))}


def _h_um_vdk(ns):
    ring = _ring_of(ns)
    ideal = _ideal_of(ring, ns.ideal)
    u = _row_of(ns, ring, ideal, "u")
    v = _row_of(ns, ring, ideal, "v")
    prod = vdk_product_aligned(u, v)
    return {"schema": "um-vdk/1",
            "row": [ring.fmt(x) for x in prod.entries]}


def _h_um_lift(ns):
    ring = _ring_of(ns)
    ideal = _ideal_of(ring, ns.ideal, required=True)
    row = _row_of(ns, ring, ideal)
    lifted = tilde_row_lift(row)
    return {"schema": "um-lift/1", "ring": ring_to_spec(lifted.ring),
            "row": [lifted.ring.fmt(x) for x in lifted.entries]}


def _partition_obj(part):
    return dict(part.to_obj(), schema="orbit-partition/2", ring=ring_to_spec(part.ring))


def _h_orbit_um(ns):
    ring = _ring_of(ns)
    ideal = _ideal_of(ring, ns.ideal)
    return _partition_obj(um_orbit_partition(ring, _need(ns, "n"), ideal))


def _h_orbit_alt(ns):
    ring = _ring_of(ns)
    ideal = _ideal_of(ring, ns.ideal)
    return _partition_obj(alt_orbit_partition(ring, ideal, _need(ns, "size")))


def _h_report_vaserstein(ns):
    ring = _ring_of(ns)
    ideal = _ideal_of(ring, ns.ideal)
    report = vaserstein_report(ring, ideal, levels=ns.stab, depth=ns.conj_depth)
    obj = report.to_obj()
    obj["schema"] = "bijectivity-report/1"
    return obj


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

_S, _I = {"type": str}, {"type": int}

# (group, command, handler, flags) in --help order; a row without a group
# is a top-level alias.  Every command also takes --config and --seed.
_COMMANDS = (
    ("ring", "eval", _h_ring_eval,
     dict(ring=_S, op=_S, args={"type": str, "nargs": "*"}, exp=_I)),
    ("ideal", "members", _h_ideal_members, dict(ring=_S, ideal=_S)),
    ("poly", "nagata", _h_poly_nagata,
     dict(ring=_S, nvars=_I, poly=_S, phi=_S)),
    ("mat", "pf", _h_mat_pf, dict(ring=_S, matrix=_S)),
    ("mat", "det", _h_mat_det, dict(ring=_S, matrix=_S)),
    ("word", "eval", _h_word_eval, dict(ring=_S, size=_I, word=_S)),
    ("witt", "verify", _h_witt_verify,
     dict(ring=_S, ideal=_S, alpha=_S, beta=_S, cert=_S)),
    ("witt", "product", _h_witt_product,
     dict(ring=_S, ideal=_S, alpha=_S, beta=_S)),
    ("witt", "lift", _h_witt_lift, dict(ring=_S, ideal=_S, alpha=_S)),
    ("witt", "root", _h_witt_root, dict(ring=_S, matrix=_S, m=_I)),
    ("um", "complete", _h_um_complete, dict(ring=_S, ideal=_S, row=_S)),
    ("um", "theta", _h_um_theta, dict(ring=_S, a=_S, b=_S)),
    ("um", "symbol", _h_um_symbol, dict(ring=_S, ideal=_S, row=_S)),
    ("um", "vdk", _h_um_vdk, dict(ring=_S, ideal=_S, u=_S, v=_S)),
    ("um", "lift", _h_um_lift, dict(ring=_S, ideal=_S, row=_S)),
    ("orbit", "um", _h_orbit_um, dict(ring=_S, ideal=_S, n=_I)),
    ("orbit", "alt", _h_orbit_alt, dict(ring=_S, ideal=_S, size=_I)),
    ("report", "vaserstein", _h_report_vaserstein,
     dict(ring=_S, ideal=_S, stab=dict(_I, default=1),
          conj_depth=dict(_I, default=2))),
    (None, "pf", _h_mat_pf, dict(ring=_S, matrix=_S)),
)


@functools.cache
def _build_parser() -> _Parser:
    """The parser of _COMMANDS, built on first use and then shared:
    parse_args leaves it unchanged and returns a fresh namespace."""
    top = _Parser(prog="symwitt", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True, metavar="GROUP")
    subs = {None: groups}
    for group, name, handler, flags in _COMMANDS:
        if group not in subs:
            subs[group] = groups.add_parser(group).add_subparsers(
                dest="command", required=True)
        p = subs[group].add_parser(name)
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--seed", type=int, help="recorded in the output")
        for flag, spec in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", dest=flag, **spec)
        p.set_defaults(handler=handler, command=name)
    return top


def _config_flags(path) -> list:
    """The entries of a --config file as command-line flags; a list
    value gives its flag several values."""
    try:
        with open(path) as fh:
            conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read config {path}: {e}")
    if not isinstance(conf, dict):
        raise UsageError("config file must hold a JSON object")
    flags = []
    for key, val in conf.items():
        flag = "--" + key.replace("_", "-")
        flags += [flag, *map(str, val)] if isinstance(val, list) else [f"{flag}={val}"]
    return flags


_JSON_STR = re.compile(r'"(?:[^"\\]|\\.)*"')


def _colorize(line: str) -> str:
    """ANSI-tint JSON keys (cyan) and string values (green)."""
    out, last = [], 0
    for m in _JSON_STR.finditer(line):
        out.append(line[last:m.start()])
        code = "36" if line[m.end():m.end() + 1] == ":" else "32"
        out.append(f"\x1b[{code}m{m.group(0)}\x1b[0m")
        last = m.end()
    out.append(line[last:])
    return "".join(out)


def _want_color() -> bool:
    # the only environment knob: everything else comes from flags/config
    return os.environ.get("OUTPUT_COLOR", "").lower() in (
        "1", "true", "yes", "always")


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.config is not None:
            argv = sys.argv[1:] if argv is None else list(argv)
            # the file's flags go right after the command words (one for a
            # top-level alias), so argparse converts and checks them, and
            # explicit flags, parsed later, still win
            head = 1 if ns.group == ns.command else 2
            ns = parser.parse_args(argv[:head] + _config_flags(ns.config)
                                   + argv[head:])
        payload = ns.handler(ns)
        if getattr(ns, "seed", None) is not None:
            payload["seed"] = ns.seed
        text = canonical_json(payload) + "\n"
        sys.stdout.write(_colorize(text) if _want_color() else text)
        return 0
    except UsageError as e:
        sys.stderr.write(f"{parser.prog}: error: {e}\n")
        return 64
    except ArtifactError as e:
        err = {"error": type(e).__name__, "message": str(e)}
        sys.stderr.write(canonical_json(err) + "\n")
        return 1
    except Exception as e:  # internal failure, still structured
        err = {"error": "InternalError", "message": f"{type(e).__name__}: {e}"}
        sys.stderr.write(canonical_json(err) + "\n")
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
