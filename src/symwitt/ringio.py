"""Serialization: ring specs, ideals, elements, matrices, and words as JSON.

Two spellings are accepted for rings on input: a tagged object such as
{"kind": "zmod", "n": 5}, or a compact string like "zmod:5", "int",
"f4".  Output always uses the tagged object form.  Elements travel as
grammar strings (see rings.fmt/parse), so every payload round-trips
exactly.
"""

from __future__ import annotations

import json
from typing import Union

from .errors import MalformedSpec
from .matrices import Conj, Elem, GroupWord, Inv, RingMatrix, Token
from .rings import (
    DoubleRing,
    ExcisionRing,
    ExtendedReesRing,
    Ideal,
    IntegerRing,
    LaurentRing,
    ModularRing,
    PolynomialRing,
    ProductRing,
    QuotientRing,
    RationalField,
    ReesRing,
    Ring,
)

# Irreducible monic moduli (ascending coefficients over the prime field)
# for the small non-prime finite fields reachable by compact "fN" names.
_FIELD_POLYS = {
    4: (2, (1, 1, 1)),
    8: (2, (1, 1, 0, 1)),
    9: (3, (1, 0, 1)),
    16: (2, (1, 1, 0, 0, 1)),
    25: (5, (1, 1, 1)),
    27: (3, (1, 2, 0, 1)),
    49: (7, (1, 0, 1)),
}


def canonical_json(obj) -> str:
    """Deterministic encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def element_in(ring: Ring, x):
    """Read an element from JSON: grammar string, integer, or raw payload."""
    if isinstance(x, str):
        return ring.parse(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return ring.scalar_int(x)
    return ring.check(x)


# ---------------------------------------------------------------------------
# ring specs
# ---------------------------------------------------------------------------

def ring_to_spec(ring: Ring) -> dict:
    k = ring.kind
    if k == "integers":
        return {"kind": "integers"}
    if k == "rationals":
        return {"kind": "rationals"}
    if k == "modular":
        return {"kind": "zmod", "n": ring.n}
    if k == "polynomial":
        return {"kind": "poly", "base": ring_to_spec(ring.base), "var": ring.var}
    if k == "laurent":
        return {"kind": "laurent", "base": ring_to_spec(ring.base), "var": ring.var}
    if k == "quotient":
        return {"kind": "quotient", "base": ring_to_spec(ring.base),
                "moduli": [ring.base.fmt(m) for m in ring.moduli]}
    if k == "product":
        return {"kind": "product", "factors": [ring_to_spec(f) for f in ring.factors]}
    if k == "excision":
        out = {"kind": "excision", "ideal": ideal_to_spec(ring.ideal)}
        if ring.base != ring.host:
            out["base"] = ring_to_spec(ring.base)
        return out
    if k == "double":
        return {"kind": "double", "ideal": ideal_to_spec(ring.ideal)}
    if k in ("rees", "extended_rees"):
        return {"kind": k, "ideal": ideal_to_spec(ring.ideal), "var": ring.var}
    raise MalformedSpec(f"cannot serialize ring kind {k!r}")


def _field(n: int) -> Ring:
    if n in _FIELD_POLYS:
        p, coeffs = _FIELD_POLYS[n]
        poly = PolynomialRing(ModularRing(p), "x")
        return QuotientRing(poly, (coeffs,))
    # fall back to a prime field; reject sizes we have no modulus for
    if n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1)):
        return ModularRing(n)
    raise MalformedSpec(f"no field of size {n} available")


def _ring_from_compact(text: str) -> Ring:
    s = text.strip()
    low = s.lower()
    if low in ("int", "integers", "z"):
        return IntegerRing()
    if low in ("q", "rationals"):
        return RationalField()
    if low.startswith("zmod:"):
        return ModularRing(_as_int(s[5:], "zmod modulus"))
    if low.startswith("f") and low[1:].isdigit():
        return _field(int(low[1:]))
    raise MalformedSpec(f"unknown ring descriptor {text!r}")


def _as_int(s, what: str) -> int:
    """An int that is not a bool, or a string of one: a JSON number such
    as 1.7, or true, is refused rather than truncated."""
    if isinstance(s, str):
        try:
            return int(s)
        except ValueError:
            pass
    elif isinstance(s, int) and not isinstance(s, bool):
        return s
    raise MalformedSpec(f"{what} must be an integer, got {s!r}")


_REQUIRED = object()


def _need(obj: dict, key: str, kind: str, typ: type = object, default=_REQUIRED):
    """obj[key], which must be a `typ`; a missing key gives `default`,
    and with no default it is an error."""
    if key not in obj:
        if default is _REQUIRED:
            raise MalformedSpec(f"{kind} spec is missing {key!r}")
        return default
    val = obj[key]
    if not isinstance(val, typ):
        raise MalformedSpec(f"{kind} {key!r} must be a {typ.__name__}, "
                            f"got {type(val).__name__}")
    return val


def ring_from_spec(obj: Union[str, dict]) -> Ring:
    if isinstance(obj, str):
        return _ring_from_compact(obj)
    if not isinstance(obj, dict):
        raise MalformedSpec(f"ring spec must be a string or object, got {type(obj).__name__}")
    kind = _need(obj, "kind", "ring")
    if kind in ("integers", "int"):
        return IntegerRing()
    if kind == "rationals":
        return RationalField()
    if kind == "zmod":
        return ModularRing(_as_int(_need(obj, "n", "zmod"), "zmod modulus"))
    if kind == "field":
        return _field(_as_int(_need(obj, "q", "field"), "field size"))
    if kind == "poly":
        base = ring_from_spec(_need(obj, "base", "poly"))
        return PolynomialRing(base, _need(obj, "var", "poly", str, "X"))
    if kind == "laurent":
        base = ring_from_spec(_need(obj, "base", "laurent"))
        return LaurentRing(base, _need(obj, "var", "laurent", str, "t"))
    if kind == "quotient":
        base = ring_from_spec(_need(obj, "base", "quotient"))
        moduli = tuple(element_in(base, m)
                       for m in _need(obj, "moduli", "quotient", list))
        return QuotientRing(base, moduli)
    if kind == "product":
        factors = tuple(ring_from_spec(f) for f in _need(obj, "factors", "product", list))
        return ProductRing(factors)
    if kind == "excision":
        ideal = ideal_from_spec(_need(obj, "ideal", "excision"))
        base = ring_from_spec(obj["base"]) if "base" in obj else ideal.ring
        return ExcisionRing(base, ideal)
    if kind == "double":
        ideal = ideal_from_spec(_need(obj, "ideal", "double"))
        return DoubleRing(ideal.ring, ideal)
    if kind == "rees":
        ideal = ideal_from_spec(_need(obj, "ideal", "rees"))
        return ReesRing(ideal.ring, ideal, _need(obj, "var", "rees", str, "t"))
    if kind == "extended_rees":
        ideal = ideal_from_spec(_need(obj, "ideal", "extended_rees"))
        return ExtendedReesRing(ideal.ring, ideal,
                                _need(obj, "var", "extended_rees", str, "t"))
    raise MalformedSpec(f"unknown ring kind {kind!r}")


def parse_ring(text: str) -> Ring:
    """Parse either a compact descriptor or a JSON ring spec."""
    s = text.strip()
    if s.startswith("{"):
        try:
            obj = json.loads(s)
        except json.JSONDecodeError as e:
            raise MalformedSpec(f"bad ring JSON: {e}") from None
        return ring_from_spec(obj)
    return _ring_from_compact(s)


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

def ideal_to_spec(ideal: Ideal) -> dict:
    return {"ring": ring_to_spec(ideal.ring),
            "generators": [ideal.ring.fmt(g) for g in ideal.gens]}


def ideal_from_spec(obj: dict, ring: Ring = None) -> Ideal:
    if not isinstance(obj, dict):
        raise MalformedSpec(f"ideal spec must be an object, got {type(obj).__name__}")
    if ring is None:
        ring = ring_from_spec(_need(obj, "ring", "ideal"))
    gens = _need(obj, "generators", "ideal", list)
    return Ideal(ring, tuple(element_in(ring, g) for g in gens))


# ---------------------------------------------------------------------------
# matrices and vectors
# ---------------------------------------------------------------------------

def _fmt_rows(ring: Ring, entries: tuple, rows: int) -> list:
    """Row-major entries as `rows` lists of grammar strings."""
    cols = len(entries) // rows if rows else 0
    return [[ring.fmt(x) for x in entries[i * cols:(i + 1) * cols]]
            for i in range(rows)]


def matrix_to_obj(m: RingMatrix) -> dict:
    return {"rows": m.rows, "entries": _fmt_rows(m.ring, m.entries, m.rows),
            "ring": ring_to_spec(m.ring)}


def matrix_from_obj(obj, ring: Ring = None) -> RingMatrix:
    """Accepts {"ring", "rows", "entries"} or a bare list of rows."""
    if isinstance(obj, list):
        entries = obj
    elif isinstance(obj, dict):
        if ring is None:
            ring = ring_from_spec(_need(obj, "ring", "matrix"))
        entries = _need(obj, "entries", "matrix", list)
        if "rows" in obj and obj["rows"] != len(entries):
            raise MalformedSpec("matrix row count disagrees with entries")
    else:
        raise MalformedSpec(f"matrix spec must be an object or list, got {type(obj).__name__}")
    if ring is None:
        raise MalformedSpec("matrix spec is missing 'ring'")
    if any(not isinstance(r, list) for r in entries):
        raise MalformedSpec("matrix entries must be a list of rows")
    return RingMatrix.from_rows(ring, [[element_in(ring, x) for x in row]
                                       for row in entries])


def vector_from_obj(obj, ring: Ring = None) -> tuple:
    """Accepts {"ring", "coords"} or a bare list of entries."""
    if isinstance(obj, list):
        coords = obj
    else:
        if not isinstance(obj, dict):
            raise MalformedSpec(
                f"vector spec must be an object or list, got {type(obj).__name__}")
        if ring is None:
            ring = ring_from_spec(_need(obj, "ring", "vector"))
        coords = _need(obj, "coords", "vector", list)
    if ring is None:
        raise MalformedSpec("bare vector needs an explicit ring")
    return ring, tuple(element_in(ring, c) for c in coords)


# ---------------------------------------------------------------------------
# group words
# ---------------------------------------------------------------------------

def _token_from_obj(ring: Ring, obj: dict) -> Token:
    if not isinstance(obj, dict):
        raise MalformedSpec(f"token must be an object, got {type(obj).__name__}")
    op = _need(obj, "op", "token")
    if op == "elem":
        i = _as_int(_need(obj, "i", "elem token"), "token index")
        j = _as_int(_need(obj, "j", "elem token"), "token index")
        return Elem(i, j, element_in(ring, _need(obj, "a", "elem token")))
    if op == "conj":
        conj = tuple(_token_from_obj(ring, e)
                     for e in _need(obj, "conjugator", "conj token", list))
        if any(not isinstance(e, Elem) for e in conj):
            raise MalformedSpec("conjugator entries must be elem tokens")
        core = _token_from_obj(ring, _need(obj, "core", "conj token"))
        if not isinstance(core, Elem):
            raise MalformedSpec("conj core must be an elem token")
        return Conj(conj, core)
    if op == "inv":
        return Inv(_token_from_obj(ring, _need(obj, "token", "inv token")))
    raise MalformedSpec(f"unknown token op {op!r}")


def word_from_obj(obj: dict, ring: Ring = None) -> GroupWord:
    if not isinstance(obj, dict):
        raise MalformedSpec(f"word spec must be an object, got {type(obj).__name__}")
    if ring is None:
        ring = ring_from_spec(_need(obj, "ring", "word"))
    size = _as_int(_need(obj, "size", "word"), "word size")
    toks = tuple(_token_from_obj(ring, t) for t in _need(obj, "tokens", "word", list))
    return GroupWord(ring, size, toks)
