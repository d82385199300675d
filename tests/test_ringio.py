"""Serialization: ring specs, ideals, matrices, words, canonical JSON."""

import json

import pytest

from conftest import Z, f4, ideal_of, zmod
from symwitt import (
    Conj,
    DoubleRing,
    Elem,
    ExcisionRing,
    ExtendedReesRing,
    GroupWord,
    Ideal,
    Inv,
    LaurentRing,
    MalformedSpec,
    PolynomialRing,
    ProductRing,
    QuotientRing,
    RationalField,
    ReesRing,
    RingMatrix,
    canonical_json,
    chi_n,
    ideal_from_spec,
    ideal_to_spec,
    matrix_from_obj,
    matrix_to_obj,
    parse_ring,
    ring_from_spec,
    ring_to_spec,
    vector_from_obj,
    word_from_obj,
)

M8 = zmod(8)


@pytest.mark.parametrize("ring", [
    Z,
    RationalField(),
    zmod(6),
    f4(),
    PolynomialRing(zmod(3), "T"),
    LaurentRing(Z, "u"),
    QuotientRing(Z, (10,)),
    ProductRing((zmod(2), zmod(5))),
    ExcisionRing(M8, Ideal(M8, (2,))),
    ExcisionRing(Z, Ideal(M8, (2,))),  # integer base over a foreign ideal
    DoubleRing(M8, Ideal(M8, (2,))),
    ReesRing(zmod(9), Ideal(zmod(9), (3,))),
    ExtendedReesRing(Z, Ideal(Z, (2,))),
])
def test_ring_spec_round_trip(ring):
    assert ring_from_spec(ring_to_spec(ring)) == ring


def test_compact_descriptors():
    assert parse_ring("zmod:5") == zmod(5)
    assert parse_ring("Z") == Z
    assert parse_ring("q") == parse_ring('{"kind": "rationals"}') == RationalField()
    assert parse_ring("f4") == f4()
    assert parse_ring("f5") == zmod(5)
    assert parse_ring('{"kind": "zmod", "n": 9}') == zmod(9)
    with pytest.raises(MalformedSpec):
        parse_ring("f6")
    with pytest.raises(MalformedSpec):
        parse_ring("nope")


def test_ideal_spec_round_trip():
    ideal = ideal_of(M8, 2)
    spec = ideal_to_spec(ideal)
    assert spec["generators"] == ["2"]
    assert ideal_from_spec(spec) == ideal
    assert ideal_from_spec({"generators": ["2"]}, M8) == ideal
    with pytest.raises(MalformedSpec):
        ideal_from_spec({"ring": "zmod:8"})


def test_matrix_round_trip():
    m = chi_n(M8, 2)
    obj = matrix_to_obj(m)
    assert obj["rows"] == 4
    back = matrix_from_obj(obj)
    assert back.ring == M8 and back.entries == m.entries
    bare = matrix_from_obj([[0, 1], [-1, 0]], Z)
    assert bare.entries == (0, 1, -1, 0)
    with pytest.raises(MalformedSpec):
        matrix_from_obj([[0, 1], [-1, 0]])
    with pytest.raises(MalformedSpec):
        matrix_from_obj({"ring": "zmod:8", "rows": 3, "entries": [[0]]})


def test_vector_from_obj():
    ring, coords = vector_from_obj({"coords": ["1", "2", "3"], "ring": "zmod:8"})
    assert ring == M8 and coords == (1, 2, 3)
    ring2, coords2 = vector_from_obj(["1", "5"], M8)
    assert coords2 == (1, 5)
    with pytest.raises(MalformedSpec):
        vector_from_obj(["1"])


def test_word_from_obj():
    w = GroupWord(M8, 4, (Elem(1, 2, 3),
                          Conj((Elem(2, 3, 1),), Elem(1, 4, 2)),
                          Inv(Elem(3, 4, 5))))
    obj = {"size": 4, "ring": "zmod:8", "tokens": [
        {"op": "elem", "i": 1, "j": 2, "a": "3"},
        {"op": "conj", "conjugator": [{"op": "elem", "i": 2, "j": 3, "a": "1"}],
         "core": {"op": "elem", "i": 1, "j": 4, "a": "2"}},
        {"op": "inv", "token": {"op": "elem", "i": 3, "j": 4, "a": "5"}}]}
    assert word_from_obj(obj) == w
    with pytest.raises(MalformedSpec):
        word_from_obj({"ring": "zmod:8", "size": 2,
                       "tokens": [{"op": "mystery"}]})


def test_canonical_json_is_stable():
    obj = {"b": 1, "a": [2, 3], "c": {"y": None, "x": "s"}}
    s = canonical_json(obj)
    assert s == '{"a":[2,3],"b":1,"c":{"x":"s","y":null}}'
    assert canonical_json(json.loads(s)) == s


def test_grammar_pairs_through_specs():
    exc = ExcisionRing(M8, Ideal(M8, (2,)))
    m = RingMatrix.from_rows(exc, [[(0, 0), (1, 2)], [(7, 6), (0, 0)]])
    back = matrix_from_obj(matrix_to_obj(m))
    assert back.entries == m.entries
    assert matrix_to_obj(m)["entries"][0][1] == "(1|2)"
