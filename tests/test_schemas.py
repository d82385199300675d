"""Every CLI payload validates against its versioned schema file.

The ring, ideal, element and matrix definitions live once, in the report
schema; every other file refers to them by URL, so its validator needs
all the files registered under their `$id`."""

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from symwitt.cli import main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
HOME = "bijectivity-report"
# each file's title is "<name>/<version>", the `schema` its payloads carry
FILES = {p.name: json.loads(p.read_text()) for p in SCHEMA_DIR.glob("*.json")}
SCHEMAS = {s["title"].split("/")[0]: s for s in FILES.values()}
REGISTRY = Registry().with_resources(
    (s["$id"], Resource.from_contents(s)) for s in SCHEMAS.values())

CASES = [
    ("ring-eval", ["ring", "eval", "--ring", "zmod:9", "--op", "inv",
                   "--args", "4", "--seed", "3"]),
    ("ring-eval", ["ring", "eval", "--ring", "f4", "--args", "x+1"]),
    ("ideal-members", ["ideal", "members", "--ring", "zmod:8", "--ideal", "2"]),
    ("nagata", ["poly", "nagata", "--ring", "f3", "--nvars", "2",
                "--poly", "X2", "--phi", "X1^2+X1+1"]),
    ("pfaffian", ["pf", "--ring", "zmod:5", "--matrix", "[[0,1],[-1,0]]"]),
    ("determinant", ["mat", "det", "--ring", "z", "--matrix", "[[1,2],[3,4]]"]),
    ("word-eval", ["word", "eval", "--ring", "z", "--size", "2",
                   "--word", '[{"op":"elem","i":1,"j":2,"a":"1"}]']),
    ("witt-verify", ["witt", "verify", "--ring", "zmod:3", "--ideal", "unit",
                     "--alpha", "[[0,1],[-1,0]]", "--beta", "[[0,1],[-1,0]]",
                     "--cert", '{"t":0,"word":{"size":4,"tokens":[]}}']),
    ("witt-product", ["witt", "product", "--ring", "zmod:3", "--ideal", "unit",
                      "--alpha", "[[0,1],[-1,0]]", "--beta", "[[0,1],[-1,0]]"]),
    ("witt-lift", ["witt", "lift", "--ring", "zmod:8", "--ideal", "2",
                   "--alpha", "[[0,3],[-3,0]]"]),
    ("witt-root", ["witt", "root", "--ring", "zmod:9",
                   "--matrix", "[[1,3],[0,1]]", "--m", "2"]),
    ("um-complete", ["um", "complete", "--ring", "z", "--row", '["3","5","7"]']),
    ("um-complete", ["um", "complete", "--ring", "zmod:4",
                     "--row", '["2","2","2"]']),
    ("um-theta", ["um", "theta", "--ring", "zmod:5",
                  "--a", '["2","1","0"]', "--b", '["3","4","0"]']),
    ("um-symbol", ["um", "symbol", "--ring", "zmod:9", "--ideal", "3",
                   "--row", '["4","3","0"]']),
    ("um-vdk", ["um", "vdk", "--ring", "zmod:5",
                "--u", '["2","0","0"]', "--v", '["1","0","0"]']),
    ("um-lift", ["um", "lift", "--ring", "zmod:8", "--ideal", "2",
                 "--row", '["3","2","2"]']),
    ("orbit-partition", ["orbit", "um", "--ring", "f2", "--n", "3"]),
    ("orbit-partition", ["orbit", "alt", "--ring", "f2", "--size", "2"]),
    ("orbit-partition", ["orbit", "um", "--ring", "zmod:4", "--ideal", "2",
                         "--n", "2"]),
    ("orbit-partition", ["orbit", "um", "--ring", "f3", "--n", "2"]),
    ("orbit-partition", ["orbit", "um", "--ring", "f3", "--n", "1"]),
    ("orbit-partition", ["orbit", "alt", "--ring", "f3", "--size", "4"]),
    ("bijectivity-report", ["report", "vaserstein", "--ring", "f3"]),
    ("bijectivity-report", ["report", "vaserstein", "--ring", "zmod:4",
                            "--ideal", "2", "--seed", "11"]),
    # the 0x0 alternating matrix, the empty orthogonal sum
    ("witt-root", ["witt", "root", "--ring", "q", "--matrix", "[]", "--m", "2"]),
    ("witt-product", ["witt", "product", "--ring", "zmod:3", "--ideal", "unit",
                      "--alpha", "[]", "--beta", "[]"]),
    ("witt-lift", ["witt", "lift", "--ring", "zmod:4", "--ideal", "2",
                   "--alpha", "[]"]),
]


def _payload(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def _refs(node):
    if isinstance(node, dict):
        if "$ref" in node:
            yield node["$ref"]
        for v in node.values():
            yield from _refs(v)
    elif isinstance(node, list):
        for v in node:
            yield from _refs(v)


@pytest.mark.parametrize("name", sorted({n for n, _ in CASES}))
def test_schema_files_are_valid_schemas(name):
    Draft202012Validator.check_schema(SCHEMAS[name])


def test_every_emitted_schema_key_is_documented():
    emitted = {n for n, _ in CASES}
    assert emitted <= set(SCHEMAS)
    # one file per name, at the version its title names
    assert len(FILES) == len(SCHEMAS) == 17
    for file, schema in FILES.items():
        name, version = schema["title"].split("/")
        assert file == f"{name}.v{version}.json"


@pytest.mark.parametrize("name,argv", CASES,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(CASES)])
def test_payload_validates(name, argv, capsys):
    payload = _payload(argv, capsys)
    assert payload["schema"] == SCHEMAS[name]["title"]
    Draft202012Validator(SCHEMAS[name], registry=REGISTRY).validate(payload)


def test_report_schema_stands_alone(capsys):
    # read with no registry, as a consumer holding only this file would;
    # every reference stays inside the file, so none is fetched
    assert all(ref.startswith("#/") for ref in _refs(SCHEMAS[HOME]))
    payload = _payload(["report", "vaserstein", "--ring", "zmod:8", "--ideal", "4",
                        "--conj-depth", "1"], capsys)
    Draft202012Validator(SCHEMAS[HOME]).validate(payload)


def test_shared_definitions_live_in_one_file():
    assert [n for n, s in SCHEMAS.items() if "$defs" in s] == [HOME]
    assert set(SCHEMAS[HOME]["$defs"]) == {"element", "ideal", "matrix", "ring"}


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_ref_resolves(name):
    schema = SCHEMAS[name]
    resolver = REGISTRY.resolver(base_uri=schema["$id"])
    for ref in _refs(schema):
        resolver.lookup(ref)
