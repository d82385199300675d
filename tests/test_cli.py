"""Command line surface: payload shapes, exit codes, config merging."""

import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from symwitt import cli
from symwitt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_pf_alias_exact_bytes(capsys):
    code, out, err = run(capsys, "pf", "--ring", "zmod:5",
                         "--matrix", "[[0,1],[-1,0]]")
    assert code == 0
    assert out == '{"pfaffian":"1","schema":"pfaffian/1"}\n'
    assert err == ""


def test_mat_pf_and_det_agree_with_alias(capsys):
    alias = run_json(capsys, "pf", "--ring", "zmod:7",
                     "--matrix", "[[0,3],[-3,0]]")
    sub = run_json(capsys, "mat", "pf", "--ring", "zmod:7",
                   "--matrix", "[[0,3],[-3,0]]")
    assert alias["pfaffian"] == sub["pfaffian"] == "3"
    det = run_json(capsys, "mat", "det", "--ring", "zmod:7",
                   "--matrix", "[[0,3],[-3,0]]")
    assert det == {"schema": "determinant/1", "determinant": "2"}


def test_ring_eval_ops(capsys):
    add = run_json(capsys, "ring", "eval", "--ring", "zmod:3",
                   "--op", "add", "--args", "2", "2")
    assert add["result"] == "1"
    assert add["schema"] == "ring-eval/1"
    assert add["args"] == ["2", "2"]
    inv = run_json(capsys, "ring", "eval", "--ring", "zmod:9",
                   "--op", "inv", "--args", "4")
    assert inv["result"] == "7"
    pw = run_json(capsys, "ring", "eval", "--ring", "q",
                  "--op", "pow", "--args", "3/2", "--exp", "3")
    assert pw["result"] == "27/8"
    parsed = run_json(capsys, "ring", "eval", "--ring",
                      '{"kind":"poly","base":{"kind":"zmod","n":5},"var":"t"}',
                      "--args", "3*t^2+1")
    assert parsed["result"] == "3*t^2+1"


def test_ring_eval_pow_uses_square_and_multiply(capsys):
    inv = run_json(capsys, "ring", "eval", "--ring", "zmod:7",
                   "--op", "pow", "--args", "3", "--exp", "-1")
    assert inv["result"] == "5"
    # 3^(10^11) mod 7: 3 has order 6 and 10^11 = 4 mod 6
    big = run_json(capsys, "ring", "eval", "--ring", "zmod:7",
                   "--op", "pow", "--args", "3", "--exp", "100000000000")
    assert big["result"] == "4"
    code, out, err = run(capsys, "ring", "eval", "--ring", "zmod:8",
                         "--op", "pow", "--args", "2", "--exp", "-3")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "NotAUnit"


def test_ring_eval_bad_op_is_usage_error(capsys):
    code, out, err = run(capsys, "ring", "eval", "--ring", "z",
                         "--op", "frobnicate", "--args", "1")
    assert code == 64
    assert out == ""
    assert "frobnicate" in err


def test_ideal_members(capsys):
    obj = run_json(capsys, "ideal", "members", "--ring", "zmod:8",
                   "--ideal", "2")
    assert obj["schema"] == "ideal-members/1"
    assert obj["generators"] == ["2"]
    assert obj["members"] == ["0", "2", "4", "6"]


def test_ideal_members_json_generator_list(capsys):
    obj = run_json(capsys, "ideal", "members", "--ring", "zmod:12",
                   "--ideal", '["4","6"]')
    assert obj["members"] == ["0", "2", "4", "6", "8", "10"]


def test_poly_nagata(capsys):
    obj = run_json(capsys, "poly", "nagata", "--ring", "f3",
                   "--nvars", "2", "--poly", "X2")
    assert obj["schema"] == "nagata/1"
    assert obj["c"] == "1"
    assert obj["exponents"] == [2]
    assert obj["h"] == "X1^2+X2"


def test_word_eval_with_size_flag(capsys):
    tokens = '[{"op":"elem","i":1,"j":2,"a":"1"}]'
    obj = run_json(capsys, "word", "eval", "--ring", "z",
                   "--size", "2", "--word", tokens)
    assert obj["schema"] == "word-eval/1"
    assert obj["matrix"]["entries"] == [["1", "1"], ["0", "1"]]
    assert obj["matrix"]["rows"] == 2


def test_witt_verify_identity_cert(capsys):
    chi2 = "[[0,1,0,0],[-1,0,0,0],[0,0,0,1],[0,0,-1,0]]"
    cert = '{"t":0,"word":{"size":8,"tokens":[]}}'
    obj = run_json(capsys, "witt", "verify", "--ring", "zmod:3",
                   "--ideal", "unit", "--alpha", chi2, "--beta", chi2,
                   "--cert", cert)
    assert obj == {"schema": "witt-verify/1", "verified": True}


def test_witt_product_and_root(capsys):
    chi1 = "[[0,1],[-1,0]]"
    obj = run_json(capsys, "witt", "product", "--ring", "zmod:3",
                   "--ideal", "unit", "--alpha", chi1, "--beta", chi1)
    assert obj["matrix"]["entries"] == [["0", "1", "0", "0"],
                                        ["2", "0", "0", "0"],
                                        ["0", "0", "0", "1"],
                                        ["0", "0", "2", "0"]]
    assert obj["witness"] == [1, 1]
    root = run_json(capsys, "witt", "root", "--ring", "zmod:9",
                    "--matrix", "[[1,3],[0,1]]", "--m", "2")
    assert root["m"] == 2
    assert root["matrix"]["entries"] == [["1", "6"], ["0", "1"]]


def test_witt_lift_emits_pair_entries(capsys):
    obj = run_json(capsys, "witt", "lift", "--ring", "zmod:8",
                   "--ideal", "2", "--alpha", "[[0,3],[-3,0]]")
    assert obj["schema"] == "witt-lift/1"
    assert obj["matrix"]["entries"][0][1] == "(1|2)"
    assert obj["matrix"]["ring"]["kind"] == "excision"


def test_um_complete_absolute_and_relative(capsys):
    free = run_json(capsys, "um", "complete", "--ring", "z",
                    "--row", '["3","5","7"]')
    b = [int(x) for x in free["completion"]]
    assert 3 * b[0] + 5 * b[1] + 7 * b[2] == 1
    rel = run_json(capsys, "um", "complete", "--ring", "zmod:9",
                   "--ideal", "3", "--row", '["4","3","0"]')
    assert rel["completion"] == ["7", "0", "0"]
    none = run_json(capsys, "um", "complete", "--ring", "zmod:4",
                    "--row", '["2","2","2"]')
    assert none["completion"] is None


def test_um_theta_symbol_vdk_lift(capsys):
    th = run_json(capsys, "um", "theta", "--ring", "zmod:5",
                  "--a", '["2","1","0"]', "--b", '["3","4","0"]')
    assert th["pfaffian"] == "0"
    sym = run_json(capsys, "um", "symbol", "--ring", "zmod:9",
                   "--ideal", "3", "--row", '["4","3","0"]')
    assert sym["pfaffian"] == "1"
    assert sym["witness"] == [-1, -1]
    vdk = run_json(capsys, "um", "vdk", "--ring", "zmod:5",
                   "--u", '["2","0","0"]', "--v", '["1","0","0"]')
    assert vdk["row"] == ["2", "0", "0"]
    lift = run_json(capsys, "um", "lift", "--ring", "zmod:8",
                    "--ideal", "2", "--row", '["3","2","2"]')
    assert lift["row"] == ["(1|2)", "(0|2)", "(0|2)"]


def test_orbit_um_partition(capsys):
    obj = run_json(capsys, "orbit", "um", "--ring", "f2", "--n", "3")
    assert obj["schema"] == "orbit-partition/2"
    assert obj["objects"] == 7
    assert obj["count"] == 1
    assert obj["saturated"] is True
    assert obj["orbits"][0]["size"] == 7


def test_orbit_alt_partition(capsys):
    obj = run_json(capsys, "orbit", "alt", "--ring", "f2", "--size", "2")
    assert obj["action"] == "congruence"
    assert obj["count"] == 1
    assert obj["orbits"][0]["rep"] == [["0", "1"], ["1", "0"]]


def test_orbit_alt_relative_universe(capsys):
    # 4 form cosets x 2^6 candidates, not 16^6 matrices
    obj = run_json(capsys, "orbit", "alt", "--ring", "zmod:16", "--ideal", "8",
                   "--size", "4")
    assert obj["objects"] == 64
    assert sum(o["size"] for o in obj["orbits"]) == 64


@pytest.mark.parametrize("argv, digest", [
    ("report vaserstein --ring zmod:8 --ideal 4 --conj-depth 1",
     "9eb83d31b1c2e1946f42505840b9714c1c0b31b25ec1ba42f82bae3cac90af89"),
    ("report vaserstein --ring zmod:4 --ideal 2",
     "a9899eb56e3ad126144032bfb5e1d644f4c6846406a384c91717fc8ab11ac6ca"),
    ("orbit alt --ring zmod:8 --ideal 4 --size 4",
     "b83224b89a7f43d873b94d2c1f21d94077c7f2f3421f4ae5d7cb928598f7cbf2"),
    ("orbit alt --ring zmod:4 --ideal 2 --size 4",
     "a0591abf449f1b678b557fa96a7a7bf82a2c01220afaae131d2ae4f281298330"),
    # the z_ij(x, a) generators (n >= 3) and the n = 2 conjugation closure
    ("orbit um --ring zmod:9 --ideal 3 --n 3",
     "01abaf9be8d7a8363d0ccb6274d7feaf61d3d43f9e6af1448e13ec7d1a7f512b"),
    ("orbit um --ring zmod:4 --ideal 2 --n 2",
     "972ece568f0433f9130f3225fe576c88ae8b89e221e21d2d0cc6b8352b39b169"),
    # absolute: the whole universe under the bare transvections
    ("report vaserstein --ring f3",
     "c1dd18a2f154913cdc32cbe2ab3820cfd3ac2313e426cce9cd6bd867835447d4"),
    ("report vaserstein --ring f4",
     "60703ab7ceb8cf4087ebca8ecabd2868d297e2ba2a2e1c83132c88ac060b4d09"),
    ("report vaserstein --ring f5",
     "a8127da2c5a135d7f5e750a07adb74ea849ee0a7429f974bbe1ebacfd6c83734"),
    ("report vaserstein --ring zmod:4",
     "217c1cf4043df19bd6db634e159c89c76d9a631b7b0f113a0ba69321fecd0c5d"),
    ("orbit alt --ring f5 --size 4",
     "05483ea10f6ea65ece2ae82adc0904acce1aea9c820dfdaeecf6109917acb14c"),
    ("orbit um --ring f4 --n 3",
     "4d12a2940423d509fdcc07edc5ffeb817abe4c3c42626816ce5b20b8aec47029"),
    # the polynomial grammar: X1..Xd terms over Z/3, Z/9 and f4, with phi
    ('poly nagata --ring zmod:3 --nvars 2 --poly 2*X1^2*X2+X2^2+X1+1',
     "5160c1f1bc6de67bf101eb9eb3f4a4bbc8c28d01fd5709566b9b3ac4f089f0c7"),
    ('poly nagata --ring zmod:3 --nvars 2 --poly X1^2*X2+X1*X2+1 --phi X1^2+X1+1',
     "30c0655963cf36e96cd7dc5f31a42fd50e3c509b0f8463e03b8a4c1126179b05"),
    ('poly nagata --ring zmod:9 --nvars 3 --poly 3*X1*X2+X2*X3^2-X3+4',
     "222fc8f1a848618efed1f17c7e1742278e41ab8b9ad40760bc56b757d65afd24"),
    ('poly nagata --ring f4 --nvars 2 --poly (x)*X2^2+(x+1)*X1*X2+X1+1',
     "2c79b854464609c2abfbc9faa397b73c7a68ca406242f05802ecba1d6e001f28"),
    ('poly nagata --ring f4 --nvars 2 --poly X2+(x)*X1 --phi X1^2+(x)*X1+(x+1)',
     "deeab981a3b3add9c9aad0cca2f6024b882185bd952b1fc7d5d5c7c45385fa3f"),
    # univariate, laurent, rees and extended rees payloads
    ('ring eval --ring {"kind":"poly","base":"zmod:9","var":"X"} --op mul --args 3*X+1 X^2-2*X+4',
     "d4a2ac200ff2959486db898354de1e2aaf0e0706467460c5b5c7729c5564bf0c"),
    ('ring eval --ring {"kind":"poly","base":"zmod:9","var":"X"} --op inv --args 3*X+1',
     "b678b31b7960dd3f976d4840ece7294f107a3ce5258f0d5d08a3c002897980d4"),
    ('ring eval --ring {"kind":"poly","base":"f4","var":"X"} --op sub --args (x)*X^2+X X^2+(x+1)',
     "00406cef70efe69ddc24604ca9af9be47dcca69b1ede97ad128a87fc96f339ba"),
    ('ring eval --ring {"kind":"laurent","base":"f4","var":"t"} --op mul --args (x)*t^-1+1 t^2+(x+1)',
     "9d77a95af8de5153b28f7a2df06e7e85630dae1603903c75f78b28afd8a74009"),
    ('ring eval --ring {"kind":"laurent","base":"zmod:9","var":"t"} --op inv --args 3*t^2+t^-1',
     "3aced5f97b171075e0ed246a0d5164a94cdc0130827a42412de86d0827af3a9f"),
    ('ring eval --ring {"kind":"laurent","base":"zmod:4","var":"t"} --op add --args 2*t^-2+t 2*t^-2-t+3',
     "084170856da436e24aeaa52de4805e453b7b64b7fee58c305fd3b119c5a0f4f5"),
    ('ring eval --ring {"kind":"rees","ideal":{"ring":"zmod:8","generators":["2"]},"var":"t"} --op mul --args 2*t+1 2*t+3',
     "906cf22a35f6c25272d693fe8c7c04b8f8867e81d82b4d5bf1034723da88faf6"),
    ('ring eval --ring {"kind":"rees","ideal":{"ring":"zmod:9","generators":["3"]}} --op inv --args 3*t+2',
     "a760f05fa87037914756a37f36c937b6ee782b8bf4aabc59c61716a88a35b9a1"),
    ('ring eval --ring {"kind":"extended_rees","ideal":{"ring":"zmod:9","generators":["3"]}} --op pow --args 3*t+t^-1 --exp 3',
     "5bbbeac4d4f5ae86d74b905192cc0fc9c07e042823c3abda62ac86117dc05875"),
    ('ring eval --ring {"kind":"extended_rees","ideal":{"ring":"zmod:8","generators":["2"]}} --op add --args 2*t+t^-1 6*t+4*t^2',
     "cad272e1a9b78e3881ccecec9e5300441d9046b485d4ba5e439a91e7df83ce9a"),
])
def test_canonical_stdout_digests(capsys, argv, digest):
    code, out, err = run(capsys, *argv.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_report_past_old_span_cap_answers(capsys):
    # the level-1 translation span of Z/9 (3) holds 3^14 vectors of 15
    # entries; membership is decided by an echelon table, never a list
    code, out, err = run(capsys, "report", "vaserstein", "--ring", "zmod:9",
                         "--ideal", "3")
    assert code == 0, err
    payload = json.loads(out)
    schema = (Path(__file__).resolve().parent.parent / "docs" / "schemas"
              / "bijectivity-report.v1.json")
    Draft202012Validator(json.loads(schema.read_text())).validate(payload)
    assert payload["witt"]["level0_count"] == 2
    assert payload["witt"]["merges"] == [{"t": 1, "merged": [], "saturated": True}]


def test_report_relative_past_cap_fails_fast(capsys):
    code, out, err = run(capsys, "report", "vaserstein", "--ring", "zmod:256",
                         "--ideal", "16")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "BoundExceeded"
    assert "4 form cosets x 16^6 matrices" in payload["message"]


def test_unit_ideal_decided_by_membership(capsys):
    # (2, 3) is the unit ideal of Z/6 though neither generator is a unit
    spelled = run(capsys, "orbit", "um", "--ring", "zmod:6", "--ideal", "2,3", "--n", "2")
    unit = run(capsys, "orbit", "um", "--ring", "zmod:6", "--ideal", "unit", "--n", "2")
    assert spelled == unit and spelled[0] == 0
    assert json.loads(unit[1])["relative"] is False


def test_report_vaserstein_confirmed(capsys):
    code, out, err = run(capsys, "report", "vaserstein", "--ring", "f3")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "bijectivity-report/1"
    assert obj["verdict"] == "confirmed-within-bounds"
    assert obj["counterexample"] is None


def test_artifact_error_exit_one(capsys):
    code, out, err = run(capsys, "mat", "pf", "--ring", "z",
                         "--matrix", "[[0,1],[1,0]]")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "NotAlternating"
    assert payload["message"]


def test_not_a_unit_error_surfaces_by_name(capsys):
    code, out, err = run(capsys, "ring", "eval", "--ring", "zmod:8",
                         "--op", "inv", "--args", "2")
    assert code == 1
    assert json.loads(err)["error"] == "NotAUnit"


def test_missing_required_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "mat", "pf", "--ring", "z")
    assert code == 64
    assert "matrix" in err


def test_unknown_flag_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pf", "--ring", "z", "--wat", "1"])
    assert exc.value.code == 64


def test_bad_ring_descriptor_is_artifact_error(capsys):
    code, out, err = run(capsys, "pf", "--ring", "f6",
                         "--matrix", "[[0,1],[-1,0]]")
    assert code == 1
    assert json.loads(err)["error"] == "MalformedSpec"


def test_config_fills_unset_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ring": "zmod:5",
                               "matrix": "[[0,1],[-1,0]]"}))
    code, out, err = run(capsys, "pf", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["pfaffian"] == "1"


def test_explicit_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ring": "zmod:5",
                               "matrix": "[[0,1],[-1,0]]"}))
    obj = run_json(capsys, "pf", "--config", str(cfg),
                   "--matrix", "[[0,2],[-2,0]]")
    assert obj["pfaffian"] == "2"


def test_config_must_be_json_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1,2]")
    code, out, err = run(capsys, "pf", "--config", str(cfg),
                         "--ring", "z", "--matrix", "[[0,1],[-1,0]]")
    assert code == 64


def test_config_reaches_flags_with_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stab": 0}))
    argv = ("report", "vaserstein", "--ring", "f2", "--config", str(cfg))
    assert run_json(capsys, *argv)["levels"] == 0
    assert run_json(capsys, *argv, "--stab", "2")["levels"] == 2


def test_config_values_are_converted_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stab": "0"}))
    assert run(capsys, "report", "vaserstein", "--ring", "f2",
               "--config", str(cfg)) == run(capsys, "report", "vaserstein",
                                            "--ring", "f2", "--stab", "0")
    cfg.write_text(json.dumps({"n": "2"}))
    obj = run_json(capsys, "orbit", "um", "--ring", "f3", "--config", str(cfg))
    assert (obj["n"], obj["objects"], obj["count"]) == (2, 8, 1)
    cfg.write_text(json.dumps({"n": "two"}))
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "um", "--ring", "f3", "--config", str(cfg)])
    assert exc.value.code == 64


def test_config_refuses_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ring": "zmod:5", "bogus": 1}))
    with pytest.raises(SystemExit) as exc:
        main(["pf", "--config", str(cfg), "--matrix", "[[0,1],[-1,0]]"])
    assert exc.value.code == 64
    assert "--bogus" in capsys.readouterr().err


def test_seed_recorded_in_payload(capsys):
    obj = run_json(capsys, "pf", "--ring", "zmod:5",
                   "--matrix", "[[0,1],[-1,0]]", "--seed", "7")
    assert obj["seed"] == 7


def test_reruns_are_byte_identical(capsys):
    argv = ["report", "vaserstein", "--ring", "zmod:4", "--ideal", "2",
            "--seed", "11"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_output_color_env_knob(capsys, monkeypatch):
    monkeypatch.setenv("OUTPUT_COLOR", "always")
    code, out, err = run(capsys, "pf", "--ring", "zmod:5",
                         "--matrix", "[[0,1],[-1,0]]")
    assert code == 0
    assert "\x1b[" in out
    plain = out.replace("\x1b[36m", "").replace("\x1b[32m", "")
    plain = plain.replace("\x1b[0m", "")
    assert plain == '{"pfaffian":"1","schema":"pfaffian/1"}\n'
    monkeypatch.setenv("OUTPUT_COLOR", "never")
    _, out2, _ = run(capsys, "pf", "--ring", "zmod:5",
                     "--matrix", "[[0,1],[-1,0]]")
    assert "\x1b[" not in out2


def test_output_is_canonical_json(capsys):
    code, out, err = run(capsys, "ideal", "members", "--ring", "zmod:4",
                         "--ideal", "2")
    assert code == 0
    obj = json.loads(out)
    assert out == json.dumps(obj, sort_keys=True,
                             separators=(",", ":")) + "\n"


# Large rings must be refused or answered without enumerating them: each
# command runs in a child capped at 512 MB of address space.
SRC = Path(__file__).resolve().parent.parent / "src"
AS_LIMIT = 512 << 20


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))


def run_capped(*argv, timeout=10):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    launch = "import sys; from symwitt.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", launch, *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, preexec_fn=_cap_address_space)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("ring, args, result", [
    ('{"kind":"product","factors":["zmod:30000001","zmod:3"]}',
     ("(1|1)", "(2|1)"), "(3|2)"),
    ('{"kind":"quotient","base":"z","moduli":["20000003"]}',
     ("20000002", "5"), "4"),
], ids=["product", "quotient"])
def test_large_ring_eval_enumerates_nothing(ring, args, result):
    code, out, err = run_capped("ring", "eval", "--ring", ring, "--op", "add",
                                "--args", *args)
    assert code == 0, err
    assert json.loads(out)["result"] == result


@pytest.mark.parametrize("argv", [
    ("report", "vaserstein", "--ring", "zmod:50000017"),
    ("ideal", "members", "--ring", "zmod:50000017", "--ideal", "7"),
    # 211^3 rows: the tail search is refused before it starts
    ("um", "vdk", "--ring", "zmod:211", "--u", '["2","1","0"]', "--v", '["1","0","1"]'),
    # 72^6 symbol candidates are refused before any of the 72^3 rows is completed
    ("report", "vaserstein", "--ring", "zmod:72"),
    # 3000 * 3000 congruent pairs are refused before any pair is drawn
    ("ideal", "members", "--ring",
     '{"kind":"double","ideal":{"ring":"zmod:3000","generators":["1"]}}',
     "--ideal", "(1|1)"),
], ids=["report", "members", "vdk", "report-z72", "members-double"])
def test_large_ring_enumeration_fails_fast(argv):
    code, out, err = run_capped(*argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "BoundExceeded"


@pytest.mark.parametrize("argv", [
    ("um", "complete", "--ring", "zmod:16384", "--row", '["2","4","6"]'),
    ("um", "symbol", "--ring", "zmod:65536", "--ideal", "2", "--row", '["3","4","6"]'),
], ids=["complete-z16384", "symbol-z65536-2"])
def test_completion_search_fails_fast(argv):
    # no entry is a unit, so the completion search would try every partial
    # sum against every ring (or ideal) element at each entry
    code, out, err = run_capped(*argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "BoundExceeded"


@pytest.mark.parametrize("argv", [
    ("--ring", "zmod:6", "--ideal", "3", "--stab", "2"),
    ("--ring", "zmod:12", "--ideal", "4"),
], ids=["z6-3-stab2", "z12-4"])
def test_report_levels_apart_mod_ideal_answer(argv):
    # the two level-0 classes differ mod I, which every element of E_n(R, I)
    # fixes, so no level searches; both used to be refused at the search cap
    code, out, err = run_capped("report", "vaserstein", *argv, timeout=30)
    assert code == 0, err
    witt = json.loads(out)["witt"]
    assert witt["level0_count"] == witt["count"] == 2 and witt["saturated"]
    assert witt["merges"] == [{"t": t, "merged": [], "saturated": True}
                              for t in range(1, witt["levels"] + 1)]


@pytest.mark.parametrize("argv", [
    ("--ring", "zmod:9", "--ideal", "3"),
    ("--ring", "zmod:25", "--ideal", "5"),
    ("--ring", "zmod:8", "--ideal", "4", "--stab", "2"),
], ids=["z9-3", "z25-5", "z8-4-stab2"])
def test_report_translation_levels_answer(argv):
    # the two level-0 classes lie in distinct cosets mod I, which no
    # stabilization level merges, so no level searches; their level spans
    # once were far past the memory cap as lists
    code, out, err = run_capped("report", "vaserstein", *argv, timeout=30)
    assert code == 0, err
    witt = json.loads(out)["witt"]
    assert witt["level0_count"] == witt["count"] == 2 and witt["saturated"]
    assert witt["merges"] == [{"t": t, "merged": [], "saturated": True}
                              for t in range(1, witt["levels"] + 1)]


def test_large_ideal_members_listed_by_linear_span():
    code, out, err = run_capped("ideal", "members", "--ring", "zmod:200000",
                                "--ideal", "2")
    assert code == 0, err
    members = json.loads(out)["members"]
    assert len(members) == 100000
    assert members[:3] == ["0", "2", "4"] and members[-1] == "199998"


def test_laurent_inverse_over_z6(capsys):
    obj = run_json(capsys, "ring", "eval", "--ring",
                   '{"kind":"laurent","base":"zmod:6","var":"t"}',
                   "--op", "inv", "--args", "2+3*t")
    assert obj["result"] == "2+3*t^-1"
    code, out, err = run(capsys, "ring", "eval", "--ring",
                         '{"kind":"laurent","base":"zmod:6","var":"t"}',
                         "--op", "inv", "--args", "2+2*t")
    assert code == 1 and json.loads(err)["error"] == "NotAUnit"


# One parser serves every call in a process: nothing a call parses or reads
# from its config may reach the next call.
def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_config_values_do_not_carry_over(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ring": "zmod:5",
                               "matrix": "[[0,1],[-1,0]]"}))
    assert run(capsys, "pf", "--config", str(cfg))[0] == 0
    code, out, err = run(capsys, "pf")
    assert code == 64 and out == ""
    assert "missing --ring" in err


def test_defaults_do_not_carry_over(capsys):
    argv = ("report", "vaserstein", "--ring", "zmod:4", "--ideal", "2")
    assert run_json(capsys, *argv, "--conj-depth", "1")["depth"] == 1
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert '"depth":2' in out
    assert (code, out, err) == run_capped(*argv)


def test_conj_depth_is_checked_and_echoed(capsys):
    argv = ("report", "vaserstein", "--ring", "zmod:4", "--ideal", "2")
    code, out, err = run(capsys, *argv, "--conj-depth", "-1")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "MalformedSpec",
                               "message": "conjugation depth must be >= 0, got -1"}
    objs = [run_json(capsys, *argv, "--conj-depth", str(d)) for d in (0, 3)]
    assert [o.pop("depth") for o in objs] == [0, 3]
    assert [o["witt"].pop("depth") for o in objs] == [0, 3]
    assert objs[0] == objs[1]


ORBIT_UM = ("orbit", "um", "--ring", "zmod:4", "--ideal", "2", "--n", "2")
ORBIT_ALT = ("orbit", "alt", "--ring", "zmod:4", "--ideal", "2", "--size", "4")


@pytest.mark.parametrize("flag, argv", [
    pytest.param("conj_depth", ORBIT_UM, id="orbit um"),
    pytest.param("conj_depth", ORBIT_ALT, id="orbit alt"),
    pytest.param("bound", ORBIT_UM, id="orbit um --bound"),
    pytest.param("bound", ORBIT_ALT, id="orbit alt --bound"),
    pytest.param("bound", ("um", "vdk", "--ring", "zmod:5", "--u", '["2","1","0"]',
                           "--v", '["1","0","1"]'), id="um vdk --bound"),
    pytest.param("bound", ("report", "vaserstein", "--ring", "f2"),
                 id="report vaserstein --bound"),
])
def test_orbit_commands_take_no_conj_depth(tmp_path, capsys, flag, argv):
    # a partition's moves generate the group exactly, so no depth is
    # asked; every search is exhaustive or refused at the memory cap, so
    # no bound is asked either
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--" + flag.replace("_", "-"), "1"])
    assert exc.value.code == 64
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: 1}))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(cfg)])
    assert exc.value.code == 64
    assert {"conj_depth": "depth"}.get(flag, flag) not in run_json(capsys, *argv)


@pytest.mark.parametrize("argv", [[part for part in row[:2] if part]
                                  for row in cli._COMMANDS], ids="-".join)
def test_every_command_has_help(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: symwitt {' '.join(argv)} [-h]")
    assert "--config CONFIG" in out and "--seed SEED" in out


def test_orbit_um_length_one_is_the_trivial_group(capsys):
    # no transvection acts on rows of length 1: each row is its own orbit
    obj = run_json(capsys, "orbit", "um", "--ring", "f3", "--n", "1")
    assert obj["generators"] == 0 and obj["saturated"]
    assert obj["orbits"] == [{"rep": ["1"], "saturated": True, "size": 1},
                             {"rep": ["2"], "saturated": True, "size": 1}]
    code, out, err = run(capsys, "orbit", "um", "--ring", "zmod:4", "--ideal", "2",
                         "--n", "1")
    assert code == 0
    assert out == ('{"action":"row","count":2,"fast_path":"translation",'
                   '"generators":0,"kind":"um","n":1,"objects":2,"orbits":'
                   '[{"rep":["1"],"saturated":true,"size":1},'
                   '{"rep":["3"],"saturated":true,"size":1}],"relative":true,'
                   '"ring":{"kind":"zmod","n":4},"saturated":true,'
                   '"schema":"orbit-partition/2"}\n')


@pytest.mark.parametrize("op, args, result", [
    ("add", ["--args", "1/2", "1/3"], "5/6"),
    ("mul", ["--args", "2/3", "3/4"], "1/2"),
    ("inv", ["--args=-3/7"], "-7/3"),
    ("pow", ["--args", "2/3", "--exp", "-2"], "9/4"),
])
def test_ring_eval_over_q(capsys, op, args, result):
    obj = run_json(capsys, "ring", "eval", "--ring", "q", "--op", op, *args)
    assert obj["ring"] == {"kind": "rationals"} and obj["result"] == result


@pytest.mark.parametrize("args, result", [
    (["-2/3", "3/4"], "-1/2"),
    (["-2/3", "-3/4"], "1/2"),
    (["2/3", "-3/4"], "-1/2"),
])
def test_flag_values_may_start_with_a_dash(capsys, args, result):
    obj = run_json(capsys, "ring", "eval", "--ring", "q", "--op", "mul",
                   "--args", *args)
    assert obj["args"] == args and obj["result"] == result


def test_poly_value_may_start_with_a_dash(capsys):
    spaced = run(capsys, "poly", "nagata", "--ring", "zmod:3", "--nvars", "2",
                 "--poly", "-X1+X2")
    joined = run(capsys, "poly", "nagata", "--ring", "zmod:3", "--nvars", "2",
                 "--poly=-X1+X2")
    assert spaced == joined and spaced[0] == 0


def test_short_help_still_asks_for_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ring", "eval", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: symwitt ring eval [-h]")


_ALT = ["--alpha", "[[0,1],[-1,0]]", "--beta", "[[0,1],[-1,0]]"]
_CERT = ["witt", "verify", "--ring", "zmod:3", "--ideal", "unit", *_ALT, "--cert"]
_TOKEN = '{"op":"elem","i":1,"j":2,"a":"1"}'


@pytest.mark.parametrize("argv", [
    ["witt", "product", "--ring", "zmod:3", "--ideal", "[4", *_ALT],
    [*_CERT, '{"t":"x","word":{"size":4,"tokens":[]}}'],
    [*_CERT, '{"t":[1],"word":{"size":4,"tokens":[]}}'],
    ["ring", "eval", "--ring", '{"kind":"product","factors":5}', "--args", "1"],
    ["ring", "eval", "--ring", '{"kind":"quotient","base":"z","moduli":5}',
     "--args", "1"],
    ["ring", "eval", "--ring", '{"kind":"poly","base":"z","var":5}', "--args", "1"],
    ["ring", "eval", "--ring",
     '{"kind":"double","ideal":{"ring":"zmod:4","generators":5}}', "--args", "1"],
    ["word", "eval", "--ring", "z", "--size", "2", "--word", '{"tokens":5}'],
    ["word", "eval", "--ring", "z", "--size", "2", "--word",
     f'[{{"op":"conj","conjugator":5,"core":{_TOKEN}}}]'],
    ["um", "complete", "--ring", "z", "--row", '{"coords":5}'],
    ["um", "theta", "--ring", "zmod:5", "--a", '{"coords":5}',
     "--b", '["3","4","0"]'],
    ["um", "vdk", "--ring", "zmod:5", "--u", '{"coords":5}',
     "--v", '["1","0","0"]'],
], ids=["ideal-list", "cert-t-str", "cert-t-list", "factors", "moduli", "var",
        "generators", "tokens", "conjugator", "complete-coords", "theta-coords",
        "vdk-coords"])
def test_malformed_json_input_is_malformed_spec(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "MalformedSpec"


@pytest.mark.parametrize("argv, value", [
    [[*_CERT, '{"t":1.7,"word":{"size":4,"tokens":[]}}'], "1.7"],
    [["ring", "eval", "--ring", '{"kind":"zmod","n":5.9}', "--args", "1"], "5.9"],
    [["ring", "eval", "--ring", '{"kind":"zmod","n":true}', "--args", "1"], "True"],
    [["ring", "eval", "--ring", '{"kind":"field","q":4.5}', "--args", "1"], "4.5"],
    [["word", "eval", "--ring", "z", "--word", '{"size":2.5,"tokens":[]}'], "2.5"],
    [["word", "eval", "--ring", "z", "--size", "2", "--word",
      '[{"op":"elem","i":1.2,"j":2,"a":"1"}]'], "1.2"],
], ids=["cert-t", "zmod-n", "zmod-n-bool", "field-q", "word-size", "token-i"])
def test_json_integer_keys_refuse_other_numbers(capsys, argv, value):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "MalformedSpec"
    assert payload["message"].endswith(f"must be an integer, got {value}")


def test_product_ring_non_unit_names_the_whole_element(capsys):
    code, out, err = run(capsys, "ring", "eval", "--ring",
                         '{"kind":"product","factors":["zmod:4","zmod:3"]}',
                         "--op", "inv", "--args", "(2|1)")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "NotAUnit",
                               "message": "(2|1) is not a unit of Z/4 x Z/3"}


@pytest.mark.parametrize("token, verified", [
    ['{"op":"inv","token":{"op":"elem","i":1,"j":2,"a":"3"}}', True],
    ['{"op":"inv","token":{"op":"inv","token":{"op":"elem","i":4,"j":3,"a":"6"}}}', True],
    ['{"op":"inv","token":{"op":"elem","i":1,"j":2,"a":"1"}}', False],  # 1 is not in (3)
    ['{"op":"inv","token":{"op":"elem","i":1,"j":3,"a":"3"}}', False],  # moves chi_2
])
def test_witt_verify_reads_inv_tokens(capsys, token, verified):
    # e_12 and e_43 act on one 2x2 block with determinant 1, so they fix chi_2
    chi1 = "[[0,1],[-1,0]]"
    obj = run_json(capsys, "witt", "verify", "--ring", "zmod:9", "--ideal", "3",
                   "--alpha", chi1, "--beta", chi1,
                   "--cert", f'{{"t":0,"word":{{"size":4,"tokens":[{token}]}}}}')
    assert obj == {"schema": "witt-verify/1", "verified": verified}


def test_zero_ideal_descriptor(capsys):
    obj = run_json(capsys, "ideal", "members", "--ring", "zmod:8", "--ideal", "zero")
    assert obj["generators"] == obj["members"] == ["0"]
    code, out, err = run(capsys, "um", "complete", "--ring", "zmod:4",
                         "--ideal", "zero", "--row", '["1","2","0"]')
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "NotRelative"


@pytest.mark.parametrize("op, args, message", [
    ("neg", ["1", "2"], "neg takes one argument"),
    ("add", ["1"], "add takes two arguments"),
    ("pow", ["2"], "pow takes one argument and --exp"),
])
def test_ring_eval_arity_errors(capsys, op, args, message):
    code, out, err = run(capsys, "ring", "eval", "--ring", "zmod:5",
                         "--op", op, "--args", *args)
    assert (code, out) == (64, "")
    assert err == f"symwitt: error: {message}\n"


def test_certificate_must_be_an_object(capsys):
    code, out, err = run(capsys, *_CERT, "[]")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "MalformedSpec",
                               "message": "certificate must be an object"}


def test_unreadable_config(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "pf", "--config", str(missing),
                         "--ring", "z", "--matrix", "[[0,1],[-1,0]]")
    assert (code, out) == (64, "")
    assert err.startswith(f"symwitt: error: cannot read config {missing}: ")
