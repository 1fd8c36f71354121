"""JSON wire formats and the command-line front end."""

import io
import json
import subprocess
import sys

import numpy as np
import pytest

from filiform_ce import (
    AdaptedTransform,
    DomainError,
    InputFormatError,
    build_table,
    params_from_tuple,
    random_params,
    random_transform,
)
from filiform_ce import jsonio
from filiform_ce.cli import main


# ---------------------------------------------------------------------------
# wire formats


def test_complex_encoding():
    assert jsonio.dump_complex(1.5) == [1.5, 0.0]
    assert jsonio.dump_complex(2 - 3j) == [2.0, -3.0]
    assert jsonio.load_complex([2.0, -3.0], "x") == 2 - 3j
    assert jsonio.load_complex([4, 0], "x") == 4 + 0j


def test_complex_decoding_rejects_junk():
    # strictly [re, im]; bare numbers, booleans and ragged lists are refused
    for bad in (4, "1", [1], [1, 2, 3], [True, 0], None):
        with pytest.raises(InputFormatError):
            jsonio.load_complex(bad, "x")


def test_params_roundtrip():
    p = random_params(7, seed=12)
    q = jsonio.decode_params(json.loads(json.dumps(jsonio.encode_params(p))))
    assert q == p


def test_params_decode_strictness():
    obj = jsonio.encode_params(random_params(5, seed=1))
    missing = {k: v for k, v in obj.items() if k != "b01"}
    with pytest.raises(InputFormatError):
        jsonio.decode_params(missing)
    extra = dict(obj, unexpected=1)
    with pytest.raises(InputFormatError):
        jsonio.decode_params(extra)


def test_params_decode_domain_errors_pass_through():
    obj = jsonio.encode_params(random_params(5, seed=1))
    obj["n"] = 11
    with pytest.raises(DomainError):
        jsonio.decode_params(obj)


def test_tensor_roundtrip():
    t = build_table(random_params(6, seed=2))
    back = jsonio.decode_tensor(json.loads(json.dumps(jsonio.encode_tensor(t))))
    assert np.max(np.abs(back.gamma - t.gamma)) == 0.0


def test_tensor_decode_validates_shape():
    obj = jsonio.encode_tensor(build_table(random_params(4, seed=0)))
    obj["gamma"][0] = obj["gamma"][0][:-1]  # drop one row
    with pytest.raises(InputFormatError):
        jsonio.decode_tensor(obj)


def test_transform_roundtrip():
    t = random_transform(8, seed=3)
    back = jsonio.decode_transform(json.loads(json.dumps(jsonio.encode_transform(t))))
    assert back == t


def test_loads_reports_location():
    with pytest.raises(InputFormatError) as err:
        jsonio.loads("{not json", where="settings")
    assert "settings" in str(err.value)


# ---------------------------------------------------------------------------
# command line (in-process)


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_build_then_check(monkeypatch, capsys):
    code, out, _ = run_cli(["build", "--n", "7", "--seed", "3"], capsys=capsys)
    assert code == 0
    tensor_json = out
    code, out, _ = run_cli(
        ["check"], stdin_text=tensor_json, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["leibniz_residual"] <= 1e-9
    assert payload["filiform"] is True
    assert payload["series"] == [8, 6, 5, 4, 3, 2, 1, 0]


def test_cli_build_deterministic(capsys):
    code1, out1, _ = run_cli(["build", "--n", "5", "--seed", "11"], capsys=capsys)
    code2, out2, _ = run_cli(["build", "--n", "5", "--seed", "11"], capsys=capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_check_flags_invalid_table(monkeypatch, capsys):
    # a generic tensor violates the bracket identity: exit code 1, not an error
    g = np.random.default_rng(0).normal(size=(5, 5, 5))
    from filiform_ce import StructureTensor, leibniz_residual

    assert leibniz_residual(StructureTensor(g)) > 1.0  # sanity on the witness
    text = json.dumps(jsonio.encode_tensor(StructureTensor(g)))
    code, out, _ = run_cli(["check"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert json.loads(out)["leibniz_residual"] > 1.0


def test_cli_classify(monkeypatch, capsys):
    text = json.dumps(jsonio.encode_params(params_from_tuple(4, [0, 0, 0, 1])))
    code, out, _ = run_cli(["classify"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["subset"] == "U_8"
    assert payload["lambda"] is None
    rep = payload["representative"]
    assert rep["b_even"] == [[1.0, 0.0]]


def test_cli_classify_borderline_warning(monkeypatch, capsys):
    text = json.dumps(jsonio.encode_params(params_from_tuple(4, [1e-8, 0, 1, 1])))
    code, out, err = run_cli(["classify"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert "warning:" in err


def test_cli_act(monkeypatch, capsys):
    p = random_params(6, seed=4)
    t = random_transform(6, seed=5, b=p.b)
    text = json.dumps(
        {"params": jsonio.encode_params(p), "transform": jsonio.encode_transform(t)}
    )
    code, out, _ = run_cli(["act"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    from filiform_ce import act_on_params

    want = act_on_params(t, p)
    got = jsonio.decode_params(json.loads(out))
    assert max(abs(x - y) for x, y in zip(got.as_tuple(), want.as_tuple())) < 1e-12


def test_cli_act_overflow_exits_3(monkeypatch, capsys):
    # A0**(n-2) = 1e360 leaves float range: a domain error, not a traceback
    p = random_params(8, seed=1)
    t = AdaptedTransform(8, 1e60, 0, (1, 0, 0, 0, 0, 0))
    text = json.dumps(
        {"params": jsonio.encode_params(p), "transform": jsonio.encode_transform(t)}
    )
    code, out, err = run_cli(["act"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_cli_isomorphic(monkeypatch, capsys):
    p = random_params(5, "U_9", seed=6)
    q = random_params(5, "U_9", seed=7)
    text = json.dumps(
        {"first": jsonio.encode_params(p), "second": jsonio.encode_params(q)}
    )
    code, out, _ = run_cli(["isomorphic"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    assert payload["witness"]["n"] == 5


def test_cli_representatives(capsys):
    code, out, _ = run_cli(["representatives", "--n", "6"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 6
    assert len(payload["representatives"]) == 13
    assert sum(r["parametric"] for r in payload["representatives"]) == 2


def test_cli_derive_constraints(capsys):
    code, out, _ = run_cli(["derive-constraints", "--n", "8"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["free_count"] == 6
    assert payload["free_labels"] == ["b00", "b01", "b11", "b12", "b14", "b16"]
    targets = {r["target"] for r in payload["relations"]}
    assert "b25" in targets and "b34" in targets


def test_cli_exit_codes(monkeypatch, capsys):
    # malformed JSON -> 2
    code, _, err = run_cli(["classify"], stdin_text="{oops", monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and "error:" in err
    # missing --n -> 2
    code, _, err = run_cli(["representatives"], capsys=capsys)
    assert code == 2
    # well-formed but out-of-domain -> 3
    obj = jsonio.encode_params(random_params(5, seed=1))
    obj["n"] = 11
    code, _, err = run_cli(
        ["classify"], stdin_text=json.dumps(obj), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 3


def test_cli_classify_overflow_exits_3(monkeypatch, capsys):
    # lam is near 2e79, so the orbit function -1024*lam**5 overflows: a domain error
    p = random_params(8, "U_1", seed=3)
    huge = params_from_tuple(8, [v * 1e40 for v in p.as_tuple()])
    text = json.dumps(jsonio.encode_params(huge))
    code, out, err = run_cli(["classify"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_cli_classify_normal_form_out_of_range_exits_3(monkeypatch, capsys):
    # a finite member whose normal form holds lam near 1e400
    p = random_params(8, "U_1", seed=3)
    huge = params_from_tuple(8, [v * 1e200 for v in p.as_tuple()])
    text = json.dumps(jsonio.encode_params(huge))
    code, out, err = run_cli(["classify"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 3
    assert out == ""
    assert "normal form of cell U_1 at n=8 is beyond floating-point range" in err


def test_cli_classify_large_odd_member_exits_0(monkeypatch, capsys):
    # as s grows, the published n=5 U_1 function delta*b**2/(b01*b - 2*b11)**2
    # of s*p tends to delta/b01**2 of p, which is degree 0 in s; its direct
    # evaluation overflows at 1e120, the value from the normal form does not
    p = random_params(5, "U_1", seed=3)
    huge = params_from_tuple(5, [v * 1e120 for v in p.as_tuple()])
    text = json.dumps(jsonio.encode_params(huge))
    code, out, _ = run_cli(["classify"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    value = jsonio.load_complex(json.loads(out)["orbit_value"], "orbit_value")
    assert value == pytest.approx(p.delta / p.b01**2, rel=1e-12)


def test_cli_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["representatives", "--n", "4", "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(target.read_text())
    assert len(payload["representatives"]) == 9


def test_cli_table_format(capsys):
    code, out, _ = run_cli(["representatives", "--n", "4", "--format", "table"], capsys=capsys)
    assert code == 0
    assert "U_1" in out and "{" not in out


def test_cli_verify_paper_small(capsys):
    code, out, _ = run_cli(["verify-paper", "--trials", "1", "--format", "table"], capsys=capsys)
    assert code == 0
    assert "passed 32/32" in out


# ---------------------------------------------------------------------------
# command line (subprocess, end to end)


def test_cli_pipeline_subprocess():
    build = subprocess.run(
        [sys.executable, "-m", "filiform_ce.cli", "build", "--n", "4", "--seed", "2"],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0
    check = subprocess.run(
        [sys.executable, "-m", "filiform_ce.cli", "check"],
        input=build.stdout,
        capture_output=True,
        text=True,
    )
    assert check.returncode == 0
    assert json.loads(check.stdout)["filiform"] is True
