"""JSON wire formats and the command-line front end."""

import hashlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from filiform_ce import (
    AdaptedTransform,
    DomainError,
    InputFormatError,
    StructureTensor,
    adapted_matrix,
    build_table,
    change_basis,
    from_entries,
    leibniz_residual,
    params_from_tuple,
    random_params,
    random_transform,
)
from filiform_ce import family, jsonio
from filiform_ce.cli import main
from filiform_ce.subsets import SUBSETS


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


def _sparse_build_members():
    """Every cell at seeds 0-2, members scaled to the ends of float range, and
    members whose slots hold signed zeros and subnormals."""
    out = {
        f"{n} {spec.name} seed {seed}": random_params(n, spec.name, seed=seed)
        for n in SUBSETS
        for spec in SUBSETS[n]
        for seed in range(3)
    }
    for n in range(4, 9):
        values = random_params(n, seed=n).as_tuple()
        for scale in (1.0, -1e-300, 1e300, 2.0**-1070):
            out[f"{n} times {scale!r}"] = params_from_tuple(n, [v * scale for v in values])
        slots = len(values)
        for name, z in (("[-0.0, -0.0]", complex(-0.0, -0.0)), ("[0.0, -0.0]", complex(0.0, -0.0))):
            out[f"{n} all {name}"] = params_from_tuple(n, [z] * slots)
        odd = [complex(5e-324, -0.0), complex(-2.0**-1060, 2.0**-1074), complex(-0.0, -5e-324), 1.5]
        out[f"{n} subnormals"] = params_from_tuple(n, (odd * slots)[: slots - n % 2] + [complex(-0.0, 1e-310)] * (n % 2))
    return out


def _same_bits(a, b) -> bool:
    return np.array_equal(a, b) and all(
        np.array_equal(np.signbit(part(a)), np.signbit(part(b))) for part in (np.real, np.imag)
    )


def test_sparse_build_writes_the_dense_table_bit_for_bit():
    # ``build`` writes the table from the skeleton and the slot directions
    # without numpy; the bytes and every bit, signed zeros included, are the
    # dense table's
    for name, p in _sparse_build_members().items():
        sparse = family._sparse_table(p)
        dense = build_table(p)
        text = jsonio.dumps(jsonio._encode_sparse(p.n + 1, sparse))
        assert text == jsonio.dumps(jsonio.encode_tensor(dense)), name
        assert _same_bits(from_entries(p.n + 1, sparse).gamma, dense.gamma), name


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


def test_cli_build_refuses_a_negative_seed(capsys):
    # numpy's SeedSequence would abort with a ValueError traceback, exit 1
    code, out, err = run_cli(["build", "--n", "4", "--seed", "-1"], capsys=capsys)
    assert (code, out) == (3, "")
    assert err == "error: seed must be None or an int >= 0, got -1\n"


def test_cli_check_flags_invalid_table(monkeypatch, capsys):
    # a generic tensor violates the bracket identity: exit code 1, not an error
    g = np.random.default_rng(0).normal(size=(5, 5, 5))
    from filiform_ce import StructureTensor, leibniz_residual

    assert leibniz_residual(StructureTensor(g)) > 1.0  # sanity on the witness
    text = json.dumps(jsonio.encode_tensor(StructureTensor(g)))
    code, out, _ = run_cli(["check"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert json.loads(out)["leibniz_residual"] > 1.0


def _strict_json(text):
    """Parse ``text`` as JSON that holds no NaN or Infinity token."""

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def _check_inputs():
    """A valid table (largest entry 7.0) and a built one, each as it is and
    scaled: by 1e8, by the exact 2**30, and past where products of the
    entries overflow."""
    p = random_params(7, seed=1)
    moved = change_basis(build_table(p), adapted_matrix(random_transform(7, seed=2, b=p.b), p)).gamma
    built = build_table(random_params(5, seed=1)).gamma
    return {
        "moved": moved,
        "moved*1e8": moved * 1e8,
        "moved*2**30": moved * 2**30,
        "built*1e150": built * 1e150,
        "built*1e160": built * 1e160,
    }


@pytest.mark.parametrize("name", sorted(_check_inputs()))
def test_cli_check_verdict_holds_on_scaled_valid_tables(monkeypatch, capsys, name):
    # the verdict is taken on the table scaled by a power of two, so scaling
    # a valid table does not turn it invalid; the output is strict JSON and
    # nothing warns
    t = StructureTensor(_check_inputs()[name])
    text = json.dumps(jsonio.encode_tensor(t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["check"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
        residual = leibniz_residual(t)
    assert (code, err) == (0, "")
    payload = _strict_json(out)
    assert payload["leibniz_residual"] == residual and math.isfinite(residual)
    assert payload["filiform"] is True


def test_cli_check_overflowing_table_is_silent_under_warnings_as_errors(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(jsonio.encode_tensor(StructureTensor(_check_inputs()["built*1e160"]))))
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "filiform_ce.cli", "check", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert _strict_json(run.stdout)["leibniz_residual"] == 0.0


@pytest.mark.parametrize("scale", [1e-8, 1.0, 2.0**-40])
def test_cli_check_verdict_on_a_generic_tensor_does_not_move_under_scaling(monkeypatch, capsys, scale):
    g = np.random.default_rng(0).normal(size=(5, 5, 5)) * scale
    text = json.dumps(jsonio.encode_tensor(StructureTensor(g)))
    code, out, _ = run_cli(["check"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert _strict_json(out)["leibniz_residual"] > 0


def test_cli_check_residual_beyond_float_range_is_a_domain_error(monkeypatch, capsys):
    # the residual of a generic tensor at 1e300 is near 1e600: exit 3, and
    # no NaN or Infinity is printed
    g = np.random.default_rng(0).normal(size=(5, 5, 5)) * 1e300
    text = json.dumps(jsonio.encode_tensor(StructureTensor(g)))
    code, out, err = run_cli(["check"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 3
    assert out == "" and "float range" in err


def test_cli_reads_input_from_a_file(tmp_path, monkeypatch, capsys):
    # --input FILE gives what the same JSON on stdin gives
    text = json.dumps(jsonio.encode_params(random_params(6, seed=4)))
    path = tmp_path / "member.json"
    path.write_text(text)
    from_file = run_cli(["classify", "--input", str(path)], capsys=capsys)
    from_stdin = run_cli(["classify"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert from_file == from_stdin
    assert from_file[0] == 0 and json.loads(from_file[1])["subset"].startswith("U_")


def test_cli_unreadable_input_file_is_malformed_input(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):  # absent, and a directory
        code, out, err = run_cli(["classify", "--input", str(path)], capsys=capsys)
        assert (code, out) == (2, "")
        assert f"cannot read {path}" in err


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


def _assert_act_exits_3(p, t, monkeypatch, capsys):
    """``act`` on (p, t) fails with a one-line domain error, not a traceback."""
    text = json.dumps(
        {"params": jsonio.encode_params(p), "transform": jsonio.encode_transform(t)}
    )
    code, out, err = run_cli(["act"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_cli_act_overflow_exits_3(monkeypatch, capsys):
    # A0**(n-2) = 1e360 leaves float range
    t = AdaptedTransform(8, 1e60, 0, (1, 0, 0, 0, 0, 0))
    _assert_act_exits_3(random_params(8, seed=1), t, monkeypatch, capsys)


def test_cli_act_overflowing_shear_exits_3(monkeypatch, capsys):
    # |A0 + A1*b| leaves float range, though A0 = 1.5e308(1+1j) is finite
    t = AdaptedTransform(5, 1.5e308 + 1.5e308j, 0, (1, 0, 0))
    _assert_act_exits_3(random_params(5, seed=1), t, monkeypatch, capsys)


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


#: sha256 of the JSON each verb prints, recorded before the unknowns became
#: index pairs inside the solve: names are spelled only at the output edge
GOLDEN_SHA256 = {
    ("derive-constraints", 4): "b15aebb15042082a56b3c05114c53a649419459b1424e12cb5596056bb6bd1c9",
    ("derive-constraints", 5): "c18f681410c53c32163cc8831952a97cfa0d69b61d8eb4ca0706ac3099b59b55",
    ("derive-constraints", 6): "5fe39d8a71c7cf8b19fc1f8ed583861e5c985df092ddf1bfd83da6a6bb360ba6",
    ("derive-constraints", 7): "94340affd1b9cc9467da46f5de30b989d666f0b663e59900f6eec490cd4f41a4",
    ("derive-constraints", 8): "bfce2ab4f8cd6de640b2555acb115fe70cf3d643a819eb3c245176c8f1cb5234",
    ("derive-constraints", 9): "1e6e854fa0e7baf41519b5685bb34f862cf295fa3a9755cf5f11377e18cc0069",
    ("representatives", 4): "d8b4a28a8863330f61a99ba4521be1de5d32400556365eece8f133a3adf0b490",
    ("representatives", 5): "23a96633152e7e6b379aa331e412d04a93c4d3ab5b5bedc0a02b7cd5e5091a40",
    ("representatives", 6): "b68e417234470992786bbda925091e2911ce4eedcf58dd351414d2778a11b992",
    ("representatives", 7): "ca459a220147f82fb05df0a4ae566bc09441c84f4bbeb0c457b29c8feefb51d9",
    ("representatives", 8): "5b4a516fbc5e4193e6c79697a7232e83136a7197761f1a02814b245f2ce72839",
}


@pytest.mark.parametrize("verb, n", GOLDEN_SHA256)
def test_cli_output_is_golden(verb, n, capsys):
    code, out, _ = run_cli([verb, "--n", str(n)], capsys=capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[verb, n]


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


def test_cli_classify_underflow_exits_3(monkeypatch, capsys):
    # a power of the witness's A0 underflows to 0 in the action: a domain error
    text = json.dumps({
        "n": 4, "b00": [9.003517130628993e-223, 0], "b01": [-1.8265979065270994e-222, 0],
        "b11": [0, 0], "b_even": [[-1.5283117206772348e-256, 0]], "b": [0, 0],
    })
    code, out, err = run_cli(["classify"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 3
    assert out == ""
    assert "normal form of cell U_5 at n=4 is beyond floating-point range" in err


def test_cli_classify_delta_scale_underflow_warns(monkeypatch, capsys):
    # the lead slots square to below float range: a borderline warning, exit 0
    text = json.dumps({
        "n": 4, "b00": [1.4554425309821814e-162, 0], "b01": [-5.61460285904292e-163, 0],
        "b11": [-5.2479145329279364e-163, 0], "b_even": [[1.8691333659165825, 0]], "b": [0, 0],
    })
    code, out, err = run_cli(["classify"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert json.loads(out)["subset"] == "U_8"
    assert "borderline zero test (margin 0.00e+00)" in err


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
