"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ballcover
from ballcover.bodies import make_body, save_body
from ballcover.cli import main
from ballcover.perturbation import build_cover, rotation_grid
from ballcover.reports import cover_certificate, dump_json, parse_rat, verify_certificate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(path):
    # Golden bytes of an exact-only output (no floats, so the same on every
    # platform).  A change that alters the bytes on purpose updates the hash.
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_optimized(*argv):
    # python -O strips asserts; a usage error must not depend on them.
    env = dict(os.environ, PYTHONPATH=str(Path(ballcover.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-O", "-m", "ballcover.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_ball_class_headlines(capsys, tmp_path):
    cert = tmp_path / "class3.json"
    code, out, _ = run(capsys, "ball-class", "--dim", "3", "--out", str(cert))
    assert code == 0
    assert out.splitlines() == [
        "dimension: 3",
        "classification: critically-semi-eutactic",
        "conclusion: ball inextensible; relatively worst covering candidate",
    ]
    assert json.loads(cert.read_text())["classification"] == "critically-semi-eutactic"
    assert sha256(cert) == "644180d33e700bfcddd0405dddd7e795ed1f3299c29d4c032c247e851453acea"
    code, out, _ = run(capsys, "verify", "--certificate", str(cert))
    assert code == 0
    assert out.strip() == "verified"
    code, out, _ = run(capsys, "ball-class", "--dim", "4")
    assert code == 0
    assert "classification: redundantly-semi-eutactic" in out
    assert "conclusion: ball extensible; not relatively worst covering" in out
    golden = {
        2: "3812c508899224e0b491093cc07f582f1fff2b7842501cea4f1ec06a713bc941",
        4: "90d0fd67424bcb4cce635a72bce43ed4c84c48f69da90434d09a2f1a9f913e53",
        5: "bfe96221df9bd280cf18c0519d84813eede986f6c9cdc1ef73bea021171ea344",
    }
    for dim, digest in golden.items():
        cert = tmp_path / f"class{dim}.json"
        code, _, _ = run(capsys, "ball-class", "--dim", str(dim), "--out", str(cert))
        assert code == 0
        assert sha256(cert) == digest
        code, out, _ = run(capsys, "verify", "--certificate", str(cert))
        assert code == 0
        assert out.strip() == "verified"


def test_dim_out_of_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ball-class", "--dim", "7"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_anstar_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "lat.json"
    code, out, _ = run(capsys, "anstar", "--dim", "3", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == out
    assert sha256(out_file) == "3879c14d583773ee22f6a5802c4f4dba05d212ebeb32b55365cfdecb929038ad"
    data = json.loads(out)
    assert data["kind"] == "lattice-report"
    assert parse_rat(data["mu2"]) == parse_rat("5/4")
    code, out, _ = run(capsys, "verify", "--certificate", str(out_file))
    assert code == 0
    assert out.strip() == "verified"


def test_construct_verify_and_determinism(capsys, tmp_path):
    body_file = tmp_path / "body.json"
    save_body(make_body([(4, 0, 0.01)]), str(body_file))
    cert = tmp_path / "scan.json"
    code, out1, _ = run(
        capsys, "construct", "--body", str(body_file), "--grid", "24", "--out", str(cert)
    )
    assert code == 0
    code, out2, _ = run(capsys, "construct", "--body", str(body_file), "--grid", "24")
    assert code == 0
    assert out1 == out2
    code, out, _ = run(capsys, "verify", "--certificate", str(cert))
    assert code == 0
    data = json.loads(out1)
    assert data["kind"] == "scan-report"
    assert data["margin"] > 0


def test_construct_rejects_bad_bodies(capsys, tmp_path):
    huge = tmp_path / "huge.json"
    save_body(make_body([(4, 0, 0.5)]), str(huge))
    code, _, err = run(capsys, "construct", "--body", str(huge), "--grid", "4")
    assert code == 2
    assert "asphericity" in err
    malformed = tmp_path / "bad.json"
    malformed.write_text('{"oops": 1}')
    code, _, err = run(capsys, "construct", "--body", str(malformed), "--grid", "4")
    assert code == 2
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "construct", "--body", str(missing), "--grid", "4")
    assert code == 2
    duplicate = tmp_path / "duplicate.json"
    duplicate.write_text('{"harmonics": [[4, 0, 0.005], [4, 0, 0.001]]}')
    code, _, err = run(capsys, "construct", "--body", str(duplicate), "--grid", "4")
    assert code == 2
    assert "duplicate harmonic index" in err
    bad_order = tmp_path / "bad_order.json"
    bad_order.write_text('{"harmonics": [[4, 5, 0.005]]}')
    code, _, err = run(capsys, "construct", "--body", str(bad_order), "--grid", "4")
    assert code == 2
    assert "bad harmonic index" in err
    proc = run_optimized("construct", "--body", str(duplicate), "--grid", "4")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""


def test_witness_roundtrip_and_redundant_branch(capsys, tmp_path):
    cert = tmp_path / "wit.json"
    code, out, _ = run(
        capsys, "witness", "--dim", "3", "--pair", "1", "--eps", "1/100",
        "--out", str(cert),
    )
    assert code == 0
    assert sha256(cert) == "c921d0fc3d3cbceea46956b9108393917360d844f890f6491a8b01370dd62922"
    data = json.loads(out)
    assert data["kind"] == "extension-witness"
    assert parse_rat(data["det_t"]) > 1
    code, out, _ = run(capsys, "verify", "--certificate", str(cert))
    assert code == 0
    code, _, err = run(capsys, "witness", "--dim", "4", "--pair", "0")
    assert code == 1
    assert "redundancy" in err
    code, _, err = run(capsys, "witness", "--dim", "3", "--pair", "9")
    assert code == 2
    for eps in ("0", "-1/100"):
        with pytest.raises(SystemExit) as exc:
            main(["witness", "--dim", "3", "--pair", "0", f"--eps={eps}"])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err
    proc = run_optimized("witness", "--dim", "3", "--pair", "0", "--eps", "0")
    assert proc.returncode == 2, proc.stderr
    assert "must be positive" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cl_certify_csv(capsys, tmp_path):
    cert = tmp_path / "cl.csv"
    code, out, _ = run(capsys, "cl-certify", "--lmax", "220", "--out", str(cert))
    assert code == 0
    assert sha256(cert) == "c7d4adbb7da81c4757f04e683cfd0924a3ecd228d443345900330576cd740e17"
    lines = out.strip().split("\n")
    assert lines[0] == "l,c_l,residue_mod16,status"
    assert len(lines) == 222
    assert lines[1].startswith("0,12,")
    assert lines[3].split(",")[3] == "zero"
    assert lines[221].split(",")[1] == ""
    assert lines[221].split(",")[3] == "nonzero-mod16"
    code, out, _ = run(capsys, "verify", "--certificate", str(cert))
    assert code == 0


def test_zonal_roundtrip(capsys, tmp_path):
    cert = tmp_path / "zonal.json"
    code, out, _ = run(capsys, "zonal", "--lmax", "8", "--out", str(cert))
    assert code == 0
    assert sha256(cert) == "f98fd9daa0a0c518b7dac4627465e106ecfa58f25ef2d7c8e049a9a89f58eb00"
    data = json.loads(out)
    assert parse_rat(data["multipliers"][4]) == parse_rat("7/25")
    assert parse_rat(data["multipliers"][2]) == 0
    code, out, _ = run(capsys, "verify", "--certificate", str(cert))
    assert code == 0


def test_verify_detects_tampering(capsys, tmp_path):
    cert = tmp_path / "wit.json"
    code, out, _ = run(
        capsys, "witness", "--dim", "3", "--pair", "0", "--out", str(cert)
    )
    assert code == 0
    data = json.loads(cert.read_text())
    for eps in ("0", "-1/100"):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(dict(data, eps=eps)))
        code, _, err = run(capsys, "verify", "--certificate", str(flat))
        assert code == 1
        assert err == "verification failure: eps must be positive\n"
    data["det_t"] = "2"
    cert.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--certificate", str(cert))
    assert code == 1
    assert "disagrees" in err


def test_verify_derives_the_conclusion(capsys, tmp_path):
    certs = {}
    for dim in (3, 4):
        certs[dim] = tmp_path / f"class{dim}.json"
        code, _, _ = run(capsys, "ball-class", "--dim", str(dim), "--out", str(certs[dim]))
        assert code == 0
    swapped = json.loads(certs[4].read_text())
    swapped["conclusion"] = json.loads(certs[3].read_text())["conclusion"]
    relabelled = dict(json.loads(certs[3].read_text()), dimension=4)
    for data, message in (
        (swapped, "conclusion does not match the classification rule"),
        (relabelled, "dimension does not match the gram matrix"),
    ):
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--certificate", str(tampered))
        assert code == 1
        assert out == ""
        assert err == f"verification failure: {message}\n"


def test_verify_usage_errors(capsys, tmp_path):
    code, _, _ = run(capsys, "verify", "--certificate", str(tmp_path / "none.json"))
    assert code == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json at all")
    code, _, _ = run(capsys, "verify", "--certificate", str(garbled))
    assert code == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"kind": "mystery"}')
    code, _, err = run(capsys, "verify", "--certificate", str(unknown))
    assert code == 1
    assert "unknown certificate kind" in err
    for name, row in (("degree", "x,1,1,zero"), ("residue", "0,12,y,nonzero-exact")):
        table = tmp_path / f"{name}.csv"
        table.write_text(f"l,c_l,residue_mod16,status\n{row}\n")
        code, out, err = run(capsys, "verify", "--certificate", str(table))
        assert code == 1
        assert out == ""
        assert "row 0: malformed field" in err


def test_verify_ties_radial_values_to_the_body():
    body = make_body([(4, 0, 0.02 / 3)])
    cert = json.loads(dump_json(cover_certificate(body, build_cover(body, rotation_grid(8)[5]))))
    assert verify_certificate(cert) == (True, [])
    forged = json.loads(json.dumps(cert))
    for k in forged["checks"]:
        k["radial_value"] = 5.0
        k["rhs"] = "125/4"  # mu2 * 5^2, so the membership sides still match
    ok, bad = verify_certificate(forged)
    assert not ok
    assert len(bad) == len(cert["checks"])
    assert all("radial value does not match the body" in m for m in bad)
    loose = json.loads(json.dumps(cert))
    loose["float_tolerance"] = 10.0
    ok, bad = verify_certificate(loose)
    assert not ok
    assert bad == ["float tolerance must be 1e-12"]
