"""End-to-end tests of the command-line interface."""

import ast
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ballcover
from ballcover.bodies import make_body
from ballcover.cli import main
from ballcover.linalg import det, identity, mat_add
from ballcover.lattice import build_anstar, covering_radius
from ballcover.perturbation import cover_record, scan_densities, scan_record
from ballcover.reports import dump_json, rat_str, scan_certificate, verify_certificate
from ballcover.search import build_cover, rotation_scan

from oracles import save_body


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(path):
    # Golden bytes of an exact-only output (no floats, so the same on every
    # platform).  A change that alters the bytes on purpose updates the hash.
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_closed_pipe(*argv):
    # stdout is a pipe whose reader is gone before the command starts
    env = dict(os.environ, PYTHONPATH=str(Path(ballcover.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "ballcover.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)


def refit_densities(data, det_ratio):
    # Recompute a scan's derived floats from its volume bound and det_ratio,
    # as the emitter does.
    lat = build_anstar(3)
    mu2, _ = covering_radius(lat)
    derived = scan_densities(mu2, det(lat.gram), Fraction(data["volume_bound"]), det_ratio)
    for key, value in zip(("ball_density", "best_density", "margin", "delta_k_bound"), derived):
        data[key] = value


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
        4: "0fa3f7dd40c21ba2dfc647f5566e47490142f1cc23f3eda83cff1d196839cb60",
        5: "48e8b82e7f0b8dc1047a586e4ea28b6076a281c6773fae105df34ee764d0ae15",
    }
    for dim, digest in golden.items():
        cert = tmp_path / f"class{dim}.json"
        code, _, _ = run(capsys, "ball-class", "--dim", str(dim), "--out", str(cert))
        assert code == 0
        assert sha256(cert) == digest
        code, out, _ = run(capsys, "verify", "--certificate", str(cert))
        assert code == 0
        assert out.strip() == "verified"


def test_moved_removals_change_no_other_bytes(capsys, tmp_path):
    # The dims 4 and 5 classifications with the weights of removals 1, 2,
    # ... blanked: these digests are of the certificates the emitter wrote
    # when it ran one LP per removal, so only those weights have moved.
    golden = {
        4: "cd685ae358e0ca62400299602ee737a9dd17647cddc701087cc4174d051e0bab",
        5: "efbcbed911eba741b205761a4780e25414acd59b2af54ae8c903c7ab523da7fc",
    }
    for dim, digest in golden.items():
        cert = tmp_path / f"class{dim}.json"
        code, _, _ = run(capsys, "ball-class", "--dim", str(dim), "--out", str(cert))
        assert code == 0
        data = json.loads(cert.read_text())
        for removal in data["removals"][1:]:
            assert removal["coefficients"] is not None
            removal["coefficients"] = None
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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
    assert Fraction(data["mu2"]) == Fraction("5/4")
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
    deep = "[" * 200_000 + "]" * 200_000
    malformed_rows = {
        "deep": '{"harmonics": %s}' % deep,
        "list_coefficient": '{"harmonics": [[4, 0, [1]]]}',
        "float_degree": '{"harmonics": [[4.9, 0, 0.01]]}',
        "huge_coefficient": '{"harmonics": [[4, 0, 1%s]]}' % ("0" * 400),
    }
    for name, text in malformed_rows.items():
        bad_body = tmp_path / f"{name}.json"
        bad_body.write_text(text)
        code, out, err = run(capsys, "construct", "--body", str(bad_body), "--grid", "4")
        assert (code, out) == (2, ""), name
        assert err.count("\n") == 1 and err.startswith("usage error: cannot load body: "), name
    proc = run_optimized("construct", "--body", str(duplicate), "--grid", "4")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""


def test_construct_reports_a_failed_certification(capsys, tmp_path, monkeypatch):
    import ballcover.perturbation

    def unsettled(self, delta_float, records):
        raise RuntimeError("contraction certification did not settle")

    monkeypatch.setattr(ballcover.perturbation.CoverEngine, "_certify_delta", unsettled)
    body_file = tmp_path / "body.json"
    save_body(make_body([(4, 0, 0.01)]), str(body_file))
    cert = tmp_path / "scan.json"
    code, out, err = run(
        capsys, "construct", "--body", str(body_file), "--grid", "8", "--out", str(cert)
    )
    assert code == 1
    assert out == ""
    assert err == "construction failed: contraction certification did not settle\n"
    assert not cert.exists()


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
    assert Fraction(data["det_t"]) > 1
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


def test_workload_sized_outputs_are_pinned(capsys, tmp_path):
    golden = {
        ("cl-certify", "10000"): "2329f3f769828e82de17a90d1fd51ebf6906e977e39106781e10ec99ae9f0cc0",
        ("zonal", "20"): "b01408a8cbb7c926be5431e83e46da341c63f2abb0591a127c7390998015d119",
    }
    for (command, lmax), digest in golden.items():
        cert = tmp_path / f"{command}.out"
        code, out, _ = run(capsys, command, "--lmax", lmax, "--out", str(cert))
        assert code == 0
        assert out == cert.read_text()
        assert sha256(cert) == digest
        code, out, _ = run(capsys, "verify", "--certificate", str(cert))
        assert code == 0
        assert out.strip() == "verified"


def test_anstar_and_witness_outputs_are_pinned(capsys, tmp_path):
    # anstar --dim 3 and witness --dim 3 --pair 1 are pinned above
    golden = {
        ("anstar", "--dim", "2"): "35c7f6a3f95199bca1fba415ab6912a2b90100d67ee5566305b0071fc053fee8",
        ("anstar", "--dim", "4"): "2d0d797d3a95876e92de09d6c8b82ed962ae527c96995f930b6d275c04c9fa7f",
        ("anstar", "--dim", "5"): "b30a3fb2f3c2ef4d559da35bd2bc5b4998f63c71e4999925ae1437c278bdc390",
        ("witness", "--dim", "3", "--pair", "2"): (
            "be91ddeac3eab87eac2b2301febbbc2352e49fd212ed449d780a02ae5e7ec2d7"
        ),
        ("witness", "--dim", "2", "--pair", "0"): (
            "b2ca8648deccba305b2a0cf5a32453cba92c31564d595b39b6c949fdda41c72a"
        ),
        ("witness", "--dim", "3", "--pair", "0", "--eps", "1/7"): (
            "12439e7d26ca0a00849fe728ca80a4ba2a70a39166996f9b45f49bf96da1d849"
        ),
        ("witness", "--dim", "3", "--pair", "0"): (
            "541892aa94e6d8210710323accb6e7950d36e234f5244e2ea02080495ebc0304"
        ),
    }
    for argv, digest in golden.items():
        cert = tmp_path / "out.json"
        code, out, _ = run(capsys, *argv, "--out", str(cert))
        assert code == 0
        assert out == cert.read_text()
        assert sha256(cert) == digest
        code, out, _ = run(capsys, "verify", "--certificate", str(cert))
        assert code == 0
        assert out.strip() == "verified"


def test_closed_stdout_exits_without_traceback(tmp_path):
    body_file = tmp_path / "body.json"
    save_body(make_body([(4, 0, 0.005)]), str(body_file))
    for argv in (
        ("cl-certify", "--lmax", "300"),
        ("construct", "--body", str(body_file), "--grid", "1"),
    ):
        proc = run_closed_pipe(*argv)
        assert proc.returncode == 1
        assert proc.stderr == ""


def test_commands_never_load_numpy(tmp_path):
    # The package has no third-party dependency: a scan and its verification
    # run without importing numpy.
    body_file = tmp_path / "body.json"
    save_body(make_body([(4, 0, 0.005)]), str(body_file))
    cert = tmp_path / "scan.json"
    env = dict(os.environ, PYTHONPATH=str(Path(ballcover.__file__).parents[1]))
    script = (
        "import contextlib, io, sys\n"
        "from ballcover.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['construct', '--body', {str(body_file)!r}, '--grid', '1',\n"
        f"                   '--out', {str(cert)!r}]),\n"
        f"             main(['verify', '--certificate', {str(cert)!r}])]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] False\n"


def test_package_imports_only_the_standard_library():
    package = Path(ballcover.__file__).parent
    foreign = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []


def test_traced_names_resolve():
    # perfbench/trace_cli.py wraps these names and fails on a missing one
    path = Path(__file__).parents[1] / "perfbench" / "trace_cli.py"
    spec = importlib.util.spec_from_file_location("trace_cli", path)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    for mod_name, funcs in trace_cli.TRACED.items():
        mod = importlib.import_module(f"ballcover.{mod_name}")
        for func in funcs:
            if "." in func:
                cls_name, meth = func.split(".")
                assert meth in vars(getattr(mod, cls_name)), f"{mod_name}.{func}"
            else:
                assert callable(getattr(mod, func, None)), f"{mod_name}.{func}"


def test_traced_commands_run(tmp_path):
    # trace_cli.py looks up every traced module in sys.modules right after
    # importing the CLI, and the commands must call the wrapped functions.
    path = Path(__file__).parents[1] / "perfbench" / "trace_cli.py"
    env = dict(os.environ, PYTHONPATH=str(Path(ballcover.__file__).parents[1]))
    for args, traced in (
        (["cl-certify", "--lmax", "30"], {"harmonic.certify_c_range", "reports.verify_cl_csv"}),
        (["ball-class", "--dim", "2"], {"eutaxy.classify_lattice", "reports.verify_certificate"}),
    ):
        spans = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(path), str(spans), *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(spans.read_text())
        assert traced <= {doc["names"][span[0]] for span in doc["spans"]}, args


# Run one command in a fresh process; print its exit code and the package
# modules whose code ran.  A module registered lazily but never used is not
# a plain module yet, and type() reads that without loading it.
LOADED_MODULES = """
import contextlib, io, json, sys, types
from ballcover.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
ran = [n for n, m in sys.modules.items() if n.startswith("ballcover.") and type(m) is types.ModuleType]
heavy = sorted({"dataclasses", "inspect", "copy"} & sys.modules.keys())
print(json.dumps([code, sorted(n.split(".", 1)[1] for n in ran), heavy]))
"""


def test_each_command_runs_only_the_modules_it_needs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ballcover.__file__).parents[1]))

    def ran(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", LOADED_MODULES, *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules, heavy = json.loads(proc.stdout)
        assert code == 0, argv
        # records are NamedTuples: no process pays for dataclasses' imports
        assert heavy == [], argv
        # every command runs cli and reports
        return set(modules) - {"cli", "reports"}

    save_body(make_body([(4, 0, 0.005)]), str(tmp_path / "body.json"))
    # A scan's check runs the shared derivations of perturbation, not the
    # rotation search in search, and neither runs eutaxy.
    cover = {"bodies", "lattice", "linalg", "perturbation"}
    emitted = {
        "class.json": (["ball-class", "--dim", "2"], {"eutaxy", "lattice", "linalg", "lp"}),
        "anstar.json": (["anstar", "--dim", "2"], {"lattice", "linalg"}),
        "scan.json": (["construct", "--body", "body.json", "--grid", "2"], cover | {"search"}),
        "witness.json": (
            ["witness", "--dim", "2", "--pair", "0"], {"eutaxy", "lattice", "linalg", "lp", "witness"}
        ),
        "cl.csv": (["cl-certify", "--lmax", "30"], {"harmonic"}),
        "zonal.json": (["zonal", "--lmax", "4"], {"harmonic", "lattice", "linalg"}),
    }
    for out, (argv, expected) in emitted.items():
        assert ran(*argv, "--out", out) == expected, argv
    # No verify runs lp, only a witness's verify runs witness, and only a
    # classification's runs eutaxy.
    checked = {
        "class.json": {"eutaxy", "lattice", "linalg"},
        "anstar.json": {"lattice", "linalg"},
        "scan.json": cover,
        "witness.json": {"lattice", "linalg", "witness"},
        "cl.csv": {"harmonic"},
        "zonal.json": {"harmonic"},
    }
    for cert, expected in checked.items():
        assert ran("verify", "--certificate", cert) == expected, cert


def test_perturbation_serves_the_witness_names_lazily():
    # Loading perturbation does not run witness; importing a witness name
    # from it gives witness's own object.
    env = dict(os.environ, PYTHONPATH=str(Path(ballcover.__file__).parents[1]))
    code = (
        "import sys, ballcover.perturbation as p\n"
        "before = 'ballcover.witness' in sys.modules\n"
        "from ballcover.perturbation import extension_witness\n"
        "import ballcover.witness as w\n"
        "print(before, extension_witness is w.extension_witness)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout) == (0, "False True\n"), proc.stderr
    from ballcover import perturbation, witness

    for name in ("AugmentedBall", "exact_cr_after", "extension_witness", "member_augmented_ball"):
        assert getattr(perturbation, name) is getattr(witness, name)
    with pytest.raises(AttributeError):
        perturbation.no_such_name


def test_loading_perturbation_runs_neither_search_nor_eutaxy():
    # A scan's check loads perturbation alone: the rotation search and the
    # classification stay uncompiled.  The four search names the acceptance
    # gate and the benchmark import from perturbation are search's own.
    env = dict(os.environ, PYTHONPATH=str(Path(ballcover.__file__).parents[1]))
    code = (
        "import sys, ballcover.perturbation as p\n"
        "print(sorted(n for n in ('ballcover.eutaxy', 'ballcover.search') if n in sys.modules))\n"
        "import ballcover.search as s\n"
        "names = ('CoverEngine', 'build_cover', 'rotation_scan', 'solve_treqn')\n"
        "print(all(getattr(p, n) is getattr(s, n) for n in names))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\nTrue\n"), proc.stderr


def test_cli_registers_every_package_module():
    import ballcover.cli

    package = Path(ballcover.__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "cli"}
    assert sorted(ballcover.cli._MODULES) == sorted(modules)


def test_zonal_roundtrip(capsys, tmp_path):
    cert = tmp_path / "zonal.json"
    code, out, _ = run(capsys, "zonal", "--lmax", "8", "--out", str(cert))
    assert code == 0
    assert sha256(cert) == "f98fd9daa0a0c518b7dac4627465e106ecfa58f25ef2d7c8e049a9a89f58eb00"
    data = json.loads(out)
    assert Fraction(data["multipliers"][4]) == Fraction("7/25")
    assert Fraction(data["multipliers"][2]) == 0
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
    assert err == "verification failure: det_t is not its re-derived value\n"


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
        (swapped, "conclusion is not its re-derived value"),
        (relabelled, "pair_coefficients must hold one weight for each of the 12 pairs"),
    ):
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--certificate", str(tampered))
        assert code == 1
        assert out == ""
        assert err == f"verification failure: {message}\n"


def test_verify_ties_the_classification_to_anstar(capsys, tmp_path):
    # Two forgeries that relabel the dimension-3 certificate as redundant,
    # which would flip its conclusion, each with removal "evidence" that
    # resums: removals that remove nothing, and maps that are not A3*'s.
    cert = tmp_path / "class3.json"
    code, _, _ = run(capsys, "ball-class", "--dim", "3", "--out", str(cert))
    assert code == 0
    data = json.loads(cert.read_text())
    relabelled = dict(
        data,
        classification="redundantly-semi-eutactic",
        conclusion="ball extensible; not relatively worst covering",
    )
    full = data["pair_coefficients"]
    removes_nothing = dict(
        relabelled,
        removals=[
            {"pair_index": 99, "feasible": True, "coefficients": full, "farkas_form": None}
            for _ in data["pairs"]
        ],
    )
    third = [[rat_str(Fraction(x) / 3) for x in row] for row in data["gram"]]
    foreign_maps = dict(
        relabelled,
        maps=[third] * 3,
        removals=[
            {"pair_index": k, "feasible": True, "coefficients": ["3/2", "3/2"], "farkas_form": None}
            for k in range(3)
        ],
    )
    doubled = [[rat_str(2 * Fraction(x)) for x in row] for row in data["gram"]]
    for forged, message in (
        (removes_nothing, "removals[0].pair_index is not its re-derived value"),
        (foreign_maps, "maps[0][0][0] is not its re-derived value"),
        (dict(data, dimension=True, gram=[["4"]]), "dimension must be a JSON integer, not a JSON boolean"),
        (dict(data, dimension=1, gram=[["4"]]), "dimension 1 is not an integer from 2 to 5"),
        (dict(data, gram=doubled), "gram[0][0] is not its re-derived value"),
        (dict(data, mu2="5/3"), "mu2 is not its re-derived value"),
        (dict(data, pairs=[[0, 5], [2, 4], [1, 3]]), "pairs[1][0] is not its re-derived value"),
    ):
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(forged))
        code, out, err = run(capsys, "verify", "--certificate", str(path))
        assert code == 1
        assert out == ""
        assert f"verification failure: {message}\n" in err


def test_verify_rederives_the_simplex_coefficients(capsys, tmp_path):
    cert = tmp_path / "class3.json"
    code, _, _ = run(capsys, "ball-class", "--dim", "3", "--out", str(cert))
    assert code == 0
    data = json.loads(cert.read_text())
    for forged, paths in (
        (["7"] * 6, [f"simplex_coefficients[{i}]" for i in range(6)]),
        (None, ["simplex_coefficients"]),
        (["1/2"] * 5 + ["1"], ["simplex_coefficients[5]"]),
    ):
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(dict(data, simplex_coefficients=forged)))
        code, out, err = run(capsys, "verify", "--certificate", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"verification failure: {line}" for line in rederived(*paths)]


def test_verify_ties_the_lattice_report_to_anstar(capsys, tmp_path):
    cert = tmp_path / "anstar2.json"
    code, _, _ = run(capsys, "anstar", "--dim", "2", "--out", str(cert))
    assert code == 0
    data = json.loads(cert.read_text())
    # no classes, a foreign Voronoi vertex and a covering radius of 1/150
    # (the true one is 2/9), each consistent with the others
    forged = dict(
        data, classes=[], num_maximal=0, voronoi_vertices=[["1/10", "0"]], mu2="1/150"
    )
    # Each leaf that differs is named, and a list of another length at the
    # list itself.
    for tampered, messages in (
        (forged, ["classes", "mu2", "num_maximal", "voronoi_vertices"]),
        (dict(data, gram=[["1", "0"], ["0", "1"]]), [f"gram[{r}][{c}]" for r in range(2) for c in range(2)]),
        (
            dict(data, dimension=3),
            ["classes", "embedding", "gram", "mu2", "num_maximal", "voronoi_vertices"],
        ),
    ):
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(tampered))
        code, out, err = run(capsys, "verify", "--certificate", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"verification failure: {line}" for line in rederived(*messages)]
    for dim, message in (
        (True, "dimension must be a JSON integer, not a JSON boolean"),
        (2.0, "dimension must be a JSON integer, not a JSON float"),
        ("2", "dimension must be a JSON integer, not a JSON string"),
        (6, "dimension 6 is not an integer from 2 to 5"),
    ):
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(dict(data, dimension=dim)))
        code, _, err = run(capsys, "verify", "--certificate", str(path))
        assert code == 1
        assert err == f"verification failure: {message}\n"


def test_verify_usage_errors(capsys, tmp_path):
    code, _, _ = run(capsys, "verify", "--certificate", str(tmp_path / "none.json"))
    assert code == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json at all")
    code, _, _ = run(capsys, "verify", "--certificate", str(garbled))
    assert code == 1
    odd_files = {
        "list": b"[]",
        "string": b'"x"',
        "utf16": b"\xff\xfe{\x00}\x00",
        "list_kind": b'{"kind": []}',
        "dict_kind": b'{"kind": {}}',
        "deep": b"[" * 200_000 + b"]" * 200_000,
    }
    for name, content in odd_files.items():
        odd = tmp_path / f"{name}.json"
        odd.write_bytes(content)
        code, out, err = run(capsys, "verify", "--certificate", str(odd))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("verification failure: ")
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


def rederived(*paths):
    # verify's line for each leaf that is not its value re-derived from the
    # certificate's inputs.
    return [f"{path} is not its re-derived value" for path in paths]


def test_verify_ties_radial_values_to_the_body(capsys, tmp_path):
    _, cert = scan_of(capsys, tmp_path, [(4, 0, 0.02 / 3)], 8)
    assert verify_certificate(cert) == (True, [])
    forged = json.loads(json.dumps(cert))
    for k in forged["best"]["checks"]:
        k["radial_value"] = 5.0
        k["rhs"] = "125/4"  # mu2 * 5^2, so the membership sides still match
    assert verify_certificate(forged) == (
        False,
        rederived(*(f"best.checks[{n}].{key}" for n in range(24) for key in ("radial_value", "rhs"))),
    )
    loose = json.loads(json.dumps(cert))
    loose["best"]["float_tolerance"] = 10.0
    assert verify_certificate(loose) == (False, rederived("best.float_tolerance"))


def test_verify_rejects_radial_values_a_thousand_ulps_high(capsys, tmp_path):
    # Each radial value raised by 1,000 ulps and its rhs refit to mu2 r^2:
    # within any float tolerance, and every membership still holds, but no
    # radial value is the body's.
    _, cert = scan_of(capsys, tmp_path, [(4, 0, 0.005)], 8)
    forged = json.loads(json.dumps(cert))
    for k in forged["best"]["checks"]:
        k["radial_value"] += 1000 * math.ulp(k["radial_value"])
        k["rhs"] = rat_str(Fraction(5, 4) * Fraction(k["radial_value"]) ** 2)
    assert verify_certificate(forged) == (
        False,
        rederived(*(f"best.checks[{n}].{key}" for n in range(24) for key in ("radial_value", "rhs"))),
    )


def test_verify_checks_the_body_class_with_check_body(capsys, tmp_path):
    # The construction's own check, which reads a NaN asphericity as above
    # the threshold, and verify stops there.
    _, data = scan_of(capsys, tmp_path, [(4, 1, 0.003), (6, -5, 0.002), (8, 8, 0.001)], 8)
    rest = [[6, -5, 0.002], [8, 8, 0.001]]
    for rows, message in (
        ([[4, 1, math.nan], *rest], "asphericity above threshold 1/10"),
        ([[4, 1, 0.3], *rest], "asphericity above threshold 1/10"),
        ([[2, 0, 0.001], [4, 1, 0.003], *rest], "body must have no degree 0 or 2 terms"),
        ([[4, 1, 0.003], [5, 0, 0.001], *rest], "body must be centrally symmetric (even degrees)"),
    ):
        forged = json.loads(json.dumps(data))
        forged["best"]["body"]["harmonics"] = rows
        assert verify_certificate(forged) == (False, [message]), rows


def test_verify_checks_a_cover_only_inside_its_scan(capsys, tmp_path):
    # A construction on the non-orthogonal rotation diag(2, 1, 1) claims a
    # det ratio the identity does not give; emitted as a scan's best, with
    # every derived float refit, it passes every check but the grid's.
    body = make_body([(4, 0, 0.005)])
    report = rotation_scan(body, grid_size=8)
    stretched = build_cover(body, ((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    assert stretched.det_ratio != build_cover(body).det_ratio
    data = json.loads(dump_json(scan_certificate(body, report._replace(best=stretched))))
    refit_densities(data, stretched.det_ratio)
    # Re-derived on grid rotation best_index, the rotation and every radial
    # value differ, and so does each membership that then fails.
    failing = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (3, 1), (3, 3), (5, 0), (5, 1), (5, 2), (5, 3)]
    assert verify_certificate(data) == (False, [
        *(f"membership fails at {p}" for p in failing),
        *rederived(*(f"best.checks[{n}].{key}" for n in range(24) for key in ("margin", "radial_value", "rhs"))),
        *rederived(*(f"best.rotation[{r}][{c}]" for r in range(3) for c in range(3))),
    ])
    # No command emits a cover on its own, and verify accepts none.
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps(data["best"]))
    code, out, err = run(capsys, "verify", "--certificate", str(cover))
    assert (code, out) == (1, "")
    assert err == "verification failure: unknown certificate kind: 'cover-construction'\n"


def test_unwritable_out_is_a_usage_error(tmp_path):
    # The command's work is done before --out is written; a path that cannot
    # be written ends in one usage line, not a traceback.
    env = dict(os.environ, PYTHONPATH=str(Path(ballcover.__file__).parents[1]))
    missing = str(tmp_path / "missing" / "x.json")
    for argv in (
        ["anstar", "--dim", "2", "--out", missing],
        ["ball-class", "--dim", "2", "--out", missing],
        ["cl-certify", "--lmax", "5", "--out", str(tmp_path)],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "ballcover.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, argv
        assert "Traceback" not in proc.stderr, argv
        assert proc.stderr.startswith("usage error: cannot write --out: "), argv
        assert proc.stderr.count("\n") == 1, argv


def test_verify_ties_the_witness_transform_to_its_scale(capsys, tmp_path):
    # The transform, its determinant, the circumradii and the points are
    # those of the true scale 1/128; re-derived at the stated scale, the
    # points leave the augmented ball and each of those leaves differs.
    cert = tmp_path / "wit.json"
    code, _, _ = run(capsys, "witness", "--dim", "3", "--pair", "0", "--out", str(cert))
    assert code == 0
    data = json.loads(cert.read_text())
    assert data["scale"] == "1/128"
    cert.write_text(json.dumps(dict(data, scale="1/64")))
    code, out, err = run(capsys, "verify", "--certificate", str(cert))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"verification failure: {line}"
        for line in (
            *(f"translated vertex {i} outside the augmented ball" for i in range(2)),
            *rederived("det_t", "grown_cr2", *(f"kept_cr2[{i}]" for i in range(4))),
            *rederived("transform[1][1]", "transform[1][2]", *(f"transform[2][{c}]" for c in range(3))),
            *rederived(*(f"translated_points[{i}][{c}]" for i in range(4) for c in (1, 2))),
        )
    ]


def test_verify_checks_the_classification_normalization(capsys, tmp_path):
    cert = tmp_path / "class3.json"
    code, _, _ = run(capsys, "ball-class", "--dim", "3", "--out", str(cert))
    assert code == 0
    data = json.loads(cert.read_text())
    cert.write_text(json.dumps(dict(data, normalization="maps scaled by cr2")))
    code, out, err = run(capsys, "verify", "--certificate", str(cert))
    assert code == 1
    assert out == ""
    assert err == "verification failure: normalization is not its re-derived value\n"


def test_verify_rejects_unsupported_witness_dimension(capsys, tmp_path):
    cert = tmp_path / "wit.json"
    code, _, _ = run(capsys, "witness", "--dim", "3", "--pair", "0", "--out", str(cert))
    assert code == 0
    data = json.loads(cert.read_text())
    # 6 to 8 would start building A_n* with n! classes, 9 is beyond the model
    for dim in (1, 6, 9, True):
        forged = tmp_path / f"dim-{dim}.json"
        forged.write_text(json.dumps(dict(data, dimension=dim)))
        code, out, err = run(capsys, "verify", "--certificate", str(forged))
        assert code == 1
        assert out == ""
        message = (
            "dimension must be a JSON integer, not a JSON boolean"
            if dim is True
            else f"dimension {dim!r} is not an integer from 2 to 5"
        )
        assert err == f"verification failure: {message}\n"
    proc = run_optimized("verify", "--certificate", str(tmp_path / "dim-9.json"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "verification failure: dimension 9 is not an integer from 2 to 5\n"


def test_scan_output_is_pinned(capsys, tmp_path):
    # A scan carries floats (rotation, radial values, densities) from libm,
    # so unlike the pins above this one assumes IEEE doubles and a libm that
    # rounds sin, cos and acos the same way.  The grid-40 bodies are the
    # benchmark's two zonal scans.
    golden = {
        (0.01, "8"): "a0c8989d9ba4e899afbd22d5a6ed16d3b7edb265090a2de721883498ec63f23f",
        (0.02 / 3, "40"): "1a09fa891d53ac09e39dfac7ec52d47c38b82c226a244f27258ce6bed4c391ba",
        (0.01 / 3, "40"): "3d0f353042b10192b12c8b2d50dd09998326e50678eee9e74d724811ea51ff13",
    }
    for (a, grid), digest in golden.items():
        body_file = tmp_path / "body.json"
        save_body(make_body([(4, 0, a)]), str(body_file))
        cert = tmp_path / "scan.json"
        code, out, _ = run(
            capsys, "construct", "--body", str(body_file), "--grid", grid, "--out", str(cert)
        )
        assert code == 0
        assert out == cert.read_text()
        assert sha256(cert) == digest


def test_non_zonal_scan_output_is_pinned(capsys, tmp_path):
    # The m != 0 harmonics take the angle-free path of rho, which makes the
    # screen's one radial value per {x, -x} pair serve both vertices; this
    # pins the pair values it settles on, to their last bit.  Same libm
    # assumption as above.
    body_file = tmp_path / "body.json"
    save_body(make_body([(4, 1, 0.003), (6, -5, 0.002), (8, 8, 0.001)]), str(body_file))
    cert = tmp_path / "scan.json"
    code, out, _ = run(
        capsys, "construct", "--body", str(body_file), "--grid", "8", "--out", str(cert)
    )
    assert code == 0
    assert out == cert.read_text()
    assert sha256(cert) == "58b8902daf2a8e0f06581b01cfedd447c2a3a31971126c5219d3cf8a481602ef"


def test_verify_requires_each_vertex_checked_once(capsys, tmp_path):
    # Zero the contraction, re-derive every value that depends on it, and
    # pad the membership log with the vertices that still pass.  The log is
    # re-derived too: verify names the memberships that fail at delta 0,
    # then every leaf of a padded entry that is not the true entry's.
    body = make_body([(4, 0, 0.02 / 3)])
    report = rotation_scan(body, grid_size=8)
    c, lat = report.best, build_anstar(3)
    zero = cover_record(lat, body, c.rotation, c.rho, c.m_form, c.translations, Fraction(0))
    data = json.loads(dump_json(scan_certificate(body, scan_record(lat, body, 8, report.best_index, zero))))
    checks = data["best"]["checks"]
    failing = [k for k in checks if Fraction(k["lhs"]) > Fraction(k["rhs"])]
    passing = [k for k in checks if k not in failing]
    assert 0 < len(passing) < len(checks)
    padded = [passing[n % len(passing)] for n in range(len(checks))]
    expected = [f"membership fails at ({k['simplex']}, {k['vertex']})" for k in failing]
    for n, (got, want) in enumerate(zip(padded, checks)):
        for key in sorted(want):
            if key == "y":
                expected += rederived(*(f"best.checks[{n}].y[{r}]" for r in range(3) if got["y"][r] != want["y"][r]))
            elif got[key] != want[key]:
                expected += rederived(f"best.checks[{n}].{key}")
    data["best"]["checks"] = padded
    cert = tmp_path / "scan.json"
    cert.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--certificate", str(cert))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"verification failure: {line}" for line in expected]


def test_verify_rejects_misshapen_scan_tables(capsys, tmp_path):
    # Each table of a scan's best construction cut, padded or reshaped:
    # verify must fail cleanly, one "verification failure" line per
    # message, never a traceback and never "verified".  A seventh
    # translation row verified before the vertex kernel checked shapes.
    body_file = tmp_path / "body.json"
    save_body(make_body([(4, 1, 0.003), (6, -5, 0.002), (8, 8, 0.001)]), str(body_file))
    cert = tmp_path / "scan.json"
    code, _, _ = run(
        capsys, "construct", "--body", str(body_file), "--grid", "8", "--out", str(cert)
    )
    assert code == 0
    forgeries = {
        "m_matrix": [lambda m: [row[:2] for row in m], lambda m: m[:2]],
        "translations": [lambda t: t[:5], lambda t: [row[:2] for row in t], lambda t: t + t[-1:]],
        "rho": [lambda r: r[:5], lambda r: [row[:3] for row in r]],
        "rotation": [lambda u: [row[:2] for row in u]],
    }
    forged = tmp_path / "forged.json"
    for key, changes in forgeries.items():
        for change in changes:
            data = json.loads(cert.read_text())
            data["best"][key] = change(data["best"][key])
            forged.write_text(json.dumps(data))
            code, out, err = run(capsys, "verify", "--certificate", str(forged))
            assert (code, out) == (1, ""), (key, err)
            assert err and all(
                line.startswith("verification failure: ") for line in err.splitlines()
            ), (key, err)


def test_verify_rejects_bad_witness_pair_index(capsys, tmp_path):
    cert = tmp_path / "wit.json"
    code, _, _ = run(capsys, "witness", "--dim", "3", "--pair", "1", "--out", str(cert))
    assert code == 0
    data = json.loads(cert.read_text())
    # True would index pair 1, -1 the last pair, 3 past the end
    for index, message in (
        (True, "pair_index must be a JSON integer, not a JSON boolean"),
        (-1, "pair index -1 is not an integer from 0 to 2"),
        (3, "pair index 3 is not an integer from 0 to 2"),
    ):
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(dict(data, pair_index=index)))
        code, out, err = run(capsys, "verify", "--certificate", str(forged))
        assert code == 1
        assert out == ""
        assert err == f"verification failure: {message}\n"


def test_verify_ties_the_scan_rotation_to_the_grid(capsys, tmp_path):
    body_file = tmp_path / "body.json"
    save_body(make_body([(4, 0, 0.02 / 3)]), str(body_file))
    cert = tmp_path / "scan.json"
    code, _, _ = run(
        capsys, "construct", "--body", str(body_file), "--grid", "40", "--out", str(cert)
    )
    assert code == 0
    data = json.loads(cert.read_text())
    assert verify_certificate(data) == (True, [])
    # The stored rotation is not grid rotation 7 of 5000, and a huge grid
    # costs the verifier one rotation, not the whole grid.
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(dict(data, best_index=7, grid_size=5000)))
    code, out, err = run(capsys, "verify", "--certificate", str(forged))
    assert code == 1
    assert out == ""
    failing = [
        (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3),
        (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2), (4, 3),
    ]
    assert err.splitlines() == [
        f"verification failure: {line}"
        for line in (
            *(f"membership fails at {p}" for p in failing),
            *rederived(*(f"best.checks[{n}].{key}" for n in range(24) for key in ("margin", "radial_value", "rhs"))),
            *rederived(*(f"best.rotation[{r}][{c}]" for r in range(3) for c in range(3))),
        )
    ]
    index_error = "best rotation index must be an integer in [0, grid_size)"
    for index, size, message in (
        (True, 40, "best_index must be a JSON integer, not a JSON boolean"),
        (data["best_index"], 40.0, "grid_size must be a JSON integer, not a JSON float"),
        (40, 40, index_error),
        (-1, 40, index_error),
    ):
        ok, bad = verify_certificate(dict(data, best_index=index, grid_size=size))
        assert (ok, bad) == (False, [message])
    ok, bad = verify_certificate(dict(data, grid_size=10**400))
    assert not ok and bad[0].startswith("malformed certificate: OverflowError")


def scan_of(capsys, tmp_path, harmonics, grid):
    body_file = tmp_path / "body.json"
    save_body(make_body(harmonics), str(body_file))
    cert = tmp_path / "scan.json"
    code, _, _ = run(
        capsys, "construct", "--body", str(body_file), "--grid", str(grid), "--out", str(cert)
    )
    assert code == 0
    return cert, json.loads(cert.read_text())


def test_verify_rederives_the_volume_bound(capsys, tmp_path):
    # Halve the body's volume bound and refit every derived float to it: the
    # densities agree with each other, so only re-deriving the bound from
    # the body can catch the forgery.
    cert, data = scan_of(capsys, tmp_path, [(4, 0, 0.005)], 8)
    assert Fraction(data["volume_bound"]) > 1
    data["volume_bound"] = "1/2"
    refit_densities(data, Fraction(data["best"]["det_ratio"]))
    cert.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--certificate", str(cert))
    assert code == 1
    assert out == ""
    # The densities are recomputed from the re-derived bound, so they fail too.
    assert err.splitlines() == [
        f"verification failure: {line}"
        for line in rederived("best_density", "delta_k_bound", "margin", "volume_bound")
    ]


def test_verify_rejects_a_stray_scan_field(capsys, tmp_path):
    cert, data = scan_of(capsys, tmp_path, [(4, 0, 0.005)], 8)
    cert.write_text(json.dumps(dict(data, min_bracket=123.0)))
    code, out, err = run(capsys, "verify", "--certificate", str(cert))
    assert code == 1
    assert out == ""
    assert err == (
        "verification failure: certificate keys must be exactly ['ball_density', 'best',"
        " 'best_density', 'best_index', 'delta_k_bound', 'grid_size', 'kind', 'margin',"
        " 'volume_bound']\n"
    )


def changed(value):
    # A different value of the same JSON type.
    if isinstance(value, str):
        return rat_str(Fraction(value) + Fraction("1/1000"))
    if isinstance(value, float):
        return value * (1 + 2**-40)
    return value + 1


def test_verify_rederives_every_scan_field(capsys, tmp_path):
    _, data = scan_of(capsys, tmp_path, [(4, 0, 0.02 / 3)], 8)
    assert verify_certificate(data) == (True, [])
    fields = sorted(set(data) - {"kind", "best"})
    assert fields == [
        "ball_density", "best_density", "best_index", "delta_k_bound", "grid_size",
        "margin", "volume_bound",
    ]
    for key in fields:
        ok, bad = verify_certificate(dict(data, **{key: changed(data[key])}))
        assert not ok, key


def test_verify_rederives_the_cover_floats(capsys, tmp_path):
    # The forgeries once accepted: each float of the best construction is
    # recomputed by the construction's own cover_floats and must be equal.
    cert, data = scan_of(capsys, tmp_path, [(4, 0, 0.005)], 8)
    assert verify_certificate(data) == (True, [])
    forgeries = {"lower_bound": 99.0, "delta_tangent": -5.0, "epsilon_prime": 1e9}
    for key, value in forgeries.items():
        cert.write_text(json.dumps(dict(data, best=dict(data["best"], **{key: value}))))
        code, out, err = run(capsys, "verify", "--certificate", str(cert))
        assert (code, out) == (1, "")
        assert err == f"verification failure: best.{key} is not its re-derived value\n"
    checks = [dict(k, margin=-1.0) for k in data["best"]["checks"]]
    cert.write_text(json.dumps(dict(data, best=dict(data["best"], checks=checks))))
    code, out, err = run(capsys, "verify", "--certificate", str(cert))
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"verification failure: {line}" for line in rederived(*(f"best.checks[{n}].margin" for n in range(24)))
    ]
