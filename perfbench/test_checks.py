"""Tests of the benchmark's own output checks (not part of a timed run).

    python3 -m pytest perfbench/test_checks.py

Fresh outputs come from the library at small sizes; the checks must pass
on them and must reject tampered copies, including one that
`ballcover verify` does not catch.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from ballcover import bodies, harmonic, lattice  # noqa: E402
from ballcover.eutaxy import classification_certificate  # noqa: E402
from ballcover.perturbation import extension_witness, rotation_scan  # noqa: E402
from ballcover.reports import (  # noqa: E402
    cl_csv,
    dump_json,
    scan_certificate,
    spectrum_certificate,
    verify_certificate,
    witness_certificate,
)

ZONAL = [[4, 0, 0.02 / 3]]


@pytest.fixture(scope="module")
def scan_text():
    body = bodies.body_from_dict({"harmonics": ZONAL})
    return dump_json(scan_certificate(body, rotation_scan(body, grid_size=run.GRID)))


@pytest.fixture(scope="module")
def class3_text():
    return dump_json(classification_certificate(lattice.build_anstar(3)))


@pytest.fixture(scope="module")
def witness_text():
    return dump_json(witness_certificate(extension_witness(lattice.build_anstar(3), 0)))


def test_fresh_scan_passes(scan_text):
    assert checks.check_scan(scan_text, ZONAL) == []


def test_mixed_body_scan_passes():
    rows = run.mixed_body(3)
    body = bodies.body_from_dict({"harmonics": rows})
    assert abs(body.eps - run.MIXED_AMPLITUDE) < 1e-15
    text = dump_json(scan_certificate(body, rotation_scan(body, grid_size=run.GRID)))
    assert checks.check_scan(text, rows) == []


def test_scan_with_forged_radial_values_is_rejected(scan_text):
    data = json.loads(scan_text)
    for k in data["best"]["checks"]:
        k["radial_value"] = 5.0
        k["rhs"] = "125/4"  # mu2 * 5^2, so the membership sides still match
    forged = json.dumps(data)
    assert any("radial value" in m for m in checks.check_scan(forged, ZONAL))
    data["best"]["float_tolerance"] = 10.0
    assert any("float_tolerance" in m for m in checks.check_scan(json.dumps(data), ZONAL))


def test_scan_of_another_body_is_rejected(scan_text):
    assert checks.check_scan(scan_text, [[4, 0, 0.01 / 3]])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_fresh_classification_passes(dim):
    text = dump_json(classification_certificate(lattice.build_anstar(dim)))
    assert checks.check_classification(text, dim) == []


def test_swapped_conclusion_is_rejected(class3_text):
    data = json.loads(class3_text)
    data["conclusion"] = checks.EXTENSIBLE
    assert checks.check_classification(json.dumps(data), 3)


def test_broken_identity_resolution_is_rejected(class3_text):
    data = json.loads(class3_text)
    data["pair_coefficients"][0] = str(Fraction(data["pair_coefficients"][0]) + 1)
    assert checks.check_classification(json.dumps(data), 3)


def test_fresh_witness_passes(witness_text):
    assert checks.check_witness(witness_text, 0) == []


def test_witness_with_forged_circumradius_is_rejected(witness_text):
    data = json.loads(witness_text)
    data["kept_cr2"][0] = "1"
    assert checks.check_witness(json.dumps(data), 0)


def test_fresh_cl_table_passes():
    text = cl_csv(harmonic.certify_c_range(300))
    assert checks.check_cl_csv(text, [5, 17, 200], [201, 256, 300], 300) == []
    forged = text.replace("\n256,,", "\n256,,1", 1)  # residue column of degree 256
    assert forged != text
    assert checks.check_cl_csv(forged, [], [256], 300)


def test_fresh_zonal_spectrum_passes():
    lat = lattice.build_anstar(3)
    pole = lattice.covering_radius(lat)[1][0].x[0]
    spec = harmonic.zonal_spectrum(lattice.voronoi_vertices(lat), pole, lat.gram, 20)
    text = dump_json(spectrum_certificate(spec))
    assert verify_certificate(json.loads(text))[0]
    assert checks.check_zonal(text, 20) == []


def test_independent_geometry_matches_the_program():
    _, simplices = lattice.covering_radius(lattice.build_anstar(3))
    assert {frozenset(s.x) for s in simplices} == set(checks.bcc_delone_simplices())
    assert checks.anstar_gram(3) == [list(r) for r in lattice.build_anstar(3).gram]


def test_independent_multipliers_match_the_program():
    for l in range(0, 40):
        assert checks.c_l_sympy(l) == harmonic.c_l(l)
    for l in (0, 1, 2, 7, 64, 255, 1000, 4097):
        assert checks.scaled_c_l_mod16(l) == harmonic.c_l_scaled_residue(l)


def test_independent_harmonics_match_the_program():
    d = (0.36, -0.48, 0.8)
    for l in (4, 6):
        for m in range(-l, l + 1):
            assert abs(checks.real_harmonic(l, m, d) - bodies.real_sph_harm(l, m, d)) < 1e-13


def test_rational_bits():
    assert run.rational_bits('{"a": ["3/256", 7.5, "-5"], "b": "text"}') == 9
    assert run.rational_bits("l,c_l,residue_mod16,status\n0,1,1,nonzero-exact\n1,-1/1024,1,x\n") == 11
