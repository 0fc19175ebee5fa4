"""Exact Legendre sums, multipliers c_l, mod-16 residue certificates, zonal spectra."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ballcover
from ballcover import harmonic, reports
from ballcover.harmonic import (
    NODE_WEIGHTS,
    c_l,
    c_l_scaled_residue,
    c_l_table,
    certify_c_range,
    legendre_rational,
    raw_residue_row,
    rescaled_q_sequence_mod16,
    weighted_residue_rows,
    zonal_spectrum,
)
from ballcover.lattice import build_anstar, covering_radius, voronoi_vertices
from ballcover.reports import cl_csv, verify_cl_csv

from oracles import legendre_table


def legendre_closed_form(l, t):
    # P_l(t) = 2^-l sum_k (-1)^k C(l, k) C(2l - 2k, l) t^(l - 2k), no recurrence
    return sum(
        (-1) ** k * math.comb(l, k) * math.comb(2 * l - 2 * k, l) * Fraction(t) ** (l - 2 * k)
        for k in range(l // 2 + 1)
    ) / 2**l


def test_rescaled_q_base_cases():
    for k in range(6):
        seq = rescaled_q_sequence_mod16(1, k)
        assert seq[0] == 1
        assert seq[1] == k


def test_rescaled_q_matches_legendre():
    for k in range(6):
        seq = rescaled_q_sequence_mod16(11, k)
        for l in range(12):
            scaled = 5**l * math.factorial(l) * legendre_rational(l, Fraction(k, 5))
            assert scaled.denominator == 1
            assert seq[l] == scaled.numerator % 16


def test_residue_sequences_match_the_plain_recurrence():
    # the sequences stop stepping once a state recurs; compare every step
    for k in range(-20, 21):
        plain = [1, k % 16]
        for j in range(1, 2000):
            plain.append(((2 * j + 1) * k * plain[j] - 9 * j * j * plain[j - 1]) % 16)
        for lmax in (*range(40), 1999):
            assert rescaled_q_sequence_mod16(lmax, k) == plain[: lmax + 1]


def test_legendre_exact_values():
    assert legendre_rational(2, Fraction(3, 5)) == Fraction(1, 25)
    assert legendre_rational(4, Fraction(4, 5)) == Fraction(-233, 1000)
    for l in range(51):
        assert legendre_rational(l, Fraction(1)) == 1


def test_multiplier_small_values():
    assert c_l(0) == 12
    assert c_l(1) == 6
    assert c_l(2) == 0
    assert c_l(4) == Fraction(7, 25)
    for l in range(1, 30):
        if l != 2:
            assert c_l(l) != 0


def test_scaled_multiplier_is_integer():
    for l, c in enumerate(c_l_table(200)):
        scaled = 5**l * math.factorial(l) * c
        assert scaled.denominator == 1


def test_residue_agrees_with_exact_value():
    for l, c in enumerate(c_l_table(200)):
        scaled = int(5**l * math.factorial(l) * c)
        assert scaled % 16 == c_l_scaled_residue(l)


def test_raw_residue_rows_periodic():
    for k in (0, 2, 4):
        row = raw_residue_row(k)
        seq = rescaled_q_sequence_mod16(1000, k)
        for l in range(1001):
            assert seq[l] == row[l % 8]


def test_weighted_rows_match_reference_tables():
    rows = weighted_residue_rows()
    assert rows[0] == (1, 0, 7, 0, 9, 0, 7, 0)
    assert rows[2] == (4, 8, 12, 8, 4, 8, 12, 8)
    assert rows[4] == (3, 12, 5, 4, 11, 12, 5, 4)


def test_odd_nodes_vanish_mod16_from_six():
    for k in (1, 3, 5):
        seq = rescaled_q_sequence_mod16(64, k)
        assert seq[6] == 0 and seq[7] == 0
        assert all(r == 0 for r in seq[6:])


def test_certify_small_range():
    certs = certify_c_range(40, exact_limit=20)
    assert certs[2].status == "zero"
    assert certs[4].value == Fraction(7, 25)
    assert certs[25].status == "nonzero-mod16"
    for cert in certs:
        if cert.l != 2:
            assert cert.status != "zero"
        if cert.l >= 6:
            assert cert.residue_mod16 != 0


def test_certified_residues_follow_period_eight():
    certs = certify_c_range(100, exact_limit=0)
    expected_cycle = [
        (sum(row[i] for row in weighted_residue_rows().values())) % 16
        for i in range(8)
    ]
    for cert in certs:
        if cert.l >= 6:
            assert cert.residue_mod16 == expected_cycle[cert.l % 8]


def test_zonal_spectrum_on_voronoi_vertices():
    lat = build_anstar(3)
    pts = voronoi_vertices(lat)
    mu2, _ = covering_radius(lat)
    pole = pts[0]
    spec = zonal_spectrum(pts, pole, lat.gram, 20)
    assert spec.mass == 12
    counts = dict(spec.cosine_counts)
    assert counts == {
        Fraction(1): 1,
        Fraction(-1): 1,
        Fraction(4, 5): 3,
        Fraction(-4, 5): 3,
        Fraction(3, 5): 1,
        Fraction(-3, 5): 1,
        Fraction(2, 5): 4,
        Fraction(-2, 5): 4,
        Fraction(1, 5): 2,
        Fraction(-1, 5): 2,
        Fraction(0): 2,
    }
    for l in range(21):
        if l % 2 == 0:
            assert spec.multipliers[l] == c_l(l)
        else:
            assert spec.multipliers[l] == 0


def test_tables_match_per_degree_values():
    rng = random.Random(6)
    nodes = [Fraction(k, 5) for k in range(-5, 6)]
    nodes += [Fraction(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(8)]
    for t in nodes:
        table = legendre_table(60, t)
        assert len(table) == 61
        for l in range(61):
            assert table[l] == legendre_closed_form(l, t)
            assert legendre_rational(l, t) == table[l]
        assert legendre_table(0, t) == [1]
        assert legendre_table(1, t) == [1, t]
    table = c_l_table(60)
    assert len(table) == 61
    for l in range(61):
        assert table[l] == sum(
            w * legendre_closed_form(l, Fraction(k, 5)) for k, w in NODE_WEIGHTS
        )
        assert c_l(l) == table[l]
    assert c_l_table(0) == [12]
    assert c_l_table(1) == [12, 6]


def test_certify_and_verify_restart_no_degree(monkeypatch):
    def restart(*args):
        raise AssertionError("per-degree Legendre restart")

    monkeypatch.setattr(harmonic, "c_l", restart)
    monkeypatch.setattr(harmonic, "legendre_rational", restart)
    certs = certify_c_range(300)
    assert [c.l for c in certs] == list(range(301))
    assert verify_cl_csv(cl_csv(certs)) == (True, [])
    lat = build_anstar(3)
    pts = voronoi_vertices(lat)
    spec = zonal_spectrum(pts, pts[0], lat.gram, 12)
    cert = json.loads(reports.dump_json(reports.spectrum_certificate(spec)))
    assert reports.verify_certificate(cert) == (True, [])


def test_verify_cl_csv_checks_every_exact_row():
    lines = cl_csv(certify_c_range(220)).split("\n")

    def with_row(l, value, status):
        forged = list(lines)
        residue = forged[l + 1].split(",")[2]
        forged[l + 1] = f"{l},{value},{residue},{status}"
        return verify_cl_csv("\n".join(forged))

    assert with_row(200, "1", "nonzero-exact") == (False, ["row 200: stored value wrong"])
    assert with_row(210, "1", "nonzero-exact") == (False, ["row 210: stored value wrong"])
    # a correct exact value above the default exact range is still checked and accepted
    assert with_row(210, reports.rat_str(c_l(210)), "nonzero-exact") == (True, [])
    # c_0 = 12, accepted only as rat_str writes it
    assert with_row(0, "12", "nonzero-exact") == (True, [])
    for text in ("24/2", "12/1", " 12", "12.0", "+12", "1.2e1"):
        ok, bad = with_row(0, text, "nonzero-exact")
        assert (ok, bad) == (False, [f"row 0: malformed field: not a rational as written: {text!r}"])


def test_verify_cl_csv_reads_integers_only_as_written():
    lines = cl_csv(certify_c_range(20)).split("\n")

    def forged(row, field, text):
        out = list(lines)
        parts = out[row + 1].split(",")
        parts[field] = text
        out[row + 1] = ",".join(parts)
        return verify_cl_csv("\n".join(out))

    assert forged(0, 0, "0") == (True, [])
    for text in (" 0", "+0", "00", "0_0"):
        assert forged(0, 0, text) == (
            False, [f"row 0: malformed field: not an integer as written: {text!r}"]
        )
    residue = lines[5].split(",")[2]
    assert forged(4, 2, "+" + residue) == (
        False, [f"row 4: malformed field: not an integer as written: '+{residue}'"]
    )


def test_verify_cl_csv_steps_only_to_the_last_exact_row(monkeypatch):
    stepped = []
    text = cl_csv(certify_c_range(300))
    real = harmonic.scaled_c_l_values

    def counted():
        for l, value in enumerate(real()):
            stepped.append(l)
            yield value

    monkeypatch.setattr(harmonic, "scaled_c_l_values", counted)
    assert verify_cl_csv(text) == (True, [])
    assert stepped == list(range(201))


def test_verify_spectrum_rederives_every_multiplier():
    lat = build_anstar(3)
    pts = voronoi_vertices(lat)
    spec = zonal_spectrum(pts, pts[0], lat.gram, 6)
    cert = json.loads(reports.dump_json(reports.spectrum_certificate(spec)))
    forged = dict(cert, multipliers=[*cert["multipliers"][:4], "1", *cert["multipliers"][5:]])
    assert reports.verify_certificate(forged) == (False, ["multipliers[4] is not its re-derived value"])
    # Forgeries of the inputs that `zonal` never writes: a negative degree,
    # the counts out of cosine order, one cosine over two rows, a zero count.
    counts = cert["cosine_counts"]
    assert counts[1] == ["-4/5", 3]
    for forged, line in (
        (dict(cert, lmax=-1, multipliers=[]), "lmax must be nonnegative"),
        (dict(cert, cosine_counts=counts[::-1]), "cosine_counts[0][0] is not its re-derived value"),
        (
            dict(cert, cosine_counts=[counts[0], ["-4/5", 1], ["-4/5", 2], *counts[2:]]),
            "cosine_counts is not its re-derived value",
        ),
        (dict(cert, cosine_counts=[["1", 0], *counts]), "every cosine count must be positive"),
    ):
        ok, bad = reports.verify_certificate(forged)
        assert not ok and line in bad, forged["cosine_counts"]
    # the measure on one antipodal pair: consistent with its own cosines, not the c_l
    pair = {
        "kind": "zonal-spectrum", "lmax": 4, "mass": "1",
        "cosine_counts": [["-1", 1], ["1", 1]], "multipliers": ["1", "0", "1", "0", "1"],
    }
    assert reports.verify_certificate(pair) == (
        False, [f"even multiplier {l} differs from c_{l}" for l in (0, 2, 4)]
    )


def test_checks_survive_optimized_python():
    # python -O strips asserts; these checks must raise all the same
    script = """
from ballcover import harmonic
harmonic.c_l_table = lambda n: [0] * (n + 1)
for call, exc in (
    (lambda: harmonic.raw_residue_row(1), ValueError),
    (lambda: harmonic.certify_c_range(10), RuntimeError),
):
    try:
        call()
    except exc as e:
        print(type(e).__name__)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(ballcover.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError", "RuntimeError"]


def test_zonal_spectrum_rejects_bad_points():
    lat = build_anstar(3)
    pts = voronoi_vertices(lat)
    with pytest.raises(ValueError, match="off the vertex sphere"):
        zonal_spectrum([*pts, [2 * x for x in pts[0]]], pts[0], lat.gram, 4)
    with pytest.raises(ValueError, match="pole"):
        zonal_spectrum(pts[1:], pts[0], lat.gram, 4)
