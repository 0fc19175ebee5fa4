"""Exact Legendre sums, multipliers c_l, mod-16 residue certificates, zonal spectra."""

import math
from fractions import Fraction

from ballcover.harmonic import (
    c_l,
    c_l_scaled_residue,
    certify_c_range,
    legendre_rational,
    raw_residue_row,
    rescaled_q_sequence_mod16,
    weighted_residue_rows,
    zonal_spectrum,
)
from ballcover.lattice import build_anstar, covering_radius, voronoi_vertices


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
    for l in range(201):
        scaled = 5**l * math.factorial(l) * c_l(l)
        assert scaled.denominator == 1


def test_residue_agrees_with_exact_value():
    for l in range(201):
        scaled = int(5**l * math.factorial(l) * c_l(l))
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
