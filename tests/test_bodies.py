"""Spherical harmonic basis normalization and body bookkeeping."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from ballcover.bodies import (
    _norm_lm,
    ball_body,
    body_from_dict,
    body_to_dict,
    harmonic_sum,
    is_normalized,
    load_body,
    make_body,
    real_sph_harm,
    rho,
    _sqrt_above,
    volume_ratio,
)

from oracles import save_body


def sphere_quadrature(n):
    z, wz = np.polynomial.legendre.leggauss(n)
    phi = 2.0 * math.pi * np.arange(2 * n) / (2 * n)
    pts = []
    wts = []
    for zi, wi in zip(z, wz):
        s = math.sqrt(1.0 - zi * zi)
        for p in phi:
            pts.append((s * math.cos(p), s * math.sin(p), zi))
            wts.append(wi / (2.0 * len(phi)))
    return pts, wts


def test_harmonics_orthonormal_under_average():
    pts, wts = sphere_quadrature(16)
    idx = [(0, 0), (1, 0), (1, 1), (2, -1), (3, 2), (4, 0), (4, -4), (6, 3)]
    for a in idx:
        for b in idx:
            acc = sum(
                w * real_sph_harm(*a, p) * real_sph_harm(*b, p)
                for p, w in zip(pts, wts)
            )
            assert abs(acc - (1.0 if a == b else 0.0)) < 1e-12


def test_harmonic_peak_values():
    # zonal harmonics attain sqrt(2l+1) at the pole
    for l in range(7):
        assert abs(real_sph_harm(l, 0, (0, 0, 1)) - math.sqrt(2 * l + 1)) < 1e-12


def reference_harmonic(l, m, xyz):
    """Y_lm at xyz in 60-digit decimals, independently of the program:
    Q = d^|m|/dt^|m| P_l(t) from P_l(t) = 2^-l sum_k (-1)^k C(l, k)
    C(2l - 2k, l) t^(l - 2k), and sin^|m| theta e^{i|m| phi} = (x + iy)^|m|
    by the binomial theorem."""
    am = abs(m)
    with localcontext() as ctx:
        ctx.prec = 60
        x, y, z = map(Decimal, xyz)
        r = (x * x + y * y + z * z).sqrt()
        x, y, t = x / r, y / r, z / r

        def power(v, n):
            return v**n if n else Decimal(1)

        q = sum(
            (-1) ** k * math.comb(l, k) * math.comb(2 * l - 2 * k, l)
            * math.perm(l - 2 * k, am) * power(t, l - 2 * k - am)
            for k in range((l - am) // 2 + 1)
        ) / Decimal(2) ** l
        # i^j = (-1)^(j // 2), times i for odd j
        part = sum(
            math.comb(am, j) * power(x, am - j) * power(y, j) * (-1) ** (j // 2)
            for j in range(0 if m >= 0 else 1, am + 1, 2)
        )
        c = 1 if m == 0 else 2
        norm = (Decimal(c * (2 * l + 1) * math.factorial(l - am)) / math.factorial(l + am)).sqrt()
        return norm * q * part


def test_harmonics_match_a_decimal_reference():
    # Generic directions, and directions within 1e-9 to 1e-2 of a pole,
    # where sin theta is not cancellation-free from cos theta.
    rng = random.Random(7)
    generic = [tuple(rng.gauss(0, 1) for _ in range(3)) for _ in range(20)]
    near_pole = []
    for _ in range(20):
        z = rng.choice((-1, 1)) * rng.uniform(0.5, 2.0)
        x, y = (
            rng.choice((-1, 1)) * abs(z) * 10 ** rng.uniform(-9, -2) for _ in range(2)
        )
        near_pole.append((x, y, z))
    worst = Decimal(0)
    for d in generic + near_pole:
        for l in range(13):
            for m in range(-l, l + 1):
                worst = max(worst, abs(Decimal(real_sph_harm(l, m, d)) - reference_harmonic(l, m, d)))
    assert worst <= Decimal("1e-13")


def per_row_harmonic_sum(coeffs, xyz):
    """harmonic_sum with each row's own recurrence from Q_mm = 1: the
    per-row evaluation whose bits a recurrence shared by the rows of one
    order must reproduce."""
    x, y, z = xyz
    r = math.sqrt(x * x + y * y + z * z)
    ct = max(-1.0, min(1.0, z / r))
    powers = [(1.0, 0.0), (x / r, y / r)]
    terms = []
    for l, m, a in coeffs:
        am = abs(m)
        q0, q1 = 0.0, 1.0
        for ll in range(am + 1, l + 1):
            q0, q1 = q1, (ct * (2 * ll - 1) * q1 - (ll + am - 1) * q0) / (ll - am)
        value = _norm_lm(l, am) * q1
        if m:
            while len(powers) <= am:
                (re, im), (px, py) = powers[-1], powers[1]
                powers.append((re * px - im * py, re * py + im * px))
            value *= powers[am][0 if m > 0 else 1]
        terms.append(a * value)
    return sum(terms)


def test_rows_of_one_order_share_its_recurrence_bit_for_bit():
    rng = random.Random(11)
    directions = [tuple(rng.gauss(0, 1) for _ in range(3)) for _ in range(200)]
    directions += [(0, 0, 1), (0, 0, -1), (1, 0, 0), (1e-9, -2e-9, 1)]
    bodies = (
        make_body([(6, 0, 0.003), (4, 0, -0.002)]),
        make_body([(4, 3, 0.002), (4, -3, -0.001), (6, 3, 0.0015), (6, -3, 0.0005), (6, 1, 0.0007)]),
    )
    for body in bodies:
        for d in directions:
            assert repr(rho(body, d)) == repr(per_row_harmonic_sum(body.coeffs, d)), d
            # rows out of degree order start their order's recurrence again
            rows = body.coeffs[::-1]
            assert repr(harmonic_sum(rows, d)) == repr(per_row_harmonic_sum(rows, d)), d


def test_certified_eps_dominates_samples():
    body = make_body([(4, 0, 0.01), (6, 2, -0.004), (4, -3, 0.002)])
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        worst = max(worst, abs(rho(body, v)))
    assert worst <= body.eps
    assert body.eps == pytest.approx(
        0.01 * 3 + 0.004 * math.sqrt(13) + 0.002 * 3, rel=1e-12
    )


def test_normalization_flag():
    assert is_normalized(make_body([(4, 0, 0.01)]))
    assert not is_normalized(make_body([(0, 0, 0.1)]))
    assert not is_normalized(make_body([(2, 1, 0.1), (4, 0, 0.01)]))
    assert is_normalized(ball_body())


def test_volume_ratio_ball_and_consistency():
    # The exact bound 1 + (3 + eps_bar) sum a^2 sits above the quadrature
    # value 1 + 3 sum a^2 + <rho^3>, and |<rho^3>| <= eps sum a^2.
    assert volume_ratio(ball_body()) == 1
    assert type(volume_ratio(ball_body())) is Fraction
    pts, wts = sphere_quadrature(20)
    bodies = [
        make_body([(4, 0, 0.01)]),
        make_body([(4, 0, -0.02 / 3)]),
        make_body([(4, 0, 0.01), (6, 2, -0.004), (4, -3, 0.002)]),
        make_body([(6, -5, 0.003), (4, 1, -0.001), (6, 6, 0.002)]),
        # Y_00 = 1 adds its coefficient to the mean of rho
        make_body([(0, 0, 0.01), (4, 0, -0.005)]),
    ]
    for body in bodies:
        got = volume_ratio(body)
        assert type(got) is Fraction
        mean = sum(Fraction(a) for l, _, a in body.coeffs if l == 0)
        sum_sq = sum(Fraction(a) ** 2 for _, _, a in body.coeffs)
        eps_bar = sum(abs(Fraction(a)) * _sqrt_above(2 * l + 1) for l, _, a in body.coeffs)
        assert 0 <= eps_bar - Fraction(body.eps) < 1e-9
        assert got == 1 + 3 * mean + (3 + eps_bar) * sum_sq
        brute = sum(w * (1.0 + rho(body, p)) ** 3 for p, w in zip(pts, wts))
        cubic = sum(w * rho(body, p) ** 3 for p, w in zip(pts, wts))
        assert brute < got <= brute + 2 * eps_bar * sum_sq
        assert abs(float(got) - brute - (float(eps_bar * sum_sq) - cubic)) < 1e-13
    assert all(_sqrt_above(n) ** 2 > n for n in range(1, 200))


def test_body_io_roundtrip(tmp_path):
    body = make_body([(4, 2, 0.003), (6, -5, -0.001)])
    path = tmp_path / "body.json"
    save_body(body, str(path))
    again = load_body(str(path))
    assert again == body
    assert body_from_dict(body_to_dict(body)) == body
    with pytest.raises(ValueError):
        body_from_dict({"nope": []})
    with pytest.raises(ValueError):
        body_from_dict({"harmonics": [[1, 2]]})
