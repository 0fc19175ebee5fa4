"""Star bodies given by small radial perturbations of the unit ball.

A body is r_K(u) = 1 + rho(u) with rho a finite expansion in real spherical
harmonics Y_lm, normalized so that the average of Y_lm^2 over the sphere is
1 (then |Y_lm| <= sqrt(2l+1) everywhere, by the addition theorem).  This is
the module's float boundary: coefficients and evaluations are floats, while
everything downstream that must be exact converts sampled values to
rationals explicitly.

Evaluation uses no angle (harmonic_sum): products of the unit direction's
coordinates and the associated Legendre recurrence in z, so it stays
accurate near the poles and Y_lm(-d) = (-1)^l Y_lm(d) bit for bit.  The rho
of a body with even degrees only is then exactly even, rho(-d) == rho(d),
and the cover screen evaluates one direction of each antipodal pair.

The certified asphericity `eps` of a body is sum |a_lm| sqrt(2l+1), a true
upper bound for sup |rho|, not a sampled estimate.  `volume_ratio` turns
the same bound into an exact rational upper bound on vol K / vol B.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

# Binary precision of the rounded-up square roots in volume_ratio.
SQRT_BITS = 32


class RadialBody(NamedTuple):
    coeffs: tuple[tuple[int, int, float], ...]
    eps: float
    lmax: int


def make_body(coeffs: Iterable[tuple[int, int, float]]) -> RadialBody:
    cleaned = []
    seen = set()
    for l, m, a in coeffs:
        l, m, a = int(l), int(m), float(a)
        if l < 0 or abs(m) > l:
            raise ValueError(f"bad harmonic index ({l}, {m})")
        if (l, m) in seen:
            raise ValueError(f"duplicate harmonic index ({l}, {m})")
        seen.add((l, m))
        if a != 0.0:
            cleaned.append((l, m, a))
    cleaned.sort()
    eps = 0.0
    for l, _, a in cleaned:  # left to right: builtin sum compensates from Python 3.12 on
        eps += abs(a) * math.sqrt(2 * l + 1)
    lmax = max((l for l, _, _ in cleaned), default=0)
    return RadialBody(coeffs=tuple(cleaned), eps=eps, lmax=lmax)


def ball_body() -> RadialBody:
    return make_body([])


def is_normalized(body: RadialBody) -> bool:
    """No degree-0 (volume) and no degree-2 components."""
    return all(l not in (0, 2) for l, _, _ in body.coeffs)


@lru_cache(maxsize=None)
def _norm_lm(l: int, m: int) -> float:
    """sqrt(c (2l+1) (l-m)! / (l+m)!) (2m-1)!! for the order m >= 0, with c = 1
    for m = 0 and 2 otherwise: the factor that turns Q_lm into Y_lm."""
    odd = math.prod(range(1, 2 * m, 2))
    return math.sqrt(
        (1 if m == 0 else 2) * (2 * l + 1) * math.factorial(l - m) * odd * odd
        / math.factorial(l + m)
    )


def real_sph_harm(l: int, m: int, xyz: Sequence[float]) -> float:
    """Real harmonic with unit quadratic mean over the sphere: the one-row
    harmonic_sum."""
    if not abs(m) <= l:
        raise ValueError(f"order {m} outside -{l}..{l}")
    return harmonic_sum(((l, m, 1.0),), xyz)


def rho(body: RadialBody, xyz: Sequence[float]) -> float:
    return harmonic_sum(body.coeffs, xyz)


def harmonic_sum(
    coeffs: Sequence[tuple[int, int, float]], xyz: Sequence[float]
) -> float:
    """sum a * Y_lm(xyz) over the (l, m, a) rows, in row order.

    Angle-free, from the unit direction (x, y, z): Y_lm is _norm_lm times
    Q_lm(z) = P_lm(z) / (sin^|m| theta (2|m|-1)!!) times Re (m > 0) or
    Im (m < 0) of (x + iy)^|m| = sin^|m| theta e^{i|m| phi}, whose powers
    come from complex products, once per direction.  Every step is odd or
    even in the direction and IEEE rounding is sign-symmetric, so each term
    at -d is (-1)^l times its value at d, bit for bit.

    Q_lm runs the associated Legendre recurrence in the degree from
    Q_mm = 1 (and Q_{m-1,m} = 0), once per order |m|: each row steps it on
    to its degree, so the rows of one order share it when, as make_body
    sorts them, their degrees increase.  For m = 0 its values are P_l's,
    bit for bit as the recurrence started at P_0 = 1 and P_1 = z gives them.
    """
    if not coeffs:
        return 0
    x, y, z = xyz
    r = math.sqrt(x * x + y * y + z * z)
    if not r > 0:
        raise ValueError("direction must be nonzero")
    ct = max(-1.0, min(1.0, z / r))
    powers = [(1.0, 0.0), (x / r, y / r)]
    recurrences = {}  # |m| -> (degree ll, Q_{ll-1,|m|}, Q_{ll,|m|})
    total = 0.0
    for l, m, a in coeffs:
        am = abs(m)
        ll, q0, q1 = recurrences.get(am) or (am, 0.0, 1.0)
        if ll > l:  # a lower degree than the last row's starts it again
            ll, q0, q1 = am, 0.0, 1.0
        while ll < l:
            ll += 1
            q0, q1 = q1, (ct * (2 * ll - 1) * q1 - (ll + am - 1) * q0) / (ll - am)
        recurrences[am] = ll, q0, q1
        value = _norm_lm(l, am) * q1
        if m:
            while len(powers) <= am:
                (re, im), (px, py) = powers[-1], powers[1]
                powers.append((re * px - im * py, re * py + im * px))
            value *= powers[am][0 if m > 0 else 1]
        total += a * value  # left to right, as for eps in make_body
    return total


def volume_ratio(body: RadialBody) -> Fraction:
    """An exact rational upper bound on vol K / vol B; exactly 1 for the ball.

    vol K / vol B is the average of r_K^3 = (1 + rho)^3 over the sphere.  The
    harmonics have unit quadratic mean and Y_00 = 1, so the average is
    1 + 3 a_00 + 3 sum a^2 + <rho^3>, and <rho^3> <= sup |rho| sum a^2 <=
    eps sum a^2.  Each a is its exact dyadic Fraction, and eps is summed with
    every sqrt(2l+1) rounded up to a multiple of 2^-SQRT_BITS.
    """
    exact = [(l, Fraction(a)) for l, _, a in body.coeffs]
    mean = sum((a for l, a in exact if l == 0), Fraction(0))
    sum_sq = sum(a * a for _, a in exact)
    eps = sum(abs(a) * _sqrt_above(2 * l + 1) for l, a in exact)
    return 1 + 3 * mean + (3 + eps) * sum_sq


def _sqrt_above(n: int) -> Fraction:
    """A rational upper bound on sqrt(n), within 2^-SQRT_BITS of it."""
    return Fraction(math.isqrt(n << (2 * SQRT_BITS)) + 1, 1 << SQRT_BITS)


def body_to_dict(body: RadialBody) -> dict:
    return {
        "kind": "radial-body",
        "harmonics": [[l, m, a] for l, m, a in body.coeffs],
    }


def body_from_dict(data: dict) -> RadialBody:
    if not isinstance(data, dict) or "harmonics" not in data:
        raise ValueError("body file must contain a 'harmonics' list")
    rows = data["harmonics"]
    if not isinstance(rows, list) or not all(
        isinstance(r, (list, tuple)) and len(r) == 3 and type(r[0]) is type(r[1]) is int
        and type(r[2]) in (int, float)
        for r in rows
    ):
        raise ValueError("'harmonics' must be a list of [int degree, int order, coefficient]")
    return make_body(rows)


def load_body(path: str) -> RadialBody:
    with open(path) as fh:
        return body_from_dict(json.load(fh))
