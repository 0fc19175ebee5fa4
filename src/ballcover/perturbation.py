"""Covering lattices for perturbed balls: the records, the derivations
that the construction and the verifier share, and the scan's check.

The construction works on the three dimensional lattice model and emits
exactly verifiable data.  Given a star body r_K = 1 + rho with small rho,
read rho at the 24 Voronoi vertex directions, solve for a symmetric M and
per simplex translations t_i with

    <x_ij, M x_ij + t_i> = cr2 * rho_ij        (all maximal simplices i),

contract by 1 - delta until every deformed vertex y_ij = (Id + M) x_ij + t_i
verifiably satisfies (1-delta)^2 |y_ij|^2 <= mu2 r_K(y_ij)^2, and report the
covering lattice (1-delta)(Id+M) Lambda together with its exact determinant
ratio.  The first order term of the ratio is trace M = sum ups_i a_ij rho_ij
by construction; a tangent-line bound on the needed contraction gives the
reported lower bound for the ratio.

A scan's record is one derivation from its declared inputs: the body, the
grid size and index, and the best construction's rho, M, translations and
delta (`cover_record`, `scan_record`).  `construct` builds its records with
it, and `verify_scan` re-runs it and compares the certificate with the
re-emitted one leaf for leaf, so no stored float is trusted to a tolerance.

The rotation search that builds a scan (`CoverEngine`, `rotation_scan`) is
in `search`, and the extensibility witness in `witness`.  The names of
them that the acceptance gate and the benchmark import from here are
served by the module's __getattr__, so loading this module, as checking a
scan does, runs neither.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .bodies import (
    RadialBody,
    body_from_dict,
    is_normalized,
    rho as body_rho,
    volume_ratio,
)
from .lattice import (
    LatticeModel,
    PrimitiveSimplex,
    build_anstar,
    covering_radius,
    q_map,
)
from .linalg import (
    MatQ,
    Rat,
    VecQ,
    combination_test,
    det,
    gram_inverse,
    identity,
    integer_form,
    integer_scaled,
    map_inner,
    map_matrix,
    mat_add,
    trace,
)

# The names served from here, each loaded with its module on first use.
_SERVED = {
    "AugmentedBall": "witness",
    "exact_cr_after": "witness",
    "extension_witness": "witness",
    "member_augmented_ball": "witness",
    "CoverEngine": "search",
    "build_cover": "search",
    "rotation_scan": "search",
    "solve_treqn": "search",
}


def __getattr__(name: str):
    if name in _SERVED:
        from importlib import import_module

        return getattr(import_module(f".{_SERVED[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def first_order_cr(m_form: MatQ, simplex: PrimitiveSimplex, gram: MatQ) -> Rat:
    """First order squared-circumradius ratio 1 + <M, Q_S> (exact).

    The exact ratio for T = Id + M/2 exceeds this by a nonnegative error
    that shrinks quadratically with M.
    """
    return 1 + map_inner(gram_inverse(gram), m_form, _simplex_form(simplex, gram))


@lru_cache(maxsize=64)
def _simplex_form(simplex: PrimitiveSimplex, gram: MatQ) -> MatQ:
    """Form of Q_S, computed once per simplex and Gram matrix."""
    return q_map(simplex, gram).form


def simplex_weights(lat: LatticeModel, simplices: Sequence[PrimitiveSimplex]) -> tuple[Rat, ...]:
    """Weights ups_i with sum_i ups_i Q_i = Id over the maximal simplices,
    all equal to n / len(simplices).

    The class maps carry class 0 onto every class, so the lattice's
    automorphisms act transitively on the simplices and averaging a
    resolution over them gives equal weights; each Q_i has unit trace, so
    they sum to n.  One exact re-sum against G, the target classify
    resolves, confirms them; RuntimeError if it fails.
    """
    if any(u is None for u in lat.class_maps[1:]):
        raise RuntimeError("the class maps do not reach every simplex class")
    weights = (Fraction(lat.n, len(simplices)),) * len(simplices)
    forms = [_simplex_form(s, lat.gram) for s in simplices]
    if not combination_test(forms, lat.gram)(weights):
        raise RuntimeError("equal simplex weights do not resolve the identity")
    return weights


def trace_identity_sum(
    rho: Sequence[Sequence[Rat]],
    simplices: Sequence[PrimitiveSimplex],
    upsilon: Sequence[Rat],
) -> Rat:
    """sum ups_i alpha_ij rho_ij, the value trace M must take."""
    return sum(
        u * sum(a * Fraction(r) for a, r in zip(s.alpha, rho_i))
        for u, s, rho_i in zip(upsilon, simplices, rho)
    )


class VertexCheck(NamedTuple):
    """One exact membership check of a contracted deformed vertex."""

    simplex: int
    vertex: int
    y: VecQ
    norm2: Rat
    radial_value: float
    lhs: Rat
    rhs: Rat
    margin: float


class CoverConstruction(NamedTuple):
    rotation: Optional[tuple[tuple[float, ...], ...]]
    rho: tuple[tuple[Rat, ...], ...]
    m_form: MatQ
    m_matrix: MatQ
    translations: tuple[VecQ, ...]
    trace_m: Rat
    sum_abs_rho: Rat
    delta: Rat
    det_ratio: Rat
    delta_tangent: float
    epsilon_prime: float
    lower_bound: float
    checks: tuple[VertexCheck, ...]


def check_body(body: RadialBody) -> None:
    """ValueError unless the cover construction accepts the body."""
    if not is_normalized(body):
        raise ValueError("body must have no degree 0 or 2 terms")
    if any(l % 2 for l, _, _ in body.coeffs):
        raise ValueError("body must be centrally symmetric (even degrees)")
    if not body.eps <= 0.1:
        raise ValueError("asphericity above threshold 1/10")


def deformed_vertices(
    body: RadialBody, rotation, lat: LatticeModel, simplices, m_mat: MatQ, translations
) -> list[tuple]:
    """(i, j, y, <y, y>, r_K(y), |y|, float <x, y>, |x|) for every vertex
    x = simplices[i].x[j] in position order, y = x + M x + t_i, with r_K that
    of the rotated body.  cover_record takes the vertex checks and the inputs
    of cover_floats from it.

    Runs on integers, from the moves of _vertex_moves with G as L G
    (integer_form) and the embedding E as integers over one scale: y, E y,
    <y, y>, <x, y> and <x, x> are integer numerators over known
    denominators, and each float is an int / int quotient, which Python
    rounds correctly, so it equals float() of the equal Fraction bit for
    bit."""
    gz, g = integer_form(lat.gram)
    ez, e_den = integer_scaled(lat.embedding)
    out = []
    for i, j, x, x_den, move, den in _vertex_moves(lat, simplices, m_mat, translations):
        f = den // x_den
        y = [f * c + m for c, m in zip(x, move, strict=True)]
        gy = _int_mat_vec(gz, y)
        xx = sum(map(mul, x, _int_mat_vec(gz, x)))
        d, ny = _unit([c / (e_den * den) for c in _int_mat_vec(ez, y)])
        out.append((
            i,
            j,
            tuple(Fraction(c, den) for c in y),
            Fraction(sum(map(mul, y, gy)), g * den * den),
            _radial(body, rotation, d),
            ny,
            sum(map(mul, x, gy)) / (g * x_den * den),
            math.sqrt(xx / (g * x_den * x_den)),
        ))
    return out


def _vertex_moves(lat: LatticeModel, simplices, m_mat: MatQ, translations) -> list[tuple]:
    """(i, j, xz, x_den, mz, den) for every vertex x = simplices[i].x[j] in
    position order: x = xz / x_den and its move M x + t_i = mz / den, all
    integers.  M and the translations are scaled to integers once, and x is
    its simplex's x_integer.  ValueError unless M is n x n and there is one
    translation of length n per simplex."""
    n = len(lat.gram)
    if len(m_mat) != n or any(len(row) != n for row in m_mat):
        raise ValueError(f"M must be a {n} x {n} matrix")
    if len(translations) != len(simplices) or any(len(t) != n for t in translations):
        raise ValueError(f"one translation of length {n} per simplex expected")
    mz, m_den = integer_scaled(m_mat)
    tz, t_den = integer_scaled(translations)
    out = []
    for i, (s, t) in enumerate(zip(simplices, tz, strict=True)):
        xs, x_den = s.x_integer
        den = math.lcm(m_den * x_den, t_den)
        a, b = den // (m_den * x_den), den // t_den
        for j, x in enumerate(xs):
            move = [a * m + b * c for m, c in zip(_int_mat_vec(mz, x), t, strict=True)]
            out.append((i, j, x, x_den, move, den))
    return out


def cover_floats(eps: float, mu2: Rat, delta: Rat, trace_m: Rat, sum_abs: Rat, vertices):
    """delta_tangent, epsilon_prime, lower_bound and every check's margin of a
    cover construction, from its exact delta, trace M and sum |rho| and each
    deformed vertex's (r_K, |y|, float <x, y>, |x|).  The verifier calls it
    on inputs it re-derives, so each stored float must equal its value."""
    mu = math.sqrt(float(mu2))
    beta = math.acos((1.0 - eps) / (1.0 + eps)) if eps > 0 else 0.0
    delta_tan = 0.0
    margins = []
    for r_val, ny, dot, nx in vertices:
        margins.append(mu * r_val - (1.0 - float(delta)) * ny)
        gamma = math.acos(max(-1.0, min(1.0, dot / (nx * ny))))
        denom = 1.0 - 0.5 * (beta - gamma) ** 2
        if not denom > 0.5:
            raise RuntimeError("tangent bound unusable at this asphericity")
        bc = (1.0 + eps) * gamma * beta / denom
        delta_tan = max(delta_tan, bc / (ny / mu))
    eps_prime = delta_tan / float(sum_abs) if sum_abs != 0 else 0.0
    return delta_tan, eps_prime, 1.0 + float(trace_m) - delta_tan, margins


def cover_record(
    lat: LatticeModel, body: RadialBody, rotation, rho, m_form: MatQ, translations, delta: Rat
) -> CoverConstruction:
    """The cover construction for the rotated body with these rho, M (as its
    form G M), translations and contraction: every other field derived from
    them.  Its vertex checks are the one place the membership inequality is
    formed: `construct` accepts a contraction on them, and the verifier
    re-derives a scan's best construction with this function."""
    mu2, simplices = covering_radius(lat)
    m_mat = map_matrix(gram_inverse(lat.gram), m_form)
    vertices = deformed_vertices(body, rotation, lat, simplices, m_mat, translations)
    trace_m = trace(m_mat)
    sum_abs = sum(abs(r) for row in rho for r in row)
    *floats, margins = cover_floats(
        body.eps, mu2, delta, trace_m, sum_abs, [v[4:] for v in vertices]
    )
    shrink2 = (1 - delta) ** 2
    checks = tuple(
        VertexCheck(i, j, y, norm2, r_val, shrink2 * norm2, mu2 * Fraction(r_val) ** 2, margin)
        for (i, j, y, norm2, r_val, *_), margin in zip(vertices, margins)
    )
    det_ratio = (1 - delta) ** 3 * det(mat_add(identity(3), m_mat))
    return CoverConstruction(
        rotation, rho, m_form, m_mat, translations, trace_m, sum_abs, delta, det_ratio,
        *floats, checks,
    )


def _int_mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in a]


def _radial(
    body: RadialBody, rotation: Optional[Sequence[Sequence[float]]], d
) -> float:
    """Float r_K = 1 + rho of the rotated body in the unit direction d."""
    if rotation is not None:
        d = _apply_transposed(rotation, d)
    return 1.0 + body_rho(body, d)


def _unit(e: Sequence[float]) -> tuple[tuple[float, ...], float]:
    """The float vector e over its length, and the length."""
    # left to right, as make_body adds eps: builtin sum compensates from Python 3.12 on
    ne = math.sqrt(e[0] * e[0] + e[1] * e[1] + e[2] * e[2])
    return (e[0] / ne, e[1] / ne, e[2] / ne), ne


def _apply_transposed(
    u: tuple[tuple[float, ...], ...], d: tuple[float, float, float]
) -> tuple[float, float, float]:
    return (
        u[0][0] * d[0] + u[1][0] * d[1] + u[2][0] * d[2],
        u[0][1] * d[0] + u[1][1] * d[1] + u[2][1] * d[2],
        u[0][2] * d[0] + u[1][2] * d[1] + u[2][2] * d[2],
    )


def _quaternion_matrix(
    q: tuple[float, float, float, float]
) -> tuple[tuple[float, ...], ...]:
    x, y, z, w = q
    s = 2.0 / (x * x + y * y + z * z + w * w)
    return (
        (1 - s * (y * y + z * z), s * (x * y - z * w), s * (x * z + y * w)),
        (s * (x * y + z * w), 1 - s * (x * x + z * z), s * (y * z - x * w)),
        (s * (x * z - y * w), s * (y * z + x * w), 1 - s * (x * x + y * y)),
    )


def grid_rotation(index: int, size: int) -> tuple[tuple[float, ...], ...]:
    """Rotation number `index` of the `size`-rotation grid (double spiral
    on S^3)."""
    phi = math.sqrt(2.0)
    psi = 1.533751168755204288118041
    s = index + 0.5
    t = s / size
    r = math.sqrt(t)
    big = math.sqrt(1.0 - t)
    alpha = 2.0 * math.pi * s / phi
    beta = 2.0 * math.pi * s / psi
    return _quaternion_matrix(
        (
            r * math.sin(alpha),
            r * math.cos(alpha),
            big * math.sin(beta),
            big * math.cos(beta),
        )
    )


class ScanReport(NamedTuple):
    grid_size: int
    volume_bound: Rat
    ball_density: float
    best_index: int
    best: CoverConstruction
    best_density: float
    margin: float
    delta_k_bound: float


def scan_densities(
    mu2: Rat, det_gram: Rat, volume_bound: Rat, det_ratio: Rat
) -> tuple[float, float, float, float]:
    """ball_density, best_density, margin and delta_k_bound of a scan.

    The ball's covering density is (4 pi / 3) mu^3 / sqrt(det G).  The
    construction covers the body with density at most ball_density *
    volume_bound / det_ratio, so the margin and the Delta_K bound are
    floats of exact rationals: the margin is positive and the bound
    negative exactly when det_ratio > volume_bound.
    """
    ball = (4.0 * math.pi / 3.0) * math.sqrt(mu2) ** 3 / math.sqrt(det_gram)
    return (
        ball,
        ball * float(volume_bound / det_ratio),
        ball * float(1 - volume_bound / det_ratio),
        float(1 - det_ratio / volume_bound),
    )


def scan_record(
    lat: LatticeModel, body: RadialBody, grid_size: int, best_index: int, best: CoverConstruction
) -> ScanReport:
    """The scan whose best construction is best, grid rotation best_index:
    the exact volume bound of the body and the densities derived."""
    mu2, _ = covering_radius(lat)
    volume_bound = volume_ratio(body)
    ball, best_density, margin, delta_k = scan_densities(
        mu2, det(lat.gram), volume_bound, best.det_ratio
    )
    return ScanReport(
        grid_size, volume_bound, ball, best_index, best, best_density, margin, delta_k
    )


def verify_scan(data: dict, bad: list[str]) -> None:
    """Check a scan certificate by re-deriving it from its inputs: the body,
    grid_size, best_index and the best construction's rho, m_form,
    translations and delta.  cover_record and scan_record, which `construct`
    builds its records with, derive every other field, and the certificate
    must be the re-emitted one, leaf for leaf and type for type; each leaf
    that differs is named by its path.  Checked on the inputs: the body is
    one the construction accepts, best_index is on the grid, 0 <= delta < 1,
    the per-vertex equations and the trace identity hold exactly; on the
    record: every membership holds and the margin has the sign of
    det_ratio - volume_bound."""
    from .reports import decode, not_rederived, scan_certificate

    s = decode(ScanReport, data)
    body = body_from_dict(data["best"]["body"])
    try:
        check_body(body)
    except ValueError as e:
        bad.append(str(e))
        return
    if not 0 <= s.best_index < s.grid_size:
        bad.append("best rotation index must be an integer in [0, grid_size)")
        return
    c = s.best
    if not 0 <= c.delta < 1:
        bad.append("contraction outside [0, 1)")
    lat = build_anstar(3)
    rotation = grid_rotation(s.best_index, s.grid_size)
    try:
        best = cover_record(lat, body, rotation, c.rho, c.m_form, c.translations, c.delta)
    except RuntimeError as e:
        bad.append(f"cover floats cannot be re-derived: {e}")
        return
    report = scan_record(lat, body, s.grid_size, s.best_index, best)
    _, simplices = covering_radius(lat)
    # <x, M x + t_i> = x^T (L G) mz / (L x_den den), against cr2 rho on integers.
    gz, g = integer_form(lat.gram)
    for i, j, x, x_den, move, den in _vertex_moves(lat, simplices, best.m_matrix, c.translations):
        want = simplices[i].cr2 * c.rho[i][j]
        lhs = sum(map(mul, x, _int_mat_vec(gz, move)))
        if lhs * want.denominator != want.numerator * g * x_den * den:
            bad.append(f"linear system residual at ({i}, {j})")
    if best.trace_m != trace_identity_sum(c.rho, simplices, simplex_weights(lat, simplices)):
        bad.append("trace identity fails")
    for k in best.checks:
        if k.lhs > k.rhs:
            bad.append(f"membership fails at ({k.simplex}, {k.vertex})")
    if (report.margin > 0) != (best.det_ratio > report.volume_bound):
        bad.append("margin sign contradicts det_ratio > volume_bound")
    bad.extend(not_rederived(data, scan_certificate(body, report)))
