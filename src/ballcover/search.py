"""The rotation search behind `construct`.

A scan screens every rotation of a deterministic grid in floats, ranks the
rotations by an exact bound on what each can certify, and runs the exact
construction (`CoverEngine.construct`) only on those that can still win
(`rotation_scan`).  The engine's set-up solves the per-vertex equations
once for a basis of radial tables (`_treqn_columns`), so no rotation solves
a linear system.

The records and the derivations that `construct` and `verify` share live
in `perturbation`: the exact tail here derives its record only through
`perturbation.cover_record`, stepping the contraction until the record's
own vertex checks pass, and a scan is `perturbation.scan_record` of the
winner, the derivation the verifier re-runs on the certificate's inputs.
Checking a scan therefore never loads this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .bodies import RadialBody, rho as body_rho
from .lattice import LatticeModel, PrimitiveSimplex, build_anstar, covering_radius, negative_pairs
from .linalg import (
    MatQ,
    Rat,
    VecQ,
    gram_inverse,
    integer_form,
    integer_scaled,
    map_matrix,
    solve_columns,
    trace_product,
    vec_scale,
)
from .perturbation import (
    CoverConstruction,
    ScanReport,
    _apply_transposed,
    _int_mat_vec,
    _simplex_form,
    _unit,
    check_body,
    cover_record,
    grid_rotation,
    scan_record,
    simplex_weights,
    trace_identity_sum,
)

# _certify_delta raises the contraction in grains of 2^-DELTA_BITS.
DELTA_BITS = 40


class TreqnSolution(NamedTuple):
    m_form: MatQ
    translations: tuple[VecQ, ...]


def _antipodal_index(simplices: Sequence[PrimitiveSimplex]) -> tuple[tuple[int, ...], ...]:
    """Number k of the {x, -x} pair of every vertex x = simplices[i].x[j], the
    pairs in the sorted order of their smaller vertices.  Raises ValueError
    when the vertices are not closed under negation."""
    points = {x for s in simplices for x in s.x}
    if any(vec_scale(-1, x) not in points for x in points):
        raise ValueError("vertex set not closed under negation")
    number = {}
    for k, x in enumerate(sorted({min(x, vec_scale(-1, x)) for x in points})):
        number[x] = number[vec_scale(-1, x)] = k
    return tuple(tuple(number[x] for x in s.x) for s in simplices)


def _pair_values(
    rho: Sequence[Sequence[Rat]], index: Sequence[Sequence[int]]
) -> list[Rat]:
    """rho's value on each {x, -x} pair; ValueError if a pair disagrees."""
    values: dict[int, Rat] = {}
    for row, keys in zip(rho, index, strict=True):
        for r, k in zip(row, keys, strict=True):
            if values.setdefault(k, Fraction(r)) != Fraction(r):
                raise ValueError("rho breaks the +/- vertex symmetry")
    return [values[k] for k in range(len(values))]


def _check_trace_identity(trace_m: Rat, expected: Rat) -> None:
    """Require trace M = sum ups_i alpha_ij rho_ij, raising (not asserting)."""
    if trace_m != expected:
        raise RuntimeError(f"trace identity fails: {trace_m} != {expected}")


def _treqn_columns(
    columns: Sequence, simplices: Sequence[PrimitiveSimplex], index, upsilon, gram: MatQ
) -> tuple[list, int, list, int]:
    """Solve <x_ij, M x_ij + t_i> = cr2 rho_ij, M = sum_a c_a G^-1 Q_a of least
    norm under trace(A B), for the tables rho_ij = columns[k][index[i][j]]
    at once: (maps, map_den, translations, t_den), M = maps[k] / map_den and
    t_i = translations[i][k] / t_den.  One elimination of [Gamma | R] gives
    every c, one of [rows_i | B_i] per simplex every t_i; each column is
    checked as one solve is (re-substitution, determined and consistent
    translations, M meeting each constraint, the trace identity)."""
    vz, v_scale = integer_scaled(columns)
    constrained = [i for i, _ in negative_pairs(simplices)]
    ginv = gram_inverse(gram)
    a_maps = [map_matrix(ginv, _simplex_form(simplices[i], gram)) for i in constrained]
    rhs = [
        [sum(a * v[k] for a, k in zip(simplices[i].alpha, index[i])) / v_scale for v in vz]
        for i in constrained
    ]
    n = len(gram)
    flat, a_scale = integer_scaled([row for a in a_maps for row in a])
    az = [flat[r : r + n] for r in range(0, len(flat), n)]
    gamma = [[Fraction(_int_trace(a, b), a_scale * a_scale) for b in az] for a in az]
    coeffs, c_den = solve_columns(gamma, rhs)
    maps = [[[sum(map(mul, c, e)) for e in zip(*rows)] for rows in zip(*az)] for c in zip(*coeffs)]
    map_den = c_den * a_scale
    ups_alpha = [u * a for u, s in zip(upsilon, simplices) for a in s.alpha]
    (weights,), w_scale = integer_scaled([ups_alpha])
    for k, (m, v) in enumerate(zip(maps, vz)):
        for a, want in zip(az, rhs):
            if Fraction(_int_trace(m, a), map_den * a_scale) != want[k]:
                raise RuntimeError("least-norm solution misses a constraint")
        expected = sum(w * v[p] for w, p in zip(weights, chain(*index)))
        _check_trace_identity(
            Fraction(sum(m[r][r] for r in range(n)), map_den), Fraction(expected, w_scale * v_scale)
        )
    gz, gram_scale = integer_form(gram)
    solutions = []
    for i, s in enumerate(simplices):
        xz, x_den = s.x_integer
        rows = [_int_mat_vec(gz, x) for x in xz]
        # The system times gram_scale * x_den, so rows = G x_j is integer, and
        # times c = map_den * x_den * v_scale * den(cr2), so b is: t = z / (d c).
        p, q = s.cr2.numerator, s.cr2.denominator
        b = [
            [
                p * gram_scale * x_den * x_den * map_den * v[k]
                - q * v_scale * sum(map(mul, w, _int_mat_vec(m, x)))
                for v, m in zip(vz, maps)
            ]
            for x, w, k in zip(xz, rows, index[i])
        ]
        try:
            z, d = solve_columns(rows, b)
        except ValueError as e:
            raise RuntimeError("translation system must be determined") from e
        solutions.append((z, d * map_den * x_den * v_scale * q))
    t_den = math.lcm(*(d for _, d in solutions))
    translations = [[[c * (t_den // d) for c in t] for t in zip(*z)] for z, d in solutions]
    return maps, map_den, translations, t_den


def solve_treqn(
    rho: Sequence[Sequence[Rat]],
    simplices: Sequence[PrimitiveSimplex],
    upsilon: Sequence[Rat],
    gram: MatQ,
) -> TreqnSolution:
    """The one-table case of _treqn_columns, with M as its form G M.  rho[i][j]
    aligns with simplices[i].x[j] and must agree across each +/- pair (an
    even perturbation sees antipodal vertices identically), else ValueError."""
    index = _antipodal_index(simplices)
    basis = _treqn_columns([_pair_values(rho, index)], simplices, index, upsilon, gram)
    return _combined(basis, [1], 1, gram)


def _combined(basis: tuple, values: Sequence[int], scale: int, gram: MatQ) -> TreqnSolution:
    """sum_k values[k] / scale times the solutions in basis, an output of
    _treqn_columns, with M as its form G M."""
    maps, map_den, translations, t_den = basis
    gz, gram_scale = integer_form(gram)
    m = _int_mat_mul(gz, [[sum(map(mul, values, e)) for e in zip(*rows)] for rows in zip(*maps)])
    t = [[sum(map(mul, values, e)) for e in zip(*t_i)] for t_i in translations]
    return TreqnSolution(
        m_form=tuple(tuple(Fraction(c, gram_scale * map_den * scale) for c in row) for row in m),
        translations=tuple(tuple(Fraction(c, t_den * scale) for c in t_i) for t_i in t),
    )


class Screen(NamedTuple):
    """One rotation's float screen: pair values nums / 2^shift after the
    re-targeting, and the float contraction."""

    nums: list[int]
    shift: int
    delta_float: float


class CoverEngine:
    """Shared exact data for repeated covering constructions on one model.

    The per-vertex equations are linear in the rho table, and a table with
    the +/- symmetry has 12 free values, one per {x, -x} pair of the 24
    vertices (numbered by `index`).  Setup solves them for the 12 unit
    tables at once (`_treqn_columns`); `solve` combines the basis solutions
    exactly, as solve_treqn would: per rotation no system is solved.  Each
    deformed vertex is affine in the same values v:
    y = x + sum_k v_k (M_k x + t_k).  Setup scales every vertex's map
    [x | M_0 x + t_0 | ...] to integers over one denominator, so at dyadic
    values v = nums / 2^shift the screen gets every embedded direction from
    exact integer numerators (`_pair_directions`); each float is a quotient
    of integers, which Python rounds correctly, exactly as float() rounds
    the equal Fraction.  The vertex -x has the negated map, and bodies.rho
    is exactly even, so the screen works once per {x, -x} pair: one
    integer direction, one rotation and one radial evaluation.

    `construct` is the float `screen` followed by the exact tail: `solve`,
    then `_certify_delta`, which builds `perturbation.cover_record`, the
    verifier's own derivation, at each candidate contraction and returns
    the first record whose vertex checks all pass.  The record's vertices
    come from the verifier's integer kernel
    (`perturbation.deformed_vertices`): M, the vertices, the translations
    and the embedding scaled to integers once, every float a correctly
    rounded quotient of integers.  `rank_key` bounds the tail's det_ratio
    from a screen alone, on the integer tables of the 12 basis maps, so a
    scan certifies only the rotations that can still win.
    """

    def __init__(self, lat: LatticeModel):
        if lat.n != 3 or lat.embedding is None:
            raise ValueError("the cover engine needs the embedded 3-dimensional model")
        self.lat = lat
        self.gram = lat.gram
        self.ginv = gram_inverse(lat.gram)
        self.mu2, self.simplices = covering_radius(lat)
        self.upsilon = simplex_weights(lat, self.simplices)
        self.mu = math.sqrt(float(self.mu2))
        self.index = _antipodal_index(self.simplices)
        pairs = range(1 + max(map(max, self.index)))
        units = [[int(c == k) for c in pairs] for k in pairs]
        self.basis = _treqn_columns(units, self.simplices, self.index, self.upsilon, self.gram)
        maps, map_den, translations, t_den = self.basis
        # Vertex v = (i, j) in simplex order and its pair number.  Its affine
        # map is the 3 x 13 matrix [x | M_0 x + t_i0 | ... | M_11 x + t_i11],
        # applied to (1, v_0, ..., v_11); all 24 are scaled by self.scale.
        self.positions = tuple(
            (i, j, x) for i, s in enumerate(self.simplices) for j, x in enumerate(s.x)
        )
        self.pair_of = tuple(k for keys in self.index for k in keys)
        points, point_scale = integer_scaled([x for _, _, x in self.positions])
        move_den = map_den * point_scale
        den = math.lcm(move_den, t_den)
        columns = []
        for (i, _, _), x in zip(self.positions, points):
            columns.append([c * (den // point_scale) for c in x])
            columns.extend(
                [m * (den // move_den) + t * (den // t_den) for m, t in zip(_int_mat_vec(a, x), tk)]
                for a, tk in zip(maps, translations[i])
            )
        ints, self.scale = _lowest_terms(columns, den)
        width = len(maps) + 1
        vertex_maps = [tuple(zip(*ints[v : v + width])) for v in range(0, len(ints), width)]
        # M = sum_k v_k M_k; entry (r, c) of every basis map over one common
        # denominator, for rank_key's det(Id + M).
        entries, self._map_scale = _lowest_terms([row for m in maps for row in m], map_den)
        by_map = [entries[r : r + 3] for r in range(0, len(entries), 3)]
        self._map_entries = [[list(e) for e in zip(*rows)] for rows in zip(*by_map)]
        embedding, self._embedding_scale = integer_scaled(lat.embedding)
        # The embedded vertex maps E A, so one integer product gives the
        # embedded numerators.
        self._embedded_maps = [_int_mat_mul(embedding, a) for a in vertex_maps]
        # x and -x have negated maps, so the screen forms one product per
        # pair, with the map of the pair's first vertex.
        self._twins = [[v for v, p in enumerate(self.pair_of) if p == k] for k in range(width - 1)]
        for v, w in self._twins:
            if self._embedded_maps[w] != [[-c for c in row] for row in self._embedded_maps[v]]:
                raise RuntimeError("a vertex map is not the negated map of its antipode")
        self.directions = tuple(d for d, _ in self._pair_directions([0] * len(pairs), 0))

    def solve(self, rho: Sequence[Sequence[Rat]]) -> TreqnSolution:
        """solve_treqn(rho, simplices, upsilon, gram) by the precomputed operator.

        Raises ValueError for a table that breaks the +/- vertex symmetry
        and RuntimeError if the trace identity fails, as solve_treqn does.
        """
        (values,), scale = integer_scaled([_pair_values(rho, self.index)])
        sol = _combined(self.basis, values, scale, self.gram)
        expected = trace_identity_sum(rho, self.simplices, self.upsilon)
        _check_trace_identity(trace_product(self.ginv, sol.m_form), expected)
        return sol

    def _pair_directions(
        self, nums: Sequence[int], shift: int
    ) -> list[tuple[tuple[float, ...], float]]:
        """_unit_direction of each pair's first deformed vertex at the pair
        values nums / 2^shift, float for float, from the integer tables.
        The twin's is its exact negation: the integer product negates, and
        IEEE rounding is sign-symmetric."""
        den = (self._embedding_scale * self.scale) << shift
        point = [1 << shift, *nums]
        return [
            _unit([c / den for c in _int_mat_vec(self._embedded_maps[v], point)])
            for v, _ in self._twins
        ]

    def screen(
        self,
        body: RadialBody,
        rotation: Optional[tuple[tuple[float, ...], ...]] = None,
    ) -> Screen:
        """The float re-targeting of the per-vertex equations for the rotated
        body: the pair values and the float contraction.  Forms no Fraction."""
        directions = self.directions
        if rotation is not None:
            directions = [_apply_transposed(rotation, d) for d in directions]
        nums, shift = _dyadic([body_rho(body, d) for d in directions])
        # Re-target the per-vertex equations by the measured radial excess a
        # few times: the leftover contraction is then higher order in the
        # amplitude instead of quadratic.  Updates go through one value per
        # antipodal pair, keeping the +/- symmetry exact; the values stay
        # dyadic, held as integers over 2^shift.
        for step in range(4):
            delta_float = 0.0
            excess = []
            for d, ny in self._pair_directions(nums, shift):
                if rotation is not None:
                    d = _apply_transposed(rotation, d)
                r_val = 1.0 + body_rho(body, d)
                delta_float = max(delta_float, 1.0 - self.mu * r_val / ny)
                excess.append(ny / (self.mu * r_val) - 1.0)
            if step == 3 or max(map(abs, excess)) <= 2.0**-34:
                break
            moved, by = _dyadic(excess)
            top = max(shift, by)
            nums = [
                (n << (top - shift)) - (m << (top - by)) for n, m in zip(nums, moved)
            ]
            shift = top
        return Screen(nums=nums, shift=shift, delta_float=delta_float)

    def rank_key(self, screened: Screen) -> Rat:
        """K = (1 - delta0)^3 det(Id + M) at the screened pair values, or 0
        when det(Id + M) <= 0; exact, from the integer tables.

        delta0 is the contraction _certify_delta starts from, and the
        certified delta never lies below it, so K is at least the det_ratio
        that `construct` certifies for the same rotation.
        """
        den = self._map_scale << screened.shift
        n = [
            [
                den * (r == c) + sum(map(mul, screened.nums, self._map_entries[r][c]))
                for c in range(3)
            ]
            for r in range(3)
        ]
        det_n = (
            n[0][0] * (n[1][1] * n[2][2] - n[1][2] * n[2][1])
            - n[0][1] * (n[1][0] * n[2][2] - n[1][2] * n[2][0])
            + n[0][2] * (n[1][0] * n[2][1] - n[1][1] * n[2][0])
        )
        if det_n <= 0:
            return Fraction(0)
        keep = (1 << DELTA_BITS) - _start_grains(screened.delta_float)
        return Fraction(keep**3 * det_n, (den << DELTA_BITS) ** 3)

    def construct(
        self,
        body: RadialBody,
        rotation: Optional[tuple[tuple[float, ...], ...]] = None,
    ) -> CoverConstruction:
        """Covering construction for the rotated body (exactly verified):
        the float screen, the exact solve, and cover_record at the least
        contraction whose checks pass."""
        check_body(body)
        screened = self.screen(body, rotation)
        values = [Fraction(n, 1 << screened.shift) for n in screened.nums]
        table = tuple(tuple(values[k] for k in keys) for keys in self.index)
        sol = self.solve(table)
        record = partial(cover_record, self.lat, body, rotation, table, sol.m_form, sol.translations)
        return self._certify_delta(screened.delta_float, record)

    def _certify_delta(self, delta_float: float, record) -> CoverConstruction:
        """record(delta) at the first delta, from the float contraction
        rounded up (_start_grains) and then one grain of 2^-DELTA_BITS at a
        time, whose every vertex check has lhs <= rhs."""
        start = _start_grains(delta_float)
        for grains in range(start, start + 128):
            delta = Fraction(grains, 1 << DELTA_BITS)
            if delta >= 1:
                raise RuntimeError("contraction reached 1")
            c = record(delta)
            if all(k.lhs <= k.rhs for k in c.checks):
                return c
        raise RuntimeError("contraction certification did not settle")


def _start_grains(delta_float: float) -> int:
    """The contraction _certify_delta starts from, in grains of 2^-DELTA_BITS:
    delta_float rounded up with one grain to spare, or 0 when it is not
    positive."""
    if delta_float > 0:
        return math.ceil(delta_float * (1 << DELTA_BITS)) + 1
    return 0


def _dyadic(values: Sequence) -> tuple[list[int], int]:
    """Integers nums and shift with values[k] = nums[k] / 2^shift exactly.

    Takes floats, ints and dyadic Fractions; raises ValueError for a
    rational whose denominator is not a power of two.
    """
    ratios = [v.as_integer_ratio() for v in values]
    if any(d & (d - 1) for _, d in ratios):
        raise ValueError("values must be dyadic rationals")
    shift = max((d.bit_length() - 1 for _, d in ratios), default=0)
    return [n << (shift + 1 - d.bit_length()) for n, d in ratios], shift


def _int_trace(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> int:
    return sum(map(mul, chain(*a), chain(*zip(*b))))


def _int_mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def _lowest_terms(ints: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """The rationals ints / den as integer_scaled gives them: the common
    factor of den and every entry divided out."""
    g = math.gcd(den, *(c for row in ints for c in row))
    return [[c // g for c in row] for row in ints], den // g


@lru_cache(maxsize=1)
def _engine() -> CoverEngine:
    return CoverEngine(build_anstar(3))


def build_cover(
    body: RadialBody,
    rotation: Optional[tuple[tuple[float, ...], ...]] = None,
) -> CoverConstruction:
    return _engine().construct(body, rotation=rotation)


def rotation_grid(size: int) -> tuple[tuple[tuple[float, ...], ...], ...]:
    """Seed-free low-discrepancy rotation sample: grid_rotation(i, size)
    for i below size."""
    return tuple(grid_rotation(i, size) for i in range(size))


def rotation_scan(body: RadialBody, grid_size: int = 1000) -> ScanReport:
    """Try a deterministic rotation grid; keep the best determinant ratio.

    The construction for the best rotation covers the body with density at
    most ball_density * volume_bound / det_ratio, where volume_bound is the
    exact upper bound bodies.volume_ratio on vol K / vol B.  The body covers
    more thinly than the ball, so Delta_K = 1 - theta(ball) / theta(body)
    is negative, whenever det_ratio > volume_bound (`scan_densities`).

    Filter, then certify: every rotation gets the float screen and its
    exact rank key K (CoverEngine.rank_key), an upper bound on the
    det_ratio that `construct` would certify.  Rotations are certified
    in decreasing K, lower index first among equal keys, until the next
    one can no longer beat the best certified ratio; equal ratios go to
    the lower index.  The winner is the one an exhaustive scan finds.
    """
    if grid_size < 1:
        raise ValueError("the rotation grid must hold at least one rotation")
    check_body(body)
    engine = _engine()
    grid = rotation_grid(grid_size)
    keys = [engine.rank_key(engine.screen(body, u)) for u in grid]
    best = None
    best_idx = -1
    for idx in sorted(range(grid_size), key=lambda i: (-keys[i], i)):
        # The ratio is at most the key: once a rotation can neither beat the
        # best ratio nor tie it at a lower index, no later one can.
        if best is not None and (keys[idx], -idx) < (best.det_ratio, -best_idx):
            break
        c = engine.construct(body, rotation=grid[idx])
        if best is None or (c.det_ratio, -idx) > (best.det_ratio, -best_idx):
            best = c
            best_idx = idx
    return scan_record(engine.lat, body, grid_size, best_idx, best)
