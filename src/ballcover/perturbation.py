"""Covering lattices for perturbed balls.

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

The extensibility witness is in `witness`.  The names of it that the
acceptance gate imports from here are served by the module's __getattr__,
so loading this module does not run `witness`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .bodies import (
    RadialBody,
    body_from_dict,
    body_to_dict,
    is_normalized,
    rho as body_rho,
    volume_ratio,
)
from .eutaxy import (
    gram_inverse,
    map_inner,
    map_matrix,
    q_map,
)
from .lattice import (
    LatticeModel,
    PrimitiveSimplex,
    build_anstar,
    covering_radius,
    negative_pairs,
)
from .linalg import (
    MatQ,
    Rat,
    VecQ,
    combination_test,
    det,
    gram_dot,
    identity,
    integer_form,
    integer_scaled,
    mat_add,
    mat_vec,
    solve_columns,
    trace,
    trace_product,
    vec_add,
    vec_scale,
)

# The witness names served from here, loaded with `witness` on first use.
_WITNESS_NAMES = ("AugmentedBall", "exact_cr_after", "extension_witness", "member_augmented_ball")


def __getattr__(name: str):
    if name in _WITNESS_NAMES:
        from . import witness

        return getattr(witness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# _certify_delta raises the contraction in grains of 2^-DELTA_BITS.
DELTA_BITS = 40


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


def deformed_vertex(m_mat: MatQ, x: VecQ, t: VecQ) -> VecQ:
    """y = x + M x + t, the vertex x moved by the map and its translation."""
    return vec_add(vec_add(x, mat_vec(m_mat, x)), t)


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


class Screen(NamedTuple):
    """One rotation's float screen: pair values nums / 2^shift after the
    re-targeting, and the float contraction."""

    nums: list[int]
    shift: int
    delta_float: float


def check_body(body: RadialBody) -> None:
    """ValueError unless the cover construction accepts the body."""
    if not is_normalized(body):
        raise ValueError("body must have no degree 0 or 2 terms")
    if any(l % 2 for l, _, _ in body.coeffs):
        raise ValueError("body must be centrally symmetric (even degrees)")
    if not body.eps <= 0.1:
        raise ValueError("asphericity above threshold 1/10")


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

    `construct` is the float `screen` followed by the exact tail (solve,
    `deformed_vertices`, `_certify_delta`, det and the vertex checks), in
    the verifier's own Fraction derivation: a scan certifies one rotation
    on every body tried, so a faster tail would only duplicate it.
    `rank_key` bounds the tail's det_ratio from a screen alone, on the
    integer tables of the 12 basis maps, so a scan certifies only the
    rotations that can still win.
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
                r_val = _radial(body, rotation, d)
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
        the float screen, then the exact tail."""
        check_body(body)
        screened = self.screen(body, rotation)
        values = [Fraction(n, 1 << screened.shift) for n in screened.nums]
        table = tuple(tuple(values[k] for k in keys) for keys in self.index)
        sol = self.solve(table)
        m_mat = map_matrix(self.ginv, sol.m_form)
        records = deformed_vertices(
            body, rotation, self.lat, self.simplices, m_mat, sol.translations
        )
        trace_m = trace(m_mat)
        sum_abs = sum(abs(r) for row in table for r in row)
        delta = self._certify_delta(screened.delta_float, records)
        delta_tan, eps_prime, lower_bound, margins = cover_floats(
            body.eps, self.mu2, delta, trace_m, sum_abs, [v[4:] for v in records]
        )
        checks = []
        shrink2 = (1 - delta) ** 2
        for (i, j, y, norm2, r_val, *_), margin in zip(records, margins):
            lhs = shrink2 * norm2
            rhs = self.mu2 * Fraction(r_val) ** 2
            if lhs > rhs:
                raise RuntimeError(f"certified contraction fails at ({i}, {j})")
            checks.append(VertexCheck(i, j, y, norm2, r_val, lhs, rhs, margin))
        det_ratio = (1 - delta) ** 3 * det(mat_add(identity(3), m_mat))

        return CoverConstruction(
            rotation=rotation,
            rho=table,
            m_form=sol.m_form,
            m_matrix=m_mat,
            translations=sol.translations,
            trace_m=trace_m,
            sum_abs_rho=sum_abs,
            delta=delta,
            det_ratio=det_ratio,
            delta_tangent=delta_tan,
            epsilon_prime=eps_prime,
            lower_bound=lower_bound,
            checks=tuple(checks),
        )

    def _certify_delta(self, delta_float: float, records) -> Rat:
        """Round the float contraction up until every check passes exactly."""
        grain = Fraction(1, 1 << DELTA_BITS)
        delta = Fraction(_start_grains(delta_float), 1 << DELTA_BITS)
        for _ in range(128):
            if delta >= 1:
                raise RuntimeError("contraction reached 1")
            ok = all(
                (1 - delta) ** 2 * norm2 <= self.mu2 * Fraction(r_val) ** 2
                for _, _, _, norm2, r_val, *_ in records
            )
            if ok:
                return delta
            delta += grain
        raise RuntimeError("contraction certification did not settle")


def deformed_vertices(
    body: RadialBody, rotation, lat: LatticeModel, simplices, m_mat: MatQ, translations
) -> list[tuple]:
    """(i, j, y, <y, y>, r_K(y), |y|, float <x, y>, |x|) for every vertex
    x = simplices[i].x[j] in position order, y = x + M x + t_i, with r_K that
    of the rotated body.  The construction and the verifier both take the
    vertex checks and the inputs of cover_floats from it."""
    gram = lat.gram
    out = []
    for i, s in enumerate(simplices):
        for j, x in enumerate(s.x):
            y = deformed_vertex(m_mat, x, translations[i])
            d, ny = _unit_direction(lat.embedding, y)
            dot, nx = float(gram_dot(gram, x, y)), math.sqrt(float(gram_dot(gram, x, x)))
            out.append((i, j, y, gram_dot(gram, y, y), _radial(body, rotation, d), ny, dot, nx))
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


def _int_mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in a]


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


def _radial(
    body: RadialBody, rotation: Optional[Sequence[Sequence[float]]], d
) -> float:
    """Float r_K = 1 + rho of the rotated body in the unit direction d."""
    if rotation is not None:
        d = _apply_transposed(rotation, d)
    return 1.0 + body_rho(body, d)


def _unit_direction(embedding: MatQ, y: VecQ) -> tuple[tuple[float, ...], float]:
    """Float unit vector toward lattice point y, and |y|."""
    return _unit([float(c) for c in mat_vec(embedding, y)])


def _unit(e: Sequence[float]) -> tuple[tuple[float, ...], float]:
    """The float vector e over its length, and the length."""
    ne = math.sqrt(sum(c * c for c in e))
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


def rotation_grid(size: int) -> tuple[tuple[tuple[float, ...], ...], ...]:
    """Seed-free low-discrepancy rotation sample: grid_rotation(i, size)
    for i below size."""
    return tuple(grid_rotation(i, size) for i in range(size))


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
    volume_bound = volume_ratio(body)
    ball, best_density, margin, delta_k = scan_densities(
        engine.mu2, det(engine.gram), volume_bound, best.det_ratio
    )
    return ScanReport(
        grid_size=grid_size,
        volume_bound=volume_bound,
        ball_density=ball,
        best_index=best_idx,
        best=best,
        best_density=best_density,
        margin=margin,
        delta_k_bound=delta_k,
    )


def verify_scan(data: dict, bad: list[str]) -> None:
    """Check a scan certificate: its best construction (_verify_cover), the
    volume bound re-derived from the body, the four floats from that bound
    and the exact det ratio, which must be equal, and the rotation, which
    must be grid rotation best_index (one rotation is computed, not the
    grid)."""
    from .reports import decode

    s = decode(ScanReport, data)
    if data["best"]["kind"] != "cover-construction":
        bad.append("the best construction must be of kind 'cover-construction'")
    lat = build_anstar(3)
    mu2, simplices = covering_radius(lat)
    body = body_from_dict(data["best"]["body"])
    _verify_cover(data["best"], s.best, body, lat, mu2, simplices, bad)
    volume_bound = volume_ratio(body)
    if s.volume_bound != volume_bound:
        bad.append("volume bound is not the exact bound of the body")
    derived = scan_densities(mu2, det(lat.gram), volume_bound, s.best.det_ratio)
    for key, want in zip(("ball_density", "best_density", "margin", "delta_k_bound"), derived):
        if getattr(s, key) != want:
            bad.append(f"{key} is not its value from the exact volume bound and det ratio")
    if (s.margin > 0) != (s.best.det_ratio > volume_bound):
        bad.append("margin sign contradicts det_ratio > volume_bound")
    if not 0 <= s.best_index < s.grid_size:
        bad.append("best rotation index must be an integer in [0, grid_size)")
    elif s.best.rotation != grid_rotation(s.best_index, s.grid_size):
        bad.append("stored rotation is not grid rotation best_index")


def _verify_cover(
    data: dict, c: CoverConstruction, body: RadialBody, lat: LatticeModel, mu2: Rat, simplices, bad
) -> None:
    """Check a scan's best construction c, decoded from data, for body.  The
    residuals, trace identity, sum |rho| and det ratio are re-derived
    exactly, and the deformed vertices by the construction's own
    deformed_vertices.  A stored radial value must agree with the body
    within FLOAT_TOLERANCE, and membership is re-checked in rationals on it;
    cover_floats re-derives the other floats, which must be equal."""
    from .reports import FLOAT_TOLERANCE, _same_json

    if not _same_json(data["body"], body_to_dict(body)):
        bad.append("body is not written as the construction writes it")
    if not is_normalized(body) or any(l % 2 for l, _, _ in body.coeffs):
        bad.append("body outside the normalized even class")
    if body.eps > 0.1:
        bad.append("body asphericity above threshold")
    gram = lat.gram
    upsilon = simplex_weights(lat, simplices)
    if c.m_matrix != map_matrix(gram_inverse(gram), c.m_form):
        bad.append("matrix and form views of M disagree")
    if not (0 <= c.delta < 1):
        bad.append("contraction outside [0, 1)")
    for i, s in enumerate(simplices):
        for j, x in enumerate(s.x):
            lhs = gram_dot(gram, x, vec_add(mat_vec(c.m_matrix, x), c.translations[i]))
            if lhs != s.cr2 * c.rho[i][j]:
                bad.append(f"linear system residual at ({i}, {j})")
    expected_trace = trace_identity_sum(c.rho, simplices, upsilon)
    if c.trace_m != expected_trace or trace(c.m_matrix) != expected_trace:
        bad.append("trace identity fails")
    rho_abs = sum(abs(r) for row in c.rho for r in row)
    if c.sum_abs_rho != rho_abs:
        bad.append("sum of |rho| mismatched")
    if c.det_ratio != (1 - c.delta) ** 3 * det(mat_add(identity(3), c.m_matrix)):
        bad.append("determinant ratio mismatched")
    if data["float_tolerance"] != FLOAT_TOLERANCE:
        bad.append(f"float tolerance must be {FLOAT_TOLERANCE!r}")
    vertices = deformed_vertices(body, c.rotation, lat, simplices, c.m_matrix, c.translations)
    if [(k.simplex, k.vertex) for k in c.checks] != [v[:2] for v in vertices]:
        bad.append("membership log must check every vertex once, in order")
        return
    shrink2 = (1 - c.delta) ** 2
    for k, (i, j, y, norm2, recomputed, *_) in zip(c.checks, vertices):
        if y != k.y:
            bad.append(f"deformed vertex mismatch at ({i}, {j})")
        if norm2 != k.norm2:
            bad.append(f"vertex norm mismatch at ({i}, {j})")
        if abs(k.radial_value - recomputed) > FLOAT_TOLERANCE:
            bad.append(f"radial value does not match the body at ({i}, {j})")
        lhs = shrink2 * norm2
        rhs = mu2 * Fraction(k.radial_value) ** 2
        if lhs != k.lhs or rhs != k.rhs:
            bad.append(f"membership sides mismatched at ({i}, {j})")
        if lhs > rhs:
            bad.append(f"membership fails at ({i}, {j})")
    try:
        derived = cover_floats(
            body.eps, mu2, c.delta, expected_trace, rho_abs, [v[4:] for v in vertices]
        )
    except RuntimeError as e:
        bad.append(f"cover floats cannot be re-derived: {e}")
        return
    *stored, margins = derived
    for key, want in zip(("delta_tangent", "epsilon_prime", "lower_bound"), stored):
        if getattr(c, key) != want:
            bad.append(f"{key} is not its value from the certificate's exact data")
    for k, want in zip(c.checks, margins):
        if k.margin != want:
            bad.append(f"margin at ({k.simplex}, {k.vertex}) is not its re-derived value")
