"""Reference code the tests compare the package against.

Each function here is used by tests alone: a plainer, slower derivation of
something the package computes another way, or a helper only tests call.
"""

import json
import math
from fractions import Fraction
from itertools import islice
from typing import Optional, Sequence

from ballcover.bodies import RadialBody, body_to_dict
from ballcover.harmonic import legendre_values
from ballcover.lattice import DeloneSimplex, LatticeModel
from ballcover.linalg import (
    MatQ,
    Rat,
    VecQ,
    det,
    gram_dot,
    integer_scaled,
    mat,
    mat_inv,
    mat_mul,
    mat_vec,
    pivot,
    solve_affine,
    solve_columns,
    transpose,
    vec_add,
)
from ballcover.perturbation import _int_mat_vec, _radial, _unit


# ------------------------------------------------------------------ linalg


def vec_dot(u: VecQ, v: VecQ) -> Rat:
    if len(u) != len(v):
        raise ValueError("vector lengths differ")
    return sum(x * y for x, y in zip(u, v))


def nullspace(a: MatQ) -> tuple[VecQ, ...]:
    return solve_affine(a, tuple(Fraction(0) for _ in a)).nullspace


def solve_square(a: MatQ, b: VecQ) -> VecQ:
    """Solve a square nonsingular system; raises SingularMatrixError."""
    z, d = solve_columns(a, [[x] for x in b])
    return tuple(Fraction(x, d) for x, in z)


# ----------------------------------------------------------------- lattice


def change_basis(lat: LatticeModel, u: MatQ) -> LatticeModel:
    """Rewrite the model in the basis B' = B U for unimodular integer U."""
    u = mat(u)
    if abs(det(u)) != 1:
        raise ValueError("basis change must be unimodular")
    uinv = mat_inv(u)
    if any(x.denominator != 1 for row in uinv for x in row):
        raise ValueError("basis change must be an integer matrix")
    gram = mat_mul(transpose(u), mat_mul(lat.gram, u))
    embedding = mat_mul(lat.embedding, u) if lat.embedding is not None else None
    classes = tuple(
        DeloneSimplex(
            vertices=tuple(mat_vec(uinv, v) for v in s.vertices), label=s.label
        )
        for s in lat.delone_classes
    )
    return LatticeModel(n=lat.n, gram=gram, embedding=embedding, delone_classes=classes)


# ---------------------------------------------------------------------- lp


def tableau_phase1(rows: Sequence[Sequence[Rat]], rhs: Sequence[Rat]) -> Optional[list[Rat]]:
    """Find x >= 0 with A x = b, or None.  Bland's rule, exact pivots.

    Rows with a negative rhs are negated and [A | b] is scaled by the lcm L of
    its denominators, so the tableau starts in integers; the artificial
    columns stay unit vectors.  That rescales every artificial variable by L
    and every phase-1 cost by the same positive factor, so each reduced-cost
    sign and each ratio comparison, hence each pivot, is the one the rational
    tableau would make.  Each pivot is the fraction-free `linalg.pivot`, so
    the tableau is T / d with d the determinant of the basis.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [Fraction(0)] * n
    signed = [
        [*row, b] if b >= 0 else [-x for x in (*row, b)] for row, b in zip(rows, rhs)
    ]
    ints, _ = integer_scaled(signed)
    total = n + m
    tab = [r[:n] + [int(j == i) for j in range(m)] + r[n:] for i, r in enumerate(ints)]
    basis = list(range(n, total))
    in_basis = [False] * n + [True] * m
    d = 1
    while True:
        # d * (reduced cost of column j) = d c_j - sum of the column over the
        # rows whose basic variable is artificial (cost 1; structurals cost 0)
        art = [tab[i] for i in range(m) if basis[i] >= n]
        enter = -1
        for j in range(total):
            if in_basis[j]:
                continue
            if (d if j >= n else 0) - sum(r[j] for r in art) < 0:
                enter = j
                break
        if enter < 0:
            if sum(r[total] for r in art) != 0:
                return None
            x = [Fraction(0)] * n
            for i in range(m):
                if basis[i] < n:
                    x[basis[i]] = Fraction(tab[i][total], d)
            return x
        # ratio test by cross-multiplication (pivot entries are positive)
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tab[i][total] * tab[leave][enter]
                rhs_best = tab[leave][total] * a
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # phase-1 objective is bounded below by zero, so a pivot always exists
            raise RuntimeError("unbounded phase-1 objective")
        d = pivot(tab, leave, enter, d)
        in_basis[basis[leave]] = False
        in_basis[enter] = True
        basis[leave] = enter



# ------------------------------------------------------------------ bodies


def save_body(body: RadialBody, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(body_to_dict(body), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- harmonic


def legendre_table(lmax: int, t: Rat) -> list[Rat]:
    """Exact [P_0(t), ..., P_lmax(t)]."""
    return list(islice(legendre_values(t), lmax + 1))


# ------------------------------------------------------------ perturbation


def deformed_vertex(m_mat: MatQ, x: VecQ, t: VecQ) -> VecQ:
    """y = x + M x + t, the vertex x moved by the map and its translation."""
    return vec_add(vec_add(x, mat_vec(m_mat, x)), t)


def unit_direction(embedding: MatQ, y: VecQ) -> tuple[tuple[float, ...], float]:
    """Float unit vector toward lattice point y, and |y|."""
    return _unit([float(c) for c in mat_vec(embedding, y)])


def fraction_deformed_vertices(body, rotation, lat, simplices, m_mat, translations) -> list[tuple]:
    """perturbation.deformed_vertices in Fractions, as it was derived before
    its integer kernel: each y from Fraction mat_vec, each inner product
    from gram_dot, each float from float() of an exact Fraction."""
    gram = lat.gram
    out = []
    for i, s in enumerate(simplices):
        for j, x in enumerate(s.x):
            y = deformed_vertex(m_mat, x, translations[i])
            d, ny = unit_direction(lat.embedding, y)
            dot, nx = float(gram_dot(gram, x, y)), math.sqrt(float(gram_dot(gram, x, x)))
            out.append((i, j, y, gram_dot(gram, y, y), _radial(body, rotation, d), ny, dot, nx))
    return out


# ------------------------------------------------------------------ search


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


def pair_directions(engine, nums: Sequence[int], shift: int) -> list[tuple[tuple[float, ...], float]]:
    """The screen's pair directions at the pair values nums / 2^shift from
    exact integer numerators, as the screen formed them before it held its
    values as floats: each float one quotient of integers, which Python
    rounds correctly."""
    den = (engine._embedding_scale * engine.scale) << shift
    point = [1 << shift, *nums]
    return [
        _unit([c / den for c in _int_mat_vec(engine._embedded_maps[v], point)])
        for v, _ in engine._twins
    ]
