"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  Nothing
in this module rounds: every result is an exact rational (or a structured
failure).  Floats are rejected unless converted explicitly by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

Rat = Fraction
VecQ = tuple[Rat, ...]
MatQ = tuple[VecQ, ...]


class SingularMatrixError(ValueError):
    """Raised when a square solve or inversion meets a singular matrix."""


class DependentConstraintsError(ValueError):
    """Raised when constraints assumed independent are not.

    The offending combination is exposed as `witness`: rational coefficients
    z, not all zero, with sum_k z_k * constraint_k = 0.
    """

    def __init__(self, message: str, witness: VecQ):
        super().__init__(message)
        self.witness = witness


def rat(x) -> Rat:
    """Coerce int, string like '3/4', or Fraction to Fraction.  No floats."""
    if isinstance(x, float):
        raise TypeError("refusing implicit float; use Fraction(float) explicitly")
    return Fraction(x)


def vec(entries: Sequence) -> VecQ:
    return tuple(rat(x) for x in entries)


def mat(rows: Sequence[Sequence]) -> MatQ:
    m = tuple(vec(row) for row in rows)
    assert all(len(row) == len(m[0]) for row in m), "ragged matrix"
    return m


def zeros(n: int, m: int) -> MatQ:
    return tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(n))


def identity(n: int) -> MatQ:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def transpose(a: MatQ) -> MatQ:
    return tuple(zip(*a))


def mat_vec(a: MatQ, v: VecQ) -> VecQ:
    assert len(a[0]) == len(v)
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def mat_mul(a: MatQ, b: MatQ) -> MatQ:
    assert len(a[0]) == len(b)
    bt = transpose(b)
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(len(ra))) for cb in bt) for ra in a
    )


def mat_add(a: MatQ, b: MatQ) -> MatQ:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Rat, a: MatQ) -> MatQ:
    return tuple(tuple(c * x for x in row) for row in a)


def vec_add(u: VecQ, v: VecQ) -> VecQ:
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u: VecQ, v: VecQ) -> VecQ:
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c: Rat, u: VecQ) -> VecQ:
    return tuple(c * x for x in u)


def vec_dot(u: VecQ, v: VecQ) -> Rat:
    assert len(u) == len(v)
    return sum(x * y for x, y in zip(u, v))


def gram_dot(g: MatQ, u: VecQ, v: VecQ) -> Rat:
    """Inner product u^T G v for a symmetric positive form G."""
    return vec_dot(u, mat_vec(g, v))


def outer(u: VecQ, v: VecQ) -> MatQ:
    return tuple(tuple(x * y for y in v) for x in u)


def trace(a: MatQ) -> Rat:
    return sum(a[i][i] for i in range(len(a)))


def trace_product(a: MatQ, b: MatQ) -> Rat:
    """trace(a * b); the Frobenius pairing when both are symmetric."""
    assert len(a[0]) == len(b)
    return sum(a[i][j] * b[j][i] for i in range(len(a)) for j in range(len(b)))


def is_symmetric(a: MatQ) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(i)
    )


def det(a: MatQ) -> Rat:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Rows are scaled to integers first so every intermediate division is an
    exact integer division; the accumulated scale is divided out at the end.
    """
    n = len(a)
    assert all(len(row) == n for row in a), "det needs a square matrix"
    if n == 0:
        return Fraction(1)
    scale = 1
    rows: list[list[int]] = []
    for row in a:
        rf = [Fraction(x) for x in row]
        den = math.lcm(*(f.denominator for f in rf))
        scale *= den
        rows.append([int(f * den) for f in rf])
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return Fraction(sign * rows[n - 1][n - 1], scale)


@dataclass(frozen=True)
class LinSolveResult:
    """Full solution set of A x = b.

    `particular` is one exact solution (free variables set to zero), or None
    when the system is inconsistent.  `nullspace` is a basis of solutions of
    A x = 0, so the solution set is particular + span(nullspace).
    """

    particular: Optional[VecQ]
    nullspace: tuple[VecQ, ...]

    @property
    def unique(self) -> bool:
        return self.particular is not None and not self.nullspace


def _rref(rows: list[list[Rat]]) -> tuple[list[list[Rat]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def solve_affine(a: MatQ, b: VecQ) -> LinSolveResult:
    """Solve A x = b exactly, reporting the whole affine solution set."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    assert len(b) == nrows
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    aug, pivots = _rref(aug) if nrows else ([], [])
    pivots = [c for c in pivots if c < ncols]
    consistent = all(
        row[ncols] == 0 for row in aug if all(x == 0 for x in row[:ncols])
    )
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[VecQ] = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -aug[r][fc]
        basis.append(tuple(v))
    particular: Optional[VecQ] = None
    if consistent:
        x = [Fraction(0)] * ncols
        for r, pc in enumerate(pivots):
            x[pc] = aug[r][ncols]
        particular = tuple(x)
        assert mat_vec(a, particular) == tuple(Fraction(v) for v in b)
    return LinSolveResult(particular=particular, nullspace=tuple(basis))


def nullspace(a: MatQ) -> tuple[VecQ, ...]:
    return solve_affine(a, tuple(Fraction(0) for _ in a)).nullspace


def solve_square(a: MatQ, b: VecQ) -> VecQ:
    """Solve a square nonsingular system; raises SingularMatrixError."""
    res = solve_affine(a, b)
    if not res.unique:
        raise SingularMatrixError("matrix is singular")
    return res.particular


def mat_inv(a: MatQ) -> MatQ:
    n = len(a)
    cols = [solve_square(a, tuple(identity(n)[j])) for j in range(n)]
    return transpose(mat(cols))


def min_norm_solution(
    constraints: Sequence[tuple[MatQ, Rat]],
    inner: Callable[[MatQ, MatQ], Rat] = trace_product,
) -> MatQ:
    """Least-norm symmetric M with <M, Q_k> = rho_k for all constraints.

    The norm and pairing come from `inner` (Frobenius by default).  The
    minimizer lies in the span of the constraint maps, so we solve the
    normal equations Gamma c = rho with Gamma the Gram matrix of the Q_k.
    The Q_k must be linearly independent; a dependency is reported via
    DependentConstraintsError together with a vanishing combination.
    """
    maps = [q for q, _ in constraints]
    rhos = vec([r for _, r in constraints])
    m = len(maps)
    assert m > 0, "need at least one constraint"
    gamma = mat([[inner(maps[i], maps[j]) for j in range(m)] for i in range(m)])
    ns = nullspace(gamma)
    if ns:
        # z in ker Gamma means |sum z_k Q_k|^2 = z^T Gamma z = 0 exactly.
        raise DependentConstraintsError("constraint maps are dependent", ns[0])
    coeff = solve_square(gamma, rhos)
    n = len(maps[0])
    out = zeros(n, n)
    for c, q in zip(coeff, maps):
        out = mat_add(out, mat_scale(c, q))
    for (q, r) in constraints:
        assert inner(out, q) == r
    return out
