"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  Nothing
in this module rounds: every result is an exact rational (or a structured
failure).  Floats are rejected unless converted explicitly by the caller.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

Rat = Fraction
VecQ = tuple[Rat, ...]
MatQ = tuple[VecQ, ...]


class SingularMatrixError(ValueError):
    """Raised when a square solve or inversion meets a singular matrix."""


class DependentConstraintsError(ValueError):
    """Raised when constraints assumed independent are not; `witness` holds
    rational z, not all zero, with sum_k z_k * constraint_k = 0."""

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
    if any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def zeros(n: int, m: int) -> MatQ:
    return tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(n))


def identity(n: int) -> MatQ:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def transpose(a: MatQ) -> MatQ:
    return tuple(zip(*a))


def mat_vec(a: MatQ, v: VecQ) -> VecQ:
    if len(a[0]) != len(v):
        raise ValueError("matrix columns and vector length differ")
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def mat_mul(a: MatQ, b: MatQ) -> MatQ:
    if len(a[0]) != len(b):
        raise ValueError("inner matrix dimensions differ")
    return tuple(tuple(sum(map(mul, ra, cb)) for cb in zip(*b)) for ra in a)


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


def gram_dot(g: MatQ, u: VecQ, v: VecQ) -> Rat:
    """Inner product u^T G v for a symmetric positive form G.

    Runs on integers: G as L G from `integer_form`, u and v times the lcm D
    of their denominators, so the value is (D u)^T (L G) (D v) / (L D^2).
    """
    gz, scale = integer_form(g)
    if len(u) != len(gz) or len(v) != len(gz[0]):
        raise ValueError("vector lengths differ from the form's size")
    (uz, vz), den = integer_scaled([u, v])
    total = sum(ui * sum(map(mul, row, vz)) for ui, row in zip(uz, gz) if ui)
    return Fraction(total, scale * den * den)


def trace(a: MatQ) -> Rat:
    return sum(a[i][i] for i in range(len(a)))


def trace_product(a: MatQ, b: MatQ) -> Rat:
    """trace(a * b); the Frobenius pairing when both are symmetric."""
    if len(a[0]) != len(b):
        raise ValueError("inner matrix dimensions differ")
    return sum(a[i][j] * b[j][i] for i in range(len(a)) for j in range(len(b)))


def is_symmetric(a: MatQ) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(i)
    )


class LinSolveResult(NamedTuple):
    """Full solution set of A x = b: particular + span(nullspace), where
    `particular` has the free variables zero, or is None when the system is
    inconsistent, and `nullspace` is a basis of solutions of A x = 0."""

    particular: Optional[VecQ]
    nullspace: tuple[VecQ, ...]

    @property
    def unique(self) -> bool:
        return self.particular is not None and not self.nullspace


def integer_scaled(rows: Sequence[Sequence[Rat]]) -> tuple[list[list[int]], int]:
    """The rows times the lcm L of all their denominators, as integers, and L."""
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    ints = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    return ints, scale


@lru_cache(maxsize=16)
def integer_form(g: MatQ) -> tuple[list[list[int]], int]:
    """integer_scaled(g), computed once per fixed Gram matrix (read-only)."""
    return integer_scaled(g)


def combination_test(mats: Sequence[MatQ], target: MatQ) -> Callable[..., bool]:
    """test(weights, drop=None): whether sum_k weights[k] * mats[k], mats[drop]
    left out, equals target exactly; False when the counts differ.

    The entrywise rows [mats[0][i][j], ..., target[i][j]] are scaled to
    integers once; each test scales the weights by the lcm W of their
    denominators, with a zero at drop, and checks sum_k (W w_k) m_k == W t.
    ValueError when a matrix and the target differ in shape.
    """
    shape = [len(row) for row in target]
    if any([len(row) for row in m] != shape for m in mats):
        raise ValueError("matrices and target differ in shape")
    rows, _ = integer_scaled(
        [[*(m[i][j] for m in mats), t] for i, row in enumerate(target) for j, t in enumerate(row)]
    )

    def test(weights: Sequence[Rat], drop: Optional[int] = None) -> bool:
        if len(weights) != len(mats) - (drop is not None):
            return False
        (wz,), den = integer_scaled([weights])
        if drop is not None:
            wz.insert(drop, 0)
        return all(sum(map(mul, wz, row)) == den * row[-1] for row in rows)

    return test


def is_combination(weights: Sequence[Rat], mats: Sequence[MatQ], target: MatQ) -> bool:
    """Whether sum_k weights[k] * mats[k] equals target exactly (combination_test)."""
    return combination_test(mats, target)(weights)


def pivot(tab: list[list[int]], r: int, c: int, d: int) -> int:
    """Fraction-free pivot on tab[r][c] in place, with tab / d the tableau.

    Other rows become (row * p - row[c] * tab[r]) // d with p = tab[r][c]:
    exact, as every entry stays a minor of the start (Edmonds 1967, Bareiss
    1968).  Returns p, the new d.
    """
    prow = tab[r]
    p = prow[c]
    for i, row in enumerate(tab):
        if i == r:
            continue
        f = row[c]
        if f:
            tab[i] = [(x * p - f * z) // d for x, z in zip(row, prow)]
        elif p != d:
            tab[i] = [x * p // d for x in row]
    return p


def _rref(tab: list[list[int]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer tableau in place.

    Returns (tab, pivot columns, d, sign): the RREF is tab / d, d is the
    determinant of the pivot block and sign the parity of the row swaps.
    """
    nrows = len(tab)
    ncols = len(tab[0]) if tab else 0
    pivots: list[int] = []
    d, sign, r = 1, 1, 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if tab[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            tab[r], tab[piv] = tab[piv], tab[r]
            sign = -sign
        d = pivot(tab, r, c, d)
        pivots.append(c)
        r += 1
    return tab, pivots, d, sign


def det(a: MatQ) -> Rat:
    """Exact determinant: sign * d / L^n from the elimination of L * a."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("det needs a square matrix")
    tab, scale = integer_scaled(a)
    _, pivots, d, sign = _rref(tab)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * d, scale**n)


def solve_affine(a: MatQ, b: VecQ) -> LinSolveResult:
    """Solve A x = b exactly, reporting the whole affine solution set."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if len(b) != nrows:
        raise ValueError("right-hand side length differs from the row count")
    tab, _ = integer_scaled([[*row, b[i]] for i, row in enumerate(a)])
    tab, pivots, d, _ = _rref(tab)
    pivots = [c for c in pivots if c < ncols]
    basis: list[VecQ] = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(int(c == fc)) for c in range(ncols)]
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-tab[r][fc], d)
        basis.append(tuple(v))
    particular: Optional[VecQ] = None
    if all(row[ncols] == 0 for row in tab if not any(row[:ncols])):
        x = [Fraction(0)] * ncols
        for r, pc in enumerate(pivots):
            x[pc] = Fraction(tab[r][ncols], d)
        particular = tuple(x)
        if mat_vec(a, particular) != tuple(Fraction(v) for v in b):
            raise RuntimeError("solution fails re-substitution")
    return LinSolveResult(particular=particular, nullspace=tuple(basis))


def solve_columns(a: MatQ, b: Sequence[Sequence[Rat]]) -> tuple[list[list[int]], int]:
    """The unique X with A X = B, every column of B at once, as integers Z
    over one denominator d: X = Z / d, from one fraction-free elimination of
    L [A | B], checked by re-substitution (L A) Z == d (L B) on integers.
    SingularMatrixError when A's columns are dependent, ValueError when a
    column of B is inconsistent.
    """
    ncols = len(a[0])
    start, _ = integer_scaled([[*ra, *rb] for ra, rb in zip(a, b, strict=True)])
    tab, pivots, d, _ = _rref([row[:] for row in start])
    if pivots[:ncols] != list(range(ncols)):
        raise SingularMatrixError("columns of the matrix are dependent")
    if len(pivots) > ncols:
        raise ValueError("a right-hand side is inconsistent")
    z = [row[ncols:] for row in tab[:ncols]]
    for row in start:
        if [sum(map(mul, row, col)) for col in zip(*z)] != [d * x for x in row[ncols:]]:
            raise RuntimeError("solution fails re-substitution")
    return z, d


def mat_inv(a: MatQ) -> MatQ:
    """Exact inverse: solve_columns(a, I)."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("mat_inv needs a square matrix")
    z, d = solve_columns(a, identity(len(a)))
    return tuple(tuple(Fraction(x, d) for x in row) for row in z)


@lru_cache(maxsize=8)
def gram_inverse(gram: MatQ) -> MatQ:
    """G^-1 of a fixed lattice's Gram matrix, computed once per matrix."""
    return mat_inv(gram)


# A map is stored through its bilinear form S = G A, A its matrix in
# lattice coordinates; the pairing is trace(A B) = trace(G^-1 S_A G^-1 S_B).


def map_inner(gram_inv: MatQ, a: MatQ, b: MatQ) -> Rat:
    """Trace pairing of two maps given by their forms."""
    x = mat_mul(gram_inv, a)
    y = mat_mul(gram_inv, b)
    return trace(mat_mul(x, y))


def map_trace(gram_inv: MatQ, a: MatQ) -> Rat:
    return trace_product(gram_inv, a)


def map_matrix(gram_inv: MatQ, form: MatQ) -> MatQ:
    """Matrix of the map in lattice coordinates."""
    return mat_mul(gram_inv, form)


def min_norm_solution(
    constraints: Sequence[tuple[MatQ, Rat]],
    inner: Callable[[MatQ, MatQ], Rat] = trace_product,
) -> MatQ:
    """Least-norm symmetric M with <M, Q_k> = rho_k for all constraints, from
    the normal equations Gamma c = rho, Gamma the Gram matrix of the Q_k under
    `inner` (Frobenius by default).  Dependent Q_k raise
    DependentConstraintsError with a vanishing combination."""
    maps = [q for q, _ in constraints]
    rhos = vec([r for _, r in constraints])
    m = len(maps)
    if m == 0:
        raise ValueError("need at least one constraint")
    gamma = mat([[inner(maps[i], maps[j]) for j in range(m)] for i in range(m)])
    res = solve_affine(gamma, rhos)
    if res.nullspace:
        # z in ker Gamma means |sum z_k Q_k|^2 = z^T Gamma z = 0 exactly.
        raise DependentConstraintsError("constraint maps are dependent", res.nullspace[0])
    terms = [mat_scale(c, q) for c, q in zip(res.particular, maps)]
    out = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*terms))
    if any(inner(out, q) != r for q, r in constraints):
        raise RuntimeError("least-norm solution misses a constraint")
    return out
