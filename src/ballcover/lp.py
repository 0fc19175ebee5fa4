"""Exact feasibility of nonnegative combinations of symmetric maps.

Decides whether target = sum_k w_k S_k admits a solution with all w_k >= 0,
over the rationals.  On success the weights are returned; on failure a strict
separating certificate is produced: a symmetric Y with <Y, S_k> < 0 for every
k and <Y, target> > 0, where <A, B> = trace(A B).  Both branches are verified
exactly before returning.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence, Union

from .linalg import (
    MatQ,
    Rat,
    integer_scaled,
    is_combination,
    is_symmetric,
    mat_scale,
    pivot,
    trace_product,
)


class StrongAlternativeError(RuntimeError):
    """Neither weights nor a strict certificate exist for this instance.

    Possible for contrived inputs (a weak separation may be the best there
    is); cannot occur when all maps have equal positive trace.
    """


class Feasible(NamedTuple):
    coefficients: tuple[Rat, ...]


class Infeasible(NamedTuple):
    certificate: MatQ


def _phase1(rows: Sequence[Sequence[Rat]], rhs: Sequence[Rat]) -> Optional[list[Rat]]:
    """Find x >= 0 with A x = b, or None.  Bland's rule, exact pivots.

    Rows with a negative rhs are negated and [A | b] is scaled by the lcm L of
    its denominators, so the problem starts in integers with the artificial
    variables as its basis.  That rescales every artificial variable by L
    and every phase-1 cost by the same positive factor, so each reduced-cost
    sign and each ratio comparison, hence each pivot, is the one the
    rational problem would make.

    A revised simplex (Dantzig and Orchard-Hays, 1954): of the tableau T / d,
    d the determinant of the basis B, only the block [d B^-1 | d B^-1 b],
    the artificial and rhs columns, is kept.  Column j of T is d B^-1 A_j,
    formed only when j enters; d times its reduced cost is d c_j - w A_j,
    with w the sum of the block's rows whose basic variable is artificial
    (cost 1; structurals cost 0).  Each pivot is the fraction-free
    `linalg.pivot` of the block, so every entry, choice and vertex is the
    full tableau's.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [Fraction(0)] * n
    signed = [
        [*row, b] if b >= 0 else [-x for x in (*row, b)] for row, b in zip(rows, rhs)
    ]
    ints, _ = integer_scaled(signed)
    cols = list(zip(*(r[:n] for r in ints)))
    block = [[int(j == i) for j in range(m)] + [r[n]] for i, r in enumerate(ints)]
    basis = list(range(n, n + m))
    in_basis = [False] * n + [True] * m
    d = 1
    while True:
        art = [row for row, b in zip(block, basis) if b >= n]
        w = list(map(sum, zip(*art))) if art else [0] * (m + 1)
        enter = -1
        for j in range(n + m):
            if in_basis[j]:
                continue
            if (d - w[j - n] if j >= n else -sum(map(mul, w, cols[j]))) < 0:
                enter = j
                break
        if enter < 0:
            if w[m] != 0:
                return None
            x = [Fraction(0)] * n
            for row, b in zip(block, basis):
                if b < n:
                    x[b] = Fraction(row[m], d)
            return x
        # the entering column of T; zip and map stop before the rhs entry
        if enter >= n:
            col = [row[enter - n] for row in block]
        else:
            col = [sum(map(mul, row, cols[enter])) for row in block]
        # ratio test by cross-multiplication (pivot entries are positive)
        leave = -1
        for i in range(m):
            a = col[i]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = block[i][m] * col[leave]
                rhs_best = block[leave][m] * a
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # phase-1 objective is bounded below by zero, so a pivot always exists
            raise RuntimeError("unbounded phase-1 objective")
        for row, a in zip(block, col):
            row.append(a)
        d = pivot(block, leave, m + 1, d)
        for row in block:
            row.pop()
        in_basis[basis[leave]] = False
        in_basis[enter] = True
        basis[leave] = enter


def _upper_indices(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def _normalized(y: MatQ) -> MatQ:
    top = max(abs(x) for row in y for x in row)
    if top == 0:
        raise RuntimeError("separating certificate is zero")
    return mat_scale(1 / top, y)


def lp_feasible_nonneg(
    maps: Sequence[MatQ], target: MatQ
) -> Union[Feasible, Infeasible]:
    """Exact strong-alternative feasibility test.

    Exactly one branch is returned: Feasible(w) with target = sum w_k maps_k,
    w >= 0, or Infeasible(Y) with a strictly separating symmetric Y.  Raises
    StrongAlternativeError when a strict Y does not exist either.
    """
    n = len(target)
    if not is_symmetric(target):
        raise ValueError("target must be a symmetric square matrix")
    if any(len(s) != n or not is_symmetric(s) for s in maps):
        raise ValueError("maps must be symmetric and of the target's size")
    coords = _upper_indices(n)
    rows = [[s[i][j] for s in maps] for (i, j) in coords]
    rhs = [target[i][j] for (i, j) in coords]
    x = _phase1(rows, rhs)
    if x is not None:
        w = tuple(x)
        if not is_combination(w, maps, target):
            raise RuntimeError("phase-1 weights do not re-sum to the target")
        if any(c.numerator < 0 for c in w):
            raise RuntimeError("phase-1 weights are not nonnegative")
        return Feasible(coefficients=w)

    # Strict separation: <Y, S_k> <= -1 for all k and <Y, target> >= 1, with
    # Y = Y+ - Y- entrywise on the upper triangle, slack s_k, surplus v.
    npairs = len(coords)
    weight = {ij: (Fraction(1) if ij[0] == ij[1] else Fraction(2)) for ij in coords}
    nvars = 2 * npairs + len(maps) + 1
    sep_rows: list[list[Rat]] = []
    sep_rhs: list[Rat] = []
    for k, s in enumerate(maps):
        row = [Fraction(0)] * nvars
        for c, (i, j) in enumerate(coords):
            row[c] = weight[(i, j)] * s[i][j]
            row[npairs + c] = -row[c]
        row[2 * npairs + k] = Fraction(1)
        sep_rows.append(row)
        sep_rhs.append(Fraction(-1))
    row = [Fraction(0)] * nvars
    for c, (i, j) in enumerate(coords):
        row[c] = weight[(i, j)] * target[i][j]
        row[npairs + c] = -row[c]
    row[nvars - 1] = Fraction(-1)
    sep_rows.append(row)
    sep_rhs.append(Fraction(1))
    sol = _phase1(sep_rows, sep_rhs)
    if sol is None:
        raise StrongAlternativeError("no weights and no strict certificate")
    entries = [[Fraction(0)] * n for _ in range(n)]
    for c, (i, j) in enumerate(coords):
        v = sol[c] - sol[npairs + c]
        entries[i][j] = v
        entries[j][i] = v
    y = _normalized(tuple(tuple(r) for r in entries))
    if any(trace_product(y, s) >= 0 for s in maps) or trace_product(y, target) <= 0:
        raise RuntimeError("certificate does not separate strictly")
    return Infeasible(certificate=y)
