"""Exact feasibility of nonnegative combinations of symmetric maps.

Decides whether target = sum_k w_k S_k admits a solution with all w_k >= 0,
over the rationals.  On success the weights are returned; on failure a strict
separating certificate is produced: a symmetric Y with <Y, S_k> < 0 for every
k and <Y, target> > 0, where <A, B> = trace(A B).  Both branches are verified
exactly before returning.
"""

from __future__ import annotations

from fractions import Fraction
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
        if any(c < 0 for c in w):
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
