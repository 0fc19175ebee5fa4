"""Feasibility LP: both branches verified on hand-checkable instances, the
phase-1 kernel pinned on seeded ones, and wrong kernel results rejected."""

import hashlib
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import ballcover
from ballcover import lp
from ballcover.lp import Feasible, Infeasible, StrongAlternativeError, lp_feasible_nonneg
from ballcover.linalg import identity, mat, mat_add, mat_scale, trace_product, zeros

E11 = mat([[1, 0], [0, 0]])
E22 = mat([[0, 0], [0, 1]])
E12 = mat([[0, 1], [1, 0]])


def test_feasible_diagonal_split():
    res = lp_feasible_nonneg([E11, E22], identity(2))
    assert isinstance(res, Feasible)
    assert res.coefficients == (Fraction(1), Fraction(1))


def test_feasible_redundant_maps():
    res = lp_feasible_nonneg([E11, E22, identity(2)], identity(2))
    assert isinstance(res, Feasible)
    w = res.coefficients
    total = zeros(2, 2)
    for c, s in zip(w, [E11, E22, identity(2)]):
        total = mat_add(total, mat_scale(c, s))
    assert total == identity(2)


def test_infeasible_sign_obstruction():
    res = lp_feasible_nonneg([E11], E22)
    assert isinstance(res, Infeasible)
    y = res.certificate
    assert trace_product(y, E11) < 0
    assert trace_product(y, E22) > 0


def test_infeasible_negative_target():
    res = lp_feasible_nonneg([identity(2)], mat_scale(Fraction(-1), identity(2)))
    assert isinstance(res, Infeasible)


def test_infeasible_off_diagonal_reach():
    # E12 is traceless, so no nonnegative diagonal combination gives it
    res = lp_feasible_nonneg([E11, E22], E12)
    assert isinstance(res, Infeasible)
    y = res.certificate
    assert trace_product(y, E11) < 0
    assert trace_product(y, E22) < 0
    assert trace_product(y, E12) > 0


def test_no_strict_certificate_raises():
    # with both signs of E11 present, no Y can separate strictly
    with pytest.raises(StrongAlternativeError):
        lp_feasible_nonneg([E11, mat_scale(Fraction(-1), E11)], E22)


def test_empty_map_set():
    assert isinstance(lp_feasible_nonneg([], zeros(2, 2)), Feasible)
    res = lp_feasible_nonneg([], identity(2))
    assert isinstance(res, Infeasible)


def test_random_feasible_instances_recovered():
    rng = random.Random(5)
    for _ in range(10):
        maps = []
        for _ in range(4):
            a = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            s = [[(a[i][j] + a[j][i]) for j in range(3)] for i in range(3)]
            maps.append(tuple(tuple(r) for r in s))
        w = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(4)]
        target = zeros(3, 3)
        for c, s in zip(w, maps):
            target = mat_add(target, mat_scale(c, s))
        res = lp_feasible_nonneg(maps, target)
        assert isinstance(res, Feasible)
        got = zeros(3, 3)
        for c, s in zip(res.coefficients, maps):
            got = mat_add(got, mat_scale(c, s))
        assert got == target


def phase1_instances(count=240, seed=2013):
    """Small seeded systems A x = b: rational entries, negative rhs, zero rows,
    proportional rows (ratio ties), half planted feasible, half random."""
    rng = random.Random(seed)
    values = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
    out = []
    for t in range(count):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        rows = [
            [rng.choice(values) if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
            for _ in range(m)
        ]
        if rng.random() < 0.2:
            rows[rng.randrange(m)] = [Fraction(0)] * n
        if m > 1 and rng.random() < 0.3:
            f = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            rows[rng.randrange(m)] = [f * a for a in rows[0]]
        if t % 2 == 0:
            x0 = [
                Fraction(rng.randint(0, 2), rng.randint(1, 2)) if rng.random() < 0.6 else Fraction(0)
                for _ in range(n)
            ]
            rhs = [sum((a * x for a, x in zip(r, x0)), Fraction(0)) for r in rows]
        else:
            rhs = [rng.choice(values) for _ in range(m)]
        out.append((rows, rhs))
    return out


def test_phase1_pinned_on_seeded_instances():
    # The hash pins the exact vertices Bland's rule reaches, as produced by the
    # rational-tableau implementation this kernel replaced; a pivoting change
    # that moves any vertex changes it.
    results = []
    for t, (rows, rhs) in enumerate(phase1_instances()):
        x = lp._phase1(rows, rhs)
        if t % 2 == 0:
            assert x is not None
        if x is not None:
            assert all(type(v) is Fraction and v >= 0 for v in x)
            for row, b in zip(rows, rhs):
                assert sum((a * v for a, v in zip(row, x)), Fraction(0)) == b
        results.append(x)
    assert sum(x is None for x in results) == 89
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "4dd52aa5b89c00836d79dd3190403c262e349f7746b6c6258295f250f452a837"


def test_phase1_hand_checked_vertex():
    # x1/2 + x2/3 = 1 and x2/4 - 3 x3/2 = -1/2.  Bland enters x1 (ratio 2),
    # then x3 on the negated second row (ratio (1/2)/(3/2) = 1/3); x2 stays 0.
    rows = [
        [Fraction(1, 2), Fraction(1, 3), Fraction(0)],
        [Fraction(0), Fraction(1, 4), Fraction(-3, 2)],
    ]
    rhs = [Fraction(1), Fraction(-1, 2)]
    assert lp._phase1(rows, rhs) == [Fraction(2), Fraction(0), Fraction(1, 3)]
    # x1 + x2 = 1 and x1 + x2 = 2 have no solution
    assert lp._phase1([[1, 1], [1, 1]], [1, 2]) is None


def test_phase1_ratio_tie_leaves_smallest_basic_index():
    # A ratio tie whose resolution moves the final vertex; letting the largest
    # basic index leave instead ends at (1/5, 6/5, 0, 8/5).
    rows = [
        [Fraction(0), Fraction(-1, 2), Fraction(1), Fraction(1)],
        [Fraction(-2, 3), Fraction(4, 3), Fraction(4, 3), Fraction(-4, 3)],
        [Fraction(3, 4), Fraction(3, 2), Fraction(3, 4), Fraction(-3, 4)],
    ]
    rhs = [Fraction(1), Fraction(-2, 3), Fraction(3, 4)]
    assert lp._phase1(rows, rhs) == [Fraction(1), Fraction(0), Fraction(1, 2), Fraction(1, 2)]


def test_lp_rejects_bad_input():
    with pytest.raises(ValueError):
        lp_feasible_nonneg([E11], mat([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        lp_feasible_nonneg([identity(3)], identity(2))
    with pytest.raises(ValueError):
        lp_feasible_nonneg([mat([[0, 1], [2, 0]])], identity(2))


# (maps, target, perturbation of the phase-1 output, expected message)
PERTURBED = {
    "shifted-weight": (
        [E11, E22], identity(2), lambda x: [x[0] + Fraction(1, 7)] + x[1:], "re-sum"
    ),
    "short-vector": ([E11, E22], identity(2), lambda x: x[:-1], "re-sum"),
    # (0, -1, 1) re-sums to the identity, with a negative weight on -E11
    "negative-weight": (
        [E11, mat_scale(Fraction(-1), E11), E22], identity(2), lambda x: [0, -1, 1], "nonnegative"
    ),
    "negated-certificate": ([E11, E22], E12, lambda x: [-v for v in x], "separate strictly"),
    "zero-certificate": ([E11, E22], E12, lambda x: [0 * v for v in x], "zero"),
}


@pytest.mark.parametrize(
    "maps, target, perturb, message", PERTURBED.values(), ids=PERTURBED.keys()
)
def test_lp_rejects_a_wrong_phase1_result(monkeypatch, maps, target, perturb, message):
    exact = lp._phase1

    def perturbed(rows, rhs):
        x = exact(rows, rhs)
        return None if x is None else [Fraction(v) for v in perturb(x)]

    monkeypatch.setattr(lp, "_phase1", perturbed)
    with pytest.raises(RuntimeError, match=message):
        lp_feasible_nonneg(maps, target)


def test_lp_checks_survive_optimized_python():
    # python -O strips asserts; the branch checks must not depend on them.
    script = textwrap.dedent(
        """
        from fractions import Fraction
        from ballcover import lp
        from ballcover.linalg import identity, mat
        exact = lp._phase1
        lp._phase1 = lambda rows, rhs: [v + Fraction(1, 7) for v in exact(rows, rhs)]
        try:
            lp.lp_feasible_nonneg([mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]])], identity(2))
        except RuntimeError as exc:
            print(exc)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ballcover.__file__).parents[1]))
    res = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "phase-1 weights do not re-sum to the target"
