"""Core exact linear algebra checks against independent small oracles."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballcover.linalg import (
    DependentConstraintsError,
    SingularMatrixError,
    combination_test,
    det,
    gram_dot,
    identity,
    is_combination,
    mat,
    mat_inv,
    mat_mul,
    mat_vec,
    min_norm_solution,
    solve_affine,
    solve_columns,
    trace_product,
    vec,
)

from oracles import nullspace, solve_square, vec_dot


def cofactor_det(a):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return a[0][0]
    total = Fraction(0)
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = tuple(
            tuple(row[c] for c in range(n) if c != j) for row in a[1:]
        )
        total += (-1) ** j * a[0][j] * cofactor_det(minor)
    return total


def random_mat(rng, n, den=6):
    return mat(
        [
            [Fraction(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def test_det_matches_cofactor_oracle():
    rng = random.Random(7)
    for n in range(1, 6):
        for _ in range(10):
            a = random_mat(rng, n)
            assert det(a) == cofactor_det(a)


def test_det_special_cases():
    assert det(identity(4)) == 1
    assert det(mat([[1, 2], [2, 4]])) == 0
    # column basis (2,0,0), (0,2,0), (1,1,1) spans an index-4 sublattice
    assert det(mat([[2, 0, 1], [0, 2, 1], [0, 0, 1]])) == 4


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(8):
        a = random_mat(rng, 4)
        b = random_mat(rng, 4)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_solve_square_and_inverse():
    a = mat([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    b = vec([1, 0, 2])
    x = solve_square(a, b)
    assert mat_vec(a, x) == b
    ainv = mat_inv(a)
    assert mat_mul(a, ainv) == identity(3)
    with pytest.raises(SingularMatrixError):
        solve_square(mat([[1, 2], [2, 4]]), vec([1, 1]))


def test_solve_affine_inconsistent_and_underdetermined():
    a = mat([[1, 1], [1, 1]])
    res = solve_affine(a, vec([1, 2]))
    assert res.particular is None
    assert len(res.nullspace) == 1

    res = solve_affine(mat([[1, 1, 0]]), vec([3]))
    assert res.particular is not None
    assert mat_vec(mat([[1, 1, 0]]), res.particular) == vec([3])
    assert len(res.nullspace) == 2
    for v in res.nullspace:
        assert mat_vec(mat([[1, 1, 0]]), v) == vec([0])


def test_solve_affine_random_roundtrip():
    rng = random.Random(3)
    for _ in range(10):
        a = random_mat(rng, 4)
        x = vec([rng.randint(-3, 3) for _ in range(4)])
        b = mat_vec(a, x)
        res = solve_affine(a, b)
        assert res.particular is not None
        assert mat_vec(a, res.particular) == b


def test_nullspace_members_annihilate():
    a = mat([[1, 2, 3], [2, 4, 6]])
    ns = nullspace(a)
    assert len(ns) == 2
    for v in ns:
        assert mat_vec(a, v) == vec([0, 0])


def test_min_norm_solution_simple():
    # minimize |M|_F subject to <M, Id> = 2: the multiple of the identity
    m = min_norm_solution([(identity(2), Fraction(2))])
    assert m == identity(2)


def test_min_norm_solution_orthogonal_constraints():
    e11 = mat([[1, 0], [0, 0]])
    e22 = mat([[0, 0], [0, 1]])
    m = min_norm_solution([(e11, Fraction(1)), (e22, Fraction(-1))])
    assert m == mat([[1, 0], [0, -1]])


def test_min_norm_solution_reports_dependency():
    e11 = mat([[1, 0], [0, 0]])
    with pytest.raises(DependentConstraintsError) as exc:
        min_norm_solution([(e11, Fraction(1)), (mat([[2, 0], [0, 0]]), Fraction(2))])
    z = exc.value.witness
    assert any(c != 0 for c in z)
    # witness really is a vanishing combination
    assert z[0] * 1 + z[1] * 2 == 0


def test_min_norm_solution_custom_inner():
    # weighted pairing <A,B> = trace(W A W B) with W = diag(1, 2)
    w = mat([[1, 0], [0, 2]])

    def inner(a, b):
        return trace_product(mat_mul(w, a), mat_mul(w, b))

    m = min_norm_solution([(identity(2), Fraction(5))], inner=inner)
    assert inner(m, identity(2)) == 5


def pin_systems():
    """Seeded small systems of every shape the elimination distinguishes."""
    rng = random.Random(20261018)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def rows(n, m):
        return [[entry() for _ in range(m)] for _ in range(n)]

    square = rows(3, 3)
    singular = rows(2, 3)
    singular.append([2 * x - y for x, y in zip(singular[0], singular[1])])
    wide = rows(2, 4)
    tall = rows(4, 2)
    inconsistent = rows(2, 3)
    inconsistent.append([x + y for x, y in zip(inconsistent[0], inconsistent[1])])
    zero_row = rows(2, 3) + [[0, 0, 0]]
    repeated = rows(3, 3)
    repeated.insert(1, list(repeated[2]))
    systems = {
        "square": (square, [entry() for _ in range(3)]),
        "singular": (singular, [entry() for _ in range(3)]),
        "wide": (wide, [entry() for _ in range(2)]),
        "tall": (tall, [entry() for _ in range(4)]),
        "inconsistent": (inconsistent, [1, 1, 3]),
        "zero-row": (zero_row, [entry(), entry(), 0]),
        "repeated": (repeated, [entry() for _ in range(4)]),
    }
    return {k: (mat(a), vec(b)) for k, (a, b) in systems.items()}


def test_exact_outputs_are_pinned():
    # sha256 of the reprs, so a change of value, type or normal form shows
    golden = {
        "square": "da3b27bf1a7e0ba0c7976e8aa42110bc0193cf5d9efb6c0e3a62fef66060475e",
        "singular": "bd8be3b27a8f81530f06b96f3b65afe2cfc7dcdad8c14159216a721599b8cedf",
        "wide": "d4e589015370db14047edc193b7ed3f38f6b7a62d4dfabba6f07af5a006aa757",
        "tall": "eba825c508dfde7f41cfc1766a732f0566a86ca8f462555c38db4088f3154fea",
        "inconsistent": "a4b1459e45ffcad2a3115baeddfaec9e8c8894b7ea699df2ef7facc79df362f4",
        "zero-row": "9acb3b68d4cdb714fb658090c6779c83f262882d0b307021485ea5a5d4a5b5bf",
        "repeated": "c10ae933b29cf1f4559ed3f1c9a2d5c9ebec3ce1e18f24763cbd9b29d9a9007d",
    }
    got = {}
    for name, (a, b) in pin_systems().items():
        out = [repr(solve_affine(a, b)), repr(nullspace(a))]
        if len(a) == len(a[0]):
            out.append(repr(det(a)))
            try:
                out.append(repr(mat_inv(a)))
            except SingularMatrixError as e:
                out.append(type(e).__name__)
        got[name] = hashlib.sha256("\n".join(out).encode()).hexdigest()
    assert got == golden


def test_det_sign_of_a_row_swap():
    # column 0 pivots on row 1, one swap: expanding the first row by hand,
    # 0*(1*1 - 0*0) - 2*(1*1 - 0*3) + 1*(1*0 - 1*3) = -5
    assert det(mat([[0, 2, 1], [1, 1, 0], [3, 0, 1]])) == -5
    # 0 * 1 - (1/2) * 3
    assert det(mat([[0, Fraction(1, 2)], [3, 1]])) == Fraction(-3, 2)
    assert mat_inv(mat([[0, Fraction(1, 2)], [3, 1]])) == mat(
        [[Fraction(-2, 3), Fraction(1, 3)], [2, 0]]
    )


def test_non_square_input_is_rejected():
    wide = mat([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="square"):
        det(wide)
    with pytest.raises(ValueError, match="square"):
        mat_inv(wide)
    with pytest.raises(ValueError, match="row count"):
        solve_affine(wide, vec([1]))


RATIONAL = st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 2**20))


def rational_matrix(rows, cols):
    return st.lists(
        st.lists(RATIONAL, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(mat)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    rational_matrix(n, n),
    st.lists(RATIONAL, min_size=n, max_size=n),
    st.lists(RATIONAL, min_size=n, max_size=n),
)))
def test_gram_dot_matches_the_fraction_product(case):
    g, u, v = case
    u, v = vec(u), vec(v)
    assert gram_dot(g, u, v) == vec_dot(u, mat_vec(g, v))
    assert gram_dot(g, u, u) == vec_dot(u, mat_vec(g, u))
    # a length mismatch raises instead of truncating
    with pytest.raises(ValueError):
        gram_dot(g, u + (Fraction(1),), v)
    with pytest.raises(ValueError):
        gram_dot(g, u, v[:-1])


def fraction_sum(weights, mats, n):
    return tuple(
        tuple(sum((w * m[i][j] for w, m in zip(weights, mats)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 6)).flatmap(lambda nk: st.tuples(
        st.lists(rational_matrix(nk[0], nk[0]), min_size=nk[1], max_size=nk[1]),
        st.lists(RATIONAL, min_size=nk[1], max_size=nk[1]),
    )),
    st.integers(0, 5),
)
def test_is_combination_matches_the_fraction_sum(case, pick):
    mats, weights = case
    n = len(mats[0])
    target = fraction_sum(weights, mats, n)
    assert is_combination(weights, mats, target)
    # one weight nudged by the smallest step of its denominator
    k = pick % len(mats)
    nudged = list(weights)
    nudged[k] += Fraction(1, nudged[k].denominator)
    moved = fraction_sum(nudged, mats, n) != target
    assert moved == any(x for row in mats[k] for x in row)
    assert is_combination(nudged, mats, target) == (not moved)
    # a count or shape mismatch never passes
    assert not is_combination(weights[:-1], mats, target)
    with pytest.raises(ValueError, match="shape"):
        is_combination(weights, mats, identity(n + 1))


MATS_AND_WEIGHTS = st.tuples(st.integers(1, 4), st.integers(2, 6)).flatmap(lambda nk: st.tuples(
    st.lists(rational_matrix(nk[0], nk[0]), min_size=nk[1], max_size=nk[1]),
    st.lists(RATIONAL, min_size=nk[1] - 1, max_size=nk[1] - 1),
))


@settings(max_examples=60, deadline=None)
@given(MATS_AND_WEIGHTS, st.integers(0, 5))
def test_combination_test_drops_one_matrix(case, pick):
    # One family scaled once answers for each removal: weights over the
    # family with matrix k dropped, as is_combination over the kept ones.
    mats, weights = case
    n = len(mats[0])
    k = pick % len(mats)
    kept = mats[:k] + mats[k + 1 :]
    target = fraction_sum(weights, kept, n)
    test = combination_test(mats, target)
    assert test(weights, k) and is_combination(weights, kept, target)
    nudged = [weights[0] + Fraction(1, weights[0].denominator), *weights[1:]]
    assert test(nudged, k) == is_combination(nudged, kept, target)
    other = (k + 1) % len(mats)
    assert test(weights, other) == is_combination(weights, mats[:other] + mats[other + 1 :], target)
    # without a drop, or dropping from too few weights, the counts differ
    assert not test(weights) and not test(weights[:-1], k)


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(0, 2), st.integers(1, 4)).flatmap(
        lambda t: st.tuples(
            rational_matrix(t[0] + t[1], t[0]),
            rational_matrix(t[0], t[2]),
            rational_matrix(t[0] + t[1], t[2]),
        )
    )
)
def test_solve_columns_matches_solve_affine_per_column(case):
    # A consistent right-hand side A X and a free one, which is
    # inconsistent when A has more rows than columns.
    a, x, free = case
    for b in (mat_mul(a, x), free):
        per_column = [solve_affine(a, col) for col in zip(*b)]
        if any(res.nullspace for res in per_column):
            with pytest.raises(SingularMatrixError):
                solve_columns(a, b)
        elif any(res.particular is None for res in per_column):
            with pytest.raises(ValueError, match="inconsistent"):
                solve_columns(a, b)
        else:
            z, d = solve_columns(a, b)
            solutions = [tuple(Fraction(v, d) for v in col) for col in zip(*z)]
            assert solutions == [res.particular for res in per_column]
    # A repeated column leaves every right-hand side underdetermined.
    with pytest.raises(SingularMatrixError):
        solve_columns(tuple(row + row[:1] for row in a), mat_mul(a, x))
