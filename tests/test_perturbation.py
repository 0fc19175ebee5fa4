"""Tests for covering constructions and extensibility witnesses."""

import math
import random
import sys
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballcover.bodies import ball_body, make_body, real_sph_harm, rho, volume_ratio
from ballcover.lattice import (
    DegenerateSimplexError,
    build_anstar,
    circumcenter,
    covering_radius,
    negative_pairs,
    q_map,
)
from ballcover.linalg import (
    det,
    gram_dot,
    gram_inverse,
    identity,
    mat,
    mat_add,
    mat_inv,
    map_matrix,
    mat_mul,
    mat_scale,
    mat_vec,
    min_norm_solution,
    solve_affine,
    trace,
    vec,
    vec_add,
    vec_scale,
    vec_sub,
)
from ballcover.perturbation import (
    _apply_transposed,
    _unit,
    cover_record,
    deformed_vertices,
    first_order_cr,
    grid_rotation,
    scan_densities,
    simplex_weights,
)
from ballcover.reports import dump_json, scan_certificate
from ballcover.search import (
    DELTA_BITS,
    CoverEngine,
    Screen,
    _antipodal_index,
    _dyadic,
    _engine,
    _pair_values,
    _start_grains,
    build_cover,
    rotation_grid,
    rotation_scan,
    solve_treqn,
)
from ballcover.witness import (
    TAU_RANGE,
    TAU_STEPS,
    AugmentedBall,
    WitnessUnavailableError,
    _shift_fits,
    exact_cr_after,
    extension_witness,
    member_augmented_ball,
)

from oracles import deformed_vertex, fraction_deformed_vertices, unit_direction, vec_dot


def cm_circumradius2(vertices, gram):
    # Cayley-Menger identity: R^2 = -det(D) / (2 det(bordered D)).
    k = len(vertices)
    d = [
        [gram_dot(gram, vec_sub(a, b), vec_sub(a, b)) for b in vertices]
        for a in vertices
    ]
    bordered = [[Fraction(0)] + [Fraction(1)] * k]
    for i in range(k):
        bordered.append([Fraction(1)] + list(d[i]))
    return -det(mat(d)) / (2 * det(mat(bordered)))


def calls_of(fn, run):
    # How often fn's code runs during run(), under whatever name it is called.
    code, count = fn.__code__, 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def rand_fraction(rng, scale=100):
    return Fraction(rng.randint(-3, 3), scale)


def rand_symmetric_form(rng, n, scale=100):
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rand_fraction(rng, scale)
    return mat(a)


def test_exact_cr_identity_and_scaling():
    lat = build_anstar(3)
    _, simplices = covering_radius(lat)
    for s in simplices:
        assert exact_cr_after(identity(3), s, lat.gram) == s.cr2
        t = mat_scale(Fraction(3, 2), identity(3))
        assert exact_cr_after(t, s, lat.gram) == Fraction(9, 4) * s.cr2


def test_exact_cr_matches_cayley_menger():
    rng = random.Random(7)
    lat = build_anstar(3)
    _, simplices = covering_radius(lat)
    for _ in range(5):
        t = mat_add(identity(3), rand_symmetric_form(rng, 3, 20))
        if det(t) == 0:
            continue
        for s in simplices[:2]:
            got = exact_cr_after(t, s, lat.gram)
            want = cm_circumradius2([mat_vec(t, x) for x in s.x], lat.gram)
            assert got == want


def test_first_order_bound_and_quadratic_error():
    rng = random.Random(11)
    lat = build_anstar(3)
    ginv = mat_inv(lat.gram)
    _, simplices = covering_radius(lat)
    for _ in range(10):
        m_form = rand_symmetric_form(rng, 3, 100)
        m_mat = map_matrix(ginv, m_form)
        half = mat_add(identity(3), mat_scale(Fraction(1, 2), m_mat))
        quarter = mat_add(identity(3), mat_scale(Fraction(1, 4), m_mat))
        for s in simplices:
            e1 = exact_cr_after(half, s, lat.gram) / s.cr2 - first_order_cr(
                m_form, s, lat.gram
            )
            e2 = exact_cr_after(quarter, s, lat.gram) / s.cr2 - first_order_cr(
                mat_scale(Fraction(1, 2), m_form), s, lat.gram
            )
            assert e1 >= 0
            assert e2 >= 0
            if e2 == 0:
                assert e1 == 0
            else:
                # Error is quadratic, so halving M divides it by about 4.
                assert Fraction(7, 2) <= e1 / e2 <= Fraction(9, 2)


def test_solve_treqn_recovers_planted_solution():
    rng = random.Random(23)
    engine = CoverEngine(build_anstar(3))
    lat = engine.lat
    ginv = engine.ginv
    # Plant M0 in the span of the simplex maps and odd translations t0.
    maps = [q_map(s, lat.gram).form for s in engine.simplices]
    m0 = mat(
        [
            [
                sum(Fraction(c, 50) * m[i][j] for c, m in zip((3, -2, 1, 0, 2, -1), maps))
                for j in range(3)
            ]
            for i in range(3)
        ]
    )
    m0_mat = map_matrix(ginv, m0)
    pairs = {}
    t0 = [None] * len(engine.simplices)
    from ballcover.lattice import negative_pairs

    for i, j in negative_pairs(engine.simplices):
        t = vec([rand_fraction(rng, 40) for _ in range(3)])
        t0[i] = t
        t0[j] = vec_scale(Fraction(-1), t)
    rho = tuple(
        tuple(
            gram_dot(lat.gram, x, vec_add(mat_vec(m0_mat, x), t0[i])) / s.cr2
            for x in s.x
        )
        for i, s in enumerate(engine.simplices)
    )
    sol = solve_treqn(rho, engine.simplices, engine.upsilon, lat.gram)
    assert sol.m_form == m0
    assert sol.translations == tuple(t0)


def test_solve_treqn_constant_rho_dilates():
    engine = CoverEngine(build_anstar(3))
    c = Fraction(1, 25)
    rho = tuple(tuple(c for _ in s.x) for s in engine.simplices)
    sol = solve_treqn(rho, engine.simplices, engine.upsilon, engine.gram)
    assert sol.m_form == mat_scale(c, engine.gram)
    assert all(t == (0, 0, 0) for t in sol.translations)
    assert trace(map_matrix(engine.ginv, sol.m_form)) == 3 * c


def test_solve_treqn_rejects_asymmetric_rho():
    engine = CoverEngine(build_anstar(3))
    rho = [[Fraction(0)] * 4 for _ in engine.simplices]
    rho[0][1] = Fraction(1, 100)
    with pytest.raises(ValueError):
        solve_treqn(rho, engine.simplices, engine.upsilon, engine.gram)
    with pytest.raises(ValueError, match="symmetry"):
        engine.solve(rho)


def reference_treqn(rho, simplices, gram):
    # The per-table procedure the stacked set-up replaced: the least-norm M
    # from the normal equations, then one translation system per simplex.
    # Returns (G M, translations).
    ginv = gram_inverse(gram)
    constraints = [
        (map_matrix(ginv, q_map(simplices[i], gram).form),
         sum(a * Fraction(r) for a, r in zip(simplices[i].alpha, rho[i])))
        for i, _ in negative_pairs(simplices)
    ]
    m_mat = min_norm_solution(constraints)
    translations = []
    for i, s in enumerate(simplices):
        rows = mat([mat_vec(gram, x) for x in s.x])
        rhs = [
            s.cr2 * Fraction(rho[i][j]) - vec_dot(w, mat_vec(m_mat, x))
            for j, (w, x) in enumerate(zip(rows, s.x))
        ]
        res = solve_affine(rows, vec(rhs))
        assert res.unique
        translations.append(res.particular)
    return mat_mul(gram, m_mat), tuple(translations)


def test_engine_operator_matches_reference_solver():
    # The basis solutions of the stacked set-up, engine.solve and
    # solve_treqn all equal the per-table procedure Fraction for Fraction,
    # on the unit tables, on tables from grid rotations (after the
    # re-targeting iterations) and on random symmetric tables.
    rng = random.Random(41)
    engine = CoverEngine(build_anstar(3))
    tables = [
        tuple(tuple(Fraction(int(c == k)) for c in keys) for keys in engine.index)
        for k in range(len(engine.directions))
    ]
    body = make_body([(4, 0, 0.005), (6, 2, 0.002)])
    tables += [engine.construct(body, rotation=u).rho for u in rotation_grid(1000)[::250]]
    for _ in range(4):
        values = [
            Fraction(rng.randint(-99, 99), rng.randint(1, 2**20))
            for _ in engine.directions
        ]
        tables.append(tuple(tuple(values[k] for k in keys) for keys in engine.index))
    for table in tables:
        ref = reference_treqn(table, engine.simplices, engine.gram)
        sol = engine.solve(table)
        assert (sol.m_form, sol.translations) == ref
        one = solve_treqn(table, engine.simplices, engine.upsilon, engine.gram)
        assert (one.m_form, one.translations) == ref
    # A corrupted basis map trips the per-solve trace identity check.
    maps = engine.basis[0]
    maps[0][0][0] += 1
    with pytest.raises(RuntimeError, match="trace identity"):
        engine.solve(tables[0])


def forbid(monkeypatch, module, *names):
    def forbidden(*args, **kwargs):
        raise AssertionError("a linear system was solved")

    for name in names:
        monkeypatch.setattr(module, name, forbidden)


def test_construct_solves_no_system_per_rotation(monkeypatch):
    import ballcover.linalg
    import ballcover.search

    engine = CoverEngine(build_anstar(3))
    forbid(monkeypatch, ballcover.search, "solve_treqn", "_treqn_columns", "solve_columns")
    forbid(monkeypatch, ballcover.linalg, "solve_affine", "solve_columns", "min_norm_solution")
    body = make_body([(4, 0, 0.01)])
    c = engine.construct(body, rotation=rotation_grid(8)[3])
    assert all(chk.lhs <= chk.rhs for chk in c.checks)


def test_engine_setup_needs_no_per_table_solver(monkeypatch):
    import ballcover.linalg

    forbid(monkeypatch, ballcover.linalg, "min_norm_solution", "solve_affine")
    engine = CoverEngine(build_anstar(3))
    c = engine.construct(make_body([(4, 0, 0.01)]), rotation=rotation_grid(8)[3])
    assert all(chk.lhs <= chk.rhs for chk in c.checks)


def clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("ballcover."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    assert _engine.cache_info().currsize == 0


def test_engine_setup_elimination_count(monkeypatch):
    # A count, not a time: the same on every machine.  Building A3* takes 4
    # eliminations and G^-1 one; the simplex weights take none (one integer
    # re-sum; classifying the lattice took one more, its rank test); the 12
    # basis solutions take 7, one for the normal equations and one per
    # simplex (the per-table loop took 84: 7 for each unit table).
    import ballcover.linalg

    calls = []
    rref = ballcover.linalg._rref

    def counted(tab):
        calls.append(len(tab[0]))
        return rref(tab)

    for name, module in list(sys.modules.items()):
        if name.startswith("ballcover.") and getattr(module, "_rref", None) is rref:
            monkeypatch.setattr(module, "_rref", counted)
    clear_package_caches()
    CoverEngine(build_anstar(3))
    assert len(calls) == 5 + 7
    # The last 7 are the stacked solves: 3 + 12 and 3 + 12 columns.
    assert calls[-7:] == [15] * 7


def bits(xs):
    return [x.hex() for x in xs]


def every_vertex(engine, pairs):
    # The screen's pair form spread over the 24 vertices in position order:
    # a pair's second vertex has the first's direction negated, same length.
    # 0.0 - c, as the twin's integer numerators are negated: 0 stays 0.0.
    out = [None] * len(engine.positions)
    for (v, w), (d, ny) in zip(engine._twins, pairs):
        out[v], out[w] = (d, ny), (tuple(0.0 - c for c in d), ny)
    return out


def assert_screen_directions_match(engine, values):
    # The screen's integer direction tables against the Fraction path of the
    # exact tail, bit for bit: the float unit direction and length of every
    # deformed vertex.
    nums, shift = _dyadic(values)
    sol = engine.solve(tuple(tuple(values[k] for k in keys) for keys in engine.index))
    m_mat = map_matrix(engine.ginv, sol.m_form)
    shared = every_vertex(engine, engine._pair_directions(nums, shift))
    for (i, _, x), (d, ny) in zip(engine.positions, shared):
        ref = deformed_vertex(m_mat, x, sol.translations[i])
        ref_d, ref_ny = unit_direction(engine.lat.embedding, ref)
        assert bits(d) + [ny.hex()] == bits(ref_d) + [ref_ny.hex()]


DYADIC = st.builds(
    lambda n, e: Fraction(n, 2**e), st.integers(-(2**64), 2**64), st.integers(0, 120)
)


@settings(max_examples=40, deadline=None)
@given(st.lists(DYADIC, min_size=12, max_size=12))
def test_screen_directions_match_fraction_path_on_dyadic_tables(values):
    assert_screen_directions_match(_engine(), values)


def all_products(engine, nums, shift):
    # Every vertex's unit direction and length from its own integer product.
    den = (engine._embedding_scale * engine.scale) << shift
    point = [1 << shift, *nums]
    return [
        _unit([sum(map(mul, row, point)) / den for row in a]) for a in engine._embedded_maps
    ]


@settings(max_examples=60, deadline=None)
@given(st.lists(DYADIC, min_size=12, max_size=12))
def test_twin_sharing_matches_all_products(values):
    # The screen forms one integer product per {x, -x} pair and negates it
    # for the twin; the floats equal those of all 24 products bit for bit.
    engine = _engine()
    nums, shift = _dyadic(values)
    shared = every_vertex(engine, engine._pair_directions(nums, shift))
    # hex tells -0.0 from 0.0
    assert [bits(d) + [ny.hex()] for d, ny in shared] == [
        bits(d) + [ny.hex()] for d, ny in all_products(engine, nums, shift)
    ]


def vertex_screen(engine, body, rotation):
    # The 24-vertex re-targeting loop the per-pair screen replaced: each
    # vertex from its own product, rotated and evaluated on its own, and
    # each pair's excess the larger in magnitude of its two vertices'.
    # Returns the screen and its number of passes.
    def rotated(d):
        return d if rotation is None else _apply_transposed(rotation, d)

    # At rest, each pair's smaller vertex min(x, -x).
    at_rest = all_products(engine, [0] * len(engine.directions), 0)
    nums, shift = _dyadic([
        rho(body, rotated(at_rest[min(t, key=lambda v: engine.positions[v][2])][0]))
        for t in engine._twins
    ])
    for step in range(4):
        delta_float = 0.0
        excess = {}
        for k, (d, ny) in zip(engine.pair_of, all_products(engine, nums, shift)):
            r_val = 1.0 + rho(body, rotated(d))
            delta_float = max(delta_float, 1.0 - engine.mu * r_val / ny)
            o = ny / (engine.mu * r_val) - 1.0
            if k not in excess or abs(o) > abs(excess[k]):
                excess[k] = o
        if step == 3 or max(abs(o) for o in excess.values()) <= 2.0**-34:
            break
        moved, by = _dyadic([excess[k] for k in range(len(nums))])
        top = max(shift, by)
        nums = [(n << (top - shift)) - (m << (top - by)) for n, m in zip(nums, moved)]
        shift = top
    return Screen(nums=nums, shift=shift, delta_float=delta_float), step + 1


@pytest.mark.parametrize(
    "coeffs", [((4, 0, 0.02 / 3),), ((4, 1, 0.003), (6, -5, 0.002), (8, 8, 0.001))]
)
def test_pair_screen_equals_the_vertex_screen(coeffs, monkeypatch):
    # The screen evaluates rho once per pair: 12 calls at rest and 12 per
    # pass, where the vertex loop made 24 per pass, and settles on the same
    # pair values and contraction.
    import ballcover.search

    calls = []

    def counted(body, d):
        calls.append(d)
        return rho(body, d)

    monkeypatch.setattr(ballcover.search, "body_rho", counted)
    engine, body = _engine(), make_body(coeffs)
    passes = set()
    for u in (None, *rotation_grid(40)):
        want, n = vertex_screen(engine, body, u)
        calls.clear()
        got = engine.screen(body, u)
        assert (got.nums, got.shift, got.delta_float.hex()) == (
            want.nums, want.shift, want.delta_float.hex()
        )
        assert len(calls) == 12 + 12 * n
        passes.add(n)
    assert max(passes) == 4


@settings(max_examples=15, deadline=None)
@given(
    st.integers(0, 39),
    st.sampled_from([((4, 0, 0.02 / 3),), ((4, 1, 0.003), (6, -5, 0.002), (8, 8, 0.001))]),
)
def test_screen_directions_match_fraction_path_on_grid_rotations(index, coeffs):
    engine = _engine()
    c = engine.construct(make_body(coeffs), rotation=grid_rotation(index, 40))
    assert_screen_directions_match(engine, _pair_values(c.rho, engine.index))


MIXED = ((4, 1, 0.003), (6, -5, 0.002), (8, 8, 0.001))


def assert_kernel_matches_fraction_oracle(engine, body, rotation, m_mat, translations):
    # The integer vertex kernel against the Fraction derivation it replaced,
    # field for field: y and <y, y> exactly, every float by its bits.
    args = (body, rotation, engine.lat, engine.simplices, m_mat, translations)
    got, want = deformed_vertices(*args), fraction_deformed_vertices(*args)
    assert len(got) == len(want) == len(engine.positions)
    for g, w in zip(got, want):
        assert g[:4] == w[:4]
        assert all(type(c) is Fraction for c in (*g[2], g[3]))
        assert [v.hex() for v in g[4:]] == [v.hex() for v in w[4:]]


def test_vertex_kernel_matches_fraction_oracle_on_a_grid_8_scan():
    engine, body = _engine(), make_body(MIXED)
    for u in rotation_grid(8):
        c = engine.construct(body, rotation=u)
        assert_kernel_matches_fraction_oracle(engine, body, u, c.m_matrix, c.translations)


@settings(max_examples=30, deadline=None)
@given(st.lists(DYADIC, min_size=12, max_size=12), st.integers(0, 39))
def test_vertex_kernel_matches_fraction_oracle_on_dyadic_tables(values, index):
    engine = _engine()
    sol = engine.solve(tuple(tuple(values[k] for k in keys) for keys in engine.index))
    m_mat = map_matrix(engine.ginv, sol.m_form)
    assert_kernel_matches_fraction_oracle(
        engine, make_body(MIXED), grid_rotation(index, 40), m_mat, sol.translations
    )


def test_dyadic_scaling():
    assert _dyadic([0.75, 3, Fraction(-5, 8)]) == ([6, 24, -5], 3)
    assert _dyadic([]) == ([], 0)
    with pytest.raises(ValueError, match="dyadic"):
        _dyadic([Fraction(1, 3)])


def test_engine_rejects_other_models():
    with pytest.raises(ValueError, match="3-dimensional"):
        CoverEngine(build_anstar(2))
    # One simplex's vertices are not closed under negation.
    _, simplices = covering_radius(build_anstar(3))
    with pytest.raises(ValueError, match="negation"):
        _antipodal_index(simplices[:1])


def test_member_augmented_ball():
    ball = AugmentedBall(
        eps=Fraction(1, 10), pole=vec([1, 0, 0]), gram=identity(3)
    )
    assert member_augmented_ball(vec([1, 0, 0]), ball)
    assert member_augmented_ball(vec([0, -1, 0]), ball)
    # Both apexes belong to the hull.
    assert member_augmented_ball(vec([Fraction(11, 10), 0, 0]), ball)
    assert member_augmented_ball(vec([Fraction(-11, 10), 0, 0]), ball)
    # A point on the segment from apex toward the tangent circle.
    assert member_augmented_ball(vec([Fraction(21, 20), 0, 0]), ball)
    # Outside: beyond the apex, and sideways where no cone reaches.
    assert not member_augmented_ball(vec([Fraction(23, 20), 0, 0]), ball)
    assert not member_augmented_ball(vec([0, Fraction(21, 20), 0]), ball)
    assert not member_augmented_ball(vec([1, Fraction(1, 2), 0]), ball)
    # At eps 1/4 the cone from the apex (5/4, 0, 0) touches the sphere at
    # (4/5, 3/5, 0); their midpoint lies on the cone's surface.
    cone = AugmentedBall(eps=Fraction(1, 4), pole=vec([1, 0, 0]), gram=identity(3))
    for x in (Fraction(41, 40), Fraction(-41, 40)):
        assert member_augmented_ball(vec([x, Fraction(3, 10), 0]), cone)
        assert not member_augmented_ball(vec([x, Fraction(301, 1000), 0]), cone)
    # Without a cap there is no apex outside the ball; raise, not assert.
    flat = AugmentedBall(eps=Fraction(0), pole=vec([1, 0, 0]), gram=identity(3))
    with pytest.raises(ValueError, match="eps"):
        member_augmented_ball(vec([2, 0, 0]), flat)
    with pytest.raises(ValueError, match="eps must be positive"):
        extension_witness(build_anstar(3), 0, eps=Fraction(-1, 100))


def reference_member(q, ball):
    # The clamped-lambda test on Fractions: q is in conv(ball, z) iff
    # |q - lam z|^2 <= (1 - lam)^2 r^2 at the minimizer lam clamped to [0, 1].
    g = ball.gram
    r2 = gram_dot(g, ball.pole, ball.pole)
    qq = gram_dot(g, q, q)
    if qq <= r2:
        return True
    for sgn in (1, -1):
        z = vec_scale(sgn * (1 + Fraction(ball.eps)), ball.pole)
        zz = gram_dot(g, z, z)
        qz = gram_dot(g, q, z)
        lam = min(max((qz - r2) / (zz - r2), Fraction(0)), Fraction(1))
        if qq - 2 * lam * qz + lam * lam * zz - r2 * (1 - lam) ** 2 <= 0:
            return True
    return False


def rationals(low, high, den):
    # low..high in steps of 1/(den * d), d from 1 to 7
    return st.builds(
        lambda n, d: Fraction(n, den * d), st.integers(low * den, high * den), st.integers(1, 7)
    )


GRAMS = st.sampled_from([identity(3), build_anstar(3).gram, mat([[2, 1, 0], [1, 2, 1], [0, 1, 3]])])


@st.composite
def balls_and_points(draw, count):
    # Points along the pole plus a small offset, so that every branch of the
    # test (inside the ball, inside a cone, at or beyond an apex) is reached.
    pole = vec(draw(st.lists(rationals(-2, 2, 6), min_size=3, max_size=3).filter(any)))
    eps = draw(rationals(0, 2, 8).filter(bool))
    ball = AugmentedBall(eps=eps, pole=pole, gram=draw(GRAMS))
    points = []
    for _ in range(count):
        offset = draw(st.lists(rationals(-1, 1, 12), min_size=3, max_size=3))
        along = draw(st.sampled_from([-1, 1])) * (1 + draw(rationals(-1, 1, 10)) / 2)
        size = max(map(abs, pole)) / 3
        points.append(vec_add(vec_scale(along, pole), vec_scale(size, vec(offset))))
    return ball, points


@settings(max_examples=200, deadline=None)
@given(balls_and_points(1))
def test_membership_kernel_matches_the_clamped_formula(case):
    ball, (q,) = case
    assert member_augmented_ball(q, ball) == reference_member(q, ball)
    for sign in (1, -1):
        apex = vec_scale(sign * (1 + ball.eps), ball.pole)
        assert member_augmented_ball(apex, ball)
        assert not member_augmented_ball(vec_scale(1 + Fraction(1, 10**6), apex), ball)


@settings(max_examples=80, deadline=None)
@given(balls_and_points(4), st.sampled_from(TAU_RANGE))
def test_search_line_matches_the_clamped_formula(case, k):
    ball, points = case
    tau = Fraction(k, TAU_STEPS) * ball.eps
    moved = [vec_add(y, vec_scale(tau, ball.pole)) for y in points]
    assert _shift_fits(ball, points)(k) == all(reference_member(q, ball) for q in moved)


def unimodular(rng, n):
    # a product of elementary integer row operations, det +/-1
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        t[i] = [a + c * b for a, b in zip(t[i], t[j])]
    if rng.random() < 0.5:
        t[0] = [-a for a in t[0]]
    return mat(t)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_exact_cr_after_matches_the_image_circumcenter(dim):
    rng = random.Random(dim)
    lat = build_anstar(dim)
    _, simplices = covering_radius(lat)
    maps = [unimodular(rng, dim) for _ in range(4)]
    maps += [mat([[rng.randint(1, 9) * rng.choice([-1, 1]) if i == j else 0 for j in range(dim)]
                  for i in range(dim)]) for _ in range(2)]
    maps += [mat_add(identity(dim), rand_symmetric_form(rng, dim, 7)) for _ in range(2)]
    for t in maps:
        if det(t) == 0:
            continue
        for s in simplices[:3]:
            images = tuple(mat_vec(t, x) for x in s.x)
            assert exact_cr_after(t, s, lat.gram) == circumcenter(images, lat.gram)[2]
    singular = mat([[int(i == j and i > 0) for j in range(dim)] for i in range(dim)])
    for s in simplices[:2]:
        with pytest.raises(DegenerateSimplexError):
            circumcenter(tuple(mat_vec(singular, x) for x in s.x), lat.gram)
        with pytest.raises(DegenerateSimplexError):
            exact_cr_after(singular, s, lat.gram)


def test_build_cover_ball_is_exact_identity():
    c = build_cover(ball_body())
    assert c.delta == 0
    assert c.det_ratio == 1
    assert c.trace_m == 0
    assert all(r == 0 for row in c.rho for r in row)
    assert all(t == (0, 0, 0) for t in c.translations)


def test_build_cover_verified_and_bounded():
    body = make_body([(4, 0, 0.01), (6, 3, 0.004), (8, -2, 0.002)])
    c = build_cover(body)
    mu2, _ = Fraction(5, 4), None
    for chk in c.checks:
        assert chk.lhs <= chk.rhs
        assert chk.margin >= 0
    assert 0 <= c.delta < Fraction(1, 50)
    assert float(c.det_ratio) >= c.lower_bound
    assert c.epsilon_prime > 0
    # Rotating the body changes the sampled table.
    u = rotation_grid(8)[5]
    c2 = build_cover(body, rotation=u)
    assert c2.rho != c.rho


def test_build_cover_rejections():
    with pytest.raises(ValueError):
        build_cover(make_body([(2, 0, 0.01)]))
    with pytest.raises(ValueError):
        build_cover(make_body([(5, 1, 0.01)]))
    with pytest.raises(ValueError):
        build_cover(make_body([(4, 0, 0.5)]))


def test_rotation_grid_is_orthogonal():
    for u in rotation_grid(12):
        for i in range(3):
            for j in range(3):
                dot = sum(u[k][i] * u[k][j] for k in range(3))
                assert abs(dot - (1.0 if i == j else 0.0)) < 1e-12
        d = (
            u[0][0] * (u[1][1] * u[2][2] - u[1][2] * u[2][1])
            - u[0][1] * (u[1][0] * u[2][2] - u[1][2] * u[2][0])
            + u[0][2] * (u[1][0] * u[2][1] - u[1][1] * u[2][0])
        )
        assert abs(d - 1.0) < 1e-12


def test_rotation_scan_consistency():
    body = make_body([(4, 0, 0.01)])
    report = rotation_scan(body, grid_size=24)
    assert 0 <= report.best_index < 24
    assert report.best.rotation is not None
    assert report.volume_bound == volume_ratio(body)
    engine = _engine()
    derived = scan_densities(
        engine.mu2, det(engine.gram), report.volume_bound, report.best.det_ratio
    )
    stored = (report.ball_density, report.best_density, report.margin, report.delta_k_bound)
    assert stored == derived
    expect = report.ball_density * float(report.volume_bound) / float(report.best.det_ratio)
    assert math.isclose(report.best_density, expect)
    assert math.isclose(report.margin, report.ball_density - report.best_density)
    assert math.isclose(
        report.delta_k_bound, 1.0 - report.ball_density / report.best_density
    )
    assert report.best.det_ratio > report.volume_bound
    assert report.margin > 0 > report.delta_k_bound
    # A degree-4 body admits rotations with strictly positive trace M.
    assert report.best.trace_m > 0
    assert abs(report.ball_density - 5 * math.sqrt(5) * math.pi / 24) < 1e-12


def test_scan_densities_sign_follows_the_exact_comparison():
    # Floats of exact differences: a ratio one part in 10^30 above or below
    # the bound still gives the margin and Delta_K bound their exact signs.
    mu2, det_gram = Fraction(5, 4), Fraction(16)
    bound = Fraction(10001, 10000)
    for det_ratio in (bound + Fraction(1, 10**30), bound - Fraction(1, 10**30), bound):
        _, _, margin, delta_k = scan_densities(mu2, det_gram, bound, det_ratio)
        assert (margin > 0) == (det_ratio > bound) == (delta_k < 0)
        assert (margin == 0) == (det_ratio == bound) == (delta_k == 0)


def test_extension_witness_exact_for_three_pairs():
    lat = build_anstar(3)
    mu2, simplices = covering_radius(lat)
    for pair_index in range(3):
        w = extension_witness(lat, pair_index)
        assert w.det_t > 1
        assert all(c < mu2 for c in w.kept_cr2)
        assert w.grown_cr2 > mu2
        ball = AugmentedBall(eps=w.eps, pole=w.pole, gram=lat.gram)
        for p in w.translated_points:
            assert member_augmented_ball(p, ball)
        s0 = simplices[w.removed_simplices[0]]
        rebuilt = tuple(
            vec_add(mat_vec(w.transform, x), vec_scale(w.tau, s0.x[0]))
            for x in s0.x
        )
        assert rebuilt == w.translated_points
        # The mirrored member fits at -tau by central symmetry.
        for p in w.translated_points:
            assert member_augmented_ball(vec_scale(Fraction(-1), p), ball)


@pytest.mark.parametrize("pair_index", range(3))
def test_witness_search_forms_circumradii_only_in_its_record(pair_index):
    # One witness_record: four kept simplices and the grown one.
    lat = build_anstar(3)
    assert calls_of(exact_cr_after, lambda: extension_witness(lat, pair_index)) == 5


def test_extension_witness_redundant_dimension_errors():
    lat = build_anstar(4)
    with pytest.raises(WitnessUnavailableError):
        extension_witness(lat, 0)


def mixed_body(seed):
    # Three degree-4 and three degree-6 orders with random signed weights,
    # scaled to a certified asphericity sum |a| sqrt(2l+1) of 0.02.
    rng = random.Random(seed)
    rows = []
    for l in (4, 6):
        for m in sorted(rng.sample(range(-l, l + 1), 3)):
            rows.append((l, m, rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0)))
    eps = sum(abs(a) * math.sqrt(2 * l + 1) for l, _, a in rows)
    return make_body([(l, m, a * 0.02 / eps) for l, m, a in rows])


SCAN_BODIES = {
    "zonal": make_body([(4, 0, 0.02 / 3)]),
    "mixed": mixed_body(1),
    "ball": ball_body(),
}


def exhaustive_scan(body, grid_size):
    # The reference scan: certify every rotation, keep the first best ratio.
    engine = _engine()
    best, best_idx = None, -1
    for idx, u in enumerate(rotation_grid(grid_size)):
        c = engine.construct(body, rotation=u)
        if best is None or c.det_ratio > best.det_ratio:
            best, best_idx = c, idx
    return best_idx, best


def count_constructs(monkeypatch):
    calls = []
    construct = CoverEngine.construct

    def counted(self, body, rotation=None):
        calls.append(rotation)
        return construct(self, body, rotation=rotation)

    monkeypatch.setattr(CoverEngine, "construct", counted)
    return calls


@pytest.mark.parametrize("name", sorted(SCAN_BODIES))
def test_filtered_scan_equals_exhaustive_scan(name, monkeypatch):
    body = SCAN_BODIES[name]
    best_idx, best = exhaustive_scan(body, 40)
    calls = count_constructs(monkeypatch)
    report = rotation_scan(body, grid_size=40)
    assert report.best_index == best_idx
    assert report.best == best
    # Only the winner is certified exactly.
    assert calls == [rotation_grid(40)[best_idx]]
    if name == "ball":
        # Every ratio is 1: the tie goes to the lowest index.
        assert best.det_ratio == 1 and best_idx == 0


def test_construct_runs_once_per_scan(monkeypatch):
    calls = count_constructs(monkeypatch)
    bodies = [make_body([(4, 0, 0.01 / 3)]), make_body([(4, 0, 0.01)]), mixed_body(11)]
    for body, grid in zip(bodies, (40, 24, 40)):
        calls.clear()
        rotation_scan(body, grid_size=grid)
        assert len(calls) == 1


def test_rank_key_bounds_every_certified_ratio():
    engine = _engine()
    for body in (mixed_body(3), make_body([(4, 0, 0.01)]), ball_body()):
        for u in rotation_grid(24):
            screened = engine.screen(body, u)
            key = engine.rank_key(screened)
            c = engine.construct(body, rotation=u)
            assert key >= c.det_ratio
            # When the certification keeps its starting contraction, the
            # key is the ratio itself.
            if c.delta == Fraction(_start_grains(screened.delta_float), 2**DELTA_BITS):
                assert key == c.det_ratio


@pytest.mark.parametrize("name", ["mixed", "ball"])
def test_looser_keys_only_certify_more(name, monkeypatch):
    # Any upper bound ranks correctly: keys raised by a per-index amount
    # force extra certifications but leave the winner unchanged.  For the
    # ball, higher indices are then certified first, and the lowest index
    # must still win the tie.
    body = SCAN_BODIES[name]
    best_idx, best = exhaustive_scan(body, 24)
    rank_key = CoverEngine.rank_key
    order = iter(range(10**6))

    def loose(self, screened):
        return rank_key(self, screened) + Fraction(next(order) % 5, 100)

    monkeypatch.setattr(CoverEngine, "rank_key", loose)
    calls = count_constructs(monkeypatch)
    report = rotation_scan(body, grid_size=24)
    assert len(calls) > 1
    assert (report.best_index, report.best) == (best_idx, best)


def test_scan_skips_rotations_that_cannot_win(monkeypatch):
    # A rotation that would fail its exact checks is never certified when
    # its key cannot beat the winner.
    body = make_body([(4, 0, 0.01)])
    best_idx, best = exhaustive_scan(body, 24)
    loser = rotation_grid(24)[(best_idx + 1) % 24]
    construct = CoverEngine.construct

    def failing(self, body, rotation=None):
        if rotation == loser:
            raise RuntimeError("contraction certification did not settle")
        return construct(self, body, rotation=rotation)

    monkeypatch.setattr(CoverEngine, "construct", failing)
    report = rotation_scan(body, grid_size=24)
    assert (report.best_index, report.best) == (best_idx, best)


def test_construct_derives_the_vertices_once():
    engine = _engine()
    for body in (mixed_body(3), make_body([(4, 0, 0.01)])):
        for u in rotation_grid(4):
            assert calls_of(deformed_vertices, lambda: engine.construct(body, rotation=u)) == 1


def passes(c):
    return all(k.lhs <= k.rhs for k in c.checks)


def test_contraction_steps_to_the_least_passing_grain(monkeypatch):
    import ballcover.search

    engine = _engine()
    body, u = make_body([(4, 0, 0.01)]), rotation_grid(40)[7]
    c = engine.construct(body, rotation=u)

    def record(grains):
        delta = Fraction(grains, 1 << DELTA_BITS)
        return cover_record(engine.lat, body, u, c.rho, c.m_form, c.translations, delta)

    # The checks pass at the certified contraction and fail at 0; bisect
    # for the least grain at which they pass.
    start = c.delta * (1 << DELTA_BITS)
    assert start.denominator == 1
    lo, hi = 0, int(start)
    assert not passes(record(lo)) and passes(record(hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(record(mid)) else (mid, hi)
    least = hi
    assert least >= 2

    seen = []

    def recorded(*args):
        seen.append(cover_record(*args))
        return seen[-1]

    monkeypatch.setattr(ballcover.search, "cover_record", recorded)
    monkeypatch.setattr(ballcover.search, "_start_grains", lambda delta_float: least - 2)
    assert engine.construct(body, rotation=u) == record(least)
    assert [r.delta * (1 << DELTA_BITS) for r in seen] == [least - 2, least - 1, least]
    assert not passes(seen[0]) and not passes(seen[1])


def test_contraction_stops_at_one(monkeypatch):
    import ballcover.search

    monkeypatch.setattr(ballcover.search, "_start_grains", lambda delta_float: 1 << DELTA_BITS)
    with pytest.raises(RuntimeError, match="contraction reached 1"):
        _engine().construct(make_body([(4, 0, 0.01)]), rotation=rotation_grid(40)[7])


DIRECTIONS = st.tuples(*[st.floats(-1e3, 1e3, allow_nan=False)] * 3).filter(
    lambda d: math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]) > 0
)
HARMONICS = st.lists(
    st.integers(0, 12).flatmap(
        lambda l: st.tuples(st.just(l), st.integers(-l, l), st.floats(-0.1, 0.1))
    ),
    max_size=8,
    unique_by=lambda h: h[:2],
)


@settings(max_examples=300, deadline=None)
@given(HARMONICS, DIRECTIONS)
def test_rho_is_the_per_harmonic_sum_bit_for_bit(coeffs, d):
    body = make_body(coeffs)
    want = 0
    for l, m, a in body.coeffs:  # left to right: builtin sum compensates from Python 3.12 on
        want += a * real_sph_harm(l, m, d)
    got = rho(body, d)
    # repr tells the int 0 of an empty sum from 0.0, and -0.0 from 0.0.
    assert repr(got) == repr(want)


@settings(max_examples=300, deadline=None)
@given(HARMONICS.map(lambda rows: [h for h in rows if h[0] % 2 == 0]), DIRECTIONS)
def test_rho_is_exactly_even(coeffs, d):
    # Every body the cover accepts has even degrees only, and its rho at -d
    # is its rho at d bit for bit, so the screen evaluates one direction of
    # each antipodal pair.
    body = make_body(coeffs)
    minus = tuple(-c for c in d)
    assert repr(rho(body, minus)) == repr(rho(body, d))
    for l in range(13):
        for m in range(-l, l + 1):
            assert real_sph_harm(l, m, minus) == (-1) ** l * real_sph_harm(l, m, d)


def compensated_sum(items, start=0):
    # builtin sum as Python 3.12 and later run it on floats: compensated,
    # with math.fsum standing in.  Ints and Fractions add exactly in any order.
    items = list(items)
    if any(type(x) is float for x in items):
        return math.fsum([start, *items])
    return sum(items, start)


def test_float_sums_keep_their_bits_under_compensated_summation(monkeypatch):
    # Each float sum on a scan's path adds left to right, so rho, eps and
    # the scan's bytes are the same whichever way builtin sum rounds.
    rows = [(4, -3, 0.002), (4, 1, 0.0015), (4, 4, -0.001), (6, -2, 0.001), (6, 0, 0.0007), (6, 5, -0.0009)]
    rng = random.Random(0)
    directions = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(300)]

    def outputs():
        body = make_body(rows)
        scan = dump_json(scan_certificate(body, rotation_scan(body, grid_size=8)))
        return repr(body.eps), [repr(rho(body, d)) for d in directions], scan

    eps, values, scan = outputs()
    for module in ("bodies", "perturbation"):
        monkeypatch.setattr(f"ballcover.{module}.sum", compensated_sum, raising=False)
    assert outputs() == (eps, values, scan)
