"""Geometry of the A_n* models against hand-derived exact values."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ballcover.lattice import (
    DegenerateSimplexError,
    DeloneSimplex,
    LatticeModel,
    build_anstar,
    circumcenter,
    covering_radius,
    genericity_check,
    lattice_points_within,
    lattice_report,
    negative_pairs,
    primitive_simplex,
    q_map,
    to_euclidean,
    voronoi_vertices,
)
from ballcover.linalg import (
    SingularMatrixError,
    det,
    gram_dot,
    identity,
    mat,
    mat_mul,
    mat_scale,
    mat_vec,
    transpose,
    vec,
    vec_sub,
)

from oracles import change_basis, solve_square


def test_class_counts():
    for n in (2, 3, 4, 5):
        lat = build_anstar(n)
        assert len(lat.delone_classes) == math.factorial(n)


def test_covering_radius_values():
    # mu^2 = n(n+2)/(12(n+1)) in the unit normalization; n = 3 runs at
    # scale 2 (determinant 4), which multiplies it by 4
    assert covering_radius(build_anstar(2))[0] == Fraction(2, 9)
    assert covering_radius(build_anstar(3))[0] == Fraction(5, 4)
    assert covering_radius(build_anstar(4))[0] == Fraction(2, 5)
    assert covering_radius(build_anstar(5))[0] == Fraction(35, 72)


def test_all_classes_maximal():
    for n in (2, 3, 4, 5):
        lat = build_anstar(n)
        _, maximal = covering_radius(lat)
        assert len(maximal) == math.factorial(n)


def test_bcc_model_exact_data():
    lat = build_anstar(3)
    assert det(lat.gram) == 16
    assert abs(det(lat.embedding)) == 4
    first = lat.delone_classes[0]
    center, alpha, cr2 = circumcenter(first.vertices, lat.gram)
    assert cr2 == Fraction(5, 4)
    assert set(alpha) == {Fraction(1, 4)}
    assert sorted(to_euclidean(lat, center)) == [0, Fraction(1, 2), 1]


def test_voronoi_vertices_are_permutohedron_corners():
    import itertools

    lat = build_anstar(3)
    pts = voronoi_vertices(lat)
    assert len(pts) == 24
    expected = {
        perm
        for a in (Fraction(1), Fraction(-1))
        for b in (Fraction(1, 2), Fraction(-1, 2))
        for perm in itertools.permutations((a, b, Fraction(0)))
    }
    assert len(expected) == 24
    got = {tuple(to_euclidean(lat, p)) for p in pts}
    assert got == expected
    for p in pts:
        assert gram_dot(lat.gram, p, p) == Fraction(5, 4)


def test_negative_pairs_structure():
    for n in (2, 3):
        lat = build_anstar(n)
        _, maximal = covering_radius(lat)
        pairs = negative_pairs(maximal)
        assert len(pairs) == math.factorial(n) // 2
        flat = [i for pair in pairs for i in pair]
        assert sorted(flat) == list(range(math.factorial(n)))


def test_negative_pairs_match_the_reference_scan():
    # The reference: each unused simplex against every unused one, on the
    # sorted Fraction vertex tuples.
    for n in (2, 3, 4, 5):
        _, maximal = covering_radius(build_anstar(n))
        keys = [tuple(sorted(p.x)) for p in maximal]
        neg = [tuple(sorted(tuple(-c for c in x) for x in p.x)) for p in maximal]
        want, used = [], set()
        for i in range(len(maximal)):
            if i not in used:
                j = next(j for j in range(len(keys)) if j not in used and neg[i] == keys[j])
                used.update((i, j))
                want.append((i, j))
        assert negative_pairs(maximal) == tuple(want)


def test_negative_pairs_reject_degenerate_tables():
    half = Fraction(1, 2)
    a, b = (half, 0), (0, half)
    with pytest.raises(RuntimeError, match="its own negative"):
        negative_pairs((SimpleNamespace(x=(a, (-half, 0))),))
    with pytest.raises(RuntimeError, match="share their vertex set"):
        negative_pairs((SimpleNamespace(x=(a, b)), SimpleNamespace(x=(b, a))))


def test_primitive_simplex_invariants():
    lat = build_anstar(4)
    _, maximal = covering_radius(lat)
    for p in maximal:
        assert sum(p.alpha) == 1
        mix = vec([0] * lat.n)
        for a, x in zip(p.alpha, p.x):
            mix = vec([m + a * xi for m, xi in zip(mix, x)])
        assert all(c == 0 for c in mix)
        for x in p.x:
            assert gram_dot(lat.gram, x, x) == p.cr2


def reference_circumcenter(vertices, gram):
    # Center from the equidistance system on Fractions, then the barycentric
    # coordinates and squared radius.
    n = len(gram)
    v0 = vertices[0]
    rows = [tuple(2 * x for x in mat_vec(gram, vec_sub(v, v0))) for v in vertices[1:]]
    rhs = [gram_dot(gram, v, v) - gram_dot(gram, v0, v0) for v in vertices[1:]]
    center = solve_square(mat(rows), vec(rhs))
    bary = [[vertices[j][i] for j in range(n + 1)] for i in range(n)] + [[1] * (n + 1)]
    alpha = solve_square(mat(bary), vec(list(center) + [1]))
    return center, alpha, gram_dot(gram, vec_sub(center, v0), vec_sub(center, v0))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_circumcenter_matches_the_fraction_solve(dim):
    rng = random.Random(dim)
    grams = [build_anstar(dim).gram, identity(dim)]
    for _ in range(6):
        vertices = tuple(
            vec([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(dim)])
            for _ in range(dim + 1)
        )
        for gram in grams:
            try:
                want = reference_circumcenter(vertices, gram)
            except SingularMatrixError:
                with pytest.raises(DegenerateSimplexError):
                    circumcenter(vertices, gram)
                continue
            assert circumcenter(vertices, gram) == want


def test_degenerate_simplex_rejected():
    lat = build_anstar(2)
    v = lat.delone_classes[0].vertices
    with pytest.raises(DegenerateSimplexError):
        circumcenter((v[0], v[1], v[1]), lat.gram)


def test_empty_sphere_oracle_rejects_inflated_simplex():
    lat = build_anstar(3)
    doubled = DeloneSimplex(
        vertices=tuple(vec([2 * c for c in v]) for v in lat.delone_classes[0].vertices),
        label=(9, 9, 9, 9),
    )
    inflated = LatticeModel(
        n=3, gram=lat.gram, embedding=lat.embedding, delone_classes=(doubled,)
    )
    assert not genericity_check(inflated)


def test_genericity_true_for_anstar():
    for n in (2, 3, 4, 5):
        assert genericity_check(build_anstar(n))


def test_genericity_false_for_cubic_lattice():
    # corner simplex of the unit cube: its circumsphere carries all 8 corners
    corner = DeloneSimplex(
        vertices=(vec([0, 0, 0]), vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1])),
        label=(0, 1, 2, 3),
    )
    cubic = LatticeModel(
        n=3, gram=identity(3), embedding=identity(3), delone_classes=(corner,)
    )
    assert not genericity_check(cubic)


def test_lattice_points_enumerator():
    pts = lattice_points_within(identity(2), Fraction(2))
    assert set(pts) == {
        (0, 0),
        (1, 0), (-1, 0), (0, 1), (0, -1),
        (1, 1), (1, -1), (-1, 1), (-1, -1),
    }


def test_change_basis_preserves_geometry():
    lat = build_anstar(3)
    u = mat([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    assert abs(det(u)) == 1
    moved = change_basis(lat, u)
    assert covering_radius(moved)[0] == covering_radius(lat)[0]
    assert genericity_check(moved)
    assert det(moved.gram) == det(lat.gram)


def test_delone_geometry_solved_once_per_model(monkeypatch):
    import ballcover.lattice

    u = mat([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    moved = change_basis(build_anstar(3), u)
    calls = []
    solve = ballcover.lattice.circumcenter

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(ballcover.lattice, "circumcenter", counting)
    covering_radius(moved)
    voronoi_vertices(moved)
    genericity_check(moved)
    report = lattice_report(moved)
    # One solve per orbit: class 0 is solved, the other five are its images
    # under the class maps, and all four readers share the result.
    assert len(moved.delone_classes) == 6
    assert len(calls) == 1
    assert [c["circumcenter"] for c in report["classes"]] == [
        p.center for p in moved.simplices
    ]
    # The cached simplices are not a field: a model without them is equal.
    fresh = change_basis(build_anstar(3), u)
    assert fresh == moved and hash(fresh) == hash(moved)


def test_alpha_translation_invariance():
    lat = build_anstar(3)
    s = lat.delone_classes[2]
    shift = vec([1, -2, 1])
    shifted = DeloneSimplex(
        vertices=tuple(vec([a + b for a, b in zip(v, shift)]) for v in s.vertices),
        label=s.label,
    )
    c0, a0, r0 = circumcenter(s.vertices, lat.gram)
    c1, a1, r1 = circumcenter(shifted.vertices, lat.gram)
    assert a0 == a1 and r0 == r1
    assert vec_sub(c1, c0) == shift
    p0 = primitive_simplex(s, lat.gram)
    p1 = primitive_simplex(shifted, lat.gram)
    assert p0.x == p1.x


def _solved_directly(lat):
    return tuple(primitive_simplex(s, lat.gram) for s in lat.delone_classes)


def test_orbit_geometry_equals_the_direct_solve():
    a3 = build_anstar(3)
    models = [build_anstar(n) for n in (2, 3, 4, 5)]
    models.append(change_basis(a3, mat([[1, 1, 0], [0, 1, 0], [1, 0, 1]])))
    models.append(
        LatticeModel(
            n=3,
            gram=mat_scale(Fraction(4), a3.gram),
            embedding=None,
            delone_classes=a3.delone_classes,
        )
    )
    for lat in models:
        maps = lat.class_maps
        assert maps[0] is None
        assert all(u is not None for u in maps[1:])
        # center, alpha, cr2 and every x_j, Fraction for Fraction
        assert lat.simplices == _solved_directly(lat)
        for u in maps[1:]:
            um = mat(u)
            assert all(x.denominator == 1 for row in um for x in row)
            assert mat_mul(transpose(um), mat_mul(lat.gram, um)) == lat.gram
            assert abs(det(um)) == 1


def test_classes_without_a_lattice_map_are_solved_directly():
    lat = build_anstar(3)
    first, second = lat.delone_classes[:2]
    doubled = DeloneSimplex(
        vertices=tuple(vec([2 * c for c in v]) for v in first.vertices), label=first.label
    )
    # class 1 is class 0 doubled: U = 2 I is an integer matrix, but not an
    # isometry of G
    not_isometric = LatticeModel(
        n=3, gram=lat.gram, embedding=lat.embedding, delone_classes=(first, doubled)
    )
    # class 0 is doubled and class 1 is (2 I + E) times class 0, E the unit
    # matrix at (0, 1): U = I + E/2 has a half, and rounding it down would
    # give the isometry I
    skewed = DeloneSimplex(
        vertices=tuple(vec([2 * v[0] + v[1], 2 * v[1], 2 * v[2]]) for v in first.vertices),
        label=second.label,
    )
    not_integral = LatticeModel(
        n=3, gram=lat.gram, embedding=lat.embedding, delone_classes=(doubled, skewed)
    )
    # vertices off the lattice, in either class: no map is tried (with
    # class 0 halved, B A^-1 for the scaled vertices would be I)
    halved = DeloneSimplex(
        vertices=tuple(vec([c / 2 for c in v]) for v in first.vertices), label=first.label
    )
    models = [not_isometric, not_integral]
    for classes in ((first, halved), (halved, first)):
        models.append(
            LatticeModel(n=3, gram=lat.gram, embedding=lat.embedding, delone_classes=classes)
        )
    for model in models:
        assert model.class_maps == (None, None)
        assert model.simplices == _solved_directly(model)
        # the doubled, skewed or halved class is tested by the oracle, and
        # fails it
        assert not genericity_check(model)
    # a class with a fifth vertex is not mapped, though its first four are
    # class 0's image, and fails as it did
    extra = DeloneSimplex(
        vertices=second.vertices + (vec([5, 5, 5]),), label=second.label
    )
    overfull = LatticeModel(
        n=3, gram=lat.gram, embedding=lat.embedding, delone_classes=(first, extra)
    )
    assert overfull.class_maps == (None, None)
    with pytest.raises(ValueError, match="need n\\+1 vertices"):
        overfull.simplices
    # the same two classes of A3* do map, and pass
    pair = LatticeModel(
        n=3, gram=lat.gram, embedding=lat.embedding, delone_classes=(first, second)
    )
    assert pair.class_maps[1] is not None
    assert pair.simplices == _solved_directly(pair)
    assert genericity_check(pair)


def _fresh(lat):
    """An equal model with none of its per-model facts computed yet."""
    return LatticeModel(*lat)


def _pair_map_models():
    a3 = build_anstar(3)
    models = [build_anstar(n) for n in (2, 3, 4, 5)]
    models.append(change_basis(a3, mat([[1, 1, 0], [0, 1, 0], [1, 0, 1]])))
    return models


def test_pair_maps_are_the_twin_checked_q_maps():
    for lat in _pair_map_models():
        _, maximal = covering_radius(lat)
        assert lat.pairs == negative_pairs(maximal)
        want = [q_map(maximal[i], lat.gram, twin=maximal[j]) for i, j in lat.pairs]
        assert lat.pair_maps == tuple(want)


def _counting_map_sums(monkeypatch):
    import ballcover.lattice

    calls = []
    real = ballcover.lattice._map_sum

    def counting(moment, form, u=None):
        calls.append(u)
        return real(moment, form, u)

    monkeypatch.setattr(ballcover.lattice, "_map_sum", counting)
    return calls


def test_a_model_without_class_maps_sums_each_form_directly(monkeypatch):
    # A4* with every class moved by half a lattice vector: the same simplices
    # up to translation, but their vertices are off the lattice, so no class
    # map is tried and every form is q_map's own sum.
    lat = build_anstar(4)
    shift = vec([Fraction(1, 2)] + [0] * 3)
    moved = LatticeModel(
        n=4,
        gram=lat.gram,
        embedding=None,
        delone_classes=tuple(
            DeloneSimplex(vertices=tuple(vec_sub(v, shift) for v in s.vertices), label=s.label)
            for s in lat.delone_classes
        ),
    )
    assert set(moved.class_maps) == {None}
    calls = _counting_map_sums(monkeypatch)
    assert [m.form for m in moved.pair_maps] == [m.form for m in lat.pair_maps]
    assert calls == [None] * len(moved.simplices)
    # with the class maps, only class 0 is summed directly
    calls.clear()
    _fresh(lat).pair_maps
    assert calls[0] is None and None not in calls[1:]


def _tampered(n, tamper):
    """A fresh A_n* whose simplices are solved with its true class maps, and
    whose class maps are then replaced by tamper(list of them)."""
    lat = _fresh(build_anstar(n))
    lat.simplices
    maps = list(lat.class_maps)
    tamper(maps)
    lat.__dict__["class_maps"] = tuple(maps)
    return lat


def test_pair_maps_refuse_a_tampered_class_map():
    lat = build_anstar(4)
    p = next(p for p, (i, _) in enumerate(lat.pairs) if i > 0)
    i = lat.pairs[p][0]
    other = next(a for (a, _), m in zip(lat.pairs, lat.pair_maps) if a and m != lat.pair_maps[p])

    def swap(maps):  # a true automorphism, of another class
        maps[i] = maps[other]

    def double(maps):  # an integer map, but no isometry of G
        maps[i] = tuple(tuple(2 * c for c in row) for row in maps[i])

    for tamper, message in ((swap, "negative pair with distinct maps"), (double, "unit trace")):
        with pytest.raises(RuntimeError, match=message):
            _tampered(4, tamper).pair_maps
    # a congruence image is symmetric by construction; an asymmetric one is
    # refused all the same
    from ballcover.lattice import _checked_map, _map_sum, _moment
    from ballcover.linalg import gram_inverse, integer_form

    form = integer_form(lat.gram)
    total, den = _map_sum(_moment(lat.simplices[0]), form, lat.class_maps[i])
    total[0][1] += 1
    with pytest.raises(RuntimeError, match="not symmetric"):
        _checked_map((total, den), None, integer_form(gram_inverse(lat.gram)), lat.simplices[0].cr2, {})


def test_voronoi_vertices_sorted_once_per_model(monkeypatch, tmp_path, capsys):
    import ballcover.lattice
    from ballcover import cli

    sorts = []

    def counting(items, **kwargs):
        out = sorted(items, **kwargs)
        sorts.append(len(out))
        return out

    monkeypatch.setattr(ballcover.lattice, "sorted", counting, raising=False)
    build_anstar.cache_clear()
    # `anstar` emits the report and verifies it in process: one sort of the
    # 720 vertices of A5*, not one per reader
    assert cli.main(["anstar", "--dim", "5", "--out", str(tmp_path / "a5.json")]) == 0
    assert sorts.count(720) == 1
    lat = build_anstar(5)
    assert voronoi_vertices(lat) is lat.voronoi_vertices
    assert sorts.count(720) == 1
    capsys.readouterr()
