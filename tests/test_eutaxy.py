"""Eutaxy classification of the A_n* families and synthetic map sets."""

import time
from fractions import Fraction

from ballcover.eutaxy import (
    EutaxyClass,
    EutaxyMap,
    classify,
    classify_lattice,
    eutaxy_coefficients_a3,
    map_inner,
    map_matrix,
    map_trace,
    q_map,
)
from ballcover.lattice import (
    LatticeModel,
    build_anstar,
    change_basis,
    covering_radius,
    negative_pairs,
)
from ballcover.linalg import (
    identity,
    mat,
    mat_add,
    mat_inv,
    mat_scale,
    trace_product,
    zeros,
)


def test_q_map_unit_trace_and_symmetry():
    for n in (2, 3, 4):
        lat = build_anstar(n)
        _, simplices = covering_radius(lat)
        ginv = mat_inv(lat.gram)
        for s in simplices[:6]:
            m = q_map(s, lat.gram)
            assert map_trace(ginv, m.form) == 1


def test_q_map_of_regular_triangle_is_half_identity():
    # n = 2: each maximal simplex is regular, so its normalized map is Id/2
    lat = build_anstar(2)
    _, simplices = covering_radius(lat)
    ginv = mat_inv(lat.gram)
    for s in simplices:
        m = q_map(s, lat.gram)
        assert map_matrix(ginv, m.form) == mat_scale(Fraction(1, 2), identity(2))


def test_negative_pair_shares_map():
    lat = build_anstar(3)
    _, simplices = covering_radius(lat)
    for i, j in negative_pairs(simplices):
        assert q_map(simplices[i], lat.gram).form == q_map(simplices[j], lat.gram).form


def test_classification_low_dimensions_critical():
    for n in (2, 3):
        ctx = classify_lattice(build_anstar(n))
        rep = ctx.report
        assert rep.classification is EutaxyClass.CRITICALLY_SEMI_EUTACTIC
        assert rep.unique
        assert all(w > 0 for w in rep.coefficients)
        assert all(not r.feasible for r in rep.removals)
        for r in rep.removals:
            y = r.farkas_form
            ginv = mat_inv(ctx.lat.gram)
            for k, m in enumerate(ctx.maps):
                if k != r.pair_index:
                    assert map_inner(ginv, y, m.form) < 0
            assert map_trace(ginv, y) > 0


def test_classification_high_dimensions_redundant():
    for n in (4, 5):
        ctx = classify_lattice(build_anstar(n))
        rep = ctx.report
        assert rep.classification is EutaxyClass.REDUNDANTLY_SEMI_EUTACTIC
        assert all(r.feasible for r in rep.removals)
        # spot-check one removal reconstruction exactly
        r = rep.removals[0]
        rest = [m.form for k, m in enumerate(ctx.maps) if k != r.pair_index]
        total = zeros(n, n)
        for c, f in zip(r.coefficients, rest):
            total = mat_add(total, mat_scale(c, f))
        assert total == ctx.lat.gram


def test_a3_coefficients_are_all_one_half():
    lat = build_anstar(3)
    ups = eutaxy_coefficients_a3(lat)
    assert ups == tuple([Fraction(1, 2)] * 6)


def test_a3_coefficients_scale_invariant():
    lat = build_anstar(3)
    scaled = LatticeModel(
        n=3,
        gram=mat_scale(Fraction(4), lat.gram),
        embedding=None,
        delone_classes=lat.delone_classes,
    )
    assert eutaxy_coefficients_a3(scaled) == eutaxy_coefficients_a3(lat)


def test_classification_invariant_under_basis_change():
    lat = build_anstar(3)
    moved = change_basis(lat, mat([[1, 0, 1], [1, 1, 1], [0, 0, 1]]))
    a = classify_lattice(lat).report
    b = classify_lattice(moved).report
    assert a.classification is b.classification
    assert sorted(a.coefficients) == sorted(b.coefficients)
    assert a.unique == b.unique


def test_classify_synthetic_not_semi_eutactic():
    e11 = mat([[1, 0], [0, 0]])
    maps = [EutaxyMap(form=e11, cr2=Fraction(1))]
    rep = classify(maps, identity(2))
    assert rep.classification is EutaxyClass.NOT_SEMI_EUTACTIC
    y = rep.farkas_form
    assert trace_product(y, e11) < 0 and trace_product(y, identity(2)) > 0


def test_classify_synthetic_single_positive_pair():
    # one map proportional to the identity: unique positive combination,
    # and removing the only pair is infeasible
    half = mat_scale(Fraction(1, 2), identity(2))
    maps = [EutaxyMap(form=half, cr2=Fraction(1))]
    rep = classify(maps, identity(2))
    assert rep.classification is EutaxyClass.CRITICALLY_SEMI_EUTACTIC
    assert rep.coefficients == (Fraction(2),)


def test_five_dimensional_classification_runtime():
    t0 = time.monotonic()
    build_anstar.cache_clear()
    ctx = classify_lattice(build_anstar(5))
    elapsed = time.monotonic() - t0
    assert ctx.report.classification is EutaxyClass.REDUNDANTLY_SEMI_EUTACTIC
    assert elapsed < 300
