"""Eutaxy classification of the A_n* families and synthetic map sets."""

import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ballcover
from ballcover import eutaxy, lp
from ballcover.eutaxy import (
    EutaxyClass,
    EutaxyMap,
    classification_certificate,
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
    covering_radius,
    negative_pairs,
    pair_orbit,
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
from ballcover.reports import rationalize, verify_certificate

from oracles import change_basis


def test_q_map_unit_trace_and_symmetry():
    for n in (2, 3, 4):
        lat = build_anstar(n)
        _, simplices = covering_radius(lat)
        ginv = mat_inv(lat.gram)
        for s in simplices[:6]:
            m = q_map(s, lat.gram)
            assert map_trace(ginv, m.form) == 1


def test_q_map_rejects_a_wrong_simplex_radius():
    lat = build_anstar(3)
    _, simplices = covering_radius(lat)
    inflated = simplices[0]._replace(cr2=2 * simplices[0].cr2)
    with pytest.raises(RuntimeError, match="unit trace"):
        q_map(inflated, lat.gram)
    # python -O strips asserts; the check must not depend on them.
    script = textwrap.dedent(
        """
        from ballcover.eutaxy import q_map
        from ballcover.lattice import build_anstar, covering_radius
        lat = build_anstar(3)
        s = covering_radius(lat)[1][0]
        try:
            q_map(s._replace(cr2=2 * s.cr2), lat.gram)
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
    assert res.stdout.strip() == "simplex map does not have unit trace"


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


def test_classify_rejects_empty_and_inconsistent_outcomes(monkeypatch):
    with pytest.raises(ValueError):
        classify([], identity(2))
    # A3*'s pairs are all irremovable, so the kernel test must find the
    # combination unique; a contradicting kernel test is an internal error.
    monkeypatch.setattr(eutaxy, "forms_independent", lambda forms: False)
    with pytest.raises(RuntimeError, match="not unique and positive"):
        classify_lattice(build_anstar(3))


def test_a3_coefficients_reject_other_dimensions():
    with pytest.raises(ValueError):
        eutaxy_coefficients_a3(build_anstar(2))


def test_five_dimensional_classification_runtime():
    t0 = time.monotonic()
    build_anstar.cache_clear()
    ctx = classify_lattice(build_anstar(5))
    elapsed = time.monotonic() - t0
    assert ctx.report.classification is EutaxyClass.REDUNDANTLY_SEMI_EUTACTIC
    assert elapsed < 300


def test_removals_cost_two_lp_runs_where_pair_zero_is_removable(monkeypatch):
    runs = []
    real = lp.lp_feasible_nonneg

    def counting(maps, target):
        runs.append(len(maps))
        return real(maps, target)

    monkeypatch.setattr(lp, "lp_feasible_nonneg", counting)
    # dims 4 and 5: the full run and removal 0; the rest are moved weights.
    # dims 2 and 3: removal 0 is infeasible, so each removal has its own run
    # and its own separating form.
    for n, expected in ((2, 2), (3, 4), (4, 2), (5, 2)):
        runs.clear()
        classify_lattice(build_anstar(n))
        assert len(runs) == expected, n


def test_moved_removals_resum_to_the_gram_matrix():
    for n in (4, 5):
        ctx = classify_lattice(build_anstar(n))
        forms = [m.form for m in ctx.maps]
        for r in ctx.report.removals:
            kept = forms[: r.pair_index] + forms[r.pair_index + 1 :]
            assert r.feasible and len(r.coefficients) == len(kept)
            assert all(c >= 0 for c in r.coefficients)
            total = tuple(
                tuple(sum(c * f[i][j] for c, f in zip(r.coefficients, kept)) for j in range(n))
                for i in range(n)
            )
            assert total == ctx.lat.gram


def test_pair_orbit_takes_pair_zero_to_each_pair():
    for n in (3, 4, 5):
        lat = build_anstar(n)
        _, simplices = covering_radius(lat)
        pairs = negative_pairs(simplices)
        orbit = pair_orbit(lat, simplices, pairs)
        assert [sigma[0] for sigma in orbit] == list(range(len(pairs)))
        assert all(sorted(sigma) == list(range(len(pairs))) for sigma in orbit)


def test_wrong_pair_orbit_fails_loudly():
    ctx = classify_lattice(build_anstar(4))
    count = len(ctx.maps)
    # each permutation takes pair 0 to pair k, but is no automorphism's
    shifted = [tuple((p + k) % count for p in range(count)) for k in range(count)]
    with pytest.raises(RuntimeError, match="moved weights of removal 1"):
        classify(ctx.maps, ctx.lat.gram, shifted)


def test_verify_rejects_swapped_weights_in_a_moved_removal():
    cert = rationalize(classification_certificate(build_anstar(4)))
    assert verify_certificate(cert) == (True, [])
    weights = cert["removals"][1]["coefficients"]
    i = next(i for i, w in enumerate(weights) if w != weights[0])
    weights[0], weights[i] = weights[i], weights[0]
    ok, bad = verify_certificate(cert)
    assert not ok
    assert bad == ["removal 1: coefficients do not resolve identity"]


def test_verify_names_malformed_evidence():
    # Evidence of the wrong shape gets a named line, never a traceback.
    cert = rationalize(classification_certificate(build_anstar(3)))
    infeasible = dict(
        cert,
        classification="not-semi-eutactic",
        conclusion="ball extensible; not relatively worst covering",
        pair_coefficients=None,
        simplex_coefficients=None,
        removals=[],
    )
    # The Gram form pairs positively with every map, so it separates nothing.
    not_strict = [f"separating map not strict against map {k}" for k in range(3)]
    coefficients = cert["pair_coefficients"]
    for forged, message in (
        (infeasible, ["a classification without weights needs a separating map"]),
        (dict(infeasible, farkas_form=cert["gram"]), not_strict),
        (
            dict(cert, pair_coefficients=coefficients[:2]),
            ["pair_coefficients must hold one weight for each of the 3 pairs"],
        ),
        (
            dict(cert, pair_coefficients=[*coefficients, "1"]),
            ["pair_coefficients must hold one weight for each of the 3 pairs"],
        ),
        (
            dict(cert, removals=cert["removals"][:2]),
            ["removals must hold one outcome for each of the 3 pairs"],
        ),
    ):
        assert verify_certificate(forged) == (False, message), message


def test_split_pair_weights_needs_one_weight_per_pair():
    with pytest.raises(ValueError):
        eutaxy.split_pair_weights([Fraction(1)] * 2, [(0, 5), (1, 4), (2, 3)])
