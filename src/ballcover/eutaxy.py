"""Semi-eutaxy of the maximal simplices of a covering lattice.

To each maximal primitive simplex S (vertices x_j on the sphere of squared
radius cr2, circumcenter at the origin) attach the positive semidefinite map

    Q_S(u) = sum_j alpha_j <x_j, u> x_j / cr2,

normalized so trace Q_S = 1.  The simplices are semi-eutactic when the
identity is a nonnegative combination of the Q_S, critically semi-eutactic
when that combination is unique and strictly positive (equivalently, no
+/- pair of simplices can be removed), and redundantly semi-eutactic when
every pair can be removed.  All tests run in exact rational arithmetic and
failures carry strict separating certificates.

Maps are stored through their bilinear forms: for a map with matrix A in
lattice coordinates the form is S = G A, which is symmetric; the identity
map has form G.  Pairings: trace(A B) = trace(G^-1 S_A G^-1 S_B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .lattice import LatticeModel, PrimitiveSimplex, covering_radius, negative_pairs
from .linalg import (
    MatQ,
    Rat,
    is_symmetric,
    mat,
    mat_add,
    mat_inv,
    mat_mul,
    mat_scale,
    mat_vec,
    nullspace,
    outer,
    solve_affine,
    trace,
    vec,
    zeros,
)
from .lp import Feasible, Infeasible, lp_feasible_nonneg


class EutaxyClass(enum.Enum):
    NOT_SEMI_EUTACTIC = "not-semi-eutactic"
    SEMI_EUTACTIC = "semi-eutactic"
    CRITICALLY_SEMI_EUTACTIC = "critically-semi-eutactic"
    REDUNDANTLY_SEMI_EUTACTIC = "redundantly-semi-eutactic"


@dataclass(frozen=True)
class EutaxyMap:
    """Normalized simplex map, stored as its symmetric form matrix."""

    form: MatQ
    cr2: Rat


def map_inner(gram_inv: MatQ, a: MatQ, b: MatQ) -> Rat:
    """Trace pairing of two maps given by their forms."""
    x = mat_mul(gram_inv, a)
    y = mat_mul(gram_inv, b)
    return trace(mat_mul(x, y))


def map_trace(gram_inv: MatQ, a: MatQ) -> Rat:
    return trace(mat_mul(gram_inv, a))


def map_matrix(gram_inv: MatQ, form: MatQ) -> MatQ:
    """Matrix of the map in lattice coordinates."""
    return mat_mul(gram_inv, form)


@lru_cache(maxsize=8)
def _gram_inverse(gram: MatQ) -> MatQ:
    """G^-1, computed once per Gram matrix for the unit-trace check."""
    return mat_inv(gram)


def q_map(simplex: PrimitiveSimplex, gram: MatQ) -> EutaxyMap:
    n = len(gram)
    form = zeros(n, n)
    for a, x in zip(simplex.alpha, simplex.x):
        w = mat_vec(gram, x)
        form = mat_add(form, mat_scale(a, outer(w, w)))
    form = mat_scale(1 / simplex.cr2, form)
    if not is_symmetric(form):
        raise RuntimeError("simplex map form is not symmetric")
    if map_trace(_gram_inverse(gram), form) != 1:
        raise RuntimeError("simplex map does not have unit trace")
    return EutaxyMap(form=form, cr2=simplex.cr2)


@dataclass(frozen=True)
class RemovalOutcome:
    """Feasibility of the identity over the maps with one pair removed."""

    pair_index: int
    feasible: bool
    coefficients: Optional[tuple[Rat, ...]]
    farkas_form: Optional[MatQ]


@dataclass(frozen=True)
class EutaxyReport:
    classification: EutaxyClass
    coefficients: Optional[tuple[Rat, ...]]
    farkas_form: Optional[MatQ]
    removals: tuple[RemovalOutcome, ...]
    unique: bool


def _forms_kernel_trivial(forms: Sequence[MatQ]) -> bool:
    n = len(forms[0])
    coords = [(i, j) for i in range(n) for j in range(i, n)]
    stacked = mat([[f[i][j] for f in forms] for (i, j) in coords])
    return not nullspace(stacked)


def _farkas_to_form(gram: MatQ, y: MatQ) -> MatQ:
    """Convert an LP certificate to the form matrix of the separating map.

    The LP separates with the plain pairing trace(Y S_k); the map whose form
    is G Y G realizes the same values under the lattice trace pairing.
    """
    return mat_mul(gram, mat_mul(y, gram))


def classify(maps: Sequence[EutaxyMap], gram: MatQ) -> EutaxyReport:
    """Classify a deduplicated family of normalized simplex maps.

    `maps` must contain one representative per +/- pair (the two members
    share a form).  Every removal is decided by its own exact feasibility
    run, and the kernel test cross-checks the LP outcomes: removals are all
    infeasible exactly when the full combination is unique and positive.
    """
    if not maps:
        raise ValueError("no maps to classify")
    forms = [m.form for m in maps]
    target = gram
    full = lp_feasible_nonneg(forms, target)
    unique = _forms_kernel_trivial(forms)
    if isinstance(full, Infeasible):
        return EutaxyReport(
            classification=EutaxyClass.NOT_SEMI_EUTACTIC,
            coefficients=None,
            farkas_form=_farkas_to_form(gram, full.certificate),
            removals=(),
            unique=unique,
        )
    removals = []
    for k in range(len(maps)):
        rest = [f for i, f in enumerate(forms) if i != k]
        res = lp_feasible_nonneg(rest, target)
        if isinstance(res, Feasible):
            removals.append(
                RemovalOutcome(
                    pair_index=k,
                    feasible=True,
                    coefficients=res.coefficients,
                    farkas_form=None,
                )
            )
        else:
            removals.append(
                RemovalOutcome(
                    pair_index=k,
                    feasible=False,
                    coefficients=None,
                    farkas_form=_farkas_to_form(gram, res.certificate),
                )
            )
    none_removable = all(not r.feasible for r in removals)
    all_removable = all(r.feasible for r in removals)
    if none_removable:
        if not (unique and all(c > 0 for c in full.coefficients)):
            raise RuntimeError("no pair removable, yet weights not unique and positive")
        cls = EutaxyClass.CRITICALLY_SEMI_EUTACTIC
    elif all_removable:
        cls = EutaxyClass.REDUNDANTLY_SEMI_EUTACTIC
    else:
        cls = EutaxyClass.SEMI_EUTACTIC
    return EutaxyReport(
        classification=cls,
        coefficients=full.coefficients,
        farkas_form=None,
        removals=tuple(removals),
        unique=unique,
    )


@dataclass(frozen=True)
class LatticeEutaxy:
    """Classification of a lattice model with its supporting geometry."""

    lat: LatticeModel
    mu2: Rat
    simplices: tuple[PrimitiveSimplex, ...]
    pairs: tuple[tuple[int, int], ...]
    maps: tuple[EutaxyMap, ...]
    report: EutaxyReport

    @property
    def simplex_coefficients(self) -> Optional[tuple[Rat, ...]]:
        """Per-simplex weights: each pair's weight split over its two members."""
        if self.report.coefficients is None:
            return None
        out = [Fraction(0)] * len(self.simplices)
        for w, (i, j) in zip(self.report.coefficients, self.pairs):
            out[i] = w / 2
            out[j] = w / 2
        return tuple(out)


def classify_lattice(lat: LatticeModel) -> LatticeEutaxy:
    """Build the maximal simplices of the model and classify their maps."""
    mu2, simplices = covering_radius(lat)
    pairs = negative_pairs(simplices)
    reps = []
    for idx, (i, j) in enumerate(pairs):
        mi = q_map(simplices[i], lat.gram)
        mj = q_map(simplices[j], lat.gram)
        if mi.form != mj.form:
            raise RuntimeError("negative pair with distinct maps")
        reps.append(mi)
    report = classify(reps, lat.gram)
    return LatticeEutaxy(
        lat=lat,
        mu2=mu2,
        simplices=simplices,
        pairs=pairs,
        maps=tuple(reps),
        report=report,
    )


def eutaxy_coefficients_a3(lat: LatticeModel) -> tuple[Rat, ...]:
    """Exact per-simplex weights resolving the identity, for 3-dimensional
    models with the permutohedral Delone structure (six simplex classes).

    Solves the linear system sum_k w_k form_k = gram directly and fails
    loudly when the solution is not unique or not nonnegative.
    """
    if lat.n != 3:
        raise ValueError("the model must be 3-dimensional")
    _, simplices = covering_radius(lat)
    if len(simplices) != 6:
        raise ValueError("the model must have six Delone simplex classes")
    pairs = negative_pairs(simplices)
    reps = [q_map(simplices[i], lat.gram) for i, _ in pairs]
    coords = [(i, j) for i in range(3) for j in range(i, 3)]
    stacked = mat([[m.form[i][j] for m in reps] for (i, j) in coords])
    rhs = vec([lat.gram[i][j] for (i, j) in coords])
    res = solve_affine(stacked, rhs)
    if res.particular is None or res.nullspace:
        raise ValueError("identity resolution is not a unique combination")
    w = res.particular
    if any(c < 0 for c in w):
        raise ValueError("identity resolution has a negative weight")
    out = [Fraction(0)] * 6
    for wk, (i, j) in zip(w, pairs):
        out[i] = wk / 2
        out[j] = wk / 2
    if sum(out) != 3:
        raise RuntimeError("simplex weights do not sum to the dimension")
    return tuple(out)


def ball_conclusion(cls: EutaxyClass) -> str:
    """What a classification says about the ball: it is inextensible exactly
    when the maximal simplices are critically semi-eutactic, that is, when
    no +/- pair can be removed from the identity resolution."""
    if cls is EutaxyClass.CRITICALLY_SEMI_EUTACTIC:
        return "ball inextensible; relatively worst covering candidate"
    return "ball extensible; not relatively worst covering"


def classification_certificate(lat: LatticeModel) -> dict:
    """Plain-data certificate for the lattice classification (values exact)."""
    ctx = classify_lattice(lat)
    rep = ctx.report
    removals = []
    for r in rep.removals:
        removals.append(
            {
                "pair_index": r.pair_index,
                "feasible": r.feasible,
                "coefficients": None
                if r.coefficients is None
                else list(r.coefficients),
                "farkas_form": None
                if r.farkas_form is None
                else [list(row) for row in r.farkas_form],
            }
        )
    return {
        "kind": "eutaxy-classification",
        "dimension": lat.n,
        "gram": [list(row) for row in lat.gram],
        "mu2": ctx.mu2,
        "num_simplices": len(ctx.simplices),
        "pairs": [list(p) for p in ctx.pairs],
        "maps": [[list(row) for row in m.form] for m in ctx.maps],
        "classification": rep.classification.value,
        "pair_coefficients": None
        if rep.coefficients is None
        else list(rep.coefficients),
        "simplex_coefficients": None
        if ctx.simplex_coefficients is None
        else list(ctx.simplex_coefficients),
        "unique": rep.unique,
        "farkas_form": None
        if rep.farkas_form is None
        else [list(row) for row in rep.farkas_form],
        "removals": removals,
        "conclusion": ball_conclusion(rep.classification),
        "normalization": "maps scaled by 1/cr2 so each has unit trace",
    }
