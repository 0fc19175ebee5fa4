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

The LP solver is imported by the functions that run it, so checking a
classification, which runs no LP, does not load it.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, Optional, Sequence

from .lattice import (
    LatticeModel,
    PrimitiveSimplex,
    covering_radius,
    negative_pairs,
    pair_orbit,
)
from .linalg import (
    MatQ,
    Rat,
    _rref,
    integer_form,
    integer_scaled,
    combination_test,
    is_symmetric,
    mat_inv,
    mat_mul,
    trace,
    trace_product,
)


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
    return trace_product(gram_inv, a)


def map_matrix(gram_inv: MatQ, form: MatQ) -> MatQ:
    """Matrix of the map in lattice coordinates."""
    return mat_mul(gram_inv, form)


@lru_cache(maxsize=8)
def gram_inverse(gram: MatQ) -> MatQ:
    """G^-1 of a fixed lattice's Gram matrix, computed once per matrix."""
    return mat_inv(gram)


def q_map(simplex: PrimitiveSimplex, gram: MatQ) -> EutaxyMap:
    """The form sum_j alpha_j (G x_j)(G x_j)^T / cr2 of the simplex map.

    Summed on integers: with G as L G, each x_j times the lcm X of the
    vertex denominators and each alpha_j times the lcm A of theirs,
    w_j = (L G)(X x_j) is an integer vector and the sum of (A alpha_j)
    w_j w_j^T is the form times A L^2 X^2 cr2.
    """
    gz, scale = integer_form(gram)
    xs, xden = integer_scaled(simplex.x)
    (alphas,), aden = integer_scaled([simplex.alpha])
    total = [[0] * len(gram) for _ in gram]
    for a, x in zip(alphas, xs):
        w = [sum(map(mul, row, x)) for row in gz]
        for wi, row in zip(w, total):
            awi = a * wi
            for k, wk in enumerate(w):
                row[k] += awi * wk
    cr2 = simplex.cr2
    den = aden * scale * scale * xden * xden * cr2.numerator
    form = tuple(tuple(Fraction(t * cr2.denominator, den) for t in row) for row in total)
    if not is_symmetric(form):
        raise RuntimeError("simplex map form is not symmetric")
    if map_trace(gram_inverse(gram), form) != 1:
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


def forms_independent(forms: Sequence[MatQ]) -> bool:
    """Whether the symmetric forms are linearly independent, so that a
    combination of them is unique: the rank of their stacked upper
    triangles, from one fraction-free elimination."""
    n = len(forms[0])
    tab, _ = integer_scaled([[f[i][j] for f in forms] for i in range(n) for j in range(i, n)])
    return len(_rref(tab)[1]) == len(forms)


def _farkas_to_form(gram: MatQ, y: MatQ) -> MatQ:
    """Convert an LP certificate to the form matrix of the separating map.

    The LP separates with the plain pairing trace(Y S_k); the map whose form
    is G Y G realizes the same values under the lattice trace pairing.
    """
    return mat_mul(gram, mat_mul(y, gram))


def removal_class(removable: Sequence[bool]) -> EutaxyClass:
    """Class of a semi-eutactic family from which pairs can be removed:
    critical when none can, redundant when every one can."""
    if not any(removable):
        return EutaxyClass.CRITICALLY_SEMI_EUTACTIC
    if all(removable):
        return EutaxyClass.REDUNDANTLY_SEMI_EUTACTIC
    return EutaxyClass.SEMI_EUTACTIC


def _removal(forms: Sequence[MatQ], k: int, gram: MatQ) -> RemovalOutcome:
    """Removal k decided by its own exact feasibility run."""
    from .lp import Feasible, lp_feasible_nonneg

    res = lp_feasible_nonneg([f for i, f in enumerate(forms) if i != k], gram)
    if isinstance(res, Feasible):
        return RemovalOutcome(
            pair_index=k, feasible=True, coefficients=res.coefficients, farkas_form=None
        )
    return RemovalOutcome(
        pair_index=k,
        feasible=False,
        coefficients=None,
        farkas_form=_farkas_to_form(gram, res.certificate),
    )


def _moved_removal(
    first: RemovalOutcome, sigma: Sequence[int], resums: Callable[..., bool]
) -> RemovalOutcome:
    """Removal sigma[0] from the weights of a feasible removal 0.

    sigma is the pair permutation of a lattice automorphism U taking pair 0
    to pair k = sigma[0].  The forms move by congruence under U and G is
    fixed, so weight w[p] of removal 0 becomes the weight of pair sigma[p].
    The moved weights pass the guards of an LP result: they re-sum to G
    over the kept forms (resums, the family's combination_test, with form
    k dropped) and are nonnegative.
    """
    k = sigma[0]
    weights = [None] * len(sigma)
    for p, w in zip(range(1, len(sigma)), first.coefficients):
        weights[sigma[p]] = w
    coefficients = tuple(weights[:k] + weights[k + 1 :])
    if (
        any(c is None for c in coefficients)
        or not resums(coefficients, k)
        or any(c < 0 for c in coefficients)
    ):
        raise RuntimeError(f"moved weights of removal {k} do not resolve the identity")
    return RemovalOutcome(pair_index=k, feasible=True, coefficients=coefficients, farkas_form=None)


def classify(
    maps: Sequence[EutaxyMap],
    gram: MatQ,
    orbit: Optional[Sequence[Sequence[int]]] = None,
) -> EutaxyReport:
    """Classify a deduplicated family of normalized simplex maps.

    `maps` must contain one representative per +/- pair (the two members
    share a form).  Removal 0 is decided by an exact feasibility run.  When
    it is feasible and `orbit` gives, for each pair k, the pair
    permutation of a lattice automorphism taking pair 0 to pair k, every
    other removal is removal 0's weights moved by it; otherwise each removal
    has its own run, so each infeasible one has its own separating form.
    The kernel test cross-checks the outcomes: removals are all infeasible
    exactly when the full combination is unique and positive.
    """
    from .lp import Infeasible, lp_feasible_nonneg

    if not maps:
        raise ValueError("no maps to classify")
    forms = [m.form for m in maps]
    target = gram
    full = lp_feasible_nonneg(forms, target)
    unique = forms_independent(forms)
    if isinstance(full, Infeasible):
        return EutaxyReport(
            classification=EutaxyClass.NOT_SEMI_EUTACTIC,
            coefficients=None,
            farkas_form=_farkas_to_form(gram, full.certificate),
            removals=(),
            unique=unique,
        )
    first = _removal(forms, 0, gram)
    removals = [first]
    resums = combination_test(forms, gram)
    for k in range(1, len(maps)):
        if first.feasible and orbit is not None:
            removals.append(_moved_removal(first, orbit[k], resums))
        else:
            removals.append(_removal(forms, k, gram))
    cls = removal_class([r.feasible for r in removals])
    if cls is EutaxyClass.CRITICALLY_SEMI_EUTACTIC and not (
        unique and all(c > 0 for c in full.coefficients)
    ):
        raise RuntimeError("no pair removable, yet weights not unique and positive")
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
        return split_pair_weights(self.report.coefficients, self.pairs)


def split_pair_weights(
    weights: Optional[Sequence[Rat]], pairs: Sequence[tuple[int, int]]
) -> Optional[tuple[Rat, ...]]:
    """Each pair's weight halved over its two simplices; None without weights."""
    if weights is None:
        return None
    out = [Fraction(0)] * (2 * len(pairs))
    for w, (i, j) in zip(weights, pairs):
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
    report = classify(reps, lat.gram, pair_orbit(lat, simplices, pairs))
    return LatticeEutaxy(
        lat=lat,
        mu2=mu2,
        simplices=simplices,
        pairs=pairs,
        maps=tuple(reps),
        report=report,
    )


@lru_cache(maxsize=8)
def classified(lat: LatticeModel) -> LatticeEutaxy:
    """classify_lattice(lat), computed once per model."""
    return classify_lattice(lat)


def eutaxy_coefficients_a3(lat: LatticeModel) -> tuple[Rat, ...]:
    """Exact per-simplex weights resolving the identity, for 3-dimensional
    models with the permutohedral Delone structure (six simplex classes).

    A checked view of classify_lattice's simplex coefficients: fails loudly
    unless the maximal simplices are critically semi-eutactic, that is,
    unless the weights are unique and positive.
    """
    if lat.n != 3:
        raise ValueError("the model must be 3-dimensional")
    ctx = classified(lat)
    if len(ctx.simplices) != 6:
        raise ValueError("the model must have six Delone simplex classes")
    cls = ctx.report.classification
    if cls is EutaxyClass.NOT_SEMI_EUTACTIC:
        raise ValueError("identity resolution has a negative weight")
    if cls is not EutaxyClass.CRITICALLY_SEMI_EUTACTIC:
        raise ValueError("identity resolution is not a unique positive combination")
    out = ctx.simplex_coefficients
    if sum(out) != 3:
        raise RuntimeError("simplex weights do not sum to the dimension")
    return out


def ball_conclusion(cls: EutaxyClass) -> str:
    """What a classification says about the ball: it is inextensible exactly
    when the maximal simplices are critically semi-eutactic, that is, when
    no +/- pair can be removed from the identity resolution."""
    if cls is EutaxyClass.CRITICALLY_SEMI_EUTACTIC:
        return "ball inextensible; relatively worst covering candidate"
    return "ball extensible; not relatively worst covering"


# How a classification certificate's maps are scaled, stated in it.
MAP_NORMALIZATION = "maps scaled by 1/cr2 so each has unit trace"


@dataclass(frozen=True)
class Classification:
    dimension: int
    gram: MatQ
    mu2: Rat
    num_simplices: int
    pairs: tuple[tuple[int, int], ...]
    maps: tuple[MatQ, ...]
    classification: str
    pair_coefficients: Optional[tuple[Rat, ...]]
    simplex_coefficients: Optional[tuple[Rat, ...]]
    unique: bool
    farkas_form: Optional[MatQ]
    removals: tuple[RemovalOutcome, ...]
    conclusion: str
    normalization: str


def classification_certificate(lat: LatticeModel) -> dict:
    """Plain-data certificate for the lattice classification (values exact)."""
    ctx = classify_lattice(lat)
    rep = ctx.report
    record = Classification(
        dimension=lat.n,
        gram=lat.gram,
        mu2=ctx.mu2,
        num_simplices=len(ctx.simplices),
        pairs=ctx.pairs,
        maps=tuple(m.form for m in ctx.maps),
        classification=rep.classification.value,
        pair_coefficients=rep.coefficients,
        simplex_coefficients=ctx.simplex_coefficients,
        unique=rep.unique,
        farkas_form=rep.farkas_form,
        removals=rep.removals,
        conclusion=ball_conclusion(rep.classification),
        normalization=MAP_NORMALIZATION,
    )
    return {"kind": "eutaxy-classification", **asdict(record)}
