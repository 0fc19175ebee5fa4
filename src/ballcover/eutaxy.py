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
map has form G.  Pairings: trace(A B) = trace(G^-1 S_A G^-1 S_B).  The
simplex map (`q_map`, `EutaxyMap`) lives beside the simplex in `lattice`,
and the map pairings (`map_inner`, `map_trace`, `map_matrix`,
`gram_inverse`) in `linalg`; they are imported here, so
`eutaxy.map_matrix` and the others still resolve.

The LP solver is imported by the functions that run it, so checking a
classification, which runs no LP, does not load it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

from .lattice import (
    EutaxyMap,
    LatticeModel,
    PrimitiveSimplex,
    build_anstar,
    covering_radius,
    q_map,
)
from .linalg import (
    MatQ,
    Rat,
    _rref,
    combination_test,
    gram_inverse,
    integer_scaled,
    map_inner,
    map_matrix,
    map_trace,
    mat_mul,
)


class EutaxyClass(enum.Enum):
    NOT_SEMI_EUTACTIC = "not-semi-eutactic"
    SEMI_EUTACTIC = "semi-eutactic"
    CRITICALLY_SEMI_EUTACTIC = "critically-semi-eutactic"
    REDUNDANTLY_SEMI_EUTACTIC = "redundantly-semi-eutactic"


class RemovalOutcome(NamedTuple):
    """Feasibility of the identity over the maps with one pair removed."""

    pair_index: int
    feasible: bool
    coefficients: Optional[tuple[Rat, ...]]
    farkas_form: Optional[MatQ]


class EutaxyReport(NamedTuple):
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


def evidence_report(
    coefficients: Optional[Sequence[Rat]],
    farkas_form: Optional[MatQ],
    removals: Sequence[RemovalOutcome],
    unique: bool,
) -> EutaxyReport:
    """The report the LP evidence proves.  Without weights for the identity
    the family is not semi-eutactic, with the separating form and no
    removals; otherwise it is critical when no pair can be removed,
    redundant when every pair can, and semi-eutactic between."""
    if coefficients is None:
        return EutaxyReport(EutaxyClass.NOT_SEMI_EUTACTIC, None, farkas_form, (), unique)
    removable = [r.feasible for r in removals]
    cls = EutaxyClass.SEMI_EUTACTIC
    if not any(removable):
        cls = EutaxyClass.CRITICALLY_SEMI_EUTACTIC
    elif all(removable):
        cls = EutaxyClass.REDUNDANTLY_SEMI_EUTACTIC
    return EutaxyReport(cls, tuple(coefficients), None, tuple(removals), unique)


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
        or any(c.numerator < 0 for c in coefficients)
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
        return evidence_report(None, _farkas_to_form(gram, full.certificate), (), unique)
    first = _removal(forms, 0, gram)
    removals = [first]
    resums = combination_test(forms, gram)
    for k in range(1, len(maps)):
        if first.feasible and orbit is not None:
            removals.append(_moved_removal(first, orbit[k], resums))
        else:
            removals.append(_removal(forms, k, gram))
    report = evidence_report(full.coefficients, None, removals, unique)
    if report.classification is EutaxyClass.CRITICALLY_SEMI_EUTACTIC and not (
        unique and all(c.numerator > 0 for c in full.coefficients)
    ):
        raise RuntimeError("no pair removable, yet weights not unique and positive")
    return report


class LatticeEutaxy(NamedTuple):
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
    for w, (i, j) in zip(weights, pairs, strict=True):
        out[i] = w / 2
        out[j] = w / 2
    return tuple(out)


def classify_lattice(lat: LatticeModel) -> LatticeEutaxy:
    """Build the maximal simplices of the model and classify their maps."""
    mu2, simplices = covering_radius(lat)
    # The two members of a pair share a map, checked on integer sums.
    report = classify(lat.pair_maps, lat.gram, lat.orbit)
    return LatticeEutaxy(
        lat=lat,
        mu2=mu2,
        simplices=simplices,
        pairs=lat.pairs,
        maps=lat.pair_maps,
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


class Classification(NamedTuple):
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


def classification_record(ctx: LatticeEutaxy) -> Classification:
    """The classification of ctx as its certificate states it."""
    rep = ctx.report
    return Classification(
        dimension=ctx.lat.n,
        gram=ctx.lat.gram,
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


def classification_certificate(lat: LatticeModel) -> dict:
    """Plain-data certificate for the lattice classification (values exact)."""
    record = classification_record(classify_lattice(lat))
    return {"kind": "eutaxy-classification", **record._asdict()}


def _separation_failures(ginv: MatQ, y: MatQ, forms: Sequence[MatQ]) -> list[str]:
    """Why y does not separate the identity strictly from the maps of the
    forms: its trace must be positive and its pairing with each negative."""
    if map_trace(ginv, y) <= 0:
        return ["separating map has nonpositive trace"]
    return [
        f"separating map not strict against map {k}"
        for k, f in enumerate(forms)
        if map_inner(ginv, y, f) >= 0
    ]


def verify_classification(data: dict, bad: list[str]) -> None:
    """Check a classification by re-deriving it from its inputs: dimension
    and the LP evidence pair_coefficients, farkas_form and each removal's
    feasible, coefficients and farkas_form.  classification_record, as
    `ball-class` uses it, derives every other leaf from A_n* rebuilt at
    that dimension, with the model's twin-checked pair_maps, and from the
    evidence (the class by evidence_report), and each leaf of the file that
    differs is named by its path.  Checked
    on the evidence: each weight vector is nonnegative and re-sums its maps
    to G; each separating form, trusted, has positive trace and separates
    strictly; a removal has weights exactly when feasible; and a critical
    class has unique positive weights."""
    from .reports import decode, not_rederived

    c = decode(Classification, data)
    if not 2 <= c.dimension <= 5:
        bad.append(f"dimension {c.dimension!r} is not an integer from 2 to 5")
        return
    lat = build_anstar(c.dimension)
    mu2, simplices = covering_radius(lat)
    pairs, maps = lat.pairs, lat.pair_maps
    forms = [m.form for m in maps]
    ginv = gram_inverse(lat.gram)
    cs = c.pair_coefficients
    if cs is None:
        if c.farkas_form is None:
            bad.append("a classification without weights needs a separating map")
            return
        bad.extend(_separation_failures(ginv, c.farkas_form, forms))
    else:
        if len(cs) != len(pairs):
            bad.append(f"pair_coefficients must hold one weight for each of the {len(pairs)} pairs")
            return
        if len(c.removals) != len(pairs):
            bad.append(f"removals must hold one outcome for each of the {len(pairs)} pairs")
            return
        resums = combination_test(forms, lat.gram)
        if any(x.numerator < 0 for x in cs):
            bad.append("negative coefficient in identity resolution")
        if not resums(cs):
            bad.append("coefficients do not resolve the identity form")
        for k, r in enumerate(c.removals):
            if (r.coefficients is None) == r.feasible or (r.farkas_form is None) != r.feasible:
                bad.append(f"removal {k}: needs coefficients if feasible, else a separating map")
            elif r.feasible:
                if len(r.coefficients) != len(forms) - 1 or any(x.numerator < 0 for x in r.coefficients):
                    bad.append(f"removal {k}: bad coefficient vector")
                elif not resums(r.coefficients, k):
                    bad.append(f"removal {k}: coefficients do not resolve identity")
            else:
                kept = forms[:k] + forms[k + 1 :]
                failures = _separation_failures(ginv, r.farkas_form, kept)
                bad.extend(f"removal {k}: {line}" for line in failures)
    removals = [r._replace(pair_index=k) for k, r in enumerate(c.removals)]
    report = evidence_report(cs, c.farkas_form, removals, forms_independent(forms))
    if report.classification is EutaxyClass.CRITICALLY_SEMI_EUTACTIC and not (
        report.unique and all(x.numerator > 0 for x in cs)
    ):
        bad.append("critical case requires unique all-positive coefficients")
    record = classification_record(LatticeEutaxy(lat, mu2, simplices, pairs, maps, report))
    bad.extend(not_rederived(data, {"kind": "eutaxy-classification", **record._asdict()}))
