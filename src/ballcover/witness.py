"""Extensibility witnesses for the ball on the A_n* lattice models.

For a dimension where some sign pair of maximal simplices cannot be removed
from the identity resolution, the removal's strict separating map M gives
T = Id + (s/2) M with det T > 1 for small s; all kept simplices then have
circumradius strictly below mu, and the removed pair, suitably translated
along a vertex direction, fits inside the ball augmented by antipodal cone
caps reaching +/-(1+eps) pole.  All checks are exact, so a returned witness
needs no further trust.

The search derives its witness only through `witness_record`, which the
verifier re-runs.  It reads the lattice's classification from `eutaxy`,
which it imports when it runs; checking a witness needs only `lattice` and
`linalg`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .lattice import LatticeModel, PrimitiveSimplex, build_anstar, covering_radius
from .lattice import integer_circumsphere
from .linalg import (
    MatQ,
    Rat,
    VecQ,
    det,
    gram_inverse,
    identity,
    integer_form,
    integer_scaled,
    map_inner,
    map_matrix,
    map_trace,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    transpose,
    vec_add,
    vec_scale,
)


class WitnessUnavailableError(ValueError):
    """The requested pair is removable, so no strict witness exists."""


class WitnessSearchError(RuntimeError):
    """No scale passed all exact checks above the search cutoff."""


def exact_cr_after(t_map: MatQ, simplex: PrimitiveSimplex, gram: MatQ) -> Rat:
    """Exact squared circumradius of the image simplex t_map(S).

    It is that of S itself under the pulled-back form T^T G T, which is
    formed once per map; a singular map raises DegenerateSimplexError.
    """
    form, scale = _pulled_back_form(t_map, gram)
    xz, den = simplex.x_integer
    _, d, r = integer_circumsphere(xz, form)
    return Fraction(r, d * d * den * den * scale)


@lru_cache(maxsize=8)
def _pulled_back_form(t_map: MatQ, gram: MatQ) -> tuple[list[list[int]], int]:
    """integer_scaled(T^T G T), computed once per map (read-only)."""
    return integer_scaled(mat_mul(transpose(t_map), mat_mul(gram, t_map)))


class AugmentedBall(NamedTuple):
    """conv(ball of squared radius <pole,pole>, +/-(1+eps) pole)."""

    eps: Rat
    pole: VecQ
    gram: MatQ


def member_augmented_ball(q: VecQ, ball: AugmentedBall) -> bool:
    """Exact membership test for the augmented ball: the integer kernel
    _in_augmented_ball at tau = 0 of the search line through q."""
    return _shift_fits(ball, (q,))(0)


def _in_augmented_ball(qq: int, qp: int, pp: int, e: int, d: int) -> bool:
    """Whether q lies in conv(ball, +/-z), z = (1 + e/d) pole, e, d > 0.

    qq = <q,q>, qp = <q,pole> and pp = <pole,pole> = r^2 are integers on
    one positive scale.  For an apex z outside the ball, q is in
    conv(ball, z) iff f(lam) = |q - lam z|^2 - (1 - lam)^2 r^2 =
    (qq - r^2) - 2 lam (qz - r^2) + lam^2 (zz - r^2) is <= 0 for some lam
    in [0, 1].  f is an upward parabola, so it suffices to test its
    minimizer (qz - r^2) / (zz - r^2) clamped to [0, 1]: at 0, qq <= r^2;
    inside, (qq - r^2)(zz - r^2) <= (qz - r^2)^2; at 1, f(1) = |q - z|^2
    <= 0, that is q = z.  Every term is multiplied by d^2 to stay integer.
    """
    c = (qq - pp) * d * d
    if c <= 0:
        return True
    a = e * (2 * d + e) * pp
    for sign in (1, -1):
        b = sign * (d + e) * d * qp - pp * d * d
        if 0 < b < a:
            if c * a <= b * b:
                return True
        elif b >= a and c - 2 * b + a <= 0:
            return True
    return False


# The witness search moves the removed simplex by tau * pole, with
# tau = k * eps / TAU_STEPS for k in TAU_RANGE.
TAU_STEPS = 64
TAU_RANGE = range(-32, 65)


def _shift_fits(ball: AugmentedBall, points: Sequence[VecQ]) -> Callable[[int], bool]:
    """Whether every point + tau * pole lies in the augmented ball, with
    tau = k * eps / TAU_STEPS, as a test on the integer k.

    With a = <y,y>, b = <y,pole> and c = <pole,pole> on one integer scale,
    u = TAU_STEPS * den(eps) and t = k * num(eps), so that tau = t / u, the
    shifted point q = y + tau * pole has <q,q> = a u^2 + 2 t b u + t^2 c,
    <q,pole> = u (b u + t c) and <pole,pole> = c u^2 on that scale times
    u^2.  So each k costs a few integer products.
    """
    eps = Fraction(ball.eps)
    e, d = eps.numerator, eps.denominator
    gz, _ = integer_form(ball.gram)
    (*yz, pz), _ = integer_scaled([*points, ball.pole])
    gp = [sum(map(mul, row, pz)) for row in gz]
    c = sum(map(mul, pz, gp))
    if e <= 0 or c <= 0:
        raise ValueError("augmented ball needs eps > 0 and a nonzero pole")
    dots = [
        (sum(yi * sum(map(mul, row, y)) for yi, row in zip(y, gz)), sum(map(mul, y, gp)))
        for y in yz
    ]
    u = TAU_STEPS * d
    pp = c * u * u

    def fits(k: int) -> bool:
        t = k * e
        return all(
            _in_augmented_ball(a * u * u + 2 * t * b * u + t * t * c, u * (b * u + t * c), pp, e, d)
            for a, b in dots
        )

    return fits


class ExtensionWitness(NamedTuple):
    dimension: int
    pair_index: int
    removed_simplices: tuple[int, int]
    farkas_form: MatQ
    scale: Rat
    transform: MatQ
    det_t: Rat
    mu2: Rat
    kept_cr2: tuple[Rat, ...]
    grown_cr2: Rat
    eps: Rat
    pole: VecQ
    tau: Rat
    translated_points: tuple[VecQ, ...]


def witness_transform(gram: MatQ, farkas_form: MatQ, scale: Rat) -> MatQ:
    """T = Id + (scale/2) M, M the map of the Farkas form divided by its
    largest absolute entry."""
    m_mat = map_matrix(gram_inverse(gram), farkas_form)
    top = max(abs(x) for row in m_mat for x in row)
    return mat_add(identity(len(gram)), mat_scale(Fraction(scale) / (2 * top), m_mat))


def extension_witness(
    lat: LatticeModel, pair_index: int, eps: Rat = Fraction(1, 100)
) -> ExtensionWitness:
    """Exact witness that growing the ball at one vertex pair frees volume.

    Finds s with T = witness_transform(G, Y, s) (Y the strict separating
    form of the unremovable pair) satisfying: det T > 1; all kept simplices
    keep their squared circumradius strictly below mu2; and the removed
    simplex, translated by tau * pole, fits inside the ball augmented at
    +/-(1+eps) pole.  The mirrored simplex fits at -tau by symmetry, so
    T Lambda covers the augmented ball with determinant above det Lambda.

    Each scale s = 1/4, 1/8, ... down to 2^-30 runs the tau search on the
    images T x and returns witness_record at the first fitting tau if its
    det_t > 1 and every kept_cr2 < mu2.  Neither depends on tau, nor the
    first fitting tau on them, so testing them first finds the same
    witness; ||(s/2) M / max|M| ||_inf <= n/8 < 1 keeps T nonsingular.
    Raises WitnessUnavailableError when the pair is removable (then the
    redundancy coefficients already certify extension) and
    WitnessSearchError when no scale above the cutoff passes.
    """
    from .eutaxy import classified

    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    ctx = classified(lat)
    if pair_index < 0 or pair_index >= len(ctx.pairs):
        raise ValueError("pair index out of range")
    removal = ctx.report.removals[pair_index]
    if removal.feasible:
        raise WitnessUnavailableError(
            "pair is removable; the redundancy coefficients certify extension"
        )
    s0 = ctx.simplices[ctx.pairs[pair_index][0]]
    ball = AugmentedBall(eps=eps, pole=s0.x[0], gram=lat.gram)
    scale = Fraction(1, 4)
    while scale >= Fraction(1, 2**30):
        t_map = witness_transform(lat.gram, removal.farkas_form, scale)
        fits = _shift_fits(ball, tuple(mat_vec(t_map, x) for x in s0.x))
        k = next((k for k in TAU_RANGE if fits(k)), None)
        if k is not None:
            tau = Fraction(k, TAU_STEPS) * eps
            w = witness_record(lat, pair_index, removal.farkas_form, scale, eps, tau)
            if w.det_t > 1 and all(c < w.mu2 for c in w.kept_cr2):
                return w
        scale /= 2
    raise WitnessSearchError("no scale above cutoff passed all exact checks")


def witness_record(
    lat: LatticeModel, pair_index: int, farkas_form: MatQ, scale: Rat, eps: Rat, tau: Rat
) -> ExtensionWitness:
    """The witness of pair pair_index at the given form, scale, eps and tau:
    T = witness_transform(G, farkas_form, scale), and under T the
    circumradii and the removed simplex's images moved by tau * pole."""
    mu2, simplices = covering_radius(lat)
    pairs = lat.pairs
    i0, j0 = pairs[pair_index]
    s0 = simplices[i0]
    pole = s0.x[0]
    t_map = witness_transform(lat.gram, farkas_form, scale)
    move = vec_scale(tau, pole)
    return ExtensionWitness(
        dimension=lat.n,
        pair_index=pair_index,
        removed_simplices=(i0, j0),
        farkas_form=farkas_form,
        scale=scale,
        transform=t_map,
        det_t=det(t_map),
        mu2=mu2,
        kept_cr2=tuple(
            exact_cr_after(t_map, simplices[m], lat.gram)
            for k, pair in enumerate(pairs) if k != pair_index for m in pair
        ),
        grown_cr2=exact_cr_after(t_map, s0, lat.gram),
        eps=eps,
        pole=pole,
        tau=tau,
        translated_points=tuple(vec_add(mat_vec(t_map, x), move) for x in s0.x),
    )


def verify_witness(data: dict, bad: list[str]) -> None:
    """Check a witness by re-deriving it from its inputs: dimension,
    pair_index, farkas_form, scale, eps and tau.  witness_record, as
    `witness` uses it, derives every other leaf from A_n* rebuilt at that
    dimension, and each leaf of the file that differs is named by its path.
    Checked on the inputs: the pair is in range, eps > 0, and the form has
    positive trace and is strict against every kept pair; on the record:
    det T > 1, each kept cr2 < mu2, and each point lies in the augmented ball."""
    from .reports import decode, not_rederived, witness_certificate

    w = decode(ExtensionWitness, data)
    if not 2 <= w.dimension <= 5:
        bad.append(f"dimension {w.dimension!r} is not an integer from 2 to 5")
        return
    lat = build_anstar(w.dimension)
    gram = lat.gram
    ginv = gram_inverse(gram)
    maps = lat.pair_maps
    if not 0 <= w.pair_index < len(maps):
        bad.append(f"pair index {w.pair_index!r} is not an integer from 0 to {len(maps) - 1}")
        return
    if w.eps <= 0:
        bad.append("eps must be positive")
        return
    if map_trace(ginv, w.farkas_form) <= 0:
        bad.append("separating map has nonpositive trace")
        return
    # a pair's two members share one map, twin-checked by pair_maps
    kept = [m for k, m in enumerate(maps) if k != w.pair_index]
    for i, m in enumerate(kept):
        if map_inner(ginv, w.farkas_form, m.form) >= 0:
            bad.append(f"separating map not strict against kept pair {i}")
    rec = witness_record(lat, w.pair_index, w.farkas_form, w.scale, w.eps, w.tau)
    if rec.det_t <= 1:
        bad.append("transform does not grow the determinant")
    for idx, c in enumerate(rec.kept_cr2):
        if c >= rec.mu2:
            bad.append(f"kept simplex {idx} no longer strictly inside")
    ball = AugmentedBall(eps=w.eps, pole=rec.pole, gram=gram)
    for idx, p in enumerate(rec.translated_points):
        if not member_augmented_ball(p, ball):
            bad.append(f"translated vertex {idx} outside the augmented ball")
    bad.extend(not_rederived(data, witness_certificate(rec)))
