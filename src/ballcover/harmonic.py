"""Exact Legendre sums over the vertex directions of the permutohedron.

The 24 Voronoi cell vertices of the three dimensional model make angles with
a fixed vertex p whose cosines form the multiset {±1, ±4/5, ±3/5, ±2/5,
±1/5, 0} with per-sign multiplicities (1, 3, 1, 4, 2, 1).  Summing Legendre
polynomials over these directions gives, for even degree l, the multiplier

    c_l = P_l(1) + 3 P_l(4/5) + P_l(3/5) + 4 P_l(2/5) + 2 P_l(1/5) + P_l(0),

the eigenvalue of the convolution operator with the normalized vertex
measure; odd degrees give zero.  c_2 = 0, and c_l != 0 for every other l.
Nonvanishing is certified exactly: by direct rational evaluation for small
l, and for all larger l by the residue of the integer 5^l l! c_l modulo 16,
which is periodic in l with period 8 and never zero.

The rescaled polynomials Q_l(t) = 5^l l! P_l(t) satisfy the integer
recurrence Q_{l+1} = (2l+1)(5t) Q_l - 25 l^2 Q_{l-1}, so at t = k/5 they
take integer values.  They are computed here exactly, one pass per node for
all degrees at once (the exact c_l table), and modulo 16 (the residues).
Only the spectrum needs the linear algebra module, so the c_l table and its
check run without it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from .linalg import MatQ, Rat, VecQ

# per-sign weights of the cosine nodes k/5, k = 5..0
NODE_WEIGHTS = ((5, 1), (4, 3), (3, 1), (2, 4), (1, 2), (0, 1))


def rescaled_q_sequence_mod16(lmax: int, k: int) -> list[int]:
    """Residues of Q_l(k/5) mod 16 for l = 0..lmax.

    Mod 16 the step from (Q_{j-1}, Q_j) to Q_{j+1} depends on j only through
    j mod 8, so once a state (j mod 8, Q_{j-1}, Q_j) recurs, the residues
    repeat from there with the distance between the two visits as period.
    """
    out = [1, k % 16]
    first_visit: dict[tuple[int, int, int], int] = {}
    for j in range(1, lmax):
        state = (j % 8, out[j - 1], out[j])
        if state in first_visit:
            period = j - first_visit[state]
            out += out[-period:] * ((lmax + 1 - len(out)) // period + 1)
            break
        first_visit[state] = j
        out.append(((2 * j + 1) * k * out[j] - 9 * (j * j) * out[j - 1]) % 16)
    return out[: lmax + 1]


def raw_residue_row(k: int) -> tuple[int, ...]:
    """Period-8 residue cycle of Q_l(k/5) mod 16, for even k.

    Odd k is rejected: those residues vanish identically from l = 6 on
    instead of cycling.
    """
    if k not in (0, 2, 4):
        raise ValueError(f"residue rows cycle only for k in (0, 2, 4), not {k}")
    seq = rescaled_q_sequence_mod16(32, k)
    row = tuple(seq[:8])
    if seq[8:16] != list(row) or seq[16:24] != list(row):
        raise RuntimeError(f"residues of Q_l({k}/5) mod 16 are not 8-periodic")
    return row


def weighted_residue_rows() -> dict[int, tuple[int, ...]]:
    """Residue rows scaled by the node weights (1, 4, 3 for k = 0, 2, 4).

    These weighted rows are what the multiplier sum sees: adding the three
    rows position-wise gives the residue of 5^l l! c_l mod 16 for l >= 6,
    where the odd-k contributions have died out.
    """
    weights = {0: 1, 2: 4, 4: 3}
    return {
        k: tuple((w * r) % 16 for r in raw_residue_row(k))
        for k, w in weights.items()
    }


def scaled_legendre_values(p: int, q: int) -> Iterator[int]:
    """The integers R_l = q^l l! P_l(p/q) for l = 0, 1, 2, ...

    They follow from the three-term recurrence for P_l in one pass:
    R_{l+1} = (2l+1) p R_l - l^2 q^2 R_{l-1}.
    """
    prev, cur = 0, 1
    for l in count():
        yield cur
        prev, cur = cur, (2 * l + 1) * p * cur - l * l * q * q * prev


def legendre_values(t: Rat) -> Iterator[Rat]:
    """Exact P_0(t), P_1(t), P_2(t), ..."""
    t = Fraction(t)
    den = 1
    for l, r in enumerate(scaled_legendre_values(t.numerator, t.denominator)):
        yield Fraction(r, den)
        den *= (l + 1) * t.denominator


def legendre_rational(l: int, t: Rat) -> Rat:
    """Exact P_l(t)."""
    return next(islice(legendre_values(t), l, None))


def scaled_c_l_values() -> Iterator[int]:
    """The integers 5^l l! c_l for l = 0, 1, 2, ...: one pass per node.

    Every node is k/5, so 5^l l! c_l = sum_k w_k R_l(k) with R_l as in
    scaled_legendre_values.
    """
    nodes = [(w, scaled_legendre_values(k, 5)) for k, w in NODE_WEIGHTS]
    while True:
        yield sum(w * next(r) for w, r in nodes)


def c_l_values() -> Iterator[Rat]:
    """Exact multipliers c_0, c_1, c_2, ..."""
    den = 1
    for l, scaled in enumerate(scaled_c_l_values()):
        yield Fraction(scaled, den)
        den *= 5 * (l + 1)


def c_l_table(lmax: int) -> list[Rat]:
    """Exact multipliers [c_0, ..., c_lmax]."""
    return list(islice(c_l_values(), lmax + 1))


def c_l(l: int) -> Rat:
    """Exact multiplier: weighted Legendre sum over the cosine nodes."""
    return next(islice(c_l_values(), l, None))


def c_l_residues(lmax: int) -> list[int]:
    """Residues of the integers 5^l l! c_l modulo 16, l = 0..lmax."""
    weighted = [
        [w * r for r in rescaled_q_sequence_mod16(lmax, k)] for k, w in NODE_WEIGHTS
    ]
    return [sum(column) % 16 for column in zip(*weighted)]


def c_l_scaled_residue(l: int) -> int:
    """Residue of the integer 5^l l! c_l modulo 16."""
    return c_l_residues(l)[l]


class CLCertificate(NamedTuple):
    """Decision for one degree: is c_l zero, and why is that certain."""

    l: int
    status: str  # "zero" | "nonzero-exact" | "nonzero-mod16"
    value: Optional[Rat]
    residue_mod16: int


def certify_c_range(lmax: int, exact_limit: int = 200) -> list[CLCertificate]:
    """Certificates for c_l, l = 0..lmax.

    Exact rational values are recorded up to exact_limit; beyond that the
    certificate is the nonzero residue of 5^l l! c_l mod 16.  Raises if any
    certificate fails, which would falsify the nonvanishing claim.
    """
    residues = c_l_residues(lmax)
    # the first degrees are always decided exactly; the residue argument
    # only takes over once the odd-node contributions have vanished
    exact = c_l_table(min(lmax, max(exact_limit, 5)))
    out = []
    for l, residue in enumerate(residues):
        value = exact[l] if l < len(exact) else None
        if l == 2:
            if value != 0:
                raise RuntimeError(f"c_2 = {value}, expected 0")
            status = "zero"
        elif value is not None:
            if value == 0:
                raise RuntimeError(f"exact c_{l} vanished unexpectedly")
            status = "nonzero-exact"
            if l >= 6 and residue == 0:
                raise RuntimeError(f"mod-16 residue of exact c_{l} vanished")
        else:
            if residue == 0:
                raise RuntimeError(f"mod-16 certificate failed at l = {l}")
            status = "nonzero-mod16"
        out.append(
            CLCertificate(l=l, status=status, value=value, residue_mod16=residue)
        )
    return out


class MultiplierSpectrum(NamedTuple):
    """Multipliers of convolution with the normalized vertex measure."""

    lmax: int
    multipliers: tuple[Rat, ...]  # index l
    cosine_counts: tuple[tuple[Rat, int], ...]
    mass: Rat


def spectrum_record(counts: Mapping[Rat, int], lmax: int) -> MultiplierSpectrum:
    """Exact multipliers m_l = (1/2) sum_c n_c P_l(c), l = 0..lmax, from the
    number n_c of points at each cosine c, listed by cosine."""
    series = [(n, legendre_values(c)) for c, n in counts.items()]
    multipliers = tuple(sum(n * next(p) for n, p in series) / 2 for _ in range(lmax + 1))
    return MultiplierSpectrum(
        lmax=lmax,
        multipliers=multipliers,
        cosine_counts=tuple(sorted(counts.items())),
        mass=multipliers[0],
    )


def zonal_spectrum(
    points: Sequence[VecQ], pole: VecQ, gram: MatQ, lmax: int
) -> MultiplierSpectrum:
    """Exact multipliers m_l = (1/2) sum_i P_l(<pole, x_i> / mu2).

    `points` must be the full vertex set (closed under negation) on the
    sphere of squared radius mu2 = <pole, pole>, and pole one of them.
    """
    from .linalg import gram_dot

    mu2 = gram_dot(gram, pole, pole)
    counts: dict[Rat, int] = {}
    for x in points:
        if gram_dot(gram, x, x) != mu2:
            raise ValueError("point off the vertex sphere")
        c = gram_dot(gram, pole, x) / mu2
        counts[c] = counts.get(c, 0) + 1
    if tuple(pole) not in {tuple(p) for p in points}:
        raise ValueError("pole is not one of the points")
    spec = spectrum_record(counts, lmax)
    if spec.mass != Fraction(len(points), 2):
        raise RuntimeError("multiplier 0 is not half the vertex count")
    return spec


def verify_spectrum(data: dict, bad: list[str]) -> None:
    """Check a spectrum by re-deriving it from its inputs, lmax and
    cosine_counts: spectrum_record, as `zonal` uses it, re-sums every
    multiplier from the counts, and each leaf of the file that differs is
    named by its path.  Checked on the inputs: lmax >= 0, one multiplier
    per degree, every count positive; on the record: odd multipliers vanish
    and even ones equal c_l.  That the counts are A3*'s is not checked."""
    from .reports import decode, not_rederived, spectrum_certificate

    s = decode(MultiplierSpectrum, data)
    if s.lmax < 0:
        bad.append("lmax must be nonnegative")
        return
    # Checked before re-deriving, so the work is bounded by the file's size.
    if len(s.multipliers) != s.lmax + 1:
        bad.append("multiplier list length off")
        return
    if any(n <= 0 for _, n in s.cosine_counts):
        bad.append("every cosine count must be positive")
    spec = spectrum_record(dict(s.cosine_counts), s.lmax)
    for (l, m), c in zip(enumerate(spec.multipliers), c_l_values()):
        if l % 2 == 1 and m != 0:
            bad.append(f"odd multiplier {l} nonzero")
        if l % 2 == 0 and m != c:
            bad.append(f"even multiplier {l} differs from c_{l}")
    bad.extend(not_rederived(data, spectrum_certificate(spec)))
