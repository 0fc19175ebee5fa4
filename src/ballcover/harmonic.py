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
take integer values, which are computed here modulo 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import MatQ, Rat, VecQ, gram_dot

# per-sign weights of the cosine nodes k/5, k = 5..0
NODE_WEIGHTS = ((5, 1), (4, 3), (3, 1), (2, 4), (1, 2), (0, 1))


def rescaled_q_sequence_mod16(lmax: int, k: int) -> list[int]:
    """Residues of Q_l(k/5) mod 16 for l = 0..lmax."""
    out = [1 % 16]
    if lmax == 0:
        return out
    out.append(k % 16)
    for j in range(1, lmax):
        nxt = ((2 * j + 1) * k * out[j] - 9 * (j * j) * out[j - 1]) % 16
        out.append(nxt)
    return out


def raw_residue_row(k: int) -> tuple[int, ...]:
    """Period-8 residue cycle of Q_l(k/5) mod 16, for even k.

    Odd k is rejected: those residues vanish identically from l = 6 on
    instead of cycling.
    """
    assert k in (0, 2, 4)
    seq = rescaled_q_sequence_mod16(32, k)
    row = tuple(seq[:8])
    assert seq[8:16] == list(row) and seq[16:24] == list(row)
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


def legendre_rational(l: int, t: Rat) -> Rat:
    """Exact P_l(t) by the three-term recurrence."""
    t = Fraction(t)
    if l == 0:
        return Fraction(1)
    prev, cur = Fraction(1), t
    for k in range(1, l):
        prev, cur = cur, ((2 * k + 1) * t * cur - k * prev) / (k + 1)
    return cur


def c_l(l: int) -> Rat:
    """Exact multiplier: weighted Legendre sum over the cosine nodes."""
    return sum(
        w * legendre_rational(l, Fraction(k, 5)) for k, w in NODE_WEIGHTS
    )


def c_l_scaled_residue(l: int) -> int:
    """Residue of the integer 5^l l! c_l modulo 16."""
    return sum(w * rescaled_q_sequence_mod16(l, k)[l] for k, w in NODE_WEIGHTS) % 16


@dataclass(frozen=True)
class CLCertificate:
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
    seqs = {k: rescaled_q_sequence_mod16(lmax, k) for k, _ in NODE_WEIGHTS}
    out = []
    for l in range(lmax + 1):
        residue = sum(w * seqs[k][l] for k, w in NODE_WEIGHTS) % 16
        # the first degrees are always decided exactly; the residue argument
        # only takes over once the odd-node contributions have vanished
        value = c_l(l) if l <= max(exact_limit, 5) else None
        if l == 2:
            assert value == 0
            status = "zero"
        elif value is not None:
            assert value != 0, f"exact c_{l} vanished unexpectedly"
            status = "nonzero-exact"
            if l >= 6:
                assert residue != 0
        else:
            assert residue != 0, f"mod-16 certificate failed at l = {l}"
            status = "nonzero-mod16"
        out.append(
            CLCertificate(l=l, status=status, value=value, residue_mod16=residue)
        )
    return out


@dataclass(frozen=True)
class MultiplierSpectrum:
    """Multipliers of convolution with the normalized vertex measure."""

    lmax: int
    multipliers: tuple[Rat, ...]  # index l
    cosine_counts: tuple[tuple[Rat, int], ...]
    mass: Rat


def zonal_spectrum(
    points: Sequence[VecQ], pole: VecQ, gram: MatQ, lmax: int
) -> MultiplierSpectrum:
    """Exact multipliers m_l = (1/2) sum_i P_l(<pole, x_i> / mu2).

    `points` must be the full vertex set (closed under negation) on the
    sphere of squared radius mu2 = <pole, pole>, and pole one of them.
    """
    mu2 = gram_dot(gram, pole, pole)
    cosines = []
    for x in points:
        assert gram_dot(gram, x, x) == mu2, "point off the vertex sphere"
        cosines.append(gram_dot(gram, pole, x) / mu2)
    assert tuple(pole) in {tuple(p) for p in points}
    counts: dict[Rat, int] = {}
    for c in cosines:
        counts[c] = counts.get(c, 0) + 1
    multipliers = []
    for l in range(lmax + 1):
        m = sum(legendre_rational(l, c) for c in cosines) / 2
        multipliers.append(m)
    assert multipliers[0] == Fraction(len(points), 2)
    return MultiplierSpectrum(
        lmax=lmax,
        multipliers=tuple(multipliers),
        cosine_counts=tuple(sorted(counts.items())),
        mass=multipliers[0],
    )
