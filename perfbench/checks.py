"""Output checks made apart from the program.

Nothing here imports `ballcover`.  Each check re-derives a claim from the
emitted file with its own arithmetic: Fraction linear algebra written here,
sympy's Legendre polynomials, scipy's spherical harmonics, and the bcc and
permutohedron geometry built from first principles.  Every function returns
a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.special
import sympy

# The A_3^* model is the body-centred cubic lattice 2Z^3 + {0, (1,1,1)};
# its basis columns are (2,0,0), (0,2,0), (1,1,1).
BCC_BASIS = ((2, 0, 1), (0, 2, 1), (0, 0, 1))
BCC_MU2 = Fraction(5, 4)  # squared covering radius: deep holes at (1, 1/2, 0)
BALL_DENSITY = 5 * math.sqrt(5) * math.pi / 24  # (4 pi / 3) mu^3 / det

INEXTENSIBLE = "ball inextensible; relatively worst covering candidate"
EXTENSIBLE = "ball extensible; not relatively worst covering"


def rat(text) -> Fraction:
    if isinstance(text, bool) or not isinstance(text, (int, str)):
        raise ValueError(f"not an exact rational: {text!r}")
    return Fraction(text)


def rat_mat(rows) -> list[list[Fraction]]:
    return [[rat(x) for x in row] for row in rows]


# ---------------------------------------------------------------- algebra


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def inverse(a):
    """Gauss-Jordan inverse over the rationals."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def determinant(a):
    """Laplace expansion along the first row (the matrices here are tiny)."""
    if len(a) == 1:
        return Fraction(a[0][0])
    return sum(
        (-1) ** j * Fraction(a[0][j]) * determinant([row[:j] + row[j + 1:] for row in a[1:]])
        for j in range(len(a))
    )


def pairing(ginv, a, b):
    """trace(G^-1 A G^-1 B): the inner product of two maps given by forms."""
    p = mat_mul(mat_mul(ginv, a), mat_mul(ginv, b))
    return sum(p[i][i] for i in range(len(p)))


def combination(coeffs, forms, n):
    out = [[Fraction(0)] * n for _ in range(n)]
    for c, f in zip(coeffs, forms):
        for i in range(n):
            for j in range(n):
                out[i][j] += c * f[i][j]
    return out


def anstar_gram(n: int):
    """Gram matrix of A_n^* in the program's bases (bcc for n = 3)."""
    if n == 3:
        b = [list(r) for r in BCC_BASIS]
        return mat_mul(transpose(b), b)
    return [[Fraction(int(i == j)) - Fraction(1, n + 1) for j in range(n)] for i in range(n)]


def anstar_mu2(n: int) -> Fraction:
    """Squared covering radius n(n+2) / (12(n+1)) of A_n^* (x4 for the bcc scale)."""
    base = Fraction(n * (n + 2), 12 * (n + 1))
    return 4 * base if n == 3 else base


# ------------------------------------------------------------- geometry


def permutohedron_vertices():
    """The 24 vertices of the Voronoi cell of A_3^*: permutations of (-3,-1,1,3)/2."""
    return [tuple(Fraction(x, 2) for x in p) for p in itertools.permutations((-3, -1, 1, 3))]


def zonal_cosine_counts() -> dict[Fraction, int]:
    """Multiplicities of the cosines between a fixed vertex and all 24."""
    verts = permutohedron_vertices()
    pole = verts[0]
    norm2 = sum(x * x for x in pole)
    counts: dict[Fraction, int] = {}
    for v in verts:
        c = sum(a * b for a, b in zip(pole, v)) / norm2
        counts[c] = counts.get(c, 0) + 1
    return counts


def half_cosine_weights() -> dict[Fraction, int]:
    """Per-sign weight of each node |cos|: half its count among the 24."""
    weights: dict[Fraction, int] = {}
    for c, n in zonal_cosine_counts().items():
        weights[abs(c)] = weights.get(abs(c), 0) + n
    return {c: n // 2 for c, n in sorted(weights.items())}


_WEIGHTS = half_cosine_weights()


def c_l_sympy(l: int) -> Fraction:
    """c_l = sum over the |cos| nodes of weight * P_l(node), via sympy."""
    total = sum(w * sympy.legendre(l, sympy.Rational(c.numerator, c.denominator)) for c, w in _WEIGHTS.items())
    total = sympy.Rational(total)
    return Fraction(int(total.p), int(total.q))


def scaled_c_l_mod16(l: int) -> int:
    """(5^l l! c_l) mod 16 from the explicit sum for P_l, exactly.

    5^l l! P_l(k/5) = (l! / 2^l) sum_j (-1)^j C(l,j) C(2l-2j,l) k^(l-2j) 25^j.
    l! / 2^l = odd(l!) / 2^e with e = popcount(l), so only the inner sum
    modulo 2^(e+4) is needed.
    """
    e = bin(l).count("1")
    mod = 1 << (e + 4)
    nodes = [(c.numerator * 5 // c.denominator, w) for c, w in _WEIGHTS.items()]
    total = 0
    a, b = 1, math.comb(2 * l, l)  # C(l, j), C(2l - 2j, l)
    for j in range(l // 2 + 1):
        powers = sum(w * pow(k, l - 2 * j, mod) for k, w in nodes)
        total += (-1) ** j * (a % mod) * (b % mod) * powers * pow(25, j, mod)
        n = 2 * l - 2 * j
        a = a * (l - j) // (j + 1)
        if n >= 2:
            b = b * (l - 2 * j) * (l - 2 * j - 1) // (n * (n - 1))
    total %= mod
    if total % (1 << e):
        raise ArithmeticError(f"5^{l} {l}! c_{l} is not an integer")
    odd = 1
    for i in range(1, l + 1):
        odd = odd * (i >> ((i & -i).bit_length() - 1)) % 16
    return odd * (total >> e) % 16


def bcc_delone_simplices() -> list[frozenset]:
    """The six Delone tetrahedra of the bcc lattice up to translation.

    Each is the set of vectors hole - v, in bcc lattice coordinates, from a
    deep hole to its four nearest lattice points.  Deep holes sit at the
    permutations of (+-1, +-1/2, 0) and their translates.
    """
    basis = [[Fraction(x) for x in r] for r in BCC_BASIS]
    binv = inverse(basis)
    lattice = [
        (x, y, z)
        for x, y, z in itertools.product(range(-4, 5), repeat=3)
        if (x % 2 == y % 2 == z % 2)
    ]
    found = set()
    half = Fraction(1, 2)
    for perm in set(itertools.permutations((1, half, 0))):
        for signs in itertools.product((1, -1), repeat=3):
            hole = [s * c for s, c in zip(signs, perm)]
            near = [
                v for v in lattice if sum((h - c) ** 2 for h, c in zip(hole, v)) == BCC_MU2
            ]
            if len(near) != 4:
                raise ArithmeticError("deep hole without four nearest points")
            found.add(frozenset(tuple(mat_vec(binv, [h - c for h, c in zip(hole, v)])) for v in near))
    return sorted(found, key=sorted)


def circumradius2(points, gram) -> Fraction:
    """Squared circumradius of a simplex in lattice coordinates."""
    p0 = points[0]
    rows, rhs = [], []
    for p in points[1:]:
        d = [a - b for a, b in zip(p, p0)]
        rows.append([2 * x for x in mat_vec(gram, d)])
        rhs.append(quad(gram, p) - quad(gram, p0))
    center = mat_vec(inverse(rows), rhs)
    return quad(gram, [c - a for c, a in zip(center, p0)])


def quad(gram, v) -> Fraction:
    return sum(v[i] * gram[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))


# ---------------------------------------------------------------- bodies


def real_harmonic(l: int, m: int, direction) -> float:
    """Real Y_lm with unit quadratic mean over the sphere, from scipy.

    Cosine for m > 0, sine for m < 0, without the Condon-Shortley phase.
    """
    x, y, z = direction
    theta = math.acos(max(-1.0, min(1.0, z)))
    phi = math.atan2(y, x)
    value = scipy.special.sph_harm_y(l, abs(m), theta, phi)
    if m == 0:
        return math.sqrt(4 * math.pi) * float(value.real)
    part = value.real if m > 0 else value.imag
    return math.sqrt(8 * math.pi) * (-1) ** abs(m) * float(part)


def radial(harmonics, direction) -> float:
    return 1.0 + sum(a * real_harmonic(l, m, direction) for l, m, a in harmonics)


# ----------------------------------------------------------------- checks


def check_scan(text: str, harmonics: list) -> list[str]:
    """Scan certificate of `construct` for the body with these harmonics."""
    bad = []
    data = json.loads(text)
    best = data["best"]
    want = sorted((l, m, a) for l, m, a in harmonics if a != 0.0)
    got = sorted(tuple(r) for r in best["body"]["harmonics"])
    if got != want:
        bad.append("certificate body differs from the input body")
    if not data["margin"] > 0:
        bad.append(f"margin {data['margin']!r} not positive")
    if not data["delta_k_bound"] < 0:
        bad.append(f"delta_k_bound {data['delta_k_bound']!r} not negative")
    if abs(data["ball_density"] - BALL_DENSITY) > 1e-12:
        bad.append("ball density is not 5 sqrt(5) pi / 24")
    if not float(rat(best["det_ratio"])) >= best["lower_bound"]:
        bad.append("determinant ratio below its stated lower bound")
    tol = best["float_tolerance"]
    if not tol <= 1e-9:
        bad.append(f"declared float_tolerance {tol!r} is above 1e-9")
    u = best["rotation"]
    basis = [[float(x) for x in row] for row in BCC_BASIS]
    if len(best["checks"]) != 24:
        bad.append("expected 24 vertex checks")
    for k in best["checks"]:
        e = np.array(basis) @ np.array([float(rat(c)) for c in k["y"]])
        e = e / np.linalg.norm(e)
        d = np.array(u, dtype=float).T @ e  # the body is rotated by u
        r = radial(want, d)
        if abs(r - k["radial_value"]) > tol:
            bad.append(
                f"radial value at ({k['simplex']}, {k['vertex']}) is {k['radial_value']!r}, "
                f"re-evaluated {r!r}"
            )
    return bad


def check_margin_ratio(lo_text: str, hi_text: str) -> list[str]:
    """The margin roughly doubles with the amplitude (pinned to [1.5, 2.5])."""
    lo, hi = json.loads(lo_text), json.loads(hi_text)
    ratio = hi["margin"] / lo["margin"] if lo["margin"] > 0 else math.inf
    if not 1.5 <= ratio <= 2.5:
        return [f"margin ratio {ratio!r} outside [1.5, 2.5]"]
    return []


def check_classification(text: str, dim: int) -> list[str]:
    bad = []
    data = json.loads(text)
    n = dim
    gram = rat_mat(data["gram"])
    if data["dimension"] != dim:
        bad.append("wrong dimension")
    if gram != anstar_gram(n):
        bad.append("gram matrix is not that of A_n^*")
    if rat(data["mu2"]) != anstar_mu2(n):
        bad.append("covering radius is not that of A_n^*")
    pairs = data["pairs"]
    if len(pairs) != math.factorial(n) // 2:
        bad.append("expected n!/2 simplex pairs")
    critical = dim in (2, 3)
    want = "critically-semi-eutactic" if critical else "redundantly-semi-eutactic"
    if data["classification"] != want:
        bad.append(f"classification {data['classification']!r}, expected {want!r}")
    if data["conclusion"] != (INEXTENSIBLE if critical else EXTENSIBLE):
        bad.append(f"conclusion {data['conclusion']!r} contradicts the classification")
    ginv = inverse(gram)
    forms = [rat_mat(f) for f in data["maps"]]
    for k, f in enumerate(forms):
        if sum(mat_mul(ginv, f)[i][i] for i in range(n)) != 1:
            bad.append(f"map {k} is not of unit trace")
    coeffs = [rat(c) for c in data["pair_coefficients"]]
    if combination(coeffs, forms, n) != gram:
        bad.append("pair coefficients do not resolve the identity")
    if critical and not all(c > 0 for c in coeffs):
        bad.append("critical resolution has a non-positive weight")
    if any(c < 0 for c in coeffs):
        bad.append("negative weight in the identity resolution")
    removals = data["removals"]
    if sorted(r["pair_index"] for r in removals) != list(range(len(forms))):
        bad.append("one removal per pair expected")
    for r in removals:
        k = r["pair_index"]
        kept = [f for i, f in enumerate(forms) if i != k]
        if r["feasible"] == critical:
            bad.append(f"removal {k}: feasibility contradicts the classification")
        if r["feasible"]:
            w = [rat(c) for c in r["coefficients"]]
            if len(w) != len(kept) or any(c < 0 for c in w):
                bad.append(f"removal {k}: bad weight vector")
            elif combination(w, kept, n) != gram:
                bad.append(f"removal {k}: weights do not resolve the identity")
        else:
            y = rat_mat(r["farkas_form"])
            if sum(mat_mul(ginv, y)[i][i] for i in range(n)) <= 0:
                bad.append(f"removal {k}: separating form has non-positive trace")
            for i, f in enumerate(kept):
                if pairing(ginv, y, f) >= 0:
                    bad.append(f"removal {k}: separating form not negative on kept map {i}")
    return bad


def check_witness(text: str, pair: int) -> list[str]:
    bad = []
    data = json.loads(text)
    if data["dimension"] != 3 or data["pair_index"] != pair:
        bad.append("witness for the wrong dimension or pair")
    basis = [[Fraction(x) for x in r] for r in BCC_BASIS]
    gram = mat_mul(transpose(basis), basis)
    t = rat_mat(data["transform"])
    det_t = determinant(t)
    if det_t != rat(data["det_t"]) or not det_t > 1:
        bad.append(f"det T = {det_t} (stored {data['det_t']}) is not above 1")
    if rat(data["mu2"]) != BCC_MU2:
        bad.append("mu2 is not 5/4")
    # The removed simplex is recovered from the translated points.
    tinv = inverse(t)
    pole = [rat(c) for c in data["pole"]]
    tau = rat(data["tau"])
    removed = frozenset(
        tuple(mat_vec(tinv, [rat(c) - tau * p for c, p in zip(q, pole)]))
        for q in data["translated_points"]
    )
    negated = frozenset(tuple(-c for c in x) for x in removed)
    simplices = bcc_delone_simplices()
    if removed not in simplices or negated not in simplices:
        bad.append("translated points do not come from a Delone simplex")
        return bad
    kept = [s for s in simplices if s not in (removed, negated)]
    kept_cr2 = sorted(circumradius2([mat_vec(t, x) for x in sorted(s)], gram) for s in kept)
    if kept_cr2 != sorted(rat(c) for c in data["kept_cr2"]):
        bad.append("kept squared circumradii differ from the recomputed ones")
    if not all(c < BCC_MU2 for c in kept_cr2):
        bad.append("a kept simplex does not stay strictly inside radius^2 5/4")
    return bad


def check_cl_csv(text: str, exact_degrees, residue_degrees, lmax: int) -> list[str]:
    bad = []
    rows = list(csv.DictReader(io.StringIO(text)))
    if [int(r["l"]) for r in rows] != list(range(lmax + 1)):
        return ["degrees are not 0..lmax"]
    if rows[2]["status"] != "zero" or rat(rows[2]["c_l"]) != 0:
        bad.append("c_2 is not certified zero")
    if rat(rows[4]["c_l"]) != Fraction(7, 25):
        bad.append("c_4 is not 7/25")
    for l in exact_degrees:
        if rat(rows[l]["c_l"]) != c_l_sympy(l):
            bad.append(f"c_{l} differs from the sympy value")
    for l in residue_degrees:
        r = rows[l]
        want = scaled_c_l_mod16(l)
        if r["status"] != "nonzero-mod16" or r["c_l"] != "":
            bad.append(f"degree {l}: expected a mod-16 certificate")
        if int(r["residue_mod16"]) != want or want == 0:
            bad.append(f"degree {l}: residue {r['residue_mod16']}, recomputed {want}")
    return bad


def check_zonal(text: str, lmax: int) -> list[str]:
    bad = []
    data = json.loads(text)
    mult = [rat(m) for m in data["multipliers"]]
    if len(mult) != lmax + 1:
        return ["multiplier list has the wrong length"]
    counts = {rat(c): n for c, n in data["cosine_counts"]}
    if counts != zonal_cosine_counts():
        bad.append("cosine counts differ from the permutohedron's")
    for l, m in enumerate(mult):
        want = Fraction(0) if l % 2 else c_l_sympy(l)
        if m != want:
            bad.append(f"multiplier {l} is {m}, expected {want}")
    return bad


CHECKS = {
    "scan": check_scan,
    "margin_ratio": check_margin_ratio,
    "classification": check_classification,
    "witness": check_witness,
    "cl": check_cl_csv,
    "zonal": check_zonal,
}


def main(spec_path: str) -> int:
    """Run the checks listed in a spec file; print {label: [failures]} as JSON.

    The spec is {"workdir": dir, "items": [[label, kind, [files], {params}]]};
    a check gets the text of its files, then its params.
    """
    spec = json.loads(Path(spec_path).read_text())
    workdir = Path(spec["workdir"])
    out: dict[str, list[str]] = {}
    for label, kind, files, params in spec["items"]:
        try:
            texts = [(workdir / f).read_text() for f in files]
            msgs = CHECKS[kind](*texts, **params)
        except Exception as e:  # a missing or malformed output fails its operation
            msgs = [f"{kind} check raised {e!r}"]
        out.setdefault(label, []).extend(msgs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
