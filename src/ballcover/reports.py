"""Certificate serialization and independent re-checking.

A certificate is its dataclass turned into a dict by dataclasses.asdict
and tagged with its kind; the field list lives in the dataclass alone.
Rationals serialize as strings "p" or "p/q" so exactness survives JSON;
floats stay native JSON numbers (CPython emits the shortest round-trip
repr, so identical inputs give byte-identical reports).  CSV is used for
the degree-indexed c_l table.

verify_certificate re-checks the exact algebraic claims of a certificate
without re-running the optimization or search that produced it.  Fixed
ambient context (the A_n* geometry, which is deterministic given the
dimension) is rebuilt when a certificate refers to it.  Float-valued
entries are treated as tagged inputs: exact-domain claims built on them
(for instance membership inequalities against an exactly squared stored
float) are re-verified in rational arithmetic.  A cover's deformed vertices
and their radial values come from the construction's own Fraction
derivation, deformed_vertices (a scan certifies one rotation, so the
construction needs no faster one); stored radial values must agree within
FLOAT_TOLERANCE, and cover_floats re-derives the other floats, which must
be equal.  A scan's exact volume bound is re-derived from its body, and its
densities, margin and Delta_K bound are recomputed from that bound and the
exact det ratio and must be equal.  Each kind's keys must be exactly those
of its dataclass at every level (_SCHEMAS).

Only the standard library is imported at load.  verify_certificate reads a
certificate's kind first; only then do that kind's schema and verifier
import the modules they read, so a process checks one kind without
compiling the others' (the c_l table's check needs harmonic alone).
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .bodies import RadialBody
    from .eutaxy import EutaxyClass
    from .harmonic import CLCertificate, MultiplierSpectrum
    from .linalg import MatQ, Rat, VecQ
    from .perturbation import CoverConstruction, ScanReport
    from .witness import ExtensionWitness

# Largest gap allowed between a stored radial value and its re-evaluation.
FLOAT_TOLERANCE = 1e-12

_DENSITY_KEYS = ("ball_density", "best_density", "margin", "delta_k_bound")


def rat_str(x: Rat) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rat(v) -> Fraction:
    if isinstance(v, bool):
        raise ValueError("boolean is not a rational")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise ValueError(f"not an exact rational: {v!r}")


def rationalize(obj):
    """Deep-copy a report, rendering every Fraction as a 'p/q' string and
    every tuple as a list."""
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, dict):
        return {k: rationalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [rationalize(v) for v in obj]
    return obj


def dump_json(data: dict) -> str:
    return json.dumps(rationalize(data), indent=2, sort_keys=True) + "\n"


def _parse_vec(obj) -> VecQ:
    return tuple(parse_rat(x) for x in obj)


def _parse_mat(obj) -> MatQ:
    from .linalg import mat

    return mat([[parse_rat(x) for x in row] for row in obj])


def cover_certificate(body: RadialBody, c: CoverConstruction) -> dict:
    from .bodies import body_to_dict

    return {
        "kind": "cover-construction",
        "body": body_to_dict(body),
        **asdict(c),
        "float_tolerance": FLOAT_TOLERANCE,
    }


def scan_certificate(body: RadialBody, report: ScanReport) -> dict:
    return {
        "kind": "scan-report",
        **asdict(report),
        "best": cover_certificate(body, report.best),
    }


def witness_certificate(w: ExtensionWitness) -> dict:
    return {"kind": "extension-witness", **asdict(w)}


def spectrum_certificate(spec: MultiplierSpectrum) -> dict:
    return {"kind": "zonal-spectrum", **asdict(spec)}


def cl_csv(certs: list[CLCertificate]) -> str:
    lines = ["l,c_l,residue_mod16,status"]
    for c in certs:
        value = "" if c.value is None else rat_str(c.value)
        lines.append(f"{c.l},{value},{c.residue_mod16},{c.status}")
    return "\n".join(lines) + "\n"


def _check_conclusion(data: dict, derived: EutaxyClass, bad: list[str]) -> None:
    """Apply eutaxy's rule to the class re-derived from the evidence."""
    from .eutaxy import ball_conclusion

    if data["conclusion"] != ball_conclusion(derived):
        bad.append("conclusion does not match the classification rule")


def _verify_classification(data: dict, bad: list[str]) -> None:
    from .eutaxy import (
        MAP_NORMALIZATION,
        EutaxyClass,
        forms_independent,
        gram_inverse,
        map_inner,
        map_trace,
        q_map,
        removal_class,
        split_pair_weights,
    )
    from .lattice import build_anstar, covering_radius, negative_pairs
    from .linalg import combination_test

    gram = _parse_mat(data["gram"])
    dim = data["dimension"]
    if dim != len(gram):
        bad.append("dimension does not match the gram matrix")
        return
    if type(dim) is not int or not 2 <= dim <= 5:
        bad.append(f"dimension {dim!r} is not an integer from 2 to 5")
        return
    if data["normalization"] != MAP_NORMALIZATION:
        bad.append(f"normalization must read {MAP_NORMALIZATION!r}")
    # the maps, pairs and radius are those of A_n*, rebuilt here
    lat = build_anstar(dim)
    mu2, simplices = covering_radius(lat)
    pairs = negative_pairs(simplices)
    if gram != lat.gram:
        bad.append("gram matrix is not the A_n* gram matrix")
        return
    if parse_rat(data["mu2"]) != mu2:
        bad.append("covering radius mismatched")
    if [tuple(p) for p in data["pairs"]] != list(pairs):
        bad.append("pairs do not match the pair table")
        return
    forms = [_parse_mat(m) for m in data["maps"]]
    if len(forms) != len(pairs):
        bad.append("one map per pair expected")
        return
    if data["num_simplices"] != 2 * len(pairs):
        bad.append("pair count inconsistent with simplex count")
    for k, f in enumerate(forms):
        if f != q_map(simplices[pairs[k][0]], gram).form:
            bad.append(f"map {k} is not the simplex map of pair {k}")
    if data["unique"] != forms_independent(forms):
        bad.append("unique must say whether the maps are linearly independent")
    ginv = gram_inverse(gram)
    cls = data["classification"]
    coeffs = data["pair_coefficients"]
    split = data["simplex_coefficients"]
    expected_split = split_pair_weights(
        None if coeffs is None else [parse_rat(c) for c in coeffs], pairs
    )
    if (None if split is None else tuple(map(parse_rat, split))) != expected_split:
        bad.append("simplex coefficients are not the pair weights split over each pair")
    if cls == "not-semi-eutactic":
        if data["removals"]:
            bad.append("an infeasible classification lists no removals")
        y = _parse_mat(data["farkas_form"])
        if map_trace(ginv, y) <= 0:
            bad.append("separating map has nonpositive trace")
        for k, f in enumerate(forms):
            if map_inner(ginv, y, f) >= 0:
                bad.append(f"separating map not strict against map {k}")
        _check_conclusion(data, EutaxyClass.NOT_SEMI_EUTACTIC, bad)
        return
    if coeffs is None:
        bad.append("feasible classification without coefficients")
        return
    if data["farkas_form"] is not None:
        bad.append("feasible classification with a separating map")
    cs = [parse_rat(c) for c in coeffs]
    if any(c < 0 for c in cs):
        bad.append("negative coefficient in identity resolution")
    resums = combination_test(forms, gram)
    if not resums(cs):
        bad.append("coefficients do not resolve the identity form")
    indices = [r["pair_index"] for r in data["removals"]]
    if any(type(k) is not int for k in indices) or indices != list(range(len(pairs))):
        bad.append("removals must list the pair indices in order, one per pair")
        return
    removable = []
    for k, r in enumerate(data["removals"]):
        kept = forms[:k] + forms[k + 1 :]
        evidence = (r["coefficients"] is not None, r["farkas_form"] is not None)
        if evidence != (r["feasible"], not r["feasible"]):
            bad.append(f"removal {k}: needs coefficients if feasible, else a separating map")
            continue
        if r["feasible"]:
            removable.append(True)
            rcs = [parse_rat(c) for c in r["coefficients"]]
            if len(rcs) != len(kept) or any(c < 0 for c in rcs):
                bad.append(f"removal {k}: bad coefficient vector")
                continue
            if not resums(rcs, k):
                bad.append(f"removal {k}: coefficients do not resolve identity")
        else:
            removable.append(False)
            y = _parse_mat(r["farkas_form"])
            if map_trace(ginv, y) <= 0:
                bad.append(f"removal {k}: separating map has nonpositive trace")
            for i, f in enumerate(kept):
                if map_inner(ginv, y, f) >= 0:
                    bad.append(f"removal {k}: not strict against kept map {i}")
    expected = removal_class(removable)
    if expected is EutaxyClass.CRITICALLY_SEMI_EUTACTIC:
        if not data["unique"] or any(c <= 0 for c in cs):
            bad.append("critical case requires unique all-positive coefficients")
    if cls != expected.value:
        bad.append(f"classification {cls!r} but evidence says {expected.value!r}")
    _check_conclusion(data, expected, bad)


def _verify_lattice_report(data: dict, bad: list[str]) -> None:
    from .lattice import build_anstar, lattice_report

    dim = data["dimension"]
    if type(dim) is not int or not 2 <= dim <= 5:
        bad.append(f"dimension {dim!r} is not an integer from 2 to 5")
        return
    # every field is that of A_n*, rebuilt here and rendered as emitted
    expected = rationalize(lattice_report(build_anstar(dim)))
    for key in sorted(expected.keys() | data.keys()):
        if key not in data or key not in expected or data[key] != expected[key]:
            bad.append(f"{key} does not match the rebuilt A_n* model")


def _verify_cover(data: dict, bad: list[str]) -> None:
    from .bodies import body_from_dict, body_to_dict, is_normalized
    from .eutaxy import gram_inverse, map_matrix
    from .lattice import build_anstar, covering_radius
    from .linalg import det, gram_dot, identity, mat_add, mat_vec, trace, vec_add
    from .perturbation import cover_floats, deformed_vertices, simplex_weights, trace_identity_sum

    body = body_from_dict(data["body"])
    if data["body"] != body_to_dict(body):
        bad.append("body is not written as the construction writes it")
    if not is_normalized(body) or any(l % 2 for l, _, _ in body.coeffs):
        bad.append("body outside the normalized even class")
    if body.eps > 0.1:
        bad.append("body asphericity above threshold")
    lat = build_anstar(3)
    gram = lat.gram
    mu2, simplices = covering_radius(lat)
    upsilon = simplex_weights(lat, simplices)
    m_form = _parse_mat(data["m_form"])
    m_matrix = _parse_mat(data["m_matrix"])
    if m_matrix != map_matrix(gram_inverse(gram), m_form):
        bad.append("matrix and form views of M disagree")
    rho = [[parse_rat(x) for x in row] for row in data["rho"]]
    translations = [_parse_vec(t) for t in data["translations"]]
    delta = parse_rat(data["delta"])
    if not (0 <= delta < 1):
        bad.append("contraction outside [0, 1)")
    for i, s in enumerate(simplices):
        for j, x in enumerate(s.x):
            lhs = gram_dot(gram, x, vec_add(mat_vec(m_matrix, x), translations[i]))
            if lhs != s.cr2 * rho[i][j]:
                bad.append(f"linear system residual at ({i}, {j})")
    expected_trace = trace_identity_sum(rho, simplices, upsilon)
    if parse_rat(data["trace_m"]) != expected_trace or trace(m_matrix) != expected_trace:
        bad.append("trace identity fails")
    rho_abs = sum(abs(r) for row in rho for r in row)
    if parse_rat(data["sum_abs_rho"]) != rho_abs:
        bad.append("sum of |rho| mismatched")
    det_ratio = parse_rat(data["det_ratio"])
    if det_ratio != (1 - delta) ** 3 * det(mat_add(identity(3), m_matrix)):
        bad.append("determinant ratio mismatched")
    if data["float_tolerance"] != FLOAT_TOLERANCE:
        bad.append(f"float tolerance must be {FLOAT_TOLERANCE!r}")
    checks = data["checks"]
    vertices = deformed_vertices(body, data["rotation"], lat, simplices, m_matrix, translations)
    if [(k["simplex"], k["vertex"]) for k in checks] != [v[:2] for v in vertices]:
        bad.append("membership log must check every vertex once, in order")
        return
    shrink2 = (1 - delta) ** 2
    for k, (i, j, y, norm2, recomputed, *_) in zip(checks, vertices):
        if y != _parse_vec(k["y"]):
            bad.append(f"deformed vertex mismatch at ({i}, {j})")
        if norm2 != parse_rat(k["norm2"]):
            bad.append(f"vertex norm mismatch at ({i}, {j})")
        r_val = k["radial_value"]
        if type(r_val) is not float:
            bad.append(f"radial value at ({i}, {j}) is not a JSON float")
            continue
        if abs(r_val - recomputed) > FLOAT_TOLERANCE:
            bad.append(f"radial value does not match the body at ({i}, {j})")
        lhs = shrink2 * norm2
        rhs = mu2 * Fraction(r_val) ** 2
        if lhs != parse_rat(k["lhs"]) or rhs != parse_rat(k["rhs"]):
            bad.append(f"membership sides mismatched at ({i}, {j})")
        if lhs > rhs:
            bad.append(f"membership fails at ({i}, {j})")
    try:
        derived = cover_floats(
            body.eps, mu2, delta, expected_trace, rho_abs, [v[4:] for v in vertices]
        )
    except RuntimeError as e:
        bad.append(f"cover floats cannot be re-derived: {e}")
        return
    *stored, margins = derived
    for key, want in zip(("delta_tangent", "epsilon_prime", "lower_bound"), stored):
        if type(data[key]) is not float or data[key] != want:
            bad.append(f"{key} is not its value from the certificate's exact data")
    for k, want in zip(checks, margins):
        if type(k["margin"]) is not float or k["margin"] != want:
            bad.append(f"margin at ({k['simplex']}, {k['vertex']}) is not its re-derived value")


def _verify_scan(data: dict, bad: list[str]) -> None:
    from .bodies import body_from_dict, volume_ratio
    from .lattice import build_anstar, covering_radius
    from .linalg import det
    from .perturbation import grid_rotation, scan_densities

    if data["best"]["kind"] != "cover-construction":
        bad.append("the best construction must be of kind 'cover-construction'")
    _verify_cover(data["best"], bad)
    lat = build_anstar(3)
    mu2, _ = covering_radius(lat)
    volume_bound = volume_ratio(body_from_dict(data["best"]["body"]))
    if parse_rat(data["volume_bound"]) != volume_bound:
        bad.append("volume bound is not the exact bound of the body")
    det_ratio = parse_rat(data["best"]["det_ratio"])
    derived = scan_densities(mu2, det(lat.gram), volume_bound, det_ratio)
    for key, want in zip(_DENSITY_KEYS, derived):
        if type(data[key]) is not float or data[key] != want:
            bad.append(f"{key} is not its value from the exact volume bound and det ratio")
    if (data["margin"] > 0) != (det_ratio > volume_bound):
        bad.append("margin sign contradicts det_ratio > volume_bound")
    index, size = data["best_index"], data["grid_size"]
    if type(index) is not int or type(size) is not int or not 0 <= index < size:
        bad.append("best rotation index must be an integer in [0, grid_size)")
    elif data["best"]["rotation"] != [list(row) for row in grid_rotation(index, size)]:
        bad.append("stored rotation is not grid rotation best_index")


def _verify_witness(data: dict, bad: list[str]) -> None:
    from .eutaxy import gram_inverse, map_inner, map_trace, q_map
    from .lattice import build_anstar, covering_radius, negative_pairs
    from .linalg import det, mat_vec, vec_add, vec_scale
    from .witness import (
        AugmentedBall,
        exact_cr_after,
        kept_simplices,
        member_augmented_ball,
        witness_transform,
    )

    dim = data["dimension"]
    if type(dim) is not int or not 2 <= dim <= 5:
        bad.append(f"dimension {dim!r} is not an integer from 2 to 5")
        return
    lat = build_anstar(dim)
    gram = lat.gram
    ginv = gram_inverse(gram)
    mu2, simplices = covering_radius(lat)
    pairs = negative_pairs(simplices)
    if parse_rat(data["mu2"]) != mu2:
        bad.append("covering radius mismatched")
    pair_index = data["pair_index"]
    if type(pair_index) is not int or not 0 <= pair_index < len(pairs):
        bad.append(f"pair index {pair_index!r} is not an integer from 0 to {len(pairs) - 1}")
        return
    if tuple(data["removed_simplices"]) != pairs[pair_index]:
        bad.append("removed pair does not match the pair table")
        return
    farkas = _parse_mat(data["farkas_form"])
    if map_trace(ginv, farkas) <= 0:
        bad.append("separating map has nonpositive trace")
        return
    t_map = _parse_mat(data["transform"])
    if t_map != witness_transform(gram, farkas, parse_rat(data["scale"])):
        bad.append("transform is not Id + (scale/2) times the normalized separating map")
    det_t = parse_rat(data["det_t"])
    if det(t_map) != det_t:
        bad.append("stored determinant disagrees with the transform")
    if det_t <= 1:
        bad.append("transform does not grow the determinant")
    kept = kept_simplices(simplices, pairs, pair_index)
    # a pair's two members share one map
    for i, s in enumerate(kept[::2]):
        if map_inner(ginv, farkas, q_map(s, gram).form) >= 0:
            bad.append(f"separating map not strict against kept pair {i}")
    stored = [parse_rat(c) for c in data["kept_cr2"]]
    if len(stored) != len(kept):
        bad.append("kept circumradius list incomplete")
    for idx, (s, c) in enumerate(zip(kept, stored)):
        if exact_cr_after(t_map, s, gram) != c:
            bad.append(f"kept circumradius {idx} mismatched")
        if c >= mu2:
            bad.append(f"kept simplex {idx} no longer strictly inside")
    s0 = simplices[pairs[pair_index][0]]
    if parse_rat(data["grown_cr2"]) != exact_cr_after(t_map, s0, gram):
        bad.append("grown circumradius mismatched")
    pole = _parse_vec(data["pole"])
    if pole != s0.x[0]:
        bad.append("pole is not the first vertex of the removed simplex")
    eps = parse_rat(data["eps"])
    if eps <= 0:
        bad.append("eps must be positive")
        return
    tau = parse_rat(data["tau"])
    ball = AugmentedBall(eps=eps, pole=pole, gram=gram)
    pts = [_parse_vec(p) for p in data["translated_points"]]
    rebuilt = [vec_add(mat_vec(t_map, x), vec_scale(tau, pole)) for x in s0.x]
    if pts != rebuilt:
        bad.append("translated points do not match transform and tau")
    for idx, p in enumerate(pts):
        if not member_augmented_ball(p, ball):
            bad.append(f"translated vertex {idx} outside the augmented ball")


def _verify_spectrum(data: dict, bad: list[str]) -> None:
    from .harmonic import c_l_values, legendre_values

    counts = [(parse_rat(c), n) for c, n in data["cosine_counts"]]
    if type(data["lmax"]) is not int or any(type(n) is not int for _, n in counts):
        bad.append("lmax and every cosine count must be JSON integers")
        return
    mass = parse_rat(data["mass"])
    if sum(n for _, n in counts) != 2 * mass:
        bad.append("mass is not half the vertex count")
    multipliers = [parse_rat(m) for m in data["multipliers"]]
    if len(multipliers) != data["lmax"] + 1:
        bad.append("multiplier list length off")
    series = [(n, legendre_values(c)) for c, n in counts]
    for (l, m), c in zip(enumerate(multipliers), c_l_values()):
        from_counts = sum(n * next(p) for n, p in series) / 2
        if m != from_counts:
            bad.append(f"multiplier {l} disagrees with the cosine data")
        if l % 2 == 1 and m != 0:
            bad.append(f"odd multiplier {l} nonzero")
        if l % 2 == 0 and m != c:
            bad.append(f"even multiplier {l} differs from c_{l}")


_VERIFIERS: dict[str, Callable[[dict, list[str]], None]] = {
    "eutaxy-classification": _verify_classification,
    "lattice-report": _verify_lattice_report,
    "cover-construction": _verify_cover,
    "scan-report": _verify_scan,
    "extension-witness": _verify_witness,
    "zonal-spectrum": _verify_spectrum,
}


def _keys(cls, *extra: str) -> frozenset[str]:
    return frozenset({*(f.name for f in fields(cls)), *extra})


# Each kind's exact key set at every dict level, read off the dataclass it
# serializes: (name, keys, {field: schema of that dict or of each dict in
# that list}).  Built for the kind being verified only, so the dataclasses
# of other kinds stay unimported.  A lattice report is compared whole with
# its rebuilt model.
def _classification_schema() -> tuple:
    from .eutaxy import CLASSIFICATION_KEYS, RemovalOutcome

    return ("classification", CLASSIFICATION_KEYS,
            {"removals": ("removal", _keys(RemovalOutcome), {})})


def _cover_schema() -> tuple:
    from .perturbation import CoverConstruction, VertexCheck

    return ("cover", _keys(CoverConstruction, "kind", "body", "float_tolerance"),
            {"checks": ("check", _keys(VertexCheck), {})})


def _scan_schema() -> tuple:
    from .perturbation import ScanReport

    return ("scan", _keys(ScanReport, "kind"), {"best": _cover_schema()})


def _witness_schema() -> tuple:
    from .witness import ExtensionWitness

    return ("witness", _keys(ExtensionWitness, "kind"), {})


def _spectrum_schema() -> tuple:
    from .harmonic import MultiplierSpectrum

    return ("spectrum", _keys(MultiplierSpectrum, "kind"), {})


_SCHEMAS: dict[str, Callable[[], tuple]] = {
    "eutaxy-classification": _classification_schema,
    "cover-construction": _cover_schema,
    "scan-report": _scan_schema,
    "extension-witness": _witness_schema,
    "zonal-spectrum": _spectrum_schema,
}


def _check_keys(data: object, schema: tuple, bad: list[str]) -> None:
    """Require exactly the schema's keys, at this level and every nested one."""
    name, keys, nested = schema
    if not isinstance(data, dict) or data.keys() != keys:
        bad.append(f"{name} fields must be exactly {sorted(keys)}")
        return
    for key, inner in nested.items():
        for item in data[key] if isinstance(data[key], list) else [data[key]]:
            _check_keys(item, inner, bad)


def verify_certificate(data: object) -> tuple[bool, list[str]]:
    """Re-check a parsed JSON certificate; returns (ok, failure messages)."""
    if not isinstance(data, dict):
        return False, ["certificate is not a JSON object"]
    bad: list[str] = []
    kind = data.get("kind")
    checker = _VERIFIERS.get(kind) if isinstance(kind, str) else None
    if checker is None:
        return False, [f"unknown certificate kind: {kind!r}"]
    if kind in _SCHEMAS:
        _check_keys(data, _SCHEMAS[kind](), bad)
        if bad:
            return False, bad
    try:
        checker(data, bad)
    except (
        KeyError, IndexError, OverflowError, TypeError, ValueError, ZeroDivisionError
    ) as e:
        bad.append(f"malformed certificate: {e!r}")
    return not bad, bad


def verify_cl_csv(text: str) -> tuple[bool, list[str]]:
    """Re-check a c_l table by rerunning the cheap modular recurrences.

    Stored exact values are checked against the integers 5^l l! c_l, which
    are stepped one degree at a time up to the last row claiming a value.
    """
    from .harmonic import c_l_residues, scaled_c_l_values

    bad: list[str] = []
    lines = text.strip().split("\n")
    if not lines or lines[0] != "l,c_l,residue_mod16,status":
        return False, ["missing or wrong CSV header"]
    rows = lines[1:]
    lmax = len(rows) - 1
    if lmax < 0:
        return False, ["empty table"]
    residues = c_l_residues(lmax)
    scaled = scaled_c_l_values()
    at, scaled_c, den = 0, next(scaled), 1  # 5^at at! c_at and 5^at at!
    for idx, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != 4:
            bad.append(f"row {idx}: wrong field count")
            continue
        l_str, value, residue_str, status = parts
        try:
            l, residue = int(l_str), int(residue_str)
            exact = parse_rat(value) if value else None
        except (ValueError, ZeroDivisionError) as e:
            bad.append(f"row {idx}: malformed field: {e}")
            continue
        if l != idx:
            bad.append(f"row {idx}: degrees must be consecutive from 0")
            continue
        if residue != residues[idx]:
            bad.append(f"row {idx}: residue does not satisfy the recurrence")
        if status == "zero":
            if idx != 2 or (exact is not None and exact != 0):
                bad.append(f"row {idx}: only degree 2 vanishes")
        elif status == "nonzero-exact":
            if exact is None:
                bad.append(f"row {idx}: exact status without a value")
                continue
            while at < idx:
                at, scaled_c, den = at + 1, next(scaled), den * 5 * (at + 1)
            if exact.numerator * den != scaled_c * exact.denominator:
                bad.append(f"row {idx}: stored value wrong")
            elif exact == 0:
                bad.append(f"row {idx}: zero value marked nonzero")
        elif status == "nonzero-mod16":
            if residue % 16 == 0:
                bad.append(f"row {idx}: vanishing residue cannot certify")
            if exact is not None:
                bad.append(f"row {idx}: mod-16 rows carry no exact value")
        else:
            bad.append(f"row {idx}: unknown status {status!r}")
    return not bad, bad
