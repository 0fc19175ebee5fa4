"""Certificate serialization and independent re-checking.

A certificate is its record (typing.NamedTuple) rendered by rationalize
and tagged with its kind; the field list lives in the record alone.
Rationals serialize as strings "p" or "p/q" in lowest terms so exactness
survives JSON, and are read back only in that form (parse_rat);
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
exact det ratio and must be equal.  First, a certificate is read back
through its record (decode), which fixes its keys and each leaf's JSON
type; the lattice report, which has none, is compared whole with its model.

Only the standard library is imported at load.  verify_certificate reads a
certificate's kind first; only then does that kind's verifier import its
record and the modules it reads, so a process checks one kind without
compiling the others' (the c_l table's check needs harmonic alone).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, Sequence, Union, get_args, get_origin, get_type_hints

if TYPE_CHECKING:
    from .bodies import RadialBody
    from .harmonic import CLCertificate, MultiplierSpectrum
    from .linalg import Rat
    from .perturbation import CoverConstruction, ScanReport
    from .witness import ExtensionWitness

# Largest gap allowed between a stored radial value and its re-evaluation.
FLOAT_TOLERANCE = 1e-12

def rat_str(x: Rat) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(text: str) -> Fraction:
    """The rational written as rat_str writes it, 'p' or 'p/q' in lowest
    terms with q > 1 and each part as str(int) writes it; ValueError for any
    other string."""
    p, slash, q = text.partition("/")
    try:
        num, den = int(p), int(q or 1)
        ok = str(num) == p and not (
            slash and (str(den) != q or den <= 1 or math.gcd(num, den) != 1)
        )
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"not a rational as written: {text!r}")
    return Fraction(num, den)


def parse_int(text: str) -> int:
    """The integer written as str(int) writes it; ValueError for any other
    string."""
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if str(value) == text:
            return value
    raise ValueError(f"not an integer as written: {text!r}")


def rationalize(obj):
    """Copy a report into JSON data, rendering every record as an object of
    its fields, every Fraction as a 'p/q' string and every other tuple as a
    list."""
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, dict):
        return {k: rationalize(v) for k, v in obj.items()}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):  # a record
        return {k: rationalize(v) for k, v in zip(obj._fields, obj)}
    if isinstance(obj, (list, tuple)):
        return [rationalize(v) for v in obj]
    return obj


def dump_json(data: dict) -> str:
    return json.dumps(rationalize(data), indent=2, sort_keys=True) + "\n"


def cover_certificate(body: RadialBody, c: CoverConstruction) -> dict:
    from .bodies import body_to_dict

    return {
        "kind": "cover-construction",
        "body": body_to_dict(body),
        **c._asdict(),
        "float_tolerance": FLOAT_TOLERANCE,
    }


def scan_certificate(body: RadialBody, report: ScanReport) -> dict:
    return {
        "kind": "scan-report",
        **report._asdict(),
        "best": cover_certificate(body, report.best),
    }


def witness_certificate(w: ExtensionWitness) -> dict:
    return {"kind": "extension-witness", **w._asdict()}


def spectrum_certificate(spec: MultiplierSpectrum) -> dict:
    return {"kind": "zonal-spectrum", **spec._asdict()}


def cl_csv(certs: list[CLCertificate]) -> str:
    lines = ["l,c_l,residue_mod16,status"]
    for c in certs:
        value = "" if c.value is None else rat_str(c.value)
        lines.append(f"{c.l},{value},{c.residue_mod16},{c.status}")
    return "\n".join(lines) + "\n"


_JSON_TYPES = {
    bool: "a JSON boolean", int: "a JSON integer", float: "a JSON float", str: "a JSON string",
    list: "a JSON list", dict: "a JSON object", type(None): "null",
}

# The keys each builder writes beside its record's fields, by class name.
_ADDED_KEYS = dict.fromkeys(
    ("Classification", "ScanReport", "ExtensionWitness", "MultiplierSpectrum"), ("kind",)
) | {"CoverConstruction": ("kind", "body", "float_tolerance")}


class DecodeError(ValueError):
    """A certificate value its annotation does not allow, at `path`."""

    path: tuple[str | int, ...] = ()

    def __str__(self) -> str:
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in self.path)
        return f"{where.lstrip('.') or 'certificate'} {self.args[0]}"


def decode(tp, value: object, *path: str | int):
    """Read a parsed JSON value, found at `path`, as the annotation tp: each
    object with exactly its record's fields and its builder's keys, each
    list a tuple, rectangular when nested, and each leaf of its JSON type."""
    try:
        return _reader(tp)(value)
    except DecodeError as e:
        e.path = (*path, *e.path)
        raise


def _check(json_type: type, value: object):
    if type(value) is not json_type:
        found = _JSON_TYPES.get(type(value), type(value).__name__)
        raise DecodeError(f"must be {_JSON_TYPES[json_type]}, not {found}")
    return value


def _read_rat(value: object) -> Fraction:
    text = _check(str, value)
    try:
        return parse_rat(text)
    except ValueError:
        raise DecodeError(f"must be a rational string, not {text!r}") from None


def _read_each(keys: Sequence, reads: Sequence, values: Sequence) -> list:
    """Each read(x) in turn; a DecodeError gets the failing x's key put first."""
    out = []
    try:
        for read, x in zip(reads, values):
            out.append(read(x))
    except DecodeError as e:
        e.path = (keys[len(out)], *e.path)
        raise
    return out


def _shape(t: tuple) -> tuple[int, ...]:
    return (len(t), *_shape(t[0])) if t and type(t[0]) is tuple else (len(t),)


@lru_cache(maxsize=None)
def _reader(tp) -> Callable[[object], object]:
    """The decoder of annotation tp, built once per annotation."""
    if hasattr(tp, "_fields"):  # a record
        # Rat is Fraction; harmonic imports it for type checkers only
        hints = get_type_hints(tp, localns={"Rat": Fraction})
        names = tp._fields
        reads = [_reader(hints[name]) for name in names]
        keys = {*names, *_ADDED_KEYS.get(tp.__name__, ())}

        def read_object(value):
            if _check(dict, value).keys() != keys:
                raise DecodeError(f"keys must be exactly {sorted(keys)}")
            return tp(*_read_each(names, reads, [value[name] for name in names]))

        return read_object
    args = get_args(tp)
    if get_origin(tp) is Union:  # Optional[X]
        inner = _reader(args[0])
        return lambda value: None if value is None else inner(value)
    if get_origin(tp) is tuple:  # tuple[X, ...] or tuple[X, Y]
        variadic = args[1:] == (...,)
        reads = [_reader(a) for a in args[: 1 if variadic else None]]
        nested = variadic and get_origin(args[0]) is tuple

        def read_list(value):
            _check(list, value)
            items = reads * len(value) if variadic else reads
            if len(value) != len(items):
                raise DecodeError(f"must be a JSON list of {len(items)} items")
            out = _read_each(range(len(value)), items, value)
            if nested and len(set(map(_shape, out))) > 1:
                raise DecodeError("must be a rectangular JSON list")
            return tuple(out)

        return read_list
    if tp is Fraction:
        return _read_rat
    return partial(_check, tp)


def _same_json(a: object, b: object) -> bool:
    """Whether two JSON values are equal with every leaf of the same JSON type."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _verify_classification(data: dict, bad: list[str]) -> None:
    from .eutaxy import (
        MAP_NORMALIZATION,
        Classification,
        EutaxyClass,
        ball_conclusion,
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

    c = decode(Classification, data)
    if c.dimension != len(c.gram):
        bad.append("dimension does not match the gram matrix")
        return
    if not 2 <= c.dimension <= 5:
        bad.append(f"dimension {c.dimension!r} is not an integer from 2 to 5")
        return
    if c.normalization != MAP_NORMALIZATION:
        bad.append(f"normalization must read {MAP_NORMALIZATION!r}")
    # the maps, pairs and radius are those of A_n*, rebuilt here
    lat = build_anstar(c.dimension)
    gram = lat.gram
    mu2, simplices = covering_radius(lat)
    pairs = negative_pairs(simplices)
    if c.gram != gram:
        bad.append("gram matrix is not the A_n* gram matrix")
        return
    if c.mu2 != mu2:
        bad.append("covering radius mismatched")
    if c.pairs != pairs:
        bad.append("pairs do not match the pair table")
        return
    forms = c.maps
    if len(forms) != len(pairs):
        bad.append("one map per pair expected")
        return
    if c.num_simplices != 2 * len(pairs):
        bad.append("pair count inconsistent with simplex count")
    for k, f in enumerate(forms):
        if f != q_map(simplices[pairs[k][0]], gram).form:
            bad.append(f"map {k} is not the simplex map of pair {k}")
    if c.unique != forms_independent(forms):
        bad.append("unique must say whether the maps are linearly independent")
    ginv = gram_inverse(gram)
    cs = c.pair_coefficients
    if c.simplex_coefficients != split_pair_weights(cs, pairs):
        bad.append("simplex coefficients are not the pair weights split over each pair")
    if c.classification == "not-semi-eutactic":
        if c.removals:
            bad.append("an infeasible classification lists no removals")
        y = c.farkas_form
        if map_trace(ginv, y) <= 0:
            bad.append("separating map has nonpositive trace")
        for k, f in enumerate(forms):
            if map_inner(ginv, y, f) >= 0:
                bad.append(f"separating map not strict against map {k}")
        if c.conclusion != ball_conclusion(EutaxyClass.NOT_SEMI_EUTACTIC):
            bad.append("conclusion does not match the classification rule")
        return
    if cs is None:
        bad.append("feasible classification without coefficients")
        return
    if c.farkas_form is not None:
        bad.append("feasible classification with a separating map")
    if any(x < 0 for x in cs):
        bad.append("negative coefficient in identity resolution")
    resums = combination_test(forms, gram)
    if not resums(cs):
        bad.append("coefficients do not resolve the identity form")
    if [r.pair_index for r in c.removals] != list(range(len(pairs))):
        bad.append("removals must list the pair indices in order, one per pair")
        return
    removable = []
    for k, r in enumerate(c.removals):
        kept = forms[:k] + forms[k + 1 :]
        if (r.coefficients is not None, r.farkas_form is not None) != (r.feasible, not r.feasible):
            bad.append(f"removal {k}: needs coefficients if feasible, else a separating map")
            continue
        removable.append(r.feasible)
        if r.feasible:
            if len(r.coefficients) != len(kept) or any(x < 0 for x in r.coefficients):
                bad.append(f"removal {k}: bad coefficient vector")
                continue
            if not resums(r.coefficients, k):
                bad.append(f"removal {k}: coefficients do not resolve identity")
        else:
            y = r.farkas_form
            if map_trace(ginv, y) <= 0:
                bad.append(f"removal {k}: separating map has nonpositive trace")
            for i, f in enumerate(kept):
                if map_inner(ginv, y, f) >= 0:
                    bad.append(f"removal {k}: not strict against kept map {i}")
    expected = removal_class(removable)
    if expected is EutaxyClass.CRITICALLY_SEMI_EUTACTIC:
        if not c.unique or any(x <= 0 for x in cs):
            bad.append("critical case requires unique all-positive coefficients")
    if c.classification != expected.value:
        bad.append(f"classification {c.classification!r} but evidence says {expected.value!r}")
    if c.conclusion != ball_conclusion(expected):
        bad.append("conclusion does not match the classification rule")


def _verify_lattice_report(data: dict, bad: list[str]) -> None:
    from .lattice import build_anstar, lattice_report

    dim = decode(int, data["dimension"], "dimension")
    if not 2 <= dim <= 5:
        bad.append(f"dimension {dim!r} is not an integer from 2 to 5")
        return
    # every field is that of A_n*, rebuilt here and rendered as emitted
    expected = rationalize(lattice_report(build_anstar(dim)))
    for key in sorted(expected.keys() | data.keys()):
        if key not in data or key not in expected or not _same_json(data[key], expected[key]):
            bad.append(f"{key} does not match the rebuilt A_n* model")


def _verify_cover(data: dict, bad: list[str], c: CoverConstruction | None = None) -> None:
    """Check a cover certificate; c is data decoded, where the caller has it."""
    from .bodies import body_from_dict, body_to_dict, is_normalized
    from .eutaxy import gram_inverse, map_matrix
    from .lattice import build_anstar, covering_radius
    from .linalg import det, gram_dot, identity, mat_add, mat_vec, trace, vec_add
    from .perturbation import CoverConstruction, cover_floats, deformed_vertices, simplex_weights
    from .perturbation import trace_identity_sum

    c = c or decode(CoverConstruction, data)
    body = body_from_dict(data["body"])
    if not _same_json(data["body"], body_to_dict(body)):
        bad.append("body is not written as the construction writes it")
    if not is_normalized(body) or any(l % 2 for l, _, _ in body.coeffs):
        bad.append("body outside the normalized even class")
    if body.eps > 0.1:
        bad.append("body asphericity above threshold")
    lat = build_anstar(3)
    gram = lat.gram
    mu2, simplices = covering_radius(lat)
    upsilon = simplex_weights(lat, simplices)
    if c.m_matrix != map_matrix(gram_inverse(gram), c.m_form):
        bad.append("matrix and form views of M disagree")
    if not (0 <= c.delta < 1):
        bad.append("contraction outside [0, 1)")
    for i, s in enumerate(simplices):
        for j, x in enumerate(s.x):
            lhs = gram_dot(gram, x, vec_add(mat_vec(c.m_matrix, x), c.translations[i]))
            if lhs != s.cr2 * c.rho[i][j]:
                bad.append(f"linear system residual at ({i}, {j})")
    expected_trace = trace_identity_sum(c.rho, simplices, upsilon)
    if c.trace_m != expected_trace or trace(c.m_matrix) != expected_trace:
        bad.append("trace identity fails")
    rho_abs = sum(abs(r) for row in c.rho for r in row)
    if c.sum_abs_rho != rho_abs:
        bad.append("sum of |rho| mismatched")
    if c.det_ratio != (1 - c.delta) ** 3 * det(mat_add(identity(3), c.m_matrix)):
        bad.append("determinant ratio mismatched")
    if data["float_tolerance"] != FLOAT_TOLERANCE:
        bad.append(f"float tolerance must be {FLOAT_TOLERANCE!r}")
    vertices = deformed_vertices(body, c.rotation, lat, simplices, c.m_matrix, c.translations)
    if [(k.simplex, k.vertex) for k in c.checks] != [v[:2] for v in vertices]:
        bad.append("membership log must check every vertex once, in order")
        return
    shrink2 = (1 - c.delta) ** 2
    for k, (i, j, y, norm2, recomputed, *_) in zip(c.checks, vertices):
        if y != k.y:
            bad.append(f"deformed vertex mismatch at ({i}, {j})")
        if norm2 != k.norm2:
            bad.append(f"vertex norm mismatch at ({i}, {j})")
        if abs(k.radial_value - recomputed) > FLOAT_TOLERANCE:
            bad.append(f"radial value does not match the body at ({i}, {j})")
        lhs = shrink2 * norm2
        rhs = mu2 * Fraction(k.radial_value) ** 2
        if lhs != k.lhs or rhs != k.rhs:
            bad.append(f"membership sides mismatched at ({i}, {j})")
        if lhs > rhs:
            bad.append(f"membership fails at ({i}, {j})")
    try:
        derived = cover_floats(
            body.eps, mu2, c.delta, expected_trace, rho_abs, [v[4:] for v in vertices]
        )
    except RuntimeError as e:
        bad.append(f"cover floats cannot be re-derived: {e}")
        return
    *stored, margins = derived
    for key, want in zip(("delta_tangent", "epsilon_prime", "lower_bound"), stored):
        if getattr(c, key) != want:
            bad.append(f"{key} is not its value from the certificate's exact data")
    for k, want in zip(c.checks, margins):
        if k.margin != want:
            bad.append(f"margin at ({k.simplex}, {k.vertex}) is not its re-derived value")


def _verify_scan(data: dict, bad: list[str]) -> None:
    from .bodies import body_from_dict, volume_ratio
    from .lattice import build_anstar, covering_radius
    from .linalg import det
    from .perturbation import ScanReport, grid_rotation, scan_densities

    s = decode(ScanReport, data)
    if data["best"]["kind"] != "cover-construction":
        bad.append("the best construction must be of kind 'cover-construction'")
    _verify_cover(data["best"], bad, s.best)
    lat = build_anstar(3)
    mu2, _ = covering_radius(lat)
    volume_bound = volume_ratio(body_from_dict(data["best"]["body"]))
    if s.volume_bound != volume_bound:
        bad.append("volume bound is not the exact bound of the body")
    derived = scan_densities(mu2, det(lat.gram), volume_bound, s.best.det_ratio)
    for key, want in zip(("ball_density", "best_density", "margin", "delta_k_bound"), derived):
        if getattr(s, key) != want:
            bad.append(f"{key} is not its value from the exact volume bound and det ratio")
    if (s.margin > 0) != (s.best.det_ratio > volume_bound):
        bad.append("margin sign contradicts det_ratio > volume_bound")
    if not 0 <= s.best_index < s.grid_size:
        bad.append("best rotation index must be an integer in [0, grid_size)")
    elif s.best.rotation != grid_rotation(s.best_index, s.grid_size):
        bad.append("stored rotation is not grid rotation best_index")


def _verify_witness(data: dict, bad: list[str]) -> None:
    from .eutaxy import gram_inverse, map_inner, map_trace, q_map
    from .lattice import build_anstar, covering_radius, negative_pairs
    from .linalg import det, mat_vec, vec_add, vec_scale
    from .witness import (
        AugmentedBall,
        ExtensionWitness,
        exact_cr_after,
        kept_simplices,
        member_augmented_ball,
        witness_transform,
    )

    w = decode(ExtensionWitness, data)
    if not 2 <= w.dimension <= 5:
        bad.append(f"dimension {w.dimension!r} is not an integer from 2 to 5")
        return
    lat = build_anstar(w.dimension)
    gram = lat.gram
    ginv = gram_inverse(gram)
    mu2, simplices = covering_radius(lat)
    pairs = negative_pairs(simplices)
    if w.mu2 != mu2:
        bad.append("covering radius mismatched")
    if not 0 <= w.pair_index < len(pairs):
        bad.append(f"pair index {w.pair_index!r} is not an integer from 0 to {len(pairs) - 1}")
        return
    if w.removed_simplices != pairs[w.pair_index]:
        bad.append("removed pair does not match the pair table")
        return
    if map_trace(ginv, w.farkas_form) <= 0:
        bad.append("separating map has nonpositive trace")
        return
    if w.transform != witness_transform(gram, w.farkas_form, w.scale):
        bad.append("transform is not Id + (scale/2) times the normalized separating map")
    if det(w.transform) != w.det_t:
        bad.append("stored determinant disagrees with the transform")
    if w.det_t <= 1:
        bad.append("transform does not grow the determinant")
    kept = kept_simplices(simplices, pairs, w.pair_index)
    # a pair's two members share one map
    for i, s in enumerate(kept[::2]):
        if map_inner(ginv, w.farkas_form, q_map(s, gram).form) >= 0:
            bad.append(f"separating map not strict against kept pair {i}")
    if len(w.kept_cr2) != len(kept):
        bad.append("kept circumradius list incomplete")
    for idx, (s, c) in enumerate(zip(kept, w.kept_cr2)):
        if exact_cr_after(w.transform, s, gram) != c:
            bad.append(f"kept circumradius {idx} mismatched")
        if c >= mu2:
            bad.append(f"kept simplex {idx} no longer strictly inside")
    s0 = simplices[pairs[w.pair_index][0]]
    if w.grown_cr2 != exact_cr_after(w.transform, s0, gram):
        bad.append("grown circumradius mismatched")
    if w.pole != s0.x[0]:
        bad.append("pole is not the first vertex of the removed simplex")
    if w.eps <= 0:
        bad.append("eps must be positive")
        return
    ball = AugmentedBall(eps=w.eps, pole=w.pole, gram=gram)
    rebuilt = tuple(vec_add(mat_vec(w.transform, x), vec_scale(w.tau, w.pole)) for x in s0.x)
    if w.translated_points != rebuilt:
        bad.append("translated points do not match transform and tau")
    for idx, p in enumerate(w.translated_points):
        if not member_augmented_ball(p, ball):
            bad.append(f"translated vertex {idx} outside the augmented ball")


def _verify_spectrum(data: dict, bad: list[str]) -> None:
    from .harmonic import MultiplierSpectrum, c_l_values, legendre_values

    s = decode(MultiplierSpectrum, data)
    if sum(n for _, n in s.cosine_counts) != 2 * s.mass:
        bad.append("mass is not half the vertex count")
    if len(s.multipliers) != s.lmax + 1:
        bad.append("multiplier list length off")
    series = [(n, legendre_values(c)) for c, n in s.cosine_counts]
    for (l, m), c in zip(enumerate(s.multipliers), c_l_values()):
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


def verify_certificate(data: object) -> tuple[bool, list[str]]:
    """Re-check a parsed JSON certificate; returns (ok, failure messages)."""
    if not isinstance(data, dict):
        return False, ["certificate is not a JSON object"]
    kind = data.get("kind")
    checker = _VERIFIERS.get(kind) if isinstance(kind, str) else None
    if checker is None:
        return False, [f"unknown certificate kind: {kind!r}"]
    bad: list[str] = []
    try:
        checker(data, bad)
    except DecodeError as e:
        bad.append(str(e))
    except (KeyError, IndexError, OverflowError, TypeError, ValueError, ZeroDivisionError) as e:
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
            l, residue = parse_int(l_str), parse_int(residue_str)
            exact = parse_rat(value) if value else None
        except ValueError as e:
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
