"""Field coverage of the verifier: a change to any one leaf of a
certificate must make `verify_certificate` fail."""

import json
import math
from dataclasses import asdict
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from ballcover.bodies import body_from_dict, make_body
from ballcover.eutaxy import Classification, classification_certificate
from ballcover.harmonic import MultiplierSpectrum, zonal_spectrum
from ballcover.lattice import build_anstar, covering_radius, lattice_report, voronoi_vertices
from ballcover.perturbation import CoverConstruction, ScanReport, rotation_scan
from ballcover.reports import (
    cover_certificate,
    decode,
    dump_json,
    rat_str,
    scan_certificate,
    spectrum_certificate,
    verify_certificate,
    witness_certificate,
)
from ballcover.witness import ExtensionWitness, extension_witness

# Leaves a one-leaf change may leave valid, as (kind, field), where a field
# is a leaf path with its list indices written "*".  Each with its reason.
EXEMPT = {
    ("extension-witness", ("eps",)): (
        "the declared --eps input: every membership check is re-run at the"
        " stated value, and a witness at one eps is also one at any larger eps"
    ),
    ("eutaxy-classification", ("removals", "*", "farkas_form", "*", "*")): (
        "evidence, not a derived value: verify re-checks that the form has"
        " positive trace and strictly separates, and any nearby form that"
        " still does proves the same infeasibility"
    ),
}


def _spectrum():
    lat = build_anstar(3)
    _, simplices = covering_radius(lat)
    pole = simplices[0].x[0]
    return spectrum_certificate(zonal_spectrum(voronoi_vertices(lat), pole, lat.gram, 12))


@lru_cache(maxsize=None)
def certificates():
    """The certificates as parsed JSON: witnesses in dimensions 2 and 3,
    classifications and lattice reports in dimensions 2 to 4, a spectrum
    and a scan."""
    out = {}
    for dim in (2, 3, 4):
        lat = build_anstar(dim)
        out[f"classification-{dim}"] = classification_certificate(lat)
        out[f"anstar-{dim}"] = lattice_report(lat)
    out["witness-2-0"] = witness_certificate(extension_witness(build_anstar(2), 0))
    for pair in range(3):
        w = extension_witness(build_anstar(3), pair)
        out[f"witness-3-{pair}"] = witness_certificate(w)
    out["witness-3-0-eps-1/7"] = witness_certificate(
        extension_witness(build_anstar(3), 0, eps=Fraction(1, 7))
    )
    out["spectrum"] = _spectrum()
    body = make_body([(4, 0, 0.005)])
    out["scan"] = scan_certificate(body, rotation_scan(body, grid_size=8))
    return {name: json.loads(dump_json(c)) for name, c in out.items()}


def leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from leaves(value, path + (i,))
    else:
        yield path


def field(path):
    return tuple("*" if isinstance(p, int) else p for p in path)


@lru_cache(maxsize=None)
def fields(name):
    """Each checked field of a certificate, with its leaf paths in order."""
    data = certificates()[name]
    out = {}
    for path in leaves(data):
        if (data["kind"], field(path)) not in EXEMPT:
            out.setdefault(field(path), []).append(path)
    return out


def read(data, path):
    for p in path:
        data = data[p]
    return data


def verify_changed(data, path, value):
    """verify_certificate on data with the leaf at path set to value; the
    leaf is restored afterwards."""
    parent = read(data, path[:-1])
    old = parent[path[-1]]
    parent[path[-1]] = value
    try:
        return verify_certificate(data)
    finally:
        parent[path[-1]] = old


NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=64).filter(bool)


def other_value(old):
    """A strategy for a leaf value of the same type that differs from old."""
    if isinstance(old, bool):
        return st.just(not old)
    if isinstance(old, int):
        return st.integers(-3, 3).filter(bool).map(lambda d: old + d)
    if old is None:
        return st.sampled_from(["0", "1", []])
    if isinstance(old, float):
        # a few ulps either way, or any other float
        near = st.integers(-4, 4).map(lambda n: old + n * math.ulp(old))
        return (near | st.floats(-10, 10)).filter(lambda f: f != old)
    try:
        value = Fraction(old)
    except (ValueError, ZeroDivisionError):
        return st.text(max_size=8).filter(lambda s: s != old)
    return NONZERO.map(lambda d: rat_str(value + d))


def fixed_change(old):
    if isinstance(old, bool):
        return not old
    if isinstance(old, int):
        return old + 1
    if old is None:
        return "1"
    if isinstance(old, float):
        return math.nextafter(old, math.inf)
    try:
        return rat_str(Fraction(old) + Fraction(1, 3))
    except (ValueError, ZeroDivisionError):
        return old + "!"


def test_every_certificate_verifies_and_no_exemption_is_stale():
    present = set()
    for name, data in certificates().items():
        assert verify_certificate(data) == (True, []), name
        present.update((data["kind"], field(p)) for p in leaves(data))
    assert EXEMPT.keys() <= present


def test_verify_rejects_a_change_to_the_first_leaf_of_every_field():
    for name, data in certificates().items():
        for paths in fields(name).values():
            path = paths[0]
            ok, _ = verify_changed(data, path, fixed_change(read(data, path)))
            assert not ok, (name, path)


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_verify_rejects_any_one_leaf_change(data):
    name = data.draw(st.sampled_from(sorted(certificates())))
    cert = certificates()[name]
    by_field = fields(name)
    paths = by_field[data.draw(st.sampled_from(sorted(by_field)))]
    path = data.draw(st.sampled_from(paths))
    value = data.draw(other_value(read(cert, path)))
    ok, _ = verify_changed(cert, path, value)
    assert not ok, (name, path, value)


def same_value_in_another_json_type(old):
    """The values equal to the leaf old that have another JSON type."""
    if isinstance(old, bool):
        return [int(old)]
    if isinstance(old, int):
        return [float(old)] + ([bool(old)] if old in (0, 1) else [])
    if isinstance(old, float):
        return [repr(old)]
    try:
        value = Fraction(old)
    except (TypeError, ValueError, ZeroDivisionError):  # null, or a string not a rational
        return []
    return [value.numerator] if value.denominator == 1 else []


def test_verify_rejects_a_leaf_of_the_wrong_json_type():
    # Each forged leaf is equal in value to the true one, so only its JSON
    # type is wrong.  The scan's best construction also stands alone.
    certs = dict(certificates(), cover=certificates()["scan"]["best"])
    forged = 0
    for name, data in certs.items():
        for path in leaves(data):
            for value in same_value_in_another_json_type(read(data, path)):
                ok, _ = verify_changed(data, path, value)
                assert not ok, (name, path, value)
                forged += 1
    assert forged > 1000
    scan, spectrum = certificates()["scan"], certificates()["spectrum"]
    radial = ("best", "checks", 0, "radial_value")
    count = ("cosine_counts", 0, 1)
    for data, path, value, message in (
        (scan, radial, repr(read(scan, radial)),
         "best.checks[0].radial_value must be a JSON float, not a JSON string"),
        (spectrum, ("lmax",), float(spectrum["lmax"]), "lmax must be a JSON integer, not a JSON float"),
        (spectrum, count, float(read(spectrum, count)),
         "cosine_counts[0][1] must be a JSON integer, not a JSON float"),
    ):
        assert verify_changed(data, path, value) == (False, [message]), path


def test_a_decoding_failure_names_its_path():
    classification, witness = certificates()["classification-3"], certificates()["witness-3-0"]
    scan = certificates()["scan"]
    check_keys = sorted(read(scan, ("best", "checks", 3)))
    for data, path, value, message in (
        (classification, ("mu2",), "2/0", "mu2 must be a rational string, not '2/0'"),
        (classification, ("gram", 0), ["1"], "gram must be a rectangular JSON list"),
        (classification, ("maps", 1), [["1", "0"]] * 3, "maps must be a rectangular JSON list"),
        (classification, ("removals", 2), None, "removals[2] must be a JSON object, not null"),
        (witness, ("removed_simplices",), [0, 1, 2], "removed_simplices must be a JSON list of 2 items"),
        (scan, ("best", "checks", 3), {}, f"best.checks[3] keys must be exactly {check_keys}"),
    ):
        assert verify_changed(data, path, value) == (False, [message]), path


def dict_levels(obj, path=()):
    """The path of every dict in a certificate, the certificate first."""
    if isinstance(obj, dict):
        yield path
        for key, value in obj.items():
            yield from dict_levels(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from dict_levels(value, path + (i,))


def test_verify_rejects_an_inserted_or_dropped_key_at_every_level():
    # The scan's best construction also stands alone as a cover certificate.
    certs = dict(certificates(), cover=certificates()["scan"]["best"])
    for name, data in certs.items():
        assert verify_certificate(data) == (True, []), name
        for path in dict_levels(data):
            level = read(data, path)
            forged = json.loads(json.dumps(data))
            read(forged, path)["note"] = "forged claim: ball is worst covering in every dimension"
            ok, _ = verify_certificate(forged)
            assert not ok, (name, path, "note")
            for key in level:
                forged = json.loads(json.dumps(data))
                del read(forged, path)[key]
                ok, _ = verify_certificate(forged)
                assert not ok, (name, path, key)


def test_every_certificate_round_trips_through_its_dataclass():
    # Decoded and emitted again by its builder, each certificate keeps its
    # bytes: the dataclasses hold every field with its type.
    def body(data):
        return body_from_dict(data["body"])

    emit = {
        "eutaxy-classification": lambda d: {
            "kind": "eutaxy-classification", **asdict(decode(Classification, d))
        },
        "cover-construction": lambda d: cover_certificate(body(d), decode(CoverConstruction, d)),
        "scan-report": lambda d: scan_certificate(body(d["best"]), decode(ScanReport, d)),
        "extension-witness": lambda d: witness_certificate(decode(ExtensionWitness, d)),
        "zonal-spectrum": lambda d: spectrum_certificate(decode(MultiplierSpectrum, d)),
    }
    certs = dict(certificates(), cover=certificates()["scan"]["best"])
    for name, data in certs.items():
        if data["kind"] != "lattice-report":
            assert dump_json(emit[data["kind"]](data)) == dump_json(data), name
