"""Certificate text forms, decoding and dispatch.

A certificate is its record (typing.NamedTuple) rendered by rationalize
and tagged with its kind; the field list lives in the record alone.
Rationals serialize as strings "p" or "p/q" in lowest terms so exactness
survives JSON, and are read back only in that form (parse_rat);
floats stay native JSON numbers (CPython emits the shortest round-trip
repr, so identical inputs give byte-identical reports).  The c_l table is
CSV, written and checked here.

decode reads a certificate back through its record, which fixes its keys
and each leaf's JSON type.  verify_certificate reads the kind and imports
that kind's verifier from the module of its record (_VERIFIERS), so a
process compiles no other kind's verifier.  Only the standard library is
imported at load.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache, partial
from importlib import import_module
from itertools import count
from typing import TYPE_CHECKING, Callable, Sequence, Union, get_args, get_origin, get_type_hints

if TYPE_CHECKING:
    from .bodies import RadialBody
    from .harmonic import CLCertificate, MultiplierSpectrum
    from .linalg import Rat
    from .perturbation import ScanReport
    from .witness import ExtensionWitness

# Written into every scan's best construction for external checkers that
# re-evaluate its radial values; verify compares no float against it.
FLOAT_TOLERANCE = 1e-12

def rat_str(x: Rat) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@lru_cache(maxsize=1024)
def parse_rat(text: str) -> Fraction:
    """The rational written as rat_str writes it, 'p' or 'p/q' in lowest
    terms with q > 1 and each part as str(int) writes it; ValueError for any
    other string.  Cached, as a certificate repeats few strings: the dim-5
    classification's 5,246 rationals are 17 distinct strings."""
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


def scan_certificate(body: RadialBody, report: ScanReport) -> dict:
    from .bodies import body_to_dict

    best = {"kind": "cover-construction", "body": body_to_dict(body), **report.best._asdict()}
    best["float_tolerance"] = FLOAT_TOLERANCE
    return {"kind": "scan-report", **report._asdict(), "best": best}


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
        return f"{_path_text(self.path) or 'certificate'} {self.args[0]}"


def _path_text(path: Sequence[str | int]) -> str:
    """A leaf path as messages name it, e.g. best.checks[3].radial_value."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


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


def differing_leaves(data: object, expected: object, path: tuple = ()):
    """The paths, as _path_text writes them and in key order, at which the
    JSON value data differs from rationalize(expected): a leaf's value or
    JSON type, or the keys of an object or the length of a list, named at
    that object or list ('certificate' at the top).  expected is walked as
    it stands, each record read as an object of its fields, each tuple as a
    list and each Fraction rendered by rat_str when the walk reaches it."""
    if isinstance(expected, Fraction):
        expected = rat_str(expected)
    elif isinstance(expected, tuple) and hasattr(expected, "_fields"):  # a record
        expected = dict(zip(expected._fields, expected))
    if type(data) is dict and isinstance(expected, dict) and data.keys() == expected.keys():
        items = [(key, data[key], expected[key]) for key in sorted(data)]
    elif type(data) is list and isinstance(expected, (list, tuple)) and len(data) == len(expected):
        items = zip(count(), data, expected)
    else:
        container = isinstance(expected, (dict, list, tuple))  # its type, keys or length differ
        if container or type(data) is not type(expected) or repr(data) != repr(expected):
            yield _path_text(path) or "certificate"
        return
    for key, a, b in items:
        # most leaves, strings and rationals, are skipped without a call
        if type(a) is str and a == (rat_str(b) if type(b) is Fraction else b):
            continue
        yield from differing_leaves(a, b, (*path, key))


def not_rederived(data: object, certificate: dict) -> list[str]:
    """A '<path> is not its re-derived value' line for each leaf at which
    the parsed certificate data differs from the re-derived certificate, as
    differing_leaves names them."""
    return [f"{path} is not its re-derived value" for path in differing_leaves(data, certificate)]


# The verifier of each kind, as (module, function), imported on first use.
_VERIFIERS = {
    "eutaxy-classification": ("eutaxy", "verify_classification"),
    "lattice-report": ("lattice", "verify_lattice_report"),
    "scan-report": ("perturbation", "verify_scan"),
    "extension-witness": ("witness", "verify_witness"),
    "zonal-spectrum": ("harmonic", "verify_spectrum"),
}


def verify_certificate(data: object) -> tuple[bool, list[str]]:
    """Re-check a parsed JSON certificate; returns (ok, failure messages)."""
    if not isinstance(data, dict):
        return False, ["certificate is not a JSON object"]
    kind = data.get("kind")
    where = _VERIFIERS.get(kind) if isinstance(kind, str) else None
    if where is None:
        return False, [f"unknown certificate kind: {kind!r}"]
    module, name = where
    checker = getattr(import_module(f".{module}", __package__), name)
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
