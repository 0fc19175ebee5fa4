"""Command-line front end: certificate-emitting, deterministic pipelines.

Commands print their report (JSON, or CSV for the c_l table) to stdout and
optionally write it to --out.  Every emitted certificate is re-checked
in-process by the same verifier behind the `verify` command before the
process exits 0.  Exit codes: 0 verified, 1 verification failure (or an
outcome with no witness), 2 usage error.

Each command imports the modules it runs inside its own function, and
`verify` imports a certificate's verifier once it has read its kind, so a
process compiles and runs only the modules its command needs.  Every other
module of the package is registered with a lazy loader (_register_lazy):
it is in sys.modules and bound on the package, as an import leaves it, but
its code runs only on first attribute access.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from fractions import Fraction

# The package's modules besides this one.
_MODULES = (
    "bodies", "eutaxy", "harmonic", "lattice", "linalg", "lp", "perturbation", "reports", "search",
    "witness",
)


def _register_lazy() -> None:
    """Register each module of _MODULES not yet imported with
    importlib.util.LazyLoader, bound on the package as an import binds it.

    A module already imported is left alone: a second copy would split its
    classes and functions from the ones in use.
    """
    package = sys.modules[__package__]
    for name in _MODULES:
        full = f"{__package__}.{name}"
        if full in sys.modules:
            continue
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(package, name, module)


_register_lazy()

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive_rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from e
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ballcover",
        description="Exact certificates for ball covering geometry in dimensions 2-5.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", help="also write the report to this path")

    sp = sub.add_parser("ball-class", help="classify the A_n* simplex maps")
    sp.add_argument("--dim", type=int, choices=(2, 3, 4, 5), required=True)
    add_out(sp)

    sp = sub.add_parser("anstar", help="report the A_n* lattice model")
    sp.add_argument("--dim", type=int, choices=(2, 3, 4, 5), required=True)
    add_out(sp)

    sp = sub.add_parser("construct", help="covering lattice for a perturbed ball")
    sp.add_argument("--body", required=True, help="body JSON file")
    sp.add_argument("--grid", type=_positive_int, default=1000)
    add_out(sp)

    sp = sub.add_parser("witness", help="exact inextensibility witness")
    sp.add_argument("--dim", type=int, choices=(2, 3, 4, 5), required=True)
    sp.add_argument("--pair", type=_nonneg_int, required=True)
    sp.add_argument("--eps", type=_positive_rational, default=Fraction(1, 100))
    add_out(sp)

    sp = sub.add_parser("cl-certify", help="certify c_l nonvanishing up to lmax")
    sp.add_argument("--lmax", type=_nonneg_int, required=True)
    add_out(sp)

    sp = sub.add_parser("zonal", help="multiplier spectrum of the vertex measure")
    sp.add_argument("--lmax", type=_nonneg_int, required=True)
    add_out(sp)

    sp = sub.add_parser("verify", help="re-check a certificate file")
    sp.add_argument("--certificate", required=True)
    return p


def _finish(text: str, out: str | None, ok: bool, failures: list[str]) -> int:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"usage error: cannot write --out: {e}", file=sys.stderr)
            return EXIT_USAGE
    if not ok:
        for msg in failures:
            print(f"verification failure: {msg}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _emit_json(cert: dict, out: str | None) -> int:
    from .reports import dump_json, verify_certificate

    text = dump_json(cert)
    ok, failures = verify_certificate(json.loads(text))
    sys.stdout.write(text)
    return _finish(text, out, ok, failures)


def cmd_ball_class(args) -> int:
    from .eutaxy import classification_certificate
    from .lattice import build_anstar
    from .reports import dump_json, verify_certificate

    cert = classification_certificate(build_anstar(args.dim))
    print(f"dimension: {args.dim}")
    print(f"classification: {cert['classification']}")
    print(f"conclusion: {cert['conclusion']}")
    text = dump_json(cert)
    ok, failures = verify_certificate(json.loads(text))
    return _finish(text, args.out, ok, failures)


def cmd_anstar(args) -> int:
    from .lattice import build_anstar, lattice_report

    return _emit_json(lattice_report(build_anstar(args.dim)), args.out)


def cmd_construct(args) -> int:
    from .bodies import load_body
    from .reports import scan_certificate
    from .search import rotation_scan

    try:
        body = load_body(args.body)
    except (OSError, ValueError, KeyError, OverflowError, RecursionError) as e:
        print(f"usage error: cannot load body: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = rotation_scan(body, grid_size=args.grid)
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as e:
        print(f"construction failed: {e}", file=sys.stderr)
        return EXIT_FAIL
    return _emit_json(scan_certificate(body, report), args.out)


def cmd_witness(args) -> int:
    from .lattice import build_anstar
    from .reports import witness_certificate
    from .witness import WitnessSearchError, WitnessUnavailableError, extension_witness

    lat = build_anstar(args.dim)
    try:
        w = extension_witness(lat, args.pair, eps=args.eps)
    except WitnessUnavailableError as e:
        print(f"no witness: {e}", file=sys.stderr)
        return EXIT_FAIL
    except WitnessSearchError as e:
        print(f"search failed: {e}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return _emit_json(witness_certificate(w), args.out)


def cmd_cl_certify(args) -> int:
    from .harmonic import certify_c_range
    from .reports import cl_csv, verify_cl_csv

    text = cl_csv(certify_c_range(args.lmax))
    ok, failures = verify_cl_csv(text)
    sys.stdout.write(text)
    return _finish(text, args.out, ok, failures)


def cmd_zonal(args) -> int:
    from .harmonic import zonal_spectrum
    from .lattice import build_anstar, covering_radius, voronoi_vertices
    from .reports import spectrum_certificate

    lat = build_anstar(3)
    points = voronoi_vertices(lat)
    _, simplices = covering_radius(lat)
    pole = simplices[0].x[0]
    spec = zonal_spectrum(points, pole, lat.gram, args.lmax)
    return _emit_json(spectrum_certificate(spec), args.out)


def cmd_verify(args) -> int:
    from .reports import verify_certificate, verify_cl_csv

    try:
        with open(args.certificate, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as e:
        print(f"verification failure: not UTF-8 text: {e}", file=sys.stderr)
        return EXIT_FAIL
    if text.startswith("l,c_l,"):
        ok, failures = verify_cl_csv(text)
    else:
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as e:
            print(f"verification failure: not JSON or c_l CSV: {e}", file=sys.stderr)
            return EXIT_FAIL
        ok, failures = verify_certificate(data)
    if ok:
        print("verified")
    return _finish("", None, ok, failures)


_COMMANDS = {
    "ball-class": cmd_ball_class,
    "anstar": cmd_anstar,
    "construct": cmd_construct,
    "witness": cmd_witness,
    "cl-certify": cmd_cl_certify,
    "zonal": cmd_zonal,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush
        # at interpreter exit cannot raise again (the SIGPIPE idiom of the
        # Python docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
