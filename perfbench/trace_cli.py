"""Run one `ballcover` command with spans around each module's public functions.

    python3 perfbench/trace_cli.py SPANS.json <ballcover arguments...>

The wrappers are installed from here, so nothing in the package changes.
Modules import their helpers by name (`rho as body_rho` in perturbation),
so every module global bound to a traced function is rebound to its
wrapper.  Spans (name, start, end, parent) stay in memory and are written
to SPANS.json when the process exits, together with the import time of
`ballcover.cli`.
"""

from __future__ import annotations

import atexit
import json
import sys
import time
from functools import wraps

# module -> functions or Class.method names to trace
TRACED = {
    "lattice": ("build_anstar", "covering_radius", "circumcenter"),
    "linalg": ("solve_affine", "mat_inv", "det", "min_norm_solution"),
    "lp": ("lp_feasible_nonneg",),
    "eutaxy": ("classify_lattice", "q_map", "eutaxy_coefficients_a3"),
    "bodies": ("rho", "volume_ratio"),
    "harmonic": ("certify_c_range", "c_l", "legendre_rational", "zonal_spectrum"),
    "perturbation": (
        "solve_treqn",
        "rotation_scan",
        "extension_witness",
        "exact_cr_after",
        "CoverEngine.__init__",
        "CoverEngine.construct",
        "CoverEngine.solve",
        "CoverEngine._certify_delta",
    ),
    "reports": ("verify_certificate", "verify_cl_csv", "dump_json"),
}

names: list[str] = []
spans: list = []  # [name index, start, end, parent span index or -1]
stack: list[int] = []


def wrap(name: str, fn):
    idx = len(names)
    names.append(name)

    @wraps(fn)
    def traced(*args, **kwargs):
        sid = len(spans)
        span = [idx, 0.0, 0.0, stack[-1] if stack else -1]
        spans.append(span)
        stack.append(sid)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    return traced


def install() -> None:
    modules = [m for n, m in sys.modules.items() if n.startswith("ballcover.")]
    for mod_name, funcs in TRACED.items():
        mod = sys.modules[f"ballcover.{mod_name}"]
        for func in funcs:
            name = f"{mod_name}.{func}"
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(mod, func)
            traced = wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import ballcover.cli

    import_s = time.perf_counter() - t0

    def write() -> None:
        with open(out, "w") as fh:
            json.dump({"import_s": import_s, "names": names, "spans": spans}, fh)

    atexit.register(write)
    install()
    return ballcover.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
