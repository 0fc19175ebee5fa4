"""Benchmark of the `ballcover` command-line pipelines.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each workload is a fixed sequence
of `ballcover` commands.  Every command runs in its own fresh process, one
at a time, from this single process (a closed loop with one client).  The
program is run from the checkout's `src/` and gets only the generated
inputs.  A round runs every emitting command, then `verify` on every
emitted file (three passes of it for `classify`).  Whole rounds repeat while the next one should end within
--seconds (at least one).  After the last round, the checks in `checks.py`,
which share no code with the program, run on the first round's outputs;
every later round's outputs must be byte-identical to them.

An operation is one emitted output: its emitting command, its `verify` and
its checks.  It fails when a command exits non-zero, its output changes
between rounds, or a check fails.

--trace 0 prints the end-to-end metrics: `setup_s`, the median wall time
of fresh processes that import the package and build the fixed exact
context the workload's commands rebuild at every start; `emit_s` and
`verify_s`, the wall time of the emitting and of the `verify` commands,
each command's median over its runs, summed; and `peak_rss_mib`, the
largest peak resident set of any process the workload started.  Times
are scaled to a reference speed of the machine: see calibrate().

--trace 1 runs every command under `trace_cli.py` instead and prints the
per-layer metrics: calls, inclusive busy time (`.s`) and self time
(`.self_s`) of the public functions of each module, summed over a round's
processes, median over the rounds, plus the traced `emit_s` and `verify_s`
(their excess over the untraced figures is the tracing overhead).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable

GRID = 40  # rotations per scan, from the program's seed-free rotation grid
MIXED_AMPLITUDE = 0.02  # certified sup |rho| of the seeded mixed body
CL_LMAX = 10000
ZONAL_LMAX = 20
# Mean time of calibrate() on the machine described in README.md.  Reported
# times are wall times scaled by this over the run's mean calibrate() time.
CALIBRATION_REFERENCE_S = 0.09

# Per-layer metrics read from the spans.  `.calls` are counts, `.s` and
# `.self_s` seconds; the derived ones are added in layer_metrics().
SPAN_METRICS = (
    "lattice.build_anstar.s",
    "lattice.covering_radius.calls",
    "lattice.covering_radius.s",
    "lattice.circumcenter.calls",
    "lattice.circumcenter.s",
    "linalg.solve_affine.calls",
    "linalg.solve_affine.s",
    "linalg.mat_inv.calls",
    "linalg.mat_inv.s",
    "linalg.det.calls",
    "linalg.det.s",
    "linalg.min_norm_solution.calls",
    "lp.lp_feasible_nonneg.calls",
    "lp.lp_feasible_nonneg.s",
    "eutaxy.classify_lattice.calls",
    "eutaxy.classify_lattice.s",
    "eutaxy.q_map.calls",
    "eutaxy.q_map.s",
    "eutaxy.eutaxy_coefficients_a3.calls",
    "eutaxy.eutaxy_coefficients_a3.s",
    "bodies.rho.calls",
    "bodies.rho.s",
    "bodies.volume_ratio.s",
    "harmonic.certify_c_range.s",
    "harmonic.c_l.calls",
    "harmonic.c_l.s",
    "harmonic.legendre_rational.calls",
    "harmonic.legendre_rational.s",
    "harmonic.zonal_spectrum.s",
    "perturbation.solve_treqn.calls",
    "perturbation.CoverEngine.construct.calls",
    "perturbation.CoverEngine.construct.s",
    "perturbation.CoverEngine.construct.self_s",
    "perturbation.CoverEngine.solve.calls",
    "perturbation.CoverEngine._certify_delta.s",
    "perturbation.rotation_scan.s",
    "perturbation.extension_witness.calls",
    "perturbation.extension_witness.s",
    "perturbation.exact_cr_after.calls",
    "perturbation.exact_cr_after.s",
    "reports.verify_certificate.calls",
    "reports.verify_certificate.s",
    "reports.verify_cl_csv.s",
    "reports.dump_json.s",
)
DERIVED_METRICS = {
    "cli.import_s": "s",
    "perturbation.CoverEngine.init_s": "s",
    "perturbation.iterations_per_rotation": "solves/rotation",
    "reports.certificate_bytes": "bytes",
    "reports.max_rational_bits": "bits",
    "traced.emit_s": "s",
    "traced.verify_s": "s",
}
END_TO_END = {"setup_s": "s", "emit_s": "s", "verify_s": "s", "peak_rss_mib": "MiB"}


def per_layer_units() -> dict[str, str]:
    units = {name: "count" if name.endswith(".calls") else "s" for name in SPAN_METRICS}
    units.update(DERIVED_METRICS)
    return units


# ------------------------------------------------------------- workloads


@dataclass
class Op:
    label: str
    args: list[str]  # ballcover arguments; `--out <out>` is appended
    out: str


@dataclass
class Workload:
    setup_code: str  # builds the fixed context every command rebuilds
    setup_runs: int
    ops: list[Op]
    verify_passes: int  # passes of `verify` over the outputs in a round
    checks: list[tuple[str, str, list[str], dict]]  # label, kind, files, params


def mixed_body(seed: int) -> list[list]:
    """Three degree-4 and three degree-6 orders with random signed weights,
    scaled to a certified asphericity sum |a| sqrt(2l+1) of 0.02."""
    rng = random.Random(seed)
    rows = []
    for l in (4, 6):
        for m in sorted(rng.sample(range(-l, l + 1), 3)):
            rows.append([l, m, rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0)])
    eps = sum(abs(a) * math.sqrt(2 * l + 1) for l, _, a in rows)
    return [[l, m, a * MIXED_AMPLITUDE / eps] for l, m, a in rows]


def scan_workload(seed: int, workdir: Path) -> Workload:
    bodies = {
        "zonal-0.02": [[4, 0, 0.02 / 3]],  # sup |rho| = coefficient * sqrt(9)
        "zonal-0.01": [[4, 0, 0.01 / 3]],
        "mixed": mixed_body(seed),
    }
    ops, items = [], []
    for label, rows in bodies.items():
        (workdir / f"{label}.json").write_text(json.dumps({"harmonics": rows, "kind": "radial-body"}))
        out = f"scan-{label}.json"
        ops.append(Op(label, ["construct", "--body", f"{label}.json", "--grid", str(GRID)], out))
        items.append((label, "scan", [out], {"harmonics": rows}))
    items.append(("zonal-0.01", "margin_ratio", ["scan-zonal-0.01.json", "scan-zonal-0.02.json"], {}))
    setup = (
        "import ballcover.cli\n"
        "from ballcover.bodies import ball_body\n"
        "from ballcover.lattice import build_anstar\n"
        "from ballcover.perturbation import build_cover\n"
        "build_anstar(3)\n"
        "build_cover(ball_body())\n"
    )
    return Workload(setup, 5, ops, 1, items)


def classify_workload(seed: int, workdir: Path) -> Workload:
    dims = [2, 3, 4, 5]
    random.Random(seed).shuffle(dims)  # the only seeded input: command order
    ops = [Op(f"dim-{n}", ["ball-class", "--dim", str(n)], f"class-{n}.json") for n in dims]
    items = [(f"dim-{n}", "classification", [f"class-{n}.json"], {"dim": n}) for n in dims]
    setup = (
        "import ballcover.cli\n"
        "from ballcover.lattice import build_anstar\n"
        "for n in (2, 3, 4, 5):\n"
        "    build_anstar(n)\n"
    )
    # One round fills the run, so its short `verify` commands run three
    # times each to give their medians more than one sample.
    return Workload(setup, 3, ops, 3, items)


def witness_cl_workload(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)  # picks the degrees the checks sample
    exact = sorted(rng.sample(range(5, 200), 6)) + [200]
    residue = sorted(rng.sample(range(201, CL_LMAX), 5)) + [CL_LMAX]
    ops = [Op(f"pair-{p}", ["witness", "--dim", "3", "--pair", str(p)], f"witness-{p}.json") for p in (0, 1, 2)]
    items = [(f"pair-{p}", "witness", [f"witness-{p}.json"], {"pair": p}) for p in (0, 1, 2)]
    ops.append(Op("cl", ["cl-certify", "--lmax", str(CL_LMAX)], "cl.csv"))
    items.append(
        ("cl", "cl", ["cl.csv"], {"exact_degrees": exact, "residue_degrees": residue, "lmax": CL_LMAX})
    )
    ops.append(Op("zonal", ["zonal", "--lmax", str(ZONAL_LMAX)], "zonal.json"))
    items.append(("zonal", "zonal", ["zonal.json"], {"lmax": ZONAL_LMAX}))
    setup = "import ballcover.cli\nfrom ballcover.lattice import build_anstar\nbuild_anstar(3)\n"
    return Workload(setup, 5, ops, 1, items)


WORKLOADS = {"scan": scan_workload, "classify": classify_workload, "witness_cl": witness_cl_workload}


# ---------------------------------------------------------------- running


def calibrate() -> float:
    """Wall time of a fixed loop of exact rational arithmetic in this process."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 20001):
        s += Fraction(i % 13, i % 97 + 1)
    return time.perf_counter() - t0


class Runner:
    """Spawns one process at a time and records its wall time and peak RSS.

    Before each process it times calibrate() on the same CPU, so that the
    run's speed, which on a shared host drifts by tens of percent within
    minutes, can be divided out of the reported times.
    """

    def __init__(self, workdir: Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.peak_kib = 0
        self.layer: dict[str, float] = defaultdict(float)
        self.import_s: list[float] = []
        self.calibrations: list[float] = []

    def spawn(self, argv: list[str]) -> tuple[float, int]:
        self.calibrations.append(calibrate())
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.workdir, env=self.env, stdout=subprocess.DEVNULL, stderr=err
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
        if proc.returncode:
            tail = err_path.read_text(errors="replace")[-2000:]
            print(f"exit {proc.returncode}: {' '.join(argv[1:])}\n{tail}", file=sys.stderr)
        return elapsed, proc.returncode

    def cli(self, args: list[str]) -> tuple[float, int]:
        if not self.traced:
            return self.spawn([PY, "-m", "ballcover.cli", *args])
        spans = self.workdir / "spans.json"
        result = self.spawn([PY, str(HERE / "trace_cli.py"), str(spans), *args])
        self.absorb(json.loads(spans.read_text()))
        spans.unlink()
        return result

    def absorb(self, doc: dict) -> None:
        """Add one process's spans: calls, outermost inclusive time, self time."""
        self.import_s.append(doc["import_s"])
        names, spans = doc["names"], doc["spans"]
        child = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for sid, (idx, t0, t1, parent) in enumerate(spans):
            name = names[idx]
            self.layer[name + ".calls"] += 1
            self.layer[name + ".self_s"] += t1 - t0 - child[sid]
            a = parent
            while a >= 0 and spans[a][0] != idx:
                a = spans[a][3]
            if a < 0:  # not nested in a call of the same function
                self.layer[name + ".s"] += t1 - t0


RATIONAL = re.compile(r"-?\d+(?:/\d+)?")


def rational_bits(text: str) -> int:
    """Largest numerator or denominator bit length among the exact rationals."""
    if text.startswith("l,c_l,"):
        values = [line.split(",")[1] for line in text.strip().split("\n")[1:]]
    else:
        values = []
        stack = [json.loads(text)]
        while stack:
            x = stack.pop()
            if isinstance(x, dict):
                stack.extend(x.values())
            elif isinstance(x, list):
                stack.extend(x)
            elif isinstance(x, str):
                values.append(x)
    bits = 0
    for v in values:
        if RATIONAL.fullmatch(v):
            bits = max(bits, *(abs(int(p)).bit_length() for p in v.split("/")))
    return bits


def run_checks(workload: Workload, runner: Runner, outdir: Path) -> dict[str, list[str]]:
    """Run checks.py in its own process, so this one stays small: a child's
    peak RSS counts its parent's at the time it was started."""
    spec = runner.workdir / "checks.json"
    spec.write_text(json.dumps({"workdir": str(outdir), "items": workload.checks}))
    proc = subprocess.run(
        [PY, str(HERE / "checks.py"), str(spec)], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.strip().split("\n")[-1])


@dataclass
class Round:
    emit: dict[str, list[float]]  # op label -> wall seconds of each run
    verify: dict[str, list[float]]
    failures: dict[str, list[str]]
    layers: dict[str, float]


def run_round(workload: Workload, runner: Runner, first: Path) -> Round:
    """One pass over the workload's commands.

    The first round's outputs are kept in `first` for the checks; a later
    round's output must be byte-identical to them.
    """
    workdir = runner.workdir
    runner.layer = defaultdict(float)
    runner.import_s = []
    failures: dict[str, list[str]] = {op.label: [] for op in workload.ops}
    emit = {op.label: [] for op in workload.ops}
    verify = {op.label: [] for op in workload.ops}
    for op in workload.ops:
        (workdir / op.out).unlink(missing_ok=True)
    for op in workload.ops:
        elapsed, rc = runner.cli([*op.args, "--out", op.out])
        emit[op.label].append(elapsed)
        if rc:
            failures[op.label].append(f"{op.args[0]} exited {rc}")
    for _ in range(workload.verify_passes):
        for op in workload.ops:
            elapsed, rc = runner.cli(["verify", "--certificate", op.out])
            verify[op.label].append(elapsed)
            if rc:
                failures[op.label].append(f"verify exited {rc}")
    texts = []
    for op in workload.ops:
        out, kept = workdir / op.out, first / op.out
        if not out.is_file():
            failures[op.label].append("no output file")
            continue
        texts.append(out.read_text())
        if not kept.exists():
            shutil.copyfile(out, kept)
        elif kept.read_bytes() != out.read_bytes():
            failures[op.label].append("output differs from the first round's")
    layers = layer_metrics(runner, texts) if runner.traced else {}
    return Round(emit, verify, failures, layers)


def layer_metrics(runner: Runner, texts: list[str]) -> dict:
    g = runner.layer
    out = {name: g.get(name, 0.0) for name in SPAN_METRICS}
    for name in out:
        if name.endswith(".calls"):
            out[name] = int(out[name])
    constructs = g.get("perturbation.CoverEngine.construct.calls", 0)
    out["cli.import_s"] = statistics.median(runner.import_s)
    out["perturbation.CoverEngine.init_s"] = g.get("perturbation.CoverEngine.__init__.s", 0.0)
    out["perturbation.iterations_per_rotation"] = (
        g.get("perturbation.CoverEngine.solve.calls", 0) / constructs if constructs else 0.0
    )
    out["reports.certificate_bytes"] = sum(len(t.encode()) for t in texts)
    out["reports.max_rational_bits"] = max((rational_bits(t) for t in texts), default=0)
    return out


def summed_median(rounds: list[Round], field: str) -> float:
    """Sum over commands of each command's median wall time in the run."""
    labels = getattr(rounds[0], field).keys()
    return sum(statistics.median([t for r in rounds for t in getattr(r, field)[k]]) for k in labels)


def bench(args, workdir: Path) -> dict:
    traced = bool(args.trace)
    runner = Runner(workdir, traced)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    # Untimed: compile the package's bytecode, as an installed copy has it.
    if runner.spawn([PY, "-c", "import ballcover.cli"])[1]:
        raise RuntimeError("cannot import ballcover from src/")
    runner.peak_kib = 0
    setup = []
    if not traced:
        for _ in range(workload.setup_runs):
            elapsed, rc = runner.spawn([PY, "-c", workload.setup_code])
            if rc:
                raise RuntimeError("set-up process failed")
            setup.append(elapsed)
    first = workdir / "first"
    first.mkdir()
    rounds: list[Round] = []
    start = time.perf_counter()
    # Whole rounds only; another starts if it should end within --seconds.
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= args.seconds:
        rounds.append(run_round(workload, runner, first))
    checked = run_checks(workload, runner, first)
    failed = 0
    for r in rounds:
        for label in r.failures:
            msgs = r.failures[label] + checked.get(label, [])
            failed += bool(msgs)
            for m in msgs:
                print(f"FAILED {args.workload}/{label}: {m}", file=sys.stderr)
    if traced:
        units = per_layer_units()
        values = {"traced.emit_s": summed_median(rounds, "emit"), "traced.verify_s": summed_median(rounds, "verify")}
        for name in rounds[0].layers:
            xs = [r.layers[name] for r in rounds]
            values[name] = statistics.median_low(xs) if isinstance(xs[0], int) else statistics.median(xs)
    else:
        units = END_TO_END
        values = {
            "setup_s": statistics.median(setup),
            "emit_s": summed_median(rounds, "emit"),
            "verify_s": summed_median(rounds, "verify"),
            "peak_rss_mib": runner.peak_kib / 1024,
        }
    runner.calibrations.append(calibrate())
    scale = CALIBRATION_REFERENCE_S / statistics.fmean(runner.calibrations)
    for name, unit in units.items():
        raw = values[name]
        if unit == "s":
            values[name] = raw * scale
        print(f"{args.workload} {name}: {values[name]} {unit} (as measured: {raw})")
    print(f"{args.workload}: speed scale {scale} from {len(runner.calibrations)} calibrations")
    attempted = len(rounds) * len(workload.ops)
    print(f"{args.workload}: {len(rounds)} rounds, {failed} of {attempted} operations failed")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # One client needs one CPU.  Pinning this process, and so every command it
    # starts, to one CPU takes out the spread that comes from commands
    # landing on CPUs of different speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "ballcover" / "cli.py").is_file():
        print(f"no ballcover sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
