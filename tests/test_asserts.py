"""Guarantees that must hold under `python -O`, which strips every `assert`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ballcover

PACKAGE = Path(ballcover.__file__).parent

# Every check in the package raises; a new guarantee must not rest on
# assert.
ASSERT_LIMIT = 0


def test_assert_count_does_not_grow():
    count = sum(
        isinstance(node, ast.Assert)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
    )
    assert count <= ASSERT_LIMIT


# Each check is made to fail by breaking what it checks, then must still
# raise with asserts stripped.
OPTIMIZED_CHECKS = r'''
import math
from fractions import Fraction

import ballcover.lattice as lattice
import ballcover.linalg as linalg
from ballcover.bodies import ball_body, real_sph_harm
from ballcover.search import _engine, rotation_scan

print("debug", __debug__)


def expect(label, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except Exception as e:
        print(label, type(e).__name__)
    else:
        print(label, "passed")


def patched(module, name, value, label, fn, *args, **kwargs):
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        expect(label, fn, *args, **kwargs)
    finally:
        setattr(module, name, original)


eye = linalg.identity(2)
real_mat_vec = linalg.mat_vec
expect("det-square", linalg.det, ((Fraction(1), Fraction(2)),))
expect("ragged-matrix", linalg.mat, [[1, 2], [3]])
expect("shape-mismatch", linalg.mat_vec, eye, (Fraction(1),))
patched(
    linalg, "mat_vec", lambda a, v: tuple(x + 1 for x in real_mat_vec(a, v)),
    "resubstitution", linalg.solve_affine, eye, (Fraction(1), Fraction(2)),
)
expect(
    "min-norm-recheck", linalg.min_norm_solution, [(eye, Fraction(2))],
    inner=lambda a, b: linalg.trace_product(a, b) + 1,
)

lat = lattice.build_anstar(3)
vertices = lat.delone_classes[0].vertices
real_rref = lattice._rref


def center_off_by_one(tab):
    # the solved center, read from the last column over d, plus 1
    tab, pivots, d, sign = real_rref(tab)
    return [row[:-1] + [row[-1] + d] for row in tab], pivots, d, sign


expect("vertex-count", lattice.circumcenter, vertices[:3], lat.gram)
patched(
    lattice, "_rref", center_off_by_one,
    "equidistance", lattice.circumcenter, vertices, lat.gram,
)
for n in (1, 9):
    expect(f"anstar-{n}", lattice.build_anstar, n)
real_generators = lattice._anstar_generators


def doubled_gram(n):
    gens, gram, embedding = real_generators(n)
    return gens, linalg.mat_scale(Fraction(2), gram), embedding


build = lattice.build_anstar.__wrapped__
patched(lattice, "_anstar_generators", doubled_gram, "anstar-gram", build, 3)
patched(lattice, "_translation_key", lambda vertices: 0, "anstar-duplicate", build, 3)

engine = _engine()
patched(math, "acos", lambda x: 1.5, "tangent-bound", engine.construct, ball_body())
expect("empty-grid", rotation_scan, ball_body(), 0)
expect("zero-direction", real_sph_harm, 4, 0, (0.0, 0.0, 0.0))
'''


def test_checks_raise_with_asserts_stripped():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False",
        "det-square ValueError",
        "ragged-matrix ValueError",
        "shape-mismatch ValueError",
        "resubstitution RuntimeError",
        "min-norm-recheck RuntimeError",
        "vertex-count ValueError",
        "equidistance RuntimeError",
        "anstar-1 ValueError",
        "anstar-9 ValueError",
        "anstar-gram RuntimeError",
        "anstar-duplicate RuntimeError",
        "tangent-bound RuntimeError",
        "empty-grid ValueError",
        "zero-direction ValueError",
    ]
