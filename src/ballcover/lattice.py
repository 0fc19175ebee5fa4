"""Lattice models with exact Delone simplex data.

A lattice is described by a rational Gram matrix together with its classes of
Delone simplices (one representative per translation class, first vertex at
the origin).  The main constructor builds the dual lattice of the root
lattice A_n, whose Delone decomposition consists of n! simplex classes
obtained by walking n+1 fixed generators in every cyclic order.

For n = 3 the model is realized on integer Euclidean coordinates (the
body-centered cubic lattice at scale 2, basis (2,0,0), (0,2,0), (1,1,1)), so
positions of Voronoi vertices are exact rational points of 3-space.  Other
dimensions use the standard basis with Gram matrix delta_ij - 1/(n+1), which
admits no rational Euclidean embedding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Optional

from .linalg import (
    MatQ,
    Rat,
    VecQ,
    det,
    gram_dot,
    integer_form,
    integer_scaled,
    mat,
    mat_inv,
    mat_mul,
    mat_vec,
    solve_affine,
    solve_square,
    transpose,
    vec,
    vec_scale,
    vec_sub,
)


class DegenerateSimplexError(ValueError):
    """Raised when claimed simplex vertices are affinely dependent."""


@dataclass(frozen=True)
class DeloneSimplex:
    """One translation class of Delone simplices, vertices in lattice coords."""

    vertices: tuple[VecQ, ...]
    label: tuple[int, ...]


@dataclass(frozen=True)
class PrimitiveSimplex:
    """A Delone simplex recentered at its circumcenter.

    x[j] = center - vertex[j], center the circumcenter; these points lie on
    the sphere of squared radius cr2 about the origin and are vertices of
    the Voronoi cell when the simplex is maximal.  alpha[j] are the
    barycentric coordinates of the circumcenter, so sum(alpha) = 1 and
    sum(alpha[j] * x[j]) = 0.
    """

    x: tuple[VecQ, ...]
    alpha: tuple[Rat, ...]
    cr2: Rat
    source: DeloneSimplex
    center: VecQ


@dataclass(frozen=True)
class LatticeModel:
    n: int
    gram: MatQ
    embedding: Optional[MatQ]
    delone_classes: tuple[DeloneSimplex, ...]

    # Not a field, so equality, hashing and caches keyed on models ignore it.
    @cached_property
    def simplices(self) -> tuple[PrimitiveSimplex, ...]:
        """primitive_simplex of every Delone class, in class order."""
        return tuple(primitive_simplex(s, self.gram) for s in self.delone_classes)


# bcc at scale 2: generators g with <g_i, g_j> = 4 delta_ij - 1, sum g = 0.
_BCC_EMBEDDING = ((2, 0, 1), (0, 2, 1), (0, 0, 1))
_BCC_GENERATORS = ((0, 0, 1), (1, 0, -1), (0, 1, -1), (-1, -1, 1))


def circumcenter(vertices: tuple[VecQ, ...], gram: MatQ) -> tuple[VecQ, VecQ, Rat]:
    """Exact circumcenter of a simplex under the given Gram form.

    Returns (center, alpha, cr2) with alpha the barycentric coordinates of
    the center.  Raises DegenerateSimplexError when the vertices are
    affinely dependent.
    """
    n = len(gram)
    if len(vertices) != n + 1:
        raise ValueError("need n+1 vertices")
    v0 = vertices[0]
    rows = []
    rhs = []
    for v in vertices[1:]:
        d = vec_sub(v, v0)
        rows.append(tuple(2 * x for x in mat_vec(gram, d)))
        rhs.append(gram_dot(gram, v, v) - gram_dot(gram, v0, v0))
    try:
        center = solve_square(mat(rows), vec(rhs))
    except Exception as exc:
        raise DegenerateSimplexError("affinely dependent vertices") from exc
    bary_rows = [[vertices[j][i] for j in range(n + 1)] for i in range(n)]
    bary_rows.append([Fraction(1)] * (n + 1))
    res = solve_affine(mat(bary_rows), vec(list(center) + [Fraction(1)]))
    if not res.unique:
        raise DegenerateSimplexError("affinely dependent vertices")
    alpha = res.particular
    cr2 = gram_dot(gram, vec_sub(center, v0), vec_sub(center, v0))
    for v in vertices:
        if gram_dot(gram, vec_sub(center, v), vec_sub(center, v)) != cr2:
            raise RuntimeError("circumcenter is not equidistant from the vertices")
    return center, alpha, cr2


def primitive_simplex(simplex: DeloneSimplex, gram: MatQ) -> PrimitiveSimplex:
    center, alpha, cr2 = circumcenter(simplex.vertices, gram)
    x = tuple(vec_sub(center, v) for v in simplex.vertices)
    return PrimitiveSimplex(x=x, alpha=alpha, cr2=cr2, source=simplex, center=center)


def _anstar_generators(n: int) -> tuple[tuple[VecQ, ...], MatQ, Optional[MatQ]]:
    if n == 3:
        gens = tuple(vec(g) for g in _BCC_GENERATORS)
        e = mat(_BCC_EMBEDDING)
        gram = mat_mul(transpose(e), e)
        return gens, gram, e
    third = Fraction(1, n + 1)
    gram = mat(
        [[(1 if i == j else 0) - third for j in range(n)] for i in range(n)]
    )
    gens = [vec([1 if i == j else 0 for i in range(n)]) for j in range(n)]
    gens.append(vec([-1] * n))
    return tuple(gens), gram, None


def _translation_key(vertices: tuple[VecQ, ...]) -> tuple:
    base = min(vertices)
    return tuple(sorted(vec_sub(v, base) for v in vertices))


@lru_cache(maxsize=None)
def build_anstar(n: int) -> LatticeModel:
    """Dual lattice of A_n with its n! Delone simplex classes.

    Each class is the walk 0, g_{pi(1)}, g_{pi(1)}+g_{pi(2)}, ... over a
    permutation pi of n of the n+1 generators (the omitted generator closes
    the cycle, so cyclic rotations give the same class and are not
    repeated).  Every class is checked against the empty-sphere oracle.
    """
    if not 2 <= n <= 8:
        raise ValueError(f"dimension {n!r} outside the supported range 2..8")
    gens, gram, embedding = _anstar_generators(n)
    for i in range(n + 1):
        for j in range(n + 1):
            expect = (n if i == j else -1) * (
                Fraction(4, n + 1) if n == 3 else Fraction(1, n + 1)
            )
            if gram_dot(gram, gens[i], gens[j]) != expect:
                raise RuntimeError("generators do not have the A_n* Gram values")
    classes = []
    seen = set()
    for perm in itertools.permutations(range(n)):
        vertices = [vec([0] * n)]
        for k in perm:
            vertices.append(tuple(a + b for a, b in zip(vertices[-1], gens[k])))
        simplex = DeloneSimplex(vertices=tuple(vertices), label=perm + (n,))
        key = _translation_key(simplex.vertices)
        if key in seen:
            raise RuntimeError("duplicate simplex class")
        seen.add(key)
        classes.append(simplex)
    model = LatticeModel(
        n=n, gram=gram, embedding=embedding, delone_classes=tuple(classes)
    )
    if not genericity_check(model):
        raise RuntimeError("Delone classes fail the sphere oracle")
    return model


def covering_radius(lat: LatticeModel) -> tuple[Rat, tuple[PrimitiveSimplex, ...]]:
    """Squared covering radius and the maximal primitive simplices attaining it."""
    mu2 = max(p.cr2 for p in lat.simplices)
    return mu2, tuple(p for p in lat.simplices if p.cr2 == mu2)


def negative_pairs(simplices: tuple[PrimitiveSimplex, ...]) -> tuple[tuple[int, int], ...]:
    """Match each simplex with its negative (as a set of sphere points)."""
    keys = [tuple(sorted(p.x)) for p in simplices]
    neg = [tuple(sorted(vec_scale(Fraction(-1), x) for x in p.x)) for p in simplices]
    pairs = []
    used = set()
    for i, k in enumerate(keys):
        if i in used:
            continue
        j = next(j for j in range(len(simplices)) if j not in used and neg[i] == keys[j])
        if j == i:
            raise RuntimeError("simplex equals its own negative")
        used.update((i, j))
        pairs.append((i, j))
    return tuple(pairs)


def voronoi_vertices(lat: LatticeModel) -> tuple[VecQ, ...]:
    """Vertices of the Voronoi cell at the origin, in lattice coordinates."""
    return tuple(sorted({x for p in lat.simplices for x in p.x}))


def to_euclidean(lat: LatticeModel, point: VecQ) -> VecQ:
    if lat.embedding is None:
        raise ValueError("model has no rational embedding")
    return mat_vec(lat.embedding, point)


def lattice_points_within(gram: MatQ, r2: Rat) -> tuple[tuple[int, ...], ...]:
    """All integer vectors u with u^T G u <= r2 (exact, inclusive)."""
    n = len(gram)
    ginv = mat_inv(gram)
    r2 = Fraction(r2)
    bounds = []
    for i in range(n):
        cap = r2 * ginv[i][i]
        bounds.append(math.isqrt(cap.numerator // cap.denominator))
    gz, den = integer_form(gram)
    limit_num, limit_den = r2.numerator * den, r2.denominator
    out = []
    for u in itertools.product(*(range(-b, b + 1) for b in bounds)):
        q = 0
        for i in range(n):
            ui = u[i]
            if ui:
                q += gz[i][i] * ui * ui
                for j in range(i + 1, n):
                    if u[j]:
                        q += 2 * gz[i][j] * ui * u[j]
        if q * limit_den <= limit_num:
            out.append(u)
    return tuple(out)


def genericity_check(lat: LatticeModel) -> bool:
    """Every class circumsphere is empty and touches exactly its n+1 vertices."""
    # any point inside some circumsphere satisfies |u| <= |c| + cr <= 2 mu
    mu2 = max(p.cr2 for p in lat.simplices)
    candidates = lattice_points_within(lat.gram, 4 * mu2)
    gz, scale = integer_form(lat.gram)
    for p in lat.simplices:
        # with D the center's denominator, d = D u - D c is an integer vector
        # and |u - c|^2 = d^T (L G) d / (L D^2), compared against cr2
        (cz,), den = integer_scaled([p.center])
        radius = p.cr2.numerator * scale * den * den
        on_sphere = set()
        for u in candidates:
            d = [ui * den - ci for ui, ci in zip(u, cz)]
            q = sum(di * sum(map(mul, row, d)) for di, row in zip(d, gz)) * p.cr2.denominator
            if q < radius:
                return False
            if q == radius:
                on_sphere.add(u)
        if on_sphere != set(p.source.vertices):
            return False
    return True


def change_basis(lat: LatticeModel, u: MatQ) -> LatticeModel:
    """Rewrite the model in the basis B' = B U for unimodular integer U."""
    u = mat(u)
    if abs(det(u)) != 1:
        raise ValueError("basis change must be unimodular")
    uinv = mat_inv(u)
    if any(x.denominator != 1 for row in uinv for x in row):
        raise ValueError("basis change must be an integer matrix")
    gram = mat_mul(transpose(u), mat_mul(lat.gram, u))
    embedding = mat_mul(lat.embedding, u) if lat.embedding is not None else None
    classes = tuple(
        DeloneSimplex(
            vertices=tuple(mat_vec(uinv, v) for v in s.vertices), label=s.label
        )
        for s in lat.delone_classes
    )
    return LatticeModel(n=lat.n, gram=gram, embedding=embedding, delone_classes=classes)


def lattice_report(lat: LatticeModel) -> dict:
    """Plain-data summary used by the CLI export (values still exact)."""
    mu2, maximal = covering_radius(lat)
    classes = [
        {
            "label": p.source.label,
            "vertices": p.source.vertices,
            "circumcenter": p.center,
            "alpha": p.alpha,
            "cr2": p.cr2,
        }
        for p in lat.simplices
    ]
    return {
        "kind": "lattice-report",
        "dimension": lat.n,
        "gram": lat.gram,
        "embedding": lat.embedding,
        "classes": classes,
        "mu2": mu2,
        "num_maximal": len(maximal),
        "voronoi_vertices": voronoi_vertices(lat),
    }
