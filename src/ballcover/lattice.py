"""Lattice models with exact Delone simplex data.

A lattice is described by a rational Gram matrix together with its classes of
Delone simplices (one representative per translation class, first vertex at
the origin).  The main constructor builds the dual lattice of the root
lattice A_n, whose Delone decomposition consists of n! simplex classes
obtained by walking n+1 fixed generators in every cyclic order.

The automorphism group of A_n* (order 2 (n+1)!, Conway and Sloane, SPLAG
ch. 4 section 6) is transitive on the Delone simplices: the permutations of
g_0..g_{n-1} that fix g_n carry class 0 onto every class.  So one class is
solved and every class an exactly verified automorphism reaches from it is
mapped, not solved again.

For n = 3 the model is realized on integer Euclidean coordinates (the
body-centered cubic lattice at scale 2, basis (2,0,0), (0,2,0), (1,1,1)), so
positions of Voronoi vertices are exact rational points of 3-space.  Other
dimensions use the standard basis with Gram matrix delta_ij - 1/(n+1), which
admits no rational Euclidean embedding.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, mul, sub
from typing import NamedTuple, Optional, Sequence

from .linalg import (
    MatQ,
    Rat,
    VecQ,
    _rref,
    gram_dot,
    gram_inverse,
    integer_form,
    integer_scaled,
    mat,
    mat_inv,
    mat_mul,
    mat_vec,
    solve_affine,
    transpose,
    vec,
    vec_sub,
)


class DegenerateSimplexError(ValueError):
    """Raised when claimed simplex vertices are affinely dependent."""


class DeloneSimplex(NamedTuple):
    """One translation class of Delone simplices, vertices in lattice coords."""

    vertices: tuple[VecQ, ...]
    label: tuple[int, ...]


class _PrimitiveSimplexFields(NamedTuple):
    x: tuple[VecQ, ...]
    alpha: tuple[Rat, ...]
    cr2: Rat
    source: DeloneSimplex
    center: VecQ


class PrimitiveSimplex(_PrimitiveSimplexFields):
    """A Delone simplex recentered at its circumcenter.

    x[j] = center - vertex[j], center the circumcenter; these points lie on
    the sphere of squared radius cr2 about the origin and are vertices of
    the Voronoi cell when the simplex is maximal.  alpha[j] are the
    barycentric coordinates of the circumcenter, so sum(alpha) = 1 and
    sum(alpha[j] * x[j]) = 0.
    """

    # A subclass without __slots__ has a __dict__ to cache in; equality and
    # hashing read the fields alone.
    @cached_property
    def x_integer(self) -> tuple[list[list[int]], int]:
        """integer_scaled(x), computed once per simplex (read-only)."""
        return integer_scaled(self.x)


IntMat = tuple[tuple[int, ...], ...]


class _LatticeModelFields(NamedTuple):
    n: int
    gram: MatQ
    embedding: Optional[MatQ]
    delone_classes: tuple[DeloneSimplex, ...]


class LatticeModel(_LatticeModelFields):
    # Cached in the subclass's __dict__, not fields, so equality, hashing and
    # caches keyed on models ignore them.
    @cached_property
    def simplices(self) -> tuple[PrimitiveSimplex, ...]:
        """primitive_simplex of every Delone class, in class order.

        Class 0 and each class without a class map are solved; every other
        class is the image of class 0 under its map U: the center is
        b_0 + U (c_0 - a_0), alpha and cr2 are class 0's, and
        x_j = center - b_j.
        """
        first = primitive_simplex(self.delone_classes[0], self.gram)
        a0 = first.source.vertices[0]
        (cz,), cden = integer_scaled([vec_sub(first.center, a0)])
        out = [first]
        for s, u in zip(self.delone_classes[1:], self.class_maps[1:]):
            if u is None:
                out.append(primitive_simplex(s, self.gram))
                continue
            center = tuple(
                b + Fraction(sum(map(mul, row, cz)), cden)
                for b, row in zip(s.vertices[0], u)
            )
            x = tuple(vec_sub(center, v) for v in s.vertices)
            out.append(
                PrimitiveSimplex(x=x, alpha=first.alpha, cr2=first.cr2, source=s, center=center)
            )
        return tuple(out)

    @cached_property
    def class_maps(self) -> tuple[Optional[IntMat], ...]:
        """For each class k, the lattice automorphism carrying class 0 onto it.

        With a_j the vertices of class 0 and b_j those of class k, entry k
        is U = B A^-1 for the columns a_j - a_0 and b_j - b_0, so that
        v -> b_0 + U (v - a_0) takes a_j to b_j.  It is accepted only when
        both classes have n+1 vertices, all lattice points, and U is an
        integer matrix with U^T G U = G on integer_form(G), which makes it
        unimodular.  Entry 0, and the entry of each class no such map
        reaches, is None.
        """
        maps: list[Optional[IntMat]] = [None] * len(self.delone_classes)
        a, aden = integer_scaled(self.delone_classes[0].vertices)
        if aden != 1:
            return tuple(maps)
        ainv, den = integer_scaled(mat_inv(_edge_columns(a)))
        acols = tuple(zip(*ainv))
        gz, _ = integer_form(self.gram)
        for k, s in enumerate(self.delone_classes[1:], start=1):
            b, bden = integer_scaled(s.vertices)
            if bden == 1 and len(b) == len(a):
                maps[k] = _automorphism(_edge_columns(b), acols, den, gz)
        return tuple(maps)


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
    vz, den = integer_scaled(vertices)
    gz, scale = integer_form(gram)
    cz, d, r = integer_circumsphere(vz, gz)
    center = tuple(Fraction(c, d * den) for c in cz)
    bary_rows = [[vertices[j][i] for j in range(n + 1)] for i in range(n)]
    bary_rows.append([Fraction(1)] * (n + 1))
    res = solve_affine(mat(bary_rows), vec(list(center) + [Fraction(1)]))
    if not res.unique:
        raise DegenerateSimplexError("affinely dependent vertices")
    return center, res.particular, Fraction(r, d * d * den * den * scale)


def integer_circumsphere(
    points: Sequence[Sequence[int]], form: Sequence[Sequence[int]]
) -> tuple[list[int], int, int]:
    """Circumsphere of n+1 integer points under a symmetric integer form G.

    One fraction-free elimination solves 2 (v_j - v_0)^T G c = v_j^T G v_j
    - v_0^T G v_0 for j = 1..n, giving the center c = cz / d.  Returns
    (cz, d, r) with r = (d v_j - cz)^T G (d v_j - cz), re-checked equal for
    every j, so the squared radius is r / d^2.  Points and form may carry
    any positive scale: the caller divides it out.  Raises
    DegenerateSimplexError when the system is singular (affinely dependent
    points, or a singular form) and RuntimeError when the center is not
    equidistant.
    """
    n = len(form)
    v0 = points[0]
    g0 = [sum(map(mul, row, v0)) for row in form]
    norm0 = sum(map(mul, v0, g0))
    tab = []
    for v in points[1:]:
        gv = [sum(map(mul, row, v)) for row in form]
        tab.append([2 * (a - b) for a, b in zip(gv, g0)] + [sum(map(mul, v, gv)) - norm0])
    tab, pivots, d, _ = _rref(tab)
    if pivots != list(range(n)):
        raise DegenerateSimplexError("affinely dependent vertices")
    cz = [row[n] for row in tab]
    radii = set()
    for v in points:
        e = [d * vi - ci for vi, ci in zip(v, cz)]
        radii.add(sum(ei * sum(map(mul, row, e)) for ei, row in zip(e, form)))
    if len(radii) != 1:
        raise RuntimeError("circumcenter is not equidistant from the vertices")
    return cz, d, radii.pop()


def _edge_columns(vertices: list[list[int]]) -> IntMat:
    """The matrix whose column j is vertex j+1 minus vertex 0."""
    v0 = vertices[0]
    return tuple(zip(*(tuple(map(sub, v, v0)) for v in vertices[1:])))


def _automorphism(
    b: IntMat, acols: tuple[tuple[int, ...], ...], den: int, gz: list[list[int]]
) -> Optional[IntMat]:
    """U = b a / den when it is an integer matrix with U^T gz U = gz, else None."""
    rows = []
    for row in b:
        out = []
        for col in acols:
            q, r = divmod(sum(map(mul, row, col)), den)
            if r:
                return None
            out.append(q)
        rows.append(tuple(out))
    ucols = tuple(zip(*rows))
    gucols = [[sum(map(mul, g, col)) for g in gz] for col in ucols]
    for ui, grow in zip(ucols, gz):
        if any(sum(map(mul, ui, guj)) != g for guj, g in zip(gucols, grow)):
            return None
    return tuple(rows)


class EutaxyMap(NamedTuple):
    """Normalized simplex map, stored as its symmetric form matrix."""

    form: MatQ
    cr2: Rat


def q_map(
    simplex: PrimitiveSimplex, gram: MatQ, twin: Optional[PrimitiveSimplex] = None
) -> EutaxyMap:
    """The form sum_j alpha_j (G x_j)(G x_j)^T / cr2 of the simplex map.

    Summed on integers: with G as L G, each x_j times the lcm X of the
    vertex denominators and each alpha_j times the lcm A of theirs,
    w_j = (L G)(X x_j) is an integer vector and the sum of (A alpha_j)
    w_j w_j^T is the form times A L^2 X^2 cr2.  Symmetry and unit trace
    are checked on that integer sum, the trace against G^-1 scaled to
    integers once, and a twin (the simplex's negative) must have the same
    sum; only then is the form made Fractions.  RuntimeError otherwise.
    """
    total, den = _map_sum(simplex, gram)
    n = len(total)
    if any(total[i][j] != total[j][i] for i in range(n) for j in range(i)):
        raise RuntimeError("simplex map form is not symmetric")
    hz, h = integer_form(gram_inverse(gram))
    if sum(map(mul, itertools.chain(*hz), itertools.chain(*zip(*total)))) != h * den:
        raise RuntimeError("simplex map does not have unit trace")
    if twin is not None:
        other, other_den = _map_sum(twin, gram)
        pairs = zip(itertools.chain(*total), itertools.chain(*other))
        if any(a * other_den != b * den for a, b in pairs):
            raise RuntimeError("negative pair with distinct maps")
    form = tuple(tuple(Fraction(t, den) for t in row) for row in total)
    return EutaxyMap(form=form, cr2=simplex.cr2)


def _map_sum(simplex: PrimitiveSimplex, gram: MatQ) -> tuple[list[list[int]], int]:
    """q_map's form as an integer matrix over one positive denominator."""
    gz, scale = integer_form(gram)
    xs, xden = simplex.x_integer
    (alphas,), aden = integer_scaled([simplex.alpha])
    total = [[0] * len(gram) for _ in gram]
    for a, x in zip(alphas, xs, strict=True):
        w = [sum(map(mul, row, x)) for row in gz]
        for wi, row in zip(w, total):
            awi = a * wi
            for k, wk in enumerate(w):
                row[k] += awi * wk
    cr2 = simplex.cr2
    den = aden * scale * scale * xden * xden * cr2.numerator
    return [[t * cr2.denominator for t in row] for row in total], den


def primitive_simplex(simplex: DeloneSimplex, gram: MatQ) -> PrimitiveSimplex:
    center, alpha, cr2 = circumcenter(simplex.vertices, gram)
    x = tuple(vec_sub(center, v) for v in simplex.vertices)
    return PrimitiveSimplex(x=x, alpha=alpha, cr2=cr2, source=simplex, center=center)


def _anstar_generators(n: int) -> tuple[tuple[tuple[int, ...], ...], MatQ, Optional[MatQ]]:
    if n == 3:
        e = mat(_BCC_EMBEDDING)
        gram = mat_mul(transpose(e), e)
        return _BCC_GENERATORS, gram, e
    third = Fraction(1, n + 1)
    gram = mat(
        [[(1 if i == j else 0) - third for j in range(n)] for i in range(n)]
    )
    gens = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    gens.append((-1,) * n)
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
    repeated).  The classes are checked against the empty-sphere oracle:
    class 0 directly, the others as its images under the class maps.
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
        walk = [(0,) * n]
        for k in perm:
            walk.append(tuple(map(add, walk[-1], gens[k])))
        key = _translation_key(walk)
        if key in seen:
            raise RuntimeError("duplicate simplex class")
        seen.add(key)
        classes.append(DeloneSimplex(vertices=tuple(map(vec, walk)), label=perm + (n,)))
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
    """Match each simplex with its negative (as a set of sphere points):
    one dict lookup per simplex."""
    index = {_vertex_key(p.x, 1): i for i, p in enumerate(simplices)}
    if len(index) != len(simplices):
        raise RuntimeError("two simplices share their vertex set")
    pairs = []
    for i, p in enumerate(simplices):
        j = index[_vertex_key(p.x, -1)]
        if j == i:
            raise RuntimeError("simplex equals its own negative")
        if i < j:
            pairs.append((i, j))
    return tuple(pairs)


def _vertex_key(x: tuple[VecQ, ...], sign: int) -> tuple:
    """The vertex set sign * x, as sorted integer (numerator, denominator)
    tuples."""
    return tuple(sorted(tuple((sign * c.numerator, c.denominator) for c in v) for v in x))


def pair_orbit(
    lat: LatticeModel, simplices: tuple[PrimitiveSimplex, ...], pairs: tuple[tuple[int, int], ...]
) -> Optional[tuple[tuple[int, ...], ...]]:
    """For each pair k, how an automorphism taking pair 0 to pair k permutes
    the pairs (of classes among `simplices`, as from negative_pairs).

    Read from the labels: the automorphism that permutes the generators by
    pi takes the class labelled rho, the walk over g_rho(0), g_rho(1), ...,
    to the class labelled pi o rho.  None unless the class maps carry class
    0 onto every class and each image label names a listed class.  Anything
    moved by a permutation is checked exactly by its user.
    """
    if any(u is None for u in lat.class_maps[1:]):
        return None
    labels = [s.source.label for s in simplices]
    index = {label: i for i, label in enumerate(labels)}
    pair_of = {i: k for k, pair in enumerate(pairs) for i in pair}
    reps = [labels[i] for i, _ in pairs]
    orbit = []
    for rho in reps:
        pi = dict(zip(reps[0], rho))
        images = [index.get(tuple(pi.get(r) for r in label)) for label in reps]
        if None in images:
            return None
        orbit.append(tuple(pair_of[i] for i in images))
    return tuple(orbit)


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
    """Every class circumsphere is empty and touches exactly its n+1 vertices.

    Only the classes without a class map are tested: a lattice automorphism
    takes class 0's empty sphere, touching its vertices, to class k's.
    """
    # any point inside some circumsphere satisfies |u| <= |c| + cr <= 2 mu
    mu2 = max(p.cr2 for p in lat.simplices)
    candidates = lattice_points_within(lat.gram, 4 * mu2)
    gz, scale = integer_form(lat.gram)
    for p, u in zip(lat.simplices, lat.class_maps):
        if u is not None:
            continue
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


def verify_lattice_report(data: dict, bad: list[str]) -> None:
    """Check a lattice report by re-deriving it from its one input,
    dimension: lattice_report of A_n* rebuilt at that dimension must be this
    report, leaf for leaf and type for type; each leaf that differs is named
    by its path."""
    from .reports import decode, not_rederived

    dim = decode(int, data["dimension"], "dimension")
    if not 2 <= dim <= 5:
        bad.append(f"dimension {dim!r} is not an integer from 2 to 5")
        return
    bad.extend(not_rederived(data, lattice_report(build_anstar(dim))))
