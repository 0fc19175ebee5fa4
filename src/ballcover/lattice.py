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
        class is the image of class 0 under its map U, on integers over the
        denominator D of class 0's center: with c_0 - a_0 = cz / D, the
        center is (D b_0 + U cz) / D, alpha and cr2 are class 0's, and
        x_j = center - b_j.  Each distinct rational is made once per model.
        """
        first = primitive_simplex(self.delone_classes[0], self.gram)
        a0 = first.source.vertices[0]
        (cz,), cden = integer_scaled([vec_sub(first.center, a0)])
        rats: dict[tuple[int, int], Rat] = {}
        out = [first]
        for s, u in zip(self.delone_classes[1:], self.class_maps[1:]):
            if u is None:
                out.append(primitive_simplex(s, self.gram))
                continue
            # a class map exists only between classes of integer vertices
            b = [[c.numerator for c in v] for v in s.vertices]
            cnum = [cden * bi + sum(map(mul, row, cz)) for bi, row in zip(b[0], u)]
            center = tuple(_rat(rats, c, cden) for c in cnum)
            x = tuple(tuple(_rat(rats, c - cden * vi, cden) for c, vi in zip(cnum, v)) for v in b)
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

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """negative_pairs of the maximal simplices (covering_radius)."""
        return negative_pairs(covering_radius(self)[1])

    @cached_property
    def pair_maps(self) -> tuple[EutaxyMap, ...]:
        """q_map of each pair's first maximal simplex, twin-checked against
        the second.

        Each form is summed on integers by the rule `simplices` follows: a
        class with a class map U has x_j = U x_j^0 and class 0's alpha and
        cr2, so its form is the congruence (G U) H (G U)^T of class 0's
        H = sum_j alpha_j x_j^0 x_j^0^T / cr2; every other class has
        q_map's sum.  Each is checked as q_map checks it: symmetric, of
        unit trace and equal to its twin's.  RuntimeError otherwise.
        """
        mu2, maximal = covering_radius(self)
        form, inverse = integer_form(self.gram), integer_form(gram_inverse(self.gram))
        first = _moment(self.simplices[0])
        sums = [
            _map_sum(_moment(p) if u is None else first, form, u)
            for p, u in zip(self.simplices, self.class_maps)
            if p.cr2 == mu2
        ]
        rats: dict[tuple[int, int], Rat] = {}
        return tuple(
            _checked_map(sums[i], sums[j], inverse, maximal[i].cr2, rats) for i, j in self.pairs
        )

    @cached_property
    def orbit(self) -> Optional[tuple[tuple[int, ...], ...]]:
        """pair_orbit of the maximal simplices and their pairs."""
        return pair_orbit(self, covering_radius(self)[1], self.pairs)

    @cached_property
    def voronoi_vertices(self) -> tuple[VecQ, ...]:
        """Vertices of the Voronoi cell at the origin, in lattice coordinates:
        every x of every simplex, each once, sorted."""
        return tuple(sorted({x for p in self.simplices for x in p.x}))


def _rat(rats: dict[tuple[int, int], Rat], num: int, den: int) -> Rat:
    """Fraction(num, den), made once per key of the caller's dict rats."""
    f = rats.get((num, den))
    if f is None:
        f = rats[num, den] = Fraction(num, den)
    return f


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

    Summed on integers (_map_sum of the simplex's _moment) and checked
    there by _checked_map: symmetric, of unit trace and, given a twin (the
    simplex's negative), equal to the twin's sum; only then is the form
    made Fractions.  RuntimeError otherwise.
    """
    form, inverse = integer_form(gram), integer_form(gram_inverse(gram))
    other = None if twin is None else _map_sum(_moment(twin), form)
    return _checked_map(_map_sum(_moment(simplex), form), other, inverse, simplex.cr2, {})


def _moment(simplex: PrimitiveSimplex) -> tuple[list[list[int]], int, Rat]:
    """H = sum_j alpha_j x_j x_j^T on integers: with X the lcm of the vertex
    denominators and A that of alpha's, (sum_j (A alpha_j)(X x_j)(X x_j)^T,
    A X^2, cr2)."""
    xs, xden = simplex.x_integer
    (alphas,), aden = integer_scaled([simplex.alpha])
    h = [[0] * len(xs[0]) for _ in xs[0]]
    for a, x in zip(alphas, xs, strict=True):
        for xi, row in zip(x, h):
            axi = a * xi
            for k, xk in enumerate(x):
                row[k] += axi * xk
    return h, aden * xden * xden, simplex.cr2


def _map_sum(
    moment: tuple[list[list[int]], int, Rat],
    form: tuple[list[list[int]], int],
    u: Optional[IntMat] = None,
) -> tuple[list[list[int]], int]:
    """q_map's form of the simplex with this _moment, as an integer matrix
    over one positive denominator; with an integer map u, that of the image
    simplex, whose x_j are u x_j.

    With form = integer_form(G) = (L G, L), the form is the congruence
    M h M^T, M = L G (u), over A L^2 X^2 cr2, its cr2 cleared into the two
    sides.
    """
    gz, scale = form
    h, hden, cr2 = moment
    m = gz if u is None else [[sum(map(mul, row, col)) for col in zip(*u)] for row in gz]
    mh = [[sum(map(mul, row, col)) for col in zip(*h)] for row in m]
    total = [[sum(map(mul, row, mrow)) * cr2.denominator for mrow in m] for row in mh]
    return total, hden * scale * scale * cr2.numerator


def _checked_map(
    form_sum: tuple[list[list[int]], int],
    twin_sum: Optional[tuple[list[list[int]], int]],
    inverse: tuple[list[list[int]], int],
    cr2: Rat,
    rats: dict[tuple[int, int], Rat],
) -> EutaxyMap:
    """The map of an integer form sum (total, den) with this cr2, once the
    sum is symmetric, has unit trace (against inverse = integer_form(G^-1))
    and, given a twin's sum, equals it; RuntimeError otherwise.  Its
    Fractions are made once per key of rats."""
    total, den = form_sum
    n = len(total)
    if any(total[i][j] != total[j][i] for i in range(n) for j in range(i)):
        raise RuntimeError("simplex map form is not symmetric")
    hz, h = inverse
    if sum(map(mul, itertools.chain(*hz), itertools.chain(*zip(*total)))) != h * den:
        raise RuntimeError("simplex map does not have unit trace")
    if twin_sum is not None:
        other, other_den = twin_sum
        pairs = zip(itertools.chain(*total), itertools.chain(*other))
        if any(a * other_den != b * den for a, b in pairs):
            raise RuntimeError("negative pair with distinct maps")
    form = tuple(tuple(_rat(rats, t, den) for t in row) for row in total)
    return EutaxyMap(form=form, cr2=cr2)


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
    gz, scale = integer_form(gram)  # integer generators: <u, v> = u^T (L G) v / L
    for i, u in enumerate(gens):
        for j, v in enumerate(gens):
            expect = (n if i == j else -1) * (
                Fraction(4, n + 1) if n == 3 else Fraction(1, n + 1)
            )
            if Fraction(sum(a * sum(map(mul, row, v)) for a, row in zip(u, gz)), scale) != expect:
                raise RuntimeError("generators do not have the A_n* Gram values")
    walks = []
    seen = set()
    for perm in itertools.permutations(range(n)):
        walk = [(0,) * n]
        for k in perm:
            walk.append(tuple(map(add, walk[-1], gens[k])))
        key = _translation_key(walk)
        if key in seen:
            raise RuntimeError("duplicate simplex class")
        seen.add(key)
        walks.append((perm, walk))
    # each distinct coordinate becomes a Fraction once
    coords = {c: Fraction(c) for c in {c for _, walk in walks for v in walk for c in v}}
    classes = tuple(
        DeloneSimplex(
            vertices=tuple(tuple(map(coords.__getitem__, v)) for v in walk), label=perm + (n,)
        )
        for perm, walk in walks
    )
    model = LatticeModel(n=n, gram=gram, embedding=embedding, delone_classes=classes)
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
        images = [index.get(tuple(map(pi.get, label))) for label in reps]
        if None in images:
            return None
        orbit.append(tuple(pair_of[i] for i in images))
    return tuple(orbit)


def voronoi_vertices(lat: LatticeModel) -> tuple[VecQ, ...]:
    """Vertices of the Voronoi cell at the origin, in lattice coordinates,
    computed once per model (LatticeModel.voronoi_vertices)."""
    return lat.voronoi_vertices


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
