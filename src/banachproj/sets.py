"""Convex-set descriptors, one class per set type, and their projections.

Supported shapes: balls, the positive cone, coordinate subspaces,
polytopes in half-space or vertex representation, segments, rays, and
singletons.  Each is a `SetDescriptor` subclass that answers for itself
(JSON form, dimension, projection, support point, membership, sample
members, and where one exists the internal/cuticle classification).  A new
set type is one such class plus its entry in `_TYPES`, and an entry in
`derivative._CLOSED_FORMS` if it has an exact derivative.  `contains`,
`support`, `classify_point` and the JSON codecs are entry points that check
arguments and ask it; each point of C is checked once, by `_point`, and the
methods trust it.

Projections have one public way in, `solver.project` (or
`project_with_certificate`), which checks the point and calls the
descriptor's `project`.  Balls, the cone, and coordinate subspaces project
in closed form (independent of p for the cone and subspace: Σ|x_i - z_i|^p
separates, so each coordinate is clipped or zeroed on its own); segments
and rays reduce to root finding on a monotone derivative, solved by a
port of SciPy's Brent (`_brent_root`) that needs only NumPy; polytopes
are handed to the iterative solver.  An H-polytope finds its feasible
point by non-negative least squares (`_nnls`), and the solver certifies
its projections from the dual weights, a weak-duality lower bound on the
support gap; only a point that bound leaves uncertified asks
`PolytopeH.support` for a boxed LP, which loads `scipy.optimize`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._scipy import optimize  # the boxed support LP, imported on first use
from .space import LpSpace

__all__ = [
    "InfeasibleSetError",
    "SetDescriptor",
    "Ball",
    "PositiveCone",
    "CoordinateSubspace",
    "PolytopeH",
    "PolytopeV",
    "Segment",
    "Ray",
    "Singleton",
    "PointClass",
    "descriptor_from_json",
    "descriptor_to_json",
    "contains",
    "support",
    "classify_point",
    "orthogonal_cone_residual",
]

#: membership tolerance default, scaled by max(1, ||x||) in `_tolerance`
MEMBERSHIP_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


class InfeasibleSetError(ValueError):
    """The descriptor defines an empty set."""


def _vec(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("expected a nonempty 1-d coordinate array")
    if not np.isfinite(a).all():
        raise ValueError("coordinates must be finite")
    return a


@dataclass
class PointClass:
    """Partition tag of a point of C with respect to inverse images.

    tag == "internal": the inverse image of the point is the point alone.
    tag == "cuticle":  the inverse image is strictly larger; `witness` is
    a nonzero u with P(point + u) = point.
    """

    tag: str
    witness: np.ndarray | None


def _axis(n: int, i: int, value: float) -> np.ndarray:
    # built from zeros, so a -1 witness has +0.0 (not -0.0) elsewhere
    w = np.zeros(n)
    w[i] = value
    return w


class SetDescriptor:
    """A closed convex set; each set type is one frozen-dataclass subclass.

    Its methods receive a checked point: a finite 1-d float array in the
    set's dimension (see `_point`), not checked again.  A subclass sets
    `kind` (its JSON type name) and `dim` (the dimension it pins, None if
    any fits) and defines `project(space, x)`, `support(space, j, x, box)`
    (see `support`) and, unless the distance to its projection decides
    membership, `contains(space, x, eff)` at a resolved tolerance eff >= 0.
    `sample(rng, n)` yields a few members of the set in R^n.
    Types with a closed-form rule override `classify(space, y, eff)` (the
    internal/cuticle tag of a member y, see `classify_point`); the base
    version refuses.  Its JSON form is its fields, unless it overrides
    `to_json`, and `descriptor_from_json` takes only entries of the types
    in `_entry_types` there (JSON numbers, or booleans for a mask).
    `_gap_scale` gives the magnitudes behind the rounding of a certificate.
    """

    _entry_types = (int, float)

    def contains(self, space: LpSpace, x: np.ndarray, eff: float) -> bool:
        return space.norm(x - self.project(space, x)) <= eff

    def classify(self, space: LpSpace, y: np.ndarray, eff: float) -> PointClass:
        raise ValueError(
            f"no closed-form internal/cuticle classification for {type(self).__name__}"
        )

    def _gap_scale(self, space: LpSpace, u: np.ndarray, z: np.ndarray) -> np.ndarray:
        # coordinate magnitudes behind the rounding of the support gap
        # ⟨j, u - z⟩ at a candidate u and support point z (see solver)
        return np.abs(u) + np.abs(z)

    def to_json(self) -> dict:
        out = {"type": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out


@dataclass(frozen=True, eq=False)
class Ball(SetDescriptor):
    """Closed ball { z : ‖z - center‖_p <= radius }, radius > 0."""

    center: np.ndarray
    radius: float
    kind = "ball"
    dim = property(lambda self: self.center.size)

    def __post_init__(self):
        object.__setattr__(self, "center", _vec(self.center))
        r = float(self.radius)
        if not (r > 0.0) or not math.isfinite(r):
            raise ValueError("radius must be positive and finite")
        object.__setattr__(self, "radius", r)

    def project(self, space, x):
        # identity inside, radial pullback outside
        xc = x - self.center
        d = space._power_norm(np.abs(xc), space.p)
        if d <= self.radius:
            return x.copy()
        return self.center + (self.radius / d) * xc

    def support(self, space, j, x, box):
        # c + (r/‖j‖_q) J⁻¹(j), written out so that ‖j‖_q is taken once
        nj, t = space._norm_and_power(j, space.q)
        if nj == 0.0:
            return self.center.copy()
        return self.center + self.radius * t

    def contains(self, space, x, eff):
        return space.norm(x - self.center) <= self.radius + eff

    def _gap_scale(self, space, u, z):
        # u = c + s(x - c) and z = c + r|j/‖j‖_q|^(q-1) sign j round at the
        # scale of c, and the power q - 1 multiplies the rounding of z - c
        c = self.center
        return np.abs(u) + np.abs(z) + np.abs(c) + (space.q - 1.0) * np.abs(z - c)

    def sample(self, rng, n):
        for _ in range(4):
            d = rng.standard_normal(n)
            d /= max(np.max(np.abs(d)), 1e-12) * n
            yield self.center + self.radius * rng.uniform(0.0, 0.9) * d

    def classify(self, space, y, eff):
        if self.radius - space.norm(y - self.center) > eff:
            return PointClass("internal", None)
        # sphere point: the outward ray collapses onto y
        return PointClass("cuticle", y - self.center)


@dataclass(frozen=True)
class PositiveCone(SetDescriptor):
    """The closed positive orthant { z : z_i >= 0 for all i }."""

    kind = "positive_cone"
    dim = None

    def project(self, space, x):
        return np.maximum(x, 0.0)

    def support(self, space, j, x, box):
        return np.maximum(np.where(j > 0.0, x + box, x - box), 0.0)

    def contains(self, space, x, eff):
        return bool(np.all(x >= -eff))

    def sample(self, rng, n):
        for _ in range(4):
            yield np.abs(rng.standard_normal(n))

    def classify(self, space, y, eff):
        zero = y <= eff
        if not zero.any():
            return PointClass("internal", None)
        return PointClass("cuticle", _axis(y.size, int(np.argmax(zero)), -1.0))


@dataclass(frozen=True, eq=False)
class CoordinateSubspace(SetDescriptor):
    """{ z : z_i = 0 for every masked coordinate }.

    `free` is a boolean mask: True marks coordinates allowed to vary.
    Both a free and a masked coordinate are required, so the subspace is
    proper and not the origin alone.
    """

    free: np.ndarray
    kind = "coordinate_subspace"
    _entry_types = (bool,)
    dim = property(lambda self: self.free.size)

    def __post_init__(self):
        mask = np.asarray(self.free, dtype=bool)
        if mask.ndim != 1 or mask.size == 0:
            raise ValueError("free mask must be a nonempty 1-d boolean array")
        if not mask.any():
            raise ValueError("at least one coordinate must be free")
        if mask.all():
            raise ValueError("at least one coordinate must be masked")
        object.__setattr__(self, "free", mask)

    def project(self, space, x):
        return np.where(self.free, x, 0.0)

    def support(self, space, j, x, box):
        return np.where(self.free, x + box * np.sign(j), 0.0)

    def contains(self, space, x, eff):
        return bool(np.all(np.abs(x[~self.free]) <= eff))

    def sample(self, rng, n):
        for _ in range(4):
            yield np.where(self.free, rng.standard_normal(n), 0.0)

    def classify(self, space, y, eff):
        # proper subspace: translating along any masked axis projects back
        return PointClass("cuticle", _axis(y.size, int(np.argmax(~self.free)), 1.0))


class _Polytope(SetDescriptor):
    """Projected and certified by the iterative polytope solver."""

    def project(self, space, x):
        from .solver import _project_polytope  # local import: solver builds on this module

        return _project_polytope(space, self, x).point


@dataclass(frozen=True, eq=False)
class PolytopeH(_Polytope):
    """Intersection of half-spaces { z : ⟨normal_k, z⟩ <= offset_k }.

    Feasibility is probed at construction (`_feasible_point`); an empty
    intersection raises InfeasibleSetError immediately rather than at the
    first projection attempt.  Its JSON form lists {normal, offset} rows.
    """

    normals: np.ndarray
    offsets: np.ndarray
    kind = "polytope_h"
    dim = property(lambda self: self.normals.shape[1])

    def __post_init__(self):
        A = np.asarray(self.normals, dtype=float)
        b = np.asarray(self.offsets, dtype=float)
        if A.ndim != 2 or A.shape[0] == 0 or A.shape[1] == 0:
            raise ValueError("normals must form a nonempty 2-d array")
        if b.shape != (A.shape[0],):
            raise ValueError("offsets must match the number of rows")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("polytope data must be finite")
        if np.any(np.all(A == 0.0, axis=1) & (b < 0.0)):
            raise InfeasibleSetError("row with zero normal and negative offset")
        object.__setattr__(self, "normals", A)
        object.__setattr__(self, "offsets", b)
        object.__setattr__(self, "_feasible_point", _feasible_point(A, b))

    def feasible_point(self) -> np.ndarray:
        return self._feasible_point.copy()

    def sample(self, rng, n):
        yield self.feasible_point()

    def support(self, space, j, x, box):
        res = optimize.linprog(
            c=-j, A_ub=self.normals, b_ub=self.offsets,
            bounds=list(zip(x - box, x + box)), method="highs",
        )
        return np.asarray(res.x, dtype=float) if res.status == 0 else None

    def contains(self, space, x, eff):
        return (bool(np.all(self.normals @ x <= self.offsets))
                or (eff > 0.0 and super().contains(space, x, eff)))

    def to_json(self) -> dict:
        rows = [{"normal": n.tolist(), "offset": float(b)}
                for n, b in zip(self.normals, self.offsets)]
        return {"type": self.kind, "rows": rows}


def _nnls(M: np.ndarray, e: np.ndarray) -> np.ndarray:
    """argmin ‖Mψ - e‖ over ψ >= 0, for M with unit columns (Lawson &
    Hanson, *Solving Least Squares Problems*, 1974, ch. 23).

    Each step frees the column of largest gradient Mᵀ(e - Mψ) and solves
    the normal equations on the free set, stepping back to the first
    weight that reaches 0 while that solution is not positive; a freed
    column whose own weight comes out <= 0 (by rounding) is held back
    until ψ next moves.  The steps stop once no gradient exceeds the
    rounding of Mψ, M.size·ε·(1 + Σψ), or after 3m of them.  The normal
    equations square the condition of M, so a last least-squares solve on
    the free set replaces ψ when its residual is smaller (on the 1000
    seeded infeasible systems of the tests, the worst Farkas residue
    max|Aᵀψ|/max(|A|ᵀψ) falls from 9.1e-11 to 6.6e-15); a Gram system that
    is exactly singular is solved by least squares too.
    """
    m = M.shape[1]
    G, h = M.T @ M, M.T @ e
    psi = np.zeros(m)
    free = np.zeros(m, dtype=bool)
    held = np.zeros(m, dtype=bool)
    for _ in range(3 * m):
        g = M.T @ (e - M @ psi)
        g[free | held] = -math.inf
        t = int(g.argmax())
        if g[t] <= M.size * _EPS * (1.0 + psi.sum()):
            break
        free[t] = True
        fresh = True
        while True:
            P = np.flatnonzero(free)
            try:
                s = np.linalg.solve(G[np.ix_(P, P)], h[P])
            except np.linalg.LinAlgError:
                s = np.linalg.lstsq(M[:, P], e, rcond=None)[0]
            if fresh and s[np.searchsorted(P, t)] <= 0.0:
                free[t], held[t] = False, True
                break
            fresh = False
            held[:] = False
            if s.min() > 0.0:
                psi[P] = s
                break
            neg = np.flatnonzero(s <= 0.0)
            ratio = psi[P[neg]] / (psi[P[neg]] - s[neg])
            k = int(ratio.argmin())
            psi[P] += ratio[k] * (s - psi[P])
            psi[P[neg[k]]] = 0.0
            out = P[psi[P] <= 0.0]
            free[out], psi[out] = False, 0.0
    if free.any():
        P = np.flatnonzero(free)
        polished = psi.copy()
        polished[P] = np.maximum(np.linalg.lstsq(M[:, P], e, rcond=None)[0], 0.0)
        if np.linalg.norm(M @ polished - e) < np.linalg.norm(M @ psi - e):
            psi = polished
    return psi


def _feasible_point(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A point of {Az <= b}, at or near its least-norm point, or
    InfeasibleSetError.

    Lawson & Hanson's least-distance program (1974, ch. 23), from z = 0:
    with unit row normals a_i, the offsets r = b - Az relative to z scaled
    by max|r|, M's columns (a_i, r_i) normalised and e = (0, …, 0, -1),
    the rows with ψ_i > 0, ψ = `_nnls`(M, e), are those tight at the
    least-distance point z + dz, and dz is the least-norm solution of
    them taken as equations.  (The textbook dz = w_z/(-w_t), w = e - Mψ,
    amplifies the rounding of w by 1 + ‖dz‖²: a seeded tight system
    missed its rows by 2.8e-7 that way.)  The scaling and the passes from
    z + dz keep sets far from the origin decidable: with one unscaled pass
    boxes 1e3 away in R^12 went undecided.  A z that passes every row at
    membership slack 1e-9·max(1, max|b|) is returned, after at most four
    passes.  Otherwise ψ is read as a Farkas ray: ψ >= 0, rᵀψ < 0 and
    max|Aᵀψ| within 1e-9 of max(|A|ᵀψ) (a rounding residue, 6.6e-15 at
    worst on the tests' seeded systems; taken coordinate by coordinate it
    refused rays whose small coordinates sum few weights) prove the rows
    infeasible.  A system that neither decides raises ValueError.
    """
    norms = np.linalg.norm(A, axis=1)
    live = norms > 0.0   # a zero row holds: one with a negative offset was refused
    A_, b_ = A[live] / norms[live, None], b[live] / norms[live]
    slack = MEMBERSHIP_TOL * max(1.0, float(np.abs(b).max()))
    n = A.shape[1]
    z = np.zeros(n)
    for _ in range(4):
        if np.all(A @ z <= b + slack):
            return z
        r = b_ - A_ @ z
        M = np.vstack([A_.T, r / np.abs(r).max()])
        cols = np.linalg.norm(M, axis=0)
        psi = _nnls(M / cols, -np.eye(1, n + 1, n)[0]) / cols
        if r @ psi < 0.0 and np.abs(A_.T @ psi).max() <= MEMBERSHIP_TOL * (np.abs(A_).T @ psi).max():
            raise InfeasibleSetError("half-space system has no solution")
        tight = psi > 0.0
        z = z + np.linalg.lstsq(A_[tight], r[tight], rcond=None)[0]
    if np.all(A @ z <= b + slack):
        return z
    raise ValueError("feasibility probe failed: the rows decide neither way")


@dataclass(frozen=True, eq=False)
class PolytopeV(_Polytope):
    """Convex hull of finitely many vertices (rows of `vertices`)."""

    vertices: np.ndarray
    kind = "polytope_v"
    dim = property(lambda self: self.vertices.shape[1])

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] == 0 or V.shape[1] == 0:
            raise ValueError("vertices must form a nonempty 2-d array")
        if not np.all(np.isfinite(V)):
            raise ValueError("vertices must be finite")
        object.__setattr__(self, "vertices", V)

    def support(self, space, j, x, box):
        return self.vertices[int(np.argmax(self.vertices @ j))].copy()

    def sample(self, rng, n):
        m = len(self.vertices)
        for _ in range(4):
            yield rng.dirichlet(np.ones(m)) @ self.vertices


@dataclass(frozen=True, eq=False)
class Segment(SetDescriptor):
    """Closed segment [u, w] with distinct endpoints."""

    u: np.ndarray
    w: np.ndarray
    kind = "segment"
    dim = property(lambda self: self.u.size)

    def __post_init__(self):
        u = _vec(self.u)
        w = _vec(self.w)
        if u.shape != w.shape:
            raise ValueError("endpoints must have matching shapes")
        if np.array_equal(u, w):
            raise ValueError("segment endpoints must be distinct")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)

    def project(self, space, x):
        return _line_point(space, self.u, self.w - self.u, x, 1.0)

    def support(self, space, j, x, box):
        u_wins = j.dot(self.u) >= j.dot(self.w)
        return (self.u if u_wins else self.w).copy()

    def sample(self, rng, n):
        for t in (0.0, 0.3, 0.7, 1.0):
            yield (1 - t) * self.u + t * self.w


@dataclass(frozen=True, eq=False)
class Ray(SetDescriptor):
    """{ v + t * dir : t >= 0 } with a nonzero direction."""

    v: np.ndarray
    dir: np.ndarray
    kind = "ray"
    dim = property(lambda self: self.v.size)

    def __post_init__(self):
        v = _vec(self.v)
        d = _vec(self.dir)
        if v.shape != d.shape:
            raise ValueError("vertex and direction must have matching shapes")
        if not np.any(d):
            raise ValueError("ray direction must be nonzero")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "dir", d)

    def project(self, space, x):
        return _line_point(space, self.v, self.dir, x, None)

    def support(self, space, j, x, box):
        # the far end of a piece of the ray that covers the box
        if j.dot(self.dir) <= 0.0:
            return self.v.copy()
        far = (np.max(np.abs(x - self.v)) + box) / np.max(np.abs(self.dir))
        return self.v + far * self.dir

    def sample(self, rng, n):
        for t in (0.0, 0.5, 2.0, 10.0):
            yield self.v + t * self.dir


@dataclass(frozen=True, eq=False)
class Singleton(SetDescriptor):
    """The one-point set {y}."""

    y: np.ndarray
    kind = "singleton"
    dim = property(lambda self: self.y.size)

    def __post_init__(self):
        object.__setattr__(self, "y", _vec(self.y))

    def project(self, space, x):
        return self.y.copy()

    def support(self, space, j, x, box):
        return self.y.copy()

    def contains(self, space, x, eff):
        return space.norm(x - self.y) <= eff

    def sample(self, rng, n):
        yield self.y.copy()

    def classify(self, space, y, eff):
        return PointClass("cuticle", _axis(y.size, 0, 1.0))


#: every set type by its JSON type name
_TYPES = {C.kind: C for C in (Ball, PositiveCone, CoordinateSubspace, PolytopeH,
                               PolytopeV, Segment, Ray, Singleton)}


# -- entry points ------------------------------------------------------------

def _descriptor(C) -> SetDescriptor:
    if not isinstance(C, SetDescriptor):
        raise TypeError(f"unknown set descriptor {type(C).__name__}")
    return C


def _point(C, x) -> np.ndarray:
    """x checked as a point for C: finite, nonempty and 1-d, in C's dimension."""
    x = _vec(x)
    d = _descriptor(C).dim
    if d is not None and x.size != d:
        raise ValueError(f"point has dimension {x.size}, set expects {d}")
    return x


def _tolerance(space: LpSpace, x: np.ndarray) -> float:
    # the scale-aware membership default at x
    return MEMBERSHIP_TOL * max(1.0, space.norm(x))


def descriptor_to_json(C) -> dict:
    return _descriptor(C).to_json()


def _json_field(name: str, value, types: tuple[type, ...]):
    # a JSON field as given: a scalar or nested lists whose every entry has
    # one of these exact types, so a string or a boolean is not a number
    for item in np.asarray(value, dtype=object).flat:
        if type(item) not in types:
            want = "booleans" if types == (bool,) else "numbers"
            raise ValueError(f"field {name!r} must hold JSON {want}, got {type(item).__name__}")
    return value


def descriptor_from_json(data: dict) -> SetDescriptor:
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("set descriptor must be an object with a 'type' field")
    kind = data["type"]
    cls = _TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown set type {kind!r}")
    try:
        if cls is PolytopeH:
            rows = data["rows"]
            given = {"normals": [r["normal"] for r in rows], "offsets": [r["offset"] for r in rows]}
        else:
            given = {f.name: data[f.name] for f in fields(cls)}
    except KeyError as exc:
        raise ValueError(f"set descriptor of type {kind!r} is missing field {exc}") from exc
    return cls(**{name: _json_field(name, value, cls._entry_types)
                  for name, value in given.items()})


def contains(space: LpSpace, C, x, tol: float | None = None) -> bool:
    """Is x within ℓ_p distance `tol` of C?

    With tol=None a scale-aware default 1e-9 * max(1, ‖x‖) applies; an
    explicit tol (0 included) is used as given.  Each set type decides by
    exact arithmetic or by the distance to its projection, which is 0 at
    a V-polytope's members; an H-polytope takes that distance only when
    its rows fail and tol > 0.
    """
    x = _point(C, x)
    eff = _tolerance(space, x) if tol is None else float(tol)
    if eff < 0.0:
        raise ValueError("tolerance must be nonnegative")
    return C.contains(space, x, eff)


def support(space: LpSpace, C, j, x, box: float) -> np.ndarray | None:
    """A point z of C with ⟨j, z⟩ >= ⟨j, w⟩ for all w in C ∩ {|w_i - x_i| <= box}.

    Bounded sets return their maximizer over all of C.  The cone and the
    subspace return the box corner picked by the signs of j, the ray the
    far end of a piece of it that covers the box, and the H-polytope the
    boxed LP solution, or None when the LP fails.  The box must reach C;
    once box > ‖x - u‖ it holds every point of C closer to x than u, so
    ⟨J(x - u), u - z⟩ is a sound optimality gap for u (see solver).  The
    solver asks an H-polytope for this LP only when the weak-duality lower
    bound on that gap, from its Newton weights, does not certify u.
    """
    return _descriptor(C).support(space, np.asarray(j, dtype=float),
                                  np.asarray(x, dtype=float), box)


# -- segments and rays: a root find on the line parameter ----------------

def _param_distance_slope(space: LpSpace, base: np.ndarray, d: np.ndarray, t: float) -> float:
    # derivative of t |-> sum |base - t d|^p  (monotone increasing in t)
    p = space.p
    return -p * float(space._signed_power(base - t * d, p - 1.0).dot(d))


#: a ray's largest parameter: a ray whose slope at 2^59 is still <= 0 is
#: refused, since its nearest point lies at or past 2^59 · dir
_RAY_CAP = 2.0 ** 59

#: Brent's least relative tolerance, and an absolute one below every
#: normal parameter
_RTOL = float(4.0 * np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

#: Brent's iteration cap: next to the line the root is still nearly flat,
#: and Brent's worst case grows with the square of the bisection depth
#: log2(bracket / tol), so the cap is well above SciPy's default 100
_MAXITER = 2000


def _brent_root(f, xpre: float, fpre: float, xcur: float, fcur: float, xtol: float) -> float:
    """Root of f between xpre and xcur, given f(xpre) = fpre and f(xcur) = fcur
    of opposite signs.

    Brent's method (Brent 1973, ch. 4) as SciPy's `brentq.c` writes it,
    line by line, so it takes SciPy's iterates and returns its bits; it
    starts from the two end values it is given instead of evaluating them
    again.  It stops when f is 0 or the bracket is narrower than
    xtol + 4ε|x|.  A zero denominator in the interpolation bisects, as
    the C code does on the inf or NaN step it gets.  A NaN value, given
    or computed, and the iteration cap raise ArithmeticError.
    """
    if fpre != fpre or fcur != fcur:
        raise ArithmeticError("line search slope is NaN")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf   # no interpolation step: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:   # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:              # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry   # a good short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if fcur != fcur:
            raise ArithmeticError("line search slope is NaN")
    raise ArithmeticError(f"line search did not converge in {_MAXITER} steps")


def _line_end(hi: float | None, t: float) -> float:
    # the upper end t is the answer, unless t is a ray's cap
    if hi is None and t >= _RAY_CAP:
        raise ArithmeticError("ray projection parameter overflow")
    return t


def _project_line_param(space: LpSpace, origin: np.ndarray, d: np.ndarray, x: np.ndarray,
                        lo: float, hi: float | None) -> float:
    """Parameter of the nearest point on {origin + t d : t in [lo, hi]}.

    hi=None is a ray, searched on [lo, 2^59].  Where d_i != 0,
    x - origin - t d has coordinates d_i (c_i - t) with
    c_i = (x - origin)_i / d_i, so the slope is
    -p Σ |d_i|^p |c_i - t|^(p-1) sign(c_i - t): each term changes sign at
    its breakpoint c_i, and the root lies in [min c, max c].  The search
    starts on that bracket clamped to [lo, hi].  A bracket outside
    [lo, hi] gives lo or hi with no slope evaluated, and min c == max c
    (x on the line, where the root is flat to order p - 1) gives that
    parameter itself.  Both ends of the clamped bracket are still tested,
    since rounding can put the computed slope on the wrong side of a
    breakpoint, and `_brent_root` starts from the two slopes so tested.
    A breakpoint that overflows (a tiny or subnormal d_i) is ±inf and
    clamps to lo or to hi.  A ray whose slope at 2^59 is <= 0 is refused
    with ArithmeticError, and so is a NaN slope that Brent would need
    (|r_i|^(p-1) overflowing to inf on both sides of the sum).

    Brent stops at its least relative tolerance, 4 ulp of t, or at the
    least normal double as absolute tolerance, so the answer is a fixed
    point of the search to a few ulp.
    """
    base = x - origin
    first, last = math.inf, -math.inf
    for b_i, d_i in zip(base.tolist(), d.tolist()):
        if d_i:
            c_i = b_i / d_i   # a float quotient: overflow gives ±inf, no warning
            if c_i < first:
                first = c_i
            if c_i > last:
                last = c_i
    top = _RAY_CAP if hi is None else hi
    if last <= lo:
        return lo
    if first >= top:
        return _line_end(hi, top)
    if first == last:
        return first
    lo, end = max(lo, first), min(last, top)
    f_lo = _param_distance_slope(space, base, d, lo)
    if f_lo >= 0.0:
        return lo
    f_end = _param_distance_slope(space, base, d, end)
    if f_end <= 0.0:
        return _line_end(hi, end)
    return _brent_root(lambda t: _param_distance_slope(space, base, d, t),
                       lo, f_lo, end, f_end, _TINY)


def _line_point(space: LpSpace, origin: np.ndarray, d: np.ndarray, x: np.ndarray,
                hi: float | None) -> np.ndarray:
    return origin + _project_line_param(space, origin, d, x, 0.0, hi) * d


# -- structure of inverse images --------------------------------------------

def classify_point(space: LpSpace, C, y) -> PointClass:
    """Internal / cuticle partition of y ∈ C, with a canonical witness.

    A point is internal when it is its own entire inverse image under the
    projection, cuticle otherwise; cuticle points come with a nonzero u
    such that P(y + u) = y.  Closed-form answers exist for balls (interior
    vs sphere), the positive cone (strictly positive coordinates vs
    boundary), coordinate subspaces (always cuticle), and singletons
    (always cuticle); each is its descriptor's `classify`.  Other
    descriptors are refused before membership is tested.
    """
    y = _point(C, y)
    eff = _tolerance(space, y)
    tag = C.classify(space, y, eff)   # the types without a rule refuse here
    if not C.contains(space, y, eff):
        raise ValueError("point must belong to the set")
    return tag


def orthogonal_cone_residual(space: LpSpace, free, x) -> float:
    """How far x is from the annihilator of a coordinate subspace.

    The annihilator {x : ⟨Jx, z⟩ = 0 for all z in the subspace} consists
    of vectors supported on the masked coordinates, so the residual is
    max_i |(Jx)_i| over the free coordinates; it vanishes exactly on the
    annihilator.
    """
    x = _vec(x)
    mask = np.asarray(free, dtype=bool)
    if mask.shape != x.shape:
        raise ValueError("mask and point must have matching shapes")
    jx = space.duality_map(x)
    return float(np.max(np.abs(jx[mask])))
