"""Convex-set descriptors and their closed-form metric projections.

Supported shapes: balls, the positive cone, coordinate subspaces,
polytopes in half-space or vertex representation, segments, rays, and
singletons.  Balls, the cone, and coordinate subspaces have closed-form
projections; segments and rays reduce to one-dimensional convex problems
solved by root finding on the monotone derivative; polytopes are handed
to the iterative solver.

The cone and subspace projections are norm independent: the objective
Σ|x_i - z_i|^p separates over coordinates, so each coordinate is clipped
(or zeroed) on its own.  The test suite confirms the separability claim
against brute-force one-dimensional minimization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scipy import optimize
from .space import LpSpace

__all__ = [
    "InfeasibleSetError",
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
    "descriptor_dimension",
    "contains",
    "support",
    "project_ball",
    "project_positive_cone",
    "project_coordinate_subspace",
    "project_segment",
    "project_ray",
    "classify_point",
    "orthogonal_cone_residual",
    "inverse_image_ray_check",
    "cone_translation_check",
    "dual_cone_residual",
]

#: membership tolerance default, scaled by max(1, ||x||) at the call site
MEMBERSHIP_TOL = 1e-9


class InfeasibleSetError(ValueError):
    """The descriptor defines an empty set."""


def _vec(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("expected a nonempty 1-d coordinate array")
    if not np.all(np.isfinite(a)):
        raise ValueError("coordinates must be finite")
    return a


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed ball { z : ‖z - center‖_p <= radius }, radius > 0."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vec(self.center))
        r = float(self.radius)
        if not (r > 0.0) or not math.isfinite(r):
            raise ValueError("radius must be positive and finite")
        object.__setattr__(self, "radius", r)


@dataclass(frozen=True)
class PositiveCone:
    """The closed positive orthant { z : z_i >= 0 for all i }."""


@dataclass(frozen=True, eq=False)
class CoordinateSubspace:
    """{ z : z_i = 0 for every masked coordinate }.

    `free` is a boolean mask: True marks coordinates allowed to vary.
    Both a free and a masked coordinate are required, so the subspace is
    proper and not the origin alone.
    """

    free: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.free, dtype=bool)
        if mask.ndim != 1 or mask.size == 0:
            raise ValueError("free mask must be a nonempty 1-d boolean array")
        if not mask.any():
            raise ValueError("at least one coordinate must be free")
        if mask.all():
            raise ValueError("at least one coordinate must be masked")
        object.__setattr__(self, "free", mask)


@dataclass(frozen=True, eq=False)
class PolytopeH:
    """Intersection of half-spaces { z : ⟨normal_k, z⟩ <= offset_k }.

    Feasibility is probed at construction with a linear program; an empty
    intersection raises InfeasibleSetError immediately rather than at the
    first projection attempt.
    """

    normals: np.ndarray
    offsets: np.ndarray

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
        res = optimize.linprog(
            c=np.zeros(A.shape[1]),
            A_ub=A,
            b_ub=b,
            bounds=[(None, None)] * A.shape[1],
            method="highs",
        )
        if res.status == 2:
            raise InfeasibleSetError("half-space system has no solution")
        if res.status != 0:
            raise ValueError(f"feasibility probe failed: {res.message}")
        object.__setattr__(self, "_feasible_point", np.asarray(res.x, dtype=float))

    def feasible_point(self) -> np.ndarray:
        return self._feasible_point.copy()


@dataclass(frozen=True, eq=False)
class PolytopeV:
    """Convex hull of finitely many vertices (rows of `vertices`)."""

    vertices: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] == 0 or V.shape[1] == 0:
            raise ValueError("vertices must form a nonempty 2-d array")
        if not np.all(np.isfinite(V)):
            raise ValueError("vertices must be finite")
        object.__setattr__(self, "vertices", V)


@dataclass(frozen=True, eq=False)
class Segment:
    """Closed segment [u, w] with distinct endpoints."""

    u: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        u = _vec(self.u)
        w = _vec(self.w)
        if u.shape != w.shape:
            raise ValueError("endpoints must have matching shapes")
        if np.array_equal(u, w):
            raise ValueError("segment endpoints must be distinct")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True, eq=False)
class Ray:
    """{ v + t * dir : t >= 0 } with a nonzero direction."""

    v: np.ndarray
    dir: np.ndarray

    def __post_init__(self):
        v = _vec(self.v)
        d = _vec(self.dir)
        if v.shape != d.shape:
            raise ValueError("vertex and direction must have matching shapes")
        if not np.any(d):
            raise ValueError("ray direction must be nonzero")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "dir", d)


@dataclass(frozen=True, eq=False)
class Singleton:
    """The one-point set {y}."""

    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", _vec(self.y))


@dataclass
class PointClass:
    """Partition tag of a point of C with respect to inverse images.

    tag == "internal": the inverse image of the point is the point alone.
    tag == "cuticle":  the inverse image is strictly larger; `witness` is
    a nonzero u with P(point + u) = point.
    """

    tag: str
    witness: np.ndarray | None


# -- JSON descriptors ------------------------------------------------------

def descriptor_to_json(C) -> dict:
    if isinstance(C, Ball):
        return {"type": "ball", "center": [float(c) for c in C.center], "radius": C.radius}
    if isinstance(C, PositiveCone):
        return {"type": "positive_cone"}
    if isinstance(C, CoordinateSubspace):
        return {"type": "coordinate_subspace", "free": [bool(f) for f in C.free]}
    if isinstance(C, PolytopeH):
        rows = [
            {"normal": [float(a) for a in n], "offset": float(b)}
            for n, b in zip(C.normals, C.offsets)
        ]
        return {"type": "polytope_h", "rows": rows}
    if isinstance(C, PolytopeV):
        return {"type": "polytope_v", "vertices": [[float(c) for c in v] for v in C.vertices]}
    if isinstance(C, Segment):
        return {"type": "segment", "u": [float(c) for c in C.u], "w": [float(c) for c in C.w]}
    if isinstance(C, Ray):
        return {"type": "ray", "v": [float(c) for c in C.v], "dir": [float(c) for c in C.dir]}
    if isinstance(C, Singleton):
        return {"type": "singleton", "y": [float(c) for c in C.y]}
    raise TypeError(f"unknown set descriptor {type(C).__name__}")


def descriptor_from_json(data: dict):
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("set descriptor must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "ball":
            return Ball(center=data["center"], radius=data["radius"])
        if kind == "positive_cone":
            return PositiveCone()
        if kind == "coordinate_subspace":
            return CoordinateSubspace(free=data["free"])
        if kind == "polytope_h":
            rows = data["rows"]
            normals = [r["normal"] for r in rows]
            offsets = [r["offset"] for r in rows]
            return PolytopeH(normals=normals, offsets=offsets)
        if kind == "polytope_v":
            return PolytopeV(vertices=data["vertices"])
        if kind == "segment":
            return Segment(u=data["u"], w=data["w"])
        if kind == "ray":
            return Ray(v=data["v"], dir=data["dir"])
        if kind == "singleton":
            return Singleton(y=data["y"])
    except KeyError as exc:
        raise ValueError(f"set descriptor of type {kind!r} is missing field {exc}") from exc
    raise ValueError(f"unknown set type {kind!r}")


def descriptor_dimension(C):
    """Ambient dimension pinned by the descriptor, or None if any fits."""
    if isinstance(C, Ball):
        return C.center.size
    if isinstance(C, CoordinateSubspace):
        return C.free.size
    if isinstance(C, PolytopeH):
        return C.normals.shape[1]
    if isinstance(C, PolytopeV):
        return C.vertices.shape[1]
    if isinstance(C, Segment):
        return C.u.size
    if isinstance(C, Ray):
        return C.v.size
    if isinstance(C, Singleton):
        return C.y.size
    return None


def _check_dim(C, x: np.ndarray) -> None:
    d = descriptor_dimension(C)
    if d is not None and x.size != d:
        raise ValueError(f"point has dimension {x.size}, set expects {d}")


# -- closed-form projections ----------------------------------------------

def project_ball(space: LpSpace, center, radius: float, x) -> np.ndarray:
    """Metric projection onto a ball: identity inside, radial pullback outside."""
    x = _vec(x)
    c = _vec(center)
    if x.shape != c.shape:
        raise ValueError("point and center must have matching shapes")
    if not (radius > 0.0):
        raise ValueError("radius must be positive")
    d = space.norm(x - c)
    if d <= radius:
        return x.copy()
    return c + (radius / d) * (x - c)


def project_positive_cone(x) -> np.ndarray:
    """Coordinatewise clipping; independent of the exponent p."""
    return np.maximum(_vec(x), 0.0)


def project_coordinate_subspace(free, x) -> np.ndarray:
    """Zero the masked coordinates; independent of the exponent p."""
    x = _vec(x)
    mask = np.asarray(free, dtype=bool)
    if mask.shape != x.shape:
        raise ValueError("mask and point must have matching shapes")
    return np.where(mask, x, 0.0)


def _param_distance_slope(space: LpSpace, base: np.ndarray, d: np.ndarray, t: float) -> float:
    # derivative of t |-> sum |base - t d|^p  (monotone increasing in t)
    r = base - t * d
    p = space.p
    return float(-p * np.dot(np.abs(r) ** (p - 1.0) * np.sign(r), d))


def _project_line_param(space: LpSpace, origin: np.ndarray, d: np.ndarray, x: np.ndarray,
                        lo: float, hi: float | None, xtol: float = 1e-14) -> float:
    """Parameter of the nearest point on {origin + t d : t in [lo, hi]}.

    `xtol` is Brent's absolute tolerance: segments and rays keep 1e-14,
    the polytope solver's Frank–Wolfe steps ask for 1e-15.
    """
    base = x - origin
    if _param_distance_slope(space, base, d, lo) >= 0.0:
        return lo
    if hi is not None and _param_distance_slope(space, base, d, hi) <= 0.0:
        return hi
    if hi is None:
        hi = max(1.0, lo + 1.0)
        while _param_distance_slope(space, base, d, hi) <= 0.0:
            hi *= 2.0
            if hi > 1e18:
                raise ArithmeticError("ray projection parameter overflow")
    # the slope root degenerates (flat to order p-1) when x lies on the
    # line itself; Brent's worst case is quadratic in the bisection depth,
    # so the iteration cap must cover (log2(range/xtol))^2, not the
    # default 100
    sol = optimize.brentq(
        lambda t: _param_distance_slope(space, base, d, t),
        lo, hi, xtol=xtol, rtol=1e-12, maxiter=2000,
    )
    return float(sol)


def project_segment(space: LpSpace, u, w, x) -> np.ndarray:
    u = _vec(u)
    w = _vec(w)
    x = _vec(x)
    d = w - u
    t = _project_line_param(space, u, d, x, 0.0, 1.0)
    return u + t * d


def project_ray(space: LpSpace, v, direction, x) -> np.ndarray:
    v = _vec(v)
    d = _vec(direction)
    x = _vec(x)
    t = _project_line_param(space, v, d, x, 0.0, None)
    return v + t * d


# -- membership ------------------------------------------------------------

def contains(space: LpSpace, C, x, tol: float | None = None) -> bool:
    """Is x within ℓ_p distance `tol` of C?

    With tol=None a scale-aware default 1e-9 * max(1, ‖x‖) applies; an
    explicit tol (0 included) is used as given.  Balls, cones, subspaces,
    segments, rays, and singletons are decided by exact arithmetic or
    their own projections; polytope membership falls back to the solver
    only when the exact tests are inconclusive and tol > 0.
    """
    x = _vec(x)
    _check_dim(C, x)
    eff = MEMBERSHIP_TOL * max(1.0, space.norm(x)) if tol is None else float(tol)
    if eff < 0.0:
        raise ValueError("tolerance must be nonnegative")

    if isinstance(C, Ball):
        return space.norm(x - C.center) <= C.radius + eff
    if isinstance(C, PositiveCone):
        return bool(np.all(x >= -eff))
    if isinstance(C, CoordinateSubspace):
        return bool(np.all(np.abs(x[~C.free]) <= eff))
    if isinstance(C, Singleton):
        return space.norm(x - C.y) <= eff
    if isinstance(C, Segment):
        return space.norm(x - project_segment(space, C.u, C.w, x)) <= eff
    if isinstance(C, Ray):
        return space.norm(x - project_ray(space, C.v, C.dir, x)) <= eff
    if isinstance(C, PolytopeH):
        if bool(np.all(C.normals @ x <= C.offsets)):
            return True
        if eff == 0.0:
            return False
        from .solver import project  # local import: solver builds on this module

        return space.norm(x - project(space, C, x)) <= eff
    if isinstance(C, PolytopeV):
        # exact hull membership is a linear feasibility problem
        V = C.vertices
        m = V.shape[0]
        A_eq = np.vstack([V.T, np.ones((1, m))])
        b_eq = np.concatenate([x, [1.0]])
        res = optimize.linprog(
            c=np.zeros(m), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * m, method="highs"
        )
        if res.status == 0:
            return True
        if eff == 0.0:
            return False
        from .solver import project

        return space.norm(x - project(space, C, x)) <= eff
    raise TypeError(f"unknown set descriptor {type(C).__name__}")


# -- support points --------------------------------------------------------

def support(space: LpSpace, C, j, x, box: float) -> np.ndarray | None:
    """A point z of C with ⟨j, z⟩ >= ⟨j, w⟩ for all w in C ∩ {|w_i - x_i| <= box}.

    Bounded sets return their maximizer over all of C.  The cone and the
    subspace return the box corner picked by the signs of j, the ray the
    far end of a piece of it that covers the box, and the H-polytope the
    boxed LP solution, or None when the LP fails.  The box must reach C;
    once box > ‖x - u‖ it holds every point of C closer to x than u, so
    ⟨J(x - u), u - z⟩ is a sound optimality gap for u (see solver).
    """
    j = np.asarray(j, dtype=float)
    x = np.asarray(x, dtype=float)
    if isinstance(C, Ball):
        # c + (r/‖j‖_q) J⁻¹(j), written out so that ‖j‖_q is taken once
        nj = space.dual_norm(j)
        if nj == 0.0:
            return C.center.copy()
        return C.center + C.radius * (np.abs(j) / nj) ** (space.q - 1.0) * np.sign(j)
    if isinstance(C, PositiveCone):
        return np.maximum(np.where(j > 0.0, x + box, x - box), 0.0)
    if isinstance(C, CoordinateSubspace):
        return np.where(C.free, x + box * np.sign(j), 0.0)
    if isinstance(C, Segment):
        return C.u.copy() if space.pairing(j, C.u) >= space.pairing(j, C.w) else C.w.copy()
    if isinstance(C, Ray):
        if space.pairing(j, C.dir) <= 0.0:
            return C.v.copy()
        far = (np.max(np.abs(x - C.v)) + box) / np.max(np.abs(C.dir))
        return C.v + far * C.dir
    if isinstance(C, Singleton):
        return C.y.copy()
    if isinstance(C, PolytopeV):
        return C.vertices[int(np.argmax(C.vertices @ j))].copy()
    if isinstance(C, PolytopeH):
        res = optimize.linprog(
            c=-j, A_ub=C.normals, b_ub=C.offsets,
            bounds=list(zip(x - box, x + box)), method="highs",
        )
        return np.asarray(res.x, dtype=float) if res.status == 0 else None
    raise TypeError(f"unknown set descriptor {type(C).__name__}")


# -- structure of inverse images --------------------------------------------

def classify_point(space: LpSpace, C, y, tol: float | None = None) -> PointClass:
    """Internal / cuticle partition of y ∈ C, with a canonical witness.

    A point is internal when it is its own entire inverse image under the
    projection, cuticle otherwise; cuticle points come with a nonzero u
    such that P(y + u) = y.  Closed-form answers exist for balls (interior
    vs sphere), the positive cone (strictly positive coordinates vs
    boundary), coordinate subspaces (always cuticle), and singletons
    (always cuticle).  Other descriptors are refused.
    """
    y = _vec(y)
    _check_dim(C, y)
    if not contains(space, C, y, tol):
        raise ValueError("point must belong to the set")
    scale_tol = MEMBERSHIP_TOL * max(1.0, space.norm(y)) if tol is None else float(tol)

    if isinstance(C, Ball):
        gap = C.radius - space.norm(y - C.center)
        if gap > scale_tol:
            return PointClass("internal", None)
        # sphere point: the outward ray collapses onto y
        return PointClass("cuticle", (y - C.center).copy())
    if isinstance(C, PositiveCone):
        zero = y <= scale_tol
        if not zero.any():
            return PointClass("internal", None)
        i = int(np.argmax(zero))
        w = np.zeros_like(y)
        w[i] = -1.0
        return PointClass("cuticle", w)
    if isinstance(C, CoordinateSubspace):
        # proper subspace: translating along any masked axis projects back
        i = int(np.argmax(~C.free))
        w = np.zeros_like(y)
        w[i] = 1.0
        return PointClass("cuticle", w)
    if isinstance(C, Singleton):
        w = np.zeros_like(y)
        w[0] = 1.0
        return PointClass("cuticle", w)
    raise ValueError(
        f"no closed-form internal/cuticle classification for {type(C).__name__}"
    )


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


def inverse_image_ray_check(space: LpSpace, center, radius: float, y, t: float,
                            tol: float | None = None) -> bool:
    """Does y + t(y - center) still project onto the sphere point y?

    For y on the sphere the inverse image of y under the ball projection
    is the outward ray {y + t (y - center) : t >= 0}; this evaluates the
    claim at one parameter value.
    """
    y = _vec(y)
    c = _vec(center)
    if t < 0.0:
        raise ValueError("ray parameter must be nonnegative")
    probe = y + t * (y - c)
    eff = MEMBERSHIP_TOL * max(1.0, space.norm(y)) if tol is None else float(tol)
    return space.norm(project_ball(space, c, radius, probe) - y) <= eff


def _cone_vertex(C, n: int) -> np.ndarray:
    if isinstance(C, (PositiveCone, CoordinateSubspace)):
        return np.zeros(n)
    if isinstance(C, Ray):
        return C.v.copy()
    raise ValueError(f"{type(C).__name__} is not a supported cone descriptor")


def cone_translation_check(space: LpSpace, K, y, t: float, x,
                           tol: float | None = None) -> bool:
    """Translation law along cone cross sections.

    For a cone K with vertex v, a point y in K, and u = v + t (y - v) on
    the same ray through y (t > 0), membership of x in the inverse image
    of y is equivalent to membership of x + (u - y) in the inverse image
    of u.  Returns True when the two projections agree with the law.
    """
    y = _vec(y)
    x = _vec(x)
    if t <= 0.0:
        raise ValueError("the translation parameter must be positive")
    vertex = _cone_vertex(K, y.size)
    if not contains(space, K, y, tol):
        raise ValueError("base point must belong to the cone")
    from .solver import project

    u = vertex + t * (y - vertex)
    eff = MEMBERSHIP_TOL * max(1.0, space.norm(y), space.norm(x)) if tol is None else float(tol)
    lhs = space.norm(project(space, K, x) - y) <= eff
    rhs = space.norm(project(space, K, x + (u - y)) - u) <= eff
    return lhs == rhs


def dual_cone_residual(space: LpSpace, K, x, probes) -> float:
    """Variational membership margin of x in the inverse image of the vertex.

    Evaluates min over probe points z in K of ⟨J(x - v), v - z⟩ where v is
    the cone vertex.  Nonnegative over all of K exactly when x projects to
    the vertex; a negative value certifies that some probe beats v.
    """
    x = _vec(x)
    probes = [_vec(z) for z in probes]
    if not probes:
        raise ValueError("at least one probe point is required")
    v = _cone_vertex(K, x.size)
    for z in probes:
        if not contains(space, K, z):
            raise ValueError("every probe must belong to the cone")
    j = space.duality_map(x - v)
    return min(space.pairing(j, v - z) for z in probes)
