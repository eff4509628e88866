"""Numerical geodesic finding over the distribution space.

Search runs in a low-dimensional chart anchored at the current promise
distribution: geodesic normal coordinates along a promise-ascent
direction plus random orthonormal directions. Within the chart, shortest
paths are found with Dijkstra on a lazily materialized lattice and
tightened by hierarchical midpoint refinement. Every ray starts at the
chart base, so one search from the base serves all of a chart's rays.
The closed-form geometry in :mod:`infoevo.manifold` provides both the
fast path and the oracle.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import manifold
from .errors import GammaExceedsRay, GoalOutsideChart, NoPath
from .manifold import LogDistribution, TangentVector

logger = logging.getLogger(__name__)

DEGENERATE_NORM = 1e-12
EXACT_RAYS_THRESHOLD = 64  # above this population size, skip the grid


@dataclass(frozen=True)
class Chart:
    """Orthonormal tangent frame at a base distribution."""

    base: LogDistribution
    directions: tuple[TangentVector, ...]
    radius: float
    degenerate_ascent: bool = False  # promise-ascent direction vanished

    @property
    def dim(self) -> int:
        return len(self.directions)

    def tangent(self, coords) -> TangentVector:
        coords = np.asarray(coords, dtype=float)
        f = np.zeros(self.base.n)
        for c, u in zip(coords, self.directions):
            f = f + c * u.f
        return TangentVector(f, self.base)

    def point(self, coords) -> LogDistribution:
        """Map chart coordinates to the distribution space.

        Distance from the base equals the Euclidean norm of the
        coordinates (geodesic normal coordinates).
        """
        coords = np.asarray(coords, dtype=float)
        r = float(np.linalg.norm(coords))
        if r == 0.0:
            return self.base
        return manifold.exp_map(self.base, self.tangent(coords), 1.0)


@dataclass(frozen=True)
class GeodesicPolyline:
    points: tuple[LogDistribution, ...]
    length: float

    @staticmethod
    def of(points) -> "GeodesicPolyline":
        points = tuple(points)
        length = sum(
            manifold.geodesic_distance_exact(a, b)
            for a, b in zip(points, points[1:])
        )
        return GeodesicPolyline(points, length)


@dataclass(frozen=True)
class GeodesicRay:
    origin: LogDistribution
    initial_direction: TangentVector
    polyline: GeodesicPolyline


@dataclass(frozen=True)
class StepParams:
    gamma: float = 0.25
    ray_count: int = 5
    grid_resolution: int = 32
    refinement_levels: int = 3
    chart_dim: int = 2

    def __post_init__(self):
        if not 0 < self.gamma < np.pi:
            raise ValueError("gamma must lie in (0, pi)")
        if self.ray_count < 1:
            raise ValueError("ray_count must be positive")
        if self.grid_resolution < 1:
            raise ValueError("grid_resolution must be positive")
        if self.refinement_levels < 0:
            raise ValueError("refinement_levels must be nonnegative")
        if not 1 <= self.chart_dim <= 3:
            raise ValueError("chart_dim must be 1, 2 or 3")


def grid_slack(resolution: int) -> float:
    """Relative length error allowed for a raw lattice shortest path."""
    return 2.0 / resolution


def build_chart(
    base: LogDistribution,
    promise_values,
    d: int,
    rng: np.random.Generator,
    radius: float = 1.0,
) -> Chart:
    """Frame the search: promise-ascent first, random orthonormal rest.

    If the projected promise-ascent vector is degenerate (uniform
    promise), all directions fall back to random; the chart records the
    fallback instead of failing.
    """
    n = base.n
    if d > n - 1:
        raise ValueError(f"chart dimension {d} exceeds manifold dimension {n - 1}")
    directions: list[np.ndarray] = []
    degenerate = False
    ascent = manifold.project_tangent(base, np.asarray(promise_values, dtype=float))
    norm = ascent.norm
    if norm < DEGENERATE_NORM:
        degenerate = True
        logger.warning("promise-ascent direction degenerate; using random chart")
    else:
        directions.append(ascent.f / norm)
    attempts = 0
    while len(directions) < d:
        attempts += 1
        if attempts > 100 * d:
            raise RuntimeError("failed to build an orthonormal chart frame")
        cand = manifold.project_tangent(base, rng.standard_normal(n)).f
        for u in directions:
            cand = cand - manifold.inner(base, cand, u) * u
        cnorm = float(np.sqrt(manifold.inner(base, cand, cand)))
        if cnorm < DEGENERATE_NORM:
            continue
        directions.append(cand / cnorm)
    return Chart(
        base=base,
        directions=tuple(TangentVector(u, base) for u in directions),
        radius=float(radius),
        degenerate_ascent=degenerate,
    )


class _LazyGrid:
    """Lattice nodes in chart coordinates, mapped to distributions on demand."""

    def __init__(self, chart: Chart, resolution: int):
        self.chart = chart
        self.spacing = chart.radius / resolution
        self.limit = chart.radius + 0.5 * self.spacing
        self._points: dict[tuple, LogDistribution] = {}
        self._inside: dict[tuple, bool] = {}
        self._offsets = [
            o
            for o in itertools.product((-1, 0, 1), repeat=chart.dim)
            if any(o)
        ]

    def coords(self, key: tuple) -> np.ndarray:
        return np.array(key, dtype=float) * self.spacing

    def in_bounds(self, key: tuple) -> bool:
        inside = self._inside.get(key)
        if inside is None:
            inside = float(np.linalg.norm(self.coords(key))) <= self.limit
            self._inside[key] = inside
        return inside

    def point(self, key: tuple) -> LogDistribution:
        pt = self._points.get(key)
        if pt is None:
            pt = self.chart.point(self.coords(key))
            self._points[key] = pt
        return pt

    def neighbors(self, key: tuple):
        for o in self._offsets:
            nk = tuple(a + b for a, b in zip(key, o))
            if self.in_bounds(nk):
                yield nk

    def cell_corners(self, coords: np.ndarray) -> list[tuple]:
        """Lattice nodes surrounding an off-lattice point."""
        lo = np.floor(coords / self.spacing).astype(int)
        corners = set()
        for o in itertools.product((0, 1), repeat=self.chart.dim):
            key = tuple(int(a + b) for a, b in zip(lo, o))
            if self.in_bounds(key):
                corners.add(key)
        if not corners:
            # off-grid point hugging the boundary: snap to nearest node
            key = tuple(int(round(c / self.spacing)) for c in coords)
            corners.add(key)
        return sorted(corners)


def dijkstra_geodesic(
    chart: Chart,
    start_coords,
    goals,
    resolution: int,
) -> list[GeodesicPolyline]:
    """Shortest lattice paths from one chart point to each goal point.

    The lattice is a uniform grid in chart coordinates (8-connected in
    2-d, 26-connected in 3-d) with edge weights given by the exact
    pairwise geodesic distance of the mapped distributions. One
    single-source search serves every goal and stops once all are
    settled. Each goal is a sink of its own, entered from the corners of
    its cell and never expanded, so the lattice nodes are settled in the
    same order as in a search for that goal alone, and each goal's path
    is the one such a search returns.
    """
    start_coords = np.asarray(start_coords, dtype=float)
    goals = [np.asarray(g, dtype=float) for g in goals]
    for name, c in [("start", start_coords)] + [("goal", g) for g in goals]:
        if float(np.linalg.norm(c)) > chart.radius * (1 + 1e-9):
            raise GoalOutsideChart(f"{name} point lies outside the chart radius")
    start_pt = chart.point(start_coords)
    paths: list[GeodesicPolyline | None] = [None] * len(goals)
    START = ("S",)
    sink_points: dict[tuple, LogDistribution] = {}  # ("G", goal index) -> point
    sinks_entered: dict[tuple, list[tuple]] = {}  # lattice node -> its sinks
    grid = _LazyGrid(chart, resolution)
    for i, goal in enumerate(goals):
        if np.allclose(start_coords, goal):
            paths[i] = GeodesicPolyline((start_pt,), 0.0)
            continue
        sink = ("G", i)
        sink_points[sink] = chart.point(goal)
        for corner in grid.cell_corners(goal):
            sinks_entered.setdefault(corner, []).append(sink)
    if not sink_points:
        return paths

    def node_point(key: tuple) -> LogDistribution:
        if key == START:
            return start_pt
        pt = sink_points.get(key)
        return grid.point(key) if pt is None else pt

    def expand(key: tuple):
        if key == START:
            return grid.cell_corners(start_coords)
        return itertools.chain(grid.neighbors(key), sinks_entered.get(key, ()))

    dist: dict[tuple, float] = {START: 0.0}
    prev: dict[tuple, tuple] = {}
    counter = itertools.count()  # heap tiebreaker; node keys are not comparable
    heap: list[tuple[float, int, tuple]] = [(0.0, next(counter), START)]
    done: set[tuple] = set()
    unsettled = len(sink_points)
    while heap and unsettled:
        d, _, key = heapq.heappop(heap)
        if key in done:
            continue
        done.add(key)
        if key in sink_points:
            unsettled -= 1
            continue
        pt = node_point(key)
        for nk in expand(key):
            if nk in done:
                continue
            w = manifold.geodesic_distance_exact(pt, node_point(nk))
            nd = d + w
            if nd < dist.get(nk, np.inf):
                dist[nk] = nd
                prev[nk] = key
                heapq.heappush(heap, (nd, next(counter), nk))
    if unsettled:
        raise NoPath("no lattice route from start to goal")

    for sink in sink_points:
        path_keys = [sink]
        while path_keys[-1] != START:
            path_keys.append(prev[path_keys[-1]])
        path_keys.reverse()
        points = [node_point(k) for k in path_keys]
        # drop coincident consecutive points (start/goal may sit on a node)
        deduped = [points[0]]
        for pt in points[1:]:
            if manifold.geodesic_distance_exact(deduped[-1], pt) > 1e-14:
                deduped.append(pt)
        paths[sink[1]] = GeodesicPolyline.of(deduped)
    return paths


def _downsample(pts: list, keep: int) -> list:
    """Evenly spaced subset including both endpoints (never lengthens)."""
    if len(pts) <= keep:
        return pts
    idx = np.unique(np.round(np.linspace(0, len(pts) - 1, keep)).astype(int))
    return [pts[i] for i in idx]


def refine_polyline(
    polyline: GeodesicPolyline,
    levels: int,
    relax_passes: int = 3,
    coarse_points: int = 5,
) -> GeodesicPolyline:
    """Hierarchical coarse-to-fine tightening of an approximate geodesic.

    The raw lattice path is first thinned to a coarse polyline (dropping
    points never increases length), then each level inserts geodesic
    midpoints between consecutive points and relaxes every interior
    point to the geodesic midpoint of its neighbors, the minimizer of
    the local two-segment length. Relaxing at coarse resolution first
    removes the low-frequency bowing a lattice path carries, which
    plain fine-level relaxation is slow to shed.
    """
    if len(polyline.points) < 2 or levels == 0:
        return polyline
    pts = _downsample(list(polyline.points), coarse_points)
    for _ in range(levels):
        for _ in range(relax_passes):
            for i in range(1, len(pts) - 1):
                pts[i] = manifold.geodesic_midpoint(pts[i - 1], pts[i + 1])
        subdivided = [pts[0]]
        for a, b in zip(pts, pts[1:]):
            subdivided.append(manifold.geodesic_midpoint(a, b))
            subdivided.append(b)
        pts = subdivided
    for _ in range(relax_passes):
        for i in range(1, len(pts) - 1):
            pts[i] = manifold.geodesic_midpoint(pts[i - 1], pts[i + 1])
    refined = GeodesicPolyline.of(pts)
    if refined.length > polyline.length + 1e-12:
        return polyline
    return refined


def sample_exact_ray(
    base: LogDistribution,
    direction: TangentVector,
    length: float,
    segments: int = 8,
) -> GeodesicPolyline:
    """Closed-form geodesic polyline of the given arc length."""
    ts = np.linspace(0.0, length, segments + 1)
    points = [base] + [manifold.exp_map(base, direction, t) for t in ts[1:]]
    return GeodesicPolyline.of(points)


def _ray_coord_directions(dim: int, count: int, rng: np.random.Generator):
    """Unit coordinate directions: +e1, then +-e_i, then cones around +e1."""
    dirs = [np.eye(dim)[0]]
    for i in range(1, dim):
        dirs.append(np.eye(dim)[i])
        dirs.append(-np.eye(dim)[i])
    dirs.append(-np.eye(dim)[0])
    while len(dirs) < count:
        cone = np.eye(dim)[0] + 0.5 * rng.standard_normal(dim)
        nrm = float(np.linalg.norm(cone))
        if nrm < DEGENERATE_NORM:
            continue
        dirs.append(cone / nrm)
    return dirs[:count]


def geodesic_rays(
    chart: Chart,
    params: StepParams,
    rng: np.random.Generator,
    exact: bool | None = None,
) -> list[GeodesicRay]:
    """Rays from the chart base covering the promise-ascent cone.

    In exact mode the polylines come from the closed-form flow; otherwise
    each ray is a refined Dijkstra path to a boundary goal, and one
    search from the chart base finds every ray's path. By default the
    closed form is used above EXACT_RAYS_THRESHOLD samples.
    """
    if exact is None:
        exact = chart.base.n > EXACT_RAYS_THRESHOLD
    length = chart.radius
    cdirs = _ray_coord_directions(chart.dim, params.ray_count, rng)
    directions = [chart.tangent(cdir) for cdir in cdirs]
    if exact:
        polys = [sample_exact_ray(chart.base, u, length) for u in directions]
    else:
        raws = dijkstra_geodesic(
            chart,
            np.zeros(chart.dim),
            [length * cdir for cdir in cdirs],
            params.grid_resolution,
        )
        polys = [refine_polyline(raw, params.refinement_levels) for raw in raws]
    return [
        GeodesicRay(origin=chart.base, initial_direction=u, polyline=poly)
        for u, poly in zip(directions, polys)
    ]


def step_along(ray: GeodesicRay, gamma: float) -> LogDistribution:
    """Point at arc length gamma along the ray's polyline."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0:
        return ray.origin
    pts = ray.polyline.points
    if gamma > ray.polyline.length + 1e-9:
        raise GammaExceedsRay(
            f"gamma {gamma} exceeds polyline length {ray.polyline.length}"
        )
    walked = 0.0
    for a, b in zip(pts, pts[1:]):
        seg = manifold.geodesic_distance_exact(a, b)
        if walked + seg >= gamma - 1e-12:
            frac = 0.0 if seg == 0 else (gamma - walked) / seg
            return manifold.geodesic_point(a, b, min(max(frac, 0.0), 1.0))
        walked += seg
    return pts[-1]
