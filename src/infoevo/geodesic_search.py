"""Numerical geodesic finding over the distribution space.

Search runs in a low-dimensional chart anchored at the current promise
distribution: geodesic normal coordinates along a promise-ascent
direction plus random orthonormal directions. Within the chart, shortest
paths on a lattice built in array blocks are found by array relaxation
(``lattice_predecessors``: the least fixed point of the distances, each
predecessor set where a distance falls, and each goal entered from its
nearest corner on a shortest edge) and are tightened by hierarchical
midpoint refinement. Every ray starts at the chart base, so one search
from the base serves all of a chart's rays, and a chart's rays are then
refined together, one row block per refinement step.
The closed-form geometry in :mod:`infoevo.manifold` provides both the
fast path and the oracle.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import manifold
from .errors import GammaExceedsRay, GoalOutsideChart, NoPath, ZeroTangent
from .manifold import LogDistribution, TangentVector

logger = logging.getLogger(__name__)

DEGENERATE_NORM = 1e-12
EXACT_RAYS_THRESHOLD = 64  # above this population size, skip the grid
RAY_SEGMENTS = 8  # geodesic segments of a closed-form ray
COARSE_POINTS = 5  # points a lattice path is thinned to before refinement
RELAX_PASSES = 3  # relaxation sweeps before each subdivision and after the last


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
        return TangentVector(self._tangent_rows(coords), self.base)

    def _tangent_rows(self, coords) -> np.ndarray:
        """Tangent f of each row of chart coordinates (last axis)."""
        coords = np.asarray(coords, dtype=float)
        f = np.zeros(coords.shape[:-1] + (self.base.n,))
        for j, u in enumerate(self.directions):
            f = f + coords[..., j, np.newaxis] * u.f
        return f

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

    def point_rows(self, coords) -> np.ndarray:
        """phi of ``point`` at each row of nonzero chart coordinates,
        with the bits of ``point`` at that row alone."""
        return manifold.exp_map_rows(self.base, self._tangent_rows(coords), 1.0)


@dataclass(frozen=True)
class GeodesicPolyline:
    """Points joined by geodesic segments. ``segments[i]`` is the
    distance from point i to point i + 1 and ``length`` their
    left-to-right sum."""

    points: tuple[LogDistribution, ...]
    length: float
    segments: tuple[float, ...]

    @staticmethod
    def of(points) -> "GeodesicPolyline":
        """The polyline through the points, each segment measured by the
        one-pair geodesic distance."""
        points = tuple(points)
        segments = tuple(
            manifold.geodesic_distance_exact(a, b) for a, b in zip(points, points[1:])
        )
        return GeodesicPolyline(points, sum(segments), segments)


@dataclass(frozen=True)
class GeodesicRay:
    origin: LogDistribution
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


def build_chart(
    base: LogDistribution,
    promise_values,
    d: int,
    rng: np.random.Generator,
    radius: float,
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


class _Lattice:
    """Every node of a chart's lattice, with its point and edge lengths.

    Nodes are the integer keys k with ||k|| * spacing <= radius +
    spacing / 2, which for integers is k.k <= resolution**2 + resolution.
    Node i has key ``keys[i]`` and the point chart.point(keys[i] *
    spacing), whose phi is ``phi[i]``. ``neighbors[i, j]`` is the node at
    key keys[i] + offsets[j] (-1 when out of bounds), and
    ``lengths[i, j]`` is the geodesic distance of that edge. Points and
    lengths are computed in blocks of at most BLOCK_ROWS rows.
    """

    BLOCK_ROWS = 256

    def __init__(self, chart: Chart, resolution: int):
        dim = chart.dim
        self.chart = chart
        self.spacing = chart.radius / resolution
        self.offsets = [
            o for o in itertools.product((-1, 0, 1), repeat=dim) if any(o)
        ]
        axis = np.arange(-resolution, resolution + 1)
        grid = np.meshgrid(*[axis] * dim, indexing="ij")
        keys = np.stack(grid, axis=-1).reshape(-1, dim)
        self.keys = keys[np.sum(keys * keys, axis=1) <= resolution * (resolution + 1)]
        count = len(self.keys)
        # node index of every key, padded by one so that each neighbour
        # and cell-corner key of an in-bounds point indexes it
        self._shift = resolution + 1
        self._index = np.full((2 * resolution + 3,) * dim, -1, dtype=np.int32)
        self._index[self._at(self.keys)] = np.arange(count)
        self.origin = int(self._index[(self._shift,) * dim])
        self.neighbors = np.stack(
            [self._index[self._at(self.keys + o)] for o in self.offsets], axis=1
        )

        self.phi = np.empty((count, chart.base.n))
        self.phi[self.origin] = chart.base.phi
        rows = np.flatnonzero(np.any(self.keys, axis=1))
        for r in _blocks(rows):
            self.phi[r] = chart.point_rows(self.keys[r] * self.spacing)

        # offsets[-1 - j] is -offsets[j], and a distance's bits do not
        # depend on the order of its two points
        self.lengths = np.full(self.neighbors.shape, np.inf)
        for j in range(len(self.offsets) // 2):
            for a in _blocks(np.arange(count)):
                b = self.neighbors[a, j]
                a, b = a[b >= 0], b[b >= 0]
                w = manifold.geodesic_distance_rows(self.phi[a], self.phi[b])
                self.lengths[a, j] = w
                self.lengths[b, -1 - j] = w

    def _at(self, keys: np.ndarray) -> tuple:
        return tuple((keys + self._shift).T)

    def point(self, node: int) -> LogDistribution:
        if node == self.origin:
            return self.chart.base
        return LogDistribution(self.phi[node])

    def cell_corners(self, coords: np.ndarray) -> list[int]:
        """Nodes at the in-bounds corners of the lattice cell holding a
        chart point, in key order.

        For a point within the chart radius, the corner nearest zero has
        |k_i| <= |c_i| / spacing in every axis, so it is always one.
        """
        lo = np.floor(coords / self.spacing).astype(int)
        nodes = [
            int(self._index[self._at(lo + o)])
            for o in itertools.product((0, 1), repeat=self.chart.dim)
        ]
        return [i for i in nodes if i >= 0]


def _blocks(rows: np.ndarray):
    for s in range(0, len(rows), _Lattice.BLOCK_ROWS):
        yield rows[s : s + _Lattice.BLOCK_ROWS]


def dijkstra_geodesic(
    chart: Chart,
    start_coords,
    goals,
    resolution: int,
) -> list[GeodesicPolyline]:
    """Shortest lattice paths from one chart point to each goal point.

    The lattice is a uniform grid in chart coordinates (8-connected in
    2-d, 26-connected in 3-d) with edge weights given by the exact
    pairwise geodesic distance of the mapped distributions. The start
    enters the corners of its cell. Each goal is a sink of its own,
    entered from the corners of its cell and never left, so one search
    serves every goal with a shortest lattice path to it.

    ``lattice_predecessors`` finds the paths by array relaxation: the
    distances are the least fixed point, bit for bit those of a Dijkstra
    search, a node's predecessor is set where its distance falls, and a
    goal is entered from the nearest of its corners on a shortest edge.
    The function keeps its name because the benchmark's layer probes
    (``perfbench/layers.py``) wrap and count it by name.
    """
    start_coords = np.asarray(start_coords, dtype=float)
    goals = [np.asarray(g, dtype=float) for g in goals]
    for name, c in [("start", start_coords)] + [("goal", g) for g in goals]:
        if float(np.linalg.norm(c)) > chart.radius * (1 + 1e-9):
            raise GoalOutsideChart(f"{name} point lies outside the chart radius")
    start_pt = chart.point(start_coords)
    paths: list[GeodesicPolyline | None] = [None] * len(goals)
    searched = []
    for i, goal in enumerate(goals):
        if np.allclose(start_coords, goal):
            paths[i] = GeodesicPolyline((start_pt,), 0.0, ())
        else:
            searched.append(i)
    if not searched:
        return paths

    lattice = _Lattice(chart, resolution)

    def edges(corners: list[int], point: LogDistribution) -> list[tuple[int, float]]:
        lengths = manifold.geodesic_distance_rows(lattice.phi[corners], point.phi)
        return list(zip(corners, lengths.tolist()))

    sink_points = [chart.point(goals[i]) for i in searched]
    prev = lattice_predecessors(
        lattice.neighbors,
        lattice.lengths,
        edges(lattice.cell_corners(start_coords), start_pt),
        [edges(lattice.cell_corners(goals[i]), pt) for i, pt in zip(searched, sink_points)],
    )
    # search nodes: lattice nodes, then the start, then each sink
    start = len(lattice.keys)
    for sink, i in enumerate(searched, start + 1):
        path = [prev[sink]]
        while path[-1] != start:
            path.append(prev[path[-1]])
        points = [start_pt, *(lattice.point(node) for node in reversed(path[:-1]))]
        paths[i] = _deduped_polyline(points + [sink_points[sink - start - 1]])
    return paths


def lattice_predecessors(neighbors, lengths, start_edges, sink_edges) -> list[int]:
    """Each node's predecessor on a shortest path from the start.

    Nodes 0 .. count - 1 are lattice nodes, node count is the start and
    node count + 1 + s is sink s. Lattice node i's j-th edge leads to
    ``neighbors[i, j]`` (-1 for none) and is ``lengths[i, j]`` long;
    edges come in pairs, ``neighbors[neighbors[i, j], width - 1 - j]``
    being i at the same length. ``start_edges`` lists the start's
    (lattice node, length) edges and ``sink_edges[s]`` the (lattice
    node, length) edges that enter sink s, which no edge leaves.
    Entries off the sinks' paths are unspecified. Raises NoPath when a
    sink cannot be reached.

    Seeded with the start's edges, each sweep pulls min(D[v], D[u] +
    lengths[v, j]) into the nodes next to those whose distance fell in
    the last sweep, until none falls. Float addition is monotone, so
    this least fixed point is the distances of a Dijkstra search, bit
    for bit, and a node farther than every sink's tentative distance
    need not pull further. ``prev[v]`` is set to u where D[v] falls to
    D[u] + length: lengths are nonnegative, so these edges form no
    cycle (Bellman-Ford's predecessor graph is a tree), and on each
    sink's path every distance is its predecessor's plus the edge. A
    sink is entered from the nearest of its tight entries, the first
    in list order among equals.
    """
    count = len(neighbors)
    # dist[-1] stays inf: the entry every -1 neighbour reads
    dist = np.full(count + 1, np.inf)
    prev = np.full(count + 1 + len(sink_edges), -1)
    start_nodes = np.array([node for node, _ in start_edges], dtype=np.intp)
    dist[start_nodes] = [length for _, length in start_edges]
    prev[start_nodes] = count
    entries = max(map(len, sink_edges))
    sink_nodes = np.full((len(sink_edges), entries), -1)
    sink_lengths = np.full((len(sink_edges), entries), np.inf)
    for s, sink in enumerate(sink_edges):
        sink_nodes[s, : len(sink)] = [node for node, _ in sink]
        sink_lengths[s, : len(sink)] = [length for _, length in sink]

    frontier = start_nodes
    while True:
        sink_dist = np.min(dist[sink_nodes] + sink_lengths, axis=1)
        frontier = frontier[dist[frontier] <= sink_dist.max()]
        if not len(frontier):
            break
        reached = np.zeros(count + 1, dtype=bool)
        reached[neighbors[frontier]] = True
        fell = np.zeros(count, dtype=bool)
        for rows in _blocks(np.flatnonzero(reached[:count])):
            nbrs = neighbors[rows]
            through = dist[nbrs] + lengths[rows]
            j = np.argmin(through, axis=1)
            pulled = through[np.arange(len(rows)), j]
            down = pulled < dist[rows]
            fallen = rows[down]
            dist[fallen] = pulled[down]
            prev[fallen] = nbrs[down, j[down]]
            fell[fallen] = True
        frontier = np.flatnonzero(fell)
    if not np.all(np.isfinite(sink_dist)):
        raise NoPath("no lattice route from start to goal")
    tight = dist[sink_nodes] + sink_lengths == sink_dist[:, np.newaxis]
    nearest = np.argmin(np.where(tight, dist[sink_nodes], np.inf), axis=1)
    prev[count + 1 :] = sink_nodes[np.arange(len(sink_edges)), nearest]
    return prev.tolist()


def _deduped_polyline(points: list) -> GeodesicPolyline:
    """``GeodesicPolyline.of`` the points, less each point that coincides
    with the last one kept (a start or goal may sit on a lattice node).

    Consecutive distances are computed in one row block; a point after a
    dropped one is compared with the last kept point instead, on its
    own. The length is the left-to-right sum ``of`` takes.
    """
    phi = np.array([pt.phi for pt in points])
    steps = manifold.geodesic_distance_rows(phi[:-1], phi[1:]).tolist()
    kept, segments = [0], []
    for i in range(1, len(points)):
        d = steps[i - 1]
        if kept[-1] != i - 1:
            d = manifold.geodesic_distance_exact(points[kept[-1]], points[i])
        if d > 1e-14:
            kept.append(i)
            segments.append(d)
    return GeodesicPolyline(tuple(points[i] for i in kept), sum(segments), tuple(segments))


def _downsample(pts: list, keep: int) -> list:
    """Evenly spaced subset including both endpoints (never lengthens)."""
    if len(pts) <= keep:
        return pts
    idx = np.unique(np.round(np.linspace(0, len(pts) - 1, keep)).astype(int))
    return [pts[i] for i in idx]


def refine_polyline(polylines, levels: int) -> list[GeodesicPolyline]:
    """Hierarchical coarse-to-fine tightening of approximate geodesics.

    Each raw lattice path is first thinned to a coarse polyline of at
    most COARSE_POINTS points (dropping points never increases length),
    then each level inserts geodesic midpoints between consecutive points
    and relaxes every interior point to the geodesic midpoint of its
    neighbors, the minimizer of the local two-segment length, in
    RELAX_PASSES sweeps (before each level and after the last). Relaxing
    at coarse resolution first removes the low-frequency bowing a lattice
    path carries, which plain fine-level relaxation is slow to shed.

    Polylines of the same coarse point count are refined together as
    one (polylines, points, n) phi block: each step of the relaxation
    sets a strided set of interior points of every polyline in one row
    operation (see ``_relax``), so each polyline has the bits it has
    when refined alone, one point at a time. A polyline that refinement
    would lengthen, that has fewer than 2 points, or any polyline when
    ``levels`` is 0, comes back as the same object; a refined one keeps
    its endpoint objects.
    """
    refined = list(polylines)
    if levels == 0:
        return refined
    groups: dict[int, list[int]] = {}  # coarse point count -> polylines
    coarse = {}
    for i, poly in enumerate(refined):
        if len(poly.points) >= 2:
            coarse[i] = _downsample(list(poly.points), COARSE_POINTS)
            groups.setdefault(len(coarse[i]), []).append(i)
    for members in groups.values():
        phi = np.array([[pt.phi for pt in coarse[i]] for i in members])
        for _ in range(levels):
            _relax(phi, RELAX_PASSES)
            mids = manifold.geodesic_point_rows(phi[:, :-1], phi[:, 1:], 0.5)
            subdivided = np.empty((len(members), 2 * phi.shape[1] - 1, phi.shape[2]))
            subdivided[:, ::2] = phi
            subdivided[:, 1::2] = mids
            phi = subdivided
        _relax(phi, RELAX_PASSES)
        segments = manifold.geodesic_distance_rows(phi[:, :-1], phi[:, 1:])
        for i, rows, lengths in zip(members, phi, segments.tolist()):
            length = sum(lengths)  # as GeodesicPolyline.of sums
            if length > refined[i].length + 1e-12:
                continue
            first, last = coarse[i][0], coarse[i][-1]
            interior = (LogDistribution(row) for row in rows[1:-1])
            refined[i] = GeodesicPolyline((first, *interior, last), length, tuple(lengths))
    return refined


def _relax(phi: np.ndarray, passes: int) -> None:
    """Gauss-Seidel sweeps over a (polylines, points, n) block in place:
    each interior point becomes the midpoint of its neighbours.

    Pass p sets point i after point i - 1 of pass p and after point
    i + 1 of pass p - 1, so the sweeps advance on a wavefront: step t
    sets every point i = t - 2p at once, each from points set at step
    t - 1, and each point gets the bits of the sequential sweeps.
    """
    last = phi.shape[1] - 2  # the last interior point
    for t in range(1, last + 2 * passes - 1):
        lo = max(t - 2 * (passes - 1), 2 - t % 2)  # the parity of t
        hi = min(t, last)
        if lo <= hi:
            phi[:, lo : hi + 1 : 2] = manifold.geodesic_point_rows(
                phi[:, lo - 1 : hi : 2], phi[:, lo + 1 : hi + 2 : 2], 0.5
            )


def sample_exact_ray(
    base: LogDistribution, direction: TangentVector, length: float
) -> GeodesicPolyline:
    """Closed-form geodesic polyline of the given arc length: the points
    exp_map(base, direction, t) at RAY_SEGMENTS + 1 evenly spaced t, in
    one row block."""
    return _exact_rays(base, direction.f[np.newaxis], length)[0]


def _exact_rays(base: LogDistribution, f: np.ndarray, length: float):
    """``sample_exact_ray`` along each row of tangents ``f``, bit for bit:
    every ray's moving points are one ``exp_map_rows`` block, and every
    segment's length comes from one ``geodesic_distance_rows`` block."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    ts = np.linspace(0.0, length, RAY_SEGMENTS + 1)
    moving = np.flatnonzero(ts)  # time 0 is the base itself
    phi = np.broadcast_to(base.phi, (len(f), len(ts), base.n)).copy()
    if len(moving):
        # a zero speed, as TangentVector.norm takes it: a sum of
        # nonnegative terms is zero exactly when each term is
        if np.any(np.sum(f * f * base.p, axis=-1) == 0):
            raise ZeroTangent("cannot advance along a zero tangent vector")
        # one row per ray and moving time, each with its own time
        rows = manifold.exp_map_rows(
            base, np.repeat(f, len(moving), axis=0), np.tile(ts[moving], len(f))[:, None]
        )
        phi[:, moving] = rows.reshape(len(f), len(moving), base.n)
    lengths = manifold.geodesic_distance_rows(phi[:, :-1], phi[:, 1:]).tolist()
    polys = []
    for rows, segs in zip(phi, lengths):
        points = [base if t == 0 else LogDistribution(row) for t, row in zip(ts, rows)]
        polys.append(GeodesicPolyline(tuple(points), sum(segs), tuple(segs)))
    return polys


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
    chart: Chart, params: StepParams, rng: np.random.Generator
) -> list[GeodesicRay]:
    """Rays from the chart base covering the promise-ascent cone.

    Above EXACT_RAYS_THRESHOLD samples the polylines come from the
    closed-form flow; otherwise each ray is a refined lattice path to a
    boundary goal: one search from the chart base finds every ray's
    path, and one refinement call tightens them all.
    """
    length = chart.radius
    cdirs = _ray_coord_directions(chart.dim, params.ray_count, rng)
    if chart.base.n > EXACT_RAYS_THRESHOLD:
        polys = _exact_rays(chart.base, chart._tangent_rows(np.array(cdirs)), length)
    else:
        raws = dijkstra_geodesic(
            chart,
            np.zeros(chart.dim),
            [length * cdir for cdir in cdirs],
            params.grid_resolution,
        )
        polys = refine_polyline(raws, params.refinement_levels)
    return [GeodesicRay(origin=chart.base, polyline=poly) for poly in polys]


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
    for a, b, seg in zip(pts, pts[1:], ray.polyline.segments):
        if walked + seg >= gamma - 1e-12:
            frac = 0.0 if seg == 0 else (gamma - walked) / seg
            return manifold.geodesic_point(a, b, min(max(frac, 0.0), 1.0))
        walked += seg
    return pts[-1]
