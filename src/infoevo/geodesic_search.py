"""Numerical geodesic finding over the distribution space.

Search runs in a low-dimensional chart anchored at the current promise
distribution: geodesic normal coordinates along a promise-ascent
direction plus random orthonormal directions. Within the chart, shortest
paths on a lattice built in array blocks are found by array relaxation
(``lattice_predecessors``: the least fixed point of the distances, each
predecessor set where a distance falls, and each goal entered from its
nearest corner on a shortest edge) and are tightened by hierarchical
midpoint refinement. Every search starts at the lattice origin, whose
node is the chart base itself, and every ray starts at the base, so one
search serves all of a chart's rays, and a chart's rays are then
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
    """Orthonormal tangent frame at a base distribution: ``frame`` is a
    read-only d-by-n block, one tangent row per chart direction."""

    base: LogDistribution
    frame: np.ndarray
    radius: float
    degenerate_ascent: bool = False  # promise-ascent direction vanished

    @property
    def dim(self) -> int:
        return len(self.frame)

    def tangent(self, coords) -> TangentVector:
        return TangentVector(self._tangent_rows(coords), self.base)

    def _tangent_rows(self, coords) -> np.ndarray:
        """Tangent f of each row of chart coordinates (last axis)."""
        coords = np.asarray(coords, dtype=float)
        f = np.zeros(coords.shape[:-1] + (self.base.n,))
        for j, u in enumerate(self.frame):
            f = f + coords[..., j, np.newaxis] * u
        return f

    def point(self, coords) -> LogDistribution:
        """Map chart coordinates to the distribution space.

        Distance from the base equals the Euclidean norm of the
        coordinates (geodesic normal coordinates). Coordinates whose
        tangent's length is 0, or underflows to 0, map to the base.
        """
        v = self.tangent(coords)
        if v.norm == 0.0:
            return self.base
        return manifold.exp_map(self.base, v, 1.0)

    def point_rows(self, coords) -> np.ndarray:
        """phi of ``point`` at each row of nonzero chart coordinates,
        with the bits of ``point`` at that row alone."""
        return manifold.exp_map_rows(self.base, self._tangent_rows(coords), 1.0)


@dataclass(frozen=True)
class GeodesicPolyline:
    """Points joined by geodesic segments: ``phi`` is a read-only
    points-by-n block, one phi row per point. ``segments[i]`` is the
    distance from point i to point i + 1 and ``length`` their
    left-to-right sum."""

    phi: np.ndarray
    length: float
    segments: tuple[float, ...]


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
    frame = np.array(directions)
    frame.flags.writeable = False
    return Chart(base=base, frame=frame, radius=float(radius), degenerate_ascent=degenerate)


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

    def cell_corners(self, coords: np.ndarray) -> np.ndarray:
        """Nodes at the in-bounds corners of the lattice cell holding a
        chart point, in key order.

        For a point within the chart radius, the corner nearest zero has
        |k_i| <= |c_i| / spacing in every axis, so it is always one.
        """
        lo = np.floor(coords / self.spacing).astype(int)
        cell = np.array(list(itertools.product((0, 1), repeat=self.chart.dim)))
        nodes = self._index[self._at(lo + cell)]
        return nodes[nodes >= 0]


def _blocks(rows: np.ndarray):
    for s in range(0, len(rows), _Lattice.BLOCK_ROWS):
        yield rows[s : s + _Lattice.BLOCK_ROWS]


def dijkstra_geodesic(chart: Chart, goals, resolution: int) -> list[GeodesicPolyline]:
    """Shortest lattice paths from the chart base to each goal point.

    The lattice is a uniform grid in chart coordinates (8-connected in
    2-d, 26-connected in 3-d) with edge weights given by the exact
    pairwise geodesic distance of the mapped distributions. The search
    starts at the lattice origin, whose node is the base itself. Each
    goal is a sink of its own, entered from the corners of its cell and
    never left, so one search serves every goal with a shortest lattice
    path to it.

    ``lattice_predecessors`` finds the paths by array relaxation: the
    distances are the least fixed point, bit for bit those of a Dijkstra
    search, a node's predecessor is set where its distance falls, and a
    goal is entered from the nearest of its corners on a shortest edge.
    The function keeps its name because the benchmark's layer probes
    (``perfbench/layers.py``) wrap and count it by name.
    """
    goals = [np.asarray(g, dtype=float) for g in goals]
    for goal in goals:
        if float(np.linalg.norm(goal)) > chart.radius * (1 + 1e-9):
            raise GoalOutsideChart("goal point lies outside the chart radius")
    at_base = GeodesicPolyline(chart.base.phi[np.newaxis], 0.0, ())
    paths = [at_base if np.allclose(goal, 0) else None for goal in goals]
    searched = [i for i, path in enumerate(paths) if path is None]
    if not searched:
        return paths

    lattice = _Lattice(chart, resolution)
    sink_phi = [chart.point(goals[i]).phi for i in searched]
    sink_edges = []
    for i, phi in zip(searched, sink_phi):
        corners = lattice.cell_corners(goals[i])
        sink_edges.append((corners, manifold.geodesic_distance_rows(lattice.phi[corners], phi)))
    prev = lattice_predecessors(lattice.neighbors, lattice.lengths, lattice.origin, sink_edges)
    # search nodes: lattice nodes, then each sink
    for sink, (i, phi) in enumerate(zip(searched, sink_phi), len(lattice.keys)):
        path = [prev[sink]]
        while path[-1] != lattice.origin:
            path.append(prev[path[-1]])
        paths[i] = _lattice_polyline(lattice.phi[path[::-1]], phi)
    return paths


def lattice_predecessors(neighbors, lengths, origin: int, sink_edges) -> list[int]:
    """Each node's predecessor on a shortest path from the origin.

    Nodes 0 .. count - 1 are lattice nodes, the search starts at node
    ``origin`` and node count + s is sink s. Lattice node i's j-th edge
    leads to ``neighbors[i, j]`` (-1 for none) and is ``lengths[i, j]``
    long; edges come in pairs, ``neighbors[neighbors[i, j], width - 1 -
    j]`` being i at the same length. ``sink_edges[s]`` is the edges that
    enter sink s, which no edge leaves, as a (lattice nodes, lengths)
    pair of arrays. Entries off the sinks' paths are unspecified. Raises
    NoPath when a sink cannot be reached.

    Seeded with the origin at distance 0, each sweep pulls min(D[v],
    D[u] + lengths[v, j]) into the nodes next to those whose distance
    fell in the last sweep, until none falls. Float addition is
    monotone, so this least fixed point is the distances of a Dijkstra
    search, bit for bit, and a node farther than every sink's tentative
    distance need not pull further. ``prev[v]`` is set to u where D[v]
    falls to D[u] + length: lengths are nonnegative, so these edges form
    no cycle (Bellman-Ford's predecessor graph is a tree), and on each
    sink's path every distance is its predecessor's plus the edge. A
    sink is entered from the nearest of its tight entries, the first in
    list order among equals.
    """
    count = len(neighbors)
    # dist[-1] stays inf: the entry every -1 neighbour reads
    dist = np.full(count + 1, np.inf)
    prev = np.full(count + len(sink_edges), -1)
    dist[origin] = 0.0
    frontier = np.array([origin])
    entries = max(len(nodes) for nodes, _ in sink_edges)
    sink_nodes = np.full((len(sink_edges), entries), -1)
    sink_lengths = np.full((len(sink_edges), entries), np.inf)
    for s, (nodes, entry_lengths) in enumerate(sink_edges):
        sink_nodes[s, : len(nodes)] = nodes
        sink_lengths[s, : len(nodes)] = entry_lengths

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
        raise NoPath("no lattice route from the origin to a goal")
    tight = dist[sink_nodes] + sink_lengths == sink_dist[:, np.newaxis]
    nearest = np.argmin(np.where(tight, dist[sink_nodes], np.inf), axis=1)
    prev[count:] = sink_nodes[np.arange(len(sink_edges)), nearest]
    return prev.tolist()


def _lattice_polyline(nodes: np.ndarray, goal: np.ndarray) -> GeodesicPolyline:
    """The polyline through a lattice path's node rows, from the
    origin's, and then the goal's row, unless it equals the last node's
    bit for bit (a goal on a lattice node), in a read-only block.

    The segments are computed in one row block, and the length is their
    left-to-right sum, a float also for a path of one point.
    """
    if nodes[-1].tobytes() != goal.tobytes():
        nodes = np.vstack([nodes, goal])
    segments = manifold.geodesic_distance_rows(nodes[:-1], nodes[1:]).tolist()
    nodes.flags.writeable = False
    return GeodesicPolyline(nodes, sum(segments, 0.0), tuple(segments))


def _downsample(pts, keep: int) -> list:
    """Every point, or ``keep`` evenly spaced ones with both endpoints."""
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
    when refined alone, one point at a time. A refined polyline's ``phi``
    is its read-only rows of that block, whose first and last rows are
    its endpoints' rows, bit for bit. A polyline that refinement would
    lengthen, that has fewer than 2 points, or any polyline when
    ``levels`` is 0, comes back as the same object.
    """
    refined = list(polylines)
    if levels == 0:
        return refined
    groups: dict[int, list[int]] = {}  # coarse point count -> polylines
    coarse = {}
    for i, poly in enumerate(refined):
        if len(poly.phi) >= 2:
            coarse[i] = _downsample(poly.phi, COARSE_POINTS)
            groups.setdefault(len(coarse[i]), []).append(i)
    for members in groups.values():
        phi = np.array([coarse[i] for i in members])
        for _ in range(levels):
            _relax(phi, RELAX_PASSES)
            mids = manifold.geodesic_point_rows(phi[:, :-1], phi[:, 1:], 0.5)
            subdivided = np.empty((len(members), 2 * phi.shape[1] - 1, phi.shape[2]))
            subdivided[:, ::2] = phi
            subdivided[:, 1::2] = mids
            phi = subdivided
        _relax(phi, RELAX_PASSES)
        phi.flags.writeable = False
        segments = manifold.geodesic_distance_rows(phi[:, :-1], phi[:, 1:])
        for i, rows, lengths in zip(members, phi, segments.tolist()):
            length = sum(lengths)
            if length <= refined[i].length + 1e-12:
                refined[i] = GeodesicPolyline(rows, length, tuple(lengths))
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


def _exact_rays(base: LogDistribution, f: np.ndarray, length: float):
    """Closed-form geodesic polylines of the given arc length, one along
    each row of tangents ``f``: the points exp_map(base, row, t) at
    RAY_SEGMENTS + 1 evenly spaced t, each with the bits of that one
    ``exp_map`` call. The polylines' rows are one read-only block, its
    moving points one ``exp_map_rows`` call, and every segment's length
    comes from one ``geodesic_distance_rows`` block."""
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
    phi.flags.writeable = False
    lengths = manifold.geodesic_distance_rows(phi[:, :-1], phi[:, 1:]).tolist()
    return [GeodesicPolyline(rows, sum(segs), tuple(segs)) for rows, segs in zip(phi, lengths)]


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
        raws = dijkstra_geodesic(chart, [length * cdir for cdir in cdirs], params.grid_resolution)
        polys = refine_polyline(raws, params.refinement_levels)
    return [GeodesicRay(origin=chart.base, polyline=poly) for poly in polys]


def step_along(ray: GeodesicRay, gamma: float) -> LogDistribution:
    """Point at arc length gamma along the ray's polyline."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0:
        return ray.origin
    phi = ray.polyline.phi
    if gamma > ray.polyline.length + 1e-9:
        raise GammaExceedsRay(
            f"gamma {gamma} exceeds polyline length {ray.polyline.length}"
        )
    walked = 0.0
    for i, seg in enumerate(ray.polyline.segments):
        if walked + seg >= gamma - 1e-12:
            frac = 0.0 if seg == 0 else (gamma - walked) / seg
            a, b = LogDistribution(phi[i]), LogDistribution(phi[i + 1])
            return manifold.geodesic_point(a, b, min(max(frac, 0.0), 1.0))
        walked += seg
    return LogDistribution(phi[-1])
