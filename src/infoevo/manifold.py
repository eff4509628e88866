"""Log-distributions over the evaluated population and their geometry.

A point of the distribution space is a log-probability vector phi with
sum(exp(phi)) = 1. The inner product at phi weights coordinates by
exp(phi_i); geodesics under the induced metric are computed in closed
form through the sphere embedding p -> 2*sqrt(p), where they become
great-circle arcs. These closed forms double as the oracle for the
grid-based geodesic finder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZeroWeights, LengthMismatch, NegativeWeight, ZeroTangent

EPS_FLOOR = 1e-9  # relative probability floor applied by from_weights
_EXP_CLIP = 1e-30  # absolute floor keeping exp_map outputs loggable


@dataclass(frozen=True)
class LogDistribution:
    """A point of the distribution space: phi_i = log p(s_i)."""

    phi: np.ndarray

    def __post_init__(self):
        arr = np.array(self.phi, dtype=float, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "phi", arr)

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def p(self) -> np.ndarray:
        return np.exp(self.phi)


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector at ``base``: zero expectation under the base weights."""

    f: np.ndarray
    base: LogDistribution

    def __post_init__(self):
        arr = np.array(self.f, dtype=float, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "f", arr)

    @property
    def norm(self) -> float:
        return float(np.sqrt(inner(self.base, self.f, self.f)))


def _check_lengths(*arrays):
    n = len(arrays[0])
    for a in arrays[1:]:
        if len(a) != n:
            raise LengthMismatch(f"expected length {n}, got {len(a)}")


def from_weights(w, eps_floor: float = EPS_FLOOR) -> LogDistribution:
    """Distribution with mass proportional to the weights, floored.

    Each coordinate gets at least eps_floor of the total weight before
    normalization, so phi stays finite even for zero weights.
    """
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        raise AllZeroWeights("empty weight vector")
    if not np.all(np.isfinite(w)):
        raise NegativeWeight("weights must be finite")
    if np.any(w < 0):
        raise NegativeWeight("weights must be nonnegative")
    with np.errstate(over="ignore"):  # an overflowed sum is handled below
        total = w.sum()
    if total <= 0:
        raise AllZeroWeights("at least one weight must be positive")
    if np.isinf(total):  # finite weights whose sum overflows
        w = w / w.max()
        total = w.sum()
    p = np.maximum(w, eps_floor * total)
    p = p / p.sum()
    with np.errstate(divide="ignore"):  # eps_floor=0 legitimately yields -inf
        return LogDistribution(np.log(p))


def uniform(n: int) -> LogDistribution:
    return LogDistribution(np.full(n, -np.log(n)))


def mass(phi) -> float:
    """Total mass sum(exp(phi_i)); equals 1 on the distribution space."""
    return float(np.exp(np.asarray(phi, dtype=float)).sum())


def inner(base: LogDistribution, f, g) -> float:
    """Weighted inner product sum(f_i g_i exp(phi_i)) at the base point."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    _check_lengths(base.phi, f, g)
    return float(np.sum(f * g * base.p))


def differential_F(base: LogDistribution, f) -> float:
    """Differential of the mass functional at the base, applied to f."""
    f = np.asarray(f, dtype=float)
    _check_lengths(base.phi, f)
    return float(np.sum(f * base.p))


def project_tangent(base: LogDistribution, f) -> TangentVector:
    """Remove the normal component, leaving a zero-expectation vector."""
    f = np.asarray(f, dtype=float)
    _check_lengths(base.phi, f)
    return TangentVector(f - differential_F(base, f), base)


def geodesic_distance_exact(a: LogDistribution, b: LogDistribution) -> float:
    """Closed-form geodesic distance 2*arccos(sum sqrt(p_i q_i))."""
    _check_lengths(a.phi, b.phi)
    return float(geodesic_distance_rows(a.phi, b.phi))


def geodesic_distance_rows(phi_a, phi_b) -> np.ndarray:
    """geodesic_distance_exact between paired rows of two phi blocks.

    Each entry has the bits of the distance of that one pair.
    """
    bc = np.sum(np.exp(0.5 * (phi_a + phi_b)), axis=-1)
    return 2.0 * np.arccos(np.clip(bc, 0.0, 1.0))


def exp_map(base: LogDistribution, v: TangentVector, t: float = 1.0) -> LogDistribution:
    """Follow the geodesic from the base with initial velocity v for time t.

    Arc length covered is t * ||v||; exp_map(base, v, 0) is the base.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    _check_lengths(base.phi, v.f)
    speed = v.norm
    if t == 0 or speed == 0:
        if t > 0 and speed == 0:
            raise ZeroTangent("cannot advance along a zero tangent vector")
        return base
    return LogDistribution(exp_map_rows(base, v.f[np.newaxis], t)[0])


def exp_map_rows(base: LogDistribution, f, t=1.0) -> np.ndarray:
    """phi of exp_map(base, TangentVector(row, base), t) for each row of f.

    ``t`` is one time or a column of per-row times. Each row must be
    nonzero; its result has the bits of exp_map for that row alone.
    """
    return _exp_rows(base.phi, f, t)[0]


def _row_norms(w: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (last axis), kept as a column.

    Each norm is that row's own dot product, as np.linalg.norm takes it
    for one contiguous vector, so a row's norm does not depend on its
    block: the stacked 1 x n by n x 1 products of a contiguous copy go
    to the dot that ``row.dot(row)`` calls.
    """
    rows = np.ascontiguousarray(w.reshape(-1, w.shape[-1]))
    dots = np.matmul(rows[:, None, :], rows[:, :, None])
    return np.sqrt(dots).reshape(w.shape[:-1] + (1,))


def _nonzero(norms: np.ndarray) -> np.ndarray:
    """Norms with each zero replaced by 1, to divide a zero row by."""
    return np.where(norms == 0.0, 1.0, norms)


def _exp_rows(phi, f, t):
    """(phi, speed) of exp_map at base ``phi`` for each row of f at time
    t; ``phi`` is one base row, or one base per row of f. A zero row
    comes back at its base, renormalised."""
    sqrt_p = np.exp(0.5 * phi)
    speed = np.sqrt(np.sum(f * f * np.exp(phi), axis=-1, keepdims=True))
    q = 2.0 * sqrt_p
    w = sqrt_p * f  # pushforward to the sphere chart
    theta = t * speed / 2.0
    q_new = np.cos(theta) * q + 2.0 * np.sin(theta) * (w / _nonzero(_row_norms(w)))
    p_new = np.maximum((q_new / 2.0) ** 2, _EXP_CLIP)
    p_new = p_new / p_new.sum(axis=-1, keepdims=True)
    return np.log(p_new), speed


def log_map(base: LogDistribution, target: LogDistribution) -> TangentVector:
    """Inverse of exp_map: exp_map(base, log_map(base, target), 1) = target."""
    _check_lengths(base.phi, target.phi)
    f, zero = _log_rows(base.phi[np.newaxis], target.phi[np.newaxis])
    return TangentVector(np.zeros(base.n) if zero[0, 0] else f[0], base)


def _log_rows(phi_a, phi_b):
    """(f, zero) of log_map for paired rows of two phi blocks: f is the
    tangent at a toward b, and ``zero`` marks the rows whose distance or
    sphere direction is zero, where log_map gives the zero tangent."""
    d = geodesic_distance_rows(phi_a, phi_b)[..., np.newaxis]
    sqrt_p = np.exp(0.5 * phi_a)
    w = 2.0 * np.exp(0.5 * phi_b) - np.cos(d / 2.0) * (2.0 * sqrt_p)
    w_norm = _row_norms(w)
    zero = (d == 0.0) | (w_norm == 0.0)
    # pull back, dq_i = sqrt(p_i) f_i, on the other rows only, so that a
    # zero row divides nothing, as log_map returns before dividing
    w_sphere = d * (w / _nonzero(w_norm))
    f = np.divide(w_sphere, sqrt_p, out=np.zeros_like(w_sphere), where=~zero)
    return f, zero


def geodesic_point(a: LogDistribution, b: LogDistribution, frac: float) -> LogDistribution:
    """Point a fraction of the way from a to b along the geodesic; a
    itself when a and b are too close for log_map to leave a."""
    if frac <= 0:
        return a
    if frac >= 1:
        return b
    _check_lengths(a.phi, b.phi)
    phi = geodesic_point_rows(a.phi[np.newaxis], b.phi[np.newaxis], frac)[0]
    return a if phi.tobytes() == a.phi.tobytes() else LogDistribution(phi)


def geodesic_point_rows(phi_a, phi_b, frac: float) -> np.ndarray:
    """phi of geodesic_point(a, b, frac) between paired rows of two phi
    blocks, for 0 < frac < 1: exp_map(a, log_map(a, b), frac).

    Each row has the bits of that one pair. A degenerate row, whose
    distance, sphere direction or speed is zero, is a's row, where
    log_map gives the zero tangent or exp_map cannot advance.
    """
    f, zero = _log_rows(phi_a, phi_b)
    phi, speed = _exp_rows(phi_a, f, frac)
    return np.where(zero | (speed == 0.0), phi_a, phi)
