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

    @property
    def sqrt_p(self) -> np.ndarray:
        return np.exp(0.5 * self.phi)


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
    bc = float(np.sum(np.exp(0.5 * (a.phi + b.phi))))
    return 2.0 * float(np.arccos(np.clip(bc, 0.0, 1.0)))


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
    q = 2.0 * base.sqrt_p
    w = base.sqrt_p * v.f  # pushforward to the sphere chart
    w_norm = float(np.linalg.norm(w))
    theta = t * speed / 2.0
    q_new = np.cos(theta) * q + 2.0 * np.sin(theta) * (w / w_norm)
    p_new = np.maximum((q_new / 2.0) ** 2, _EXP_CLIP)
    p_new = p_new / p_new.sum()
    return LogDistribution(np.log(p_new))


def log_map(base: LogDistribution, target: LogDistribution) -> TangentVector:
    """Inverse of exp_map: exp_map(base, log_map(base, target), 1) = target."""
    _check_lengths(base.phi, target.phi)
    d = geodesic_distance_exact(base, target)
    if d == 0.0:
        return TangentVector(np.zeros(base.n), base)
    q1 = 2.0 * base.sqrt_p
    q2 = 2.0 * target.sqrt_p
    cos_theta = np.cos(d / 2.0)
    w = q2 - cos_theta * q1
    w_norm = float(np.linalg.norm(w))
    if w_norm == 0.0:
        return TangentVector(np.zeros(base.n), base)
    w_sphere = d * (w / w_norm)
    # pull back: dq_i = sqrt(p_i) f_i
    f = w_sphere / base.sqrt_p
    return TangentVector(f, base)


def geodesic_midpoint(a: LogDistribution, b: LogDistribution) -> LogDistribution:
    return geodesic_point(a, b, 0.5)


def geodesic_point(a: LogDistribution, b: LogDistribution, frac: float) -> LogDistribution:
    """Point a fraction of the way from a to b along the geodesic; a
    itself when a and b are too close for log_map to leave a."""
    if frac <= 0:
        return a
    if frac >= 1:
        return b
    try:
        return exp_map(a, log_map(a, b), frac)
    except ZeroTangent:
        return a
