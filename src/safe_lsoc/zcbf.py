"""Stochastic zero-barrier chains and the minimum-deviation safety filter.

A scalar state constraint h0 >= 0 with no direct control influence is lifted
level by level,

    h_{k+1}(x) = grad(h_k) . g(x) + 0.5 tr(sigma^T B^T hess(h_k) B sigma) + h_k(x),

until the control shows up (grad(h_r) . B != 0). Enforcing

    grad(h_r) . (g + B u) + 0.5 tr(sigma^T B^T hess(h_r) B sigma) >= -h_r

keeps every level of the chain non-negative along the closed loop. The filter
projects a nominal control onto these halfspaces, given as arrays A u >= b,
in the Euclidean norm.

The closed loop takes its disc half-spaces from the closed form
scenarios.disc_barriers; the finite-difference chain here is the general
construction and the oracle those closed forms are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .sde import ControlAffineDynamics, SafetyInfeasible

__all__ = [
    "BarrierFunction",
    "SafetyInfeasible",
    "chain_lift",
    "detect_relative_degree",
    "constraint_coeffs",
    "safety_filter",
]

_FD_STEP = 1e-5
_COUPLING_TOL = 1e-9  # detect_relative_degree: least |grad(h_r) . B| that counts
_MAX_DEGREE = 4


@dataclass
class BarrierFunction:
    """Scalar state function with consistent gradient and hessian callables."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_value(cls, fn: Callable[[np.ndarray], float]) -> "BarrierFunction":
        """Wrap a value callable with central finite-difference derivatives."""

        def gradient(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            g = np.empty(x.shape[0])
            for i in range(x.shape[0]):
                e = np.zeros_like(x)
                e[i] = _FD_STEP
                g[i] = (fn(x + e) - fn(x - e)) / (2 * _FD_STEP)
            return g

        def hessian(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            n = x.shape[0]
            h = np.empty((n, n))
            f0 = fn(x)
            for i in range(n):
                ei = np.zeros_like(x)
                ei[i] = _FD_STEP
                h[i, i] = (fn(x + ei) - 2 * f0 + fn(x - ei)) / _FD_STEP**2
                for j in range(i + 1, n):
                    ej = np.zeros_like(x)
                    ej[j] = _FD_STEP
                    hij = (
                        fn(x + ei + ej)
                        - fn(x + ei - ej)
                        - fn(x - ei + ej)
                        + fn(x - ei - ej)
                    ) / (4 * _FD_STEP**2)
                    h[i, j] = h[j, i] = hij
            return h

        return cls(value=fn, gradient=gradient, hessian=hessian)

    @classmethod
    def circle(
        cls, center: Sequence[float], radius: float, margin: float = 0.0
    ) -> "BarrierFunction":
        """Disc keep-out barrier on the position coordinates x[0], x[1].

        h(x) = (x - cx)^2 + (y - cy)^2 - (radius + margin)^2, analytic
        derivatives sized to the state; all other coordinates are ignored.
        """
        cx, cy = float(center[0]), float(center[1])
        rr = (float(radius) + float(margin)) ** 2

        def value(x: np.ndarray) -> float:
            return float((x[0] - cx) ** 2 + (x[1] - cy) ** 2 - rr)

        def gradient(x: np.ndarray) -> np.ndarray:
            g = np.zeros(len(x))
            g[0] = 2.0 * (x[0] - cx)
            g[1] = 2.0 * (x[1] - cy)
            return g

        def hessian(x: np.ndarray) -> np.ndarray:
            h = np.zeros((len(x), len(x)))
            h[0, 0] = h[1, 1] = 2.0
            return h

        return cls(value=value, gradient=gradient, hessian=hessian)


def chain_lift(h: BarrierFunction, dyn: ControlAffineDynamics) -> BarrierFunction:
    """One lift of the chain recursion.

    The lifted value is exact given h's derivatives; the lifted gradient and
    hessian fall back to finite differences of that value (the drift Jacobian
    and third derivatives of h are not otherwise available).
    """

    bs = dyn.control_matrix @ dyn.noise_cov

    def value(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        trace = 0.5 * float(np.einsum("ip,ij,jp->", bs, h.hessian(x), bs))
        return float(h.gradient(x) @ dyn.drift(x)) + trace + h.value(x)

    return BarrierFunction.from_value(value)


def detect_relative_degree(
    h0: BarrierFunction, dyn: ControlAffineDynamics, sample_states: np.ndarray
) -> int:
    """Least r with grad(h_r) . B nonzero at some sampled state."""
    sample_states = np.atleast_2d(np.asarray(sample_states, dtype=float))
    h = h0
    for r in range(_MAX_DEGREE + 1):
        coupling = max(
            float(np.max(np.abs(h.gradient(x) @ dyn.control_matrix)))
            for x in sample_states
        )
        if coupling > _COUPLING_TOL:
            return r
        h = chain_lift(h, dyn)
    raise ValueError(
        f"no control coupling found up to chain degree {_MAX_DEGREE}; "
        "the constraint may be structurally uncontrollable"
    )


def constraint_coeffs(
    h_r: BarrierFunction, dyn: ControlAffineDynamics, x: np.ndarray
) -> tuple[np.ndarray, float]:
    """Top-level chain constraint a . u >= b at x, for the top level h_r.

    a = B^T grad(h_r), b = -h_r - grad(h_r).g - 0.5 tr(sigma^T B^T hess(h_r) B sigma).
    """
    x = np.asarray(x, dtype=float)
    grad = h_r.gradient(x)
    bs = dyn.control_matrix @ dyn.noise_cov
    trace = 0.5 * float(np.einsum("ip,ij,jp->", bs, h_r.hessian(x), bs))
    a = dyn.control_matrix.T @ grad
    b = -h_r.value(x) - float(grad @ dyn.drift(x)) - trace
    return a, b


# Slack below which a half-space or a multiplier still counts as satisfied.
_FEAS_TOL = 1e-9
# Condition number above which a full active set is parallel up to rounding,
# so its vertex is noise and is not a candidate.
_VERTEX_COND_MAX = 1e12


def safety_filter(
    u_star: np.ndarray, a_mat: np.ndarray, b_vec: np.ndarray
) -> np.ndarray:
    """Euclidean projection of u_star onto the half-spaces a_mat u >= b_vec.

    a_mat is (m, P) and b_vec is (m,), one row per constraint.  A feasible
    u_star is returned unchanged.  A zero-normal row is dropped when its
    offset is non-positive and is fatal otherwise.  Raises SafetyInfeasible
    with a minimal conflicting subset, in the caller's row ids, when the
    intersection is empty.
    """
    u_star = np.asarray(u_star, dtype=float)
    a_mat = np.asarray(a_mat, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    if not np.all(np.isfinite(u_star)):
        raise ValueError("nominal control must be finite")
    if (
        u_star.ndim != 1
        or a_mat.ndim != 2
        or a_mat.shape[1] != u_star.shape[0]
        or b_vec.shape != a_mat.shape[:1]
    ):
        raise ValueError(
            "need u (P,), A (m, P) and b (m,); got "
            f"{u_star.shape}, {a_mat.shape} and {b_vec.shape}"
        )
    zero = np.linalg.norm(a_mat, axis=1) < 1e-14
    fatal = np.flatnonzero(zero & (b_vec > 0))
    if fatal.size:
        raise SafetyInfeasible(
            "zero-normal constraint with positive offset",
            tuple(int(i) for i in fatal),
        )
    keep = np.flatnonzero(~zero)
    a_mat, b_vec = a_mat[keep], b_vec[keep]
    u = _project(u_star, a_mat, b_vec)
    if u is not None:
        return u

    # Empty intersection: the first infeasible subset, smallest first, is
    # minimal (Helly: size <= P+1).  Feasibility is projecting the origin.
    m, p = a_mat.shape
    for size in range(2, min(p + 1, m) + 1):
        for subset in combinations(range(m), size):
            rows = list(subset)
            if _project(np.zeros(p), a_mat[rows], b_vec[rows]) is None:
                raise SafetyInfeasible(
                    "barrier constraints have empty intersection",
                    tuple(int(keep[j]) for j in subset),
                )
    raise SafetyInfeasible(
        "barrier constraints have empty intersection",
        tuple(int(j) for j in keep),
    )


def _project(
    u: np.ndarray, a_mat: np.ndarray, b_vec: np.ndarray
) -> np.ndarray | None:
    """Closest point to u in {v : A v >= b}, or None when the set is empty.

    Exact for small constraint counts: an optimal active set of size <= P
    always exists, so all candidate subsets are solved in closed form and the
    nearest KKT-consistent one wins.
    """
    if np.all(a_mat @ u - b_vec >= -_FEAS_TOL):
        return u
    p = u.shape[0]
    m = a_mat.shape[0]
    best: np.ndarray | None = None
    best_dist = np.inf
    # Subsets in lexicographic order so distance ties resolve to lowest ids.
    for size in range(1, min(p, m) + 1):
        for subset in combinations(range(m), size):
            a_s = a_mat[list(subset)]
            b_s = b_vec[list(subset)]
            try:
                if size == p:
                    # A full active set is a vertex.  Solving A_s v = b_s
                    # keeps its residual at rounding level; the Gram route
                    # squares the conditioning, and a near-parallel pair's
                    # vertex then misses its own half-spaces by > 1e-9.
                    v = np.linalg.solve(a_s, b_s)
                    mu = np.linalg.solve(a_s.T, v - u)
                else:
                    mu = np.linalg.solve(a_s @ a_s.T, b_s - a_s @ u)
                    v = u + a_s.T @ mu
            except np.linalg.LinAlgError:
                continue
            if np.any(mu < -_FEAS_TOL):
                continue
            if np.all(a_mat @ v - b_vec >= -_FEAS_TOL) and not (
                size == p and np.linalg.cond(a_s) > _VERTEX_COND_MAX
            ):
                d = float(np.linalg.norm(v - u))
                if d < best_dist - 1e-15:
                    best, best_dist = v, d
    return best
