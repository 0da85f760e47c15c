"""Stochastic zero-barrier chains and the minimum-deviation safety filter.

A scalar state constraint h0 >= 0 with no direct control influence is lifted
level by level,

    h_{k+1}(x) = grad(h_k) . g(x) + 0.5 tr(sigma^T B^T hess(h_k) B sigma) + h_k(x),

until the control shows up (grad(h_r) . B != 0). Enforcing

    grad(h_r) . (g + B u) + 0.5 tr(sigma^T B^T hess(h_r) B sigma) >= -h_r

keeps every level of the chain non-negative along the closed loop. The filter
projects a nominal control onto these halfspaces in the Euclidean norm.

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
    "ZcbfChain",
    "AffineConstraint",
    "SafetyInfeasible",
    "chain_lift",
    "detect_relative_degree",
    "build_chain",
    "constraint_coeffs",
    "lower_degree_terms",
    "safety_filter",
    "in_safe_set",
]

_FD_STEP = 1e-5


@dataclass
class BarrierFunction:
    """Scalar state function with consistent gradient and hessian callables."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_value(
        cls, fn: Callable[[np.ndarray], float], fd_step: float = _FD_STEP
    ) -> "BarrierFunction":
        """Wrap a value callable with central finite-difference derivatives."""

        def gradient(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            g = np.empty(x.shape[0])
            for i in range(x.shape[0]):
                e = np.zeros_like(x)
                e[i] = fd_step
                g[i] = (fn(x + e) - fn(x - e)) / (2 * fd_step)
            return g

        def hessian(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            n = x.shape[0]
            h = np.empty((n, n))
            f0 = fn(x)
            for i in range(n):
                ei = np.zeros_like(x)
                ei[i] = fd_step
                h[i, i] = (fn(x + ei) - 2 * f0 + fn(x - ei)) / fd_step**2
                for j in range(i + 1, n):
                    ej = np.zeros_like(x)
                    ej[j] = fd_step
                    hij = (
                        fn(x + ei + ej)
                        - fn(x + ei - ej)
                        - fn(x - ei + ej)
                        + fn(x - ei - ej)
                    ) / (4 * fd_step**2)
                    h[i, j] = h[j, i] = hij
            return h

        return cls(value=fn, gradient=gradient, hessian=hessian)

    @classmethod
    def circle(
        cls,
        center: Sequence[float],
        radius: float,
        margin: float = 0.0,
        state_dim: int = 4,
        pos_idx: tuple[int, int] = (0, 1),
    ) -> "BarrierFunction":
        """Disc keep-out barrier on two position coordinates.

        h(x) = (x - cx)^2 + (y - cy)^2 - (radius + margin)^2, analytic
        derivatives; all other state coordinates are ignored.
        """
        cx, cy = float(center[0]), float(center[1])
        rr = (float(radius) + float(margin)) ** 2
        ix, iy = pos_idx

        def value(x: np.ndarray) -> float:
            return float((x[ix] - cx) ** 2 + (x[iy] - cy) ** 2 - rr)

        def gradient(x: np.ndarray) -> np.ndarray:
            g = np.zeros(state_dim)
            g[ix] = 2.0 * (x[ix] - cx)
            g[iy] = 2.0 * (x[iy] - cy)
            return g

        def hessian(x: np.ndarray) -> np.ndarray:
            h = np.zeros((state_dim, state_dim))
            h[ix, ix] = 2.0
            h[iy, iy] = 2.0
            return h

        return cls(value=value, gradient=gradient, hessian=hessian)


def chain_lift(
    h: BarrierFunction, dyn: ControlAffineDynamics, fd_step: float = _FD_STEP
) -> BarrierFunction:
    """One lift of the chain recursion.

    The lifted value is exact given h's derivatives; the lifted gradient and
    hessian fall back to finite differences of that value (the drift Jacobian
    and third derivatives of h are not otherwise available).
    """

    def value(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        b = np.asarray(dyn.control_matrix(x), dtype=float)
        bs = b @ dyn.noise_cov
        trace = 0.5 * float(np.einsum("ip,ij,jp->", bs, h.hessian(x), bs))
        return float(h.gradient(x) @ dyn.drift(x)) + trace + h.value(x)

    return BarrierFunction.from_value(value, fd_step=fd_step)


@dataclass
class ZcbfChain:
    """Lifted barrier levels h_0 ... h_r for one constraint and one system."""

    levels: list[BarrierFunction]
    dyn: ControlAffineDynamics

    @property
    def relative_degree(self) -> int:
        return len(self.levels) - 1

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.array([h.value(x) for h in self.levels])


def detect_relative_degree(
    h0: BarrierFunction,
    dyn: ControlAffineDynamics,
    sample_states: np.ndarray,
    tol: float = 1e-9,
    max_degree: int = 4,
) -> int:
    """Least r with grad(h_r) . B nonzero at some sampled state."""
    sample_states = np.atleast_2d(np.asarray(sample_states, dtype=float))
    h = h0
    for r in range(max_degree + 1):
        coupling = 0.0
        for x in sample_states:
            b = np.asarray(dyn.control_matrix(x), dtype=float)
            coupling = max(coupling, float(np.max(np.abs(h.gradient(x) @ b))))
        if coupling > tol:
            return r
        h = chain_lift(h, dyn)
    raise ValueError(
        f"no control coupling found up to chain degree {max_degree}; "
        "the constraint may be structurally uncontrollable"
    )


def build_chain(
    h0: BarrierFunction,
    dyn: ControlAffineDynamics,
    sample_states: np.ndarray,
    tol: float = 1e-9,
    max_degree: int = 4,
) -> ZcbfChain:
    """Lift h0 until the control appears; returns all levels h_0..h_r."""
    r = detect_relative_degree(h0, dyn, sample_states, tol, max_degree)
    levels = [h0]
    for _ in range(r):
        levels.append(chain_lift(levels[-1], dyn))
    return ZcbfChain(levels=levels, dyn=dyn)


@dataclass(frozen=True)
class AffineConstraint:
    """Halfspace a . u >= b in control space."""

    a: np.ndarray
    b: float
    source: str = ""


def constraint_coeffs(chain: ZcbfChain, x: np.ndarray) -> AffineConstraint:
    """Top-level chain constraint at x as a halfspace on u.

    a = B^T grad(h_r), b = -h_r - grad(h_r).g - 0.5 tr(sigma^T B^T hess(h_r) B sigma).
    """
    x = np.asarray(x, dtype=float)
    h_r = chain.levels[-1]
    dyn = chain.dyn
    grad = h_r.gradient(x)
    b_mat = np.asarray(dyn.control_matrix(x), dtype=float)
    bs = b_mat @ dyn.noise_cov
    trace = 0.5 * float(np.einsum("ip,ij,jp->", bs, h_r.hessian(x), bs))
    a = b_mat.T @ grad
    b = -h_r.value(x) - float(grad @ dyn.drift(x)) - trace
    return AffineConstraint(a=a, b=b, source="chain_top")


def lower_degree_terms(
    chain: ZcbfChain, x: np.ndarray, tol: float = 1e-9
) -> list[AffineConstraint]:
    """Control couplings of the levels below r.

    The chain construction assumes grad(h_k) . B = 0 for k < r; when a sampled
    state violates that, each nonzero coupling is enforced as a . u >= 0 so the
    lower levels cannot be driven down through the control.
    """
    x = np.asarray(x, dtype=float)
    b_mat = np.asarray(chain.dyn.control_matrix(x), dtype=float)
    out = []
    for k, h in enumerate(chain.levels[:-1]):
        a = b_mat.T @ h.gradient(x)
        if np.max(np.abs(a)) > tol:
            out.append(AffineConstraint(a=a, b=0.0, source=f"level_{k}"))
    return out


def in_safe_set(chain: ZcbfChain, x: np.ndarray) -> bool:
    """True when every chain level is non-negative at x."""
    return bool(np.all(chain.values(x) >= 0.0))


_FEAS_TOL = 1e-9


def safety_filter(
    u_star: np.ndarray,
    constraints: Sequence[AffineConstraint],
    tol: float = _FEAS_TOL,
) -> np.ndarray:
    """Euclidean projection of u_star onto the intersection of halfspaces.

    Exact for small constraint counts: an optimal active set of size <= P
    always exists, so all candidate subsets are solved in closed form and the
    best KKT-consistent one wins. A feasible u_star is returned unchanged.
    Raises SafetyInfeasible with a minimal conflicting subset when the
    intersection is empty.
    """
    u_star = np.asarray(u_star, dtype=float)
    if not np.all(np.isfinite(u_star)):
        raise ValueError("nominal control must be finite")
    if not constraints:
        return u_star
    a_mat = np.array([c.a for c in constraints], dtype=float)
    b_vec = np.array([c.b for c in constraints], dtype=float)
    if a_mat.shape[1] != u_star.shape[0]:
        raise ValueError("constraint dimension mismatch")
    if np.any(np.linalg.norm(a_mat, axis=1) < 1e-14):
        bad = [i for i, row in enumerate(a_mat) if np.linalg.norm(row) < 1e-14]
        if np.any(b_vec[bad] > 0):
            raise SafetyInfeasible(
                "zero-normal constraint with positive offset", bad
            )
        keep = [i for i in range(len(constraints)) if i not in bad]
        a_mat, b_vec = a_mat[keep], b_vec[keep]
        if a_mat.shape[0] == 0:
            return u_star
    residual = a_mat @ u_star - b_vec
    if np.all(residual >= -tol):
        return u_star

    p = u_star.shape[0]
    m = a_mat.shape[0]
    best: np.ndarray | None = None
    best_dist = np.inf
    # Subsets in lexicographic order so distance ties resolve to lowest ids.
    for size in range(1, min(p, m) + 1):
        for subset in combinations(range(m), size):
            a_s = a_mat[list(subset)]
            gram = a_s @ a_s.T
            try:
                mu = np.linalg.solve(gram, b_vec[list(subset)] - a_s @ u_star)
            except np.linalg.LinAlgError:
                continue
            if np.any(mu < -tol):
                continue
            u = u_star + a_s.T @ mu
            if np.all(a_mat @ u - b_vec >= -tol):
                d = float(np.linalg.norm(u - u_star))
                if d < best_dist - 1e-15:
                    best, best_dist = u, d
    if best is not None:
        return best

    # Empty intersection: report a minimal infeasible subset (Helly: size <= P+1).
    for size in range(2, min(p + 1, m) + 1):
        for subset in combinations(range(m), size):
            if not _halfspaces_feasible(a_mat[list(subset)], b_vec[list(subset)], tol):
                raise SafetyInfeasible(
                    "barrier constraints have empty intersection",
                    subset,
                )
    raise SafetyInfeasible(
        "barrier constraints have empty intersection", tuple(range(m))
    )


def _halfspaces_feasible(a_mat: np.ndarray, b_vec: np.ndarray, tol: float) -> bool:
    """Feasibility of {u : A u >= b} via projection of the origin onto it."""
    p = a_mat.shape[1]
    m = a_mat.shape[0]
    if np.all(-b_vec >= -tol):
        return True
    for size in range(1, min(p, m) + 1):
        for subset in combinations(range(m), size):
            a_s = a_mat[list(subset)]
            gram = a_s @ a_s.T
            try:
                mu = np.linalg.solve(gram, b_vec[list(subset)])
            except np.linalg.LinAlgError:
                continue
            if np.any(mu < -tol):
                continue
            u = a_s.T @ mu
            if np.all(a_mat @ u - b_vec >= -tol):
                return True
    return False
