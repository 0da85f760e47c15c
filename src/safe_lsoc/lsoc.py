"""Path-integral estimation of the desirability function and its control.

The exponential transform Z = exp(-V/lambda) turns the HJB equation of a
control-affine problem with quadratic control cost into a linear PDE when the
noise covariance and control penalty are tied by sigma sigma^T = lambda R^{-1}
(R is implied, never formed).  Z(x) is then an expectation over passive
dynamics (u = 0),

    Z(x) = E[ exp(-S/lambda) ],   S = phi(x_exit) + sum q(x_t) dt,

and the optimal control is read off the first-step noise of the same rollouts:

    u* = (sum_k w_k sigma dw0_k) / (dt sum_k w_k),   w_k = exp(-S_k/lambda).

One estimator, estimate_optimal_control, returns the control and log Z;
callers read Z as exp(log_desirability).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .sde import ControlAffineDynamics, NoiseStream

__all__ = [
    "FirstExitDomain",
    "BoxBoundary",
    "BallBoundary",
    "UnionDomain",
    "LsocProblem",
    "RolloutBatch",
    "ControlEstimate",
    "rollout_batch",
    "estimate_optimal_control",
]


class FirstExitDomain:
    """Interior/boundary classifier for the first-exit problem.

    boundary_mask must be vectorized over leading axes; clamp_exit may move a
    state that overshot the boundary back onto it (used to kill the Euler
    overshoot bias when comparing against grid solutions).
    """

    def boundary_mask(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def clamp_exit(self, x: np.ndarray) -> np.ndarray:
        return x


@dataclass
class BoxBoundary(FirstExitDomain):
    """Exit when any listed coordinate leaves [lower, upper]."""

    dims: tuple[int, ...]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if not (len(self.dims) == len(self.lower) == len(self.upper)):
            raise ValueError("dims, lower, upper must have equal length")
        if np.any(self.lower >= self.upper):
            raise ValueError("box must have positive extent")

    def boundary_mask(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        sub = x[..., list(self.dims)]
        return np.any((sub <= self.lower) | (sub >= self.upper), axis=-1)

    def clamp_exit(self, x: np.ndarray) -> np.ndarray:
        x = np.array(x, dtype=float, copy=True)
        idx = list(self.dims)
        x[..., idx] = np.clip(x[..., idx], self.lower, self.upper)
        return x


@dataclass
class BallBoundary(FirstExitDomain):
    """Exit when the listed coordinates enter a closed ball (e.g. target set)."""

    dims: tuple[int, ...]
    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=float)
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def boundary_mask(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = x[..., list(self.dims)] - self.center
        return np.einsum("...i,...i->...", d, d) <= self.radius**2


@dataclass
class UnionDomain(FirstExitDomain):
    """Union of boundary sets; exit clamping applied by the part that fired."""

    parts: Sequence[FirstExitDomain]

    def boundary_mask(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        mask = np.zeros(x.shape[:-1], dtype=bool)
        for p in self.parts:
            mask |= p.boundary_mask(x)
        return mask

    def clamp_exit(self, x: np.ndarray) -> np.ndarray:
        x = np.array(x, dtype=float, copy=True)
        claimed = np.zeros(x.shape[:-1], dtype=bool)
        for p in self.parts:
            hit = p.boundary_mask(x) & ~claimed
            if np.any(hit):
                x[hit] = p.clamp_exit(x[hit])
                claimed |= hit
        return x


@dataclass
class LsocProblem:
    """First-exit stochastic control problem in linearly-solvable form.

    running_cost must be vectorized over leading state axes; the terminal
    cost goes to the estimator and the grid oracle, so components share one
    problem.  The control penalty is implied by the noise,
    R = lam (sigma sigma^T)^{-1}, so the lambda condition holds by construction.
    """

    dynamics: ControlAffineDynamics
    running_cost: Callable[[np.ndarray], np.ndarray]
    domain: FirstExitDomain
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError("lambda must be positive")


@dataclass
class RolloutBatch:
    """K passive-dynamics rollouts from one start state.

    running_costs[k] is path k's accumulated running cost, before any
    terminal cost; dw0 holds the first-step Brownian increments used for
    control extraction.
    """

    dt: float
    noise_cov: np.ndarray
    dw0: np.ndarray
    exit_states: np.ndarray
    exit_steps: np.ndarray
    running_costs: np.ndarray

    @property
    def n_rollouts(self) -> int:
        return self.dw0.shape[0]


def rollout_batch(
    problem: LsocProblem,
    x0: np.ndarray,
    dt: float,
    horizon: int,
    n_rollouts: int,
    stream: NoiseStream,
) -> RolloutBatch:
    """Integrate K passive rollouts, stopping each at its first boundary hit.

    Rollouts that never exit are evaluated at the horizon state.  Each step
    draws its (K, P) rows from the one generator of `stream`, which equals a
    single (horizon, K, P) draw bit for bit, so the batch is a deterministic
    function of (seed, stream_id).  Only running paths are stepped; an exit
    is written to exit_states once.  The closed loop samples with
    scenarios.subsystem_rollouts, which reproduces this function bit for bit
    for stacked unicycles; this generic form is its oracle and the sampler
    of the grid-oracle toy problems.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < 1:
        raise ValueError("horizon must be at least one step")
    if n_rollouts < 1:
        raise ValueError("need at least one rollout")
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("start state must be finite")
    if bool(problem.domain.boundary_mask(x0)):
        raise ValueError("start state lies on the boundary")

    dyn = problem.dynamics
    m, p = dyn.state_dim, dyn.input_dim
    sigma = dyn.noise_cov
    b_t = dyn.control_matrix.T
    gen = stream.generator()
    scale = np.sqrt(dt)
    dw0 = gen.normal(0.0, scale, size=(n_rollouts, p))

    states = np.broadcast_to(x0, (n_rollouts, m)).copy()  # the running paths
    live = np.arange(n_rollouts)  # their rollout indices
    running = np.zeros(n_rollouts)
    exit_states = np.zeros((n_rollouts, m))
    exit_steps = np.full(n_rollouts, horizon, dtype=int)
    for t in range(horizon):
        dw = gen.normal(0.0, scale, size=(n_rollouts, p))[live] if t else dw0
        q = np.asarray(problem.running_cost(states), dtype=float)
        running[live] += q * dt
        states = states + (dyn.drift(states) * dt + (dw @ sigma.T) @ b_t)
        hit = problem.domain.boundary_mask(states)
        if np.any(hit):
            exit_states[live[hit]] = problem.domain.clamp_exit(states[hit])
            exit_steps[live[hit]] = t + 1
            live, states = live[~hit], states[~hit]
            if not live.size:
                break
    exit_states[live] = states

    return RolloutBatch(
        dt=dt,
        noise_cov=sigma,
        dw0=dw0,
        exit_states=exit_states,
        exit_steps=exit_steps,
        running_costs=running,
    )


@dataclass
class ControlEstimate:
    """Control extracted from a rollout batch plus sampling diagnostics."""

    control: np.ndarray
    effective_sample_size: float
    log_desirability: float


def estimate_optimal_control(
    batch: RolloutBatch, final_cost: Callable[[np.ndarray], np.ndarray], lam: float
) -> ControlEstimate:
    """u = sigma . (weighted mean of first-step noise) / dt, dt the batch's step.

    Weights are the normalized path weights softmax(-S/lambda), with
    S = running_costs + final_cost(exit_states) priced here; the reduction
    runs in rollout-index order so results are bitwise reproducible.
    log Z = max(-S/lambda) + log mean exp(-S/lambda - max) stays finite when
    every weight exp(-S/lambda) underflows.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    phi = np.asarray(final_cost(batch.exit_states), dtype=float)
    lw = -(batch.running_costs + phi) / lam
    m = float(np.max(lw))
    w = np.exp(lw - m)
    total = float(np.sum(w))
    prob = w / total
    ess = 1.0 / float(np.sum(prob**2))
    log_z = m + float(np.log(total / batch.n_rollouts))
    u = batch.noise_cov @ (prob @ batch.dw0) / batch.dt
    return ControlEstimate(
        control=u,
        effective_sample_size=ess,
        log_desirability=log_z,
    )
