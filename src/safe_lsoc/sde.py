"""Control-affine SDE model, counter-based noise streams, Euler-Maruyama stepping.

Dynamics are dx = g(x) dt + B (u dt + sigma dw) with dw ~ N(0, dt I) and a
constant input matrix B.
All randomness flows through NoiseStream so that any (seed, stream_id) pair
reproduces the same draws regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ControlAffineDynamics",
    "NoiseStream",
    "SimulationError",
    "derive_stream_id",
    "MAX_AGENTS",
    "MAX_STEPS",
    "KIND_SIM",
    "KIND_ROLLOUT",
    "em_step",
]

EXIT_TARGET = "target_reached"
EXIT_MAX_TIME = "max_time"
EXIT_INFEASIBLE = "safety_infeasible"

# Stream-id field layout (64 bits total): purpose | agent | control step.
# Rollout indices address rows of a batch draw, not separate streams.
KIND_SIM = 1
KIND_ROLLOUT = 2
_KIND_BITS, _AGENT_BITS, _STEP_BITS = 4, 14, 46
# A stream id addresses agents [0, MAX_AGENTS) and steps [0, MAX_STEPS).
MAX_AGENTS, MAX_STEPS = 2**_AGENT_BITS, 2**_STEP_BITS


def derive_stream_id(kind: int, agent: int = 0, step: int = 0) -> int:
    """Pack (kind, agent, step) into a single non-negative stream id."""
    if not 0 <= kind < 2**_KIND_BITS:
        raise ValueError(f"kind {kind} out of range")
    if not 0 <= agent < MAX_AGENTS:
        raise ValueError(f"agent index {agent} out of range")
    if not 0 <= step < MAX_STEPS:
        raise ValueError(f"step index {step} out of range")
    return (kind << (_AGENT_BITS + _STEP_BITS)) | (agent << _STEP_BITS) | step


class SimulationError(RuntimeError):
    """Non-finite state or control encountered."""


@dataclass
class ControlAffineDynamics:
    """dx = drift(x) dt + B (u dt + sigma dw).

    drift maps (..., M) -> (..., M) (vectorized over leading axes);
    control_matrix is the constant M x P input matrix B and noise_cov the
    constant P x P sigma.
    """

    state_dim: int
    input_dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    control_matrix: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self) -> None:
        self.control_matrix = np.asarray(self.control_matrix, dtype=float)
        if self.control_matrix.shape != (self.state_dim, self.input_dim):
            raise ValueError(
                f"control_matrix must be ({self.state_dim}, {self.input_dim}), "
                f"got {self.control_matrix.shape}"
            )
        self.noise_cov = np.asarray(self.noise_cov, dtype=float)
        if self.noise_cov.shape != (self.input_dim, self.input_dim):
            raise ValueError(
                f"noise_cov must be ({self.input_dim}, {self.input_dim}), "
                f"got {self.noise_cov.shape}"
            )


@dataclass(frozen=True)
class NoiseStream:
    """Deterministic Gaussian increment source keyed by (seed, stream_id).

    Each generator() call starts the stream's sequence afresh, so two calls
    on one key, or on two equal keys, draw identical values; distinct
    stream_ids give statistically independent sequences.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.stream_id < 0:
            raise ValueError("stream_id must be non-negative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, kind: int, agent: int = 0, step: int = 0) -> "NoiseStream":
        """Key of a sub-task's stream, independent of the stream of self."""
        return NoiseStream(self.seed, derive_stream_id(kind, agent, step))


def em_step(
    dyn: ControlAffineDynamics,
    x: np.ndarray,
    u: np.ndarray,
    dt: float,
    dw: np.ndarray,
) -> np.ndarray:
    """One Euler-Maruyama step: x + g(x) dt + B (u dt + sigma dw), B constant."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    dw = np.asarray(dw, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u)) and np.all(np.isfinite(dw))):
        raise SimulationError("non-finite input to em_step")
    b = dyn.control_matrix
    return x + dyn.drift(x) * dt + b @ (u * dt + dyn.noise_cov @ dw)


# Raised by the zcbf filter and re-exported there; defined here, next to the
# exit reason it maps to.
class SafetyInfeasible(RuntimeError):
    """No control satisfies the active barrier constraints."""

    def __init__(self, message: str, constraint_ids: Sequence[int] = ()):
        super().__init__(message)
        self.constraint_ids = tuple(constraint_ids)

