"""Factorial subsystem decomposition over an undirected agent graph.

Each agent i solves a joint problem over itself plus its neighbors
(members = [i] + sorted neighbors, agent i in block 0) and keeps only its own
block of the resulting joint control. Dynamics stack block-diagonally because
the agents are physically decoupled; coupling enters through the running cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sde import ControlAffineDynamics

__all__ = [
    "AgentGraph",
    "FactorialSubsystem",
    "build_subsystems",
    "assemble_joint",
    "joint_dynamics",
]


@dataclass(frozen=True)
class AgentGraph:
    """Undirected communication graph on agents 0..n_agents-1."""

    n_agents: int
    edges: frozenset[frozenset[int]]

    @classmethod
    def from_edge_list(
        cls, n_agents: int, edges: Sequence[Sequence[int]]
    ) -> "AgentGraph":
        if n_agents <= 0:
            raise ValueError("n_agents must be positive")
        norm = set()
        for e in edges:
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise ValueError(f"edge {e!r} must have exactly two endpoints")
            i, j = e
            if i == j:
                raise ValueError(f"self-loop on agent {i}")
            for k in (i, j):
                if not 0 <= k < n_agents:
                    raise ValueError(f"agent id {k} out of range [0, {n_agents})")
            norm.add(frozenset((i, j)))
        return cls(n_agents=n_agents, edges=frozenset(norm))

    def neighbors(self, i: int) -> list[int]:
        return sorted(j for e in self.edges if i in e for j in e if j != i)


@dataclass(frozen=True)
class FactorialSubsystem:
    """Joint block owned by one agent: itself (block 0) plus its neighbors."""

    central: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.members[0] != self.central:
            raise ValueError("central agent must occupy block 0")
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate member ids")

    @property
    def size(self) -> int:
        return len(self.members)

    def block(self, agent: int) -> int:
        return self.members.index(agent)


def build_subsystems(graph: AgentGraph) -> list[FactorialSubsystem]:
    """One subsystem per agent, ordered by agent id; neighbors ascending."""
    return [
        FactorialSubsystem(central=i, members=(i, *graph.neighbors(i)))
        for i in range(graph.n_agents)
    ]


def assemble_joint(sub: FactorialSubsystem, states: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate member states in block order."""
    return np.concatenate([states[a] for a in sub.members])


def joint_dynamics(dyn: ControlAffineDynamics, n_members: int) -> ControlAffineDynamics:
    """Stack n_members copies of one vehicle model block-diagonally.

    The member drift must be vectorized over leading axes.
    """
    m = dyn.state_dim

    def drift(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        parts = [dyn.drift(x[..., k * m:(k + 1) * m]) for k in range(n_members)]
        return np.concatenate(parts, axis=-1)

    return ControlAffineDynamics(
        state_dim=n_members * m,
        input_dim=n_members * dyn.input_dim,
        drift=drift,
        control_matrix=np.kron(np.eye(n_members), dyn.control_matrix),
        noise_cov=np.kron(np.eye(n_members), dyn.noise_cov),
    )

