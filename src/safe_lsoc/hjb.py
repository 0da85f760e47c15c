"""Finite-difference solver for the linear desirability PDE (dims 1 and 2).

Solves 0 = g . grad(Z) + 0.5 tr(B sigma sigma^T B^T hess(Z)) - q Z / lambda on
a rectangular grid with Dirichlet data Z = exp(-phi/lambda) on boundary nodes.
Drift terms are upwinded and diffusion must be diagonal, so the discrete
operator is an M-matrix with the maximum principle the tests lean on. Used
as an independent oracle for the Monte-Carlo estimator, not in the control loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.interpolate import RegularGridInterpolator

from .lsoc import LsocProblem

__all__ = ["GridSpec", "GridSolution", "grid_hjb_oracle"]


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid covering the problem domain."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.lower) == len(self.upper) == len(self.shape)):
            raise ValueError("lower, upper, shape must have equal length")
        if len(self.shape) not in (1, 2):
            raise ValueError("grid oracle supports 1-D and 2-D problems only")
        if any(n < 3 for n in self.shape):
            raise ValueError("need at least 3 nodes per axis")
        if any(lo >= hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("grid must have positive extent")

    @property
    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, hi, n)
            for lo, hi, n in zip(self.lower, self.upper, self.shape)
        ]

    @property
    def spacing(self) -> np.ndarray:
        return np.array(
            [(hi - lo) / (n - 1) for lo, hi, n in zip(self.lower, self.upper, self.shape)]
        )


@dataclass
class GridSolution:
    """Solved desirability field with interpolated value and gradient access."""

    spec: GridSpec
    z: np.ndarray

    def __post_init__(self) -> None:
        axes = self.spec.axes
        self._interp = RegularGridInterpolator(axes, self.z, method="linear")
        grads = np.gradient(self.z, *axes, edge_order=2)
        if self.z.ndim == 1:
            grads = [grads]
        self._grad_interp = [
            RegularGridInterpolator(axes, g, method="linear") for g in grads
        ]

    def z_at(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = self._interp(x)
        return out if out.size > 1 else float(out[0])

    def gradient_at(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        g = np.stack([gi(x) for gi in self._grad_interp], axis=-1)
        return g if g.shape[0] > 1 else g[0]


def grid_hjb_oracle(
    problem: LsocProblem, final_cost: Callable[[np.ndarray], np.ndarray], spec: GridSpec
) -> GridSolution:
    """Solve the stationary linear desirability equation on the grid.

    Nodes classified as boundary by the problem's domain get Dirichlet data
    exp(-final_cost / lam); the outer frame of the grid must be boundary (the
    grid has nothing beyond it to difference against).
    """
    dim = len(spec.shape)
    if problem.dynamics.state_dim != dim:
        raise ValueError(
            f"grid dimension {dim} != state dimension {problem.dynamics.state_dim}"
        )
    bs = problem.dynamics.control_matrix @ problem.dynamics.noise_cov
    d_mat = bs @ bs.T
    if np.any(d_mat[~np.eye(dim, dtype=bool)]):
        raise ValueError("grid oracle needs a diagonal B sigma sigma^T B^T")
    axes = spec.axes
    h = spec.spacing
    if dim == 1:
        nodes = axes[0][:, None]
    else:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        nodes = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    n_nodes = nodes.shape[0]

    on_boundary = np.asarray(problem.domain.boundary_mask(nodes), dtype=bool)
    frame = np.zeros(spec.shape, dtype=bool)
    if dim == 1:
        frame[[0, -1]] = True
    else:
        frame[0, :] = frame[-1, :] = True
        frame[:, 0] = frame[:, -1] = True
    if not np.all(on_boundary[frame.ravel()]):
        raise ValueError("grid frame must lie in the domain's boundary set")

    z_flat = np.zeros(n_nodes)
    z_flat[on_boundary] = np.exp(
        -np.asarray(final_cost(nodes[on_boundary]), dtype=float)
        / problem.lam
    )

    interior = np.flatnonzero(~on_boundary)
    if interior.size == 0:
        return GridSolution(spec=spec, z=z_flat.reshape(spec.shape))
    col_of = -np.ones(n_nodes, dtype=int)
    col_of[interior] = np.arange(interior.size)

    drift = np.asarray(problem.dynamics.drift(nodes), dtype=float).reshape(n_nodes, dim)
    q = np.asarray(problem.running_cost(nodes), dtype=float).reshape(n_nodes)

    if dim == 1:
        strides = (1,)
    else:
        strides = (spec.shape[1], 1)

    rows, cols, vals = [], [], []
    rhs = np.zeros(interior.size)

    def add(row: int, node: int, coeff: float) -> None:
        if on_boundary[node]:
            rhs[row] -= coeff * z_flat[node]
        else:
            rows.append(row)
            cols.append(col_of[node])
            vals.append(coeff)

    for row, node in enumerate(interior):
        diag = -q[node] / problem.lam
        for k in range(dim):
            f = drift[node, k]
            # Upwind first derivative keeps off-diagonal coefficients positive.
            if f >= 0:
                add(row, node + strides[k], f / h[k])
                diag -= f / h[k]
            else:
                add(row, node - strides[k], -f / h[k])
                diag += f / h[k]
            dkk = 0.5 * d_mat[k, k]
            add(row, node + strides[k], dkk / h[k] ** 2)
            add(row, node - strides[k], dkk / h[k] ** 2)
            diag -= 2 * dkk / h[k] ** 2
        rows.append(row)
        cols.append(row)
        vals.append(diag)

    mat = scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(interior.size, interior.size)
    )
    z_int = scipy.sparse.linalg.spsolve(mat, rhs)
    if not np.all(np.isfinite(z_int)):
        raise RuntimeError("grid solve produced non-finite values")
    z_flat[interior] = z_int
    return GridSolution(spec=spec, z=z_flat.reshape(spec.shape))
