"""Generalization of solved tasks by weighted composition of their solutions.

A library of component tasks that share dynamics, running cost, and exit set
but differ in final cost phi^f can be blended for a new terminal target: the
new problem's desirability is a kernel-weighted sum of component
desirabilities, which is exact when the new final cost is

    phi = -lambda log( sum_f w_f exp(-phi^f / lambda) ),

and the resulting control is a state-dependent convex combination of the
component controls with weights W^f proportional to w_f Z^f(x, t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CompositionWeights",
    "composition_weights",
    "composite_final_cost",
    "state_weights",
    "composite_control",
]

_SUM_TOL = 1e-9


@dataclass
class CompositionWeights:
    """Kernel weights of the component targets around a new target."""

    normalized: np.ndarray
    log_normalized: np.ndarray  # log of normalized, finite where it underflows


def composition_weights(
    component_targets: Sequence[np.ndarray],
    new_target: np.ndarray,
    p_kernel: np.ndarray,
) -> CompositionWeights:
    """Gaussian kernel distances from the new target to each component target.

    raw_f = exp(-0.5 (t_new - t_f)^T P (t_new - t_f)); normalized sums to one.
    P must be diagonal positive definite, so raw weights lie in (0, 1].  The
    normalization runs in the log domain, so tiny weights keep their ratios
    and log_normalized stays finite where normalized underflows.
    """
    new_target = np.asarray(new_target, dtype=float)
    p_kernel = np.asarray(p_kernel, dtype=float)
    if p_kernel.ndim != 2 or p_kernel.shape[0] != p_kernel.shape[1]:
        raise ValueError("kernel matrix must be square")
    if np.any(p_kernel != np.diag(np.diag(p_kernel))) or np.any(
        np.diag(p_kernel) <= 0
    ):
        raise ValueError("kernel matrix must be diagonal positive definite")
    if not component_targets:
        raise ValueError("need at least one component")
    log_raw = np.empty(len(component_targets))
    for f, tgt in enumerate(component_targets):
        d = new_target - np.asarray(tgt, dtype=float)
        if d.shape != (p_kernel.shape[0],):
            raise ValueError("target dimension does not match kernel")
        log_raw[f] = -0.5 * float(d @ p_kernel @ d)
    m = np.max(log_raw)
    if np.exp(m) == 0.0:
        raise ValueError(
            "new target outside kernel support: all raw weights underflowed"
        )
    shifted = np.exp(log_raw - m)
    total = np.sum(shifted)
    return CompositionWeights(
        normalized=shifted / total,
        log_normalized=log_raw - m - np.log(total),
    )


def composite_final_cost(
    component_final_costs: Sequence[Callable[[np.ndarray], np.ndarray]],
    weights: CompositionWeights,
    lam: float = 1.0,
) -> Callable[[np.ndarray], np.ndarray]:
    """Final cost whose desirability is the weighted sum of component ones.

    phi(x) = -lam log sum_f w_f exp(-phi_f(x)/lam), evaluated with the usual
    max-shift so a single dominant component never overflows.
    """
    if len(component_final_costs) != len(weights.normalized):
        raise ValueError("one final cost per component required")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    log_w = weights.log_normalized

    def phi(x: np.ndarray) -> np.ndarray:
        stacked = np.stack(
            [
                log_w[f] - np.asarray(fc(x), dtype=float) / lam
                for f, fc in enumerate(component_final_costs)
            ],
            axis=0,
        )
        m = np.max(stacked, axis=0)
        return -lam * (m + np.log(np.sum(np.exp(stacked - m), axis=0)))

    return phi


def state_weights(
    weights: CompositionWeights,
    log_z_values: Sequence[float],
) -> np.ndarray:
    """Mixture weights W_f = w_f Z_f / sum_e w_e Z_e, computed in log domain.

    Takes log-desirability estimates so weight ratios survive even when every
    Z underflows as a float.
    """
    log_z = np.asarray(log_z_values, dtype=float)
    if log_z.shape != (len(weights.normalized),):
        raise ValueError("one desirability estimate per component required")
    if np.any(np.isnan(log_z)) or np.any(log_z == np.inf):
        raise ValueError("log desirabilities must be finite or -inf")
    score = weights.log_normalized + log_z
    m = np.max(score)
    if m == -np.inf:
        raise ValueError("all weight-desirability products vanished")
    w = np.exp(score - m)
    return w / np.sum(w)


def composite_control(
    state_w: np.ndarray, component_controls: Sequence[np.ndarray]
) -> np.ndarray:
    """Convex combination sum_f W_f u_f of the component controls."""
    state_w = np.asarray(state_w, dtype=float)
    if len(component_controls) != state_w.shape[0]:
        raise ValueError("one control per weight required")
    if abs(float(np.sum(state_w)) - 1.0) > _SUM_TOL or np.any(state_w < 0):
        raise ValueError("state weights must be a convex combination")
    controls = np.stack(
        [np.asarray(u, dtype=float) for u in component_controls], axis=0
    )
    return state_w @ controls
