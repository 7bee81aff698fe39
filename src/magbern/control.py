"""Magnetic heat control on truncated eigenbases.

All dynamics are exact exponentials in the spectral basis, so every check
isolates inequality content rather than time-stepping error.  The functions
work on the k x k masked form M_S of a subspace and mask (`masked_form`,
formed once and shared by every horizon) and the subspace's eigenvalues
lam.  The HUM Gramian is the exact time integral, entrywise M_S times
(1 - e^(-(lam_i + lam_j) T)) / (lam_i + lam_j); the one independent check of
the control is `state_trajectory`, which re-integrates the controlled flow
with per-step Gauss-Legendre Duhamel quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
# masked_form is re-exported: it forms the input every function below takes
from .inequality import masked_form, spectral_factors_log  # noqa: F401

# the 8-point Gauss-Legendre rule on [-1, 1] of `state_trajectory`'s sub-steps
_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass
class HumResult:
    cost: float
    terminal_residual: float
    gramian_condition: float
    dual_state: np.ndarray  # p with f(t) = M_S e^(-(T-t)H) p


def propagate(lam: np.ndarray, u0: np.ndarray, t: float) -> np.ndarray:
    """Heat semigroup in the eigenbasis: componentwise e^(-lambda t)."""
    if t < 0:
        raise ValidationError("t must be non-negative")
    return np.asarray(u0, dtype=complex) * np.exp(-lam * t)


def gramian(form: np.ndarray, lam: np.ndarray, T: float) -> np.ndarray:
    """G_T = int_0^T e^(-(T-t)H) M_S e^(-(T-t)H) dt on the subspace, in closed
    form: the masked form M_S times the time kernel T (1 - e^(-x)) / x with
    x = (lam_i + lam_j) T, whose limit at x = 0 is T."""
    x = (lam[:, None] + lam[None, :]) * T
    zero = x == 0.0
    safe = np.where(zero, 1.0, x)
    return form * np.where(zero, T, T * (-np.expm1(-safe) / safe))


def observability_quotient(form: np.ndarray, lam: np.ndarray, u0: np.ndarray,
                           T: float) -> float:
    """||u(T)||^2 / int_0^T ||u(t)||^2_{L2(S)} dt for the uncontrolled flow.

    The supremum of this quotient over u0 lower-bounds C_obs^2.
    """
    u0 = np.asarray(u0, dtype=complex)
    g_t = gramian(form, lam, T)
    denom = float(np.real(u0.conj() @ (g_t @ u0)))
    if denom <= 1e-300:
        raise NumericalError("denominator underflow: the set misses the subspace")
    num = float(np.linalg.norm(propagate(lam, u0, T)) ** 2)
    return num / denom


def worst_observability_quotient(form: np.ndarray, lam: np.ndarray, T: float) -> float:
    """sup over u0 of the observability quotient: lambda_max(E G_T^-1 E).

    Equals the squared worst-case HUM cost on the subspace (duality).
    """
    g_t = gramian(form, lam, T)
    e = np.exp(-lam * T)
    evals, evecs = np.linalg.eigh(g_t)
    if evals[0] <= 0 or evals[-1] / evals[0] > 1e16:
        raise NumericalError("Gramian numerically singular for the worst-case quotient")
    half = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.conj().T
    m = half @ np.diag(e * e) @ half.conj().T
    return float(np.linalg.eigvalsh(m)[-1])


def hum_control(form: np.ndarray, lam: np.ndarray, u0: np.ndarray, T: float) -> HumResult:
    """Minimal-norm control driving u0 (coefficients in the subspace basis) to
    zero at the horizon T > 0.

    Solves G_T p = -e^(-TH) u0 and returns the dual state p, which fixes the
    control f(t) = M_S e^(-(T-t)H) p (`state_trajectory` evaluates it), the
    control's cost, and the terminal residual ||e^(-TH) u0 + G_T p|| / ||u0||.
    """
    if T <= 0:
        raise ValidationError("horizon must be positive")
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != lam.shape:
        raise ValidationError("u0 must be a coefficient vector on the subspace")
    g_t = gramian(form, lam, T)
    target = -propagate(lam, u0, T)
    evals, evecs = np.linalg.eigh(g_t)
    cond = float(evals[-1] / evals[0]) if evals[0] > 0 else math.inf
    if not math.isfinite(cond) or cond > 1e14:
        raise NumericalError(
            f"Gramian condition {cond:.2e} exceeds 1e14; "
            f"null-space witness leading entries {np.round(evecs[:4, 0], 6)}"
        )
    p = np.linalg.solve(g_t, target)
    # one step of iterative refinement
    p += np.linalg.solve(g_t, target - g_t @ p)
    cost2 = float(np.real(p.conj() @ (g_t @ p)))
    norm_u0 = float(np.linalg.norm(u0))
    residual = float(np.linalg.norm(g_t @ p - target)) / norm_u0 if norm_u0 > 0 else 0.0
    return HumResult(
        cost=math.sqrt(max(cost2, 0.0)),
        terminal_residual=residual,
        gramian_condition=cond,
        dual_state=p,
    )


def state_trajectory(form: np.ndarray, lam: np.ndarray, u0: np.ndarray, T: float,
                     dual_state: np.ndarray, n_steps: int = 64):
    """Controlled state at the step boundaries, by independent re-integration.

    Marches u' = -H u + 1_S f from u0 with exact exponential steps and
    per-step 8-point Gauss-Legendre Duhamel quadrature, evaluating the control
    from `hum_control`'s dual state at all sub-step nodes in one product with
    the masked form.  Returns (times, states) with states of shape
    (n_steps + 1, k).
    """
    dt = T / n_steps
    s = 0.5 * dt * (_GL8_NODES + 1.0)
    ws = 0.5 * dt * _GL8_WEIGHTS
    t0 = np.arange(n_steps) * dt
    nodes = (t0[:, None] + s).ravel()  # step-major, 8 per step
    forcing = (form @ (np.exp(-lam[:, None] * (T - nodes)) * dual_state[:, None])).T
    # row 0 of a step is the decayed state, rows 1-8 its node kicks
    # ws_q e^(-lam (dt - s_q)) f(t_nq): summing the rows in that order adds
    # them as a node-by-node march does
    weights = ws[:, None] * np.exp(-lam * (dt - s[:, None]))
    terms = np.empty((n_steps, 9, lam.size), dtype=complex)
    terms[:, 1:] = forcing.reshape(n_steps, 8, -1) * weights
    decay = np.exp(-lam * dt)
    states = np.empty((n_steps + 1, lam.size), dtype=complex)
    states[0] = u0
    for n in range(n_steps):
        terms[n, 0] = decay * states[n]
        states[n + 1] = terms[n].sum(axis=0)
    return np.concatenate(([0.0], t0 + dt)), states


# -- cost bounds ---------------------------------------------------------------


def abstract_cost_log(log_d0: float, d1: float, T: float) -> float:
    """log of (C5 d0 / T) (2 d0 ||X|| + 1)^C6 exp(C7 d1^2 / T) at ||X|| = 1
    and C5 = C6 = C7 = 1."""
    if T <= 0:
        raise ValidationError("T must be positive")
    log_lin = np.logaddexp(math.log(2.0) + log_d0, 0.0)
    return log_d0 - math.log(T) + float(log_lin) + d1 * d1 / T


def cost_bound_log(rho: float, ell: tuple, B: float, T: float) -> float:
    """log of the control-cost bound C_obs^2: the abstract bound at horizon
    T/2 with the traced spectral factors, improved by the semigroup decay
    factor e^(-B T) (rho is checked in spectral_factors_log)."""
    if T <= 0:
        raise ValidationError("T must be positive")
    log_d0, d1 = spectral_factors_log(B, ell, rho)
    return abstract_cost_log(log_d0, d1, T / 2.0) - B * T
