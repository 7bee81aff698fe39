"""Magnetic heat control on truncated eigenbases.

All dynamics are exact exponentials in the spectral basis, so every check
isolates inequality content rather than time-stepping error.  The HUM
Gramian is assembled with composite Gauss-Legendre quadrature in time; the
terminal residual is recomputed with an independent, finer quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import SetMask
from .inequality import ThmConstants, masked_form, spectral_factors_log
from .lattice import SpectralSubspace


@dataclass(frozen=True)
class HeatProblem:
    subspace: SpectralSubspace
    mask: SetMask
    horizon: float
    u0: np.ndarray  # coefficients in the subspace basis

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValidationError("horizon must be positive")
        u0 = np.asarray(self.u0, dtype=complex)
        if u0.shape != (self.subspace.dim,):
            raise ValidationError("u0 must be a coefficient vector on the subspace")
        object.__setattr__(self, "u0", u0)


@dataclass
class HumResult:
    times: np.ndarray
    control_coeffs: np.ndarray  # (k, n_nodes): control at the quadrature nodes
    cost: float
    terminal_residual: float
    gramian_condition: float
    dual_state: np.ndarray  # p with f(t) = M_S e^(-(T-t)H) p


def propagate(subspace: SpectralSubspace, u0: np.ndarray, t: float) -> np.ndarray:
    """Heat semigroup in the eigenbasis: componentwise e^(-lambda t)."""
    if t < 0:
        raise ValidationError("t must be non-negative")
    return np.asarray(u0, dtype=complex) * np.exp(-subspace.eigenvalues * t)


def _time_nodes(T: float, nodes: int, panels: int):
    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    ts, ws = [], []
    edges = np.linspace(0.0, T, panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        ts.append(0.5 * (b - a) * (base_x + 1.0) + a)
        ws.append(0.5 * (b - a) * base_w)
    return np.concatenate(ts), np.concatenate(ws)


def _auto_panels(subspace: SpectralSubspace, T: float) -> int:
    lam_max = float(subspace.eigenvalues[-1]) if subspace.dim else 1.0
    return int(min(64, max(1, math.ceil(lam_max * T / 20.0))))


def gramian(subspace: SpectralSubspace, mask: SetMask, T: float,
            nodes: int = 64, panels: Optional[int] = None) -> np.ndarray:
    """G_T = int_0^T e^(-(T-t)H) M_S e^(-(T-t)H) dt on the subspace."""
    if panels is None:
        panels = _auto_panels(subspace, T)
    g_s = masked_form(subspace, mask)
    lam = subspace.eigenvalues
    ts, ws = _time_nodes(T, nodes, panels)
    decay = np.exp(-np.outer(T - ts, lam))  # (n, k)
    kernel = decay.T @ (ws[:, None] * decay)  # sum_i w_i d_i d_i^T
    g = g_s * kernel
    return 0.5 * (g + g.conj().T)


def observability_quotient(problem: HeatProblem, nodes: int = 64,
                           panels: Optional[int] = None) -> float:
    """||u(T)||^2 / int_0^T ||u(t)||^2_{L2(S)} dt for the uncontrolled flow.

    The supremum of this quotient over u0 lower-bounds C_obs^2.
    """
    sub = problem.subspace
    T = problem.horizon
    g_t = gramian(sub, problem.mask, T, nodes, panels)
    denom = float(np.real(problem.u0.conj() @ (g_t @ problem.u0)))
    if denom <= 1e-300:
        raise NumericalError("denominator underflow: the set misses the subspace")
    num = float(np.linalg.norm(propagate(sub, problem.u0, T)) ** 2)
    return num / denom


def worst_observability_quotient(subspace: SpectralSubspace, mask: SetMask,
                                 T: float, nodes: int = 64,
                                 panels: Optional[int] = None) -> float:
    """sup over u0 of the observability quotient: lambda_max(E G_T^-1 E).

    Equals the squared worst-case HUM cost on the subspace (duality).
    """
    g_t = gramian(subspace, mask, T, nodes, panels)
    e = np.exp(-subspace.eigenvalues * T)
    evals, evecs = np.linalg.eigh(g_t)
    if evals[0] <= 0 or evals[-1] / evals[0] > 1e16:
        raise NumericalError("Gramian numerically singular for the worst-case quotient")
    half = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.conj().T
    m = half @ np.diag(e * e) @ half.conj().T
    return float(np.linalg.eigvalsh(m)[-1])


def hum_control(problem: HeatProblem, nodes: int = 64,
                panels: Optional[int] = None) -> HumResult:
    """Minimal-norm control driving u0 to zero at the horizon.

    Solves G_T p = -e^(-TH) u0, returns the control f(t) = M_S e^(-(T-t)H) p
    at the quadrature nodes, its cost, and the terminal residual from an
    independent re-integration on a 4x finer time grid.
    """
    sub = problem.subspace
    T = problem.horizon
    if panels is None:
        panels = _auto_panels(sub, T)
    g_t = gramian(sub, problem.mask, T, nodes, panels)
    target = -propagate(sub, problem.u0, T)
    evals = np.linalg.eigvalsh(g_t)
    cond = float(evals[-1] / evals[0]) if evals[0] > 0 else math.inf
    if not math.isfinite(cond) or cond > 1e14:
        witness = np.linalg.eigh(g_t)[1][:, 0]
        raise NumericalError(
            f"Gramian condition {cond:.2e} exceeds 1e14; "
            f"null-space witness leading entries {np.round(witness[:4], 6)}"
        )
    p = np.linalg.solve(g_t, target)
    # one step of iterative refinement
    p += np.linalg.solve(g_t, target - g_t @ p)
    cost2 = float(np.real(p.conj() @ (g_t @ p)))
    g_s = masked_form(sub, problem.mask)
    ts, _ = _time_nodes(T, nodes, panels)
    decay = np.exp(-np.outer(T - ts, sub.eigenvalues))
    controls = (g_s @ (decay.T * p[:, None])).reshape(sub.dim, -1)
    fine = gramian(sub, problem.mask, T, nodes, panels * 4)
    u_final = propagate(sub, problem.u0, T) + fine @ p
    norm_u0 = float(np.linalg.norm(problem.u0))
    residual = float(np.linalg.norm(u_final)) / norm_u0 if norm_u0 > 0 else 0.0
    cost = math.sqrt(max(cost2, 0.0))
    # consistency: cost^2 recomputed from the finer Gramian
    cost2_fine = float(np.real(p.conj() @ (fine @ p)))
    if cost2 > 0 and abs(cost2_fine - cost2) > 1e-6 * cost2 + 1e-300:
        raise NumericalError("quadrature-inconsistent control cost")
    return HumResult(
        times=ts,
        control_coeffs=controls,
        cost=cost,
        terminal_residual=residual,
        gramian_condition=cond,
        dual_state=p,
    )


def state_trajectory(problem: HeatProblem, result: HumResult,
                     n_steps: int = 64, step_nodes: int = 8):
    """Controlled state at the step boundaries, by independent re-integration.

    Marches u' = -H u + 1_S f with exact exponential steps and per-step
    Gauss-Legendre Duhamel quadrature, evaluating the returned control from
    its closed form at the sub-step nodes.  Returns (times, states) with
    states of shape (n_steps + 1, k).
    """
    sub = problem.subspace
    T = problem.horizon
    lam = sub.eigenvalues
    g_s = masked_form(sub, problem.mask)
    p = result.dual_state
    dt = T / n_steps
    x, w = np.polynomial.legendre.leggauss(step_nodes)
    s = 0.5 * dt * (x + 1.0)
    ws = 0.5 * dt * w
    u = problem.u0.astype(complex)
    times = [0.0]
    states = [u.copy()]
    for n in range(n_steps):
        t0 = n * dt
        u = np.exp(-lam * dt) * u
        for sq, wq in zip(s, ws):
            t = t0 + sq
            f_t = g_s @ (np.exp(-lam * (T - t)) * p)
            u = u + wq * np.exp(-lam * (dt - sq)) * f_t
        times.append(t0 + dt)
        states.append(u.copy())
    return np.array(times), np.array(states)


def simulate_controlled(problem: HeatProblem, result: HumResult,
                        n_steps: int = 64, step_nodes: int = 8) -> float:
    """||u(T)|| / ||u0|| from the independent re-integration."""
    _, states = state_trajectory(problem, result, n_steps, step_nodes)
    norm_u0 = float(np.linalg.norm(problem.u0))
    return float(np.linalg.norm(states[-1])) / norm_u0 if norm_u0 > 0 else 0.0


# -- cost bounds ---------------------------------------------------------------


def abstract_cost_log(log_d0: float, d1: float, T: float, x_norm: float = 1.0,
                      consts: tuple = (1.0, 1.0, 1.0)) -> float:
    """log of (C5 d0 / T) (2 d0 ||X|| + 1)^C6 exp(C7 d1^2 / T)."""
    if T <= 0:
        raise ValidationError("T must be positive")
    c5, c6, c7 = consts
    log_lin = np.logaddexp(math.log(2.0 * x_norm) + log_d0, 0.0)
    return (
        math.log(c5) + log_d0 - math.log(T) + c6 * float(log_lin)
        + c7 * d1 * d1 / T
    )


def abstract_cost(d0: float, d1: float, T: float, x_norm: float = 1.0,
                  consts: tuple = (1.0, 1.0, 1.0)) -> float:
    log = abstract_cost_log(math.log(d0), d1, T, x_norm, consts)
    return math.exp(log) if log < 709.0 else math.inf


def cost_bound_log(rho: float, ell: tuple, B: float, T: float,
                   c: Optional[ThmConstants] = None,
                   consts: tuple = (1.0, 1.0, 1.0),
                   x_norm: float = 1.0) -> float:
    """log of the control-cost bound C_obs^2.

    structural mode: the closed form C/(T rho^(C + C |l|_1^2 B)) *
    exp(ln(C/rho) C |l|_1^2 / T - B T) with C = c.C1.
    traced mode (default): the abstract bound at horizon T/2 with the traced
    spectral factors, improved by the semigroup decay factor e^(-B T).
    """
    if T <= 0:
        raise ValidationError("T must be positive")
    if not 0.0 < rho <= 1.0:
        raise ValidationError("rho must lie in (0, 1]")
    if c is not None and c.mode == "structural":
        l1 = abs(ell[0]) + abs(ell[1])
        cc = c.C1
        return (
            math.log(cc) - math.log(T)
            - (cc + cc * l1 * l1 * B) * math.log(rho)
            + math.log(cc / rho) * cc * l1 * l1 / T
            - B * T
        )
    log_d0, d1 = spectral_factors_log(B, ell, rho, c or ThmConstants())
    return abstract_cost_log(log_d0, d1, T / 2.0, x_norm, consts) - B * T


def cost_bound(rho: float, ell: tuple, B: float, T: float,
               c: Optional[ThmConstants] = None,
               consts: tuple = (1.0, 1.0, 1.0)) -> float:
    log = cost_bound_log(rho, ell, B, T, c, consts)
    return math.exp(log) if log < 709.0 else math.inf
