"""Executable machinery for the loss-family theory.

Pointwise conditional risk over the simplex, its minimizer, the auxiliary
strictly-decreasing sigma function with its unique interior root, binary
optimal-prediction curves, and the overconfidence/underconfidence bound.

The risk of every supported family is separable across classes:
``risk(q) = sum_i w_i * phi_gamma(q_i) + a * (||q||^2 - 2 eta.q + 1)`` with
``phi_gamma(q) = -(1-q)^gamma log q``. The simplex minimizer is found with
SLSQP plus a Newton polish on the KKT system (binary specs use exact
bisection on the risk derivative instead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._common import ConvergenceError, as_simplex
from .losses import LossSpec, batch_values, focal_phi

Q_LO = 1e-12
Q_HI = 1.0 - 1e-12
KKT_TOL = 1e-8


@dataclass
class MinimizerResult:
    q_star: np.ndarray
    objective: float
    iterations: int
    converged: bool
    kkt_residual: float

    def to_json(self) -> dict:
        return {"q_star": self.q_star.tolist(), "objective": self.objective,
                "iterations": self.iterations, "converged": self.converged,
                "kkt_residual": self.kkt_residual}


@dataclass(frozen=True)
class SigmaSpec:
    gamma: float
    lam: float

    def __post_init__(self):
        if self.gamma < 0.0 or self.lam < 0.0:
            raise ValueError("gamma and lambda must be >= 0")


def _risk_coeffs(spec: LossSpec, eta: np.ndarray):
    """Separable-risk coefficients: focal weights w, gamma, quadratic a."""
    fam = spec.family
    if fam == "ce":
        return eta, 0.0, 0.0
    if fam == "label_smoothing":
        k = eta.shape[0]
        return (1.0 - spec.alpha) * eta + spec.alpha / k, 0.0, 0.0
    if fam == "brier":
        return np.zeros_like(eta), 0.0, 1.0
    if fam == "focal":
        return eta, spec.gamma, 0.0
    if fam == "fcl":
        return eta, spec.gamma, spec.lam
    # flsd53: gamma depends on the coordinate value; handled per-evaluation
    return eta, None, 0.0


def _flsd_gamma_of(q):
    return np.where(np.asarray(q) < 0.2, 5.0, 3.0)


def _risk_terms(spec: LossSpec, q: np.ndarray, eta: np.ndarray, order: int = 2) -> list:
    """[value, gradient, diagonal hessian][:order + 1] of the pointwise risk at q."""
    w, gamma, a = _risk_coeffs(spec, eta)
    if gamma is None:
        gamma = _flsd_gamma_of(q)
    # a Brier spec has no focal term
    phi = focal_phi(q, gamma, order) if np.any(w) else [np.zeros_like(q)] * (order + 1)
    out = [float(np.sum(w * phi[0]))] + [w * d for d in phi[1:]]
    if a > 0.0:
        out[0] += a * float(np.sum(q * q) - 2.0 * np.sum(eta * q) + 1.0)
        if order >= 1:
            out[1] = out[1] + 2.0 * a * (q - eta)
        if order >= 2:
            out[2] = out[2] + 2.0 * a
    return out


def pointwise_risk(spec: LossSpec, q, eta) -> float:
    """Expected loss sum_y eta_y * loss(q, e_y)."""
    q = np.asarray(q, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if q.shape != eta.shape:
        raise ValueError("q and eta dimensions do not match")
    k = q.shape[0]
    targets = np.eye(k)
    values = batch_values(spec, np.broadcast_to(q, (k, k)), targets)
    return float(eta @ values)


def _kkt_residual(spec: LossSpec, q: np.ndarray, eta: np.ndarray) -> float:
    _, grad = _risk_terms(spec, q, eta, 1)
    at_lo = q <= Q_LO * 4.0
    at_hi = q >= 1.0 - 1e-9
    free = ~(at_lo | at_hi)
    if free.any():
        mu = -float(grad[free].mean())
    else:
        mu = -float(grad.mean())
    res = 0.0
    if free.any():
        res = float(np.max(np.abs(grad[free] + mu)))
    if at_lo.any():
        res = max(res, float(np.max(np.maximum(0.0, -(grad[at_lo] + mu)))))
    if at_hi.any():
        res = max(res, float(np.max(np.maximum(0.0, grad[at_hi] + mu))))
    return res


def _minimize_binary(spec: LossSpec, eta: np.ndarray) -> MinimizerResult:
    # exact bisection on the (nondecreasing) derivative of the 1-D restriction
    def deriv(x):
        q = np.array([x, 1.0 - x])
        _, g = _risk_terms(spec, q, eta, 1)
        return g[0] - g[1]

    lo, hi = Q_LO, Q_HI
    d_lo, d_hi = deriv(lo), deriv(hi)
    iterations = 0
    if d_lo >= 0.0:
        x = lo
    elif d_hi <= 0.0:
        x = hi
    else:
        for iterations in range(1, 201):
            x = 0.5 * (lo + hi)
            d = deriv(x)
            if d > 0.0:
                hi = x
            else:
                lo = x
            if hi - lo < 1e-16:
                break
        x = 0.5 * (lo + hi)
    q = np.array([x, 1.0 - x])
    val, = _risk_terms(spec, q, eta, 0)
    res = _kkt_residual(spec, q, eta)
    return MinimizerResult(q_star=q, objective=val, iterations=iterations,
                           converged=res <= KKT_TOL, kkt_residual=res)


def _minimize_general(spec: LossSpec, eta: np.ndarray) -> MinimizerResult:
    # deferred: scipy costs about a second to import and nothing else needs it
    from scipy.optimize import minimize

    k = eta.shape[0]
    x0 = np.clip(eta, 1e-6, None)
    x0 = x0 / x0.sum()

    def fun(q):
        return _risk_terms(spec, q, eta, 1)

    res = minimize(fun, x0, jac=True, method="SLSQP",
                   bounds=[(Q_LO, 1.0)] * k,
                   constraints=[{"type": "eq", "fun": lambda q: q.sum() - 1.0,
                                 "jac": lambda q: np.ones(k)}],
                   options={"ftol": 1e-14, "maxiter": 500})
    q = np.clip(res.x, Q_LO, 1.0)
    q = q / q.sum()
    iterations = int(res.nit)

    # Newton polish on the equality-constrained KKT system
    best_res = _kkt_residual(spec, q, eta)
    for _ in range(40):
        if best_res <= 1e-13:
            break
        _, grad, hess = _risk_terms(spec, q, eta)
        free = (q > Q_LO * 4.0) & (q < 1.0 - 1e-9) & (hess > 0.0)
        if not free.any():
            break
        inv_h = 1.0 / hess[free]
        mu = -float(np.sum(grad[free] * inv_h) / np.sum(inv_h))
        step = np.zeros_like(q)
        step[free] = -(grad[free] + mu) * inv_h
        scale = 1.0
        qn = q + step
        while scale > 1e-8 and (np.any(qn < Q_LO) or np.any(qn > 1.0)):
            scale *= 0.5
            qn = q + scale * step
        rn = _kkt_residual(spec, qn, eta)
        if rn < best_res:
            q, best_res = qn, rn
        else:
            break
    val, = _risk_terms(spec, q, eta, 0)
    return MinimizerResult(q_star=q, objective=val, iterations=iterations,
                           converged=best_res <= KKT_TOL, kkt_residual=best_res)


def minimize_risk(spec: LossSpec, eta) -> MinimizerResult:
    """Minimize the pointwise conditional risk over the probability simplex."""
    eta = as_simplex(eta)
    if spec.family == "flsd53":
        raise ValueError("flsd53 risk is discontinuous in q; minimizer undefined")
    if eta.shape[0] == 2:
        return _minimize_binary(spec, eta)
    return _minimize_general(spec, eta)


def sigma_eval(spec: SigmaSpec, q: float) -> float:
    """(1-q)^gamma - gamma q log(q) (1-q)^(gamma-1) - 2 lambda q on (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in the open interval (0, 1)")
    g, lam = spec.gamma, spec.lam
    middle = 0.0 if g == 0.0 else g * q * np.log(q) * (1.0 - q) ** (g - 1.0)
    return float((1.0 - q) ** g - middle - 2.0 * lam * q)


def sigma_root(spec: SigmaSpec, tol: float = 1e-10) -> float:
    """Unique zero of sigma on (0, 1), by bisection (requires lambda > 0)."""
    if spec.lam <= 0.0:
        raise ValueError("sigma root requires lambda > 0 (boundary root at q -> 1 otherwise)")
    if spec.gamma == 0.0:
        # linear case: sigma(q) = 1 - 2 lam q
        root = 1.0 / (2.0 * spec.lam)
        if root >= 1.0:
            raise ConvergenceError("sigma endpoints do not bracket a root")
        return root
    lo, hi = 1e-12, 1.0 - 1e-12
    f_lo, f_hi = sigma_eval(spec, lo), sigma_eval(spec, hi)
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise ConvergenceError("sigma endpoints do not bracket a root")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if sigma_eval(spec, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def optimal_curve(spec: LossSpec, q_grid) -> list[tuple[float, float]]:
    """Binary optimal predictions: p*(q) minimizing the two-point mixture risk.

    ``q`` is the ground-truth probability of class 0 and ``p*`` the optimal
    probability assigned to class 0.
    """
    out = []
    for q in np.asarray(q_grid, dtype=float):
        if not 0.0 <= q <= 1.0:
            raise ValueError("grid values must lie in [0, 1]")
        eta = np.array([q, 1.0 - q])
        res = _minimize_binary(spec, eta)
        out.append((float(q), float(res.q_star[0])))
    return out


def oc_uc_bound(p_hat, eta) -> dict:
    """Top-probability gap against the infinity- and 2-norm distances."""
    p = np.asarray(p_hat, dtype=float)
    e = np.asarray(eta, dtype=float)
    if p.shape != e.shape:
        raise ValueError("p_hat and eta dimensions do not match")
    lhs = abs(float(p.max()) - float(e.max()))
    rhs_linf = float(np.max(np.abs(p - e)))
    rhs_l2 = float(np.linalg.norm(p - e))
    return {"lhs": lhs, "rhs_linf": rhs_linf, "rhs_l2": rhs_l2,
            "holds": lhs <= rhs_l2 + 1e-12}


def order_preservation_check(spec: LossSpec, eta) -> bool:
    """True iff the risk minimizer ranks classes like the posterior."""
    eta = as_simplex(eta)
    if np.unique(eta).size != eta.size:
        raise ValueError("eta entries must be distinct (ties excluded)")
    res = minimize_risk(spec, eta)
    if not res.converged:
        raise ConvergenceError(
            f"risk minimizer did not converge (KKT residual {res.kkt_residual:.3e})")
    return bool(np.array_equal(np.argsort(res.q_star), np.argsort(eta)))
