"""Executable machinery for the loss-family theory.

Pointwise conditional risk over the simplex, its minimizer, the auxiliary
strictly-decreasing sigma function with its unique interior root, binary
optimal-prediction curves, and the overconfidence/underconfidence bound.

The risk of every supported family is separable across classes:
``risk(q) = sum_i t_i * phi_gamma(q_i) + a * (||q||^2 - 2 eta.q + 1)`` with
t, gamma and a from ``losses.class_terms``, each term convex in q_i. So for K >= 3
the minimizer solves one equation in the multiplier mu of sum q = 1 by dual
safeguarded Newton (``iterations`` counts the trial values of mu); binary
specs solve for the zero of the risk derivative by the same rule
(``iterations`` counts its passes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._common import ConvergenceError, as_simplex, newton_root, newton_root_scalar
from .losses import LossSpec, batch_values, class_terms

Q_LO = 1e-12
Q_HI = 1.0 - 1e-12
KKT_TOL = 1e-8
# |sum q - 1| above this is off the simplex, whatever the KKT residual says;
# a solved point sums to 1 within a few ulp
SIMPLEX_TOL = 1e-12


@dataclass
class MinimizerResult:
    q_star: np.ndarray
    objective: float
    iterations: int
    converged: bool
    kkt_residual: float


@dataclass(frozen=True)
class SigmaSpec:
    gamma: float
    lam: float

    def __post_init__(self):
        if not (0.0 <= self.gamma < np.inf and 0.0 <= self.lam < np.inf):
            raise ValueError("gamma and lambda must be finite and >= 0")


def _risk_terms(spec: LossSpec, q: np.ndarray, eta: np.ndarray, order: int = 2) -> list:
    """[value] for order 0, else [gradient, diagonal hessian][:order], of the risk
    at q; ``q`` and ``eta`` broadcast as (..., K), and the value sums over K."""
    out = class_terms(spec, q, eta, order)
    if order:
        return out[1:]
    value = np.sum(out[0], axis=-1)
    a = spec.coeffs[1]
    if a:
        # sum_y eta_y a ||q - e_y||^2 = a (||q||^2 - 2 eta.q + 1)
        value = value + a * (np.sum(q * q, axis=-1) - 2.0 * np.sum(eta * q, axis=-1) + 1.0)
    return [value]


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
    grad, = _risk_terms(spec, q, eta, 1)
    at_lo, at_hi = q <= Q_LO * 4.0, q >= 1.0 - 1e-9
    free = ~(at_lo | at_hi)
    mu = -float(grad[free].mean() if free.any() else grad.mean())
    viol = np.where(free, np.abs(grad + mu), np.where(at_lo, -(grad + mu), grad + mu))
    return max(0.0, float(np.max(viol)))


def _minimize_simplex(spec: LossSpec, eta: np.ndarray):
    """K >= 3: solve 1 - sum_i q_i(mu) = 0, whose slope is sum 1/f_i'' over free q_i.

    q_i(mu) sits at the end of [Q_LO, top] where f_i' + mu keeps one sign over
    it; no q_i on the simplex exceeds top. Returns q and the trial values of mu.
    """
    top = 1.0 - (eta.shape[0] - 1) * Q_LO
    q = Q_LO + (1.0 - eta.shape[0] * Q_LO) * eta  # feasible, and equal where eta is
    grad, hess = _risk_terms(spec, q, eta, 2)
    ends, = _risk_terms(spec, np.array([[Q_LO], [top]]), eta, 1)

    def excess(mu):
        nonlocal q

        def shifted(x):
            g, h = _risk_terms(spec, x, eta, 2)
            return g + mu, h

        at_lo = ends[0] + mu >= 0.0
        at_hi = ~at_lo & (ends[1] + mu <= 0.0)
        q, hess, _ = newton_root(shifted, np.where(at_hi, top, Q_LO),
                                 np.where(at_lo, Q_LO, top), q)
        free = (q > Q_LO) & (q < top) & (hess > 0.0)
        return 1.0 - np.sum(q), np.sum(1.0 / np.where(free, hess, np.inf))

    # mu lies between the extremes of -grad at q; start at its Newton estimate
    mu_lo, mu_hi = float(np.min(-grad)), float(np.max(-grad))
    inv = 1.0 / np.where(hess > 0.0, hess, np.inf)
    mu0 = -np.sum(grad * inv) / np.sum(inv) if np.sum(inv) > 0.0 else 0.5 * (mu_lo + mu_hi)
    _, _, iterations = newton_root(excess, mu_lo, mu_hi, mu0)
    return q, iterations


def _minimize_binary(spec: LossSpec, eta: np.ndarray):
    """Zero of the nondecreasing risk derivative of each row of ``eta`` (n, 2), each
    row exactly as it would be alone. Returns q (n, 2) and the Newton passes."""
    def deriv(x):
        g, h = _risk_terms(spec, np.stack([x, 1.0 - x], axis=-1), eta, 2)
        return g[..., 0] - g[..., 1], h[..., 0] + h[..., 1]

    d_lo, d_hi = deriv(np.array([[Q_LO], [Q_HI]]))[0]
    # a derivative that keeps one sign over the interval pins the row to an end,
    # Q_LO first, as a collapsed bracket
    lo = np.where(~(d_lo >= 0.0) & (d_hi <= 0.0), Q_HI, Q_LO)
    hi = np.where(d_lo >= 0.0, Q_LO, Q_HI)
    x, _, passes = newton_root(deriv, lo, hi, eta[:, 0])
    return np.stack([x, 1.0 - x], axis=-1), passes


def minimize_risk(spec: LossSpec, eta) -> MinimizerResult:
    """Minimize the pointwise conditional risk over the probability simplex."""
    eta = as_simplex(eta)
    if spec.family == "flsd53":
        raise ValueError("flsd53 risk is discontinuous in q; minimizer undefined")
    q, iterations = (_minimize_simplex(spec, eta) if eta.shape[0] > 2
                     else _minimize_binary(spec, eta[None]))
    q = q.reshape(eta.shape)
    val, = _risk_terms(spec, q, eta, 0)
    res = _kkt_residual(spec, q, eta)
    on_simplex = abs(float(q.sum()) - 1.0) <= SIMPLEX_TOL
    return MinimizerResult(q_star=q, objective=float(val), iterations=int(iterations),
                           converged=res <= KKT_TOL and on_simplex, kkt_residual=res)


def sigma_eval(sigma: SigmaSpec, q: float) -> float:
    """(1-q)^gamma - gamma q log(q) (1-q)^(gamma-1) - 2 lambda q on (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in the open interval (0, 1)")
    g, lam = sigma.gamma, sigma.lam
    middle = 0.0 if g == 0.0 else g * q * math.log(q) * math.pow(1.0 - q, g - 1.0)
    return float(math.pow(1.0 - q, g) - middle - 2.0 * lam * q)


def sigma_root(sigma: SigmaSpec) -> float:
    """Unique zero of sigma on (0, 1), to adjacent floats (requires lambda > 0)."""
    if sigma.lam <= 0.0:
        raise ValueError("sigma root requires lambda > 0 (boundary root at q -> 1 otherwise)")
    if sigma.gamma == 0.0:
        # linear case: sigma(q) = 1 - 2 lam q
        root = 1.0 / (2.0 * sigma.lam)
        if root >= 1.0:
            raise ConvergenceError("sigma endpoints do not bracket a root")
        return root
    lo, hi = 1e-12, 1.0 - 1e-12
    if sigma_eval(sigma, lo) <= 0.0 or sigma_eval(sigma, hi) >= 0.0:
        raise ConvergenceError("sigma endpoints do not bracket a root")
    # -sigma rises through its root; a nan slope bisects down to adjacent floats
    root, _ = newton_root_scalar(lambda x: (-sigma_eval(sigma, x), math.nan), lo, hi, 0.5)
    return root


def optimal_curve(spec: LossSpec, q_grid) -> list[tuple[float, float]]:
    """Binary optimal predictions: p*(q) minimizing the two-point mixture risk.

    ``q`` is the ground-truth probability of class 0 and ``p*`` the optimal
    probability assigned to class 0.
    """
    grid = np.asarray(q_grid, dtype=float).reshape(-1)
    if not np.all((grid >= 0.0) & (grid <= 1.0)):
        raise ValueError("grid values must lie in [0, 1]")
    q, _ = _minimize_binary(spec, np.stack([grid, 1.0 - grid], axis=-1))
    return list(zip(grid.tolist(), q[:, 0].tolist()))


def oc_uc_bound(p_hat, eta) -> dict:
    """Top-probability gap against the infinity- and 2-norm distances."""
    p = np.asarray(p_hat, dtype=float)
    e = np.asarray(eta, dtype=float)
    if p.shape != e.shape:
        raise ValueError("p_hat and eta dimensions do not match")
    # Python floats: a numpy reduction's fixed cost dwarfs K additions
    ps, es = p.ravel().tolist(), e.ravel().tolist()
    lhs = abs(max(ps) - max(es))
    rhs_linf = max([abs(a - b) for a, b in zip(ps, es)])
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
