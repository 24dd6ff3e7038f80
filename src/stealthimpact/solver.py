"""Per-index convex solves and impact aggregation.

Each row i of the critical map T_Z defines one program: maximize T_Z(i,:) d
over the symmetric feasible set {|Q d|_inf <= 1, d' M'M d <= radius, F d = 0}.
Because the set is symmetric and the exceedance probability of N(mu, sigma^2)
outside [-1, 1] is even and increasing in |mu|, maximizing the mean maximizes
the probability, so the worst exceedance probability is max_i P_i and the
worst expected infinity norm is lower-bounded by max_i mu_i.

Method. The equalities are eliminated through an orthonormal null-space basis
and the problem is restricted to the row space of the remaining constraint
maps (directions outside it either leave the objective flat or certify
unboundedness). In these reduced coordinates every row solves

    maximize c'eta  subject to  |A eta|_inf <= 1,  eta' G eta <= 1,

with G = M'M (M the quadratic map scaled by 1/sqrt(radius), absent when the
radius collapses) and ker A & ker M = {0}, so the feasible set is compact.
Directions M sees only at rounding level next to the box are dropped, and a
reduced objective at rounding level of its row counts as zero: otherwise
rounding noise would enter G^+ and the certificate below. The box acts only
on the reference, so A has k = n_yr rows.

A sign pattern (S, s) fixes the box rows S at A_S eta = s. With N a basis of
null(A_S) and eta0 = pinv(A_S) s, the slice {eta0 + N xi : eta' G eta <= 1}
is the ellipsoid (xi - xi_c)' G_N (xi - xi_c) <= rho, G_N = N'GN,
xi_c = -G_N^-1 N'G eta0, rho = 1 - eta0'G eta0 + eta0'G N G_N^-1 N'G eta0.
Its maximizer of c is xi_c + sqrt(rho) G_N^-1 c_N / ||c_N||_{G_N^-1}
(c_N = N'c), or the centre xi_c when c_N = 0; when N is empty the pattern's
one candidate is eta0. Patterns with A_S rank-deficient, G_N singular or
rho < 0 (beyond CERT_TOL) are skipped. G_N = N'M'MN is singular whenever N
has more columns than M has rows (or M is absent), so those patterns are
skipped by their size alone, before any factorization. There are at most 3^k
patterns, their factorizations depend only on the geometry, and all rows of
T_Z are handled by a few matrix products per pattern. Each row keeps its best
candidate that satisfies every constraint to CERT_TOL.

Exactness. Every candidate is feasible, so the best one is at most the optimum
mu. Conversely, the optimal set is compact and convex; take an optimal eta*
whose active box rows have the largest rank, an independent subset S of them
with signs s, and N = null(A_S).
  * If the quadratic constraint is inactive at eta*, moving along v in N keeps
    eta* feasible for small steps, so c_N = 0 (else eta* is not optimal) and
    eta* + t v stays optimal until a box row outside span(A_S) turns active,
    which would raise the rank, or the quadratic turns active. So either
    N = {0}, and eta* = eta0 is its pattern's candidate, or an optimal point
    of the same pattern has the quadratic active.
  * With the quadratic active, a direction v in N with M v = 0 would slide
    eta* along an optimal segment until another box row turns active, so G_N
    is positive definite. eta* lies in the slice (rho >= 0) and maximizes c
    over it, because the slice and the feasible set agree near eta*. When
    c_N != 0 that maximizer is unique, and it is the candidate. When c_N = 0
    the whole slice is optimal and the candidate is its centre: were an
    inactive box row broken there, the point where the segment from eta* to
    the centre first meets that row would be optimal with a larger rank.
So some pattern's candidate attains mu, and the best candidate equals mu.

Certificate. For any box multipliers y, weak duality bounds the optimum by
||y||_1 + sqrt(g' G^+ g) with g = c - A'y, or +inf when g leaves range(G)
(Boyd & Vandenberghe, Convex Optimization, 5.2). A pattern's multipliers are in
closed form: 2 lambda = ||c_N||_{G_N^-1} / sqrt(rho) and
y_S = pinv(A_S)' (c - 2 lambda G eta), whose bound is ||y||_1 + 2 lambda. Each
row takes the pattern with the smallest such bound (the winning pattern, at a
nondegenerate optimum), evaluates the bound directly from its y, and reports
the relative gap to the attained value together with the constraint residuals
of d*. Either one above CERT_TOL raises NumericalFailure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numcore
from .attacks import DecisionLayout
from .distrib import GaussianSummary

CERT_TOL = 1e-9
PATTERN_CAP = 8  # box rows; 3^8 sign patterns
_RADIUS_FLOOR = 1e-12
_FLAT_RTOL = 1e-12


class Infeasible(RuntimeError):
    """The stealthiness radius is negative: no decision vector is feasible."""


class NumericalFailure(RuntimeError):
    """A solve did not reach its optimality certificate."""


class PatternCapExceeded(ValueError):
    """The reference box has more rows than the active-set enumeration allows."""


@dataclass
class ConvexProblem:
    """One linear-objective program over the symmetric feasible set.

    maximize c' d  subject to  |q_box d|_inf <= 1,
                               d' m_quad' m_quad d <= radius,
                               f_eq d = 0.
    """

    c: np.ndarray
    q_box: np.ndarray
    m_quad: np.ndarray
    f_eq: np.ndarray
    radius: float


@dataclass
class SolveResult:
    d_star: np.ndarray
    mu: float
    status: str  # optimal | infeasible | unbounded
    duality_gap: float
    feasibility_residual: float


@dataclass
class ImpactReport:
    """Per-index solve outcomes plus the two aggregate impact metrics."""

    mu: np.ndarray
    sigma: np.ndarray
    p_exceed: np.ndarray
    d_star: np.ndarray
    exceed_prob: float
    mean_lower: float
    argmax_exceed: Optional[int]
    argmax_mean: Optional[int]
    feasible: bool
    unbounded: bool
    eps_prime: float
    duality_gap: float
    feasibility_residual: float
    newton_iters: int = 0  # the exact solve takes no Newton steps; the bench tracer sums this


def first_near_max(values) -> int:
    """First index whose value is within CERT_TOL * max(1, |max|) of the maximum.

    Values that close are equal to the accuracy the solve certifies, so the
    pick does not depend on rounding noise.
    """
    values = np.asarray(values, dtype=float)
    top = float(values.max())
    return int(np.argmax(values >= top - CERT_TOL * max(1.0, abs(top))))


def eliminate_equalities(f_eq: np.ndarray, dim_d: int) -> np.ndarray:
    """Orthonormal basis of the equality null space: d = Z xi spans {F d = 0}."""
    f_eq = np.asarray(f_eq, dtype=float)
    if f_eq.size == 0:
        return np.eye(dim_d)
    if f_eq.shape[1] != dim_d:
        raise ValueError(f"equality map has {f_eq.shape[1]} columns, expected {dim_d}")
    return numcore.null_basis(f_eq)


class _Geometry:
    """Shared factorization of the feasible set, reused across objective rows.

    Coordinates: d = basis @ eta where basis stacks the equality null space
    with the row-space restriction. Box rows a_j and quadratic rows m (scaled
    so the constraint reads |m eta|^2 <= 1) live in eta coordinates.
    """

    def __init__(
        self,
        q_box: np.ndarray,
        m_quad: np.ndarray,
        f_eq: np.ndarray,
        radius: float,
        dim_d: int,
    ) -> None:
        if radius < 0:
            raise Infeasible(f"negative stealthiness radius {radius:.6e}")
        q_box = np.asarray(q_box, dtype=float).reshape(-1, dim_d)
        m_quad = np.asarray(m_quad, dtype=float).reshape(-1, dim_d)
        f_eq = np.asarray(f_eq, dtype=float).reshape(-1, dim_d)
        if q_box.shape[0] > PATTERN_CAP:
            raise PatternCapExceeded(
                f"{q_box.shape[0]} reference-box rows exceed the cap {PATTERN_CAP}"
            )

        z_eq = eliminate_equalities(f_eq, dim_d)
        m_red = m_quad @ z_eq
        if radius > _RADIUS_FLOOR:
            m_red = m_red / math.sqrt(radius)
        # keep only the directions the quadratic map sees above rounding level
        # next to the box and itself, as the row-space restriction below does
        _, s, vt = np.linalg.svd(m_red)
        scale = max(np.max(s, initial=0.0), np.linalg.norm(q_box @ z_eq))
        rank = int(np.count_nonzero(s > numcore.RANK_RTOL * scale))
        if radius <= _RADIUS_FLOOR:
            # budget numerically zero: the quadratic cap collapses to the
            # equality m_quad d = 0 and joins the eliminated block
            z_eq = z_eq @ vt[rank:].T
            m_red = None
        else:
            m_red = s[:rank, None] * vt[:rank] if rank else None
        a_red = q_box @ z_eq

        stack = a_red if m_red is None else np.vstack([a_red, m_red])
        w = numcore.row_space_basis(stack)
        self.q_box, self.m_quad, self.f_eq, self.radius = q_box, m_quad, f_eq, radius
        self.z_eq = z_eq
        self.basis = z_eq @ w
        self.a_rows = a_red @ w
        self.m_rows = None if m_red is None else m_red @ w
        self.dim_d = dim_d
        self.n_eta = w.shape[1]

    def objective(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reduced objectives of the rows of c and whether each is bounded.

        The component of a row (restricted to the equality null space) outside
        the constraint row space is a feasible ascent ray, so a program is
        unbounded exactly when that component is nonzero. A reduced objective
        at rounding level of its row is set to zero: that row's optimum is 0.
        """
        c_xi = c @ self.z_eq
        c_eta = c @ self.basis
        resid = c_xi - c_eta @ (self.basis.T @ self.z_eq)
        bounded = np.linalg.norm(resid, axis=1) <= numcore.RANK_RTOL * np.maximum(
            1.0, np.linalg.norm(c_xi, axis=1)
        )
        c_eta[np.linalg.norm(c_eta, axis=1) <= _FLAT_RTOL * np.linalg.norm(c, axis=1)] = 0.0
        return c_eta, bounded

    def residual(self, d: np.ndarray) -> np.ndarray:
        """Largest constraint violation of each row of d.

        The box excess is absolute, the quadratic one relative to the radius
        and the equality one relative to max(1, |d|_inf).
        """
        box = np.max(np.abs(d @ self.q_box.T), axis=1, initial=0.0) - 1.0
        quad = (np.sum(np.square(d @ self.m_quad.T), axis=1) - self.radius) / max(
            self.radius, _RADIUS_FLOOR
        )
        eq = np.max(np.abs(d @ self.f_eq.T), axis=1, initial=0.0) / np.maximum(
            1.0, np.max(np.abs(d), axis=1, initial=0.0)
        )
        return np.maximum.reduce([box, quad, eq, np.zeros(d.shape[0])])


def _solve_rows(geom: _Geometry, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact maximizers of the rows of c over the reduced feasible set.

    Returns (eta, y): one maximizer per row and the box multipliers of the
    pattern whose closed-form dual bound is smallest for that row.
    """
    a, m = geom.a_rows, geom.m_rows
    k, n = a.shape
    n_rows = c.shape[0]
    rows = np.arange(n_rows)
    c_norm = np.linalg.norm(c, axis=1)
    best = np.full(n_rows, -np.inf)
    eta = np.zeros((n_rows, n))
    best_bound = np.full(n_rows, np.inf)
    y_best = np.zeros((n_rows, k))

    for size in range(min(k, n) + 1):
        if size < n and (m is None or m.shape[0] < n - size):
            continue  # a full-rank A_S leaves n - size null directions: G_N singular
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=size))).T
        for subset in itertools.combinations(range(k), size):
            if size:
                u, sv, vt = np.linalg.svd(a[list(subset)])
                if sv[-1] < numcore.RANK_RTOL * sv[0] or sv[0] == 0.0:
                    continue  # A_S rank-deficient
                pinv = (vt[:size].T / sv) @ u.T
                null = vt[size:].T
            else:
                pinv = np.zeros((n, 0))
                null = np.eye(n)
            centre = pinv @ signs  # eta0 per sign, replaced by the slice centre below
            if null.shape[1] == 0:
                rho = np.zeros(signs.shape[1])
                valid = np.ones(signs.shape[1], dtype=bool)
                if m is not None:
                    valid = np.sum(np.square(m @ centre), axis=0) <= 1.0 + CERT_TOL
                dirs = np.zeros((n_rows, n))
                norm = np.zeros(n_rows)
            else:
                u2, s2, v2t = np.linalg.svd(m @ null, full_matrices=False)
                if s2[-1] < numcore.RANK_RTOL * s2[0] or s2[0] == 0.0:
                    continue  # G_N singular
                # the centre minimizes |M eta| over the slice; rho is what is left of the unit budget
                centre = centre - null @ ((v2t.T / s2) @ (u2.T @ (m @ centre)))
                rho = 1.0 - np.sum(np.square(m @ centre), axis=0)
                valid = rho >= -CERT_TOL
                c_n = c @ null
                w = (c_n @ v2t.T) / s2  # ||w|| = ||c_N||_{G_N^-1}
                norm = np.linalg.norm(w, axis=1)
                norm[np.linalg.norm(c_n, axis=1) <= _FLAT_RTOL * c_norm] = 0.0
                with np.errstate(invalid="ignore", divide="ignore"):
                    dirs = np.where(
                        norm[:, None] > 0.0, ((w / s2) @ v2t) @ null.T / norm[:, None], 0.0
                    )
            if not valid.any():
                continue
            root = np.sqrt(np.maximum(rho, 0.0))
            value = c @ centre + norm[:, None] * root[None, :]
            box = (a @ centre)[:, None, :] + (dirs @ a.T).T[:, :, None] * root[None, None, :]
            ok = valid[None, :] & np.all(np.abs(box) <= 1.0 + CERT_TOL, axis=0)
            value = np.where(ok, value, -np.inf)
            j = np.argmax(value, axis=1)
            better = value[rows, j] > best
            if better.any():
                jb = j[better]
                best[better] = value[better, jb]
                eta[better] = centre[:, jb].T + root[jb][:, None] * dirs[better]

            # closed-form multipliers: c = A_S'y + 2 lambda G eta at each candidate
            with np.errstate(divide="ignore", invalid="ignore"):
                two_lam = np.where(norm[:, None] > 0.0, norm[:, None] / root[None, :], 0.0)
            y = np.broadcast_to((c @ pinv)[:, None, :], (n_rows, signs.shape[1], size))
            if m is not None and size and null.shape[1]:
                g_centre = pinv.T @ (m.T @ (m @ centre))  # size x signs
                g_dirs = ((dirs @ m.T) @ m) @ pinv  # rows x size
                lam = np.where(np.isfinite(two_lam), two_lam, 0.0)
                y = y - lam[:, :, None] * (
                    g_centre.T[None, :, :] + root[None, :, None] * g_dirs[:, None, :]
                )
            bound = np.abs(y).sum(axis=2) + two_lam
            bound = np.where(valid[None, :], bound, np.inf)
            jb = np.argmin(bound, axis=1)
            tighter = bound[rows, jb] < best_bound
            if tighter.any():
                best_bound[tighter] = bound[tighter, jb[tighter]]
                y_best[tighter] = 0.0
                if size:
                    y_best[np.ix_(tighter, subset)] = y[tighter, jb[tighter]]

    flat = c_norm == 0.0
    eta[flat] = 0.0
    y_best[flat] = 0.0
    if not np.all(np.isfinite(best[~flat])):
        raise NumericalFailure("no sign pattern produced a feasible candidate")
    return eta, y_best


def _dual_bound(geom: _Geometry, c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Weak-duality bound ||y||_1 + sqrt(g' G^+ g), g = c - A'y, per row."""
    g = c - y @ geom.a_rows
    if geom.m_rows is None:
        s, vt = np.zeros(0), np.eye(geom.n_eta)
    else:
        _, s, vt = np.linalg.svd(geom.m_rows)  # full row rank: range(G) is spanned by vt[:s.size]
    coords = g @ vt.T
    inner = np.sum(np.square(coords[:, : s.size] / s), axis=1)
    outside = np.linalg.norm(coords[:, s.size :], axis=1)
    tol = _FLAT_RTOL * np.maximum(np.linalg.norm(c, axis=1), np.linalg.norm(g, axis=1))
    return np.where(outside <= tol, np.abs(y).sum(axis=1) + np.sqrt(inner), np.inf)


@dataclass
class _Batch:
    d_star: np.ndarray
    mu: np.ndarray
    duality_gap: float
    feasibility_residual: float


def _solve_batch(geom: _Geometry, c: np.ndarray) -> Optional[_Batch]:
    """Exact optimum of every row of c, or None when some row is unbounded.

    Raises NumericalFailure when the duality gap or a constraint residual of
    any row exceeds CERT_TOL.
    """
    c = np.asarray(c, dtype=float).reshape(-1, geom.dim_d)
    c_eta, bounded = geom.objective(c)
    if not bounded.all():
        return None
    eta, y = _solve_rows(geom, c_eta)
    d_star = eta @ geom.basis.T
    mu = np.sum(c * d_star, axis=1)
    bound = _dual_bound(geom, c_eta, y)
    gap = np.abs(bound - mu) / np.maximum(np.abs(mu), np.finfo(float).tiny)
    residual = geom.residual(d_star)
    worst_gap = float(np.max(gap, initial=0.0))
    worst_res = float(np.max(residual, initial=0.0))
    if not worst_gap <= CERT_TOL or not worst_res <= CERT_TOL:
        raise NumericalFailure(
            f"optimality certificate not met: duality gap {worst_gap:.3e}, "
            f"feasibility residual {worst_res:.3e} (tolerance {CERT_TOL:.0e})"
        )
    return _Batch(d_star, mu, worst_gap, worst_res)


def solve_qclp(problem: ConvexProblem) -> SolveResult:
    """Solve one program; raises Infeasible when the radius is negative."""
    dim_d = np.asarray(problem.c).shape[-1]
    geom = _Geometry(problem.q_box, problem.m_quad, problem.f_eq, problem.radius, dim_d)
    batch = _solve_batch(geom, problem.c)
    if batch is None:
        return SolveResult(np.zeros(dim_d), math.inf, "unbounded", math.nan, math.nan)
    return SolveResult(
        batch.d_star[0], float(batch.mu[0]), "optimal", batch.duality_gap, batch.feasibility_residual
    )


def _empty_report(feasible: bool, unbounded: bool, n_rows: int, dim_d: int, eps_prime: float, sigma: np.ndarray) -> ImpactReport:
    fill = math.nan if unbounded else 0.0
    return ImpactReport(
        mu=np.full(n_rows, fill),
        sigma=sigma,
        p_exceed=np.full(n_rows, fill),
        d_star=np.zeros((n_rows, dim_d)),
        exceed_prob=1.0 if unbounded else 0.0,
        mean_lower=math.inf if unbounded else 0.0,
        argmax_exceed=None,
        argmax_mean=None,
        feasible=feasible,
        unbounded=unbounded,
        eps_prime=eps_prime,
        duality_gap=0.0,
        feasibility_residual=0.0,
    )


def compute_impact(summary: GaussianSummary, layout: DecisionLayout) -> ImpactReport:
    """Solve the program of every critical row in one batch and aggregate.

    Shortcut paths: a residual covariance that is not positive definite, or a
    negative stealthiness radius, means no attack satisfies the budget and the
    impact is zero by convention. With a nonnegative radius, a critical row
    with a component outside the constraint row space (the solver's
    boundedness test as it reduces the objectives) means the impact grows
    without bound: the probability metric saturates at 1 and the mean metric
    is reported as infinity.
    """
    n_rows = summary.t_z.shape[0]
    dim_d = layout.dim_d
    sigma = np.sqrt(np.diag(summary.sigma_z))
    if not summary.residual_cov_pd or summary.eps_prime < 0:
        return _empty_report(False, False, n_rows, dim_d, summary.eps_prime, sigma)

    geom = _Geometry(layout.Q, summary.t_r, layout.F, summary.eps_prime, dim_d)
    batch = _solve_batch(geom, summary.t_z)
    if batch is None:
        return _empty_report(True, True, n_rows, dim_d, summary.eps_prime, sigma)

    mu = batch.mu
    p = np.asarray(numcore.gaussian_exceed(mu, sigma))
    argmax_p = first_near_max(p)
    argmax_mu = first_near_max(mu)
    return ImpactReport(
        mu=mu,
        sigma=sigma,
        p_exceed=p,
        d_star=batch.d_star,
        exceed_prob=float(p[argmax_p]),
        mean_lower=float(mu[argmax_mu]),
        argmax_exceed=argmax_p,
        argmax_mean=argmax_mu,
        feasible=True,
        unbounded=False,
        eps_prime=summary.eps_prime,
        duality_gap=batch.duality_gap,
        feasibility_residual=batch.feasibility_residual,
    )

