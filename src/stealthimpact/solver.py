"""Per-index convex solves and impact aggregation.

Each row i of the critical map T_Z defines one program: maximize T_Z(i,:) d
over the symmetric feasible set {|Q d|_inf <= 1, d' M'M d <= radius, d = Z xi},
where the orthonormal columns of Z span the admissible decision vectors.
Because the set is symmetric and the exceedance probability of N(mu, sigma^2)
outside [-1, 1] is even and increasing in |mu|, maximizing the mean maximizes
the probability, so the worst exceedance probability is max_i P_i and the
worst expected infinity norm is lower-bounded by max_i mu_i.

Method. compute_impact is the one entry: it solves every critical row of a
Gaussian summary in one batch. The solve works in the coordinates xi, over the
basis Z that the decision layout writes down in closed form from the
strategy's injection modes. One SVD of the reduced quadratic map T_R Z gives
its kept right singular vectors V_r and singular values s_R; the part of the
box rows outside span(V_r) gives the box-only directions U_perp. Directions
outside [V_r U_perp] either leave the objective flat or certify
unboundedness. In the coordinates eta = (x; w) over [V_r U_perp] every row
solves

    maximize c'eta  subject to  |A eta|_inf <= 1,  |s * x|^2 <= 1,

with s = s_R / sqrt(radius), A = [B C] the box over (x, w), G = diag(s^2, 0)
and ker A & ker G = {0}, so the feasible set is compact. The box acts only on
the reference, so A has k = n_yr rows. A radius at or below _RADIUS_FLOOR, a
zero budget, sets s = inf, which pins x = 0 in the same program.

One rank decision: singular values of T_R Z below RANK_RTOL times the larger
of its largest one and the box norm are rounding noise, and their directions
are dropped, else that noise would enter G^+ and the certificate below. The
cut reads T_R Z unscaled, so it keeps the same directions, and gives the same
boundedness verdicts, at every radius: whether the detector sees an attack
direction does not depend on the budget. The same RANK_RTOL, relative to the
row, zeroes a reduced objective, a pattern's objective in the slice and the
part of g outside range(G) in the dual bound: a tighter tolerance would read
as signal what the cut's dropped directions leave behind, of relative size
RANK_RTOL.

The solve runs in the scaled coordinates u = s * x, where the quadratic is the
unit ball (with s = inf, x = u / s and the x block of G^+ are 0, and the box
and the objective see no u). The box sees u only through the row space of
B diag(1/s), which has an orthonormal basis q_u of at most k columns. For one
row, split the part of u outside range(q_u) into tau e_c, e_c the unit
direction of the row's objective there, and a remainder that neither the box
nor the objective sees: dropping the remainder keeps a point feasible and
keeps its value. So each row solves the same kind of program over
zeta = (v, tau, w), u = q_u v + tau e_c, of dimension at most 2k + 1, with the
box R = [B diag(1/s) q_u, 0, C] and G = diag(I, 0); everything below works in
it, and no pattern factors an n-sized matrix.

A sign pattern (S, s_S) fixes the box rows S at A_S zeta = s_S, where
A_S = [R_S 0 C_S] over (v, tau, w). G_N, G on null(A_S), is nonsingular iff
C_S has full column rank p = dim w: a null direction that G does not see is a
w with C_S w = 0. Then w = C_S^+ (s_S - R_S v) and, with Q_C a basis of the
left null space of C_S, the slice is {H v = Q_C' s_S} with H = Q_C' R_S, which
has full row rank iff A_S does. The slice meets the ball in a ball centred at
v0 = H^+ Q_C' s_S, tau = 0 (its point of least |u|), of squared radius
rho = 1 - |v0|^2. Once w is eliminated, the objective on it is
e = t - R_S' C_S^+' c_w in v (t = q_u' c_u) and |c_perp| in tau, so with P the
projector onto null(H) the maximizer is
(v0, 0) + sqrt(rho) (P e, |c_perp|) / |(P e, |c_perp|)|, or the centre when
that gradient is zero; this is xi_c + sqrt(rho) G_N^-1 c_N / ||c_N||_{G_N^-1}
in coordinates where G_N is the identity. Patterns with C_S or H
rank-deficient or rho < 0 (beyond CERT_TOL) are skipped, and sizes below p or
above p + dim v, which leave G_N singular or H too tall, are never formed.
There are at most 3^k patterns, and all rows of T_Z are handled by a few
k-sized products per pattern. Each row keeps its best candidate that
satisfies every constraint to CERT_TOL.

Exactness. Every candidate is feasible, so the best one is at most the optimum
mu. Conversely, the optimal set is compact and convex; take an optimal zeta*
whose active box rows have the largest rank, an independent subset S of them
with signs s_S, and N = null(A_S).
  * If the quadratic constraint is inactive at zeta*, moving along h in N keeps
    zeta* feasible for small steps, so c_N = 0 (else zeta* is not optimal) and
    zeta* + t h stays optimal until a box row outside span(A_S) turns active,
    which would raise the rank, or the quadratic turns active. So either
    N = {0}, and zeta* is its pattern's (unique) candidate, or an optimal point
    of the same pattern has the quadratic active.
  * With the quadratic active, a direction h in N with G h = 0 would slide
    zeta* along an optimal segment until another box row turns active, so G_N
    is positive definite. zeta* lies in the slice (rho >= 0) and maximizes c
    over it, because the slice and the feasible set agree near zeta*. When
    c_N != 0 that maximizer is unique, and it is the candidate. When c_N = 0
    the whole slice is optimal and the candidate is its centre: were an
    inactive box row broken there, the point where the segment from zeta* to
    the centre first meets that row would be optimal with a larger rank.
So some pattern's candidate attains mu, and the best candidate equals mu.

Certificate. For any box multipliers y, weak duality bounds the optimum by
||y||_1 + sqrt(g' G^+ g) with g = c - A'y, or +inf when g leaves range(G)
(Boyd & Vandenberghe, Convex Optimization, 5.2); in eta, G^+ = diag(s^-2, 0)
is read off the singular values. A pattern's multipliers are in closed form:
2 lambda = |(P e, |c_perp|)| / sqrt(rho), and y_S solves the stationarity
condition c = A_S'y + 2 lambda G zeta, its w block C_S'y = c_w exactly and its
v block R_S'y = t - 2 lambda v in least squares:
y_S = C_S^+' c_w + Q_C H^+' (e - 2 lambda v). The pattern's bound is
||y||_1 + 2 lambda. Each row takes the pattern with the smallest such bound
(the winning pattern, at a nondegenerate optimum), evaluates the bound
directly from its y in eta, and reports the relative gap to the attained value
together with the constraint residuals of d*, its distance from span(Z)
among them. Either one above CERT_TOL raises NumericalFailure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numcore
from .distrib import GaussianSummary

CERT_TOL = 1e-9
PATTERN_CAP = 8  # box rows; 3^8 sign patterns
_RADIUS_FLOOR = 1e-12


class Infeasible(RuntimeError):
    """The stealthiness radius is negative: no decision vector is feasible."""


class NumericalFailure(RuntimeError):
    """A solve did not reach its optimality certificate."""


class PatternCapExceeded(ValueError):
    """The reference box has more rows than the active-set enumeration allows."""


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


class _Geometry:
    """Shared factorization of the feasible set, reused across objective rows.

    Coordinates: d = basis @ axes @ eta, eta = (x; w), with basis the
    orthonormal admissible basis. The columns of axes are V_r, the right
    singular vectors of the reduced quadratic map kept by the rank decision,
    then U_perp, an orthonormal basis of the part of the box rows outside
    span(V_r). The quadratic constraint reads |s * x|^2 <= 1 with s the kept
    singular values over sqrt(radius), so M in these coordinates is
    [diag(s) 0], and the box rows are a_rows = [B C] over (x, w). Only s reads
    the radius: s = inf at or below _RADIUS_FLOOR pins x = 0.
    """

    def __init__(self, q_box: np.ndarray, m_quad: np.ndarray, basis: np.ndarray, radius: float) -> None:
        if radius < 0:
            raise Infeasible(f"negative stealthiness radius {radius:.6e}")
        basis = np.asarray(basis, dtype=float)
        dim_d = basis.shape[0]
        q_box = np.asarray(q_box, dtype=float).reshape(-1, dim_d)
        m_quad = np.asarray(m_quad, dtype=float).reshape(-1, dim_d)
        if q_box.shape[0] > PATTERN_CAP:
            raise PatternCapExceeded(
                f"{q_box.shape[0]} reference-box rows exceed the cap {PATTERN_CAP}"
            )

        m_red = m_quad @ basis
        # keep only the directions the quadratic map sees above rounding level
        # next to the box and itself, at any radius; the box-only directions
        # get the same cut
        _, s, vt = np.linalg.svd(m_red)
        a_red = q_box @ basis
        scale = max(np.max(s, initial=0.0), np.linalg.norm(a_red))
        rank = int(np.count_nonzero(s > numcore.RANK_RTOL * scale))
        v_r = vt[:rank].T
        _, sv, wt = np.linalg.svd(a_red - (a_red @ v_r) @ v_r.T, full_matrices=False)
        box_only = int(np.count_nonzero(sv > numcore.RANK_RTOL * scale))
        self.q_box, self.m_quad, self.basis, self.radius = q_box, m_quad, basis, radius
        self.axes = np.hstack([v_r, wt[:box_only].T])
        self.a_rows = a_red @ self.axes
        self.s = s[:rank] / math.sqrt(radius) if radius > _RADIUS_FLOOR else np.full(rank, np.inf)
        self.dim_d = dim_d

    def objective(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reduced objectives of the rows of c and whether each is bounded.

        The component of a row (restricted to the admissible span) outside
        the constraint row space is a feasible ascent ray, so a program is
        unbounded exactly when that component is nonzero. A reduced objective
        at rounding level of its row is set to zero: that row's optimum is 0.
        """
        c_xi = c @ self.basis
        c_eta = c_xi @ self.axes
        resid = c_xi - c_eta @ self.axes.T
        bounded = np.linalg.norm(resid, axis=1) <= numcore.RANK_RTOL * np.maximum(
            1.0, np.linalg.norm(c_xi, axis=1)
        )
        c_eta[np.linalg.norm(c_eta, axis=1) <= numcore.RANK_RTOL * np.linalg.norm(c, axis=1)] = 0.0
        return c_eta, bounded

    def decision(self, eta: np.ndarray) -> np.ndarray:
        """Decision vectors d of the rows of eta."""
        return (eta @ self.axes.T) @ self.basis.T

    def residual(self, d: np.ndarray) -> np.ndarray:
        """Largest constraint violation of each row of d.

        The box excess is absolute, the quadratic one relative to the radius
        and the equality one, the distance from the admissible span, relative
        to max(1, |d|_inf).
        """
        box = np.max(np.abs(d @ self.q_box.T), axis=1, initial=0.0) - 1.0
        quad = (np.sum(np.square(d @ self.m_quad.T), axis=1) - self.radius) / max(
            self.radius, _RADIUS_FLOOR
        )
        off_span = d - (d @ self.basis) @ self.basis.T
        eq = np.max(np.abs(off_span), axis=1, initial=0.0) / np.maximum(
            1.0, np.max(np.abs(d), axis=1, initial=0.0)
        )
        return np.maximum.reduce([box, quad, eq, np.zeros(d.shape[0])])


def _solve_rows(geom: _Geometry, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact maximizers of the rows of c over the reduced feasible set.

    Returns (eta, y): one maximizer per row and the box multipliers of the
    pattern whose closed-form dual bound is smallest for that row. The work
    is in the scaled coordinates u = s * x, projected onto the row space of
    the box (v = q_u' u, at most k of them) plus the one direction tau of
    each row's objective outside it; w keeps the box-only coordinates.
    """
    a, s = geom.a_rows, geom.s
    k = a.shape[0]
    r = s.size
    n_rows = c.shape[0]
    rows = np.arange(n_rows)
    q_u, r_u = np.linalg.qr((a[:, :r] / s).T)
    box_v, box_w = r_u.T, a[:, r:]  # the box over (v, w)
    kv, p = box_v.shape[1], box_w.shape[1]
    box_norm = np.linalg.norm(np.hstack([box_v, box_w]), axis=1)
    c_u, c_w = c[:, :r] / s, c[:, r:]
    t = c_u @ q_u
    c_perp = c_u - t @ q_u.T  # tau's direction; its length is tau's objective
    perp_sq = np.sum(np.square(c_perp), axis=1)
    c_norm = np.sqrt(np.sum(np.square(t), axis=1) + perp_sq + np.sum(np.square(c_w), axis=1))
    best = np.full(n_rows, -np.inf)
    v_best = np.zeros((n_rows, kv))
    w_best = np.zeros((n_rows, p))
    tau_best = np.zeros(n_rows)  # tau / |c_perp|
    best_bound = np.full(n_rows, np.inf)
    y_best = np.zeros((n_rows, k))

    # A_S = [box_v[S] C_S] has full row rank and G_N is nonsingular iff C_S has
    # full column rank p and H = Q_C' box_v[S] full row rank q = size - p
    for size in range(p, min(k, p + kv) + 1):
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=size))).T
        for subset in itertools.combinations(range(k), size):
            sub = list(subset)
            if p:
                uc, sc, vct = np.linalg.svd(box_w[sub])
                if sc[-1] <= numcore.RANK_RTOL * sc[0]:
                    continue  # G_N singular
                c_pinv = (vct.T / sc) @ uc[:, :p].T
                q_c = uc[:, p:]
            else:
                c_pinv, q_c = np.zeros((0, size)), np.eye(size)
            b_s = box_v[sub]
            h_mat = q_c.T @ b_s
            if size > p:
                uh, sh, vht = np.linalg.svd(h_mat, full_matrices=False)
                if sh[-1] <= numcore.RANK_RTOL * np.linalg.norm(box_norm[sub]):
                    continue  # A_S rank-deficient
                h_pinv = vht.T @ (uh.T / sh[:, None])
            else:
                vht, h_pinv = np.zeros((0, kv)), np.zeros((kv, 0))
            # the slice: w = c_pinv (sign - b_s v), H v = Q_C' sign, |v|^2 + tau^2 <= 1;
            # its centre v0 minimizes |v| and rho is what is left of the unit budget
            centre = h_pinv @ (q_c.T @ signs)
            rho = 1.0 - np.sum(np.square(centre), axis=0)
            valid = rho >= -CERT_TOL
            if not valid.any():
                continue
            w_signs, w_v, c_ws = c_pinv @ signs, c_pinv @ b_s, c_w @ c_pinv
            e_v = t - c_ws @ b_s  # the objective on v once w is eliminated
            pe_v = e_v - (e_v @ vht.T) @ vht
            norm = np.sqrt(np.sum(np.square(pe_v), axis=1) + perp_sq)  # |c_N| in the slice
            norm[norm <= numcore.RANK_RTOL * c_norm] = 0.0
            with np.errstate(invalid="ignore", divide="ignore"):
                inv = np.where(norm > 0.0, 1.0 / norm, 0.0)
            dirs = pe_v * inv[:, None]
            root = np.sqrt(np.maximum(rho, 0.0))
            value = c_ws @ signs + e_v @ centre + norm[:, None] * root[None, :]
            slide = box_v - box_w @ w_v  # box rows along v with w eliminated
            box = (slide @ centre + box_w @ w_signs)[:, None, :] + (
                dirs @ slide.T
            ).T[:, :, None] * root[None, None, :]
            ok = valid[None, :] & np.all(np.abs(box) <= 1.0 + CERT_TOL, axis=0)
            value = np.where(ok, value, -np.inf)
            j = np.argmax(value, axis=1)
            better = value[rows, j] > best
            if better.any():
                jb = j[better]
                best[better] = value[better, jb]
                v_best[better] = centre[:, jb].T + root[jb][:, None] * dirs[better]
                w_best[better] = w_signs[:, jb].T - v_best[better] @ w_v.T
                tau_best[better] = root[jb] * inv[better]

            # closed-form multipliers: C_S'y = c_w exactly and b_s'y = t - 2 lambda v
            # in least squares, through H
            with np.errstate(divide="ignore", invalid="ignore"):
                two_lam = np.where(norm[:, None] > 0.0, norm[:, None] / root[None, :], 0.0)
            lam = np.where(np.isfinite(two_lam), two_lam, 0.0)
            y_map = h_pinv @ q_c.T
            base = c_ws + e_v @ y_map
            y = base[:, None, :] - lam[:, :, None] * (
                (centre.T @ y_map)[None, :, :] + root[None, :, None] * (dirs @ y_map)[:, None, :]
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
    if not np.all(np.isfinite(best[~flat])):
        raise NumericalFailure("no sign pattern produced a feasible candidate")
    u = v_best @ q_u.T + tau_best[:, None] * c_perp
    eta = np.hstack([u / s, w_best])
    eta[flat] = 0.0
    y_best[flat] = 0.0
    return eta, y_best


def _dual_bound(geom: _Geometry, c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Weak-duality bound ||y||_1 + sqrt(g' G^+ g), g = c - A'y, per row.

    G = diag(s^2, 0), so G^+ reads off s and range(G) is the x block.
    """
    g = c - y @ geom.a_rows
    r = geom.s.size
    inner = np.sum(np.square(g[:, :r] / geom.s), axis=1)
    outside = np.linalg.norm(g[:, r:], axis=1)
    tol = numcore.RANK_RTOL * np.maximum(np.linalg.norm(c, axis=1), np.linalg.norm(g, axis=1))
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
    d_star = geom.decision(eta)
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


@np.errstate(over="raise")
def compute_impact(summary: GaussianSummary) -> ImpactReport:
    """Solve the program of every critical row in one batch and aggregate.

    Shortcut paths: a residual covariance that is not positive definite, or a
    negative stealthiness radius, means no attack satisfies the budget and the
    impact is zero by convention. With a nonnegative radius, a critical row
    with a component outside the constraint row space (the solver's
    boundedness test as it reduces the objectives) means the impact grows
    without bound: the probability metric saturates at 1 and the mean metric
    is reported as infinity. A floating-point overflow anywhere in the solve
    raises FloatingPointError rather than returning a wrong number.
    """
    layout = summary.layout
    n_rows = summary.t_z.shape[0]
    dim_d = layout.dim_d
    sigma = summary.sigma
    if not summary.residual_cov_pd or summary.eps_prime < 0:
        return _empty_report(False, False, n_rows, dim_d, summary.eps_prime, sigma)

    geom = _Geometry(layout.Q, summary.t_r, layout.Z, summary.eps_prime)
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

