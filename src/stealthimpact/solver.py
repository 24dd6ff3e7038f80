"""Per-index convex solves and impact aggregation.

Each row i of the critical map T_Z defines one program: maximize T_Z(i,:) d
over the symmetric feasible set {|Q d|_inf <= 1, d' M'M d <= radius, d = Z xi},
where the orthonormal columns of Z span the admissible decision vectors.
Because the set is symmetric and the exceedance probability of N(mu, sigma^2)
outside [-1, 1] is even and increasing in |mu|, maximizing the mean maximizes
the probability, so the worst exceedance probability is max_i P_i and the
worst expected infinity norm is lower-bounded by max_i mu_i.

Method. compute_impact is the one entry: it evaluates, at the summary's
radius r, the ImpactCurve the summary carries, which holds the optimum of
every critical row as a function of r. The curve works in the coordinates
xi, over the basis Z that the decision layout keeps as indices from the
strategy's injection modes: its reduce forms T_R Z, Q Z and c Z by a gather
plus one sum over the steps per held channel, and its lift maps xi to
d = Z xi by a scatter, so Z is never formed. One SVD of the reduced
quadratic map T_R Z gives its kept right singular vectors V_r and singular
values s_R; the part of the box rows outside span(V_r) gives the box-only
directions U_perp.
Directions outside [V_r U_perp] either leave the objective flat or certify
unboundedness. In the coordinates eta = (x; w) over [V_r U_perp] every row
solves

    maximize c'eta  subject to  |A eta|_inf <= 1,  |s_R * x|^2 <= r,

with A = [B C] the box over (x, w), G = diag(s_R^2, 0) and
ker A & ker G = {0}, so the feasible set is compact. The box acts only on
the reference, so A has k = n_yr rows. Only the right-hand side r reads the
radius. A radius at or below _RADIUS_FLOOR, a zero budget, counts as r = 0,
which pins x = 0.

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

The curve works in u = s_R * x, where the quadratic is the ball |u|^2 <= r.
The box sees u only through the row space of B diag(1/s_R), which has an
orthonormal basis q_u of at most k columns. For one row, split the part of
u outside range(q_u) into tau e_c, e_c the unit direction of the row's
objective there, and a remainder that neither the box nor the objective
sees: dropping the remainder keeps a point feasible and keeps its value. So
each row solves the same kind of program over zeta = (v, tau, w),
u = q_u v + tau e_c, of dimension at most 2k + 1, with the box
R = [B diag(1/s_R) q_u, 0, C] and the ball zeta' G zeta = |v|^2 + tau^2 <= r,
G = diag(I, 0); everything below works in it, and no pattern factors an
n-sized matrix.

A sign pattern (S, s_S) fixes the box rows S at A_S zeta = s_S, where
A_S = [R_S 0 C_S] over (v, tau, w). G_N, G on null(A_S), is nonsingular iff
C_S has full column rank p = dim w: a null direction that G does not see is a
w with C_S w = 0. Then w = C_S^+ (s_S - R_S v) and, with Q_C a basis of the
left null space of C_S, the slice is {H v = Q_C' s_S} with H = Q_C' R_S, which
has full row rank iff A_S does. The slice meets the ball in a ball centred at
v0 = H^+ Q_C' s_S, tau = 0 (its point of least |u|), of squared radius
t^2 = r - kappa, kappa = |v0|^2. Once w is eliminated, the objective on it is
e = t_c - R_S' C_S^+' c_w in v (t_c = q_u' c_u) and |c_perp| in tau, so with P
the projector onto null(H) the maximizer is (v0, 0) + t n with the unit
n = (P e, |c_perp|) / b, b = |(P e, |c_perp|)|, or the centre when b = 0. No
part of the pattern but t reads r: its candidate is a piece affine in
t = sqrt(r - kappa), of value a + b t, box rows alpha + beta t and maximizer
zeta_0 + t zeta_1, and it is valid where r >= kappa and every box row holds,
each to CERT_TOL. Patterns with C_S or H rank-deficient are skipped, and
sizes below p or above p + dim v, which leave G_N singular or H too tall,
are never formed. There are at most 3^k patterns, and all rows of T_Z are
handled by a few k-sized products per pattern.

Two tests inside the enumeration decide on the pattern alone, at no radius.
H counts as rank-deficient when its smallest singular value is at most
RANK_RTOL |R_S|_F: H is R_S projected by the orthonormal Q_C, so its rounding
is relative to R_S, and C_S's scale enters only through Q_C. The slice
gradient b is zeroed when it is at most RANK_RTOL times the norm of the terms
it is formed from, (t_c, |c_perp|, R_S' C_S^+' c_w), since rounding in a
difference is relative to its terms. In the coordinates u / sqrt(r), where
the ball has unit radius, every one of these quantities scales by sqrt(r),
so either verdict holds at every radius. A per-radius solve that compared H with the
rows of [R_S C_S], and b with the whole row (t_c, |c_perp|, c_w), mixed such
terms with unscaled ones and gave these verdicts only as r grows.

The curve reduces the rows (and so gives the boundedness verdict) once, on
its first read, and enumerates the patterns once, on its first solve.
compute_impact at a radius only evaluates the pieces: per row it keeps the
best valid candidate, then checks the certificate below at that radius.
The evaluation carries a leading radius axis through the pieces, the dual
bound and the residual, and a single radius is a batch of one: a curve
built with the radii its run will read, in order, evaluates them together,
a chunk of bounded size at a time, when the first radius of a chunk is
solved, and every other solve in the chunk reads its held result. Each
radius reads only its own slice, so its result, and the failure it may
raise, are the same in any batch, and a failure is raised only when its
radius is read.

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
    is positive definite. zeta* lies in the slice (r >= kappa) and maximizes c
    over it, because the slice and the feasible set agree near zeta*. When
    c_N != 0 that maximizer is unique, and it is the candidate. When c_N = 0
    the whole slice is optimal and the candidate is its centre: were an
    inactive box row broken there, the point where the segment from zeta* to
    the centre first meets that row would be optimal with a larger rank.
So some pattern's candidate attains mu, and the best candidate equals mu.

Certificate. For any box multipliers y, weak duality bounds the optimum by
||y||_1 + sqrt(r g' G^+ g) with g = c - A'y, or +inf when g leaves range(G)
(Boyd & Vandenberghe, Convex Optimization, 5.2); in eta, G^+ = diag(s_R^-2, 0)
is read off the singular values. A pattern's multipliers are in closed form
in t. The quadratic's share of the bound is 2 lambda = r b / t, lambda the
multiplier of |s_R * x|^2 / r <= 1, which is 0 when b = 0 or r = 0 and
infinite when t = 0 < r b. y_S solves the stationarity condition
c = A_S'y + (b / t) (v, tau, 0), its w block C_S'y = c_w exactly and its v
block R_S'y = t_c - (b / t) v in least squares:
y_S = Y_0 - (b / t) Q_C H^+' v0 with Y_0 = C_S^+' c_w + Q_C H^+' (e - P e),
the b / t term taken as 0 at t = 0. The pattern's bound is
||y||_1 + 2 lambda. Each row takes the valid pattern with the smallest such
bound (the winning pattern, at a nondegenerate optimum), evaluates the bound
directly from its y in eta, and reports the relative gap to the attained value
together with the constraint residuals of d*, its distance d* - Z Z'd* from
span(Z) among them, taken as d* - lift(reduce(d*)). Either one above
CERT_TOL raises NumericalFailure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import numcore

if TYPE_CHECKING:  # distrib builds each summary's curve from this module
    from .attacks import DecisionLayout
    from .distrib import GaussianSummary

CERT_TOL = 1e-9
PATTERN_CAP = 8  # box rows; 3^8 sign patterns
_RADIUS_FLOOR = 1e-12
_BLOCK = 2**PATTERN_CAP * PATTERN_CAP  # (radius, pattern, box row) entries evaluated together per row,
# as many as one subset at the cap has at one radius
_CHUNK = 2**16  # (radius, row, column) entries of one batch of radii


class Infeasible(RuntimeError):
    """The stealthiness radius is negative: no decision vector is feasible."""


class NumericalFailure(RuntimeError):
    """A solve did not reach its optimality certificate."""


class PatternCapExceeded(ValueError):
    """The reference box has more rows than the active-set enumeration allows."""


def check_pattern_cap(box_rows: int) -> None:
    """Raise PatternCapExceeded when a reference box of box_rows rows is over PATTERN_CAP."""
    if box_rows > PATTERN_CAP:
        raise PatternCapExceeded(f"{box_rows} reference-box rows exceed the cap {PATTERN_CAP}")


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

    Coordinates: d = Z xi and xi = axes @ eta, eta = (x; w), with Z the
    orthonormal admissible basis that the layout applies by reduce (m Z) and
    lift (Z xi). The columns of axes are V_r, the right singular vectors of
    the reduced quadratic map kept by the rank decision, then U_perp, an
    orthonormal basis of the part of the box rows outside span(V_r). The
    quadratic constraint reads |s * x|^2 <= r with s the kept singular
    values, so M in these coordinates is [diag(s) 0], and the box rows are
    a_rows = [B C] over (x, w). Nothing here reads the radius.
    """

    def __init__(self, q_box: np.ndarray, m_quad: np.ndarray, layout: DecisionLayout) -> None:
        q_box = np.asarray(q_box, dtype=float).reshape(-1, layout.dim_d)
        m_quad = np.asarray(m_quad, dtype=float).reshape(-1, layout.dim_d)
        check_pattern_cap(q_box.shape[0])

        m_red = layout.reduce(m_quad)
        # keep only the directions the quadratic map sees above rounding level
        # next to the box and itself, at any radius; the box-only directions
        # get the same cut
        _, s, vt = np.linalg.svd(m_red)
        a_red = layout.reduce(q_box)
        scale = max(np.max(s, initial=0.0), np.linalg.norm(a_red))
        rank = int(np.count_nonzero(s > numcore.RANK_RTOL * scale))
        v_r = vt[:rank].T
        _, sv, wt = np.linalg.svd(a_red - (a_red @ v_r) @ v_r.T, full_matrices=False)
        box_only = int(np.count_nonzero(sv > numcore.RANK_RTOL * scale))
        self.q_box, self.m_quad, self.layout = q_box, m_quad, layout
        self.axes = np.hstack([v_r, wt[:box_only].T])
        self.a_rows = a_red @ self.axes
        self.s = s[:rank]

    def scales(self, radii) -> np.ndarray:
        """The scales s / sqrt(r) of x at each radius r, along a new last axis.

        At or below _RADIUS_FLOOR the scales are inf, which pins x = 0.
        """
        r = np.asarray(radii, dtype=float)[..., None]
        out = np.full(r.shape[:-1] + self.s.shape, np.inf)
        return np.divide(self.s, np.sqrt(r), out=out, where=r > _RADIUS_FLOOR)

    def objective(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reduced objectives of the rows of c and whether each is bounded.

        The component of a row (restricted to the admissible span) outside
        the constraint row space is a feasible ascent ray, so a program is
        unbounded exactly when that component is nonzero. A reduced objective
        at rounding level of its row is set to zero: that row's optimum is 0.
        """
        c_xi = self.layout.reduce(c)
        c_eta = c_xi @ self.axes
        resid = c_xi - c_eta @ self.axes.T
        bounded = np.linalg.norm(resid, axis=1) <= numcore.RANK_RTOL * np.maximum(
            1.0, np.linalg.norm(c_xi, axis=1)
        )
        c_eta[np.linalg.norm(c_eta, axis=1) <= numcore.RANK_RTOL * np.linalg.norm(c, axis=1)] = 0.0
        return c_eta, bounded

    def decision(self, eta: np.ndarray) -> np.ndarray:
        """Decision vectors d of the rows of eta."""
        return self.layout.lift(eta @ self.axes.T)

    def residual(self, d: np.ndarray, radii) -> np.ndarray:
        """Largest constraint violation of each row of d, its leading axis the radius's.

        The box excess is absolute, the quadratic one relative to the radius
        and the equality one, the distance from the admissible span, relative
        to max(1, |d|_inf).
        """
        r = np.asarray(radii, dtype=float)[..., None]
        box = np.max(np.abs(d @ self.q_box.T), axis=-1, initial=0.0) - 1.0
        quad = (np.sum(np.square(d @ self.m_quad.T), axis=-1) - r) / np.maximum(r, _RADIUS_FLOOR)
        off_span = d - self.layout.lift(self.layout.reduce(d))
        eq = np.max(np.abs(off_span), axis=-1, initial=0.0) / np.maximum(
            1.0, np.max(np.abs(d), axis=-1, initial=0.0)
        )
        return np.maximum.reduce([box, quad, eq, np.zeros(d.shape[:-1])])


@dataclass
class _Pieces:
    """Every sign pattern's piece, from one enumeration at unit radius.

    Per pattern, in enumeration order: kappa, the index g of its subset, and
    the parts at t = 0: a (per row), alpha, centre and w0, and d_map, the
    part of y that scales as b / t. Per subset and row: the slope b, 1/b (0
    where b = 0), beta, dirs, w1 and Y_0, kept once per subset because none
    of them reads the sign. k-wide arrays are zero outside the subset. Also
    the reduced rows c_eta, v's basis q_u and each row's tau direction
    c_perp, whose length is tau's objective.
    """

    geom: _Geometry
    c_eta: np.ndarray
    q_u: np.ndarray
    c_perp: np.ndarray
    kappa: np.ndarray  # (P,)
    g: np.ndarray  # (P,)
    a: np.ndarray  # (P, rows)
    alpha: np.ndarray  # (P, k)
    centre: np.ndarray  # (P, kv)
    w0: np.ndarray  # (P, p)
    d_map: np.ndarray  # (P, k)
    b: np.ndarray  # (G, rows)
    inv_b: np.ndarray  # (G, rows)
    beta: np.ndarray  # (G, rows, k)
    dirs: np.ndarray  # (G, rows, kv)
    w1: np.ndarray  # (G, rows, p)
    y0: np.ndarray  # (G, rows, k)


def _t(m: np.ndarray) -> np.ndarray:
    return m.swapaxes(-1, -2)


@lru_cache(maxsize=None)  # at most (PATTERN_CAP + 1)^2 entries
def _subsets(k: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The subsets of size of k box rows, as indices and as one-hot maps onto
    the k rows (subset, size, k), and the sign columns of a subset; read-only,
    since every caller shares them."""
    combos = list(itertools.combinations(range(k), size))
    sub = np.array(combos, dtype=int).reshape(len(combos), size)
    pick = np.zeros((len(combos), size, k))
    pick[np.arange(len(combos))[:, None], np.arange(size), sub] = 1.0
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=size))).T.reshape(size, 2**size)
    for table in (sub, pick, signs):
        table.flags.writeable = False
    return sub, pick, signs


def _keep(mask: np.ndarray, *arrays: np.ndarray) -> tuple:
    return arrays if mask.all() else tuple(a[mask] for a in arrays)


def _enumerate(geom: _Geometry, c: np.ndarray) -> _Pieces:
    """Every sign pattern's piece for the reduced rows c, at unit radius.

    The work is in u = s * x, projected onto the row space of the box
    (v = q_u' u, at most k of them) plus the one direction tau of each row's
    objective outside it; w keeps the box-only coordinates. The subsets of
    one size are factored together, as stacks of k-sized matrices.
    """
    a_rows, s = geom.a_rows, geom.s
    k, r = a_rows.shape[0], s.size
    n_rows = c.shape[0]
    q_u, r_u = np.linalg.qr((a_rows[:, :r] / s).T)
    box_v, box_w = r_u.T, a_rows[:, r:]  # the box over (v, w)
    kv, p = box_v.shape[1], box_w.shape[1]
    c_u, c_w = c[:, :r] / s, c[:, r:]
    t_c = c_u @ q_u
    c_perp = c_u - t_c @ q_u.T
    perp_sq = np.sum(np.square(c_perp), axis=1)
    u_sq = np.sum(np.square(t_c), axis=1) + perp_sq
    parts, n_seen = [], 0

    # A_S = [box_v[S] C_S] has full row rank and G_N is nonsingular iff C_S has
    # full column rank p and H = Q_C' box_v[S] full row rank q = size - p
    for size in range(p, min(k, p + kv) + 1):
        sub, pick, signs = _subsets(k, size)
        if p:
            uc, sc, vct = np.linalg.svd(box_w[sub])
            sub, pick, uc, sc, vct = _keep(sc[:, -1] > numcore.RANK_RTOL * sc[:, 0], sub, pick, uc, sc, vct)
            c_pinv = (_t(vct) / sc[:, None, :]) @ _t(uc[:, :, :p])
            q_c = uc[:, :, p:]
        else:
            c_pinv = np.zeros((len(sub), 0, size))
            q_c = np.broadcast_to(np.eye(size), (len(sub), size, size))
        b_s = box_v[sub]
        if size > p:
            uh, sh, vht = np.linalg.svd(_t(q_c) @ b_s, full_matrices=False)
            full_rank = sh[:, -1] > numcore.RANK_RTOL * np.linalg.norm(b_s, axis=(1, 2))
            sub, pick, c_pinv, q_c, b_s, uh, sh, vht = _keep(full_rank, sub, pick, c_pinv, q_c, b_s, uh, sh, vht)
            h_pinv = _t(vht) @ (_t(uh) / sh[:, :, None])
        else:
            vht, h_pinv = np.zeros((len(sub), 0, kv)), np.zeros((len(sub), kv, 0))
        n_sub, n_signs = len(sub), signs.shape[1]
        n_pat = n_sub * n_signs
        if not n_sub:
            continue
        # the slice: w = c_pinv (sign - b_s v), H v = Q_C' sign, |v|^2 + tau^2 <= r;
        # its centre minimizes |v|, and t^2 = r - kappa is what is left of the budget
        y_map = h_pinv @ _t(q_c)
        centre = y_map @ signs
        w_signs, w_v, c_ws = c_pinv @ signs, c_pinv @ b_s, c_w @ c_pinv
        through_w = c_ws @ b_s
        e_v = t_c - through_w  # the objective on v once w is eliminated
        pe_v = e_v - (e_v @ _t(vht)) @ vht
        norm = np.sqrt(np.sum(np.square(pe_v), axis=2) + perp_sq)  # b, |c_N| in the slice
        norm[norm <= numcore.RANK_RTOL * np.sqrt(u_sq + np.sum(np.square(through_w), axis=2))] = 0.0
        inv = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)
        dirs = pe_v * inv[:, :, None]
        slide = box_v - box_w @ w_v  # box rows along v with w eliminated
        # Y_0 solves C_S'y = c_w and b_s'y = t_c - P e; one refinement step on
        # the second brings its residual to rounding level, which the
        # certificate weighs by sqrt(r)
        y0 = c_ws + (e_v - pe_v) @ y_map
        y0 = (y0 + ((t_c - pe_v) - y0 @ b_s) @ y_map) @ pick
        parts.append((
            np.sum(np.square(centre), axis=1).reshape(n_pat),
            n_seen + np.repeat(np.arange(n_sub), n_signs),
            _t(c_ws @ signs + e_v @ centre).reshape(n_pat, n_rows),
            _t(slide @ centre + box_w @ w_signs).reshape(n_pat, k),
            _t(centre).reshape(n_pat, kv),
            _t(w_signs - w_v @ centre).reshape(n_pat, p),
            (_t(centre) @ y_map @ pick).reshape(n_pat, k),
            norm,
            inv,
            dirs @ _t(slide),
            dirs,
            -dirs @ _t(w_v),
            y0,
        ))
        n_seen += n_sub
    return _Pieces(geom, c, q_u, c_perp, *(np.concatenate(part) for part in zip(*parts)))


def _evaluate(pieces: _Pieces, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximizers and multipliers of the curve's rows at each radius, from the pieces.

    Returns (eta, y, found), with the radius on the leading axis: per radius
    and row one maximizer, its best valid candidate, and the box multipliers
    of the valid pattern whose closed-form dual bound is smallest for that
    row; found says, per radius, whether every row that is not flat has a
    valid candidate. A radius at or below _RADIUS_FLOOR counts as 0. The
    patterns are taken in blocks of at most _BLOCK (radius, pattern, box
    row) entries per row, which bounds the (radii, patterns, rows, k)
    arrays; each radius reads only its own slice of them, so its result
    does not depend on the others in the batch.
    """
    r = np.where(radii > _RADIUS_FLOOR, radii, 0.0)
    c, q_u, c_perp = pieces.c_eta, pieces.q_u, pieces.c_perp
    n_rows, k = c.shape[0], pieces.alpha.shape[1]
    rank = c_perp.shape[1]
    shape = (r.size, n_rows)
    best = np.full(shape, -np.inf)
    v_best = np.zeros((*shape, q_u.shape[1]))
    w_best = np.zeros((*shape, c.shape[1] - rank))
    tau_best = np.zeros(shape)  # tau / |c_perp|
    best_bound = np.full(shape, np.inf)
    y_best = np.zeros((*shape, k))
    r_col = r[:, None]
    each = (np.arange(r.size)[:, None], np.arange(n_rows))  # with a (radii, rows) index: one entry per pair
    step = max(1, _BLOCK // max(r.size * k, 1))
    for lo in range(0, pieces.kappa.size, step):
        block = slice(lo, lo + step)
        kappa, g = pieces.kappa[block], pieces.g[block]
        t = np.sqrt(np.maximum(r_col - kappa, 0.0))  # (radii, patterns)
        valid = kappa <= r_col * (1.0 + CERT_TOL)
        if not valid.any():
            continue
        b = pieces.b[g]
        box = pieces.alpha[block, None, :] + pieces.beta[g] * t[:, :, None, None]
        ok = valid[:, :, None] & np.all(np.abs(box) <= 1.0 + CERT_TOL, axis=3)
        value = np.where(ok, pieces.a[block] + b * t[:, :, None], -np.inf)
        j = np.argmax(value, axis=1)
        top = value[each[0], j, each[1]]
        better = top > best
        if better.any():
            ib, rb = np.nonzero(better)
            jb = j[ib, rb]
            gb, tb = g[jb], t[ib, jb][:, None]
            best[ib, rb] = top[ib, rb]
            v_best[ib, rb] = pieces.centre[lo + jb] + tb * pieces.dirs[gb, rb]
            w_best[ib, rb] = pieces.w0[lo + jb] + tb * pieces.w1[gb, rb]
            tau_best[ib, rb] = tb[:, 0] * pieces.inv_b[gb, rb]

        # closed-form multipliers: y = Y_0 - (b / t) d_map, 2 lambda = r b / t
        inv_t = np.divide(1.0, t, out=np.zeros_like(t), where=t > 0.0)[:, :, None]
        slope = b * inv_t
        r_3 = r[:, None, None]
        two_lam = np.where(inv_t > 0.0, r_3 * slope, np.where(r_3 * b > 0.0, np.inf, 0.0))
        y = pieces.y0[g] - slope[..., None] * pieces.d_map[block, None, :]
        bound = np.where(valid[:, :, None], np.abs(y).sum(axis=3) + two_lam, np.inf)
        jb = np.argmin(bound, axis=1)
        low = bound[each[0], jb, each[1]]
        tighter = low < best_bound
        if tighter.any():
            ib, rb = np.nonzero(tighter)
            best_bound[ib, rb] = low[ib, rb]
            y_best[ib, rb] = y[ib, jb[ib, rb], rb]

    flat = ~c[:, rank:].any(axis=1) & ((r_col == 0.0) | ~c[:, :rank].any(axis=1))
    found = np.all(np.isfinite(best) | flat, axis=1)
    u = v_best @ q_u.T + tau_best[..., None] * c_perp
    eta = np.concatenate([u / pieces.geom.s, w_best], axis=-1)
    eta[flat] = 0.0
    y_best[flat] = 0.0
    return eta, y_best, found


def _dual_bound(geom: _Geometry, c: np.ndarray, y: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Weak-duality bound ||y||_1 + sqrt(g' G^+ g), g = c - A'y, per radius (y's leading axis) and row.

    G = diag(s^2, 0) with the scales s at each radius, so G^+ reads off s
    and range(G) is the x block.
    """
    g = c - y @ geom.a_rows
    r = geom.s.size
    inner = np.sum(np.square(g[..., :r] / geom.scales(radii)[:, None, :]), axis=-1)
    outside = np.linalg.norm(g[..., r:], axis=-1)
    tol = numcore.RANK_RTOL * np.maximum(np.linalg.norm(c, axis=-1), np.linalg.norm(g, axis=-1))
    return np.where(outside <= tol, np.abs(y).sum(axis=-1) + np.sqrt(inner), np.inf)


@dataclass
class _Batch:
    d_star: np.ndarray
    mu: np.ndarray
    duality_gap: float
    feasibility_residual: float


def _solve(pieces: _Pieces, c: np.ndarray, radii: np.ndarray) -> list:
    """The outcome at each radius: a certified _Batch, or the NumericalFailure its solve raises.

    One pass of _evaluate, the dual bound and the residual serves every
    radius, and each radius's certificate is checked at that radius.
    """
    eta, y, found = _evaluate(pieces, radii)
    if not found.all():  # those radii have no maximizer to certify
        radii, eta, y = radii[found], eta[found], y[found]
    geom = pieces.geom
    d_star = geom.decision(eta)
    mu = np.sum(c * d_star, axis=-1)
    bound = _dual_bound(geom, pieces.c_eta, y, radii)
    gap = np.abs(bound - mu) / np.maximum(np.abs(mu), np.finfo(float).tiny)
    residual = geom.residual(d_star, radii)
    worst_gap = np.max(gap, axis=-1, initial=0.0)
    worst_res = np.max(residual, axis=-1, initial=0.0)
    missing = "no sign pattern produced a feasible candidate"
    outcomes: list = [None if ok else NumericalFailure(missing) for ok in found]
    for i, slot in enumerate(np.flatnonzero(found)):
        gap_i, res_i = float(worst_gap[i]), float(worst_res[i])
        if not gap_i <= CERT_TOL or not res_i <= CERT_TOL:
            outcomes[slot] = NumericalFailure(
                f"optimality certificate not met: duality gap {gap_i:.3e}, "
                f"feasibility residual {res_i:.3e} (tolerance {CERT_TOL:.0e})"
            )
        else:  # copies, so that a kept result does not hold the whole chunk
            outcomes[slot] = _Batch(d_star[i].copy(), mu[i].copy(), gap_i, res_i)
    return outcomes


class ImpactCurve:
    """The optimum of every row of c as a function of the stealthiness radius.

    The program's maps read no radius, so one geometry and one pattern
    enumeration serve every radius. Building a curve factors nothing, and a
    GaussianSummary builds its curve only on first read, so a configuration
    over budget at every epsilon never factors.

    radii are the radii the run will read, in order. A solve at the next of
    them evaluates it together with the ones that follow, in one pass of at
    most _CHUNK (radius, row, column) entries, and holds each one's outcome
    until it is read; a failure that belongs to one radius is raised only
    when that radius is read. Any other radius is evaluated alone. Each
    radius's result is the same, bit for bit, in any batch.
    """

    def __init__(
        self, q_box: np.ndarray, m_quad: np.ndarray, layout: DecisionLayout, c: np.ndarray, radii=()
    ) -> None:
        self._maps = (q_box, m_quad, layout)
        self.c = np.asarray(c, dtype=float).reshape(-1, layout.dim_d)
        self._pending = list(radii)  # radii not yet evaluated, in the order they will be read
        self._held: dict[float, object] = {}  # evaluated outcomes, until they are read

    @cached_property
    def _reduced(self) -> tuple[_Geometry, np.ndarray, bool]:
        """The geometry, the reduced rows and whether every row is bounded."""
        geom = _Geometry(*self._maps)
        c_eta, bounded = geom.objective(self.c)
        return geom, c_eta, bool(bounded.all())

    @property
    def bounded(self) -> bool:
        """Whether every row is bounded on the feasible set; the same at every radius."""
        return self._reduced[2]

    @cached_property
    def _pieces(self) -> Optional[_Pieces]:
        """The enumeration, or None when some row is unbounded."""
        geom, c_eta, bounded = self._reduced
        return _enumerate(geom, c_eta) if bounded else None

    def solve(self, radius: float) -> Optional[_Batch]:
        """Exact optimum of every row at a radius, or None when some row is unbounded.

        A held radius reads the outcome of its chunk. Raises Infeasible at a
        negative radius, and NumericalFailure when the duality gap or a
        constraint residual of any row exceeds CERT_TOL.
        """
        if radius < 0:
            raise Infeasible(f"negative stealthiness radius {radius:.6e}")
        pieces = self._pieces
        if pieces is None:
            return None
        if radius in self._held:
            outcome = self._held.pop(radius)
        else:
            chunk = [radius]
            if self._pending and self._pending[0] == radius:
                width = max(self.c.shape[1], pieces.geom.m_quad.shape[0])
                size = max(1, _CHUNK // max(self.c.shape[0] * width, 1))
                chunk, self._pending = self._pending[:size], self._pending[size:]
            outcomes = self._outcomes(pieces, chunk)
            self._held.update(zip(chunk[1:], outcomes[1:]))
            outcome = outcomes[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _outcomes(self, pieces: _Pieces, radii: list[float]) -> list:
        """_solve's outcomes at the radii; an overflow is found again radius by radius.

        Under np.errstate(over="raise") an overflow in a batch raises for all
        of it, so the batch is solved again one radius at a time, and the
        FloatingPointError becomes the outcome of the radius whose own solve
        raises it.
        """
        try:
            return _solve(pieces, self.c, np.array(radii, dtype=float))
        except FloatingPointError as exc:
            if len(radii) == 1:
                return [exc]
            return [self._outcomes(pieces, [radius])[0] for radius in radii]


def compute_impact(summary: GaussianSummary) -> ImpactReport:
    """Solve the program of every critical row in one batch and aggregate.

    The solve evaluates summary.curve at the summary's radius. A residual
    covariance that is not positive definite, or a negative radius, means no
    attack satisfies the budget: the impact is zero by convention, and
    neither the curve nor the mean maps it is built from are read. With a
    nonnegative radius, a critical row with a component outside the
    constraint row space (the curve's boundedness verdict) means the impact
    grows without bound: the probability metric saturates at 1 and the mean
    metric is reported as infinity. A floating-point overflow anywhere in
    the solve raises FloatingPointError rather than returning a wrong number.
    """
    n_rows, sigma = len(summary.sigma), summary.sigma
    feasible = bool(summary.residual_cov_pd and summary.eps_prime >= 0)
    batch = None
    if feasible:
        with np.errstate(over="raise"):
            batch = summary.curve.solve(summary.eps_prime)
            if batch is not None:
                p = np.asarray(numcore.gaussian_exceed(batch.mu, sigma))
    unbounded = feasible and batch is None
    if batch is None:  # no row is solved: the impact is zero or unbounded
        fill = math.nan if unbounded else 0.0
        mu, p, d_star = np.full(n_rows, fill), np.full(n_rows, fill), np.zeros((n_rows, summary.layout.dim_d))
        argmax_p = argmax_mu = None
        exceed_prob, mean_lower = (1.0, math.inf) if unbounded else (0.0, 0.0)
        gap = residual = 0.0
    else:
        mu, d_star, gap, residual = batch.mu, batch.d_star, batch.duality_gap, batch.feasibility_residual
        argmax_p, argmax_mu = first_near_max(p), first_near_max(mu)
        exceed_prob, mean_lower = float(p[argmax_p]), float(mu[argmax_mu])
    return ImpactReport(
        mu=mu,
        sigma=sigma,
        p_exceed=p,
        d_star=d_star,
        exceed_prob=exceed_prob,
        mean_lower=mean_lower,
        argmax_exceed=argmax_p,
        argmax_mean=argmax_mu,
        feasible=feasible,
        unbounded=unbounded,
        eps_prime=summary.eps_prime,
        duality_gap=gap,
        feasibility_residual=residual,
    )
