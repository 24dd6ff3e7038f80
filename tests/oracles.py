"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's own numerics: series sums,
quadrature, brute-force grids, step-by-step unrolling, and an off-the-shelf
nonlinear programming solver provide the second opinions. The exception is
``reference_solve_rows``, an earlier formulation of the package's own exact
solver kept as a regression reference. ``stacked_factors`` and
``stacked_covariances`` form the noise factors and full covariances of a
window's law from ``reference_stack_dynamics``, for the tests that compare
them against a rollout, a simulation or the package's audits.
``dense_admissible_basis`` writes the admissible basis Z out as the dense
matrix the package's index layout stands for, and ``DenseBasis`` gives any
dense orthonormal basis the layout's reduce/lift interface.
``innovation_recursion`` is the innovation audit's earlier one-step-per-QR
recursion, kept as the reference for its blocked form.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, linalg, optimize, stats

from stealthimpact import numcore, solver
from stealthimpact.attacks import FREE, HELD
from stealthimpact.sysmodel import assemble_extended


def dense_admissible_basis(attack, N: int, n_yr: int) -> np.ndarray:
    """Z over d = [a(0); ...; a(N); y_r], formed column by column from the identity.

    One column of 1/sqrt(N+1) over all steps per held channel, one unit
    column per free channel and step, none for a pinned channel, and the
    identity on y_r. The columns have disjoint supports, so Z is orthonormal.
    """
    n_a = attack.n_a
    n_blk = (N + 1) * n_a
    modes = [attack.au_mode] * attack.n_au + [attack.ay_mode] * attack.n_ay
    eye = np.eye(n_blk + n_yr)
    held = [
        eye[:, j:n_blk:n_a].sum(axis=1, keepdims=True) / np.sqrt(N + 1)
        for j, mode in enumerate(modes)
        if mode == HELD
    ]
    free = eye[:, :n_blk][:, [mode == FREE for mode in modes] * (N + 1)]
    return np.hstack(held + [free, eye[:, n_blk:]])


class DenseBasis:
    """A dense orthonormal basis Z with the layout's interface: reduce(m) = m Z, lift(xi) = Z xi."""

    def __init__(self, Z: np.ndarray) -> None:
        self.Z = np.asarray(Z, dtype=float)
        self.dim_d = self.Z.shape[0]

    @classmethod
    def of(cls, f_eq: np.ndarray, n: int) -> "DenseBasis":
        """The basis of null(f_eq) in R^n, the identity when f_eq has no rows."""
        f_eq = np.asarray(f_eq, dtype=float)
        return cls(linalg.null_space(f_eq) if f_eq.size else np.eye(n))

    def reduce(self, m: np.ndarray) -> np.ndarray:
        return m @ self.Z

    def lift(self, xi: np.ndarray) -> np.ndarray:
        return xi @ self.Z.T


def lyapunov_series(A: np.ndarray, Q: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Sum A^k Q A'^k directly until the terms vanish."""
    S = np.zeros_like(Q)
    term = Q.copy()
    for _ in range(100_000):
        S += term
        if np.max(np.abs(term)) < tol * max(1.0, np.max(np.abs(S))):
            return S
        term = A @ term @ A.T
    raise RuntimeError("series did not converge")


def lyapunov_residual(A_e, Q, S) -> float:
    """Relative Frobenius residual of S = A_e S A_e' + Q."""
    return float(
        np.linalg.norm(S - A_e @ S @ A_e.T - Q, "fro") / max(1.0, np.linalg.norm(S, "fro"))
    )


def exceed_quadrature(mu: float, sigma: float) -> float:
    """P(|X| > 1) for X ~ N(mu, sigma^2) by adaptive quadrature of the density."""
    def dens(x):
        return stats.norm.pdf(x, loc=mu, scale=sigma)

    inside, _ = integrate.quad(dens, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    return 1.0 - inside


def kl_quadrature_diag(mu1, var1, mu2, var2) -> float:
    """KL divergence for diagonal Gaussians as a sum of 1-d quadratures."""
    total = 0.0
    for m1, v1, m2, v2 in zip(mu1, var1, mu2, var2):
        s1, s2 = np.sqrt(v1), np.sqrt(v2)

        def integrand(x, m1=m1, s1=s1, m2=m2, s2=s2):
            p = stats.norm.pdf(x, m1, s1)
            if p <= 0:
                return 0.0
            return p * (stats.norm.logpdf(x, m1, s1) - stats.norm.logpdf(x, m2, s2))

        lo, hi = m1 - 12 * s1, m1 + 12 * s1
        val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200)
        total += val
    return total


FEAS_TOL = 1e-9  # constraint slack allowed at the SLSQP iterate, scaled by the data
GAP_RTOL = 1e-7  # primal and dual values must agree to this relative gap


def qclp_dual_bound(c, q_box, m_quad, f_eq, radius, y) -> float:
    """Lagrangian upper bound on max c'd over the QCLP, for box multipliers y.

    With d = Z u (Z a basis of null(F)), |Q d| <= 1 elementwise gives
    c'd <= ||y||_1 + (c - Q'y)' Z u, and maximizing the last term over
    u'G u <= r (G = Z'M'M Z) gives sqrt(r g'G^+ g) for g = Z'(c - Q'y),
    or +inf when g has a part in null(G). Weak duality makes this a valid
    bound for every y (Boyd & Vandenberghe, Convex Optimization, 5.2).
    """
    c, q_box, m_quad, f_eq = _qclp_arrays(c, q_box, m_quad, f_eq)
    y = np.asarray(y, dtype=float).reshape(q_box.shape[0])
    return _dual_bound(c, q_box, radius, _reduced_gram(m_quad, f_eq, c.shape[0]), y)


def _qclp_arrays(c, q_box, m_quad, f_eq):
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    return (
        c,
        np.asarray(q_box, dtype=float).reshape(-1, n),
        np.asarray(m_quad, dtype=float).reshape(-1, n),
        np.asarray(f_eq, dtype=float).reshape(-1, n),
    )


def _reduced_gram(m_quad, f_eq, n):
    """Z, and the eigenpairs of G = Z'M'M Z with a mask of its numerical range."""
    basis = linalg.null_space(f_eq) if f_eq.shape[0] else np.eye(n)
    lam, vec = np.linalg.eigh(basis.T @ m_quad.T @ m_quad @ basis)
    kept = lam > 1e-12 * max(1.0, float(np.max(np.abs(lam), initial=0.0)))
    return basis, lam, vec, kept


def _dual_bound(c, q_box, radius, reduced, y) -> float:
    basis, lam, vec, kept = reduced
    g = basis.T @ (c - q_box.T @ y)
    g_eig = vec.T @ g
    if np.any(np.abs(g_eig[~kept]) > 1e-12 * max(1.0, np.linalg.norm(g))):
        return np.inf
    inner = float(np.sum(g_eig[kept] ** 2 / lam[kept]))
    return float(np.abs(y).sum() + np.sqrt(max(radius, 0.0) * inner))


def _min_dual_bound(c, q_box, m_quad, f_eq, radius) -> float:
    """Minimize the dual bound over y by Nelder-Mead from a few starts.

    With no box rows there is no y and the bound is evaluated once. When
    G is singular the bound is finite only on an affine set of y that this
    search does not look for, so it stays +inf and the oracle refuses.
    """
    reduced = _reduced_gram(m_quad, f_eq, c.shape[0])

    def bound(y):
        return _dual_bound(c, q_box, radius, reduced, y)

    if q_box.shape[0] == 0:
        return bound(np.zeros(0))
    opts = {"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20_000, "maxfev": 40_000}
    return min(
        float(optimize.minimize(bound, np.full(q_box.shape[0], start), method="Nelder-Mead", options=opts).fun)
        for start in (0.0, 0.5, -0.5)
    )


def scipy_reference_qclp(c, q_box, m_quad, f_eq, radius, x0=None):
    """Certified reference maximizer of c'd over the QCLP.

    Maximizes c'd subject to |q_box d| <= 1, ||m_quad d||^2 <= radius and
    f_eq d = 0. SLSQP supplies a candidate whose feasibility is checked
    directly (its exit flag is not trusted), so its value is a lower bound.
    A Lagrangian dual bound minimized over the box multipliers is an upper
    bound; Slater's condition holds at d = 0 for radius > 0, so the two meet.
    The value comes back only when they agree to GAP_RTOL; otherwise this
    raises RuntimeError.
    """
    c, q_box, m_quad, f_eq = _qclp_arrays(c, q_box, m_quad, f_eq)
    n = c.shape[0]
    cons = []
    if q_box.shape[0]:
        cons.append({"type": "ineq", "fun": lambda d: 1.0 - q_box @ d})
        cons.append({"type": "ineq", "fun": lambda d: 1.0 + q_box @ d})
    gram = m_quad.T @ m_quad
    cons.append({"type": "ineq", "fun": lambda d: radius - d @ gram @ d})
    if f_eq.shape[0]:
        cons.append({"type": "eq", "fun": lambda d: f_eq @ d})
    res = optimize.minimize(
        lambda d: -c @ d,
        x0 if x0 is not None else np.zeros(n),
        jac=lambda d: -c,
        method="SLSQP",
        constraints=cons,
        options={"maxiter": 1000, "ftol": 1e-12},
    )
    d = res.x
    d_norm = np.linalg.norm(d)
    box_excess = np.max(np.abs(q_box @ d), initial=0.0) - 1.0
    box_tol = FEAS_TOL * max(1.0, np.linalg.norm(q_box, 2) * d_norm)
    quad_excess = float(d @ gram @ d) - radius
    quad_tol = FEAS_TOL * max(1.0, abs(radius), np.linalg.norm(gram, 2) * d_norm**2)
    eq_excess = np.max(np.abs(f_eq @ d), initial=0.0)
    eq_tol = FEAS_TOL * max(1.0, np.linalg.norm(f_eq, 2) * d_norm)
    if box_excess > box_tol or quad_excess > quad_tol or eq_excess > eq_tol:
        raise RuntimeError(
            f"reference solver failed: iterate infeasible (box {box_excess:.3g}, "
            f"quadratic {quad_excess:.3g}, equality {eq_excess:.3g}; {res.message})"
        )
    lower = float(c @ d)
    upper = _min_dual_bound(c, q_box, m_quad, f_eq, radius)
    gap_tol = GAP_RTOL * max(abs(lower), abs(upper)) + 1e-12 * np.linalg.norm(c)
    if not (np.isfinite(upper) and abs(upper - lower) <= gap_tol):
        raise RuntimeError(
            f"reference solver failed: primal {lower!r} and dual bound {upper!r} "
            f"disagree ({res.message})"
        )
    return lower, d


def grid_search_exceed(
    t_z,
    sigma_diag,
    q_box,
    m_quad,
    radius,
    ranges,
    step=0.01,
    lift=None,
    box_slop=0.0,
    quad_slop=0.0,
):
    """Brute-force max_i P(|z_i| > 1) over a grid of decision vectors.

    ranges gives (lo, hi) per grid coordinate; lift maps grid coordinates to
    the full decision vector (identity when omitted), which lets the grid run
    over the free parameters left by equality constraints. Two maxima come
    back: one over strictly feasible grid points and one over a set inflated
    by box_slop / quad_slop, so callers can bracket the true optimum against
    points lost to constraint boundaries.
    """
    t_z = np.asarray(t_z, dtype=float)
    sigma_diag = np.asarray(sigma_diag, dtype=float)
    n_free = len(ranges)
    if lift is None:
        lift = np.eye(t_z.shape[1])
    lift = np.asarray(lift, dtype=float)
    q_box = np.asarray(q_box, dtype=float).reshape(-1, lift.shape[0])
    m_quad = np.asarray(m_quad, dtype=float).reshape(-1, lift.shape[0])
    q_l = q_box @ lift
    m_l = m_quad @ lift
    t_l = t_z @ lift
    axes = [np.arange(lo, hi + step / 2, step) for lo, hi in ranges]

    best_strict = 0.0
    best_inflated = 0.0
    # chunk over the leading axis so 4-d grids stay inside a modest footprint
    lead = axes[0] if n_free > 1 else np.array([0.0])
    rest = axes[1:] if n_free > 1 else [axes[0]]
    for v in lead:
        mesh = np.meshgrid(*rest, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        if n_free > 1:
            pts = np.hstack([np.full((pts.shape[0], 1), v), pts])
        box_dev = np.abs(pts @ q_l.T).max(axis=1) if q_l.shape[0] else np.zeros(pts.shape[0])
        quad = np.square(pts @ m_l.T).sum(axis=1)
        strict = (box_dev <= 1.0 + 1e-12) & (quad <= radius + 1e-12 * max(1.0, radius))
        inflated = (box_dev <= 1.0 + box_slop + 1e-12) & (quad <= radius + quad_slop + 1e-12)
        for mask, is_strict in ((strict, True), (inflated, False)):
            if not np.any(mask):
                continue
            mus = pts[mask] @ t_l.T
            a = (1.0 - mus) / sigma_diag
            b = (1.0 + mus) / sigma_diag
            p = float((stats.norm.sf(a) + stats.norm.sf(b)).max())
            if is_strict:
                best_strict = max(best_strict, p)
            else:
                best_inflated = max(best_inflated, p)
    return best_strict, best_inflated


def explicit_rollout(system, ext, atk, q_ze, N, x_e0, f_stack, y_r, a_stack):
    """Step the closed-loop equations one at a time, no stacked maps involved.

    Returns the critical rows (steps 1..N) and whitened residual rows
    (steps 0..N) for one deterministic draw of initial state, noise window,
    reference, and injected signal. Recording strategies replay the tapped
    sensor values with the documented N+1 step delay.
    """
    n_x = system.plant.n_x
    n_f = n_x + system.plant.n_y
    n_a, n_ay = atk.n_a, atk.n_ay
    nom = system.nominal
    J_s, K_s = recording_inputs(system, atk)
    x_e = np.asarray(x_e0, dtype=float).copy()
    recorded = {}
    z_rows, r_rows = [], []
    for k in range(atk.start_step, N + 1):
        j = k - atk.start_step
        f_k = f_stack[j * n_f : (j + 1) * n_f]
        if k < 0:
            y = system.plant.C @ x_e[:n_x] + f_k[n_x:]
            recorded[k] = atk.gamma_y.T @ y
            x_e = nom.A_cl @ x_e + nom.B_f @ f_k + nom.E_r @ y_r
            continue
        a_k = a_stack[k * n_a : (k + 1) * n_a] if n_a else np.zeros(0)
        a_s = recorded[k - (N + 1)] if atk.has_recording else np.zeros(n_ay)
        if k >= 1:
            z_rows.append(q_ze @ x_e)
        r_rows.append(ext.C_r @ x_e + ext.D_f @ f_k + ext.H_a @ a_k + K_s @ a_s)
        if k == N:
            break
        x_e = ext.A_cl @ x_e + ext.B_f @ f_k + ext.E_r @ y_r + ext.G_a @ a_k + J_s @ a_s
    return np.concatenate(z_rows), np.concatenate(r_rows)


def whitened_rollout(system, ext, atk, q_ze, N, e, y_r, a_stack):
    """explicit_rollout from a whitened draw e = (e_0, e_f) of the initial state and noise.

    x_e(start) = t_0 y_r + sqrt(Sigma_0) e_0 and f = (I kron sqrt(Sigma_f)) e_f,
    so the rows equal T d + F e of distrib.stack_dynamics at d = [a; y_r].
    """
    n_e = 2 * system.plant.n_x
    x_e0 = system.t_0 @ y_r + system.sqrt_sigma_0 @ e[:n_e]
    root_f = system.sqrt_sigma_f
    f_stack = (e[n_e:].reshape(-1, root_f.shape[0]) @ root_f.T).ravel()
    return explicit_rollout(system, ext, atk, q_ze, N, x_e0, f_stack, y_r, a_stack)


def reference_loop(system, attack, d, q_z, N, xi, inputs_on):
    """Rows [z r] of the literal loop, one row per row of whitened inputs xi, with its own stepping.

    xi's columns are the whitened initial state, then per step the sensor
    noise w and, except at step N, the process noise v. With inputs_on false
    the reference and the injected signals are zero, so the rows are the
    loop's linear part in xi. It borrows the package's stationary law and
    symmetric square root, so it checks the loop, not the law.
    """
    from stealthimpact.distrib import stationary_law

    plant, ctrl, est = system.plant, system.controller, system.estimator
    n_x, n_y = plant.n_x, plant.n_y
    d = np.asarray(d, dtype=float) * float(inputs_on)
    n_blk = (N + 1) * attack.n_a
    a_seq, y_r = d[:n_blk].reshape(N + 1, attack.n_a), d[n_blk:]
    n_au = attack.n_au
    t_0, sigma_0 = stationary_law(system.nominal, system.sigma_f)
    sqrt_0 = numcore.sym_sqrt(sigma_0)
    chol_v = np.linalg.cholesky(plant.sigma_v)
    chol_w = np.linalg.cholesky(plant.sigma_w)
    cursor = [0]

    def normals(cols):
        cursor[0] += cols
        return xi[:, cursor[0] - cols : cursor[0]]

    x_e = t_0 @ y_r + normals(2 * n_x) @ sqrt_0.T
    z_rows, r_rows, recorded = [], [], {}
    lam_y, gam_y = attack.lambda_y, attack.gamma_y
    lam_u, gam_u = attack.lambda_u, attack.gamma_u
    for k in range(attack.start_step, N + 1):
        x = x_e[:, :n_x]
        x_hat = x_e[:, n_x:]
        w = normals(n_y) @ chol_w.T
        y = x @ plant.C.T + w
        u = -x_hat @ ctrl.L_xhat.T + (ctrl.L_yr @ y_r)
        if k < 0:
            if attack.has_recording:
                recorded[k] = y @ attack.gamma_y
            y_tilde, u_tilde = y, u
        else:
            y_tilde = y @ lam_y.T + gam_y @ a_seq[k, n_au:]
            if attack.has_recording:
                y_tilde = y_tilde + recorded[k - (N + 1)] @ gam_y.T
            u_tilde = u @ lam_u.T + gam_u @ a_seq[k, :n_au]
        innov = y_tilde - x_hat @ plant.C.T
        if k >= 0:
            r_rows.append(innov @ est.sigma_r_invsqrt.T)
        if k == N:
            break
        v = normals(n_x) @ chol_v.T
        x_next = x @ plant.A.T + u_tilde @ plant.B.T + v
        x_hat_next = x_hat @ plant.A.T + u @ plant.B.T + innov @ est.K.T
        x_e = np.hstack([x_next, x_hat_next])
        if k >= 0:
            z_rows.append(x_e @ q_z.T)
    assert cursor[0] == xi.shape[1], "xi has more columns than the loop reads"
    return np.hstack(z_rows + r_rows)


def reference_simulate(system, attack, d, cfg, q_z):
    """Sample-major Monte Carlo check that mcvalidate.simulate must reproduce.

    Its own loop (reference_loop) on the identity over the loop's whitened
    inputs, inputs off, gives M = [M_z M_r], and on zero inputs, inputs on,
    gives mu = [mu_z mu_r]. Its own thin QR of M_z gives R with k_z rows.
    The laws are exact: z's is (mu_z, R'R) and r's is (mu_r, M_r' M_r).
    Block j of m samples (blocks of mcvalidate._BLOCK, as read at call time)
    draws one (k_z, m) array from SFC64 on child j of SeedSequence(seed,
    spawn_key=(stream,)), and all the blocks' samples z = eta' R + mu_z are
    reduced together, with a separate std pass for the norms, so it is also
    the oracle of the simulator's block-by-block merge.
    """
    from stealthimpact import mcvalidate
    from stealthimpact.mcvalidate import EmpiricalSummary

    N = int(cfg.horizon)
    n_x, n_y = system.plant.n_x, system.plant.n_y
    n_s = cfg.samples
    n_xi = 2 * n_x + (N + 1 - attack.start_step) * n_y + (N - attack.start_step) * n_x
    m_map = reference_loop(system, attack, d, q_z, N, np.eye(n_xi), False)
    mu = reference_loop(system, attack, d, q_z, N, np.zeros((1, n_xi)), True)[0]
    n_zr = N * q_z.shape[0]
    m_z, m_r = m_map[:, :n_zr], m_map[:, n_zr:]
    root = linalg.qr(m_z, mode="r", check_finite=False)[0][: min(m_z.shape)]

    widths = np.diff(np.append(np.arange(0, n_s, mcvalidate._BLOCK), n_s))
    children = np.random.SeedSequence(cfg.seed, spawn_key=(cfg.stream,)).spawn(len(widths))
    rngs = [np.random.Generator(np.random.SFC64(child)) for child in children]
    eta = np.hstack([rng.standard_normal((len(root), m)) for rng, m in zip(rngs, widths)])
    z = eta.T @ root + mu[:n_zr]
    exceed = (np.abs(z) > 1.0).mean(axis=0)
    if z.shape[1]:
        inf_norms = np.abs(z).max(axis=1)
        e_inf, e_inf_se = float(inf_norms.mean()), float(inf_norms.std(ddof=1) / np.sqrt(n_s))
    else:
        e_inf, e_inf_se = 0.0, 0.0
    return EmpiricalSummary(
        z_mean=mu[:n_zr],
        z_cov=root.T @ root,
        r_mean=mu[n_zr:],
        r_cov=m_r.T @ m_r,
        exceed_freq=exceed,
        exceed_se=np.sqrt(np.clip(exceed * (1.0 - exceed), 0.0, None) / n_s),
        e_inf_norm=e_inf,
        e_inf_norm_se=e_inf_se,
        samples=n_s,
    )


def recording_inputs(system, attack):
    """(J_s, K_s): how a replayed recording a_s enters x_e(k+1) and the whitened r(k).

    The recording replaces the cut sensor channels, so it drives the estimator
    through K gamma_y and the residual through Sigma_r^-1/2 gamma_y.
    """
    est = system.estimator
    J_s = np.vstack([np.zeros((system.plant.n_x, attack.n_ay)), est.K @ attack.gamma_y])
    return J_s, est.sigma_r_invsqrt @ attack.gamma_y


def reference_recording(system, attack, N):
    """Maps (t_sx, t_sr, t_sf) of replay's recorded stack, unrolled step by step.

    The recorded signal at attack step k is gamma_y' y(k-N-1); iterating the
    nominal loop over [-N-1, -1] expresses the stack as
    t_sx x_e(start) + t_sr y_r + t_sf f(start..-1).
    """
    plant, nominal = system.plant, system.nominal
    n_x, n_y, n_f = plant.n_x, plant.n_y, plant.n_x + plant.n_y
    n_yr, n_ay = nominal.E_r.shape[1], attack.n_ay
    c_rec = attack.gamma_y.T
    start = -N - 1
    measure_x = np.hstack([plant.C, np.zeros((n_y, n_x))])
    pick_w = np.hstack([np.zeros((n_y, n_x)), np.eye(n_y)])
    n_pre = N + 1
    t_sx = np.zeros(((N + 1) * n_ay, 2 * n_x))
    t_sr = np.zeros(((N + 1) * n_ay, n_yr))
    t_sf = np.zeros(((N + 1) * n_ay, n_pre * n_f))
    phi = np.eye(2 * n_x)
    psi_f = np.zeros((2 * n_x, n_pre * n_f))
    psi_r = np.zeros((2 * n_x, n_yr))
    for k in range(start, 0):
        j = k - start
        r = j * n_ay
        t_sx[r : r + n_ay] = c_rec @ measure_x @ phi
        t_sr[r : r + n_ay] = c_rec @ measure_x @ psi_r
        row_f = c_rec @ measure_x @ psi_f
        row_f[:, j * n_f : (j + 1) * n_f] += c_rec @ pick_w
        t_sf[r : r + n_ay] = row_f
        if k == -1:
            break
        psi_f = nominal.A_cl @ psi_f
        psi_f[:, j * n_f : (j + 1) * n_f] += nominal.B_f
        psi_r = nominal.A_cl @ psi_r + nominal.E_r
        phi = nominal.A_cl @ phi
    return t_sx, t_sr, t_sf


@dataclass
class ReferenceMaps:
    """Affine maps over one attack window, one per input group.

    z_{1:N} = p_x x_e(start) + p_f f_window + p_r y_r + p_a a_{0:N}
    r_{0:N} = r_x x_e(start) + r_f f_window + r_r y_r + r_a a_{0:N}

    The recorded-signal substitution (replay) is already folded into the x, f,
    and reference maps. f_window stacks f(start..N); start <= 0.
    """

    p_x: np.ndarray
    p_f: np.ndarray
    p_r: np.ndarray
    p_a: np.ndarray
    r_x: np.ndarray
    r_f: np.ndarray
    r_r: np.ndarray
    r_a: np.ndarray
    start_step: int
    horizon: int


def reference_stack_dynamics(ext, attack, system, q_z, N):
    """Step-by-step unrolling whose law distrib.stack_dynamics must reproduce.

    Running maps of x_e(k) in (x_e(start), f_window, y_r, a, a_s) are advanced
    one step at a time, nominally before step 0 (replay recording phase) and
    under the attack from step 0 on, and each step's critical and residual
    rows are read off them. The recorded signal a_s enters through
    recording_inputs, and its maps from reference_recording are folded into
    the state, noise, and reference maps at the end.
    """
    nominal = system.nominal
    J_s, K_s = recording_inputs(system, attack)
    if N < 1:
        raise ValueError("horizon must be at least 1")
    n_x, n_y, n_f = ext.n_x, ext.n_y, ext.n_f
    n_a, n_ay, n_yr = attack.n_a, attack.n_ay, ext.n_yr
    n_z = q_z.shape[0]
    start = attack.start_step
    W = N - start + 1  # noise blocks f(start..N)
    two_nx = 2 * n_x

    p_x = np.zeros((n_z * N, two_nx))
    p_f = np.zeros((n_z * N, W * n_f))
    p_r = np.zeros((n_z * N, n_yr))
    p_a = np.zeros((n_z * N, (N + 1) * n_a))
    p_s = np.zeros((n_z * N, (N + 1) * n_ay))
    r_x = np.zeros(((N + 1) * n_y, two_nx))
    r_f = np.zeros(((N + 1) * n_y, W * n_f))
    r_r = np.zeros(((N + 1) * n_y, n_yr))
    r_a = np.zeros(((N + 1) * n_y, (N + 1) * n_a))
    r_s = np.zeros(((N + 1) * n_y, (N + 1) * n_ay))

    # running maps of x_e(k) as a function of (x_e(start), f_window, y_r, a, a_s)
    Xx = np.eye(two_nx)
    Xf = np.zeros((two_nx, W * n_f))
    Xr = np.zeros((two_nx, n_yr))
    Xa = np.zeros((two_nx, (N + 1) * n_a))
    Xs = np.zeros((two_nx, (N + 1) * n_ay))

    for k in range(start, N + 1):
        j = k - start
        if 1 <= k:
            r = (k - 1) * n_z
            p_x[r : r + n_z] = q_z @ Xx
            p_f[r : r + n_z] = q_z @ Xf
            p_r[r : r + n_z] = q_z @ Xr
            p_a[r : r + n_z] = q_z @ Xa
            p_s[r : r + n_z] = q_z @ Xs
        if 0 <= k:
            r = k * n_y
            r_x[r : r + n_y] = ext.C_r @ Xx
            row = ext.C_r @ Xf
            row[:, j * n_f : (j + 1) * n_f] += ext.D_f
            r_f[r : r + n_y] = row
            r_r[r : r + n_y] = ext.C_r @ Xr
            row = ext.C_r @ Xa
            if n_a:
                row[:, k * n_a : (k + 1) * n_a] += ext.H_a
            r_a[r : r + n_y] = row
            row = ext.C_r @ Xs
            if n_ay:
                row[:, k * n_ay : (k + 1) * n_ay] += K_s
            r_s[r : r + n_y] = row
        if k == N:
            break
        if k < 0:
            Xx = nominal.A_cl @ Xx
            Xf = nominal.A_cl @ Xf
            Xf[:, j * n_f : (j + 1) * n_f] += nominal.B_f
            Xr = nominal.A_cl @ Xr + nominal.E_r
            Xa = nominal.A_cl @ Xa
            Xs = nominal.A_cl @ Xs
        else:
            Xx_next = ext.A_cl @ Xx
            Xf = ext.A_cl @ Xf
            Xf[:, j * n_f : (j + 1) * n_f] += ext.B_f
            Xr = ext.A_cl @ Xr + ext.E_r
            Xa = ext.A_cl @ Xa
            if n_a:
                Xa[:, k * n_a : (k + 1) * n_a] += ext.G_a
            Xs = ext.A_cl @ Xs
            if n_ay:
                Xs[:, k * n_ay : (k + 1) * n_ay] += J_s
            Xx = Xx_next

    # fold the recorded stack a_s = t_sx x_e(start) + t_sr y_r + t_sf f_pre
    if attack.has_recording and n_ay:
        t_sx, t_sr, t_sf = reference_recording(system, attack, N)
        t_sf_full = np.zeros(((N + 1) * n_ay, W * n_f))
        t_sf_full[:, : t_sf.shape[1]] = t_sf
        p_x = p_x + p_s @ t_sx
        p_r = p_r + p_s @ t_sr
        p_f = p_f + p_s @ t_sf_full
        r_x = r_x + r_s @ t_sx
        r_r = r_r + r_s @ t_sr
        r_f = r_f + r_s @ t_sf_full

    return ReferenceMaps(
        p_x=p_x,
        p_f=p_f,
        p_r=p_r,
        p_a=p_a,
        r_x=r_x,
        r_f=r_f,
        r_r=r_r,
        r_a=r_a,
        start_step=start,
        horizon=N,
    )


def reference_laws(maps, t_0, sigma_0, sigma_f):
    """(T_Z, Sigma_Z, T_R, Sigma_R) with the noise window's covariance formed densely.

    Sigma = m_x Sigma_0 m_x' + m_f (I_W kron Sigma_f) m_f', the textbook
    triple products that distrib.stack_dynamics replaces with a whitened factor.
    """
    W = maps.horizon - maps.start_step + 1
    big_f = np.kron(np.eye(W), np.asarray(sigma_f, dtype=float))

    def law(m_a, m_x, m_r, m_f):
        sigma = m_x @ sigma_0 @ m_x.T + m_f @ big_f @ m_f.T
        return np.hstack([m_a, m_x @ t_0 + m_r]), 0.5 * (sigma + sigma.T)

    return (
        *law(maps.p_a, maps.p_x, maps.p_r, maps.p_f),
        *law(maps.r_a, maps.r_x, maps.r_r, maps.r_f),
    )


def stacked_factors(system, attack, q_z, N):
    """(F_Z, F_R) of the window's law: z and r are T d + F e, e ~ N(0, I), as in whitened_rollout.

    Formed from reference_stack_dynamics' maps of x_e(start) and the noise
    window f(start..N): F = [m_x sqrt(Sigma_0) | m_f (I kron sqrt(Sigma_f))],
    the Kronecker product applied block by block.
    """
    ext = assemble_extended(system.plant, system.controller, system.estimator, [attack])[0]
    maps = reference_stack_dynamics(ext, attack, system, q_z, N)
    root_f = system.sqrt_sigma_f

    def whiten(m_x, m_f):
        m_f = m_f.reshape(len(m_f), -1, len(root_f)) @ root_f
        return np.hstack([m_x @ system.sqrt_sigma_0, m_f.reshape(len(m_x), -1)])

    return whiten(maps.p_x, maps.p_f), whiten(maps.r_x, maps.r_f)


def stacked_covariances(system, attack, q_z, N):
    """(Sigma_Z, Sigma_R) = F F' of stacked_factors, symmetrized.

    The full covariances the Gaussian summary does not keep: it stores only
    sqrt(diag Sigma_Z), and audits Sigma_R by an innovation recursion (or,
    for replay, by a Cholesky factorization of F_R F_R').
    """
    f_z, f_r = stacked_factors(system, attack, q_z, N)
    return tuple(0.5 * (s + s.T) for s in (f_z @ f_z.T, f_r @ f_r.T))


def factor_logdet(f: np.ndarray) -> float:
    """ln det(F F') from the R factor of F', which never forms F F'.

    Forming Sigma = F F' squares F's condition number, so a factorization of
    Sigma loses ln det to rounding where F is near rank-deficient; the
    Householder R of F' is backward stable on F itself.
    """
    r = np.linalg.qr(f.T, mode="r")
    return 2.0 * float(np.sum(np.log(np.abs(np.diag(r)))))


def innovation_recursion(ext, system, N):
    """Squared innovation pivots and accumulated tr Sigma_R of a batch of loops, one step at a time.

    The square-root innovation recursion with one batched QR per step: step
    k factors the transposed pre-array [D_f Sigma_f^1/2, C_r Pi^1/2; B_f
    Sigma_f^1/2, A_cl Pi^1/2] of every loop in ext, whose leading n_y
    pivots are those of S_k^1/2 and whose trailing block is Pi^1/2 of step
    k + 1, from Pi_0^1/2 = Sigma_0^1/2. The traces come from the state
    covariance P(k+1) = A_cl P(k) A_cl' + B_f Sigma_f B_f', P(0) = Sigma_0,
    as sums over steps <= k of tr(C_r P(k) C_r' + D_f Sigma_f D_f').
    Returns (squares [loop, k, i], traces [loop, k]).
    """
    A, C, n_y, n_f = ext.A_cl, ext.C_r, ext.n_y, ext.n_f
    B, n_e = A.shape[:2]
    noise = np.concatenate([ext.D_f, ext.B_f], axis=1) @ system.sqrt_sigma_f
    pre = np.empty((B, n_f + n_e, n_y + n_e))
    pre[:, :n_f] = noise.transpose(0, 2, 1)
    gain = np.concatenate([C, A], axis=1).transpose(0, 2, 1)
    root = np.broadcast_to(system.sqrt_sigma_0, (B, n_e, n_e))
    cov = np.broadcast_to(system.sqrt_sigma_0 @ system.sqrt_sigma_0, (B, n_e, n_e))
    drive, direct = noise[:, n_y:], noise[:, :n_y]
    squares, step_traces = np.empty((B, N + 1, n_y)), np.empty((B, N + 1))
    for k in range(N + 1):
        pre[:, n_f:] = root @ gain
        r = np.linalg.qr(pre, mode="r")
        squares[:, k] = np.square(np.diagonal(r[:, :n_y, :n_y], axis1=1, axis2=2))
        root = r[:, n_y:, n_y:]
        var = C @ cov @ C.transpose(0, 2, 1) + direct @ direct.transpose(0, 2, 1)
        step_traces[:, k] = np.trace(var, axis1=1, axis2=2)
        cov = A @ cov @ A.transpose(0, 2, 1) + drive @ drive.transpose(0, 2, 1)
    return squares, np.cumsum(step_traces, axis=1)


def nominal_long_run(system, y_r, steps=1_000_000, burn_in=10_000, seed=0, batches=100):
    """Long-run time average of the nominal loop state with its standard error.

    Steps the literal loop (plant, estimator, feedback) for `batches`
    independent chains at once, each from x_e = 0: every chain discards
    `burn_in` steps and averages the next (steps - burn_in) // batches. The
    chain means are independent batches, so their spread gives the standard
    error. Returns (mean, standard error) per extended-state coordinate.
    """
    plant, ctrl, est = system.plant, system.controller, system.estimator
    n_x, n_y = plant.n_x, plant.n_y
    kept = steps - burn_in
    if kept < batches:
        raise ValueError("steps must exceed burn_in by at least the batch count")
    batch_len = kept // batches
    rng = np.random.Generator(np.random.Philox(seed))
    chol_v = np.linalg.cholesky(plant.sigma_v)
    chol_w = np.linalg.cholesky(plant.sigma_w)
    feed = (ctrl.L_yr @ np.asarray(y_r, dtype=float).ravel())[:, None]
    x = np.zeros((n_x, batches))
    x_hat = np.zeros((n_x, batches))
    sums = np.zeros((2 * n_x, batches))
    for i in range(burn_in + batch_len):
        y = plant.C @ x + chol_w @ rng.standard_normal((n_y, batches))
        u = feed - ctrl.L_xhat @ x_hat
        innov = y - plant.C @ x_hat
        x = plant.A @ x + plant.B @ u + chol_v @ rng.standard_normal((n_x, batches))
        x_hat = plant.A @ x_hat + plant.B @ u + est.K @ innov
        if i >= burn_in:
            sums[:n_x] += x
            sums[n_x:] += x_hat
    means = sums / batch_len
    return means.mean(axis=1), means.std(axis=1, ddof=1) / np.sqrt(batches)


# The pattern solver as it stood in row-space coordinates: an SVD of the
# reduced quadratic map, a row-space basis of the stacked constraint maps, and
# per-pattern SVDs of n-sized matrices. Kept unchanged, with the row-space
# basis it took from numcore inlined, its equality null space from scipy and
# its own flat-row tolerance, as the regression reference for the solve in the
# quadratic map's singular coordinates.
_FLAT_RTOL = 1e-12


class _RefGeometry:
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
            raise ValueError(f"negative stealthiness radius {radius:.6e}")
        q_box = np.asarray(q_box, dtype=float).reshape(-1, dim_d)
        m_quad = np.asarray(m_quad, dtype=float).reshape(-1, dim_d)
        f_eq = np.asarray(f_eq, dtype=float).reshape(-1, dim_d)
        if q_box.shape[0] > solver.PATTERN_CAP:
            raise solver.PatternCapExceeded(
                f"{q_box.shape[0]} reference-box rows exceed the cap {solver.PATTERN_CAP}"
            )

        z_eq = linalg.null_space(f_eq, rcond=numcore.RANK_RTOL)
        m_red = m_quad @ z_eq
        if radius > solver._RADIUS_FLOOR:
            m_red = m_red / math.sqrt(radius)
        # keep only the directions the quadratic map sees above rounding level
        # next to the box and itself, as the row-space restriction below does
        _, s, vt = np.linalg.svd(m_red)
        scale = max(np.max(s, initial=0.0), np.linalg.norm(q_box @ z_eq))
        rank = int(np.count_nonzero(s > numcore.RANK_RTOL * scale))
        if radius <= solver._RADIUS_FLOOR:
            # budget numerically zero: the quadratic cap collapses to the
            # equality m_quad d = 0 and joins the eliminated block
            z_eq = z_eq @ vt[rank:].T
            m_red = None
        else:
            m_red = s[:rank, None] * vt[:rank] if rank else None
        a_red = q_box @ z_eq

        stack = a_red if m_red is None else np.vstack([a_red, m_red])
        w = _row_space_basis(stack)
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
            self.radius, solver._RADIUS_FLOOR
        )
        eq = np.max(np.abs(d @ self.f_eq.T), axis=1, initial=0.0) / np.maximum(
            1.0, np.max(np.abs(d), axis=1, initial=0.0)
        )
        return np.maximum.reduce([box, quad, eq, np.zeros(d.shape[0])])


def _ref_solve_rows(geom: _RefGeometry, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
                    valid = np.sum(np.square(m @ centre), axis=0) <= 1.0 + solver.CERT_TOL
                dirs = np.zeros((n_rows, n))
                norm = np.zeros(n_rows)
            else:
                u2, s2, v2t = np.linalg.svd(m @ null, full_matrices=False)
                if s2[-1] < numcore.RANK_RTOL * s2[0] or s2[0] == 0.0:
                    continue  # G_N singular
                # the centre minimizes |M eta| over the slice; rho is what is left of the unit budget
                centre = centre - null @ ((v2t.T / s2) @ (u2.T @ (m @ centre)))
                rho = 1.0 - np.sum(np.square(m @ centre), axis=0)
                valid = rho >= -solver.CERT_TOL
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
            ok = valid[None, :] & np.all(np.abs(box) <= 1.0 + solver.CERT_TOL, axis=0)
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
        raise solver.NumericalFailure("no sign pattern produced a feasible candidate")
    return eta, y_best


def _ref_dual_bound(geom: _RefGeometry, c: np.ndarray, y: np.ndarray) -> np.ndarray:
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


def _row_space_basis(M):
    """Orthonormal basis (columns) of the row space of M, singular values >= RANK_RTOL * largest."""
    if M.size == 0:
        return np.zeros((M.shape[1], 0))
    _, s, vt = np.linalg.svd(M)
    rank = int(np.count_nonzero(s >= numcore.RANK_RTOL * s[0])) if s[0] > 0.0 else 0
    return vt[:rank].T


def reference_solve_rows(c, q_box, m_quad, f_eq, radius):
    """Maximizers of the rows of c by the row-space pattern solver.

    Returns None when some row is unbounded, else (d_star, mu, duality gap,
    feasibility residual), each gap and residual per row; unlike the package
    it certifies nothing and leaves the tolerance to the caller.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    geom = _RefGeometry(q_box, m_quad, f_eq, radius, c.shape[1])
    c_eta, bounded = geom.objective(c)
    if not bounded.all():
        return None
    eta, y = _ref_solve_rows(geom, c_eta)
    d_star = eta @ geom.basis.T
    mu = np.sum(c * d_star, axis=1)
    bound = _ref_dual_bound(geom, c_eta, y)
    gap = np.abs(bound - mu) / np.maximum(np.abs(mu), np.finfo(float).tiny)
    return d_star, mu, gap, geom.residual(d_star)
