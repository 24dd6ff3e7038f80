import math
import tracemalloc

import numpy as np
import pytest
from scipy import linalg

from stealthimpact import attacks, cli, distrib, numcore, solver
import oracles
from conftest import candidate_summary
from oracles import DenseBasis, qclp_dual_bound, scipy_reference_qclp

CRITERION_6 = [float(e) for e in np.linspace(0.05, 0.95, 10)]


def _curve(c, q_box=None, m_quad=None, f_eq=None):
    """The curve of the rows of c over null(f_eq), the solver's path for one program at any radius."""
    c = np.asarray(c, dtype=float)
    n = c.shape[-1]
    return solver.ImpactCurve(
        np.zeros((0, n)) if q_box is None else q_box,
        np.zeros((0, n)) if m_quad is None else m_quad,
        DenseBasis.of(np.zeros((0, n)) if f_eq is None else f_eq, n),
        c,
    )


def _solve(c, q_box=None, m_quad=None, f_eq=None, radius=1.0):
    """One program through the solver's path: its curve, evaluated at the radius.

    Returns the batch (rows of d_star and mu), or None when the program is unbounded.
    """
    return _curve(c, q_box, m_quad, f_eq).solve(radius)


def test_quadratic_binds_before_box():
    # unit box with a radius-0.25 ball inside: optimum on the ball at (0.5, 0)
    res = _solve([1.0, 0.0], q_box=np.eye(2), m_quad=np.eye(2), radius=0.25)
    assert res is not None
    assert res.mu[0] == pytest.approx(0.5, abs=1e-6)
    assert np.allclose(res.d_star[0], [0.5, 0.0], atol=1e-5)


def test_box_binds_before_quadratic():
    # radius 9 ball strictly contains the unit box: optimum at the face d_1 = 1
    res = _solve([1.0, 0.0], q_box=np.eye(2), m_quad=np.eye(2), radius=9.0)
    assert res.mu[0] == pytest.approx(1.0, abs=1e-6)


def test_corner_solution():
    res = _solve([2.0, 1.0], q_box=np.eye(2), m_quad=np.eye(2), radius=100.0)
    assert res.mu[0] == pytest.approx(3.0, abs=1e-5)
    assert np.allclose(res.d_star[0], [1.0, 1.0], atol=1e-4)


@pytest.mark.parametrize("c", [[0.1, 1.0], [0.3, 1.0]])
@pytest.mark.parametrize("radius", [2.0 * (1.0 - 1e-12), 2.0, 2.0 * (1.0 + 1e-12)])
def test_certificate_at_a_degenerate_optimum(c, radius):
    """The vertex (1, 1) of the box lies on the ball |d|^2 = 2, where three sign patterns tie.

    Both box rows, and either box row with the ball, attain c'(1, 1). At
    r = 2 the multipliers of the first box row with the ball bound the
    optimum by 2 + |c_1 - 1| instead, so the certificate holds only when each
    row takes the valid pattern with the smallest dual bound, not the first
    best value.
    """
    res = _solve(c, q_box=np.eye(2), m_quad=np.eye(2), radius=radius)
    assert res.mu[0] == pytest.approx(sum(c), abs=1e-9)
    assert np.allclose(res.d_star[0], [1.0, 1.0], atol=1e-9)
    assert res.duality_gap <= solver.CERT_TOL


def test_full_rank_equalities_pin_origin():
    res = _solve([1.0, 1.0], q_box=np.eye(2), m_quad=np.eye(2), f_eq=np.eye(2))
    assert res is not None
    assert res.mu[0] == pytest.approx(0.0, abs=1e-12)


def test_negative_radius_infeasible():
    with pytest.raises(solver.Infeasible):
        _solve([1.0, 0.0], m_quad=np.eye(2), radius=-0.1)


def test_zero_radius_collapses_quadratic():
    # radius 0 pins m_quad d at 0; the remaining freedom hits the box
    res = _solve([0.0, 1.0], q_box=np.eye(2), m_quad=np.array([[1.0, 0.0]]), radius=0.0)
    assert res.mu[0] == pytest.approx(1.0, abs=1e-6)
    assert abs(res.d_star[0, 0]) < 1e-9


def test_unbounded_direction_detected():
    # nothing constrains d_2
    res = _solve([0.0, 1.0], m_quad=np.array([[1.0, 0.0]]), radius=1.0)
    assert res is None  # the unbounded verdict


def test_objective_orthogonal_to_constraints_is_zero():
    # c lies in the equality row space: only d with c'd = 0 are feasible
    res = _solve([1.0, 0.0], q_box=np.eye(2), m_quad=np.eye(2), f_eq=np.array([[1.0, 0.0]]))
    assert res is not None
    assert res.mu[0] == pytest.approx(0.0, abs=1e-12)
    # a generic row: the reduced objective is rounding noise, not a program to certify
    f = np.random.default_rng(4).normal(size=(1, 3))
    res = _solve(2.0 * f[0], q_box=np.eye(3), m_quad=np.eye(3), f_eq=f)
    assert res.mu[0] == 0.0 and res.duality_gap == 0.0


def test_symmetry_of_feasible_set():
    rng = np.random.default_rng(12)
    for _ in range(5):
        c = rng.normal(size=4)
        q = rng.normal(size=(2, 4))
        m = rng.normal(size=(4, 4))
        plus = _solve(c, q_box=q, m_quad=m, radius=2.0)
        minus = _solve(-c, q_box=q, m_quad=m, radius=2.0)
        assert plus.mu[0] == pytest.approx(minus.mu[0], rel=1e-6, abs=1e-9)


def test_against_reference_solver():
    rng = np.random.default_rng(21)
    for trial in range(8):
        c = rng.normal(size=4)
        q = rng.normal(size=(2, 4))
        m = rng.normal(size=(3, 4))
        f = rng.normal(size=(1, 4))
        radius = float(rng.uniform(0.5, 4.0))
        res = _solve(c, q_box=q, m_quad=m, f_eq=f, radius=radius)
        assert res is not None
        mu_ref, d_ref = scipy_reference_qclp(c, q, m, f, radius)
        assert res.mu[0] == pytest.approx(mu_ref, rel=1e-4, abs=1e-6)


def test_reference_oracle_self_check():
    # the oracle must reproduce known optima, and its dual bound must be a real bound
    rng = np.random.default_rng(5)
    c, m, f = rng.normal(size=4), rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
    no_box = np.zeros((0, 4))
    z = linalg.null_space(f)
    mu_closed = math.sqrt(2.0 * c @ z @ np.linalg.solve(z.T @ m.T @ m @ z, z.T @ c))
    assert qclp_dual_bound(c, no_box, m, f, 2.0, np.zeros(0)) == pytest.approx(mu_closed, rel=1e-12)
    assert scipy_reference_qclp(c, no_box, m, f, 2.0)[0] == pytest.approx(mu_closed, rel=1e-7)

    # radius-2 ball around the unit box: the face d_1 = 1 binds, optimum 1
    box = dict(c=[1.0, 0.0], q_box=np.eye(2), m_quad=np.eye(2), f_eq=np.zeros((0, 2)), radius=4.0)
    assert qclp_dual_bound(y=[0.0, 0.0], **box) == pytest.approx(2.0)
    assert qclp_dual_bound(y=[1.0, 0.0], **box) == pytest.approx(1.0)
    for y in rng.normal(size=(20, 2)):
        assert qclp_dual_bound(y=y, **box) >= 1.0 - 1e-12
    assert scipy_reference_qclp(**box)[0] == pytest.approx(1.0, rel=1e-7)

    # m_quad misses d_2 and only the box bounds it: the bound is finite only for y = [1]
    flat = dict(c=[0.0, 1.0], q_box=[[0.0, 1.0]], m_quad=[[1.0, 0.0]], f_eq=np.zeros((0, 2)), radius=1.0)
    assert qclp_dual_bound(y=[0.5], **flat) == math.inf
    assert qclp_dual_bound(y=[1.0], **flat) == pytest.approx(1.0)

    # the unbounded problem of test_unbounded_direction_detected has no finite bound
    unbounded = dict(c=[0.0, 1.0], q_box=no_box[:, :2], m_quad=[[1.0, 0.0]], f_eq=no_box[:, :2], radius=1.0)
    assert qclp_dual_bound(y=np.zeros(0), **unbounded) == math.inf
    with pytest.raises(RuntimeError):
        scipy_reference_qclp(**unbounded)


def test_certificate_reported():
    # the ball of radius sqrt(0.5) lies inside the unit box: optimum sqrt(0.5) * |c|
    res = _solve([1.0, 0.3], q_box=np.eye(2), m_quad=np.eye(2), radius=0.5)
    assert res.mu[0] == pytest.approx(math.sqrt(0.545), rel=1e-14)
    assert res.duality_gap <= 1e-9
    assert res.feasibility_residual <= 1e-12


def test_flat_slice_with_infeasible_centre():
    # on the face x = 1 the objective is flat, and the slice centre (1, 0.5)
    # breaks the second box row; the optimum is the vertex (1, 0)
    m_quad = linalg.cholesky(np.array([[0.3, -0.5], [-0.5, 1.0]]), lower=True).T
    res = _solve([1.0, 0.0], q_box=[[1.0, 0.0], [1.0, 2.0]], m_quad=m_quad)
    assert res.mu[0] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(res.d_star[0], [1.0, 0.0], atol=1e-14)
    assert res.duality_gap <= 1e-9


def test_rank_deficient_box():
    # a repeated row makes every pattern holding both copies rank-deficient
    q_box = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    res = _solve([2.0, 1.0], q_box=q_box, m_quad=np.eye(2), radius=100.0)
    assert res.mu[0] == pytest.approx(3.0, abs=1e-14)
    assert np.allclose(res.d_star[0], [1.0, 1.0], atol=1e-14)
    res = _solve([1.0, 2.0], q_box=q_box, m_quad=np.eye(2), radius=0.25)
    assert res.mu[0] == pytest.approx(0.5 * math.sqrt(5.0), rel=1e-14)


def test_rounding_level_quadratic_map():
    # next to the box a quadratic map at rounding level cannot bind: the vertex (1, 1) is optimal
    m_quad = 1e-17 * np.random.default_rng(3).normal(size=(3, 2))
    res = _solve([1.0, 2.0], q_box=np.eye(2), m_quad=m_quad)
    assert res.mu[0] == pytest.approx(3.0, abs=1e-14)
    assert res.duality_gap <= 1e-9
    # without a box the same map is all there is, and it sets a huge optimum
    f = np.array([[1.0, -1.0]])
    res = _solve([1.0, 2.0], m_quad=m_quad, f_eq=f)
    z = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert res.mu[0] == pytest.approx(3.0 * z[0] / np.linalg.norm(m_quad @ z), rel=1e-12)
    assert res.duality_gap <= 1e-9 and res.feasibility_residual <= 1e-9


def test_random_problems_against_reference():
    rng = np.random.default_rng(33)
    for trial in range(24):
        n_box = trial % 4
        c = rng.normal(size=4)
        q = rng.normal(size=(n_box, 4))
        m = rng.normal(size=(4, 4))
        f = rng.normal(size=(trial % 2, 4))
        radius = float(rng.uniform(0.2, 4.0))
        res = _solve(c, q_box=q, m_quad=m, f_eq=f, radius=radius)
        mu_ref, _ = scipy_reference_qclp(c, q, m, f, radius)
        assert res.mu[0] == pytest.approx(mu_ref, rel=2e-7)  # the oracle is certified to 1e-7
        assert res.duality_gap <= 1e-9 and res.feasibility_residual <= 1e-9


def test_pattern_cap():
    n = solver.PATTERN_CAP + 1
    with pytest.raises(solver.PatternCapExceeded):
        _solve(np.ones(n), q_box=np.eye(n), m_quad=np.eye(n))


def _equality_map(attack, layout):
    """Orthonormal rows spanning the complement of the admissible span: F d = 0 iff d = Z xi.

    Z is the dense oracle's, formed apart from the layout's indices.
    """
    return linalg.null_space(oracles.dense_admissible_basis(attack, layout.horizon, layout.n_yr).T).T


def _bias_report(system, N=6, epsilon=0.3):
    """The report, summary, layout and equality map of one bias injection."""
    res = attacks.ResourceSet(sensors=(0,), actuators=(0, 1))
    atk = attacks.build_attack("bias_injection", res, system.dims, N)
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    q_z = np.array([[0.0, 0.0, 1.0 / 3.0, 0.0, 0.0, 0.0]])
    summary = distrib.gaussian_summary(system, atk, layout, q_z, N, epsilon)
    return solver.compute_impact(summary), summary, layout, _equality_map(atk, layout)


def test_compute_impact_constraints_hold(system):
    report, summary, layout, F = _bias_report(system)
    assert report.feasible and not report.unbounded
    assert report.duality_gap <= 1e-9
    assert report.feasibility_residual <= 1e-9
    assert F.shape[0]
    for i in range(report.mu.shape[0]):
        d = report.d_star[i]
        assert np.max(np.abs(layout.Q @ d)) <= 1.0 + 1e-9
        quad = float(d @ summary.t_r.T @ summary.t_r @ d)
        assert quad <= summary.eps_prime * (1.0 + 1e-9)
        assert np.max(np.abs(F @ d)) <= 1e-9


def test_compute_impact_matches_single_row_solves(system):
    report, summary, layout, F = _bias_report(system)
    for i in range(summary.t_z.shape[0]):
        res = _solve(summary.t_z[i], layout.Q, summary.t_r, F, summary.eps_prime)
        assert res.mu[0] == pytest.approx(report.mu[i], rel=1e-12)
        assert np.allclose(res.d_star[0], report.d_star[i], atol=1e-10)


def test_compute_impact_aggregation(system):
    report, _, _, _ = _bias_report(system)
    assert report.exceed_prob == pytest.approx(float(np.max(report.p_exceed)), abs=1e-15)
    assert report.mean_lower == pytest.approx(float(np.max(report.mu)), abs=1e-15)
    # the smallest index within the certified accuracy of the max wins
    p, i = report.p_exceed, report.argmax_exceed
    floor = p.max() - solver.CERT_TOL * max(1.0, p.max())
    assert p[i] >= floor and p[:i].max(initial=-1.0) < floor
    assert report.exceed_prob == p[i]


def test_compute_impact_unbounded_path(system):
    N = 4
    res = attacks.ResourceSet(sensors=(1, 2), actuators=(2, 3))
    atk = attacks.build_attack("fdi", res, system.dims, N)
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    q_z = np.array([[0.0, 0.0, 1.0 / 3.0, 0.0, 0.0, 0.0]])
    summary = distrib.gaussian_summary(system, atk, layout, q_z, N, 0.3)
    report = solver.compute_impact(summary)
    assert report.unbounded and report.feasible
    assert report.exceed_prob == 1.0
    assert report.mean_lower == math.inf
    assert report.argmax_exceed is None


def test_solver_boundedness_matches_audit(scenario):
    """The solver's per-row test gives the unbounded verdict the stacked audit gives.

    Every configuration of every bundled pair at N = 10 and 50, at each epsilon
    whose budget is feasible.
    """
    verdicts = set()
    for N in (10, 50):
        for vulnerability, resources in scenario.vulnerabilities.items():
            for kind in scenario.strategies:
                spec = attacks.StrategySpec(kind, resources)
                for cand in attacks.candidates(spec, scenario.system.dims, N):
                    layout = attacks.decision_layout(cand.attack, N, scenario.system.controller.Q_yr)
                    epsilons = [0.0, 0.05, 0.3, 0.95]
                    rows = distrib.gaussian_summaries(
                        scenario.system, [cand.attack], layout, scenario.q_z, N, epsilons
                    )
                    summary = rows[0][0]
                    audit = None
                    for eps, (moved,) in zip(epsilons, rows):
                        if not moved.residual_cov_pd or moved.eps_prime < 0:
                            continue
                        if audit is None:
                            audit = summary.impact_bounded
                        report = solver.compute_impact(moved)
                        assert report.unbounded == (not audit), (vulnerability, kind, N, eps)
                        verdicts.add(report.unbounded)
    assert verdicts == {False, True}


def test_boundedness_read_after_a_solve_takes_no_svd(scenario, monkeypatch):
    """impact_bounded is the curve's cached verdict: after compute_impact a read factors nothing.

    Every feasible configuration of the bundled pairs at the scenario's
    horizon and epsilon, the read that the bench tracer makes after each solve.
    """
    N = scenario.horizon
    calls, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    feasible = 0
    for resources in scenario.vulnerabilities.values():
        for kind in scenario.strategies:
            spec = attacks.StrategySpec(kind, resources)
            for cand in attacks.candidates(spec, scenario.system.dims, N):
                summary = candidate_summary(scenario, cand, scenario.epsilon)
                if not summary.residual_cov_pd or summary.eps_prime < 0:
                    continue
                report = solver.compute_impact(summary)
                calls.clear()
                monkeypatch.setattr(np.linalg, "svd", counted)
                bounded = summary.impact_bounded
                monkeypatch.undo()
                assert calls == [], kind
                assert bounded == (not report.unbounded), kind
                feasible += 1
    assert feasible == 7


@pytest.mark.parametrize("kind", ["fdi", "bias_injection"])
def test_boundedness_does_not_depend_on_epsilon(scenario, kind):
    """vulnerability_2's injections stay bounded at every budget, and the mean bound grows with it.

    The rank cut reads the quadratic map unscaled, so a large radius does not
    push its singular values under the cut, and a zero one (epsilon = 0 gives
    radius 0 here) pins the quadratic block without narrowing the basis:
    impact_bounded, the geometry's verdict at unit radius, is the verdict of
    every report.
    """
    epsilons = [0.0, 1e8, 1e10, 3e10, 1e12, 1e17, 3e17, 1e30]
    entries = cli._assess_pair(scenario, "vulnerability_2", kind, epsilons)
    assert entries[0].report.eps_prime == 0.0
    for entry in entries:
        assert not entry.report.unbounded, entry.epsilon
        summary = candidate_summary(scenario, entry.candidate, entry.epsilon)
        assert summary.impact_bounded == (not entry.report.unbounded)
    means = [entry.report.mean_lower for entry in entries]
    assert all(later > earlier for earlier, later in zip(means, means[1:])), means


def _objective_bounded(a, b, as_box):
    """The geometry's verdict on the rows of b, with the rows of a as the box or the quadratic map."""
    empty = np.zeros((0, a.shape[1]))
    q, m = (a, empty) if as_box else (empty, a)
    return bool(solver._Geometry(q, m, DenseBasis(np.eye(a.shape[1]))).objective(b)[1].all())


def test_null_space_containment():
    """A row is bounded iff null(A) lies in its null space, A the constraint maps."""
    A = np.array([[1.0, 0.0, 0.0]])
    B_inside = np.array([[2.0, 0.0, 0.0]])
    B_outside = np.array([[0.0, 1.0, 0.0]])
    for as_box in (False, True):
        assert _objective_bounded(A, B_inside, as_box)
        assert not _objective_bounded(A, B_outside, as_box)
        # B with no rows is always contained; A full rank likewise
        assert _objective_bounded(A, np.zeros((0, 3)), as_box)
        assert _objective_bounded(np.eye(3), B_outside, as_box)


def test_null_space_containment_scale_invariant():
    # huge scale on B must not mask or fake a leak
    A = np.array([[1.0, 1.0]])
    B = 1e12 * np.array([[1.0, 1.0]])
    B_leak = 1e12 * np.array([[1.0, 0.0]])
    for as_box in (False, True):
        assert _objective_bounded(A, B, as_box)
        assert not _objective_bounded(A, B_leak, as_box)


def test_rank_cut_reads_no_radius():
    """The quadratic map keeps the same directions at every radius; only its singular values scale.

    Next to a unit box row, the map's singular values 1 and 1e-3 fall below
    RANK_RTOL times the box norm once divided by sqrt(1e30): a cut on the
    scaled map would call the first two rows unbounded there.
    """
    q = np.array([[0.0, 0.0, 1.0]])
    m = np.array([[1.0, 0.0, 0.0], [0.0, 1e-3, 0.0]])
    curve = _curve(np.eye(3), q_box=q, m_quad=m)
    for radius in (1e-6, 1.0, 1e10, 1e30):
        batch = curve.solve(radius)
        assert batch is not None, radius
        np.testing.assert_allclose(batch.mu, [math.sqrt(radius), 1e3 * math.sqrt(radius), 1.0], rtol=1e-12)


def test_geometry_reads_the_radius_only_through_s(scenario):
    """The geometry and the pieces read no radius: one curve serves r = 0, 1e-13, 1 and 1e30.

    Only the scales read it: s = inf at and below the floor, which pins x,
    and s_R / sqrt(r) above it. A curve evaluated at one radius after others
    gives, bit for bit, what a fresh curve gives there, so a sweep's entries
    equal single runs. Random programs with unbounded rows, and the bundled
    vulnerability_2 injections at epsilon = 0, whose radius is 0.
    """
    radii = (0.0, 1e-13, 1.0, 1e30)
    cases = _random_programs()
    for kind in ("fdi", "bias_injection"):
        spec = attacks.StrategySpec(kind, scenario.vulnerabilities["vulnerability_2"])
        (cand,) = attacks.candidates(spec, scenario.system.dims, scenario.horizon)
        summary = candidate_summary(scenario, cand, 0.0)
        assert summary.eps_prime == 0.0
        cases.append((summary.layout.Q, summary.t_r, summary.layout, summary.t_z))
    verdicts = set()
    for q, m, basis, c in cases:
        geom = solver._Geometry(q, m, basis)
        bounded = geom.objective(c)[1]
        verdicts.update(bounded)
        shared = solver.ImpactCurve(q, m, basis, c)
        for radius in radii:
            if radius <= solver._RADIUS_FLOOR:
                assert geom.scales(radius).shape == geom.s.shape and np.all(geom.scales(radius) == np.inf)
            else:
                np.testing.assert_allclose(geom.scales(radius), geom.s / math.sqrt(radius), rtol=1e-15)
            got = _outcome(shared, radius)
            assert got == _outcome(solver.ImpactCurve(q, m, basis, c), radius), radius
            assert (got is None) == (not bounded.all())
    assert verdicts == {False, True}


def _random_programs():
    """Six random programs (q_box, m_quad, basis, c), each basis a DenseBasis.

    Some have unbounded rows or a quadratic-map direction at rounding level.
    """
    rng = np.random.default_rng(19)
    n, cases = 5, []
    for trial in range(6):
        m = rng.normal(size=(2 + trial % 2, n))
        if trial % 3 == 0:
            m = np.vstack([m, 1e-17 * rng.normal(size=(1, n))])  # a direction seen at rounding level
        q = rng.normal(size=(trial % 3 + 1, n))
        basis = DenseBasis(linalg.null_space(rng.normal(size=(1, n))) if trial % 2 else np.eye(n))
        cases.append((q, m, basis, rng.normal(size=(4, n))))
    return cases


def _counting_evaluate(monkeypatch):
    """Patch solver._evaluate to record the radii of each call; returns the list of calls."""
    calls, evaluate = [], solver._evaluate

    def counted(pieces, radii):
        calls.append(tuple(radii))
        return evaluate(pieces, radii)

    monkeypatch.setattr(solver, "_evaluate", counted)
    return calls


def _batch_and_single(q, m, basis, c, radii, monkeypatch):
    """Outcomes at the radii from one curve built with them all, and from one asked a radius at a time.

    Returns both lists and the _evaluate calls the batch took.
    """
    calls = _counting_evaluate(monkeypatch)
    batched = solver.ImpactCurve(q, m, basis, c, radii)
    got = [_outcome(batched, r) for r in radii]
    batch_calls = list(calls)
    single = solver.ImpactCurve(q, m, basis, c)
    want = [_outcome(single, r) for r in radii]
    monkeypatch.undo()
    return got, want, batch_calls


@pytest.mark.parametrize("N", [10, 50])
def test_batch_equals_batch_of_one(scenario, N, monkeypatch):
    """Each radius's d*, mu, gap and residual are the same bits in one batch as alone.

    Every bundled configuration that is feasible and bounded, at the radii of
    criterion 6's epsilons and of 0, 1e-9, 10 and 1e8, solved from one curve
    that was built with them all (one _evaluate call per chunk) and one radius
    at a time; and the random programs of
    test_geometry_reads_the_radius_only_through_s, unbounded rows and
    uncertified radii included.
    """
    epsilons = [*CRITERION_6, 0.0, 1e-9, 10.0, 1e8]
    compared = 0
    for resources in scenario.vulnerabilities.values():
        for kind in scenario.strategies:
            spec = attacks.StrategySpec(kind, resources)
            for cand in attacks.candidates(spec, scenario.system.dims, N):
                layout = attacks.decision_layout(cand.attack, N, scenario.system.controller.Q_yr)
                rows = distrib.gaussian_summaries(
                    scenario.system, [cand.attack], layout, scenario.q_z, N, epsilons
                )
                summary = rows[0][0]
                radii = [r for r in (law.eps_prime for (law,) in rows) if r >= 0]
                if not radii or not summary.impact_bounded:
                    continue
                maps = (layout.Q, summary.t_r, layout, summary.t_z)
                got, want, calls = _batch_and_single(*maps, radii, monkeypatch)
                assert got == want, (kind, cand.variant)
                # in order, a chunk at a time: one chunk holds them all at N = 10
                assert sum(calls, ()) == tuple(radii) and (N > 10 or len(calls) == 1), (kind, cand.variant)
                compared += len(radii)
    assert compared >= 6 * len(epsilons)
    radii = [0.0, 1e-13, 1e-9, 0.05, 1.0, 4.0, 1e8, 1e30]
    for q, m, basis, c in _random_programs():
        got, want, _ = _batch_and_single(q, m, basis, c, radii, monkeypatch)
        assert got == want


def _bundled_curve(scenario, vulnerability, kind, N=None):
    N = N or scenario.horizon
    spec = attacks.StrategySpec(kind, scenario.vulnerabilities[vulnerability])
    (cand,) = attacks.candidates(spec, scenario.system.dims, N)
    layout = attacks.decision_layout(cand.attack, N, scenario.system.controller.Q_yr)
    summary = distrib.gaussian_summary(
        scenario.system, cand.attack, layout, scenario.q_z, N, scenario.epsilon
    )
    return layout.Q, summary.t_r, layout, summary.t_z


@pytest.mark.parametrize(
    "vulnerability, kind, failing",
    [
        # past the certified range (ROADMAP item 6): a certificate miss at
        # 1e200 and an overflow at 1e308
        ("vulnerability_2", "replay_dos", {1e200: "optimality certificate not met",
                                           1e308: "overflow encountered"}),
        ("vulnerability_2", "fdi", {1e200: "no sign pattern produced a feasible candidate"}),
    ],
)
def test_failures_keep_their_place(scenario, vulnerability, kind, failing, monkeypatch):
    """A radius's failure is raised when that radius is read, and only then.

    The batch is solved on the first read, at 1.0; the failing radii after it
    raise what they raise alone, and the radius after them still returns
    its own result, bit for bit. An overflow (under over="raise") in the
    batch sends it back radius by radius.
    """
    maps = _bundled_curve(scenario, vulnerability, kind)
    radii = [1.0, *failing, 4.0]
    with np.errstate(over="raise"):
        got, want, calls = _batch_and_single(*maps, radii, monkeypatch)
    assert got == want
    assert isinstance(got[0], tuple) and isinstance(got[-1], tuple)
    for outcome, fragment in zip(got[1:-1], failing.values()):
        assert isinstance(outcome, str) and fragment in outcome
    overflow = any("overflow" in f for f in failing.values())
    assert calls == [tuple(radii)] + ([(r,) for r in radii] if overflow else [])


def test_batch_memory_does_not_grow_with_the_sweep(scenario):
    """Solving a curve's 2,000 radii of vulnerability_2/fdi at N = 50 peaks at the memory of one chunk.

    Each radius's result is dropped when it is read, so the peak of the
    solve is the same for 200 and for 2,000 radii, and stays within a few
    chunks of _CHUNK float entries.
    """
    maps = _bundled_curve(scenario, "vulnerability_2", "fdi", N=50)
    peaks = []
    for count in (200, 2000):
        radii = [float(r) for r in np.linspace(0.0, 10.0, count)]
        curve = solver.ImpactCurve(*maps, radii)
        curve.solve(1.0)  # the enumeration, which every count shares
        tracemalloc.start()
        try:
            for r in radii:
                curve.solve(r)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert not curve._held and not curve._pending
    assert peaks[1] <= 1.02 * peaks[0]
    assert peaks[1] <= 8 * solver._CHUNK * 8  # eight chunk-sized float64 arrays


def _outcome(curve, radius):
    """A solve's result as plain values, or the message it failed (or overflowed) with.

    At r = 1e30 the rounding of a box-limited optimum exceeds CERT_TOL on
    some of these programs (ROADMAP item 6).
    """
    try:
        batch = curve.solve(radius)
    except (solver.NumericalFailure, FloatingPointError) as exc:
        return str(exc)
    if batch is None:
        return None
    return batch.d_star.tobytes(), batch.mu.tobytes(), batch.duality_gap, batch.feasibility_residual


def test_compute_impact_infeasible_path(system):
    import dataclasses

    report, summary, _, _ = _bias_report(system)
    starved = dataclasses.replace(summary, eps_prime=-1.0)
    out = solver.compute_impact(starved)
    assert not out.feasible
    assert out.exceed_prob == 0.0
    assert out.mean_lower == 0.0
    assert out.argmax_exceed is None


def _oracle_cases():
    """Random programs for the row-space reference: 0-3 box rows, some of them
    repeated or dependent, quadratic maps of full rank, rank-deficient or at
    rounding level, and radii 0, 1e-13 (below the floor) and order 1."""
    rng = np.random.default_rng(44)
    for trial in range(60):
        n = 3 + trial % 3
        n_box = trial % 4
        q = rng.normal(size=(n_box, n))
        if n_box >= 2 and trial % 5 == 0:
            q[1] = q[0]  # a repeated row
        if n_box == 3 and trial % 7 == 0:
            q[2] = q[0] - 2.0 * q[1]  # a dependent row
        m_rows = n if trial % 3 else n - 2
        m = rng.normal(size=(m_rows, n))
        if trial % 5 == 1:
            m = np.vstack([m, 1e-17 * rng.normal(size=(2, n))])  # directions seen at rounding level
        if trial % 11 == 0:
            m, q = 1e-17 * m, np.eye(n)  # only the box bounds the map
        f = rng.normal(size=(trial % 2, n))
        radius = (0.0, 1e-13, float(rng.uniform(0.2, 4.0)))[(trial // 4) % 3]
        yield rng.normal(size=(3, n)), q, m, f, radius


# One curve per case serves every radius; these include the floor, a radius
# below it and radii where the box, the ball or both bind.
RADII = (0.0, 1e-13, 0.05, 0.3, 1.0, 4.0, 1e6)


def _assert_matches_reference(curve, radius, ref):
    batch = curve.solve(radius)  # raises unless certified to CERT_TOL
    if ref is None:
        assert batch is None, radius
        return 0
    assert batch is not None, radius
    _, mu_ref, _, _ = ref
    np.testing.assert_allclose(
        batch.mu, mu_ref, rtol=1e-9, atol=1e-12 * np.max(np.abs(mu_ref), initial=1.0), err_msg=f"radius {radius}"
    )
    assert batch.duality_gap <= solver.CERT_TOL and batch.feasibility_residual <= solver.CERT_TOL, radius
    return 1


def test_solve_matches_row_space_reference():
    """The curve in singular coordinates reproduces the row-space pattern solver at every radius.

    The reference keeps the earlier formulation: a row-space basis of the
    stacked constraint maps and per-pattern SVDs of n-sized matrices, solved
    afresh at each radius. Each case's curve is built once and evaluated at
    the case's own radius and at RADII.
    """
    solved = 0
    for c, q, m, f, radius in _oracle_cases():
        curve = solver.ImpactCurve(q, m, DenseBasis(linalg.null_space(f)), c)
        for r in (radius, *RADII):
            solved += _assert_matches_reference(curve, r, oracles.reference_solve_rows(c, q, m, f, r))
    assert solved >= 30 * (1 + len(RADII))


def test_pattern_blocks_match_row_space_reference():
    """Six box rows give 3^6 = 729 sign patterns, evaluated in blocks of solver._BLOCK entries.

    A block holds at most _BLOCK (radius, pattern, box row) entries, so one
    radius takes three blocks here and the batch of every radius in RADII
    many more. The best candidate and the tightest bound of each row are
    kept across blocks, as within one.
    """
    rng = np.random.default_rng(61)
    n = 7
    q, m, c = rng.normal(size=(6, n)), rng.normal(size=(n - 2, n)), rng.normal(size=(4, n))
    f = rng.normal(size=(1, n))
    for batch in (False, True):
        curve = solver.ImpactCurve(q, m, DenseBasis(linalg.null_space(f)), c, RADII if batch else ())
        assert curve._pieces.kappa.size * q.shape[0] > 2 * solver._BLOCK
        for r in RADII:
            assert _assert_matches_reference(curve, r, oracles.reference_solve_rows(c, q, m, f, r))


@pytest.mark.parametrize("N", [10, 50])
def test_bundled_solves_match_row_space_reference(scenario, N):
    """Every feasible configuration of the bundled pairs, against the row-space reference.

    One curve per configuration, evaluated at its radius at the scenario's
    epsilon and at RADII.
    """
    solved = 0
    for resources in scenario.vulnerabilities.values():
        for kind in scenario.strategies:
            spec = attacks.StrategySpec(kind, resources)
            for cand in attacks.candidates(spec, scenario.system.dims, N):
                layout = attacks.decision_layout(cand.attack, N, scenario.system.controller.Q_yr)
                summary = distrib.gaussian_summary(
                    scenario.system, cand.attack, layout, scenario.q_z, N, scenario.epsilon
                )
                if not summary.residual_cov_pd or summary.eps_prime < 0:
                    continue
                curve = summary.curve
                for r in (summary.eps_prime, *RADII):
                    ref = oracles.reference_solve_rows(
                        summary.t_z, layout.Q, summary.t_r, _equality_map(cand.attack, layout), r
                    )
                    solved += _assert_matches_reference(curve, r, ref)
    assert solved >= 6 * (1 + len(RADII))


def test_solve_factors_no_large_matrix_but_the_quadratic_map(scenario, monkeypatch):
    """At N = 50 the only SVD with more than k rows is the one of the reduced
    quadratic map: the admissible basis comes in closed form, so none is taken
    to find it, for free (fdi), held (bias_injection, replay_bias) and pinned
    (replay_bias, replay_dos) injection alike."""
    N = 50
    cases = [
        ("vulnerability_2", "fdi"),
        ("vulnerability_1", "bias_injection"),
        ("vulnerability_2", "replay_bias"),
        ("vulnerability_2", "replay_dos"),
    ]
    for vulnerability, kind in cases:
        spec = attacks.StrategySpec(kind, scenario.vulnerabilities[vulnerability])
        (cand,) = attacks.candidates(spec, scenario.system.dims, N)
        layout = attacks.decision_layout(cand.attack, N, scenario.system.controller.Q_yr)
        summary = distrib.gaussian_summary(
            scenario.system, cand.attack, layout, scenario.q_z, N, scenario.epsilon
        )
        assert summary.residual_cov_pd and summary.eps_prime > 0, kind
        k = layout.Q.shape[0]
        shapes = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        report = solver.compute_impact(summary)
        monkeypatch.undo()
        assert report.feasible and not report.unbounded, kind
        columns = layout.held.size + layout.free.size  # the admissible dimension
        assert [s for s in shapes if s[0] > k] == [(summary.t_r.shape[0], columns)], kind
        assert len(shapes) > 1, kind
