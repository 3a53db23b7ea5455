import dataclasses

import numpy as np
import pytest

from se5nav.frontend import UnifiedLayout, output_matrix
from se5nav.lie import SEn, hat, kron, project_rotation, psi, so3_exp, vec, vec_inv
from se5nav.observer import (DivergenceError, ErrorReport, ObserverConfig, _check_pd, build_a, build_abar,
                             error_arrays)
from se5nav.scenario import (ScenarioConfig, _gains, bundled_config_path, estimate_from_errors, parse_scenario,
                             run_observer, scenario_output_map)
from se5nav.sensors import ChannelKind, ChannelSpec, spawn_channel_rngs
from se5nav.trajectory import TrajectorySpec, TruthState, coupled_truth, eval_omega, simulate_truth, z_block

from oracles import (
    build_d,
    build_u,
    delta_r,
    delta_r_decomposition,
    gain,
    geometric_error,
    kalman_reference_run,
    riccati_step,
)

RNG = np.random.default_rng(77)

G_NED = np.array([0.0, 0.0, 9.81])


def random_rotation(rng, scale=2.0):
    return so3_exp(scale * rng.standard_normal(3))


def random_truth(rng):
    return TruthState(
        t=0.0, p=3 * rng.standard_normal(3), v=2 * rng.standard_normal(3),
        vdot=np.zeros(3), R=random_rotation(rng), omega=np.zeros(3), aB=np.zeros(3),
    )


def random_spd(rng, n, scale=0.3):
    a = rng.standard_normal((n, n)) * scale
    return np.eye(n) + a @ a.T


class TestSystemMatrices:
    def test_abar_structure(self):
        abar = build_abar(G_NED)
        expected = np.zeros((5, 5))
        expected[0, 1] = 1.0
        expected[1, 2:] = G_NED
        assert np.array_equal(abar, expected)

    def test_d_embeds_abar_transpose(self):
        d = build_d(G_NED)
        assert np.array_equal(d[3:, 3:], build_abar(G_NED).T)
        assert np.array_equal(d[:3, :], np.zeros((3, 8)))

    def test_u_structure(self):
        w = np.array([0.1, -0.2, 0.3])
        a = np.array([1.0, 2.0, 3.0])
        u = build_u(w, a)
        assert np.array_equal(u[:3, :3], hat(w))
        assert np.array_equal(u[:3, 4], a)
        assert np.array_equal(u[:3, 3], np.zeros(3))
        assert np.array_equal(u[:3, 5:], np.zeros((3, 3)))
        assert np.array_equal(u[3:, :], np.zeros((5, 8)))

    def test_truth_flow_closes_on_group_dynamics(self):
        """dX = X U + [X, D] reproduces the rigid-body kinematics."""
        spec = TrajectorySpec()
        run = simulate_truth(spec, 0.2, 1e-3)
        k = 120
        s = run.state(k)
        x = SEn(s.R, s.z).as_matrix()
        dx = x @ build_u(s.omega, s.aB) + _commutator(x, build_d(G_NED))
        assert np.allclose(dx[:3, :3], s.R @ hat(s.omega), atol=1e-12)
        assert np.allclose(dx[:3, 3], s.v, atol=1e-12)
        assert np.allclose(dx[:3, 4], s.vdot, atol=1e-10)
        assert np.allclose(dx[:3, 5:], 0.0, atol=1e-12)
        assert np.allclose(dx[3:, :], 0.0, atol=1e-12)

    def test_a_matches_kron_form(self):
        w = RNG.standard_normal(3)
        a = build_a(w, G_NED)
        ref = kron(build_abar(G_NED), np.eye(3)) - kron(np.eye(5), hat(w))
        assert np.array_equal(a, ref)

    def test_a_bounded_for_bounded_rate(self):
        spec = TrajectorySpec()
        norms = [
            np.linalg.norm(build_a(eval_omega(spec, t), G_NED), 2)
            for t in np.linspace(0, 20, 41)
        ]
        assert max(norms) < np.linalg.norm(kron(build_abar(G_NED), np.eye(3)), 2) + 1.5


def _commutator(a, b):
    return a @ b - b @ a


class TestDeltaR:
    def test_aligned_auxiliary_states_give_zero(self):
        assert np.array_equal(delta_r(np.eye(3), (10.0, 6.0, 4.0)), np.zeros(3))

    def test_single_swapped_column(self):
        ehat = np.eye(3).copy()
        ehat[:, 0] = [0.0, 1.0, 0.0]
        dr = delta_r(ehat, (10.0, 6.0, 4.0))
        assert np.allclose(dr, [0.0, 0.0, -5.0])

    def test_matches_cross_product_sum(self):
        rho = (10.0, 6.0, 4.0)
        for _ in range(50):
            ehat = RNG.standard_normal((3, 3))
            expected = 0.5 * sum(
                rho[i] * np.cross(ehat[:, i], np.eye(3)[:, i]) for i in range(3)
            )
            assert np.allclose(delta_r(ehat, rho), expected, atol=1e-14)

    def test_decomposition_identity(self):
        """delta_r = psi(M Rtilde) + Gamma x_body for random states."""
        rho = (10.0, 6.0, 4.0)
        worst = 0.0
        for _ in range(200):
            truth = random_truth(RNG)
            rhat = random_rotation(RNG)
            zhat = RNG.standard_normal((3, 5))
            rtilde = truth.R @ rhat.T
            x_body = vec(truth.R.T @ (truth.z - rtilde @ zhat))
            dr = delta_r(zhat[:, 2:5], rho)
            psi_term, gamma = delta_r_decomposition(rho, rhat, rtilde)
            worst = max(worst, np.max(np.abs(dr - psi_term - gamma @ x_body)))
        assert worst < 1e-12

    def test_psi_term_equals_basis_sum(self):
        rho = (10.0, 6.0, 4.0)
        rtilde = random_rotation(RNG)
        psi_term, _ = delta_r_decomposition(rho, np.eye(3), rtilde)
        alt = -0.5 * sum(
            rho[i] * hat(np.eye(3)[:, i]) @ rtilde.T @ np.eye(3)[:, i] for i in range(3)
        )
        assert np.allclose(psi_term, alt, atol=1e-15)
        assert np.allclose(psi_term, psi(np.diag(rho) @ rtilde), atol=1e-15)

    def test_gamma_frobenius_bound(self):
        rho = (10.0, 6.0, 4.0)
        bound = np.sqrt(2) / 2 * sum(rho)
        for _ in range(100):
            _, gamma = delta_r_decomposition(rho, random_rotation(RNG), np.eye(3))
            assert np.linalg.norm(gamma) <= bound + 1e-12


class TestRiccati:
    def test_scalar_steady_state(self):
        # decoupled scalar flows: dp/dt = -q p^2 + v, fixed point sqrt(v/q)
        q, v = 100.0, 10.0
        p = np.eye(15)
        a = np.zeros((15, 15))
        c = np.eye(15)
        for _ in range(1000):
            p = riccati_step(p, a, c, q, v, 1e-3)
        target = np.sqrt(v / q)
        assert abs(target - 0.31623) < 1e-5
        assert np.max(np.abs(np.diag(p) - target)) < 1e-4
        off = p - np.diag(np.diag(p))
        assert np.max(np.abs(off)) < 1e-12

    def test_frozen_flow(self):
        p0 = random_spd(RNG, 15)
        p1 = riccati_step(p0, np.zeros((15, 15)), np.zeros((0, 15)), 1.0, 0.0, 1e-3)
        assert np.allclose(p1, p0, atol=1e-15)

    def test_scalar_closed_form_transient(self):
        # dp/dt = -q p^2 + v has p(t) = p* (p0 + p* tanh(q p* t)) / (p* + p0 tanh(q p* t))
        q, v, p0 = 4.0, 1.0, 2.0
        pstar = np.sqrt(v / q)
        dt = 1e-3
        p = p0 * np.eye(1)
        t = 0.25
        for _ in range(int(t / dt)):
            p = riccati_step(p, np.zeros((1, 1)), np.eye(1), q, v, dt)
        th = np.tanh(q * pstar * t)
        expected = pstar * (p0 + pstar * th) / (pstar + p0 * th)
        assert abs(p[0, 0] - expected) < 1e-10

    def test_spd_loss_raises(self):
        # enormous step on a stiff flow drives P indefinite
        p = np.eye(15)
        c = 30.0 * np.eye(15)
        with pytest.raises(DivergenceError):
            riccati_step(p, np.zeros((15, 15)), c, 100.0, 1e-6, 1e-2)

    def test_symmetry_preserved(self):
        p = random_spd(RNG, 15)
        a = RNG.standard_normal((15, 15))
        c = RNG.standard_normal((9, 15))
        p1 = riccati_step(p, a, c, 2.0, 1.0, 1e-4)
        assert np.max(np.abs(p1 - p1.T)) == 0.0

    def test_a_non_finite_riccati_matrix_is_named(self):
        pis = np.stack([np.eye(5), np.eye(5)])
        pis[1, 2, 3] = np.nan
        assert _check_pd(pis, np.array([0.0, 0.001])) == (1, "non-finite Riccati matrix at t=0.0010")


class TestGain:
    def test_identity_case(self):
        kb, ki = gain(np.eye(15), np.eye(15), 1.0, np.eye(3))
        assert np.allclose(kb, np.eye(15))
        assert np.allclose(ki, np.eye(15))

    def test_conjugation_round_trip(self):
        for _ in range(25):
            rhat = random_rotation(RNG)
            c = RNG.standard_normal((12, 15))
            p = random_spd(RNG, 15)
            kb, ki = gain(p, c, 1.0, rhat)
            m = c.shape[0] // 3
            back = kron(np.eye(5), rhat.T) @ ki @ kron(np.eye(m), rhat)
            assert np.max(np.abs(back - kb)) < 1e-13

    def test_gain_chain_identity(self):
        """vec(Rhat^T K (I5 kron dz)) = K_B C x_body through the whole chain."""
        channels = [
            ChannelSpec(kind=ChannelKind.BODY_VECTOR, xi=(2.0, 0.0, 0.0), gamma=1),
            ChannelSpec(kind=ChannelKind.BODY_VECTOR, xi=(0.7, 0.0, 0.7), gamma=0),
            ChannelSpec(kind=ChannelKind.INERTIAL_POSITION, b=(0.1, 0.0, 0.0)),
            ChannelSpec(kind=ChannelKind.INERTIAL_VELOCITY),
        ]
        worst = 0.0
        for _ in range(100):
            truth = random_truth(RNG)
            rhat = random_rotation(RNG)
            zhat = RNG.standard_normal((3, 5))
            c = output_matrix(unified_from_truth(channels, truth)[1])
            p = random_spd(RNG, 15, scale=0.1)
            kb, ki = gain(p, c, 1.0, rhat)
            rtilde = truth.R @ rhat.T
            x_body = vec(truth.R.T @ (truth.z - rtilde @ zhat))
            dz = kron(np.eye(len(channels)), rhat) @ c @ x_body
            k_wide = np.hstack([ki[3 * i: 3 * i + 3, :] for i in range(5)])
            lhs = vec(rhat.T @ k_wide @ kron(np.eye(5), dz.reshape(-1, 1)))
            worst = max(worst, np.max(np.abs(lhs - kb @ c @ x_body)))
        assert worst < 1e-11

    def test_ki_row_blocks_fold_into_translation_correction(self):
        rhat = random_rotation(RNG)
        c = RNG.standard_normal((9, 15))
        p = random_spd(RNG, 15)
        kb, ki = gain(p, c, 3.0, rhat)
        dz = RNG.standard_normal(9)
        folded = vec_inv(ki @ dz, 3, 5)
        # column j is the j-th row block of K_I applied to dz
        for j in range(5):
            assert np.allclose(folded[:, j], ki[3 * j: 3 * j + 3] @ dz, atol=1e-12)


STEREO_CHANNELS = [
    ChannelSpec(kind=ChannelKind.BODY_VECTOR, xi=xi, gamma=1)
    for xi in [(2, 0, 0), (0, 0.4, 0), (0, 0, 0.5), (1, 0, 0), (0, 1, 0)]
]


# a noiseless landmark scenario of one step
ONE_STEP = ScenarioConfig(TrajectorySpec(), tuple(STEREO_CHANNELS), ObserverConfig(), duration=1e-3, noise=False)


def one_step_truth(cfg):
    """The truth of cfg's trajectory over its first step."""
    return simulate_truth(cfg.trajectory, cfg.observer.dt, cfg.observer.dt)


def unified_from_truth(channels, truth):
    """(ys, rs) of the channels' noiseless samples at a truth sample."""
    layout = UnifiedLayout(channels)
    return layout.stacks(layout.raw_from_pose(truth.R, truth.p, truth.v))


class TestObserverStep:
    def test_single_step_advances_time_and_stays_healthy(self):
        run = one_step_truth(ONE_STEP)
        new = run_observer(ONE_STEP, run, [SEn(run.R[0], run.state(0).z)])[0].final_state
        assert new.t == pytest.approx(1e-3)
        assert np.max(np.abs(new.P - new.P.T)) < 1e-12
        assert np.linalg.eigvalsh(new.P)[0] > 0

    def test_open_loop_prediction_without_channels(self):
        run = one_step_truth(ONE_STEP)
        [trace] = run_observer(dataclasses.replace(ONE_STEP, channels=()), run, [SEn(run.R[0], run.state(0).z)])
        new = trace.final_state
        # pure prediction tracks the truth over one step
        assert np.max(np.abs(new.zhat[:, 0] - run.pose(1)[1])) < 1e-9
        # P grows under V with no measurement information
        assert np.trace(new.P) > 15 * ONE_STEP.p0_scale  # the trace of P(0) = p0 I_15

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_estimate_fails_the_run(self):
        z = np.zeros((3, 5))
        z[0, 0] = np.inf
        run = one_step_truth(ONE_STEP)
        [trace] = run_observer(ONE_STEP, run, [SEn(np.eye(3), z, check=False)])
        assert trace.failure == "non-finite estimate at t=0.0000"
        assert trace.final_state.t == run.t[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ObserverConfig(rho=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            ObserverConfig(rho=(1.0, -2.0, 3.0))
        with pytest.raises(ValueError):
            ObserverConfig(q=0.0)
        with pytest.raises(ValueError):
            ObserverConfig(dt=-1e-3)

    def test_state_validation(self):
        with pytest.raises(ValueError, match=r"SE_5\(3\)"):
            run_observer(ONE_STEP, one_step_truth(ONE_STEP), [SEn.identity(2)])


class TestKroneckerReduction:
    """With Q = qI, V = vI and P = p0 I_15 the Riccati flow stays Pi kron I_3:
    one observer step on the 5 x 5 factor equals one RK4 step of the
    generic 15 x 15 observer, built here from build_a, output_matrix and
    the gain pair."""

    @staticmethod
    def _rhs_15(rhat, zhat, p, omega, accel, c, ys, rs, cfg, g):
        a = build_a(omega, g)
        dz = -(ys @ rhat.T + rs @ zhat.T).reshape(-1)
        kb, ki = gain(p, c, cfg.q, rhat)
        hdr = hat(delta_r(zhat[:, 2:5], cfg.rho))
        drhat = rhat @ hat(omega) + hdr @ rhat
        dzhat = hdr @ zhat + vec_inv(ki @ dz, 3, 5)
        dzhat[:, 0] += zhat[:, 1]
        dzhat[:, 1] += zhat[:, 2:5] @ g + rhat @ accel
        dp = a @ p + p @ a.T - kb @ c @ p + cfg.v * np.eye(15)
        return drhat, dzhat, dp

    @pytest.mark.parametrize("name", ["stereo", "gps"])
    def test_step_matches_15x15_flow(self, name):
        cfg = dataclasses.replace(parse_scenario(bundled_config_path(name)).noiseless(), p0_scale=0.8)
        obs = cfg.observer
        run = one_step_truth(cfg)
        truth = run.state(0)
        rng = np.random.default_rng(11)
        start = SEn(so3_exp([0.3, -0.2, 0.5]) @ truth.R, truth.z + 0.5 * rng.standard_normal((3, 5)))
        new = run_observer(cfg, run, [start])[0].final_state

        # ys, rs and C at the step's four RK4 stages
        stages = run.stages(0, 1)
        omega, accel = stages[3][0], stages[4][0]
        layout = UnifiedLayout(cfg.channels)
        ys, rs = (a[0] for a in layout.stacks(layout.raw_from_pose(*stages[:3])))
        y0 = (start.rotation, start.translation, cfg.p0_scale * np.eye(15))

        def f(y, row):
            return self._rhs_15(*y, omega[row], accel[row], output_matrix(rs[row]), ys[row], rs[row], obs,
                                cfg.trajectory.g)

        def shift(y, h, dy):
            return tuple(a + h * b for a, b in zip(y, dy))

        h = obs.dt
        k1 = f(y0, 0)
        k2 = f(shift(y0, h / 2, k1), 1)
        k3 = f(shift(y0, h / 2, k2), 2)
        k4 = f(shift(y0, h, k3), 3)
        rhat1, zhat1, p1 = (a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                            for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4))
        assert np.max(np.abs(new.rhat - project_rotation(rhat1))) < 1e-13
        assert np.max(np.abs(new.zhat - zhat1)) < 1e-13
        assert np.max(np.abs(new.P - 0.5 * (p1 + p1.T))) < 1e-13


class TestErrorReport:
    def test_perfect_estimate(self):
        truth = random_truth(RNG)
        xhat = SEn(truth.R, truth.z)
        rep = error_arrays(truth.R, truth.z, xhat.rotation, xhat.translation)
        assert rep.angle == 0.0
        assert np.max(np.abs(rep.x_body)) < 1e-14
        assert np.max(rep.column_norms) < 1e-14

    def test_pure_rotation_offset(self):
        truth = random_truth(RNG)
        off = so3_exp([0, np.pi / 2, 0])
        xhat = SEn(off.T @ truth.R, off.T @ truth.z)
        rep = error_arrays(truth.R, truth.z, xhat.rotation, xhat.translation)
        assert abs(rep.angle - np.pi / 2) < 1e-12
        assert np.allclose(rep.rtilde, off, atol=1e-13)

    def test_blockwise_matches_group_product(self):
        for _ in range(50):
            truth = random_truth(RNG)
            xhat = SEn(random_rotation(RNG), RNG.standard_normal((3, 5)))
            rep = error_arrays(truth.R, truth.z, xhat.rotation, xhat.translation)
            e = geometric_error(xhat, truth)
            assert np.max(np.abs(e.rotation - rep.rtilde)) < 1e-12
            assert np.max(np.abs(e.translation - rep.ztilde)) < 1e-12

    def test_x_body_is_vec_of_body_error(self):
        truth = random_truth(RNG)
        xhat = SEn(random_rotation(RNG), RNG.standard_normal((3, 5)))
        rep = error_arrays(truth.R, truth.z, xhat.rotation, xhat.translation)
        assert np.allclose(rep.x_body, vec(truth.R.T @ rep.ztilde), atol=1e-14)

    def test_angle_clamped_for_near_pi(self):
        truth = random_truth(RNG)
        off = so3_exp(np.pi * np.array([0.0, 0.0, 1.0]))
        xhat = SEn(off.T @ truth.R, truth.z)
        rep = error_arrays(truth.R, truth.z, xhat.rotation, xhat.translation)
        assert np.isfinite(rep.angle)
        assert abs(rep.angle - np.pi) < 1e-6

    def test_stacked_truths_equal_per_record_calls(self):
        rng = np.random.default_rng(21)
        truths = [random_truth(rng) for _ in range(6)]
        rhat = np.stack([random_rotation(rng) for _ in truths])
        zhat = rng.standard_normal((len(truths), 3, 5))
        fields = [f.name for f in dataclasses.fields(ErrorReport)]
        stacked = error_arrays(np.stack([t.R for t in truths]), np.stack([t.z for t in truths]), rhat, zhat)
        one_truth = error_arrays(truths[0].R, truths[0].z, rhat, zhat)
        for i, truth in enumerate(truths):
            alone = error_arrays(truth.R, truth.z, rhat[i], zhat[i])
            for name in fields:
                assert np.array_equal(getattr(stacked, name)[i], getattr(alone, name)), name
            alone = error_arrays(truths[0].R, truths[0].z, rhat[i], zhat[i])
            for name in fields:
                assert np.array_equal(getattr(one_truth, name)[i], getattr(alone, name)), name
        assert one_truth.x_body.shape == stacked.x_body.shape == (len(truths), 15)


class TestFullRuns:
    """Pipeline-level behavior of the stepping loop on the landmark scenario."""

    def test_perfect_init_holds_equilibrium(self):
        cfg = parse_scenario(bundled_config_path("stereo")).noiseless()
        truth = simulate_truth(cfg.trajectory, 10.0, cfg.observer.dt)
        z0 = truth.state(0).z
        [trace] = run_observer(dataclasses.replace(cfg, trace_stride=100), truth, [SEn(truth.R[0], z0)])
        assert trace.att_err.max() < 1e-6
        assert trace.col_norms.max() < 1e-6

    def test_reference_init_converges_below_1e3(self):
        cfg = parse_scenario(bundled_config_path("stereo")).noiseless()
        truth = simulate_truth(cfg.trajectory, 10.0, cfg.observer.dt)
        [trace] = run_observer(dataclasses.replace(cfg, trace_stride=100), truth)
        t_att = trace.t[np.nonzero(trace.att_err < 1e-3)[0][0]]
        t_pos = trace.t[np.nonzero(trace.col_norms[:, 0] < 1e-3)[0][0]]
        assert t_att <= 30.0 and t_pos <= 30.0
        # stays below once settled
        assert trace.att_err[-1] < 1e-3 and trace.col_norms[-1, 0] < 1e-3

    def test_linear_equivalence_fine_step(self):
        """Extracted error matches the direct closed-loop integration to
        1e-6 relative at every recorded sample (dt = 5e-4; the transport
        difference between the two integrations scales as dt^4)."""
        cfg = parse_scenario(bundled_config_path("stereo")).noiseless()
        obs = dataclasses.replace(cfg.observer, dt=5e-4)
        horizon = 6.0
        cfg = dataclasses.replace(cfg, observer=obs, duration=horizon, trace_stride=int(round(0.05 / obs.dt)))
        [trace] = run_observer(cfg, coupled_truth(cfg.trajectory, horizon, obs.dt))
        a_of_t, c_of_t = scenario_output_map(cfg, horizon=horizon)
        _, xs = kalman_reference_run(
            a_of_t, c_of_t, obs.q, obs.v, np.eye(15), trace.x_body[0],
            0.0, horizon, obs.dt,
        )
        xs_grid = xs[:: int(round(0.05 / obs.dt))]
        ref = np.max(np.abs(xs_grid), axis=1)
        diff = np.max(np.abs(trace.x_body - xs_grid), axis=1)
        assert np.all(diff <= 1e-6 * ref + 1e-9)


class TestKalmanBucyContraction:
    """The translational half of the stability claim. With P = Pi kron I_3 and K_B = P C^T Q,
    V = x_B^T (Pi^-1 kron I_3) x_B obeys dV/dt = -x_B^T ((q R_s^T R_s + v Pi^-2) kron I_3) x_B
    <= -(v / lambda_max(Pi)) V (Kalman & Bucy 1961), whatever the attitude error, since x_B does
    not depend on it. Checked on noiseless runs recording every step, on both bundled configs and
    both truths, from one translational error and three attitude errors; Pi comes from the
    producer of the gains, iterated here."""

    X_B0 = np.array([[0.5, -0.4, 0.05, 0.0, -0.05],  # body-frame error of [p, v, e1, e2, e3]
                     [-0.3, 0.6, 0.0, 0.05, 0.05],
                     [0.2, 0.1, -0.05, 0.05, 0.0]])
    ANGLES = (0.0, 2.5, 3.1)  # attitude errors (rad) about one axis
    AXIS = np.array([1.0, -2.0, 2.0]) / 3.0

    @pytest.fixture(scope="class", params=[("stereo", 3.0, simulate_truth), ("stereo", 3.0, coupled_truth),
                                           ("gps", 1.0, simulate_truth), ("gps", 1.0, coupled_truth)],
                    ids=["stereo-sampled", "stereo-coupled", "gps-sampled", "gps-coupled"])
    def contraction(self, request):
        """(t, V of each attitude error (3, N), v / lambda_max(Pi) (N,)) at every step."""
        name, duration, make_truth = request.param
        cfg = dataclasses.replace(parse_scenario(bundled_config_path(name)).noiseless(), duration=duration,
                                  trace_stride=1)
        truth = make_truth(cfg.trajectory, duration, cfg.observer.dt)
        r0, p0, v0 = truth.pose(0)
        start = r0.T @ z_block(p0, v0) - self.X_B0  # R^T z - x_B = Rhat^T zhat at t = 0
        estimates = [SEn(rhat, rhat @ start) for rhat in (so3_exp(angle * self.AXIS).T @ r0 for angle in self.ANGLES)]
        traces = run_observer(cfg, truth, estimates)
        rngs = spawn_channel_rngs(cfg.seed, len(cfg.channels))
        chunks = [pis for _, pis, *_ in _gains(cfg, truth, rngs, False)]
        pis = np.concatenate([c[:-1] for c in chunks] + [chunks[-1][-1:]])
        assert all(tr.failure is None and len(tr.t) == len(pis) for tr in traces)
        xs = np.stack([tr.x_body.reshape(-1, 5, 3) for tr in traces])  # the columns of x_B per axis
        assert np.allclose(xs[:, 0], self.X_B0.T, rtol=0, atol=1e-12)
        v = np.sum(xs * np.linalg.solve(pis, xs), axis=(-2, -1))
        return traces[0].t, v, cfg.observer.v / np.linalg.eigvalsh(pis)[:, -1]

    def test_v_falls_at_every_step(self, contraction):
        _, v, _ = contraction
        # rounding moves V by about eps |x_B| |z|, far below 1e-12 V(0)
        assert np.all(np.diff(v, axis=1) <= 1e-12 * v[:, :1])

    def test_v_stays_under_the_riccati_rate_bound(self, contraction):
        t, v, rate = contraction
        decay = np.exp(-np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (rate[1:] + rate[:-1]))]))
        # the trapezoid and RK4 errors of the bound are far below its margin, so there is no slack
        assert np.all(v / v[:, :1] <= decay)

    def test_v_does_not_depend_on_the_attitude_error(self, contraction):
        _, v, _ = contraction
        # equal in continuous time; the RK4 steps of the estimate leave a truncation error far below
        # 1e-4, while an attitude error that entered x_B would move V at order one
        assert np.all(np.abs(v[1:] - v[0]) <= 1e-4 * v[0])


class TestAttitudeLyapunov:
    """The attitude half of the stability claim (Mahony, Hamel & Pflimlin 2008). With M = diag(rho) and
    Rtilde = R Rhat^T, the rotation innovation splits as delta_r = psi(M Rtilde) + Gamma x_B and
    dRtilde/dt = -Rtilde hat(delta_r), so U = tr(M (I - Rtilde)) / 2 obeys
    dU/dt = -|psi(M Rtilde)|^2 - psi(M Rtilde) . Gamma x_B. With x_B(0) = 0, x_B stays 0 in continuous time
    (the RK4 steps leave at most about 2e-7 in it) and U is a strict Lyapunov function whose critical
    points are I and the pi-rotations about e_k; a deficit about e_k grows there at (rho_i + rho_j) / 2.
    A translational error adds at most the integral of |psi(M Rtilde)| |Gamma x_B| to U. Checked on
    noiseless stereo runs on the coupled truth recording every step, set up as in
    TestKalmanBucyContraction."""

    RHO = (10.0, 6.0, 4.0)
    STARTS = ((0.5, (1.0, -2.0, 2.0)), (1.5, (2.0, 1.0, -2.0)), (2.5, (-2.0, 2.0, 1.0)),
              (3.05, (1.0, -2.0, 2.0)), (3.13, (0.0, 3.0, 4.0)))  # attitude errors (rad, axis) with x_B(0) = 0
    ESCAPE_RATES = (5.0, 7.0, 8.0)  # (rho_i + rho_j) / 2 about e1, e2, e3, from pi - 1e-6 about each
    ISS_ANGLES = (0.0, 1.0, 2.5, 3.1)  # about TestKalmanBucyContraction.AXIS, with its x_B(0)

    def runs(self, duration, rotvecs, x_b0):
        """(t, traces, Rtilde (runs, N, 3, 3)) of runs from the attitude errors exp(hat(rotvec)) and the
        body-frame translational error x_b0 (3 x 5) at t = 0."""
        cfg = dataclasses.replace(parse_scenario(bundled_config_path("stereo")).noiseless(), duration=duration,
                                  trace_stride=1)
        assert cfg.observer.rho == self.RHO
        truth = coupled_truth(cfg.trajectory, duration, cfg.observer.dt)
        r0, p0, v0 = truth.pose(0)
        z0 = z_block(p0, v0)
        traces = run_observer(cfg, truth, [estimate_from_errors(r0, z0, so3_exp(w), r0 @ x_b0) for w in rotvecs])
        assert all(tr.failure is None and len(tr.t) == len(truth.t) for tr in traces)
        z = z_block(truth.p, truth.v)
        rtildes = np.stack([error_arrays(truth.R, z, tr.rhat, np.concatenate(
            [tr.phat[..., None], tr.vhat[..., None], tr.ehat], axis=-1)).rtilde for tr in traces])
        return truth.t, traces, rtildes

    def potential(self, rtildes):
        return 0.5 * (sum(self.RHO) - np.einsum("i,...ii->...", self.RHO, rtildes))

    @pytest.fixture(scope="class")
    def unforced(self):
        """(t, traces, U) of the STARTS and the three escape starts, with x_B(0) = 0, over 5 s."""
        rotvecs = [angle * np.asarray(axis) / np.linalg.norm(axis) for angle, axis in self.STARTS]
        rotvecs += list((np.pi - 1e-6) * np.eye(3))
        t, traces, rtildes = self.runs(5.0, rotvecs, np.zeros((3, 5)))
        return t, traces, self.potential(rtildes)

    def test_u_never_rises_without_translational_error(self, unforced):
        _, _, u = unforced
        # U rounds at about 2 eps sum(rho) = 9e-15; a step of the flow lowers it by |psi|^2 dt
        assert np.all(np.diff(u, axis=1) <= 1e-13)
        assert np.all(u[:, -1] < u[:, 0])

    def test_escape_rate_from_the_pi_rotations(self, unforced):
        t, traces, _ = unforced
        # the deficit d about e_k stays about e_k and obeys dd/dt = rate sin(d); up to 0.8 s it stays below
        # 1e-3, so log d is linear in t to about 1e-7
        window = (t >= 0.1) & (t <= 0.8)
        deficits = np.pi - np.stack([tr.att_err[window] for tr in traces[len(self.STARTS):]])
        slopes = np.polyfit(t[window], np.log(deficits).T, 1)[0]
        assert np.all(np.abs(slopes / np.array(self.ESCAPE_RATES) - 1.0) <= 0.01)

    def test_translational_error_adds_at_most_the_iss_integral(self):
        axis = TestKalmanBucyContraction.AXIS
        t, traces, rtildes = self.runs(3.0, [a * axis for a in self.ISS_ANGLES], TestKalmanBucyContraction.X_B0)
        u = self.potential(rtildes)
        for tr, rtilde, u_run in zip(traces, rtildes, u):
            rate = []
            for rhat, rt, x_b in zip(tr.rhat, rtilde, tr.x_body):
                psi_m, gamma = delta_r_decomposition(self.RHO, rhat, rt)
                rate.append(np.linalg.norm(psi_m) * np.linalg.norm(gamma @ x_b))
            rate = np.array(rate)
            bound = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (rate[1:] + rate[:-1]))])
            # -|psi|^2 dt per step is the margin for the trapezoid rule; 1e-13 covers U's rounding
            assert np.all(u_run - u_run[0] <= bound + 1e-13)


class TestKalmanReferenceRun:
    def test_zero_initial_error_stays_zero(self):
        spec = TrajectorySpec()
        a_of_t = lambda t: build_a(eval_omega(spec, t), G_NED)
        c = np.vstack([
            kron(np.concatenate([[1.0, 0.0], -np.asarray(ch.xi, dtype=float)]).reshape(1, 5), np.eye(3))
            for ch in STEREO_CHANNELS
        ])
        ts, xs = kalman_reference_run(a_of_t, lambda t: c, 100.0, 10.0,
                                      np.eye(15), np.zeros(15), 0.0, 0.5, 1e-3)
        assert np.max(np.abs(xs)) == 0.0

    def test_exponential_decay_under_observability(self):
        spec = TrajectorySpec()
        a_of_t = lambda t: build_a(eval_omega(spec, t), G_NED)
        c = np.vstack([
            kron(np.concatenate([[1.0, 0.0], -np.asarray(ch.xi, dtype=float)]).reshape(1, 5), np.eye(3))
            for ch in STEREO_CHANNELS
        ])
        x0 = RNG.standard_normal(15)
        ts, xs = kalman_reference_run(a_of_t, lambda t: c, 100.0, 10.0,
                                      np.eye(15), x0, 0.0, 6.0, 1e-3)
        norms = np.linalg.norm(xs, axis=1)
        # log-norm slope strictly negative after the transient
        i1, i2 = 1000, 5999
        slope = (np.log(norms[i2]) - np.log(norms[i1])) / (ts[i2] - ts[i1])
        assert slope < -0.5
        assert norms[-1] < 1e-2 * norms[0]


class TestPreObserverCouplingDiagnostic:
    """The n=2 pre-observer's error rate shows the gravity coupling term.

    A copy-of-dynamics observer without auxiliary states leaves the term
    (I3 - Rtilde) g in the velocity-error derivative; with the extended
    state this term moves into the auxiliary-column errors instead. Both
    facts are checked by finite-differencing the group error.
    """

    @staticmethod
    def _se23_rate(x_mat, omega, accel, g):
        u = np.zeros((5, 5))
        u[:3, :3] = hat(omega)
        u[:3, 4] = accel
        gmat = np.zeros((5, 5))
        gmat[:3, 4] = g
        dmat = np.zeros((5, 5))
        dmat[4, 3] = -1.0
        return x_mat @ u + gmat @ x_mat + (dmat @ x_mat - x_mat @ dmat)

    def test_velocity_error_rate_carries_gravity_coupling(self):
        rng = np.random.default_rng(5)
        g = G_NED
        omega = rng.standard_normal(3)
        r = random_rotation(rng)
        accel = r.T @ (rng.standard_normal(3) - g)
        x = SEn(r, rng.standard_normal((3, 2))).as_matrix()
        xh = SEn(random_rotation(rng), rng.standard_normal((3, 2))).as_matrix()

        h = 1e-6

        def flow(m, step):
            # one tiny RK4 step of the pre-observer dynamics
            k1 = self._se23_rate(m, omega, accel, g)
            k2 = self._se23_rate(m + step / 2 * k1, omega, accel, g)
            k3 = self._se23_rate(m + step / 2 * k2, omega, accel, g)
            k4 = self._se23_rate(m + step * k3, omega, accel, g)
            return m + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        e0 = x @ np.linalg.inv(xh)
        e_plus = flow(x, h) @ np.linalg.inv(flow(xh, h))
        e_minus = flow(x, -h) @ np.linalg.inv(flow(xh, -h))
        de = (e_plus - e_minus) / (2 * h)

        rtilde = e0[:3, :3]
        vtilde = e0[:3, 4]
        # position-error column rate is the velocity error; velocity-error
        # column rate is the gravity coupling term
        assert np.allclose(de[:3, 3], vtilde, atol=1e-6)
        assert np.allclose(de[:3, 4], (np.eye(3) - rtilde) @ g, atol=1e-5)
        assert np.allclose(de[:3, :3], 0.0, atol=1e-6)

    def test_extended_state_moves_coupling_into_auxiliary_errors(self):
        """With the n=5 embedding the velocity-error rate depends on the
        auxiliary-column errors, not on the attitude error directly."""
        rng = np.random.default_rng(6)
        g = G_NED
        omega = rng.standard_normal(3)
        r = random_rotation(rng)
        accel = r.T @ (rng.standard_normal(3) - g)
        z = np.zeros((3, 5))
        z[:, 0] = rng.standard_normal(3)
        z[:, 1] = rng.standard_normal(3)
        z[:, 2:] = np.eye(3)
        x = SEn(r, z).as_matrix()
        xh = SEn(random_rotation(rng), rng.standard_normal((3, 5))).as_matrix()

        d = build_d(g)

        def rate(m):
            return m @ build_u(omega, accel) + (m @ d - d @ m)

        h = 1e-6

        def flow(m, step):
            k1 = rate(m)
            k2 = rate(m + step / 2 * k1)
            k3 = rate(m + step / 2 * k2)
            k4 = rate(m + step * k3)
            return m + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        e0 = x @ np.linalg.inv(xh)
        e_plus = flow(x, h) @ np.linalg.inv(flow(xh, h))
        e_minus = flow(x, -h) @ np.linalg.inv(flow(xh, -h))
        de = (e_plus - e_minus) / (2 * h)

        ztilde = e0[:3, 3:]
        wtilde = ztilde[:, 2:]  # auxiliary-column errors
        assert np.allclose(de[:3, 3], ztilde[:, 1], atol=1e-6)   # d(ptilde) = vtilde
        assert np.allclose(de[:3, 4], wtilde @ g, atol=1e-5)     # gravity through wtilde only
        assert np.allclose(de[:3, 5:], 0.0, atol=1e-6)
        assert np.allclose(de[:3, :3], 0.0, atol=1e-6)
