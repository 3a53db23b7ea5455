import numpy as np
import pytest

from se5nav.lie import hat, is_rotation, so3_exp
from se5nav.scenario import _TRUTH_FLOATS_PER_STEP
from se5nav.trajectory import (
    TrajectorySpec,
    coupled_truth,
    eval_omega,
    eval_trajectory,
    simulate_truth,
    synthesize_imu,
    truth_attitude,
    write_truth_csv,
)


def reference_spec(**overrides):
    return TrajectorySpec(**overrides)


class TestEvalTrajectory:
    def test_eight_initial_position(self):
        p, _, _ = eval_trajectory(reference_spec(), 0.0)
        assert np.allclose(p, [1.0, 0.0, 0.0])

    def test_eight_initial_velocity_is_analytic_derivative(self):
        # first component is -a1 w1 sin(0) = 0 exactly
        _, v, _ = eval_trajectory(reference_spec(), 0.0)
        assert v[0] == 0.0
        assert np.isclose(v[1], 2.5)
        assert np.isclose(v[2], -10.0 * np.sqrt(3.0) / 4.0)

    def test_velocity_matches_finite_difference(self):
        spec = reference_spec()
        ts = np.linspace(0.0, 2.0, 200)
        eps = 1e-6
        for t in ts[::20]:
            p_plus, _, _ = eval_trajectory(spec, t + eps)
            p_minus, _, _ = eval_trajectory(spec, t - eps)
            _, v, _ = eval_trajectory(spec, t)
            assert np.allclose((p_plus - p_minus) / (2 * eps), v, atol=1e-4)

    def test_acceleration_matches_finite_difference(self):
        spec = reference_spec()
        eps = 1e-6
        for t in (0.1, 0.7, 1.3):
            _, v_plus, _ = eval_trajectory(spec, t + eps)
            _, v_minus, _ = eval_trajectory(spec, t - eps)
            _, _, a = eval_trajectory(spec, t)
            assert np.allclose((v_plus - v_minus) / (2 * eps), a, atol=1e-3)

    def test_hover_is_static(self):
        spec = reference_spec(kind="hover", p0=(1.0, 2.0, 3.0))
        for t in (0.0, 1.0, 10.0):
            p, v, a = eval_trajectory(spec, t)
            assert np.array_equal(p, [1.0, 2.0, 3.0])
            assert np.array_equal(v, np.zeros(3))
            assert np.array_equal(a, np.zeros(3))

    def test_constant_velocity(self):
        spec = reference_spec(kind="constant-velocity", p0=(1.0, 0.0, 0.0), v0=(0.5, -1.0, 2.0))
        p, v, a = eval_trajectory(spec, 2.0)
        assert np.allclose(p, [2.0, -2.0, 4.0])
        assert np.allclose(v, [0.5, -1.0, 2.0])
        assert np.array_equal(a, np.zeros(3))

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            TrajectorySpec(kind="spiral")

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            TrajectorySpec(freq=(5.0, -1.0, 10.0))


class TestOmegaProfile:
    def test_reference_profile_values(self):
        spec = reference_spec()
        w = eval_omega(spec, 0.0)
        assert np.isclose(w[0], 0.0)
        assert np.isclose(w[1], 0.7 * np.sin(np.pi))
        assert np.isclose(w[2], 0.5 * np.sin(np.pi / 3))

    def test_vectorized_matches_scalar(self):
        spec = reference_spec()
        ts = np.linspace(0, 3, 17)
        batch = eval_omega(spec, ts)
        for i, t in enumerate(ts):
            assert np.allclose(batch[i], eval_omega(spec, t))


class TestOneFormulaForASampleOrAStack:
    """A scalar and a stack give the same bits as the earlier per-case formulas."""

    def test_hat(self):
        def single(v):
            x, y, z = v
            return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])

        vs = np.random.default_rng(3).standard_normal((40, 3)) * [1.0, 1e-12, 1e6]
        vs[0] = [0.0, -0.0, 0.0]
        ref = np.stack([single(v) for v in vs])
        assert np.array_equal(hat(vs), ref)
        assert all(np.array_equal(hat(v), r) for v, r in zip(vs, ref))
        assert np.array_equal(hat(vs.reshape(8, 5, 3)), ref.reshape(8, 5, 3, 3))
        assert np.array_equal(np.signbit(hat(vs[0])), np.signbit(single(vs[0])))

    @pytest.mark.parametrize("kind", ["eight", "constant-velocity", "hover"])
    def test_eval_trajectory_and_omega(self, kind):
        spec = reference_spec(kind=kind, p0=(1.0, -2.0, 0.5), v0=(0.3, 0.0, -1.7))
        amp, frq, phs = (np.asarray(x) for x in (spec.omega_amp, spec.omega_freq, spec.omega_phase))

        def stacked(tt):  # the per-axis formulas on an array of times
            p, v, a = np.zeros((tt.size, 3)), np.zeros((tt.size, 3)), np.zeros((tt.size, 3))
            if kind == "eight":
                (a1, a2, a3), (w1, w2, w3) = spec.amp, spec.freq
                p[:, 0], p[:, 1], p[:, 2] = a1 * np.cos(w1 * tt), a2 * np.sin(w2 * tt), a3 * np.sin(w3 * tt)
                v[:, 0] = -a1 * w1 * np.sin(w1 * tt)
                v[:, 1], v[:, 2] = a2 * w2 * np.cos(w2 * tt), a3 * w3 * np.cos(w3 * tt)
                a[:, 0] = -a1 * w1 * w1 * np.cos(w1 * tt)
                a[:, 1], a[:, 2] = -a2 * w2 * w2 * np.sin(w2 * tt), -a3 * w3 * w3 * np.sin(w3 * tt)
            elif kind == "constant-velocity":
                p[:] = np.asarray(spec.p0)[None, :] + tt[:, None] * np.asarray(spec.v0)[None, :]
                v[:] = np.asarray(spec.v0)[None, :]
            else:
                p[:] = np.asarray(spec.p0)[None, :]
            return p, v, a, amp[None, :] * np.sin(tt[:, None] * frq[None, :] + phs[None, :])

        ts = np.concatenate([[0.0, 1e-9, 0.5, 3.25], np.random.default_rng(5).uniform(0.0, 60.0, 96)])
        ref = stacked(ts)
        got = (*eval_trajectory(spec, ts), eval_omega(spec, ts))
        for g, r in zip(got, ref):
            assert g.shape == (ts.size, 3) and np.array_equal(g, r)
        for i, t in enumerate(ts):
            single = (*eval_trajectory(spec, t), eval_omega(spec, t))
            assert all(g.shape == (3,) and np.array_equal(g, r[i]) for g, r in zip(single, ref))
            assert np.array_equal(single[3], amp * np.sin(frq * float(t) + phs))
        nested = (*eval_trajectory(spec, ts.reshape(10, 10)), eval_omega(spec, ts.reshape(10, 10)))
        assert all(np.array_equal(g, r.reshape(10, 10, 3)) for g, r in zip(nested, ref))

    def test_synthesize_imu(self):
        # the einsum the grid truth has always used; a matmul r.T @ x rounds
        # differently on some samples, so it is not the reference here
        spec = reference_spec()
        run = simulate_truth(spec, 0.5, 1e-3)
        ref = np.einsum("kji,kj->ki", run.R, run.vdot - spec.g[None, :])
        assert np.array_equal(run.aB, ref)
        assert np.array_equal(synthesize_imu(run.vdot, run.R, spec.g), ref)
        assert all(np.array_equal(synthesize_imu(a, r, spec.g), want) for a, r, want in zip(run.vdot, run.R, ref))
        nested = synthesize_imu(run.vdot[:500].reshape(50, 10, 3), run.R[:500].reshape(50, 10, 3, 3), spec.g)
        assert np.array_equal(nested, ref[:500].reshape(50, 10, 3))


def final_attitude(spec, t1, dt):
    """Truth attitude at t1 from spec.r0 at t = 0."""
    return truth_attitude(spec, int(round(t1 / dt)), dt)[0][-1]


class TestPropagateAttitude:
    def test_zero_rate_keeps_attitude(self):
        spec = reference_spec(omega_amp=(0.0, 0.0, 0.0), r0_rotvec=(0.3, -0.2, 0.5))
        r0 = so3_exp([0.3, -0.2, 0.5])
        r1 = final_attitude(spec, 1.0, 1e-3)
        assert np.allclose(r1, r0, atol=1e-14)

    def test_constant_rate_closed_form(self):
        # amp*sin(0*t + pi/2) = amp: a constant-rate profile
        spec = reference_spec(
            omega_amp=(0.0, np.pi / 2, 0.0),
            omega_freq=(0.0, 0.0, 0.0),
            omega_phase=(0.0, np.pi / 2, 0.0),
            r0_rotvec=(0.0, 0.0, 0.0),
        )
        r1 = final_attitude(spec, 1.0, 1e-3)
        assert np.max(np.abs(r1 - so3_exp([0, np.pi / 2, 0]))) < 1e-12

    def test_step_refinement_convergence(self):
        spec = reference_spec()
        ra = final_attitude(spec, 10.0, 1e-3)
        rb = final_attitude(spec, 10.0, 1e-4)
        assert np.linalg.norm(ra - rb) < 1e-5

    def test_output_on_group(self):
        spec = reference_spec()
        r1 = final_attitude(spec, 5.0, 1e-3)
        assert is_rotation(r1, tol=1e-9)


class TestImuSynthesis:
    def test_static_hover(self):
        # vdot = 0, R = I, NED gravity: accelerometer reads -g
        ab = synthesize_imu(np.zeros(3), np.eye(3), np.array([0, 0, 9.81]))
        assert np.allclose(ab, [0, 0, -9.81])

    def test_free_fall(self):
        g = np.array([0, 0, 9.81])
        ab = synthesize_imu(g, so3_exp([0.4, 0.1, -0.2]), g)
        assert np.allclose(ab, np.zeros(3), atol=1e-15)

    def test_substitution_closes_velocity_equation(self):
        spec = reference_spec()
        run = simulate_truth(spec, 1.0, 1e-3)
        k = 500  # t = 0.5
        g = spec.g
        residual = run.vdot[k] - g - run.R[k] @ run.aB[k]
        assert np.max(np.abs(residual)) < 1e-12


class TestSimulateTruth:
    def test_velocity_equation_closure_everywhere(self):
        spec = reference_spec()
        run = simulate_truth(spec, 2.0, 1e-3)
        res = run.vdot - spec.g[None, :] - np.einsum("kij,kj->ki", run.R, run.aB)
        assert np.max(np.linalg.norm(res, axis=1)) < 1e-12

    def test_finite_difference_velocity(self):
        run = simulate_truth(reference_spec(), 1.0, 1e-3)
        dt = run.dt
        fd = (run.p[2:] - run.p[:-2]) / (2 * dt)
        assert np.max(np.abs(fd - run.v[1:-1])) < 5e-4  # O(dt^2) with |v'''| ~ 500

    def test_attitude_stays_on_group_without_projection(self):
        run = simulate_truth(reference_spec(), 5.0, 1e-3)
        worst = max(
            np.linalg.norm(run.R[k].T @ run.R[k] - np.eye(3)) for k in range(0, len(run), 250)
        )
        assert worst < 1e-9

    def test_attitude_matches_scalar_recursion_across_chunks(self):
        from se5nav.trajectory import _EXP_CHUNK, truth_attitude

        spec = TrajectorySpec()
        dt, n = 1e-3, _EXP_CHUNK + 300
        rs, r_mid = truth_attitude(spec, n, dt)
        r = spec.r0
        assert np.array_equal(rs[0], r)
        for k in (0, 1, _EXP_CHUNK - 1, _EXP_CHUNK, n - 1):
            half = so3_exp(0.5 * dt * eval_omega(spec, k * dt + 0.5 * dt))
            assert np.array_equal(r_mid[k], rs[k] @ half)
            assert np.array_equal(rs[k + 1], r_mid[k] @ half)
        assert np.array_equal(simulate_truth(spec, n * dt, dt).R, rs)

    def test_midpoint_states_consistent(self):
        spec = reference_spec()
        run = simulate_truth(spec, 0.5, 1e-3)
        p_mid, v_mid, _ = eval_trajectory(spec, run.t[:-1] + 0.5 * run.dt)
        assert np.allclose(run.p_mid, p_mid)
        assert np.allclose(run.v_mid, v_mid)
        # R_mid is the half-step point of each attitude factor
        k = 100
        half = run.R[k] @ np.linalg.inv(run.R_mid[k])
        assert np.allclose(half @ half, run.R[k] @ np.linalg.inv(run.R[k + 1]), atol=1e-12)

    def test_stage_tables_match_signals(self):
        spec = reference_spec()
        run = simulate_truth(spec, 0.2, 1e-3)
        k = 37
        r, p, v, w, a, stage_map = run.stages(k, k + 2)
        assert stage_map == (0, 1, 1, 2)
        for j in range(2):  # rows: grid k, midpoint k, grid k + 1
            t = run.t[k + j] + np.array([0.0, 0.5, 1.0]) * run.dt
            p_t, v_t, vdot_t = eval_trajectory(spec, t)
            rows = [run.R[k + j], run.R_mid[k + j], run.R[k + j + 1]]
            assert np.array_equal(r[j], rows)
            assert np.allclose(p[j], p_t) and np.allclose(v[j], v_t)
            assert np.allclose(w[j], eval_omega(spec, t))
            for s in range(3):
                assert np.allclose(a[j, s], synthesize_imu(vdot_t[s], rows[s], spec.g))

    def test_memory_bound_counts_the_truth_arrays(self):
        def floats(n):
            run = simulate_truth(reference_spec(), n * 1e-3, 1e-3)
            return sum(a.size for a in vars(run).values() if isinstance(a, np.ndarray))

        assert floats(200) - floats(100) == 100 * _TRUTH_FLOATS_PER_STEP

    def test_rejects_bad_arguments(self):
        for make in (simulate_truth, coupled_truth):
            with pytest.raises(ValueError):
                make(reference_spec(), -1.0, 1e-3)
            with pytest.raises(ValueError):
                make(reference_spec(), 1.0, 0.0)


class TestTruthCsv:
    def test_schema_and_determinism(self, tmp_path):
        run = simulate_truth(reference_spec(), 0.1, 1e-3)
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_truth_csv(run, f1, stride=10)
        write_truth_csv(run, f2, stride=10)
        b1, b2 = f1.read_bytes(), f2.read_bytes()
        assert b1 == b2
        lines = b1.decode().splitlines()
        assert lines[0].startswith("# se5nav-truth-v")
        assert lines[1].split(",")[:4] == ["t", "px", "py", "pz"]
        assert len(lines) == 2 + 11  # header rows + decimated samples
