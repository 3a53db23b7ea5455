import csv
import io

import numpy as np
import pytest

from se5nav.lie import hat, is_rotation, so3_exp
from se5nav.scenario import _TRUTH_FLOATS_PER_STEP, bundled_config_path, parse_scenario
from se5nav.trajectory import (
    _EXP_CHUNK,
    _SCAN_BLOCK,
    TrajectorySpec,
    coupled_truth,
    eval_omega,
    eval_trajectory,
    record_steps,
    signals,
    simulate_truth,
    synthesize_imu,
    truth_attitude,
    write_table,
    write_truth_csv,
)

from oracles import sequential_attitude


def reference_spec(**overrides):
    return TrajectorySpec(**overrides)


def half_steps(spec, n, dt):
    """The half-step factors E_k = exp(dt/2 hat(omega(t_k + dt/2))) of n steps."""
    return so3_exp(0.5 * dt * eval_omega(spec, np.arange(n) * dt + 0.5 * dt))


@pytest.fixture(scope="module")
def long_attitude():
    return truth_attitude(TrajectorySpec(), 30_000, 1e-3)


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
        vdot = eval_trajectory(spec, run.t)[2]
        ref = np.einsum("kji,kj->ki", run.R, vdot - spec.g[None, :])
        assert np.array_equal(signals(spec, run.t, run.R)[4], ref)
        assert np.array_equal(synthesize_imu(vdot, run.R, spec.g), ref)
        assert all(np.array_equal(synthesize_imu(a, r, spec.g), want) for a, r, want in zip(vdot, run.R, ref))
        nested = synthesize_imu(vdot[:500].reshape(50, 10, 3), run.R[:500].reshape(50, 10, 3, 3), spec.g)
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
        s = run.state(500)  # t = 0.5
        g = spec.g
        residual = s.vdot - g - s.R @ s.aB
        assert np.max(np.abs(residual)) < 1e-12


class TestSimulateTruth:
    def test_velocity_equation_closure_everywhere(self):
        spec = reference_spec()
        run = simulate_truth(spec, 2.0, 1e-3)
        _, _, vdot, _, ab = signals(spec, run.t, run.R)
        res = vdot - spec.g[None, :] - np.einsum("kij,kj->ki", run.R, ab)
        assert np.max(np.linalg.norm(res, axis=1)) < 1e-12

    def test_finite_difference_velocity(self):
        run = simulate_truth(reference_spec(), 1.0, 1e-3)
        dt = run.dt
        p, v, _ = eval_trajectory(run.spec, run.t)
        fd = (p[2:] - p[:-2]) / (2 * dt)
        assert np.max(np.abs(fd - v[1:-1])) < 5e-4  # O(dt^2) with |v'''| ~ 500

    def test_attitude_stays_on_group_without_projection(self):
        run = simulate_truth(reference_spec(), 5.0, 1e-3)
        worst = max(
            np.linalg.norm(run.R[k].T @ run.R[k] - np.eye(3)) for k in range(0, len(run), 250)
        )
        assert worst < 1e-9

    @pytest.mark.parametrize("n", [1, _SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1, 2 * _SCAN_BLOCK + 3, 10_000])
    def test_attitude_scan_contract(self, n, long_attitude):
        spec, dt, size = TrajectorySpec(), 1e-3, _SCAN_BLOCK
        rs, r_mid = truth_attitude(spec, n, dt)
        halves = half_steps(spec, n, dt)
        assert np.array_equal(rs[0], spec.r0)
        assert np.array_equal(r_mid, rs[:-1] @ halves)
        inner = np.arange(1, n + 1) % size != 0
        assert np.array_equal(rs[1:][inner], (r_mid @ halves)[inner])
        for b in range(1, n // size + 1):  # block starts chain the block products
            block = sequential_attitude(np.eye(3), halves[(b - 1) * size:b * size])[0][-1]
            assert np.array_equal(rs[b * size], rs[(b - 1) * size] @ block)
        long_rs, long_mid = long_attitude
        assert np.array_equal(rs, long_rs[:n + 1]) and np.array_equal(r_mid, long_mid[:n])
        assert np.array_equal(simulate_truth(spec, n * dt, dt).R, rs)

    def test_attitude_of_no_steps(self):
        rs, r_mid = truth_attitude(TrajectorySpec(), 0, 1e-3)
        assert rs.shape == (1, 3, 3) and r_mid.shape == (0, 3, 3)
        assert np.array_equal(rs[0], TrajectorySpec().r0)

    def test_attitude_scan_matches_sequential_product(self):
        cfg = parse_scenario(bundled_config_path("gps"))
        spec, dt = cfg.trajectory, cfg.observer.dt
        n = int(round(60.0 / dt))
        assert n == 240_000
        rs, r_mid = truth_attitude(spec, n, dt)
        want, want_mid = sequential_attitude(spec.r0, half_steps(spec, n, dt))
        assert max(np.abs(rs - want).max(), np.abs(r_mid - want_mid).max()) <= 1e-12
        assert np.abs(rs.mT @ rs - np.eye(3)).max() <= 1e-12

    def test_midpoint_states_consistent(self):
        spec = reference_spec()
        run = simulate_truth(spec, 0.5, 1e-3)
        p_mid, v_mid, _ = eval_trajectory(spec, run.t[:-1] + 0.5 * run.dt)
        _, p, v, _, _ = run.stages(0, len(run) - 1)
        assert np.allclose(p[:, 1], p_mid)
        assert np.allclose(v[:, 1], v_mid)
        # R_mid is the half-step point of each attitude factor
        k = 100
        half = run.R[k] @ np.linalg.inv(run.R_mid[k])
        assert np.allclose(half @ half, run.R[k] @ np.linalg.inv(run.R[k + 1]), atol=1e-12)

    def test_stage_tables_match_signals(self):
        spec = reference_spec()
        run = simulate_truth(spec, 0.2, 1e-3)
        k = 37
        r, p, v, w, a = run.stages(k, len(run) - 1)
        for j in range(len(r)):  # stages: grid k, midpoint k twice, grid k + 1
            mid = run.t[k + j] + 0.5 * run.dt
            t = np.array([run.t[k + j], mid, mid, run.t[k + j + 1]])
            p_t, v_t, vdot_t = eval_trajectory(spec, t)
            rows = [run.R[k + j], run.R_mid[k + j], run.R_mid[k + j], run.R[k + j + 1]]
            assert np.array_equal(r[j], rows)
            assert np.array_equal(p[j], p_t) and np.array_equal(v[j], v_t)
            assert np.array_equal(w[j], eval_omega(spec, t))
            for s in range(4):
                assert np.array_equal(a[j, s], synthesize_imu(vdot_t[s], rows[s], spec.g))

    @pytest.mark.parametrize("dt", [1e-3, 2.5e-4])
    def test_pose_evaluates_the_grid_rows_bit_for_bit(self, dt):
        run = simulate_truth(reference_spec(), 2.0, dt)
        n = len(run) - 1
        p, v, _ = eval_trajectory(run.spec, run.t)
        rng = np.random.default_rng(3)
        steps = [n // 3, np.int64(n), *(rng.choice(n + 1, size, replace=False) for size in (1, 7, 9, 64, 1000))]
        for k in steps:
            _, p_k, v_k = run.pose(k)
            assert p_k.shape == p[k].shape and p_k.tobytes() == p[k].tobytes()
            assert v_k.shape == v[k].shape and v_k.tobytes() == v[k].tobytes()

    def test_memory_bound_counts_the_truth_arrays(self):
        def floats(n):
            run = simulate_truth(reference_spec(), n * 1e-3, 1e-3)
            return sum(a.size for a in vars(run).values() if isinstance(a, np.ndarray))

        assert floats(200) - floats(100) == 100 * _TRUTH_FLOATS_PER_STEP

    def test_coupled_truth_is_fourth_order(self):
        spec = parse_scenario(bundled_config_path("stereo")).trajectory

        def error(dt):
            truth = coupled_truth(spec, 2.0, dt)
            p, v, _ = eval_trajectory(spec, truth.t)
            return max(np.abs(truth.p - p).max(), np.abs(truth.v - v).max())

        coarse, fine = error(2e-3), error(1e-3)
        assert 14.0 < coarse / fine < 18.0
        assert fine < 1e-10

    def test_rejects_bad_arguments(self):
        for make in (simulate_truth, coupled_truth):
            with pytest.raises(ValueError):
                make(reference_spec(), -1.0, 1e-3)
            with pytest.raises(ValueError):
                make(reference_spec(), 1.0, 0.0)


class TestTruthOnDemand:
    """A TruthRun builds its attitude as it is read, segments of whole scan
    blocks at a time; whatever the order of the reads, every read equals the
    eagerly built truth bit for bit."""

    STEPS = 20_000  # segments of 4096, 4096 and 8192 steps, and the rest

    @pytest.fixture(scope="class")
    def eager(self):
        """R read first: one segment, the whole horizon."""
        run = simulate_truth(reference_spec(), self.STEPS * 1e-3, 1e-3)
        rs, r_mid = truth_attitude(run.spec, self.STEPS, run.dt)
        assert np.array_equal(run.R, rs) and np.array_equal(run.R_mid, r_mid)
        return run

    def fresh(self):
        return simulate_truth(reference_spec(), self.STEPS * 1e-3, 1e-3)

    @staticmethod
    def assert_equal(run, eager, k0, k1):
        assert all(np.array_equal(a, b) for a, b in zip(run.stages(k0, k1), eager.stages(k0, k1), strict=True))

    def assert_whole(self, run, eager):
        assert all(np.array_equal(getattr(run, name), getattr(eager, name)) for name in ("R", "R_mid"))
        for k0 in range(0, self.STEPS, 997):
            self.assert_equal(run, eager, k0, min(k0 + 997, self.STEPS))

    def test_chunks_in_order(self, eager):
        run = self.fresh()
        for k0 in range(0, self.STEPS, 64):
            self.assert_equal(run, eager, k0, min(k0 + 64, self.STEPS))
        self.assert_whole(run, eager)

    def test_stages_far_ahead_first(self, eager):
        run = self.fresh()
        self.assert_equal(run, eager, self.STEPS - 64, self.STEPS)
        self.assert_equal(run, eager, 0, 64)
        self.assert_equal(run, eager, 9000, 9064)
        self.assert_whole(run, eager)

    def test_whole_arrays_after_a_partial_build(self, eager):
        run = self.fresh()
        for k in (0, 4095, 4096, 12_345):
            assert all(np.array_equal(a, b) for a, b in zip(run.pose(k), eager.pose(k)))
        self.assert_equal(run, eager, 5000, 5064)
        self.assert_whole(run, eager)

    def test_truth_csv_after_a_partial_build(self, eager, tmp_path):
        run = self.fresh()
        self.assert_equal(run, eager, 0, 100)
        ks = record_steps(self.STEPS, 7)
        write_truth_csv(run.spec, run.t[ks], run.pose(ks)[0], tmp_path / "lazy.csv")
        write_truth_csv(eager.spec, eager.t[ks], eager.R[ks], tmp_path / "eager.csv")
        assert (tmp_path / "lazy.csv").read_bytes() == (tmp_path / "eager.csv").read_bytes()

    def test_negative_steps_count_from_the_end(self, eager):
        n = len(eager)
        for k, want in ((-1, n - 1), (np.array([-1, 0, -5]), np.array([n - 1, 0, n - 5]))):
            got = self.fresh().pose(k)
            assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
                       for a, b in zip(got, eager.pose(want), strict=True))
        state, last = self.fresh().state(-1), eager.state(n - 1)
        assert all(np.asarray(getattr(state, name)).tobytes() == np.asarray(getattr(last, name)).tobytes()
                   for name in ("t", "p", "v", "R", "aB"))

    def test_state_builds_only_the_segment_that_holds_it(self, eager, monkeypatch):
        import se5nav.trajectory as trajectory

        walked, walk_blocks = [], trajectory.walk_blocks

        def spy(starts, halves, rs):
            walked.append(len(halves))
            return walk_blocks(starts, halves, rs)

        monkeypatch.setattr(trajectory, "walk_blocks", spy)
        state, want = self.fresh().state(10), eager.state(10)
        assert 0 < sum(walked) <= _EXP_CHUNK
        for name in ("t", "p", "v", "vdot", "R", "omega", "aB"):
            assert np.asarray(getattr(state, name)).tobytes() == np.asarray(getattr(want, name)).tobytes()

    def test_reads_build_whole_segments_only_as_far_as_they_go(self, monkeypatch):
        import se5nav.trajectory as trajectory

        built = []
        block_starts = trajectory.block_starts

        def spy(spec, dt, k0, start, halves):
            built.append((k0, k0 + len(halves)))
            return block_starts(spec, dt, k0, start, halves)

        monkeypatch.setattr(trajectory, "block_starts", spy)
        run = self.fresh()
        run.stages(0, 64)
        run.pose(_EXP_CHUNK)  # the end of the first segment, a chained block start
        assert built == [(0, _EXP_CHUNK)]
        run.stages(_EXP_CHUNK, _EXP_CHUNK + 64)
        run.stages(9000, 9064)  # past the second segment: each segment at least doubles what is built
        assert built == [(0, _EXP_CHUNK), (_EXP_CHUNK, 2 * _EXP_CHUNK), (2 * _EXP_CHUNK, 4 * _EXP_CHUNK)]
        assert len(run.R) == self.STEPS + 1
        assert built[-1] == (4 * _EXP_CHUNK, self.STEPS)


class TestTruthCsv:
    def test_record_steps_of_a_stride_beyond_every_step(self):
        steps = record_steps(50, 10**20)
        assert steps.dtype == np.int64 and steps.tolist() == [0, 50]

    def test_write_table_writes_the_csv_module_bytes(self, tmp_path):
        header = ["x", "tiny", "huge", "n", "settle_time_s"]
        rows = [[-0.0, 5e-324, 1e308, 7, None],
                [np.nan, np.inf, -np.inf, -3, 0.1],  # a column may hold a float in one row and None in another
                [np.float64(1 / 3), -5e-324, -1e308, 0, None],
                (0.1, 2.5, 1e-300, 12345678901234567890, np.float64(2.25))]
        write_table(tmp_path / "t.csv", "se5nav-test-v1", header, iter(rows))
        ref = io.StringIO(newline="")
        ref.write("# se5nav-test-v1\n")
        writer = csv.writer(ref)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else "" if v is None else v for v in row] for row in rows)
        assert (tmp_path / "t.csv").read_bytes() == ref.getvalue().encode()

    def test_schema_and_determinism(self, tmp_path):
        run = simulate_truth(reference_spec(), 0.1, 1e-3)
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ks = record_steps(len(run) - 1, 10)
        write_truth_csv(run.spec, run.t[ks], run.R[ks], f1)
        write_truth_csv(run.spec, run.t[ks], run.R[ks], f2)
        b1, b2 = f1.read_bytes(), f2.read_bytes()
        assert b1 == b2
        lines = b1.decode().splitlines()
        assert lines[0].startswith("# se5nav-truth-v")
        assert lines[1].split(",")[:4] == ["t", "px", "py", "pz"]
        assert len(lines) == 2 + 11  # header rows + decimated samples
