import numpy as np
import pytest

from se5nav.lie import so3_exp
from se5nav.sensors import (
    ChannelKind,
    ChannelSampler,
    ChannelSpec,
    corrupt_imu,
    parse_channel_kind,
    spawn_channel_rngs,
    value_from_pose,
)
from se5nav.trajectory import TrajectorySpec, TruthState, eval_trajectory, simulate_truth


def make_state(R=None, p=(0, 0, 0), v=(0, 0, 0)):
    return TruthState(
        t=0.0,
        p=np.asarray(p, dtype=float),
        v=np.asarray(v, dtype=float),
        vdot=np.zeros(3),
        R=np.eye(3) if R is None else R,
        omega=np.zeros(3),
        aB=np.zeros(3),
    )


class TestNoiselessValues:
    def test_landmark_identity_attitude(self):
        ch = ChannelSpec(kind=ChannelKind.BODY_VECTOR, xi=(2, 0, 0), gamma=1)
        s = make_state(p=(1, 0, 0))
        assert np.allclose(value_from_pose(ch, s.R, s.p, s.v), [1, 0, 0])

    def test_direction_channel_rotated(self):
        c = 1 / np.sqrt(2)
        ch = ChannelSpec(kind=ChannelKind.BODY_VECTOR, xi=(c, 0, c), gamma=0)
        s = make_state(R=so3_exp([0, np.pi / 2, 0]), p=(5, 5, 5))
        assert np.allclose(value_from_pose(ch, s.R, s.p, s.v), [-c, 0, c], atol=1e-15)

    def test_position_zero_lever_arm(self):
        ch = ChannelSpec(kind=ChannelKind.INERTIAL_POSITION, b=(0, 0, 0))
        s = make_state(R=so3_exp([0.3, 0.2, -0.4]), p=(1, -2, 3))
        assert np.allclose(value_from_pose(ch, s.R, s.p, s.v), [1, -2, 3])

    def test_position_lever_arm(self):
        ch = ChannelSpec(kind=ChannelKind.INERTIAL_POSITION, b=(1, 0, 0))
        r = so3_exp([0, 0, np.pi / 2])
        s = make_state(R=r, p=(0, 0, 0))
        assert np.allclose(value_from_pose(ch, s.R, s.p, s.v), r @ [1, 0, 0])

    def test_velocity_channels(self):
        r = so3_exp([0.1, -0.5, 0.8])
        s = make_state(R=r, v=(1.0, 2.0, -3.0))
        iv = ChannelSpec(kind=ChannelKind.INERTIAL_VELOCITY)
        bv = ChannelSpec(kind=ChannelKind.BODY_VELOCITY)
        assert np.allclose(value_from_pose(iv, s.R, s.p, s.v), [1, 2, -3])
        assert np.allclose(value_from_pose(bv, s.R, s.p, s.v), r.T @ [1, 2, -3])

    def test_defining_identities_on_truth_run(self):
        run = simulate_truth(TrajectorySpec(), 0.5, 1e-3)
        chans = [
            ChannelSpec(kind=ChannelKind.BODY_VECTOR, xi=(2, 0, 0), gamma=1),
            ChannelSpec(kind=ChannelKind.INERTIAL_POSITION, b=(0.1, 0, 0)),
            ChannelSpec(kind=ChannelKind.INERTIAL_VELOCITY),
            ChannelSpec(kind=ChannelKind.BODY_VELOCITY),
        ]
        for k in (0, 100, 499):
            s = run.state(k)
            vals = [
                s.R.T @ (np.array([2.0, 0, 0]) - s.p),
                s.p + s.R @ [0.1, 0, 0],
                s.v,
                s.R.T @ s.v,
            ]
            for ch, expected in zip(chans, vals):
                assert np.max(np.abs(value_from_pose(ch, s.R, s.p, s.v) - expected)) < 1e-12

    def test_batched_poses_match_single_poses(self):
        rng = np.random.default_rng(5)
        r = so3_exp(rng.standard_normal((4, 2, 3)))
        p, v = rng.standard_normal((4, 2, 3)), rng.standard_normal((4, 2, 3))
        chans = [
            ChannelSpec(kind=ChannelKind.BODY_VECTOR, xi=(2, -1, 0.5), gamma=1),
            ChannelSpec(kind=ChannelKind.BODY_VECTOR, xi=(0.6, 0, 0.8), gamma=0),
            ChannelSpec(kind=ChannelKind.INERTIAL_POSITION, b=(0.1, -0.3, 0.2)),
            ChannelSpec(kind=ChannelKind.INERTIAL_VELOCITY),
            ChannelSpec(kind=ChannelKind.BODY_VELOCITY),
        ]
        for ch in chans:
            batch = value_from_pose(ch, r, p, v)
            assert batch.shape == (4, 2, 3)
            for idx in np.ndindex(4, 2):
                single = value_from_pose(ch, r[idx], p[idx], v[idx])
                assert np.allclose(batch[idx], single, rtol=0, atol=1e-14)


class TestChannelSpecValidation:
    def test_gamma_binary(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind=ChannelKind.BODY_VECTOR, gamma=2)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind=ChannelKind.INERTIAL_VELOCITY, noise_power=-1.0)

    def test_rate_positive(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind=ChannelKind.INERTIAL_VELOCITY, rate=0.0)

    def test_kind_aliases(self):
        assert parse_channel_kind("landmark") is ChannelKind.BODY_VECTOR
        assert parse_channel_kind("gps_position") is ChannelKind.INERTIAL_POSITION
        with pytest.raises(ValueError):
            parse_channel_kind("sonar")


def delivered(ch, rng, values, sim_dt=1e-3):
    """Samples a ChannelSampler delivers over consecutive steps whose
    stage values are all `values` (K, 3): (K, 3) at the step starts and
    the (K,) update mask."""
    sampler = ChannelSampler(spec=ch, sim_dt=sim_dt, rng=rng)
    out, updated = sampler.sample(0, np.repeat(np.asarray(values, dtype=float)[:, None], 3, axis=1))
    return out[:, 0], updated, sampler


class TestMeasureNoise:
    """Noise as a run delivers it: ChannelSampler.sample, scaled by the
    effective rate 1 / (stride * dt)."""

    def test_zero_power_is_noiseless(self):
        ch = ChannelSpec(kind=ChannelKind.INERTIAL_VELOCITY, noise_power=0.0, rate=100.0)
        y, _, _ = delivered(ch, np.random.default_rng(0), [[1.0, 2.0, 3.0]])
        assert np.array_equal(y[0], [1, 2, 3])

    def test_noise_std_scaling(self):
        # power 1e-1 at 1000 Hz: per-axis sample std = sqrt(100) = 10
        ch = ChannelSpec(kind=ChannelKind.INERTIAL_VELOCITY, noise_power=1e-1, rate=1000.0)
        draws, _, _ = delivered(ch, np.random.default_rng(7), np.zeros((20000, 3)))
        std = draws.std(axis=0)
        assert np.all(np.abs(std - 10.0) < 0.2)  # within 2%

    def test_noise_scales_with_effective_rate(self):
        # rate 300 Hz at dt = 1e-3 samples every round(3.33) = 3 steps, an
        # effective 333.3 Hz: per-axis std sqrt(0.3 * 333.3) = 10, where the
        # configured rate would give sqrt(0.3 * 300) = 9.49
        ch = ChannelSpec(kind=ChannelKind.INERTIAL_VELOCITY, noise_power=0.3, rate=300.0)
        y, updated, sampler = delivered(ch, np.random.default_rng(8), np.zeros((60000, 3)))
        assert sampler.stride == 3
        assert sampler.effective_rate == pytest.approx(1000.0 / 3.0)
        draws = y[updated]
        assert len(draws) == 20000
        assert np.all(np.abs(draws.std(axis=0) - 10.0) < 0.2)  # within 2%

    def test_seeded_determinism(self):
        ch = ChannelSpec(kind=ChannelKind.INERTIAL_VELOCITY, noise_power=1e-2, rate=50.0)
        a = delivered(ch, np.random.default_rng(3), [[1.0, 1.0, 1.0]])[0]
        b = delivered(ch, np.random.default_rng(3), [[1.0, 1.0, 1.0]])[0]
        assert np.array_equal(a, b)


class TestCorruptImu:
    def test_zero_power_identity(self):
        w = np.array([0.1, 0.2, 0.3])
        a = np.array([1.0, 2.0, 3.0])
        wn, an = corrupt_imu(w, a, 0.0, np.random.default_rng(0))
        assert np.array_equal(wn, w)
        assert np.array_equal(an, a)

    def test_monte_carlo_std(self):
        # power 1e-1 at 1000 Hz: per-axis std sqrt(100) = 10
        std = np.sqrt(1e-1 * 1000.0)
        rng = np.random.default_rng(99)
        draws = np.array([
            corrupt_imu(np.zeros(3), np.zeros(3), std, rng) for _ in range(20000)
        ])
        assert np.all(np.abs(draws.std(axis=0) - 10.0) < 0.3)

    def test_bit_identical_across_runs(self):
        w = np.zeros(3)
        a = np.zeros(3)
        w1, a1 = corrupt_imu(w, a, 0.5, np.random.default_rng(5))
        w2, a2 = corrupt_imu(w, a, 0.5, np.random.default_rng(5))
        assert np.array_equal(w1, w2) and np.array_equal(a1, a2)

    def test_stage_stack_shares_one_draw(self):
        w = np.zeros((3, 3))
        a = np.zeros((3, 3))
        wn, an = corrupt_imu(w, a, 1.0, np.random.default_rng(11))
        # same draw applied to every stage row
        assert np.array_equal(wn[0], wn[1]) and np.array_equal(wn[1], wn[2])
        assert np.array_equal(an[0], an[1])


class TestChannelSampler:
    def test_full_rate_stage_values(self):
        run = simulate_truth(TrajectorySpec(), 0.1, 1e-3)
        ch = ChannelSpec(kind=ChannelKind.INERTIAL_VELOCITY)
        sampler = ChannelSampler(spec=ch, sim_dt=1e-3, rng=None)
        vals, updated = sampler.poll_stages(10, run)
        v_mid = eval_trajectory(run.spec, run.t[10] + 0.5 * run.dt)[1]
        assert updated
        assert np.allclose(vals[0], run.pose(10)[2])
        assert np.allclose(vals[1], v_mid) and np.array_equal(vals[2], vals[1])
        assert np.allclose(vals[3], run.pose(11)[2])

    def test_decimated_zero_order_hold(self):
        run = simulate_truth(TrajectorySpec(), 0.1, 1e-3)
        ch = ChannelSpec(kind=ChannelKind.INERTIAL_VELOCITY, rate=100.0)  # every 10 steps
        sampler = ChannelSampler(spec=ch, sim_dt=1e-3, rng=None)
        v0, upd0 = sampler.poll_stages(0, run)
        v5, upd5 = sampler.poll_stages(5, run)
        v10, upd10 = sampler.poll_stages(10, run)
        assert upd0 and not upd5 and upd10
        assert np.array_equal(v0, v5)  # held
        assert np.allclose(v10[0], run.pose(10)[2])
        assert sampler.effective_rate == pytest.approx(100.0)

    def test_stride_beyond_any_step_updates_once(self):
        ch = ChannelSpec(kind=ChannelKind.BODY_VELOCITY, rate=1e-300)
        sampler = ChannelSampler(spec=ch, sim_dt=1e-3, rng=None)
        values = np.arange(36.0).reshape(4, 3, 3)
        out, updated = sampler.sample(0, values)
        assert updated.tolist() == [True, False, False, False]
        assert np.array_equal(out, np.broadcast_to(values[0, 0], (4, 3, 3)))

    def test_spawned_streams_are_independent_and_stable(self):
        imu1, chans1 = spawn_channel_rngs(42, 3)
        imu2, chans2 = spawn_channel_rngs(42, 3)
        assert np.array_equal(imu1.standard_normal(4), imu2.standard_normal(4))
        a = chans1[0].standard_normal(4)
        b = chans1[1].standard_normal(4)
        assert not np.allclose(a, b)
        assert np.array_equal(a, chans2[0].standard_normal(4))
