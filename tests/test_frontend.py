import numpy as np
import pytest

from se5nav.frontend import UnifiedLayout, fast_output_matrix, output_matrix
from se5nav.lie import SEn, kron, so3_exp, vec
from se5nav.sensors import ChannelKind, ChannelSpec, value_from_pose
from se5nav.trajectory import TruthState

RNG = np.random.default_rng(2024)

C = 1 / np.sqrt(2)

KINDS = [
    ChannelSpec(kind=ChannelKind.BODY_VECTOR, xi=(2.0, 0.0, 0.0), gamma=1),
    ChannelSpec(kind=ChannelKind.BODY_VECTOR, xi=(C, 0.0, C), gamma=0),
    ChannelSpec(kind=ChannelKind.INERTIAL_POSITION, b=(0.1, 0.2, -0.3)),
    ChannelSpec(kind=ChannelKind.INERTIAL_VELOCITY),
    ChannelSpec(kind=ChannelKind.BODY_VELOCITY),
]


def random_truth(rng):
    return TruthState(
        t=0.0,
        p=3 * rng.standard_normal(3),
        v=2 * rng.standard_normal(3),
        vdot=np.zeros(3),
        R=so3_exp(2 * rng.standard_normal(3)),
        omega=np.zeros(3),
        aB=np.zeros(3),
    )


def stacks(channels, raw):
    """(ys, rs) of one raw sample (m, 3) per channel."""
    return UnifiedLayout(channels).stacks(np.asarray(raw, dtype=float))


def noiseless_stacks(channels, truth):
    """(ys, rs) of the channels' noiseless samples at a truth pose."""
    layout = UnifiedLayout(channels)
    return layout.stacks(layout.raw_from_pose(truth.R, truth.p, truth.v))


def bold(y, r):
    """(y_bold, r_bold) = ([y; r], [0_3; r]) of one channel's (y, r)."""
    return np.concatenate([y, r]), np.concatenate([np.zeros(3), r])


def innovations(ys, rs, xhat):
    """Rows dy_i = r_bold_i - Xhat y_bold_i, and dz stacking their first
    three entries."""
    dys = np.hstack([np.zeros_like(ys), rs]) - np.hstack([ys, rs]) @ xhat.as_matrix().T
    return dys, dys[:, :3].reshape(-1)


class TestReferenceVectors:
    def test_direction_channel_row(self):
        _, rs = stacks([KINDS[1]], np.zeros((1, 3)))
        assert np.allclose(rs[0], [0, 0, -C, 0, -C])

    def test_body_velocity_row_ignores_sample(self):
        for _ in range(5):
            y = RNG.standard_normal(3)
            ys, rs = stacks([KINDS[4]], [y])
            assert np.array_equal(rs[0], [0, -1, 0, 0, 0])
            assert np.array_equal(ys[0], y)

    def test_position_channel_carries_sample_in_tail(self):
        ys, rs = stacks([KINDS[2]], [[1.0, 2.0, 3.0]])
        assert np.array_equal(rs[0], [1, 0, -1, -2, -3])
        assert np.array_equal(ys[0], [0.1, 0.2, -0.3])  # lever arm

    def test_velocity_channel_has_zero_processed_output(self):
        ys, rs = stacks([KINDS[3]], [[4.0, 5.0, 6.0]])
        assert np.array_equal(rs[0], [0, 1, -4, -5, -6])
        assert np.array_equal(ys[0], np.zeros(3))

    def test_leading_components_in_unit_set(self):
        truth = random_truth(RNG)
        _, rs = noiseless_stacks(KINDS, truth)
        for r in rs:
            assert set(np.round(r[:2], 12)).issubset({-1.0, 0.0, 1.0})

    def test_unified_identity_all_kinds(self):
        """y_bold = X^{-1} r_bold for every output kind (four-case check)."""
        worst = 0.0
        for _ in range(200):
            truth = random_truth(RNG)
            x = SEn(truth.R, truth.z)
            xinv = np.linalg.inv(x.as_matrix())
            for y, r in zip(*noiseless_stacks(KINDS, truth)):
                y_bold, r_bold = bold(y, r)
                worst = max(worst, np.max(np.abs(xinv @ r_bold - y_bold)))
        assert worst < 1e-12

    def test_body_velocity_reference_is_forced(self):
        """Carrying the sample in the tail instead of the -1 marker breaks
        the identity for the body-velocity kind; the pinned row is the one
        that closes it."""
        ch = KINDS[4]
        truth = random_truth(RNG)
        x_inv = np.linalg.inv(SEn(truth.R, truth.z).as_matrix())
        y = value_from_pose(ch, truth.R, truth.p, truth.v)
        good = np.array([0.0, -1.0, 0.0, 0.0, 0.0])
        bad = np.concatenate([[0.0, 0.0], -y])
        for r, should_pass in ((good, True), (bad, False)):
            r_bold = np.concatenate([np.zeros(3), r])
            y_bold = np.concatenate([y, r])
            err = np.max(np.abs(x_inv @ r_bold - y_bold))
            assert (err < 1e-12) == should_pass


class TestOutputMatrix:
    def test_single_body_velocity_structure(self):
        c = output_matrix(stacks([KINDS[4]], np.zeros((1, 3)))[1])
        assert c.shape == (3, 15)
        expected = kron(np.array([[0.0, -1.0, 0.0, 0.0, 0.0]]), np.eye(3))
        assert np.array_equal(c, expected)
        assert np.array_equal(c[:, 3:6], -np.eye(3))

    def test_stereo_block_rows(self):
        landmarks = [(2, 0, 0), (0, 0.4, 0), (0, 0, 0.5), (1, 0, 0), (0, 1, 0)]
        chans = [ChannelSpec(kind=ChannelKind.BODY_VECTOR, xi=xi, gamma=1) for xi in landmarks]
        truth = random_truth(RNG)
        c = output_matrix(noiseless_stacks(chans, truth)[1])
        assert c.shape == (15, 15)
        for i, xi in enumerate(landmarks):
            r = np.concatenate([[1.0, 0.0], -np.asarray(xi, dtype=float)])
            assert np.array_equal(c[3 * i: 3 * i + 3], kron(r.reshape(1, 5), np.eye(3)))

    def test_empty_channel_list_rejected(self):
        with pytest.raises(ValueError):
            output_matrix(np.zeros((0, 5)))

    def test_fast_output_matrix_matches(self):
        rs = RNG.standard_normal((4, 5))
        ref = np.vstack([kron(r.reshape(1, 5), np.eye(3)) for r in rs])
        assert np.array_equal(fast_output_matrix(rs), ref)

    def test_omitting_channels_deletes_block_rows(self):
        truth = random_truth(RNG)
        raw = UnifiedLayout(KINDS).raw_from_pose(truth.R, truth.p, truth.v)
        c_all = output_matrix(stacks(KINDS, raw)[1])
        keep = [0, 2, 4]
        c_sub = output_matrix(stacks([KINDS[i] for i in keep], raw[keep])[1])
        for j, i in enumerate(keep):
            assert np.array_equal(c_sub[3 * j: 3 * j + 3], c_all[3 * i: 3 * i + 3])


class TestInnovations:
    def test_zero_for_perfect_estimate(self):
        truth = random_truth(RNG)
        xhat = SEn(truth.R, truth.z)
        dys, dz = innovations(*noiseless_stacks(KINDS, truth), xhat)
        assert np.max(np.abs(dz)) < 1e-12
        for dy in dys:
            assert np.max(np.abs(dy)) < 1e-12
            assert np.array_equal(dy[3:], np.zeros(5))  # structural zeros

    def test_matches_group_expression(self):
        """dy = (I8 - Xtilde^{-1}) r_bold with Xtilde = X Xhat^{-1}."""
        worst = 0.0
        for _ in range(100):
            truth = random_truth(RNG)
            x = SEn(truth.R, truth.z)
            xhat = SEn(so3_exp(2 * RNG.standard_normal(3)), RNG.standard_normal((3, 5)))
            ys, rs = noiseless_stacks(KINDS, truth)
            dys, _ = innovations(ys, rs, xhat)
            xt_inv = (xhat @ x.inverse()).as_matrix()
            for y, r, dy in zip(ys, rs, dys):
                expect = (np.eye(8) - xt_inv) @ bold(y, r)[1]
                worst = max(worst, np.max(np.abs(dy - expect)))
        assert worst < 1e-12

    def test_position_offset_innovation(self):
        # Rhat = R = I, phat = p + delta, single position channel, b = 0
        ch = ChannelSpec(kind=ChannelKind.INERTIAL_POSITION, b=(0.0, 0.0, 0.0))
        p = np.array([1.0, -2.0, 0.5])
        delta = np.array([0.1, 0.2, -0.3])
        truth = TruthState(t=0.0, p=p, v=np.zeros(3), vdot=np.zeros(3),
                           R=np.eye(3), omega=np.zeros(3), aB=np.zeros(3))
        zhat = truth.z.copy()
        zhat[:, 0] = p + delta
        xhat = SEn(np.eye(3), zhat)
        ys, rs = noiseless_stacks([ch], truth)
        dys, dz = innovations(ys, rs, xhat)
        x = SEn(truth.R, truth.z)
        expect = ((np.eye(8) - (xhat @ x.inverse()).as_matrix()) @ bold(ys[0], rs[0])[1])[:3]
        assert np.allclose(dz, expect, atol=1e-13)
        assert np.allclose(dz, -delta, atol=1e-13)  # minus the position offset

    def test_linchpin_identity(self):
        """dz = (I_m kron Rhat) C(t) x_body for arbitrary estimate errors."""
        worst = 0.0
        m = len(KINDS)
        for _ in range(200):
            truth = random_truth(RNG)
            rhat = so3_exp(2 * RNG.standard_normal(3))
            zhat = RNG.standard_normal((3, 5))
            xhat = SEn(rhat, zhat)
            ys, rs = noiseless_stacks(KINDS, truth)
            c = output_matrix(rs)
            _, dz = innovations(ys, rs, xhat)
            rtilde = truth.R @ rhat.T
            x_body = vec(truth.R.T @ (truth.z - rtilde @ zhat))
            rhs = kron(np.eye(m), rhat) @ c @ x_body
            worst = max(worst, np.max(np.abs(dz - rhs)))
        assert worst < 1e-12

    def test_projected_identity(self):
        """(I_m kron Rhat)^T dz equals C x_body directly."""
        truth = random_truth(RNG)
        rhat = so3_exp(RNG.standard_normal(3))
        zhat = RNG.standard_normal((3, 5))
        ys, rs = noiseless_stacks(KINDS, truth)
        c = output_matrix(rs)
        _, dz = innovations(ys, rs, SEn(rhat, zhat))
        x_body = vec(truth.R.T @ (truth.z - truth.R @ rhat.T @ zhat))
        lhs = kron(np.eye(len(KINDS)), rhat).T @ dz
        assert np.max(np.abs(lhs - c @ x_body)) < 1e-12


class TestUnifiedLayout:
    def test_matches_reference_vector_per_channel(self):
        layout = UnifiedLayout(KINDS)
        truth = random_truth(RNG)
        raw = np.stack([value_from_pose(ch, truth.R, truth.p, truth.v) for ch in KINDS])
        ys, rs = layout.stacks(raw)
        for i, ch in enumerate(KINDS):
            y, r = stacks([ch], raw[i:i + 1])
            assert np.array_equal(ys[i], y[0])
            assert np.array_equal(rs[i], r[0])
        assert np.array_equal(layout.c_matrix(rs), output_matrix(
            np.concatenate([stacks([ch], raw[i:i + 1])[1] for i, ch in enumerate(KINDS)])
        ))

    def test_raw_from_pose_matches_noiseless_values(self):
        layout = UnifiedLayout(KINDS)
        truth = random_truth(RNG)
        raw = layout.raw_from_pose(truth.R, truth.p, truth.v)
        for i, ch in enumerate(KINDS):
            assert np.allclose(raw[i], value_from_pose(ch, truth.R, truth.p, truth.v), atol=1e-14)

    def test_constant_r_caching_for_body_channels(self):
        chans = [ChannelSpec(kind=ChannelKind.BODY_VECTOR, xi=(1, 2, 3), gamma=1),
                 ChannelSpec(kind=ChannelKind.BODY_VELOCITY)]
        layout = UnifiedLayout(chans)
        assert layout.constant_r
        raw = RNG.standard_normal((2, 3))
        _, rs = layout.stacks(raw)
        # a constant R_s gives one C, whatever stack of stages it is asked for
        assert np.array_equal(layout.c_matrix(rs), output_matrix(rs))
        assert np.array_equal(layout.c_matrix(np.stack([rs, rs])), output_matrix(rs))

    def test_no_channels(self):
        layout = UnifiedLayout([])
        raw = layout.raw_from_pose(np.stack([np.eye(3)] * 4), np.zeros((4, 3)), np.zeros((4, 3)))
        assert raw.shape == (4, 0, 3)
        ys, rs = layout.stacks(raw)
        assert ys.shape == (4, 0, 3) and rs.shape == (4, 0, 5)
        assert layout.c_matrix(rs).shape == (0, 15)
