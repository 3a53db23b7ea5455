import numpy as np
import pytest
from scipy.linalg import expm

from se5nav.frontend import UnifiedLayout
from se5nav.observability import (GramianReport, gps_pe_condition, gramian, kron_gramians, transition_matrix,
                                  window_nodes)
from se5nav.observer import build_a
from se5nav.scenario import (
    bundled_config_path,
    check_gps_pe,
    check_observability,
    parse_scenario,
    scenario_output_map,
)
from se5nav.sensors import ChannelKind, ChannelSpec
from se5nav.trajectory import _SCAN_BLOCK, TrajectorySpec, eval_omega, eval_trajectory, truth_attitude

from oracles import kron_gramians_einsum

RNG = np.random.default_rng(31)

G_NED = np.array([0.0, 0.0, 9.81])


def stereo_cfg():
    return parse_scenario(bundled_config_path("stereo")).noiseless()


def gps_cfg():
    return parse_scenario(bundled_config_path("gps")).noiseless()


class TestTransitionMatrix:
    def test_zero_dynamics(self):
        phi = transition_matrix(lambda t: np.zeros((15, 15)), 0.0, 1.0, 1e-3)
        assert np.array_equal(phi, np.eye(15))

    def test_constant_dynamics_matches_matrix_exponential(self):
        a = RNG.standard_normal((15, 15)) * 0.5
        phi = transition_matrix(lambda t: a, 0.0, 1.0, 1e-3)
        assert np.max(np.abs(phi - expm(a))) < 1e-8

    def test_composition_property(self):
        spec = TrajectorySpec()
        a_of_t = lambda t: build_a(eval_omega(spec, t), G_NED)
        t0, t_mid, t1 = 0.0, 0.37, 1.0
        full = transition_matrix(a_of_t, t0, t1, 1e-3)
        left = transition_matrix(a_of_t, t0, t_mid, 1e-3)
        # continue from the split point: phi(t1, t0) = phi(t1, tm) phi(tm, t0)
        right = transition_matrix(lambda t: a_of_t(t), t_mid, t1, 1e-3)
        assert np.max(np.abs(full - right @ left)) < 1e-8

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            transition_matrix(lambda t: np.zeros((2, 2)), 1.0, 0.0, 1e-3)


class TestGramian:
    def test_zero_output_map(self):
        rep = gramian(lambda t: np.zeros((15, 15)), lambda t: np.zeros((3, 15)),
                      0.0, 1.0, 1e-3)
        assert np.max(np.abs(rep.W)) == 0.0
        assert rep.mu == 0.0
        assert not rep.passed

    def test_symmetric_psd_for_random_systems(self):
        a = RNG.standard_normal((6, 6)) * 0.3
        c = RNG.standard_normal((2, 6))
        rep = gramian(lambda t: a, lambda t: c, 0.0, 0.5, 1e-3)
        assert np.max(np.abs(rep.W - rep.W.T)) < 1e-12
        assert np.linalg.eigvalsh(rep.W)[0] > -1e-9

    def test_constant_fully_observed_system(self):
        # A = 0, C = I: W = I exactly for any window
        rep = gramian(lambda t: np.zeros((4, 4)), lambda t: np.eye(4), 0.0, 2.0, 1e-3)
        assert np.max(np.abs(rep.W - np.eye(4))) < 1e-10
        assert rep.passed

    def test_stereo_scenario_uniformly_observable(self):
        reports = check_observability(stereo_cfg(), delta=1.0, grid=[0.0, 5.0, 10.0])
        for rep in reports:
            assert rep.mu > 1e-6, f"mu={rep.mu} at t={rep.t}"

    def test_gps_scenario_observable(self):
        reports = check_observability(gps_cfg(), delta=2.0, grid=[0.0, 5.0])
        for rep in reports:
            assert rep.mu > 1e-6

    def test_single_direction_channel_fails(self):
        import dataclasses

        from se5nav.sensors import ChannelKind, ChannelSpec

        cfg = dataclasses.replace(
            stereo_cfg(),
            channels=(ChannelSpec(kind=ChannelKind.BODY_VECTOR,
                                  xi=(1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)), gamma=0),),
        )
        reports = check_observability(cfg, delta=1.0, grid=[0.0])
        assert not reports[0].passed
        assert reports[0].mu < 1e-9

    def test_channel_monotonicity(self):
        """Extra block rows in C never decrease the smallest eigenvalue."""
        import dataclasses

        cfg = stereo_cfg()
        mus = []
        for n_channels in (1, 2, 3, 5):
            sub = dataclasses.replace(cfg, channels=cfg.channels[:n_channels])
            mus.append(check_observability(sub, delta=1.0, grid=[0.0])[0].mu)
        for a, b in zip(mus, mus[1:]):
            assert b >= a - 1e-12

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            gramian(lambda t: np.zeros((2, 2)), lambda t: np.eye(2), 0.0, -1.0, 1e-3)


class TestClosedFormGramian:
    """check_observability (closed-form 5 x 5 Gramian) against the 15 x 15
    RK4 Gramian of scenario_output_map on the same trapezoid nodes."""

    @staticmethod
    def assert_matches_oracle(cfg, t, delta):
        rep = check_observability(cfg, delta=delta, grid=[t])[0]
        a_of_t, c_of_t = scenario_output_map(cfg, horizon=t + delta)
        oracle = gramian(a_of_t, c_of_t, t, delta, cfg.observer.dt)
        assert rep.t == t and rep.delta == delta
        assert abs(rep.mu - oracle.mu) <= 1e-10 * abs(oracle.mu)
        # the oracle's RK4 rotation factor drifts from orthogonal by ~1e-13
        # over a window, so W is compared relative to its largest entry
        assert np.max(np.abs(rep.W - oracle.W)) <= 1e-12 * np.max(np.abs(oracle.W))
        assert rep.passed == oracle.passed

    def test_bundled_stereo(self):
        self.assert_matches_oracle(stereo_cfg(), 5.0, 1.0)

    def test_bundled_gps_with_lever_arm(self):
        cfg = gps_cfg()
        assert any(np.any(ch.b_vec) for ch in cfg.channels)
        self.assert_matches_oracle(cfg, 5.0, 0.25)

    def test_gps_without_lever_arm(self):
        import dataclasses

        cfg = gps_cfg()
        channels = tuple(dataclasses.replace(ch, b=(0.0, 0.0, 0.0)) for ch in cfg.channels)
        self.assert_matches_oracle(dataclasses.replace(cfg, channels=channels), 5.0, 0.25)

    def test_body_velocity_channel(self):
        import dataclasses

        cfg = stereo_cfg()
        channels = cfg.channels[:3] + (ChannelSpec(kind=ChannelKind.BODY_VELOCITY),)
        self.assert_matches_oracle(dataclasses.replace(cfg, channels=channels), 2.0, 0.5)

    def test_window_start_off_the_grid(self):
        cfg = gps_cfg()
        self.assert_matches_oracle(cfg, 3.0 + 0.3 * cfg.observer.dt, 0.25)

    def test_windows_batched_like_single_calls(self):
        cfg = gps_cfg()
        batch = check_observability(cfg, delta=0.5, grid=[0.0, 2.5, 7.0])
        for rep in batch:
            single = check_observability(cfg, delta=0.5, grid=[rep.t])[0]
            assert np.array_equal(rep.W, single.W) and rep.mu == single.mu

    def test_node_budget_groups_windows(self, monkeypatch):
        import se5nav.observability as observability
        import se5nav.scenario as scenario

        cfg = gps_cfg()
        grid = [0.0, 0.3, 2.5, 7.0, 7.1]
        whole = check_observability(cfg, delta=0.5, grid=grid)
        calls = []
        attitude_at = scenario.attitude_at

        def counted(*args):
            calls.append(args)
            return attitude_at(*args)

        monkeypatch.setattr(scenario, "attitude_at", counted)
        monkeypatch.setattr(observability, "_OBSV_NODES", 2001)  # one whole window per group
        grouped = check_observability(cfg, delta=0.5, grid=grid)
        assert len(calls) == 1
        assert [rep.t for rep in grouped] == grid
        for rep, ref in zip(grouped, whole):
            assert np.array_equal(rep.W, ref.W) and rep.mu == ref.mu

    @pytest.mark.parametrize("make_cfg", [stereo_cfg, gps_cfg], ids=["stereo", "gps"])
    def test_long_window_summed_in_pieces(self, make_cfg, monkeypatch):
        import se5nav.observability as observability

        cfg = make_cfg()
        grid = [0.0, 0.3, 2.5]
        whole = check_observability(cfg, delta=0.5, grid=grid)
        monkeypatch.setattr(observability, "_OBSV_NODES", 150)
        pieced = check_observability(cfg, delta=0.5, grid=grid)
        assert [rep.t for rep in pieced] == grid
        for rep, ref in zip(pieced, whole):
            # summing in another order moves W by rounding; by Weyl's
            # inequality mu moves by no more than W's norm does
            scale = np.linalg.norm(ref.W, 2)
            assert np.max(np.abs(rep.W - ref.W)) <= 1e-12 * np.max(np.abs(ref.W))
            assert abs(rep.mu - ref.mu) <= 1e-12 * scale

    @pytest.mark.parametrize("make_cfg", [stereo_cfg, gps_cfg], ids=["stereo", "gps"])
    def test_one_product_per_window_matches_einsum(self, make_cfg, monkeypatch):
        import se5nav.scenario as scenario

        cfg, grid = make_cfg(), list(np.arange(0.0, 51.0, 5.0))  # the default grid of se5nav obsv
        reports = check_observability(cfg, delta=1.0, grid=grid)
        monkeypatch.setattr(scenario, "kron_gramians", kron_gramians_einsum)
        oracle = check_observability(cfg, delta=1.0, grid=grid)
        for rep, ref in zip(reports, oracle, strict=True):
            assert rep.t == ref.t
            assert np.max(np.abs(rep.W - ref.W)) <= 1e-12 * np.max(np.abs(ref.W))
            assert abs(rep.mu - ref.mu) <= 1e-12 * np.linalg.norm(ref.W, 2)

    def test_rejects_drift_that_is_not_nilpotent(self):
        def rows(ts):
            return np.ones(np.shape(ts) + (2, 5))

        with pytest.raises(ValueError, match="Abar"):
            kron_gramians(np.eye(5), rows, [0.0], 0.01, 1e-3)

    def test_no_truth_without_lever_arm(self, monkeypatch):
        import se5nav.scenario as scenario

        def refuse(*args, **kwargs):
            raise AssertionError("truth synthesized for a config without lever arm")

        monkeypatch.setattr(scenario, "simulate_truth", refuse)
        monkeypatch.setattr(scenario, "attitude_at", refuse)
        reports = check_observability(stereo_cfg(), delta=1.0, grid=[0.0, 5.0])
        assert all(rep.passed for rep in reports)
        with pytest.raises(AssertionError, match="lever arm"):
            check_observability(gps_cfg(), delta=1.0, grid=[0.0])

    @pytest.mark.parametrize("name", ["stereo", "gps"])
    def test_negative_window_start_rejected(self, name):
        cfg = parse_scenario(bundled_config_path(name)).noiseless()
        with pytest.raises(ValueError, match="nonnegative"):
            check_observability(cfg, delta=0.5, grid=[-0.5, 2.0])

    @pytest.mark.parametrize("factor", [0.5, 0.0, -1.0])
    def test_window_shorter_than_step_rejected(self, factor):
        cfg = gps_cfg()
        with pytest.raises(ValueError, match="delta"):
            check_observability(cfg, delta=factor * cfg.observer.dt, grid=[0.0])

    def test_output_map_rejects_times_without_attitude(self):
        _, c_of_t = scenario_output_map(gps_cfg(), horizon=1.0)
        assert c_of_t(0.5).shape == (9, 15)
        for t in (-0.5, 2.0):
            with pytest.raises(ValueError, match="attitude"):
                c_of_t(t)


class TestLeverArmAttitudeAtNodes:
    """check_observability walks only the truth attitude scan blocks that
    hold window nodes; the attitude at every node is the row of the eager
    truth_attitude bit for bit."""

    @pytest.mark.parametrize("grid, delta, piece", [
        ([0.05], 0.05, None),  # steps 200 .. 400 straddle the block end at step 256
        ([0.2], 0.056, None),  # ends at step 1024 = 4 L, the horizon's last step and a block start
        ([0.0, 1.0], 0.5, None),  # the last window ends at the horizon's last step, mid-block
        ([0.0, 0.3], 0.5, None),  # overlapping windows
        ([2.5, 0.0, 1.2], 0.5, None),  # an unsorted grid
        ([0.7], 2.5e-4, None),  # a one-step window: delta = dt
        ([0.0, 0.3, 2.5], 0.5, 150),  # windows in pieces of 150 nodes
    ], ids=["block-end", "ends-at-block-start", "ends-at-horizon", "overlapping", "unsorted", "one-step",
            "pieced"])
    def test_node_attitudes_equal_eager_rows(self, grid, delta, piece, monkeypatch):
        import se5nav.observability as observability
        import se5nav.scenario as scenario
        import se5nav.trajectory as trajectory

        cfg = gps_cfg()
        dt = cfg.observer.dt
        if piece is not None:
            monkeypatch.setattr(observability, "_OBSV_NODES", piece)
        attitudes, nodes, walked = [], [], []
        raw_from_pose, kron, walk = UnifiedLayout.raw_from_pose, scenario.kron_gramians, trajectory.walk_blocks

        def raw_spy(layout, r, p, v):
            attitudes.append(r)
            return raw_from_pose(layout, r, p, v)

        def kron_spy(abar, rows, starts, *args, **kwargs):
            def rows_spy(ts):  # the spied attitudes are taken in the order of the node calls
                nodes.append(ts)
                return rows(ts)

            return kron(abar, rows_spy, starts, *args, **kwargs)

        def walk_spy(starts, halves, rs):
            walked.append(len(halves))
            walk(starts, halves, rs)

        monkeypatch.setattr(UnifiedLayout, "raw_from_pose", raw_spy)
        monkeypatch.setattr(scenario, "kron_gramians", kron_spy)
        monkeypatch.setattr(trajectory, "walk_blocks", walk_spy)
        reports = check_observability(cfg, delta=delta, grid=grid)
        walked_steps = sum(walked)
        assert [rep.t for rep in reports] == grid and len(attitudes) == len(nodes)
        steps = [np.rint(ts / dt).astype(int) for ts in nodes]
        # no call walks a block that holds none of its nodes
        assert 0 < walked_steps <= _SCAN_BLOCK * sum(np.unique(k // _SCAN_BLOCK).size for k in steps)
        eager = truth_attitude(cfg.trajectory, max(k.max() for k in steps), dt)[0]
        for r, k in zip(attitudes, steps):
            assert np.array_equal(r, eager[k])


class TestGpsPeCondition:
    def test_static_hover_without_aiding_fails(self):
        # vdot = 0 and no magnetometer/velocity terms: matrix = g g^T, rank 1
        rep = gps_pe_condition(
            vdot=np.zeros(3), v=None,
            g=G_NED, xi_mag=None,
            t=0.0, delta=1.0, dt=1e-3,
        )
        gg = np.outer(G_NED, G_NED)
        assert np.max(np.abs(rep.W - gg)) < 1e-9
        assert np.linalg.matrix_rank(rep.W, tol=1e-6) == 1
        assert not rep.passed

    def test_rank_one_fails_at_zero_threshold(self):
        # g g^T has least eigenvalue exactly 0; like a Gramian window, the
        # check passes only when mu is strictly above the threshold
        rep = gps_pe_condition(
            vdot=np.zeros(3), v=None,
            g=G_NED, xi_mag=None,
            t=0.0, delta=1.0, dt=1e-3, threshold=0.0,
        )
        assert isinstance(rep, GramianReport) and rep.W.shape == (3, 3)
        assert rep.mu == 0.0
        assert rep.passed is False

    def test_scenario_check_is_a_gramian_window_report(self):
        # check_gps_pe reports as check_observability does: at a threshold equal to mu it fails
        pe = check_gps_pe(gps_cfg(), t=0.0, delta=1.0)
        assert isinstance(pe, GramianReport) and pe.W.shape == (3, 3) and pe.passed
        assert not check_gps_pe(gps_cfg(), t=0.0, delta=1.0, threshold=pe.mu).passed

    def test_constant_velocity_with_aiding_passes(self):
        # vdot = 0; gravity, magnetic field, and velocity together span R^3
        xi = np.array([1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])
        v_const = np.array([0.0, 1.0, 0.0])  # off the span of g and xi
        rep = gps_pe_condition(
            vdot=np.zeros(3), v=v_const,
            g=G_NED, xi_mag=xi,
            t=0.0, delta=1.0, dt=1e-3,
        )
        assert rep.passed
        assert rep.mu > 1e-2

    def test_collinear_field_fails(self):
        # magnetic field parallel to gravity adds no new direction
        xi = np.array([0.0, 0.0, 1.0])
        rep = gps_pe_condition(
            vdot=np.zeros(3), v=None,
            g=G_NED, xi_mag=xi,
            t=0.0, delta=1.0, dt=1e-3,
        )
        assert not rep.passed

    def test_reference_trajectory_with_magnetometer_passes(self):
        spec = TrajectorySpec()
        xi = np.array([1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])
        _, v, vdot = eval_trajectory(spec, window_nodes(0.0, 2.0, 1e-3)[0])
        rep = gps_pe_condition(
            vdot=vdot, v=v,
            g=spec.g, xi_mag=xi,
            t=0.0, delta=2.0, dt=1e-3,
        )
        assert rep.passed

    def test_matches_per_node_quadrature(self):
        spec = TrajectorySpec()
        xi = np.array([1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])
        _, v, vdot = eval_trajectory(spec, window_nodes(0.5, 1.0, 1e-3)[0])
        rep = gps_pe_condition(
            vdot=vdot, v=v,
            g=spec.g, xi_mag=xi,
            t=0.5, delta=1.0, dt=1e-3,
        )
        ts = 0.5 + np.arange(1001) * 1e-3
        acc = sum(np.outer(f, f) for f in (eval_trajectory(spec, s)[2] - spec.g for s in ts[1:-1]))
        vel = sum(np.outer(v, v) for v in (eval_trajectory(spec, s)[1] for s in ts[1:-1]))
        for s in (ts[0], ts[-1]):
            f = eval_trajectory(spec, s)[2] - spec.g
            v = eval_trajectory(spec, s)[1]
            acc = acc + 0.5 * np.outer(f, f)
            vel = vel + 0.5 * np.outer(v, v)
        want = 1e-3 * (acc + vel) + np.outer(xi, xi)
        assert np.max(np.abs(rep.W - want)) < 1e-10 * np.max(np.abs(want))

    def test_agreement_with_gramian_on_gps_scenario(self):
        """Excitation check passing implies the direct Gramian also passes."""
        cfg = gps_cfg()
        pe = check_gps_pe(cfg, t=0.0, delta=2.0)
        assert pe.passed
        rep = check_observability(cfg, delta=2.0, grid=[0.0])[0]
        assert rep.passed
