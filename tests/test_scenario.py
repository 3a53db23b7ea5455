import csv
import dataclasses
import warnings

import numpy as np
import pytest

from se5nav.cli import EXIT_CONFIG, EXIT_OBSERVABILITY, EXIT_OK, main
from se5nav.scenario import (
    SWEEP_CSV_SCHEMA,
    ConfigError,
    RunTrace,
    ScenarioConfig,
    bundled_config_path,
    check_observability,
    estimate_from_errors,
    parse_scenario,
    run_observer,
    run_scenario,
    sweep_agas,
    write_observability_csv,
    write_sweep_csv,
)
from se5nav.lie import so3_exp
from se5nav.observability import OBSV_CSV_SCHEMA
from se5nav.observer import ESTIMATE_CSV_SCHEMA, ObserverConfig, ObserverState
from se5nav.sensors import MEASUREMENT_CSV_SCHEMA, ChannelKind, ChannelSpec
from se5nav.trajectory import TRUTH_CSV_SCHEMA, TrajectorySpec, coupled_truth, simulate_truth, z_block

STEREO = bundled_config_path("stereo")
GPS = bundled_config_path("gps")


def short_cfg(**overrides):
    cfg = parse_scenario(STEREO).noiseless()
    overrides.setdefault("duration", 2.0)
    return dataclasses.replace(cfg, **overrides)


def perturbed_states(cfg, truth, n, seed=4):
    """cfg's initial state and n - 1 states at random errors from the truth."""
    rng = np.random.default_rng(seed)
    z0 = z_block(truth.p[0], truth.v[0])
    return [cfg.initial_state()] + [
        ObserverState(xhat=estimate_from_errors(truth.R[0], z0, so3_exp(rng.uniform(-2.0, 2.0, 3)),
                                                rng.uniform(-3.0, 3.0, (3, 5))),
                      pi=cfg.p0_scale * np.eye(5), t=0.0)
        for _ in range(n - 1)]


def assert_traces_equal(trace, ref):
    """Every array, measurement row, final state and stop of two RunTraces bit for bit."""
    for field in dataclasses.fields(RunTrace):
        a, b = getattr(trace, field.name), getattr(ref, field.name)
        if field.name == "measurements":
            assert len(a) == len(b)
            for (ta, ca, ya), (tb, cb, yb) in zip(a, b):
                assert ta == tb and ca == cb and np.array_equal(ya, yb)
        elif field.name == "final_state":
            assert a.t == b.t
            assert np.array_equal(a.rhat, b.rhat) and np.array_equal(a.zhat, b.zhat)
            assert np.array_equal(a.pi, b.pi)
        elif field.name == "stopped_at":
            assert a == b
        else:
            assert a.shape == b.shape and np.array_equal(a, b), field.name


class TestConfigParsing:
    def test_bundled_stereo(self):
        cfg = parse_scenario(STEREO)
        assert cfg.trajectory.kind == "eight"
        assert len(cfg.channels) == 5
        assert all(c.kind is ChannelKind.BODY_VECTOR for c in cfg.channels)
        assert cfg.observer.rho == (10.0, 6.0, 4.0)
        assert cfg.observer.q == 100.0
        assert cfg.observer.v == 10.0
        assert cfg.imu_noise_power == pytest.approx(0.1)
        assert cfg.phat0 == (1.0, 1.0, 1.0)

    def test_bundled_gps(self):
        cfg = parse_scenario(GPS)
        kinds = [c.kind for c in cfg.channels]
        assert kinds == [
            ChannelKind.BODY_VECTOR,
            ChannelKind.INERTIAL_POSITION,
            ChannelKind.INERTIAL_VELOCITY,
        ]
        assert cfg.channels[0].gamma == 0
        assert np.allclose(cfg.channels[0].xi_vec, [1 / np.sqrt(2), 0, 1 / np.sqrt(2)])
        assert np.allclose(cfg.channels[1].b_vec, [0.1, 0, 0])

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_scenario("/nonexistent/path.cfg")

    def test_all_problems_listed(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "[trajectory]\nkind = eight\n"
            "[channel.1]\nkind = warpdrive\n"
            "[observer]\nrho1 = 10\nrho2 = 6\n"  # rho3 missing, duration missing
        )
        with pytest.raises(ConfigError) as err:
            parse_scenario(bad)
        text = str(err.value)
        assert "warpdrive" in text
        assert "rho3" in text
        assert "duration" in text

    def test_invalid_values_not_silently_defaulted(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "[trajectory]\nkind = eight\n"
            "[observer]\nrho1 = 10\nrho2 = 6\nrho3 = 4\nduration = -5\n"
        )
        with pytest.raises(ConfigError):
            parse_scenario(bad)

    def test_noiseless_variant(self):
        cfg = parse_scenario(STEREO)
        assert cfg.noise
        assert not cfg.noiseless().noise

    def test_missing_keys_take_dataclass_defaults(self, tmp_path):
        path = tmp_path / "minimal.cfg"
        path.write_text(
            "[trajectory]\n[channel.1]\nkind = landmark\n"
            "[observer]\nrho1 = 3\nrho2 = 2\nrho3 = 1\nduration = 1.5\n"
        )
        trajectory = TrajectorySpec()
        assert parse_scenario(path) == ScenarioConfig(
            trajectory=trajectory,
            channels=(ChannelSpec(kind=ChannelKind.BODY_VECTOR),),
            observer=ObserverConfig(rho=(3.0, 2.0, 1.0), gravity=trajectory.gravity),
            duration=1.5,
        )

    @pytest.mark.parametrize("text,value", [("off", False), ("No", False), ("0", False),
                                            ("yes", True), ("TRUE", True), ("1", True)])
    def test_noise_flag(self, tmp_path, text, value):
        path = tmp_path / "flag.cfg"
        path.write_text(STEREO.read_text().replace("noise = on", f"noise = {text}"))
        assert parse_scenario(path).noise is value

    @pytest.mark.parametrize("field,value", [
        ("duration", 1e-4), ("duration", np.nan), ("duration", np.inf), ("trace_stride", 0),
        ("seed", -1), ("p0_scale", 0.0), ("p0_scale", np.nan), ("imu_noise_power", -1e-3),
    ])
    def test_domain_rules_hold_under_replace(self, field, value):
        with pytest.raises(ValueError, match=field.removeprefix("imu_")):
            dataclasses.replace(parse_scenario(STEREO), **{field: value})

    @pytest.mark.parametrize("cls,kwargs", [
        (ObserverConfig, {"dt": np.nan}), (ObserverConfig, {"q": np.nan}),
        (ObserverConfig, {"rho": (np.nan, 6.0, 4.0)}),
        (ChannelSpec, {"kind": ChannelKind.BODY_VECTOR, "noise_power": np.nan}),
        (TrajectorySpec, {"freq": (np.nan, 10.0, 10.0)}),
    ])
    def test_nan_fails_domain_rules(self, cls, kwargs):
        with pytest.raises(ValueError):
            cls(**kwargs)

    # each edit of stereo.cfg, and the section and key its message must name
    BAD_EDITS = [
        ("duration = 60.0", "duration = nan", "observer", "duration"),
        ("dt = 1e-3", "dt = nan", "observer", "dt"),
        ("amp = 1.0, 0.25, -0.4330127018922193", "amp = 1.0, 0.25", "trajectory", "amp"),
        ("xi = 2.0, 0.0, 0.0", "xi = 2.0, 0.0", "channel.1", "xi"),
        ("seed = 20260810", "seed = -1", "observer", "seed"),
        ("noise_power = 5e-2", "noise_power = nan", "channel.1", "noise_power"),
        ("q_scale = 100.0", "q_scale = inf", "observer", "q_scale"),
        ("p0_scale = 1.0", "p0_scale = -1", "observer", "p0_scale"),
        ("phat0 = 1.0, 1.0, 1.0", "phat0 = 1.0", "observer", "phat0"),
        ("duration = 60.0", "duration = 1e-4", "observer", "duration"),
        ("q_scale = 100.0", "q_scale = 100.0\nq_scal = 5", "observer", "q_scal"),
        ("noise = on", "noise = maybe", "observer", "noise"),
        ("gamma = 1", "gamma = 1.5", "channel.1", "gamma"),
        ("noise_power = 1e-1", "noise_power = -1", "imu", "noise_power"),
        ("[observer]", "[obsrever]\nx = 1\n[observer]", "obsrever", "x: unknown key"),
        ("duration = 60.0", "duration = 1e300", "observer", "duration"),
        ("dt = 1e-3", "dt = 1e-300", "observer", "duration"),
        # the run's config names a channel by position, not by its section
        ("xi = 2.0, 0.0, 0.0", "xi = 2.0, 0.0, 0.0\nrate = 1e-300", "channel.*", "rate"),
    ]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("old,new,section,key", BAD_EDITS, ids=[e[1] for e in BAD_EDITS])
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, command, old, new, section, key):
        text = STEREO.read_text()
        assert old in text
        path = tmp_path / "bad.cfg"
        path.write_text(text.replace(old, new, 1))
        assert main(["--out", str(tmp_path / "out"), command, str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"[{section}] {key}" in err and "Traceback" not in err


class TestRunObserver:
    def test_truth_dt_mismatch_rejected(self):
        cfg = short_cfg()
        truth = simulate_truth(cfg.trajectory, 1.0, 5e-4)
        with pytest.raises(ValueError):
            run_observer(cfg, truth)

    def test_early_stop_callback(self):
        cfg = short_cfg(trace_stride=10)
        truth = simulate_truth(cfg.trajectory, 2.0, cfg.observer.dt)
        trace = run_observer(cfg, truth, stop_when=lambda t, att, norms: t >= 0.5)
        assert trace.stopped_at == pytest.approx(0.5)
        assert trace.t[-1] == pytest.approx(0.5)

    def test_decimated_channel_updates_at_own_rate(self):
        cfg = short_cfg(trace_stride=1)
        slow = ChannelSpec(kind=ChannelKind.BODY_VELOCITY, rate=100.0)
        cfg = dataclasses.replace(cfg, channels=cfg.channels + (slow,))
        truth = simulate_truth(cfg.trajectory, 0.1, cfg.observer.dt)
        trace = run_observer(cfg, truth, record_measurements=True)
        slow_rows = [r for r in trace.measurements if r[1] == 5]
        assert len(slow_rows) == 10  # 100 Hz over 0.1 s
        ts = [r[0] for r in slow_rows]
        assert np.allclose(np.diff(ts), 0.01)

    @pytest.mark.parametrize("config,noise,duration,stop_run", [
        ("stereo", True, 0.3, None),  # noisy measurements and IMU
        ("gps", False, 0.1, None),    # R_s varies with time
        ("stereo", False, 0.6, 1),    # run 1 stops early, the others run on
    ])
    def test_batch_equals_single_runs_bit_for_bit(self, config, noise, duration, stop_run):
        cfg = dataclasses.replace(parse_scenario(bundled_config_path(config)), duration=duration,
                                  noise=noise, trace_stride=3)
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        inits = perturbed_states(cfg, truth, 3)
        stops = [(lambda t, att, norms: t >= 0.3) if i == stop_run else None for i in range(3)]
        batch = run_observer(cfg, truth, inits, stops, record_measurements=True)
        assert len(batch) == 3
        for init, stop_when, trace in zip(inits, stops, batch):
            assert_traces_equal(trace, run_observer(cfg, truth, init, stop_when, record_measurements=True))
        if stop_run is not None:
            assert batch[stop_run].stopped_at == pytest.approx(0.3)
            assert batch[stop_run].t.size < batch[0].t.size
        # without its rows a trace keeps its last record, stop and final state
        for short, trace in zip(run_observer(cfg, truth, inits, stops, record_measurements=True,
                                             keep_rows=False), batch):
            last = {f.name: getattr(trace, f.name)[-1:] for f in dataclasses.fields(RunTrace)
                    if isinstance(getattr(trace, f.name), np.ndarray)}
            assert_traces_equal(short, dataclasses.replace(trace, **last))

    def test_batch_must_share_pi_and_t(self):
        cfg = short_cfg(duration=0.01)
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        init = cfg.initial_state()
        for other in (dataclasses.replace(init, pi=2.0 * np.eye(5)), dataclasses.replace(init, t=1.0)):
            with pytest.raises(ValueError, match="share pi and t"):
                run_observer(cfg, truth, [init, other])
        with pytest.raises(ValueError, match="one stop_when per state"):
            run_observer(cfg, truth, [init, init], [None])

    def test_noise_off_silences_the_imu(self):
        cfg = short_cfg(duration=0.2, trace_stride=1)
        assert cfg.imu_noise_power > 0
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        quiet = run_observer(dataclasses.replace(cfg, imu_noise_power=0.0), truth)
        trace = run_observer(cfg, truth)
        for name in ("phat", "vhat", "rhat", "ehat", "mineig_p"):
            assert np.array_equal(getattr(trace, name), getattr(quiet, name)), name

    @pytest.mark.parametrize("coupled", [False, True])
    def test_divergence_carries_state_at_failing_step(self, coupled, monkeypatch):
        import se5nav.observer as observer

        cfg = short_cfg(duration=0.02)
        make_truth = coupled_truth if coupled else simulate_truth
        truth = make_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)

        def run(stride):
            return run_observer(dataclasses.replace(cfg, trace_stride=stride), truth)

        clean = run(1)
        finalize = observer._finalize_step
        calls = []

        def fail_at_step_7(x, pi, t):
            calls.append(t)
            if len(calls) == 8:
                raise observer.DivergenceError(f"injected at t={t:.4f}")
            return finalize(x, pi, t)

        monkeypatch.setattr(observer, "_finalize_step", fail_at_step_7)
        with pytest.raises(observer.DivergenceError, match="t=0.0070") as exc:
            run(5)  # step 7 is not a recorded step
        state = exc.value.state
        assert state.t == clean.t[7]
        assert np.array_equal(state.rhat, clean.rhat[7])
        assert np.array_equal(state.phat, clean.phat[7])
        assert np.array_equal(state.vhat, clean.vhat[7])

        # in a batch of three, a NaN in run 1 alone names run 1 and carries its state
        inits = perturbed_states(cfg, truth, 3)
        monkeypatch.setattr(observer, "_finalize_step", finalize)
        clean = run_observer(dataclasses.replace(cfg, trace_stride=1), truth, inits)[1]
        calls.clear()

        def nan_in_run_1_at_step_7(x, pi, t):
            calls.append(t)
            if len(calls) == 8:
                x[1, 0, 3] = np.nan
            return finalize(x, pi, t)

        monkeypatch.setattr(observer, "_finalize_step", nan_in_run_1_at_step_7)
        with pytest.raises(observer.DivergenceError, match="run 1: non-finite estimate at t=0.0070") as exc:
            run_observer(dataclasses.replace(cfg, trace_stride=5), truth, inits)
        state = exc.value.state
        assert exc.value.run == 1
        assert state.t == clean.t[7]
        assert np.array_equal(state.rhat, clean.rhat[7])
        assert np.array_equal(state.phat, clean.phat[7])
        assert np.array_equal(state.vhat, clean.vhat[7])

    def test_estimate_from_errors_inverts_error_map(self):
        rng = np.random.default_rng(3)
        truth_r = so3_exp(rng.standard_normal(3))
        truth_z = rng.standard_normal((3, 5))
        rtilde = so3_exp(rng.standard_normal(3))
        ztilde = rng.standard_normal((3, 5))
        xhat = estimate_from_errors(truth_r, truth_z, rtilde, ztilde)
        assert np.allclose(truth_r @ xhat.rotation.T, rtilde, atol=1e-13)
        assert np.allclose(truth_z - rtilde @ xhat.translation, ztilde, atol=1e-13)


class TestRunScenario:
    def test_writes_all_traces(self, tmp_path):
        cfg = short_cfg(trace_stride=100)
        summary = run_scenario(cfg, out_dir=tmp_path)
        for name in ("truth.csv", "measurements.csv", "estimate.csv", "summary.json"):
            assert (tmp_path / name).exists(), name
        assert summary.rmse_p >= 0.0
        est = (tmp_path / "estimate.csv").read_text().splitlines()
        assert est[0].startswith("# se5nav-estimate-v")
        assert est[1].split(",")[0] == "t"

    def test_byte_identical_given_seed(self, tmp_path):
        cfg = dataclasses.replace(parse_scenario(STEREO), duration=1.0, trace_stride=100)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_scenario(cfg, out_dir=d1)
        run_scenario(cfg, out_dir=d2)
        for name in ("truth.csv", "measurements.csv", "estimate.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_truth_and_estimate_record_the_same_steps(self, tmp_path):
        # 105 steps, not a multiple of the stride: both traces end at the last step
        cfg = dataclasses.replace(parse_scenario(STEREO), duration=0.105, trace_stride=10)
        run_scenario(cfg, out_dir=tmp_path)
        truth_t = [row[0] for row in read_table(tmp_path / "truth.csv", TRUTH_CSV_SCHEMA)[1]]
        estimate_t = [row[0] for row in read_table(tmp_path / "estimate.csv", ESTIMATE_CSV_SCHEMA)[1]]
        assert truth_t == estimate_t
        assert len(truth_t) == 12 and float(truth_t[-1]) == pytest.approx(0.105)

    def test_seed_changes_noisy_traces(self, tmp_path):
        base = dataclasses.replace(parse_scenario(STEREO), duration=0.5, trace_stride=100)
        other = dataclasses.replace(base, seed=base.seed + 1)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_scenario(base, out_dir=d1)
        run_scenario(other, out_dir=d2)
        assert (d1 / "estimate.csv").read_bytes() != (d2 / "estimate.csv").read_bytes()


def read_table(path, schema):
    """(header, rows) of a CSV table written under `schema`, its cells as text."""
    lines = path.read_text().splitlines()
    assert lines[0] == f"# {schema}"
    header, *rows = csv.reader(lines[1:])
    return header, rows


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestTables:
    """Every table reads back bit for bit what the program computed."""

    def test_run_tables(self, tmp_path):
        cfg = parse_scenario(GPS)  # noisy; its magnetometer decimated to 50 Hz
        cfg = dataclasses.replace(cfg, duration=0.5,
                                  channels=(dataclasses.replace(cfg.channels[0], rate=50.0), *cfg.channels[1:]))
        run_scenario(cfg, tmp_path)
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        trace = run_observer(cfg, truth, record_measurements=True)

        header, rows = read_table(tmp_path / "truth.csv", TRUTH_CSV_SCHEMA)
        assert len(header) == 22
        want = np.column_stack([truth.t, truth.p, truth.v, truth.R.reshape(-1, 9), truth.omega, truth.aB])
        assert bits([[float(c) for c in row] for row in rows]) == bits(want[::cfg.trace_stride])

        header, rows = read_table(tmp_path / "estimate.csv", ESTIMATE_CSV_SCHEMA)
        assert len(header) == 32 and len(rows) == trace.t.size
        want = np.column_stack([trace.t, trace.phat, trace.vhat, trace.rhat.reshape(-1, 9),
                                trace.ehat.reshape(-1, 9), trace.att_err, trace.col_norms, trace.mineig_p])
        assert bits([[float(c) for c in row] for row in rows]) == bits(want)

        header, rows = read_table(tmp_path / "measurements.csv", MEASUREMENT_CSV_SCHEMA)
        assert header == ["t", "channel", "yx", "yy", "yz"]
        assert len(rows) == len(trace.measurements)
        assert len({ch for _, ch, _ in trace.measurements}) == len(cfg.channels)
        for (t, ch, *y), (t_want, ch_want, y_want) in zip(rows, trace.measurements):
            assert int(ch) == ch_want
            assert bits([float(t), *map(float, y)]) == bits([t_want, *y_want])

    def test_sweep_table(self, tmp_path):
        rows = sweep_agas(short_cfg(duration=2.5), n_runs=5, seed=0)  # too short for some runs to converge
        assert any(r.settle_time_s is None for r in rows)
        write_sweep_csv(rows, tmp_path / "sweep.csv")
        header, cells = read_table(tmp_path / "sweep.csv", SWEEP_CSV_SCHEMA)
        assert header == ["run", "init_angle_rad", "init_p_err", "init_v_err", "converged", "settle_time_s"]
        assert len(cells) == len(rows)
        for (run, angle, p_err, v_err, converged, settle), r in zip(cells, rows):
            assert int(run) == r.run and int(converged) == r.converged
            assert bits([float(angle), float(p_err), float(v_err)]) == bits(
                [r.init_angle_rad, r.init_p_err, r.init_v_err])
            if r.settle_time_s is None:
                assert settle == ""
            else:
                assert bits(float(settle)) == bits(r.settle_time_s)

    def test_observability_table(self, tmp_path):
        reports = check_observability(parse_scenario(GPS), delta=1.0, grid=[0.0, 2.5, 7.25])
        write_observability_csv(reports, tmp_path / "observability.csv")
        header, rows = read_table(tmp_path / "observability.csv", OBSV_CSV_SCHEMA)
        assert header == ["t", "delta", "mu", "pass"]
        assert len(rows) == len(reports)
        for (t, delta, mu, passed), r in zip(rows, reports):
            assert bits([float(t), float(delta), float(mu)]) == bits([r.t, r.delta, r.mu])
            assert int(passed) == r.passed


class TestEquilibriumVariant:
    def test_zero_noise_perfect_init_stays_at_truth(self):
        """Noiseless bundled scenario started exactly on the truth stays
        there: every reported error below 1e-6 throughout."""
        base = parse_scenario(STEREO).noiseless()
        spec = base.trajectory
        from se5nav.trajectory import eval_trajectory

        p0, v0, _ = eval_trajectory(spec, 0.0)
        cfg = dataclasses.replace(
            base, duration=10.0,
            phat0=tuple(p0), vhat0=tuple(v0),
            rhat0_rotvec=tuple(spec.r0_rotvec),
        )
        summary = run_scenario(cfg)
        assert summary.rmse_att < 1e-6
        assert summary.rmse_p < 1e-6
        assert summary.rmse_v < 1e-6
        assert summary.time_to_att_threshold == 0.0
        assert summary.time_to_pos_threshold == 0.0


class TestAntipodalBoundary:
    def test_pi_attitude_error_reported_not_failed(self, capsys):
        """An initial attitude error of exactly pi about e3 sits near the
        unstable set: the run must stay healthy; slow or stalled
        convergence is reported, not treated as a failure."""
        cfg = short_cfg(duration=20.0)
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        truth0 = truth.state(0)
        rtilde = so3_exp(np.pi * np.array([0.0, 0.0, 1.0]))
        init = ObserverState(
            xhat=estimate_from_errors(truth0.R, truth0.z, rtilde, np.zeros((3, 5))),
            pi=np.eye(5), t=0.0,
        )
        trace = run_observer(dataclasses.replace(cfg, trace_stride=100), truth, init)
        assert np.isfinite(trace.att_err).all()
        assert trace.mineig_p.min() > 0.0
        converged = trace.att_err[-1] < 1e-2 and trace.col_norms[-1, 0] < 1e-2
        print(f"antipodal start: final attitude error {trace.att_err[-1]:.3e} rad, "
              f"{'converged' if converged else 'slow/stalled (tolerated)'}")


class TestSweep:
    def test_zero_error_run_converges_trivially(self):
        cfg = short_cfg(duration=5.0)
        rows = sweep_agas(cfg, n_runs=1, seed=0, max_angle_rad=1e-9, translation_ball=1e-9)
        assert rows[0].converged
        assert rows[0].settle_time_s == pytest.approx(0.0)

    def test_rows_are_deterministic(self):
        cfg = short_cfg(duration=10.0)
        a = sweep_agas(cfg, n_runs=2, seed=5)
        b = sweep_agas(cfg, n_runs=2, seed=5)
        for ra, rb in zip(a, b):
            assert ra.init_angle_rad == rb.init_angle_rad
            assert ra.settle_time_s == rb.settle_time_s

    def test_rows_equal_single_runs_under_the_dwell_rule(self, monkeypatch):
        import se5nav.scenario as scenario

        cfg = short_cfg(duration=2.5)  # too short for some runs to converge
        batches = []

        def spy(cfg, truth, inits, stops, **kwargs):
            batches.append(inits)
            return run_observer(cfg, truth, inits, stops, **kwargs)

        monkeypatch.setattr(scenario, "run_observer", spy)
        rows = sweep_agas(cfg, n_runs=5, seed=0)
        assert [len(b) for b in batches] == [5]
        assert 0 < sum(r.converged for r in rows) < 5
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        dwell = round(scenario.CONVERGENCE_DWELL_S / (cfg.observer.dt * cfg.trace_stride))
        for row, init in zip(rows, batches[0]):
            streak, settle = 0, None

            def stop_when(t, att, norms):
                nonlocal streak, settle
                below = att < scenario.ATT_THRESHOLD_RAD and norms[0] < scenario.POS_THRESHOLD_M
                streak = streak + 1 if below else 0
                settle = (t if streak == 1 else settle) if below else None
                return streak >= dwell

            trace = run_observer(cfg, truth, init, stop_when)
            assert row.converged == (trace.stopped_at is not None)
            assert row.settle_time_s == (settle if row.converged else None)

    def test_batch_cap_splits_runs_into_equal_rows(self, monkeypatch):
        import se5nav.scenario as scenario

        cfg = short_cfg(duration=2.5)
        whole = sweep_agas(cfg, n_runs=5, seed=0)
        calls = []

        def counted(cfg, truth, inits, stops, **kwargs):
            calls.append(len(inits))
            return run_observer(cfg, truth, inits, stops, **kwargs)

        monkeypatch.setattr(scenario, "run_observer", counted)
        monkeypatch.setattr(scenario, "_SWEEP_BATCH", 2)
        assert sweep_agas(cfg, n_runs=5, seed=0) == whole
        assert calls == [2, 2, 1]

    def test_requires_at_least_one_run(self):
        with pytest.raises(ValueError):
            sweep_agas(short_cfg(), n_runs=0)


class TestCli:
    def test_validate_ok(self, capsys):
        assert main(["validate", str(STEREO)]) == EXIT_OK
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[observer]\nrho1 = 1\n")
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(STEREO.read_text().replace("duration = 60.0", "duration = 0.5"))
        assert main(["--out", str(tmp_path / "out"), "run", str(cfg)]) == EXIT_OK
        assert (tmp_path / "out" / "tiny-run" / "estimate.csv").exists()

    def test_obsv_subcommand_pass_and_fail(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "obsv", str(STEREO),
                     "--delta", "1.0", "--grid", "0"]) == EXIT_OK
        # a single fixed direction cannot excite the full state
        weak = tmp_path / "weak.cfg"
        weak.write_text(
            "[trajectory]\nkind = eight\n"
            "[channel.1]\nkind = body_vector\nxi = 0.7, 0.0, 0.7\ngamma = 0\n"
            "[observer]\nrho1 = 10\nrho2 = 6\nrho3 = 4\nduration = 1.0\n"
        )
        assert main(["--out", str(tmp_path), "obsv", str(weak),
                     "--delta", "1.0", "--grid", "0"]) == EXIT_OBSERVABILITY

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(STEREO.read_text().replace("duration = 60.0", "duration = 5.0"))
        code = main(["--out", str(tmp_path / "out"), "sweep", str(cfg),
                     "--runs", "2", "--seed", "3", "--max-angle-deg", "30"])
        assert code == EXIT_OK
        sweep_csv = tmp_path / "out" / "tiny-sweep" / "sweep.csv"
        assert sweep_csv.exists()
        assert "converged 2/2" in capsys.readouterr().out

    def test_divergence_exit_code(self, tmp_path, capsys):
        from se5nav.cli import EXIT_DIVERGED

        # a grossly oversized step destabilizes the gain update immediately
        cfg = tmp_path / "unstable.cfg"
        cfg.write_text(
            STEREO.read_text()
            .replace("dt = 1e-3", "dt = 0.1")
            .replace("duration = 60.0", "duration = 1.0")
        )
        assert main(["--out", str(tmp_path / "out"), "run", str(cfg)]) == EXIT_DIVERGED
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["obsv", str(STEREO), "--delta", "0"],
        ["obsv", str(STEREO), "--grid=abc"],
        ["obsv", str(GPS), "--grid=-1"],
        ["sweep", str(STEREO), "--runs", "0"],
        ["sweep", str(STEREO), "--seed", "-1"],
        ["sweep", str(STEREO), "--max-angle-deg", "nan"],
        ["sweep", str(STEREO), "--max-angle-deg", "1e400"],
        ["sweep", str(STEREO), "--ball", "nan"],
        ["sweep", str(STEREO), "--ball", "-5"],
        ["obsv", str(STEREO), "--mu", "nan"],
    ])
    def test_bad_arguments_exit_2_with_message(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path)] + argv)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_obsv_window_shorter_than_step(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "obsv", str(GPS),
                     "--delta", "1e-4", "--grid", "0"]) == EXIT_CONFIG
        assert "dt" in capsys.readouterr().err

    @pytest.mark.parametrize("config, flags", [
        (STEREO, ["--delta", "1e9", "--grid", "0"]),
        (GPS, ["--delta", "1e9", "--grid", "0"]),
        (GPS, ["--grid", "1e300"]),
        (STEREO, ["--delta", "1e308", "--grid", "0"]),
    ])
    def test_obsv_window_beyond_a_run(self, config, flags, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "obsv", str(config)] + flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--grid" in err and "--delta" in err and "Traceback" not in err

    def test_non_finite_estimate_exits_3_without_warnings(self, tmp_path, capsys):
        from se5nav.cli import EXIT_DIVERGED

        cfg = tmp_path / "huge.cfg"
        cfg.write_text(STEREO.read_text().replace("duration = 60.0", "duration = 1.0")
                       .replace("phat0 = 1.0, 1.0, 1.0", "phat0 = 1e300, 0, 0"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--out", str(tmp_path / "out"), "run", str(cfg)]) == EXIT_DIVERGED
        assert "non-finite" in capsys.readouterr().err

    def test_huge_translation_ball_exits_3_without_warnings(self, tmp_path, capsys):
        from se5nav.cli import EXIT_DIVERGED

        # the initial errors' norms overflow float64
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--out", str(tmp_path), "sweep", str(STEREO), "--runs", "1",
                         "--ball", "1e308"]) == EXIT_DIVERGED
        assert "run diverged" in capsys.readouterr().err

    def test_output_root_env_var(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(STEREO.read_text().replace("duration = 60.0", "duration = 0.5"))
        monkeypatch.setenv("SE5NAV_OUT", str(tmp_path / "envroot"))
        assert main(["run", str(cfg)]) == EXIT_OK
        assert (tmp_path / "envroot" / "tiny-run" / "summary.json").exists()

