import csv
import dataclasses
import os
import signal
import warnings
from contextlib import contextmanager

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
from se5nav.lie import SEn, so3_exp
from se5nav.observability import OBSV_CSV_SCHEMA
from se5nav.observer import ESTIMATE_CSV_SCHEMA, ObserverConfig, error_arrays
from se5nav.sensors import MEASUREMENT_CSV_SCHEMA, ChannelKind, ChannelSpec
from se5nav.trajectory import (TRUTH_CSV_SCHEMA, TrajectorySpec, coupled_truth, eval_trajectory, record_steps,
                               signals, simulate_truth, z_block)

STEREO = bundled_config_path("stereo")
GPS = bundled_config_path("gps")


def short_cfg(**overrides):
    cfg = parse_scenario(STEREO).noiseless()
    overrides.setdefault("duration", 2.0)
    return dataclasses.replace(cfg, **overrides)


def perturbed_estimates(cfg, truth, n, seed=4):
    """cfg's initial estimate and n - 1 estimates at random errors from the truth."""
    rng = np.random.default_rng(seed)
    z0 = z_block(*truth.pose(0)[1:])
    return [cfg.initial_estimate()] + [
        estimate_from_errors(truth.R[0], z0, so3_exp(rng.uniform(-2.0, 2.0, 3)), rng.uniform(-3.0, 3.0, (3, 5)))
        for _ in range(n - 1)]


def assert_traces_equal(trace, ref):
    """Every array, measurement row, final state, stop and failure of two RunTraces bit for bit."""
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
        elif field.name in ("stopped_at", "failure"):
            assert a == b, field.name
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
        assert parse_scenario(path) == ScenarioConfig(
            trajectory=TrajectorySpec(),
            channels=(ChannelSpec(kind=ChannelKind.BODY_VECTOR),),
            observer=ObserverConfig(rho=(3.0, 2.0, 1.0)),
            duration=1.5,
        )

    def test_channels_take_the_order_of_their_numbers(self, tmp_path):
        path = tmp_path / "eleven.cfg"
        path.write_text("[trajectory]\n" + "".join(f"[channel.{n}]\nkind = landmark\nxi = {n}, 0, 0\n"
                                                    for n in range(1, 12))
                        + "[observer]\nrho1 = 3\nrho2 = 2\nrho3 = 1\nduration = 1.5\n")
        assert [ch.xi[0] for ch in parse_scenario(path).channels] == list(range(1, 12))

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
        ("settle_window = 20.0", "settle_window = -5", "observer", "settle_window"),
        # the run's config names a channel by position, not by its section
        ("xi = 2.0, 0.0, 0.0", "xi = 2.0, 0.0, 0.0\nrate = 1e-300", "channel.*", "rate"),
        ("[channel.1]", "[channel.x]", "channel.x", "channel number"),
        ("[channel.1]", "[channel.0]", "channel.0", "channel number"),
        ("[channel.2]", "[channel.01]", "channel.01", "channel number"),
        ("[observer]", "[observr]\n[observer]", "observr", "unknown section"),
        ("[observer]", "[DEFAULT]\nseed = 4\n[observer]", "DEFAULT", "unknown section"),
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
        [trace] = run_observer(cfg, truth, stop_when=lambda t, runs, att, norms: t >= 0.5)
        assert trace.stopped_at == pytest.approx(0.5)
        assert trace.t[-1] == pytest.approx(0.5)

    def test_decimated_channel_updates_at_own_rate(self):
        cfg = short_cfg(trace_stride=1)
        slow = ChannelSpec(kind=ChannelKind.BODY_VELOCITY, rate=100.0)
        cfg = dataclasses.replace(cfg, channels=cfg.channels + (slow,))
        truth = simulate_truth(cfg.trajectory, 0.1, cfg.observer.dt)
        [trace] = run_observer(cfg, truth)
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
        # and a fourth state whose position error is too large: its estimate turns non-finite early
        start = cfg.initial_estimate()
        huge = SEn(start.rotation, z_block((1e4, 0.0, 0.0), start.translation[:, 1]))
        estimates = perturbed_estimates(cfg, truth, 3) + [huge]
        calls = []

        def stop_when(t, runs, att, norms):  # runs: the batch positions of the live runs
            calls.append(t)
            return (runs == stop_run) & (t >= 0.3)

        batch = run_observer(cfg, truth, estimates, stop_when)
        assert len(batch) == 4 and len(calls) == batch[0].t.size  # once per record for the whole batch
        assert [trace.failure is not None for trace in batch] == [False, False, False, True]
        assert batch[3].t.size < batch[0].t.size and batch[3].stopped_at is None
        for i, (init, trace) in enumerate(zip(estimates, batch)):
            [alone] = run_observer(cfg, truth, [init], lambda t, runs, att, norms: i == stop_run and t >= 0.3)
            assert_traces_equal(trace, alone)
        if stop_run is not None:
            assert batch[stop_run].stopped_at == pytest.approx(0.3)
            assert batch[stop_run].t.size < batch[0].t.size
        # without its rows a trace keeps its last record, stop and final state, and no measurements
        for short, trace in zip(run_observer(cfg, truth, estimates, stop_when, keep_rows=False), batch):
            last = {f.name: getattr(trace, f.name)[-1:] for f in dataclasses.fields(RunTrace)
                    if isinstance(getattr(trace, f.name), np.ndarray)}
            assert_traces_equal(short, dataclasses.replace(trace, measurements=[], **last))

    @pytest.mark.parametrize("coupled", [False, True])
    @pytest.mark.parametrize("duration", [0.128, 0.1])  # 128 steps, two whole chunks, and 100
    def test_trace_truth_attitude_is_the_truths(self, coupled, duration):
        import se5nav.scenario as scenario

        cfg = short_cfg(duration=duration, trace_stride=7)
        truth = (coupled_truth if coupled else simulate_truth)(cfg.trajectory, duration, cfg.observer.dt)
        n = len(truth) - 1
        assert (n % scenario._CHUNK_STEPS == 0) == (n == 128)
        ks = record_steps(n, cfg.trace_stride)
        estimates = perturbed_estimates(cfg, truth, 3)
        kept = run_observer(cfg, truth, estimates)
        expected = truth.pose(ks)[0]
        for trace in kept:
            assert np.array_equal(trace.truth_r, expected)

        # without rows, each trace keeps the pose of the record it ended at; run 2 runs to step n
        def stop_rule(t, runs, att, norms):
            return (runs < 2) & (t >= 0.03 * (runs + 1))

        short = run_observer(cfg, truth, estimates, stop_rule, keep_rows=False)
        assert [trace.stopped_at is not None for trace in short] == [True, True, False]
        for trace in short:
            assert np.array_equal(trace.truth_r, expected[truth.t[ks] == trace.t[0]])

    def test_batch_needs_an_estimate(self):
        cfg = short_cfg(duration=0.01)
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        with pytest.raises(ValueError, match="at least one estimate"):
            run_observer(cfg, truth, [])

    def test_a_batch_starts_from_the_configs_p0(self):
        cfg = short_cfg(duration=0.01, p0_scale=2.5)
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)

        def first_record(t, runs, att, norms):
            return True

        for traces in (run_observer(cfg, truth, stop_when=first_record),
                       run_observer(cfg, truth, perturbed_estimates(cfg, truth, 2), first_record)):
            for trace in traces:
                assert trace.stopped_at == truth.t[0] == trace.final_state.t
                assert np.array_equal(trace.final_state.pi, 2.5 * np.eye(5))

    def test_observer_takes_gravity_from_the_trajectory(self, tmp_path):
        path = tmp_path / "east.cfg"
        path.write_text(STEREO.read_text().replace("gravity = 0.0, 0.0, 9.81", "gravity = 0, 9.81, 0"))
        cfg = dataclasses.replace(parse_scenario(path).noiseless(), duration=0.5)
        assert cfg.trajectory.gravity == (0.0, 9.81, 0.0)
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        start = SEn(truth.R[0], z_block(*truth.pose(0)[1:]))
        assert run_observer(cfg, truth, [start])[0].col_norms[:, 0].max() < 1e-6

    def test_noise_off_silences_the_imu(self):
        cfg = short_cfg(duration=0.2, trace_stride=1)
        assert cfg.imu_noise_power > 0
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        [quiet] = run_observer(dataclasses.replace(cfg, imu_noise_power=0.0), truth)
        [trace] = run_observer(cfg, truth)
        for name in ("phat", "vhat", "rhat", "ehat", "mineig_p"):
            assert np.array_equal(getattr(trace, name), getattr(quiet, name)), name

    @pytest.mark.parametrize("coupled", [False, True])
    def test_divergence_carries_state_at_failing_step(self, coupled, monkeypatch):
        import se5nav.scenario as scenario

        cfg = short_cfg(duration=0.02)
        make_truth = coupled_truth if coupled else simulate_truth
        truth = make_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)

        def run(stride, estimates=None):
            return run_observer(dataclasses.replace(cfg, trace_stride=stride), truth, estimates)

        [clean] = run(1)
        finalize = scenario._finalize_step
        calls = []

        def nan_in_row_at_step_7(row):
            def finalize_step(x):
                calls.append(x.shape)
                if len(calls) == 8:
                    x[row, 0, 3] = np.nan
                return finalize(x)
            return finalize_step

        monkeypatch.setattr(scenario, "_finalize_step", nan_in_row_at_step_7(0))
        [failed] = run(5)  # step 7 is not a recorded step
        assert failed.failure == "non-finite estimate at t=0.0070" and failed.stopped_at is None
        assert failed.t[-1] == clean.t[5]  # the rows end at the last record before the failing step
        state = failed.final_state
        assert state.t == clean.t[7]
        assert np.array_equal(state.rhat, clean.rhat[7])
        assert np.array_equal(state.phat, clean.phat[7])
        assert np.array_equal(state.vhat, clean.vhat[7])

        # in a batch of three, a NaN in run 1 alone fails run 1 with its state; the others run on
        estimates = perturbed_estimates(cfg, truth, 3)
        monkeypatch.setattr(scenario, "_finalize_step", finalize)
        clean, untouched = run(1, estimates)[1], run(5, estimates)
        calls.clear()
        monkeypatch.setattr(scenario, "_finalize_step", nan_in_row_at_step_7(1))
        batch = run(5, estimates)
        assert [trace.failure for trace in batch] == [None, "non-finite estimate at t=0.0070", None]
        state = batch[1].final_state
        assert state.t == clean.t[7]
        assert np.array_equal(state.rhat, clean.rhat[7])
        assert np.array_equal(state.phat, clean.phat[7])
        assert np.array_equal(state.vhat, clean.vhat[7])
        for i in (0, 2):
            assert_traces_equal(batch[i], untouched[i])

    def test_a_failing_pi_ends_every_run_each_with_its_own_reason(self, monkeypatch):
        import se5nav.observer as observer
        import se5nav.scenario as scenario

        cfg = short_cfg(duration=0.02, trace_stride=5)
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        estimates = perturbed_estimates(cfg, truth, 3)
        clean = run_observer(dataclasses.replace(cfg, trace_stride=1), truth, estimates)
        check_pd, finalize = observer._check_pd, scenario._finalize_step
        calls = []

        def pi_fails_at_step_7(pi, t):  # Pi at the end of step 7 fails
            healthy, failure = check_pd(pi, t)
            return (7, f"injected at t={t[7]:.4f}") if len(t) > 7 else (healthy, failure)

        def nan_in_run_1_at_step_7(x):  # and in the same step run 1's estimate turns non-finite
            calls.append(x.shape)
            if len(calls) == 8:
                x[1, 0, 3] = np.nan
            return finalize(x)

        monkeypatch.setattr(observer, "_check_pd", pi_fails_at_step_7)
        monkeypatch.setattr(scenario, "_finalize_step", nan_in_run_1_at_step_7)
        batch = run_observer(cfg, truth, estimates)
        assert len(calls) == 8
        assert [trace.failure for trace in batch] == [
            "injected at t=0.0070", "non-finite estimate at t=0.0070", "injected at t=0.0070"]
        for trace, alone in zip(batch, clean):
            assert trace.final_state.t == truth.t[7] and trace.t[-1] == truth.t[5]
            assert np.array_equal(trace.final_state.rhat, alone.rhat[7])

    def test_chunk_size_changes_nothing(self, monkeypatch):
        import se5nav.observer as observer
        import se5nav.scenario as scenario

        noisy = dataclasses.replace(parse_scenario(STEREO), duration=0.3, trace_stride=1)
        noisy_truth = simulate_truth(noisy.trajectory, noisy.duration, noisy.observer.dt)
        cfg = short_cfg(duration=0.3, trace_stride=2)
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        estimates = perturbed_estimates(cfg, truth, 3)
        check_pd = observer._check_pd

        def fail_at_step_70(pi, t):  # Pi passes at every step but step 70 (t = 0.07)
            healthy, failure = check_pd(pi, t)
            j = int(np.searchsorted(t, truth.t[70]))
            if j < min(healthy, len(t)) and t[j] == truth.t[70]:
                return j, f"injected at t={t[j]:.4f}"
            return healthy, failure

        results = []
        for size in (64, 7, 1):
            monkeypatch.setattr(scenario, "_CHUNK_STEPS", size)
            monkeypatch.setattr(observer, "_check_pd", check_pd)
            runs = run_observer(noisy, noisy_truth) + run_observer(cfg, truth, estimates)
            monkeypatch.setattr(observer, "_check_pd", fail_at_step_70)
            results.append((runs, run_observer(cfg, truth, estimates)))
        (runs, failed), others = results[0], results[1:]
        for trace, clean in zip(failed, runs[1:]):  # a failing Pi ends every run at its step
            assert trace.failure == "injected at t=0.0700"
            assert trace.final_state.t == truth.t[70]
            assert np.array_equal(trace.final_state.rhat, clean.rhat[35])
        for other_runs, other_failed in others:
            for trace, other in zip(runs + failed, other_runs + other_failed):
                assert_traces_equal(other, trace)

    def test_estimate_from_errors_inverts_error_map(self):
        rng = np.random.default_rng(3)
        truth_r = so3_exp(rng.standard_normal(3))
        truth_z = rng.standard_normal((3, 5))
        rtilde = so3_exp(rng.standard_normal(3))
        ztilde = rng.standard_normal((3, 5))
        xhat = estimate_from_errors(truth_r, truth_z, rtilde, ztilde)
        assert np.allclose(truth_r @ xhat.rotation.T, rtilde, atol=1e-13)
        assert np.allclose(truth_z - rtilde @ xhat.translation, ztilde, atol=1e-13)


@contextmanager
def deadline(seconds):
    """TimeoutError instead of a hang if the block takes longer than `seconds`."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestGainWorker:
    """run_observer takes its gains from a worker process that os.fork makes (scenario._ahead):
    the worker ends with every run, its errors reach the caller, and the outputs are those of
    the same generator run in this process where there is no os.fork."""

    @pytest.fixture(autouse=True)
    def no_hang(self):
        with deadline(120):
            yield

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_process_outlives_a_run(self, monkeypatch):
        import se5nav.observer as observer

        cfg = short_cfg(duration=0.3)
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        [trace] = run_observer(cfg, truth)
        assert trace.failure is None and trace.stopped_at is None
        self.assert_no_child()

        # a sweep batch that stops on the dwell rule, long before the horizon and the worker's last chunk
        rows = sweep_agas(parse_scenario(STEREO), n_runs=3, seed=1)
        assert all(row.converged and row.settle_time_s < 10.0 for row in rows)
        self.assert_no_child()

        def stop_rule_raises(t, runs, att, norms):
            if t >= 0.1:
                raise KeyError("stop rule")
            return False

        with pytest.raises(KeyError, match="stop rule") as raised:  # holds the traceback, and the run's frame
            run_observer(cfg, truth, stop_when=stop_rule_raises)
        self.assert_no_child()

        monkeypatch.setattr(observer, "_check_pd", lambda pi, t: (min(3, len(t)), "injected"))
        [failed] = run_observer(cfg, truth)
        assert failed.failure == "injected" and failed.final_state.t == truth.t[3]
        self.assert_no_child()

    @pytest.mark.parametrize("forked", [True, False])
    def test_an_error_in_the_worker_reaches_the_caller(self, forked, monkeypatch):
        import se5nav.trajectory as trajectory

        def boom(truth, k0, k1):
            raise ValueError("boom")

        if not forked:
            monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(trajectory.TruthRun, "stages", boom)  # the producer's read of the truth
        cfg = short_cfg(duration=0.3)
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        with pytest.raises(ValueError, match="^boom$") as raised:  # holds the traceback, and the run's frame
            run_observer(cfg, truth)
        self.assert_no_child()

    def test_a_killed_worker_is_a_runtime_error(self, monkeypatch):
        import se5nav.trajectory as trajectory

        caller, stages = os.getpid(), trajectory.TruthRun.stages

        def killed_at_second_chunk(truth, k0, k1):
            if k0 > 0 and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return stages(truth, k0, k1)

        monkeypatch.setattr(trajectory.TruthRun, "stages", killed_at_second_chunk)
        cfg = short_cfg(duration=0.3)
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        with pytest.raises(RuntimeError, match="gain worker process [0-9]+ ended"):
            run_observer(cfg, truth)
        self.assert_no_child()

    def test_the_main_process_builds_no_truth_attitude(self, monkeypatch, tmp_path):
        import se5nav.trajectory as trajectory

        caller, walk_blocks = os.getpid(), trajectory.walk_blocks

        def walk_in_the_worker_only(*args):
            if os.getpid() == caller:
                raise AssertionError("the truth attitude was built in the main process")
            return walk_blocks(*args)

        monkeypatch.setattr(trajectory, "walk_blocks", walk_in_the_worker_only)
        for config, duration in (("stereo", 0.5), ("gps", 0.2)):
            cfg = dataclasses.replace(parse_scenario(bundled_config_path(config)), duration=duration)
            run_scenario(cfg, tmp_path / config)
            assert (tmp_path / config / "truth.csv").exists()
        rows = sweep_agas(dataclasses.replace(parse_scenario(STEREO), duration=1.0), n_runs=4, seed=1)
        assert len(rows) == 4
        self.assert_no_child()

    def test_the_main_process_evaluates_no_signal_over_the_grid(self, monkeypatch, tmp_path):
        import se5nav.trajectory as trajectory

        caller, eval_trajectory, sizes = os.getpid(), trajectory.eval_trajectory, []

        def spy(spec, t):
            if os.getpid() == caller:
                sizes.append(np.size(t))
            return eval_trajectory(spec, t)

        monkeypatch.setattr(trajectory, "eval_trajectory", spy)
        assert len(sweep_agas(parse_scenario(STEREO), 24)) == 24
        assert sizes and max(sizes) <= 1  # pose(0)
        sizes.clear()
        cfg = dataclasses.replace(parse_scenario(STEREO), duration=1.0)
        run_scenario(cfg, tmp_path)  # truth.csv: the signals at the record times
        assert sizes and max(sizes) <= record_steps(round(cfg.duration / cfg.observer.dt), cfg.trace_stride).size
        self.assert_no_child()

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_the_forked_feed_equals_the_in_process_one(self, chunk, monkeypatch):
        import se5nav.scenario as scenario

        monkeypatch.setattr(scenario, "_CHUNK_STEPS", chunk)
        stereo = dataclasses.replace(parse_scenario(STEREO), duration=0.3, trace_stride=3)
        gps = parse_scenario(GPS)
        gps = dataclasses.replace(gps, duration=0.1, channels=(
            gps.channels[0], dataclasses.replace(gps.channels[1], rate=100.0),
            dataclasses.replace(gps.channels[2], rate=40.0)))
        batch = short_cfg(duration=0.3, trace_stride=2)
        truths = {id(cfg): simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
                  for cfg in (stereo, gps, batch)}
        estimates = perturbed_estimates(batch, truths[id(batch)], 3)

        def stop_run_1(t, runs, att, norms):
            return (runs == 1) & (t >= 0.1)

        def runs():
            return (run_observer(stereo, truths[id(stereo)]) + run_observer(gps, truths[id(gps)])
                    + run_observer(batch, truths[id(batch)], estimates, stop_run_1))

        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        forked = runs()
        assert len(forks) == 3
        monkeypatch.delattr(os, "fork")
        alone = runs()
        assert [trace.stopped_at for trace in alone[2:]] == [None, pytest.approx(0.1), None]
        rows = alone[1].measurements
        assert {c for _, c, _ in rows} == {0, 1, 2} and sum(c == 2 for _, c, _ in rows) == 4  # 40 Hz over 0.1 s
        for trace, ref in zip(forked, alone, strict=True):
            assert_traces_equal(trace, ref)


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
        [trace] = run_observer(cfg, truth)

        header, rows = read_table(tmp_path / "truth.csv", TRUTH_CSV_SCHEMA)
        assert len(header) == 22
        _, _, _, omega, ab = signals(truth.spec, truth.t, truth.R)
        p, v, _ = eval_trajectory(truth.spec, truth.t)
        want = np.column_stack([truth.t, p, v, truth.R.reshape(-1, 9), omega, ab])
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
        init = estimate_from_errors(truth0.R, truth0.z, rtilde, np.zeros((3, 5)))
        [trace] = run_observer(dataclasses.replace(cfg, trace_stride=100), truth, [init])
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

        def spy(cfg, truth, estimates, stop_when, **kwargs):
            batches.append(estimates)
            return run_observer(cfg, truth, estimates, stop_when, **kwargs)

        monkeypatch.setattr(scenario, "run_observer", spy)
        rows = sweep_agas(cfg, n_runs=5, seed=0)
        assert [len(b) for b in batches] == [5]
        assert 0 < sum(r.converged for r in rows) < 5
        truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
        dwell = round(scenario.CONVERGENCE_DWELL_S / (cfg.observer.dt * cfg.trace_stride))
        for row, init in zip(rows, batches[0]):
            streak, settle = 0, None

            def stop_when(t, runs, att, norms):
                nonlocal streak, settle
                below = att[0] < scenario.ATT_THRESHOLD_RAD and norms[0, 0] < scenario.POS_THRESHOLD_M
                streak = streak + 1 if below else 0
                settle = (t if streak == 1 else settle) if below else None
                return streak >= dwell

            [trace] = run_observer(cfg, truth, [init], stop_when)
            assert row.converged == (trace.stopped_at is not None)
            assert row.settle_time_s == (settle if row.converged else None)

    def test_batch_cap_splits_runs_into_equal_rows(self, monkeypatch):
        import se5nav.scenario as scenario

        cfg = short_cfg(duration=2.5)
        whole = sweep_agas(cfg, n_runs=5, seed=0)
        calls = []

        def counted(cfg, truth, estimates, stop_when, **kwargs):
            calls.append(len(estimates))
            return run_observer(cfg, truth, estimates, stop_when, **kwargs)

        monkeypatch.setattr(scenario, "run_observer", counted)
        monkeypatch.setattr(scenario, "_SWEEP_BATCH", 2)
        assert sweep_agas(cfg, n_runs=5, seed=0) == whole
        assert calls == [2, 2, 1]

    def test_diverging_runs_fail_alone_under_any_batch_cap(self, monkeypatch):
        import se5nav.scenario as scenario

        # of 8 runs, four diverge within the first steps; the others and the rows do not depend on the cap
        cfg = dataclasses.replace(parse_scenario(STEREO), duration=0.02)
        results = []
        for cap in (1, 2, 8, 64):
            monkeypatch.setattr(scenario, "_SWEEP_BATCH", cap)
            results.append(sweep_agas(cfg, n_runs=8, seed=3, translation_ball=3000.0))
        expected = results[0]
        assert {row.run: row.failure for row in expected if row.failure} == {
            2: "non-finite estimate at t=0.0050", 5: "non-finite estimate at t=0.0060",
            6: "non-finite estimate at t=0.0050", 7: "non-finite estimate at t=0.0030"}
        assert not any(row.converged for row in expected)
        for rows in results[1:]:
            assert rows == expected

    def test_requires_at_least_one_run(self):
        with pytest.raises(ValueError):
            sweep_agas(short_cfg(), n_runs=0)

    def test_each_record_derives_its_errors_once(self, monkeypatch):
        import se5nav.scenario as scenario

        cfg = parse_scenario(STEREO)
        expected = sweep_agas(cfg, n_runs=24, seed=1)
        calls, records, dwell_call = [], [], scenario._Dwell.__call__

        def counted(*args):
            calls.append(1)
            return error_arrays(*args)

        def dwell_spy(dwell, *args):
            records.append(1)
            return dwell_call(dwell, *args)

        monkeypatch.setattr(scenario, "error_arrays", counted)
        monkeypatch.setattr(scenario._Dwell, "__call__", dwell_spy)
        assert sweep_agas(cfg, n_runs=24, seed=1) == expected
        # the stop rule's errors are each stopping run's trace errors: no run derives them again
        assert len(calls) == len(records) == 322

    def test_truth_is_built_only_as_far_as_the_runs_read(self, monkeypatch):
        import se5nav.trajectory as trajectory

        built, read = [], []
        block_starts, stages, pose = trajectory.block_starts, trajectory.TruthRun.stages, trajectory.TruthRun.pose

        def build_spy(spec, dt, k0, start, halves):
            built.append((k0, k0 + len(halves)))
            return block_starts(spec, dt, k0, start, halves)

        def stages_spy(truth, k0, k1):
            read.append(k1)  # steps k0 .. k1 - 1 and the grid row k1
            return stages(truth, k0, k1)

        def pose_spy(truth, k):
            read.extend(np.atleast_1d(k).tolist())
            return pose(truth, k)

        monkeypatch.delattr(os, "fork")  # the gains are made in this process, where the spies record
        monkeypatch.setattr(trajectory, "block_starts", build_spy)
        monkeypatch.setattr(trajectory.TruthRun, "stages", stages_spy)
        monkeypatch.setattr(trajectory.TruthRun, "pose", pose_spy)
        cfg = parse_scenario(STEREO)
        rows = sweep_agas(cfg, n_runs=24, seed=1)
        assert all(row.converged for row in rows)
        steps = int(round(cfg.duration / cfg.observer.dt))
        # every segment built holds a step read, and the runs read a small part of the horizon
        assert built and all(k0 < max(read) for k0, _ in built)
        assert max(k1 for _, k1 in built) < steps // 10


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

    def test_run_with_a_stride_beyond_every_step(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(STEREO.read_text().replace("duration = 60.0", "duration = 0.05")
                       .replace("trace_stride = 10", "trace_stride = 100000000000000000000"))  # >= 2**63
        assert main(["--out", str(tmp_path), "run", str(cfg)]) == EXIT_OK
        for name in ("truth.csv", "estimate.csv"):  # the first and the last step
            assert len((tmp_path / "tiny-run" / name).read_text().splitlines()) == 2 + 2

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

    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    def test_unreadable_config_exits_2_with_message(self, kind, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"[trajectory]\nkind = eight\xff\xfe\n")
        assert main(["validate", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        message = "not found" if kind == "directory" else "is not UTF-8"
        assert message in err and str(path) in err and "Traceback" not in err

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
        err = capsys.readouterr().err
        assert "run diverged" in err and "Traceback" not in err
        header, [row] = read_table(tmp_path / "stereo-sweep" / "sweep.csv", SWEEP_CSV_SCHEMA)
        assert row[header.index("run")] == "0" and row[header.index("converged")] == "0"

    @pytest.mark.parametrize("command, config", [("run", STEREO), ("sweep", STEREO), ("obsv", GPS)])
    def test_unwritable_output_exits_2_before_running(self, command, config, tmp_path, capsys, monkeypatch):
        import se5nav.cli as cli

        def not_reached(*args, **kwargs):
            raise AssertionError("the command ran")

        for name in ("run_scenario", "sweep_agas", "check_observability"):
            monkeypatch.setattr(cli, name, not_reached)
        root = tmp_path / "a-file"
        root.write_text("")
        assert main(["--out", str(root), command, str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write outputs to {root / f'{config.stem}-{command}'}: ")
        assert "Traceback" not in err

    def test_output_root_env_var(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(STEREO.read_text().replace("duration = 60.0", "duration = 0.5"))
        monkeypatch.setenv("SE5NAV_OUT", str(tmp_path / "envroot"))
        assert main(["run", str(cfg)]) == EXIT_OK
        assert (tmp_path / "envroot" / "tiny-run" / "summary.json").exists()

