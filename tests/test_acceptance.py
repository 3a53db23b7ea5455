"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Scenario runs are shared across criteria through
module-scoped fixtures, so the suite stays inside the runtime budgets.

Where a criterion compares exponentially decaying trajectories in
relative terms, the metric is pinned as

    ||diff(t)||_inf <= rtol * ||ref(t)||_inf + atol,   atol = 1e-9,

i.e. relative agreement while the signal is numerically meaningful and a
nanoscale absolute guard once it has decayed below float significance
(the state is O(1)-scaled, so 1e-9 is three decades under any behaviour
of interest). Noisy-run RMS anchors are artifact-derived regression
values: the source material shows plots, not numbers.
"""

import dataclasses
import time

import numpy as np
import pytest

from se5nav.frontend import UnifiedLayout
from se5nav.lie import SEn, hat, kron, psi, so3_exp, vec, vec_inv, vex
from se5nav.scenario import (
    bundled_config_path,
    check_gps_pe,
    check_observability,
    estimate_from_errors,
    parse_scenario,
    run_observer,
    scenario_output_map,
    summarize,
    sweep_agas,
)
from se5nav.sensors import ChannelKind, ChannelSpec
from se5nav.trajectory import TruthState, coupled_truth, eval_trajectory, simulate_truth

from oracles import kalman_reference_run, riccati_step

# artifact-derived regression anchors for the noisy runs (deterministic
# seeds pinned in the bundled configs); bounds allow 50% headroom
STEREO_NOISY_ANCHORS = {"att": 0.803, "p": 1.56, "v": 7.62}
GPS_NOISY_ANCHORS = {"att": 0.498, "p": 0.757, "v": 3.02}
ANCHOR_HEADROOM = 1.5


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def stereo_cfg():
    return parse_scenario(bundled_config_path("stereo"))


@pytest.fixture(scope="module")
def gps_cfg():
    return parse_scenario(bundled_config_path("gps"))


def _run(cfg, noiseless: bool, duration: float):
    cfg = dataclasses.replace(cfg.noiseless() if noiseless else cfg, duration=duration)
    truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
    started = time.perf_counter()
    [trace] = run_observer(cfg, truth)
    runtime = time.perf_counter() - started
    summary = summarize(trace, cfg.duration, cfg.settle_window, runtime)
    return trace, summary


@pytest.fixture(scope="module")
def stereo_noiseless(stereo_cfg):
    return _run(stereo_cfg, noiseless=True, duration=30.0)


@pytest.fixture(scope="module")
def stereo_noisy(stereo_cfg):
    return _run(stereo_cfg, noiseless=False, duration=stereo_cfg.duration)


@pytest.fixture(scope="module")
def gps_noiseless(gps_cfg):
    return _run(gps_cfg, noiseless=True, duration=30.0)


@pytest.fixture(scope="module")
def gps_noisy(gps_cfg):
    return _run(gps_cfg, noiseless=False, duration=gps_cfg.duration)


def test_criterion_1_unified_output_identity():
    """>= 1000 random (state, channel) pairs, all four kinds, inf-norm
    error of the group-inverse identity below 1e-11, under 5 s."""
    rng = np.random.default_rng(202401)
    kinds = [
        lambda r: ChannelSpec(kind=ChannelKind.BODY_VECTOR,
                              xi=tuple(3 * r.standard_normal(3)), gamma=int(r.integers(2))),
        lambda r: ChannelSpec(kind=ChannelKind.INERTIAL_POSITION,
                              b=tuple(0.5 * r.standard_normal(3))),
        lambda r: ChannelSpec(kind=ChannelKind.INERTIAL_VELOCITY),
        lambda r: ChannelSpec(kind=ChannelKind.BODY_VELOCITY),
    ]
    started = time.perf_counter()
    worst = 0.0
    n_pairs = 0
    for _ in range(300):
        truth = TruthState(
            t=0.0, p=3 * rng.standard_normal(3), v=2 * rng.standard_normal(3),
            vdot=np.zeros(3), R=so3_exp(2 * rng.standard_normal(3)),
            omega=np.zeros(3), aB=np.zeros(3),
        )
        x_inv = np.linalg.inv(SEn(truth.R, truth.z).as_matrix())
        for make in kinds:
            layout = UnifiedLayout([make(rng)])
            (y,), (r,) = layout.stacks(layout.raw_from_pose(truth.R, truth.p, truth.v))
            y_bold, r_bold = np.concatenate([y, r]), np.concatenate([np.zeros(3), r])
            worst = max(worst, np.max(np.abs(x_inv @ r_bold - y_bold)))
            n_pairs += 1
    elapsed = time.perf_counter() - started
    _report(
        "criterion 1 (unified-output identity)",
        worst < 1e-11 and elapsed < 5.0 and n_pairs >= 1000,
        f"{n_pairs} pairs, worst inf-norm error {worst:.2e} (< 1e-11), {elapsed:.1f} s (< 5 s)",
    )


def test_criterion_2_linear_equivalence(stereo_cfg):
    """Noiseless landmark scenario: the translational error extracted from
    the full group observer matches the standalone closed-loop linear
    integration at every 0.1 s sample over 30 s, within 1e-5 relative
    (atol guard 1e-9 once the signal has decayed); under 30 s runtime."""
    cfg = stereo_cfg.noiseless()
    obs = cfg.observer
    started = time.perf_counter()
    [trace] = run_observer(dataclasses.replace(cfg, duration=30.0, trace_stride=int(round(0.1 / obs.dt))),
                           coupled_truth(cfg.trajectory, 30.0, obs.dt))
    a_of_t, c_of_t = scenario_output_map(cfg, horizon=30.0)
    _, xs = kalman_reference_run(
        a_of_t, c_of_t, obs.q, obs.v, np.eye(15), trace.x_body[0], 0.0, 30.0, obs.dt
    )
    elapsed = time.perf_counter() - started
    xs_grid = xs[:: int(round(0.1 / obs.dt))]
    ref = np.max(np.abs(xs_grid), axis=1)
    diff = np.max(np.abs(trace.x_body - xs_grid), axis=1)
    margin = diff - (1e-5 * ref + 1e-9)
    meaningful = ref > 1e-4 * ref[0]
    _report(
        "criterion 2 (linear-equivalence oracle)",
        margin.max() < 0.0 and elapsed < 30.0,
        f"max rel {np.max(diff[meaningful] / ref[meaningful]):.2e} while signal "
        f"above 1e-4 of initial, decayed-tail abs {diff[-1]:.2e} (guard 1e-9), "
        f"worst margin {margin.max():.2e}, {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_3_decoupling_twin(stereo_cfg):
    """Identical translational error, attitude errors of 10 vs 170 deg:
    the two error trajectories differ by < 1e-8 sup-norm. The step's left
    rotation leaves x_B unchanged and its right factor does not depend on
    the estimate, so the twins agree to rounding at any dt; the run keeps
    the criterion's dt = 2.5e-4 (the bundled 1e-3 is tested in
    tests/test_observer.py::TestDecouplingAtTheBundledStep)."""
    cfg = stereo_cfg.noiseless()
    obs = dataclasses.replace(cfg.observer, dt=2.5e-4)
    spec = cfg.trajectory
    p0, v0, _ = eval_trajectory(spec, 0.0)
    z0 = np.zeros((3, 5))
    z0[:, 0] = p0
    z0[:, 1] = v0
    z0[:, 2:] = np.eye(3)
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(15)
    ztilde = spec.r0 @ vec_inv(x0, 3, 5)
    axis = np.array([1.0, -0.5, 2.0])
    axis /= np.linalg.norm(axis)

    twin = dataclasses.replace(cfg, observer=obs, duration=6.0, trace_stride=int(round(0.05 / obs.dt)))
    truth = coupled_truth(spec, 6.0, obs.dt)
    # one batch: the twins share the truth, Pi and t, and a batch equals its single runs bit for bit
    estimates = [estimate_from_errors(spec.r0, z0, so3_exp(np.deg2rad(angle_deg) * axis), ztilde)
                 for angle_deg in (10.0, 170.0)]
    traces = run_observer(twin, truth, estimates)
    assert np.max(np.abs(traces[0].x_body[0] - traces[1].x_body[0])) < 1e-14
    sup = float(np.max(np.abs(traces[0].x_body - traces[1].x_body)))
    _report(
        "criterion 3 (attitude decoupling twin runs)",
        sup < 1e-8,
        f"sup-norm trajectory difference {sup:.2e} (< 1e-8)",
    )


def test_criterion_4_convergence_and_noise(
    stereo_noiseless, stereo_noisy, gps_noiseless, gps_noisy
):
    """Both scenarios converge noiselessly within 30 s to 1e-2 thresholds;
    noisy settled RMS errors stay within the artifact-derived anchors;
    every run finishes under 60 s wall time."""
    problems = []
    details = []
    for name, (trace, summary) in (
        ("stereo/noiseless", stereo_noiseless), ("gps/noiseless", gps_noiseless),
    ):
        ok_att = summary.time_to_att_threshold is not None and summary.time_to_att_threshold <= 30.0
        ok_pos = summary.time_to_pos_threshold is not None and summary.time_to_pos_threshold <= 30.0
        if not (ok_att and ok_pos):
            problems.append(f"{name} missed thresholds")
        if summary.runtime_s >= 60.0:
            problems.append(f"{name} runtime {summary.runtime_s:.0f}s")
        details.append(
            f"{name}: att<1e-2 @ {summary.time_to_att_threshold}s, "
            f"|p~|<1e-2 @ {summary.time_to_pos_threshold}s, {summary.runtime_s:.0f}s wall"
        )
    for name, (trace, summary), anchors in (
        ("stereo/noisy", stereo_noisy, STEREO_NOISY_ANCHORS),
        ("gps/noisy", gps_noisy, GPS_NOISY_ANCHORS),
    ):
        for key, rmse in (("att", summary.rmse_att), ("p", summary.rmse_p), ("v", summary.rmse_v)):
            if not np.isfinite(rmse) or rmse > ANCHOR_HEADROOM * anchors[key]:
                problems.append(f"{name} rmse_{key}={rmse:.3f} exceeds anchor {anchors[key]}")
        if summary.runtime_s >= 60.0:
            problems.append(f"{name} runtime {summary.runtime_s:.0f}s")
        details.append(
            f"{name}: settled RMS att={summary.rmse_att:.3f} rad, p={summary.rmse_p:.3f} m, "
            f"v={summary.rmse_v:.3f} m/s, {summary.runtime_s:.0f}s wall"
        )
    _report(
        "criterion 4 (scenario convergence and noise anchors)",
        not problems,
        "; ".join(details) + ("; PROBLEMS: " + "; ".join(problems) if problems else ""),
    )


def test_criterion_5_riccati_health(
    stereo_noiseless, stereo_noisy, gps_noiseless, gps_noisy
):
    """P stays symmetric and positive definite on every accepted run, and
    the decoupled-scalar steady state sqrt(v/q) is reproduced to 1e-4."""
    problems = []
    for name, (trace, _) in (
        ("stereo/noiseless", stereo_noiseless), ("stereo/noisy", stereo_noisy),
        ("gps/noiseless", gps_noiseless), ("gps/noisy", gps_noisy),
    ):
        if trace.mineig_p.min() <= 0.0:
            problems.append(f"{name} min-eig(P) {trace.mineig_p.min():.2e}")
        p_final = trace.final_state.P
        if np.max(np.abs(p_final - p_final.T)) > 1e-9:
            problems.append(f"{name} P asymmetry")
    p = np.eye(15)
    for _ in range(1000):
        p = riccati_step(p, np.zeros((15, 15)), np.eye(15), 100.0, 10.0, 1e-3)
    scalar_err = float(np.max(np.abs(np.diag(p) - np.sqrt(10.0 / 100.0))))
    if scalar_err > 1e-4:
        problems.append(f"scalar steady state error {scalar_err:.2e}")
    _report(
        "criterion 5 (Riccati health)",
        not problems,
        f"min-eig(P) positive on all runs; scalar fixed point 0.31623 "
        f"reproduced to {scalar_err:.1e}" + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_6_observability(stereo_cfg, gps_cfg):
    """Gramian min eigenvalue above 1e-6 on the {0,5,..,50} grid with a
    1 s window for both scenarios; channel monotonicity on nested sets;
    excitation check agreement (pass implies pass) on the GPS scenario."""
    grid = list(np.arange(0.0, 51.0, 5.0))
    problems = []
    mus = {}
    for name, cfg in (("stereo", stereo_cfg), ("gps", gps_cfg)):
        reports = check_observability(cfg.noiseless(), delta=1.0, grid=grid)
        mus[name] = min(r.mu for r in reports)
        for r in reports:
            if r.mu <= 1e-6:
                problems.append(f"{name} mu={r.mu:.2e} at t={r.t}")
    # nested channel sets never decrease mu
    cfg = stereo_cfg.noiseless()
    nested = []
    for n_channels in (1, 3, 5):
        sub = dataclasses.replace(cfg, channels=cfg.channels[:n_channels])
        nested.append(check_observability(sub, delta=1.0, grid=[0.0])[0].mu)
    if not all(b >= a - 1e-12 for a, b in zip(nested, nested[1:])):
        problems.append(f"monotonicity violated: {nested}")
    # sufficiency direction: excitation pass must imply Gramian pass
    pe = check_gps_pe(gps_cfg, t=0.0, delta=2.0)
    gram = check_observability(gps_cfg.noiseless(), delta=2.0, grid=[0.0])[0]
    if pe.passed and not gram.passed:
        problems.append("excitation check passed but Gramian failed")
    _report(
        "criterion 6 (uniform observability)",
        not problems,
        f"min mu: stereo {mus['stereo']:.3e}, gps {mus['gps']:.3e} (> 1e-6); "
        f"nested-channel mu {['%.3e' % m for m in nested]}; "
        f"excitation min-eig {pe.mu:.3e} agrees"
        + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_7_agas_sweep(stereo_cfg):
    """100 randomized initial conditions (attitude error up to 170 deg,
    translation errors in a 10-unit ball), noiseless landmark scenario:
    every run reaches the convergence thresholds within 60 s simulated;
    under 10 minutes of wall time."""
    started = time.perf_counter()
    rows = sweep_agas(
        stereo_cfg.noiseless(), n_runs=100, seed=20260812,
        max_angle_rad=np.deg2rad(170.0), translation_ball=10.0,
    )
    elapsed = time.perf_counter() - started
    n_conv = sum(r.converged for r in rows)
    worst = max((r.settle_time_s for r in rows if r.settle_time_s is not None), default=None)
    stragglers = [r.run for r in rows if not r.converged]
    _report(
        "criterion 7 (randomized-initial-condition sweep)",
        n_conv == 100 and elapsed < 600.0,
        f"{n_conv}/100 converged, worst settle {worst} s, {elapsed:.0f} s wall (< 600 s)"
        + (f"; non-convergent runs {stragglers}" if stragglers else ""),
    )


def test_criterion_8_geometric_hygiene(
    stereo_noiseless, stereo_noisy, gps_noiseless, gps_noisy
):
    """Rotation orthonormality drift below 1e-9 on every run; group-axiom,
    hat/vex/psi, and Kronecker-vec property suites hold at 1e-10."""
    problems = []
    worst_defect = 0.0
    for name, (trace, _) in (
        ("stereo/noiseless", stereo_noiseless), ("stereo/noisy", stereo_noisy),
        ("gps/noiseless", gps_noiseless), ("gps/noisy", gps_noisy),
    ):
        defect = float(trace.rot_defect.max())
        worst_defect = max(worst_defect, defect)
        if defect >= 1e-9:
            problems.append(f"{name} rotation defect {defect:.2e}")

    rng = np.random.default_rng(55)
    worst_prop = 0.0
    for _ in range(200):
        # group axioms on SE_n(3), n in {2, 5}
        for n in (2, 5):
            a = SEn(so3_exp(2 * rng.standard_normal(3)), rng.standard_normal((3, n)))
            b = SEn(so3_exp(2 * rng.standard_normal(3)), rng.standard_normal((3, n)))
            c = SEn(so3_exp(2 * rng.standard_normal(3)), rng.standard_normal((3, n)))
            assoc = np.max(np.abs(((a @ b) @ c).as_matrix() - (a @ (b @ c)).as_matrix()))
            inv = np.max(np.abs((a @ a.inverse()).as_matrix() - np.eye(3 + n)))
            worst_prop = max(worst_prop, assoc, inv)
        # hat / vex / psi isomorphisms
        v = 10 * rng.standard_normal(3)
        worst_prop = max(worst_prop, np.max(np.abs(vex(hat(v)) - v)))
        worst_prop = max(worst_prop, np.max(np.abs(psi(hat(v)) - v)))
        # Kronecker-vec identities at the shapes used downstream
        a2 = rng.standard_normal((3, 5))
        b2 = rng.standard_normal((5, 5))
        c2 = rng.standard_normal((5, 15))
        lhs = vec(a2 @ b2 @ c2)
        rhs = kron(c2.T, a2) @ vec(b2)
        worst_prop = max(worst_prop, np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(lhs))))
    if worst_prop >= 1e-10:
        problems.append(f"property suites worst error {worst_prop:.2e}")
    _report(
        "criterion 8 (geometric hygiene)",
        not problems,
        f"worst rotation defect {worst_defect:.2e} (< 1e-9); "
        f"property suites worst error {worst_prop:.2e} (< 1e-10)"
        + ("; " + "; ".join(problems) if problems else ""),
    )
