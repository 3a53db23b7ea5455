"""Output checks computed apart from the program.

Nothing here imports se5nav. The checks read the files a command wrote
and the config it was given, and compare them with the analytic
trajectory, with the noise model the config states, with recomputed
error columns, and with closed forms the method implies. Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

Z_BOUND = 5.0          # standard scores allowed for the noise statistics
ROT_TOL = 1e-9         # orthonormality and determinant tolerance
RECOMPUTE_TOL = 1e-9   # recomputed-vs-written error columns and summary
PE_RTOL = 1e-5         # excitation min-eig, printed with 7 digits


# inputs ------------------------------------------------------------------

def _floats(raw: str) -> np.ndarray:
    return np.array([float(x) for x in raw.replace(",", " ").split()])


@dataclass(frozen=True)
class Channel:
    kind: str
    xi: np.ndarray
    gamma: int
    b: np.ndarray
    noise_power: float
    rate: float | None


@dataclass(frozen=True)
class Config:
    """The parts of a scenario file the checks need, read independently."""

    amp: np.ndarray
    freq: np.ndarray
    omega_amp: np.ndarray
    omega_freq: np.ndarray
    omega_phase: np.ndarray
    r0_rotvec: np.ndarray
    gravity: np.ndarray
    channels: tuple[Channel, ...]
    dt: float
    duration: float
    noise: bool
    trace_stride: int
    settle_window: float

    @classmethod
    def read(cls, path) -> "Config":
        ini = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        ini.read(path)
        tr, ob = ini["trajectory"], ini["observer"]
        if tr.get("kind", "eight") != "eight":
            raise ValueError("checks cover the figure-eight trajectory only")
        channels = tuple(
            Channel(
                kind=ini[s]["kind"].strip().lower(),
                xi=_floats(ini[s].get("xi", "0 0 0")),
                gamma=int(ini[s].get("gamma", "1")),
                b=_floats(ini[s].get("b", "0 0 0")),
                noise_power=float(ini[s].get("noise_power", "0")),
                rate=float(ini[s]["rate"]) if "rate" in ini[s] else None,
            )
            for s in sorted(s for s in ini.sections() if s.startswith("channel."))
        )
        return cls(
            amp=_floats(tr["amp"]), freq=_floats(tr["freq"]),
            omega_amp=_floats(tr["omega_amp"]), omega_freq=_floats(tr["omega_freq"]),
            omega_phase=_floats(tr["omega_phase"]), r0_rotvec=_floats(tr["r0_rotvec"]),
            gravity=_floats(tr["gravity"]), channels=channels,
            dt=float(ob["dt"]), duration=float(ob["duration"]),
            noise=ob.get("noise", "on").strip().lower() in ("on", "true", "1", "yes"),
            trace_stride=int(ob["trace_stride"]), settle_window=float(ob["settle_window"]),
        )

    def figure_eight(self, t: np.ndarray):
        """Position, velocity and acceleration of the analytic figure-eight."""
        a, w = self.amp, self.freq
        wt = np.outer(t, w)
        cs = np.stack([np.cos(wt[:, 0]), np.sin(wt[:, 1]), np.sin(wt[:, 2])], axis=1)
        dcs = np.stack([-np.sin(wt[:, 0]), np.cos(wt[:, 1]), np.cos(wt[:, 2])], axis=1)
        return a * cs, a * w * dcs, -a * w * w * cs


def read_table(path) -> dict[str, np.ndarray]:
    """Columns of a se5nav CSV (schema comment line, header, numeric rows)."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    data = np.array([[float(x) if x != "" else np.nan for x in r] for r in body], dtype=float)
    data = data.reshape(len(body), len(header))
    return {h: data[:, i] for i, h in enumerate(header)}


def _cols(table, names) -> np.ndarray:
    return np.stack([table[n] for n in names], axis=-1)


def _mats(table, prefix) -> np.ndarray:
    return _cols(table, [f"{prefix}{i}{j}" for i in range(3) for j in range(3)]).reshape(-1, 3, 3)


def _rodrigues(v: np.ndarray) -> np.ndarray:
    th = float(np.linalg.norm(v))
    if th == 0.0:
        return np.eye(3)
    k = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]]) / th
    return np.eye(3) + math.sin(th) * k + (1 - math.cos(th)) * (k @ k)


def _rotation_problems(what: str, rs: np.ndarray) -> list[str]:
    defect = np.linalg.norm(np.swapaxes(rs, 1, 2) @ rs - np.eye(3), axis=(1, 2))
    det = np.linalg.det(rs)
    out = []
    if not np.all(defect <= ROT_TOL):
        out.append(f"{what}: orthonormality defect {defect.max():.3e} > {ROT_TOL:g}")
    if not np.all(np.abs(det - 1.0) <= ROT_TOL):
        out.append(f"{what}: determinant off +1 by {np.abs(det - 1.0).max():.3e}")
    return out


def _close(what: str, got, want, tol: float) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want) / (1.0 + np.abs(want))
    if got.shape != want.shape or not np.all(err <= tol):
        worst = float(np.max(err)) if got.shape == want.shape else float("inf")
        return [f"{what}: differs from the independent value (max rel {worst:.3e} > {tol:g})"]
    return []


# run workloads -----------------------------------------------------------

def check_truth(cfg: Config, truth) -> list[str]:
    """truth.csv against the analytic figure-eight; rotations on SO(3)."""
    t = truth["t"]
    k = t / (cfg.dt * cfg.trace_stride)
    out = []
    if not np.allclose(k, np.arange(t.size), atol=1e-6):
        out.append("truth.csv: rows are not on the trace grid")
    p, v, a = cfg.figure_eight(t)
    out += _close("truth.csv position", _cols(truth, ["px", "py", "pz"]), p, 1e-12)
    out += _close("truth.csv velocity", _cols(truth, ["vx", "vy", "vz"]), v, 1e-12)
    w = cfg.omega_amp * np.sin(np.outer(t, cfg.omega_freq) + cfg.omega_phase)
    out += _close("truth.csv body rate", _cols(truth, ["wx", "wy", "wz"]), w, 1e-12)
    rs = _mats(truth, "R")
    out += _rotation_problems("truth.csv R", rs)
    out += _close("truth.csv R(0)", rs[0], _rodrigues(cfg.r0_rotvec), 1e-12)
    acc = np.einsum("kji,kj->ki", rs, a - cfg.gravity)
    out += _close("truth.csv accelerometer", _cols(truth, ["ax", "ay", "az"]), acc, 1e-9)
    return out


def _noiseless(ch: Channel, r: np.ndarray, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    if ch.kind in ("landmark", "body_vector"):
        return np.einsum("kji,kj->ki", r, ch.xi - ch.gamma * p)
    if ch.kind in ("inertial_position", "gps_position"):
        return p + r @ ch.b
    if ch.kind == "inertial_velocity":
        return v
    if ch.kind == "body_velocity":
        return np.einsum("kji,kj->ki", r, v)
    raise ValueError(f"unknown channel kind {ch.kind!r}")


def _chi2_interval(dof: int, z: float) -> tuple[float, float]:
    """Wilson-Hilferty two-sided interval of a chi-square variable."""
    c = 2.0 / (9.0 * dof)
    return dof * (1 - c - z * math.sqrt(c)) ** 3, dof * (1 - c + z * math.sqrt(c)) ** 3


def check_measurements(cfg: Config, truth, meas) -> list[str]:
    """Residual of every logged sample against its noiseless value.

    With noise on, a channel's residuals must have mean ~0 and a sum of
    squares inside the chi-square interval of std sqrt(noise_power * rate);
    with noise off they must vanish.
    """
    row_of = {float(t): i for i, t in enumerate(truth["t"])}
    rs, ps, vs = _mats(truth, "R"), _cols(truth, ["px", "py", "pz"]), _cols(truth, ["vx", "vy", "vz"])
    ys = _cols(meas, ["yx", "yy", "yz"])
    out = []
    for i, ch in enumerate(cfg.channels):
        sel = np.nonzero(meas["channel"] == i)[0]
        rows = np.array([row_of.get(float(t), -1) for t in meas["t"][sel]], dtype=int)
        sel, rows = sel[rows >= 0], rows[rows >= 0]
        if rows.size < 50:
            out.append(f"measurements.csv channel {i}: only {rows.size} samples on the truth grid")
            continue
        res = ys[sel] - _noiseless(ch, rs[rows], ps[rows], vs[rows])
        stride = 1 if ch.rate is None else max(1, round(1.0 / (ch.rate * cfg.dt)))
        var = ch.noise_power / (stride * cfg.dt) if cfg.noise else 0.0
        if var == 0.0:
            if np.abs(res).max() > 1e-9:
                out.append(f"measurements.csv channel {i}: noiseless samples off by {np.abs(res).max():.3e}")
            continue
        sigma = math.sqrt(var)
        mean_lim = Z_BOUND * sigma / math.sqrt(rows.size)
        if np.abs(res.mean(axis=0)).max() > mean_lim:
            out.append(f"measurements.csv channel {i}: residual mean {res.mean(axis=0)} beyond {mean_lim:.3g}")
        lo, hi = _chi2_interval(res.size, Z_BOUND)
        stat = float(np.sum(res * res)) / var
        if not lo <= stat <= hi:
            out.append(f"measurements.csv channel {i}: residual std {math.sqrt(stat / res.size) * sigma:.4g} "
                       f"outside the chi-square bound around {sigma:.4g}")
    return out


def check_estimate(est) -> list[str]:
    """Every row finite, Rhat on SO(3), min-eig(P) positive."""
    data = np.stack(list(est.values()), axis=1)
    out = []
    if not np.isfinite(data).all():
        out.append("estimate.csv: non-finite entries")
    out += _rotation_problems("estimate.csv Rhat", _mats(est, "Rh"))
    if not np.all(est["mineig_P"] > 0):
        out.append("estimate.csv: mineig_P not positive")
    return out


def recompute_errors(truth, est) -> dict[str, np.ndarray]:
    """Right-invariant errors of the estimate rows against the truth rows."""
    row_of = {float(t): i for i, t in enumerate(truth["t"])}
    rows = np.array([row_of[float(t)] for t in est["t"]], dtype=int)
    r = _mats(truth, "R")[rows]
    z = np.zeros((rows.size, 3, 5))
    z[:, :, 0] = _cols(truth, ["px", "py", "pz"])[rows]
    z[:, :, 1] = _cols(truth, ["vx", "vy", "vz"])[rows]
    z[:, :, 2:] = np.eye(3)
    zhat = np.zeros_like(z)
    zhat[:, :, 0] = _cols(est, ["phx", "phy", "phz"])
    zhat[:, :, 1] = _cols(est, ["vhx", "vhy", "vhz"])
    zhat[:, :, 2:] = _mats(est, "eh")
    rtilde = r @ np.swapaxes(_mats(est, "Rh"), 1, 2)
    cos = 0.5 * (np.trace(rtilde, axis1=1, axis2=2) - 1.0)
    norms = np.linalg.norm(z - rtilde @ zhat, axis=1)
    return {"att_err_rad": np.arccos(np.clip(cos, -1.0, 1.0)), "p_err": norms[:, 0],
            "v_err": norms[:, 1], "e1_err": norms[:, 2], "e2_err": norms[:, 3], "e3_err": norms[:, 4]}


def check_errors(truth, est) -> list[str]:
    """Written error columns against their recomputation."""
    try:
        errs = recompute_errors(truth, est)
    except KeyError:
        return ["estimate.csv: rows off the truth grid"]
    out = []
    for name, want in errs.items():
        out += _close(f"estimate.csv {name}", est[name], want, RECOMPUTE_TOL)
    return out


def check_summary(cfg: Config, truth, est, summary: dict) -> list[str]:
    """Settled RMS and Riccati health in summary.json, recomputed."""
    try:
        errs = recompute_errors(truth, est)
    except KeyError:
        return ["estimate.csv: rows off the truth grid"]
    t = est["t"]
    settled = t >= max(0.0, cfg.duration - cfg.settle_window)
    if not settled.any():
        settled[:] = True
    want = {
        "duration": cfg.duration,
        "settle_window": cfg.settle_window,
        "rmse_att": math.sqrt(np.mean(errs["att_err_rad"][settled] ** 2)),
        "rmse_p": math.sqrt(np.mean(errs["p_err"][settled] ** 2)),
        "rmse_v": math.sqrt(np.mean(errs["v_err"][settled] ** 2)),
        "final_mineig_p": est["mineig_P"][-1],
        "min_mineig_p": est["mineig_P"].min(),
    }
    out = []
    for key, val in want.items():
        out += _close(f"summary.json {key}", summary.get(key, np.nan), val, RECOMPUTE_TOL)
    return out


def check_run(cfg_path, out_dir) -> list[str]:
    """Every independent check of one `se5nav run` output directory."""
    cfg = Config.read(cfg_path)
    out_dir = Path(out_dir)
    try:
        truth = read_table(out_dir / "truth.csv")
        meas = read_table(out_dir / "measurements.csv")
        est = read_table(out_dir / "estimate.csv")
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError, IndexError) as err:
        return [f"run outputs unreadable: {err}"]
    n = round(cfg.duration / cfg.dt)
    want_rows = n // cfg.trace_stride + 1
    problems = []
    if truth["t"].size != want_rows or est["t"].size != want_rows:
        problems.append(f"expected {want_rows} truth and estimate rows, got "
                        f"{truth['t'].size} and {est['t'].size}")
    return (problems + check_truth(cfg, truth) + check_measurements(cfg, truth, meas)
            + check_estimate(est) + check_errors(truth, est) + check_summary(cfg, truth, est, summary))


# sweep -------------------------------------------------------------------

def check_sweep(cfg_path, out_dir, n_runs: int, max_angle_deg: float, ball: float):
    """(failed runs, problems): row count, convergence, settle-time range."""
    cfg = Config.read(cfg_path)
    try:
        rows = read_table(Path(out_dir) / "sweep.csv")
    except (OSError, ValueError, IndexError) as err:
        return n_runs, [f"sweep outputs unreadable: {err}"]
    problems = []
    if rows["run"].size != n_runs or not np.array_equal(rows["run"], np.arange(n_runs)):
        problems.append(f"sweep.csv: expected runs 0..{n_runs - 1}, got {rows['run'].size} rows")
    conv = rows["converged"] == 1
    settle = rows["settle_time_s"]
    if not np.all((settle[conv] >= 0) & (settle[conv] <= cfg.duration)):
        problems.append("sweep.csv: settle time outside the horizon")
    if np.isfinite(settle[~conv]).any():
        problems.append("sweep.csv: settle time given for a run that did not converge")
    if not np.all((rows["init_angle_rad"] >= 0) & (rows["init_angle_rad"] <= np.deg2rad(max_angle_deg))):
        problems.append("sweep.csv: initial angle outside the sampled range")
    if not np.all((rows["init_p_err"] <= ball) & (rows["init_v_err"] <= ball)):
        problems.append("sweep.csv: initial translation error outside the sampled ball")
    return int(n_runs - conv.sum()), problems


# observability -----------------------------------------------------------

def _abar(g: np.ndarray) -> np.ndarray:
    a = np.zeros((5, 5))
    a[0, 1] = 1.0
    a[1, 2:] = g
    return a


def stereo_mu(cfg: Config, delta: float) -> tuple[float, float]:
    """(exact, trapezoid-at-dt) smallest eigenvalue of the windowed Gramian.

    With only body-vector channels C = R_s kron I3 is constant and
    A(t) = Abar kron I3 - I5 kron hat(omega(t)); the two terms commute and
    the rotation factor cancels in (C Phi)^T (C Phi), so W = Wbar kron I3
    with Phibar(tau) = I + Abar tau + Abar^2 tau^2 / 2 (Abar^3 = 0).
    """
    rs = np.array([np.concatenate([[ch.gamma, 0.0], -ch.xi]) for ch in cfg.channels])
    m = rs.T @ rs
    abar = _abar(cfg.gravity)

    def wbar(taus, weights):
        phi = (np.eye(5) + abar * taus[:, None, None]
               + (abar @ abar) * (0.5 * taus ** 2)[:, None, None])
        w = np.einsum("k,kji,jl,klm->im", weights, phi, m, phi) / delta
        return float(np.linalg.eigvalsh(0.5 * (w + w.T))[0])

    x, wq = np.polynomial.legendre.leggauss(8)   # exact for the degree-4 integrand
    exact = wbar(0.5 * delta * (x + 1.0), 0.5 * delta * wq)
    n = round(delta / cfg.dt)
    wt = np.full(n + 1, cfg.dt)
    wt[0] = wt[-1] = 0.5 * cfg.dt
    return exact, wbar(np.arange(n + 1) * cfg.dt, wt)


def pe_min_eig(cfg: Config, t0: float, delta: float) -> float:
    """GPS excitation matrix by Gauss-Legendre quadrature of the analytic profile."""
    x, wq = np.polynomial.legendre.leggauss(200)
    s = t0 + 0.5 * delta * (x + 1.0)
    w = 0.5 * wq
    _, v, a = cfg.figure_eight(s)
    f = a - cfg.gravity
    mat = np.einsum("k,ki,kj->ij", w, f, f)
    mags = [c for c in cfg.channels if c.kind in ("landmark", "body_vector") and c.gamma == 0]
    if mags:
        mat += np.outer(mags[0].xi, mags[0].xi)
    if any(c.kind == "inertial_velocity" for c in cfg.channels):
        mat += np.einsum("k,ki,kj->ij", w, v, v)
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])


_PE_LINE = re.compile(r"excitation check: min-eig=(\S+)\s+(pass|FAIL)")


def check_obsv(cfg_path, out_dir, code: int, stdout: str, grid, delta: float, threshold: float):
    """(operations, failed, problems) for one `se5nav obsv` command.

    Each window is an operation that fails when its mu is not above the
    threshold; a configuration with a position channel adds the
    excitation check as one more. The exit code must say whether every
    window passed.
    """
    cfg = Config.read(cfg_path)
    try:
        rows = read_table(Path(out_dir) / "observability.csv")
    except (OSError, ValueError, IndexError) as err:
        return len(grid), len(grid), [f"observability outputs unreadable: {err}"]
    problems = []
    mu = rows["mu"]
    if not np.allclose(rows["t"], grid) or not np.allclose(rows["delta"], delta):
        problems.append("observability.csv: windows differ from the requested grid")
    if not np.array_equal(rows["pass"] == 1, mu > threshold):
        problems.append("observability.csv: pass column disagrees with mu")
    ops, failed = mu.size, int(np.sum(~(mu > threshold)))
    if (code == 0) != (failed == 0):
        problems.append(f"obsv: exit code {code} with {failed} windows below the threshold")
    if all(c.kind in ("landmark", "body_vector") for c in cfg.channels):
        exact, trap = stereo_mu(cfg, delta)
        tol = 2.0 * abs(trap - exact) + 1e-9 * exact
        if np.abs(mu - exact).max() > tol:
            problems.append(f"observability.csv: mu {mu.min():.10g}..{mu.max():.10g} differs from "
                            f"the closed form {exact:.10g} by more than {tol:.3g}")
    if any(c.kind in ("inertial_position", "gps_position") for c in cfg.channels):
        ops += 1
        found = _PE_LINE.search(stdout)
        if found is None:
            problems.append("obsv: no excitation check printed")
            failed += 1
        else:
            got = float(found.group(1))
            failed += int(not got >= threshold)
            want = pe_min_eig(cfg, float(grid[0]), delta)
            if abs(got - want) > PE_RTOL * abs(want):
                problems.append(f"obsv: excitation min-eig {got:.6e} differs from quadrature {want:.6e}")
    return ops, failed, problems
