"""Show that each independent check rejects a corrupted output.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It produces real outputs with the benchmark's own generated configs,
confirms that every check accepts them, then corrupts one thing at a
time and confirms that the check meant to catch it rejects the copy.
Exits 0 when every corruption is caught.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402


def se5nav_main(src: Path, argv: list[str]) -> tuple[int, str]:
    from se5nav.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def scaled_noise(cfg, truth, meas, factor):
    """measurements.csv with every residual scaled by `factor`."""
    row_of = {float(t): i for i, t in enumerate(truth["t"])}
    rows = np.array([row_of[float(t)] for t in meas["t"]])
    rs = checks._mats(truth, "R")[rows]
    ps = checks._cols(truth, ["px", "py", "pz"])[rows]
    vs = checks._cols(truth, ["vx", "vy", "vz"])[rows]
    out = {k: v.copy() for k, v in meas.items()}
    for i, ch in enumerate(cfg.channels):
        sel = meas["channel"] == i
        clean = checks._noiseless(ch, rs[sel], ps[sel], vs[sel])
        for axis, col in enumerate(("yx", "yy", "yz")):
            out[col][sel] = clean[:, axis] + factor * (meas[col][sel] - clean[:, axis])
    return out


def run_cases(work: Path, src: Path, workload: str):
    wl = workloads.WORKLOADS[workload]()
    config = wl.config
    wl.prepare(src / "se5nav" / "configs", work, seed=7)
    code, _ = se5nav_main(src, wl.commands(work / "out")[0])
    out = work / "out" / f"{config}-run"
    cfg = checks.Config.read(wl.cfg)
    truth, meas, est = (checks.read_table(out / f) for f in ("truth.csv", "measurements.csv", "estimate.csv"))
    summary = json.loads((out / "summary.json").read_text())
    cases = [(f"{config}: run exits 0 and every check passes",
              lambda: [f"exit {code}"] * (code != 0) + checks.check_run(wl.cfg, out), True)]

    cases.append((f"{config}: measurement noise scaled by 1.2",
                  lambda: checks.check_measurements(cfg, truth, scaled_noise(cfg, truth, meas, 1.2)), False))

    shifted = {k: v.copy() for k, v in truth.items()}
    for col in shifted:
        if col != "t":
            shifted[col][10] = truth[col][11]
    cases.append((f"{config}: truth row shifted by one sample", lambda: checks.check_truth(cfg, shifted), False))

    bent = {k: v.copy() for k, v in est.items()}
    for j in range(3):
        bent[f"Rh0{j}"][5] *= 1.0 + 1e-6
    cases.append((f"{config}: Rhat row de-orthonormalized", lambda: checks.check_estimate(bent), False))

    altered = dict(summary, rmse_p=summary["rmse_p"] * 1.001)
    cases.append((f"{config}: summary RMS altered",
                  lambda: checks.check_summary(cfg, truth, est, altered), False))
    return cases


def obsv_cases(work: Path, src: Path):
    wl = workloads.WORKLOADS["obsv"]()
    wl.prepare(src / "se5nav" / "configs", work, seed=7)
    stereo_cmd, gps_cmd = wl.commands(work / "out")
    code, text = se5nav_main(src, stereo_cmd)
    stereo_out = work / "out" / "stereo-obsv"
    grid, delta, mu = workloads.OBSV_GRID, workloads.OBSV_DELTA, workloads.OBSV_MU
    # one window keeps the GPS excitation case short
    gps_code, gps_text = se5nav_main(src, gps_cmd + ["--grid", "0"])
    gps_out = work / "out" / "gps-obsv"

    def stereo_problems(scale):
        path = stereo_out / "observability.csv"
        rows = path.read_text().splitlines()
        body = [r.split(",") for r in rows[2:]]
        for r in body:
            r[2] = repr(float(r[2]) * scale)
        bad = work / "corrupt-obsv"
        bad.mkdir(exist_ok=True)
        (bad / "observability.csv").write_text("\n".join(rows[:2] + [",".join(r) for r in body]) + "\n")
        return checks.check_obsv(wl.cfgs[0], bad, code, text, grid, delta, mu)[2]

    def gps_problems(stdout):
        return checks.check_obsv(wl.cfgs[1], gps_out, gps_code, stdout, [0.0], delta, mu)[2]

    pe = checks._PE_LINE.search(gps_text).group(1)
    return [
        ("obsv: stereo windows match the closed form", lambda: stereo_problems(1.0), True),
        ("obsv: stereo mu perturbed by 1e-3 relative", lambda: stereo_problems(1.0 + 1e-3), False),
        ("obsv: GPS excitation matches the quadrature", lambda: gps_problems(gps_text), True),
        ("obsv: GPS excitation min-eig altered by 1e-3",
         lambda: gps_problems(gps_text.replace(pe, f"{float(pe) * 1.001:.6e}")), False),
    ]


def sweep_cases(work: Path, src: Path):
    wl = workloads.SweepWorkload("stereo", runs=2)
    wl.prepare(src / "se5nav" / "configs", work, seed=7)
    code, _ = se5nav_main(src, wl.commands(work / "out")[0])
    out = work / "out" / "stereo-sweep"
    args = (wl.cfg, out, 2, workloads.SWEEP_MAX_ANGLE_DEG, workloads.SWEEP_BALL)
    good = checks.check_sweep(*args)

    def late():
        path = out / "sweep.csv"
        text = path.read_text()
        lines = text.splitlines()
        cells = lines[2].split(",")
        cells[-1] = "1000.0"
        path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        try:
            return checks.check_sweep(*args)[1]
        finally:
            path.write_text(text)

    return [
        ("sweep: every run converges and the table is consistent",
         lambda: [f"exit {code}"] * (code != 0) + [f"{good[0]} failed"] * (good[0] > 0) + good[1], True),
        ("sweep: settle time beyond the horizon", late, False),
    ]


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "se5nav" / "__init__.py").is_file():
        print(f"error: no se5nav sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / ".perfbench-runs" / "selftest"
    groups = {"stereo-run": lambda w: run_cases(w, src, "stereo-run"),
              "gps-run": lambda w: run_cases(w, src, "gps-run"),
              "obsv": lambda w: obsv_cases(w, src),
              "sweep": lambda w: sweep_cases(w, src)}
    cases = []
    for name, make in groups.items():
        (work / name).mkdir(parents=True, exist_ok=True)
        cases += make(work / name)
    ok = True
    for label, problems_of, should_pass in cases:
        problems = problems_of()
        good = (not problems) == should_pass
        ok &= good
        verdict = "accepted" if not problems else f"rejected ({problems[0].splitlines()[0]})"
        print(f"{'PASS' if good else 'FAIL'}  {label}: {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
