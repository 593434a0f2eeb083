"""One benchmark workload in one fresh process.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root with ``src`` on PYTHONPATH (``bench/run.py``
does both).  Calls ``fdcap.cli.main`` in-process, one call per operation,
in whole rounds of the same operations until S seconds have passed, then
checks every output against ``reference`` and prints one JSON line: the
operations attempted and failed, whether the outputs were right, and the
medians over rounds of the round's wall and CPU time (``--trace 0``) or the
per-round layer figures of a traced run (``--trace 1``).
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import reference
import hostspeed
from layertrace import ESTIMATORS, Tracer

OUT_DIR = ".bench_out"
CONFIGS = {"micro": "configs/micro.cfg", "macro": "configs/macro.cfg"}
VALIDATE_SAMPLES = 20_000
ANALYZE_SAMPLES = 40_000
SWEEP_POINTS = 8
SWEEP_OUTPUTS = "fd_opt,fd_opt_cf,fd_fixed"
SWEEP_HEADER = "lambda_per_m2,fd_opt_kbps,fd_opt_cf_kbps,fd_fixed_kbps"
# The water-level solver promises |E[P] - p_bar| <= BUDGET_RTOL * p_bar.
BUDGET_RTOL = 1e-6
# Monte Carlo estimates must lie within this many standard errors.
N_SIGMA = 5.0
# Sweep CSVs print kbit/s with six decimals: half a unit of the last digit.
CSV_ROUNDING = 5e-4  # bit/s
# The one sweep row that fails at the parent commit: QUADPACK reports
# roundoff at lambda = 7.2e-6 although its error estimate meets the
# tolerance, and fdcap._integrate.quad_strict raises on any warning.
FAILING_ROW = {"p_bs": 5.0, "eta": 5.0, "m_int": 0.5}
FAILING_GRID = (1e-6, 1e-4)


def parse_config(path: str) -> dict:
    """'key = value' lines with '#' comments, as in configs/*.cfg."""
    cfg = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = line.split("=")
                cfg[key.strip()] = float(value)
    return cfg


def write_config(path: str, cfg: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"{k} = {v!r}\n" for k, v in cfg.items())


def call_cli(argv: list) -> tuple:
    """fdcap.cli.main(argv) in-process: (exit code, stdout, stderr)."""
    import fdcap.cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = fdcap.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


# ------------------------------------------------------------ workloads --

class SweepAnalytic:
    """`fdcap sweep --sweep lambda --log` over 24 configs and the failing row.

    The configs form a Latin hypercube over p_bs, eta, m_int, p_bar, the
    signal shape m_sig and a base intensity lambda_b, in two strata: 6
    configs with m_sig in [0.6, 1] (the E[P] quadrature branch) and 18 with
    m_sig in [1, 4].  Which cell of each range a config takes is fixed
    (DESIGN_SEED); where in its cell it lies comes from the run's seed, so
    every seed does about the same work.  omega_sig = (2 sqrt(lambda_b))^
    (2 eta), the baselines' convention, and each config sweeps lambda over
    [lambda_b/3, 3 lambda_b] in 8 log points.  eta >= 3.6, m_int <= 2.5
    and the span of 3 keep m_I <= 2.9 and a0/k moderate: beyond that the
    3F2 closed form misses the quadrature rate (see CHANGES.md).
    """

    DESIGN_SEED = 20151215
    ranges = {"p_bs": (0.5, 20.0, "log"), "eta": (3.6, 4.6, "lin"),
              "m_int": (1.0, 2.5, "lin"), "p_bar": (0.05, 1.0, "log"),
              "lambda_b": (1e-6, 1e-4, "log")}
    strata = ((6, (0.6, 1.0)), (18, (1.0, 4.0)))
    span = 3.0

    def __init__(self, seed: int, out_dir: str):
        design = np.random.default_rng(self.DESIGN_SEED)
        rng = np.random.default_rng([seed, 1])
        base = parse_config(CONFIGS["micro"])
        self.rows = []            # (config dict, lambda grid)
        for n, m_sig_range in self.strata:
            ranges = dict(self.ranges, m_sig=m_sig_range + ("lin",))
            draws = {}
            for name, (lo, hi, scale) in ranges.items():
                u = (design.permutation(n) + rng.random(n)) / n
                if scale == "log":
                    draws[name] = np.exp(np.log(lo) + u * np.log(hi / lo))
                else:
                    draws[name] = lo + u * (hi - lo)
            for i in range(n):
                cfg = dict(base)
                for name in ("p_bs", "eta", "m_int", "p_bar", "m_sig"):
                    cfg[name] = float(draws[name][i])
                lam_b = float(draws["lambda_b"][i])
                cfg["lambda"] = lam_b
                cfg["omega_sig"] = (2.0 * math.sqrt(lam_b)) ** (
                    2.0 * cfg["eta"])
                self.rows.append((cfg, (lam_b / self.span, lam_b * self.span)))
        self.rows.append((dict(base, **FAILING_ROW), FAILING_GRID))
        self.ops = []
        for i, (cfg, (lo, hi)) in enumerate(self.rows):
            path = os.path.join(out_dir, f"sweep-{i:02d}.cfg")
            write_config(path, cfg)
            self.ops.append(["sweep", path, "--sweep", "lambda", "--log",
                             "--from", repr(lo), "--to", repr(hi),
                             "--points", str(SWEEP_POINTS),
                             "--outputs", SWEEP_OUTPUTS])
        self.points = SWEEP_POINTS * (len(self.rows) - 1)
        self.samples = 0

    ok_exits = (0,)

    def check(self, op: int, out: str) -> list:
        cfg, (lo, hi) = self.rows[op]
        lines = out.splitlines()
        if lines[0] != SWEEP_HEADER:
            return [f"sweep {op}: header {lines[0]!r}"]
        grid = np.geomspace(lo, hi, SWEEP_POINTS)
        if len(lines) != SWEEP_POINTS + 1:
            return [f"sweep {op}: {len(lines) - 1} rows"]
        problems = []
        for lam, line in zip(grid, lines[1:]):
            cells = line.split(",")
            where = f"sweep {op} lambda={cells[0]}"
            if not close(float(cells[0]), lam, 1e-9):
                problems.append(f"{where}: grid value, expected {lam!r}")
                continue
            if "" in (cells[1], cells[3]):
                problems.append(f"{where}: empty cell in {line!r}")
                continue
            # an empty closed-form cell is the CLI's "not evaluable"
            opt, opt_cf, fixed = (1e3 * float(c) if c else None
                                  for c in cells[1:])
            problems += check_analytic(dict(cfg, **{"lambda": float(lam)}),
                                       opt, opt_cf, fixed, None, CSV_ROUNDING,
                                       where)
        return problems


def check_analytic(cfg: dict, opt: float, opt_cf: float, fixed: float,
                   a0, atol: float, where: str) -> list:
    """The three analytic capacities against the beta-prime reference;
    opt_cf None is a closed form the program reports as not evaluable.

    With the water level a0 given, it must meet the budget to the solver's
    residual and opt must be the rate there.  Without it, opt must lie in
    the band of rates the residual allows: a relative budget error d moves
    the optimal rate by at most (B/ln 2) d p_bar/a0 to first order.
    """
    ref = reference.BetaPrimeReference(cfg)
    bits = cfg["bandwidth"] / math.log(2.0)
    problems = []
    if a0 is None:
        a_star = ref.water_level(cfg["p_bar"])
        want = ref.waterfill_rate(a_star)
        band = 1.01 * bits * BUDGET_RTOL * cfg["p_bar"] / a_star
        if not close(opt, want, 1e-9, band + atol):
            problems.append(f"{where}: fd_opt {opt!r}, reference {want!r} "
                            f"+- {band:.3g}")
    else:
        spent = ref.avg_power(a0) / cfg["p_bar"] - 1.0
        if abs(spent) > BUDGET_RTOL * (1.0 + 1e-3):
            problems.append(f"{where}: a0 {a0!r} spends E[P]/p_bar - 1 = "
                            f"{spent:.3g}")
        want = ref.waterfill_rate(a0)
        if not close(opt, want, 1e-8, atol):
            problems.append(f"{where}: fd_opt {opt!r}, reference {want!r}")
    if opt_cf is not None and not close(opt_cf, opt, 1e-6, 2.0 * atol):
        problems.append(f"{where}: fd_opt_cf {opt_cf!r} vs fd_opt {opt!r}")
    want = ref.fixed_rate()
    if not close(fixed, want, 1e-8, atol):
        problems.append(f"{where}: fd_fixed {fixed!r}, reference {want!r}")
    if opt < fixed - bits * BUDGET_RTOL - 2.0 * atol:
        problems.append(f"{where}: fd_opt {opt!r} < fd_fixed {fixed!r}")
    return problems


def exclusion_radius(cfg: dict) -> float:
    return 1.0 / math.sqrt(math.pi * cfg["lambda"])


def truncation_radius(cfg: dict, r_min: float, report: dict) -> float:
    """R_max of the report's MC run, from its tail budget as fdcap.mcsim
    documents it."""
    return r_min * report["mc"]["tail_epsilon"] ** (1.0 / (2.0 - cfg["eta"]))


class Validate1w:
    """`fdcap validate` on both baselines at one worker thread."""

    def __init__(self, seed: int, out_dir: str):
        self.cfgs = [parse_config(path) for path in CONFIGS.values()]
        self.hists = [os.path.join(out_dir, f"hist-{name}.csv")
                      for name in CONFIGS]
        self.ops = [["validate", path, "--samples", str(VALIDATE_SAMPLES),
                     "--seed", str(seed), "--workers", "1",
                     "--hist-out", hist]
                    for path, hist in zip(CONFIGS.values(), self.hists)]
        self.points = len(self.ops)
        self.samples = 2 * VALIDATE_SAMPLES * len(self.ops)

    ok_exits = (0, 3)  # 3: a complete report whose tolerances failed

    def check(self, op: int, out: str) -> list:
        cfg, where = self.cfgs[op], f"validate {list(CONFIGS)[op]}"
        report = json.loads(out)
        checks = {c["name"]: c for c in report["checks"]}
        n, r_min = report["mc"]["n_samples"], report["exclusion_radius_m"]
        r_max = truncation_radius(cfg, r_min, report)
        problems = []
        if n != VALIDATE_SAMPLES:
            problems.append(f"{where}: n_samples {n}")
        if not close(r_min, exclusion_radius(cfg), 1e-12):
            problems.append(f"{where}: exclusion radius {r_min!r}")
        mean, se_mean, second, se_second = reference.moment_errors(
            cfg, r_min, r_max, n)
        for name, want, se in (
                ("interference_mean_vs_model", mean, se_mean),
                ("interference_second_moment_vs_model", second, se_second)):
            got = checks[name]["mc"]
            if abs(got - want) > N_SIGMA * se:
                problems.append(f"{where}: {name} mc {got!r}, Campbell "
                                f"{want!r}, {(got - want) / se:+.2f} se")
        fd = checks["fd_optimal_mc_vs_quadrature"]
        want = reference.field_waterfill_rate(cfg, r_min, r_max,
                                              report["a0_w"])
        got, se = fd["mc"], fd["mc_std_error"]
        if abs(got - want) > N_SIGMA * se:
            problems.append(f"{where}: fd_optimal mc {got!r}, exact field "
                            f"{want!r}, {(got - want) / se:+.2f} se")
        spent = (reference.BetaPrimeReference(cfg).avg_power(report["a0_w"])
                 / cfg["p_bar"] - 1.0)
        if abs(spent) > BUDGET_RTOL * (1.0 + 1e-3):
            problems.append(f"{where}: a0 spends E[P]/p_bar - 1 = {spent:.3g}")
        hist = np.loadtxt(self.hists[op], delimiter=",", skiprows=1)
        mass = float(np.sum(hist[:, 2] * (hist[:, 1] - hist[:, 0])))
        if not close(mass, 1.0, 1e-9):
            problems.append(f"{where}: histogram mass {mass!r}")
        return problems


class Analyze2w:
    """`fdcap analyze` on both baselines with two worker threads."""

    def __init__(self, seed: int, out_dir: str):
        self.cfgs = [parse_config(path) for path in CONFIGS.values()]
        self.ops = [self.argv(path, seed, workers=2)
                    for path in CONFIGS.values()]
        self.one_worker = [self.argv(path, seed, workers=1)
                           for path in CONFIGS.values()]
        self.points = len(self.ops)
        self.samples = ANALYZE_SAMPLES * len(self.ops)

    @staticmethod
    def argv(path: str, seed: int, workers: int) -> list:
        return ["analyze", path, "--samples", str(ANALYZE_SAMPLES),
                "--seed", str(seed), "--workers", str(workers)]

    ok_exits = (0,)

    def check(self, op: int, out: str) -> list:
        cfg, where = self.cfgs[op], f"analyze {list(CONFIGS)[op]}"
        report = json.loads(out)
        cap = report["capacity_bit_per_s"]
        problems = check_analytic(
            cfg, cap["c_fd_optimal"]["value"],
            cap["c_fd_optimal_closed_form"]["value"],
            cap["c_fd_fixed"]["value"], report["derived"]["a0_w"], 0.0, where)
        r_min = exclusion_radius(cfg)
        r_max = truncation_radius(cfg, r_min, report)
        hd, se = cap["c_hd"]["value"], cap["c_hd"]["std_error"]
        want = reference.hd_rate(cfg, report["mc"]["rho_w"], r_max / r_min)
        if abs(hd - want) > N_SIGMA * se:
            problems.append(f"{where}: c_hd {hd!r}, Hamdi reference {want!r}, "
                            f"{(hd - want) / se:+.2f} se")
        code, one_worker, _ = call_cli(self.one_worker[op])
        if code != 0 or one_worker != out:
            problems.append(f"{where}: --workers 1 output differs")
        return problems


WORKLOADS = {"sweep-analytic": SweepAnalytic, "validate-1w": Validate1w,
             "analyze-2w": Analyze2w}


# --------------------------------------------------------------- rounds --

def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_round(workload, host: hostspeed.Calibrator) -> dict:
    """One round of the workload's operations.  wall and cpu are in
    reference seconds (hostspeed): each operation's time scaled by the host
    speed measured just before and just after it."""
    results, wall, cpu, raw_wall = [], 0.0, 0.0, 0.0
    before = host.measure()
    for argv in workload.ops:
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        results.append(call_cli(argv))
        op_wall, op_cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        after = host.measure()
        scale = host.scale(before, after)
        wall, cpu, raw_wall = wall + scale * op_wall, cpu + scale * op_cpu, \
            raw_wall + op_wall
        before = after
    return {"wall": wall, "cpu": cpu, "raw_wall": raw_wall, "results": results}


def run_rounds(workload, host: hostspeed.Calibrator,
               seconds: float) -> list:
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload, host))
    return rounds


def check_rounds(workload, rounds: list) -> tuple:
    """(attempted, failed, problems) over all rounds.  The first round's
    completed outputs are checked; later rounds must repeat them byte for
    byte."""
    problems, failed = [], 0
    first = rounds[0]["results"]
    for r in rounds:
        for op, (code, out, err) in enumerate(r["results"]):
            if code not in workload.ok_exits:
                failed += 1
                print(f"op {op} failed with exit {code}: {err.strip()}",
                      file=sys.stderr)
            elif (code, out) != first[op][:2]:
                problems.append(f"op {op}: output differs between rounds")
    for op, (code, out, _) in enumerate(first):
        if code in workload.ok_exits:
            try:
                problems += workload.check(op, out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"op {op}: unreadable output ({exc!r})")
    return len(rounds) * len(workload.ops), failed, problems


def layer_metrics(tracer: Tracer, rounds: int, overhead: float) -> dict:
    stats = tracer.layer_stats()
    counts = tracer.counts
    per_round = {}

    def put(name, value, unit):
        per_round[name] = {"value": value / rounds, "unit": unit}

    for name in ("powercontrol.solve_cutoff", "powercontrol.avg_power",
                 "integrate.quad_strict", "specfun.hyper_3f2"):
        put(f"{name}.calls", stats[name]["calls"], "count")
    for name in ("powercontrol.solve_cutoff", "powercontrol.avg_power",
                 "integrate.quad_strict", "capacity.waterfill_rate",
                 "capacity.fd_fixed_power_capacity",
                 "capacity.fd_optimal_capacity_closed_form",
                 "capacity.solve_network", "specfun.hyper_3f2",
                 "interference.gamma_fit", "cinr.cinr_distribution",
                 "mcsim.interference_samples", "mcsim.estimate_fd_optimal",
                 "mcsim.estimate_hd", "mcsim.summarize",
                 "mcsim.write_histogram_csv", "cli.main"):
        put(f"{name}.self_s", stats[name]["self_s"], "s")
    put("powercontrol.solve_cutoff.iterations",
        counts["powercontrol.solve_cutoff.iterations"], "count")
    put("integrate.quad_strict.neval", counts["integrate.quad_strict.neval"],
        "count")
    put("specfun.hyper_3f2.integral_calls",
        counts["specfun.hyper_3f2.integral_calls"], "count")
    for name in ("mcsim.samples", "mcsim.field_points", "mcsim.minor_faults"):
        put(name, counts[name], "count")
    put("mcsim.sys_s", counts["mcsim.sys_s"], "s")
    points = counts["mcsim.field_points"]
    sampling = sum(stats[f"mcsim.{e}"]["self_s"] for e in ESTIMATORS)
    per_round["mcsim.ns_per_point"] = {
        "value": 1e9 * sampling / points if points else 0.0, "unit": "ns"}
    wall = counts["mcsim.wall_s"]
    per_round["mcsim.cpu_per_wall"] = {
        "value": counts["mcsim.cpu_s"] / wall if wall else 0.0,
        "unit": "ratio"}
    per_round["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return per_round


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    import fdcap.cli  # noqa: F401  (set-up is timed apart, by run.py)
    host = hostspeed.Calibrator()

    if args.trace:
        untraced = run_round(workload, host)
        tracer = Tracer()
        tracer.install()
        try:
            rounds = run_rounds(workload, host,
                                args.seconds - untraced["raw_wall"])
        finally:
            tracer.remove()
        tracer.write(os.path.join(out_dir, "spans.json"))
        overhead = (statistics.median(r["wall"] for r in rounds)
                    - untraced["wall"])
        metrics = layer_metrics(tracer, len(rounds), overhead)
        rounds.insert(0, untraced)
    else:
        rounds = run_rounds(workload, host, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall = statistics.median(r["wall"] for r in rounds)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu"] for r in rounds),
                      "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "points_per_s": {"value": workload.points / wall, "unit": "1/s"},
            "samples_per_s": {
                "value": (workload.samples or workload.points) / wall,
                "unit": "1/s"},
        }
    print(f"{len(rounds)} rounds; unscaled wall median "
          f"{statistics.median(r['raw_wall'] for r in rounds):.4f} s; "
          f"host kernels median {statistics.median(host.samples):.5f} s "
          f"(reference {hostspeed.REFERENCE_S} s)", file=sys.stderr)
    attempted, failed, problems = check_rounds(workload, rounds)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
