"""Command-line interface: single-config analysis, capacity sweeps, and
analytic-vs-Monte-Carlo validation reports.

Exit codes are part of the interface:
  0  success
  1  input error (bad flags, unreadable config, unwritable output file,
     invalid config — message names the offending field)
  2  numeric failure (quadrature or solver breakdown — message names the stage)
  3  validation ran fine but at least one tolerance failed

Units: JSON reports carry capacities in bit/s; CSV sweeps carry kbit/s (the
usual plotting unit for these scenarios).  Reports contain no timestamps or
environment echoes, so a fixed (config, samples, seed) is byte-reproducible.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import capacity, mcsim
from ._integrate import NumericsError
from .cinr import BetaPrimeDist, cinr_distribution
from .interference import gamma_fit, second_moment
from .model import ConfigError, NetworkConfig, config_values, load_config
from .powercontrol import solve_cutoff
from .specfun import gammainc

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3

# order statistics per block of the KS statistic's cdf bound, and the
# rounding slack of that bound (see _ks_vs_gamma)
_KS_BLOCK = 64
_KS_SLACK = 1e-12
# cap on validate's histogram bins: a heavy-tailed sample (a small --r0)
# has a tiny interquartile range and a huge span
_HIST_MAX_BINS = 10_000
# sweepable parameter -> (NetworkConfig field, CSV column of the grid)
_SWEEPS = {"p_bs": ("p_bs", "p_bs_w"), "lambda": ("lam", "lambda_per_m2"),
           "p_bar": ("p_bar", "p_bar_w")}
_OUTPUT_ORDER = ("fd_opt", "fd_opt_cf", "fd_fixed", "hd", "fd_opt_mc",
                 "fd_fixed_mc")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse's default error handling exits with code 2, which this tool
    # reserves for numeric failures; route flag mistakes to exit 1 instead.
    def error(self, message):
        raise _UsageError(message)


def _parse_lambda(text: str) -> float:
    """BS intensity override: plain numbers are 1/m^2, '<x>/km2' is 1/km^2."""
    value = text.strip()
    per_km2 = value.endswith("/km2")
    try:
        number = float(value[: -len("/km2")] if per_km2 else value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number (1/m^2) or '<x>/km2', got {text!r}") from None
    return number / 1e6 if per_km2 else number


def _parse_rho(text: str) -> float:
    """Received-power target: a finite number of watts, >= 0."""
    try:
        rho = float(text)
    except ValueError:
        rho = math.nan
    if not 0.0 <= rho < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite power >= 0 (W), got {text!r}")
    return rho


def _load(args) -> NetworkConfig:
    cfg = load_config(args.config)
    if args.lam is not None:
        cfg = replace(cfg, lam=args.lam)
    return cfg


def _mc_from(args) -> mcsim.MCConfig:
    try:
        return mcsim.MCConfig(n_samples=args.samples, seed=args.seed,
                              tail_epsilon=args.tail_epsilon,
                              workers=args.workers)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _print_json(doc: dict) -> None:
    """Print a report; a NaN or infinity in it is a numeric failure, since
    JSON has no token for either."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        raise NumericsError("report", "a reported number is NaN or "
                                      "infinite") from None
    print(text)


def cmd_analyze(args) -> int:
    cfg = _load(args)
    fit = gamma_fit(cfg)
    d = cinr_distribution(cfg, fit)
    mc = _mc_from(args)
    rho = args.rho if args.rho is not None else capacity.default_rho(cfg)
    a0 = solve_cutoff(d, cfg.p_bar).a0
    c_opt = capacity.waterfill_rate(d, a0, cfg.bandwidth)
    c_cf = capacity.fd_optimal_capacity_closed_form(d, a0, cfg.bandwidth)
    c_fixed = capacity.fd_fixed_power_capacity(d, cfg.p_bar, cfg.bandwidth)
    hd = mcsim.estimate_hd(cfg, rho, mc)
    doc = {
        "config": config_values(cfg),
        "derived": {
            "r0_m": cfg.r0,
            "rbar_m": cfg.rbar,
            "m_I": fit.shape,
            "omega_I_w": fit.mean,
            "k": d.k,
            "a0_w": a0,
        },
        "capacity_bit_per_s": {
            "c_fd_optimal": {"value": c_opt, "provenance": "quadrature"},
            "c_fd_optimal_closed_form": {
                "value": c_cf,
                "provenance": "unavailable" if c_cf is None else "closed-form",
            },
            "c_fd_fixed": {"value": c_fixed, "provenance": "quadrature"},
            "c_hd": {"value": hd.mean, "std_error": hd.std_error,
                     "provenance": "monte-carlo"},
        },
        # FD rates omit self-interference: only these one-sided tests decide
        "flags": {"fd_harmful": c_opt < hd.mean,
                  "fd_beneficial": c_fixed > hd.mean},
        "mc": {"n_samples": mc.n_samples, "seed": mc.seed,
               "tail_epsilon": mc.tail_epsilon, "rho_w": rho,
               "near_points_per_sample": mcsim.uplink_near_points(cfg, mc),
               "law_gap_budget": mcsim.LAW_GAP_BUDGET},
    }
    _print_json(doc)
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = _load(args)
    points = args.points
    if points < 1:
        raise _UsageError(f"--points must be >= 1, got {points}")
    for flag, bound in (("--from", args.start), ("--to", args.stop)):
        if not math.isfinite(bound):
            raise _UsageError(f"{flag} must be finite, got {bound}")
    if points > 1 and not args.start < args.stop:
        raise _UsageError("--from must be strictly less than --to")
    if args.log:
        if not args.start > 0:
            raise _UsageError("--log needs a positive --from")
        grid = np.geomspace(args.start, args.stop, points)
    else:
        grid = np.linspace(args.start, args.stop, points)
    grid = [float(v) for v in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise _UsageError(f"--from and --to are too close for {points} "
                          f"points: the grid is not strictly ascending in "
                          f"double precision")
    requested = {s.strip() for s in args.outputs.split(",")}
    unknown = sorted(requested - set(_OUTPUT_ORDER))
    if unknown:
        raise _UsageError(f"unknown outputs {unknown}; "
                          f"choose from {_OUTPUT_ORDER}")
    outputs = tuple(o for o in _OUTPUT_ORDER if o in requested)
    mc = _mc_from(args)

    need_solution = bool({"fd_opt", "fd_opt_cf", "fd_opt_mc"} & requested)
    need_law = need_solution or "fd_fixed" in outputs
    field, column = _SWEEPS[args.sweep]
    # Each point's config and CINR law, then the analytic columns over all
    # points at once (solve_cutoff's Newton steps point by point), then the
    # MC columns point by point.  A failure at point j leaves the points
    # before it to check, and the earliest failing point's error is raised,
    # as a point-by-point sweep would raise it.
    n, error = len(grid), None
    cfgs, ks = [], []
    for i, value in enumerate(grid):
        try:
            cfg = replace(base, **{field: value})
            if need_law:
                d = cinr_distribution(cfg, gamma_fit(cfg))
                # a lambda, p_bs or p_bar sweep keeps the shapes
                assert not ks or (d.m0, d.mI) == (m0, mi)
                m0, mi = d.m0, d.mI
                ks.append(d.k)
        except (ConfigError, NumericsError) as exc:
            n, error = i, exc
            break
        cfgs.append(cfg)
    p_bar = np.array([cfg.p_bar for cfg in cfgs])

    def analytic(rate):
        """rate(law, m) over the first m points, retried on the points
        before the one that fails"""
        nonlocal n, error
        while n:
            try:
                return rate(BetaPrimeDist(m0, mi, np.array(ks[:n])), n)
            except NumericsError as exc:
                n, error = exc.row or 0, exc
        return None

    cells = {}
    if need_solution:
        a0 = analytic(lambda d, m: solve_cutoff(d, p_bar[:m]).a0)
        if "fd_opt" in outputs:
            cells["fd_opt"] = analytic(lambda d, m: capacity.waterfill_rate(
                d, a0[:m], base.bandwidth))
        if "fd_opt_cf" in outputs:
            cells["fd_opt_cf"] = analytic(
                lambda d, m: capacity.fd_optimal_capacity_closed_form(
                    d, a0[:m], base.bandwidth))
    if "fd_fixed" in outputs:
        cells["fd_fixed"] = analytic(
            lambda d, m: capacity.fd_fixed_power_capacity(d, p_bar[:m],
                                                          base.bandwidth))
    # the MC rates share one pass: one field and one h for both columns
    mc_cols = [o for o in ("fd_opt_mc", "fd_fixed_mc") if o in outputs]
    for i in range(n):
        cfg = cfgs[i]
        try:
            if mc_cols:
                _, rates = mcsim.estimate_fd_rates(
                    cfg, mc, float(a0[i]) if "fd_opt_mc" in mc_cols else None,
                    cfg.p_bar if "fd_fixed_mc" in mc_cols else None)
                for name, r in zip(mc_cols, rates):
                    cells.setdefault(name, []).append(r.mean)
            if "hd" in outputs:
                rho = (args.rho if args.rho is not None
                       else capacity.default_rho(cfg))
                cells.setdefault("hd", []).append(
                    mcsim.estimate_hd(cfg, rho, mc).mean)
        except NumericsError as exc:
            n, error = i, exc
            break
    if error is not None:
        raise error
    lines = [",".join([column] + [f"{name}_kbps" for name in outputs])]
    for i, value in enumerate(grid):
        row = [f"{value:.10g}"]
        for name in outputs:
            v = float(cells[name][i])
            # a NaN closed form is one the 3F2 does not give
            row.append("" if math.isnan(v) else f"{v / 1e3:.6f}")
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _ks_vs_gamma(x: np.ndarray, shape: float, scale: float) -> float:
    """Kolmogorov-Smirnov distance between the sample and Gamma(shape, scale):
    the largest of (i+1)/n - F(x_i) and F(x_i) - i/n over the order
    statistics x_0 <= ... <= x_(n-1), which `x` holds: the sample sorted
    ascending, as cmd_validate sorts it once for this and the histogram.

    The cdf F is evaluated at every _KS_BLOCK-th order statistic and at the
    last.  A block [lo, hi] of order statistics then bounds its own terms
    by monotonicity, (hi+1)/n - F(x_lo) and F(x_(hi+1)) - lo/n (F(x_hi) in
    the last block), and only the blocks whose bound reaches the largest
    term seen so far, with _KS_SLACK to spare for the rounding of F, are
    evaluated in full, in one specfun.gammainc call.  Since gammainc's
    value at a point does not depend on the other points, the result is
    the same float as the full evaluation's.  On validate's baseline
    samples, 0.07 from the fit, that evaluates F at 8% of 20 000 order
    statistics and 4% of 1e5; on a sample from the law itself, at about
    half.
    """
    n = x.size

    def terms(idx):
        cdf = gammainc(shape, x[idx] / scale)
        return cdf, np.maximum((idx + 1) / n - cdf, cdf - idx / n)

    grid = np.append(np.arange(0, n, _KS_BLOCK), n - 1)
    cdf, grid_terms = terms(grid)
    best = grid_terms.max()
    starts = grid[:-1]
    ends = np.minimum(starts + _KS_BLOCK, n)
    bound = np.maximum(ends / n - cdf[:-1], cdf[1:] - starts / n)
    refine = np.flatnonzero(np.repeat(bound + _KS_SLACK >= best,
                                      _KS_BLOCK)[:n])
    if refine.size:
        best = max(best, terms(refine)[1].max())
    return float(best)


def _bin_counts(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """np.histogram(x, bins=edges)[0] of the ascending `x`: the searchsorted
    of numpy's explicit-edge path, every bin half-open but the last
    closed."""
    return np.diff(np.append(x.searchsorted(edges[:-1], "left"),
                             x.searchsorted(edges[-1], "right")))


def _sorted_percentile(x: np.ndarray, q: float) -> float:
    """np.percentile(x, 100*q) of the ascending `x`, to the bit: numpy's
    linear method, a lerp at the virtual index q*(n-1) that runs from the
    upper neighbour when its weight is 0.5 or more."""
    pos = q * (x.size - 1)
    lo = math.floor(pos)
    t = pos - lo
    a, b = float(x[lo]), float(x[min(lo + 1, x.size - 1)])
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def _write_histogram_csv(path: str, x: np.ndarray,
                         shape: float, scale: float) -> None:
    """Write the Freedman-Diaconis histogram of the sample `x`, sorted
    ascending, as CSV rows bin_left,bin_right,density,model_density, the
    last column being the Gamma(shape, scale) density at the bin midpoint.

    The bins are numpy's "fd" ones, 2*IQR*n^(-1/3) wide (one bin for a zero
    IQR), but at most _HIST_MAX_BINS of them.  The sorted input gives the
    quartiles (_sorted_percentile) and the counts (_bin_counts) without a
    partition or a sort: the same bits as np.percentile and np.histogram on
    the unsorted sample.
    """
    n = x.size
    q75, q25 = (_sorted_percentile(x, q) for q in (0.75, 0.25))
    width = 2.0 * (q75 - q25) * n ** (-1.0 / 3.0)
    bins = (math.ceil(min(float(x[-1] - x[0]) / width, _HIST_MAX_BINS))
            if width else 1)
    edges = np.histogram_bin_edges(x, bins=bins)
    counts = _bin_counts(x, edges)
    density = counts / (n * np.diff(edges))
    log_norm = -math.lgamma(shape) - shape * math.log(scale)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("bin_left,bin_right,density,model_density\n")
        for left, right, dens in zip(edges[:-1].tolist(), edges[1:].tolist(),
                                     density.tolist()):
            mid = 0.5 * (left + right)
            pdf = (math.exp((shape - 1.0) * math.log(mid) - mid / scale
                            + log_norm) if mid > 0 else 0.0)
            fh.write(f"{left:.9e},{right:.9e},{dens:.9e},{pdf:.9e}\n")


def cmd_validate(args) -> int:
    """Interference and FD-rate checks from one field pass on the model's
    annulus; --r0 redraws only the interference checks' field."""
    cfg = _load(args)
    if cfg.p_bs == 0.0:
        raise ConfigError("p_bs", "validate needs p_bs > 0: at p_bs = 0 the "
                                  "interference field is identically zero, "
                                  "so its checks mean nothing")
    if args.samples < 10_000:
        raise _UsageError(f"validate needs --samples >= 10000 (got "
                          f"{args.samples}): moment and distribution checks "
                          f"are meaningless below that")
    if args.r0 is not None and not args.r0 > 0:
        raise _UsageError(f"--r0 must be > 0, got {args.r0}")
    r_min = args.r0 if args.r0 is not None else cfg.r0
    mc = _mc_from(args)

    d, sol = capacity.solve_network(cfg)
    c_quad = capacity.waterfill_rate(d, sol.a0, cfg.bandwidth)
    samples, (fd_mc,) = mcsim.estimate_fd_rates(cfg, mc, sol.a0)
    fd_gap = abs(fd_mc.mean - c_quad) / c_quad
    if args.r0 is not None:
        samples = mcsim.interference_samples(cfg, mc, r_min=args.r0)
    stats = mcsim.summarize(samples)
    r_near, nu = mcsim.near_field(cfg, mc, r_min)
    # sorted after summarize, whose sums run in the draw order; the KS
    # statistic and the histogram both read the order statistics
    samples.sort()
    n = stats.n
    fit = gamma_fit(cfg, r_min=args.r0)
    second_model = second_moment(cfg, r_min=args.r0)
    second_mc = stats.mean ** 2 + stats.variance * (n - 1) / n
    ks = _ks_vs_gamma(samples, fit.shape, fit.scale)

    checks = [
        {"name": "interference_mean_vs_model",
         "mc": stats.mean, "model": fit.mean,
         "rel_error": abs(stats.mean - fit.mean) / fit.mean,
         "tolerance": 0.01},
        {"name": "interference_second_moment_vs_model",
         "mc": second_mc, "model": second_model,
         "rel_error": abs(second_mc - second_model) / second_model,
         "tolerance": 0.02},
        {"name": "ks_samples_vs_gamma_fit",
         "statistic": ks, "tolerance": 0.03},
        {"name": "fd_optimal_mc_vs_quadrature",
         "mc": fd_mc.mean, "mc_std_error": fd_mc.std_error,
         "quadrature": c_quad, "rel_error": fd_gap, "tolerance": 0.03},
    ]
    for c in checks:
        c["pass"] = bool(c.get("rel_error", c.get("statistic")) < c["tolerance"])
    all_pass = all(c["pass"] for c in checks)

    if args.hist_out:
        _write_histogram_csv(args.hist_out, samples, fit.shape, fit.scale)

    doc = {
        "config": config_values(cfg),
        "mc": {"n_samples": mc.n_samples, "seed": mc.seed,
               "tail_epsilon": mc.tail_epsilon, "r_near_m": r_near,
               "near_points_per_sample": nu,
               "law_gap_budget": mcsim.LAW_GAP_BUDGET},
        "exclusion_radius_m": r_min,
        "gamma_fit": {"shape": fit.shape, "mean_w": fit.mean},
        "a0_w": sol.a0,
        "checks": checks,
        "all_pass": all_pass,
        "histogram_csv": args.hist_out,
    }
    _print_json(doc)
    return EXIT_OK if all_pass else EXIT_VALIDATION


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="scenario config file (key = value lines)")
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, default=None,
                   metavar="L",
                   help="override BS intensity; plain value in 1/m^2, or "
                        "'<x>/km2' for 1/km^2 (e.g. 5/km2)")
    p.add_argument("--samples", type=int, default=100_000,
                   help="Monte Carlo sample count (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="Monte Carlo seed (default 0)")
    tail = mcsim.MCConfig.tail_epsilon
    p.add_argument("--tail-epsilon", type=float, default=tail,
                   help=f"relative interference-tail budget for the field "
                        f"truncation radius (default {tail:g}); the far "
                        f"ring enters as one shifted Gamma variate with "
                        f"its first three cumulants (or a Gamma with its "
                        f"mean and variance), so the cost per sample does "
                        f"not grow with 1/eps, and the ring is as wide as "
                        f"keeps the sampled law within "
                        f"{mcsim.LAW_GAP_BUDGET:g} of the annulus law")
    p.add_argument("--workers", type=int, default=1,
                   help=f"Monte Carlo worker threads, at most "
                        f"{mcsim.MAX_WORKERS} (default 1); results are "
                        f"worker-count independent")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fdcap parser, built once per process: main parses every argv
    with it, and parse_args keeps no state between calls."""
    top = _Parser(prog="fdcap",
                  description="Upper bound on uplink capacity in an in-band "
                              "full-duplex cellular network, with Monte Carlo "
                              "validation.")
    sub = top.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="all capacity quantities for one "
                                        "config, JSON on stdout (bit/s)")
    _add_common(pa)
    pa.add_argument("--rho", type=_parse_rho, default=None,
                    help="received-power target (W) for the half-duplex "
                         "benchmark (default: p_bar * rbar^-eta)")

    ps = sub.add_parser("sweep", help="capacity-vs-parameter sweep, CSV "
                                      "on stdout or --out (kbit/s)")
    _add_common(ps)
    ps.add_argument("--sweep", required=True, choices=_SWEEPS,
                    help="which config field to sweep")
    ps.add_argument("--from", dest="start", type=float, required=True,
                    help="first grid value")
    ps.add_argument("--to", dest="stop", type=float, required=True,
                    help="last grid value")
    ps.add_argument("--points", type=int, default=10,
                    help="number of grid points (default 10)")
    ps.add_argument("--log", action="store_true",
                    help="log-spaced grid instead of linear")
    ps.add_argument("--outputs", default="fd_opt,fd_opt_cf,fd_fixed,hd",
                    help="comma list from fd_opt,fd_opt_cf,fd_fixed,hd,"
                         "fd_opt_mc,fd_fixed_mc "
                         "(default fd_opt,fd_opt_cf,fd_fixed,hd)")
    ps.add_argument("--out", default=None, help="write CSV here instead of stdout")
    ps.add_argument("--rho", type=_parse_rho, default=None,
                    help="received-power target (W) for the half-duplex "
                         "benchmark (default: p_bar * rbar^-eta per point)")

    pv = sub.add_parser("validate",
                        help="Monte-Carlo-vs-analytic validation report, "
                             "JSON on stdout; exit 3 if any tolerance fails")
    _add_common(pv)
    pv.add_argument("--r0", type=float, default=None,
                    help="override the interferer exclusion radius (m) for "
                         "the interference-field checks (default: "
                         "1/sqrt(pi*lambda); the capacity check always uses "
                         "the default)")
    pv.add_argument("--hist-out", default="interference_hist.csv",
                    help="histogram CSV path (bin_left,bin_right,density,"
                         "model_density); default interference_hist.csv")
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_validate(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # the config is the only file read; every other is an output
        action = ("read input" if exc.filename == args.config
                  else "write output")
        print(f"cannot {action}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
