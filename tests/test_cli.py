"""Command-line surface: exit codes, JSON/CSV shapes, reproducibility.

Everything runs in-process through cli.main(argv) so stdout/stderr are
captured exactly as a shell user would see them.  The validate runs here
exercise the known-red regime on purpose: at the micro scenario the KS and
water-filling-gap checks fail their tolerances (structural Gamma-fit error,
see test_mcsim/test_capacity), so cmd_validate's exit code 3 and per-check
pass flags are asserted against that reality.
"""
import collections
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dataclasses import replace

from fdcap import capacity, cli, mcsim, specfun
from fdcap._integrate import NumericsError
from fdcap.cinr import cinr_distribution
from fdcap.powercontrol import solve_cutoff
from fdcap.interference import gamma_fit, mean_interference, second_moment
from fdcap.mcsim import MCConfig
from fdcap.model import load_config
from fdcap.specfun import gammainc
from conftest import fixed_scan, mc_annulus, mc_chunk, near_field

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MICRO = str(CONFIG_DIR / "micro.cfg")
MACRO = str(CONFIG_DIR / "macro.cfg")
DATA_DIR = Path(__file__).resolve().parent / "data"

# quadrature capacity of the micro scenario, bit/s (same anchor as
# test_capacity)
C_OPT_MICRO = 147556.36338201005


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def micro_with(tmp_path, base=MICRO, **fields) -> str:
    """configs/micro.cfg (or `base`) with the given fields replaced, as a
    new file."""
    lines = []
    for line in Path(base).read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        lines.append(f"{key} = {fields.pop(key)!r}" if key in fields else line)
    assert not fields, f"no such config fields: {sorted(fields)}"
    path = tmp_path / "edited.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# -------------------------------------------------------------- failures --

def test_help_exits_zero_and_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for word in ("analyze", "sweep", "validate"):
        assert word in text


def test_unknown_flag_is_input_error(capsys):
    rc, _, err = run(capsys, "analyze", MICRO, "--frobnicate")
    assert rc == 1
    assert err.startswith("error:")


def test_missing_config_file(capsys, tmp_path):
    rc, _, err = run(capsys, "analyze", str(tmp_path / "nope.cfg"))
    assert rc == 1
    assert "cannot read input" in err


def test_infinite_lambda_is_a_config_error(capsys):
    rc, out, err = run(capsys, "analyze", MICRO, "--lambda", "inf")
    assert rc == 1
    assert out == ""
    assert err.startswith("config error: lambda: must be finite")


@pytest.mark.parametrize("lam, stage", [("1e-300", "cinr_distribution"),
                                        ("1e100", "cinr_distribution"),
                                        ("1e308", "interference")])
def test_extreme_lambda_is_a_named_numeric_failure(capsys, lam, stage):
    # k underflows to 0 or overflows to inf, and at 1e308 the mean
    # interference itself overflows a double
    rc, out, err = run(capsys, "sweep", MICRO, "--sweep", "p_bar",
                       "--from", "0.2", "--to", "0.2", "--points", "1",
                       "--lambda", lam)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"numeric failure: {stage}: ")


@pytest.mark.parametrize("fields, stage", [
    ({"m_int": 1e-17}, "solve_cutoff"),
    ({"eta": 100.0, "m_int": 5e-324}, "cinr_distribution")])
@pytest.mark.parametrize("command", [
    ["analyze"],
    ["sweep", "--sweep", "p_bar", "--from", "0.2", "--to", "0.2",
     "--points", "1"],
    ["validate", "--samples", "10000"]])
def test_a_vanishing_interferer_shape_is_a_named_numeric_failure(
        capsys, tmp_path, fields, stage, command):
    # at m_I = 3e-17 the weight exponent m_I - 1 rounds to -1, which the
    # quadrature refuses as input; at eta = 100 the fitted m_I underflows
    # to 0
    cfg = micro_with(tmp_path, **fields)
    rc, out, err = run(capsys, command[0], cfg, *command[1:])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"numeric failure: {stage}: ")


@pytest.mark.parametrize("argv", [
    ["sweep", MICRO, "--sweep", "p_bar", "--from", "0.2", "--to", "0.2",
     "--points", "1", "--outputs", "fd_opt", "--out"],
    ["validate", MICRO, "--samples", "10000", "--hist-out"]])
def test_unwritable_output_is_named(capsys, tmp_path, argv):
    target = str(tmp_path / "missing" / "out.csv")
    rc, _, err = run(capsys, *argv, target)
    assert rc == 1
    assert err.startswith("cannot write output: ") and target in err


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is the tests' reference law, and the slowest scipy
    # import; the commands never need it
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, fdcap.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def test_import_and_analyze_leave_concurrent_futures_unloaded():
    # the Monte Carlo workers are plain threads: in a fresh interpreter
    # neither the import nor a two-worker analyze loads concurrent.futures
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "\n".join([
        "import sys, fdcap.cli",
        "loaded = ['concurrent.futures' in sys.modules]",
        f"code = fdcap.cli.main(['analyze', {MICRO!r}, '--samples', '5000',",
        "                        '--workers', '2'])",
        "loaded.append('concurrent.futures' in sys.modules)",
        "print(code, loaded, file=sys.stderr)"])
    err = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stderr
    assert err.splitlines()[-1] == "0 [False, False]"


def test_commands_leave_scipy_unimported(tmp_path):
    # scipy is the tests' reference and no dependency of the commands: in a
    # fresh interpreter, analyze, sweep and validate run through cli.main
    # and import no scipy module, at module level or in a function body
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "\n".join([
        "import sys, fdcap.cli",
        f"cfg, hist = {MICRO!r}, {str(tmp_path / 'h.csv')!r}",
        "codes = [fdcap.cli.main(argv) for argv in (",
        "    ['analyze', cfg, '--samples', '2000'],",
        "    ['sweep', cfg, '--sweep', 'p_bar', '--from', '0.2', '--to',",
        "     '0.4', '--points', '2', '--samples', '2000'],",
        "    ['validate', cfg, '--samples', '10000', '--hist-out', hist])]",
        "scipy = sorted(m for m in sys.modules if m.startswith('scipy'))",
        "print(codes, scipy, file=sys.stderr)"])
    err = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stderr
    assert err.splitlines()[-1] == "[0, 0, 3] []"


def test_divergent_exponent_config(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(Path(MICRO).read_text().replace("eta = 4", "eta = 2"))
    rc, _, err = run(capsys, "analyze", str(path))
    assert rc == 1
    assert "config error" in err and "diverges" in err


def test_non_ascii_config_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "micro.cfg"
    path.write_bytes("# \u00b5 cell\n".encode() + Path(MICRO).read_bytes())
    rc, out, err = run(capsys, "analyze", str(path))
    assert rc == 1
    assert out == ""
    assert err == (f"config error: {path}: line 1: byte 0xc2 is not "
                   f"ASCII\n")


def test_unknown_config_key(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(Path(MICRO).read_text() + "frequency = 2e9\n")
    rc, _, err = run(capsys, "analyze", str(path))
    assert rc == 1
    assert "frequency" in err


# --------------------------------------------------------------- analyze --

def test_analyze_json_document(capsys):
    rc, out, _ = run(capsys, "analyze", MICRO, "--samples", "2000",
                     "--seed", "3", "--tail-epsilon", "1e-2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["config"]["lambda"] == 5e-5
    assert doc["config"]["omega_sig"] == 1.6e-15
    der = doc["derived"]
    assert der["r0_m"] == pytest.approx(79.78845608028655, rel=1e-12)
    assert der["rbar_m"] == pytest.approx(70.71067811865476, rel=1e-12)
    assert der["m_I"] == pytest.approx(1.5, rel=1e-12)
    assert der["k"] == pytest.approx(0.8558003667574464, rel=1e-12)
    assert der["a0_w"] == pytest.approx(0.6793691061680457, rel=1e-9)
    cap = doc["capacity_bit_per_s"]
    assert cap["c_fd_optimal"]["value"] == pytest.approx(C_OPT_MICRO, rel=1e-9)
    assert cap["c_fd_optimal"]["provenance"] == "quadrature"
    assert cap["c_fd_optimal_closed_form"]["provenance"] == "closed-form"
    assert cap["c_fd_optimal_closed_form"]["value"] == \
        pytest.approx(cap["c_fd_optimal"]["value"], rel=1e-6)
    assert cap["c_fd_fixed"]["provenance"] == "quadrature"
    assert cap["c_hd"]["provenance"] == "monte-carlo"
    assert cap["c_hd"]["std_error"] > 0.0
    assert doc["flags"] == {"fd_harmful": False, "fd_beneficial": True}
    # reports must not echo execution environment (worker count)
    assert sorted(doc["mc"].keys()) == ["law_gap_budget", "n_samples",
                                        "near_points_per_sample", "rho_w",
                                        "seed", "tail_epsilon"]
    assert doc["mc"]["rho_w"] == pytest.approx(8e-9, rel=1e-9, abs=0.0)
    # the uplink field estimate_hd drew: 4.48 points per sample at the
    # baseline, cut by received power where the BS field's rule cuts
    nu = mcsim.uplink_near_points(load_config(MICRO),
                                  MCConfig(2000, 3, tail_epsilon=1e-2))
    assert doc["mc"]["near_points_per_sample"] == nu and 4.4 < nu <= 4.5
    assert doc["mc"]["law_gap_budget"] == mcsim.LAW_GAP_BUDGET


def test_analyze_marks_an_unavailable_closed_form(capsys, monkeypatch):
    monkeypatch.setattr(capacity, "fd_optimal_capacity_closed_form",
                        lambda d, a0, bandwidth: None)
    rc, out, _ = run(capsys, "analyze", MICRO, "--samples", "2000")
    assert rc == 0
    assert json.loads(out)["capacity_bit_per_s"]["c_fd_optimal_closed_form"] \
        == {"value": None, "provenance": "unavailable"}


def test_analyze_low_power_micro_flags(capsys, tmp_path):
    # at 0.1 W downlink the fixed-power FD rate already clears the HD
    # benchmark by a factor ~4, so the conclusive "beneficial" flag is set
    # and "harmful" is not
    rc, out, _ = run(capsys, "analyze", micro_with(tmp_path, p_bs=0.1),
                     "--samples", "50000", "--seed", "7")
    assert rc == 0
    doc = json.loads(out)
    cap = {name: q["value"] for name, q in doc["capacity_bit_per_s"].items()}
    assert doc["flags"] == {"fd_harmful": False, "fd_beneficial": True}
    assert cap["c_fd_fixed"] > 3.0 * cap["c_hd"]
    assert doc["capacity_bit_per_s"]["c_hd"]["std_error"] > 0.0
    assert cap["c_fd_optimal_closed_form"] == pytest.approx(
        cap["c_fd_optimal"], rel=1e-6)


def test_analyze_high_power_macro_flags(capsys, tmp_path):
    # at 200 W downlink even the genie-aided FD upper bound loses to HD:
    # conclusive "harmful"
    rc, out, _ = run(capsys, "analyze",
                     micro_with(tmp_path, base=MACRO, p_bs=200.0),
                     "--samples", "50000", "--seed", "7")
    assert rc == 0
    doc = json.loads(out)
    cap = doc["capacity_bit_per_s"]
    assert doc["flags"] == {"fd_harmful": True, "fd_beneficial": False}
    assert cap["c_fd_optimal"]["value"] < cap["c_hd"]["value"]


@pytest.mark.parametrize("name", ["micro", "macro"])
def test_analyze_stdout_matches_golden(capsys, name):
    """The whole analyze report, byte for byte.  tests/data/
    analyze_<name>.json is the stdout of

      fdcap analyze configs/<name>.cfg --samples 40000 --seed 1 --workers 2

    Regenerate it only when a change alters a digit on purpose, and record
    that in CHANGES.md.
    """
    rc, out, _ = run(capsys, "analyze", str(CONFIG_DIR / f"{name}.cfg"),
                     "--samples", "40000", "--seed", "1", "--workers", "2")
    assert rc == 0
    assert out == (DATA_DIR / f"analyze_{name}.json").read_text(
        encoding="ascii")


@pytest.mark.parametrize("override", ["50/km2", "5e-5"])
def test_analyze_lambda_override_forms(capsys, override):
    # both spellings name the configured intensity, so the report is
    # byte-identical to the no-override run
    _, base, _ = run(capsys, "analyze", MICRO, "--samples", "2000",
                     "--seed", "3", "--tail-epsilon", "1e-2")
    _, over, _ = run(capsys, "analyze", MICRO, "--samples", "2000",
                     "--seed", "3", "--tail-epsilon", "1e-2",
                     "--lambda", override)
    assert over == base


# ----------------------------------------------------------------- sweep --

def test_sweep_csv_structure(capsys):
    rc, out, _ = run(capsys, "sweep", MICRO, "--sweep", "p_bs",
                     "--from", "0.1", "--to", "5", "--points", "3",
                     "--outputs", "fd_opt,hd", "--samples", "2000",
                     "--seed", "5", "--tail-epsilon", "1e-2")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p_bs_w,fd_opt_kbps,hd_kbps"
    assert len(lines) == 4
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["0.1", "2.55", "5"]
    fd = [float(r[1]) for r in rows]
    assert fd[0] > fd[1] > fd[2]
    # the HD benchmark has no downlink term, so sweeping p_bs with a fixed
    # seed reproduces the same value byte-for-byte
    assert rows[0][2] == rows[1][2] == rows[2][2]


def test_sweep_single_point_value(capsys):
    rc, out, _ = run(capsys, "sweep", MICRO, "--sweep", "p_bs",
                     "--from", "1", "--to", "1", "--points", "1",
                     "--outputs", "fd_opt")
    assert rc == 0
    header, row = out.strip().split("\n")
    assert header == "p_bs_w,fd_opt_kbps"
    value, = row.split(",")[1:]
    assert float(value) == pytest.approx(C_OPT_MICRO / 1e3, abs=1e-5)


def test_sweep_lambda_column_label(capsys):
    rc, out, _ = run(capsys, "sweep", MICRO, "--sweep", "lambda",
                     "--from", "5e-5", "--to", "5e-5", "--points", "1",
                     "--outputs", "fd_fixed")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda_per_m2,fd_fixed_kbps"
    assert lines[1].startswith("5e-05,")


def test_sweep_writes_file_instead_of_stdout(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    rc, out, _ = run(capsys, "sweep", MICRO, "--sweep", "p_bs",
                     "--from", "1", "--to", "2", "--points", "2",
                     "--outputs", "fd_opt", "--out", str(out_path))
    assert rc == 0
    assert out == ""
    text = out_path.read_text(encoding="ascii")
    assert text.startswith("p_bs_w,fd_opt_kbps\n")
    assert len(text.strip().split("\n")) == 3


@pytest.mark.parametrize("extra", [
    ["--points", "0"],
    ["--from", "5", "--to", "1", "--points", "3"],
    ["--outputs", "fd_opt,nope"],
    ["--log", "--from", "0", "--to", "1"],
    ["--samples", "0"],
    ["--workers", "0"],
    ["--workers", str(mcsim.MAX_WORKERS + 1)],
    ["--seed", "-1"],
    ["--tail-epsilon", "0.5"],
    ["--outputs", "fd_fixed", "--samples", "0"],
    ["--from", "0.2", "--to", "0.2000000000000001", "--points", "5"],
    ["--rho", "-1", "--outputs", "hd"],
    ["--lambda", "abc"],
])
def test_sweep_usage_errors(capsys, extra):
    argv = ["sweep", MICRO, "--sweep", "p_bs"]
    if "--from" not in extra:
        argv += ["--from", "1", "--to", "2"]
    rc, _, err = run(capsys, *argv, *extra)
    assert rc == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("flag, start, stop, points", [
    ("--to", "0.1", "1e400", "1"),
    ("--to", "0.1", "1e400", "3"),
    ("--from", "-inf", "1", "3"),
    ("--from", "nan", "1", "1"),
])
def test_sweep_rejects_non_finite_bounds(capsys, flag, start, stop, points):
    # named before numpy builds a grid of NaN or infinite values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "sweep", MICRO, "--sweep", "p_bar",
                           f"--from={start}", f"--to={stop}",
                           "--points", points)
    assert rc == 1
    assert out == ""
    assert err.startswith(f"error: {flag} must be finite")


def test_analyze_refuses_a_nan_in_its_report(capsys, monkeypatch):
    monkeypatch.setattr(capacity, "fd_fixed_power_capacity",
                        lambda d, p_bar, bandwidth: math.nan)
    rc, out, err = run(capsys, "analyze", MICRO, "--samples", "2000")
    assert rc == 2
    assert out == ""
    assert err.startswith("numeric failure: report: ")
    assert "Traceback" not in err


def test_analyze_rejects_bad_monte_carlo_flags(capsys):
    rc, out, err = run(capsys, "analyze", MICRO, "--samples", "0")
    assert rc == 1
    assert out == ""
    assert err == "error: n_samples must be >= 1, got 0\n"


@pytest.mark.parametrize("extra", [["--lambda", "abc"], ["--rho", "-1"]])
def test_analyze_usage_errors(capsys, extra):
    rc, out, err = run(capsys, "analyze", MICRO, *extra)
    assert rc == 1
    assert out == ""
    assert err.startswith(f"error: argument {extra[0]}: ")


def test_sweep_rejects_unsweepable_field(capsys):
    rc, _, err = run(capsys, "sweep", MICRO, "--sweep", "eta",
                     "--from", "3", "--to", "4")
    assert rc == 1


@pytest.mark.parametrize("name", ["micro", "macro"])
def test_sweep_stdout_matches_golden(capsys, name):
    """Every output column of a 4-point lambda sweep, byte for byte.

    The run covers the analytic path, both FD estimators, estimate_hd and
    the sweep plumbing.  tests/data/sweep_<name>.csv is the stdout of

      fdcap sweep configs/<name>.cfg --sweep lambda --log --from 1e-6
        --to 1e-4 --points 4 --outputs fd_opt,fd_opt_cf,fd_fixed,hd,
        fd_opt_mc,fd_fixed_mc --samples 2048 --seed 3 --tail-epsilon 1e-2

    Regenerate it only when a change alters a digit on purpose, and record
    that in CHANGES.md.
    """
    rc, out, _ = run(capsys, "sweep", str(CONFIG_DIR / f"{name}.cfg"),
                     "--sweep", "lambda", "--log", "--from", "1e-6",
                     "--to", "1e-4", "--points", "4", "--outputs",
                     "fd_opt,fd_opt_cf,fd_fixed,hd,fd_opt_mc,fd_fixed_mc",
                     "--samples", "2048", "--seed", "3",
                     "--tail-epsilon", "1e-2")
    assert rc == 0
    assert out == (DATA_DIR / f"sweep_{name}.csv").read_text(encoding="ascii")


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_the_cached_parser_keeps_no_state_between_calls(capsys, tmp_path):
    # an override, then the plain call: its bytes are those of a fresh
    # interpreter's first call
    argv = ["analyze", MICRO, "--samples", "2048", "--seed", "4"]
    rc, _, _ = run(capsys, *argv, "--rho", "1e-9")
    assert rc == 0
    rc, reused, _ = run(capsys, *argv)
    assert rc == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    fresh = subprocess.run([sys.executable, "-m", "fdcap.cli", *argv],
                           capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src})
    assert reused == fresh.stdout
    # a usage error does not poison the next call either
    rc, _, err = run(capsys, "analyze", MICRO, "--samples", "many")
    assert rc == 1 and err.startswith("error: ")
    rc, again, _ = run(capsys, *argv)
    assert rc == 0 and again == reused


def test_tail_epsilon_default_is_the_library_default():
    args = cli.build_parser().parse_args(["analyze", MICRO])
    assert args.tail_epsilon == MCConfig.tail_epsilon == 1e-3


# --------------------------------------------------------- numeric edges --

def test_sweep_keeps_a_row_quadpack_warns_about_within_tolerance(
        capsys, tmp_path):
    # at lambda = 7.2e-6 QUADPACK, the rule before the tanh-sinh kernel,
    # reported roundoff although its error estimate (4e-11 on 11.95) met
    # the requested 1e-10 relative
    cfg = micro_with(tmp_path, p_bs=5.0, eta=5.0, m_int=0.5)
    rc, out, _ = run(capsys, "sweep", cfg, "--sweep", "lambda", "--log",
                     "--from", "1e-6", "--to", "1e-4", "--points", "8",
                     "--outputs", "fd_opt,fd_opt_cf,fd_fixed")
    assert rc == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 8
    assert rows[3] == "7.19685673e-06,3103.279296,3103.279296,3103.279294"


def test_sweep_prints_the_closed_form_where_the_3f2_is_tiny(capsys,
                                                            tmp_path):
    # z = -a0/k = -3.3e4 and m_I = 4: the 3F2 is 6.485e-18 (mpmath), which
    # its integral resolves to a relative tolerance; an absolute one of
    # 1e-13 once made it miss the quadrature rate by 12%
    cfg = micro_with(tmp_path, eta=3.0, omega_sig=8e-12)
    rc, out, _ = run(capsys, "sweep", cfg, "--sweep", "lambda",
                     "--from", "1e-6", "--to", "1e-6", "--points", "1",
                     "--outputs", "fd_opt,fd_opt_cf")
    assert rc == 0
    assert out.strip().split("\n")[1] == "1e-06,2485.128711,2485.128711"


def test_sweep_prints_the_closed_form_beyond_double_range(capsys, tmp_path):
    # z = -a0/k = -3.3e7 and m_I = 60: a0^m_I / k^m_I is about e^1039, far
    # beyond a double, and the 3F2 about e^-1039, far below one; the
    # closed form takes their product from the 3F2's log_scaled, where it
    # once left the cell blank
    cfg = micro_with(tmp_path, eta=2.2)
    rc, out, err = run(capsys, "sweep", cfg, "--sweep", "lambda",
                       "--from", "1e-12", "--to", "1e-12", "--points", "1",
                       "--outputs", "fd_opt,fd_opt_cf")
    assert (rc, err) == (0, "")
    assert out.strip().split("\n")[1:] == ["1e-12,3544.709477,3544.709477"]


def test_sweep_fills_every_column_at_eta_near_two(capsys, tmp_path):
    # eta = 2.05, m_I = 840: QUADPACK's QAWS left the closed form blank
    # from lambda = 1e-5 up; the quadrature and the closed form agree in
    # every printed digit
    cfg = micro_with(tmp_path, eta=2.05)
    rc, out, err = run(capsys, "sweep", cfg, "--sweep", "lambda", "--log",
                       "--from", "1e-9", "--to", "1e-3", "--points", "7",
                       "--outputs", "fd_opt,fd_opt_cf,fd_fixed")
    assert (rc, err) == (0, "")
    rows = [row.split(",") for row in out.strip().split("\n")[1:]]
    assert len(rows) == 7
    assert rows[0][:3] == ["1e-09", "247.271781", "247.271781"]
    for _, fd_opt, fd_opt_cf, fd_fixed in rows:
        assert fd_opt_cf == fd_opt and fd_fixed != ""


def test_sweep_blanks_a_closed_form_at_a_subnormal_k(capsys, tmp_path):
    # k = 2.1e-321 is subnormal but positive, so -a0/k is -inf: the 3F2 is
    # unavailable and its cell blank, while analyze, which needs the
    # quadrature rate too, fails by name
    cfg = micro_with(tmp_path, **{"lambda": 1e-6}, p_bs=0.0, n0=1e-15,
                     p_bar=1.0, omega_sig=1e295)
    rc, out, err = run(capsys, "sweep", cfg, "--sweep", "p_bar",
                       "--from", "1", "--to", "2", "--points", "2",
                       "--outputs", "fd_opt_cf")
    assert (rc, err) == (0, "")
    assert out == "p_bar_w,fd_opt_cf_kbps\n1,\n2,\n"
    rc, out, err = run(capsys, "analyze", cfg)
    assert rc == 2 and out == ""
    assert err.startswith("numeric failure: fd_optimal_capacity: ")


@pytest.mark.parametrize("field", [{"m_int": 0.05}, {"eta": 8.0}])
def test_sweep_answers_beta_weights_singular_at_one(capsys, tmp_path, field):
    # m_I = 0.143 and 0.389: the Beta weight (1-t)^(m_I-1) is singular at
    # t = 1, and its quadrature agrees with the 3F2 closed form
    cfg = micro_with(tmp_path, **field)
    rc, out, err = run(capsys, "sweep", cfg, "--sweep", "lambda", "--log",
                       "--from", "1e-5", "--to", "1e-4", "--points", "4",
                       "--outputs", "fd_opt,fd_opt_cf,fd_fixed")
    assert rc == 0, err
    rows = [[float(v) for v in row.split(",")]
            for row in out.strip().split("\n")[1:]]
    assert len(rows) == 4
    for _, fd_opt, fd_opt_cf, fd_fixed in rows:
        assert fd_opt_cf == pytest.approx(fd_opt, rel=1e-6, abs=0.0)
        assert fd_fixed > 0.0


def test_sweep_fills_the_closed_form_at_integer_m0_without_warnings(
        tmp_path):
    # m0 = 2 and z = -a0/k from -1e2 to -1e5: scipy's hyp2f1 returns -inf
    # on part of the 3F2 integrand here, and QUADPACK once warned on stderr
    # and left every fd_opt_cf cell blank.  A fresh interpreter with the
    # default warning filters shows what a user sees on stderr.
    cfg = micro_with(tmp_path, eta=5.5629)
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-m", "fdcap.cli", "sweep", cfg, "--sweep",
         "lambda", "--log", "--from", "1e-5", "--to", "1e-4", "--points",
         "4", "--outputs", "fd_opt,fd_opt_cf,fd_fixed"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    rows = [row.split(",") for row in done.stdout.strip().split("\n")[1:]]
    assert len(rows) == 4
    for _, fd_opt, fd_opt_cf, _ in rows:
        assert fd_opt_cf == fd_opt


def test_sweep_answers_both_beta_shapes_in_the_hundreds(capsys, tmp_path):
    # m_sig = 1000 and m_I = 589: 1/B(m0, m_I) overflows a double, and the
    # kernel once raised OverflowError (a traceback); it now holds the
    # normalisation in logs with the weight, and the closed form agrees
    cfg = micro_with(tmp_path, eta=2.06, m_sig=1000.0, omega_sig=1e-10)
    rc, out, err = run(capsys, "sweep", cfg, "--sweep", "p_bar", "--from",
                       "0.2", "--to", "0.2", "--points", "1", "--outputs",
                       "fd_opt,fd_opt_cf,fd_fixed")
    assert (rc, err) == (0, "")
    assert out.strip().split("\n")[1] == "0.2,0.009795,0.009795,0.008342"


def test_eta_near_two_is_a_named_numeric_failure(capsys, tmp_path):
    # m_I = 2e20: the quadrature E[P] that stands in for the closed form
    # past m_I = 1e5 misses 1e-10 of itself at the rule's last level.
    # eta = 2 + 1e-7 (m_I = 2e14) answers since E[P] there is that
    # quadrature (test_powercontrol), and eta = 2 + 1e-9 does too
    cfg = micro_with(tmp_path, eta=2.0000000001)
    rc, out, err = run(capsys, "sweep", cfg, "--sweep", "lambda",
                       "--from", "5e-5", "--to", "5e-5", "--points", "1",
                       "--outputs", "fd_opt")
    assert rc == 2
    assert out == ""
    assert err.startswith("numeric failure: solve_cutoff: ")
    assert "eta -> 2" in err


@pytest.mark.parametrize("eta", [2.4, 2.1, 2.05])
def test_analyze_answers_eta_near_two(capsys, tmp_path, eta):
    # the far ring's variate leaves the near field under about 1e3 points
    # per sample as eta -> 2 (13.3 at eta = 2.4, 26.9 at 2.05)
    cfg = micro_with(tmp_path, eta=eta)
    rc, out, err = run(capsys, "analyze", cfg, "--samples", "2000")
    assert rc == 0, err
    c_hd = json.loads(out)["capacity_bit_per_s"]["c_hd"]["value"]
    assert math.isfinite(c_hd) and c_hd > 0.0


def test_sweep_hd_answers_eta_where_the_tail_radius_overflows(capsys,
                                                              tmp_path):
    # 1e-3^(1/(2 - eta)) overflows at eta = 2.005: R_max is infinite and
    # the ring's R_max terms vanish
    cfg = micro_with(tmp_path, eta=2.005)
    rc, out, err = run(capsys, "sweep", cfg, "--sweep", "lambda",
                       "--from", "1e-5", "--to", "2e-5", "--points", "2",
                       "--outputs", "hd", "--samples", "1000")
    assert rc == 0, err
    assert "Traceback" not in err
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 2
    assert all(math.isfinite(float(row.split(",")[1])) for row in rows)


def test_femtowatt_budget_is_answered(capsys):
    # the solver's first bracket, a0 = p_bar, leaves the E[P] integral a
    # window [t0, 1] about ten ulps wide, whose quadrature nodes round
    # onto t = 1
    rc, out, _ = run(capsys, "sweep", MICRO, "--sweep", "p_bar",
                     "--from", "1e-15", "--to", "1e-15", "--points", "1",
                     "--outputs", "fd_opt,fd_opt_cf,fd_fixed")
    assert rc == 0
    assert out.strip().split("\n")[1] == "1e-15,0.000000,0.000000,0.000000"


def test_budget_below_double_resolution_is_answered(capsys):
    # at the root a0 = 9e-41 the root check's window [t0, 1] has collapsed
    # too: its E[P] is 0 with the error estimate a0, which covers p_bar
    rc, out, err = run(capsys, "sweep", MICRO, "--sweep", "p_bar",
                       "--from", "1e-100", "--to", "1e-100", "--points", "1",
                       "--outputs", "fd_opt,fd_opt_cf,fd_fixed")
    assert rc == 0, err
    assert out.strip().split("\n")[1] == "1e-100,0.000000,0.000000,0.000000"


@pytest.mark.parametrize("p_bar", ["1e-300", "5e-324"])
def test_budget_whose_power_underflows_is_answered(capsys, p_bar):
    # E[P] underflows to 0.0 at a0 = p_bar, where the bracket once doubled
    # a0 for 200 steps and failed by name; Newton steps on the closed
    # form's ln E[P] reach the root, a0 = 9.1e-121 at p_bar = 1e-300, whose
    # quadrature E[P] meets p_bar
    rc, out, err = run(capsys, "sweep", MICRO, "--sweep", "p_bar",
                       "--from", p_bar, "--to", p_bar, "--points", "1",
                       "--outputs", "fd_opt,fd_opt_cf,fd_fixed")
    assert (rc, err) == (0, "")
    assert out.strip().split("\n")[1].endswith(",0.000000,0.000000,0.000000")
    d = capacity.solve_network(load_config(MICRO))[0]
    sol = capacity.solve_cutoff(d, float(p_bar))
    assert sol.residual <= 1e-6 * float(p_bar)


# ------------------------------------------------ sweeps as one grid --

def point_by_point(path, field, grid, outputs):
    """The analytic sweep rows of the point-by-point functions, as the CLI
    prints them, or the first NumericsError in the order in which a
    point-by-point sweep meets it."""
    base = load_config(path)
    lines = []
    for value in grid:
        cfg = replace(base, **{field: value})
        d = cinr_distribution(cfg, gamma_fit(cfg))
        a0 = solve_cutoff(d, cfg.p_bar).a0 if {"fd_opt", "fd_opt_cf"} & set(
            outputs) else None
        cells = {"fd_opt": lambda: capacity.waterfill_rate(
                     d, a0, cfg.bandwidth),
                 "fd_opt_cf": lambda: capacity.fd_optimal_capacity_closed_form(
                     d, a0, cfg.bandwidth),
                 "fd_fixed": lambda: capacity.fd_fixed_power_capacity(
                     d, cfg.p_bar, cfg.bandwidth)}
        row = [f"{value:.10g}"]
        for name in outputs:
            v = cells[name]()
            row.append("" if v is None else f"{v / 1e3:.6f}")
        lines.append(",".join(row))
    return lines


@pytest.mark.parametrize("sweep, field, start, stop, fields", [
    ("lambda", "lam", "1e-7", "1e-2", {"p_bs": 1e-3}),
    ("p_bs", "p_bs", "1e-3", "1e3", {}),
    ("p_bar", "p_bar", "1e-4", "1e3", {}),
    # the blank closed form of a subnormal k at the first points, and
    # values after
    ("lambda", "lam", "1e-6", "1e-4", {"lambda": 1e-6, "p_bs": 0.0,
                                       "n0": 1e-15, "p_bar": 1.0,
                                       "omega_sig": 1e284})])
def test_sweep_rows_are_the_point_by_point_functions(capsys, tmp_path, sweep,
                                                     field, start, stop,
                                                     fields):
    # the analytic columns over the whole grid at once, with grids across
    # a0 = k and p_bar = k: the rows of the point-by-point functions
    cfg = micro_with(tmp_path, **fields)
    outputs = (["fd_opt_cf"] if "omega_sig" in fields
               else ["fd_opt", "fd_opt_cf", "fd_fixed"])
    rc, out, err = run(capsys, "sweep", cfg, "--sweep", sweep, "--log",
                       "--from", start, "--to", stop, "--points", "9",
                       "--outputs", ",".join(outputs))
    assert (rc, err) == (0, "")
    grid = [float(v) for v in np.geomspace(float(start), float(stop), 9)]
    rows = out.strip().split("\n")[1:]
    assert rows == point_by_point(cfg, field, grid, outputs)
    if "omega_sig" in fields:
        # blank while k is subnormal, then filled
        blank = [row.endswith(",") for row in rows]
        assert blank[0] and not blank[-1]
        assert blank == sorted(blank, reverse=True)


@pytest.mark.parametrize("fields, start, stop, points, stage", [
    # the middle point's k overflows, and so does the last one's
    ({}, "1e-6", "1e300", "3", "cinr_distribution"),
    # the quadrature rate of a subnormal k is not finite at the first two
    # points, and the closed form is blank there
    ({"lambda": 1e-6, "p_bs": 0.0, "n0": 1e-15, "p_bar": 1.0,
      "omega_sig": 1e284}, "1e-6", "1e-4", "5", "fd_optimal_capacity")])
def test_a_failing_sweep_names_its_earliest_point(capsys, tmp_path, fields,
                                                  start, stop, points, stage):
    cfg = micro_with(tmp_path, **fields)
    rc, out, err = run(capsys, "sweep", cfg, "--sweep", "lambda", "--log",
                       "--from", start, "--to", stop, "--points", points,
                       "--outputs", "fd_opt,fd_opt_cf,fd_fixed")
    assert (rc, out) == (2, "")
    grid = [float(v) for v in np.geomspace(float(start), float(stop),
                                           int(points))]
    with pytest.raises(NumericsError) as want:
        point_by_point(cfg, "lam", grid, ["fd_opt", "fd_opt_cf", "fd_fixed"])
    assert want.value.stage == stage
    assert err.startswith(f"numeric failure: {stage}: ")
    if stage == "fd_optimal_capacity":
        # the batched call names the failing row's window
        assert "at row 0, window [2.1333333333333e-310, 1.0]" in err


def test_a_sweep_raises_the_earliest_point_of_any_column(capsys,
                                                         monkeypatch):
    # the rate column fails at point 3 of 4, the fixed-power column at
    # point 1: a point-by-point sweep meets the fixed-power failure first
    real_rate, real_fixed = (capacity.waterfill_rate,
                             capacity.fd_fixed_power_capacity)

    def rate(d, a0, bandwidth):
        if np.size(a0) > 3:
            raise NumericsError("fd_optimal_capacity", "at point 3", row=3)
        return real_rate(d, a0, bandwidth)

    def fixed(d, p_bar, bandwidth):
        if np.size(p_bar) > 1:
            raise NumericsError("fd_fixed_power_capacity", "at point 1",
                                row=1)
        return real_fixed(d, p_bar, bandwidth)

    monkeypatch.setattr(capacity, "waterfill_rate", rate)
    monkeypatch.setattr(capacity, "fd_fixed_power_capacity", fixed)
    rc, out, err = run(capsys, "sweep", MICRO, "--sweep", "lambda", "--log",
                       "--from", "1e-5", "--to", "1e-4", "--points", "4",
                       "--outputs", "fd_opt,fd_fixed")
    assert (rc, out) == (2, "")
    assert err == "numeric failure: fd_fixed_power_capacity: at point 1\n"


# -------------------------------------------------------------- validate --

def test_validate_report_structure(capsys, tmp_path):
    hist = tmp_path / "hist.csv"
    rc, out, _ = run(capsys, "validate", MICRO, "--samples", "10000",
                     "--seed", "2", "--hist-out", str(hist))
    # moments agree, the distributional and capacity checks fail their
    # tolerances (structural model error) -> exit 3
    assert rc == 3
    doc = json.loads(out)
    assert doc["exclusion_radius_m"] == pytest.approx(79.78845608028655,
                                                      rel=1e-12)
    assert doc["gamma_fit"]["shape"] == pytest.approx(1.5, rel=1e-12)
    assert doc["a0_w"] == pytest.approx(0.6793691061680457, rel=1e-9)
    names = [c["name"] for c in doc["checks"]]
    assert names == ["interference_mean_vs_model",
                     "interference_second_moment_vs_model",
                     "ks_samples_vs_gamma_fit",
                     "fd_optimal_mc_vs_quadrature"]
    by_name = {c["name"]: c for c in doc["checks"]}
    # at 10 000 samples the mean's 1% tolerance is about 1.3 standard
    # errors, so whether the check passes is the draw's luck: its error is
    # held to 4 standard errors of the same draw plus the 0.1% tail budget
    micro = load_config(MICRO)
    samples = mcsim.interference_samples(micro, MCConfig(10_000, 2))
    st = mcsim.summarize(samples)
    mean = by_name["interference_mean_vs_model"]
    assert mean["mc"] == st.mean and mean["tolerance"] == 0.01
    assert mean["rel_error"] < 4.0 * st.std_error / mean["model"] + 1e-3
    # the same for E[I^2] at its 2%: 4 standard errors of the mean of I^2
    # plus the share of E[I^2] beyond R_max, whose cumulants kappa_n(R_max)
    # the truncated field lacks
    sq = mcsim.summarize(samples * samples)
    r_max = mc_annulus(micro, 1e-3)[1]
    far_k1 = mean_interference(micro, r_max)
    far_k2 = second_moment(micro, r_max) - far_k1 * far_k1
    beyond = far_k1 * (2.0 * mean["model"] - far_k1) + far_k2
    second = by_name["interference_second_moment_vs_model"]
    assert second["mc"] == pytest.approx(sq.mean, rel=1e-12, abs=0.0)
    assert second["tolerance"] == 0.02
    assert second["rel_error"] < (4.0 * sq.std_error + beyond) / second["model"]
    ks = by_name["ks_samples_vs_gamma_fit"]
    assert ks["pass"] is False and 0.03 < ks["statistic"] < 0.1
    fd = by_name["fd_optimal_mc_vs_quadrature"]
    assert fd["pass"] is False and fd["rel_error"] > 0.03
    assert fd["quadrature"] == pytest.approx(C_OPT_MICRO, rel=1e-9)
    assert fd["mc_std_error"] > 0.0
    assert doc["all_pass"] is False
    assert doc["histogram_csv"] == str(hist)
    lines = hist.read_text(encoding="ascii").strip().split("\n")
    assert lines[0] == "bin_left,bin_right,density,model_density"
    assert len(lines) > 10


@pytest.mark.parametrize("name", ["micro", "macro"])
def test_validate_histogram_matches_golden(capsys, tmp_path, name):
    """validate's histogram CSV, byte for byte.  tests/data/
    validate_hist_<name>.csv is the file that

      fdcap validate configs/<name>.cfg --samples 20000 --seed 1
        --hist-out tests/data/validate_hist_<name>.csv

    writes (it exits 3).  Regenerate it only when a change alters a digit
    on purpose, and record that in CHANGES.md.
    """
    hist = tmp_path / "hist.csv"
    rc, _, _ = run(capsys, "validate", str(CONFIG_DIR / f"{name}.cfg"),
                   "--samples", "20000", "--seed", "1",
                   "--hist-out", str(hist))
    assert rc == 3
    assert hist.read_bytes() == \
        (DATA_DIR / f"validate_hist_{name}.csv").read_bytes()


@pytest.mark.parametrize("r0", [None, "300"])
def test_validate_reports_the_near_field_it_drew(capsys, tmp_path, r0):
    # the mc block names the near field behind the interference checks, on
    # the --r0 annulus where one is given: R_near, its expected points per
    # sample and the law-gap budget the BS field's ring is sized by
    rc, out, _ = run(capsys, "validate", MICRO, "--samples", "10000",
                     "--seed", "2", "--hist-out", str(tmp_path / "h.csv"),
                     *(["--r0", r0] if r0 else []))
    assert rc == 3
    mc = json.loads(out)["mc"]
    cfg = load_config(MICRO)
    r_min = float(r0) if r0 else cfg.r0
    r_near, nu = near_field(cfg, r_min, mcsim._resolve_rmax(
        cfg, MCConfig(1, 0), r_min))
    assert sorted(mc) == ["law_gap_budget", "n_samples",
                          "near_points_per_sample", "r_near_m", "seed",
                          "tail_epsilon"]
    assert mc["r_near_m"] == r_near and mc["near_points_per_sample"] == nu
    assert mc["law_gap_budget"] == mcsim.LAW_GAP_BUDGET == 1e-4
    assert r_min < r_near and 0.0 < nu <= 10.0 * (r_min / cfg.r0) ** 2


def _read_histogram(path):
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "bin_left,bin_right,density,model_density"
    return np.array([[float(f) for f in line.split(",")]
                     for line in lines[1:]])


def test_histogram_csv_counts_every_sample(tmp_path):
    cfg = load_config(MICRO)
    samples = np.sort(mcsim.interference_samples(
        cfg, MCConfig(20_000, 2, tail_epsilon=1e-2)))
    fit = gamma_fit(cfg)
    out = tmp_path / "hist.csv"
    cli._write_histogram_csv(str(out), samples, fit.shape, fit.scale)
    left, right, density, _ = _read_histogram(out).T
    # contiguous bins whose counts add up to n: the density integrates to 1
    assert np.all(left[1:] == right[:-1])
    counts = density * (right - left) * samples.size
    assert np.allclose(counts, np.round(counts), rtol=0.0, atol=1e-4)
    assert int(np.round(counts).sum()) == samples.size


def test_histogram_csv_round_trip(tmp_path):
    cfg = load_config(MICRO)
    samples = np.sort(mcsim.interference_samples(
        cfg, MCConfig(10_000, 8, tail_epsilon=1e-2)))
    fit = gamma_fit(cfg)
    out = tmp_path / "hist.csv"
    cli._write_histogram_csv(str(out), samples, fit.shape, fit.scale)

    def model_pdf(x):
        return (x ** (fit.shape - 1.0) * math.exp(-x / fit.scale)
                / (math.gamma(fit.shape) * fit.scale ** fit.shape))

    # numpy's Freedman-Diaconis bins, as long as they are under the cap
    counts, edges = np.histogram(samples, bins="fd")
    rows = _read_histogram(out)
    assert len(rows) == len(counts) < cli._HIST_MAX_BINS
    left, right, dens, model = rows[0]
    assert left == pytest.approx(edges[0], rel=1e-8, abs=0.0)
    assert right == pytest.approx(edges[1], rel=1e-8, abs=0.0)
    assert dens == pytest.approx(counts[0] / (samples.size
                                              * (edges[1] - edges[0])),
                                 rel=1e-8)
    assert model == pytest.approx(model_pdf(0.5 * (edges[0] + edges[1])),
                                  rel=1e-8)
    # density columns integrate to ~1 over the written bins
    total = float(np.sum(rows[:, 2] * (rows[:, 1] - rows[:, 0])))
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("samples, bins", [
    # span/width overflows to inf: the cap is taken before ceil
    (np.array([0.0] * 50 + [1e-300] * 50 + [1e300]), cli._HIST_MAX_BINS),
    # a zero interquartile range: one bin, as numpy's rule gives
    (np.array([2.0] * 99 + [3.0]), 1),
])
def test_histogram_csv_bin_count_edges(tmp_path, samples, bins):
    out = tmp_path / "hist.csv"
    cli._write_histogram_csv(str(out), samples, 1.5, 1.0)
    rows = _read_histogram(out)
    assert len(rows) == bins
    assert np.all(np.isfinite(rows))


@pytest.mark.parametrize("kind", ["random", "ties", "heavy"])
def test_bin_counts_are_numpys_histogram_counts(kind):
    # the counts of the sorted sample against np.histogram's on the
    # unsorted one, up to the bin cap that the heavy-tailed sample meets,
    # with sample values exactly on every interior edge and on the last
    rng = np.random.default_rng(1217)
    if kind == "random":
        x = rng.gamma(1.7, 2.0, 5_000)
    elif kind == "ties":
        x = np.round(rng.gamma(1.7, 2.0, 5_000), 1)
    else:
        # validate --r0 1: a few near interferers, a huge span
        x = mcsim.interference_samples(load_config(MICRO),
                                       MCConfig(10_000, 3), r_min=1.0)
    for bins in (1, 7, 64, 1_000, cli._HIST_MAX_BINS):
        edges = np.histogram_bin_edges(x, bins=bins)
        # the edges lie in [min, max], so adding them keeps every edge
        y = rng.permutation(np.concatenate([x, edges[1:], edges[-1:]]))
        assert np.array_equal(np.histogram_bin_edges(y, bins=bins), edges)
        counts = cli._bin_counts(np.sort(y), edges)
        assert np.array_equal(counts, np.histogram(y, bins=edges)[0]), bins
        assert counts.sum() == y.size


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 1_001, 20_000])
def test_sorted_percentile_is_numpys_to_the_bit(n):
    rng = np.random.default_rng(n)
    for x in (rng.gamma(0.6, 1.0, n), np.round(rng.gamma(2.0, 1.0, n), 1)):
        assert [cli._sorted_percentile(np.sort(x), q) for q in (0.75, 0.25)] \
            == np.percentile(x, [75, 25]).tolist()


def test_validate_caps_the_histogram_of_a_heavy_tailed_field(capsys,
                                                             tmp_path):
    # at a 1 m exclusion radius a few near interferers give a tiny IQR and
    # a huge span: Freedman-Diaconis asks for about 1.9e37 bins
    hist = tmp_path / "h.csv"
    rc, out, err = run(capsys, "validate", MICRO, "--r0", "1", "--samples",
                       "10000", "--seed", "3", "--hist-out", str(hist))
    assert rc == 3, err
    assert json.loads(out)["exclusion_radius_m"] == 1.0
    lines = hist.read_text(encoding="ascii").splitlines()
    assert 1 < len(lines) <= cli._HIST_MAX_BINS + 1


def test_sweep_answers_a_chunk_without_near_points(capsys, tmp_path):
    # at eta = 8 a chunk expects about 2.5 near-field points, and the last
    # chunk, of one sample, often draws none
    rc, out, err = run(capsys, "sweep", micro_with(tmp_path, eta=8.0),
                       "--sweep", "p_bs", "--from", "1", "--to", "2",
                       "--points", "2", "--outputs", "fd_fixed_mc,hd",
                       "--samples", "1025", "--seed", "10")
    assert rc == 0, err
    assert len(out.strip().split("\n")) == 3


def test_validate_minimum_samples(capsys, tmp_path):
    rc, _, err = run(capsys, "validate", MICRO, "--samples", "1000",
                     "--hist-out", str(tmp_path / "h.csv"))
    assert rc == 1
    assert err.startswith("error: ") and "10000" in err


def test_validate_rejects_nonpositive_r0(capsys, tmp_path):
    rc, _, err = run(capsys, "validate", MICRO, "--samples", "10000",
                     "--r0", "0", "--hist-out", str(tmp_path / "h.csv"))
    assert rc == 1
    assert err.startswith("error: --r0")


def test_validate_names_a_zero_bs_power(capsys, tmp_path):
    # p_bs = 0 is a valid config, but its interference field is identically
    # zero, so every interference check would divide by a zero model mean
    hist = tmp_path / "h.csv"
    rc, out, err = run(capsys, "validate", micro_with(tmp_path, p_bs=0.0),
                       "--samples", "10000", "--hist-out", str(hist))
    assert rc == 1
    assert out == ""
    assert err.startswith("config error: p_bs: validate needs p_bs > 0")
    assert not hist.exists()


def test_validate_oversized_field_is_a_named_numeric_failure(capsys,
                                                             tmp_path):
    # at r0 = 1e6 m the near field holds about 4.7e8 points per sample
    rc, out, err = run(capsys, "validate", MICRO, "--samples", "10000",
                       "--r0", "1e6", "--hist-out", str(tmp_path / "h.csv"))
    assert rc == 2
    assert out == ""
    assert err.startswith("numeric failure: mcsim: ")
    cfg = load_config(MICRO)
    nu = near_field(cfg, 1e6, mcsim._resolve_rmax(cfg, MCConfig(1, 0),
                                                  1e6))[1]
    assert nu > 4e8 and f"{nu:.3g} expected points per sample" in err


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_too_many_workers_is_a_usage_error_before_any_thread(
        capsys, monkeypatch, tmp_path, command):
    # one thread per chunk of 1e9 samples would be about 5e5 threads; the
    # worker bound refuses the run before the first one starts
    def no_thread(*args, **kwargs):
        raise AssertionError("a worker thread was started")

    monkeypatch.setattr(mcsim.threading, "Thread", no_thread)
    hist = ["--hist-out", str(tmp_path / "h.csv")] * (command == "validate")
    rc, out, err = run(capsys, command, MICRO, "--samples", "1000000000",
                       "--workers", "1000000", *hist)
    assert (rc, out) == (1, "")
    assert err.startswith(
        f"error: workers must be in [1, {mcsim.MAX_WORKERS}], got 1000000")


def test_validate_reproducible_and_worker_independent(capsys, tmp_path):
    hist = str(tmp_path / "h.csv")
    base = ["validate", MICRO, "--samples", "10000", "--seed", "2",
            "--hist-out", hist]
    _, a, _ = run(capsys, *base)
    _, b, _ = run(capsys, *base)
    _, c, _ = run(capsys, *base, "--workers", "2")
    assert a == b == c
    _, d, _ = run(capsys, "validate", MICRO, "--samples", "10000",
                  "--seed", "9", "--hist-out", hist)
    assert d != a


def test_validate_r0_override_scopes(capsys, tmp_path):
    # the override moves the interference-field checks to the new exclusion
    # radius but leaves the capacity pipeline (which defines its own
    # geometry) untouched
    hist = str(tmp_path / "h.csv")
    _, base, _ = run(capsys, "validate", MICRO, "--samples", "10000",
                     "--seed", "2", "--hist-out", hist)
    _, far, _ = run(capsys, "validate", MICRO, "--samples", "10000",
                    "--seed", "2", "--r0", "300", "--hist-out", hist)
    a, b = json.loads(base), json.loads(far)
    assert b["exclusion_radius_m"] == 300.0
    assert b["checks"][0]["model"] < a["checks"][0]["model"]
    # pushing the nearest interferer out piles up many comparable weak
    # terms, so the fitted shape grows and the Gamma law fits better
    assert b["gamma_fit"]["shape"] > 10.0
    assert b["checks"][2]["statistic"] < a["checks"][2]["statistic"]
    assert b["checks"][3] == a["checks"][3]


def _ks_full(samples, shape, scale, gamma_cdf):
    """The KS statistic with the cdf at every order statistic: the
    reference that cli._ks_vs_gamma must reproduce to the bit."""
    x = np.sort(samples)
    cdf = gamma_cdf(shape, x / scale)
    n = x.size
    hi = np.arange(1, n + 1) / n - cdf
    lo = cdf - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))


def test_ks_statistic_is_the_full_evaluation_to_the_bit():
    # sizes around the block of 64 and the validate size, shapes 0.3-5,
    # samples from the law itself, from another Gamma law, and rounded to
    # a coarse grid so that order statistics tie
    rng = np.random.default_rng(20260)
    sizes = [1, 2, 3, 63, 64, 65, 127, 128, 129, 20_000]
    sizes += rng.integers(1, 5_000, 40).tolist()
    for n in sizes:
        for kind in ("near", "far", "ties"):
            shape, scale = rng.uniform(0.3, 5.0), rng.uniform(0.1, 10.0)
            if kind == "far":
                x = rng.gamma(rng.uniform(0.3, 5.0), rng.uniform(0.1, 10.0), n)
            else:
                x = rng.gamma(shape, scale, n)
            if kind == "ties":
                x = np.round(x / scale, 1) * scale + 1e-3
            x = np.sort(x)
            assert cli._ks_vs_gamma(x, shape, scale) == \
                _ks_full(x, shape, scale, gammainc), (n, kind)


@pytest.mark.parametrize("name", ["micro", "macro"])
def test_ks_statistic_of_validate_is_the_full_evaluation(capsys, tmp_path,
                                                         name):
    # the reported statistic, through JSON's round-trip repr, against the
    # full evaluation on the same field draws
    path = str(CONFIG_DIR / f"{name}.cfg")
    _, out, _ = run(capsys, "validate", path, "--samples", "20000",
                    "--seed", "1", "--hist-out", str(tmp_path / "h.csv"))
    by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    cfg = load_config(path)
    fit = gamma_fit(cfg)
    x = mcsim.interference_samples(cfg, MCConfig(20_000, 1))
    assert by_name["ks_samples_vs_gamma_fit"]["statistic"] == \
        _ks_full(x, fit.shape, fit.scale, gammainc)


@pytest.mark.parametrize("name", ["micro", "macro"])
def test_ks_grid_cdf_is_each_point_summed_to_its_own_count(name):
    # gammainc sums every element's series out to the count its largest
    # element needs.  On validate's KS grid of each baseline (every
    # _KS_BLOCK-th order statistic and the last, over counts 16 to 72),
    # each value is that element's series summed alone to its own
    # _series_terms count, to the bit: the terms past it leave its sum as
    # it is
    path = str(CONFIG_DIR / f"{name}.cfg")
    cfg = load_config(path)
    fit = gamma_fit(cfg)
    x = np.sort(mcsim.interference_samples(cfg, MCConfig(20_000, 1)))
    grid = x[np.append(np.arange(0, x.size, cli._KS_BLOCK), x.size - 1)]
    grid /= fit.scale
    s = fit.shape
    counts = [specfun._series_terms(s, y) for y in grid.tolist()]
    assert min(counts) < max(counts)
    for y, count, value in zip(grid.tolist(), counts, gammainc(s, grid)):
        term = total = 1.0
        for n in range(1, count + 1):
            term *= y
            term *= 1.0 / (s + n)
            total += term
        assert value == specfun._gamma_front(s, np.array([y]))[0] * total


def test_ks_block_bound_allows_for_the_rounding_of_the_cdf(monkeypatch):
    # n = 128, two blocks of 64.  The cdf rounds 4e-13 down at the 63 tied
    # samples after x_0 in the first block, so that block's bound
    # 64/n - F(x_0) = 0.4 - 1e-13 sits below the largest grid term,
    # 65/n - F(x_64) = 0.4, while its own term 64/n - F(x_63) = 0.4 + 2e-13
    # is the statistic.  Only the slack refines that block.
    dip = 0.1 + 2e-13

    def cdf(shape, y):
        # the uniform law on [0, 1], rounded down at the dip
        return np.where(y == dip, y - 4e-13, y)

    x = np.concatenate([[0.1 + 1e-13], np.full(63, dip), [0.1 + 1 / 128],
                        np.arange(66, 129) / 128 - 0.35])
    want = _ks_full(x, 1.0, 1.0, cdf)
    assert want == 0.5 - (dip - 4e-13)
    monkeypatch.setattr(cli, "gammainc", cdf)
    assert cli._ks_vs_gamma(x, 1.0, 1.0) == want


@pytest.mark.parametrize("r0, passes", [(None, 1), ("300", 2)])
def test_validate_draws_each_field_once(capsys, tmp_path, monkeypatch, r0,
                                        passes):
    # the interference checks and the FD estimate share one field pass; an
    # --r0 field lies on another annulus and takes a second
    calls = []
    draw = mcsim._field_interference

    def spy(*args, **kwargs):
        calls.append(args[1])
        return draw(*args, **kwargs)

    monkeypatch.setattr(mcsim, "_field_interference", spy)
    argv = ["validate", MICRO, "--samples", "20000", "--seed", "2",
            "--hist-out", str(tmp_path / "h.csv")]
    rc, _, _ = run(capsys, *argv, *(["--r0", r0] if r0 else []))
    cfg = load_config(MICRO)
    chunks = -(-20_000 // mc_chunk(cfg))
    assert rc == 3 and chunks == 4
    if r0:
        r0_chunks = -(-20_000 // mc_chunk(cfg, r_min=300.0))
        assert calls.count(300.0) == r0_chunks > chunks
        chunks += r0_chunks
    assert len(calls) == chunks


# ------------------------------------------------------------ property net --

def _scan_config(tmp_path, fields) -> str:
    """conftest.make_cfg(**fields) as a config file for the CLI to load,
    unvalidated: the CLI names what is out of the domain."""
    values = {"lambda": fields["lam"], "p_bs": fields["p_bs"],
              "eta": fields["eta"], "n0": fields["n0"], "bandwidth": 180e3,
              "p_bar": fields["p_bar"], "m_int": fields["m_int"],
              "omega_int": 1.0, "m_sig": fields["m_sig"],
              "omega_sig": (2.0 * math.sqrt(fields["lam"]))
              ** (2.0 * fields["eta"])}
    path = tmp_path / "scan.cfg"
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()))
    return str(path)


def _check_rates(fields, c_opt, c_cf, c_fix, unit):
    """test_capacity._check_analytic_entries' checks on printed rates in
    units of `unit` bit/s: a present closed form equals the quadrature to
    1e-6, and 0 <= fd_fixed <= fd_opt + (B/ln 2) 1e-6, with 2e-6 units to
    spare for the printed digits."""
    slack = 180e3 / math.log(2.0) * 1e-6 / unit
    if c_cf is not None:
        assert c_cf == pytest.approx(c_opt, rel=1e-6, abs=1e-6), fields
    assert c_fix >= 0.0, (fields, c_fix)
    assert c_opt >= c_fix - slack - 2e-6, (fields, c_opt, c_fix)


def test_analyze_and_sweep_over_the_fixed_scan(capsys, tmp_path):
    # cli.main in-process on the draws of test_capacity's fixed scan: each
    # command exits 0, 1 or 2 with no traceback, prints only finite
    # numbers, and its rates keep the analytic net's sign checks
    codes = collections.Counter()
    for fields in fixed_scan():
        path = _scan_config(tmp_path, fields)
        rc, out, err = run(capsys, "analyze", path, "--samples", "256",
                           "--seed", "1")
        assert rc in (0, 1, 2) and "Traceback" not in err, (fields, err)
        codes["analyze", rc] += 1
        if rc == 0:
            cap = {k: v["value"] for k, v in
                   json.loads(out)["capacity_bit_per_s"].items()}
            assert all(v is None or math.isfinite(v) for v in cap.values())
            _check_rates(fields, cap["c_fd_optimal"],
                         cap["c_fd_optimal_closed_form"], cap["c_fd_fixed"],
                         1.0)
            assert cap["c_hd"] >= 0.0
        p_bar = fields["p_bar"]
        rc, out, err = run(capsys, "sweep", path, "--sweep", "p_bar",
                           "--from", repr(p_bar), "--to", repr(2.0 * p_bar),
                           "--points", "2", "--outputs",
                           "fd_opt,fd_opt_cf,fd_fixed,fd_opt_mc,fd_fixed_mc",
                           "--samples", "256", "--seed", "1")
        assert rc in (0, 1, 2) and "Traceback" not in err, (fields, err)
        codes["sweep", rc] += 1
        if rc == 0:
            for line in out.strip().split("\n")[1:]:
                _, opt, cf, fix, opt_mc, fix_mc = (
                    None if cell == "" else float(cell)
                    for cell in line.split(","))
                cells = (opt, fix, opt_mc, fix_mc)
                assert all(v is not None and math.isfinite(v) for v in cells)
                _check_rates(fields, opt, cf, fix, 1e3)
                assert opt_mc >= 0.0 and fix_mc >= 0.0
    # the one named failure is the analytic net's: a solve at eta = 2.055
    assert codes["analyze", 0] >= 299 and codes["sweep", 0] >= 299, codes
