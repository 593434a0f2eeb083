"""Command-line surface: exit codes, JSON/CSV shapes, reproducibility.

Everything runs in-process through cli.main(argv) so stdout/stderr are
captured exactly as a shell user would see them.  The validate runs here
exercise the known-red regime on purpose: at the micro scenario the KS and
water-filling-gap checks fail their tolerances (structural Gamma-fit error,
see test_mcsim/test_capacity), so cmd_validate's exit code 3 and per-check
pass flags are asserted against that reality.
"""
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special as sps

from fdcap import capacity, cli, mcsim
from fdcap.interference import gamma_fit
from fdcap.mcsim import MCConfig
from fdcap.model import load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MICRO = str(CONFIG_DIR / "micro.cfg")
DATA_DIR = Path(__file__).resolve().parent / "data"

# quadrature capacity of the micro scenario, bit/s (same anchor as
# test_capacity)
C_OPT_MICRO = 147556.36325658316


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def micro_with(tmp_path, **fields) -> str:
    """configs/micro.cfg with the given fields replaced, as a new file."""
    lines = []
    for line in Path(MICRO).read_text().splitlines():
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
    assert der["a0_w"] == pytest.approx(0.6793691055610199, rel=1e-9)
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
    assert sorted(doc["mc"].keys()) == ["n_samples", "rho_w", "seed",
                                        "tail_epsilon"]
    assert doc["mc"]["rho_w"] == pytest.approx(8e-9, rel=1e-9, abs=0.0)


def test_analyze_marks_an_unavailable_closed_form(capsys, monkeypatch):
    monkeypatch.setattr(capacity, "fd_optimal_capacity_closed_form",
                        lambda d, a0, bandwidth: None)
    rc, out, _ = run(capsys, "analyze", MICRO, "--samples", "2000")
    assert rc == 0
    assert json.loads(out)["capacity_bit_per_s"]["c_fd_optimal_closed_form"] \
        == {"value": None, "provenance": "unavailable"}


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
                        lambda cfg: math.nan)
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


def test_tail_epsilon_default_is_the_library_default():
    args = cli.build_parser().parse_args(["analyze", MICRO])
    assert args.tail_epsilon == MCConfig.tail_epsilon == 1e-3


# --------------------------------------------------------- numeric edges --

def test_sweep_keeps_a_row_quadpack_warns_about_within_tolerance(
        capsys, tmp_path):
    # at lambda = 7.2e-6 QUADPACK reports roundoff although its error
    # estimate (4e-11 on 11.95) meets the requested 1e-10 relative
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


def test_sweep_blanks_a_closed_form_beyond_double_range(capsys, tmp_path):
    # z = -a0/k = -3.3e7 and m_I = 60: a0^m_I / k^m_I is about e^1039, far
    # beyond a double, and the 3F2 far below its integral's resolution
    cfg = micro_with(tmp_path, eta=2.2)
    rc, out, err = run(capsys, "sweep", cfg, "--sweep", "lambda",
                       "--from", "1e-12", "--to", "1e-12", "--points", "1",
                       "--outputs", "fd_opt,fd_opt_cf")
    assert rc == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 1 and rows[0].endswith(",")
    assert "Traceback" not in err


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


def test_eta_near_two_is_a_named_numeric_failure(capsys, tmp_path):
    cfg = micro_with(tmp_path, eta=2.001)
    rc, out, err = run(capsys, "sweep", cfg, "--sweep", "lambda",
                       "--from", "5e-5", "--to", "5e-5", "--points", "1",
                       "--outputs", "fd_opt")
    assert rc == 2
    assert out == ""
    assert err.startswith("numeric failure: solve_cutoff: ")
    assert "eta -> 2" in err


@pytest.mark.parametrize("eta", [2.4, 2.1, 2.05])
def test_analyze_answers_eta_near_two(capsys, tmp_path, eta):
    # the far ring's Gamma variate leaves the near field under about 1e3
    # points per sample as eta -> 2 (202 at eta = 2.4, 778 at 2.05)
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


def test_budget_whose_power_underflows_is_a_named_numeric_failure(capsys):
    # E[P] underflows to 0.0 at every a0 = 1e-300 * 2^j the bracket tries
    rc, out, err = run(capsys, "sweep", MICRO, "--sweep", "p_bar",
                       "--from", "1e-300", "--to", "1e-300", "--points", "1",
                       "--outputs", "fd_opt")
    assert rc == 2
    assert out == ""
    assert err.startswith("numeric failure: solve_cutoff: no bracket")
    assert "a0/k=" in err and "underflows to 0.0" in err
    assert "eta -> 2" not in err


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
    assert doc["a0_w"] == pytest.approx(0.6793691055610199, rel=1e-9)
    names = [c["name"] for c in doc["checks"]]
    assert names == ["interference_mean_vs_model",
                     "interference_second_moment_vs_model",
                     "ks_samples_vs_gamma_fit",
                     "fd_optimal_mc_vs_quadrature"]
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["interference_mean_vs_model"]["pass"] is True
    assert by_name["interference_second_moment_vs_model"]["pass"] is True
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


def test_validate_oversized_field_is_a_named_numeric_failure(capsys,
                                                             tmp_path):
    # at r0 = 1e6 m the near field holds 2.33e9 points per sample
    rc, out, err = run(capsys, "validate", MICRO, "--samples", "10000",
                       "--r0", "1e6", "--hist-out", str(tmp_path / "h.csv"))
    assert rc == 2
    assert out == ""
    assert err.startswith("numeric failure: mcsim: ")
    assert "2.33e+09 expected points per sample" in err


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


def _ks_full(samples, shape, scale, gammainc):
    """The KS statistic with the cdf at every order statistic: the
    reference that cli._ks_vs_gamma must reproduce to the bit."""
    x = np.sort(samples)
    cdf = gammainc(shape, x / scale)
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
            assert cli._ks_vs_gamma(x, shape, scale) == \
                _ks_full(x, shape, scale, sps.gammainc), (n, kind)


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
        _ks_full(x, fit.shape, fit.scale, sps.gammainc)


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
    monkeypatch.setattr(cli, "sps", SimpleNamespace(gammainc=cdf))
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
    chunks = -(-20_000 // mcsim.CHUNK)
    assert rc == 3 and chunks == 20
    assert len(calls) == passes * chunks
    if r0:
        assert calls.count(300.0) == chunks
