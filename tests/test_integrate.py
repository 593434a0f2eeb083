"""The one quadrature module: only fdcap._integrate defines the rule `quad`,
no module imports scipy, it alone defines NumericsError, every function and
class in fdcap has a caller there, and its Beta-weight kernel (expect, and
expect_log in w = -ln t) against scipy's QUADPACK (the QAWS rule it
replaced) and mpmath."""
import ast
import importlib
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import betaincc, betaln, digamma

import fdcap
from conftest import fixed_scan, make_cfg, mp_expect
from fdcap._integrate import NumericsError, expect, expect_log
from fdcap.capacity import fd_fixed_power_capacity
from fdcap.cinr import cinr_distribution
from fdcap.interference import gamma_fit

SRC = Path(fdcap.__file__).parent


def modules():
    """(name, module, parsed source) of fdcap and every submodule."""
    names = ["__init__"] + [m.name for m in pkgutil.iter_modules(fdcap.__path__)]
    for name in names:
        module = (fdcap if name == "__init__"
                  else importlib.import_module(f"fdcap.{name}"))
        yield name, module, ast.parse((SRC / f"{name}.py").read_text())


def test_only_integrate_defines_quad():
    # the benchmark counts quadrature nodes by rebinding fdcap._integrate.quad;
    # a quad defined or bound anywhere else would go uncounted.  No module
    # imports scipy, at module level or in a function body
    # (test_cli.test_commands_leave_scipy_unimported runs the commands)
    for name, module, tree in modules():
        defined = [node.name for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "quad"]
        imports = {node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)}
        imports |= {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        assert not any(m and m.split(".")[0] == "scipy"
                       for m in imports), name
        if name == "_integrate":
            assert defined == ["quad"]
        else:
            assert defined == [] and not hasattr(module, "quad"), name


def test_every_definition_has_a_caller_in_src():
    # a function or class that only tests call is code no command runs.
    # A caller is a name, an attribute or an import of it in some module
    # other than __init__, whose re-exports call nothing; Python itself
    # calls the dunder methods
    defined, used = [], set()
    for name, _, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, node.name))
            elif name == "__init__":
                continue
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [(module, fn) for module, fn in defined if fn not in used
              and not (fn.startswith("__") and fn.endswith("__"))]
    assert not unused


def test_importing_the_cli_leaves_scipy_integrate_out():
    # a fresh interpreter, as the benchmark's set-up time takes it
    done = subprocess.run(
        [sys.executable, "-c", "import sys, fdcap.cli; print(sorted(m for m "
         "in sys.modules if m.startswith(('scipy.integrate', "
         "'scipy.optimize'))))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert done.stdout.strip() == "[]"


def test_numerics_error_is_defined_once():
    defined = [name for name, _, tree in modules()
               for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and node.name == "NumericsError"]
    assert defined == ["_integrate"]
    for name, module, _ in modules():
        assert getattr(module, "NumericsError", NumericsError) \
            is NumericsError, name


@pytest.mark.parametrize("p, q", [(2.0, 1.5), (0.143, 0.7), (80.0, 1.0),
                                  (1.5, 0.389)])
@pytest.mark.parametrize("w_c", [0.3, 5.0, 40.0])
def test_expect_log_takes_the_window_next_to_one(p, q, w_c):
    # P[t >= e^(-w_c)] under Beta(p, q) is 1 - I_(e^(-w_c))(p, q); at
    # w_c = 40, 1 - e^(-w_c) rounds to 1, and the window in u = 1 - t with it
    want = float(betaincc(p, q, math.exp(-w_c)))
    got, err = expect_log(p, q, "test", lambda w: 1.0, w_c)
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)
    assert err <= 1e-10 * got


@pytest.mark.parametrize("p, q", [(2.0, 1.5), (3.0, 0.389), (6.0, 0.7)])
def test_expect_log_passes_w_to_g(p, q):
    # E[-ln t] = psi(p + q) - psi(p); the mass below e^(-60) is below e^(-120)
    got, _ = expect_log(p, q, "test", lambda w: w, 60.0)
    assert got == pytest.approx(digamma(p + q) - digamma(p), rel=1e-10,
                                abs=0.0)


def test_error_estimate_is_never_negative(monkeypatch):
    # a negative estimate would pass every `abserr > tolerance` check
    cases = [
        # the weight e^(-762 w) w^2 of the m_I = 762 fixed-power piece, whose
        # mass lies in w < 0.01 of [0, 17.4]: QAWS's estimate was -3.97e-11
        expect_log(762.4, 3.0, "test", lambda w: 1.0, 17.4),
        # an integrand that changes sign, whose levels do not all agree
        expect(2.0, 1.5, "test", lambda t: np.cos(9.0 * t)),
        # a log weight on a window a few ulps wide
        expect(2.0, 0.5, "test", lambda t, lg: lg, 1.0 - 2.0 ** -50,
               log_at=1.0)]
    # the levels run out, and the estimate is what quad returns there
    monkeypatch.setattr(fdcap._integrate, "LEVELS", 3)
    cases.append(fdcap._integrate.quad(lambda x: np.cos(200.0 * x), 0.0, 1.0))
    for value, err, *_ in cases:
        assert err >= 0.0, (value, err)


def test_expect_log_names_its_stage():
    with pytest.raises(NumericsError) as err:
        expect_log(2.0, 1.5, "some_stage", lambda w: math.nan, 1.0)
    assert err.value.stage == "some_stage"


def test_refused_input_names_its_stage():
    # below p of about 5e-17 the exponent p - 1 rounds to -1, where the
    # weight is no longer integrable, and the rule refuses it
    with pytest.raises(NumericsError, match="exponents must exceed -1") \
            as err:
        expect(3e-17, 2.0, "some_stage", lambda t: 1.0)
    assert err.value.stage == "some_stage"


def test_running_out_of_levels_names_the_stage(monkeypatch):
    # 64 periods of the cosine over [0, 1] need finer nodes than level 3
    with monkeypatch.context() as patch:
        patch.setattr(fdcap._integrate, "LEVELS", 3)
        with pytest.raises(NumericsError,
                           match="did not converge by level 3") as err:
            expect(2.0, 1.5, "some_stage", lambda t: np.cos(400.0 * t))
    assert err.value.stage == "some_stage"
    # the same integral converges at the module's last level
    expect(2.0, 1.5, "some_stage", lambda t: np.cos(400.0 * t))


# ------------------------------------------- differential: QAWS and mpmath

def qaws_expect(p, q, g, lo, hi, log_at):
    """The same expectation by scipy's QUADPACK, as fdcap took it before:
    the Beta factor at an end of [lo, hi] (and the log factor) in QAWS's
    algebraic weight, the rest and 1/B(p, q) in logs in the integrand.
    NaN where QUADPACK raises or overflows."""
    weight = {None: "alg", 0.0: "alg-loga", 1.0: "alg-logb"}[log_at]
    alpha = p - 1.0 if lo == 0.0 else 0.0
    beta = q - 1.0 if hi == 1.0 else 0.0
    a, b, log_c = p - 1.0 - alpha, q - 1.0 - beta, -float(betaln(p, q))

    def f(t):
        return g(t) * math.exp(log_c + (a * math.log(t) if a else 0.0)
                               + (b * math.log1p(-t) if b else 0.0))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return integrate.quad(f, lo, hi, weight=weight, wvar=(alpha, beta),
                                  epsabs=0.0, epsrel=1e-12, limit=200)[0]
        except (ValueError, OverflowError):
            return math.nan


def test_expect_matches_qaws_or_else_mpmath_on_a_seeded_grid():
    # p and q log-uniform in [0.05, 800], windows [0, 1], [0, hi], [lo, 1]
    # and [lo, hi], log_at None, 0 or 1 where it is an end, three smooth g.
    # Each value meets QAWS to the kernel's tolerance, max(1e-13,
    # 1e-10 |value|), or, where the two part by more, mpmath: on these 200
    # draws that is 7, all with p or q above 270, where QAWS returns NaN or
    # values up to 4e49 and the rule meets mpmath to 5.4e-14
    mpmath = pytest.importorskip("mpmath")
    g_pairs = [(lambda t: 1.0 / (1.0 + t), lambda t: 1 / (1 + t)),
               (lambda t: np.exp(-3.0 * t), lambda t: mpmath.exp(-3 * t)),
               (lambda t: np.log1p(5.0 * t) + 1.0,
                lambda t: mpmath.log1p(5 * t) + 1)]
    rng = np.random.default_rng(20261019)
    parted = []
    for i in range(200):
        p, q = 10.0 ** rng.uniform(math.log10(0.05), math.log10(800.0), 2)
        x1, x2 = np.sort(rng.uniform(0.0, 1.0, 2))
        lo, hi = [(0.0, 1.0), (0.0, float(x2)), (float(x1), 1.0),
                  (float(x1), float(x2))][i % 4]
        log_at = [None, 0.0, 1.0][i % 3]
        if log_at not in (lo, hi):
            log_at = None
        g, g_mp = g_pairs[(i // 3) % 3]
        if log_at is None:
            got, _ = expect(p, q, "test", g, lo, hi)
            G = lambda t, u: g_mp(t)                     # noqa: E731
        else:
            got, _ = expect(p, q, "test", lambda t, lg: g(t) * lg, lo, hi,
                            log_at=log_at)
            G = (lambda t, u: g_mp(t) * mpmath.log(t) if log_at == 0.0
                 else g_mp(t) * mpmath.log(u))           # noqa: E731
        want = qaws_expect(p, q, g, lo, hi, log_at)
        if not abs(got - want) <= max(1e-13, 1e-10 * abs(want)):
            want = mp_expect(p, q, G, lo, hi)
            parted.append((i, max(p, q)))
            assert abs(got - want) <= max(1e-13, 1e-10 * abs(want)), \
                (i, p, q, lo, hi, log_at, got, want)
    assert len(parted) == 7 and min(m for _, m in parted) > 270.0, parted


# Draws of conftest.fixed_scan where the fixed-power rate by QAWS (the
# parent of this kernel) and by the tanh-sinh rule part by more than 1e-8
# relative: rates from 9e-16 to 1e-3 bit/s, at p_bar/k from 1e-25 to 1e-9.
# mpmath sides with the rule on 32 of the 33 (QAWS was off by up to 3.0e-3
# relative, the rule by at most 1.5e-13); on draw 87 QAWS was nearer, 2e-16
# against 1.5e-15.
QAWS_PARTED = (6, 9, 16, 22, 31, 32, 36, 45, 51, 69, 72, 76, 87, 88, 104, 113,
               132, 138, 140, 142, 147, 165, 171, 185, 200, 204, 217, 228,
               236, 246, 276, 291, 299)


def test_fixed_power_rate_meets_mpmath_where_qaws_parted():
    # in nats (bandwidth ln 2), to 1e-10 relative or 1e-13 nats, the
    # mpmath tests' tolerance
    mpmath = pytest.importorskip("mpmath")
    scan = list(fixed_scan())
    for i in QAWS_PARTED:
        cfg = make_cfg(**dict(scan[i], bandwidth=math.log(2.0)))
        d = cinr_distribution(cfg, gamma_fit(cfg))
        r = mpmath.mpf(cfg.p_bar) / mpmath.mpf(d.k)

        def rate(t, u):
            return mpmath.log1p(r * t / u)

        t_c = 1 / (1 + r)
        want = (mp_expect(d.m0, d.mI, rate, 0, t_c)
                + mp_expect(d.m0, d.mI, rate, t_c))
        got = fd_fixed_power_capacity(d, cfg.p_bar, cfg.bandwidth)
        assert abs(got - want) <= max(1e-10 * want, 1e-13), (i, got, want)


# ------------------------------------------------------------------- rows

def test_rows_equal_the_one_row_calls():
    # seeded batches of windows, some flipped into u = 1 - t: each row is
    # the float of the one-row call, a flipped row the Beta(q, p) call in u
    # with its log at the mirrored end, bit for bit
    rng = np.random.default_rng(28)
    for i in range(40):
        p, q = 10.0 ** rng.uniform(-1.0, 2.0, 2)
        rows = int(rng.integers(2, 10))
        cut = rng.uniform(0.0, 1.0, rows)
        flip = rng.uniform(size=rows) < 0.5
        # t windows [cut, 1] and u windows [0, cut]: both reach t = 1
        lo, hi = np.where(flip, 0.0, cut), np.where(flip, cut, 1.0)
        c = rng.uniform(0.5, 30.0, rows)
        log_at = [None, 1.0][i % 2]
        if log_at is None:
            g = lambda x, c: np.cos(c * x) + 2.0             # noqa: E731
        else:
            g = lambda x, lg, c: (np.cos(c * x) + 2.0) * lg  # noqa: E731
        got, err = expect(p, q, "rows", g, lo, hi, log_at=log_at, flip=flip,
                          args=(c,))
        for j in range(rows):
            one = (lambda x, *a: g(x, *a[:-1], c[j]))     # noqa: E731
            want = expect(q if flip[j] else p, p if flip[j] else q, "row", one,
                          lo[j], hi[j], log_at=None if log_at is None
                          else 1.0 - log_at if flip[j] else log_at,
                          args=(c[j],))
            assert (got[j], err[j]) == want, (i, j)


def test_a_row_that_refines_leaves_its_neighbours():
    # 64 periods of the cosine over [0, 1] need level 6; the rows beside it
    # stop at level 3, with the values and node counts of their own calls
    freq = np.array([2.0, 400.0, 3.0])
    value, err, info = fdcap._integrate.quad(
        lambda x, c: np.cos(c * x), 0.0, 1.0, args=(freq,))
    alone = [fdcap._integrate.quad(lambda x, c: np.cos(c * x), 0.0, 1.0,
                                   args=(c,)) for c in freq]
    assert info["level"].tolist() == [3, 6, 3]
    assert info["neval"] == sum(a[2]["neval"] for a in alone)
    assert value.tolist() == [a[0] for a in alone]
    assert err.tolist() == [a[1] for a in alone]


def test_a_failing_row_is_named_and_its_neighbours_kept():
    # the middle row's integrand is NaN: quad_strict names that row and its
    # window; with nan_rows it is NaN alone
    def g(x, bad):
        return np.where(bad, np.nan, np.exp(-x))

    hi = np.array([1.0, 2.0, 3.0])
    bad = np.array([False, True, False])
    with pytest.raises(NumericsError, match=r"at row 1, window \[0\.0, 2\.0\]"
                       ) as err:
        fdcap._integrate.quad_strict("some_stage", g, 0.0, hi, args=(bad,))
    assert (err.value.stage, err.value.row) == ("some_stage", 1)
    value, abserr = fdcap._integrate.quad_strict("some_stage", g, 0.0, hi,
                                                 args=(bad,), nan_rows=True)
    assert math.isnan(value[1]) and math.isnan(abserr[1])
    for j in (0, 2):
        assert (value[j], abserr[j]) == fdcap._integrate.quad_strict(
            "some_stage", lambda x: np.exp(-x), 0.0, hi[j])
    # a one-row call keeps its message and carries no row
    with pytest.raises(NumericsError) as err:
        fdcap._integrate.quad_strict("some_stage", g, 0.0, 2.0, args=(True,))
    assert err.value.row is None and "row" not in str(err.value)
