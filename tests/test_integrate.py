"""The one QUADPACK module: only fdcap._integrate binds scipy's quad, it
alone defines NumericsError, and its w = -ln t kernel expect_log."""
import ast
import importlib
import math
import pkgutil
from pathlib import Path

import pytest
from scipy import integrate
from scipy.special import betaincc, digamma

import fdcap
from fdcap._integrate import NumericsError, expect, expect_log

SRC = Path(fdcap.__file__).parent


def modules():
    """(name, module, parsed source) of fdcap and every submodule."""
    names = ["__init__"] + [m.name for m in pkgutil.iter_modules(fdcap.__path__)]
    for name in names:
        module = (fdcap if name == "__init__"
                  else importlib.import_module(f"fdcap.{name}"))
        yield name, module, ast.parse((SRC / f"{name}.py").read_text())


def test_only_integrate_binds_quadpack():
    # the benchmark counts QUADPACK evaluations by rebinding
    # fdcap._integrate.quad; a quad bound anywhere else would go uncounted
    for name, module, tree in modules():
        bound = [attr for attr, obj in vars(module).items()
                 if obj is integrate.quad]
        imports = {node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)}
        imports |= {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        reaches = sorted(m for m in imports
                         if m and m.startswith("scipy.integrate"))
        if name == "_integrate":
            assert bound == ["quad"] and reaches == ["scipy.integrate"]
        else:
            assert bound == [] and reaches == [], name


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


def test_error_estimate_is_never_negative():
    # QAWS returns the estimate -3.97e-11 here: a negative estimate would
    # pass every `abserr > tolerance` check
    _, err = expect_log(762.4, 3.0, "test", lambda w: 1.0, 17.4)
    assert err >= 0.0


def test_expect_log_names_its_stage():
    with pytest.raises(NumericsError) as err:
        expect_log(2.0, 1.5, "some_stage", lambda w: math.nan, 1.0)
    assert err.value.stage == "some_stage"


def test_refused_input_names_its_stage():
    # below p of about 5e-17 the QAWS exponent p - 1 rounds to -1, and
    # QUADPACK refuses its input
    with pytest.raises(NumericsError, match="input is invalid") as err:
        expect(3e-17, 2.0, "some_stage", lambda t: 1.0)
    assert err.value.stage == "some_stage"
