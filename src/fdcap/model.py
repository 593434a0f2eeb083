"""Network model: config types and keys, validation, derived cell geometry.

The scenario is a cellular uplink where base stations (BSs) form a planar
Poisson field of intensity ``lambda`` (1/m^2).  The analysis cell is a disc of
radius r0 = 1/sqrt(pi*lambda) around the receiving BS — the area such that
pi*lambda*r0^2 = 1 — and every interfering BS lies outside it.  The served
user sits at the mean nearest-BS distance rbar = 1/(2*sqrt(lambda)).

All fading laws are Gamma and are carried as (shape, mean) pairs; the scale
is always derived as mean/shape, so there is exactly one parameterization in
the whole package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """A configuration field violates its constraint; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class GammaParams:
    """Gamma law by (shape, mean).  scale = mean / shape."""

    shape: float
    mean: float

    @property
    def scale(self) -> float:
        return self.mean / self.shape


@dataclass(frozen=True)
class NetworkConfig:
    """Physical parameters of one scenario.

    lam        BS intensity (1/m^2)
    p_bs       BS transmit power (W)
    eta        path-loss exponent (> 2, strictly: the mean interference
               integral diverges at eta = 2)
    n0         noise power (W)
    bandwidth  uplink bandwidth (Hz)
    p_bar      user average transmit-power constraint (W)
    fading_interferer  (m, Omega) of each interfering BS->BS channel
    fading_signal      (m0, Omega0) of the served user's channel before the
                       fixed link path loss; the composite gain used by the
                       CINR law is h = alpha0 / (2*sqrt(lam))**eta

    Construction (including dataclasses.replace) validates, so every
    instance satisfies the constraints of `validate`.
    """

    lam: float
    p_bs: float
    eta: float
    n0: float
    bandwidth: float
    p_bar: float
    fading_interferer: GammaParams
    fading_signal: GammaParams

    def __post_init__(self):
        validate(self)

    @property
    def r0(self) -> float:
        """Exclusion radius 1/sqrt(pi*lambda) (m)."""
        return 1.0 / (math.sqrt(math.pi) * math.sqrt(self.lam))

    @property
    def rbar(self) -> float:
        """User link distance 1/(2*sqrt(lambda)) (m)."""
        return 0.5 / math.sqrt(self.lam)


def validate(cfg: NetworkConfig) -> NetworkConfig:
    """Check every invariant; return cfg unchanged or raise ConfigError.

    The sign and range rules come first, then every value must be finite.
    The first violated constraint wins and the error names the field.
    """
    if not cfg.lam > 0:
        raise ConfigError("lambda", f"BS intensity must be > 0, got {cfg.lam}")
    if not cfg.p_bs >= 0:
        raise ConfigError("p_bs", f"BS power must be >= 0, got {cfg.p_bs}")
    if not cfg.eta > 2:
        raise ConfigError(
            "eta",
            f"path-loss exponent must be > 2 (the mean aggregate interference "
            f"diverges as eta -> 2 because the far-field integral scales as "
            f"r^(1-eta) out to infinity), got {cfg.eta}",
        )
    if not cfg.n0 > 0:
        raise ConfigError("n0", f"noise power must be > 0, got {cfg.n0}")
    if not cfg.bandwidth > 0:
        raise ConfigError("bandwidth", f"bandwidth must be > 0, got {cfg.bandwidth}")
    if not cfg.p_bar > 0:
        raise ConfigError("p_bar", f"average power constraint must be > 0, got {cfg.p_bar}")
    for field, params in (("m_int/omega_int", cfg.fading_interferer),
                          ("m_sig/omega_sig", cfg.fading_signal)):
        name_shape, name_mean = field.split("/")
        if not params.shape > 0:
            raise ConfigError(name_shape, f"Gamma shape must be > 0, got {params.shape}")
        if not params.mean > 0:
            raise ConfigError(name_mean, f"Gamma mean must be > 0, got {params.mean}")
    for key, value in config_values(cfg).items():
        if not math.isfinite(value):
            raise ConfigError(key, f"must be finite, got {value}")
    return cfg


def config_values(cfg: NetworkConfig) -> dict[str, float]:
    """The config file's key -> value, in _CONFIG_KEYS order: the inverse
    of parse_config."""
    fi, fs = cfg.fading_interferer, cfg.fading_signal
    return dict(zip(_CONFIG_KEYS, (cfg.lam, cfg.p_bs, cfg.eta, cfg.n0,
                                   cfg.bandwidth, cfg.p_bar, fi.shape,
                                   fi.mean, fs.shape, fs.mean)))


_CONFIG_KEYS = ("lambda", "p_bs", "eta", "n0", "bandwidth", "p_bar",
                "m_int", "omega_int", "m_sig", "omega_sig")


def parse_config(text: str) -> NetworkConfig:
    """Parse ``key = value`` lines (# starts a comment) into a NetworkConfig.

    Exactly the keys lambda, p_bs, eta, n0, bandwidth, p_bar, m_int,
    omega_int, m_sig, omega_sig are accepted; anything else is an error,
    as is a missing or repeated key.  lambda is in 1/m^2.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("<file>", f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(key, f"line {lineno}: unknown key")
        if key in values:
            raise ConfigError(key, f"line {lineno}: duplicate key")
        try:
            values[key] = float(val.strip())
        except ValueError:
            raise ConfigError(key, f"line {lineno}: not a number: {val.strip()!r}") from None
    missing = [k for k in _CONFIG_KEYS if k not in values]
    if missing:
        raise ConfigError(missing[0], "missing from config file")
    return NetworkConfig(
        lam=values["lambda"],
        p_bs=values["p_bs"],
        eta=values["eta"],
        n0=values["n0"],
        bandwidth=values["bandwidth"],
        p_bar=values["p_bar"],
        fading_interferer=GammaParams(values["m_int"], values["omega_int"]),
        fading_signal=GammaParams(values["m_sig"], values["omega_sig"]),
    )


def load_config(path: str) -> NetworkConfig:
    """Read and parse a config file; see parse_config for the format.

    The file must be ASCII text; any other byte is a ConfigError naming the
    file and the line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(path, f"line {line}: byte {data[exc.start]:#04x} "
                                f"is not ASCII") from None
    return parse_config(text)
