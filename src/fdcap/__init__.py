"""fdcap: upper bound on uplink capacity in in-band full-duplex cellular
networks — aggregate-interference moment matching, beta-prime CINR law,
water-filling power control, closed-form capacity, and a Poisson-field
Monte Carlo simulator that validates all of it."""

from ._integrate import NumericsError
from .capacity import (default_rho, fd_fixed_power_capacity,
                       fd_optimal_capacity_closed_form, solve_network,
                       waterfill_rate)
from .cinr import BetaPrimeDist, cinr_distribution
from .interference import gamma_fit, mean_interference, second_moment
from .mcsim import (MCConfig, SampleStats, estimate_fd_rates, estimate_hd,
                    interference_samples)
from .model import (ConfigError, GammaParams, NetworkConfig, config_values,
                    load_config, parse_config, validate)
from .powercontrol import WaterfillSolution, avg_power, solve_cutoff
from .specfun import EvalResult, hyper_3f2

__version__ = "0.1.0"
