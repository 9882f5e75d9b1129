"""Exact statistics and M-PSK error rates for the TWDP fading model."""

from .errors import (
    CancellationLossError,
    InvalidParameterError,
    QuadratureError,
    SeriesDivergenceError,
    TwdpError,
)
from .params import (
    TwdpParams,
    delta_from_gamma,
    gamma_from_delta,
    k_from_rice_delta,
    k_from_rice_gamma,
)
from .specfun import SeriesResult
from .dist import (
    cdf,
    cdf_grid,
    cdf_snr,
    pdf,
    pdf_grid,
)
from .mgf import mgf_closed, mgf_series, mgf_series_grid
from .asep import (
    ModulationSpec,
    asep_asymptotic,
    asep_exact,
    asep_exact_grid,
    asep_quadrature,
)
from .mcsim import SerEstimate, SimConfig, simulate_psk_ser

__version__ = "0.1.0"

__all__ = [
    "CancellationLossError",
    "InvalidParameterError",
    "ModulationSpec",
    "QuadratureError",
    "SerEstimate",
    "SeriesDivergenceError",
    "SeriesResult",
    "SimConfig",
    "TwdpError",
    "TwdpParams",
    "asep_asymptotic",
    "asep_exact",
    "asep_exact_grid",
    "asep_quadrature",
    "cdf",
    "cdf_grid",
    "cdf_snr",
    "delta_from_gamma",
    "gamma_from_delta",
    "k_from_rice_delta",
    "k_from_rice_gamma",
    "mgf_closed",
    "mgf_series",
    "mgf_series_grid",
    "pdf",
    "pdf_grid",
    "simulate_psk_ser",
]
