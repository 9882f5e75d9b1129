"""Exact statistics and M-PSK error rates for the TWDP fading model."""

from .errors import (
    CancellationLossError,
    InvalidParameterError,
    QuadratureError,
    RangeOverflowError,
    SeriesDivergenceError,
    TwdpError,
)
from .params import (
    PhysicalMagnitudes,
    TwdpParams,
    delta_from_gamma,
    gamma_from_delta,
    k_from_rice_delta,
    k_from_rice_gamma,
)
from .specfun import (
    SeriesResult,
    bessel_i_scaled,
    exp_i0_identity_rhs,
    marcum_q1,
)
from .dist import (
    cdf,
    cdf_grid,
    cdf_rayleigh,
    cdf_rician,
    cdf_snr,
    pdf,
    pdf_grid,
    pdf_rayleigh,
    pdf_rician,
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
    "PhysicalMagnitudes",
    "QuadratureError",
    "RangeOverflowError",
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
    "bessel_i_scaled",
    "cdf",
    "cdf_grid",
    "cdf_rayleigh",
    "cdf_rician",
    "cdf_snr",
    "delta_from_gamma",
    "exp_i0_identity_rhs",
    "gamma_from_delta",
    "k_from_rice_delta",
    "k_from_rice_gamma",
    "marcum_q1",
    "mgf_closed",
    "mgf_series",
    "mgf_series_grid",
    "pdf",
    "pdf_grid",
    "pdf_rayleigh",
    "pdf_rician",
    "simulate_psk_ser",
]
