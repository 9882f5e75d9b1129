"""TWDP fading parameters and conversions.

The model envelope is r(t) = V1 e^{j Phi1} + V2 e^{j Phi2} + n(t) with two
constant-magnitude specular rays (V2 <= V1, uniform independent phases) and a
zero-mean complex Gaussian diffuse term of total power 2 sigma^2.  Two
dimensionless parameters describe the fading:

    K     = (V1^2 + V2^2) / (2 sigma^2)      specular-to-diffuse power ratio
    Gamma = V2 / V1                          specular magnitude ratio in [0, 1]

The legacy second parameter Delta = 2 V1 V2 / (V1^2 + V2^2) relates to Gamma
through Delta = 2 Gamma / (1 + Gamma^2), which is invertible on [0, 1].
Total average power is Omega = V1^2 + V2^2 + 2 sigma^2 = 2 sigma^2 (1 + K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError


@dataclass(frozen=True)
class TwdpParams:
    """Fading parameter set (K, Gamma) plus the diffuse half-power sigma2.

    When sigma2 is omitted it defaults to 1 / (2 (1 + K)), which normalizes
    the total power to Omega = 1 so envelopes are directly comparable across
    parameter sets.
    """

    k: float
    gamma: float
    sigma2: float | None = None

    def __post_init__(self):
        if self.k < 0 or not math.isfinite(self.k):
            raise InvalidParameterError(f"k must be nonnegative, got {self.k}")
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidParameterError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.sigma2 is None:
            object.__setattr__(self, "sigma2", 1.0 / (2.0 * (1.0 + self.k)))
        if self.sigma2 <= 0 or not math.isfinite(self.sigma2):
            raise InvalidParameterError(f"sigma2 must be positive, got {self.sigma2}")

    @property
    def omega(self) -> float:
        """Total average envelope power V1^2 + V2^2 + 2 sigma^2."""
        return 2.0 * self.sigma2 * (1.0 + self.k)

    @property
    def v1(self) -> float:
        # sqrt(K) apart: 2 sigma^2 K underflows for subnormal K, where V1 does not
        return math.sqrt(self.k) * math.sqrt(2.0 * self.sigma2 / (1.0 + self.gamma ** 2))

    @property
    def v2(self) -> float:
        return self.gamma * self.v1

    @property
    def delta(self) -> float:
        return delta_from_gamma(self.gamma)

    @property
    def k_rice(self) -> float:
        """Rician K-factor of the dominant ray alone, V1^2 / (2 sigma^2)."""
        return self.k / (1.0 + self.gamma ** 2)


def delta_from_gamma(gamma: float) -> float:
    """Delta = 2 Gamma / (1 + Gamma^2), strictly increasing on [0, 1]."""
    if not 0.0 <= gamma <= 1.0:
        raise InvalidParameterError(f"gamma must lie in [0, 1], got {gamma}")
    return 2.0 * gamma / (1.0 + gamma * gamma)


def gamma_from_delta(delta: float) -> float:
    """Inverse of delta_from_gamma: Gamma = (1 - sqrt(1 - Delta^2)) / Delta.

    Evaluated in the conjugate form Delta / (1 + sqrt((1-Delta)(1+Delta))),
    which has no cancellation anywhere in [0, 1]; the direct expression loses
    half its digits already at Delta ~ 1e-2 and everything below ~1e-8.
    """
    if not 0.0 <= delta <= 1.0:
        raise InvalidParameterError(f"delta must lie in [0, 1], got {delta}")
    return delta / (1.0 + math.sqrt((1.0 - delta) * (1.0 + delta)))


def k_from_rice_gamma(k_rice_value: float, gamma: float) -> float:
    """Total K from the dominant-ray K and Gamma: K = K_rice (1 + Gamma^2)."""
    if k_rice_value < 0:
        raise InvalidParameterError("k_rice must be nonnegative")
    if not 0.0 <= gamma <= 1.0:
        raise InvalidParameterError(f"gamma must lie in [0, 1], got {gamma}")
    return k_rice_value * (1.0 + gamma * gamma)


def k_from_rice_delta(k_rice_value: float, delta: float) -> float:
    """Total K from the dominant-ray K and Delta.

    K = K_rice * 2 (1 - sqrt(1 - Delta^2)) / Delta^2, with the Delta -> 0
    limit equal to K_rice.  Reuses the cancellation-safe Gamma conversion
    because 2 (1 - sqrt(1 - d^2)) / d^2 = 2 gamma_from_delta(d) / d.
    """
    if k_rice_value < 0:
        raise InvalidParameterError("k_rice must be nonnegative")
    if not 0.0 <= delta <= 1.0:
        raise InvalidParameterError(f"delta must lie in [0, 1], got {delta}")
    if delta == 0.0:
        return k_rice_value
    return k_rice_value * 2.0 * gamma_from_delta(delta) / delta
