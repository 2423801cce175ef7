"""Parity selection rules and multipole transition-probability scalings.

Scaling ratios are leading order in the small parameter ka (photon wave
number times atomic size); the neglected corrections are O((ka)^4)
relative.  No atomic matrix elements are computed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .modes import TAU_ELECTRIC, _validate_tau
from .specfun import _check_int, _check_sign

__all__ = [
    "TransitionQuery",
    "photon_parity",
    "transition_allowed",
    "scaling_ratio",
    "RATIO_KINDS",
]

RATIO_KINDS = ("M_over_E", "E_step", "M_step")


def photon_parity(tau: str, j: int) -> int:
    """Parity of a multipole photon: electric (-1)^j, magnetic (-1)^(j+1)."""
    t = _validate_tau(tau)
    _check_int("j", j, 1, math.inf)
    return (-1) ** j if t == TAU_ELECTRIC else (-1) ** (j + 1)


def transition_allowed(parity_initial: int, parity_final: int, tau: str, j: int) -> bool:
    """Parity selection rule for single-photon absorption/emission.

    Allowed iff P_initial * P_final equals the photon parity.
    """
    _check_sign("parity_initial", parity_initial)
    _check_sign("parity_final", parity_final)
    return parity_initial * parity_final == photon_parity(tau, j)


def _check_ka(ka: float, stacklevel: int) -> None:
    """Reject ka unless it is finite and > 0, and warn above 0.1, where the
    leading order is unreliable; ``stacklevel`` counts from the caller, as
    in warnings.warn."""
    if not 0 < ka < math.inf:
        raise ValueError(f"ka must be a finite number > 0, got {ka!r}")
    if ka > 0.1:
        warnings.warn(f"ka = {ka} is not small; leading-order scalings are "
                      "unreliable", stacklevel=stacklevel + 1)


@dataclass(frozen=True)
class TransitionQuery:
    """One transition: atomic parities, photon multipole, and size parameter ka."""

    parity_initial: int
    parity_final: int
    tau: str
    j: int
    ka: float

    def __post_init__(self):
        # validates the parities, tau and j
        transition_allowed(self.parity_initial, self.parity_final, self.tau, self.j)
        _check_ka(self.ka, stacklevel=3)  # past the generated __init__

    @property
    def allowed(self) -> bool:
        return transition_allowed(self.parity_initial, self.parity_final,
                                  self.tau, self.j)


def scaling_ratio(kind: str, j: int, ka: float) -> float:
    """Leading-order transition-probability ratio.

    kind = "M_over_E":  P(Mj)/P(Ej)         = (ka)^2 / ((j+1)(2j+1))
    kind = "E_step":    P(E(j+1))/P(Ej)     = (j+2)(ka)^2 / ((j+1)(2j+1)(2j+3))
    kind = "M_step":    P(M(j+1))/P(Mj)     = (ka)^2 / (2j+3)^2

    All three scale exactly as (ka)^2 and decrease with j.
    """
    if kind not in RATIO_KINDS:
        raise ValueError(f"kind must be one of {RATIO_KINDS}, got {kind!r}")
    _check_int("j", j, 1, math.inf)
    _check_ka(ka, stacklevel=2)
    ka2 = ka * ka
    if kind == "M_over_E":
        return ka2 / ((j + 1) * (2 * j + 1))
    if kind == "E_step":
        return (j + 2) * ka2 / ((j + 1) * (2 * j + 1) * (2 * j + 3))
    return ka2 / (2 * j + 3) ** 2
