"""Entropy-like functionals between quantum states.

Sandwiched Renyi divergence of any positive order, quantum relative
entropy, the functional derivative of the sandwiched divergence, and the
relative Fisher information of a state under a detailed-balance generator.

All quantities are reported in nats.  The reference state sigma must be
strictly positive, which makes every divergence finite.  Each public
function validates its states once and rotates rho into sigma's frame
once; the sandwiched divergence, the relative entropy and the functional
derivative are then read from one `noncomm_ops.frame_sandwiched_state`, and
the derivative is rotated back.  The Fisher information takes no sigma:
it reads sigma's decomposition from its generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore as mc
from . import noncomm_ops as nco
from .errors import StructuralError


@dataclass(frozen=True)
class DivergenceValue:
    """Order, value (nats) and trace normalization of a divergence."""

    alpha: float
    value: float
    Z: float


def _sandwiched(rho, sigma, alpha: float, strict: bool = False) -> nco.SandwichedState:
    """Validate rho, and sigma by the decomposition that supplies its frame
    (the two must have one size), then form their sandwiched state (which
    checks the order)."""
    rho = mc.require_density(rho, strict=strict, name="rho")
    sigma_dec = mc.density_spectrum(sigma, strict=True, name="sigma")
    if rho.shape != sigma_dec.vectors.shape:
        raise StructuralError(f"rho has shape {rho.shape}, sigma {sigma_dec.vectors.shape}")
    return nco.frame_sandwiched_state(sigma_dec.to_frame(rho), sigma_dec, alpha)


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy tr(rho (log rho - log sigma))."""
    return _sandwiched(rho, sigma, 1.0).divergence()


def sandwiched_renyi(rho, sigma, alpha: float) -> DivergenceValue:
    """Sandwiched Renyi divergence of order alpha > 0.

    For orders away from 1 this is log tr[(sigma^((1-a)/2a) rho
    sigma^((1-a)/2a))^a] / (a-1); within `nco.ALPHA_ONE_WINDOW` of 1 the
    relative-entropy branch is taken.
    """
    rs = _sandwiched(rho, sigma, alpha)
    return DivergenceValue(alpha=alpha, value=rs.divergence(), Z=1.0 if rs.alpha == 1.0 else float(rs.Z))


def functional_derivative(rho, sigma, alpha: float) -> np.ndarray:
    """Functional derivative of the order-alpha divergence in the state.

    alpha/(alpha-1) times the re-weighted (alpha-1) power of the sandwiched
    state over its trace normalization; the order-1 branch is
    log rho - log sigma.
    """
    state = _sandwiched(rho, sigma, alpha, strict=True)
    return mc.hermitize(state.sigma_dec.from_frame(state.frame_derivative()))


def fisher_information(rho, alpha: float, G) -> float:
    """Relative alpha-Fisher information of rho under the generator, relative
    to its stationary state G.sigma.

    Minus the pairing of the functional derivative with the state-space
    drift; non-negative for detailed-balance generators, and equal to the
    entropy-production rate along the flow.
    """
    rho = mc.require_density(rho, strict=True, name="rho")
    if rho.shape != (G.n, G.n):
        raise StructuralError(f"rho has shape {rho.shape}, the generator's sigma {(G.n, G.n)}")
    X = G.sigma_dec.to_frame(rho)
    return nco.frame_sandwiched_state(X, G.sigma_dec, alpha).fisher(G.frame_drift(X))
