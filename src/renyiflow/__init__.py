"""Sandwiched Renyi divergences and gradient-flow decay for primitive
Lindblad equations with detailed balance, at desk scale (n <= 8)."""

from . import balance_check, cli, divergence, flow, generator, matcore, noncomm_ops
from .errors import (
    DomainError,
    IntegrationError,
    NonFiniteError,
    RenyiflowError,
    SingularityError,
    StructuralError,
    ValidationError,
)

__all__ = [
    "matcore",
    "noncomm_ops",
    "generator",
    "divergence",
    "balance_check",
    "flow",
    "cli",
    "RenyiflowError",
    "StructuralError",
    "SingularityError",
    "ValidationError",
    "DomainError",
    "IntegrationError",
    "NonFiniteError",
]

__version__ = "0.1.0"
