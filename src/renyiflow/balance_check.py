"""Detailed-balance classification of Lindblad generators.

Residual-based checks for self-adjointness in the fully weighted (GNS),
half-weighted (KMS), logarithmic-mean weighted (BKM), and order-alpha
weighted inner products, plus the stock two-level generator that is KMS
but not order-alpha balanced for any alpha other than 2.  Each weighting
is its entrywise kernel in sigma's eigenbasis, applied to the generator
written in that basis (`Generator.L_eig`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import matcore as mc
from . import noncomm_ops as nco
from .generator import Generator, gns_selfadjoint_residual

VERDICT_THRESHOLD = 1e-8
DEFAULT_ALPHAS = (0.5, 1.0, 2.0, 4.0)


def check_gns(G: Generator) -> float:
    """Relative asymmetry in the fully weighted inner product."""
    return gns_selfadjoint_residual(G)


def check_kms(G: Generator) -> float:
    """Relative Frobenius defect of conjugating the state-space generator
    by the half-power weighting back onto the observable-side generator;
    the weighting is the order-2 weight kernel sqrt(lam_k lam_l) in sigma's
    eigenbasis."""
    g = mc.vec(nco.weight_operator(G.sigma_dec, 2.0).kernel)
    resid = G.L_eig.conj().T * g / g[:, None] - G.L_eig
    return float(np.linalg.norm(resid) / max(np.linalg.norm(G.L_eig), 1e-300))


def srd_residual(G: Generator, alpha: float) -> float:
    """Trace-norm defect of the order-alpha weighted self-adjointness,
    relative to the generator's own trace norm; the weight operator is its
    kernel w in sigma's eigenbasis.  The defect w o L / w - L^H has the
    blocks of `G.blocks`: one SVD per block, and on a singleton, where the
    weights cancel, |L_kk - conj(L_kk)|."""
    B = G.blocks
    w = mc.vec(nco.weight_operator(G.sigma_dec, alpha).kernel)
    tn = 2.0 * np.sum(np.abs(B.diag.imag))
    for b, X in zip(B.index, B.block):
        tn += np.linalg.svd(w[b][:, None] * X / w[b] - X.conj().T, compute_uv=False).sum()
    return float(tn / max(G.trace_norm, 1e-300))


def check_srd(G: Generator, alphas) -> dict[float, float]:
    """Order-alpha residuals over a grid, one per distinct order;
    non-positive orders are skipped."""
    out: dict[float, float] = {}
    for a in dict.fromkeys(alphas):
        if a <= 0.0:
            warnings.warn(f"skipping non-positive order alpha={a}")
            continue
        out[float(a)] = srd_residual(G, float(a))
    return out


def check_bkm(G: Generator) -> float:
    return srd_residual(G, 1.0)


@dataclass(frozen=True)
class BalanceReport:
    label: str
    gns_residual: float
    kms_residual: float
    bkm_residual: float
    srd_residuals: dict[float, float] = field(repr=False)

    @property
    def verdicts(self) -> dict[str, bool]:
        return {
            "gns": self.gns_residual <= VERDICT_THRESHOLD,
            "kms": self.kms_residual <= VERDICT_THRESHOLD,
            "bkm": self.bkm_residual <= VERDICT_THRESHOLD,
            "srd": all(r <= VERDICT_THRESHOLD for r in self.srd_residuals.values()),
        }

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "gns_residual": self.gns_residual,
            "kms_residual": self.kms_residual,
            "bkm_residual": self.bkm_residual,
            "srd_residuals": {f"{a:g}": r for a, r in sorted(self.srd_residuals.items())},
            "verdicts": self.verdicts,
            "threshold": VERDICT_THRESHOLD,
        }


def balance_report(G: Generator, alphas=DEFAULT_ALPHAS) -> BalanceReport:
    """The four verdicts' residuals; BKM is the order-1 residual, read from
    the grid when the grid has order 1."""
    srd = check_srd(G, alphas)
    return BalanceReport(
        label=G.label,
        gns_residual=check_gns(G),
        kms_residual=check_kms(G),
        bkm_residual=srd[1.0] if 1.0 in srd else check_bkm(G),
        srd_residuals=srd,
    )


def carlen_maas_counterexample() -> Generator:
    """Two-level generator that is KMS detailed balanced but order-alpha
    balanced only at alpha = 2.

    Built from the channel pair K(A) = K1* A K1 + K2* A K2 with
    K1 = |psi><0|, K2 = |phi><1|, psi = (|0>+|1>)/sqrt2,
    phi = (|0>+2|1>)/sqrt5, its half-weighted adjoint Kt, and the
    generator Kt K - I, given by its state-space map.  The unique
    stationary state is sigma = [[2,3],[3,5]]/7.  Kt_j = sigma^(1/2) K_j*
    sigma^(-1/2) is the kernel (lam_k / lam_l)^(1/2) in sigma's frame.
    """
    psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    phi = np.array([1.0, 2.0], dtype=complex) / np.sqrt(5.0)
    K1 = np.outer(psi, [1.0, 0.0])
    K2 = np.outer(phi, [0.0, 1.0])
    sigma = np.array([[2.0, 3.0], [3.0, 5.0]], dtype=complex) / 7.0
    sig = mc.density_spectrum(sigma, strict=True)
    Kt1, Kt2 = sig.from_frame(sig.kernel(0.5, -0.5) * sig.to_frame(np.array([K1.conj().T, K2.conj().T])))

    def Ldag_map(A):
        # adjoint of Kt K - I: first the adjoint of Kt, then of K
        B = Kt1 @ A @ Kt1.conj().T + Kt2 @ A @ Kt2.conj().T
        return K1 @ B @ K1.conj().T + K2 @ B @ K2.conj().T - A

    return Generator(sigma, mc.superoperator_of_map(Ldag_map, 2).conj().T, label="carlen-maas")


def fig1_sweep(G: Generator, alphas) -> list[tuple[float, float]]:
    """Order-versus-residual table for the weighted self-adjointness check."""
    grid = [float(a) for a in alphas if a > 0.0]
    return [(a, srd_residual(G, a)) for a in grid]
