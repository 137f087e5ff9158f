"""Noncommutative operator toolbox.

Spectral-kernel realizations of the operators that drive the gradient-flow
and detailed-balance machinery: twisted logarithmic-mean multiplication
and its inverse, the sandwiched state with the order-alpha functionals read
from it (divergence, derivative, Fisher information, entropy), the
Renyi-order multiplication operator built on it with its flux over a jump
stack, and the detailed-balance weight kernel.  The sandwiched state is
formed in exactly one function, `_sandwich`, entrywise in sigma's
eigenbasis (sigma's frame), from a state given in that frame (a caller
rotates a standard-basis state once with `SpectralDecomposition.to_frame`);
`frame_sandwiched_state` decomposes it, and `frame_sandwiched_trace` reads
its trace power from the spectrum values alone.
A scalar order (a Python or numpy scalar, or a 0-d array) is checked with
float comparisons and carried as a float through the sandwiched state, its
trace power and the derivative's scale, with the bits of the same order
given as a one-element array; only the trace power
(`frame_sandwiched_trace`) takes an array of orders, which broadcasts
against the states.
Functions of a reference state sigma take the `mc.density_spectrum` that
validated it (a generator's `sigma_dec`) and never decompose sigma
themselves.  Every decomposition here is a plain `eigh` (`eigvalsh` for
values only): no kernel operator depends on the eigenvector phases, which
are fixed only in `mc.eig_hermitian`.

Every integral-form operator used here diagonalizes in the eigenbasis of
its base matrix, so it is evaluated through a closed-form entrywise
kernel: an operator `A -> U (m . (U* A U)) U*` where `.` is the entrywise
product.  Quadrature is used only as an independent oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore as mc
from .errors import DomainError, SingularityError

# floor inside logarithms for rank-deficient (but PSD-valid) states
LOG_FLOOR = 1e-14

# an order inside this window of 1 is taken as 1 (the relative-entropy
# branch); the 1/(alpha-1) prefactor loses precision closer in
ALPHA_ONE_WINDOW = 1e-6


@dataclass(frozen=True)
class KernelOperator:
    """Entrywise-kernel superoperator in a fixed eigenbasis.

    Represents A -> U (kernel . (U* A U)) U*.  Self-adjoint in the
    Hilbert-Schmidt inner product iff the kernel is Hermitian; strictly
    positive iff all kernel entries are positive.  An (m, n, n) kernel is
    a family of m operators sharing one basis; apply() then maps an
    (m, n, n) stack row by row.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    kernel: np.ndarray

    def apply(self, A: np.ndarray) -> np.ndarray:
        U = self.basis
        return U @ (self.kernel * (U.conj().T @ np.asarray(A, dtype=complex) @ U)) @ U.conj().T

    def inverse(self) -> "KernelOperator":
        if np.any(np.abs(self.kernel) == 0.0):
            raise SingularityError("kernel operator has a zero entry; not invertible")
        return KernelOperator(self.eigenvalues, self.basis, 1.0 / self.kernel)


def _require_positive(values: np.ndarray, name: str) -> np.ndarray:
    """Ascending eigenvalues, of one matrix or of a stack, checked strictly positive."""
    low = values[0] if values.ndim == 1 else values[:, 0].min()
    if low <= 0.0:
        raise SingularityError(f"{name}: not strictly positive (min eigenvalue {low:.3e})")
    return values


def _positive_spectrum(X, name: str = "X") -> mc.SpectralDecomposition:
    dec = mc.SpectralDecomposition(*np.linalg.eigh(mc.require_hermitian(X)))
    _require_positive(dec.values, name)
    return dec


def _log_mean_kernel(lam: np.ndarray, omega) -> np.ndarray:
    """Kernel of the twisted logarithmic mean.

    Entry (k, l) is the logarithmic mean of a = e^(omega/2) lam_k and
    c = e^(-omega/2) lam_l, written as sqrt(a c) * sinh(u/2)/(u/2) with
    u = log(a/c); the geometric-mean form stays fully accurate through
    the degenerate limit u -> 0.  An array of m frequencies gives the
    (m, n, n) stack of kernels.
    """
    u, geo = _log_ratio(lam, omega)
    half = 0.5 * u
    return geo * np.divide(np.sinh(half), half, out=np.ones_like(u), where=half != 0.0)


def _log_ratio(lam: np.ndarray, omega) -> tuple[np.ndarray, np.ndarray]:
    """u = omega + log lam_k - log lam_l, stacked over an array of
    frequencies, and the geometric mean sqrt(lam_k lam_l)."""
    loglam = np.log(lam)
    u = np.asarray(omega)[..., None, None] + loglam[:, None] - loglam[None, :]
    return u, np.sqrt(lam[:, None] * lam[None, :])


def _sinh_ratio(x: np.ndarray, alpha: float) -> np.ndarray:
    """c sinh(x) / sinh(c x) with c = alpha - 1 != 0, and 1 at x = 0: the one
    closed form of the multiplier and weight kernels.  Evaluated as
    |c| e^((1-|c|) |x|) expm1(-2|x|) / expm1(-2|c| |x|), with 1 - |c| =
    min(alpha, 2 - alpha) formed without cancellation and 2 |c| |x| as
    2 (|c| |x|): nothing overflows, even at c near the largest float, small x
    keeps full precision, and alpha = 2 gives exactly 1."""
    x, c = np.abs(x), abs(alpha - 1.0)
    num = c * np.exp(min(alpha, 2.0 - alpha) * x) * np.expm1(-2.0 * x)
    return np.divide(num, np.expm1(-2.0 * (c * x)), out=np.ones_like(x), where=x != 0.0)


def _renyi_kernel(lam: np.ndarray, omega, alpha: float) -> np.ndarray:
    """Kernel of the order-alpha multiplication operator in the sandwiched
    state's eigenbasis: the quotient of the log-mean kernels of lam at
    omega/alpha and of lam^(alpha-1) at (alpha-1) omega/alpha, in closed
    form geo^(2-alpha) (alpha-1) sinh(u/2) / sinh((alpha-1) u/2) with
    u = omega/alpha + log lam_k - log lam_l (`_sinh_ratio`).  At order 1
    it is the log-mean kernel of lam at omega."""
    if alpha == 1.0:
        return _log_mean_kernel(lam, omega)
    u, geo = _log_ratio(lam, np.asarray(omega) / alpha)
    return geo ** (2.0 - alpha) * _sinh_ratio(0.5 * u, alpha)


def log_mean_multiplier(X, omega: float = 0.0) -> KernelOperator:
    """Twisted multiplication by X: the integral of e^(omega(s-1/2)) X^s A X^(1-s).

    Strictly positive for strictly positive X; the adjoint flips the sign
    of omega.
    """
    dec = _positive_spectrum(X)
    return KernelOperator(dec.values, dec.vectors, _log_mean_kernel(dec.values, omega))


# --- the sandwiched state and the Renyi-order multiplication operator -------


@dataclass(frozen=True)
class SandwichedState:
    """The sandwiched state rs = s rho s, s = sigma^((1-alpha)/(2 alpha)),
    decomposed once in sigma's eigenbasis U, where it is rs' = U* rs U =
    p . (U* rho U) . p with p = lam^((1-alpha)/(2 alpha)) and log sigma is diag(log lam).

    Every order-alpha quantity reads from it: Z = tr rs^alpha (over the
    spectrum clamped at zero), the divergence, its functional derivative,
    the Fisher information, the entropy functional and the multiplication
    operator's kernels.  The eigenvectors W of rs' carry LAPACK's
    arbitrary phases, so every consumer is phase-invariant.  A (T, n, n)
    stack at the one order gives T-leading fields; `divergence` and
    `frame_derivative` then return one value per state.
    """

    alpha: float
    p: np.ndarray  # lam^((1-alpha)/(2 alpha)), s in sigma's frame
    dec: mc.SpectralDecomposition  # of rs', in sigma's frame
    sigma_dec: mc.SpectralDecomposition
    Z: float | np.ndarray

    def positive_values(self) -> np.ndarray:
        return _require_positive(self.dec.values, "sandwiched state")

    def _log_sigma_pairing(self, w: np.ndarray):
        """tr(W diag(w) W* diag(log lam)) = sum_k log lam_k sum_j |W_kj|^2 w_j, per state."""
        return (np.abs(self.dec.vectors) ** 2 @ w[..., None])[..., 0] @ np.log(self.sigma_dec.values)

    def divergence(self) -> float | np.ndarray:
        """D_alpha = log Z / (alpha-1); tr rho (log rho - log sigma) at alpha = 1."""
        if self.alpha != 1.0:
            D = np.log(self.Z) / (self.alpha - 1.0)
        else:
            lam = np.maximum(self.dec.values, 0.0)
            # eigenvalues at or below LOG_FLOOR add exactly zero
            plogp = (lam * np.log(np.where(lam > LOG_FLOOR, lam, 1.0))).sum(axis=-1)
            D = plogp - self._log_sigma_pairing(lam)
        return D if isinstance(D, np.ndarray) else float(D)

    def frame_derivative(self) -> np.ndarray:
        """The functional derivative of D_alpha in rho, in sigma's frame:
        p . (alpha/(alpha-1) rs'^(alpha-1) / Z) . p, and log rs' - diag(log lam) at alpha = 1."""
        lam, a = self.positive_values(), self.alpha
        if a == 1.0:
            return self.dec.reconstruct(np.log(lam)) - np.diag(np.log(self.sigma_dec.values))
        Z = self.Z[..., None] if isinstance(self.Z, np.ndarray) else self.Z
        return self.p[:, None] * self.dec.reconstruct(lam ** (a - 1.0) * (a / (a - 1.0) / Z)) * self.p

    def fisher(self, drift) -> float:
        """Minus the pairing tr(derivative* drift) of the derivative with the
        flow's drift at rho, both in sigma's frame (`Generator.frame_drift`)."""
        return float(-np.vdot(self.frame_derivative(), drift).real)

    def entropy(self) -> float:
        """Ent_alpha = sum lam^alpha log lam^alpha - tr(rs^alpha log sigma) - Z log Z."""
        w = self.positive_values() ** self.alpha
        return float(np.sum(w * np.log(w)) - self._log_sigma_pairing(w) - self.Z * np.log(self.Z))


def _sandwich(X, sigma_dec: mc.SpectralDecomposition, alpha) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """The checked order, p = lam^((1-alpha)/(2 alpha)) and rs' = p . X . p
    for X = U* rho U in sigma's frame: the one place the sandwiched state is
    formed, entrywise, so that no small eigenvalue of sigma meets the
    rounding of a dense power.  A scalar order (a Python or numpy scalar, or
    a 0-d array) is checked and carried as a float; one within
    ALPHA_ONE_WINDOW of 1 is taken as 1, where p is exactly 1.  An array of
    orders is taken as it is, one row of p each."""
    if np.ndim(alpha):
        a = np.asarray(alpha, dtype=float)
        valid = np.all((a > 0.0) & np.isfinite(a))
    else:
        a = float(alpha)
        valid = 0.0 < a < math.inf
    if not valid:
        raise DomainError(f"order alpha={alpha} must be positive and finite")
    if isinstance(a, float) and abs(a - 1.0) <= ALPHA_ONE_WINDOW:
        a = 1.0
    g = (1.0 - a) / a / 2.0
    p = np.power(sigma_dec.values, g if isinstance(a, float) else g[..., None])
    return a, p, mc.hermitize(p[..., :, None] * X * p[..., None, :])


def _trace_power(values: np.ndarray, a: float | np.ndarray):
    """Z = tr rs^alpha over the spectrum clamped at zero, per state; an
    array of orders broadcasts against the leading axes.  `np.power`, not
    `**`, whose shortcuts at some scalar exponents could round otherwise."""
    return np.power(np.maximum(values, 0.0), a if isinstance(a, float) else a[..., None]).sum(-1)


def frame_sandwiched_state(X, sigma_dec: mc.SpectralDecomposition, alpha: float) -> SandwichedState:
    """The sandwiched state of rho: rs' formed from X = U* rho U, one state
    or a (T, n, n) stack in sigma's frame, and decomposed with one `eigh`.

    `alpha` is one positive, finite order; an order within ALPHA_ONE_WINDOW
    of 1 is taken as 1.  An array of orders raises DomainError before any
    eigensolve: its trace powers come from `frame_sandwiched_trace`.  The
    states are trusted: callers validate rho, and sigma through the
    decomposition passed in.
    """
    if np.ndim(alpha):
        raise DomainError(f"orders {alpha}: one scalar order per sandwiched state; use frame_sandwiched_trace")
    a, p, rs = _sandwich(X, sigma_dec, alpha)
    # rs' is graded by p, which ascends below order 1: the Householder reduction keeps
    # small eigenvalues only from the large end, the bottom right ("U") or top left ("L")
    dec = mc.SpectralDecomposition(*np.linalg.eigh(rs, UPLO="U" if a < 1.0 else "L"))
    return SandwichedState(alpha=a, p=p, dec=dec, sigma_dec=sigma_dec, Z=_trace_power(dec.values, a))


def frame_sandwiched_trace(X, sigma_dec: mc.SpectralDecomposition, alpha) -> np.ndarray:
    """Z = tr rs^alpha of `frame_sandwiched_state` of X = U* rho U, from the
    spectrum values of one `eigvalsh` (no eigenvectors).  `alpha` is one
    order or an array of them, broadcast against the states: a stack at one
    order, one state at several orders, or a stack with an order per state.
    Z has no 1/(alpha-1) factor, so an array of orders may come near 1."""
    a, _, rs = _sandwich(X, sigma_dec, alpha)
    # below order 1, reversed index order (a permutation) puts the large end top left (`frame_sandwiched_state`)
    return _trace_power(np.linalg.eigvalsh(np.where(np.less(a, 1.0)[..., None, None], rs[..., ::-1, ::-1], rs)), a)


@dataclass(frozen=True)
class RenyiMultiplier:
    """Order-alpha multiplication operators attached to a state rho.

    apply() realizes the strictly positive map whose inverse carries the
    gradient of the order-alpha divergence onto jump-operator commutators;
    flux() carries the state's own derivative through gradient, multiplier
    and divergence over the jump stack, and metric() pairs two tangent
    directions through the flux operator's inverse.  Composition structure:
    a scalar Z/alpha and a single entrywise kernel k in the basis Q,
    M(X) = (Z/alpha) Q (k . (Q* X Q)) Q*.  A family over m frequencies has
    an (m, n, n) kernel and acts on (m, n, n) stacks.  flux() and metric()
    take the jump stack in sigma's frame (`Generator.jump_frame`).
    """

    state: SandwichedState
    Q: np.ndarray  # U diag(1/p) W = s^-1 U W, with U sigma's eigenvectors
    kernel_op: KernelOperator  # in sigma's frame: the eigenvectors W of rs'

    def apply(self, A) -> np.ndarray:
        B = self.kernel_op.kernel * (self.Q.conj().T @ np.asarray(A, dtype=complex) @ self.Q)
        return (self.state.Z / self.state.alpha) * (self.Q @ B @ self.Q.conj().T)

    def _frame(self, V) -> tuple[np.ndarray, np.ndarray]:
        """The (m, n, n) jump stack V (in sigma's frame) in Q's frame,
        Vt_j = Q* V_j Q^-* = W* (V_j / r) W and Vh_j = Q^-1 V_j Q = W* (V_j . r) W
        with r_kl = p_k / p_l, so that Q* [V_j, B] Q = Vt_j B' - B' Vh_j with
        B' = Q* B Q.  One GEMM per side over both stacks."""
        W, p = self.kernel_op.basis, self.state.p
        m, n = V.shape[:2]
        r = p[:, None] / p
        R = (np.concatenate((V / r, V * r)).reshape(2 * m * n, n) @ W).reshape(2 * m, n, n)
        R = (W.conj().T @ R.transpose(1, 0, 2).reshape(n, 2 * m * n)).reshape(n, 2 * m, n).swapaxes(0, 1)
        return R[:m], R[m:]

    def flux(self, V) -> np.ndarray:
        """The flux div(M grad D) = sum_j [M_j [V_j, D], V_j*] of the state's
        own derivative D over the (m, n, n) jump stack V.  In the frame
        (`_frame`) D' = Q* D Q is read from the state without forming D:
        (alpha/((alpha-1) Z)) diag(lam^(alpha-1)), and diag(log lam) -
        W* log sigma' W at order 1.  With Y_j = k_j . (Vt_j D' - D' Vh_j), the
        flux is (Z/alpha) Q (sum_j Y_j Vh_j* - Vt_j* Y_j) Q*; on the layout
        [p, j, q] each product, the sums over j included, is one GEMM."""
        Vt, Vh = (X.swapaxes(0, 1) for X in self._frame(V))
        n, m = Vt.shape[:2]
        state, W = self.state, self.kernel_op.basis
        lam = state.positive_values()
        if state.alpha == 1.0:
            Dp = np.diag(np.log(lam)) - (W.conj().T * np.log(state.sigma_dec.values)) @ W
        else:
            Dp = np.diag(state.alpha / ((state.alpha - 1.0) * state.Z) * lam ** (state.alpha - 1.0))
        Y = (Vt.reshape(n * m, n) @ Dp).reshape(n, m, n) - (Dp @ Vh.reshape(n, m * n)).reshape(n, m, n)
        Y = (Y * self.kernel_op.kernel.swapaxes(0, 1)).reshape(n, m * n)
        S = Y @ Vh.reshape(n, m * n).conj().T - Vt.reshape(n * m, n).conj().T @ Y.reshape(n * m, n)
        return (state.Z / state.alpha) * (self.Q @ S @ self.Q.conj().T)

    def _flux_form(self, V) -> np.ndarray:
        """The Hermitian n^2 x n^2 form H with (Z/alpha) conj(B')^T H B' =
        sum_j <[V_j, B], M_j [V_j, B]> in the entries of B' = Q* B Q (`_frame`),
        O(m n^4) over the (m, n, n) stack V (Z/alpha times the kernels would
        overflow at orders of a few hundred): the Vt-Vt and Vh-Vh parts are n
        weighted Gram matrices each, the cross part one product per row index."""
        Vt, Vh = self._frame(V)
        k = self.kernel_op.kernel
        m, n = k.shape[0], k.shape[-1]
        eye = np.eye(n)

        def weighted_grams(A, w):
            # [p, i, p'] = sum over rows r = (j, k) of conj(A[r, p]) w[r, i] A[r, p']
            A, w = A.reshape(m * n, n), w.reshape(m * n, n)
            return (A.conj().T @ (w[:, :, None] * A[:, None, :]).reshape(m * n, n * n)).reshape(n, n, n)

        # H[p, q, p', q'] pairs conj(B'[p, q]) with B'[p', q']
        tt = weighted_grams(Vt, k)  # [p, q, p'], times delta(q, q')
        hh = weighted_grams(Vh.transpose(0, 2, 1), k.transpose(0, 2, 1))  # [q, p, q'], times delta(p, p')
        H = tt[:, :, :, None] * eye[None, :, None, :] + hh.transpose(1, 0, 2)[:, :, None, :] * eye[:, None, :, None]
        # cross[p', p, (q, q')] = sum_j conj(Vt_j[p', p]) k_j[p', q] Vh_j[q', q], and its adjoint
        W = k.transpose(1, 0, 2)[:, :, :, None] * Vh.transpose(0, 2, 1)[None, :, :, :]
        cross = (Vt.conj().transpose(1, 2, 0) @ W.reshape(n, m, n * n)).reshape(n, n, n, n)
        cross = cross.transpose(1, 2, 0, 3).reshape(n * n, n * n)
        return H.reshape(n * n, n * n) - cross - cross.conj().T

    def metric(self, V, nu1, nu2) -> float:
        """<B1, nu2> for traceless nu1, nu2, where B -> sum_j [V_j*, M_j [V_j, B]]
        maps B1 to nu1: one solve with H (`_flux_form`) scaled by diag(H)^(-1/2),
        c' = Q^-1 nu Q^-* = W* (p . U* nu U . p) W paired with B', and the null
        direction B' = Q* Q filled by a rank-one term, which tr nu = 0 makes exact."""
        H = self._flux_form(V)
        W, p = self.kernel_op.basis, self.state.p
        nus = self.state.sigma_dec.to_frame(np.array([nu1, nu2], dtype=complex))
        c = (W.conj().T @ (p[:, None] * nus * p) @ W).reshape(2, -1)
        d = np.diag(H).real ** -0.5
        z = (self.Q.conj().T @ self.Q).ravel() / d
        y = np.linalg.solve(d[:, None] * H * d + np.outer(z, z.conj()) / np.vdot(z, z).real, d * c[1])
        return float(np.real(np.vdot(c[0], d * y)) / (self.state.Z / self.state.alpha))


def renyi_multiplier(rho, sigma_dec: mc.SpectralDecomposition, omega, alpha: float) -> RenyiMultiplier:
    """Build the order-alpha multiplication operator for strictly positive rho.

    `sigma_dec` is the `mc.density_spectrum` that validated a full-rank
    sigma (a generator's `sigma_dec`).  `omega` is one Bohr
    frequency or an array of them; the family shares one sandwiched state,
    and only the entrywise kernel depends on the frequency.  At alpha = 1
    it reduces to the twisted multiplier of rho itself; at alpha = 2 it is
    (Z/2) times two-sided multiplication by sigma^(1/2).
    """
    state = frame_sandwiched_state(sigma_dec.to_frame(rho), sigma_dec, alpha)
    alpha, lam = state.alpha, state.positive_values()
    return RenyiMultiplier(
        state=state,
        Q=sigma_dec.vectors @ (state.dec.vectors / state.p[:, None]),
        kernel_op=KernelOperator(lam, state.dec.vectors, _renyi_kernel(lam, np.asarray(omega, dtype=float), alpha)),
    )


# --- detailed-balance weight operator ----------------------------------------


def _weight_kernel(lam: np.ndarray, alpha: float) -> np.ndarray:
    """Closed-form weight coefficients in the eigenbasis of sigma:
    geo (alpha-1) sinh(x) / sinh((alpha-1) x) with x = (log lam_k -
    log lam_l)/(2 alpha) (`_sinh_ratio`), formed as g/alpha/2 so that 2 alpha
    cannot overflow, and its limits at alpha = 0 (the max), alpha = 1 (the
    logarithmic mean) and alpha = infinity (lam_k lam_l over the logarithmic
    mean)."""
    if alpha == 0.0:
        return np.maximum(lam[:, None], lam[None, :])
    if alpha == 1.0:
        return _log_mean_kernel(lam, 0.0)
    if np.isinf(alpha):
        return lam[:, None] * lam[None, :] / _log_mean_kernel(lam, 0.0)
    g, geo = _log_ratio(lam, 0.0)
    return geo * _sinh_ratio(g / alpha / 2.0, alpha)


def weight_operator(sigma_dec: mc.SpectralDecomposition, alpha: float) -> KernelOperator:
    """Weight operator whose inner product tests order-alpha detailed balance.

    alpha = 1 gives the BKM (logarithmic-mean) weighting, alpha = 2 the KMS
    weighting; alpha in [0, infinity] is accepted.
    """
    if not alpha >= 0.0:
        raise DomainError(f"weight order alpha={alpha} must be >= 0")
    return KernelOperator(sigma_dec.values, sigma_dec.vectors, _weight_kernel(sigma_dec.values, alpha))


# --- traceless Hermitian basis ------------------------------------------------


def traceless_hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of traceless Hermitian matrices as
    an (n^2 - 1, n, n) stack, the generalized Gell-Mann construction: the
    symmetric and antisymmetric pair matrices of each k < l in row-major
    order, then the diagonal ladders `mc.traceless_diagonals(n)`."""
    k, l = np.triu_indices(n, 1)
    j = np.arange(len(k))
    pairs = np.zeros((len(k), 2, n, n), dtype=complex)
    pairs[j, 0, k, l] = pairs[j, 0, l, k] = 1.0 / np.sqrt(2.0)
    pairs[j, 1, k, l], pairs[j, 1, l, k] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
    return np.concatenate((pairs.reshape(-1, n, n), mc.traceless_diagonals(n)[:, :, None] * np.eye(n)))
