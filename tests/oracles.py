"""Independent numerical oracles used by the tests.

These deliberately avoid the spectral-kernel code paths of the package:
integral operators are evaluated by composite Simpson quadrature on full
matrices, classical formulas by direct summation, and kernel structure by
brute force over basis elements.  Constructions the package replaced by
stacked or closed-form equivalents are kept here in their term-by-term
form as references.
"""

import functools
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import expm

import renyiflow.cli as cli
import renyiflow.flow as flow
import renyiflow.matcore as mc
import renyiflow.noncomm_ops as nco
from renyiflow.errors import DomainError, SingularityError, StructuralError
from renyiflow.generator import Generator, JumpTerm, build_gns, eigen_jump_terms, random_gns_generator


# --- generic spectral calculus ------------------------------------------------
# A fresh decomposition per call, with its own domain floor and an optional
# lenient clamp.  The package forms no matrix power of sigma: each weighting
# is the entrywise kernel `SpectralDecomposition.kernel` in sigma's frame.


def matrix_function(A, f, min_eigenvalue=None, lenient=False):
    """Spectral calculus U f(w) U* for Hermitian A.

    `min_eigenvalue` sets the domain boundary for f (e.g. POS_FLOOR for
    log and negative powers).  Eigenvalues below it raise; in lenient
    mode values in [-TOL_PSD, min_eigenvalue) are clamped up instead.
    """
    dec = mc.SpectralDecomposition(*np.linalg.eigh(mc.require_hermitian(A)))
    w = dec.values.copy()
    if min_eigenvalue is not None:
        bad = w < min_eigenvalue
        if np.any(bad):
            if lenient and w[bad].min() >= -mc.TOL_PSD:
                w[bad] = min_eigenvalue
            else:
                raise SingularityError(
                    f"matrix function domain violation: eigenvalue {w[bad].min():.6e} "
                    f"below floor {min_eigenvalue:.1e}"
                )
    fw = np.asarray(f(w), dtype=complex)
    if not np.all(np.isfinite(fw)):
        raise SingularityError("matrix function produced non-finite values on the spectrum")
    out = dec.reconstruct(fw)
    return mc.hermitize(out) if np.allclose(fw.imag, 0.0) else out


def matrix_power(A, p, lenient=False):
    if p < 0:
        floor = mc.POS_FLOOR  # negative powers need strict positivity
    elif float(p).is_integer():
        floor = None
    else:
        floor = 0.0  # fractional powers need a PSD spectrum
    return matrix_function(A, lambda w: np.power(w, p), min_eigenvalue=floor, lenient=lenient)


def matrix_log(A, lenient=False):
    return matrix_function(A, np.log, min_eigenvalue=mc.POS_FLOOR, lenient=lenient)


def sandwich_pow(sigma, gamma, A):
    """sigma^(gamma/2) A sigma^(gamma/2) from a fresh matrix power of sigma."""
    P = matrix_power(sigma, gamma / 2.0)
    return P @ A @ P


def trace_norm(A) -> float:
    """Schatten-1 norm (sum of singular values)."""
    return float(np.linalg.svd(np.asarray(A, dtype=complex), compute_uv=False).sum())


def weighted_inner(A, B, sigma, s):
    """sigma-weighted inner product tr(sigma^s A* sigma^(1-s) B), from fresh matrix powers."""
    return complex(np.trace(matrix_power(sigma, s) @ np.conj(A).T @ matrix_power(sigma, 1.0 - s) @ B))


def L_super(G):
    """The observable-side superoperator in the standard basis, W L_eig W*
    with W = kron(conj(U), U) from sigma's eigenvectors U."""
    U = G.sigma_dec.vectors
    W = np.kron(U.conj(), U)
    return W @ G.L_eig @ W.conj().T


def apply_superop(S, A):
    """The map of the n^2 x n^2 superoperator S applied to the n x n matrix A."""
    n = round(np.sqrt(S.shape[0]))
    return mc.unvec(S @ mc.vec(A), n)


def apply_L(G, A):
    """The observable-side generator applied to A, from its superoperator."""
    return apply_superop(L_super(G), A)


def random_positive(rng, n, floor=1e-3):
    """Strictly positive Hermitian matrix with unit Frobenius norm."""
    G = mc.random_complex(rng, n)
    X = G @ G.conj().T + floor * np.eye(n)
    return mc.hermitize(X / np.linalg.norm(X))


def simpson_weights(npts: int, length: float = 1.0) -> np.ndarray:
    if npts % 2 == 0:
        raise ValueError("Simpson needs an odd number of points")
    w = np.ones(npts)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (length / (npts - 1) / 3.0)


def mop_quadrature(X, omega, A, npts=2001):
    """Simpson evaluation of the twisted-multiplier integral on matrices,
    with the integrand of every node formed in one stacked product."""
    dec = mc.eig_hermitian(X)
    U, lam = dec.vectors, dec.values
    s = np.linspace(0.0, 1.0, npts)
    w = simpson_weights(npts) * np.exp(omega * (s - 0.5))
    Xs = (U * lam ** s[:, None, None]) @ U.conj().T
    X1s = (U * lam ** (1.0 - s)[:, None, None]) @ U.conj().T
    return np.tensordot(w, Xs @ np.asarray(A, dtype=complex) @ X1s, axes=1)


def mop_inverse_quadrature(X, omega, A, npts=2001, pad=25.0):
    """Simpson evaluation of the half-line resolvent-product integral.

    Integrates (t + a X)^-1 A (t + c X)^-1 dt over t in (0, inf) after the
    substitution t = e^u, which makes the integrand uniformly smooth; the
    integration window pads the spectral range of X by `pad` e-foldings.
    The resolvents of every node are inverted as one stack.
    """
    n = X.shape[0]
    eye = np.eye(n)
    lam = np.linalg.eigvalsh(X)
    a, c = np.exp(omega / 2.0), np.exp(-omega / 2.0)
    u_lo = np.log(min(a, c) * lam[0]) - pad
    u_hi = np.log(max(a, c) * lam[-1]) + pad
    u = np.linspace(u_lo, u_hi, npts)
    t = np.exp(u)[:, None, None]
    w = simpson_weights(npts, length=u_hi - u_lo) * np.exp(u)
    M1 = np.linalg.inv(t * eye + a * X)
    M2 = np.linalg.inv(t * eye + c * X)
    return np.tensordot(w, M1 @ np.asarray(A, dtype=complex) @ M2, axes=1)


def classical_renyi(p, q, alpha):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if alpha == 1.0:
        mask = p > 0
        return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    return float(np.log(np.sum(p**alpha * q ** (1.0 - alpha))) / (alpha - 1.0))


def classical_chi2(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(np.sum((p - q) ** 2 / q))


# --- divergences with no package caller -----------------------------------------
# Validated like the package's public functionals, so they take the same
# malformed inputs.


def _density_pair(rho, sigma, strict=False):
    rho = mc.require_density(rho, strict=strict, name="rho")
    sigma_dec = mc.density_spectrum(sigma, strict=True, name="sigma")
    if rho.shape != sigma_dec.vectors.shape:
        raise StructuralError(f"rho has shape {rho.shape}, sigma {sigma_dec.vectors.shape}")
    return rho, sigma_dec


def petz_renyi(rho, sigma, alpha: float) -> float:
    """Petz-Renyi divergence log tr(rho^a sigma^(1-a)) / (a-1).

    Coincides with the sandwiched divergence for commuting states.
    """
    if not 0.0 < alpha < np.inf or alpha == 1.0:
        raise DomainError(f"Petz order alpha={alpha} must lie in (0,1) or (1,inf)")
    rho, sigma_dec = _density_pair(rho, sigma, strict=alpha > 1.0)
    w, U = np.linalg.eigh(rho)
    # rho's rounding-level negative eigenvalues, which the validation admits, count as 0
    ra = mc.SpectralDecomposition(w, U).reconstruct(np.power(np.maximum(w, 0.0), alpha))
    val = float(np.real(np.trace(ra @ sigma_dec.reconstruct(np.power(sigma_dec.values, 1.0 - alpha)))))
    return float(np.log(val) / (alpha - 1.0))


def chi2_divergence(rho, sigma) -> float:
    """Quantum chi-square divergence of the half-weighted inverse weighting.

    Satisfies exp(D_2) = 1 + chi2 exactly.
    """
    rho, sigma_dec = _density_pair(rho, sigma)
    delta = rho - mc.hermitize(np.asarray(sigma, dtype=complex))  # the validated sigma
    si = sigma_dec.reconstruct(sigma_dec.values**-0.5)
    return float(np.real(np.trace(delta @ si @ delta @ si)))


def brute_force_commutant_dim(ops, n, tol=1e-9):
    """Dimension of {A : [A, V] = 0 for all V} via the stacked kernel."""
    rows = []
    for V in ops:
        # [V, A] = 0 as a linear condition on vec(A)
        rows.append(np.kron(np.eye(n), V) - np.kron(V.T, np.eye(n)))
    M = np.vstack(rows)
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s <= tol * max(s[0], 1e-300)))


def trapezoid_integral(fn, a, b, npts):
    xs = np.linspace(a, b, npts)
    ys = np.array([fn(x) for x in xs])
    return float(np.trapezoid(ys, xs))


def propagate_by_expm(G, rho0, times):
    """The flow at each time, each state reached from rho0 by its own matrix
    exponential of the state-space superoperator: no stepping and no
    projection between states."""
    v0 = mc.vec(np.asarray(rho0, dtype=complex))
    return [mc.unvec(expm(t * L_super(G).conj().T) @ v0, G.n) for t in times]


def lindblad_superops_by_probing(terms, n):
    """Both pictures of a jump-term generator, each written out as its own
    map and probed on the n^2 matrix units."""

    def L_map(A):
        out = np.zeros_like(A)
        for t in terms:
            V, Vd, w = t.V, t.V.conj().T, np.exp(-t.omega / 2.0)
            out += w * (Vd @ (A @ V - V @ A) + (Vd @ A - A @ Vd) @ V)
        return out

    def Ldag_map(A):
        out = np.zeros_like(A)
        for t in terms:
            V, Vd, w = t.V, t.V.conj().T, np.exp(-t.omega / 2.0)
            VA = V @ A
            out += w * ((VA @ Vd - Vd @ VA) + (V @ (A @ Vd) - (A @ Vd) @ V))
        return out

    return mc.superoperator_of_map(L_map, n), mc.superoperator_of_map(Ldag_map, n)


def depolarizing_superops_by_probing(gamma, sigma):
    """Both pictures of uniform relaxation toward sigma, probed on matrix units."""
    n = sigma.shape[0]
    eye = np.eye(n)

    def L_map(A):
        return gamma * (np.trace(sigma @ A) * eye - A)

    def Ldag_map(A):
        return gamma * (np.trace(A) * sigma - A)

    return mc.superoperator_of_map(L_map, n), mc.superoperator_of_map(Ldag_map, n)


def metric_tensor_by_term(G, rho, alpha, nu1, nu2):
    """Transport metric pairing built term by term: one order-alpha
    multiplier per Bohr frequency, list-based jump commutators, and the
    flux operator's Gram matrix from d^2 Hilbert-Schmidt products."""
    mults = [multiplier_of(rho, G.sigma_dec, t.omega, alpha) for t in G.terms]

    def gradient(A):
        return [t.V @ A - A @ t.V for t in G.terms]

    def divergence(fields):
        out = np.zeros((G.n, G.n), dtype=complex)
        for A, t in zip(fields, G.terms):
            Vd = t.V.conj().T
            out += A @ Vd - Vd @ A
        return out

    basis = nco.traceless_hermitian_basis(G.n)
    d = len(basis)
    T = np.zeros((d, d))
    for b, B in enumerate(basis):
        TB = -divergence([apply_standard(m, g) for m, g in zip(mults, gradient(B))])
        for a in range(d):
            T[a, b] = float(np.real(np.vdot(basis[a], TB)))
    T = 0.5 * (T + T.T)
    w, Q = np.linalg.eigh(T)
    cutoff = 1e-10 * max(abs(w[-1]), 1e-300)
    winv = np.where(np.abs(w) > cutoff, 1.0 / w, 0.0)

    def solve(nu):
        coords = np.array([float(np.real(np.vdot(B, nu))) for B in basis])
        x = Q @ (winv * (Q.T @ coords))
        return sum(c * B for c, B in zip(x, basis))

    g = 0.0
    for m, g1, g2 in zip(mults, gradient(solve(nu1)), gradient(solve(nu2))):
        g += float(np.real(np.vdot(g1, apply_standard(m, g2))))
    return g


def sandwiched_renyi_by_matrix_powers(rho, sigma, alpha):
    """D_alpha one call at a time: the sandwiched state from a fresh matrix
    power of sigma, its phase-fixed eigenvalues, log Z / (alpha-1); the
    relative entropy from rho's own spectrum and log sigma at alpha = 1."""
    if alpha == 1.0:
        dec = mc.eig_hermitian(rho)
        w = np.maximum(dec.values, 0.0)
        mask = w > 1e-14
        cross = np.real(np.trace(dec.reconstruct(w) @ matrix_log(sigma)))
        return float(np.sum(w[mask] * np.log(w[mask])) - cross)
    rs = mc.hermitize(sandwich_pow(sigma, (1.0 - alpha) / alpha, rho))
    w = np.maximum(mc.eig_hermitian(rs).values, 0.0)
    return float(np.log(np.sum(w**alpha)) / (alpha - 1.0))


def functional_derivative_by_matrix_powers(rho, sigma, alpha):
    """alpha/(alpha-1) sigma^g rs^(alpha-1) sigma^g / Z with g = (1-alpha)/(2 alpha),
    every power of sigma formed afresh; log rho - log sigma at alpha = 1."""
    if alpha == 1.0:
        return matrix_log(rho) - matrix_log(sigma)
    gamma = (1.0 - alpha) / alpha
    dec = mc.eig_hermitian(mc.hermitize(sandwich_pow(sigma, gamma, rho)))
    Z = np.sum(dec.values**alpha)
    power = dec.reconstruct(dec.values ** (alpha - 1.0))
    return mc.hermitize((alpha / (alpha - 1.0)) * sandwich_pow(sigma, gamma, power) / Z)


def norm_functional_by_state(rho, sigma, beta):
    """The hypercontractivity monitor's log tr[(s rho s)^b] / b,
    s = sigma^((1-b)/2b), for one state, with rho rotated into the
    eigenbasis U of a fresh decomposition of sigma (`norm_functional_in_frame`)."""
    lam, U = np.linalg.eigh(mc.require_hermitian(sigma))
    return norm_functional_in_frame(U.conj().T @ rho @ U, lam, beta)


def norm_functional_in_frame(X, lam, beta):
    """log tr[(s rho s)^b] / b of X = U* rho U, a state in the eigenbasis of
    sigma (eigenvalues lam), with the sandwich formed entrywise,
    p . X . p with p = lam^((1-b)/2b): near sigma log Z carries rounding of
    about 1e-16 in absolute terms, so only the monitor's arithmetic pins the
    functional there to rounding (`sandwiched_renyi_by_mpmath` checks the
    arithmetic)."""
    p = lam ** ((1.0 - beta) / beta / 2.0)
    rs = mc.hermitize(p[:, None] * X * p)
    w = np.maximum(mc.eig_hermitian(rs).values, 0.0)
    return float(np.log(np.sum(w**beta)) / beta)


def sandwiched_renyi_by_mpmath(rho, sigma, alpha, dps=40):
    """D_alpha in `dps`-digit arithmetic from the definition: sigma and the
    sandwiched state s rho s, s = sigma^((1-alpha)/(2 alpha)), decomposed
    afresh, log tr (s rho s)^alpha / (alpha - 1) over its spectrum clamped
    at zero."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        E, Q = mpmath.eigh(mpmath.matrix(np.asarray(sigma, dtype=complex).tolist()))
        s = Q * mpmath.diag([e ** ((1 - a) / (2 * a)) for e in E]) * Q.H
        rs = s * mpmath.matrix(np.asarray(rho, dtype=complex).tolist()) * s
        lam = mpmath.eigh((rs + rs.H) / 2, eigvals_only=True)
        return float(mpmath.log(sum(max(e, 0) ** a for e in lam)) / (a - 1))


def log_of(dec: mc.SpectralDecomposition) -> np.ndarray:
    """log A from the decomposition of A, hermitized: the bits of `matrix_log`
    on the decomposition that validated A."""
    return mc.hermitize(dec.reconstruct(np.log(dec.values).astype(complex)))


# --- weighted L_alpha functionals of X = sigma^(-1/2) rho sigma^(-1/2) ---------
# The X-parameterized form of the entropy functional and Dirichlet form, each
# forming and decomposing the weighted argument itself: the reference for
# `SandwichedState.entropy` and for the Dirichlet form (alpha Z/4) I_alpha
# that the log-Sobolev ratios read from the Fisher pairing.


def power_op(sigma, beta: float, alpha: float, A) -> np.ndarray:
    """Power operator: unweight by 1/beta after raising the 1/alpha-weighted
    modulus to the alpha/beta power."""
    B = mc.hermitize(sandwich_pow(sigma, 1.0 / alpha, A))
    dec = mc.SpectralDecomposition(*np.linalg.eigh(B))
    P = mc.hermitize(dec.reconstruct(np.abs(dec.values) ** (alpha / beta)))
    return sandwich_pow(sigma, -1.0 / beta, P)


def ent_fun(sigma, alpha: float, X) -> float:
    """Order-alpha entropy functional of a strictly positive X (>= 0)."""
    B = mc.hermitize(sandwich_pow(sigma, 1.0 / alpha, X))
    dec = nco._positive_spectrum(B, "weighted argument")
    w = dec.values**alpha
    Balpha = dec.reconstruct(w)
    log_sigma = matrix_log(sigma)
    t1 = float(np.sum(w * np.log(w)))
    t2 = float(np.real(np.trace(Balpha @ log_sigma)))
    nrm = float(np.sum(w))
    return t1 - t2 - nrm * np.log(nrm)


def dirichlet_form(G, alpha: float, X) -> float:
    """Order-alpha Dirichlet form of the generator on strictly positive X.

    The generic branch pairs the conjugate-power operator with -L(X) in the
    1/2-weighted inner product; alpha = 1 takes the logarithmic limit.
    """
    sig = G.sigma
    minus_LX = -apply_L(G, X)
    if alpha == 1.0:
        B = mc.hermitize(sandwich_pow(sig, 1.0, X))
        dec = mc.SpectralDecomposition(*np.linalg.eigh(B))
        if dec.values[0] < mc.POS_FLOOR:
            raise SingularityError(
                f"weighted argument: smallest eigenvalue {dec.values[0]:.3e} below {mc.POS_FLOOR:.1e}"
            )
        arg = log_of(dec) - matrix_log(sig)
        return 0.25 * float(np.real(weighted_inner(arg, minus_LX, sig, 0.5)))
    at = alpha / (alpha - 1.0)
    P = power_op(sig, at, alpha, X)
    return (alpha * at / 4.0) * float(np.real(weighted_inner(P, minus_LX, sig, 0.5)))


def lindblad_superop_by_term(terms):
    """Observable-side superoperator of a jump-term generator, three kron
    products per term: sum_j e^(-omega_j/2) (2 kron(V_j.T, V_j*)
    - kron(I, V_j*V_j) - kron((V_j*V_j).T, I))."""
    n = terms[0].V.shape[0]
    eye = np.eye(n)
    out = np.zeros((n * n, n * n), dtype=complex)
    for t in terms:
        V, Vd, w = t.V, t.V.conj().T, np.exp(-t.omega / 2.0)
        VdV = Vd @ V
        out += w * (2.0 * np.kron(V.T, Vd) - np.kron(eye, VdV) - np.kron(VdV.T, eye))
    return out


# --- the order-alpha weight kernel in high precision ---------------------------


def weight_kernel_by_mpmath(lam, alpha, dps=40):
    """The order-alpha weight kernel of the eigenvalues lam, entry by entry
    in `dps`-digit arithmetic from the definition: sqrt(l_k l_l) (a-1)
    sinh(x) / sinh((a-1) x) with x = log(l_k / l_l) / (2a), the logarithmic
    mean L(l_k, l_l) at a = 1 and l_k l_l / L(l_k, l_l) at a = infinity."""
    n = len(lam)
    out = np.empty((n, n))
    with mpmath.workdps(dps):
        for k in range(n):
            for l in range(n):
                lk, ll = mpmath.mpf(lam[k]), mpmath.mpf(lam[l])
                logmean = (lk - ll) / (mpmath.log(lk) - mpmath.log(ll)) if lk != ll else lk
                if alpha == 1.0:
                    v = logmean
                elif np.isinf(alpha):
                    v = lk * ll / logmean
                else:
                    a = mpmath.mpf(alpha)
                    x = mpmath.log(lk / ll) / (2 * a)
                    v = mpmath.sqrt(lk * ll) * ((a - 1) * mpmath.sinh(x) / mpmath.sinh((a - 1) * x) if x else 1)
                out[k, l] = float(v)
    return out


# --- the stock two-level counterexample ----------------------------------------


def carlen_maas_by_composition():
    """Observable-side superoperator of the Carlen-Maas generator Kt K - I,
    composed from the channel K(A) = K1* A K1 + K2* A K2 and its
    half-weighted adjoint Kt(A) = Kt1* A Kt1 + Kt2* A Kt2 with
    Kt_j = sigma^(1/2) K_j* sigma^(-1/2), sigma = [[2,3],[3,5]]/7."""
    psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    phi = np.array([1.0, 2.0], dtype=complex) / np.sqrt(5.0)
    K1, K2 = np.outer(psi, [1.0, 0.0]), np.outer(phi, [0.0, 1.0])
    sigma = np.array([[2.0, 3.0], [3.0, 5.0]], dtype=complex) / 7.0
    shalf, sinvh = matrix_power(sigma, 0.5), matrix_power(sigma, -0.5)
    Kt1, Kt2 = shalf @ K1.conj().T @ sinvh, shalf @ K2.conj().T @ sinvh

    def K_map(A):
        return K1.conj().T @ A @ K1 + K2.conj().T @ A @ K2

    def Kt_map(A):
        return Kt1.conj().T @ A @ Kt1 + Kt2.conj().T @ A @ Kt2

    return mc.superoperator_of_map(lambda A: Kt_map(K_map(A)) - A, 2)


# --- sigma-weightings as n^2 x n^2 superoperators ------------------------------
# The package applies each weighting as its entrywise kernel to the generator
# written in sigma's eigenbasis; these are the standard-basis kron forms.


def _sandwich_superop(X, Y):
    """Superoperator of A -> X A Y."""
    return np.kron(np.asarray(Y).T, np.asarray(X))


def _sigma_power(G, p):
    return matrix_power(G.sigma, p)


def gns_residual_by_kron(G):
    """||K - K*|| / ||K|| with K = (A -> A sigma) composed after L."""
    K = _sandwich_superop(np.eye(G.n), G.sigma) @ L_super(G)
    return float(np.linalg.norm(K - K.conj().T) / np.linalg.norm(K))


def kms_residual_by_kron(G):
    """Defect of conjugating Ldag by the half-power weighting onto L."""
    half, ihalf = _sigma_power(G, 0.5), _sigma_power(G, -0.5)
    L = L_super(G)
    resid = _sandwich_superop(ihalf, ihalf) @ L.conj().T @ _sandwich_superop(half, half) - L
    return float(np.linalg.norm(resid) / np.linalg.norm(L))


def srd_residual_by_kron(G, alpha):
    """Trace-norm defect of the order-alpha weighting, its superoperator
    W diag(vec kernel) W* with W = kron(conj(U), U) from a phase-fixed
    decomposition of sigma."""
    dec = mc.eig_hermitian(G.sigma)
    kernel = nco._weight_kernel(dec.values, alpha)
    W = np.kron(dec.vectors.conj(), dec.vectors)
    S_W = W @ np.diag(mc.vec(kernel)) @ W.conj().T
    S_Winv = W @ np.diag(mc.vec(1.0 / kernel)) @ W.conj().T
    L = L_super(G)
    resid = S_W @ L @ S_Winv - L.conj().T
    return trace_norm(resid) / trace_norm(L)


def modular_commutator_by_kron(G):
    """||[L, A -> sigma A sigma^-1]|| / ||L||."""
    mod = _sandwich_superop(_sigma_power(G, 1.0), _sigma_power(G, -1.0))
    L = L_super(G)
    return float(np.linalg.norm(L @ mod - mod @ L) / np.linalg.norm(L))


def symmetrized_generator_by_kron(G):
    """-L conjugated by A -> q A q, q = sigma^(1/4), in the standard basis."""
    q, qi = _sigma_power(G, 0.25), _sigma_power(G, -0.25)
    return _sandwich_superop(q, q) @ (-L_super(G)) @ _sandwich_superop(qi, qi)


def gap_direction_by_kron(G, cluster_rtol):
    """The half-weighted projection of the fixed probe onto the gap's
    eigenspace, with the eigenspace taken in the standard basis."""
    w, U = np.linalg.eigh(mc.hermitize(symmetrized_generator_by_kron(G)))
    gap = w[w > 1e-9 * w[-1]][0]
    C = U[:, np.abs(w - gap) <= cluster_rtol * gap]
    probe = _sigma_power(G, 0.25) @ mc.random_traceless_hermitian(np.random.default_rng(0), G.n)
    probe = probe @ _sigma_power(G, 0.25)
    x = mc.unvec(C @ (C.conj().T @ mc.vec(probe)), G.n)
    nu = mc.hermitize(_sigma_power(G, -0.25) @ x @ _sigma_power(G, -0.25))
    return nu / np.linalg.norm(nu)


# --- gradient and divergence against a generator's jump operators -------------
# `RenyiMultiplier.flux` fuses nc_divergence(M.apply(nc_gradient(D))) into
# products over the jump stack; these are the unfused lemma objects.


def nc_gradient(G, A) -> np.ndarray:
    """Noncommutative gradient: the (m, n, n) stack of commutators [V_j, A]."""
    A = np.asarray(A, dtype=complex)
    V = G._require_terms().V
    return V @ A - A @ V


def nc_divergence(G, fields) -> np.ndarray:
    """Noncommutative divergence: sum of [A_j, V_j*]; adjoint of -gradient."""
    fields = np.asarray(fields, dtype=complex)
    Vd = G._require_terms().V.conj().swapaxes(-1, -2)
    if len(fields) != len(Vd):
        raise DomainError(f"vector field has {len(fields)} components, generator has {len(Vd)}")
    return np.sum(fields @ Vd - Vd @ fields, axis=0)


def flux_by_mpmath(rho, sigma, omegas, V, alpha, dps=40) -> np.ndarray:
    """sum_j [M_j [V_j, D], V_j*] for the state's own derivative D and any
    (m, n, n) jump stack V, one step at a time in `dps`-digit arithmetic:
    sigma and the sandwiched state rs = s rho s, s = sigma^((1-alpha)/(2 alpha)),
    decomposed afresh, D formed in the standard basis (log rho - log sigma at
    order 1), and M_j(X) = (Z/alpha) P U (k_j . (U* P X P U)) U* P with
    P = s^-1 and k_j the quotient of the twisted logarithmic means of lam at
    omega_j/alpha and of lam^(alpha-1) at (alpha-1) omega_j/alpha."""
    n = len(rho)
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)

        def mat(A):
            return mpmath.matrix(np.asarray(A, dtype=complex).tolist())

        def function(A, f):
            E, Q = mpmath.eigh(A)
            return Q * mpmath.diag([f(e) for e in E]) * Q.H

        def logmean(x, y):
            return x if x == y else (x - y) / (mpmath.log(x) - mpmath.log(y))

        S, R = mat(sigma), mat(rho)
        s = function(S, lambda e: e ** ((1 - a) / (2 * a)))
        P = function(S, lambda e: e ** ((a - 1) / (2 * a)))
        rs = s * R * s
        lam, U = mpmath.eigh((rs + rs.H) / 2)
        Z = sum(e**a for e in lam)
        if alpha == 1.0:
            D = function(R, mpmath.log) - function(S, mpmath.log)
        else:
            D = a / (a - 1) / Z * s * U * mpmath.diag([e ** (a - 1) for e in lam]) * U.H * s
        out = mpmath.zeros(n, n)
        for omega, Vj in zip(omegas, V):
            Vj, t = mat(Vj), mpmath.mpf(omega) / (2 * a)
            B = U.H * P * (Vj * D - D * Vj) * P * U
            for p in range(n):
                for q in range(n):
                    num = logmean(lam[p] * mpmath.exp(t), lam[q] * mpmath.exp(-t))
                    den = logmean((lam[p] * mpmath.exp(t)) ** (a - 1), (lam[q] * mpmath.exp(-t)) ** (a - 1))
                    B[p, q] *= num / den
            F = Z / a * P * U * B * U.H * P
            out += F * Vj.H - Vj.H * F
        return np.array(out.tolist(), dtype=complex)


# --- jump terms one at a time ----------------------------------------------------


def jump_term(V, omega: float, weight: float | None = None) -> JumpTerm:
    """One jump term normalized on its own, the per-term reference for
    `JumpTerms.of`: without a weight V is kept and <V, V> recorded; an
    explicit weight scales V as a direction so that <V, V> = weight."""
    V = mc.as_matrix(V, "jump operator")
    nrm2 = float(np.real(np.trace(V.conj().T @ V)))
    if weight is None:
        weight = nrm2
    elif abs(weight - nrm2) > 1e-8 * max(1.0, weight):
        V = V * np.sqrt(weight / nrm2)
    return JumpTerm(V=V, omega=float(omega), weight=float(weight))


# --- lemma objects without a package caller ------------------------------------


def modular_apply(sigma_dec: mc.SpectralDecomposition, A) -> np.ndarray:
    """Modular conjugation sigma A sigma^(-1)."""
    S = sigma_dec.reconstruct()
    Sinv = sigma_dec.reconstruct(1.0 / sigma_dec.values)
    return S @ np.asarray(A, dtype=complex) @ Sinv


def chain_rule_residual(V, X, omega: float) -> float:
    """Frobenius defect of the chain-rule identity for the twisted multiplier.

    Exactly zero in exact arithmetic; the returned value is floating-point
    noise and is contracted to stay below 1e-9 * ||V|| * ||X||.
    """
    V = np.asarray(V, dtype=complex)
    dec = nco._positive_spectrum(X)
    logX = dec.reconstruct(np.log(dec.values))
    n = V.shape[0]
    shift = 0.5 * omega * np.eye(n)
    inner = V @ (logX - shift) - (logX + shift) @ V
    lhs = nco.log_mean_multiplier(X, omega).apply(inner)
    Xm = dec.reconstruct()
    rhs = np.exp(-omega / 2.0) * V @ Xm - np.exp(omega / 2.0) * Xm @ V
    return float(np.linalg.norm(lhs - rhs))


# --- standard-basis entry points to the frame functions ---------------------------
# Every package caller rotates a standard-basis state into sigma's frame once
# and forms its sandwiched state there; these do the same for a test.


def sandwiched_state(rho, sigma_dec: mc.SpectralDecomposition, alpha) -> nco.SandwichedState:
    return nco.frame_sandwiched_state(sigma_dec.to_frame(rho), sigma_dec, alpha)


def sandwiched_trace(rho, sigma_dec: mc.SpectralDecomposition, alpha) -> np.ndarray:
    return nco.frame_sandwiched_trace(sigma_dec.to_frame(rho), sigma_dec, alpha)


def multiplier_of(rho, sigma_dec: mc.SpectralDecomposition, omega, alpha) -> nco.RenyiMultiplier:
    return nco.renyi_multiplier(sigma_dec.to_frame(rho), sigma_dec, omega, alpha)


def apply_standard(M: nco.RenyiMultiplier, A) -> np.ndarray:
    """M applied to a standard-basis matrix or stack: rotated into sigma's frame, where M acts, and back."""
    dec = M.state.sigma_dec
    return dec.from_frame(M.apply(dec.to_frame(np.asarray(A, dtype=complex))))


def derivative(state: nco.SandwichedState) -> np.ndarray:
    """The functional derivative in the standard basis, rotated back from the frame."""
    return mc.hermitize(state.sigma_dec.from_frame(state.frame_derivative()))


# --- dense decompositions of L in sigma's frame ------------------------------------
# `Generator` decomposes `L_eig` block by block over its modular partition
# (`Generator.blocks`); these take the whole n^2 x n^2 matrix at once.


@functools.cache
def block_cases() -> tuple[tuple[str, object], ...]:
    """(id, generator) pairs the blockwise readers are checked on: random GNS
    generators at n = 2-16 (one population block and singletons), a thermal
    ladder (sigma's eigenvalues in geometric progression, so the log-ratios
    coincide and several sets are larger than one), a rotated-in GNS
    generator, the builtins, and Carlen-Maas (not modular, one block)."""
    cases = [(f"gns-{n}", random_gns_generator(np.random.default_rng(3200 + n), n, min_sigma_eig=0.15))
             for n in (2, 3, 4, 5, 6, 8, 12, 16)]
    sigma = np.diag(0.5 ** np.arange(4.0)).astype(complex) / np.sum(0.5 ** np.arange(4.0))
    cases.append(("ladder-4", build_gns(sigma, eigen_jump_terms(mc.density_spectrum(sigma, strict=True)))))
    G = cases[2][1]
    cases.append(("rotated-gns-4", Generator(G.sigma, L_super(G), label="rotated")))
    for spec in ("qubit-xz", "carlen-maas", "depolarizing?n=3", "depolarizing?sigma=0.2,0.3,0.5&gamma=0.7"):
        cases.append((spec, cli.load_generator(f"builtin:{spec}")))
    return tuple(cases)


def modular_labels(G) -> np.ndarray:
    """The set of each frame unit in `G.blocks`, as one label per unit."""
    label = np.empty(G.n**2, dtype=int)
    label[G.blocks.single] = np.arange(G.blocks.single.size)
    for j, b in enumerate(G.blocks.index):
        label[b] = G.blocks.single.size + j
    return label


def off_block_perturbed(G, size: float, seed: int = 0):
    """G's L plus a random perturbation between the sets of `G.blocks`, of
    Frobenius norm `size` ||L||_F, as a generator given in the standard basis."""
    label = modular_labels(G)
    P = np.where(label[:, None] != label, mc.random_complex(np.random.default_rng(seed), G.n**2), 0.0)
    M = G.L_eig + size * np.linalg.norm(G.L_eig) / np.linalg.norm(P) * P
    U = G.sigma_dec.vectors
    W = np.kron(U.conj(), U)
    return Generator(G.sigma, W @ M @ W.conj().T, label="off-block")


def dense_singular_values(G) -> np.ndarray:
    return np.linalg.svd(G.L_eig, compute_uv=False)


def kernel_projector(kernel) -> np.ndarray:
    """Projector onto the span of orthonormal n x n matrices, as n^2 x n^2."""
    K = np.stack([mc.vec(A) for A in kernel], axis=1)
    return K @ K.conj().T


def dense_kernel_projector(G, rtol) -> np.ndarray:
    """`kernel_projector` of the right singular vectors of `L_eig` whose
    singular value is at most rtol times the largest, rotated to the standard basis."""
    _, s, vh = np.linalg.svd(G.L_eig)
    return kernel_projector(G.sigma_dec.from_frame(mc.unvec(vh[s <= rtol * s[0]].conj().T, G.n)))


def dense_spectrum(G) -> np.ndarray:
    """Eigenvalues of -L conjugated by the kernel (lam_k lam_l)^(1/4), in one `eigvalsh`."""
    q = mc.vec(G.sigma_dec.kernel(0.25, 0.25))
    return np.linalg.eigvalsh(mc.hermitize(q[:, None] * -G.L_eig / q))


def dense_srd_residual(G, alpha) -> float:
    """Trace norm of w o L / w - L^H over that of L, each from one SVD."""
    w = mc.vec(nco.weight_operator(G.sigma_dec, alpha).kernel)
    return trace_norm(w[:, None] * G.L_eig / w - G.L_eig.conj().T) / trace_norm(G.L_eig)


# --- decay-envelope constants --------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeConstants:
    alpha: float
    eps: float
    K: float
    Lambda: float
    eta: float
    T: float
    C: float
    tau: float


def decay_envelope_constants(G, alpha: float, eps: float, rho0) -> EnvelopeConstants:
    """Prefactor C and onset time tau of the sharp-rate exponential envelope
    C D_alpha(rho0) e^(-2 lambda t), t >= tau.

    Uses order 2 inside the spectral-ratio factor; K is the guaranteed
    lower bracket lambda / (1 - log sqrt(smin)) of the log-Sobolev constant.
    """
    if alpha <= 0.0:
        raise DomainError(f"order alpha={alpha} must be positive")
    lam = G.gap.value
    K = lam / (1.0 - np.log(np.sqrt(G.sigma_dec.values[0])))
    Lam, eta, _ = flow.comparison_constants(2.0, 2.0, eps, G.sigma_dec, G.omegas, K)
    T = max(0.0, np.log(alpha - 1.0) / (2.0 * K * eta)) if alpha > 1.0 else 0.0
    X0 = G.sigma_dec.to_frame(mc.require_density(rho0))
    D2_0, Da_0, D1_0 = (nco.frame_sandwiched_state(X0, G.sigma_dec, a).divergence() for a in (2.0, alpha, 1.0))
    heaviside = 1.0 if alpha > 2.0 else 0.0
    C = (np.expm1(D2_0) / Da_0) * np.exp(heaviside * 2.0 * lam * T)
    tau = 0.0 if alpha <= 2.0 else T + max(0.0, np.log(D1_0 / eps) / (2.0 * K))
    return EnvelopeConstants(
        alpha=float(alpha), eps=float(eps), K=float(K), Lambda=Lam, eta=eta,
        T=float(T), C=float(C), tau=float(tau),
    )
