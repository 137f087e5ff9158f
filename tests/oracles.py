"""Independent numerical oracles used by the tests.

These deliberately avoid the spectral-kernel code paths of the package:
integral operators are evaluated by composite Simpson quadrature on full
matrices, classical formulas by direct summation, and kernel structure by
brute force over basis elements.  Constructions the package replaced by
stacked or closed-form equivalents are kept here in their term-by-term
form as references.
"""

import mpmath
import numpy as np
from scipy.linalg import expm

import renyiflow.matcore as mc
import renyiflow.noncomm_ops as nco
from renyiflow.errors import DomainError, SingularityError
from renyiflow.generator import JumpTerm


# --- generic spectral calculus ------------------------------------------------
# A fresh decomposition per call, with its own domain floor and an optional
# lenient clamp: the reference that `SpectralDecomposition.power` and `.log`
# reproduce bit for bit on the decomposition that validated the matrix.


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
    """Simpson evaluation of the twisted-multiplier integral on matrices."""
    dec = mc.eig_hermitian(X)
    U, lam = dec.vectors, dec.values
    s = np.linspace(0.0, 1.0, npts)
    w = simpson_weights(npts)
    out = np.zeros_like(np.asarray(A, dtype=complex))
    for si, wi in zip(s, w):
        Xs = (U * lam**si) @ U.conj().T
        X1s = (U * lam ** (1.0 - si)) @ U.conj().T
        out += wi * np.exp(omega * (si - 0.5)) * (Xs @ A @ X1s)
    return out


def mop_inverse_quadrature(X, omega, A, npts=2001, pad=25.0):
    """Simpson evaluation of the half-line resolvent-product integral.

    Integrates (t + a X)^-1 A (t + c X)^-1 dt over t in (0, inf) after the
    substitution t = e^u, which makes the integrand uniformly smooth; the
    integration window pads the spectral range of X by `pad` e-foldings.
    """
    n = X.shape[0]
    eye = np.eye(n)
    lam = np.linalg.eigvalsh(X)
    a, c = np.exp(omega / 2.0), np.exp(-omega / 2.0)
    u_lo = np.log(min(a, c) * lam[0]) - pad
    u_hi = np.log(max(a, c) * lam[-1]) + pad
    u = np.linspace(u_lo, u_hi, npts)
    w = simpson_weights(npts, length=u_hi - u_lo)
    out = np.zeros_like(np.asarray(A, dtype=complex))
    for ui, wi in zip(u, w):
        t = np.exp(ui)
        M1 = np.linalg.inv(t * eye + a * X)
        M2 = np.linalg.inv(t * eye + c * X)
        out += (wi * t) * (M1 @ A @ M2)
    return out


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
    return [mc.unvec(expm(t * G.Ldag_super) @ v0, G.n) for t in times]


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
    mults = [nco.renyi_multiplier(rho, G.sigma_dec, t.omega, alpha) for t in G.terms]

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
        TB = -divergence([m.apply(g) for m, g in zip(mults, gradient(B))])
        for a in range(d):
            T[a, b] = float(np.real(mc.hs_inner(basis[a], TB)))
    T = 0.5 * (T + T.T)
    w, Q = np.linalg.eigh(T)
    cutoff = 1e-10 * max(abs(w[-1]), 1e-300)
    winv = np.where(np.abs(w) > cutoff, 1.0 / w, 0.0)

    def solve(nu):
        coords = np.array([float(np.real(mc.hs_inner(B, nu))) for B in basis])
        x = Q @ (winv * (Q.T @ coords))
        return sum(c * B for c, B in zip(x, basis))

    g = 0.0
    for m, g1, g2 in zip(mults, gradient(solve(nu1)), gradient(solve(nu2))):
        g += float(np.real(mc.hs_inner(g1, m.apply(g2))))
    return g


def _sandwich_pow(sigma, gamma, A):
    P = matrix_power(sigma, gamma / 2.0)
    return P @ A @ P


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
    rs = mc.hermitize(_sandwich_pow(sigma, (1.0 - alpha) / alpha, rho))
    w = np.maximum(mc.eig_hermitian(rs).values, 0.0)
    return float(np.log(np.sum(w**alpha)) / (alpha - 1.0))


def functional_derivative_by_matrix_powers(rho, sigma, alpha):
    """alpha/(alpha-1) sigma^g rs^(alpha-1) sigma^g / Z with g = (1-alpha)/(2 alpha),
    every power of sigma formed afresh; log rho - log sigma at alpha = 1."""
    if alpha == 1.0:
        return matrix_log(rho) - matrix_log(sigma)
    gamma = (1.0 - alpha) / alpha
    dec = mc.eig_hermitian(mc.hermitize(_sandwich_pow(sigma, gamma, rho)))
    Z = np.sum(dec.values**alpha)
    power = dec.reconstruct(dec.values ** (alpha - 1.0))
    return mc.hermitize((alpha / (alpha - 1.0)) * _sandwich_pow(sigma, gamma, power) / Z)


def norm_functional_by_state(rho, sigma, beta):
    """The hypercontractivity monitor's log tr[(s rho s)^b] / b,
    s = sigma^((1-b)/2b), for one state."""
    rs = mc.hermitize(_sandwich_pow(sigma, (1.0 - beta) / beta, rho))
    w = np.maximum(mc.eig_hermitian(rs).values, 0.0)
    return float(np.log(np.sum(w**beta)) / beta)


# --- weighted L_alpha functionals of X = sigma^(-1/2) rho sigma^(-1/2) ---------
# The X-parameterized form of the entropy functional and Dirichlet form, each
# forming and decomposing the weighted argument itself: the reference for
# `SandwichedState.entropy` and for the Dirichlet form (alpha Z/4) I_alpha
# that the log-Sobolev ratios read from the Fisher pairing.


def power_op(sigma_dec: mc.SpectralDecomposition, beta: float, alpha: float, A) -> np.ndarray:
    """Power operator: unweight by 1/beta after raising the 1/alpha-weighted
    modulus to the alpha/beta power."""
    B = mc.hermitize(nco.sandwich_pow(sigma_dec, 1.0 / alpha, A))
    dec = mc.SpectralDecomposition(*np.linalg.eigh(B))
    P = mc.hermitize(dec.reconstruct(np.abs(dec.values) ** (alpha / beta)))
    return nco.sandwich_pow(sigma_dec, -1.0 / beta, P)


def ent_fun(sigma_dec: mc.SpectralDecomposition, alpha: float, X) -> float:
    """Order-alpha entropy functional of a strictly positive X (>= 0)."""
    B = mc.hermitize(nco.sandwich_pow(sigma_dec, 1.0 / alpha, X))
    dec = nco._positive_spectrum(B, "weighted argument")
    w = dec.values**alpha
    Balpha = dec.reconstruct(w)
    log_sigma = sigma_dec.log()
    t1 = float(np.sum(w * np.log(w)))
    t2 = float(np.real(np.trace(Balpha @ log_sigma)))
    nrm = float(np.sum(w))
    return t1 - t2 - nrm * np.log(nrm)


def dirichlet_form(G, alpha: float, X) -> float:
    """Order-alpha Dirichlet form of the generator on strictly positive X.

    The generic branch pairs the conjugate-power operator with -L(X) in the
    1/2-weighted inner product; alpha = 1 takes the logarithmic limit.
    """
    sig = G.sigma_dec
    minus_LX = -G.apply_L(X)
    if alpha == 1.0:
        B = mc.hermitize(nco.sandwich_pow(sig, 1.0, X))
        dec = mc.SpectralDecomposition(*np.linalg.eigh(B))
        if dec.values[0] < mc.POS_FLOOR:
            raise SingularityError(
                f"weighted argument: smallest eigenvalue {dec.values[0]:.3e} below {mc.POS_FLOOR:.1e}"
            )
        arg = dec.log() - sig.log()
        return 0.25 * float(np.real(mc.weighted_inner(arg, minus_LX, sig, 0.5)))
    at = alpha / (alpha - 1.0)
    P = power_op(sig, at, alpha, X)
    return (alpha * at / 4.0) * float(np.real(mc.weighted_inner(P, minus_LX, sig, 0.5)))


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
    K = _sandwich_superop(np.eye(G.n), G.sigma) @ G.L_super
    return float(np.linalg.norm(K - K.conj().T) / np.linalg.norm(K))


def kms_residual_by_kron(G):
    """Defect of conjugating Ldag by the half-power weighting onto L."""
    half, ihalf = _sigma_power(G, 0.5), _sigma_power(G, -0.5)
    resid = _sandwich_superop(ihalf, ihalf) @ G.Ldag_super @ _sandwich_superop(half, half) - G.L_super
    return float(np.linalg.norm(resid) / np.linalg.norm(G.L_super))


def srd_residual_by_kron(G, alpha):
    """Trace-norm defect of the order-alpha weighting, its superoperator
    W diag(vec kernel) W* with W = kron(conj(U), U) from a phase-fixed
    decomposition of sigma."""
    dec = mc.eig_hermitian(G.sigma)
    kernel = nco._weight_kernel(dec.values, alpha)
    W = np.kron(dec.vectors.conj(), dec.vectors)
    S_W = W @ np.diag(mc.vec(kernel)) @ W.conj().T
    S_Winv = W @ np.diag(mc.vec(1.0 / kernel)) @ W.conj().T
    resid = S_W @ G.L_super @ S_Winv - G.Ldag_super
    return mc.trace_norm(resid) / mc.trace_norm(G.L_super)


def modular_commutator_by_kron(G):
    """||[L, A -> sigma A sigma^-1]|| / ||L||."""
    mod = _sandwich_superop(_sigma_power(G, 1.0), _sigma_power(G, -1.0))
    return float(np.linalg.norm(G.L_super @ mod - mod @ G.L_super) / np.linalg.norm(G.L_super))


def symmetrized_generator_by_kron(G):
    """-L conjugated by A -> q A q, q = sigma^(1/4), in the standard basis."""
    q, qi = _sigma_power(G, 0.25), _sigma_power(G, -0.25)
    return _sandwich_superop(q, q) @ (-G.L_super) @ _sandwich_superop(qi, qi)


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
    V = G.jump_stacks[0]
    return V @ A - A @ V


def nc_divergence(G, fields) -> np.ndarray:
    """Noncommutative divergence: sum of [A_j, V_j*]; adjoint of -gradient."""
    fields = np.asarray(fields, dtype=complex)
    Vd = G.jump_stacks[1]
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
    nrm2 = float(np.real(mc.hs_inner(V, V)))
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
