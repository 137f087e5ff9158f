"""Lindblad generators with detailed-balance structure.

Builds and validates jump-operator generators whose stationary state
enters through modular (Bohr-frequency) eigenvector conditions, decides
primitivity, and computes the spectral gap of the symmetrized generator.
Every sigma-weighting of L is an entrywise kernel on `Generator.L_eig`, L
written in the matrix units of sigma's eigenbasis.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matcore as mc
from .errors import ValidationError

TOL_TRACELESS = 1e-10
TOL_MODULAR = 1e-8
TOL_GRAM = 1e-10
TOL_STATIONARY = 1e-10
TOL_SELFADJOINT = 1e-10
TOL_COMMUTE = 1e-8
ZERO_MODE_RTOL = 1e-9
# range of the random weights of `random_gns_generator`'s jump terms
GNS_WEIGHT_RANGE = (0.5, 1.5)


@dataclass(frozen=True)
class JumpTerm:
    """One jump operator with its Bohr frequency and weight, a read-only
    view of one term of a `JumpTerms` stack."""

    V: np.ndarray
    omega: float
    weight: float


@dataclass(frozen=True)
class JumpTerms:
    """m jump operators as one read-only (m, n, n) stack `V` with their
    Bohr frequencies `omega` and weights `weight` (squared Hilbert-Schmidt
    norms); indexing gives `JumpTerm` views.  `of` validates and normalizes."""

    V: np.ndarray
    omega: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return len(self.V)

    def __getitem__(self, j: int) -> JumpTerm:
        return JumpTerm(V=self.V[j], omega=float(self.omega[j]), weight=float(self.weight[j]))

    @staticmethod
    def of(V, omega, weight=None) -> "JumpTerms":
        """The stack of m square operators, m finite frequencies and, if given,
        m weights (None for a term without one).  A term without a weight keeps
        its V and records <V, V>; with a positive finite one, V is a direction
        scaled so that <V, V> = weight.  The first term at fault is named."""
        V = np.array(V, dtype=complex)
        if V.ndim != 3 or V.shape[1] != V.shape[2] or not V.size:
            raise ValidationError(f"jump operators: expected a nonempty (m, n, n) stack, got shape {V.shape}")
        _raise_first((~np.isfinite(V).all(axis=(1, 2)), lambda j: f"term {j}: V has non-finite entries"))
        nrm2 = np.real(np.trace(V.conj().swapaxes(-1, -2) @ V, axis1=1, axis2=2))
        omega = _term_reals(omega, len(V), "omega")
        if weight is None:
            weight = nrm2
        else:
            given = np.array([w is not None for w in weight])
            weight = _term_reals([nrm2[j] if w is None else w for j, w in enumerate(weight)], len(V), "weight")
            scale = np.abs(weight - nrm2) > 1e-8 * np.maximum(1.0, weight)
            _raise_first((given & (weight <= 0.0), lambda j: f"term {j}: weight {weight[j]} is not positive"),
                         (scale & (nrm2 == 0.0), lambda j: f"term {j}: V = 0 cannot carry weight {weight[j]}"))
            V[scale] *= np.sqrt(weight[scale] / nrm2[scale])[:, None, None]
        for arr in (V, omega, weight):
            arr.setflags(write=False)
        return JumpTerms(V=V, omega=omega, weight=weight)


def _term_reals(values, m: int, what: str) -> np.ndarray:
    """(m,) floats, one per term; the first that is not a finite real raises (true and false are not reals)."""
    arr = np.array([x if isinstance(x, numbers.Real) and not isinstance(x, bool) else np.nan for x in values],
                   dtype=float)
    if arr.shape != (m,):
        raise ValidationError(f"{what}: expected {m} values, one per term")
    _raise_first((~np.isfinite(arr), lambda j: f"term {j}: {what} {values[j]!r} is not a finite real"))
    return arr


def _raise_first(*conditions) -> None:
    """Raise the first violation in (term, condition) order; a condition is (mask, message of j)."""
    bad = np.array([mask for mask, _ in conditions]).T
    if bad.any():
        j, c = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValidationError(conditions[c][1](int(j)))


def _modular_kernel(dec: mc.SpectralDecomposition) -> np.ndarray:
    """lam_k / lam_l, the kernel of A -> sigma A sigma^-1 in sigma's eigenbasis."""
    return np.outer(dec.values, 1.0 / dec.values)


def _validate_terms(G: Generator) -> None:
    """Structure conditions (i)-(iv) on the stacked jump operators."""
    V, Vd = G.jump_stacks
    omega, weights = G.terms.omega, G.terms.weight
    m = len(V)
    X, Xd = V.reshape(m, -1), Vd.reshape(m, -1)
    norms = np.linalg.norm(X, axis=1)
    tr = np.abs(np.trace(V, axis1=1, axis2=2))
    res = np.linalg.norm((_modular_kernel(G.sigma_dec) - np.exp(-omega)[:, None, None]) * G.jump_frame, axis=(1, 2))
    _raise_first(
        (tr > TOL_TRACELESS * np.maximum(1.0, norms),
         lambda j: f"condition (i) violated at term {j}: |tr V| = {tr[j]:.3e}"),
        (res > TOL_MODULAR * norms,
         lambda j: f"condition (iii) violated at term {j}: modular eigenvector residual "
                   f"{res[j] / norms[j]:.3e} for omega={omega[j]}"),
    )
    # Gram matrix <V_j, V_k> of the stacked vec(V_j); first violation in (j, k) order
    gram = X.conj() @ X.T
    bad = np.abs(gram) > TOL_GRAM * np.outer(norms, norms)
    np.fill_diagonal(bad, np.abs(np.diag(gram) - weights) > TOL_GRAM * np.maximum(1.0, weights))
    if bad.any():
        j, k = np.unravel_index(np.argmax(bad), bad.shape)
        g = complex(gram[j, k])
        if j == k:
            raise ValidationError(f"condition (i) violated at term {j}: <V,V>={g!r} != weight {weights[j]}")
        raise ValidationError(f"condition (i) violated at pair ({j},{k}): overlap {abs(g):.3e}")
    # adjoint partner of V_j: the V_k nearest to V_j*, from one overlap product
    # (the V_k are orthogonal, so no other V_k comes within the tolerance)
    p = np.argmin(norms**2 - 2.0 * np.real(Xd.conj() @ X.T), axis=1)
    dist = np.linalg.norm(X[p] - Xd, axis=1)
    _raise_first(
        (dist > 1e-8 * norms, lambda j: f"condition (ii) violated: no adjoint partner for term {j}"),
        (np.abs(weights - weights[p]) > 1e-8 * np.maximum(1.0, weights),
         lambda j: f"condition (iv) violated at pair ({j},{p[j]}): weights "
                   f"{weights[j]} vs {weights[p[j]]}"),
        (np.abs(omega + omega[p]) > 1e-8,
         lambda j: f"condition (iv) violated at pair ({j},{p[j]}): omegas "
                   f"{omega[j]} vs {omega[p[j]]}"),
    )


def gns_selfadjoint_residual(G: Generator) -> float:
    """Asymmetry of the generator in the fully weighted inner product.

    Zero iff <L(A), B>_1 = <A, L(B)>_1 for all A, B; returned relative to
    the weighted generator's own size.  The weighting A -> A sigma scales
    the rows of `G.L_eig` by its kernel lam_l.
    """
    K = np.repeat(G.sigma_dec.values, G.n)[:, None] * G.L_eig
    return float(np.linalg.norm(K - K.conj().T) / max(np.linalg.norm(K), 1e-300))


def modular_commutator_residual(G: Generator) -> float:
    """Frobenius norm of [L, A -> sigma A sigma^-1] relative to L's; the
    modular kernel scales the rows and columns of `G.L_eig`."""
    mod = mc.vec(_modular_kernel(G.sigma_dec))
    return float(np.linalg.norm(G.L_eig * (mod - mod[:, None])) / max(np.linalg.norm(G.L_super), 1e-30))


class Generator:
    """A Lindblad generator in both pictures, with its stationary state.

    Built from the observable-side superoperator `L_super`; the state-space
    `Ldag_super` is its conjugate transpose, so the two are Hilbert-Schmidt
    adjoints by construction.  Immutable after construction; superoperator
    matrices use the package's column-stacking convention.  `terms` is
    present only for generators built from validated jump operators.
    sigma is required: it is validated (a full-rank n x n density matrix,
    with L n^2 x n^2) and decomposed here, once, into the read-only
    attributes `sigma` and `sigma_dec`, the decomposition every function of
    sigma reads.
    """

    def __init__(
        self,
        sigma: np.ndarray,
        L_super: np.ndarray,
        terms: JumpTerms | None = None,
        label: str = "",
    ):
        self.n = round(np.sqrt(np.shape(L_super)[0]))
        self.L_super = np.asarray(L_super, dtype=complex)
        self.Ldag_super = np.ascontiguousarray(self.L_super.conj().T)
        self.terms = terms
        self.label = label
        self.sigma_dec = mc.density_spectrum(sigma, strict=True, name="sigma")
        # the Hermitian part that density_spectrum validated and decomposed
        self.sigma = mc.hermitize(np.asarray(sigma, dtype=complex))
        if self.L_super.shape != (self.n**2, self.n**2) or self.sigma.shape != (self.n, self.n):
            raise ValidationError(f"L_super {self.L_super.shape}, sigma {self.sigma.shape}: want n^2 x n^2 and n x n")
        for arr in (self.L_super, self.Ldag_super, self.sigma, self.sigma_dec.values, self.sigma_dec.vectors):
            arr.setflags(write=False)

    def apply_L(self, A) -> np.ndarray:
        return mc.apply_superop(self.L_super, A)

    def apply_Ldag(self, A) -> np.ndarray:
        return mc.apply_superop(self.Ldag_super, A)

    def _require_terms(self) -> JumpTerms:
        if self.terms is None:
            raise ValidationError(f"generator {self.label!r} has no jump-term decomposition")
        return self.terms

    @property
    def omegas(self) -> np.ndarray:
        return self._require_terms().omega

    @cached_property
    def jump_stacks(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (m, n, n) stacks of the V_j and of their adjoints V_j*, in term order."""
        V = self._require_terms().V
        Vd = np.ascontiguousarray(V.conj().swapaxes(-1, -2))
        Vd.setflags(write=False)
        return V, Vd

    @cached_property
    def jump_frame(self) -> np.ndarray:
        """Read-only (m, n, n) stack of the U* V_j U, the jump operators in the
        matrix units of sigma's eigenbasis U (sigma's frame), in term order."""
        out = self.sigma_dec.to_frame(self._require_terms().V)
        out.setflags(write=False)
        return out

    @cached_property
    def primitivity(self) -> "PrimitivityReport":
        return check_primitive(self)

    @cached_property
    def gap(self) -> "SpectralGap":
        return spectral_gap(self)

    @cached_property
    def L_eig(self) -> np.ndarray:
        """Read-only `L_super` in the matrix units u_k u_l* of sigma's eigenbasis
        (index k + n l), W* L W with W = kron(conj(U), U), where a weighting
        A -> sigma^a A sigma^b is the diagonal of its kernel lam_k^a lam_l^b."""
        U = self.sigma_dec.vectors
        W = np.kron(U.conj(), U)
        out = W.conj().T @ self.L_super @ W
        out.setflags(write=False)
        return out

    @cached_property
    def L_svd(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only descending singular values and right singular vectors (rows of vh) of
        `L_super`: `check_primitive` reads the kernel, `trace_norm` the sum, `flow.suggested_dt` the largest."""
        _, s, vh = np.linalg.svd(self.L_super)
        for arr in (s, vh):
            arr.setflags(write=False)
        return s, vh

    @cached_property
    def trace_norm(self) -> float:
        """Schatten-1 norm of L, the scale of the order-alpha residuals."""
        return float(self.L_svd[0].sum())

    @cached_property
    def spectrum(self) -> mc.SpectralDecomposition:
        """Eigensystem of -L conjugated by A -> q A q, q = sigma^(1/4), the
        kernel k = (lam_k lam_l)^(1/4) on `L_eig`; it takes the half-weighted
        inner product to the Hilbert-Schmidt one, so an eigenvector u pulls
        back to the eigenvector U (unvec(u) / k) U* of -L.  A relative
        asymmetry above TOL_SELFADJOINT raises."""
        lam = self.sigma_dec.values
        q = mc.vec(np.outer(lam, lam) ** 0.25)
        S = q[:, None] * -self.L_eig / q
        asym = np.linalg.norm(S - S.conj().T) / max(np.linalg.norm(S), 1e-300)
        if asym > TOL_SELFADJOINT:
            raise ValidationError(
                f"{self.label!r} not self-adjoint in the half-weighted inner product: {asym:.3e}")
        dec = mc.SpectralDecomposition(*np.linalg.eigh(mc.hermitize(S)))
        for arr in (dec.values, dec.vectors):
            arr.setflags(write=False)
        return dec


def _lindblad_superop(terms: JumpTerms) -> np.ndarray:
    """Observable-side superoperator of the jump-term generator.

    L(A) = sum_j e^(-omega_j/2) (V_j*[A, V_j] + [V_j*, A] V_j) = 2 sum_j e^(-omega_j/2) V_j* A V_j - K A - A K
    with K = sum_j e^(-omega_j/2) V_j*V_j, under A -> X A Y = kron(Y.T, X):
    the sandwich terms in one stacked contraction, then K A = kron(I, K) and
    A K = kron(K.T, I) subtracted on their blocks.
    """
    V = terms.V
    Vd = V.conj().swapaxes(-1, -2)
    w = np.exp(-terms.omega / 2.0)
    m, n = V.shape[:2]
    K = np.tensordot(w, Vd @ V, axes=1)
    # entry (p, q, r, s) is sum_j w_j V_j[q, p] V_j*[r, s], the (p n + r, q n + s) entry of the sum of kron
    S = ((w[:, None] * V.swapaxes(-1, -2).reshape(m, -1)).T @ Vd.reshape(m, -1)).reshape(n, n, n, n)
    L = 2.0 * S.transpose(0, 2, 1, 3)  # [p, r, q, s], row p n + r, column q n + s
    k = np.arange(n)
    L[k, :, k, :] -= K  # [p, r, p, s] -= K[r, s]
    L[:, k, :, k] -= K.T  # [p, r, q, r] -= K[q, p], indexed [r, p, q]
    return L.reshape(n * n, n * n)


def build_gns(sigma, terms: JumpTerms, label: str = "gns") -> Generator:
    """Validated detailed-balance generator from jump terms.

    Checks the structure conditions (traceless orthogonal jumps, adjoint
    pairing, modular eigenvectors, paired weights/frequencies), then the
    derived identities: unitality (equivalently, trace preservation of the
    adjoint), stationarity of sigma, self-adjointness in the fully weighted
    inner product, and commutation with the modular conjugation.
    """
    n = mc.as_matrix(sigma, "sigma").shape[0]
    if terms.V.shape[1:] != (n, n):
        raise ValidationError(f"term 0: V has shape {terms.V.shape[1:]}, sigma has shape ({n}, {n})")
    G = Generator(sigma, _lindblad_superop(terms), terms=terms, label=label)
    _validate_terms(G)
    scale = max(np.linalg.norm(G.L_super), 1e-30)

    unital = np.linalg.norm(G.L_super @ mc.vec(np.eye(n)))
    if unital > TOL_STATIONARY * scale * n:
        raise ValidationError(f"generator not unital: ||L(I)|| = {unital:.3e}")
    stat = np.linalg.norm(G.Ldag_super @ mc.vec(G.sigma))
    if stat > TOL_STATIONARY * scale:
        raise ValidationError(f"sigma not stationary: ||Ldag(sigma)|| = {stat:.3e}")
    sa = gns_selfadjoint_residual(G)
    if sa > TOL_SELFADJOINT:
        raise ValidationError(f"not self-adjoint in the weighted inner product: {sa:.3e}")
    comm = modular_commutator_residual(G)
    if comm > TOL_COMMUTE:
        raise ValidationError(f"[L, modular] residual {comm:.3e} exceeds {TOL_COMMUTE:.1e}")
    return G


def eigen_jump_terms(sigma_dec: mc.SpectralDecomposition, weights=None) -> JumpTerms:
    """Canonical jump-term basis attached to a stationary state, from the
    `mc.density_spectrum` that validated it, made canonical here
    (`SpectralDecomposition.canonical`) so serialized operators keep their bits.

    Off-diagonal eigenprojector pairs |psi_k><psi_l| (k != l, in row-major
    order) carry the Bohr frequency log(lam_l / lam_k); eigenvalues equal
    within relative 1e-10 are grouped and get frequency zero, as do the n-1
    diagonal ladders `mc.traceless_diagonals(n)` in the eigenbasis.
    `weights` optionally rescales each term.
    """
    canon = sigma_dec.canonical()
    lam, U = canon.values, canon.vectors
    n = lam.size
    group = np.cumsum(np.diff(lam, prepend=lam[0]) > 1e-10 * np.maximum(lam, np.roll(lam, 1)))
    k, l = np.nonzero(~np.eye(n, dtype=bool))
    V = U.T[k][:, :, None] * U.T[l].conj()[:, None, :]
    omega = np.where(group[k] == group[l], 0.0, np.log(lam[l] / lam[k]))
    ladders = (U * mc.traceless_diagonals(n)[:, None, :]) @ U.conj().T
    V, omega = np.concatenate((V, ladders)), np.concatenate((omega, np.zeros(n - 1)))
    if weights is not None:
        if len(weights) != len(V):
            raise ValidationError(f"got {len(weights)} weights for {len(V)} terms")
        V = V * np.sqrt(np.asarray(weights, dtype=float))[:, None, None]
    return JumpTerms.of(V, omega)


@dataclass(frozen=True)
class PrimitivityReport:
    primitive: bool
    kernel_dim: int
    kernel: list[np.ndarray] = field(repr=False)


def check_primitive(G: Generator) -> PrimitivityReport:
    """Nullspace analysis of the observable-side generator.

    Primitive iff the kernel is one-dimensional and spanned by the
    identity; singular values below 1e-9 of the largest count as zero.
    A unit kernel element K spans the identity iff |<I / sqrt(n), K>| =
    |tr K| / sqrt(n) is 1.
    """
    s, vh = G.L_svd
    null = s <= ZERO_MODE_RTOL * max(s[0], 1e-300)
    kernel = [mc.unvec(v.conj(), G.n) for v in vh[null]]
    primitive = len(kernel) == 1 and abs(np.trace(kernel[0])) / np.sqrt(G.n) >= 1.0 - 1e-8
    return PrimitivityReport(primitive=bool(primitive), kernel_dim=len(kernel), kernel=kernel)


@dataclass(frozen=True)
class SpectralGap:
    value: float
    spectrum: np.ndarray


def spectral_gap(G: Generator) -> SpectralGap:
    """Spectrum of -L as a self-adjoint operator in the half-weighted inner
    product, and its smallest nonzero eigenvalue.

    Read from `G.spectrum`.  Eigenvalues below -1e-6 (relative) signal a
    detailed-balance violation.
    """
    w = G.spectrum.values
    if not G.primitivity.primitive:
        raise ValidationError(f"generator {G.label!r} is not primitive")
    scale = max(w[-1], 1e-300)
    if w[0] < -1e-6 * scale:
        raise ValidationError(
            f"symmetrized generator has negative eigenvalue {w[0]:.3e}; detailed balance violated")
    positive = w[w > ZERO_MODE_RTOL * scale]
    n_zero = w.size - positive.size
    if n_zero != 1:
        raise ValidationError(f"expected a single zero mode, found {n_zero}")
    if not positive.size:
        raise ValidationError(f"generator {G.label!r} has no nonzero mode, so no spectral gap (n = {G.n})")
    return SpectralGap(value=float(positive[0]), spectrum=w)


# --- stock generators ---------------------------------------------------------


def depolarizing_generator(gamma: float, sigma) -> Generator:
    """Uniform relaxation toward sigma at rate gamma (detailed balanced)."""
    if not 0.0 < gamma < np.inf:
        raise ValidationError(f"depolarizing rate must be positive and finite, got {gamma}")
    sigma = mc.require_hermitian(sigma, name="sigma")
    n = sigma.shape[0]
    # L(A) = gamma (tr(sigma A) I - A), with tr(sigma A) = <vec sigma, vec A>
    L_super = gamma * (np.outer(mc.vec(np.eye(n)), mc.vec(sigma).conj()) - np.eye(n * n))
    return Generator(sigma, L_super, label="depolarizing")


def qubit_xz_generator() -> Generator:
    """Two-level generator with X and Z jumps at the maximally mixed state."""
    sx_sz = [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]]
    return build_gns(np.eye(2) / 2.0, JumpTerms.of(sx_sz, [0.0, 0.0]), label="qubit-xz")


def random_gns_generator(
    rng: np.random.Generator,
    n: int,
    min_sigma_eig: float = 0.05,
    label: str = "random-gns",
) -> Generator:
    """Random primitive detailed-balance generator on the full jump basis.

    The stationary state has eigenvalues bounded away from zero for
    conditioning; adjoint-paired terms share one random weight so the
    pairing conditions hold exactly.
    """
    lam = rng.uniform(min_sigma_eig, 1.0, size=n)
    lam /= lam.sum()
    Q = np.linalg.qr(mc.random_complex(rng, n))[0]
    sigma = mc.hermitize(Q @ np.diag(lam) @ Q.conj().T)
    lo, hi = GNS_WEIGHT_RANGE
    # one weight per unordered pair, drawn in (k < l) order, then the ladders
    pair_w = np.zeros((n, n))
    pair_w[np.triu_indices(n, 1)] = rng.uniform(lo, hi, size=n * (n - 1) // 2)
    off = ~np.eye(n, dtype=bool)
    weights = np.concatenate(((pair_w + pair_w.T)[off], rng.uniform(lo, hi, size=n - 1)))
    terms = eigen_jump_terms(mc.density_spectrum(sigma, strict=True, name="sigma"), weights=weights)
    return build_gns(sigma, terms, label=label)
