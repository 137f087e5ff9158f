"""Dense complex Hermitian linear algebra substrate.

Spectral calculus of one decomposition per matrix and superoperator
algebra for Hilbert-space dimensions n <= 16.

Conventions fixed once for the whole package:

* Vectorization is column-stacking (Fortran order).  Under it the map
  ``A -> X A Y`` has the matrix ``kron(Y.T, X)``, and the matrix-unit
  basis element ``E_kl`` occupies vec index ``k + n*l``.  A weighting
  ``A -> sigma^a A sigma^b`` is never formed as such a matrix, nor are
  sigma's powers: in the matrix units of sigma's eigenbasis (its frame) it
  is the entrywise kernel ``SpectralDecomposition.kernel(a, b)``.
* Eigenvalues ascend.  Eigenvector phases and tie order are fixed in one
  place, ``SpectralDecomposition.canonical`` (behind ``eig_hermitian``), for
  eigenvectors that are serialized; ``density_spectrum`` and every other
  decomposition are a plain ``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularityError, StructuralError

TOL_HERM = 1e-12
TOL_TRACE = 1e-10
TOL_PSD = 1e-10
POS_FLOOR = 1e-12


def hermitize(A: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A*)/2; of each matrix, for a stack (..., n, n)."""
    return 0.5 * (A + A.conj().swapaxes(-1, -2))


def vec(A: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(A).reshape(-1, order="F")


def unvec(v: np.ndarray, n: int | None = None) -> np.ndarray:
    """Inverse of `vec`; of each column, for an (n^2, T) array, as a (T, n, n) stack."""
    v = np.asarray(v)
    if n is None:
        n = round(v.shape[0] ** 0.5)
    if v.ndim == 2:
        return v.T.reshape(-1, n, n).swapaxes(-1, -2)
    return v.reshape((n, n), order="F")


def as_matrix(A, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """A as a finite complex square matrix; `stack` takes a (T, n, n) stack of them."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 + stack or A.shape[-1] != A.shape[-2] or A.shape[-1] < 1:
        raise StructuralError(f"{name}: expected a square matrix{' stack' * stack}, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise StructuralError(f"{name}: non-finite entries")
    return A


def require_hermitian(A, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """A checked Hermitian within TOL_HERM, and returned as its Hermitian
    part; `stack` checks a (T, n, n) stack in one pass."""
    A = as_matrix(A, name, stack)
    dev = np.max(np.abs(A - A.conj().swapaxes(-1, -2)), initial=0.0)
    if dev > TOL_HERM:
        raise StructuralError(f"{name}: not Hermitian (max deviation {dev:.3e} > {TOL_HERM:.1e})")
    return hermitize(A)


def check_density(A, wmin: float, strict: bool = False, name: str = "state") -> None:
    """Check a Hermitian matrix whose smallest eigenvalue is wmin as a
    density matrix, as `require_density` does.  A (T, n, n) stack with its
    T smallest eigenvalues is checked in one pass, and the first state that
    fails is reported as `name[k]`."""
    tr = np.trace(A, axis1=-2, axis2=-1).real
    if np.ndim(tr):
        wmin = np.asarray(wmin, dtype=float)
        bad = (np.abs(tr - 1.0) > TOL_TRACE) | (wmin < (POS_FLOOR if strict else -TOL_PSD))
        if bad.any():
            k = int(np.argmax(bad))
            check_density(A[k], float(wmin[k]), strict, f"{name}[{k}]")
        return
    if abs(tr - 1.0) > TOL_TRACE:
        raise StructuralError(f"{name}: trace {tr!r} deviates from 1 beyond {TOL_TRACE:.1e}")
    if wmin < -TOL_PSD:
        raise StructuralError(f"{name}: negative eigenvalue {wmin:.3e} below -{TOL_PSD:.1e}")
    if strict and wmin < POS_FLOOR:
        raise SingularityError(
            f"{name}: smallest eigenvalue {wmin:.3e} below positivity floor {POS_FLOOR:.1e}"
        )


def require_density(A, strict: bool = False, name: str = "state") -> np.ndarray:
    """Validate a density matrix; `strict` additionally demands full rank."""
    A = require_hermitian(A, name=name)
    check_density(A, float(np.linalg.eigvalsh(A)[0]), strict, name)
    return A


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, or of a stack of them (leading
    axes on both fields): ascending values, unitary columns."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self, fvals: np.ndarray | None = None) -> np.ndarray:
        """U diag(f) U*, of each matrix for a stack."""
        w = self.values if fvals is None else np.asarray(fvals)
        return (self.vectors * w[..., None, :]) @ self.vectors.conj().swapaxes(-1, -2)

    def to_frame(self, A) -> np.ndarray:
        """U* A U, A in the matrix units of this eigenbasis U (its frame);
        of each matrix, for a stack (..., n, n).  One decomposition, not a stack."""
        return self.vectors.conj().T @ A @ self.vectors

    def from_frame(self, X) -> np.ndarray:
        """U X U*, the inverse of `to_frame`."""
        return self.vectors @ X @ self.vectors.conj().T

    def kernel(self, a: float, b: float) -> np.ndarray:
        """lam_k^a lam_l^b, the entrywise kernel in this frame of A -> S^a A S^b
        for the decomposed S (strictly positive where an exponent is negative)."""
        return np.power(self.values, a)[:, None] * np.power(self.values, b)

    def canonical(self) -> "SpectralDecomposition":
        """The same eigensystem with each eigenvector's first significant
        component real positive, and exact ties ordered by lexicographic
        comparison of the phase-fixed eigenvector entries."""
        w, U = self.values, self.vectors
        mags = np.abs(U)
        first = np.argmax(mags > 1e-12 * np.maximum(mags.max(axis=0), 1e-300), axis=0)
        pivot = U[first, np.arange(w.size)]
        # np.hypot rounds as scalar abs does (vectorized np.abs may not): written operators keep their bits
        U = U * (pivot.conj() / np.hypot(pivot.real, pivot.imag))
        scale = max(1.0, float(np.max(np.abs(w))))
        order = np.arange(w.size)
        k = 0
        while k < w.size:
            j = k + 1
            while j < w.size and w[j] - w[k] <= 1e-12 * scale:
                j += 1
            if j - k > 1:
                keys = np.array([np.round(np.column_stack([U[:, c].real, U[:, c].imag]).ravel(), 10)
                                 for c in order[k:j]])
                order[k:j] = order[k:j][np.lexsort(keys.T[::-1])]
            k = j
        return SpectralDecomposition(values=w[order].copy(), vectors=U[:, order].copy())


def eig_hermitian(A) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix (within TOL_HERM) with
    deterministic phases and tie order (`SpectralDecomposition.canonical`)."""
    return SpectralDecomposition(*np.linalg.eigh(require_hermitian(A))).canonical()


def density_spectrum(A, strict: bool = False, name: str = "state") -> SpectralDecomposition:
    """Validate a density matrix as `require_density` does, from the plain
    `eigh` decomposition it returns."""
    A = require_hermitian(A, name=name)
    dec = SpectralDecomposition(*np.linalg.eigh(A))
    check_density(A, float(dec.values[0]), strict, name)
    return dec


def superoperator_of_map(phi: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
    """n^2 x n^2 matrix of a linear map on n x n matrices (column stacking)."""
    S = np.zeros((n * n, n * n), dtype=complex)
    E = np.zeros((n, n), dtype=complex)
    for l in range(n):
        for k in range(n):
            E[k, l] = 1.0
            S[:, k + n * l] = vec(phi(E))
            E[k, l] = 0.0
    return S


# --- random samplers (test and CLI plumbing) --------------------------------


def random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    return hermitize(random_complex(rng, n))


def traceless_diagonals(n: int) -> np.ndarray:
    """The orthonormal traceless diagonals (1, ..., 1, -k, 0, ...) / sqrt(k (k+1)),
    k = 1 .. n-1, as rows; divided as complex numbers, as serialized operators were."""
    D = (np.tril(np.ones((n - 1, n))) - np.diag(np.arange(1.0, n), 1)[:-1]).astype(complex)
    return D / np.sqrt(np.arange(1.0, n) * np.arange(2.0, n + 1))[:, None]


def random_traceless_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    H = random_hermitian(rng, n)
    return H - (np.trace(H).real / n) * np.eye(n)


def random_density(rng: np.random.Generator, n: int, floor: float = 0.0) -> np.ndarray:
    """Ginibre-induced density matrix, optionally mixed with I/n for conditioning."""
    G = random_complex(rng, n)
    rho = G @ G.conj().T
    rho /= np.trace(rho).real
    if floor > 0.0:
        rho = (1.0 - floor) * rho + floor * np.eye(n) / n
    return hermitize(rho)


# --- CSV matrix blocks -------------------------------------------------------


def matrix_to_csv_block(name: str, A: np.ndarray) -> str:
    """Serialize: header `matrix,<name>,<n>`, then n rows of interleaved re,im
    at 17 significant digits."""
    rows = matrix_to_rows(as_matrix(A, name))
    lines = [f"matrix,{name},{len(rows)}"] + [",".join(f"{x:.17g}" for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def matrix_from_csv_block(text: str) -> tuple[str, np.ndarray]:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise StructuralError("empty matrix block")
    head = lines[0].split(",")
    if len(head) != 3 or head[0] != "matrix":
        raise StructuralError(f"bad matrix block header: {lines[0]!r}")
    name = head[1]
    try:
        n = int(head[2])
    except ValueError:
        raise StructuralError(f"bad matrix block header: {lines[0]!r}") from None
    if len(lines) != n + 1:
        raise StructuralError(f"matrix block {name!r}: expected {n} rows, got {len(lines) - 1}")
    A = np.zeros((n, n), dtype=complex)
    for i, ln in enumerate(lines[1:]):
        try:
            vals = [float(x) for x in ln.split(",")]
        except ValueError:
            raise StructuralError(f"matrix block {name!r}: row {i} has a non-numeric cell") from None
        if len(vals) != 2 * n:
            raise StructuralError(f"matrix block {name!r}: row {i} has {len(vals)} cells, want {2 * n}")
        A[i] = np.asarray(vals[0::2]) + 1j * np.asarray(vals[1::2])
    return name, A


def rows_to_matrix(rows, name: str = "inline matrix") -> np.ndarray:
    """Inline JSON rows of 2n interleaved reals -> complex matrix."""
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise StructuralError(f"{name}: rows must be equal-length lists of reals") from None
    if arr.ndim != 2 or arr.shape[1] != 2 * arr.shape[0]:
        raise StructuralError(f"{name}: rows have shape {arr.shape}; want (n, 2n)")
    return arr[:, 0::2] + 1j * arr[:, 1::2]


def matrix_to_rows(A: np.ndarray) -> list[list[float]]:
    """Complex matrix -> rows of 2n interleaved reals (re, im, re, im, ...)."""
    A = np.asarray(A, dtype=complex)
    return np.stack([A.real, A.imag], axis=-1).reshape(A.shape[0], -1).tolist()
