import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import renyiflow.matcore as mc
from renyiflow.errors import SingularityError, StructuralError

from .oracles import apply_superop, matrix_log, matrix_power, random_positive, trace_norm, weighted_inner

# eigenvalues of [[2,3],[3,5]]/7 from the characteristic polynomial:
# tr = 1, det = 1/49  ->  (7 -+ 3 sqrt5)/14
PAPER_EIGS = ((7.0 - 3.0 * np.sqrt(5.0)) / 14.0, (7.0 + 3.0 * np.sqrt(5.0)) / 14.0)


class TestEigHermitian:
    def test_identity(self):
        dec = mc.eig_hermitian(np.eye(2))
        assert np.allclose(dec.values, [1.0, 1.0])

    def test_cm_sigma(self, cm_sigma):
        dec = mc.eig_hermitian(cm_sigma)
        assert dec.values == pytest.approx(PAPER_EIGS, abs=1e-14)

    def test_diagonal(self):
        dec = mc.eig_hermitian(np.diag([0.3, 0.7]))
        assert dec.values == pytest.approx([0.3, 0.7], abs=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(StructuralError):
            mc.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_ensemble(self, rng):
        for _ in range(1000):
            n = rng.integers(2, 9)
            A = mc.random_hermitian(rng, n)
            dec = mc.eig_hermitian(A)
            assert np.linalg.norm(dec.reconstruct() - A) <= 1e-10 * np.linalg.norm(A)
            U = dec.vectors
            assert np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-12

    def test_phase_fixing_deterministic(self, rng):
        A = mc.random_hermitian(rng, 4)
        d1 = mc.eig_hermitian(A)
        d2 = mc.eig_hermitian(A.copy())
        assert np.array_equal(d1.vectors, d2.vectors)
        for k in range(4):
            col = d1.vectors[:, k]
            idx = np.argmax(np.abs(col) > 1e-12)
            assert col[idx].real > 0 and abs(col[idx].imag) <= 1e-12 * abs(col[idx])


def spectrum(A):
    return mc.SpectralDecomposition(*np.linalg.eigh(A))


def weighting(dec, a, b, A):
    """A -> S^a A S^b through the kernel in the frame of S's decomposition."""
    return dec.from_frame(dec.kernel(a, b) * dec.to_frame(A))


class TestMatrixFunction:
    def test_sqrt(self):
        dec = spectrum(np.diag([4.0, 9.0]))
        assert np.array_equal(dec.kernel(0.5, 0.5), [[4.0, 6.0], [6.0, 9.0]])
        assert np.allclose(weighting(dec, 0.5, 0.0, np.eye(2)), np.diag([2.0, 3.0]))

    def test_power_zero(self, rng):
        dec = spectrum(random_positive(rng, 3))
        assert np.array_equal(dec.kernel(0.0, 0.0), np.ones((3, 3)))
        A = mc.random_complex(rng, 3)
        assert np.allclose(weighting(dec, 0.0, 0.0, A), A)

    def test_log_of_cm_sigma(self, cm_sigma):
        dec = mc.density_spectrum(cm_sigma, strict=True)
        out = mc.hermitize(dec.reconstruct(np.log(dec.values)))
        w = np.linalg.eigvalsh(out)
        assert w == pytest.approx([np.log(PAPER_EIGS[0]), np.log(PAPER_EIGS[1])], abs=1e-12)

    def test_log_singular_raises(self):
        # the oracle's domain floor, which the X-form `oracles.dirichlet_form` keeps at order 1
        with pytest.raises(SingularityError, match="eigenvalue"):
            matrix_log(np.diag([0.0, 1.0]))

    def test_lenient_clamp(self):
        out = matrix_log(np.diag([0.0, 1.0]), lenient=True)
        assert np.isfinite(out).all()

    def test_semigroup_property(self, rng):
        for _ in range(50):
            dec = spectrum(random_positive(rng, 4, floor=0.05))
            a, b, c, d = rng.uniform(-2, 2, size=4)
            lhs = dec.kernel(a, b) * dec.kernel(c, d)
            rhs = dec.kernel(a + c, b + d)
            assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-13


class TestSpectralCalculus:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_power_and_log_match_matrix_functions_bitwise(self, rng, n):
        # on the decomposition that validated sigma, the kernel's factors are
        # the values the oracles' matrix_power raises, bit for bit, and its
        # weighting is matrix_power to rounding; the log is matrix_log's arithmetic
        for _ in range(10):
            sigma = mc.random_density(rng, n, floor=0.05)
            dec = mc.density_spectrum(sigma, strict=True)
            w = np.linalg.eigh(mc.require_hermitian(sigma))[0]
            for p in (0.25, -0.25, 0.5, -0.5, 1.0 / 3.0):
                assert np.array_equal(dec.kernel(p, 0.0)[:, 0], np.power(w, p))
                ref = matrix_power(sigma, p) @ matrix_power(sigma, -p / 2.0)
                assert np.linalg.norm(weighting(dec, p, -p / 2.0, np.eye(n)) - ref) <= 1e-13 * np.linalg.norm(ref)
            assert np.array_equal(mc.hermitize(dec.reconstruct(np.log(dec.values).astype(complex))), matrix_log(sigma))


class TestPowerMemo:
    """`kernel` forms each kernel afresh from the decomposition, which holds
    only the eigensystem."""

    @pytest.fixture()
    def reconstructs(self, monkeypatch):
        """Count `SpectralDecomposition.reconstruct` calls: `reconstructs(fn)`
        calls fn and returns the count."""
        calls = []
        real = mc.SpectralDecomposition.reconstruct

        def counting(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(mc.SpectralDecomposition, "reconstruct", counting)

        def count(fn) -> int:
            calls.clear()
            fn()
            return len(calls)

        return count

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_bit_identical_to_the_formed_power(self, rng, n):
        dec = mc.density_spectrum(mc.random_density(rng, n, floor=0.05), strict=True)
        for p in (0.5, -0.5, 0.25, -0.25, 1.0 / 3.0, 0.0, 2.0, -0.375):
            for q in (p, -p, 1.0):
                assert np.array_equal(dec.kernel(p, q), np.outer(np.power(dec.values, p), np.power(dec.values, q)))

    def test_kernel_is_formed_without_a_matrix(self, rng, reconstructs):
        dec = mc.density_spectrum(mc.random_density(rng, 3, floor=0.1), strict=True)
        assert reconstructs(lambda: (dec.kernel(0.5, -0.25), dec.kernel(0.5, -0.25))) == 0
        k = dec.kernel(0.5, -0.25)
        k[0, 0] = 0.0  # a fresh array each call, writable
        assert dec.kernel(0.5, -0.25)[0, 0] != 0.0

    def test_equality_and_repr_ignore_the_memo(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        used, fresh = (mc.density_spectrum(sigma, strict=True) for _ in range(2))
        before = repr(used)
        used.kernel(0.5, 0.5)
        assert repr(used) == before == repr(fresh)
        assert [f.name for f in dataclasses.fields(used) if f.compare] == ["values", "vectors"]


class TestWeightedInner:
    """The reference inner product `oracles.weighted_inner`, which the
    generator tests pair against; the package reads the kernel instead."""

    def test_identity_pair(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        for s in (0.0, 0.3, 0.5, 1.0):
            assert weighted_inner(np.eye(3), np.eye(3), sigma, s) == pytest.approx(1.0, abs=1e-12)

    def test_positive_definite_at_half(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        A = mc.random_complex(rng, 3)
        val = weighted_inner(A, A, sigma, 0.5)
        assert val.real > 0 and abs(val.imag) <= 1e-12
        assert weighted_inner(np.zeros((3, 3)), np.zeros((3, 3)), sigma, 0.5) == 0

    def test_endpoints_against_direct_trace(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        A, B = mc.random_complex(rng, 3), mc.random_complex(rng, 3)
        s0 = np.trace(A.conj().T @ sigma @ B)
        s1 = np.trace(sigma @ A.conj().T @ B)
        assert weighted_inner(A, B, sigma, 0.0) == pytest.approx(s0, abs=1e-12)
        assert weighted_inner(A, B, sigma, 1.0) == pytest.approx(s1, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_conjugate_symmetry(self, seed, s):
        r = np.random.default_rng(seed)
        sigma = mc.random_density(r, 3, floor=0.05)
        A, B = mc.random_complex(r, 3), mc.random_complex(r, 3)
        lhs = weighted_inner(A, B, sigma, s)
        rhs = np.conj(weighted_inner(B, A, sigma, s))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0, abs=1e-14)

    def test_unitary(self, rng):
        U = np.linalg.qr(mc.random_complex(rng, 2))[0]
        assert trace_norm(U) == pytest.approx(2.0, abs=1e-12)

    def test_dominates_trace(self, rng):
        for _ in range(100):
            A = mc.random_complex(rng, 4)
            assert trace_norm(A) >= abs(np.trace(A)) - 1e-12


class TestSuperoperators:
    def test_identity_map(self):
        S = mc.superoperator_of_map(lambda A: A, 2)
        assert np.allclose(S, np.eye(4))

    def test_maximally_mixed_weighting(self):
        sig = np.eye(2) / 2.0
        half = matrix_power(sig, 0.5)
        S = mc.superoperator_of_map(lambda A: half @ A @ half, 2)
        assert np.allclose(S, np.eye(4) / 2.0)

    def test_left_multiplication_is_kron(self, rng):
        X = mc.random_complex(rng, 3)
        S = mc.superoperator_of_map(lambda A: X @ A, 3)
        assert np.allclose(S, np.kron(np.eye(3), X))

    def test_round_trip(self, rng):
        X, Y = mc.random_complex(rng, 3), mc.random_complex(rng, 3)
        S = mc.superoperator_of_map(lambda A: X @ A @ Y + A, 3)
        for _ in range(20):
            A = mc.random_complex(rng, 3)
            assert np.linalg.norm(apply_superop(S, A) - (X @ A @ Y + A)) <= 1e-12

    def test_unvec_of_columns_is_the_stack(self, rng):
        mats = [mc.random_complex(rng, 3) for _ in range(4)]
        V = np.stack([mc.vec(A) for A in mats], axis=1)
        assert np.array_equal(mc.unvec(V, 3), np.array(mats))
        assert np.array_equal(mc.unvec(V[:, 2]), mats[2])

    def test_trace_norm_zero_and_identity(self):
        assert trace_norm(np.zeros((4, 4))) == 0.0
        assert trace_norm(np.eye(4)) == pytest.approx(4.0, abs=1e-13)

    def test_trace_norm_of_sqrt_weighting(self, cm_sigma):
        half = matrix_power(cm_sigma, 0.5)
        S = mc.superoperator_of_map(lambda A: half @ A @ half, 2)
        lam = np.linalg.eigvalsh(cm_sigma)
        assert trace_norm(S) == pytest.approx(np.sum(np.sqrt(lam)) ** 2, abs=1e-12)


class TestValidation:
    def test_density_trace(self):
        with pytest.raises(StructuralError, match="trace"):
            mc.require_density(np.diag([0.6, 0.6]))

    def test_density_negativity(self):
        with pytest.raises(StructuralError, match="negative"):
            mc.require_density(np.diag([1.2, -0.2]))

    def test_strict_rank(self):
        with pytest.raises(SingularityError):
            mc.require_density(np.diag([1.0, 0.0]), strict=True)

    def test_a_stack_only_where_asked(self):
        with pytest.raises(StructuralError, match="square matrix,"):
            mc.require_hermitian(np.stack([np.eye(2)] * 3))
        with pytest.raises(StructuralError, match="square matrix stack"):
            mc.require_hermitian(np.eye(2), stack=True)

    def test_hermitian_stack(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 1e-13j], [0.0, 1.0]])])
        out = mc.require_hermitian(stack, stack=True)
        assert np.array_equal(out[1], mc.require_hermitian(stack[1]))
        stack[1, 0, 1] = 1e-6
        with pytest.raises(StructuralError, match="not Hermitian"):
            mc.require_hermitian(stack, stack=True)
        stack[1, 0, 1] = np.nan
        with pytest.raises(StructuralError, match="non-finite"):
            mc.require_hermitian(stack, stack=True)

    def test_density_stack_names_the_first_failing_state(self):
        stack = np.stack([np.diag([0.5, 0.5]), np.diag([0.6, 0.6]), np.diag([1.2, -0.2])])
        wmin = np.linalg.eigvalsh(stack)[:, 0]
        with pytest.raises(StructuralError, match=r"s\[1\]: trace"):
            mc.check_density(stack, wmin, name="s")
        with pytest.raises(StructuralError, match=r"s\[1\]: negative"):
            mc.check_density(stack[[0, 2]], wmin[[0, 2]], name="s")
        with pytest.raises(SingularityError, match=r"s\[1\]"):
            mc.check_density(np.stack([np.diag([0.5, 0.5]), np.diag([1.0, 0.0])]), [0.5, 0.0], strict=True, name="s")
        mc.check_density(stack[:1], wmin[:1], strict=True)


class TestCsvBlocks:
    def test_round_trip(self, rng):
        A = mc.random_complex(rng, 3)
        name, B = mc.matrix_from_csv_block(mc.matrix_to_csv_block("probe", A))
        assert name == "probe"
        assert np.array_equal(A, B)

    def test_rows_round_trip(self, rng):
        A = mc.random_complex(rng, 4)
        assert np.array_equal(mc.rows_to_matrix(mc.matrix_to_rows(A)), A)

    def test_bad_header(self):
        with pytest.raises(StructuralError):
            mc.matrix_from_csv_block("nope,x,2\n1,0,0,0\n0,0,1,0")
