import numpy as np
import pytest

import renyiflow.divergence as dv
import renyiflow.matcore as mc
import renyiflow.noncomm_ops as nco
from renyiflow.errors import DomainError, SingularityError
from renyiflow.generator import random_gns_generator

from .oracles import (
    chain_rule_residual,
    dirichlet_form,
    ent_fun,
    flux_by_mpmath,
    functional_derivative_by_matrix_powers,
    matrix_power,
    mop_inverse_quadrature,
    modular_apply,
    mop_quadrature,
    nc_divergence,
    nc_gradient,
    norm_functional_by_state,
    power_op,
    random_positive,
    sandwiched_renyi_by_matrix_powers,
    weight_kernel_by_mpmath,
)


class TestSandwichAndModular:
    def test_zero_power_is_identity(self, rng):
        dec = mc.density_spectrum(mc.random_density(rng, 3, floor=0.1), strict=True)
        A = mc.random_complex(rng, 3)
        assert np.array_equal(nco.sandwich_pow(dec, 0.0, A), A)

    def test_weighting_of_identity_gives_sigma(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        dec = mc.density_spectrum(sigma, strict=True)
        assert np.allclose(nco.sandwich_pow(dec, 1.0, np.eye(3)), sigma, atol=1e-13)

    def test_power_composition(self, rng):
        dec = mc.density_spectrum(mc.random_density(rng, 3, floor=0.1), strict=True)
        A = mc.random_complex(rng, 3)
        g1, g2 = 0.7, -1.3
        lhs = nco.sandwich_pow(dec, g1, nco.sandwich_pow(dec, g2, A))
        rhs = nco.sandwich_pow(dec, g1 + g2, A)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_modular_fixes_identity(self, rng):
        dec = mc.density_spectrum(mc.random_density(rng, 3, floor=0.1), strict=True)
        assert np.allclose(modular_apply(dec, np.eye(3)), np.eye(3), atol=1e-12)

    def test_modular_eigenprojectors(self, rng):
        dec = mc.density_spectrum(mc.random_density(rng, 3, floor=0.1), strict=True)
        for k in range(3):
            for l in range(3):
                V = np.outer(dec.vectors[:, k], dec.vectors[:, l].conj())
                out = modular_apply(dec, V)
                assert np.allclose(out, (dec.values[k] / dec.values[l]) * V, atol=1e-11)

    def test_modular_trivial_for_maximally_mixed(self, rng):
        A = mc.random_complex(rng, 4)
        dec = mc.density_spectrum(np.eye(4) / 4.0, strict=True)
        assert np.allclose(modular_apply(dec, A), A, atol=1e-12)

    def test_modular_rejects_singular(self):
        # a singular sigma has no validated decomposition to conjugate with
        with pytest.raises(SingularityError):
            modular_apply(mc.density_spectrum(np.diag([1.0, 0.0]), strict=True), np.eye(2))


class TestLogMeanMultiplier:
    def test_identity_base(self, rng):
        A = mc.random_complex(rng, 3)
        op = nco.log_mean_multiplier(np.eye(3), 0.0)
        assert np.allclose(op.kernel, 1.0)
        assert np.allclose(op.apply(A), A, atol=1e-13)

    def test_on_identity_matches_scalar_integral(self, rng):
        X = random_positive(rng, 3)
        for om in (-2.0, 0.7, 3.0):
            out = nco.log_mean_multiplier(X, om).apply(np.eye(3))
            assert np.allclose(out, X * 2.0 * np.sinh(om / 2.0) / om, atol=1e-12)

    @pytest.mark.parametrize("omega", [-2.0, 0.3, 5.0])
    def test_against_quadrature(self, rng, omega):
        X = random_positive(rng, 4)
        A = mc.random_complex(rng, 4)
        lhs = nco.log_mean_multiplier(X, omega).apply(A)
        rhs = mop_quadrature(X, omega, A)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_adjoint_flips_twist(self, rng):
        X = random_positive(rng, 4)
        A = mc.random_complex(rng, 4)
        for om in (-1.2, 0.0, 2.5):
            lhs = nco.log_mean_multiplier(X, om).apply(A).conj().T
            rhs = nco.log_mean_multiplier(X, -om).apply(A.conj().T)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_strict_positivity(self, rng):
        X = random_positive(rng, 3)
        op = nco.log_mean_multiplier(X, 1.3)
        assert np.all(op.kernel.real > 0.0) and np.allclose(op.kernel.imag, 0.0)
        for _ in range(20):
            A = mc.random_complex(rng, 3)
            q = mc.hs_inner(A, op.apply(A))
            assert q.real > 0 and abs(q.imag) <= 1e-10 * q.real

    def test_inverse_round_trip(self, rng):
        X = random_positive(rng, 4)
        fw = nco.log_mean_multiplier(X, 0.9)
        bw = nco.log_mean_multiplier(X, 0.9).inverse()
        for _ in range(10):
            A = mc.random_complex(rng, 4)
            assert np.linalg.norm(bw.apply(fw.apply(A)) - A) <= 1e-10 * np.linalg.norm(A)

    @pytest.mark.parametrize("omega", [-1.0, 0.0, 2.0])
    def test_inverse_against_quadrature(self, rng, omega):
        X = random_positive(rng, 3, floor=0.05)
        A = mc.random_complex(rng, 3)
        lhs = nco.log_mean_multiplier(X, omega).inverse().apply(A)
        rhs = mop_inverse_quadrature(X, omega, A)
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


class TestChainRule:
    def test_zero_argument(self, rng):
        X = random_positive(rng, 3)
        assert chain_rule_residual(np.zeros((3, 3)), X, 1.7) == 0.0

    def test_identity_base_zero_twist(self, rng):
        V = mc.random_complex(rng, 3)
        assert chain_rule_residual(V, np.eye(3), 0.0) <= 1e-12

    def test_random_ensemble(self, rng):
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(2, 6))
            V = mc.random_complex(rng, n)
            V /= np.linalg.norm(V)
            X = random_positive(rng, n)
            omega = float(rng.uniform(-3, 3))
            worst = max(worst, chain_rule_residual(V, X, omega))
        assert worst <= 1e-9


class TestFlux:
    """`RenyiMultiplier.flux` against gradient, multiplier and divergence
    applied one after another, on the generators' own jump stacks."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.0 + 0.5 * nco.ALPHA_ONE_WINDOW, 2.0, 3.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_unfused_chain(self, n, alpha):
        from renyiflow.generator import random_gns_generator

        rng = np.random.default_rng(500 + n)
        G = random_gns_generator(rng, n, min_sigma_eig=0.15)
        rho = mc.random_density(rng, n, floor=0.1)
        M = nco.renyi_multiplier(rho, G.sigma_dec, G.omegas, alpha)
        ref = nc_divergence(G, M.apply(nc_gradient(G, M.state.derivative())))
        assert np.linalg.norm(M.flux(G.jump_stacks[0]) - ref) <= 1e-12 * np.linalg.norm(ref)


class TestGradientDivergence:
    def test_gradient_of_identity_vanishes(self, qubit_xz):
        for g in nc_gradient(qubit_xz, np.eye(2)):
            assert np.linalg.norm(g) == 0.0

    def test_adjointness(self, qubit_xz, rng):
        A = mc.random_complex(rng, 2)
        Bs = [mc.random_complex(rng, 2) for _ in qubit_xz.terms]
        lhs = sum(mc.hs_inner(g, B) for g, B in zip(nc_gradient(qubit_xz, A), Bs))
        rhs = mc.hs_inner(A, -nc_divergence(qubit_xz, Bs))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_kernel_matches_generator_kernel(self, qubit_xz, rng):
        # gradient kernel = multiples of the identity for a primitive generator
        for _ in range(20):
            A = mc.random_traceless_hermitian(rng, 2)
            gnorm = sum(np.linalg.norm(g) for g in nc_gradient(qubit_xz, A))
            assert gnorm > 1e-8 * np.linalg.norm(A)

    def test_length_mismatch(self, qubit_xz):
        with pytest.raises(DomainError):
            nc_divergence(qubit_xz, [np.eye(2)])


class TestRenyiMultiplier:
    def test_order_one_reduces_to_state_multiplier(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        sigma_dec = mc.density_spectrum(sigma, strict=True)
        rho = mc.random_density(rng, 3, floor=0.1)
        A = mc.random_complex(rng, 3)
        M = nco.renyi_multiplier(rho, sigma_dec, 0.8, 1.0)
        direct = nco.log_mean_multiplier(rho, 0.8)
        assert np.linalg.norm(M.apply(A) - direct.apply(A)) <= 1e-10 * np.linalg.norm(A)

    def test_order_two_is_scaled_weighting(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        sigma_dec = mc.density_spectrum(sigma, strict=True)
        rho = mc.random_density(rng, 3, floor=0.1)
        A = mc.random_complex(rng, 3)
        M = nco.renyi_multiplier(rho, sigma_dec, -1.1, 2.0)
        si = matrix_power(sigma, -0.5)
        Z = np.trace(si @ rho @ si @ rho).real
        expected = 0.5 * Z * nco.sandwich_pow(sigma_dec, 1.0, A)
        assert np.linalg.norm(M.apply(A) - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_adjoint_relation(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        sigma_dec = mc.density_spectrum(sigma, strict=True)
        rho = mc.random_density(rng, 3, floor=0.1)
        A = mc.random_complex(rng, 3)
        for a in (0.5, 1.5, 3.0):
            lhs = nco.renyi_multiplier(rho, sigma_dec, 0.9, a).apply(A).conj().T
            rhs = nco.renyi_multiplier(rho, sigma_dec, -0.9, a).apply(A.conj().T)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_gradient_of_derivative_identity(self, rng, alpha):
        # the multiplier carries the derivative's jump commutators onto the
        # twisted state commutators
        from renyiflow.generator import random_gns_generator

        G = random_gns_generator(rng, 3, min_sigma_eig=0.15)
        for _ in range(5):
            rho = mc.random_density(rng, 3, floor=0.1)
            fd = dv.functional_derivative(rho, G.sigma, alpha)
            for t in G.terms:
                M = nco.renyi_multiplier(rho, G.sigma_dec, t.omega, alpha)
                lhs = M.apply(t.V @ fd - fd @ t.V)
                rhs = np.exp(-t.omega / 2.0) * t.V @ rho - np.exp(t.omega / 2.0) * rho @ t.V
                assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))


class TestSandwichedState:
    """The one kernel behind D_alpha, its derivative and the norm
    functional, against the per-function formulas it replaced."""

    ORDERS = [0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0]

    @pytest.fixture(params=[2, 3, 4])
    def pair(self, request):
        r = np.random.default_rng(700 + request.param)
        return mc.random_density(r, request.param, floor=0.05), mc.random_density(r, request.param, floor=0.1)

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_divergence_matches_oracle(self, pair, alpha):
        rho, sigma = pair
        D = nco.sandwiched_state(rho, mc.density_spectrum(sigma), alpha).divergence()
        assert D == pytest.approx(sandwiched_renyi_by_matrix_powers(rho, sigma, alpha), rel=1e-12)

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_derivative_matches_oracle(self, pair, alpha):
        rho, sigma = pair
        fd = nco.sandwiched_state(rho, mc.density_spectrum(sigma), alpha).derivative()
        ref = functional_derivative_by_matrix_powers(rho, sigma, alpha)
        assert np.linalg.norm(fd - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_stacked_norm_functional_matches_oracle(self, pair):
        rho, sigma = pair
        r = np.random.default_rng(rho.shape[0])
        # at order 1 the functional is log tr rho = 0, with no relative scale
        beta = np.array([b for b in self.ORDERS if b != 1.0])
        states = np.array([mc.hermitize(0.6 * rho + 0.4 * mc.random_density(r, rho.shape[0])) for _ in beta])
        Z = nco.sandwiched_trace(states, mc.density_spectrum(sigma), beta)
        assert Z.shape == beta.shape
        ref = [norm_functional_by_state(s, sigma, b) for s, b in zip(states, beta)]
        np.testing.assert_allclose(np.log(Z) / beta, ref, rtol=1e-12, atol=0.0)

    def test_one_eigensolve(self, pair, eigensolves):
        rho, sigma = pair
        sigma_dec = mc.density_spectrum(sigma)
        assert eigensolves(lambda: nco.sandwiched_state(rho, sigma_dec, 2.5)) == 1
        stack = np.array([rho, sigma, rho])
        assert eigensolves(lambda: nco.sandwiched_state(stack, sigma_dec, 2.5)) == 1

    def test_order_array_raises_before_any_eigensolve(self, pair, eigensolves):
        rho, sigma = pair
        sigma_dec = mc.density_spectrum(sigma)

        def run():
            with pytest.raises(DomainError, match="sandwiched_trace"):
                nco.sandwiched_state(rho, sigma_dec, [0.5, 2.5])

        assert eigensolves(run) == 0

    @staticmethod
    def states(rho, count):
        r = np.random.default_rng(rho.shape[0] + 40)
        return np.array([mc.hermitize(0.7 * rho + 0.3 * mc.random_density(r, rho.shape[0])) for _ in range(count)])

    @staticmethod
    def assert_matches_per_state(stacked, states, sigma_dec, orders):
        ref = [nco.sandwiched_state(s, sigma_dec, a) for s, a in zip(states, orders)]
        D, dD = stacked.divergence(), stacked.derivative()
        assert D.shape == (len(states),) and dD.shape == states.shape
        np.testing.assert_allclose(D, [r.divergence() for r in ref], rtol=1e-13, atol=0.0)
        for row, r in zip(dD, ref):
            assert np.linalg.norm(row - r.derivative()) <= 1e-13 * np.linalg.norm(r.derivative())

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_stack_at_one_order_matches_per_state(self, pair, alpha):
        rho, sigma = pair
        sigma_dec, states = mc.density_spectrum(sigma), self.states(rho, 4)
        stacked = nco.sandwiched_state(states, sigma_dec, alpha)
        self.assert_matches_per_state(stacked, states, sigma_dec, [alpha] * len(states))

    def test_trace_reads_the_values_only(self, pair, eigensolves, monkeypatch):
        rho, sigma = pair
        sigma_dec = mc.density_spectrum(sigma)
        states, beta = self.states(rho, 5), np.array([1.5, 2.0, 2.5, 3.0, 7.0])
        Z = nco.sandwiched_trace(states, sigma_dec, beta)
        ref = [nco.sandwiched_state(s, sigma_dec, b).Z for s, b in zip(states, beta)]
        np.testing.assert_allclose(Z, ref, rtol=1e-13, atol=0.0)
        assert eigensolves(lambda: nco.sandwiched_trace(states, sigma_dec, beta)) == 1
        monkeypatch.setattr(np.linalg, "eigh", None)  # no eigenvectors
        nco.sandwiched_trace(states, sigma_dec, beta)


class TestRenyiKernel:
    """The closed-form multiplier kernel against the quotient of the two
    logarithmic-mean kernels it replaced."""

    @staticmethod
    def two_kernel_quotient(lam, omega, alpha):
        num = nco._log_mean_kernel(lam, omega / alpha)
        return num / nco._log_mean_kernel(lam ** (alpha - 1.0), (alpha - 1.0) * omega / alpha)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 3.0, 6.0])
    def test_matches_two_kernel_quotient(self, n, alpha):
        r = np.random.default_rng(900 + n)
        G = random_gns_generator(r, n, min_sigma_eig=0.1 / n)
        rho = mc.random_density(r, n, floor=0.05)
        M = nco.renyi_multiplier(rho, G.sigma_dec, G.omegas, alpha)
        ref = self.two_kernel_quotient(M.state.positive_values(), G.omegas, alpha)
        assert M.kernel_op.kernel.shape == ref.shape == (len(G.omegas), n, n)
        assert np.max(np.abs(M.kernel_op.kernel / ref - 1.0)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 2.0, 3.0, 6.0])
    def test_degenerate_entries_are_the_power_of_the_mean(self, alpha):
        lam = np.array([0.2, 0.2, 0.6])
        k = nco._renyi_kernel(lam, 0.0, alpha)
        np.testing.assert_allclose(np.diag(k), lam ** (2.0 - alpha), rtol=1e-15)
        assert k[0, 1] == k[0, 0]

    def test_tends_to_the_log_mean_at_order_one(self):
        lam, omega = np.array([0.1, 0.3, 0.6]), np.array([-1.2, 0.0, 0.7])
        near = nco._renyi_kernel(lam, omega, 1.0 + 1e-7)
        np.testing.assert_allclose(near, nco._log_mean_kernel(lam, omega), rtol=1e-6)
        assert np.array_equal(nco._renyi_kernel(lam, omega, 1.0), nco._log_mean_kernel(lam, omega))

    def test_large_frequency_does_not_overflow(self):
        # u = 1600: sinh(u/2) overflows, so the two-kernel quotient is inf
        lam, alpha = np.array([0.5, 0.5]), 0.5
        with np.errstate(over="ignore"):
            assert np.isinf(self.two_kernel_quotient(lam, np.array(800.0), alpha)[0, 0])
        k = nco._renyi_kernel(lam, 800.0, alpha)
        # 0.5^1.5 * 0.5 sinh(800)/sinh(400), with sinh(t) = e^t/2 to double precision
        assert k[0, 0] == pytest.approx(0.5**1.5 * 0.5 * np.exp(400.0), rel=1e-13)


class TestMultiplierStack:
    """One multiplier family over several frequencies acts row by row."""

    @pytest.fixture(params=[3, 4])
    def family_inputs(self, request, rng):
        n = request.param
        sigma = mc.random_density(rng, n, floor=0.1)
        rho = mc.random_density(rng, n, floor=0.1)
        omegas = rng.uniform(-2.0, 2.0, size=5)
        stack = np.array([mc.random_complex(rng, n) for _ in omegas])
        return rho, sigma, omegas, stack

    def test_kernel_stack_is_per_frequency_kernel(self, family_inputs):
        rho, _, omegas, _ = family_inputs
        lam = np.linalg.eigvalsh(rho)
        stacked = nco._log_mean_kernel(lam, omegas)
        for om, K in zip(omegas, stacked):
            assert np.array_equal(K, nco._log_mean_kernel(lam, om))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_apply_matches_single_frequency(self, family_inputs, alpha):
        rho, sigma, omegas, stack = family_inputs
        sigma_dec = mc.density_spectrum(sigma, strict=True)
        out = nco.renyi_multiplier(rho, sigma_dec, omegas, alpha).apply(stack)
        assert out.shape == stack.shape
        for om, A, row in zip(omegas, stack, out):
            single = nco.renyi_multiplier(rho, sigma_dec, om, alpha).apply(A)
            assert np.linalg.norm(row - single) <= 1e-12 * max(1.0, np.linalg.norm(single))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_functional_derivative_matches_divergence_module(self, family_inputs, alpha):
        rho, sigma, omegas, _ = family_inputs
        sigma_dec = mc.density_spectrum(sigma, strict=True)
        fd = nco.renyi_multiplier(rho, sigma_dec, omegas, alpha).state.derivative()
        ref = dv.functional_derivative(rho, sigma, alpha)
        assert np.linalg.norm(fd - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_family_derivative_matches_oracle(self, family_inputs, alpha):
        rho, sigma, omegas, _ = family_inputs
        sigma_dec = mc.density_spectrum(sigma, strict=True)
        fd = nco.renyi_multiplier(rho, sigma_dec, omegas, alpha).state.derivative()
        ref = functional_derivative_by_matrix_powers(rho, sigma, alpha)
        assert np.linalg.norm(fd - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_scalar_frequency_keeps_matrix_shape(self, family_inputs):
        rho, sigma, _, stack = family_inputs
        sigma_dec = mc.density_spectrum(sigma, strict=True)
        n = rho.shape[0]
        M = nco.renyi_multiplier(rho, sigma_dec, 0.3, 1.5)
        assert M.kernel_op.kernel.shape == (n, n)
        assert M.apply(stack[0]).shape == (n, n)

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 2.5, 6.0])
    def test_flux_gram_matches_imaged_directions(self, family_inputs, alpha, rng):
        # Re sum_j <[V_j, B_a], M_j [V_j, B_b]> from the stacked multiplier,
        # for jump operators and directions without any symmetry
        rho, sigma, omegas, V = family_inputs
        M = nco.renyi_multiplier(rho, mc.density_spectrum(sigma, strict=True), omegas, alpha)
        B = np.array([mc.random_complex(rng, rho.shape[0]) for _ in range(4)])
        grads = V[None] @ B[:, None] - B[:, None] @ V[None]
        images = np.array([M.apply(g) for g in grads])
        ref = np.real(np.einsum("ajkl,bjkl->ab", grads.conj(), images))
        assert np.abs(M.flux_gram(V, B) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 2.5, 6.0, 10.0])
    def test_flux_matches_unfused_chain_on_any_stack(self, family_inputs, alpha):
        # sum_j [M_j [V_j, D], V_j*] of the state's own derivative, for jump
        # operators without any symmetry, against the unfused chain at 40
        # digits; in double precision the unfused chain itself loses digits
        # from alpha of about 6 on
        rho, sigma, omegas, V = family_inputs
        M = nco.renyi_multiplier(rho, mc.density_spectrum(sigma, strict=True), omegas, alpha)
        ref = flux_by_mpmath(rho, sigma, omegas, V, alpha)
        assert np.linalg.norm(M.flux(V) - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
    def test_adjoint_relation_row_by_row(self, family_inputs, alpha):
        rho, sigma, omegas, stack = family_inputs
        sigma_dec = mc.density_spectrum(sigma, strict=True)
        lhs = nco.renyi_multiplier(rho, sigma_dec, omegas, alpha).apply(stack).conj().swapaxes(-1, -2)
        rhs = nco.renyi_multiplier(rho, sigma_dec, -omegas, alpha).apply(stack.conj().swapaxes(-1, -2))
        for l_row, r_row in zip(lhs, rhs):
            assert np.linalg.norm(l_row - r_row) <= 1e-10 * max(1.0, np.linalg.norm(r_row))


# The comparison proof's similarity pair and its spectrum envelope.  Nothing
# in the package applies them (`flow.comparison_constants` takes eta = lo/hi
# in closed form), so they live here beside the lemma they check.


def similarity_pair(X, omega: float, s: float) -> nco.KernelOperator:
    """The symmetrized conjugation pair e^(ws) X^s . X^(-s) + e^(w(1-s)) X^(1-s) . X^(s-1).

    Defined for s in [0, 1/2]; its kernel is b^s + b^(1-s) with
    b = e^omega lam_k / lam_l, entrywise non-increasing in s.
    """
    if not 0.0 <= s <= 0.5:
        raise DomainError(f"similarity exponent s={s} outside [0, 1/2]")
    dec = nco._positive_spectrum(X)
    loglam = np.log(dec.values)
    logb = omega + loglam[:, None] - loglam[None, :]
    kernel = np.exp(s * logb) + np.exp((1.0 - s) * logb)
    return nco.KernelOperator(dec.values, dec.vectors, kernel)


def similarity_pair_bounds(X, omega: float) -> tuple[float, float]:
    """Spectrum envelope [2 sqrt(e^w lmin/lmax), 1 + e^w lmax/lmin], valid for all s."""
    dec = nco._positive_spectrum(X)
    lo = 2.0 * np.sqrt(np.exp(omega) * dec.values[0] / dec.values[-1])
    hi = 1.0 + np.exp(omega) * dec.values[-1] / dec.values[0]
    return float(lo), float(hi)


class TestSimilarityPair:
    def test_identity_base(self, rng):
        op = similarity_pair(np.eye(3), 0.0, 0.25)
        assert np.allclose(op.kernel, 2.0)

    def test_half_is_twice_sqrt(self, rng):
        X = random_positive(rng, 3)
        op = similarity_pair(X, 0.7, 0.5)
        lam = mc.eig_hermitian(X).values
        b = np.exp(0.7) * lam[:, None] / lam[None, :]
        assert np.allclose(op.kernel, 2.0 * np.sqrt(b), atol=1e-12)

    def test_entrywise_monotone_in_s(self, rng):
        X = random_positive(rng, 4)
        for om in (-1.0, 0.0, 1.5):
            kernels = [similarity_pair(X, om, s).kernel for s in np.linspace(0.0, 0.5, 6)]
            for k1, k2 in zip(kernels, kernels[1:]):
                assert np.all(k1 - k2 >= -1e-12)

    def test_spectrum_bounds_and_eta(self, rng):
        X = random_positive(rng, 4)
        for om in (-1.0, 0.0, 1.5):
            lo, hi = similarity_pair_bounds(X, om)
            eta = lo / hi
            ks = [similarity_pair(X, om, s).kernel for s in np.linspace(0.0, 0.5, 6)]
            for k in ks:
                assert np.all(k >= lo - 1e-12) and np.all(k <= hi + 1e-12)
            for ka in ks:
                for kb in ks:
                    assert np.all(kb - eta * ka >= -1e-12)

    def test_domain(self, rng):
        with pytest.raises(DomainError):
            similarity_pair(np.eye(2), 0.0, 0.6)


class TestWeightOperator:
    def test_kms_case_is_sqrt_weighting(self, cm_sigma, rng):
        dec = mc.density_spectrum(cm_sigma, strict=True)
        W = nco.weight_operator(dec, 2.0)
        lam = dec.values
        assert np.allclose(W.kernel, np.sqrt(lam[:, None] * lam[None, :]), atol=1e-12)
        A = mc.random_complex(rng, 2)
        assert np.linalg.norm(
            W.apply(A) - nco.sandwich_pow(dec, 1.0, A)
        ) <= 1e-12 * np.linalg.norm(A)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.0, np.inf])
    def test_diagonal_entries_are_eigenvalues(self, rng, alpha):
        sigma = mc.random_density(rng, 4, floor=0.05)
        W = nco.weight_operator(mc.density_spectrum(sigma, strict=True), alpha)
        lam = mc.eig_hermitian(sigma).values
        assert np.allclose(np.diag(W.kernel), lam, atol=1e-11)

    def test_limit_toward_one_matches_log_mean(self, rng):
        dec = mc.density_spectrum(mc.random_density(rng, 3, floor=0.1), strict=True)
        logmean = nco.weight_operator(dec, 1.0).kernel
        for a in (1.0 - 1e-5, 1.0 + 1e-5):
            K = nco.weight_operator(dec, a).kernel
            assert np.max(np.abs(K - logmean)) <= 1e-4

    @pytest.mark.parametrize("alpha", [0.5, 3.0])
    def test_against_composition_oracle(self, rng, alpha):
        sigma = mc.random_density(rng, 4, floor=0.05)
        dec = mc.density_spectrum(sigma, strict=True)
        W = nco.weight_operator(dec, alpha)
        m1 = nco.log_mean_multiplier(dec.power(1.0 / alpha))
        m2i = nco.log_mean_multiplier(dec.power((alpha - 1.0) / alpha)).inverse()
        A = mc.random_complex(rng, 4)
        comp = m1.apply(m2i.apply(nco.sandwich_pow(dec, 2.0 * (alpha - 1.0) / alpha, A)))
        assert np.linalg.norm(W.apply(A) - comp) <= 1e-9 * np.linalg.norm(comp)

    def test_explicit_zero_and_infinity_forms(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        lam = mc.eig_hermitian(sigma).values
        dec = mc.density_spectrum(sigma, strict=True)
        K0 = nco.weight_operator(dec, 0.0).kernel
        assert np.allclose(K0, np.maximum(lam[:, None], lam[None, :]), atol=1e-12)
        Kinf = nco.weight_operator(dec, np.inf).kernel
        lt = np.log(lam[:, None]) - np.log(lam[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = lt / (lam[:, None] - lam[None, :])
        expected = np.where(
            np.abs(lt) < 1e-12, lam[:, None], lam[:, None] * lam[None, :] * ratio
        )
        assert np.allclose(Kinf, expected, atol=1e-10)

    def test_symmetric_positive_kernel(self, rng):
        dec = mc.density_spectrum(mc.random_density(rng, 4, floor=0.02), strict=True)
        for a in (0.0, 0.3, 1.0, 2.0, 5.0, np.inf):
            K = nco.weight_operator(dec, a).kernel
            assert np.allclose(K, K.T, atol=1e-12)
            assert np.all(K > 0)

    # 1e308 and the largest float: 2 alpha and 2 (alpha - 1) overflow there
    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 6.0, 20.0, 50.0, np.inf,
                                       1e308, np.finfo(float).max])
    def test_against_high_precision_oracle(self, rng, alpha):
        for n in range(2, 9):
            dec = mc.density_spectrum(mc.random_density(rng, n, floor=0.05), strict=True)
            K, ref = nco.weight_operator(dec, alpha).kernel, weight_kernel_by_mpmath(dec.values, alpha)
            assert np.max(np.abs(K - ref) / ref) <= 1e-15

    def test_negative_alpha_rejected(self, rng):
        with pytest.raises(DomainError):
            nco.weight_operator(mc.density_spectrum(np.eye(2) / 2.0, strict=True), -0.5)


def _state_functionals(G, rho, alpha):
    """Entropy and Dirichlet form E = (alpha Z/4) I of rho from its sandwiched
    state, as the log-Sobolev ratios read them, and the X-form argument
    X = sigma^(-1/2) rho sigma^(-1/2) of the references."""
    si = G.sigma_dec.power(-0.5)
    X = mc.hermitize(si @ rho @ si)
    state = nco.sandwiched_state(rho, G.sigma_dec, alpha)
    return state.entropy(), state.alpha * state.Z / 4.0 * state.fisher(G.apply_Ldag(rho)), X


class TestWeightedFunctionals:
    """The order-alpha entropy functional and Dirichlet form, read from the
    sandwiched state."""

    def test_norm_of_identity(self, rng):
        # X = 1 is rho = sigma, whose weighted alpha-norm Z^(1/alpha) is 1
        sigma = mc.random_density(rng, 3, floor=0.1)
        dec = mc.density_spectrum(sigma, strict=True)
        for a in (0.5, 1.0, 2.0, 4.0):
            assert nco.sandwiched_state(sigma, dec, a).Z ** (1.0 / a) == pytest.approx(1.0, abs=1e-12)

    def test_entropy_of_identity_vanishes(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        dec = mc.density_spectrum(sigma, strict=True)
        for a in (0.5, 1.0, 2.0):
            assert abs(nco.sandwiched_state(sigma, dec, a).entropy()) <= 1e-12

    def test_dirichlet_of_identity_vanishes(self, qubit_xz):
        for a in (0.5, 1.0, 2.0):
            assert abs(_state_functionals(qubit_xz, qubit_xz.sigma, a)[1]) <= 1e-12

    def test_dirichlet_nonnegative(self, qubit_xz, rng):
        for _ in range(50):
            rho = mc.random_density(rng, 2, floor=0.05)
            for a in (0.5, 1.0, 2.0, 3.0):
                assert _state_functionals(qubit_xz, rho, a)[1] >= -1e-10

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_dirichlet_matches_fisher(self, rng, alpha):
        # the X-form Dirichlet form against the divergence module's Fisher
        # information: the identity E = (alpha Z/4) I the log-Sobolev ratios read
        G = random_gns_generator(rng, 3, min_sigma_eig=0.15)
        si = G.sigma_dec.power(-0.5)
        for _ in range(5):
            rho = mc.random_density(rng, 3, floor=0.1)
            E = dirichlet_form(G, alpha, mc.hermitize(si @ rho @ si))
            Z = dv.sandwiched_renyi(rho, G.sigma, alpha).Z
            Ia = dv.fisher_information(rho, alpha, G)
            assert E / Z == pytest.approx(alpha / 4.0 * Ia, abs=1e-8 * max(1.0, abs(Ia)))

    def test_order_one_dirichlet_below_floor_raises(self, qubit_xz):
        # every log-Sobolev ratio reads one strictly validated sandwiched
        # state, so the kappa ratios share the K ratios' domain: rho at or
        # above POS_FLOOR
        from renyiflow import flow

        objectives = flow._lsi_objectives(qubit_xz)
        below = np.diag([1e-13, 1.0 - 1e-13]).astype(complex)
        inside = np.diag([1e-6, 1.0 - 1e-6]).astype(complex)
        for name, fn in objectives.items():
            with pytest.raises(SingularityError, match="below"):
                fn(below)
            assert np.isfinite(fn(inside)), name

    def test_power_op_commuting_case(self, rng):
        lam = np.array([0.2, 0.3, 0.5])
        sigma = np.diag(lam).astype(complex)
        A = np.diag(rng.uniform(0.5, 2.0, size=3)).astype(complex)
        out = power_op(mc.density_spectrum(sigma, strict=True), 3.0, 2.0, A)
        assert np.allclose(out, matrix_power(A, 2.0 / 3.0), atol=1e-10)


def _functional_generators():
    from renyiflow import balance_check as bc
    from renyiflow import generator as gen

    return {
        "qubit-xz": gen.qubit_xz_generator,
        "carlen-maas": bc.carlen_maas_counterexample,
        "depolarizing-3": lambda: gen.depolarizing_generator(1.0, np.diag([0.2, 0.3, 0.5]).astype(complex)),
        **{f"gns-{n}": (lambda n=n: gen.random_gns_generator(np.random.default_rng(900 + n), n, min_sigma_eig=0.1))
           for n in (2, 3, 4)},
    }


class TestStateFunctionalsMatchXForm:
    """`SandwichedState.entropy` and the Dirichlet form (alpha Z/4) I read
    from the Fisher pairing against the X-form references, which weight
    X = sigma^(-1/2) rho sigma^(-1/2) and decompose it themselves.  The
    identity needs only the KMS symmetry, so KMS-only carlen-maas is
    covered too."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("name", list(_functional_generators()))
    def test_matches_reference(self, name, alpha, rng):
        G = _functional_generators()[name]()
        for _ in range(4):
            rho = mc.random_density(rng, G.n, floor=0.05)
            ent, E, X = _state_functionals(G, rho, alpha)
            ent_ref, E_ref = ent_fun(G.sigma_dec, alpha, X), dirichlet_form(G, alpha, X)
            assert abs(ent - ent_ref) <= 1e-12 * abs(ent_ref)
            assert abs(E - E_ref) <= 1e-12 * abs(E_ref)


class TestTracelessBasis:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthonormal_traceless(self, n):
        basis = nco.traceless_hermitian_basis(n)
        assert len(basis) == n * n - 1
        for i, B in enumerate(basis):
            assert abs(np.trace(B)) <= 1e-14
            assert np.linalg.norm(B - B.conj().T) <= 1e-14
            for j, C in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(mc.hs_inner(B, C) - expected) <= 1e-12
