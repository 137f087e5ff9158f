import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import renyiflow.divergence as dv
import renyiflow.matcore as mc
from renyiflow.errors import DomainError, SingularityError, StructuralError
from renyiflow.generator import random_gns_generator

from .oracles import (
    chi2_divergence,
    classical_chi2,
    classical_renyi,
    matrix_power,
    petz_renyi,
    sandwiched_renyi_by_mpmath,
    trace_norm,
)


class TestSandwichedRenyi:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_self_divergence_vanishes(self, rng, alpha):
        sigma = mc.random_density(rng, 3, floor=0.1)
        assert abs(dv.sandwiched_renyi(sigma, sigma, alpha).value) <= 1e-12

    def test_commuting_case_order_two(self):
        rho = np.diag([0.2, 0.8]).astype(complex)
        sigma = np.eye(2) / 2.0
        out = dv.sandwiched_renyi(rho, sigma, 2.0)
        assert out.value == pytest.approx(np.log(1.36), abs=1e-12)
        assert out.Z == pytest.approx(1.36, abs=1e-12)

    def test_commuting_matches_classical(self, rng):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
        q /= q.sum()
        for a in (0.5, 1.0, 1.7, 3.0):
            val = dv.sandwiched_renyi(np.diag(p), np.diag(q), a).value
            assert val == pytest.approx(classical_renyi(p, q, a), abs=1e-10)

    def test_order_two_shortcut(self, rng):
        rho = mc.random_density(rng, 3, floor=0.05)
        sigma = mc.random_density(rng, 3, floor=0.05)
        si = matrix_power(sigma, -0.5)
        direct = np.log(np.trace(si @ rho @ si @ rho).real)
        assert dv.sandwiched_renyi(rho, sigma, 2.0).value == pytest.approx(direct, abs=1e-10)

    def test_continuity_at_one(self, rng):
        for _ in range(20):
            rho = mc.random_density(rng, 3, floor=0.05)
            sigma = mc.random_density(rng, 3, floor=0.05)
            D1 = dv.relative_entropy(rho, sigma)
            for a in (1.0 - 1e-4, 1.0 + 1e-4):
                assert abs(dv.sandwiched_renyi(rho, sigma, a).value - D1) <= 1e-3

    def test_monotone_in_order(self, rng):
        for _ in range(50):
            rho = mc.random_density(rng, 3, floor=0.02)
            sigma = mc.random_density(rng, 3, floor=0.02)
            grid = [0.3, 0.7, 1.0, 1.4, 2.0, 3.5, 6.0]
            vals = [dv.sandwiched_renyi(rho, sigma, a).value for a in grid]
            assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(vals, vals[1:]))

    def test_nonnegative(self, rng):
        for _ in range(100):
            rho = mc.random_density(rng, 2, floor=0.0)
            sigma = mc.random_density(rng, 2, floor=0.05)
            for a in (0.5, 1.0, 2.0):
                assert dv.sandwiched_renyi(rho, sigma, a).value >= -1e-12

    def test_zero_iff_equal(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        rho = mc.random_density(rng, 3, floor=0.1)
        if np.linalg.norm(rho - sigma) > 1e-8:
            assert dv.sandwiched_renyi(rho, sigma, 2.0).value > 1e-10

    def test_bad_order(self, rng):
        sigma = mc.random_density(rng, 2, floor=0.1)
        with pytest.raises(DomainError):
            dv.sandwiched_renyi(sigma, sigma, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 6.0))
    def test_nonnegativity_property(self, seed, alpha):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 5))
        rho = mc.random_density(r, n)
        sigma = mc.random_density(r, n, floor=0.05)
        assert dv.sandwiched_renyi(rho, sigma, alpha).value >= -1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.2, 4.0), st.floats(0.0, 2.0))
    def test_order_monotonicity_property(self, seed, alpha, gap):
        r = np.random.default_rng(seed)
        rho = mc.random_density(r, 3, floor=0.02)
        sigma = mc.random_density(r, 3, floor=0.02)
        lo = dv.sandwiched_renyi(rho, sigma, alpha).value
        hi = dv.sandwiched_renyi(rho, sigma, alpha + gap).value
        assert hi >= lo - 1e-10


class TestSmallOrders:
    """At small orders s = sigma^((1-alpha)/(2 alpha)) is a high power of sigma
    (sigma^4.5 at alpha = 0.1): the sandwich is formed entrywise in sigma's
    frame and decomposed from its large end, so D keeps absolute rounding
    level against a 40-digit evaluation, near sigma and far from it."""

    @pytest.mark.parametrize("n, seed", [(2, 1), (3, 56), (4, 2), (8, 34)])
    def test_matches_mpmath(self, n, seed):
        G = random_gns_generator(np.random.default_rng(seed), n, min_sigma_eig=0.15)
        far = mc.random_density(np.random.default_rng(seed), n, floor=0.1)
        for w in (1.0, 1e-3, 1e-6):
            rho = mc.hermitize((1.0 - w) * G.sigma + w * far)
            for alpha in (0.1, 0.25):
                D = dv.sandwiched_renyi(rho, G.sigma, alpha).value
                assert abs(D - sandwiched_renyi_by_mpmath(rho, G.sigma, alpha)) <= 1e-13, (w, alpha)


class TestRelativeEntropy:
    def test_self_entropy(self, rng):
        sigma = mc.random_density(rng, 4, floor=0.05)
        assert abs(dv.relative_entropy(sigma, sigma)) <= 1e-12

    def test_classical_kl(self, rng):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3)) * 0.9 + 1.0 / 30.0
        q /= q.sum()
        assert dv.relative_entropy(np.diag(p), np.diag(q)) == pytest.approx(
            classical_renyi(p, q, 1.0), abs=1e-10
        )

    def test_pinsker(self, rng):
        for _ in range(1000):
            rho = mc.random_density(rng, 2)
            sigma = mc.random_density(rng, 2, floor=0.05)
            D = dv.relative_entropy(rho, sigma)
            tn = trace_norm(rho - sigma)
            assert D >= 0.5 * tn**2 - 1e-10

    def test_rank_deficient_rho_is_finite(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([0.6, 0.4]).astype(complex)
        assert dv.relative_entropy(rho, sigma) == pytest.approx(-np.log(0.6), abs=1e-10)


class TestPetzRenyi:
    def test_commuting_matches_sandwiched(self, rng):
        p = rng.dirichlet(np.ones(3)) * 0.9 + 1.0 / 30.0
        p /= p.sum()
        q = rng.dirichlet(np.ones(3)) * 0.9 + 1.0 / 30.0
        q /= q.sum()
        for a in (0.5, 2.0, 3.0):
            assert petz_renyi(np.diag(p), np.diag(q), a) == pytest.approx(
                dv.sandwiched_renyi(np.diag(p), np.diag(q), a).value, abs=1e-10
            )

    def test_self_divergence(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        for a in (0.5, 2.0):
            assert abs(petz_renyi(sigma, sigma, a)) <= 1e-12

    def test_dominates_sandwiched_order_two(self, rng):
        # empirical ordering check on noncommuting pairs
        for _ in range(200):
            rho = mc.random_density(rng, 3, floor=0.05)
            sigma = mc.random_density(rng, 3, floor=0.05)
            assert petz_renyi(rho, sigma, 2.0) >= dv.sandwiched_renyi(rho, sigma, 2.0).value - 1e-12

    def test_order_one_rejected(self, rng):
        sigma = mc.random_density(rng, 2, floor=0.1)
        with pytest.raises(DomainError):
            petz_renyi(sigma, sigma, 1.0)

    def test_rounding_negative_eigenvalue_clamped(self, rng):
        # the validation admits eigenvalues down to -TOL_PSD; at a fractional
        # order below 1 they count as 0 instead of giving a nan power
        U = np.linalg.qr(mc.random_complex(rng, 3))[0]
        p = np.array([-5e-11, 0.4, 0.6 + 5e-11])
        rho = mc.hermitize((U * p) @ U.conj().T)
        sigma = mc.random_density(rng, 3, floor=0.1)
        assert np.linalg.eigvalsh(rho)[0] < 0.0
        r_half = (U * np.sqrt(np.maximum(p, 0.0))) @ U.conj().T
        ref = np.log(np.real(np.trace(r_half @ matrix_power(sigma, 0.5)))) / (0.5 - 1.0)
        val = petz_renyi(rho, sigma, 0.5)
        assert np.isfinite(val)
        assert val == pytest.approx(ref, rel=1e-12)


class TestChiSquare:
    def test_self_vanishes(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        assert abs(chi2_divergence(sigma, sigma)) <= 1e-12

    def test_exponential_identity(self, rng):
        for _ in range(100):
            rho = mc.random_density(rng, 3, floor=0.02)
            sigma = mc.random_density(rng, 3, floor=0.02)
            lhs = np.exp(dv.sandwiched_renyi(rho, sigma, 2.0).value)
            rhs = 1.0 + chi2_divergence(rho, sigma)
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, rhs))

    def test_classical_formula(self, rng):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
        q /= q.sum()
        assert chi2_divergence(np.diag(p), np.diag(q)) == pytest.approx(
            classical_chi2(p, q), abs=1e-10
        )


class TestFunctionalDerivative:
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0, 3.0])
    def test_at_stationary_point(self, rng, alpha):
        sigma = mc.random_density(rng, 3, floor=0.1)
        fd = dv.functional_derivative(sigma, sigma, alpha)
        assert np.allclose(fd, alpha / (alpha - 1.0) * np.eye(3), atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_finite_difference_oracle(self, rng, alpha):
        rho = mc.random_density(rng, 3, floor=0.15)
        sigma = mc.random_density(rng, 3, floor=0.15)
        fd = dv.functional_derivative(rho, sigma, alpha)
        eps = 1e-5
        for _ in range(5):
            nu = mc.random_traceless_hermitian(rng, 3)
            nu /= np.linalg.norm(nu)
            Dp = dv.sandwiched_renyi(rho + eps * nu, sigma, alpha).value
            Dm = dv.sandwiched_renyi(rho - eps * nu, sigma, alpha).value
            directional = (Dp - Dm) / (2.0 * eps)
            assert np.vdot(fd, nu).real == pytest.approx(directional, abs=1e-6)

    def test_order_one_commuting(self):
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.5, 0.25, 0.25])
        fd = dv.functional_derivative(np.diag(p), np.diag(q), 1.0)
        assert np.allclose(fd, np.diag(np.log(p) - np.log(q)), atol=1e-12)


class TestFisherInformation:
    def test_vanishes_at_stationary_state(self, qubit_xz):
        for a in (0.5, 1.0, 2.0, 4.0):
            assert abs(dv.fisher_information(qubit_xz.sigma, a, qubit_xz)) <= 1e-10

    def test_nonnegative_on_random_states(self, rng):
        G = random_gns_generator(rng, 3, min_sigma_eig=0.15)
        for _ in range(100):
            rho = mc.random_density(rng, 3, floor=0.05)
            for a in (0.5, 1.0, 2.0, 4.0):
                assert dv.fisher_information(rho, a, G) >= -1e-10

    def test_order_two_closed_form(self, rng):
        G = random_gns_generator(rng, 3, min_sigma_eig=0.15)
        si = matrix_power(G.sigma, -0.5)
        for _ in range(20):
            rho = mc.random_density(rng, 3, floor=0.05)
            gi = si @ rho @ si
            fd2 = 2.0 * gi / np.trace(gi @ rho).real
            closed = -np.real(np.vdot(fd2, G.apply_Ldag(rho)))
            assert dv.fisher_information(rho, 2.0, G) == pytest.approx(
                closed, abs=1e-10 * max(1.0, abs(closed))
            )


def _malformed(case, G):
    """(rho, sigma, alpha) with exactly one defect; sigma is otherwise G's."""
    rho, sigma, alpha = mc.hermitize(0.7 * G.sigma + 0.3 * np.eye(G.n) / G.n), G.sigma, 2.0
    if case == "non-hermitian sigma":
        sigma = sigma + np.array([[0.0, 0.1], [0.0, 0.0]])
    elif case == "trace of rho":
        rho = 1.1 * rho
    elif case == "trace of sigma":
        sigma = 1.1 * sigma
    elif case == "singular sigma":
        sigma = np.diag([1.0, 0.0]).astype(complex)
    elif case == "non-psd rho":
        rho = np.diag([1.2, -0.2]).astype(complex)
    elif case == "rho of another size":
        rho = np.eye(3) / 3.0
    elif case == "order":
        alpha = -0.5
    return rho, sigma, alpha


MALFORMED_CALLS = {
    "sandwiched_renyi": lambda rho, sigma, a, G: dv.sandwiched_renyi(rho, sigma, a),
    "relative_entropy": lambda rho, sigma, a, G: dv.relative_entropy(rho, sigma),
    "functional_derivative": lambda rho, sigma, a, G: dv.functional_derivative(rho, sigma, a),
    "fisher_information": lambda rho, sigma, a, G: dv.fisher_information(rho, a, G),
    "petz_renyi": lambda rho, sigma, a, G: petz_renyi(rho, sigma, a),
    "chi2_divergence": lambda rho, sigma, a, G: chi2_divergence(rho, sigma),
}
STATE_ERRORS = {
    "non-hermitian sigma": StructuralError,
    "trace of rho": StructuralError,
    "trace of sigma": StructuralError,
    "singular sigma": SingularityError,
    "non-psd rho": StructuralError,
    "rho of another size": StructuralError,
}


class TestMalformedInputs:
    """The error type each public function raises on one malformed input;
    the Petz and chi-square references (`tests/oracles.py`) validate theirs alike."""

    @pytest.mark.parametrize("fn, case", [
        (fn, case) for fn in MALFORMED_CALLS for case in [*STATE_ERRORS, "order"]
        if not (case == "order" and fn in ("relative_entropy", "chi2_divergence"))
        # the Fisher information takes no sigma: it reads the generator's
        and not (fn == "fisher_information" and "sigma" in case)
    ])
    def test_error_type(self, qubit_xz, fn, case):
        rho, sigma, alpha = _malformed(case, qubit_xz)
        expected = DomainError if case == "order" else STATE_ERRORS[case]
        with pytest.raises(expected):
            MALFORMED_CALLS[fn](rho, sigma, alpha, qubit_xz)


class TestEigensolveCounts:
    """Validation of rho, sigma's decomposition (which also validates it)
    and the sandwiched state's decomposition: at most three per call.  The
    Fisher information reads sigma's decomposition from its generator."""

    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    def test_at_most_three_per_call(self, eigensolves, alpha):
        G = random_gns_generator(np.random.default_rng(31), 3, min_sigma_eig=0.15)
        rho = mc.random_density(np.random.default_rng(32), 3, floor=0.1)
        calls = [
            lambda: dv.sandwiched_renyi(rho, G.sigma, alpha),
            lambda: dv.relative_entropy(rho, G.sigma),
            lambda: dv.functional_derivative(rho, G.sigma, alpha),
            lambda: dv.fisher_information(rho, alpha, G),
        ]
        assert [eigensolves(c) for c in calls] == [3, 3, 3, 2]
