import numpy as np
import pytest

import renyiflow.divergence as dv
import renyiflow.flow as flow
import renyiflow.matcore as mc
import renyiflow.noncomm_ops as nco
from renyiflow.balance_check import carlen_maas_counterexample
from renyiflow.errors import DomainError, SingularityError, StructuralError, ValidationError
from renyiflow.generator import (
    Generator,
    JumpTerms,
    build_gns,
    depolarizing_generator,
    qubit_xz_generator,
    random_gns_generator,
)

from .oracles import (
    gap_direction_by_kron,
    metric_tensor_by_term,
    nc_gradient,
    norm_functional_by_state,
    propagate_by_expm,
    trapezoid_integral,
)


def named_generator(name):
    if name == "qubit-xz":
        return qubit_xz_generator()
    n = int(name.split("-")[1])
    return random_gns_generator(np.random.default_rng(4000 + n), n, min_sigma_eig=0.15)


class TestIntegrate:
    def test_stationary_initial_state(self, qubit_xz):
        traj = flow.integrate(qubit_xz, qubit_xz.sigma, 2.0, 0.01, store_every=20)
        for s in traj.states:
            assert np.linalg.norm(s - qubit_xz.sigma) <= 1e-9

    @pytest.mark.parametrize("t_end, dt", [
        (np.nan, 0.01), (-1.0, 0.01), (np.inf, 0.01), (1.0, np.nan), (1.0, np.inf), (1.0, 0.0),
    ])
    def test_rejects_negative_or_non_finite_times(self, qubit_xz, t_end, dt):
        with pytest.raises(DomainError, match="finite"):
            flow.integrate(qubit_xz, qubit_xz.sigma, t_end, dt)

    def test_rejects_step_count_beyond_exact_integers(self, qubit_xz):
        # t_end/dt = 1e300 steps: rejected before any grid is allocated
        with pytest.raises(DomainError, match="2\\*\\*53"):
            flow.integrate(qubit_xz, qubit_xz.sigma, 1.0, 1e-300)

    def test_rejects_state_of_another_size(self, qubit_xz):
        with pytest.raises(StructuralError, match="does not match"):
            flow.integrate(qubit_xz, np.eye(3) / 3.0, 1.0, 0.1)

    def test_depolarizing_closed_form(self, depol, rng):
        rho0 = mc.random_density(rng, 2, floor=0.1)
        dt = flow.suggested_dt(depol)
        traj = flow.integrate(depol, rho0, 3.0 / 0.7, dt, store_every=5)
        sig = depol.sigma
        worst = max(
            np.linalg.norm(s - (sig + np.exp(-0.7 * t) * (rho0 - sig)))
            for t, s in zip(traj.times, traj.states)
        )
        assert worst <= 1e-12

    def test_convergence_to_stationary(self, rng):
        G = random_gns_generator(rng, 3, min_sigma_eig=0.15)
        lam = G.gap.value
        rho0 = mc.random_density(rng, 3, floor=0.1)
        traj = flow.integrate(G, rho0, 20.0 / lam, flow.suggested_dt(G), store_every=10**9)
        assert mc.trace_norm(traj.final() - G.sigma) <= 1e-6

    def test_projections_hold_along_path(self, qubit_xz, rng):
        rho0 = mc.random_density(rng, 2)
        traj = flow.integrate(qubit_xz, rho0, 1.0, 0.005, store_every=10)
        for s in traj.states:
            assert abs(np.trace(s).real - 1.0) <= 1e-12
            assert np.linalg.norm(s - s.conj().T) <= 1e-14
            assert np.linalg.eigvalsh(s)[0] >= -1e-8

    def test_bad_dt(self, depol):
        with pytest.raises(DomainError):
            flow.integrate(depol, depol.sigma, 1.0, -0.1)
        with pytest.raises(DomainError):
            flow.integrate(depol, depol.sigma, 1.0, 0.1, store_every=0)

    def test_sampling_grid(self, qubit_xz):
        # every store_every-th multiple of dt strictly before the last grid
        # point, then t_end itself
        traj = flow.integrate(qubit_xz, qubit_xz.sigma, 1.0, 0.03, store_every=4)
        assert traj.times.tolist() == [0.0] + [k * 0.03 for k in range(4, 33, 4)] + [1.0]
        traj = flow.integrate(qubit_xz, qubit_xz.sigma, 1.0, 0.03, store_every=10**9)
        assert traj.times.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("name", ["qubit-xz", "gns-2", "gns-3", "gns-4", "gns-8"])
    def test_matches_expm_oracle(self, name):
        G = named_generator(name)
        rho0 = mc.random_density(np.random.default_rng(23), G.n, floor=0.05)
        t_end, dt = 2.0 / G.gap.value, flow.suggested_dt(G)
        traj = flow.integrate(G, rho0, t_end, dt, store_every=int(t_end / dt / 12))
        ref = propagate_by_expm(G, rho0, traj.times)
        assert len(traj.states) > 10
        assert max(np.linalg.norm(s - r) for s, r in zip(traj.states, ref)) <= 1e-12

    def test_coarse_and_fine_grids_agree(self, qubit_xz, rng):
        rho0 = mc.random_density(rng, 2, floor=0.1)
        coarse = flow.integrate(qubit_xz, rho0, 4.0, 0.4).final()
        fine = flow.integrate(qubit_xz, rho0, 4.0, 0.001).final()
        assert np.linalg.norm(coarse - fine) <= 1e-12

    def test_single_mode_decay(self, rng):
        # a perturbation in the gap eigenspace decays as e^(-lambda t) and
        # its chi-square divergence at the sharp rate 2 lambda
        G = random_gns_generator(rng, 3, min_sigma_eig=0.15)
        lam = G.gap.value
        X = nco.sandwich_pow(G.sigma_dec, 1.0, flow.gap_eigen_direction(G))
        assert np.linalg.norm(G.apply_Ldag(X) + lam * X) <= 1e-10 * np.linalg.norm(X)
        smin = float(np.linalg.eigvalsh(G.sigma)[0])
        delta = 0.5 * smin * X / float(np.max(np.abs(np.linalg.eigvalsh(X))))
        rho0 = mc.hermitize(G.sigma + delta)
        traj = flow.integrate(G, rho0, 3.0 / lam, flow.suggested_dt(G), store_every=10)
        chi0 = dv.chi2_divergence(rho0, G.sigma)
        for t, s in zip(traj.times, traj.states):
            assert np.linalg.norm(s - G.sigma - np.exp(-lam * t) * delta) <= 1e-12
            assert dv.chi2_divergence(s, G.sigma) == pytest.approx(np.exp(-2.0 * lam * t) * chi0, rel=1e-9)


class TestBlockedPropagation:
    @pytest.mark.parametrize("name", ["gns-2", "gns-4", "gns-8"])
    def test_long_horizon_matches_expm_oracle(self, name):
        G = named_generator(name)
        rho0 = mc.random_density(np.random.default_rng(29), G.n, floor=0.05)
        dt = flow.suggested_dt(G)
        traj = flow.integrate(G, rho0, 2100.5 * dt, dt, store_every=1)
        assert len(traj.times) == 2102
        idx = np.linspace(0, len(traj.times) - 1, 25).round().astype(int)
        ref = propagate_by_expm(G, rho0, traj.times[idx])
        assert max(np.linalg.norm(traj.states[k] - r) for k, r in zip(idx, ref)) <= 1e-12

    @pytest.mark.parametrize("n_full", [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17])
    def test_every_stored_state_near_a_power_of_two(self, qubit_xz, n_full):
        # interval counts around powers of two, with a shorter last interval
        rho0 = mc.random_density(np.random.default_rng(31), 2, floor=0.05)
        traj = flow.integrate(qubit_xz, rho0, (3 * n_full + 1.5) * 0.02, 0.02, store_every=3)
        assert len(traj.times) == n_full + 2
        ref = propagate_by_expm(qubit_xz, rho0, traj.times)
        assert max(np.linalg.norm(s - r) for s, r in zip(traj.states, ref)) <= 1e-13

    @pytest.mark.parametrize("t_end, store_every", [(0.0, 1), (0.05, 1), (1.0, 10**9), (3.0, 1), (40.0, 1)])
    def test_fixed_work_whatever_the_interval_count(self, qubit_xz, monkeypatch, t_end, store_every):
        qubit_xz.spectrum  # its first read hermitizes; read it before counting
        expms, projections = [], []
        real_expm, real_hermitize = flow.expm, mc.hermitize

        def counting_expm(A):
            expms.append(A.shape)
            return real_expm(A)

        def counting_hermitize(A):
            projections.append(A.shape)
            return real_hermitize(A)

        monkeypatch.setattr(flow, "expm", counting_expm)
        monkeypatch.setattr(mc, "hermitize", counting_hermitize)
        traj = flow.integrate(qubit_xz, np.eye(2) / 2.0, t_end, 0.01, store_every=store_every)
        # the half-weighted spectrum gives every state: no expm
        assert expms == []
        # rho0's validation, then one projection of the whole stack
        assert projections == [(2, 2), (len(traj.times), 2, 2)]

    def test_generator_without_spectrum_matches_expm_oracle(self):
        # no sigma, so no half-weighted spectrum: uniform relaxation toward the
        # positive tau takes one expm per stored time
        tau = np.diag([0.2, 0.3, 0.5]).astype(complex)
        G = Generator(None, np.outer(mc.vec(np.eye(3)), mc.vec(tau).conj()) - np.eye(9))
        with pytest.raises(ValidationError, match="stationary state"):
            G.spectrum
        rho0 = mc.random_density(np.random.default_rng(37), 3, floor=0.05)
        traj = flow.integrate(G, rho0, 3.05, 0.1, store_every=3)
        assert len(traj.times) == 12
        ref = propagate_by_expm(G, rho0, traj.times)
        assert max(np.linalg.norm(s - r) for s, r in zip(traj.states, ref)) <= 1e-12

    def test_states_are_one_stack_starting_at_rho0(self, rng):
        G = random_gns_generator(rng, 3, min_sigma_eig=0.15)
        rho0 = mc.random_density(rng, 3, floor=0.05) + 1e-13j * mc.random_hermitian(rng, 3)
        traj = flow.integrate(G, rho0, 1.0, 0.01, store_every=7)
        assert isinstance(traj.states, np.ndarray) and traj.states.flags.c_contiguous
        assert traj.states.shape == (len(traj.times), 3, 3)
        assert np.array_equal(traj.states[0], mc.require_density(rho0))

    def test_suggested_dt_from_the_spectral_norm(self, rng):
        G = random_gns_generator(rng, 4, min_sigma_eig=0.15)
        nrm = float(G.L_svd[0][0])  # the largest singular value, of L and of Ldag
        assert nrm == pytest.approx(np.linalg.norm(G.Ldag_super, 2), rel=1e-14)
        assert flow.suggested_dt(G) == min(0.05, (120.0 * 1e-8) ** 0.25 / nrm**1.25, 1.5 / nrm)


class TestDivergenceTrace:
    def test_order_one_equals_relative_entropy(self, depol, rng):
        rho0 = mc.random_density(rng, 2, floor=0.1)
        traj = flow.integrate(depol, rho0, 1.0, 0.01, store_every=10)
        tab = flow.divergence_trace(traj, [1.0])
        direct = [dv.relative_entropy(s, depol.sigma) for s in traj.states]
        assert np.allclose(tab.D[0], direct, atol=1e-12)

    def test_monotone_decrease(self, rng):
        for trial in range(4):
            G = random_gns_generator(rng, [2, 3][trial % 2], min_sigma_eig=0.15)
            rho0 = mc.random_density(rng, G.n, floor=0.1)
            traj = flow.integrate(G, rho0, 6.0 / G.gap.value, flow.suggested_dt(G), store_every=10)
            tab = flow.divergence_trace(traj, [0.5, 1.0, 2.0, 4.0])
            assert np.max(np.diff(tab.D, axis=1)) <= 1e-9

    def test_fisher_matches_slope_at_midpoints(self, qubit_xz, rng):
        rho0 = mc.random_density(rng, 2, floor=0.2)
        traj = flow.integrate(qubit_xz, rho0, 0.5, 0.001, store_every=1)
        tab = flow.divergence_trace(traj, [0.5, 1.0, 2.0, 4.0])
        for i in range(len(tab.alphas)):
            slopes = -np.diff(tab.D[i]) / np.diff(tab.times)
            mids = 0.5 * (tab.I[i][1:] + tab.I[i][:-1])
            keep = mids > 1e-6 * mids.max()
            rel = np.abs(slopes[keep] - mids[keep]) / mids[keep]
            assert np.max(rel) <= 1e-4

    def test_envelope_order_two(self, rng):
        G = random_gns_generator(rng, 3, min_sigma_eig=0.15)
        lam = G.gap.value
        rho0 = flow.generic_initial_state(G, rng)
        traj = flow.integrate(G, rho0, 8.0 / lam, flow.suggested_dt(G), store_every=20)
        tab = flow.divergence_trace(traj, [2.0])
        env = np.log1p(np.expm1(tab.D[0][0]) * np.exp(-2.0 * lam * tab.times))
        assert np.max(tab.D[0] - env) <= 1e-9


class TestDecayFit:
    def test_depolarizing_rate(self, depol, rng):
        rho0 = mc.random_density(rng, 2, floor=0.1)
        traj = flow.integrate(depol, rho0, 14.0 / 0.7, flow.suggested_dt(depol), store_every=4)
        tab = flow.divergence_trace(traj, [2.0])
        fit = flow.fit_decay_rate(tab.times, tab.D[0], tail_fraction=0.4)
        assert fit.verdict == "ok"
        assert fit.rate == pytest.approx(2.0 * 0.7, rel=0.02)

    def test_rates_agree_across_orders(self, depol, rng):
        rho0 = mc.random_density(rng, 2, floor=0.1)
        traj = flow.integrate(depol, rho0, 14.0 / 0.7, flow.suggested_dt(depol), store_every=4)
        tab = flow.divergence_trace(traj, [1.0, 2.0, 4.0])
        rates = [
            flow.fit_decay_rate(tab.times, tab.D[i], tail_fraction=0.4).rate
            for i in range(3)
        ]
        assert max(rates) / min(rates) <= 1.05

    def test_stationary_trace_declined(self, depol):
        times = np.linspace(0.0, 1.0, 50)
        fit = flow.fit_decay_rate(times, np.full(50, 1e-16))
        assert fit.verdict == "stationary" and fit.rate is None

    def test_floor_truncates_window(self):
        times = np.linspace(0.0, 10.0, 101)
        vals = np.exp(-4.0 * times)
        vals[vals < 1e-14] = 1e-15
        fit = flow.fit_decay_rate(times, vals, tail_fraction=0.9)
        assert fit.verdict == "ok"
        assert fit.rate == pytest.approx(4.0, rel=1e-6)


class TestGradientFlowIdentity:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.0, 20.0, 50.0, 100.0])
    def test_qubit_xz_ensemble(self, qubit_xz, rng, alpha):
        for _ in range(20):
            rho = mc.random_density(rng, 2, floor=0.1)
            assert flow.gradient_flow_residual(qubit_xz, rho, alpha) <= 1e-8

    @pytest.mark.parametrize("alpha", [8.0, 10.0, 20.0])
    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_random_gns_at_high_order(self, n, alpha):
        # the derivative is read in the multiplier's frame, never formed in
        # the standard basis and mapped back, so high orders keep rounding level
        G = random_gns_generator(np.random.default_rng(n), n, min_sigma_eig=0.15)
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            rho = mc.random_density(rng, n, floor=0.1)
            assert flow.gradient_flow_residual(G, rho, alpha) <= 1e-8

    def test_reads_no_standard_basis_derivative(self, qubit_xz, rng, monkeypatch):
        def forbidden(self):
            raise AssertionError("derivative formed in the standard basis")

        monkeypatch.setattr(nco.SandwichedState, "derivative", forbidden)
        for alpha in (0.5, 1.0, 3.0):
            assert flow.gradient_flow_residual(qubit_xz, mc.random_density(rng, 2, floor=0.1), alpha) <= 1e-8

    def test_relative_entropy_flow(self, rng):
        # order one: the drift matches the entropy-gradient flux
        G = random_gns_generator(rng, 3, min_sigma_eig=0.15)
        for _ in range(10):
            rho = mc.random_density(rng, 3, floor=0.1)
            assert flow.gradient_flow_residual(G, rho, 1.0) <= 1e-8

    def test_stationary_state_absolute(self, qubit_xz):
        assert flow.gradient_flow_residual(qubit_xz, qubit_xz.sigma, 1.5) <= 1e-12


class TestMetricTensor:
    def test_positive_definite(self, qubit_xz, rng):
        for _ in range(10):
            rho = mc.random_density(rng, 2, floor=0.1)
            nu = mc.random_traceless_hermitian(rng, 2)
            assert flow.metric_tensor(qubit_xz, rho, 1.5, nu, nu) > 0.0

    def test_symmetric(self, qubit_xz, rng):
        rho = mc.random_density(rng, 2, floor=0.1)
        nu1 = mc.random_traceless_hermitian(rng, 2)
        nu2 = mc.random_traceless_hermitian(rng, 2)
        g12 = flow.metric_tensor(qubit_xz, rho, 2.0, nu1, nu2)
        g21 = flow.metric_tensor(qubit_xz, rho, 2.0, nu2, nu1)
        assert g12 == pytest.approx(g21, abs=1e-10 * max(1.0, abs(g12)))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_energy_identity(self, rng, alpha):
        G = random_gns_generator(rng, 3, min_sigma_eig=0.15)
        rho = mc.random_density(rng, 3, floor=0.1)
        drift = G.apply_Ldag(rho)
        g = flow.metric_tensor(G, rho, alpha, drift, drift)
        Ia = dv.fisher_information(rho, alpha, G)
        assert g == pytest.approx(Ia, abs=1e-8 * max(1.0, Ia))

    def test_requires_traceless(self, qubit_xz, rng):
        rho = mc.random_density(rng, 2, floor=0.1)
        with pytest.raises(ValidationError):
            flow.metric_tensor(qubit_xz, rho, 2.0, np.eye(2), np.eye(2))


class TestMultiplierFamily:
    """The stacked family against the per-term construction it replaced."""

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("name", ["qubit-xz", "gns-2", "gns-3", "gns-4", "gns-6", "gns-8"])
    def test_matches_per_term_oracle(self, name, alpha):
        G = named_generator(name)
        rng = np.random.default_rng(17)
        rho = mc.random_density(rng, G.n, floor=0.1)
        nu1 = mc.random_traceless_hermitian(rng, G.n)
        nu2 = mc.random_traceless_hermitian(rng, G.n)
        assert flow.gradient_flow_residual(G, rho, alpha) <= 1e-8
        ref = metric_tensor_by_term(G, rho, alpha, nu1, nu2)
        assert flow.metric_tensor(G, rho, alpha, nu1, nu2) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_decompositions_independent_of_term_count(self, eigensolves, alpha):
        # one validation of rho and one decomposition of the sandwiched
        # state per family, whatever the number of jump terms (15 at n=4,
        # 63 at n=8); sigma's decomposition comes with the generator, and
        # the residual takes its functional derivative from the same state
        counts = []
        for n in (4, 8):
            G = named_generator(f"gns-{n}")
            rng = np.random.default_rng(n)
            rho = mc.random_density(rng, n, floor=0.1)
            nu = mc.random_traceless_hermitian(rng, n)
            counts.append([
                eigensolves(lambda: flow.gradient_flow_residual(G, rho, alpha)),
                eigensolves(lambda: flow.metric_tensor(G, rho, alpha, nu, nu)),
            ])
        assert counts[0] == counts[1]
        assert counts[0][0] == 2
        assert max(counts[0]) <= 6

    def test_metric_contracts_the_kernel_without_imaging_directions(self, monkeypatch):
        # the flux Gram matrix comes from one contraction over the jump
        # terms, not from the gradient and multiplier applied per direction
        G = named_generator("gns-4")
        rng = np.random.default_rng(4)
        rho = mc.random_density(rng, 4, floor=0.1)
        nu = mc.random_traceless_hermitian(rng, 4)

        def forbidden(*args, **kwargs):
            raise AssertionError("metric_tensor imaged a direction")

        monkeypatch.setattr(nco.RenyiMultiplier, "flux", forbidden)
        monkeypatch.setattr(nco.RenyiMultiplier, "apply", forbidden)
        assert flow.metric_tensor(G, rho, 1.5, nu, nu) > 0.0

    def test_residual_takes_the_fused_flux(self, monkeypatch):
        # gradient, multiplier and divergence run as one flux over the jump
        # stack; the multiplier is never applied to the commutator stack
        G = named_generator("gns-4")
        rho = mc.random_density(np.random.default_rng(5), 4, floor=0.1)

        def forbidden(*args, **kwargs):
            raise AssertionError("gradient_flow_residual applied the multiplier")

        monkeypatch.setattr(nco.RenyiMultiplier, "apply", forbidden)
        assert flow.gradient_flow_residual(G, rho, 1.5) <= 1e-8

    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    def test_family_decomposes_sigma_and_the_sandwiched_state_once(self, eigensolves, alpha):
        G = named_generator("gns-4")
        rho = mc.random_density(np.random.default_rng(3), 4, floor=0.1)

        def sigma_then_family():
            return nco.renyi_multiplier(rho, mc.density_spectrum(G.sigma, strict=True), G.omegas, alpha)

        assert eigensolves(sigma_then_family) == 2
        assert eigensolves(lambda: nco.renyi_multiplier(rho, G.sigma_dec, G.omegas, alpha)) == 1


class TestPublicShapes:
    def test_residual_rejects_wrong_state_dimension(self, qubit_xz, rng):
        rho = mc.random_density(rng, 3, floor=0.1)
        with pytest.raises(StructuralError, match="rho"):
            flow.gradient_flow_residual(qubit_xz, rho, 1.5)

    def test_metric_rejects_wrong_state_dimension(self, qubit_xz, rng):
        rho = mc.random_density(rng, 3, floor=0.1)
        nu = mc.random_traceless_hermitian(rng, 2)
        with pytest.raises(StructuralError, match="rho"):
            flow.metric_tensor(qubit_xz, rho, 1.5, nu, nu)

    @pytest.mark.parametrize("which", ["nu1", "nu2"])
    def test_metric_rejects_wrong_direction_dimension(self, qubit_xz, rng, which):
        rho = mc.random_density(rng, 2, floor=0.1)
        nus = {"nu1": mc.random_traceless_hermitian(rng, 2), "nu2": mc.random_traceless_hermitian(rng, 2)}
        nus[which] = mc.random_traceless_hermitian(rng, 3)
        with pytest.raises(StructuralError, match=which):
            flow.metric_tensor(qubit_xz, rho, 1.5, nus["nu1"], nus["nu2"])


class TestTermlessGenerators:
    """Generators without a jump-term decomposition have no gradient."""

    @pytest.fixture(params=["depolarizing", "carlen-maas"])
    def termless(self, request, counterexample):
        if request.param == "carlen-maas":
            return counterexample
        return depolarizing_generator(1.0, np.diag([0.2, 0.3, 0.5]).astype(complex))

    def test_residual_raises_validation(self, termless, rng):
        rho = mc.random_density(rng, termless.n, floor=0.1)
        with pytest.raises(ValidationError, match="no jump-term decomposition"):
            flow.gradient_flow_residual(termless, rho, 1.5)

    def test_metric_raises_validation(self, termless, rng):
        rho = mc.random_density(rng, termless.n, floor=0.1)
        nu = mc.random_traceless_hermitian(rng, termless.n)
        with pytest.raises(ValidationError):
            flow.metric_tensor(termless, rho, 1.5, nu, nu)

    def test_gradient_raises_validation(self, termless):
        with pytest.raises(ValidationError, match="no jump-term decomposition"):
            nc_gradient(termless, np.eye(termless.n))


def weights_scaled(G, factor):
    """The generator with every jump weight multiplied by `factor`."""
    return build_gns(G.sigma, JumpTerms.of(G.terms.V * np.sqrt(factor), G.terms.omega))


class TestGapDirection:
    """The gap direction is the projection of one fixed matrix onto the gap
    eigenspace, so neither the eigensolver's phases nor its basis of a
    degenerate gap can move it."""

    @pytest.mark.parametrize("n, seed", [(2, 1), (2, 3), (3, 2), (3, 3), (4, 1), (4, 2)])
    def test_initial_state_stable_under_weight_perturbation(self, n, seed):
        G = random_gns_generator(np.random.default_rng(seed), n, min_sigma_eig=0.15)
        rho0 = flow.generic_initial_state(G, np.random.default_rng(0))
        moved = flow.generic_initial_state(weights_scaled(G, 1.0 + 1e-14), np.random.default_rng(0))
        assert np.linalg.norm(moved - rho0) <= 1e-10 * np.linalg.norm(rho0)

    @pytest.mark.parametrize("n, seed", [(2, 1), (3, 2), (4, 2)])
    def test_perturbed_draws_include_degenerate_gaps(self, n, seed):
        G = random_gns_generator(np.random.default_rng(seed), n, min_sigma_eig=0.15)
        lam = G.gap.value
        assert np.sum(np.abs(G.gap.spectrum - lam) <= flow.GAP_CLUSTER_RTOL * lam) == 2

    def test_gap_then_direction_is_one_eigensolve(self, eigensolves):
        G = random_gns_generator(np.random.default_rng(6), 3, min_sigma_eig=0.15)
        assert eigensolves(lambda: (G.gap, flow.gap_eigen_direction(G))) == 1

    @pytest.mark.parametrize("name", ["qubit-xz", "gns-2", "gns-3", "gns-4", "gns-6", "gns-8",
                                      "carlen-maas", "depolarizing"])
    def test_matches_standard_basis_projection(self, name):
        # the projection made in sigma's eigenbasis, against the kron form
        # of the quarter-power weighting in the standard basis
        if name == "carlen-maas":
            G = carlen_maas_counterexample()
        elif name == "depolarizing":
            G = depolarizing_generator(0.7, mc.random_density(np.random.default_rng(9), 3, floor=0.1))
        else:
            G = named_generator(name)
        ref = gap_direction_by_kron(G, flow.GAP_CLUSTER_RTOL)
        assert np.linalg.norm(flow.gap_eigen_direction(G) - ref) <= 1e-12

    @pytest.mark.parametrize("name", ["qubit-xz", "gns-2", "gns-3", "gns-4"])
    def test_direction_is_gap_eigenvector(self, name):
        G = named_generator(name)
        nu = flow.gap_eigen_direction(G)
        assert np.linalg.norm(nu - nu.conj().T) == 0.0
        assert np.linalg.norm(-G.apply_L(nu) - G.gap.value * nu) <= 1e-9


class TestPoincare:
    def test_equality_at_gap_eigenvector(self, qubit_xz):
        nu = flow.gap_eigen_direction(qubit_xz)
        chk = flow.poincare_check(qubit_xz, nu)
        assert chk.passed
        assert chk.lhs == pytest.approx(chk.rhs, abs=1e-9 * max(1.0, chk.rhs))

    def test_random_constrained(self, qubit_xz, rng):
        for _ in range(200):
            A = mc.random_complex(rng, 2)
            A = A - np.trace(qubit_xz.sigma @ A) * np.eye(2)
            assert flow.poincare_check(qubit_xz, A).passed

    def test_zero_argument(self, qubit_xz):
        chk = flow.poincare_check(qubit_xz, np.zeros((2, 2)))
        assert chk.passed and chk.lhs == 0.0 and chk.rhs == 0.0

    def test_projection_warns(self, qubit_xz):
        with pytest.warns(UserWarning, match="projecting"):
            flow.poincare_check(qubit_xz, np.eye(2) + 0.1 * np.array([[1, 0], [0, -1.0]]))


class TestFisherTwoBound:
    def test_at_stationary_state(self, qubit_xz):
        chk = flow.fisher2_bound_check(qubit_xz, qubit_xz.sigma)
        assert chk.passed

    def test_random_ensemble(self, rng):
        for trial in range(3):
            G = random_gns_generator(rng, [2, 3, 4][trial], min_sigma_eig=0.1)
            for _ in range(100):
                rho = mc.random_density(rng, G.n, floor=0.02)
                assert flow.fisher2_bound_check(G, rho).passed

    def test_near_stationary_expansion(self, qubit_xz, rng):
        nu = mc.random_traceless_hermitian(rng, 2)
        nu /= np.linalg.norm(nu)
        for eps in (1e-2, 1e-3):
            rho = qubit_xz.sigma + eps * nu
            chk = flow.fisher2_bound_check(qubit_xz, rho)
            assert chk.passed
            assert chk.lhs >= chk.rhs > 0.0


@pytest.fixture(scope="module")
def report(qubit_xz):
    return flow.lsi_constants(qubit_xz, n_starts=8, seed=1)


class TestLsiConstants:

    def test_brackets(self, report):
        assert report.violations() == []
        assert report.K_lower <= report.K_est <= report.K_upper + 1e-6
        assert report.K2_est >= report.K2_lower - 1e-6
        assert report.kappa1_est >= report.kappa2_est - 1e-6
        assert report.kappa1_est == report.K_est / 2.0

    def test_t2_bound_formula(self, report):
        lam, smin = report.lambda_L, 0.5
        eps = np.exp(-1.0)
        expected = max(0.0, np.log(1.0 / (smin * eps**2)) / (2.0 * lam))
        assert report.t2_bound(eps) == pytest.approx(expected, abs=1e-12)
        assert report.t2_bound(10.0) == 0.0

    def test_non_primitive_rejected(self):
        from renyiflow.generator import JumpTerms, build_gns

        SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        G = build_gns(np.eye(2) / 2.0, JumpTerms.of([SZ], [0.0]))
        with pytest.raises(ValidationError):
            flow.lsi_constants(G)

    def test_negative_start_count_rejected(self, qubit_xz):
        with pytest.raises(DomainError, match="n_starts"):
            flow.lsi_constants(qubit_xz, n_starts=-1)

    def test_programming_error_propagates(self, qubit_xz, monkeypatch):
        # only package and LAPACK errors are scored as +inf; anything else
        # is a bug and must surface
        def objectives(G, denom_floor=1e-8):
            def broken(rho):
                raise TypeError("bug in an objective")
            return {"K": broken, "K2": broken, "kappa2": broken}

        monkeypatch.setattr(flow, "_lsi_objectives", objectives)
        with pytest.raises(TypeError, match="bug in an objective"):
            flow.lsi_constants(qubit_xz, n_starts=1, maxiter=5)

    def test_caught_failures_are_counted(self, qubit_xz, monkeypatch):
        real = flow._lsi_objectives

        def objectives(G, denom_floor=1e-8):
            fns = real(G, denom_floor)

            def singular(rho):
                raise SingularityError("objective hit a singular state")
            return {**fns, "kappa2": singular}

        monkeypatch.setattr(flow, "_lsi_objectives", objectives)
        rep = flow.lsi_constants(qubit_xz, n_starts=1, maxiter=5)
        assert 0 < rep.n_failed_evaluations < rep.n_evaluations
        assert rep.kappa2_est == np.inf
        assert "n_failed_evaluations" not in rep.as_dict()

    def test_thermal_generator_with_nonzero_frequencies(self):
        # the estimators must stay bracketed when the modular structure is
        # nontrivial (raising/lowering terms at +-log 3)
        from renyiflow.generator import build_gns, eigen_jump_terms

        sigma = np.diag([0.25, 0.75]).astype(complex)
        G = build_gns(sigma, eigen_jump_terms(mc.density_spectrum(sigma, strict=True)), label="thermal")
        rep = flow.lsi_constants(G, n_starts=6, seed=2)
        assert rep.violations() == []
        assert rep.K_est <= rep.lambda_L + 1e-6
        assert rep.kappa2_est < rep.kappa1_est  # strict for this model


class TestLsiObjectiveCost:
    def test_objectives_read_sigma_from_the_generator(self, rng, eigensolves, monkeypatch):
        # every ratio: rho's strict validation and one sandwiched state,
        # whose one decomposition gives both numerator and denominator
        # (K = I/2D, kappa = (alpha Z/4) I/Ent)
        G = random_gns_generator(rng, 3, min_sigma_eig=0.15)
        rho = mc.random_density(rng, 3, floor=0.1)
        objectives = flow._lsi_objectives(G)
        counts = {name: eigensolves(lambda: fn(rho)) for name, fn in objectives.items()}
        assert counts == {"K": 2, "K2": 2, "kappa2": 2}
        states = []
        real = nco.sandwiched_state
        monkeypatch.setattr(nco, "sandwiched_state", lambda *args: states.append(args) or real(*args))
        for name, fn in objectives.items():
            states.clear()
            fn(rho)
            assert len(states) == 1, name

    def test_one_descent_per_start_for_three_ratios(self, qubit_xz, monkeypatch):
        # K, K2 and kappa2 are descended from n_starts + 3 starts each;
        # kappa1 = K/2 is read off K
        calls = []
        real = flow.minimize
        monkeypatch.setattr(flow, "minimize", lambda *a, **k: calls.append(1) or real(*a, **k))
        rep = flow.lsi_constants(qubit_xz, n_starts=1, maxiter=5)
        assert len(calls) == 3 * (1 + 3)
        assert rep.kappa1_est == rep.K_est / 2.0


class TestComparisonConstants:
    def test_equal_orders_give_zero_delay(self, rng):
        sigma = mc.random_density(rng, 2, floor=0.2)
        smin = np.linalg.eigvalsh(sigma)[0]
        dec = mc.density_spectrum(sigma, strict=True)
        _, _, T = flow.comparison_constants(2.0, 2.0, smin**2 / 8.0, dec, [0.0], 1.0)
        assert T == 0.0

    def test_maximally_mixed_closed_form(self):
        dec = mc.density_spectrum(np.eye(2) / 2.0, strict=True)
        eps = 0.5**2 / 8.0  # lambda_min^2 / 8
        Lam, eta, _ = flow.comparison_constants(2.0, 4.0, eps, dec, [0.0, 0.0], 1.0)
        assert Lam == pytest.approx(np.exp(3.0), rel=1e-12)
        assert eta == pytest.approx(2.0 * np.exp(-1.5) / (1.0 + np.exp(3.0)), rel=1e-12)
        assert eta == pytest.approx(0.02116, abs=5e-6)

    def test_delay_scales_with_log_ratio(self):
        dec = mc.density_spectrum(np.eye(2) / 2.0, strict=True)
        eps = 0.5**2 / 8.0
        _, _, T1 = flow.comparison_constants(2.0, 3.0, eps, dec, [0.0], 1.0)
        _, _, T2 = flow.comparison_constants(2.0, 5.0, eps, dec, [0.0], 1.0)
        assert T2 == pytest.approx(2.0 * T1, rel=1e-12)

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            flow.comparison_constants(2.0, 3.0, 0.2, mc.density_spectrum(np.eye(2) / 2.0), [0.0], 1.0)


# The averaging weight of the comparison proof's two-parameter order change.
# Nothing in the package evaluates it, so it lives here beside its lemma.


def weight_function(s: float, beta: float) -> float:
    """Piecewise-linear averaging weight of the two-parameter order change.

    A symmetric probability density on [0, 1] with plateau value beta for
    beta <= 2 and beta/(beta-1) for beta >= 2.
    """
    if beta <= 1.0:
        raise DomainError(f"beta={beta} must exceed 1")
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"s={s} outside [0, 1]")
    pref = beta**2 / (2.0 * (beta - 1.0))
    return float(pref * (min(s, 2.0 * (beta - 1.0) / beta - s) - max(-s, s - 2.0 / beta)))


def weight_function_knots(beta: float) -> tuple[float, float, float]:
    """Unit-level crossings (s1, s2 = 1 - s1) and the plateau maximum."""
    if beta <= 1.0:
        raise DomainError(f"beta={beta} must exceed 1")
    s1 = (beta - 1.0) / beta**2
    fmax = beta if beta <= 2.0 else beta / (beta - 1.0)
    return float(s1), float(1.0 - s1), float(fmax)


class TestWeightFunction:
    def test_knots_beta_two(self):
        s1, s2, fmax = weight_function_knots(2.0)
        assert (s1, s2, fmax) == (0.25, 0.75, 2.0)

    def test_knots_beta_three(self):
        s1, s2, fmax = weight_function_knots(3.0)
        assert s1 == pytest.approx(2.0 / 9.0)
        assert fmax == pytest.approx(1.5)

    @pytest.mark.parametrize("beta", [1.1, 1.5, 2.0, 3.0, 10.0])
    def test_normalization(self, beta):
        total = trapezoid_integral(lambda s: weight_function(s, beta), 0.0, 1.0, 10001)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_symmetry_and_max(self, beta):
        s1, _, fmax = weight_function_knots(beta)
        grid = np.linspace(0.0, 1.0, 501)
        vals = [weight_function(s, beta) for s in grid]
        assert max(vals) == pytest.approx(fmax, abs=1e-9)
        for s in grid:
            assert weight_function(s, beta) == pytest.approx(
                weight_function(1.0 - s, beta), abs=1e-12
            )
        assert weight_function(s1, beta) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            weight_function(0.5, 1.0)


class TestComparisonFlow:
    def test_stationary_initial_state(self, qubit_xz):
        trace = flow.hypercontractivity_monitor(
            qubit_xz, qubit_xz.sigma, 2.0, 4.0, eta=0.02, K=1.0
        )
        assert np.max(np.abs(trace.F)) <= 1e-12

    @pytest.mark.parametrize("K, eta", [(-1.0, 0.02), (1.0, -0.02), (0.0, 0.02), (1.0, 0.0)])
    def test_monitor_rejects_nonpositive_rates(self, qubit_xz, K, eta):
        # a non-positive K * eta makes the delay time negative or infinite
        with pytest.raises(DomainError, match="must be positive"):
            flow.hypercontractivity_monitor(qubit_xz, qubit_xz.sigma, 2.0, 4.0, eta=eta, K=K)

    def test_monitor_monotone_and_comparison_holds(self, qubit_xz, rng):
        w = mc.random_density(rng, 2, floor=0.05)
        rho0 = mc.hermitize(0.8 * qubit_xz.sigma + 0.2 * w)
        rep = flow.comparison_check(qubit_xz, rho0, 2.0, 4.0)
        assert rep.passed
        assert rep.max_forward_increase <= 1e-8
        assert rep.D_end <= rep.D_start + 1e-9

    def test_pinsker_bound_enforced_where_the_divergence_rounds_to_zero(self, qubit_xz):
        # ||rho0 - sigma||_F^2 / 2 bounds D0 from below without a
        # decomposition; at this distance the computed D0 is rounding noise
        rho0 = qubit_xz.sigma + 1e-9 * np.diag([1.0, -1.0])
        assert nco.sandwiched_state(rho0, qubit_xz.sigma_dec, 1.0).divergence() <= 1e-30
        with pytest.raises(ValidationError, match="initial relative entropy 1.000e-18 exceeds"):
            flow.comparison_check(qubit_xz, rho0, 2.0, 3.0, eps=1e-19)
        assert flow.comparison_check(qubit_xz, rho0, 2.0, 3.0, eps=1e-17).passed

    def test_entropy_ball_enforced(self, qubit_xz, rng):
        far = mc.random_density(rng, 2)
        if dv.relative_entropy(far, qubit_xz.sigma) > 0.5**2 / 8.0:
            with pytest.raises(ValidationError, match="relative entropy"):
                flow.comparison_check(qubit_xz, far, 2.0, 4.0)


class TestComparisonSingleIntegration:
    @pytest.fixture()
    def case(self, rng):
        G = random_gns_generator(rng, 3, min_sigma_eig=0.5)
        w = mc.random_density(rng, 3, floor=0.05)
        return G, mc.hermitize(0.9 * G.sigma + 0.1 * w)

    def test_end_divergence_is_that_of_the_integrated_flow(self, case):
        G, rho0 = case
        rep = flow.comparison_check(G, rho0, 2.0, 4.0)
        dt = flow.suggested_dt(G)
        # the grid of the monitor
        store = max(1, int(np.ceil(rep.T / dt / flow.MONITOR_SAMPLES)))
        final = flow.integrate(G, rho0, rep.T, dt, store_every=store).final()
        assert rep.D_end == dv.sandwiched_renyi(final, G.sigma, 4.0).value

    def test_integrates_once(self, case, monkeypatch):
        G, rho0 = case
        calls = []
        real = flow.integrate

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(flow, "integrate", counting)
        rep = flow.comparison_check(G, rho0, 2.0, 3.0)
        assert calls == [rep.T]

    def test_validates_and_decomposes_each_state_once(self, case, eigensolves, validations):
        G, rho0 = case
        G.gap  # the guaranteed K reads the cached gap
        run = lambda: flow.comparison_check(G, rho0, 2.0, 4.0)  # noqa: E731
        # integrate validates rho0 and screens the stored states by one
        # Cholesky factorization, no eigensolve; two states of rho0, one per
        # scalar order, give D0 and D_start; the monitor reads spectrum
        # values; the screened final state is decomposed for D_end
        assert validations(run) == 1
        assert eigensolves(run) == 5

    def test_start_divergence_is_that_of_rho0(self, case):
        G, rho0 = case
        rep = flow.comparison_check(G, rho0, 2.0, 4.0)
        assert rep.D_start == pytest.approx(dv.sandwiched_renyi(rho0, G.sigma, 2.0).value, rel=1e-13)

    def test_entropy_ball_is_checked_after_integration(self, qubit_xz, monkeypatch):
        far = np.diag([0.9, 0.1]).astype(complex)
        calls = []
        real = flow.integrate
        monkeypatch.setattr(flow, "integrate", lambda *a, **k: calls.append(a[2]) or real(*a, **k))
        with pytest.raises(ValidationError, match="relative entropy"):
            flow.comparison_check(qubit_xz, far, 2.0, 4.0)
        assert len(calls) == 1

    def test_batched_functional_matches_per_state(self, rng):
        G = random_gns_generator(rng, 4, min_sigma_eig=0.3)
        rho0 = mc.random_density(rng, 4, floor=0.05)
        traj = flow.integrate(G, rho0, 0.5, flow.suggested_dt(G), store_every=10)
        beta = 1.5 + 2.5 * traj.times / traj.times[-1]
        Z = [nco.sandwiched_state(s, G.sigma_dec, b).Z for s, b in zip(traj.states, beta)]
        F = np.log(Z) / beta
        ref = np.array([norm_functional_by_state(s, G.sigma, b) for s, b in zip(traj.states, beta)])
        assert len(F) == len(traj.states) > 5
        np.testing.assert_allclose(F, ref, rtol=1e-13, atol=0.0)

    def test_equal_orders_give_one_sample(self, case):
        G, rho0 = case
        rep = flow.comparison_check(G, rho0, 2.5, 2.5)
        assert rep.T == 0.0 and rep.max_forward_increase == 0.0
        trace = flow.hypercontractivity_monitor(G, rho0, 2.5, 2.5, eta=rep.eta, K=rep.K)
        assert trace.times.tolist() == [0.0] and trace.beta.tolist() == [2.5]
        assert trace.F[0] == pytest.approx(norm_functional_by_state(rho0, G.sigma, 2.5), rel=1e-13)
        assert trace.max_forward_increase == 0.0
        assert np.array_equal(trace.final, mc.hermitize(rho0))


class TestEnvelopeConstants:
    def test_low_orders_have_no_delay(self, qubit_xz, rng):
        w = mc.random_density(rng, 2, floor=0.05)
        rho0 = mc.hermitize(0.8 * qubit_xz.sigma + 0.2 * w)
        env = flow.decay_envelope_constants(qubit_xz, 1.0, 0.5**2 / 8.0, rho0)
        assert env.tau == 0.0

    def test_envelope_dominates_trace(self, qubit_xz, rng):
        w = mc.random_density(rng, 2, floor=0.05)
        rho0 = mc.hermitize(0.85 * qubit_xz.sigma + 0.15 * w)
        lam = qubit_xz.gap.value
        traj = flow.integrate(qubit_xz, rho0, 3.0, flow.suggested_dt(qubit_xz), store_every=20)
        tab = flow.divergence_trace(traj, [0.5, 1.0, 2.0, 4.0])
        for i, a in enumerate(tab.alphas):
            env = flow.decay_envelope_constants(qubit_xz, a, 0.5**2 / 8.0, rho0)
            D0 = tab.D[i][0]
            bound = env.C * D0 * np.exp(-2.0 * lam * tab.times) * (1.0 + 1e-6)
            sel = tab.times >= env.tau
            assert np.all(tab.D[i][sel] <= bound[sel] + 1e-12)
