import numpy as np
import pytest

import renyiflow.balance_check as bc
import renyiflow.matcore as mc
from renyiflow.generator import (
    JumpTerms,
    build_gns,
    depolarizing_generator,
    eigen_jump_terms,
    gns_selfadjoint_residual,
    modular_commutator_residual,
    random_gns_generator,
)

from .oracles import (
    L_super,
    apply_L,
    block_cases,
    carlen_maas_by_composition,
    dense_srd_residual,
    gns_residual_by_kron,
    kms_residual_by_kron,
    modular_commutator_by_kron,
    off_block_perturbed,
    srd_residual_by_kron,
    symmetrized_generator_by_kron,
)

# first verified run of the order sweep on the stock counterexample,
# cross-checked against the kernel-composition oracle; regression-pinned
FIG1_SNAPSHOT = {
    0.25: 0.0760762461469725,
    0.5: 0.04676349632100805,
    1.0: 0.014668977251963592,
    1.5: 0.004402235811781352,
    3.0: 0.0038778646735416248,
    4.0: 0.005630695394635205,
    6.0: 0.007268837631054095,
}


class TestCounterexampleConstruction:
    def test_stationary_state(self, counterexample, cm_sigma):
        assert np.linalg.norm(counterexample.apply_Ldag(cm_sigma)) <= 1e-12

    def test_channel_second_eigenvalue(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        phi = np.array([1.0, 2.0]) / np.sqrt(5.0)
        K1, K2 = np.outer(psi, [1, 0]), np.outer(phi, [0, 1])
        S = mc.superoperator_of_map(
            lambda A: K1 @ A @ K1.conj().T + K2 @ A @ K2.conj().T, 2
        )
        mags = sorted(np.abs(np.linalg.eigvals(S)), reverse=True)
        assert mags[0] == pytest.approx(1.0, abs=1e-12)
        assert mags[1] == pytest.approx(0.3, abs=1e-12)

    def test_primitive_with_unital_generator(self, counterexample):
        assert counterexample.primitivity.primitive
        assert counterexample.primitivity.kernel_dim == 1
        assert np.linalg.norm(apply_L(counterexample, np.eye(2))) <= 1e-12

    def test_observable_side_is_the_composition(self, counterexample):
        # built from its state-space map, the generator matches Kt K - I
        # composed on the observable side
        ref = carlen_maas_by_composition()
        assert np.linalg.norm(L_super(counterexample) - ref) <= 1e-12 * np.linalg.norm(ref)


class TestKmsCheck:
    def test_gns_generators_pass(self, qubit_xz, depol, rng):
        for G in (qubit_xz, depol, random_gns_generator(rng, 3, min_sigma_eig=0.1)):
            assert bc.check_kms(G) <= 1e-10

    def test_counterexample_passes(self, counterexample):
        assert bc.check_kms(counterexample) <= 1e-10


class TestGnsCheck:
    def test_stock_generators_pass(self, qubit_xz, depol):
        assert bc.check_gns(qubit_xz) <= 1e-10
        assert bc.check_gns(depol) <= 1e-10

    def test_random_eigen_generator_passes(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        G = build_gns(sigma, eigen_jump_terms(mc.density_spectrum(sigma, strict=True)))
        assert bc.check_gns(G) <= 1e-10

    def test_counterexample_fails(self, counterexample):
        assert bc.check_gns(counterexample) > 1e-3


class TestSrdCheck:
    def test_gns_generator_passes_all_orders(self, depol):
        res = bc.check_srd(depol, [0.5, 1.0, 2.0, 4.0])
        assert all(r <= 1e-9 for r in res.values())

    def test_counterexample_only_at_two(self, counterexample):
        res = bc.check_srd(counterexample, [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
        assert res[2.0] <= 1e-9
        for a, r in res.items():
            if a != 2.0:
                assert r >= 1e-3

    def test_order_one_equals_bkm(self, counterexample):
        assert bc.srd_residual(counterexample, 1.0) == pytest.approx(
            bc.check_bkm(counterexample), abs=1e-10
        )

    def test_nonpositive_orders_skipped(self, depol):
        with pytest.warns(UserWarning, match="skipping"):
            res = bc.check_srd(depol, [-1.0, 2.0])
        assert list(res) == [2.0]


REPORT_ORDERS = pytest.mark.parametrize("alphas, orders", [
    (bc.DEFAULT_ALPHAS, 4),
    ((0.5, 1.0, 1.0, 2.0), 3),
    ((0.5, 2.0), 3),  # BKM adds order 1
], ids=["default", "repeated-order", "without-order-one"])


class TestBalanceReportCost:
    """One trace norm per distinct order, plus the generator's own, each one
    SVD per block of `G.blocks`."""

    @pytest.fixture()
    def svds(self, monkeypatch):
        """The shape of each matrix `np.linalg.svd` is called on."""
        shapes = []
        real = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        return shapes

    @REPORT_ORDERS
    def test_one_svd_per_distinct_order(self, svds, alphas, orders):
        # Carlen-Maas does not commute with the modular operator: one block, all of L
        bc.balance_report(bc.carlen_maas_counterexample(), alphas)
        assert svds == [(4, 4)] * (orders + 1)

    @REPORT_ORDERS
    def test_gns_report_decomposes_only_the_population_block(self, svds, alphas, orders):
        n = 8
        bc.balance_report(random_gns_generator(np.random.default_rng(31), n, min_sigma_eig=0.15), alphas)
        assert svds == [(n, n)] * (orders + 1)

    @pytest.mark.parametrize("alphas", [bc.DEFAULT_ALPHAS, (0.5, 2.0)], ids=["default", "without-order-one"])
    def test_report_matches_the_separate_checks(self, counterexample, alphas):
        report = bc.balance_report(counterexample, alphas)
        assert report.bkm_residual == bc.check_bkm(counterexample)
        assert report.srd_residuals == {float(a): bc.srd_residual(counterexample, float(a)) for a in alphas}
        assert (report.gns_residual, report.kms_residual) == (bc.check_gns(counterexample),
                                                              bc.check_kms(counterexample))


class TestSigmaContext:
    def test_checks_read_sigma_from_the_generator(self, rng, eigensolves):
        # the half powers and the weight kernel come from the generator's
        # decomposition of sigma: no eigensolve per check
        G = random_gns_generator(rng, 3)
        assert eigensolves(lambda: bc.check_kms(G)) == 0
        assert eigensolves(lambda: bc.srd_residual(G, 1.5)) == 0


def _weighting_cases():
    cases = [pytest.param(bc.carlen_maas_counterexample(), id="carlen-maas")]
    sigma = mc.random_density(np.random.default_rng(9), 3, floor=0.1)
    cases.append(pytest.param(depolarizing_generator(0.7, sigma), id="depolarizing-3"))
    for n in (2, 3, 4, 6, 8):
        G = random_gns_generator(np.random.default_rng(9000 + n), n, min_sigma_eig=0.15)
        cases.append(pytest.param(G, id=f"gns-{n}"))
    return cases


class TestEigenbasisWeighting:
    """Every sigma-weighting is a kernel on the generator written in sigma's
    eigenbasis; each residual must match its standard-basis kron form."""

    @pytest.mark.parametrize("G", _weighting_cases())
    def test_gns_residual(self, G):
        assert gns_selfadjoint_residual(G) == pytest.approx(gns_residual_by_kron(G), rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("G", _weighting_cases())
    def test_kms_residual(self, G):
        assert bc.check_kms(G) == pytest.approx(kms_residual_by_kron(G), rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("G", _weighting_cases())
    def test_order_alpha_residuals(self, G):
        for alpha in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 6.0, np.inf):
            ref = srd_residual_by_kron(G, alpha)
            assert bc.srd_residual(G, alpha) == pytest.approx(ref, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("G", _weighting_cases())
    def test_modular_commutator(self, G):
        ref = modular_commutator_by_kron(G)
        assert modular_commutator_residual(G) == pytest.approx(ref, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("G", _weighting_cases())
    def test_symmetrized_spectrum(self, G):
        ref = np.linalg.eigvalsh(mc.hermitize(symmetrized_generator_by_kron(G)))
        assert np.max(np.abs(G.spectrum.values - ref)) <= 1e-13 * ref[-1]

    def test_residuals_distinguish_the_counterexample(self, counterexample):
        # the kernels are not all trivially equal: carlen-maas is KMS but
        # neither GNS nor modular-commuting
        assert bc.check_kms(counterexample) <= 1e-12
        assert gns_selfadjoint_residual(counterexample) > 1e-3
        assert modular_commutator_residual(counterexample) > 1e-3


class TestImplicationChain:
    def test_chain_on_available_generators(self, qubit_xz, depol, counterexample, rng):
        thr = bc.VERDICT_THRESHOLD
        for G in (qubit_xz, depol, counterexample, random_gns_generator(rng, 2)):
            rep = bc.balance_report(G)
            v = rep.verdicts
            if v["gns"]:
                assert v["srd"] and v["bkm"]
            if v["srd"]:
                assert rep.srd_residuals[2.0] <= thr and v["kms"]

    def test_srd_at_two_matches_kms_on_suite(self, qubit_xz, depol, counterexample):
        for G in (qubit_xz, depol, counterexample):
            assert abs(bc.srd_residual(G, 2.0) - bc.check_kms(G)) <= 1e-10

    def test_permutation_invariance(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        terms = eigen_jump_terms(mc.density_spectrum(sigma, strict=True))
        G1 = build_gns(sigma, terms)
        G2 = build_gns(sigma, JumpTerms(terms.V[::-1], terms.omega[::-1], terms.weight[::-1]))
        assert bc.check_gns(G1) == pytest.approx(bc.check_gns(G2), abs=1e-12)
        assert bc.check_kms(G1) == pytest.approx(bc.check_kms(G2), abs=1e-12)
        r1 = bc.check_srd(G1, [0.5, 2.0])
        r2 = bc.check_srd(G2, [0.5, 2.0])
        for a in r1:
            assert r1[a] == pytest.approx(r2[a], abs=1e-11)

    def test_weight_rescaling_keeps_residuals(self, counterexample, rng):
        # verdicts are scale-free: rescaling the generator leaves the
        # normalized residuals unchanged
        sigma = mc.random_density(rng, 3, floor=0.1)
        terms = eigen_jump_terms(mc.density_spectrum(sigma, strict=True))

        G1 = build_gns(sigma, terms)
        G2 = build_gns(sigma, JumpTerms.of(np.sqrt(2.0) * terms.V, terms.omega))
        assert bc.check_gns(G2) == pytest.approx(bc.check_gns(G1), abs=1e-11)


class TestFig1Sweep:
    def test_minimum_at_order_two(self, counterexample):
        grid = np.arange(0.25, 6.0 + 1e-9, 0.25)
        rows = bc.fig1_sweep(counterexample, grid)
        best_alpha, best_res = min(rows, key=lambda ar: ar[1])
        assert best_alpha == 2.0
        assert best_res <= 1e-9
        for a, r in rows:
            if a != 2.0:
                assert r >= 1e-3

    def test_gns_generator_flat_zero(self, depol):
        rows = bc.fig1_sweep(depol, [0.5, 1.0, 2.0, 4.0])
        assert all(r <= 1e-9 for _, r in rows)

    def test_regression_snapshot(self, counterexample):
        rows = dict(bc.fig1_sweep(counterexample, list(FIG1_SNAPSHOT)))
        for a, expected in FIG1_SNAPSHOT.items():
            assert rows[a] == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestBlockwiseResidual:
    """The order-alpha residual is summed over the blocks of `G.blocks`; it
    must match the dense trace norms of the whole n^2 x n^2 defect."""

    ORDERS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 6.0, np.inf)

    @pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G in block_cases()])
    def test_matches_dense(self, G):
        for alpha in self.ORDERS:
            assert abs(bc.srd_residual(G, alpha) - dense_srd_residual(G, alpha)) <= 1e-13

    def test_off_block_perturbation_takes_the_dense_residual(self):
        # mass between the level sets above rounding: one block, whose
        # residual carries the perturbation (1e-12 relative) that the sets
        # would have dropped
        G = off_block_perturbed(random_gns_generator(np.random.default_rng(5), 4, min_sigma_eig=0.15), 1e-12)
        assert G.blocks.single.size == 0
        for alpha in self.ORDERS:
            ref = dense_srd_residual(G, alpha)
            assert ref > 1e-13 and abs(bc.srd_residual(G, alpha) - ref) <= 1e-13
