"""Edge-path coverage: degenerate spectra, rank-deficient states, step
recovery, large-dimension sanity, and file-based CLI inputs."""

import dataclasses
import json

import numpy as np
import pytest

import renyiflow.divergence as dv
import renyiflow.flow as flow
import renyiflow.matcore as mc
import renyiflow.noncomm_ops as nco
from renyiflow.cli import main
from renyiflow.errors import IntegrationError
from renyiflow.generator import Generator, build_gns, depolarizing_generator, eigen_jump_terms, random_gns_generator

from .oracles import L_super


class TestDegenerateSigma:
    def test_partially_degenerate_eigen_terms(self):
        sigma = np.diag([0.25, 0.25, 0.5]).astype(complex)
        terms = eigen_jump_terms(mc.density_spectrum(sigma, strict=True))
        assert len(terms) == 8
        # frequencies vanish inside the degenerate block
        zero_freq = sum(1 for t in terms if t.omega == 0.0)
        assert zero_freq == 4  # two in-block pair terms plus two diagonal ladders
        G = build_gns(sigma, terms)
        assert G.primitivity.primitive

    def test_weight_kernel_degenerate_entries(self):
        sigma = np.diag([0.25, 0.25, 0.5]).astype(complex)
        for a in (0.5, 1.0, 2.0, 3.0, np.inf):
            K = nco.weight_operator(mc.density_spectrum(sigma, strict=True), a).kernel
            assert K[0, 1] == pytest.approx(0.25, abs=1e-12)

    def test_weight_kernel_alpha_to_zero_limit(self, rng):
        dec = mc.density_spectrum(mc.random_density(rng, 3, floor=0.1), strict=True)
        K0 = nco.weight_operator(dec, 0.0).kernel
        Ksmall = nco.weight_operator(dec, 1e-5).kernel
        assert np.max(np.abs(K0 - Ksmall)) <= 1e-3


class TestRankDeficientStates:
    def test_integrate_from_pure_state(self, qubit_xz):
        pure = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        traj = flow.integrate(qubit_xz, pure, 3.0, 0.002, store_every=50)
        for s in traj.states:
            assert np.linalg.eigvalsh(s)[0] >= -1e-8
        assert np.linalg.norm(traj.final() - qubit_xz.sigma) <= 1e-4

    def test_trace_of_only_pruned_states_is_empty(self, qubit_xz):
        pure = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        traj = flow.integrate(qubit_xz, pure, 0.0, 0.1)  # rho0 alone
        with pytest.warns(UserWarning, match="pruned 1 "):
            tab = flow.divergence_trace(traj, [0.5, 2.0])
        assert tab.times.size == 0 and tab.D.shape == tab.I.shape == (2, 0)

    def test_trace_prunes_singular_leading_state(self, qubit_xz):
        pure = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        traj = flow.integrate(qubit_xz, pure, 0.5, 0.002, store_every=25)
        with pytest.warns(UserWarning, match="pruned"):
            tab = flow.divergence_trace(traj, [2.0])
        assert len(tab.times) == len(traj.times) - 1
        assert np.all(np.diff(tab.D[0]) <= 1e-9)

    def test_trajectory_records_each_smallest_eigenvalue(self, qubit_xz):
        pure = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        traj = flow.integrate(qubit_xz, pure, 0.5, 0.002, store_every=25)
        ref = [np.linalg.eigvalsh(s)[0] for s in traj.states]
        np.testing.assert_allclose(traj.min_eigenvalues, ref, rtol=0.0, atol=1e-15)

    def test_trace_prunes_from_the_recorded_eigenvalues(self, qubit_xz, eigensolves):
        rho0 = mc.hermitize(0.9 * qubit_xz.sigma + 0.1 * np.diag([1.0, 0.0]))
        traj = flow.integrate(qubit_xz, rho0, 0.5, 0.01, store_every=10)
        # a copy of the trajectory whose cached smallest eigenvalues mark state 2
        marked = dataclasses.replace(traj)
        vars(marked)["min_eigenvalues"] = traj.min_eigenvalues.copy()
        marked.min_eigenvalues[2] = 0.0
        with pytest.warns(UserWarning, match="pruned 1 "):
            tab = flow.divergence_trace(marked, [2.0])
        assert tab.times.tolist() == np.delete(traj.times, 2).tolist()
        # one eigensolve per (state, order) pair, the sandwiched state's; the
        # recorded eigenvalues are not recomputed
        assert eigensolves(lambda: flow.divergence_trace(traj, [0.5, 2.0])) == 2 * len(traj.times)

    def test_divergence_small_order_with_singular_rho(self, rng):
        # alpha < 1 stays finite for rank-deficient states
        pure = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        sigma = mc.random_density(rng, 2, floor=0.2)
        val = dv.sandwiched_renyi(pure, sigma, 0.5)
        assert np.isfinite(val.value) and val.value >= 0.0


class TestStepControl:
    def test_positivity_halving_keeps_state_valid(self, qubit_xz, rng):
        # a sampling step far coarser than 1/||L|| must still give valid
        # density matrices at every stored time
        rho0 = mc.random_density(rng, 2, floor=0.02)
        dt = 0.8  # dt * ||L|| ~ 7
        traj = flow.integrate(qubit_xz, rho0, 8.0, dt)
        for s in traj.states:
            assert np.linalg.eigvalsh(s)[0] >= -1e-8
            assert abs(np.trace(s).real - 1.0) <= 1e-12

    @staticmethod
    def growing_generator() -> Generator:
        # minus uniform relaxation toward I/2: self-adjoint in the
        # half-weighted inner product, so it has `G.spectrum`, but its mode
        # grows, rho(t) = I/2 + e^t (rho0 - I/2), and leaves the state space
        half = np.eye(2) / 2.0
        return Generator(half, -L_super(depolarizing_generator(1.0, half)))

    def test_positivity_breach_raises(self):
        # from diag(3/4, 1/4) the exact flow leaves the state space after t = log 2
        G = self.growing_generator()
        with pytest.raises(IntegrationError, match="positivity"):
            flow.integrate(G, np.diag([0.75, 0.25]), 2.0, 0.1)

    @pytest.mark.parametrize("depth", [0.5, 2.0])
    def test_screen_admits_eigenvalues_down_to_the_tolerance(self, eigensolves, depth):
        # rho0 = diag(1/2 + d, 1/2 - d) with d = (1/2 + x)/e, x = depth *
        # POSITIVITY_TOL: the state stored at t = 1 is diag(1 + x, -x)
        x = depth * flow.POSITIVITY_TOL
        d = (0.5 + x) / np.e
        G = self.growing_generator()
        G.spectrum  # its one eigensolve, before counting
        trajs = []
        run = lambda: trajs.append(flow.integrate(G, np.diag([0.5 + d, 0.5 - d]), 1.0, 1.0))  # noqa: E731
        if depth > 1.0:
            with pytest.raises(IntegrationError, match=r"^positivity breach at t=1: eigenvalue -2\.000e-08$"):
                run()
        else:
            # the Cholesky screen passes it: the one eigensolve validates rho0
            assert eigensolves(run) == 1
            assert trajs[0].min_eigenvalues[-1] == pytest.approx(-x, rel=1e-6)


class TestLargeDimension:
    def test_dimension_eight_pipeline(self, rng):
        G = random_gns_generator(rng, 8, min_sigma_eig=0.3)
        assert G.primitivity.primitive
        rho = mc.random_density(rng, 8, floor=0.1)
        assert flow.gradient_flow_residual(G, rho, 1.5) <= 1e-8
        lam = G.gap.value
        traj = flow.integrate(G, rho, 2.0 / lam, flow.suggested_dt(G), store_every=10**9)
        tab = flow.divergence_trace(traj, [2.0])
        assert tab.D[0][-1] <= tab.D[0][0]

    def test_dimension_eight_balance_checks(self, rng):
        import renyiflow.balance_check as bc

        G = random_gns_generator(rng, 8, min_sigma_eig=0.3)
        assert bc.check_gns(G) <= 1e-10
        assert bc.check_kms(G) <= 1e-10
        res = bc.check_srd(G, [0.5, 2.0])
        assert all(r <= 1e-9 for r in res.values())


class TestCliFileInputs:
    def test_sigma_from_csv_block_reference(self, tmp_path, capsys):
        sigma = np.diag([0.25, 0.75]).astype(complex)
        (tmp_path / "sigma.csv").write_text(mc.matrix_to_csv_block("sigma", sigma))
        terms = eigen_jump_terms(mc.density_spectrum(sigma, strict=True))
        doc = {
            "label": "thermal-file",
            "sigma": "sigma.csv",
            "terms": [
                {"V": mc.matrix_to_rows(t.V), "omega": t.omega} for t in terms
            ],
        }
        gen_path = tmp_path / "gen.json"
        gen_path.write_text(json.dumps(doc))
        assert main(["validate", "--generator", str(gen_path)]) == 0
        out = capsys.readouterr().out
        assert "GNS: pass" in out

    def test_rho0_from_file_and_near_sigma(self, tmp_path, capsys):
        rho = mc.random_density(np.random.default_rng(5), 2, floor=0.2)
        rho_path = tmp_path / "rho.csv"
        rho_path.write_text(mc.matrix_to_csv_block("rho0", rho))
        out_path = tmp_path / "o.csv"
        assert main(["simulate", "--generator", "builtin:qubit-xz",
                     "--rho0", str(rho_path), "--alphas", "2", "--t-end", "0.5",
                     "--dt", "0.005", "--store-every", "10",
                     "--out", str(out_path)]) == 0
        first = out_path.read_text().splitlines()[1]
        D0 = float(first.split(",")[2])
        assert D0 == pytest.approx(
            dv.sandwiched_renyi(rho, np.eye(2) / 2.0, 2.0).value, abs=1e-12
        )
        assert main(["simulate", "--generator", "builtin:qubit-xz",
                     "--rho0", "near-sigma:0.1", "--seed", "3", "--alphas", "1",
                     "--t-end", "0.2", "--dt", "0.005", "--store-every", "10",
                     "--out", str(out_path)]) == 0

    def test_depolarizing_sigma_parameter(self, capsys):
        code = main(["dbcheck", "--generator", "builtin:depolarizing?gamma=0.3&sigma=0.2,0.8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdicts"]["gns"] is True
