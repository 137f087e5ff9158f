import re

import numpy as np
import pytest

import renyiflow.balance_check as bc
import renyiflow.matcore as mc
import renyiflow.noncomm_ops as nco
from renyiflow.errors import StructuralError, ValidationError
from renyiflow.flow import generic_initial_state, poincare_check, suggested_dt
from renyiflow.generator import (
    BLOCK_MIN_N,
    ZERO_MODE_RTOL,
    Generator,
    JumpTerms,
    build_gns,
    check_primitive,
    depolarizing_generator,
    eigen_jump_terms,
    qubit_xz_generator,
    random_gns_generator,
    spectral_gap,
)

from .oracles import (
    L_super,
    apply_L,
    apply_superop,
    block_cases,
    brute_force_commutant_dim,
    carlen_maas_by_composition,
    dense_kernel_projector,
    dense_singular_values,
    dense_spectrum,
    depolarizing_superops_by_probing,
    kernel_projector,
    lindblad_superop_by_term,
    lindblad_superops_by_probing,
    modular_apply,
    nc_gradient,
    off_block_perturbed,
    trace_norm,
    weighted_inner,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _unit(n, k, l):
    E = np.zeros((n, n), dtype=complex)
    E[k, l] = 1.0
    return E


def _gram_violation_cases():
    def sym(k, l):
        E = np.zeros((3, 3), dtype=complex)
        E[k, l] = E[l, k] = 1.0
        return E

    skew = np.zeros((3, 3), dtype=complex)
    skew[1, 2], skew[2, 1] = 1j, -1j
    d = np.diag([1.0, -1.0, 0.0]).astype(complex)
    # violations at pairs (0,3) and (2,4); the first in (j, k) order is reported
    overlaps = [sym(0, 1), d, sym(1, 2), sym(0, 1) + sym(0, 2), sym(1, 2) + skew]
    # violations at term 1 (weight) and pair (2,3)
    off_weight = JumpTerms.of([sym(0, 1), d, sym(1, 2), sym(1, 2) + skew], np.zeros(4))
    # term 1 keeps V = d, of squared norm 2, but records weight 3
    off_weight = JumpTerms(off_weight.V, off_weight.omega, off_weight.weight * [1.0, 1.5, 1.0, 1.0])
    return {
        "two-overlaps": (JumpTerms.of(overlaps, np.zeros(len(overlaps))),
                         "condition (i) violated at pair (0,3): overlap 2.000e+00"),
        "weight-then-overlap": (off_weight,
                                "condition (i) violated at term 1: <V,V>=(2+0j) != weight 3.0"),
    }


class TestBuildGns:
    def test_qubit_xz_builds_and_is_primitive(self, qubit_xz):
        assert qubit_xz.primitivity.primitive
        assert len(qubit_xz.terms) == 2

    def test_depolarizing_is_weighted_selfadjoint(self, depol):
        from renyiflow.generator import gns_selfadjoint_residual

        assert gns_selfadjoint_residual(depol) <= 1e-10

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_depolarizing_rate_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ValidationError, match="positive and finite"):
            depolarizing_generator(gamma, np.eye(2) / 2.0)

    def test_nonzero_trace_rejected(self):
        V = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValidationError, match=r"condition \(i\)"):
            build_gns(np.eye(2) / 2.0, JumpTerms.of([V], [0.0]))

    def test_wrong_frequency_rejected(self):
        with pytest.raises(ValidationError, match=r"condition \(iii\)"):
            build_gns(np.diag([0.25, 0.75]), JumpTerms.of([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], [0.0, 0.0]))

    def test_missing_adjoint_partner_rejected(self):
        sigma = np.diag([0.25, 0.75]).astype(complex)
        up = JumpTerms.of([[[0, 1], [0, 0]]], [np.log(3.0)])
        with pytest.raises(ValidationError, match=r"condition \(ii\)"):
            build_gns(sigma, up)

    def test_mismatched_pair_weight_rejected(self):
        sigma = np.diag([0.25, 0.75]).astype(complex)
        pair = JumpTerms.of([[[0, 1], [0, 0]], [[0, 0], [2, 0]]], [np.log(3.0), -np.log(3.0)], [1.0, None])
        with pytest.raises(ValidationError, match=r"condition \((ii|iv)\)"):
            build_gns(sigma, pair)

    def test_jump_operator_size_must_match_sigma(self):
        with pytest.raises(ValidationError, match=r"term 0: V has shape \(3, 3\), sigma has shape \(2, 2\)"):
            build_gns(np.eye(2) / 2.0, JumpTerms.of([np.diag([1.0, -1.0, 0.0])], [0.0]))

    def test_pair_condition_at_term_0_reported_before_missing_partner_later(self):
        # per term: (ii), then (iv); term 0's partner has an unpaired
        # frequency, term 2 has no partner at all
        lam = np.array([0.01, 0.2, 0.79])
        w01, w12 = np.log(lam[1] / lam[0]), np.log(lam[2] / lam[1])
        terms = JumpTerms.of([_unit(3, 0, 1), _unit(3, 1, 0), _unit(3, 1, 2)], [w01 + 1e-7, -w01, w12])
        with pytest.raises(ValidationError) as err:
            build_gns(np.diag(lam), terms)
        assert str(err.value) == f"condition (iv) violated at pair (0,1): omegas {w01 + 1e-7} vs {-w01}"

    def test_modular_condition_at_term_0_reported_before_trace_later(self):
        # per term: (i), then (iii); term 0 has the wrong frequency, term 1 a trace
        terms = JumpTerms.of([_unit(2, 0, 1), np.diag([1.0, 0.0])], [0.0, 0.0])
        with pytest.raises(ValidationError) as err:
            build_gns(np.diag([0.25, 0.75]), terms)
        assert str(err.value) == ("condition (iii) violated at term 0: modular eigenvector residual "
                                  "6.667e-01 for omega=0.0")

    @pytest.mark.parametrize("terms, message", [
        pytest.param(*case, id=name) for name, case in _gram_violation_cases().items()
    ])
    def test_first_gram_violation_reported(self, terms, message):
        with pytest.raises(ValidationError) as err:
            build_gns(np.eye(3) / 3.0, terms)
        assert str(err.value) == message


def _closed_form_cases():
    """Each generator with the standard-basis reference of its L and, where
    one is written out, of its Ldag."""
    def probed(G):
        return lindblad_superops_by_probing(G.terms, G.n)

    rng = np.random.default_rng(5)
    cases = [pytest.param(qubit_xz_generator(), probed, id="qubit-xz")]
    for n in (2, 3):
        sigma = mc.random_density(rng, n, floor=0.1)
        cases.append(pytest.param(depolarizing_generator(0.7, sigma),
                                  lambda G, s=sigma: depolarizing_superops_by_probing(0.7, s), id=f"depolarizing-{n}"))
    for n in (2, 3, 4, 8, 5, 6, 7):
        cases.append(pytest.param(random_gns_generator(rng, n, min_sigma_eig=0.15), probed, id=f"random-{n}"))
    # probing 255 terms on 256 matrix units takes seconds: at n = 16 the per-term kron sum stands in
    cases.append(pytest.param(random_gns_generator(rng, 16, min_sigma_eig=0.15),
                              lambda G: (lindblad_superop_by_term(G.terms), None), id="random-16"))
    cases.append(pytest.param(bc.carlen_maas_counterexample(), lambda G: (carlen_maas_by_composition(), None),
                              id="carlen-maas"))
    return cases


class TestClosedFormSuperoperators:
    @pytest.mark.parametrize("G, refs", _closed_form_cases())
    def test_matches_probed_maps(self, G, refs):
        # L_eig is the reference rotated into sigma's frame: W* L W with W = kron(conj U, U)
        L_ref, Ldag_ref = refs(G)
        U = G.sigma_dec.vectors
        W = np.kron(U.conj(), U)
        tol = 1e-13 * np.linalg.norm(L_ref)
        assert np.linalg.norm(G.L_eig - W.conj().T @ L_ref @ W) <= tol
        if Ldag_ref is not None:
            assert np.linalg.norm(G.L_eig.conj().T - W.conj().T @ Ldag_ref @ W) <= tol

    @pytest.mark.parametrize("n", range(2, 9))
    def test_stacked_assembly_matches_per_term_kron(self, n):
        G = random_gns_generator(np.random.default_rng(7000 + n), n, min_sigma_eig=0.15)
        ref = lindblad_superop_by_term(G.terms)
        assert np.linalg.norm(L_super(G) - ref) <= 1e-14 * np.linalg.norm(ref)


class TestOneSuperoperator:
    """A generator holds L once, as `L_eig` in sigma's frame, built from
    exactly one of its jump terms and its standard-basis superoperator."""

    @pytest.mark.parametrize("make", [
        qubit_xz_generator,
        bc.carlen_maas_counterexample,
        lambda: depolarizing_generator(0.7, np.diag([0.2, 0.3, 0.5])),
        lambda: random_gns_generator(np.random.default_rng(3), 4),
    ], ids=["qubit-xz", "carlen-maas", "depolarizing", "random-4"])
    def test_holds_one_read_only_superoperator(self, make):
        G = make()
        assert not hasattr(G, "L_super") and not hasattr(G, "Ldag_super")
        assert [k for k, v in vars(G).items() if np.shape(v) == (G.n**2, G.n**2)] == ["L_eig"]
        assert not G.L_eig.flags.writeable

    def test_apply_Ldag_is_the_state_space_superoperator(self, rng, counterexample):
        for G in (random_gns_generator(rng, 4), counterexample):
            Ldag = L_super(G).conj().T
            for _ in range(5):
                A = mc.random_complex(rng, G.n)
                assert np.linalg.norm(G.apply_Ldag(A) - apply_superop(Ldag, A)) <= (
                    1e-14 * np.linalg.norm(Ldag) * np.linalg.norm(A))

    def test_exactly_one_source_of_L(self, qubit_xz):
        for L, terms in ((L_super(qubit_xz), qubit_xz.terms), (None, None)):
            with pytest.raises(ValidationError, match="exactly one of L and terms"):
                Generator(qubit_xz.sigma, L, terms=terms)

    def test_primitivity_kernel_is_in_the_standard_basis(self, cm_sigma):
        # the one diagonal ladder of cm_sigma's eigenbasis: its commutant, the
        # functions of cm_sigma, is L's kernel
        ladder = eigen_jump_terms(mc.density_spectrum(cm_sigma, strict=True)).V[-1:]
        G = build_gns(cm_sigma, JumpTerms.of(ladder, [0.0]))
        rep = check_primitive(G)
        assert rep.kernel_dim == 2 and not rep.primitive
        for K in rep.kernel:
            assert np.linalg.norm(apply_L(G, K)) <= 1e-12
            assert np.linalg.norm(K @ cm_sigma - cm_sigma @ K) <= 1e-12

    @pytest.mark.parametrize("make", [
        lambda: build_gns(np.eye(2) / 2.0, JumpTerms.of([1e140 * SX, SZ], [0.0, 0.0])),
        lambda: Generator(np.eye(2) / 2.0, np.full((4, 4), 1e300)),
    ], ids=["jump-terms", "superoperator"])
    def test_generator_whose_norm_overflows_is_refused(self, make):
        # every structure check is relative to ||L||_F; an infinite one would pass them all
        with pytest.raises(ValidationError, match="the Frobenius norm of L is not finite"):
            make()


@pytest.fixture(scope="module")
def random_gen():
    return random_gns_generator(np.random.default_rng(11), 3, min_sigma_eig=0.15)


class TestGeneratorIdentities:

    def test_trace_preservation(self, random_gen, rng):
        for _ in range(50):
            A = mc.random_complex(rng, 3)
            assert abs(np.trace(random_gen.apply_Ldag(A))) <= 1e-10 * np.linalg.norm(A)

    def test_stationarity(self, random_gen):
        assert np.linalg.norm(random_gen.apply_Ldag(random_gen.sigma)) <= 1e-10

    def test_unitality(self, random_gen):
        assert np.linalg.norm(apply_L(random_gen, np.eye(3))) <= 1e-10

    def test_hermiticity_preservation(self, random_gen, rng):
        for _ in range(20):
            A = mc.random_hermitian(rng, 3)
            out = random_gen.apply_Ldag(A)
            assert np.linalg.norm(out - out.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(out))

    def test_weighted_selfadjointness_on_basis(self, random_gen):
        sigma = random_gen.sigma
        n = 3
        worst = 0.0
        for a in range(n * n):
            for b in range(n * n):
                Ea = mc.unvec(np.eye(n * n)[:, a], n)
                Eb = mc.unvec(np.eye(n * n)[:, b], n)
                lhs = weighted_inner(apply_L(random_gen, Ea), Eb, sigma, 1.0)
                rhs = weighted_inner(Ea, apply_L(random_gen, Eb), sigma, 1.0)
                worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-10 * np.linalg.norm(random_gen.L_eig)

    def test_dirichlet_identity(self, random_gen, rng):
        # gradient energy equals the generator's quadratic form
        for _ in range(20):
            A = mc.random_complex(rng, 3)
            lhs = sum(
                weighted_inner(g, g, random_gen.sigma, 0.5).real
                for g in nc_gradient(random_gen, A)
            )
            rhs = weighted_inner(A, -apply_L(random_gen, A), random_gen.sigma, 0.5).real
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_commutes_with_modular(self, random_gen):
        mod = mc.superoperator_of_map(
            lambda A: modular_apply(random_gen.sigma_dec, A), 3
        )
        L = L_super(random_gen)
        comm = L @ mod - mod @ L
        assert np.linalg.norm(comm) <= 1e-8 * np.linalg.norm(L)


class TestEigenJumpTerms:
    def test_maximally_mixed_qubit(self):
        terms = eigen_jump_terms(mc.density_spectrum(np.eye(2) / 2.0, strict=True))
        assert len(terms) == 3
        assert all(t.omega == 0.0 for t in terms)

    def test_diagonal_sigma_frequencies(self):
        terms = eigen_jump_terms(mc.density_spectrum(np.diag([0.25, 0.75]), strict=True))
        freq = {}
        for t in terms:
            if abs(t.V[0, 1]) > 0.5:
                freq["raise"] = t.omega
            elif abs(t.V[1, 0]) > 0.5:
                freq["lower"] = t.omega
        assert freq["raise"] == pytest.approx(np.log(3.0), abs=1e-12)
        assert freq["lower"] == pytest.approx(-np.log(3.0), abs=1e-12)
        # oracle: the modular conjugation scales each term by exp(-omega)
        sigma = np.diag([0.25, 0.75]).astype(complex)
        for t in terms:
            direct = sigma @ t.V @ np.linalg.inv(sigma)
            assert np.linalg.norm(direct - np.exp(-t.omega) * t.V) <= 1e-12

    def test_cm_sigma_frequencies(self, cm_sigma):
        lam = mc.eig_hermitian(cm_sigma).values
        terms = eigen_jump_terms(mc.density_spectrum(cm_sigma, strict=True))
        assert len(terms) == 3
        omegas = sorted(t.omega for t in terms)
        expected = np.log(lam[1] / lam[0])
        assert omegas == pytest.approx([-expected, 0.0, expected], abs=1e-12)

    @pytest.mark.parametrize("n, degenerate", [(2, False), (3, False), (4, False), (8, False), (4, True)])
    def test_operators_keep_their_bits(self, rng, n, degenerate):
        # jump operators are serialized: a plain decomposition of sigma must
        # give exactly the operators of the phase-fixed one, ties included
        sigma = mc.random_density(rng, n, floor=0.1)
        if degenerate:
            Q = np.linalg.qr(mc.random_complex(rng, n))[0]
            sigma = mc.hermitize(Q @ np.diag([0.1, 0.2, 0.2, 0.5]) @ Q.conj().T)
        plain = eigen_jump_terms(mc.density_spectrum(sigma, strict=True))
        fixed = eigen_jump_terms(mc.eig_hermitian(sigma))
        assert all(np.array_equal(a.V, b.V) and a.omega == b.omega for a, b in zip(plain, fixed, strict=True))

    def test_full_basis_builds_valid_generator(self, rng):
        sigma = mc.random_density(rng, 4, floor=0.1)
        G = build_gns(sigma, eigen_jump_terms(mc.density_spectrum(sigma, strict=True)))
        assert G.primitivity.primitive


class TestPrimitivity:
    def test_full_eigen_basis_primitive(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        G = build_gns(sigma, eigen_jump_terms(mc.density_spectrum(sigma, strict=True)))
        rep = check_primitive(G)
        assert rep.primitive and rep.kernel_dim == 1

    def test_single_z_jump_not_primitive(self):
        G = build_gns(np.eye(2) / 2.0, JumpTerms.of([SZ], [0.0]))
        rep = check_primitive(G)
        assert not rep.primitive
        assert rep.kernel_dim == brute_force_commutant_dim([SZ], 2) == 2
        # the kernel contains the jump operator itself
        overlaps = [abs(np.vdot(SZ / np.sqrt(2.0), K)) for K in rep.kernel]
        assert max(overlaps) > 0.1

    def test_xz_pair_primitive(self, qubit_xz):
        assert check_primitive(qubit_xz).primitive
        assert brute_force_commutant_dim([SX, SZ], 2) == 1

    def test_one_svd_serves_primitivity_trace_norm_and_dt(self, monkeypatch):
        # Carlen-Maas does not commute with the modular operator, so its L
        # is one block: one SVD of the whole n^2 x n^2 matrix.  A random GNS
        # generator at n = 8 takes one SVD of its n x n population block.
        shapes, real = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *r, **k: shapes.append(np.shape(a)) or real(a, *r, **k))
        for G, shape in ((bc.carlen_maas_counterexample(), (4, 4)),
                         (random_gns_generator(np.random.default_rng(3), 8, min_sigma_eig=0.15), (8, 8))):
            ref = trace_norm(L_super(G))
            shapes.clear()
            rep, tn, _ = check_primitive(G), G.trace_norm, suggested_dt(G)
            check_primitive(G), suggested_dt(G)
            assert shapes == [shape]
            assert rep.primitive and tn == pytest.approx(ref, rel=1e-14)


class TestSpectralGap:
    def test_depolarizing_gap_is_rate(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.1)
        G = depolarizing_generator(0.7, sigma)
        gap = spectral_gap(G)
        assert gap.value == pytest.approx(0.7, abs=1e-10)
        assert np.allclose(sorted(gap.spectrum)[1:], 0.7, atol=1e-10)

    def test_qubit_xz_spectrum(self, qubit_xz):
        gap = spectral_gap(qubit_xz)
        assert gap.value == pytest.approx(4.0, abs=1e-10)
        assert gap.spectrum == pytest.approx([0.0, 4.0, 4.0, 8.0], abs=1e-9)

    def test_rayleigh_quotient_oracle(self, qubit_xz, rng):
        gap = spectral_gap(qubit_xz)
        lo, hi = gap.spectrum[0], gap.spectrum[-1]
        for _ in range(200):
            A = mc.random_complex(rng, 2)
            num = weighted_inner(A, -apply_L(qubit_xz, A), qubit_xz.sigma, 0.5).real
            den = weighted_inner(A, A, qubit_xz.sigma, 0.5).real
            assert lo - 1e-8 <= num / den <= hi + 1e-8

    def test_weight_scaling_doubles_gap(self, rng):
        sigma = mc.random_density(rng, 3, floor=0.15)
        terms = eigen_jump_terms(mc.density_spectrum(sigma, strict=True))
        G1 = build_gns(sigma, terms)
        G2 = build_gns(sigma, JumpTerms.of(np.sqrt(2.0) * terms.V, terms.omega))
        assert spectral_gap(G2).value == pytest.approx(2.0 * spectral_gap(G1).value, rel=1e-10)

    def test_non_primitive_rejected(self):
        G = build_gns(np.eye(2) / 2.0, JumpTerms.of([SZ], [0.0]))
        with pytest.raises(ValidationError, match="primitive"):
            spectral_gap(G)

    def test_matches_unsymmetrized_spectrum(self, rng):
        # the generator's spectrum is basis-independent, so the plain matrix
        # eigenvalues of -L must agree with the symmetrized computation
        G = random_gns_generator(rng, 3, min_sigma_eig=0.1)
        direct = np.sort(np.linalg.eigvals(-L_super(G)).real)
        assert np.max(np.abs(direct - spectral_gap(G).spectrum)) <= 1e-8 * direct[-1]

    def test_non_kms_generator_refused(self):
        # stationary and primitive, but the Hamiltonian part makes -L
        # non-normal in the weighted inner product (spectrum 1 +- 1.6i); its
        # Hermitian part would report a gap of 1
        sigma = np.diag([0.3, 0.7]).astype(complex)
        ham = 0.8j * (np.kron(np.eye(2), SZ) - np.kron(SZ.T, np.eye(2)))
        G = Generator(sigma, L_super(depolarizing_generator(1.0, sigma)) + ham)
        assert G.primitivity.primitive
        assert np.linalg.norm(G.apply_Ldag(sigma)) <= 1e-12
        with pytest.raises(ValidationError, match="not self-adjoint"):
            G.gap

    def test_kms_balanced_generator_keeps_its_gap(self, counterexample):
        # not GNS-balanced, but self-adjoint in the half-weighted inner
        # product, which is all the symmetrization needs
        assert spectral_gap(counterexample).value > 0.0


class TestSigmaContext:
    """sigma is validated and decomposed once, when the generator is built,
    and every function of it reads that decomposition."""

    def test_shared_context_is_read_only(self, rng):
        G = random_gns_generator(rng, 3)
        for arr in (G.sigma, G.sigma_dec.values, G.sigma_dec.vectors):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_build_gns_decomposes_sigma_once(self, rng, eigensolves):
        sigma = mc.random_density(rng, 3, floor=0.1)
        terms = eigen_jump_terms(mc.density_spectrum(sigma, strict=True))
        assert eigensolves(lambda: build_gns(sigma, terms)) == 1

    def test_spectral_gap_decomposes_only_the_symmetrized_generator(self, rng, eigensolves):
        G = random_gns_generator(rng, 3)
        assert eigensolves(lambda: spectral_gap(G)) == 1

    @pytest.mark.parametrize("call", [
        bc.check_gns,
        bc.check_kms,
        lambda G: bc.srd_residual(G, 2.0),
        lambda G: poincare_check(G, np.diag([1.0, -1.0])),
        lambda G: generic_initial_state(G, np.random.default_rng(0)),
        spectral_gap,
    ], ids=["check_gns", "check_kms", "srd_residual", "poincare_check", "generic_initial_state",
            "spectral_gap"])
    def test_missing_stationary_state_fails_the_same_way(self, depol, call):
        """A generator needs sigma to be built at all, so every function of it
        meets a missing stationary state as one construction error."""
        with pytest.raises(StructuralError, match="sigma: expected a square matrix"):
            call(Generator(None, L_super(depol), label="no-sigma"))

    @pytest.mark.parametrize("sigma, L", [(np.eye(3) / 3.0, np.eye(4)), (np.eye(2) / 2.0, np.eye(5)),
                                          (np.eye(2) / 2.0, np.eye(4)[:, :3])],
                             ids=["sigma-of-another-size", "L-not-n2-square", "L-not-square"])
    def test_sizes_of_sigma_and_L_must_agree(self, sigma, L):
        with pytest.raises(ValidationError, match="want n\\^2 x n\\^2 and n x n"):
            Generator(sigma, L)


class TestJumpTermSemantics:
    def test_weight_defaults_to_norm(self):
        t = JumpTerms.of([2.0 * SX], [0.0])[0]
        assert t.weight == pytest.approx(8.0)

    def test_explicit_weight_rescales_direction(self):
        t = JumpTerms.of([SX / np.sqrt(2.0)], [0.0], [3.0])[0]
        assert np.vdot(t.V, t.V).real == pytest.approx(3.0, abs=1e-12)

    def test_terms_are_read_only_views_of_one_stack(self, qubit_xz):
        stack = qubit_xz.terms
        assert [np.shares_memory(t.V, stack.V) for t in stack] == [True, True]
        assert qubit_xz.jump_stacks[0] is stack.V
        for arr in (stack.V, stack.omega, stack.weight):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("V, omega, weight, message", [
        ([SX, np.diag([np.nan, 1.0])], [0.0, 0.0], None, "term 1: V has non-finite entries"),
        ([SX, SZ], [0.0, np.inf], None, "term 1: omega inf is not a finite real"),
        ([SX, SZ], [0.0, "x"], None, "term 1: omega 'x' is not a finite real"),
        ([SX, SZ], [0.0], None, "omega: expected 2 values"),
        ([SX, SZ], [0.0, 0.0], [None, -1.0], "term 1: weight -1.0 is not positive"),
        ([SX, 0.0 * SZ], [0.0, 0.0], [None, 2.0], "term 1: V = 0 cannot carry weight 2.0"),
        ([0.0 * SX, SZ, SX], [0.0, 0.0, 0.0], [None, 2.0, 0.0], "term 2: weight 0.0 is not positive"),
        ([], [], None, "expected a nonempty (m, n, n) stack"),
        ([SX, 1e200 * SZ], [0.0, 0.0], None, "term 1: <V, V> is not finite"),
    ], ids=["nan-entry", "inf-omega", "text-omega", "short-omega", "negative-weight", "zero-direction",
            "zero-weight", "empty", "overflowing-norm"])
    def test_stack_rejects_the_first_bad_term(self, V, omega, weight, message):
        with pytest.raises((ValidationError, StructuralError), match=re.escape(message)):
            JumpTerms.of(V, omega, weight)


BLOCK_CASES = [pytest.param(G, id=name) for name, G in block_cases()]


class TestModularBlocks:
    """`L_eig` is split over the level sets of log lam_k - log lam_l when its
    mass between them is at rounding level, and read block by block; each
    reader must match the dense decomposition of the whole n^2 x n^2 matrix
    to 1e-13 relative."""

    def test_random_gns_generator_has_one_population_block(self):
        n = 8
        G = random_gns_generator(np.random.default_rng(5), n, min_sigma_eig=0.15)
        B = G.blocks
        assert len(B.index) == 1 and np.array_equal(B.index[0], np.arange(n) * (n + 1))
        assert np.array_equal(B.single, np.setdiff1d(np.arange(n * n), B.index[0]))
        assert np.array_equal(B.diag, np.diag(G.L_eig)[B.single])
        assert np.array_equal(B.block[0], G.L_eig[np.ix_(B.index[0], B.index[0])])

    @pytest.mark.parametrize("n", range(2, BLOCK_MIN_N))
    def test_small_generator_is_one_block(self, n):
        # below BLOCK_MIN_N the partition would cost more than the whole decompositions
        B = random_gns_generator(np.random.default_rng(5), n, min_sigma_eig=0.15).blocks
        assert B.single.size == 0 and len(B.index) == 1 and np.array_equal(B.index[0], np.arange(n * n))

    def test_non_modular_generator_is_one_block(self, counterexample):
        B = counterexample.blocks
        assert B.single.size == 0 and len(B.index) == 1 and np.array_equal(B.index[0], np.arange(4))
        assert np.array_equal(B.block[0], counterexample.L_eig)

    def test_one_block_is_the_dense_decomposition_bit_for_bit(self):
        # what a non-modular generator writes keeps its bytes
        G = bc.carlen_maas_counterexample()
        q = mc.vec(G.sigma_dec.kernel(0.25, 0.25))
        w, V = np.linalg.eigh(mc.hermitize(q[:, None] * -G.L_eig / q))
        _, s, vh = np.linalg.svd(G.L_eig)
        assert np.array_equal(G.spectrum.values, w) and np.array_equal(G.spectrum.vectors, V)
        assert np.array_equal(G.L_svd[0], s) and np.array_equal(G.L_svd[1], vh)
        weight = mc.vec(nco.weight_operator(G.sigma_dec, 1.5).kernel)
        resid = weight[:, None] * G.L_eig / weight - G.L_eig.conj().T
        assert bc.srd_residual(G, 1.5) == float(trace_norm(resid) / G.trace_norm)

    def test_blocks_are_read_only(self):
        B = random_gns_generator(np.random.default_rng(5), 3).blocks
        for arr in (B.single, B.diag, *B.index, *B.block):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    @pytest.mark.parametrize("size", [1e-12, 1e-14])
    def test_off_block_mass_above_rounding_takes_one_block(self, size):
        G = off_block_perturbed(random_gns_generator(np.random.default_rng(5), 4, min_sigma_eig=0.15), size)
        assert G.blocks.single.size == 0 and [b.size for b in G.blocks.index] == [16]
        s = dense_singular_values(G)
        assert np.max(np.abs(G.L_svd[0] - s)) <= 1e-13 * s[0]

    @pytest.mark.parametrize("G", BLOCK_CASES)
    def test_singular_values_match_dense(self, G):
        s = dense_singular_values(G)
        assert np.max(np.abs(G.L_svd[0] - s)) <= 1e-13 * s[0]
        assert G.trace_norm == pytest.approx(s.sum(), rel=1e-13)

    @pytest.mark.parametrize("G", BLOCK_CASES)
    def test_primitivity_kernel_matches_dense(self, G):
        rep = check_primitive(G)
        P = dense_kernel_projector(G, ZERO_MODE_RTOL)
        assert rep.kernel_dim == round(np.trace(P).real)
        assert np.max(np.abs(kernel_projector(rep.kernel) - P)) <= 1e-13

    @pytest.mark.parametrize("G", BLOCK_CASES)
    def test_spectrum_and_gap_match_dense(self, G):
        w = dense_spectrum(G)
        assert np.max(np.abs(G.spectrum.values - w)) <= 1e-13 * np.max(np.abs(w))
        gap = w[w > ZERO_MODE_RTOL * w[-1]][0]
        assert G.gap.value == pytest.approx(gap, rel=1e-13)

    def test_non_primitive_kernel_matches_dense(self):
        G = build_gns(np.eye(2) / 2.0, JumpTerms.of([SZ], [0.0]))
        P = dense_kernel_projector(G, ZERO_MODE_RTOL)
        assert np.max(np.abs(kernel_projector(check_primitive(G).kernel) - P)) <= 1e-13

    def test_no_decomposition_larger_than_n_on_a_gns_generator(self, monkeypatch):
        # every SVD and eigensolve of a modular generator sees at most its
        # n x n population block (sigma's own decomposition is n x n too)
        shapes = []
        for name in ("svd", "eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, *r, _real=real, **k: shapes.append(np.shape(a)[-2:]) or _real(a, *r, **k))
        n = 8
        G = random_gns_generator(np.random.default_rng(6), n, min_sigma_eig=0.15)
        check_primitive(G), G.trace_norm, suggested_dt(G), spectral_gap(G)
        bc.balance_report(G, (0.5, 1.0, 1.5, 2.0, 3.0))
        generic_initial_state(G, np.random.default_rng(0))
        assert shapes and max(max(s) for s in shapes) == n
