"""Acceptance suite.

One test per acceptance criterion, each printing a single `PASS` line with
the measured extremes.  Tolerances are pinned here and nowhere else.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

import renyiflow.balance_check as bc
import renyiflow.divergence as dv
import renyiflow.flow as flow
import renyiflow.matcore as mc
import renyiflow.noncomm_ops as nco
from renyiflow.cli import main
from renyiflow.generator import (
    build_gns,
    depolarizing_generator,
    eigen_jump_terms,
    qubit_xz_generator,
    random_gns_generator,
)

from .oracles import (
    chain_rule_residual, matrix_power, mop_inverse_quadrature, mop_quadrature, random_positive, sandwich_pow,
    trace_norm,
)


def report(name: str, elapsed: float, detail: str) -> None:
    print(f"\nPASS {name} [{elapsed:.1f}s] {detail}")


def test_criterion_1_fig1_reproduction():
    t0 = time.time()
    G = bc.carlen_maas_counterexample()
    grid = np.arange(0.25, 6.0 + 1e-9, 0.25)
    rows = bc.fig1_sweep(G, grid)
    at_two = dict(rows)[2.0]
    others = [r for a, r in rows if a != 2.0]
    kms = bc.check_kms(G)
    gns = bc.check_gns(G)
    assert at_two <= 1e-9
    assert min(others) >= 1e-3
    assert kms <= 1e-10
    assert gns >= 1e-3
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(
        "criterion 1 (order-sweep reproduction)",
        elapsed,
        f"residual(2)={at_two:.2e}, min off-two={min(others):.2e}, "
        f"kms={kms:.2e}, gns={gns:.2e}",
    )


def test_criterion_2_gradient_flow_identity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    generators = [
        qubit_xz_generator(),
        random_gns_generator(rng, 3, min_sigma_eig=0.15, label="rand-3"),
        random_gns_generator(rng, 4, min_sigma_eig=0.15, label="rand-4"),
    ]
    alphas = (0.5, 1.0, 1.5, 2.0, 3.0)
    worst = 0.0
    n_checked = 0
    for G in generators:
        for _ in range(100):
            rho = mc.random_density(rng, G.n, floor=0.1)
            a = alphas[n_checked % len(alphas)]
            worst = max(worst, flow.gradient_flow_residual(G, rho, a))
            n_checked += 1
    assert n_checked == 300 and worst <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report("criterion 2 (gradient-flow identity)", elapsed,
           f"max residual {worst:.2e} over {n_checked} states x 5 orders, n in {{2,3,4}}")


def test_criterion_3_chain_rule():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        V = mc.random_complex(rng, n)
        V /= np.linalg.norm(V)
        X = random_positive(rng, n)
        omega = float(rng.uniform(-3.0, 3.0))
        worst = max(worst, chain_rule_residual(V, X, omega))
    assert worst <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report("criterion 3 (chain rule)", elapsed, f"max residual {worst:.2e} over 1000 draws")


def test_criterion_4_kernel_vs_quadrature():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst_fw = worst_bw = worst_w = 0.0
    for k in range(40):
        n = int(rng.integers(2, 7))
        X = random_positive(rng, n, floor=0.02)
        A = mc.random_complex(rng, n)
        omega = float(rng.uniform(-2.0, 2.0))
        lhs = nco.log_mean_multiplier(X, omega).apply(A)
        rhs = mop_quadrature(X, omega, A)
        worst_fw = max(worst_fw, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    for k in range(30):
        n = int(rng.integers(2, 6))
        X = random_positive(rng, n, floor=0.05)
        A = mc.random_complex(rng, n)
        omega = float(rng.uniform(-2.0, 2.0))
        lhs = nco.log_mean_multiplier(X, omega).inverse().apply(A)
        rhs = mop_inverse_quadrature(X, omega, A)
        worst_bw = max(worst_bw, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    for k in range(30):
        n = int(rng.integers(2, 7))
        sigma = mc.random_density(rng, n, floor=0.05)
        alpha = float(rng.uniform(0.3, 4.0))
        if abs(alpha - 1.0) < 0.05:
            alpha += 0.1
        A = mc.random_complex(rng, n)
        dec = mc.density_spectrum(sigma, strict=True)
        W = nco.weight_operator(dec, alpha)
        m1 = nco.log_mean_multiplier(matrix_power(sigma, 1.0 / alpha))
        m2i = nco.log_mean_multiplier(matrix_power(sigma, (alpha - 1.0) / alpha)).inverse()
        comp = m1.apply(m2i.apply(sandwich_pow(sigma, 2.0 * (alpha - 1.0) / alpha, A)))
        worst_w = max(worst_w, np.linalg.norm(W.apply(A) - comp) / np.linalg.norm(comp))
    assert worst_fw <= 1e-8 and worst_bw <= 1e-8 and worst_w <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 20.0
    report(
        "criterion 4 (kernel vs quadrature oracles)",
        elapsed,
        f"forward {worst_fw:.2e}, inverse {worst_bw:.2e}, weight {worst_w:.2e} "
        "over 100 instances",
    )


def test_criterion_5_monotonicity_and_decay():
    t0 = time.time()
    rng = np.random.default_rng(404)
    alphas = (0.5, 1.0, 2.0, 4.0)
    worst_increase = -np.inf
    lo_ratio, hi_ratio = np.inf, -np.inf
    worst_env = -np.inf
    for pair in range(50):
        n = [2, 3, 4][pair % 3]
        G = random_gns_generator(rng, n, min_sigma_eig=0.15)
        lam = G.gap.value
        rho0 = flow.generic_initial_state(G, rng)
        dt = flow.suggested_dt(G)
        t_end = 14.0 / lam
        store = max(1, int(np.ceil(t_end / dt / 600)))
        traj = flow.integrate(G, rho0, t_end, dt, store_every=store)
        tab = flow.divergence_trace(traj, alphas)
        worst_increase = max(worst_increase, float(np.max(np.diff(tab.D, axis=1))))
        env = np.log1p(np.expm1(tab.D[2][0]) * np.exp(-2.0 * lam * tab.times))
        worst_env = max(worst_env, float(np.max(tab.D[2] - env)))
        for i in range(len(alphas)):
            fit = flow.fit_decay_rate(tab.times, tab.D[i], tail_fraction=0.4)
            assert fit.verdict == "ok"
            ratio = fit.rate / (2.0 * lam)
            lo_ratio, hi_ratio = min(lo_ratio, ratio), max(hi_ratio, ratio)
    assert worst_increase <= 1e-9
    assert 0.98 <= lo_ratio and hi_ratio <= 1.05
    assert worst_env <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(
        "criterion 5 (monotonicity and sharp decay)",
        elapsed,
        f"max D increase {worst_increase:.2e}, rate ratios [{lo_ratio:.4f}, {hi_ratio:.4f}], "
        f"max envelope excess {worst_env:.2e} over 50 pairs",
    )


def test_criterion_6_constants_brackets():
    t0 = time.time()
    results = {}
    for label, G in (
        ("qubit-xz", qubit_xz_generator()),
        ("depolarizing", depolarizing_generator(0.7, np.diag([0.3, 0.7]).astype(complex))),
    ):
        rep = flow.lsi_constants(G, n_starts=8, seed=3)
        assert rep.K_lower <= rep.K_est <= rep.K_upper + 1e-6, label
        assert rep.K2_est >= rep.K2_lower - 1e-6, label
        assert rep.kappa1_est >= rep.kappa2_est - 1e-6, label
        assert abs(rep.kappa1_est - rep.K_est / 2.0) <= 1e-4, label
        results[label] = rep
    elapsed = time.time() - t0
    assert elapsed < 60.0
    detail = "; ".join(
        f"{k}: K in [{r.K_lower:.4f}, {r.K_upper:.4f}], K_est={r.K_est:.4f}, "
        f"kappa1={r.kappa1_est:.4f}, kappa2={r.kappa2_est:.4f}"
        for k, r in results.items()
    )
    report("criterion 6 (constants brackets)", elapsed, detail)


def test_criterion_7_inequality_suites():
    t0 = time.time()
    rng = np.random.default_rng(505)
    G = qubit_xz_generator()

    # equality at the gap eigenvector
    nu = flow.gap_eigen_direction(G)
    chk = flow.poincare_check(G, nu)
    assert abs(chk.lhs - chk.rhs) <= 1e-9 * max(1.0, chk.rhs)

    poincare_viol = 0
    for _ in range(1000):
        A = mc.random_complex(rng, 2)
        A = A - np.trace(G.sigma @ A) * np.eye(2)
        if not flow.poincare_check(G, A).passed:
            poincare_viol += 1

    pinsker_viol = 0
    for _ in range(1000):
        rho = mc.random_density(rng, 2)
        sigma = mc.random_density(rng, 2, floor=0.05)
        D = dv.relative_entropy(rho, sigma)
        if D < 0.5 * trace_norm(rho - sigma) ** 2 - 1e-10:
            pinsker_viol += 1

    fisher_viol = 0
    gens = [random_gns_generator(rng, n, min_sigma_eig=0.1) for n in (2, 3, 4)]
    for k in range(1000):
        Gk = gens[k % 3]
        rho = mc.random_density(rng, Gk.n, floor=0.02)
        if not flow.fisher2_bound_check(Gk, rho).passed:
            fisher_viol += 1

    assert poincare_viol == 0 and pinsker_viol == 0 and fisher_viol == 0
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(
        "criterion 7 (inequality suites)",
        elapsed,
        "poincare/pinsker/fisher-2 violations: 0/0/0 over 1000 samples each, "
        f"gap-vector equality defect {abs(chk.lhs - chk.rhs):.2e}",
    )


def test_criterion_8_comparison_theorem():
    t0 = time.time()
    G = qubit_xz_generator()
    rng = np.random.default_rng(606)
    smin = 0.5
    eps = smin**2 / 8.0
    w = mc.random_density(rng, 2, floor=0.05)
    rho0 = mc.hermitize(0.82 * G.sigma + 0.18 * w)
    assert dv.relative_entropy(rho0, G.sigma) <= eps
    worst_inc, checks = -np.inf, []
    for a0, a1 in ((2.0, 3.0), (2.0, 4.0), (1.5, 6.0)):
        rep = flow.comparison_check(G, rho0, a0, a1, eps=eps)
        assert rep.max_forward_increase <= 1e-8, (a0, a1)
        assert rep.D_end <= rep.D_start + 1e-9, (a0, a1)
        worst_inc = max(worst_inc, rep.max_forward_increase)
        checks.append(f"({a0:g},{a1:g}): T={rep.T:.2f}")
    # closed forms at the maximally mixed state
    mixed = mc.density_spectrum(np.eye(2) / 2.0, strict=True)
    Lam, eta, _ = flow.comparison_constants(2.0, 4.0, eps, mixed, [0.0, 0.0], 1.0)
    assert Lam == pytest.approx(np.exp(3.0), rel=1e-12)
    assert eta == pytest.approx(2.0 * np.exp(-1.5) / (1.0 + np.exp(3.0)), rel=1e-12)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(
        "criterion 8 (comparison theorem)",
        elapsed,
        f"max monitor increase {worst_inc:.2e}; {'; '.join(checks)}; "
        f"Lambda=e^3 and eta closed forms exact",
    )


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    artifacts = []
    for tag in ("a", "b"):
        f1 = tmp_path / f"fig1-{tag}.csv"
        f2 = tmp_path / f"sim-{tag}.csv"
        f3 = tmp_path / f"gf-{tag}.csv"
        assert main(["fig1", "--generator", "builtin:carlen-maas",
                     "--alphas", "0.25:6:0.25", "--out", str(f1)]) == 0
        assert main(["simulate", "--generator", "builtin:qubit-xz", "--rho0", "random",
                     "--seed", "7", "--alphas", "1,2", "--t-end", "1", "--dt", "0.005",
                     "--store-every", "10", "--out", str(f2)]) == 0
        assert main(["gradflow", "--generator", "builtin:qubit-xz", "--samples", "5",
                     "--seed", "9", "--out", str(f3)]) == 0
        artifacts.append((f1.read_bytes(), f2.read_bytes(), f3.read_bytes()))
    assert artifacts[0] == artifacts[1]
    elapsed = time.time() - t0
    report("criterion 9 (determinism)", elapsed,
           "fig1/simulate/gradflow artifacts byte-identical across reruns")
