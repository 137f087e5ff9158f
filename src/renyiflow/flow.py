"""Time evolution and decay analysis.

Exact propagation of the state-space flow on a fixed sampling grid, with
Hermitian/trace projection and a Cholesky positivity screen, divergence and
Fisher traces, tail decay-rate fits, the gradient-flow identity and its metric
tensor, Poincare / Fisher-bound / log-Sobolev constant estimation, and the
comparison-theorem constants with their hypercontractivity monitor.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import minimize

from . import matcore as mc
from . import noncomm_ops as nco
from .errors import DomainError, IntegrationError, RenyiflowError, StructuralError, ValidationError
from .generator import Generator

POSITIVITY_TOL = 1e-8
# bytes of the T n^2 complex states `integrate` may store; it holds about three such arrays
MAX_STORED_BYTES = 2**28
GAP_CLUSTER_RTOL = 1e-8
# the comparison check: slack of D_end <= D_start, bound on the monitor's
# forward increase, and samples of the monitor over the delay window
COMPARISON_SLACK = 1e-9
MONITOR_SLACK = 1e-8
MONITOR_SAMPLES = 200
# slack of the Poincare and order-2 Fisher-bound inequalities
POINCARE_SLACK = 1e-10
FISHER2_SLACK = 1e-9
# `generic_initial_state`: perturbation size in units of sigma's smallest
# eigenvalue, and relative size of its random traceless part
INITIAL_MARGIN = 0.8
INITIAL_MIX = 0.3
# tolerance of the brackets and orderings `ConstantsReport.violations` checks
VIOLATION_TOL = 1e-6
# iteration cap of each Nelder-Mead descent in `lsi_constants`
LSI_MAXITER = 200


# --- integration --------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """States stored by `integrate` at `times`, none with an eigenvalue below
    -POSITIVITY_TOL, held in sigma's frame: `frame[k]` is U* rho(t_k) U with
    U the eigenvectors of the generator's `sigma_dec`."""

    times: np.ndarray
    frame: np.ndarray  # read-only C-contiguous (T, n, n) stack, one state per stored time
    generator: Generator

    @cached_property
    def states(self) -> np.ndarray:
        """Read-only C-contiguous (T, n, n) stack of the stored states in the
        standard basis, U frame U* hermitized, formed on first read."""
        out = np.ascontiguousarray(mc.hermitize(self.generator.sigma_dec.from_frame(self.frame)))
        out.setflags(write=False)
        return out

    @cached_property
    def min_eigenvalues(self) -> np.ndarray:
        """Smallest eigenvalue of each stored state, from one stacked
        `eigvalsh` of the frame on first read."""
        return np.linalg.eigvalsh(self.frame)[:, 0]

    def final(self) -> np.ndarray:
        return self.states[-1]


def _require_dim(A: np.ndarray, n: int, name: str) -> np.ndarray:
    """A, or each matrix of a stack, checked to be n x n."""
    if A.shape[-2:] != (n, n):
        raise StructuralError(f"{name}: shape {A.shape} does not match the generator's ({n}, {n})")
    return A


def _frame_state(G: Generator, rho, strict: bool = False, name: str = "rho") -> np.ndarray:
    """U* rho U in sigma's frame, rho checked as a density matrix of the
    generator's size; `strict` additionally demands full rank."""
    return G.sigma_dec.to_frame(_require_dim(mc.require_density(rho, strict=strict, name=name), G.n, name))


def _project(rho: np.ndarray) -> np.ndarray:
    """Hermitian part at unit trace; of each matrix, for a stack (..., n, n)."""
    rho = mc.hermitize(rho)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def suggested_dt(G: Generator) -> float:
    """Default sampling step: min(0.05, 1.5/s, (1.2e-6)^(1/4) / s^(5/4))
    with s the spectral norm of the state-space superoperator (the largest
    singular value in `G.L_svd`), so faster generators are sampled more finely."""
    nrm = float(G.L_svd[0][0])
    if nrm == 0.0:
        return 0.05
    dt = (120.0 * 1e-8) ** 0.25 / nrm**1.25
    return float(min(0.05, dt, 1.5 / nrm))


def integrate(G: Generator, rho0, t_end: float, dt: float, store_every: int = 1) -> Trajectory:
    """Evolve a state to t_end and store it on a fixed sampling grid.

    The grid has steps of dt, shortened at the end to reach t_end; every
    `store_every`-th grid point and t_end are stored; a grid whose states
    would take more than MAX_STORED_BYTES raises DomainError before anything
    is allocated.  The states are stored in sigma's frame (`Trajectory`),
    X(t) = U* rho(t) U with U sigma's eigenvectors.  In the modes V, Lam
    of `G.spectrum` (-L after the kernel q = (lam_k lam_l)^(1/4) in that
    frame) the flow is diagonal, vec(X(t)) = q o V e^(-Lam t) V* (vec(X(0)) / q),
    so all stored states come from one product with the n^2 x n^2 matrix
    whose row k holds the mode unvec(q o V_k); no expm and no rotation
    but rho0's.  A generator without that spectrum (asymmetric beyond
    TOL_SELFADJOINT) raises its ValidationError.  The states are projected
    to Hermitian unit trace in one stacked step; `frame[0]` is U* rho0 U of
    the validated rho0.  One stacked Cholesky factorization of
    frame + POSITIVITY_TOL I screens positivity (a growing mode leaves the
    state space); only where it fails are the smallest eigenvalues
    computed, and one below -POSITIVITY_TOL raises IntegrationError.
    """
    if not 0.0 < dt < np.inf:
        raise DomainError(f"dt={dt} must be positive and finite")
    if not 0.0 <= t_end < np.inf:
        raise DomainError(f"t_end={t_end} must be non-negative and finite")
    if not isinstance(store_every, (int, np.integer)):
        raise DomainError(f"store_every={store_every} is not an integer")
    if not 1 <= store_every < 2**53:
        raise DomainError(f"store_every={store_every} outside 1 .. 2**53 - 1")
    if t_end / dt >= 2.0**53:
        raise DomainError(f"t_end/dt={t_end / dt:.3g} steps: the step count must be below 2**53")
    # grid points store_every, 2 store_every, ... strictly before the last; rho0 alone at t_end = 0
    n_full = (max(1, int(np.ceil(t_end / dt - 1e-9))) - 1) // store_every if t_end > 0.0 else -1
    size = (n_full + 2) * G.n**2 * 16
    if size > MAX_STORED_BYTES:
        raise DomainError(f"{n_full + 2} states of {G.n} x {G.n} take {size:.3g} B, above budget {MAX_STORED_BYTES}")
    X0 = _frame_state(G, rho0, name="rho0")
    times = np.array([0.0])
    if t_end > 0.0:
        times = np.concatenate(([0.0], np.arange(1, n_full + 1) * store_every * dt, [t_end]))
    spec = G.spectrum
    q = mc.vec(G.sigma_dec.kernel(0.25, 0.25))
    modes = mc.unvec(q[:, None] * spec.vectors, G.n)  # mode k in sigma's frame
    c = spec.vectors.conj().T @ (mc.vec(X0) / q)
    xs = (np.exp(-np.outer(times, spec.values)) * c) @ modes.reshape(len(modes), -1)
    frame = np.ascontiguousarray(_project(xs.reshape(-1, G.n, G.n)))
    frame[0] = X0
    frame.setflags(write=False)
    traj = Trajectory(times, frame, G)
    try:
        np.linalg.cholesky(frame + POSITIVITY_TOL * np.eye(G.n))
    except np.linalg.LinAlgError:
        wmin = traj.min_eigenvalues
        bad = np.flatnonzero(wmin < -POSITIVITY_TOL)
        if bad.size:
            k = int(bad[0])
            raise IntegrationError(f"positivity breach at t={times[k]:.6g}: eigenvalue {wmin[k]:.3e}") from None
    return traj


# --- divergence / Fisher traces ------------------------------------------------


@dataclass(frozen=True)
class TraceTable:
    """Per-order divergence and Fisher-information samples along a trajectory."""

    times: np.ndarray
    alphas: tuple[float, ...]
    D: np.ndarray  # shape (len(alphas), len(times))
    I: np.ndarray

    def rows(self) -> np.ndarray:
        """(t, alpha, D, I) rows, by time and then by order, as one array."""
        t, a = np.meshgrid(self.times, self.alphas, indexing="ij")
        return np.stack((t, a, self.D.T, self.I.T), axis=-1).reshape(-1, 4)


def divergence_trace(traj: Trajectory, alphas) -> TraceTable:
    """Evaluate divergences and Fisher informations at the stored states.

    Everything is read in sigma's frame, where `traj.frame` holds the
    states.  The stack is validated once: its shape against the generator,
    finiteness and hermiticity, then the kept states' unit trace.  States
    whose smallest eigenvalue (`Trajectory.min_eigenvalues`, one stacked
    eigensolve on first read) is below POS_FLOOR are pruned with a warning.
    The kept states' drifts come from one `G.frame_drift` product; each kept
    (state, order) pair is one sandwiched state over the generator's
    `sigma_dec`, and D and I are both read from it: one eigensolve per pair.
    """
    G = traj.generator
    frame = _require_dim(mc.require_hermitian(traj.frame, name="states", stack=True), G.n, "states")
    wmin = traj.min_eigenvalues
    keep = np.flatnonzero(wmin >= mc.POS_FLOOR)
    if keep.size < traj.times.size:
        warnings.warn(f"pruned {traj.times.size - keep.size} non-strictly-positive states from the trace")
    frame = frame[keep]
    mc.check_density(frame, wmin[keep], strict=True, name="states")
    drifts = G.frame_drift(frame)
    alphas = tuple(float(a) for a in alphas)
    D = np.zeros((len(alphas), keep.size))
    I = np.zeros_like(D)
    for j, (X, drift) in enumerate(zip(frame, drifts)):
        for i, a in enumerate(alphas):
            st = nco.frame_sandwiched_state(X, G.sigma_dec, a)
            D[i, j] = st.divergence()
            I[i, j] = st.fisher(drift)
    return TraceTable(traj.times[keep], alphas, D, I)


@dataclass(frozen=True)
class DecayFit:
    rate: float | None
    verdict: str  # "ok" | "stationary" | "insufficient"
    window: tuple[float, float]
    n_points: int


def fit_decay_rate(times, values, tail_fraction: float = 0.3) -> DecayFit:
    """Least-squares slope of log(values) over the final tail_fraction.

    Values at or below the 1e-14 floor truncate the fit window; an
    all-floor trace is declined as stationary.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if v.size == 0 or float(np.max(v)) < 1e-12:
        return DecayFit(rate=None, verdict="stationary", window=(0.0, 0.0), n_points=0)
    t0 = t[-1] - tail_fraction * (t[-1] - t[0])
    mask = (t >= t0) & (v > 1e-14)
    if int(mask.sum()) < 3:
        return DecayFit(rate=None, verdict="insufficient", window=(t0, t[-1]), n_points=int(mask.sum()))
    slope = np.polyfit(t[mask], np.log(v[mask]), 1)[0]
    return DecayFit(
        rate=float(-slope),
        verdict="ok",
        window=(float(t[mask][0]), float(t[mask][-1])),
        n_points=int(mask.sum()),
    )


# --- gradient-flow identity and metric tensor ----------------------------------


def gradient_flow_residual(G: Generator, rho, alpha: float) -> float:
    """Relative defect between the metric-flux form of the flow and the
    generator's drift, both in sigma's frame (a rotation keeps Frobenius norms);
    zero in exact arithmetic for detailed-balance generators, below 1e-8 at any order."""
    X = _frame_state(G, rho, strict=True)
    flux = nco.renyi_multiplier(X, G.sigma_dec, G.omegas, alpha).flux(G.jump_frame)
    target = G.frame_drift(X)
    den = float(np.linalg.norm(target))
    num = float(np.linalg.norm(flux - target))
    return num / den if den >= 1e-12 else num


def _require_traceless_hermitian(nu, n: int, name: str) -> np.ndarray:
    nu = _require_dim(mc.require_hermitian(nu, name=name), n, name)
    if abs(np.trace(nu)) > 1e-10 * max(1.0, float(np.linalg.norm(nu))):
        raise ValidationError(f"{name}: not traceless (tr = {complex(np.trace(nu))!r})")
    return nu


def metric_tensor(G: Generator, rho, alpha: float, nu1, nu2) -> float:
    """Transport metric pairing of two tangent directions at rho: each is
    lifted to the potential B that the flux operator B -> -div M grad B maps
    to it, and the lifts pair as <B1, nu2>, in one solve in the order-alpha
    family's frame (`RenyiMultiplier.metric`), with no basis and no cutoff."""
    if not G.primitivity.primitive:
        raise ValidationError("metric tensor needs a primitive generator")
    X = _frame_state(G, rho, strict=True)
    nus = np.array([_require_traceless_hermitian(nu1, G.n, "nu1"), _require_traceless_hermitian(nu2, G.n, "nu2")])
    M = nco.renyi_multiplier(X, G.sigma_dec, G.omegas, alpha)
    return M.metric(G.jump_frame, *G.sigma_dec.to_frame(nus))


# --- inequality checks ----------------------------------------------------------


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float
    rhs: float
    passed: bool


def poincare_check(G: Generator, A) -> InequalityCheck:
    """Energy-versus-variance inequality at the spectral gap.

    The argument must be mean-zero against sigma; violations are projected
    out with a warning.  Equality holds on the gap eigenvector.  Both sides
    pair A' = U* A U through the half-weighting kernel in sigma's frame, -L as `G.L_eig`.
    """
    A = _require_dim(mc.as_matrix(A, "A"), G.n, "A")
    mean = complex(np.trace(G.sigma @ A))
    if abs(mean) > 1e-10 * max(1.0, float(np.linalg.norm(A))):
        warnings.warn(f"projecting out nonzero sigma-mean {mean!r}")
        A = A - mean * np.eye(G.n)
    a = mc.vec(G.sigma_dec.to_frame(A))
    wa = mc.vec(G.sigma_dec.kernel(0.5, 0.5)) * a
    lhs = -float(np.vdot(wa, G.L_eig @ a).real)
    rhs = G.gap.value * float(np.vdot(wa, a).real)
    return InequalityCheck(lhs=lhs, rhs=rhs, passed=lhs >= rhs - POINCARE_SLACK)


def gap_eigen_direction(G: Generator) -> np.ndarray:
    """Hermitian, sigma-mean-zero eigenvector of -L at the spectral gap,
    normalized in Frobenius norm: the half-weighted orthogonal projection of
    one fixed generic traceless Hermitian matrix onto the gap's eigenspace
    (eigenvalues of `G.spectrum` within relative GAP_CLUSTER_RTOL of the
    gap), so it depends on neither the eigensolver's phases nor its basis.
    It is formed in sigma's eigenbasis, the basis of `G.spectrum`."""
    spec, lam, sig = G.spectrum, G.gap.value, G.sigma_dec
    C = spec.vectors[:, np.abs(spec.values - lam) <= GAP_CLUSTER_RTOL * lam]
    q = sig.kernel(0.25, 0.25)
    probe = q * sig.to_frame(mc.random_traceless_hermitian(np.random.default_rng(0), G.n))
    nu = mc.hermitize(sig.from_frame(mc.unvec(C @ (C.conj().T @ mc.vec(probe)), G.n) / q))
    return nu / np.linalg.norm(nu)


def generic_initial_state(G: Generator, rng: np.random.Generator) -> np.ndarray:
    """Random strictly positive state with guaranteed slowest-mode overlap.

    Tail decay-rate fits only see the sharp rate once the slowest mode
    dominates; a perturbation built mostly from the gap eigendirection
    (plus a random traceless part of relative size INITIAL_MIX) keeps the
    crossover time bounded for any draw.
    """
    sig = G.sigma_dec
    X = mc.hermitize(sig.from_frame(sig.kernel(0.5, 0.5) * sig.to_frame(gap_eigen_direction(G))))
    X -= (np.trace(X).real / G.n) * np.eye(G.n)
    X /= np.linalg.norm(X)
    W = mc.random_traceless_hermitian(rng, G.n)
    pert = X + INITIAL_MIX * W / np.linalg.norm(W)
    pert /= float(np.max(np.abs(np.linalg.eigvalsh(pert))))
    smin = float(G.sigma_dec.values[0])
    return mc.hermitize(G.sigma + INITIAL_MARGIN * smin * pert)


def fisher2_bound_check(G: Generator, rho) -> InequalityCheck:
    """Uniform lower bound on the order-2 Fisher information by the gap;
    I2 and D2 are read from one sandwiched state."""
    X = _frame_state(G, rho, strict=True)
    state = nco.frame_sandwiched_state(X, G.sigma_dec, 2.0)
    I2, D2 = state.fisher(G.frame_drift(X)), state.divergence()
    bound = 2.0 * G.gap.value * (1.0 - np.exp(-D2))
    return InequalityCheck(lhs=I2, rhs=float(bound), passed=bool(I2 >= bound - FISHER2_SLACK))


# --- log-Sobolev constants -------------------------------------------------------


@dataclass(frozen=True)
class T2Bound:
    """Mixing-time bound record: evaluate at a target accuracy epsilon."""

    lambda_L: float
    sigma_min: float

    def __call__(self, eps: float) -> float:
        if eps <= 0.0:
            raise DomainError(f"eps={eps} must be positive")
        return max(0.0, np.log(1.0 / (self.sigma_min * eps**2)) / (2.0 * self.lambda_L))


@dataclass(frozen=True)
class ConstantsReport:
    lambda_L: float
    K_lower: float
    K_upper: float
    K2_lower: float
    K_est: float
    K2_est: float
    kappa1_est: float
    kappa2_est: float
    t2_bound: T2Bound
    n_evaluations: int = field(default=0, repr=False)
    # objective evaluations that raised a package or LAPACK error and were
    # scored as +inf; kept out of as_dict so reports stay byte-identical
    n_failed_evaluations: int = field(default=0, repr=False)

    def violations(self) -> list[str]:
        out = []
        if not self.K_lower <= self.K_est <= self.K_upper + VIOLATION_TOL:
            out.append(f"K bracket violated: {self.K_lower} <= {self.K_est} <= {self.K_upper}")
        if self.K2_est < self.K2_lower - VIOLATION_TOL:
            out.append(f"K2 bound violated: {self.K2_est} < {self.K2_lower}")
        if self.kappa1_est < self.kappa2_est - VIOLATION_TOL:
            out.append(f"kappa ordering violated: {self.kappa1_est} < {self.kappa2_est}")
        return out

    def as_dict(self) -> dict:
        out = {k: getattr(self, k) for k in (
            "lambda_L", "K_lower", "K_upper", "K2_lower", "K_est", "K2_est", "kappa1_est", "kappa2_est",
        )}
        out.update(t2_bound_at_1_over_e=float(self.t2_bound(np.exp(-1.0))), violations=self.violations())
        return out


def _lsi_objectives(G: Generator, denom_floor: float = 1e-8):
    # ratios become 0/0 at the stationary state; below `denom_floor` the
    # evaluation is rounding noise, and that neighborhood is covered by the
    # extrapolated directional limits instead.  Each ratio reads its
    # numerator, the Fisher pairing I, and its denominator from one
    # sandwiched state of the strictly validated rho, so all three share one
    # domain: K = I/2D, and kappa = E/Ent with the Dirichlet form
    # E = (alpha Z/4) I, which holds under the KMS symmetry the gap needs.
    # At order 1 kappa is K/2, so it is not descended on.

    def ratio(rho, alpha, kappa):
        X = _frame_state(G, rho, strict=True)
        state = nco.frame_sandwiched_state(X, G.sigma_dec, alpha)
        den = state.entropy() if kappa else state.divergence()
        if den <= denom_floor:
            return np.inf
        I = state.fisher(G.frame_drift(X))
        return alpha * state.Z * I / (4.0 * den) if kappa else I / (2.0 * den)

    return {
        "K": lambda rho: ratio(rho, 1.0, False),
        "K2": lambda rho: ratio(rho, 2.0, False),
        "kappa2": lambda rho: ratio(rho, 2.0, True),
    }


def _guaranteed_lsi(lam: float, smin: float) -> float:
    """Lower bracket of the log-Sobolev constant from the spectral gap and
    the smallest eigenvalue of sigma."""
    return lam / (1.0 - np.log(np.sqrt(smin)))


def lsi_constants(
    G: Generator,
    n_starts: int = 10,
    seed: int = 0,
) -> ConstantsReport:
    """Spectral-gap brackets and sampled infima of the log-Sobolev ratios.

    States are parameterized as exp(H)/tr exp(H) over the traceless
    Hermitian basis and descended with a simplex method from seeded random
    starts, one descent per start for each of K, K2 and kappa2.  All three
    objectives are then re-evaluated on the pooled candidate states.  The
    limit of each ratio toward sigma along the gap direction is added
    through second-order extrapolation; every reported estimate is an upper
    bound on the corresponding infimum.  kappa1 is K/2 exactly (the order-1
    entropy functional is D_1, and Z = 1), so it is reported as K_est / 2.
    """
    if n_starts < 0 or seed < 0:
        raise DomainError(f"n_starts={n_starts} and seed={seed} must be non-negative")
    if not G.primitivity.primitive:
        raise ValidationError("log-Sobolev constants need a primitive generator")
    lam = G.gap.value
    smin = float(G.sigma_dec.values[0])
    K_lower = _guaranteed_lsi(lam, smin)
    K_upper = lam
    K2_lower = lam * (1.0 - smin) / np.log(1.0 / smin)

    basis = nco.traceless_hermitian_basis(G.n)
    d = len(basis)

    def to_rho(x):
        H = sum(c * B for c, B in zip(x, basis))
        dec = mc.SpectralDecomposition(*np.linalg.eigh(H))
        w = np.exp(dec.values - dec.values.max())
        rho = dec.reconstruct(w)
        return rho / np.trace(rho).real

    objectives = _lsi_objectives(G)
    evals = 0
    failed = 0

    def safe(fn, rho):
        nonlocal evals, failed
        evals += 1
        try:
            v = fn(rho)
        except (RenyiflowError, np.linalg.LinAlgError):
            failed += 1
            return np.inf
        return v if np.isfinite(v) else np.inf

    rng = np.random.default_rng(seed)
    starts = [rng.standard_normal(d) * s for _, s in zip(range(n_starts), [0.2, 0.6, 1.2] * n_starts)]
    starts += [rng.standard_normal(d) * 1e-2 for _ in range(3)]

    candidates: list[np.ndarray] = [to_rho(x) for x in starts]
    for name, fn in objectives.items():
        for x0 in starts:
            res = minimize(
                lambda x: safe(fn, to_rho(x)),
                x0,
                method="Nelder-Mead",
                options={"maxiter": LSI_MAXITER, "xatol": 1e-9, "fatol": 1e-12},
            )
            candidates.append(to_rho(res.x))

    best = {name: np.inf for name in objectives}
    for rho in candidates:
        for name, fn in objectives.items():
            best[name] = min(best[name], safe(fn, rho))

    # Richardson-extrapolated sigma-limit along the gap direction; a true
    # limit point of each ratio, so a legitimate upper candidate.  The raw
    # (unguarded) objectives are safe here: the states are controlled.
    raw = _lsi_objectives(G, denom_floor=1e-13)
    nu = gap_eigen_direction(G)
    nu = nco.weight_operator(G.sigma_dec, 1.0).apply(nu)
    nu = mc.hermitize(nu - (np.trace(nu) / G.n) * np.eye(G.n))
    nu /= np.linalg.norm(nu)
    eps = 1e-3 * smin
    for name, fn in raw.items():
        r1 = safe(fn, _project(G.sigma + eps * nu))
        r2 = safe(fn, _project(G.sigma + 0.5 * eps * nu))
        r4 = safe(fn, _project(G.sigma + 0.25 * eps * nu))
        if np.isfinite(r1) and np.isfinite(r2) and np.isfinite(r4):
            best[name] = min(best[name], (8.0 * r4 - 6.0 * r2 + r1) / 3.0)

    return ConstantsReport(
        lambda_L=lam,
        K_lower=float(K_lower),
        K_upper=float(K_upper),
        K2_lower=float(K2_lower),
        K_est=float(best["K"]),
        K2_est=float(best["K2"]),
        kappa1_est=float(best["K"]) / 2.0,
        kappa2_est=float(best["kappa2"]),
        t2_bound=T2Bound(lambda_L=lam, sigma_min=smin),
        n_evaluations=evals,
        n_failed_evaluations=failed,
    )


# --- comparison theorem -----------------------------------------------------------


def default_comparison_eps(smin: float) -> float:
    """Default initial relative-entropy bound of the order comparison,
    a quarter of its upper limit smin^2/2."""
    return smin**2 / 8.0


def require_comparison_eps(eps: float, smin: float) -> float:
    """eps, checked inside (0, smin^2/2), where the comparison construction
    is defined (smin the smallest eigenvalue of sigma)."""
    if not 0.0 < eps < smin**2 / 2.0:
        raise DomainError(f"eps={eps} outside (0, {smin**2 / 2.0})")
    return eps


def _lambda_eta(alpha0: float, eps: float, sigma_values: np.ndarray, omegas) -> tuple[float, float]:
    smin, smax = float(sigma_values[0]), float(sigma_values[-1])
    require_comparison_eps(eps, smin)
    s2e = np.sqrt(2.0 * eps)
    Lam = (smax / smin) * np.exp(alpha0 * s2e * (2.0 * smin - s2e) / (smin * (smin - s2e)))
    etas = [2.0 * np.sqrt(np.exp(om) / Lam) / (1.0 + np.exp(om) * Lam) for om in omegas]
    eta = min(0.5, min(etas)) if etas else 0.5
    return float(Lam), float(eta)


def _delay_time(alpha0: float, alpha1: float, K: float, eta: float) -> float:
    return float(np.log((alpha1 - 1.0) / (alpha0 - 1.0)) / (2.0 * K * eta))


def comparison_constants(
    alpha0: float, alpha1: float, eps: float, sigma_dec: mc.SpectralDecomposition, omegas, K: float
) -> tuple[float, float, float]:
    """Closed-form (Lambda, eta, T) of the order-comparison construction,
    from sigma's validated decomposition."""
    if not 1.0 < alpha0 <= alpha1 < np.inf:
        raise DomainError(f"need 1 < alpha0 <= alpha1 < inf, got ({alpha0}, {alpha1})")
    if K <= 0.0:
        raise DomainError(f"K={K} must be positive")
    Lam, eta = _lambda_eta(alpha0, eps, sigma_dec.values, omegas)
    return Lam, eta, _delay_time(alpha0, alpha1, K, eta)


@dataclass(frozen=True)
class HyperTrace:
    times: np.ndarray
    beta: np.ndarray
    F: np.ndarray
    max_forward_increase: float
    final: np.ndarray  # the flowed state at the end of the delay window, in sigma's frame
    D_start: float  # the order-alpha0 divergence of the validated rho0


def hypercontractivity_monitor(
    G: Generator,
    rho0,
    alpha0: float,
    alpha1: float,
    eta: float,
    K: float,
    eps: float | None = None,
) -> HyperTrace:
    """Sample the interpolating norm functional along the flow.

    The effective order grows from alpha0 to alpha1 over the delay window;
    the functional is non-increasing when eta respects the comparison
    bound, and the reported maximum forward difference quantifies any
    numerical violation.  The flow is integrated once, over the whole
    window, and `integrate` is the one validation of rho0; its final state,
    in sigma's frame, is returned with the samples.  Everything is read
    from the trajectory's frame stack.  The order-1 divergence D0 <= eps is
    then checked, and so is its Pinsker bound ||rho0 - sigma||_F^2 / 2 =
    ||X0 - diag(lam)||_F^2 / 2 <= eps; D0 and the order-alpha0 divergence
    D_start of rho0 come from two sandwiched states, each at a scalar order.
    The functional reads only the spectrum values of the sandwiched states
    along the trajectory, stacked with an order per state.
    """
    if not 1.0 < alpha0 <= alpha1 < np.inf:
        raise DomainError(f"need 1 < alpha0 <= alpha1 < inf, got ({alpha0}, {alpha1})")
    if K <= 0.0 or eta <= 0.0:
        raise DomainError(f"K={K} and eta={eta} must be positive")
    smin = float(G.sigma_dec.values[0])
    eps = require_comparison_eps(default_comparison_eps(smin) if eps is None else eps, smin)
    T = _delay_time(alpha0, alpha1, K, eta)
    dt = suggested_dt(G)
    store = max(1, int(np.ceil(T / dt / MONITOR_SAMPLES)))
    traj = integrate(G, rho0, T, dt, store_every=store)
    X0 = traj.frame[0]
    D0, D_start = (nco.frame_sandwiched_state(X0, G.sigma_dec, a).divergence() for a in (1.0, alpha0))
    # Pinsker with the Frobenius norm below the trace norm: a lower bound on
    # D0 that needs no decomposition, so rounding near sigma cannot hide it
    D0 = max(D0, 0.5 * float(np.linalg.norm(X0 - np.diag(G.sigma_dec.values))) ** 2)
    if D0 > eps:
        raise ValidationError(f"initial relative entropy {D0:.3e} exceeds the required bound eps={eps:.3e}")
    beta = 1.0 + (alpha0 - 1.0) * np.exp(2.0 * K * eta * traj.times)
    # log tr[(s rho s)^b] / b with s = sigma^((1-b)/2b), for all states at once
    F = np.log(nco.frame_sandwiched_trace(traj.frame, G.sigma_dec, beta)) / beta
    fw = np.diff(F)
    return HyperTrace(traj.times, beta, F, float(fw.max(initial=0.0)), traj.frame[-1], float(D_start))


@dataclass(frozen=True)
class ComparisonReport:
    alpha0: float
    alpha1: float
    eps: float
    K: float
    Lambda: float
    eta: float
    T: float
    D_start: float
    D_end: float
    max_forward_increase: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def comparison_check(
    G: Generator,
    rho0,
    alpha0: float,
    alpha1: float,
    eps: float | None = None,
) -> ComparisonReport:
    """End-to-end comparison-theorem verification for one order pair.

    Integrates to the delay time and requires the final higher-order
    divergence to stay below the initial lower-order one, with the norm
    functional non-increasing along the way.  The monitor's trajectory
    is the only integration and validates rho0: the monitor gives the
    start divergence, and its final state, screened by `integrate`, the
    end divergence.  K is the guaranteed lower log-Sobolev bracket.
    """
    smin = float(G.sigma_dec.values[0])
    eps = default_comparison_eps(smin) if eps is None else eps
    K = _guaranteed_lsi(G.gap.value, smin)
    Lam, eta, T = comparison_constants(alpha0, alpha1, eps, G.sigma_dec, G.omegas, K)
    trace = hypercontractivity_monitor(G, rho0, alpha0, alpha1, eta, K, eps=eps)
    D_start = trace.D_start
    D_end = nco.frame_sandwiched_state(trace.final, G.sigma_dec, alpha1).divergence()
    passed = (D_end <= D_start + COMPARISON_SLACK) and (trace.max_forward_increase <= MONITOR_SLACK)
    return ComparisonReport(
        alpha0=float(alpha0), alpha1=float(alpha1), eps=float(eps), K=float(K),
        Lambda=Lam, eta=eta, T=T, D_start=D_start, D_end=D_end,
        max_forward_increase=trace.max_forward_increase, passed=passed,
    )
