"""Command-line frontend.

Loads generators from builtin specs or JSON files, dispatches the
computations, and writes CSV / JSON reports atomically with fixed
17-significant-digit formatting so reruns are byte-identical.  A non-finite
result raises NonFiniteError before anything is written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import stat
import sys
import tempfile
import warnings
from urllib.parse import parse_qs

import numpy as np
import orjson

from . import balance_check as bc
from . import flow
from . import matcore as mc
from . import noncomm_ops as nco
from .errors import (
    DomainError, IntegrationError, NonFiniteError, RenyiflowError, SingularityError, StructuralError, ValidationError,
)
from .generator import Generator, JumpTerms, build_gns, depolarizing_generator, qubit_xz_generator

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64
MAX_RANGE_ORDERS = 10_000  # orders an alpha range start:stop:step may span
MAX_BUILTIN_DIM = 16  # the largest n of a builtin or file generator: the dimensions matcore is written for
MAX_SAMPLES = 10_000  # random states `gradflow --samples` may draw
MAX_STARTS = 1_000  # seeded starts `constants --starts` may descend from
# each builtin generator and the query parameters it takes
BUILTIN_PARAMS = {"carlen-maas": (), "qubit-xz": (), "depolarizing": ("gamma", "n", "sigma")}
# the deepest generator file orjson decodes: orjson 3.8 has no nesting limit and overflows the
# C stack at about 100 000 levels, and the stdlib decodes every document up to this depth
_ORJSON_DEPTH = 512
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"tf')))  # every byte but brackets, quotes, t and f
_BRACKET_STEPS = bytes.maketrans(b"[{]}tf", b"\x01\x01\xff\xff\x00\x00")  # +1, -1 and 0 as int8
_STRING = re.compile(rb'"[^"]*"')


def _fmt(x: float) -> str:
    if not np.isfinite(x):
        raise NonFiniteError(f"non-finite result {x}")
    return f"{x:.17g}"


def _json(doc: dict) -> str:
    """A report as sorted, indented JSON; a non-finite number in it raises
    NonFiniteError, naming its keys."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        bad = sorted(k for k, v in doc.items() if isinstance(v, float) and not np.isfinite(v))
        raise NonFiniteError(f"non-finite result in {', '.join(bad) or 'the report'}") from None


def write_atomic(path: str, text: str) -> None:
    """Write text in place to an existing non-regular file (a FIFO), else through a temporary
    file that replaces the file the path's symlinks resolve to.  The file keeps the mode of the
    file it replaces; a new one gets 0666 less the umask, as `open` would give it.  OSError
    raises ValidationError."""
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w") as fh:
                fh.write(text)
            return
        target = os.path.realpath(path)
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".renyiflow-")
        try:
            os.fchmod(fd, mode)
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def emit(path: str | None, text: str) -> None:
    if path:
        write_atomic(path, text)
    else:
        sys.stdout.write(text)


def _number(text, what: str, cast=float):
    try:
        return cast(text)
    except (TypeError, ValueError):
        raise DomainError(f"{what}: {text!r} is not a number") from None


def parse_alphas(spec: str) -> list[float]:
    """Comma list `1,2,4` or inclusive range `start:stop:step`."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise DomainError(f"range syntax is start:stop:step, got {spec!r}")
        start, stop, step = (_number(p, "alpha range") for p in parts)
        if not np.all(np.isfinite([start, stop, step])) or step <= 0:
            raise DomainError(f"range needs finite bounds and a positive step in {spec!r}")
        count = np.floor((stop - start) / step + 1e-9) + 1.0
        if not count <= MAX_RANGE_ORDERS:  # also an infinite count, before any list is built
            raise DomainError(f"range {spec!r} spans {count:.3g} orders, above the cap of {MAX_RANGE_ORDERS}")
        vals = [start + k * step for k in range(int(count))]
    else:
        vals = [_number(p, "alpha") for p in spec.split(",") if p.strip()]
    if not vals:
        raise DomainError(f"empty alpha list {spec!r}")
    if not all(a > 0.0 for a in vals):
        raise DomainError(f"alpha values must be positive numbers in {spec!r}")
    return vals


def _count(value: int, cap: int, option: str) -> int:
    """A count option, checked inside 0..cap before anything is built."""
    if not 0 <= value <= cap:
        raise DomainError(f"{option} {value} outside 0..{cap}")
    return value


def _parse_diag(entries: str) -> np.ndarray:
    cells = entries.split(",")
    if len(cells) > MAX_BUILTIN_DIM:
        raise ValidationError(f"sigma: {len(cells)} entries, above {MAX_BUILTIN_DIM}")
    lam = np.array([_number(x, "sigma entry") for x in cells], dtype=float)
    return np.diag(lam).astype(complex)


def _builtin_spec(spec: str) -> tuple[str, dict[str, str]]:
    """The name and query parameters of `builtin:<name>?<key>=<value>&...`:
    each key one the generator takes, given once with a value, and n not
    with sigma."""
    name, _, query = spec[len("builtin:"):].partition("?")
    if name not in BUILTIN_PARAMS:
        raise ValidationError(f"unknown builtin generator {name!r}")
    params = parse_qs(query, keep_blank_values=True)
    for key, values in params.items():
        if key not in BUILTIN_PARAMS[name]:
            raise ValidationError(f"{spec}: builtin:{name} takes no parameter {key!r}")
        if len(values) > 1:
            raise ValidationError(f"{spec}: parameter {key!r} is given {len(values)} times")
        if not values[0].strip():
            raise ValidationError(f"{spec}: parameter {key!r} has no value")
    if "n" in params and "sigma" in params:
        raise ValidationError(f"{spec}: give n or sigma, not both")
    return name, {key: values[0] for key, values in params.items()}


def load_generator(spec: str) -> Generator:
    if spec.startswith("builtin:"):
        name, params = _builtin_spec(spec)
        if name == "carlen-maas":
            return bc.carlen_maas_counterexample()
        if name == "qubit-xz":
            return qubit_xz_generator()
        gamma = _number(params.get("gamma", "1.0"), "gamma")
        if "sigma" in params:
            sigma = _parse_diag(params["sigma"])
        else:
            n = _number(params.get("n", "2"), "n", int)
            if not 1 <= n <= MAX_BUILTIN_DIM:
                raise ValidationError(f"{spec}: n={n} is outside 1..{MAX_BUILTIN_DIM}")
            sigma = np.eye(n, dtype=complex) / n
        return depolarizing_generator(gamma, sigma)
    if not os.path.exists(spec):
        raise ValidationError(f"generator file not found: {spec}")
    doc, booleans = _load_generator_json(spec)
    if not isinstance(doc, dict) or "sigma" not in doc:
        raise ValidationError(f"{spec}: a generator file needs a 'sigma' entry")
    base = os.path.dirname(os.path.abspath(spec))
    sigma = _load_matrix_field(doc["sigma"], base, "sigma", booleans)
    if len(sigma) > MAX_BUILTIN_DIM:
        raise ValidationError(f"{spec}: sigma is {len(sigma)} x {len(sigma)}, above n = {MAX_BUILTIN_DIM}")
    entries = doc.get("terms")
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{spec}: no jump terms given")
    for j, entry in enumerate(entries):
        if not isinstance(entry, dict) or "V" not in entry:
            raise ValidationError(f"{spec}: term {j} needs a 'V' entry")
    # a V given as a CSV path joins the inline rows in their (n, 2n) layout
    rows = [mc.matrix_to_rows(_load_matrix_field(e["V"], base, "V", booleans)) if isinstance(e["V"], str) else e["V"]
            for e in entries]
    weights = [e.get("weight") for e in entries]
    try:
        terms = JumpTerms.of(_jump_stack(rows, len(sigma), booleans), [e.get("omega", 0.0) for e in entries],
                             None if all(w is None for w in weights) else weights)
    except (ValidationError, StructuralError) as exc:
        raise ValidationError(f"{spec}: {exc}") from None
    return build_gns(sigma, terms, label=doc.get("label", os.path.basename(spec)))


def _jump_stack(rows: list, n: int, booleans: bool) -> np.ndarray:
    """The terms' V from their rows of 2n interleaved reals, converted at
    once to an (m, n, n) stack; if that fails, the first term at fault is named."""
    arr = None
    with contextlib.suppress(StructuralError):
        arr = _reals(rows, "V", booleans)
    if arr is None or arr.shape[1:] != (n, 2 * n):
        for j, r in enumerate(rows):
            shape = _inline_matrix(r, f"term {j}: V", booleans).shape
            if shape != (n, n):
                raise ValidationError(f"term {j}: V has shape {shape}, sigma has shape ({n}, {n})")
    return arr[..., 0::2] + 1j * arr[..., 1::2]


def _reals(rows, name: str, booleans: bool) -> np.ndarray:
    """A file's nested lists of numbers as one float array, converted in one
    step.  A text cell among numbers makes the whole array text, and a
    true/false cell is refused too; numbers upcast one among them, so the
    cells are checked one by one if the file holds `booleans` (`_structure`)."""
    with contextlib.suppress(TypeError, ValueError):
        arr = np.asarray(rows)
        if arr.dtype.kind not in "Ub" and not (booleans and _has_bool(rows)):
            return arr.astype(float, copy=False)
    raise StructuralError(f"{name}: rows must be equal-length lists of reals")


def _has_bool(x) -> bool:
    return isinstance(x, bool) or isinstance(x, list) and any(map(_has_bool, x))


def _inline_matrix(rows, name: str, booleans: bool) -> np.ndarray:
    return mc.rows_to_matrix(_reals(rows, name, booleans), name)


def _load_json(path: str):
    """A JSON file decoded by the stdlib; a document it cannot read, or nested
    past its recursion limit, raises ValidationError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def _load_generator_json(path: str) -> tuple[object, bool]:
    """A generator file decoded by orjson, to the stdlib's object, and
    whether a true or false stands outside its strings.  Three kinds of
    document go to `_load_json` instead: one orjson refuses (NaN and Infinity
    literals, numbers out of range, lone surrogates, a BOM, text that is not
    JSON), one nested deeper than `_ORJSON_DEPTH`, and one whose label is not
    a string (orjson reads an integer beyond 64 bits as a float)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    depth, booleans = _structure(raw)
    if depth <= _ORJSON_DEPTH:
        with contextlib.suppress(orjson.JSONDecodeError):
            doc = orjson.loads(raw)
            if not isinstance(doc, dict) or isinstance(doc.get("label", ""), str):
                return doc, booleans
    return _load_json(path), booleans


def _structure(raw: bytes) -> tuple[int, bool]:
    """The bracket depth of the JSON text raw outside its strings, and whether
    a t or f stands there: in valid JSON only true, false and the stdlib's
    Infinity put one there.  Escaped backslashes and quotes go first, so
    that every quote left opens or closes a string.  Text that is not JSON
    may read shallower, but orjson refuses it before it builds any object."""
    if b"\\" in raw:
        raw = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    steps = _STRING.sub(b"", raw.translate(None, _NOT_STRUCTURE)).translate(_BRACKET_STEPS)
    return int(np.frombuffer(steps, np.int8).cumsum().max(initial=0)), b"\x00" in steps


def _load_matrix_field(value, base: str, name: str, booleans: bool) -> np.ndarray:
    if isinstance(value, str):
        path = value if os.path.isabs(value) else os.path.join(base, value)
        if not os.path.exists(path):
            raise ValidationError(f"matrix file not found: {path}")
        return _read_matrix_csv(path)
    return _inline_matrix(value, name, booleans)


def _read_matrix_csv(path: str) -> np.ndarray:
    """The matrix of a CSV block file; one that cannot be read as text raises ValidationError."""
    try:
        with open(path) as fh:
            return mc.matrix_from_csv_block(fh.read())[1]
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def load_rho0(spec: str, G: Generator, seed: int) -> np.ndarray:
    if spec == "sigma":
        return G.sigma
    if spec == "random":
        return mc.random_density(np.random.default_rng(seed), G.n, floor=0.05)
    name, colon, d = spec.partition(":")
    if name == "near-sigma":
        delta = _number(d, "near-sigma mixing weight") if colon else 0.05
        if not 0.0 <= delta <= 1.0:
            raise DomainError(f"near-sigma mixing weight {delta} outside [0, 1]")
        w = mc.random_density(np.random.default_rng(seed), G.n, floor=0.05)
        return mc.hermitize((1.0 - delta) * G.sigma + delta * w)
    if os.path.exists(spec):
        rho = mc.require_density(_read_matrix_csv(spec), name=spec)
        if rho.shape != (G.n, G.n):
            raise ValidationError(f"{spec}: shape {rho.shape} does not match the generator's ({G.n}, {G.n})")
        return rho
    raise ValidationError(f"unrecognized rho0 spec {spec!r}")


# --- commands -----------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        G = load_generator(args.generator)
    except RenyiflowError as exc:
        print(json.dumps({"valid": False, "failures": [str(exc)]}, indent=2))
        return EXIT_VALIDATION
    # only the GNS, KMS and BKM verdicts are printed: BKM is the one order of the grid
    report = bc.balance_report(G, alphas=(1.0,))
    verdicts = report.verdicts
    lines = [f"generator: {G.label} (n={G.n})"]
    for key in ("gns", "kms", "bkm"):
        res = getattr(report, f"{key}_residual")
        lines.append(f"{key.upper()}: {'pass' if verdicts[key] else 'fail'} (residual {_fmt(res)})")
    prim = G.primitivity
    lines.append(f"primitive: {prim.primitive} (kernel dim {prim.kernel_dim})")
    print("\n".join(lines))
    return EXIT_OK


def cmd_dbcheck(args) -> int:
    G = load_generator(args.generator)
    alphas = parse_alphas(args.alphas)
    report = bc.balance_report(G, alphas)
    emit(args.out, _json(report.as_dict()))
    return EXIT_OK


def cmd_fig1(args) -> int:
    G = load_generator(args.generator)
    alphas = parse_alphas(args.alphas)
    rows = bc.fig1_sweep(G, alphas)
    lines = ["alpha,residual"]
    # the order is echoed as given: inf is an order of the weight kernel
    lines += [f"{a:.17g},{_fmt(r)}" for a, r in rows]
    emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    G = load_generator(args.generator)
    rho0 = load_rho0(args.rho0, G, args.seed)
    alphas = parse_alphas(args.alphas)
    traj = flow.integrate(G, rho0, args.t_end, args.dt, store_every=args.store_every)
    rows = flow.divergence_trace(traj, alphas).rows()
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        t, a = rows[bad][0, :2]
        raise NonFiniteError(f"non-finite divergence or Fisher information at t={t:.6g}, alpha={a:g}")
    emit(args.out, "t,alpha,D,I\n" + ("%.17g,%.17g,%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist()))
    return EXIT_OK


def cmd_gradflow(args) -> int:
    samples = _count(args.samples, MAX_SAMPLES, "--samples")
    G = load_generator(args.generator)
    alphas = parse_alphas(args.alphas)
    rng = np.random.default_rng(args.seed)
    lines = ["sample,alpha,residual"]
    for s in range(samples):
        rho = mc.random_density(rng, G.n, floor=0.1)
        for a in alphas:
            r = flow.gradient_flow_residual(G, rho, a)
            lines.append(f"{s},{_fmt(a)},{_fmt(r)}")
    emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_constants(args) -> int:
    starts = _count(args.starts, MAX_STARTS, "--starts")
    G = load_generator(args.generator)
    report = flow.lsi_constants(G, n_starts=starts, seed=args.seed)
    emit(args.out, _json(report.as_dict()))
    return EXIT_OK


def cmd_compare(args) -> int:
    G = load_generator(args.generator)
    smin = float(G.sigma_dec.values[0])
    eps = flow.require_comparison_eps(args.eps if args.eps is not None else flow.default_comparison_eps(smin), smin)
    if args.rho0 == "auto":
        rho0 = _shrink_to_entropy(G, eps, args.seed)
    else:
        rho0 = load_rho0(args.rho0, G, args.seed)
    report = flow.comparison_check(G, rho0, args.alpha0, args.alpha1, eps=eps)
    emit(args.out, _json(report.as_dict()))
    return EXIT_OK if report.passed else EXIT_NUMERICAL


# mixing weights 0.5 * 0.7^k (k < 60) of the initial-state ladder, each the
# previous one times 0.7
_LADDER = np.cumprod(np.r_[0.5, np.full(59, 0.7)])[:, None, None]


def _shrink_to_entropy(G: Generator, eps: float, seed: int) -> np.ndarray:
    """The first state of the ladder (1 - delta_k) sigma + delta_k w
    (weights `_LADDER`) toward sigma from a random state w whose relative
    entropy is at most 0.8 eps.  Rung k has chi^2 = delta_k^2 chi^2(w), with
    chi^2(w) = ||sigma^(-1/4) (w - sigma) sigma^(-1/4)||_F^2 (in sigma's frame,
    w' - diag(lam) divided by the kernel (lam_k lam_l)^(1/4)), and relative
    entropy at most D_2 = log(1 + chi^2).  So the rungs up to the first whose
    bound is at most 0.8 eps are checked as density matrices and scored from
    one stacked decomposition; the rest, only if none of those is chosen."""
    w = mc.random_density(np.random.default_rng(seed), G.n, floor=0.05)
    rungs = mc.hermitize((1.0 - _LADDER) * G.sigma + _LADDER * w)
    sig = G.sigma_dec
    chi2 = np.linalg.norm((sig.to_frame(w) - np.diag(sig.values)) / sig.kernel(0.25, 0.25)) ** 2
    cleared = np.flatnonzero(np.log1p(_LADDER[:, 0, 0] ** 2 * chi2) <= 0.8 * eps)
    for part in np.split(rungs, cleared[:1] + 1):
        state = nco.frame_sandwiched_state(sig.to_frame(part), sig, 1.0)
        for rho, wmin, D in zip(part, state.dec.values[:, 0], state.divergence()):
            mc.check_density(rho, wmin, name="rho")
            if D <= 0.8 * eps:
                return rho
    raise ValidationError("could not construct an initial state inside the entropy ball")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(prog="renyiflow", description=__doc__)
    p.add_argument("--config", help="JSON file of defaults for the chosen command")
    sub = p.add_subparsers(dest="command", required=True)

    def config(sp):
        # SUPPRESS: an absent subcommand --config must not overwrite one
        # given before the subcommand
        sp.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON file of defaults for this command")

    def common(sp):
        sp.add_argument("--generator", required=True, help="builtin:<name> or JSON file")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        config(sp)

    sp = sub.add_parser("validate", help="validate a generator and report balance verdicts")
    sp.add_argument("--generator", required=True)
    config(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("dbcheck", help="detailed-balance residual report")
    common(sp)
    sp.add_argument("--alphas", default="0.5,1,2,4")
    sp.set_defaults(fn=cmd_dbcheck)

    sp = sub.add_parser("fig1", help="order sweep of the weighted self-adjointness residual")
    common(sp)
    sp.add_argument("--alphas", default="0.25:6:0.25")
    sp.set_defaults(fn=cmd_fig1)

    sp = sub.add_parser("simulate", help="integrate and trace divergences")
    common(sp)
    sp.add_argument("--rho0", default="random")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--alphas", default="1,2")
    sp.add_argument("--t-end", type=float, required=True, dest="t_end")
    sp.add_argument("--dt", type=float, required=True, help="sampling step")
    sp.add_argument("--store-every", type=int, default=1, dest="store_every")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("gradflow", help="gradient-flow identity residuals on random states")
    common(sp)
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--alphas", default="0.5,1,1.5,2,3")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_gradflow)

    sp = sub.add_parser("constants", help="log-Sobolev constant brackets and estimates")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--starts", type=int, default=10)
    sp.set_defaults(fn=cmd_constants)

    sp = sub.add_parser("compare", help="order-comparison theorem check")
    common(sp)
    sp.add_argument("--alpha0", type=float, required=True)
    sp.add_argument("--alpha1", type=float, required=True)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--rho0", default="auto")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_compare)
    return p


def _apply_config(args: argparse.Namespace, argv) -> argparse.Namespace:
    """Make each option a config file names default to its value, converted
    as the option converts its command-line text, and parse argv again, so
    an option given on the command line keeps its value.  The defaults go
    on a fresh parser; the shared one is left unchanged."""
    if not args.config:
        return args
    doc = _load_json(args.config)
    if not isinstance(doc, dict):
        raise ValidationError(f"{args.config}: config must be a JSON object")
    parser = build_parser.__wrapped__()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[args.command]
    options = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, val in doc.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ValidationError(f"{args.config}: {args.command} has no option {key!r}")
        text = val if isinstance(val, str) else json.dumps(val)
        try:
            defaults[action.dest] = action.type(text) if action.type else text
        except ValueError:
            raise ValidationError(f"{args.config}: {key} = {text} is not a valid {action.type.__name__}") from None
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one command; its warnings join a failure's JSON document on stderr, or are emitted again.
    A negative --seed exits 1.  An input too large for memory (a MemoryError) exits 1, and a
    linear-algebra routine that fails (a LinAlgError) exits 2, each naming the command."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = _apply_config(args, argv)
            if getattr(args, "seed", 0) < 0:
                raise DomainError(f"--seed {args.seed} is negative")
            code = args.fn(args)
        except (ValidationError, StructuralError, DomainError) as exc:
            code, error = EXIT_VALIDATION, {"error": "validation", "detail": str(exc)}
        except (IntegrationError, SingularityError, NonFiniteError) as exc:
            code, error = EXIT_NUMERICAL, {"error": "numerical", "detail": str(exc)}
        except MemoryError as exc:
            code = EXIT_VALIDATION
            error = {"error": "validation", "command": args.command, "detail": f"out of memory: {exc}"}
        except np.linalg.LinAlgError as exc:
            code = EXIT_NUMERICAL
            error = {"error": "numerical", "command": args.command, "detail": f"linear algebra: {exc}"}
    if error is None:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
        return code
    if caught:
        error["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    print(json.dumps(error), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
