"""Per-layer tracing of renyiflow from outside the package.

`Tracer.install` replaces, by attribute assignment, every public function
of the seven modules, every `from ... import` binding of one of them in
another module (e.g. `cli.build_gns`), and the methods
`KernelOperator.apply`, `RenyiMultiplier.apply` and `Generator.apply_Ldag`
with a wrapper that records a span (name, start, end, parent, job id).
Nothing in the package itself changes.  Spans are kept in compact arrays
and written out once at the end; a span's self time is its duration minus
that of its child spans, and a layer's self time is the sum over its
functions.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("matcore", "noncomm_ops", "generator", "divergence", "balance_check", "flow", "cli")
METHODS = (
    ("noncomm_ops", "KernelOperator", "apply"),
    ("noncomm_ops", "RenyiMultiplier", "apply"),
    ("generator", "Generator", "apply_Ldag"),
)

# Per-layer metrics: name -> (unit, what it measures, the end-to-end metric
# and workload it should move, where it should not move).
PER_LAYER = {
    "matcore.self_s": ("s/job", "self time of matcore per job",
                       "jobs_per_kref, job_p50_ref on decay-trace; job_p50_ref on structure-n8",
                       "comparison-flow"),
    "matcore.eig_hermitian.calls": ("count/job", "eig_hermitian calls per job",
                                    "jobs_per_kref, job_p50_ref on decay-trace", "comparison-flow"),
    "matcore.eig_hermitian.us_per_call": ("us", "eig_hermitian busy time per call",
                                          "jobs_per_kref, job_p50_ref on decay-trace", "comparison-flow"),
    "matcore.eig_hermitian.distinct_frac": ("ratio", "distinct eig_hermitian inputs per call, within a job",
                                            "jobs_per_kref on decay-trace", "comparison-flow"),
    "matcore.require_density.calls": ("count/job", "require_density calls per job",
                                      "jobs_per_kref, job_p50_ref on decay-trace", "comparison-flow"),
    "matcore.superoperator_of_map.ms_per_call": ("ms", "superoperator_of_map busy time per call",
                                                 "job_p50_ref on structure-n8", "comparison-flow"),
    "divergence.self_s": ("s/job", "self time of divergence per job",
                          "jobs_per_kref, job_tail_ref on decay-trace", "comparison-flow, structure-n8"),
    "divergence.sandwiched_renyi.us_per_call": ("us", "sandwiched_renyi busy time per call",
                                                "jobs_per_kref, job_tail_ref on decay-trace",
                                                "comparison-flow, structure-n8"),
    "divergence.fisher_information.us_per_call": ("us", "fisher_information busy time per call",
                                                  "jobs_per_kref, job_tail_ref on decay-trace",
                                                  "comparison-flow, structure-n8"),
    "divergence.functional_derivative.calls": ("count/job", "functional_derivative calls per job",
                                               "jobs_per_kref on decay-trace", "comparison-flow, structure-n8"),
    "noncomm_ops.self_s": ("s/job", "self time of noncomm_ops per job",
                           "job_p50_ref on structure-n8", "comparison-flow"),
    "noncomm_ops.renyi_multiplier.calls": ("count/job", "renyi_multiplier calls per job",
                                           "job_p50_ref on structure-n8", "comparison-flow"),
    "noncomm_ops.renyi_multiplier.ms_per_family": ("ms", "renyi_multiplier busy time per "
                                                   "gradient_flow_residual or metric_tensor call",
                                                   "job_p50_ref on structure-n8", "comparison-flow"),
    "noncomm_ops.weight_operator.calls": ("count/job", "weight_operator calls per job",
                                          "job_p50_ref on structure-n8", "comparison-flow"),
    "generator.self_s": ("s/job", "self time of generator per job",
                         "job_p50_ref, setup_s on structure-n8", "decay-trace"),
    "generator.build_gns.ms_per_call": ("ms", "build_gns busy time per call",
                                        "job_p50_ref, setup_s on structure-n8", "decay-trace"),
    "generator.spectral_gap.ms_per_call": ("ms", "spectral_gap busy time per call (only compare calls it)",
                                           "jobs_per_kref on comparison-flow", "decay-trace, structure-n8"),
    "generator.check_primitive.ms_per_call": ("ms", "check_primitive busy time per call",
                                              "job_p50_ref on structure-n8", "decay-trace"),
    "balance_check.self_s": ("s/job", "self time of balance_check per job",
                             "job_p50_ref on structure-n8", "every other workload (absent there)"),
    "balance_check.srd_residual.ms_per_call": ("ms", "srd_residual busy time per call",
                                               "job_p50_ref on structure-n8", "every other workload"),
    "balance_check.check_kms.ms_per_call": ("ms", "check_kms busy time per call",
                                            "job_p50_ref on structure-n8", "every other workload"),
    "flow.self_s": ("s/job", "self time of flow per job",
                    "jobs_per_kref on comparison-flow and decay-trace", ""),
    "flow.integrate.us_per_step": ("us", "integrate busy time over ceil(t_end/dt) steps",
                                   "jobs_per_kref, job_tail_ref on comparison-flow",
                                   "structure-n8"),
    "flow.integrate.self_s": ("s/job", "self time of integrate per job",
                              "jobs_per_kref, job_tail_ref on comparison-flow", "structure-n8"),
    "flow.divergence_trace.us_per_state_order": ("us", "divergence_trace busy time per (state, order)",
                                                 "jobs_per_kref, job_p50_ref on decay-trace", "comparison-flow"),
    "flow.divergence_trace.prune_warnings": ("count/job", "states-pruned warnings per job",
                                             "nothing (a correctness signal)", ""),
    "flow.gradient_flow_residual.ms_per_call": ("ms", "gradient_flow_residual busy time per call",
                                                "job_p50_ref on structure-n8", "decay-trace"),
    "flow.metric_tensor.ms_per_call": ("ms", "metric_tensor busy time per call",
                                       "job_p50_ref on structure-n8", "decay-trace"),
    "flow.hypercontractivity_monitor.self_s": ("s/job", "self time of hypercontractivity_monitor per job",
                                               "jobs_per_kref on comparison-flow", "decay-trace"),
    "cli.self_s": ("s/job", "self time of cli (parse, format, atomic write) per job",
                   "a little on every workload", ""),
    "cli.load_generator.ms_per_call": ("ms", "load_generator busy time per call",
                                       "job_p50_ref on structure-n8 (validate, dbcheck)", ""),
    "cli.write_atomic.bytes": ("bytes/job", "bytes written by write_atomic per job",
                               "nothing (output size)", ""),
    "cli.exit_nonzero": ("count", "cli.main calls returning a non-zero exit code", "nothing", ""),
    "trace.overhead_frac": ("ratio", "(traced - untraced wall time) / untraced, same jobs",
                            "nothing (tracing cost)", ""),
    "trace.exceptions": ("count/job", "exceptions crossing a traced boundary per job",
                         "nothing (hidden failures)", ""),
    "trace.spans": ("count/job", "spans recorded per job", "nothing (call volume)", ""),
}


def _integrate_steps(a: dict) -> float:
    # the step count integrate() takes on its fixed grid
    return 0.0 if a["t_end"] <= 0.0 else float(max(1, math.ceil(a["t_end"] / a["dt"] - 1e-9)))


# counters a traced call adds to: qualified name -> (counter, f(bound arguments) or f(result))
CALL_COUNTERS = {
    "flow.integrate": ("integrate.steps", _integrate_steps),
    "cli.write_atomic": ("write_atomic.bytes", lambda a: float(len(a["text"]))),
}
RESULT_COUNTERS = {
    "flow.divergence_trace": ("divergence_trace.state_orders", lambda r: float(r.D.size)),
    "cli.main": ("cli.exit_nonzero", lambda r: float(r != 0)),
}


class Tracer:
    """Span recorder; wrappers record only while `active` is true."""

    def __init__(self):
        self.names: list[str] = []
        # one row per finished span: index, name id, parent index, job id, start, end
        self.rows = array("q")
        self.count = 0
        self.stack: list[int] = []
        self.active = False
        self.job_id = -1
        self.exceptions: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.eig_inputs: set[bytes] = set()
        self.eig_distinct = 0

    def begin_job(self, job_id: int) -> None:
        self.job_id = job_id
        self.eig_inputs.clear()

    def install(self, package) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name, obj in list(vars(mod).items()):
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj)
                    setattr(mod, name, wrapped[obj])
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))

    def _wrap(self, qname: str, fn):
        nid = len(self.names)
        self.names.append(qname)
        call_counter = CALL_COUNTERS.get(qname)
        result_counter = RESULT_COUNTERS.get(qname)
        signature = inspect.signature(fn) if call_counter else None
        distinct = qname == "matcore.eig_hermitian"
        clock = perf_counter_ns
        record = self.rows.extend
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stack = tr.stack
            parent = stack[-1] if stack else -1
            idx = tr.count
            tr.count = idx + 1
            if distinct:
                key = hashlib.blake2b(np.ascontiguousarray(args[0]).tobytes(), digest_size=16).digest()
                if key not in tr.eig_inputs:
                    tr.eig_inputs.add(key)
                    tr.eig_distinct += 1
            if call_counter:
                tr.counters[call_counter[0]] += call_counter[1](signature.bind(*args, **kwargs).arguments)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.exceptions[qname] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                record((idx, nid, parent, tr.job_id, t0, t1))
            if result_counter:
                tr.counters[result_counter[0]] += result_counter[1](result)
            return result

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns, indexed by span index (spans are numbered at entry)."""
        rows = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, 6)
        spans = np.empty_like(rows)
        spans[rows[:, 0]] = rows
        return {
            "name_id": spans[:, 1],
            "parent": spans[:, 2],
            "job": spans[:, 3],
            "start_ns": spans[:, 4],
            "end_ns": spans[:, 5],
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, busy seconds and self seconds per traced name."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(float) * 1e-9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        busy = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=self_t, minlength=k)
        return {
            name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def inclusive(self) -> dict[str, float]:
        """Busy seconds per layer over its outermost spans only, so the time
        of the layers it calls is included and shares can sum past one."""
        a = self.arrays()
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names])
        layer = layer_of[a["name_id"]]
        ancestors = [0] * layer.size  # bit mask of the layers above each span
        lay = layer.tolist()
        for i, p in enumerate(a["parent"].tolist()):
            if p >= 0:
                ancestors[i] = ancestors[p] | (1 << lay[p])
        outermost = (np.array(ancestors, dtype=np.int64) >> layer) & 1 == 0
        dur = (a["end_ns"] - a["start_ns"]).astype(float) * 1e-9
        return {name: float(dur[outermost & (layer == k)].sum()) for k, name in enumerate(LAYERS)}

    def metrics(self, n_jobs: int, wall_traced: float, wall_untraced: float,
                prune_warnings: int) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
        """The PER_LAYER metrics, and each layer's self and inclusive share
        of traced wall time."""
        s = self.summary()
        c = self.counters

        def calls(name):
            return s[name]["calls"]

        def per_call(name, scale):
            return s[name]["busy_s"] * scale / calls(name) if calls(name) else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        layer_self = {layer: sum(v["self_s"] for k, v in s.items() if k.split(".")[0] == layer)
                      for layer in LAYERS}
        families = calls("flow.gradient_flow_residual") + calls("flow.metric_tensor")
        m = {f"{layer}.self_s": layer_self[layer] / n_jobs for layer in LAYERS}
        m.update({
            "matcore.eig_hermitian.calls": calls("matcore.eig_hermitian") / n_jobs,
            "matcore.eig_hermitian.us_per_call": per_call("matcore.eig_hermitian", 1e6),
            "matcore.eig_hermitian.distinct_frac": ratio(self.eig_distinct, calls("matcore.eig_hermitian")),
            "matcore.require_density.calls": calls("matcore.require_density") / n_jobs,
            "matcore.superoperator_of_map.ms_per_call": per_call("matcore.superoperator_of_map", 1e3),
            "divergence.sandwiched_renyi.us_per_call": per_call("divergence.sandwiched_renyi", 1e6),
            "divergence.fisher_information.us_per_call": per_call("divergence.fisher_information", 1e6),
            "divergence.functional_derivative.calls": calls("divergence.functional_derivative") / n_jobs,
            "noncomm_ops.renyi_multiplier.calls": calls("noncomm_ops.renyi_multiplier") / n_jobs,
            "noncomm_ops.renyi_multiplier.ms_per_family":
                ratio(s["noncomm_ops.renyi_multiplier"]["busy_s"] * 1e3, families),
            "noncomm_ops.weight_operator.calls": calls("noncomm_ops.weight_operator") / n_jobs,
            "generator.build_gns.ms_per_call": per_call("generator.build_gns", 1e3),
            "generator.spectral_gap.ms_per_call": per_call("generator.spectral_gap", 1e3),
            "generator.check_primitive.ms_per_call": per_call("generator.check_primitive", 1e3),
            "balance_check.srd_residual.ms_per_call": per_call("balance_check.srd_residual", 1e3),
            "balance_check.check_kms.ms_per_call": per_call("balance_check.check_kms", 1e3),
            "flow.integrate.us_per_step": ratio(s["flow.integrate"]["busy_s"] * 1e6, c["integrate.steps"]),
            "flow.integrate.self_s": s["flow.integrate"]["self_s"] / n_jobs,
            "flow.divergence_trace.us_per_state_order":
                ratio(s["flow.divergence_trace"]["busy_s"] * 1e6, c["divergence_trace.state_orders"]),
            "flow.divergence_trace.prune_warnings": prune_warnings / n_jobs,
            "flow.gradient_flow_residual.ms_per_call": per_call("flow.gradient_flow_residual", 1e3),
            "flow.metric_tensor.ms_per_call": per_call("flow.metric_tensor", 1e3),
            "flow.hypercontractivity_monitor.self_s": s["flow.hypercontractivity_monitor"]["self_s"] / n_jobs,
            "cli.load_generator.ms_per_call": per_call("cli.load_generator", 1e3),
            "cli.write_atomic.bytes": c["write_atomic.bytes"] / n_jobs,
            "cli.exit_nonzero": c["cli.exit_nonzero"],
            "trace.overhead_frac": (wall_traced - wall_untraced) / wall_untraced,
            "trace.exceptions": sum(self.exceptions.values()) / n_jobs,
            "trace.spans": self.count / n_jobs,
        })
        shares = {
            "self": {layer: layer_self[layer] / wall_traced for layer in LAYERS},
            "inclusive": {layer: t / wall_traced for layer, t in self.inclusive().items()},
        }
        return {name: m[name] for name in PER_LAYER}, shares
