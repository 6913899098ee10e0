"""Outside-in tracer: times calls into cqmac's public functions by rebinding them.

Every binding of a traced function is replaced, not just the one in its
defining module: ``from .x import y`` copies the function object into the
importing module, and a patch of the defining module alone misses calls
made through that copy. The tracer therefore replaces every attribute of a
loaded ``cqmac`` module that *is* the original object, plus the function
objects held in ``suites.SUITES``. ``KrausChannel.__post_init__`` is patched
on the class. ``numpy.linalg`` entry points are patched both on the public
module and in ``numpy.linalg._linalg``, whose internal callers (for example
the matrix 2-norm calling ``svd``) look them up there.

Spans (id, name, start, end, parent, item) are kept in memory and written
out once at the end. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

SPAN_COLUMNS = ("id", "name", "start_ns", "end_ns", "parent", "item")

LAYERS = ("cli", "channels", "qmatrix", "entropic", "regions", "optimizer",
          "codesim", "suites", "kernel", "nm")

# (metric name, defining module, attribute). "channels.KrausChannel" is the
# constructor validation, ``KrausChannel.__post_init__``.
FUNCTIONS = (
    ("cli.main", "cqmac.cli", "main"),
    ("channels.KrausChannel", "cqmac.channels", "KrausChannel.__post_init__"),
    ("channels.apply_channel_mat", "cqmac.channels", "apply_channel_mat"),
    ("channels.tensor_power", "cqmac.channels", "tensor_power"),
    ("channels.blocked_tensor_power", "cqmac.channels", "blocked_tensor_power"),
    ("channels.load_compound_json", "cqmac.channels", "load_compound_json"),
    ("channels.build_net", "cqmac.channels", "build_net"),
    ("channels.choi_matrix", "cqmac.channels", "choi_matrix"),
    ("qmatrix.trace_norm", "cqmac.qmatrix", "trace_norm"),
    ("qmatrix.sqrt_psd", "cqmac.qmatrix", "sqrt_psd"),
    ("qmatrix.partial_trace_mat", "cqmac.qmatrix", "partial_trace_mat"),
    ("qmatrix.permute_mat", "cqmac.qmatrix", "permute_mat"),
    ("qmatrix.tensor", "cqmac.qmatrix", "tensor"),
    ("qmatrix.fidelity", "cqmac.qmatrix", "fidelity"),
    ("qmatrix.hermitian_eig", "cqmac.qmatrix", "hermitian_eig"),
    ("entropic.effective_cqq_state", "cqmac.entropic", "effective_cqq_state"),
    ("entropic.von_neumann_entropy", "cqmac.entropic", "von_neumann_entropy"),
    ("regions.compound_rect", "cqmac.regions", "compound_rect"),
    ("regions.compound_rect_powered", "cqmac.regions", "compound_rect_powered"),
    ("optimizer.pareto_trace", "cqmac.optimizer", "pareto_trace"),
    ("codesim.sample_et_code", "cqmac.codesim", "sample_et_code"),
    ("codesim.hybrid_chain_report", "cqmac.codesim", "hybrid_chain_report"),
    ("codesim.et_entanglement_fidelity", "cqmac.codesim", "et_entanglement_fidelity"),
    ("codesim.performance", "cqmac.codesim", "performance"),
    ("codesim.combine_hybrid", "cqmac.codesim", "combine_hybrid"),
    ("codesim.converse_check", "cqmac.codesim", "converse_check"),
    ("codesim.sample_cq_codebook", "cqmac.codesim", "sample_cq_codebook"),
    ("kernel.eigh", "numpy.linalg", "eigh"),
    ("kernel.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("kernel.svd", "numpy.linalg", "svd"),
)
# Functions whose per-item call count and self time are reported; cli.main
# is the item's root span and shows up as cli.self_ms.
REPORTED = tuple(name for name, _, _ in FUNCTIONS if name != "cli.main")

# An op counts as nonzero when its Frobenius norm exceeds this share of the
# largest op norm in the same branch: ops that only see other tag words are
# zero up to rounding.
NONZERO_REL = 1e-10


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("us_per_eval"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Rebinds cqmac's public functions to timed wrappers while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.spans = array("q")
        self.stack: list[list[int]] = []
        self.next_id = 0
        self.item = -1
        self.counts = {"eigh_max_dim": 0, "decoder_kraus_ops": 0,
                       "branch_ops": 0, "branch_nonzero": 0,
                       "eigvalsh_in_objective": 0}
        self.restarts: list[tuple[int, int]] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._build()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        for column in (self.calls, self.self_ns, self.total_ns):
            column.append(0)
        return len(self.names) - 1

    def _wrap(self, nid: int, fn, after=None):
        stack, spans = self.stack, self.spans
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                total_ns[nid] += dur
                spans.extend((sid, nid, start, end, parent, tracer.item))
            if after is not None:
                # bookkeeping time is nobody's self time
                t0 = clock()
                after(args, result)
                if stack:
                    stack[-1][1] += clock() - t0
            return result

        return wrapper

    def _build(self):
        owners = {modname: importlib.import_module(modname) for _, modname, _ in FUNCTIONS}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cqmac" or n.startswith("cqmac."))]
        kernel_modules = [sys.modules[n] for n in ("numpy.linalg", "numpy.linalg._linalg")
                          if n in sys.modules]
        hooks = {
            "kernel.eigh": self._after_eigh,
            "codesim.sample_et_code": self._after_sample_et_code,
            "codesim.combine_hybrid": self._after_combine_hybrid,
        }
        for name, modname, attr in FUNCTIONS:
            owner = owners[modname]
            if attr == "KrausChannel.__post_init__":
                cls = owner.KrausChannel
                original = cls.__post_init__
                self._patches.append((cls, "__post_init__", original,
                                      self._wrap(self._name_id(name), original)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(self._name_id(name), original, hooks.get(name))
            scope = modules + kernel_modules if name.startswith("kernel.") else modules
            self._bind_everywhere(original, wrapped, scope)
        self._eigvalsh_id = self.names.index("kernel.eigvalsh")
        self._objective_id = self._name_id("optimizer.objective")

        optimizer, suites = owners["cqmac.optimizer"], importlib.import_module("cqmac.suites")
        original = optimizer.minimize
        nm = self._wrap(self._name_id("nm.minimize"), self._minimize(original))
        self._bind_everywhere(original, nm, modules)
        for suite, fn in suites.SUITES.items():
            wrapped = self._wrap(self._name_id(f"suites.{suite}"), fn)
            self._patches.append((suites.SUITES, suite, fn, wrapped))
            self._bind_everywhere(fn, wrapped, modules)

    def _bind_everywhere(self, original, wrapped, modules):
        found = False
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, wrapped))
                    found = True
        if not found:
            raise RuntimeError(f"no binding of {original!r} found")

    def _minimize(self, minimize):
        """scipy's minimize with the objective it is handed wrapped in a span."""
        tracer = self
        calls = self.calls

        def traced_minimize(fun, x0, *args, **kwargs):
            # every restart's objective reports under the one name
            timed = tracer._wrap(tracer._objective_id, fun)

            def objective(theta, *fargs):
                before = calls[tracer._eigvalsh_id]
                value = timed(theta, *fargs)
                tracer.counts["eigvalsh_in_objective"] += calls[tracer._eigvalsh_id] - before
                return value

            res = minimize(objective, x0, *args, **kwargs)
            tracer.restarts.append((int(res.nit), int(res.status)))
            return res

        return traced_minimize

    def _after_eigh(self, args, result):
        dim = int(np.shape(args[0])[-1])
        if dim > self.counts["eigh_max_dim"]:
            self.counts["eigh_max_dim"] = dim

    def _after_sample_et_code(self, args, et):
        self.counts["decoder_kraus_ops"] = max(self.counts["decoder_kraus_ops"],
                                               len(et.decoder.kraus_ops))

    def _after_combine_hybrid(self, args, code):
        for branch in code.branches:
            norms = np.linalg.norm(branch.stacked.reshape(len(branch.kraus_ops), -1), axis=1)
            self.counts["branch_ops"] += norms.size
            self.counts["branch_nonzero"] += int(np.sum(norms > NONZERO_REL * norms.max()))

    def install(self):
        for owner, key, _original, wrapped in self._patches:
            _set(owner, key, wrapped)

    def uninstall(self):
        for owner, key, original, _wrapped in reversed(self._patches):
            _set(owner, key, original)

    def run(self, item: int, fn):
        """Call ``fn()`` with the wrappers installed, as item ``item``."""
        self.item = item
        self.install()
        try:
            return fn()
        finally:
            self.uninstall()

    def span_array(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(SPAN_COLUMNS))

    def metrics(self, items: int, overhead_pct: float, suite_names) -> dict[str, float]:
        """Per-item per-layer metrics over ``items`` traced items."""
        index = {name: i for i, name in enumerate(self.names)}
        per = 1.0 / max(items, 1)
        out: dict[str, float] = {}
        for fn in REPORTED:
            i = index[fn]
            out[f"{fn}.calls"] = self.calls[i] * per
            out[f"{fn}.self_ms"] = self.self_ns[i] * per / 1e6
        obj = self._objective_id
        evals = self.calls[obj]
        out["optimizer.objective.evals"] = evals * per
        out["optimizer.objective.self_ms"] = self.self_ns[obj] * per / 1e6
        out["optimizer.objective.us_per_eval"] = self.total_ns[obj] / evals / 1e3 if evals else 0.0
        restarts = len(self.restarts)
        out["nm.minimize.calls"] = restarts * per
        out["optimizer.nm.iterations"] = (
            sum(nit for nit, _ in self.restarts) / restarts if restarts else 0.0)
        out["optimizer.nm.converged_ratio"] = (
            sum(1 for _, status in self.restarts if status == 0) / restarts if restarts else 0.0)
        out["kernel.eigvalsh.calls_per_eval"] = (
            self.counts["eigvalsh_in_objective"] / evals if evals else 0.0)
        out["kernel.eigh.max_dim"] = float(self.counts["eigh_max_dim"])
        out["codesim.decoder.kraus_ops"] = float(self.counts["decoder_kraus_ops"])
        ops = self.counts["branch_ops"]
        out["codesim.branch.nonzero_ratio"] = self.counts["branch_nonzero"] / ops if ops else 0.0
        for suite in suite_names:
            out[f"suites.{suite}.self_ms"] = self.self_ns[index[f"suites.{suite}"]] * per / 1e6
        for layer in LAYERS:
            total = sum(ns for name, ns in zip(self.names, self.self_ns)
                        if name.split(".", 1)[0] == layer)
            out[f"{layer}.self_ms"] = total * per / 1e6
        out["trace.overhead_pct"] = overhead_pct
        return out


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)
