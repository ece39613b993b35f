"""Spans around roughvol's public functions, recorded from outside the package.

A span records its name, start, end and parent (the span open when it
began).  A layer's self time is the sum over its spans of the span's
duration minus the durations of its direct children.  Spans are kept in
compact in-memory arrays (a few hundred thousand per run) and summarised
when the run ends.

``install`` wraps every public function of ``roughvol.kernel``,
``gaussfunc``, ``pricing``, ``simulate``, ``experiments`` and ``cli`` that
the workloads reach.  A module-level function is replaced at every place
its name is bound -- the defining module and every module that imported
it (``gaussfunc.bivariate_expect``, ``experiments.group_params``,
``cli.d_bar``, the ``roughvol`` package namespace, ...) -- and methods are
replaced on their class, so that every call path is seen.
``scipy.signal.fftconvolve`` is wrapped only as ``simulate`` and
``experiments`` look it up, through a proxy of their ``signal`` name.  One
private helper is wrapped too: ``kernel._gh_nodes``, which builds a
Gauss--Hermite rule, so that rebuilt rules can be counted.
"""

from __future__ import annotations

import array
import functools
import time

import numpy as np

# Per-layer metrics, in the order they are reported: (name, unit, better).
PER_LAYER = (
    ("kernel.K.points", "count", "lower"),
    ("kernel.K.self_s", "s", "lower"),
    ("kernel.ksq.calls", "count", "lower"),
    ("kernel.ksq.s", "s", "lower"),
    ("kernel.ksq.self_s", "s", "lower"),
    ("kernel.cov_CZ.points", "count", "lower"),
    ("kernel.cov_CZ.self_s", "s", "lower"),
    ("kernel.bivariate_expect.calls", "count", "lower"),
    ("kernel.bivariate_expect.self_s", "s", "lower"),
    ("kernel.gaussian_expect.calls", "count", "lower"),
    ("kernel.gh.max_order", "count", "lower"),
    ("kernel.gh.rules", "count", "lower"),
    ("kernel.gh.self_s", "s", "lower"),
    ("gaussfunc.group_params.calls", "count", "lower"),
    ("gaussfunc.group_params.s", "s", "lower"),
    ("gaussfunc.d_bar.s", "s", "lower"),
    ("gaussfunc.self_s", "s", "lower"),
    ("gaussfunc.vol_map.points", "count", "lower"),
    ("gaussfunc.vol_map.self_s", "s", "lower"),
    ("pricing.quotes", "count", "higher"),
    ("pricing.self_s", "s", "lower"),
    ("pricing.implied_vol_invert.self_s", "s", "lower"),
    ("simulate.first_batch_s", "s", "lower"),
    ("simulate.batch_s", "s", "lower"),
    ("simulate.batches", "count", "lower"),
    ("simulate.paths", "count", "higher"),
    ("simulate.fft.rows", "count", "lower"),
    ("simulate.fft.self_s", "s", "lower"),
    ("experiments.mc_price.s", "s", "lower"),
    ("experiments.convergence_study.s", "s", "lower"),
    ("experiments.vartheta_check.s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
)


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._name = array.array("H")
        self._parent = array.array("q")
        self._outer = array.array("b")   # 1 if no same-name span encloses it
        self._start = array.array("d")
        self._end = array.array("d")
        self._stack = [-1]
        self._depth: dict = {}
        self.counts: dict = {}
        self.maxima: dict = {}
        self.samples: dict = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._outer.append(1 if depth == 0 else 0)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.names[self._name[idx]]] -= 1

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    @property
    def n_spans(self) -> int:
        return len(self._start)

    def span_table(self) -> dict:
        """Per span name: ``calls`` (outermost), ``s`` (inclusive, outermost
        spans only) and ``self_s``."""
        n = len(self._start)
        if n == 0:
            return {}
        name = np.frombuffer(self._name, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        outer = np.frombuffer(self._outer, dtype=np.int8).astype(bool)
        dur = (np.frombuffer(self._end, dtype=np.float64)
               - np.frombuffer(self._start, dtype=np.float64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name[outer], minlength=k)
        incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
        excl = np.bincount(name, weights=self_time, minlength=k)
        return {nm: {"calls": int(calls[i]), "s": float(incl[i]),
                     "self_s": float(excl[i])}
                for i, nm in enumerate(self.names)}

    def layer_metrics(self, rounds: int) -> dict:
        """The ``PER_LAYER`` metrics; sums are per round, timings medians."""
        table = self.span_table()

        def span(name, field):
            return table.get(name, {}).get(field, 0.0)

        def self_of(prefix, exclude=()):
            return sum(v["self_s"] for k, v in table.items()
                       if k.startswith(prefix) and k not in exclude)

        def median(key):
            vals = self.samples.get(key)
            return float(np.median(vals)) if vals else 0.0

        per_round = {
            "kernel.K.points": self.counts.get("kernel.K.points", 0),
            "kernel.K.self_s": span("kernel.K", "self_s"),
            "kernel.ksq.calls": span("kernel.ksq", "calls"),
            "kernel.ksq.s": span("kernel.ksq", "s"),
            "kernel.ksq.self_s": span("kernel.ksq", "self_s"),
            "kernel.cov_CZ.points": self.counts.get("kernel.cov_CZ.points", 0),
            "kernel.cov_CZ.self_s": span("kernel.cov_CZ", "self_s"),
            "kernel.bivariate_expect.calls": span("kernel.bivariate_expect", "calls"),
            "kernel.bivariate_expect.self_s": span("kernel.bivariate_expect", "self_s"),
            "kernel.gaussian_expect.calls": span("kernel.gaussian_expect", "calls"),
            "kernel.gh.rules": span("kernel.gh", "calls"),
            "kernel.gh.self_s": span("kernel.gh", "self_s"),
            "gaussfunc.group_params.calls": span("gaussfunc.group_params", "calls"),
            "gaussfunc.group_params.s": span("gaussfunc.group_params", "s"),
            "gaussfunc.d_bar.s": span("gaussfunc.d_bar", "s"),
            "gaussfunc.self_s": self_of("gaussfunc.", ("gaussfunc.vol_map",)),
            "gaussfunc.vol_map.points": self.counts.get("gaussfunc.vol_map.points", 0),
            "gaussfunc.vol_map.self_s": span("gaussfunc.vol_map", "self_s"),
            "pricing.quotes": span("pricing.corrected_price", "calls"),
            "pricing.self_s": self_of("pricing.", ("pricing.implied_vol_invert",)),
            "pricing.implied_vol_invert.self_s": span("pricing.implied_vol_invert",
                                                      "self_s"),
            "simulate.batches": self.counts.get("simulate.batches", 0),
            "simulate.paths": self.counts.get("simulate.paths", 0),
            "simulate.fft.rows": self.counts.get("simulate.fft.rows", 0),
            "simulate.fft.self_s": span("simulate.fft", "self_s"),
            "experiments.mc_price.s": span("experiments.mc_price", "s"),
            "experiments.convergence_study.s": span("experiments.convergence_study",
                                                    "s"),
            "experiments.vartheta_check.s": span("experiments.vartheta_check", "s"),
            "experiments.self_s": self_of("experiments."),
            "cli.main.s": span("cli.main", "s"),
            "cli.self_s": self_of("cli."),
        }
        out = {k: v / rounds for k, v in per_round.items()}
        out["kernel.gh.max_order"] = self.maxima.get("kernel.gh.max_order", 0)
        out["simulate.first_batch_s"] = median("simulate.first_batch_s")
        out["simulate.batch_s"] = median("simulate.batch_s")
        return {name: out[name] for name, _, _ in PER_LAYER}


def traced(tracer: Tracer, fn, span: str, count=None):
    """``fn`` wrapped in a span; ``count(tracer, args, kwargs)`` runs first."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count is not None:
            count(tracer, args, kwargs)
        idx = tracer.open(span)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def traced_batches(tracer: Tracer, gen_fn, span: str):
    """A path generator whose every batch is one span.

    The first batch's span also holds the sampler's set-up, which the
    generator runs on its first ``next``.
    """

    @functools.wraps(gen_fn)
    def wrapper(*args, **kwargs):
        gen = gen_fn(*args, **kwargs)
        first = True
        while True:
            idx = tracer.open(span)
            t0 = time.perf_counter()
            try:
                bundle = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            elapsed = time.perf_counter() - t0
            tracer.sample("simulate.first_batch_s" if first else "simulate.batch_s",
                          elapsed)
            tracer.add("simulate.batches", 1)
            tracer.add("simulate.paths", bundle.X.shape[0])
            first = False
            yield bundle

    return wrapper


class _Proxy:
    """Attribute access forwarded to ``module`` except for the overrides."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _points(key: str, pos: int):
    def count(tracer, args, kwargs):
        tracer.add(key, np.size(args[pos]) if len(args) > pos else 1)
    return count


def _gh_order(pos: int):
    def count(tracer, args, kwargs):
        order = args[pos] if len(args) > pos else kwargs.get("gh_order", 40)
        tracer.maximum("kernel.gh.max_order", int(order))
    return count


def _fft_rows(tracer, args, kwargs):
    tracer.add("simulate.fft.rows", np.shape(args[0])[0])


class Installation:
    """The replaced bindings, so that ``restore`` can put them back."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap the package's public functions; returns the undo record."""
    import roughvol
    from roughvol import cli, experiments, gaussfunc, kernel, pricing, simulate

    modules = (roughvol, kernel, gaussfunc, pricing, simulate, experiments, cli)
    inst = Installation()

    def function(module, name, span, count=None):
        original = getattr(module, name)
        inst.replace_everywhere(modules, original,
                                traced(tracer, original, span, count))

    def method(cls, name, span, count=None):
        inst.set(cls, name, traced(tracer, cls.__dict__[name], span, count))

    # kernel
    method(kernel.KernelEval, "kernel_K", "kernel.K", _points("kernel.K.points", 1))
    for name in ("ksq_first_cell", "ksq_cum", "ksq_tail", "ksq_cum_grid"):
        method(kernel.KernelEval, name, "kernel.ksq")
    method(kernel.CovarianceEval, "cov_CZ", "kernel.cov_CZ",
           _points("kernel.cov_CZ.points", 1))
    function(kernel, "bivariate_expect", "kernel.bivariate_expect", _gh_order(3))
    function(kernel, "gaussian_expect", "kernel.gaussian_expect", _gh_order(1))
    function(kernel, "_gh_nodes", "kernel.gh")

    # gaussfunc
    for name in ("group_params", "d_bar", "moments", "mean_FFp", "sigma_bar",
                 "g_prime_sup"):
        function(gaussfunc, name, f"gaussfunc.{name}")
    for cls in (gaussfunc.BoundedSigmoid, gaussfunc.ConstantVol,
                gaussfunc.ExponentialVol, gaussfunc.TabulatedVol):
        for name in ("__call__", "deriv"):
            method(cls, name, "gaussfunc.vol_map",
                   _points("gaussfunc.vol_map.points", 1))

    # pricing
    for name in ("corrected_price", "bs_price", "bs_operator_greeks",
                 "implied_vol_invert", "implied_vol_asymptotic"):
        function(pricing, name, f"pricing.{name}")

    # simulate
    original = simulate.simulate_paths
    inst.replace_everywhere(modules, original,
                            traced_batches(tracer, original, "simulate.batch"))
    fft = traced(tracer, simulate.signal.fftconvolve, "simulate.fft", _fft_rows)
    for module in (simulate, experiments):
        inst.set(module, "signal", _Proxy(module.signal, fftconvolve=fft))

    # experiments
    for name in ("mc_price", "convergence_study", "vartheta_check",
                 "phi_variance_check", "kappa_check", "smile_study",
                 "termstructure_study"):
        function(experiments, name, f"experiments.{name}")

    # cli
    for name in ("main", "load_config", "config_hash", "cmd_params", "cmd_price",
                 "cmd_simulate", "cmd_study"):
        function(cli, name, f"cli.{name}")
    return inst
