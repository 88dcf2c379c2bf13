"""Spans around calls into rsvi's modules, installed from outside the package.

A `Tracer` replaces chosen functions and methods of the already imported
`rsvi` modules with wrappers that record one span per call: a name, a start
and end time, the index of the enclosing span, and up to two amounts (words
drawn, draws accepted, rejection trials). Spans live in flat arrays until
the run ends; `layers.layer_metrics` derives every per-layer self time and
count from them. `uninstall` puts the original objects back, so untraced
code runs the program exactly as shipped.

A layer's self time is its span's duration minus the durations of the spans
it directly encloses. Wrapper bookkeeping falls inside the caller's span, so
it is charged to the caller; the time no layer span covers is the
benchmark's own.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# Amount functions map a call's (args, result) to the span's amounts a and b.


def _stream_words(attr):
    """Words a stream method draws itself; std_normal(s) draw theirs
    through uniform_open(s), which are wrapped too."""
    if attr in ("uniform", "uniform_open"):
        return lambda args, out: (1, 0)
    if attr in ("uniforms", "uniforms_open"):
        return lambda args, out: (int(args[1]), 0)
    return None


def _draws(args, out):
    trials = out.trials
    return trials.size, int(trials.sum())


class Tracer:
    """Records spans at the boundaries of rsvi's modules while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.a = array("d")
        self.b = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name: str, fn, amounts=None):
        """A function that calls fn inside a span named span_name."""
        nid = self._id(span_name)
        clock = time.perf_counter
        stack = self._stack
        name, parent, start, end, a, b = self.name, self.parent, self.start, self.end, self.a, self.b

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            a.append(0.0)
            b.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if amounts is not None:
                a[idx], b[idx] = amounts(args, out)
            return out

        return traced

    # -- installing --------------------------------------------------------

    def _replace(self, owner, attr: str, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap_everywhere(self, modules, original, span_name: str, amounts=None):
        """Wrap every binding of `original` in `modules`."""
        traced = self.wrap(span_name, original, amounts)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, traced)

    def wrap_method(self, cls, attr: str, span_name: str, amounts=None):
        self._replace(cls, attr, self.wrap(span_name, getattr(cls, attr), amounts))

    def wrap_attribute(self, obj, attr: str, span_name: str):
        """Wrap a callable held by one object (a ModelSpec's callbacks)."""
        if getattr(obj, attr, None) is not None:
            self._replace(obj, attr, self.wrap(span_name, getattr(obj, attr)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "a": np.frombuffer(self.a, dtype=np.float64).copy(),
            "b": np.frombuffer(self.b, dtype=np.float64).copy(),
        }


def install_rsvi_spans(tracer: Tracer, spec) -> None:
    """Wrap the public entry points of each rsvi module, plus the two
    private kernels (`_ppnd_array`, `_build_bank`) the layer metrics name.

    Each object is wrapped wherever a module binds it, because the modules
    import each other's functions by name. A name the package no longer has
    is skipped, and its metric then reads 0.
    """
    import rsvi
    from rsvi import distributions, engine, estimators, mathcore, models, rejection

    mods = (rsvi, mathcore, distributions, rejection, estimators, models, engine)

    def everywhere(module, attr, span_name, amounts=None):
        if hasattr(module, attr):
            tracer.wrap_everywhere(mods, getattr(module, attr), span_name, amounts)

    for attr in ("uniform", "uniform_open", "std_normal", "uniforms", "uniforms_open", "std_normals"):
        tracer.wrap_method(mathcore.RandomStream, attr, "mathcore.stream", _stream_words(attr))
    everywhere(mathcore, "_ppnd_array", "mathcore.ppnd")
    for attr in ("log_gamma_fn", "digamma", "trigamma"):
        everywhere(mathcore, attr, "mathcore.special")
    for attr in ("dirichlet_entropy", "dirichlet_entropy_grad"):
        everywhere(distributions, attr, "distributions.call")
    everywhere(rejection, "make_sampler_bank", "rejection.make_bank")
    everywhere(rejection, "_build_bank", "rejection.bank_build")
    tracer.wrap_method(rejection.SamplerBank, "draw", "rejection.draw", _draws)
    tracer.wrap_method(rejection.SamplerBank, "draw_batch", "rejection.draw", _draws)
    everywhere(estimators, "estimate", "estimators.estimate")
    everywhere(estimators, "estimate_elbo", "estimators.elbo")
    everywhere(estimators, "variance_profile", "estimators.variance_profile")
    for attr in ("log_joint", "grad_latents", "log_joint_batch"):
        tracer.wrap_attribute(spec, attr, f"models.{attr}")
    everywhere(engine, "run_rsvi", "engine.run_rsvi")
    everywhere(engine, "step_size", "engine.step")


def self_times(arrs: dict) -> np.ndarray:
    """Per-span duration minus the durations of its direct children."""
    dur = arrs["end"] - arrs["start"]
    parent = arrs["parent"]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
    return dur - child


def by_name(arrs: dict, values: np.ndarray) -> dict:
    """Sum of values per span name, and the span count per name."""
    names = list(arrs["names"])
    sums = np.bincount(arrs["name"], weights=values, minlength=len(names))
    counts = np.bincount(arrs["name"], minlength=len(names))
    return {n: (float(sums[i]), int(counts[i])) for i, n in enumerate(names)}
