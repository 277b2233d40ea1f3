"""Span tracing of smoothent's public functions, from outside the library.

``Tracer.install`` replaces each function listed in ``TRACED`` by a wrapper
in the namespace of the module that *calls* it, so the wrapper is the code
that runs (``smoothent.estimator.fit_pca``, not ``smoothent.pca.fit_pca``);
``remove`` restores the originals.  Every wrapped call records a span --
name, start, end, parent -- and spans stay in memory until the run ends.
A layer's self time is its spans' time minus the time of their children.

Work counts are taken at the same boundaries: mixture pair terms
(``n^2 * n_mc``, exact), covariance flops (``D^2 * n``, computed from the
shapes) and bytes read (file size, computed).
"""

import functools
import importlib
import os
import time
from collections import defaultdict

# plugin_entropy_mc prefers its fast kernel at d <= 32 and runs the safe
# (running-maximum) kernel above; the trace keeps the two apart.
LOWD_MAX = 32

# (module whose namespace is patched, attribute, span name)
TRACED = (
    ("io", "read_samples", "io.read"),
    ("experiments", "ingest_activation_dump", "io.read"),
    ("experiments", "run_activation_mi", "experiments"),
    ("experiments", "run_indep_auc", "experiments"),
    ("experiments", "rank_auc", "experiments"),
    ("experiments", "gen_common_signal_pair", "synthetic.gen"),
    ("experiments", "conditional_mi", "mi"),
    ("experiments", "joint_mi", "mi"),
    ("estimator", "pca_smoothed_entropy", "estimator"),
    ("mi", "pca_smoothed_entropy", "estimator"),
    ("estimator", "fit_pca", "pca.fit"),
    ("pca", "compute_covariance", "pca.cov"),
    ("pca", "symmetric_eigendecomposition", "pca.eigh"),
    ("estimator", "project", "pca.project"),
    ("estimator", "plugin_entropy_mc", "mixture"),
    ("estimator", "substream", "rng.substream"),
    ("mixture", "substream", "rng.substream"),
    ("mi", "substream", "rng.substream"),
    ("synthetic", "substream", "rng.substream"),
)


def _mixture_span(args, kwargs, work):
    mix = args[0]
    n_mc = args[1] if len(args) > 1 else kwargs["n_mc"]
    name = "mixture.lowd" if mix.dim <= LOWD_MAX else "mixture.highd"
    work[name + ".pair_terms"] += mix.n_centers**2 * n_mc
    return name


def _cov_span(args, kwargs, work):
    samples = args[0]
    work["pca.cov_flops"] += samples.dim**2 * samples.count
    return "pca.cov"


def _read_span(args, kwargs, work):
    work["io.bytes"] += os.path.getsize(args[0])
    return "io.read"


_COUNTERS = {"mixture": _mixture_span, "pca.cov": _cov_span, "io.read": _read_span}


class Tracer:
    """Records spans and work counts for calls made while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.work = defaultdict(int)
        self._open = []
        self._saved = []

    def install(self):
        for module_name, attr, name in TRACED:
            module = importlib.import_module(f"smoothent.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        counter = _COUNTERS.get(name)
        spans, open_, work = self.spans, self._open, self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = counter(args, kwargs, work) if counter else name
            span = [span_name, 0.0, 0.0, open_[-1] if open_ else None]
            spans.append(span)
            open_.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()

        return traced

    def summary(self):
        """Self seconds and call count per span name, plus MI entropy terms."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        mi_terms = 0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child[idx]
            calls[name] += 1
            if name == "estimator" and parent is not None and self.spans[parent][0] == "mi":
                mi_terms += 1
        return self_s, calls, mi_terms
