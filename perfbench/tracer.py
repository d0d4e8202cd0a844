"""Outside-in span tracer for rmflab's layer boundaries.

The tracer changes nothing in the package's source.  It replaces each
boundary function with a wrapper under every module-level name through
which the package calls it (``run_walks`` is bound in ``engine``, ``rmf``,
``models`` and the package root, for instance), and replaces boundary
methods on their classes.  Each call records one span -- name, start, end,
parent span, run id -- in memory, plus work counts taken from the call's
arguments.  ``restore`` puts every original back.

Counts skip a call whose parent span has the same name (recursion in
``count_changes_chunk``, ``HarmonicWordSource.segment`` calling its base
class), so each unit of work is counted once.

A layer's self time is the time of its spans minus the time of their
direct child spans; spans nest strictly because the traced run is
single-process.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

# Span names that make up each per-layer self-time metric.
SELF_TIME_METRICS = {
    "sieve.self_s": ("sieve.segment_radical_data", "sieve.primes_up_to"),
    "sieve.mertens_self_s": ("sieve.mertens_trace",),
    "signs.self_s": ("signs.mix64_array",),
    "rmf.segment_self_s": ("rmf.segment",),
    "rmf.block_words_self_s": ("rmf.block_words",),
    "engine.self_s": ("engine.run_walks",),
    "census.self_s": ("census.count_changes_chunk",),
    "models.self_s": ("models.collect_walks",),
    "models.mian_chowla_s": ("models.mian_chowla",),
    "models.segment_self_s": ("models.segment",),
    "models.block_words_self_s": ("models.block_words",),
    "montecarlo.bootstrap_self_s": ("montecarlo.bootstrap_estimate",),
    "montecarlo.estimator_self_s": ("montecarlo.estimator",),
}

COUNT_METRICS = (
    "sieve.calls",
    "sieve.integers",
    "signs.calls",
    "signs.words_hashed",
    "rmf.segment_calls",
    "rmf.block_words_calls",
    "engine.calls",
    "engine.lane_steps",
    "engine.segments",
    "census.calls",
    "census.values_scanned",
    "models.mian_chowla_calls",
    "montecarlo.bootstrap_calls",
    "montecarlo.resamples",
)


class Tracer:
    """Records spans and counts at the wrapped boundaries of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if count is not None and (parent < 0 or spans[parent][0] != name):
                count(counts, *args, **kwargs)
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def patch_function(self, module, attr: str, name: str, count: Callable | None = None) -> None:
        """Wrap ``module.attr`` under every rmflab module name bound to it."""
        original = getattr(module, attr)
        traced = self._wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rmflab" or mod_name.startswith("rmflab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def patch_method(self, cls, attr: str, name: str, count: Callable | None = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, count))
        self._undo.append((cls, attr, original))

    def span(self, name: str, fn: Callable):
        """Run ``fn()`` inside a span of its own (the workload or one op)."""
        return self._wrap(name, fn, None)()

    def restore(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counts of everything recorded so far."""
        own = self.self_times()
        out = {
            metric: sum(own.get(name, 0.0) for name in names)
            for metric, names in SELF_TIME_METRICS.items()
        }
        out.update({metric: int(self.counts[metric]) for metric in COUNT_METRICS})
        # the lane kernel's rate: lane-steps per second of engine self time
        out["engine.lane_steps_per_s"] = (
            out["engine.lane_steps"] / out["engine.self_s"] if out["engine.self_s"] > 0 else 0.0
        )
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines; called once, after the run."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id,
                }) + "\n")


# --- boundary counters: same signature as the wrapped function ----------------


def _count_segment_radical_data(c, lo, hi, *args, **kwargs):
    c["sieve.calls"] += 1
    c["sieve.integers"] += int(hi) - int(lo)


def _count_primes_up_to(c, limit, *args, **kwargs):
    c["sieve.calls"] += 1
    c["sieve.integers"] += int(limit) + 1


def _count_mertens_trace(c, *args, **kwargs):
    c["sieve.calls"] += 1


def _count_mix64_array(c, z, *args, **kwargs):
    c["signs.calls"] += 1
    c["signs.words_hashed"] += int(getattr(z, "size", 1))


def _count_rmf_segment(c, *args, **kwargs):
    c["rmf.segment_calls"] += 1
    c["engine.segments"] += 1


def _count_rmf_block_words(c, *args, **kwargs):
    c["rmf.block_words_calls"] += 1


def _count_models_segment(c, *args, **kwargs):
    c["engine.segments"] += 1


def _count_run_walks(c, source, x_end, marks, sample_indices, *args, **kwargs):
    c["engine.calls"] += 1
    c["engine.lane_steps"] += int(x_end) * len({int(s) for s in sample_indices})


def _count_census(c, values, *args, **kwargs):
    c["census.calls"] += 1
    c["census.values_scanned"] += int(values.size)


def _count_mian_chowla(c, *args, **kwargs):
    c["models.mian_chowla_calls"] += 1


def _count_bootstrap(c, values, master_seed, purpose, n_boot=1000, *args, **kwargs):
    c["montecarlo.bootstrap_calls"] += 1
    if len(values) > 1:
        c["montecarlo.resamples"] += int(n_boot)


ESTIMATORS = (
    "moment_table",
    "estimate_moment",
    "expected_v_table",
    "estimate_expected_V",
    "estimate_sign_change_prob",
    "estimate_correlation",
    "estimate_event_probs",
)


def install(tracer: Tracer, rmflab) -> None:
    """Wrap every layer boundary of an imported ``rmflab`` package."""
    sieve, signs, rmf, engine = rmflab.sieve, rmflab.signs, rmflab.rmf, rmflab.engine
    census, models, mc = rmflab.census, rmflab.models, rmflab.montecarlo
    patch = tracer.patch_function
    patch(sieve, "segment_radical_data", "sieve.segment_radical_data", _count_segment_radical_data)
    patch(sieve, "primes_up_to", "sieve.primes_up_to", _count_primes_up_to)
    patch(sieve, "mertens_trace", "sieve.mertens_trace", _count_mertens_trace)
    patch(signs, "mix64_array", "signs.mix64_array", _count_mix64_array)
    patch(engine, "run_walks", "engine.run_walks", _count_run_walks)
    patch(census, "count_changes_chunk", "census.count_changes_chunk", _count_census)
    patch(models, "collect_walks", "models.collect_walks")
    patch(models, "mian_chowla", "models.mian_chowla", _count_mian_chowla)
    patch(mc, "bootstrap_estimate", "montecarlo.bootstrap_estimate", _count_bootstrap)
    for name in ESTIMATORS:
        patch(mc, name, "montecarlo.estimator")
    tracer.patch_method(rmf.RmfWordSource, "segment", "rmf.segment", _count_rmf_segment)
    tracer.patch_method(rmf.RmfWordSource, "block_words", "rmf.block_words", _count_rmf_block_words)
    tracer.patch_method(models.IidWordSource, "segment", "models.segment", _count_models_segment)
    tracer.patch_method(models.HarmonicWordSource, "segment", "models.segment", _count_models_segment)
    tracer.patch_method(models.IidWordSource, "block_words", "models.block_words")
