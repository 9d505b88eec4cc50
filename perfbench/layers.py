"""Wrap the program's public layer functions with tracer spans.

:func:`install` patches each function under every name the program
imports it by (the defining module and any module that did ``from ...
import name``), so callers hit the wrapper whichever name they use.
Nothing in the program changes: the wrappers only time and count.

Layers without a public entry point are taken from the program's own
:class:`~repro.parallel.profiler.PhaseProfiler` rows: a ``with
profiler.phase(name)`` block becomes a span, and rows recorded after
the fact (detect's accumulated ``extract``/``match`` seconds) become
durations of the span open at the time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

from spans import Tracer

__all__ = ["PHASE_LAYERS", "install"]

#: Profiler phase -> layer label.  Phases not listed (``prune_shard``,
#: which re-reports time already inside ``prune``) stay with their
#: enclosing span.
PHASE_LAYERS = {
    "pairs": "mining.pairs",
    "prepare": "core.prepare",
    "intern": "mining.intern",
    "frequency": "mining.frequency",
    "growth": "mining.growth",
    "generate": "mining.generate",
    "prune": "mining.prune",
    "stats": "core.stats",
    "train": "ml.train",
    "extract": "mining.ids",
    "match": "mining.automaton",
    "featurize": "core.features",
    "classify": "ml.classify",
}

#: (module, attribute, label) for plain span wrappers.  Dotted
#: attributes are methods, patched on the class.
SPANNED = [
    ("repro.lang", "parse_source", "lang.parse"),
    ("repro.analysis.facts", "extract_facts", "analysis.facts"),
    ("repro.analysis.origins", "compute_origins", "analysis.origins"),
    ("repro.core.prepare", "prepare_file_checked", "core.prepare"),
    ("repro.mining.confusing_pairs", "mine_confusing_pairs", "mining.pairs"),
    ("repro.mining.interner", "PathInterner.build", "mining.intern"),
    ("repro.mining.matcher", "PatternMatcher.__init__", "mining.compile"),
    ("repro.core.namer", "Namer.train", "ml.train"),
    ("repro.core.persistence", "namer_to_document", "core.persistence"),
    ("repro.core.persistence", "save_document", "core.persistence"),
    ("repro.resilience.checkpoint", "CheckpointStore.save", "core.persistence"),
    ("repro.mining.frozen", "freeze_namer", "mining.freeze"),
    ("repro.mining.frozen", "load_frozen_namer", "mining.frozen_load"),
    ("repro.service.engine", "AnalysisEngine.analyze", "service.engine"),
]


def _patch_everywhere(original, replacement) -> None:
    """Rebind every module-level name bound to ``original``."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch(module_name: str, attribute: str, make_wrapper) -> None:
    """Replace ``module.attribute`` with ``make_wrapper(original)``."""
    module = importlib.import_module(module_name)
    if "." not in attribute:
        original = getattr(module, attribute)
        _patch_everywhere(original, functools.wraps(original)(make_wrapper(original)))
        return
    cls_name, method = attribute.split(".")
    cls = getattr(module, cls_name)
    raw = cls.__dict__[method]
    if isinstance(raw, classmethod):
        wrapped = classmethod(functools.wraps(raw.__func__)(make_wrapper(raw.__func__)))
    else:
        wrapped = functools.wraps(raw)(make_wrapper(raw))
    setattr(cls, method, wrapped)


def install(tracer: Tracer) -> None:
    """Patch every traced layer entry point to record into ``tracer``."""
    import repro.core.namer  # noqa: F401  (load the modules to patch)
    import repro.resilience.pipeline  # noqa: F401
    import repro.service.server  # noqa: F401

    span = tracer.span
    count = tracer.count

    def spanned(label):
        def make(fn):
            def wrapper(*args, **kwargs):
                with span(label):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    for module_name, attribute, label in SPANNED:
        _patch(module_name, attribute, spanned(label))

    def pointsto(fn):
        def wrapper(facts, config=None, *rest, **kwargs):
            from repro.analysis.pointsto import PointsToConfig

            config = config if config is not None else PointsToConfig()
            with span("analysis.pointsto"):
                result = fn(facts, config, *rest, **kwargs)
            count("analysis.pointsto_solves")
            if config.k > 0 and result.used_k < config.k:
                count("analysis.pointsto_fallbacks")
            return result
        return wrapper

    def transform(fn):
        def wrapper(*args, **kwargs):
            with span("core.transform"):
                result = fn(*args, **kwargs)
            count("core.statements")
            return result
        return wrapper

    def namepaths(fn):
        def wrapper(*args, **kwargs):
            with span("core.namepath"):
                result = fn(*args, **kwargs)
            count("core.paths", len(result))
            return result
        return wrapper

    def violations(fn):
        def wrapper(*args, **kwargs):
            with span("core.violations"):
                result = fn(*args, **kwargs)
            count("core.violations", len(result))
            return result
        return wrapper

    def detect(fn):
        def wrapper(*args, **kwargs):
            with span("core.detect"):
                result = fn(*args, **kwargs)
            count("core.reports", sum(len(group) for group in result))
            return result
        return wrapper

    _patch("repro.analysis.pointsto", "analyze_pointsto", pointsto)
    _patch("repro.core.transform", "transform_statement", transform)
    _patch("repro.core.namepath", "extract_name_paths", namepaths)
    _patch("repro.core.namer", "Namer.all_violations", violations)
    _patch("repro.core.namer", "Namer.detect_many", detect)

    # Content cache, per level: time, hits, and bytes written.
    def cache_get(fn):
        def wrapper(self, level, key):
            with span(f"cache.{level}.get"):
                value = fn(self, level, key)
            count(f"cache.{level}.gets")
            if value is not None:
                count(f"cache.{level}.hits")
            return value
        return wrapper

    def cache_put(fn):
        def wrapper(self, level, key, value):
            with span(f"cache.{level}.put"):
                return fn(self, level, key, value)
        return wrapper

    _patch("repro.cache.contentcache", "ContentCache.get", cache_get)
    _patch("repro.cache.contentcache", "ContentCache.put", cache_put)
    contentcache = importlib.import_module("repro.cache.contentcache")
    write = contentcache.atomic_write_bytes

    def counted_write(path, data):
        count("cache.bytes_written", len(data))
        return write(path, data)

    contentcache.atomic_write_bytes = counted_write

    # Service: result cache hits, queue wait, cross-thread parenting.
    def result_get(fn):
        def wrapper(self, key):
            with span("service.result_cache"):
                value = fn(self, key)
            count("service.result_cache_gets")
            if value is not None:
                count("service.result_cache_hits")
            return value
        return wrapper

    _patch("repro.service.cache", "ResultCache.get", result_get)
    _patch("repro.service.cache", "ResultCache.put", spanned("service.result_cache"))

    def submit(fn):
        def wrapper(self, job):
            top = tracer.current()
            parent = top[0] if top else None
            queued = time.perf_counter()

            def traced_job():
                started = time.perf_counter()
                tracer.add_span("service.queue_wait", queued, started, parent)
                with span("service.engine", parent=parent):
                    return job()
            return fn(self, traced_job)
        return wrapper

    _patch("repro.service.queue", "RequestQueue.submit", submit)

    # Profiler phases: intervals for `with phase(...)`, durations for
    # rows recorded after the fact.
    from repro.parallel.profiler import PhaseProfiler

    original_phase = PhaseProfiler.phase
    original_record = PhaseProfiler.record

    @contextmanager
    def phase(self, name, items=0):
        label = PHASE_LAYERS.get(name)
        if label is None:
            with original_phase(self, name, items):
                yield
            return
        if name == "featurize":
            count("core.violations", items)
        with span(label):
            with original_phase(self, name, items):
                yield

    def record(self, name, seconds, items=0):
        label = PHASE_LAYERS.get(name)
        top = tracer.current()
        if label is not None and (top is None or top[1] != label):
            tracer.add_duration(label, seconds)
        return original_record(self, name, seconds, items)

    PhaseProfiler.phase = phase
    PhaseProfiler.record = record
