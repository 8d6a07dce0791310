"""Spans and work counts recorded around the library's public functions.

The tracer rebinds each wrapped function in every `weylbound` module
namespace that holds it, so names bound with `from .x import f` (for
example `pipeline.kloosterman` or `lfunc.log_gamma_vec`) are traced as
well.  Each thread keeps its own span list and stack; nothing is shared
between threads until `spans()` and `counts()` merge them after the run.

A span is (name, start, end, parent, thread).  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the same thread's span list
    thread: int


class _ThreadLog:
    def __init__(self, ident: int):
        self.ident = ident
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.scratch: dict = {}  # per-thread hand-off between hooks


class Tracer:
    """Records spans and counts; `install` rebinds, `uninstall` restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._patches: list[tuple[object, str, object]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, hook=None):
        """Wrap fn in a span.  `name` may be a callable of (args, kwargs);
        `hook(log, span, args, kwargs, result)` adds work counts."""
        clock = self.clock

        def wrapper(*args, **kwargs):
            log = self._log()
            label = name(args, kwargs) if callable(name) else name
            sp = Span(label, clock(), math.nan, log.stack[-1] if log.stack else None, log.ident)
            log.stack.append(len(log.spans))
            log.spans.append(sp)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = clock()
                log.stack.pop()
            if hook is not None:
                hook(log, sp, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn, hook=None):
        """Wrap fn to count its calls under `name`, without a span."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            log = self._log()
            log.counts[name] += 1
            if hook is not None:
                hook(log, None, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, plan, package: str = "weylbound") -> None:
        """plan: (module, attribute, wrapper factory) triples.  The
        factory receives the original object and returns its wrapper."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for module, attr, factory in plan:
            target = getattr(module, attr)
            wrapped = factory(target)
            if isinstance(module, type):
                self._patches.append((module, attr, module.__dict__[attr]))
                setattr(module, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    # -- results ------------------------------------------------------------

    def spans(self) -> list[list[Span]]:
        with self._lock:
            return [list(log.spans) for log in self._logs]

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for log in self._logs:
                total.update(log.counts)
        return total


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(thread_spans: list[list[Span]]) -> list[list[float]]:
    """Self time of every span, per thread, in the order given."""
    out = []
    for spans in thread_spans:
        children: dict[int, list[tuple[float, float]]] = {}
        for sp in spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append((sp.start, sp.end))
        out.append([
            (sp.end - sp.start) - _covered(children.get(i, ()), sp.start, sp.end)
            for i, sp in enumerate(spans)
        ])
    return out


@dataclass
class SpanTable:
    self_s: Counter
    calls: Counter
    wall_s: Counter  # summed durations
    layer_self_s: Counter
    unspanned_main_s: float


def summarize(thread_spans: list[list[Span]], main_thread: int,
              phase: tuple[float, float]) -> SpanTable:
    """Per-name self time, calls and durations, per-layer self time, and
    the part of the phase the main thread spent outside every span."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    wall_s: Counter = Counter()
    unspanned = 0.0
    for spans, selfs in zip(thread_spans, self_times(thread_spans)):
        for sp, st in zip(spans, selfs):
            self_s[sp.name] += st
            calls[sp.name] += 1
            wall_s[sp.name] += sp.end - sp.start
        if spans and spans[0].thread == main_thread:
            roots = [(sp.start, sp.end) for sp in spans if sp.parent is None]
            unspanned = (phase[1] - phase[0]) - _covered(roots, *phase)
    layer: Counter = Counter()
    for name, v in self_s.items():
        layer[name.split(".", 1)[0]] += v
    return SpanTable(self_s, calls, wall_s, layer, unspanned)


# ---------------------------------------------------------------------------
# what the benchmark wraps, and the work counts taken at each boundary


def _hook_weight(log, sp, args, kwargs, result):
    contour, u = args[0], args[1]
    log.counts["lfunc.weight.entries"] += int(np.size(u)) * len(contour.w)


def _contour_hook(lfunc):
    def hook(log, sp, args, kwargs, result):
        contour = args[0]
        panels = kwargs.get("panels", args[3] if len(args) > 3 else None)
        panels = lfunc._CONTOUR_PANELS if panels is None else panels
        log.counts["lfunc.contour.nodes_built"] += panels * lfunc._CONTOUR_NODES
        log.counts["lfunc.contour.nodes_kept"] += len(contour.w)
    return hook


def _hook_scan(log, sp, args, kwargs, result):
    threads = kwargs.get("parallelism", args[5] if len(args) > 5 else 1)
    log.counts["lfunc.scan.slot_s"] += max(1, threads) * (sp.end - sp.start)


def _hook_log_gamma(log, sp, args, kwargs, result):
    log.counts["special.log_gamma_vec.elements"] += int(np.size(args[0]))


def _hook_bessel(log, sp, args, kwargs, result):
    log.counts[f"special.bessel_j.route.{result.method}"] += 1
    if result.method == "recurrence":
        # the start index of the Miller backward recurrence
        top = max(args[0], args[1])
        log.counts["special.bessel_j.miller_steps"] += int(top + 16.0 * math.sqrt(top + 1.0) + 24)


def _hook_inner_nodes(log, sp, args, kwargs, result):
    log.scratch["inner_nodes"] = len(result[0])


def _hook_i_batch(log, sp, args, kwargs, result):
    ms = np.size(args[0])
    if ms == 1:
        log.counts["pipeline.i_batch.small_calls"] += 1
    log.counts["pipeline.i_batch.entries"] += ms * log.scratch.pop("inner_nodes", 0)


def _hook_poly_mul(log, sp, args, kwargs, result):
    a, b, prec = args[0][: args[2] + 1], args[1][: args[2] + 1], args[2]
    if not a or not b:
        return
    bound = max(abs(c) for c in a) * max(abs(c) for c in b) * min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8 + 1
    log.counts["modforms.poly_mul.bits"] += 8 * width * min(len(a) + len(b) - 1, prec + 1)


def trace_plan(tracer: Tracer):
    """(module or class, attribute, wrapper factory) for every boundary."""
    from weylbound import (
        acceptance, arith, characters, expsums, lfunc, modforms, oscint,
        pipeline, special, trace,
    )

    def sp(name, hook=None):
        return lambda fn: tracer.span(name, fn, hook)

    def ct(name, hook=None):
        return lambda fn: tracer.counter(name, fn, hook)

    def k_sum_name(args, kwargs):
        return "oscint.k_sum." + kwargs.get("mode", args[2] if len(args) > 2 else "?")

    plan = [
        (lfunc._AfeContour, "__init__", sp("lfunc.contour", _contour_hook(lfunc))),
        (lfunc._AfeContour, "weight", sp("lfunc.weight", _hook_weight)),
        (lfunc, "central_value", sp("lfunc.central_value")),
        (lfunc, "_scan_one", sp("lfunc.scan_one")),
        (lfunc, "exponent_scan", sp("lfunc.exponent_scan", _hook_scan)),
        (lfunc, "delta_spec", sp("lfunc.delta_spec")),
        (special, "log_gamma_vec", sp("special.log_gamma_vec", _hook_log_gamma)),
        (special, "bessel_j", sp("special.bessel_j", _hook_bessel)),
        (special, "bessel_j_many", sp("special.bessel_j_many")),
        (oscint, "oscillatory_quadrature", sp("oscint.oscillatory_quadrature")),
        (oscint, "bessel_weighted_k_sum", sp(k_sum_name)),
        (oscint, "stationary_phase_eval", sp("oscint.stationary_phase")),
        (oscint, "second_derivative_bound_check", sp("oscint.second_derivative")),
        (pipeline, "_inner_nodes", ct("pipeline.inner_nodes.calls", _hook_inner_nodes)),
        (pipeline, "i_integral_batch", sp("pipeline.i_batch", _hook_i_batch)),
        (pipeline, "j_integral_batch", sp("pipeline.j_batch")),
        (pipeline, "poisson_check_s5", sp("pipeline.s5")),
        (pipeline, "j_decay_report", sp("pipeline.j_decay")),
        (expsums, "kloosterman", sp("expsums.kloosterman")),
        (expsums, "twisted_kloosterman", sp("expsums.twisted_kloosterman")),
        (expsums, "charsum_grid", sp("expsums.charsum_grid")),
        (expsums, "charsum_congruence", sp("expsums.charsum_congruence")),
        (expsums, "verify_twisted_factorization", sp("expsums.twisted_factorization")),
        (characters, "enumerate_characters", sp("characters.enumerate")),
        (characters, "odd_character_average", sp("characters.odd_average")),
        (characters, "discover_average_convention", sp("characters.discover_convention")),
        (characters, "gauss_sum", ct("characters.gauss_sum.calls")),
        (modforms, "poly_mul", sp("modforms.poly_mul", _hook_poly_mul)),
        (modforms, "victor_miller_basis", sp("modforms.victor_miller_basis")),
        (modforms, "hecke_eigenforms", sp("modforms.hecke_eigenforms")),
        (modforms, "delta_eigenform", sp("modforms.delta_eigenform")),
        (modforms, "coefficient_bound_report", sp("modforms.coefficient_bound_report")),
        (trace, "petersson_delta", sp("trace.petersson_delta")),
        (trace, "petersson_matrix", sp("trace.petersson_matrix")),
        (trace, "trace_consistency", sp("trace.trace_consistency")),
        (arith, "inv_mod", ct("arith.inv_mod.calls")),
        (arith, "unit_roots", ct("arith.unit_roots.calls")),
    ]
    for attr in sorted(vars(acceptance)):
        if attr.startswith("criterion_"):
            plan.append((acceptance, attr, sp(f"acceptance.{attr}")))
    return plan
