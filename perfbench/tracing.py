"""Timing shims around the public functions of each qdiv module.

Traced runs only.  ``Tracer.install`` wraps the functions and methods listed
in ``SPANS`` and ``COUNTS`` in place, from outside the package: every loaded
``qdiv`` module that holds a reference to a wrapped function gets the wrapper,
so calls made through ``from .x import y`` bindings are seen as well.
``Tracer.uninstall`` puts the originals back.

A span records ``(op, id, parent, name, t0, t1)``; spans nest, stay in memory,
and are written out when the run ends.  A layer's self time is the time its
spans were open minus the time their child spans were open.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import sys
import time

# (module, attribute or Class.attribute, layer name).  Several functions can
# share one layer name; their calls and self time are pooled.
SPANS = (
    ("matrixcore", "eig_hermitian", "matrixcore.eig_hermitian"),
    ("matrixcore", "superop_lr", "matrixcore.superop_lr"),
    ("operators", "PositiveOperator.__init__", "operators.construct"),
    ("operators", "PositiveOperator.clusters", "operators.spectral"),
    ("operators", "PositiveOperator.support_projection", "operators.spectral"),
    ("operators", "PositiveOperator.pseudo_power", "operators.spectral"),
    ("sampling", "ginibre", "sampling.ginibre"),
    ("sampling", "haar_unitary", "sampling.haar_unitary"),
    ("sampling", "random_density", "sampling.random_density"),
    ("divergence", "sandwiched_renyi", "divergence.sandwiched"),
    ("divergence", "sandwiched_core", "divergence.sandwiched-core"),
    ("divergence", "umegaki", "divergence.umegaki"),
    ("divergence", "renyi_traditional", "divergence.renyi"),
    ("divergence", "f_divergence", "divergence.fdiv"),
    ("divergence", "f_divergence_superop", "divergence.fdiv-superop"),
    ("divergence", "d_fg", "divergence.dfg"),
    ("divergence", "support_contains", "divergence.support"),
    ("divergence", "supports_orthogonal", "divergence.support"),
    ("maps", "StateMap.apply", "maps.apply"),
    ("preserver", "check_invariance", "preserver.check_invariance"),
    ("preserver", "wigner_reconstruct", "preserver.wigner_reconstruct"),
    ("preserver", "verify_conjugation", "preserver.verify_conjugation"),
    ("files", "load_operator", "files.load"),
    ("files", "save_operator", "files.save"),
    ("files", "render_report", "files.render_report"),
    ("cli", "main", "cli.main"),
)

# Hot, cheap calls: counted only, so the shim adds no span.
COUNTS = (
    ("matrixcore", "hs_inner", "matrixcore.hs_inner.calls"),
    ("functions", "ScalarFunctionSpec.__call__", "functions.calls"),
)

DIVERGENCE_TAGS = ("sandwiched", "sandwiched-core", "umegaki", "renyi", "fdiv",
                   "fdiv-superop", "dfg")

# Every per-layer metric a traced run reports: (name, unit, better).
PER_LAYER = (
    ("matrixcore.eig_hermitian.calls", "count", "lower"),
    ("matrixcore.eig_hermitian.self_s", "s", "lower"),
    ("matrixcore.eig_hermitian.dim_mean", "n", "lower"),
    ("matrixcore.hs_inner.calls", "count", "lower"),
    ("matrixcore.superop_lr.self_s", "s", "lower"),
    ("operators.construct.calls", "count", "lower"),
    ("operators.construct.self_s", "s", "lower"),
    ("operators.spectral.self_s", "s", "lower"),
    ("sampling.ginibre.calls", "count", "lower"),
    ("sampling.ginibre.self_s", "s", "lower"),
    ("sampling.haar_unitary.calls", "count", "lower"),
    ("sampling.haar_unitary.self_s", "s", "lower"),
    ("sampling.random_density.calls", "count", "lower"),
    ("sampling.random_density.self_s", "s", "lower"),
    *((f"divergence.{tag}.{what}", unit, "lower")
      for tag in DIVERGENCE_TAGS
      for what, unit in (("calls", "count"), ("self_s", "s"), ("inf_share", "ratio"))),
    ("divergence.support.self_s", "s", "lower"),
    ("maps.apply.calls", "count", "lower"),
    ("maps.apply.self_s", "s", "lower"),
    ("preserver.check_invariance.self_s", "s", "lower"),
    ("preserver.wigner_reconstruct.self_s", "s", "lower"),
    ("preserver.verify_conjugation.self_s", "s", "lower"),
    ("preserver.wigner.rejected", "count", "lower"),
    ("files.load.self_s", "s", "lower"),
    ("files.save.self_s", "s", "lower"),
    ("files.render_report.self_s", "s", "lower"),
    ("files.bytes_read", "B", "lower"),
    ("files.bytes_written", "B", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("functions.calls", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


# Metrics counted by hooks rather than derived from spans.
COUNTER_METRICS = frozenset(key for _m, _p, key in COUNTS) | {
    "preserver.wigner.rejected", "files.bytes_read", "files.bytes_written"}
# Metrics the runner measures itself, outside the shims.
RUNNER_METRICS = frozenset({"cli.import_s", "trace.overhead_share"})


def self_times(spans):
    """Per-name ``(calls, self seconds)`` from nested span records."""
    covered = collections.defaultdict(float)
    for _op, _sid, parent, _name, t0, t1 in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    calls = collections.Counter()
    own = collections.defaultdict(float)
    for _op, sid, _parent, name, t0, t1 in spans:
        calls[name] += 1
        own[name] += (t1 - t0) - covered[sid]
    return calls, own


def _resolve(module, path):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Holds the spans and counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = collections.Counter()
        self.op = -1
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------
    def enter(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, sid, parent, name, self.clock(), None])
        self._stack.append(sid)
        return sid

    def exit(self, sid):
        self.spans[sid][5] = self.clock()
        self._stack.pop()

    def _span_wrapper(self, fn, name):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook:
                    hook(self, args, None, exc)
                raise
            finally:
                self.exit(sid)
            if hook:
                hook(self, args, result, None)
            return result

        return traced

    def _count_wrapper(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching --------------------------------------------------------
    def install(self):
        for targets, make in ((SPANS, self._span_wrapper),
                              (COUNTS, self._count_wrapper)):
            for mod_name, path, key in targets:
                module = importlib.import_module(f"qdiv.{mod_name}")
                owner, attr = _resolve(module, path)
                if owner is module:
                    self._patch_function(module, attr, make, key)
                else:
                    original = owner.__dict__[attr]
                    if isinstance(original, property):
                        wrapped = property(make(original.fget, key))
                    else:
                        wrapped = make(original, key)
                    self._set(owner, attr, wrapped)

    def _patch_function(self, module, attr, make, key):
        original = getattr(module, attr)
        wrapped = make(original, key)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qdiv" or name.startswith("qdiv.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, binding, wrapped)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def finished_spans(self):
        return [tuple(s) for s in self.spans if s[5] is not None]

    def layer_metrics(self):
        """Every ``PER_LAYER`` metric except those the runner measures."""
        calls, own = self_times(self.finished_spans())
        eig = calls["matrixcore.eig_hermitian"]
        out = {
            "matrixcore.eig_hermitian.dim_mean":
                self.counts["eig.dim_sum"] / eig if eig else 0.0,
            "trace.spans": len(self.spans),
        }
        for name, _unit, _better in PER_LAYER:
            base, _, what = name.rpartition(".")
            if name in out or name in RUNNER_METRICS:
                continue
            if name in COUNTER_METRICS:
                out[name] = self.counts[name]
            elif what == "calls":
                out[name] = calls[base]
            elif what == "self_s":
                out[name] = own.get(base, 0.0)
            elif what == "inf_share":
                n = calls[base]
                out[name] = self.counts[f"{base}.inf"] / n if n else 0.0
        return out


def _eig_dim(tracer, args, result, exc):
    tracer.counts["eig.dim_sum"] += len(args[0])


def _divergence_branch(name):
    def hook(tracer, args, result, exc):
        if exc is None and getattr(result, "is_inf", False):
            tracer.counts[f"{name}.inf"] += 1
    return hook


def _wigner_rejected(tracer, args, result, exc):
    if exc is not None and type(exc).__name__ == "WignerError":
        tracer.counts["preserver.wigner.rejected"] += 1


def _bytes(key):
    def hook(tracer, args, result, exc):
        if exc is None:
            tracer.counts[key] += os.path.getsize(args[0])
    return hook


_HOOKS = {
    "matrixcore.eig_hermitian": _eig_dim,
    "preserver.wigner_reconstruct": _wigner_rejected,
    "files.load": _bytes("files.bytes_read"),
    "files.save": _bytes("files.bytes_written"),
    **{f"divergence.{tag}": _divergence_branch(f"divergence.{tag}")
       for tag in DIVERGENCE_TAGS},
}
