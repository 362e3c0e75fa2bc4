"""Spans and counters around the public functions of qespoly.

Modules import functions by name (spectrum calls its own global
gen_family), so a function is wrapped in every qespoly module whose
namespace binds it, and methods are wrapped on their class.  Wrappers
record a span per call (name, start, end, parent) and the self time of
each name: its duration minus the time its child spans cover.  Counters
(points evaluated, members generated, bytes printed, ...) are taken at
the same boundaries.  Nothing is recorded while the tracer is inactive,
so the benchmark's own checks do not count.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

MAX_SPANS = 1_000_000

# traced name -> (module, attribute); "Class.method" attributes are methods
TRACED = {
    "exactpoly.EnergyPoly.mul": ("exactpoly", "EnergyPoly.__mul__"),
    "exactpoly.poly_divide_exact": ("exactpoly", "poly_divide_exact"),
    "exactpoly.poly_arith": ("exactpoly", "poly_arith"),
    "exactpoly.eval_numeric": ("exactpoly", "eval_numeric"),
    "exactpoly.sturm_real_root_count": ("exactpoly", "sturm_real_root_count"),
    "exactpoly.real_roots": ("exactpoly", "real_roots"),
    "families.gen_family": ("families", "gen_family"),
    "families.gen_quotient": ("families", "gen_quotient"),
    "families.gen_R": ("families", "gen_R"),
    "families.three_term_form": ("families", "three_term_form"),
    "families.finkel_form": ("families", "finkel_form"),
    "spectrum.chain_plan": ("spectrum", "chain_plan"),
    "spectrum.qes_energies": ("spectrum", "qes_energies"),
    "spectrum.factorization_check": ("spectrum", "factorization_check"),
    "spectrum.norms_closed": ("spectrum", "norms_closed"),
    "spectrum.norms_from_recursion": ("spectrum", "norms_from_recursion"),
    "spectrum.weights": ("spectrum", "weights"),
    "spectrum.norm_weight_crosscheck": ("spectrum", "norm_weight_crosscheck"),
    "spectrum.moments": ("spectrum", "moments"),
    "potentials.potential_eval": ("potentials", "potential_eval"),
    "potentials.sextic_qes_levels": ("potentials", "sextic_qes_levels"),
    "duality.dual_energies": ("duality", "dual_energies"),
    "duality.periodicity_character": ("duality", "periodicity_character"),
    "duality.dsg_spectrum": ("duality", "dsg_spectrum"),
    "duality.dsg_weights_moments": ("duality", "dsg_weights_moments"),
    "duality.new_potential_states": ("duality", "new_potential_states"),
    "wavefunctions.build_qes_state": ("wavefunctions", "build_qes_state"),
    "wavefunctions.QESState.eval": ("wavefunctions", "QESState.eval"),
    "wavefunctions.QESState.eval_dual": ("wavefunctions", "QESState.eval_dual"),
    "wavefunctions.node_count": ("wavefunctions", "node_count"),
    "wavefunctions.schrodinger_residual": ("wavefunctions", "schrodinger_residual"),
    "wavefunctions.residual": ("wavefunctions", "residual"),
    "oracle.discretize": ("oracle", "discretize"),
    "oracle.lowest_eigenvalues": ("oracle", "lowest_eigenvalues"),
    "oracle.match_levels": ("oracle", "match_levels"),
    "oracle.verify_qes": ("oracle", "verify_qes"),
    "oracle.analytic_qes_levels": ("oracle", "analytic_qes_levels"),
    "oracle.verify_duality_pair": ("oracle", "verify_duality_pair"),
    "cli.main": ("cli", "main"),
}


class _CountingWriter:
    """A text stream that forwards to another and counts the bytes."""

    def __init__(self, target):
        self.target = target
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self.target.write(text)

    def flush(self):
        self.target.flush()


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.spans = []
        self._stack = []        # [span id, name, start, child seconds]
        self._next_id = 0
        self._patches = []      # (owner, attribute, original)
        self._task_members = set()
        self._gc_start = None

    # -- spans ---------------------------------------------------------

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, name, time.perf_counter(), 0.0])

    def _close(self):
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent, name, start, end))

    @contextlib.contextmanager
    def task(self, name):
        """Root span of one timed task; the tracer records only inside it."""
        self.active = True
        self._task_members = set()
        self._open("task:" + name)
        try:
            yield
        finally:
            self._close()
            self.counters["families.distinct_members"] += len(self._task_members)
            self.active = False

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            tracer._count(name, args, kwargs, result)
            return result

        return wrapper

    # -- counters ------------------------------------------------------

    def _count(self, name, args, kwargs, result):
        def arg(i, key):
            return args[i] if len(args) > i else kwargs[key]

        c = self.counters
        if name in ("families.gen_family", "families.gen_quotient", "families.gen_R"):
            spec = result.spec
            c["families.members_generated"] += len(result.members)
            self._task_members.update(
                (spec.kind, spec.m, spec.s, n) for n in range(len(result.members)))
        elif name == "spectrum.weights":
            c["spectrum.weights.exact"] += bool(result.exact)
        elif name in ("wavefunctions.QESState.eval", "potentials.potential_eval"):
            c[name + ".points"] += int(np.size(arg(1, "x")))
        elif name == "oracle.discretize":
            n = len(result.diag)
            c["oracle.grid_points"] += n
            if result.corner is not None:
                c["oracle.circle_dense_bytes"] += 8 * n * n
        elif name == "oracle.lowest_eigenvalues":
            before, after = arg(0, "config").l, result.config.l
            if before is not None and after != before:
                c["oracle.domain_enlargements"] += round(math.log(after / before) / math.log(1.5))

    def _count_cli_bytes(self, main):
        tracer = self

        @functools.wraps(main)
        def counting_main(argv=None):
            writer = _CountingWriter(sys.stdout)
            try:
                with contextlib.redirect_stdout(writer):
                    return main(argv)
            finally:
                if tracer.active:
                    tracer.counters["cli.main.bytes_out"] += writer.bytes

        return counting_main

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            if self.active:
                self.counters["python.gc_ms"] += 1e3 * (time.perf_counter() - self._gc_start)
                self.counters["python.gc_collections"] += 1
            self._gc_start = None

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every traced function wherever a qespoly module binds it."""
        owners = {mod: importlib.import_module("qespoly." + mod) for mod, _ in TRACED.values()}
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "qespoly" or k.startswith("qespoly.")) and m is not None]
        for name, (mod_name, attr) in TRACED.items():
            owner = owners[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(name, original)
                for key, value in list(cls.__dict__.items()):
                    if value is original:
                        self._patch(cls, key, wrapper)
                continue
            original = getattr(owner, attr)
            fn = self._count_cli_bytes(original) if name == "cli.main" else original
            wrapper = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
