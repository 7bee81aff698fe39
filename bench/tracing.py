"""Traced runs: spans around the package's public functions, from outside.

`Tracer.install()` replaces module attributes of `magbern` with wrappers that
record a span (name, start, end, parent, invocation id) per call, and
restores the originals on exit; nothing under `src/` changes.  A function
re-imported into another module (`disorder.assemble`, ...) is wrapped under
both names with one span name, so every call site is seen.  Spans stay in
memory until `write_spans`.

Work counts come only from the arguments and return values of wrapped
calls.  Computing one (for instance the eigenpair residual) runs inside a
`bench.observe` span, a child of the caller's span: it is excluded from
every layer's self time and counted in the tracing overhead instead.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

OBSERVE = "bench.observe"
ROOT = "cli"  # one root span per CLI invocation, opened by the runner


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, invocation id]
        self.counts = defaultdict(float)
        self.maxima = {}
        self.distinct = defaultdict(set)
        self.invocation = None
        self._stack = []
        self._saved = []

    # -- spans ------------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.invocation])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def root(self, invocation: str):
        """Root span of one CLI invocation; its self time is the runner's own."""
        self.invocation = invocation
        return self.span(ROOT)

    # -- counters -----------------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def high(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- wrappers -----------------------------------------------------------------

    def wrap(self, name, fn, observe=None, span=True):
        """`fn` with a span named `name` (unless span=False) and an optional
        observer called as observe(tracer, bound_arguments, result)."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                idx = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
            else:
                result = fn(*args, **kwargs)
            if observe is not None:
                with self.span(OBSERVE):
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(self, bound.arguments, result)
            return result

        wrapper.bench_traced = True
        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Wrap every target; restore the originals on exit."""
        try:
            for name, sites, observe, span in targets():
                owner, attr = sites[0]
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, functools.cached_property):
                    prop = functools.cached_property(
                        self.wrap(name, original.func, observe, span))
                    prop.__set_name__(owner, attr)
                    self._patch(owner, attr, prop)
                    continue
                wrapper = self.wrap(name, original, observe, span)
                for site in sites:
                    self._patch(*site, wrapper)
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)


def installed_wrappers() -> list:
    """Names of targets currently replaced by a wrapper (empty when untraced)."""
    out = []
    for name, sites, _observe, _span in targets():
        for owner, attr in sites:
            value = inspect.getattr_static(owner, attr)
            fn = value.func if isinstance(value, functools.cached_property) else value
            if getattr(fn, "bench_traced", False):
                out.append(name)
    return out


# -- observers: counts from arguments and return values ------------------------------


def _eigensolve(t: Tracer, a: dict, sub) -> None:
    op = a["op"]
    dense = op.setup.dim <= a["dense_threshold"]
    t.add("lattice.eigensolve.dense_calls", dense)
    t.add("lattice.eigensolve.arpack_calls", not dense)
    t.add("lattice.eigensolve.pairs", sub.dim)
    if sub.dim:
        v = sub.vectors
        lam = sub.eigenvalues
        r = op.matrix @ v - v * lam[None, :]
        rel = np.linalg.norm(r, axis=0) / (
            np.linalg.norm(v, axis=0) * np.maximum(np.abs(lam), 1.0))
        t.high("lattice.eigensolve.residual_max", float(rel.max()))


def _window_counts_for_trials(t: Tracer, a: dict, counts) -> None:
    trials = a["trials"]
    t.add("disorder.window_counts_for_trials.trials", trials)
    t.add("disorder.window_counts_for_trials.eigs_computed", trials * a["config"].setup.dim)
    widest = int(np.argmax(np.asarray(a["eps_list"], dtype=float)))
    t.add("disorder.window_counts_for_trials.window_hits", int(counts[:, widest].sum()))


def _digest(x) -> str:
    x = np.ascontiguousarray(x)
    return hashlib.blake2b(x.tobytes() + str((x.shape, x.dtype)).encode(),
                           digest_size=16).hexdigest()


def _ladder_eval(t: Tracer, a: dict, values) -> None:
    lf = a["self"]
    t.add("landau.LadderField.eval.points", np.size(values))
    t.add("landau.envelope_evals", len(lf.terms))
    grid = (_digest(a["x1"]), _digest(a["x2"]), lf.B, a["conjugate_branch"])
    t.distinct["landau.envelope_distinct"].update((y, grid) for y in lf.terms)


def _sup_interval(t: Tracer, a: dict, _result) -> None:
    t.add("inequality.sup_grid_points", a["n_grid"])


def _kovrijkine(t: Tracer, a: dict, _result) -> None:
    t.add("inequality.sup_grid_points", a["n_circle"])


def _hum(t: Tracer, _a: dict, res) -> None:
    t.high("control.gramian_condition_max", res.gramian_condition)


def _window_counts(t: Tracer, a: dict, _counts) -> None:
    t.add("geometry.cells_scanned", np.size(a["cells"]))


def _run(t: Tracer, _a: dict, bundle) -> None:
    t.add("cli.bytes_written", sum(os.path.getsize(f) for f in bundle.files))


def targets() -> list:
    """(span name, [(owner, attribute), ...], observer, records a span)."""
    from magbern import algebra, cli, control, disorder, geometry, inequality, landau, lattice

    def fn(module, attr, observe=None, also=()):
        return (f"{module.__name__.split('.')[-1]}.{attr}", [(module, attr), *also],
                observe, True)

    return [
        fn(cli, "parse_config"),
        ("cli.run", [(cli, "run")], _run, False),
        fn(algebra, "f_poly", also=[(landau, "f_poly")]),
        fn(algebra, "verify_recursion"),
        fn(algebra, "weyl3d_reduction"),
        fn(algebra, "bernstein_constant", also=[(geometry, "bernstein_constant")]),
        ("landau.LadderField.eval", [(landau.LadderField, "eval")], _ladder_eval, True),
        fn(landau, "sample_ladder"),
        fn(landau, "magnetic_derivative"),
        fn(landau, "bernstein_sum"),
        fn(landau, "l1_bernstein_sum"),
        fn(landau, "mod2_derivative_word", also=[(geometry, "mod2_derivative_word")]),
        fn(landau, "norm2"),
        fn(landau, "boundary_mass_fraction"),
        fn(lattice, "assemble", also=[(disorder, "assemble")]),
        ("lattice.matrix", [(lattice.MagneticOperator, "matrix")], None, True),
        fn(lattice, "eigensolve", _eigensolve),
        fn(lattice, "coherent_vector"),
        fn(geometry, "read_pbm"),
        fn(geometry, "thickness_scan", also=[(disorder, "thickness_scan")]),
        fn(geometry, "window_counts", _window_counts),
        fn(inequality, "empirical_constant"),
        fn(inequality, "theoretical_constant_log"),
        fn(inequality, "remez_check"),
        fn(inequality, "kovrijkine_check", _kovrijkine),
        fn(inequality, "sup_abs_on_interval", _sup_interval),
        fn(inequality, "sup_abs_on_intervals"),
        fn(control, "hum_control", _hum),
        fn(control, "gramian"),
        fn(control, "masked_form"),
        fn(control, "state_trajectory"),
        fn(control, "cost_bound_log"),
        fn(disorder, "wegner_sweep"),
        fn(disorder, "window_counts_for_trials", _window_counts_for_trials),
    ]


# -- reduction ------------------------------------------------------------------------


def self_times(spans) -> list:
    """Per span: duration minus the part of its interval its children cover."""
    covered = [[] for _ in spans]
    for name, start, end, parent, _inv in spans:
        if parent >= 0:
            covered[parent].append((start, end))
    out = []
    for (_name, start, end, _parent, _inv), kids in zip(spans, covered):
        busy, reach = 0.0, start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                busy += b - a
                reach = b
        out.append((end - start) - busy)
    return out


def layer_table(spans) -> dict:
    """{span name: {"calls": n, "self_s": seconds}} over all spans."""
    table = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["calls"] += 1
        row["self_s"] += own
    return dict(table)


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        for name, start, end, parent, inv in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "invocation": inv}) + "\n")
