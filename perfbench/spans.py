"""Span tracing of banachproj from outside the package.

`Tracer.install` replaces, for the duration of a traced round, every public
function of every banachproj module (in each module namespace that binds
it), the public methods of `LpSpace`, the private line search of the
polytope solver, and the `scipy.optimize` / `scipy.stats.gamma.ppf` entry
points as those modules see them (through a proxy for their module-level
`optimize` / `stats` names, so SciPy itself is left untouched).  Each call
becomes a span (name, start, end, parent id) kept in flat in-memory arrays;
`uninstall` restores the originals.  Spans are written out once, at the
end of the run, and reduced to the per-layer metrics by `layer_metrics`.

Spans opened on a worker thread (the moduli thread pool) take as parent
the innermost open span of the thread that installed the tracer, which is
blocked in the estimator that started the pool.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

# private hooks worth a span of their own: (module, attribute, span name)
_PRIVATE = [("solver", "_line_min", "solver.line_search")]

# SciPy entry points as seen through each banachproj module's namespace
_SCIPY = {
    "sets": ("optimize", ["linprog", "brentq"]),
    "solver": ("optimize", ["linprog", "minimize", "brentq"]),
    "moduli": ("stats", ["gamma.ppf"]),
}


class _Proxy:
    """Stands in for a module object; named attributes are overridden."""

    def __init__(self, target, overrides):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, attr):
        if attr in self._overrides:
            return self._overrides[attr]
        return getattr(self._target, attr)


def _count_probes(counts, args, kwargs, result):
    probes = args[3] if len(args) > 3 else kwargs["probes"]
    counts["certify.probes"] += len(probes)


def _count_polytope(counts, args, kwargs, result):
    counts["polytope.iterations"] += result.iterations


def _count_certified(counts, args, kwargs, result):
    counts["certified.calls"] += 1
    counts["certified.ok"] += bool(result.converged)


def _count_numdiff(counts, args, kwargs, result):
    counts["numdiff.steps"] += len(result.ts)
    counts["numdiff.converged"] += bool(result.converged)


def _count_estimate(counts, args, kwargs, result):
    counts["moduli.samples"] += result.sample_count
    counts["moduli.threads"] = max(counts["moduli.threads"], kwargs.get("threads") or 0)


def _count_bound(counts, args, kwargs, result):
    counts["moduli.anomalies"] += result.anomalies


def _count_suite(counts, args, kwargs, result):
    counts["verify.failures"] += result.failures


def _count_bytes(counts, args, kwargs, result):
    counts["reporting.bytes"] += len(result)


_HOOKS = {
    "solver.certify": _count_probes,
    "solver.project_polytope": _count_polytope,
    "solver.project_with_certificate": _count_certified,
    "numdiff.numdiff_derivative": _count_numdiff,
    "moduli.estimate_convexity_modulus": _count_estimate,
    "moduli.estimate_smoothness_modulus": _count_estimate,
    "moduli.distance_bound_check": _count_bound,
    "verify.run_suite": _count_suite,
    "reporting.dumps_stable": _count_bytes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("l")
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patches: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span named by id `nid`."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        with self._lock:
            sid = len(self.start)
            self.parent.append(parent)
            self.name.append(nid)
            self.end.append(0.0)
            self.start.append(perf_counter())
        stack.append(sid)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.end[sid] = perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        counts = self.counts
        counts_projector = name == "numdiff.numdiff_derivative"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_projector:   # numdiff(space, projector, ...): count projector calls
                args = (args[0], self._counted(args[1]), *args[2:])
            result = self.call(nid, fn, args, kwargs)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def _counted(self, projector):
        def counted(z):
            self.counts["numdiff.projector"] += 1
            return projector(z)
        return counted

    # -- installing and removing the wrappers ---------------------------------

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        import banachproj.cli  # noqa: F401  (loads every module of the package)
        from banachproj.space import LpSpace

        mods = [m for name, m in sorted(sys.modules.items())
                if name == "banachproj" or name.startswith("banachproj.")]
        wrapped = {}
        for m in mods:
            short = m.__name__.rpartition(".")[2]
            for attr in getattr(m, "__all__", []):
                fn = getattr(m, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == m.__name__:
                    span = f"{short}.{attr}"
                    wrapped[id(fn)] = self.wrap(span, fn, _HOOKS.get(span))
            for mod_name, attr, span in _PRIVATE:
                if short == mod_name and inspect.isfunction(getattr(m, attr, None)):
                    wrapped[id(getattr(m, attr))] = self.wrap(span, getattr(m, attr))
        for m in mods:
            for attr, value in list(vars(m).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._patch(m, attr, wrapped[id(value)])
            short = m.__name__.rpartition(".")[2]
            if short in _SCIPY:
                self._patch(m, _SCIPY[short][0], self._scipy_proxy(m, short))
        for attr, fn in list(vars(LpSpace).items()):
            if not attr.startswith("_") and inspect.isfunction(fn):
                self._patch(LpSpace, attr, self.wrap(f"space.{attr}", fn))

    def _scipy_proxy(self, module, short):
        attr, entries = _SCIPY[short]
        target = getattr(module, attr)
        overrides: dict = {}
        for entry in entries:
            head, _, tail = entry.partition(".")
            if tail:   # one level deeper, e.g. stats.gamma.ppf
                inner = getattr(target, head)
                fn = self.wrap(f"scipy.{entry}@{short}", getattr(inner, tail))
                overrides[head] = _Proxy(inner, {tail: fn})
            else:
                overrides[head] = self.wrap(f"scipy.{entry}@{short}", getattr(target, head))
        return _Proxy(target, overrides)

    def uninstall(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    # -- reduction --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the union of its children's intervals."""
        start, end, parent = self.start.tolist(), self.end.tolist(), self.parent.tolist()
        covered = [0.0] * len(start)
        kids: dict[int, list[int]] = {}
        for i, p in enumerate(parent):
            if p >= 0:
                kids.setdefault(p, []).append(i)
        for p, ch in kids.items():
            ch.sort(key=start.__getitem__)
            lo, hi = start[ch[0]], end[ch[0]]
            for i in ch[1:]:
                if start[i] > hi:
                    covered[p] += hi - lo
                    lo, hi = start[i], end[i]
                else:
                    hi = max(hi, end[i])
            covered[p] += hi - lo
        return [e - s - c for s, e, c in zip(start, end, covered)]

    def write(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (p, n, s, e) in enumerate(zip(self.parent, self.name, self.start, self.end)):
                fh.write(f"{i}\t{p}\t{self.names[n]}\t{s - t0:.9f}\t{e - t0:.9f}\n")


def layer_metrics(tracer: Tracer, rounds: int, ops: int) -> dict:
    """Per-layer counts and times per round of traced work (see BENCHMARK.json)."""
    names = tracer.names
    nid = tracer.name.tolist()
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    own = tracer.self_times()
    counts = Counter(names[i] for i in nid)
    spent: Counter = Counter()
    self_by_module: Counter = Counter()
    for i, d, s in zip(nid, dur, own):
        spent[names[i]] += d
        self_by_module[names[i].partition(".")[0]] += s
    c = tracer.counts

    def n(name):
        return counts.get(name, 0)

    def per_round(x):
        return x / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    def prefixed(prefix):
        return sum(v for k, v in counts.items() if k.startswith(prefix))

    # derivative calls that reached numdiff, directly or through other layers
    parent = tracer.parent.tolist()
    deriv_id = tracer._ids.get("derivative.directional_derivative", -2)
    numdiff_id = tracer._ids.get("numdiff.numdiff_derivative", -2)
    numeric_derivs = set()
    numdiff_under_deriv = 0
    for i, k in enumerate(nid):
        if k != numdiff_id:
            continue
        p = parent[i]
        while p >= 0 and nid[p] != deriv_id:
            p = parent[p]
        if p >= 0:
            numdiff_under_deriv += 1
            numeric_derivs.add(p)

    estimates_s = spent["moduli.estimate_convexity_modulus"] + spent["moduli.estimate_smoothness_modulus"]
    return {
        "space.calls": per_round(prefixed("space.")),
        "space.calls_per_op": ratio(prefixed("space."), ops),
        "space.self_s": per_round(self_by_module["space"]),
        "sets.project.calls": per_round(prefixed("sets.project_")),
        "sets.contains.calls": per_round(n("sets.contains")),
        "sets.root_find.calls": per_round(n("scipy.brentq@sets")),
        "sets.lp.calls": per_round(n("scipy.linprog@sets")),
        "sets.self_s": per_round(self_by_module["sets"]),
        "solver.calls": per_round(n("solver.project_polytope")),
        "solver.iterations_per_proj": ratio(c["polytope.iterations"], n("solver.project_polytope")),
        "solver.certify.calls": per_round(n("solver.certify")),
        "solver.probes_per_certify": ratio(c["certify.probes"], n("solver.certify")),
        "solver.slsqp.calls": per_round(n("scipy.minimize@solver")),
        "solver.slsqp.s": per_round(spent["scipy.minimize@solver"]),
        "solver.lp.calls": per_round(n("scipy.linprog@solver")),
        "solver.line_search.calls": per_round(n("solver.line_search")),
        "solver.certified_ratio": ratio(c["certified.ok"], c["certified.calls"]),
        "solver.self_s": per_round(self_by_module["solver"]),
        "numdiff.calls": per_round(n("numdiff.numdiff_derivative")),
        "numdiff.projector_calls_per_call": ratio(c["numdiff.projector"], n("numdiff.numdiff_derivative")),
        "numdiff.steps_used": ratio(c["numdiff.steps"], n("numdiff.numdiff_derivative")),
        "numdiff.converged_ratio": ratio(c["numdiff.converged"], n("numdiff.numdiff_derivative")),
        "numdiff.self_s": per_round(self_by_module["numdiff"]),
        "derivative.calls": per_round(n("derivative.directional_derivative")),
        "derivative.numeric_ratio": ratio(len(numeric_derivs), n("derivative.directional_derivative")),
        "derivative.numdiff.calls": per_round(numdiff_under_deriv),
        "derivative.self_s": per_round(self_by_module["derivative"]),
        "moduli.delta.s": per_round(spent["moduli.estimate_convexity_modulus"]),
        "moduli.rho.s": per_round(spent["moduli.estimate_smoothness_modulus"]),
        "moduli.samples": per_round(c["moduli.samples"]),
        "moduli.samples_per_s": ratio(c["moduli.samples"], estimates_s),
        "moduli.sphere_map.s": per_round(spent["scipy.gamma.ppf@moduli"]),
        "moduli.threads": float(c["moduli.threads"]),
        "moduli.bound.s": per_round(spent["moduli.distance_bound_check"]),
        "moduli.bound.anomalies": per_round(c["moduli.anomalies"]),
        "moduli.self_s": per_round(self_by_module["moduli"]),
        "verify.suite.s": per_round(spent["verify.run_suite"]),
        "verify.failures": per_round(c["verify.failures"]),
        "reporting.calls": per_round(prefixed("reporting.")),
        "reporting.bytes": per_round(c["reporting.bytes"]),
        "reporting.self_s": per_round(self_by_module["reporting"]),
        "cli.main.s": per_round(spent["cli.main"]),
        "cli.self_s": per_round(self_by_module["cli"]),
        "trace.spans": per_round(len(nid)),
    }
