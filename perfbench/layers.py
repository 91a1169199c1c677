"""Per-layer tracing of the qmatroids library, applied from outside it.

The library is not instrumented.  Instead the public functions of each
layer are replaced, for the duration of a traced round, by wrappers at
every name a library module binds them to (``qmatroids.cli.search_x``
and ``qmatroids.representation.search_x`` are two bindings of one
function).  Each wrapped call records a span: name, start, end, parent
span and the id of the ``cli.main`` call (the job) it belongs to.
Generator functions get one span per ``next()``.  ``ExtField.mul`` and
``ExtField.inv`` are only counted, because a timer would cost more than
the call it times; their time lands in the caller's self time.

Spans are kept in memory up to a cap and written out when the run
ends.  The per-layer totals are folded from the same enter/exit events
as the spans, so they stay exact past the cap.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("gf", "subspace", "qmatroid", "constructions", "factorization",
          "representation", "cli")

# Traced besides the functions the package exports from each layer.
EXTRA_FUNCTIONS = (("gf", "rref"), ("cli", "main"))
TIMED_METHODS = (
    ("qmatroid", "QMatroid", "rank"),
    ("qmatroid", "QMatroid", "from_dict"),
    ("subspace", "Subspace", "from_dict"),
)
COUNTED_METHODS = (("gf", "ExtField", "mul"), ("gf", "ExtField", "inv"))

# Spans kept for the span file; later spans are folded into the totals only.
SPAN_CAP = 50_000


# Per-layer metrics: (metric name, unit, better).  Values are per traced
# round, except ratios.  The same list is declared in BENCHMARK.json.
def _timed(layer, name):
    return (f"{layer}.{name}.s", "s", "lower")


PER_LAYER = (
    ("representation.search_x.calls", "count", "lower"),
    _timed("representation", "search_x"),
    ("representation.search_x.candidates", "count", "lower"),
    ("representation.search_x.hits", "count", "higher"),
    ("representation.search_x.hit_ratio", "ratio", "higher"),
    ("representation.search_x.us_per_candidate", "us", "lower"),
    _timed("representation", "qmatroid_from_matrix"),
    _timed("representation", "verify_free_product_rep"),
    _timed("representation", "linear_set_profile"),
    _timed("representation", "is_evasive"),
    ("representation.self_s", "s", "lower"),
    ("gf.mul.calls", "count", "lower"),
    ("gf.inv.calls", "count", "lower"),
    ("gf.rref.calls", "count", "lower"),
    _timed("gf", "rref"),
    _timed("gf", "ext_field_new"),
    ("subspace.enumerate_subspaces.yielded", "count", "lower"),
    _timed("subspace", "enumerate_subspaces"),
    ("subspace.codim1_subspaces.yielded", "count", "lower"),
    _timed("subspace", "codim1_subspaces"),
    ("subspace.intersect_subspaces.calls", "count", "lower"),
    _timed("subspace", "intersect_subspaces"),
    ("subspace.sum_subspaces.calls", "count", "lower"),
    _timed("subspace", "sum_subspaces"),
    ("subspace.from_dict.calls", "count", "lower"),
    _timed("subspace", "from_dict"),
    ("subspace.q2.self_s", "s", "lower"),
    ("subspace.odd.self_s", "s", "lower"),
    ("qmatroid.rank.calls", "count", "lower"),
    _timed("qmatroid", "rank"),
    ("qmatroid.rank.repeat_ratio", "ratio", "lower"),
    _timed("qmatroid", "from_dict"),
    _timed("qmatroid", "check_rank_axioms"),
    _timed("qmatroid", "check_cyclic_flat_axioms"),
    _timed("qmatroid", "cyclic_flats_by_scan"),
    _timed("qmatroid", "enumerate_qmatroids"),
    ("qmatroid.self_s", "s", "lower"),
    ("constructions.free_product.calls", "count", "lower"),
    _timed("constructions", "free_product"),
    ("constructions.free_product_rank.calls", "count", "lower"),
    _timed("constructions", "direct_sum"),
    _timed("constructions", "weak_compare_identity"),
    ("constructions.self_s", "s", "lower"),
    _timed("factorization", "primary_factorization"),
    _timed("factorization", "irreducibility_verdict"),
    _timed("factorization", "dm_lattice"),
    ("factorization.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _q_of(args) -> int | None:
    """The field size q of a call, read off its first telling argument."""
    for a in args:
        if isinstance(a, bool):
            continue
        if isinstance(a, int):
            return a
        q = getattr(a, "q", None)
        if isinstance(q, int):
            return q
        if isinstance(a, dict) and "q" in a:
            try:
                return int(a["q"])
            except (TypeError, ValueError):
                return None
    return None


class _Stat:
    __slots__ = ("calls", "yielded", "incl", "self_s")

    def __init__(self):
        self.calls = 0
        self.yielded = 0
        self.incl = 0.0
        self.self_s = 0.0


class Tracer:
    """Spans and per-(layer, name) totals for the traced rounds of one run."""

    def __init__(self, span_cap: int = SPAN_CAP):
        self.span_cap = span_cap
        self.spans: list = []
        self.dropped = 0
        self.stats: dict[tuple[str, str], _Stat] = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.subspace_self = {"q2": 0.0, "odd": 0.0}
        self.counts = {"mul": 0, "inv": 0}
        self.search = {"candidates": 0, "hits": 0}
        self.rank_distinct = 0
        self._rank_keys: set = set()
        self._stack: list = []
        self._active: dict = {}
        self._job = 0
        self._restore: list = []
        self._names: dict = {}

    # -- installation ----------------------------------------------------
    def install(self, lib) -> None:
        """Wrap the traced functions in every library module that binds them."""
        modules = [lib.package] + [getattr(lib, layer) for layer in LAYERS]
        targets = {}
        for layer in LAYERS:
            mod = getattr(lib, layer)
            names = [n for n in lib.package.__all__
                     if getattr(getattr(mod, n, None), "__module__", None) == mod.__name__]
            names += [n for lay, n in EXTRA_FUNCTIONS if lay == layer and hasattr(mod, n)]
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn not in targets:
                    targets[fn] = self._wrap(fn, layer, name)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, targets[obj])
        for layer, cls_name, meth in TIMED_METHODS + COUNTED_METHODS:
            cls = getattr(getattr(lib, layer), cls_name, None)
            raw = None if cls is None else cls.__dict__.get(meth)
            if raw is None:
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if (layer, cls_name, meth) in COUNTED_METHODS:
                wrapped = self._count(fn, meth)
            else:
                wrapped = self._wrap(fn, layer, meth)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    # -- wrappers --------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str):
        key = (layer, name)
        self.stats.setdefault(key, _Stat())
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.stats[key].calls += 1
                return self._iterate(fn(*args, **kwargs), key,
                                     _q_of(args) if layer == "subspace" else None)
            return gen_wrapper

        before = {("cli", "main"): self._new_job,
                  ("qmatroid", "rank"): self._note_rank}.get(key)
        after = self._note_search if key == ("representation", "search_x") else None
        split_q = layer == "subspace"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.stats[key].calls += 1
            if before is not None:
                before(args)
            frame = self._enter(key, _q_of(args) if split_q else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counter

    def _iterate(self, it, key, q):
        stat = self.stats[key]
        while True:
            frame = self._enter(key, q)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._exit(frame)
            stat.yielded += 1
            yield item

    # -- hooks on a few calls --------------------------------------------
    def _new_job(self, args) -> None:
        if not self._stack:
            self._job += 1
            self.close_jobs()

    def _note_rank(self, args) -> None:
        if len(args) >= 2:
            self._rank_keys.add((args[0], args[1]))

    def _note_search(self, args, out) -> None:
        if len(args) < 2:
            return
        G1, G2 = args[0], args[1]
        k1 = G1.nrows
        free = k1 * G2.ncols - (1 if k1 == 1 else 0)
        self.search["candidates"] += G1.field.order ** free
        self.search["hits"] += len(out)

    # -- span bookkeeping ------------------------------------------------
    def _enter(self, key, q):
        idx = -1
        if len(self.spans) < self.span_cap:
            idx = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped += 1
        outermost = self._active.get(key, 0) == 0
        self._active[key] = self._active.get(key, 0) + 1
        parent = self._stack[-1][3] if self._stack else -1
        frame = [key, q, 0.0, idx, parent, outermost, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame) -> None:
        end = time.perf_counter()
        key, q, child, idx, parent, outermost, start = frame
        self._stack.pop()
        self._active[key] -= 1
        dur = end - start
        own = dur - child
        if self._stack:
            self._stack[-1][2] += dur
        stat = self.stats[key]
        if outermost:
            stat.incl += dur
        stat.self_s += own
        layer = key[0]
        self.layer_self[layer] += own
        if layer == "subspace" and q is not None:
            self.subspace_self["q2" if q == 2 else "odd"] += own
        if idx >= 0:
            name = self._names.get(key) or self._names.setdefault(key, f"{layer}.{key[1]}")
            self.spans[idx] = (name, start, end, parent, self._job)

    def close_jobs(self) -> None:
        """Fold the rank keys of the last job into the distinct count."""
        self.rank_distinct += len(self._rank_keys)
        self._rank_keys = set()

    # -- results ---------------------------------------------------------
    def metrics(self, rounds: int, overhead_s: float) -> dict:
        """The per-layer metrics, per traced round."""
        self.close_jobs()
        per = 1.0 / max(rounds, 1)

        def stat(layer, name):
            return self.stats.get((layer, name), _Stat())

        out = {}
        for metric, unit, _ in PER_LAYER:
            parts = metric.split(".")
            layer, field = parts[0], parts[-1]
            name = ".".join(parts[1:-1])
            if metric == "trace.overhead_s":
                value = overhead_s
            elif metric == "subspace.q2.self_s":
                value = self.subspace_self["q2"] * per
            elif metric == "subspace.odd.self_s":
                value = self.subspace_self["odd"] * per
            elif field == "self_s" and not name:
                value = self.layer_self[layer] * per
            elif metric == "cli.calls":
                value = stat("cli", "main").calls * per
            elif metric in ("gf.mul.calls", "gf.inv.calls"):
                value = self.counts[name] * per
            elif name == "search_x" and field in ("candidates", "hits"):
                value = self.search[field] * per
            elif metric == "representation.search_x.hit_ratio":
                value = self.search["hits"] / max(self.search["candidates"], 1)
            elif metric == "representation.search_x.us_per_candidate":
                cand = self.search["candidates"]
                value = stat(layer, "search_x").incl / cand * 1e6 if cand else 0.0
            elif metric == "qmatroid.rank.repeat_ratio":
                calls = stat("qmatroid", "rank").calls
                value = 1.0 - self.rank_distinct / calls if calls else 0.0
            elif field == "s":
                value = stat(layer, name).incl * per
            elif field == "calls":
                value = stat(layer, name).calls * per
            elif field == "yielded":
                value = stat(layer, name).yielded * per
            else:
                raise KeyError(metric)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped,
                                 "fields": ["name", "start", "end", "parent", "job"]}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
