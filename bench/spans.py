"""Span tracing of the enhcone layers from outside the library.

`install()` rebinds the public functions of combinatorics, gflinalg,
normalform, fibers, checks and cli -- in every enhcone module namespace
that holds them, so `fibers.enumerate_subspaces` is traced as well as
`gflinalg.enumerate_subspaces` -- and the methods named in METHODS on
their classes.  Nothing under src/ is edited.

Each call is a span with a parent: the span that was open when it
started.  Generators are wrapped so that every next() is its own span,
which puts the work of producing an item on the generator and the work
done with it on the consumer.  A paving sweep makes about seven million
spans, too many to keep one record each, so spans are kept in memory
aggregated by (parent, name): count, total time and self time (total
minus the time covered by child spans).  `Tracer.edges()` hands them to
bench/run.py, which prints them at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

ROOT_SPAN = "workload"

# (module, function) pairs traced as plain calls or generators
FUNCTIONS = (
    ("combinatorics", "bipartitions"),
    ("combinatorics", "flag_shape"),
    ("combinatorics", "is_distinguished"),
    ("gflinalg", "enumerate_subspaces"),
    ("gflinalg", "kernel"),
    ("gflinalg", "quotient_map"),
    ("gflinalg", "rank"),
    ("normalform", "classify_pair"),
    ("normalform", "centralizer_basis"),
    ("normalform", "jordan_type"),
    ("normalform", "normal_pair"),
    ("normalform", "graded_kernel_blocks"),
    ("normalform", "enumerate_graded_subspaces"),
    ("normalform", "graded_projection"),
    ("normalform", "explicit_decomposition"),
    ("fibers", "count_fiber_memo"),
    ("fibers", "closure_pairs"),
    ("fibers", "interpolate_qpoly"),
    ("fibers", "count_lambda_fixed"),
    ("fibers", "enumerate_fiber_flags"),
    ("fibers", "enumerate_lambda_fixed_flags"),
    ("fibers", "orbit_dimension"),
    ("checks", "check_polynomial_count"),
    ("checks", "check_alpha_partition"),
    ("checks", "check_split_product"),
    ("checks", "check_kernel_recursion"),
    ("checks", "check_distinguished_lemma"),
    ("checks", "check_semismall"),
    ("checks", "search_decomposition"),
    ("cli", "main"),
)

# (module, class, method) triples traced on the class itself
METHODS = (
    ("gflinalg", "SubspaceGF", "span"),
    ("gflinalg", "SubspaceGF", "intersect"),
    ("gflinalg", "QuotientMap", "apply"),
    ("gflinalg", "QuotientMap", "push_matrix"),
    ("gflinalg", "QuotientMap", "preimage"),
    ("fibers", "FiberCache", "load"),
    ("fibers", "FiberCache", "save"),
)

GENERATORS = {
    "gflinalg.enumerate_subspaces",
    "normalform.enumerate_graded_subspaces",
    "fibers.enumerate_fiber_flags",
    "fibers.enumerate_lambda_fixed_flags",
}


class Tracer:
    """Aggregated span tree plus the counters the spans feed."""

    def __init__(self):
        self._stack = [[ROOT_SPAN, 0.0]]  # open spans: [name, time covered by children]
        self._edges: dict[tuple[str, str], list] = {}  # (parent, name) -> [spans, total_s, self_s]
        self.calls: Counter = Counter()
        self.yielded: Counter = Counter()
        self.loaded_entries = 0
        self.classify_inputs: set = set()

    def _close(self, name: str, frame: list, started: float) -> None:
        duration = time.perf_counter() - started
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        parent[1] += duration
        edge = self._edges.get((parent[0], name))
        if edge is None:
            edge = self._edges[(parent[0], name)] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - frame[1]

    def call(self, name: str, fn):
        """fn wrapped so that each call is one span."""
        stack, clock, close, calls = self._stack, time.perf_counter, self._close, self.calls

        def traced(*args, **kwargs):
            calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, frame, started)

        return functools.update_wrapper(traced, fn)

    def generator(self, name: str, fn):
        """fn wrapped so that each next() on its result is one span."""
        stack, clock, close, calls = self._stack, time.perf_counter, self._close, self.calls
        yielded = self.yielded

        def iterate(it):
            try:
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    started = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(name, frame, started)
                    yielded[name] += 1
                    yield item
            finally:
                it.close()

        def traced(*args, **kwargs):
            calls[name] += 1
            return iterate(fn(*args, **kwargs))

        return functools.update_wrapper(traced, fn)

    def edges(self) -> list[dict]:
        """Every (parent, name) span aggregate, heaviest self time first."""
        rows = [
            {"parent": parent, "name": name, "spans": n, "total_s": total, "self_s": own}
            for (parent, name), (n, total, own) in self._edges.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])


def labels() -> list[str]:
    """Names of all traced functions and methods, as `module.function`."""
    return [f"{m}.{f}" for m, f in FUNCTIONS] + [f"{m}.{c}.{f}" for m, c, f in METHODS]


def _enhcone_modules() -> list:
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "enhcone" or key.startswith("enhcone."))
    ]


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method of the imported enhcone."""
    import enhcone.cli  # noqa: F401  -- not imported by the package itself

    modules = _enhcone_modules()
    for module, attr in FUNCTIONS:
        name = f"{module}.{attr}"
        original = getattr(sys.modules[f"enhcone.{module}"], attr)
        target = original
        if name == "normalform.classify_pair":
            target = _recording_inputs(original, tracer.classify_inputs)
        wrap = tracer.generator if name in GENERATORS else tracer.call
        traced = wrap(name, target)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    for module, cls_name, attr in METHODS:
        name = f"{module}.{cls_name}.{attr}"
        cls = getattr(sys.modules[f"enhcone.{module}"], cls_name)
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.call(name, raw.__func__)))
        elif name == "fibers.FiberCache.load":
            setattr(cls, attr, _counting_loads(tracer.call(name, raw), tracer))
        else:
            setattr(cls, attr, tracer.call(name, raw))


def _recording_inputs(classify, seen: set):
    """classify_pair that also records its distinct (p, x, v) inputs; the
    recording runs inside the classify_pair span."""

    def recording(v, x):
        seen.add((x.p, x.rows, tuple(a % x.p for a in v)))
        return classify(v, x)

    return functools.update_wrapper(recording, classify)


def _counting_loads(load, tracer: Tracer):
    """FiberCache.load that also counts the records of the file it read."""

    def counting(self, path):
        result = load(self, path)
        with open(path) as fh:
            tracer.loaded_entries += sum(1 for _ in fh) - 1  # minus the header
        return result

    return functools.update_wrapper(counting, load)
