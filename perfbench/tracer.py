"""Spans and counters for the traced benchmark run, recorded from outside the
package.

Functions are replaced by module attribute in the module that calls them
(for example ``hyperarr.report.is_inductively_free``), and a few public
methods are replaced on their class (``IntEchelon.add``/``.contains``,
``Universe.__init__``, ``Universe.node_mobius``).  A span records its name,
start, end and parent; counts come from public return values and from the
wrapped methods.  Spans are kept in memory and written out by the caller.

Every span name is a per-layer metric without its ``_s`` suffix: the metric
is the summed self time of the spans of that name, so the self times of all
names add up to the duration of the root spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# (module under hyperarr, attribute, span name, counter fed by the result)
FUNCTION_SPANS = (
    ("report", "is_supersolvable", "lattice.supersolvable", None),
    ("report", "find_generic_rank3_localization", "lattice.rank3_scan", None),
    ("report", "is_inductively_free", "freeness.indfree",
     ("freeness.indfree_nodes", lambda res: res.nodes_visited)),
    ("report", "verify_free_certificate", "freeness.replay",
     ("freeness.replay_steps", lambda res: res.steps)),
    ("report", "is_inductively_factored", "factorization.ifac", None),
    ("report", "simplicial_defect", "regions.simplicial_defect", None),
    ("report", "is_formal", "formality.formal", None),
    ("report", "is_lc_basis", "formality.formal", None),
    ("report", "projective_uniqueness_witness", "formality.witness",
     ("formality.witnesses", lambda res: res[1] is not None)),
    ("cli", "analyze", "report.self", None),
)

SPAN_NAMES = (
    "bench.self",
    "cli.self",
    "report.self",
    "lattice.build",
    "lattice.chi",
    "lattice.supersolvable",
    "lattice.rank3_scan",
    "freeness.indfree",
    "freeness.replay",
    "factorization.ifac",
    "formality.witness",
    "formality.formal",
    "regions.enumerate",
    "regions.zeta",
    "regions.simplicial_geometric",
    "regions.simplicial_defect",
)

COUNT_NAMES = (
    "exactlinalg.echelon_adds",
    "exactlinalg.echelon_contains",
    "lattice.universe_builds",
    "lattice.flats",
    "freeness.indfree_nodes",
    "freeness.replay_steps",
    "formality.gen_closure_calls",
    "formality.witnesses",
    "regions.regions",
)


class Tracer:
    """In-memory span and counter recorder for one benchmark sample."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._adds = [0]
        self._contains = [0]

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, /, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def _wrap(self, name: str, fn, counter=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the package's public entry points; undone by uninstall()."""
        import importlib

        from hyperarr.exactlinalg import IntEchelon
        from hyperarr.lattice import Universe

        counts = self.counts
        for module, attr, name, counter in FUNCTION_SPANS:
            owner = importlib.import_module(f"hyperarr.{module}")
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), counter))

        formality = importlib.import_module("hyperarr.formality")
        gen_closure = formality.gen_closure

        def counted_gen_closure(*args, **kwargs):
            counts["formality.gen_closure_calls"] += 1
            return gen_closure(*args, **kwargs)

        self._patch(formality, "gen_closure", counted_gen_closure)

        # Echelon calls run in the millions: count them with a bare cell
        # instead of a span or a dict update.
        adds, contains = self._adds, self._contains
        add, has = IntEchelon.add, IntEchelon.contains

        def counted_add(ech, vector):
            adds[0] += 1
            return add(ech, vector)

        def counted_contains(ech, vector):
            contains[0] += 1
            return has(ech, vector)

        self._patch(IntEchelon, "add", counted_add)
        self._patch(IntEchelon, "contains", counted_contains)

        init = Universe.__init__
        span = self.span

        def traced_init(uni, *args, **kwargs):
            with span("lattice.build"):
                init(uni, *args, **kwargs)
            counts["lattice.universe_builds"] += 1
            counts["lattice.flats"] += uni.flat_count()

        self._patch(Universe, "__init__", traced_init)
        self._patch(Universe, "node_mobius", self._wrap("lattice.chi", Universe.node_mobius))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self.counts["exactlinalg.echelon_adds"] = self._adds[0]
        self.counts["exactlinalg.echelon_contains"] = self._contains[0]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its children's."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0)
        for (name, start, end, _parent), inner in zip(self.spans, child_ns):
            out[name] += end - start - inner
        return {name: ns / 1e9 for name, ns in out.items()}


class NoTracer:
    """Stand-in with the Tracer call interface that records nothing."""

    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        pass
