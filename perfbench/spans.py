"""Span recorder for the traced run.

`Tracer.install()` replaces each layer function below with a wrapper that
records a span (name, start, end, parent span, job id), and replaces it
everywhere the package holds a reference: module attributes, including the
copies other modules imported by name (`ekr_search.distance_census`,
`cli.solve_certificate`, ...), and the `cli.BUILDERS` table.  `uninstall()`
puts the originals back.

`rref_gf` runs millions of times in some jobs and calls nothing traced, so
it gets no span of its own: its calls and time are added to the enclosing
span, which gives the same self times at a fraction of the memory.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from drgcert import cli, ekr_search, exact, graphs, lp_cert, scheme, subsets


def _search_counts(counts, args, result):
    counts["ekr_search.nodes"] += result.nodes
    counts["ekr_search.maximizers"] += len(result.families)


def _graph_counts(counts, args, g):
    counts["graphs.vertices"] += g.n
    counts["graphs.edges"] += g.edge_count()


def _x2_counts(counts, args, result):
    m = len(args[0])
    counts["graphs.x2_pairs"] += m * (m - 1) // 2


def _root_counts(counts, args, result):
    counts["scheme.root_candidates"] += 2 * args[0].b0 + 1


def _pair_counts(counts, args, result):
    m = args[0].size
    counts["subsets.pairs"] += m * (m - 1) // 2


#: (span name, owner, attribute, count hook); owner is a module or class
SPANS = [
    ("ekr_search.max_clique", ekr_search, "max_clique", _search_counts),
    ("ekr_search.threshold_graph", ekr_search, "threshold_graph", None),
    ("ekr_search.enumerate_descendent_families", ekr_search,
     "enumerate_descendent_families", None),
    ("ekr_search.verify_descendent_family", ekr_search, "verify_descendent_family", None),
    ("ekr_search.verify_theorem", ekr_search, "verify_theorem", None),
    ("graphs.build", graphs, "build_johnson", _graph_counts),
    ("graphs.build", graphs, "build_hamming", _graph_counts),
    ("graphs.build", graphs, "build_grassmann", _graph_counts),
    ("graphs.build", graphs, "build_bilinear", _graph_counts),
    ("graphs.build", graphs, "build_twisted_grassmann", _graph_counts),
    ("graphs.distance_census", graphs, "distance_census", None),
    ("graphs.check_distance_regular", graphs, "check_distance_regular", None),
    ("graphs.twisted_x2_distance_counts", graphs, "twisted_x2_distance_counts", _x2_counts),
    ("exact.solve_linear_exact", exact, "solve_linear_exact", None),
    ("exact.ExactMatrix.inverse", exact.ExactMatrix, "inverse", None),
    ("scheme.eigensystem_from_array", scheme, "eigensystem_from_array", _root_counts),
    ("scheme.krein_parameters", scheme, "krein_parameters", None),
    ("scheme.materialize_idempotents", scheme, "materialize_idempotents", None),
    ("scheme.krein_cross_check", scheme, "krein_cross_check", None),
    ("subsets.inner_distribution", subsets, "inner_distribution", _pair_counts),
    ("lp_cert.solve_certificate", lp_cert, "solve_certificate", None),
    ("lp_cert.hamming_certificate", lp_cert, "hamming_certificate", None),
    ("lp_cert.certify_subset", lp_cert, "certify_subset", None),
    ("cli.main", cli, "main", None),
]

LEAVES = [("exact.rref_gf", exact, "rref_gf")]

#: the root span of each job; its self time is the benchmark's own code and
#: program code outside every traced function
JOB = "job"


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index, job id, time of untraced leaves]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self._stack: list[int] = []
        self._job = -1
        self._undo: list[tuple[object, str, object]] = []
        self._builders_undo: dict | None = None

    # -- recording -------------------------------------------------------

    def _span(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._job, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _leaf(self, name, fn):
        spans, stack, counts, leaf_s = self.spans, self._stack, self.counts, self.leaf_s
        calls = name + ".calls"

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                leaf_s[name] += elapsed
                counts[calls] += 1
                if stack:
                    spans[stack[-1]][5] += elapsed

        return traced

    @contextmanager
    def job(self, job_id: int):
        """Root span of one job; every span inside it carries `job_id`."""
        self._job = job_id
        rec = [JOB, perf_counter(), 0.0, -1, job_id, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            self._job = -1

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "drgcert" or name.startswith("drgcert.")]
        wrappers = {}
        for name, owner, attr, hook in SPANS:
            wrappers[id(getattr(owner, attr))] = self._span(name, getattr(owner, attr), hook)
        for name, owner, attr in LEAVES:
            wrappers[id(getattr(owner, attr))] = self._leaf(name, getattr(owner, attr))
        owners = modules + [exact.ExactMatrix]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((owner, attr, value))
                    setattr(owner, attr, wrapper)
        self._builders_undo = dict(cli.BUILDERS)
        for family, fn in cli.BUILDERS.items():
            cli.BUILDERS[family] = wrappers.get(id(fn), fn)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        if self._builders_undo is not None:
            cli.BUILDERS.update(self._builders_undo)
            self._builders_undo = None

    # -- results ---------------------------------------------------------

    def self_times(self) -> Counter:
        """Self time per span name: duration minus the time covered by its
        child spans and untraced leaves.  Spans of one thread nest, so the
        children of a span never overlap and their durations add up."""
        covered = [rec[5] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                covered[rec[3]] += rec[2] - rec[1]
        out = Counter()
        for rec, cov in zip(self.spans, covered):
            out[rec[0]] += rec[2] - rec[1] - cov
        out.update(self.leaf_s)
        return out

    def job_wall_s(self) -> float:
        return sum(rec[2] - rec[1] for rec in self.spans if rec[0] == JOB)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, job, leaf) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "leaf_s": leaf}) + "\n")
