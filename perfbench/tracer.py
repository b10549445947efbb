"""Spans around the layers of nhomalg, recorded from outside the package.

A traced run wraps the functions and methods named in ``TRACED`` with a
recorder.  Every binding of a function is replaced, so a function that
other modules import by name (``rref`` in ``algebra``, ``catalog``,
``checks`` and ``relfile``) is traced wherever it is called.  Names that
no longer exist are skipped and reported as absent, so the benchmark
survives refactors that delete or rename them.

Each span records its name, start, end, parent span and job, plus
optional counts taken at the same boundary.  Spans stay in memory until
the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from collections import defaultdict

PACKAGE = "nhomalg"

# Layers are the modules of the package.
LAYERS = ("cli", "series", "algebra", "linalg", "koszul", "catalog",
          "tableaux", "relfile", "checks")

# The command entry points: their self time is glue, not layer work.
ENTRY_POINTS = frozenset({"cli", "koszul.koszul_probe",
                          "series.poincare_series", "checks.run_checks"})

# Bookkeeping of the tracer itself (counts that scan a result).
BOOKKEEPING = "trace.bookkeeping"

# (module, qualified name, span name).  Span names drop the class of
# GradedAlgebra methods and the dunder of Matrix.__add__.
TRACED = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "shifted_span", "linalg.shifted_span"),
    ("linalg", "annihilator", "linalg.annihilator"),
    ("linalg", "intersect", "linalg.intersect"),
    ("linalg", "Subspace.reduce", "linalg.Subspace.reduce"),
    ("linalg", "Matrix.__add__", "linalg.Matrix.add"),
    ("linalg", "Matrix.kron", "linalg.Matrix.kron"),
    ("linalg", "Matrix.mul", "linalg.Matrix.mul"),
    ("linalg", "Matrix.rank", "linalg.Matrix.rank"),
    ("algebra", "Presentation.dual", "algebra.Presentation.dual"),
    ("algebra", "GradedAlgebra.ideal_component", "algebra.ideal_component"),
    ("algebra", "GradedAlgebra.ideal_component_stepwise",
     "algebra.ideal_component_stepwise"),
    ("algebra", "GradedAlgebra.normal_basis", "algebra.normal_basis"),
    ("algebra", "GradedAlgebra.word_matrix", "algebra.word_matrix"),
    ("algebra", "GradedAlgebra.dual_space", "algebra.dual_space"),
    ("series", "poincare_series", "series.poincare_series"),
    ("series", "dual_q_series", "series.dual_q_series"),
    ("series", "chi_direct", "series.chi_direct"),
    ("series", "chi_via_product", "series.chi_via_product"),
    ("series", "koszul_necessary", "series.koszul_necessary"),
    ("koszul", "koszul_probe", "koszul.koszul_probe"),
    ("koszul", "build_contraction_slice", "koszul.build_contraction_slice"),
    ("koszul", "homology", "koszul.homology"),
    ("koszul", "euler_agrees_with_chi", "koszul.euler_agrees_with_chi"),
    ("koszul", "gorenstein_probe", "koszul.gorenstein_probe"),
    ("catalog", "make_entry", "catalog.make_entry"),
    ("catalog", "dual_relations_check", "catalog.dual_relations_check"),
    ("catalog", "gl_invariance", "catalog.gl_invariance"),
    ("catalog", "centrality_check", "catalog.centrality_check"),
    ("tableaux", "count_tableaux", "tableaux.count_tableaux"),
    ("tableaux", "dimension_cross_check", "tableaux.dimension_cross_check"),
    ("relfile", "parse_relation_file", "relfile.parse_relation_file"),
    ("relfile", "write_relation_file", "relfile.write_relation_file"),
    ("checks", "run_checks", "checks.run_checks"),
)


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded.

    A span is ``[name, start, end, parent index, job, counts]``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self.probe_failures: set[str] = set()
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, None])
        self._stack.append(index)
        return index

    def end(self, index: int, counts: dict | None = None):
        if self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]} ended out of order")
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = counts
        self._stack.pop()

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    def watch_gc(self):
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self):
        gc.callbacks.remove(self._on_gc)


# ---------------------------------------------------------------------------
# Counts taken at the span boundaries.  A probe's ``before`` may replace
# the arguments (to count an iterable without consuming it) and returns
# (args, kwargs, counts); its ``after`` adds counts from the result and
# runs inside a bookkeeping span, so its cost is not charged to a layer.
# A probe that no longer fits the code it measures (a renamed attribute,
# a new result type) drops its counts and is reported; the call itself
# is never affected.

def _cache_hit(attribute, key):
    def before(args, kwargs):
        cache = getattr(args[0], attribute, None)
        counts = {}
        if isinstance(cache, dict):
            counts["hits"] = int(key(*args[1:], **kwargs) in cache)
        return args, kwargs, counts
    return before


def _word_matrix_key(n, word, side="right"):
    return (n, tuple(word), side)


def _rref_before(args, kwargs):
    if "vectors" in kwargs:
        kwargs = dict(kwargs, vectors=list(kwargs["vectors"]))
        rows = len(kwargs["vectors"])
    else:
        args = (list(args[0]),) + args[1:]
        rows = len(args[0])
    return args, kwargs, {"rows_in": rows}


def _rref_after(result, counts):
    counts["rank_out"] = result.dim
    counts["max_coeff_bits"] = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for row in result.rows for c in row.terms.values()), default=0)


def _shifted_span_after(result, counts):
    counts["vectors"] = len(result)


def _rank_before(args, kwargs):
    matrix = args[0]
    return args, kwargs, {"cells": matrix.nrows * matrix.ncols}


def _slice_after(result, counts):
    cells = nonzero = 0
    for matrix in result.matrices:
        cells += matrix.nrows * matrix.ncols
        nonzero += sum(1 for row in matrix.entries for entry in row if entry)
    counts["cells"] = cells
    counts["nonzero"] = nonzero


PROBES = {
    "linalg.rref": (_rref_before, _rref_after),
    "linalg.shifted_span": (None, _shifted_span_after),
    "linalg.Matrix.rank": (_rank_before, None),
    "algebra.ideal_component": (_cache_hit("_ideal", lambda n: n), None),
    "algebra.dual_space": (_cache_hit("_dual", lambda n: n), None),
    "algebra.word_matrix": (_cache_hit("_word_mats", _word_matrix_key), None),
    "koszul.build_contraction_slice": (None, _slice_after),
}


def _wrap(tracer: Tracer, name: str, fn):
    before, after = PROBES.get(name, (None, None))

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        counts = {}
        if before is not None:
            try:
                args, kwargs, counts = before(args, kwargs)
            except (AttributeError, TypeError, IndexError, KeyError):
                tracer.probe_failures.add(name)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index, counts)
        if after is not None:
            book = tracer.begin(BOOKKEEPING)
            try:
                after(result, counts)
            except (AttributeError, TypeError):
                tracer.probe_failures.add(name)
            finally:
                tracer.end(book)
        return result
    return traced


class Patch:
    """Installs the wrappers for one tracer and removes them again.

    ``absent`` lists the ``TRACED`` names that do not exist in the
    package being measured.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self):
        modules = [module for name, module in list(sys.modules.items())
                   if module is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, qualname, span in TRACED:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = vars(owner).get(owner_name)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{qualname}")
                continue
            wrapper = _wrap(self.tracer, span, original)
            if owner_name:
                self._set(owner, attr, original, wrapper)
            else:
                # Rebind every module-level name that holds the function.
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, original, wrapper)
        return self

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False


# ---------------------------------------------------------------------------
# From spans to per-layer numbers.

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time covered by its children."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def summarize(spans: list[list], weight=lambda span: 1.0) -> dict[str, dict]:
    """Per span name: calls, self_s and summed counts, each times ``weight``.

    ``max_coeff_bits`` is a maximum and is not weighted.
    """
    own = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for span, self_s in zip(spans, own):
        w = weight(span)
        entry = out[span[0]]
        entry["calls"] += w
        entry["self_s"] += w * self_s
        entry["total_s"] += w * (span[2] - span[1])
        for key, value in (span[5] or {}).items():
            if key == "max_coeff_bits":
                entry[key] = max(entry[key], value)
            else:
                entry[key] += w * value
    return out


def coverage(spans: list[list], keep=lambda span: True) -> float:
    """Share of root-span time spent below the command entry points.

    Only the spans that ``keep`` accepts count, on both sides.
    """
    own = self_times(spans)
    wall = sum(span[2] - span[1] for span in spans
               if span[3] is None and keep(span))
    below = sum(s for span, s in zip(spans, own)
                if keep(span) and span[0] not in ENTRY_POINTS
                and span[0] != BOOKKEEPING)
    return below / wall if wall else 0.0
