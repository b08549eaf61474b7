"""Spans around the public functions of each dnalg layer.

The benchmark wraps functions from its own files; no dnalg source changes.
dnalg imports by name (``from .fp import solve``), so every wrapper replaces
the original in each ``dnalg`` module namespace that bound it, and methods
are replaced on their class.

Time spent in the tracer's own bookkeeping (argument statistics, span
records) is taken off the clock the spans are measured with, so it lands in
no span.  A span's self time is its duration minus the durations of its
child spans, which charges private helpers (``_rref``, ``_act_power_raw``,
``_build_slots``) to the nearest wrapped public caller.
"""

from __future__ import annotations

import functools
import sys
import weakref
from array import array
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """In-memory span recorder with per-name aggregates.

    Spans are stored column-wise (name, start, end, parent, job) and
    written out by ``write``; aggregates (calls, self time, extra counts)
    are kept as the spans close.
    """

    def __init__(self):
        self.enabled = False
        self.job = -1
        self.paused = 0.0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_job = array("l")
        self._stack: list[list] = []  # [span index, name, child time]
        self.calls: Counter = Counter()
        self.calls_under: Counter = Counter()  # (name, parent name) -> calls
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self.calls[name] += 1
        self.calls_under[(name, parent[1] if parent else None)] += 1
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_job.append(self.job)
        self._stack.append([idx, name, 0.0])

    def close(self, start: float, end: float) -> None:
        idx, name, child_time = self._stack.pop()
        self.span_start[idx] = start
        self.span_end[idx] = end
        duration = end - start
        self.self_s[name] += duration - child_time
        if self._stack:
            self._stack[-1][2] += duration

    def write(self, path, job_labels: list[str]) -> None:
        """Tab-separated spans: id, name id, start, end, parent id, job id.
        Times are seconds on the tracer's clock, which excludes its own
        bookkeeping."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# columns: span\tname\tstart_s\tend_s\tparent\tjob\n")
            for i, name in enumerate(self.names):
                fh.write(f"# name {i} {name}\n")
            for i, label in enumerate(job_labels):
                fh.write(f"# job {i} {label}\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_name[i]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_job[i]}\n"
                )


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    """A traced version of ``fn``.  ``before(args)`` may replace the
    positional arguments (to materialize an iterator it inspects);
    ``after(args, result)`` records counts from the result."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        t0 = perf_counter()
        if before is not None:
            args = before(args)
        tracer.open(name)
        t1 = perf_counter()
        tracer.paused += t1 - t0
        start = t1 - tracer.paused
        try:
            result = fn(*args, **kwargs)
        finally:
            t2 = perf_counter()
            tracer.close(start, t2 - tracer.paused)
            tracer.paused += perf_counter() - t2
        if after is not None:
            t3 = perf_counter()
            after(args, result)
            tracer.paused += perf_counter() - t3
        return result

    return traced


# Which public names are wrapped, as (metric prefix, module, attribute).
# An attribute "Class.method" wraps the method on the class.
FUNCTIONS = [
    ("fp.from_vectors", "dnalg.fp", "Subspace.from_vectors"),
    ("fp.sum_and_intersection", "dnalg.fp", "sum_and_intersection"),
    ("fp.solve", "dnalg.fp", "solve"),
    # fp.rank(m) only delegates to FpMatrix.rank, which is what callers use.
    ("fp.rank", "dnalg.fp", "FpMatrix.rank"),
    ("fp.chain_interval_form", "dnalg.fp", "chain_interval_form"),
    ("steenrod.adem_rewrite", "dnalg.steenrod", "adem_rewrite"),
    ("steenrod.basis_of_degree", "dnalg.steenrod", "basis_of_degree"),
    ("steenrod.parse_element", "dnalg.steenrod", "parse_element"),
    ("truncated.AlgebraPresentation", "dnalg.truncated", "AlgebraPresentation.__init__"),
    ("truncated.basis_of_degree", "dnalg.truncated", "AlgebraPresentation.basis_of_degree"),
    ("truncated.act", "dnalg.truncated", "AlgebraPresentation.act"),
    ("truncated.act", "dnalg.truncated", "AlgebraPresentation.act_word"),
    ("truncated.act", "dnalg.truncated", "AlgebraPresentation.act_power"),
    ("truncated.adem_instance_holds", "dnalg.truncated", "adem_instance_holds"),
    ("truncated.validate_action", "dnalg.truncated", "validate_action"),
    ("truncated.filtration", "dnalg.truncated", "filtration"),
    ("truncated.induced_q_map", "dnalg.truncated", "induced_q_map"),
    ("dn.check_dn", "dnalg.dn", "check_dn"),
    ("dn.max_dn", "dnalg.dn", "max_dn"),
    ("dn.check_instance", "dnalg.dn", "check_instance"),
    ("theorems.derive_actions", "dnalg.theorems", "derive_actions"),
    ("theorems.normalize_generators", "dnalg.theorems", "normalize_generators"),
    ("theorems.check_thm_a", "dnalg.theorems", "check_thm_a"),
    ("theorems.check_prop_a", "dnalg.theorems", "check_prop_a"),
    ("polytopes.enumerate_facets", "dnalg.polytopes", "enumerate_facets"),
    ("polytopes.enumerate_vertices", "dnalg.polytopes", "enumerate_vertices"),
    ("polytopes.facet_vertices", "dnalg.polytopes", "facet_vertices"),
    ("polytopes.degeneracy", "dnalg.polytopes", "degeneracy"),
    ("polytopes.boundary_census", "dnalg.polytopes", "boundary_census"),
    ("cli.main", "dnalg.cli", "main"),
    ("cli.parse_presentation", "dnalg.cli", "parse_presentation"),
]


def _hooks(tracer: Tracer) -> dict:
    """Argument and result statistics, keyed by metric prefix."""
    extra = tracer.extra
    scanned: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def from_vectors_before(args):
        cls, p, ambient_dim, vectors = args
        vectors = [list(v) for v in vectors]
        extra["fp.from_vectors.rows"] += len(vectors)
        extra["fp.from_vectors.cells"] += len(vectors) * ambient_dim
        extra["fp.from_vectors.unit_rows"] += sum(
            1 for v in vectors if [x % p for x in v if x % p] == [1]
        )
        return (cls, p, ambient_dim, vectors)

    def basis_before(args):
        a, d = args[0], args[1]
        seen = scanned.setdefault(a, set())
        if d not in seen:
            seen.add(d)
            extra["truncated.basis_of_degree.scans"] += 1
        return args

    def count(key, measure):
        def after(args, result):
            extra[key] += measure(result)
        return after

    def check_dn_after(args, result):
        extra["dn.check_dn.cases"] += sum(d.cases for d in result.degrees)
        extra["dn.check_dn.slots"] += sum(d.slots for d in result.degrees)

    return {
        "fp.from_vectors": (from_vectors_before, None),
        "truncated.basis_of_degree": (basis_before, None),
        "truncated.validate_action": (
            None, count("truncated.validate_action.instances_checked",
                        lambda r: r.instances_checked)),
        "dn.check_dn": (None, check_dn_after),
        "theorems.derive_actions": (
            None, count("theorems.derive_actions.solutions", len)),
        "polytopes.enumerate_facets": (
            None, count("polytopes.enumerate_facets.items", len)),
        "polytopes.enumerate_vertices": (
            None, count("polytopes.enumerate_vertices.items", len)),
        "polytopes.facet_vertices": (
            None, count("polytopes.facet_vertices.items", len)),
    }


def install(tracer: Tracer) -> list:
    """Replace every wrapped name in every dnalg namespace that bound it.
    Returns the (namespace, attribute, original) list that ``uninstall``
    restores."""
    hooks = _hooks(tracer)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "dnalg" or n.startswith("dnalg.")]
    restore = []
    for prefix, module_name, attr in FUNCTIONS:
        before, after = hooks.get(prefix, (None, None))
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, prefix, raw.__func__, before, after))
            else:
                wrapped = _wrap(tracer, prefix, raw, before, after)
            restore.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, prefix, original, before, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, key, value))
                    setattr(module, key, wrapped)
    return restore


def uninstall(restore: list) -> None:
    for owner, key, value in reversed(restore):
        setattr(owner, key, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named <layer>.<function>.<quantity>."""
    calls, extra, self_s = tracer.calls, tracer.extra, tracer.self_s
    out: dict[str, float] = {}
    for prefix in dict.fromkeys(p for p, _, _ in FUNCTIONS):
        out[f"{prefix}.calls"] = calls[prefix]
        if prefix != "truncated.AlgebraPresentation":
            out[f"{prefix}.self_s"] = self_s.get(prefix, 0.0)
    rows = extra["fp.from_vectors.rows"]
    out["fp.from_vectors.cells"] = extra["fp.from_vectors.cells"]
    out["fp.from_vectors.unit_row_share"] = extra["fp.from_vectors.unit_rows"] / rows if rows else 0.0
    out["truncated.basis_of_degree.scans"] = extra["truncated.basis_of_degree.scans"]
    out["truncated.validate_action.instances_checked"] = extra["truncated.validate_action.instances_checked"]
    out["dn.check_dn.cases"] = extra["dn.check_dn.cases"]
    out["dn.check_dn.slots"] = extra["dn.check_dn.slots"]
    max_dn_calls = calls["dn.max_dn"]
    out["dn.check_dn_per_max_dn"] = (
        tracer.calls_under[("dn.check_dn", "dn.max_dn")] / max_dn_calls if max_dn_calls else 0.0
    )
    solutions = extra["theorems.derive_actions.solutions"]
    out["theorems.derive_actions.solutions"] = solutions
    out["theorems.derive_actions.adem_checks"] = tracer.calls_under[
        ("truncated.adem_instance_holds", "theorems.derive_actions")
    ]
    built = tracer.calls_under[("truncated.AlgebraPresentation", "theorems.derive_actions")]
    out["theorems.derive_actions.presentations_per_solution"] = built / solutions if solutions else 0.0
    for kind in ("enumerate_facets", "enumerate_vertices", "facet_vertices"):
        out[f"polytopes.{kind}.items"] = extra[f"polytopes.{kind}.items"]
    return out
