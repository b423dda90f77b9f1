"""Outside-in tracing of the sumrank layers.

The tracer wraps the package's public functions and methods from outside:
the library is never edited, and every wrapper is removed again by
:meth:`Tracer.uninstall`.  Each name is replaced wherever it is looked
up, so a function that another module imported by name (``tlrs`` imports
``sum_rank_weight`` from ``skew``) is wrapped in both places.

Two kinds of wrapper exist:

* layer spans, around the public functions and methods of ``linalg``,
  ``skew``, ``tlrs``, ``acd`` and ``cli``, and around ``FieldTower``
  construction.  A span records its name, start, end, parent and job id;
  inclusive and self time are aggregated per name.
* field operations, around the arithmetic and structure maps of ``Elem``
  and ``FieldTower``.  There are millions of them, so they open no span:
  each call only bumps a counter for its group and adds its duration to
  the enclosing span's field time.  A field operation called from inside
  another one (``trace`` calls ``frobenius``) counts once, as the outer.

Truthiness, equality and hashing of elements are not wrapped: their time
lands in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

# Field-operation groups: (class name, method) -> group.
FIELD_GROUPS = {
    ("Elem", "__add__"): "add",
    ("Elem", "__sub__"): "add",
    ("Elem", "__neg__"): "add",
    ("Elem", "__mul__"): "mul",
    ("Elem", "__truediv__"): "div",
    ("Elem", "__pow__"): "pow",
    ("Elem", "frobenius"): "frobenius",
    ("Elem", "trace"): "trace",
    ("Elem", "norm"): "norm",
    ("FieldTower", "scale"): "scale",
    ("FieldTower", "frobenius"): "frobenius",
    ("FieldTower", "trace"): "trace",
    ("FieldTower", "norm"): "norm",
}
FIELD_OP_GROUPS = ("mul", "add", "div", "pow", "scale", "frobenius", "trace", "norm", "other")

# Arithmetic dunders of the non-field classes that get a span.
SPAN_DUNDERS = {"__add__", "__sub__", "__neg__", "__mul__", "__matmul__"}

# FieldTower methods left unwrapped: generators (their work happens in the
# consumer) and the alternate constructor (it opens a tower-build span).
FIELD_SKIP = {"mid_elements", "mid_units", "top_elements", "top_units", "from_dict"}

# Computed operation counts for the elimination routines.
WORK = {
    "linalg.det": lambda m, *a, **k: m.rows**3,
    "linalg.rank_kernel": lambda m, *a, **k: m.rows * m.cols * min(m.rows, m.cols),
}

# Spans counted when they open under a given ancestor: child -> ancestors.
WATCH = {
    "acd.power_sums": ("acd.lambda_search",),
    "acd.generator_matrix": ("acd.build_report",),
    "acd.t_matrix": ("acd.build_report",),
    "skew.sum_rank_weight": ("tlrs.min_sum_rank_distance",),
}

TOWER_BUILD = "fields.tower_build"
MAX_SPANS = 100_000


class Tracer:
    """Span stack plus aggregates for one process.

    Only calls made between :meth:`begin_job` and :meth:`end_job` are
    recorded; outside a job every wrapper passes straight through.
    """

    def __init__(self):
        self._patches = []
        self.active = False
        self._in_field = False
        self.reset()

    # -- aggregates -----------------------------------------------------------

    def reset(self):
        self.stack = []
        self.job_id = None
        self._next_id = 0
        # name -> [calls, inclusive s, self s, raised]
        self.spans_by_name = {}
        self.ops = Counter()
        self.field_s = 0.0
        self.span_field_ops = Counter()  # name -> field ops inside it, inclusive
        self.work = Counter()
        self.nested = Counter()  # "ancestor>child" -> calls
        self.extra = Counter()  # values measured outside the wrappers
        self._open = Counter()
        self.spans = []  # (job, span id, parent id, name, start, end)

    def export(self) -> dict:
        """Aggregates as plain JSON-able data, for merging across processes."""
        return {
            "spans_by_name": self.spans_by_name,
            "ops": dict(self.ops),
            "field_s": self.field_s,
            "span_field_ops": dict(self.span_field_ops),
            "work": dict(self.work),
            "nested": dict(self.nested),
        }

    def merge(self, data: dict):
        for name, vals in data["spans_by_name"].items():
            mine = self.spans_by_name.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(vals):
                mine[i] += v
        self.ops.update(data["ops"])
        self.field_s += data["field_s"]
        self.span_field_ops.update(data["span_field_ops"])
        self.work.update(data["work"])
        self.nested.update(data["nested"])

    # -- jobs and spans ---------------------------------------------------------

    def begin_job(self, job_id, root="job"):
        """Open the root span of one job; ``root`` names it."""
        self.job_id = job_id
        self.stack = []
        self.active = True
        self.open(root)

    def end_job(self):
        self.close(self.stack[0][0], 0, False)
        self.active = False

    def open(self, name):
        span_id = self._next_id
        self._next_id += 1
        # [name, id, start, child s, field s, field ops inclusive]
        self.stack.append([name, span_id, perf_counter(), 0.0, 0.0, 0])
        self._open[name] += 1
        for anc in WATCH.get(name, ()):
            if self._open[anc]:
                self.nested[f"{anc}>{name}"] += 1

    def close(self, name, work, raised):
        end = perf_counter()
        frame = self.stack.pop()
        dur = end - frame[2]
        stats = self.spans_by_name.get(name)
        if stats is None:
            stats = self.spans_by_name[name] = [0, 0.0, 0.0, 0]
        stats[0] += 1
        stats[1] += dur
        stats[2] += dur - frame[3] - frame[4]
        stats[3] += raised
        self.span_field_ops[name] += frame[5]
        if work:
            self.work[name] += work
        self._open[name] -= 1
        parent_id = None
        if self.stack:
            parent = self.stack[-1]
            parent[3] += dur
            parent[5] += frame[5]
            parent_id = parent[1]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.job_id, frame[1], parent_id, name, frame[2], end))

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        work_of = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or self._in_field:
                return fn(*args, **kwargs)
            self.open(name)
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                self.close(name, work_of(*args, **kwargs) if work_of else 0, raised)

        return wrapper

    def _field_wrapper(self, group, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or self._in_field:
                return fn(*args, **kwargs)
            self._in_field = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                self._in_field = False
                frame = self.stack[-1]
                frame[4] += dt
                frame[5] += 1
                self.field_s += dt
                self.ops[group] += 1

        return wrapper

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        """Bind ``value`` on a module or class, remembering the original."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_function(self, modules, fn, wrapper):
        """Replace ``fn`` by ``wrapper`` under every name bound to it."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def _wrap_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        elif isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def install(self):
        """Wrap the sumrank package; :meth:`uninstall` undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import sumrank
        from sumrank import acd, cli, fields, linalg, skew, tlrs

        modules = [sumrank, fields, linalg, skew, tlrs, acd, cli]
        for layer, mod in (("linalg", linalg), ("skew", skew), ("tlrs", tlrs),
                           ("acd", acd), ("cli", cli)):
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                    self._wrap_function(
                        modules, value, self._span_wrapper(f"{layer}.{attr}", value)
                    )
                elif inspect.isclass(value):
                    for meth in _methods(value, SPAN_DUNDERS):
                        name = f"{layer}.{attr}.{meth}"
                        self._wrap_method(
                            value, meth, lambda f, n=name: self._span_wrapper(n, f)
                        )

        for cls in (fields.Elem, fields.FieldTower):
            for meth in _methods(cls, {k[1] for k in FIELD_GROUPS}):
                if meth in FIELD_SKIP:
                    continue
                group = FIELD_GROUPS.get((cls.__name__, meth), "other")
                self._wrap_method(
                    cls, meth, lambda f, g=group: self._field_wrapper(g, f)
                )
        self._wrap_method(
            fields.FieldTower, "__init__", lambda f: self._span_wrapper(TOWER_BUILD, f)
        )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.active = False


def _methods(cls, dunders):
    """Public plain, class and static methods defined on cls itself, plus
    the listed dunders; properties and generators are skipped."""
    out = []
    for attr, raw in cls.__dict__.items():
        if attr.startswith("_") and attr not in dunders:
            continue
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
            out.append(attr)
    return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
