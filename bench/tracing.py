"""Spans around the calls into seqlab's public functions.

``Tracer.install`` wraps each function named in ``SPANNED`` and
``COUNTED`` and puts the wrapper into every seqlab module namespace that
binds the function (``combine``, for example, is imported into
``linf_construction``, ``witnesses`` and ``cli``), and onto the class for
methods.  ``Tracer.uninstall`` puts the originals back, so untraced
rounds run seqlab unchanged.  A wrapper passes its arguments and result
through untouched.

A span is (name, parent span, start, end), kept in memory and written
out when the run ends.  A layer's self time is its spans' duration minus
the part covered by their child spans.  Spans opened in another thread
(the ``--jobs`` pool) take the innermost open span of the main thread
as parent; with ``--jobs 1`` there is one worker, so the attribution is
exact.  Per-coordinate helpers are only counted.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
from time import perf_counter

# (module, attribute path) of each function that gets a span
SPANNED = (
    ("core", "combine"), ("core", "Seq.add"), ("core", "Seq.sub"),
    ("core", "Seq.scale"), ("core", "norm"), ("core", "tail_norm"),
    ("core", "vanish_at"), ("core", "Subspace.build"),
    ("core", "load_fixture"),
    ("linalg", "rref"), ("linalg", "nullspace_basis"), ("linalg", "invert"),
    ("linalg", "rank"),
    ("lp_construction", "construct_dominant_sequence"),
    ("lp_construction", "construct_zeroed_sequence"),
    ("lp_construction", "block_projection"),
    ("lp_construction", "projection_onto_family"),
    ("lp_construction", "basis_constant_lower_bound"),
    ("linf_construction", "mazur_basic_sequence"),
    ("linf_construction", "build_cascade"),
    ("linf_construction", "construct_sup_zeroed_sequence"),
    ("linf_construction", "sample_basis_inequality"),
    ("linf_construction", "extract_stabilizing_subsequence"),
    ("witnesses", "witness_from_doc"), ("witnesses", "density_repair_lp"),
    ("witnesses", "density_repair_c0"),
    ("verify", "verify_certificate"),
    ("certificates", "dumps_canonical"), ("certificates", "write_atomic"),
    ("certificates", "load_certificate"),
    ("cli", "run_scenario"), ("cli", "main"),
)
# per-coordinate helpers: call counts only
COUNTED = (("scalar", "parse_scalar"), ("scalar", "scalar_to_json"))


def _resolve(module: str, attr: str):
    """(owner, attribute name, function, is_classmethod) for a target."""
    owner = sys.modules[f"seqlab.{module}"]
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    raw = vars(owner)[parts[-1]]
    if isinstance(raw, classmethod):
        return owner, parts[-1], raw.__func__, True
    return owner, parts[-1], raw, False


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # one entry per span, parallel lists: name index, parent, start, end
        self.name_of: list[int] = []
        self.parent_of: list[int] = []
        self.start_of: list[float] = []
        self.end_of: list[float] = []
        self.counts: dict[str, int] = {}
        self.dumped_bytes = 0
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.get_ident()
        self._plan: list[tuple] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, name: str, func):
        idx = len(self.names)
        self.names.append(name)
        is_dump = name == "certificates.dumps_canonical"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack and stack is not self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = -1
            span = len(self.start_of)
            self.name_of.append(idx)
            self.parent_of.append(parent)
            self.end_of.append(0.0)
            stack.append(span)
            self.start_of.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end_of[span] = perf_counter()
                stack.pop()
            if is_dump:
                self.dumped_bytes += len(result.encode("utf-8"))
            return result
        return wrapper

    def _counted(self, name: str, func):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if not self._plan:
            self._plan = self._make_plan()
        for owner, attr, value in self._plan:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def _make_plan(self) -> list:
        plan, wrapped = [], {}
        for kind, targets in (("span", SPANNED), ("count", COUNTED)):
            for module, attr in targets:
                owner, leaf, func, is_cm = _resolve(module, attr)
                name = f"{module}.{attr}"
                new = (self._spanned(name, func) if kind == "span"
                       else self._counted(name, func))
                plan.append((owner, leaf, classmethod(new) if is_cm else new))
                wrapped[id(func)] = (func, new)
        # every other seqlab module that imported a wrapped function by name
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("seqlab") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    plan.append((module, attr, hit[1]))
        return plan

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def mark(self) -> tuple:
        """Position to pass to ``summary`` for the spans recorded after it."""
        return len(self.start_of), dict(self.counts), self.dumped_bytes

    def summary(self, mark: tuple) -> dict:
        """Per-name calls, self and inclusive seconds since ``mark``."""
        first, counts0, dumped0 = mark
        n = len(self.start_of)
        child = [0.0] * (n - first)
        for i in range(first, n):
            parent = self.parent_of[i]
            if parent >= first:
                child[parent - first] += self.end_of[i] - self.start_of[i]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for name in self.names}
        for i in range(first, n):
            entry = out[self.names[self.name_of[i]]]
            dur = self.end_of[i] - self.start_of[i]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[i - first]
        for name, count in self.counts.items():
            out[name] = {"calls": count - counts0.get(name, 0)}
        out["certificates.dumps_canonical"]["bytes"] = \
            self.dumped_bytes - dumped0
        out["spans"] = n - first
        return out

    def write(self, path: str) -> None:
        """Write every span as columns: names, name index, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.name_of,
                       "parent": self.parent_of, "start": self.start_of,
                       "end": self.end_of, "counts": self.counts}, fh)
