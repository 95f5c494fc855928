"""In-memory spans around the public functions of the ramgenus modules.

The tracer wraps functions from outside the library: ``install`` replaces
every attribute of every loaded ``ramgenus.*`` module that *is* a target
function object, because names such as ``factor`` are imported into
``brauerq``, ``elliptic`` and other modules and each alias is a separate
binding. Spans are kept as parallel integer arrays (name id, parent index,
start, end, flags) and analysed after the run; a span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

FAILED = 1  # the call raised
MARKED = 2  # the call's result matched the ``mark`` predicate given to wrap()

# (module, qualified name, layer name). Several targets may share one layer
# name; their spans are then reported together.
TARGETS = [
    ("ramgenus.cli", "parse_rational", "cli.parse"),
    ("ramgenus.cli", "parse_algebra", "cli.parse"),
    ("ramgenus.cli", "parse_curve", "cli.parse"),
    ("ramgenus.cli", "parse_places", "cli.parse"),
    ("ramgenus.cli", "render_text", "cli.render"),
    ("ramgenus.cli", "Report.to_json", "cli.render"),
    ("ramgenus.cli", "run", "cli.run"),
    ("ramgenus.exactarith", "factor", "exactarith.factor"),
    ("ramgenus.exactarith", "is_prime", "exactarith.is_prime"),
    ("ramgenus.localsymbols", "hilbert", "localsymbols.hilbert"),
    ("ramgenus.localsymbols", "square_class", "localsymbols.square_class"),
    ("ramgenus.localsymbols", "hilbert_oracle", "localsymbols.hilbert_oracle"),
    ("ramgenus.brauerq", "ramification_set", "brauerq.ramification_set"),
    ("ramgenus.brauerq", "embeds", "brauerq.embeds"),
    ("ramgenus.brauerq", "enumerate_unramified", "brauerq.enumerate_unramified"),
    ("ramgenus.brauerq", "distinguishing_field", "brauerq.distinguishing_field"),
    ("ramgenus.gfpoly", "poly_factor_fp", "gfpoly.poly_factor_fp"),
    ("ramgenus.gfpoly", "is_irreducible_fp", "gfpoly.is_irreducible_fp"),
    ("ramgenus.gfpoly", "residue_class_is_nth_power", "gfpoly.residue_class_is_nth_power"),
    ("ramgenus.gfpoly", "PolyFp.pow_mod", "gfpoly.PolyFp.pow_mod"),
    ("ramgenus.qpoly", "factor_q", "qpoly.factor_q"),
    ("ramgenus.qpoly", "is_irreducible_q", "qpoly.is_irreducible_q"),
    ("ramgenus.qpoly", "PolyQ.gcd", "qpoly.PolyQ.gcd"),
    ("ramgenus.qpoly", "rational_roots", "qpoly.rational_roots"),
    ("ramgenus.funcfield", "places_of", "funcfield.places_of"),
    ("ramgenus.funcfield", "tame_symbol", "funcfield.tame_symbol"),
    ("ramgenus.funcfield", "tame_residue", "funcfield.tame_residue"),
    ("ramgenus.funcfield", "ram_V", "funcfield.ram_V"),
    ("ramgenus.funcfield", "ram_V_over_Q", "funcfield.ram_V_over_Q"),
    ("ramgenus.funcfield", "genus_bound", "funcfield.genus_bound"),
    ("ramgenus.elliptic", "elliptic_genus_bound", "elliptic.elliptic_genus_bound"),
    ("ramgenus.elliptic", "WeierstrassCurve.from_coefficients",
     "elliptic.WeierstrassCurve.from_coefficients"),
]

LAYERS = list(dict.fromkeys(layer for _, _, layer in TARGETS))
RESIDUE = "funcfield.tame_residue"
SQUARE = "localsymbols.square_class"
DISTINGUISH = "brauerq.distinguishing_field"


def _is_unresolved(residue) -> bool:
    return getattr(residue, "certainty", None) == "unresolved-square"


class Spans:
    """Columns of recorded spans; index i of every column is one span."""

    def __init__(self, names=None):
        self.names: list[str] = list(names or [])
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.flags = array("b")

    def __len__(self) -> int:
        return len(self.start)

    def add(self, name_id: int, parent: int, start: int, end: int, flags: int = 0) -> int:
        self.name_id.append(name_id)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.flags.append(flags)
        return len(self.start) - 1

    def to_json(self) -> str:
        return json.dumps({
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "flags": self.flags.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "Spans":
        doc = json.loads(text)
        spans = cls(doc["names"])
        for col in ("name_id", "parent", "start", "end", "flags"):
            getattr(spans, col).extend(doc[col])
        return spans


def self_times(spans: Spans) -> list[int]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so children of a span never overlap and
    their durations add up to the part of the parent they cover.
    """
    out = [e - s for s, e in zip(spans.start, spans.end)]
    for i, p in enumerate(spans.parent):
        if p >= 0:
            out[p] -= spans.end[i] - spans.start[i]
    return out


def summarize(spans: Spans) -> dict[str, dict[str, float]]:
    """Per layer: calls, self_ms and failed. Two layers get one more count:
    ``funcfield.tame_residue`` its ``unresolved`` verdicts (outermost spans
    only, so ``tame_residue`` at infinity, which calls itself, counts one
    verdict), and ``brauerq.distinguishing_field`` the ``square_class_calls``
    made inside it."""
    out = {name: {"calls": 0, "self_ms": 0.0, "failed": 0} for name in spans.names}
    selfs = self_times(spans)
    names, name_id, parent = spans.names, spans.name_id, spans.parent
    residue = names.index(RESIDUE) if RESIDUE in names else None
    square = names.index(SQUARE) if SQUARE in names else None
    dist = names.index(DISTINGUISH) if DISTINGUISH in names else None
    if residue is not None:
        out[RESIDUE]["unresolved"] = 0
    if dist is not None:
        out[DISTINGUISH]["square_class_calls"] = 0
    for i, nid in enumerate(name_id):
        row = out[names[nid]]
        row["calls"] += 1
        row["self_ms"] += selfs[i] / 1e6
        if spans.flags[i] & FAILED:
            row["failed"] += 1
        p = parent[i]
        if nid == residue and spans.flags[i] & MARKED and (p < 0 or name_id[p] != nid):
            row["unresolved"] += 1
        if nid == square and dist is not None:
            while p >= 0 and name_id[p] != dist:
                p = parent[p]
            out[DISTINGUISH]["square_class_calls"] += p >= 0
    return out


def merge(into: dict, summary: dict) -> dict:
    """Add one summary's counts into another (used across CLI children)."""
    for name, row in summary.items():
        acc = into.setdefault(name, {})
        for key, value in row.items():
            acc[key] = acc.get(key, 0) + value
    return into


class Tracer:
    """Records a span per call of each wrapped function while ``active``."""

    def __init__(self):
        self.spans = Spans()
        self.active = False
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.spans.names:
            self.spans.names.append(name)
        return self.spans.names.index(name)

    def wrap(self, fn, name: str, mark=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = spans.add(nid, stack[-1] if stack else -1, clock(), 0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.flags[i] |= FAILED
                raise
            finally:
                spans.end[i] = clock()
                stack.pop()
            if mark is not None and mark(result):
                spans.flags[i] |= MARKED
            return result

        return traced


def _resolve(module_name: str, qualname: str):
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind every alias of it in loaded ramgenus
    modules."""
    for module_name, qualname, layer in TARGETS:
        owner, attr = _resolve(module_name, qualname)
        raw = owner.__dict__[attr]
        mark = _is_unresolved if layer == RESIDUE else None
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, layer, mark)))
            continue
        traced = tracer.wrap(raw, layer, mark)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
            continue
        for name, module in list(sys.modules.items()):
            if name != "ramgenus" and not name.startswith("ramgenus."):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, traced)
