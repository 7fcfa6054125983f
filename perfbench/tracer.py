"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps every public function and public method of the
cwbrauer modules (plus `ChainComplex.__init__` and
`SubquotientPresentation.__init__`) and rebinds each wrapper in every
module that imported the original by name, so `from .intlin import
smith_normal_form` call sites are traced too.  Nothing under src/
changes.

A layer is a module; `cli.parse_request` counts as the grammar layer.
A call opens a span when it enters another layer than the open span's,
or when it is one of the functions timed on their own (`TIMED`); calls
that stay inside a layer are only counted, and their time stays in the
enclosing span.  Self time is a span's duration minus its child spans.
The wrapper's own bookkeeping (hooks, counters) is charged to no layer.
Dunder methods other than the two `__init__`s are not wrapped, so e.g.
`IntMatrix.__matmul__` counts as self time of its caller.

Spans stay in memory (name, parent, request, start, end) and are written
out once by `write`.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from array import array

LAYERS = ("intlin", "abgroup", "chaincx", "spaces", "profiles", "limits",
          "grammar", "cli", "facts")
_EXTRA_METHODS = {("chaincx", "ChainComplex", "__init__"),
                  ("chaincx", "SubquotientPresentation", "__init__")}
_LAYER_OF = {"cli.parse_request": "grammar"}
TIMED = ("intlin.smith_normal_form", "intlin.unimodular_inverse",
         "chaincx.ChainComplex.__init__",
         "chaincx.SubquotientPresentation.__init__",
         "spaces.PeriodicComplex.unroll", "cli.parse_request",
         "cli.execute", "cli.render_json")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.layer_self = [0.0] * len(LAYERS)
        self.layer_calls = [0] * len(LAYERS)
        self.fn_calls: list[int] = []
        self.fn_self: list[float] = []
        self.fn_total: list[float] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []   # [span id, name id, layer, child time]
        self.request = -1
        self.snf_keys: set = set()
        self.counters = {"snf_entries": 0, "snf_max_bits": 0,
                         "trace_snf_calls": 0, "build_degrees": 0,
                         "unrolled_degrees": 0, "grammar_bytes": 0}
        self._to_lists = None
        self._execute_id = -1
        self._before, self._after = {}, {}

    # -- installation -----------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"cwbrauer.{m}") for m in LAYERS}
        self._to_lists = mods["intlin"].IntMatrix.to_lists
        # counters read from the arguments before the call ...
        self._before = {"intlin.smith_normal_form": self._snf_input,
                        "chaincx.ChainComplex.__init__": self._build_input,
                        "spaces.PeriodicComplex.unroll": self._unroll_input,
                        "cli.parse_request": self._parse_input}
        # ... and from the result after it
        self._after = {"intlin.smith_normal_form": self._snf_result}
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(
                        obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    replaced[obj] = self._wrap(obj, f"{short}.{attr}")
                elif isinstance(obj, type):
                    self._wrap_class(short, obj)
        self._execute_id = self.names.index("cli.execute")
        package = importlib.import_module("cwbrauer")
        for mod in (*mods.values(), package):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_class(self, short: str, cls: type):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and (
                    short, cls.__name__, attr) not in _EXTRA_METHODS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, types.FunctionType):
                setattr(cls, attr, self._wrap(raw, name))

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        layer = LAYERS.index(_LAYER_OF.get(name, name.split(".")[0]))
        self.names.append(name)
        self.name_layer.append(layer)
        self.fn_calls.append(0)
        self.fn_self.append(0.0)
        self.fn_total.append(0.0)
        timed = name in TIMED
        before = self._before.get(name)
        after = self._after.get(name)
        tr = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            tr.layer_calls[layer] += 1
            tr.fn_calls[nid] += 1
            stack = tr.stack
            parent = stack[-1] if stack else None
            if not timed and parent is not None and parent[2] == layer:
                return fn(*args, **kwargs)
            w0 = perf()
            if before is not None:
                before(args, parent)
            sid = len(tr.span_start)
            tr.span_name.append(nid)
            tr.span_parent.append(parent[0] if parent is not None else -1)
            tr.span_request.append(tr.request)
            tr.span_start.append(0.0)
            tr.span_end.append(0.0)
            frame = [sid, nid, layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = t1 - t0
                own = dur - frame[3]
                tr.layer_self[layer] += own
                tr.fn_self[nid] += own
                tr.fn_total[nid] += dur
                tr.span_start[sid] = t0
                tr.span_end[sid] = t1
                # the whole wrapper, bookkeeping included, leaves the
                # parent's self time
                if parent is not None:
                    parent[3] += t1 - w0
            if after is not None:
                h0 = perf()
                after(result)
                if parent is not None:
                    parent[3] += perf() - h0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- counters taken at layer boundaries --------------------------------

    def _snf_input(self, args, parent):
        a = args[0]
        rows = a if isinstance(a, list) else self._to_lists(a)
        key = (len(rows), len(rows[0]) if rows else 0,
               tuple(x for r in rows for x in r))
        self.snf_keys.add(key)
        self.counters["snf_entries"] += key[0] * key[1]
        if parent is not None and parent[1] == self._execute_id:
            self.counters["trace_snf_calls"] += 1

    def _snf_result(self, result):
        bits = max((abs(x).bit_length() for m in (result.u, result.s, result.v)
                    for r in self._to_lists(m) for x in r), default=0)
        if bits > self.counters["snf_max_bits"]:
            self.counters["snf_max_bits"] = bits

    def _build_input(self, args, parent):
        self.counters["build_degrees"] += len(args[1])

    def _unroll_input(self, args, parent):
        self.counters["unrolled_degrees"] += args[1] + 1

    def _parse_input(self, args, parent):
        self.counters["grammar_bytes"] += len(args[0].encode())

    # -- results ---------------------------------------------------------

    def reset_stack(self):
        """Drop spans left open by an exception that escaped a request."""
        self.stack.clear()

    def _calls(self, name: str) -> int:
        return self.fn_calls[self.names.index(name)]

    def _total(self, name: str) -> float:
        return self.fn_total[self.names.index(name)]

    def metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        layer = {n: i for i, n in enumerate(LAYERS)}
        snf_calls = self._calls("intlin.smith_normal_form")
        c = self.counters
        out = {
            "intlin.snf_calls": (snf_calls, "count"),
            "intlin.snf_s": (self._total("intlin.smith_normal_form"), "s"),
            "intlin.snf_distinct_ratio": (
                len(self.snf_keys) / snf_calls if snf_calls else 1.0,
                "ratio"),
            "intlin.solve_calls": (self._calls("intlin.solve_integral"),
                                   "count"),
            "intlin.inverse_s": (self._total("intlin.unimodular_inverse"),
                                 "s"),
            "intlin.snf_entries": (c["snf_entries"], "count"),
            "intlin.result_max_bits": (c["snf_max_bits"], "bits"),
            "chaincx.build_s": (self.fn_self[self.names.index(
                "chaincx.ChainComplex.__init__")], "s"),
            "chaincx.complexes_built": (
                self._calls("chaincx.ChainComplex.__init__"), "count"),
            "chaincx.build_degrees": (c["build_degrees"], "count"),
            "chaincx.presentations": (self._calls(
                "chaincx.SubquotientPresentation.__init__"), "count"),
            "spaces.unroll_calls": (
                self._calls("spaces.PeriodicComplex.unroll"), "count"),
            "spaces.unrolled_degrees": (c["unrolled_degrees"], "count"),
            "grammar.bytes": (c["grammar_bytes"], "bytes"),
            "cli.render_s": (self._total("cli.render_json"), "s"),
            "cli.trace_snf_calls": (c["trace_snf_calls"], "count"),
        }
        for name in LAYERS:
            out[f"{name}.self_s"] = (self.layer_self[layer[name]], "s")
        for name in ("abgroup", "profiles", "limits"):
            out[f"{name}.calls"] = (self.layer_calls[layer[name]], "count")
        return out

    def write(self, path):
        """Spans as one JSON header line, then the five columns as raw
        little-endian arrays in header order."""
        header = {"names": self.names,
                  "layers": [LAYERS[i] for i in self.name_layer],
                  "count": len(self.span_start),
                  "columns": [["name", "i"], ["parent", "q"],
                              ["request", "i"], ["start", "d"],
                              ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.span_name, self.span_parent, self.span_request,
                        self.span_start, self.span_end):
                col.tofile(fh)
