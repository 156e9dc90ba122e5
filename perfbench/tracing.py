"""Spans around the calls into each ratpert layer, recorded from outside.

Tracer.install() wraps every public function of every ratpert module, and
replaces it wherever it is looked up: modules import these names directly
(``from .orbits import iterate_orbit``), so ``ratpert.scan.iterate_orbit``
is patched as well as ``ratpert.orbits.iterate_orbit`` and the package
attribute.  A span records its name, its parent span, start, end and self
time (its duration minus the part covered by child spans).

Calls made per orbit step (map evaluation, field evaluation, XComplex
arithmetic) are only counted: a span each would cost more than the work.
Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

#: The layers: the modules of src/ratpert.
LAYERS = (
    "xcomplex", "polynomial", "maps", "fields", "orbits", "mu", "obstruction",
    "cycles", "continuation", "scan", "serialize", "cli",
)

#: Public functions that are counted, not spanned.
COUNTED = {("maps", "eval_map"), ("maps", "eval_map_many")}

#: XComplex operations counted together as xcomplex.ops.
XCOMPLEX_OPS = ("__mul__", "__add__", "__sub__", "__truediv__", "reciprocal", "from_complex")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self_s)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [id, start, child_time]
        self._undo: list[tuple] = []

    # -- recording --------------------------------------------------------

    def spanned(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans.append((sid, parent, name, frame[1], end, duration - frame[2]))
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import ratpert

        modules = {layer: importlib.import_module(f"ratpert.{layer}") for layer in LAYERS}
        holders = [ratpert, *modules.values()]
        hooks = {
            ("mu", "mu_functional"): lambda r: self.counts.update({"mu.terms_used": r.terms_used}),
            ("continuation", "continue_cycle"): lambda r: self.counts.update(
                {"continuation.steps": len(r.lambda_path) - 1}),
            ("cycles", "find_cycles"): lambda r: self.counts.update({"cycles.found": len(r)}),
            ("serialize", "json_dumps"): lambda r: self.counts.update({"serialize.bytes": len(r)}),
            ("scan", "scan_parameters"): lambda r: self.counts.update(
                f"scan.rows.{row.kind}" for row in r),
        }
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if (layer, attr) in COUNTED:
                    wrapped = self.counted(f"{name}.calls", fn)
                else:
                    wrapped = self.spanned(name, fn, hooks.get((layer, attr)))
                for holder in holders:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, held, wrapped)

        xc = modules["xcomplex"].XComplex
        for op in XCOMPLEX_OPS:
            raw = xc.__dict__[op]
            if isinstance(raw, staticmethod):
                self._set(xc, op, staticmethod(self.counted("xcomplex.ops", raw.__func__)))
            else:
                self._set(xc, op, self.counted("xcomplex.ops", raw))
        field = modules["fields"].VectorFieldSpec
        self._set(field, "__call__", self.counted("fields.calls", field.__dict__["__call__"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries --------------------------------------------------------

    def by_name(self) -> dict:
        """name -> (calls, total self time)."""
        out = defaultdict(lambda: [0, 0.0])
        for _, _, name, _, _, self_s in self.spans:
            out[name][0] += 1
            out[name][1] += self_s
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, self_s in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "self_s": self_s}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def chunk_imbalance(tracer: Tracer, workers: int) -> float:
    """Slowest chunk over the mean chunk, for the chunking scan_parameters
    uses at `workers` workers, from per-point times: a point runs from its
    classify_parameter span to the next one (or the end of the scan)."""
    scans = [s for s in tracer.spans if s[2] == "scan.scan_parameters"]
    if not scans:
        return 0.0
    sid, _, _, _, scan_end, _ = scans[0]
    starts = sorted(s[3] for s in tracer.spans if s[2] == "orbits.classify_parameter" and s[1] == sid)
    if not starts:
        return 0.0
    times = [b - a for a, b in zip(starts, starts[1:] + [scan_end])]
    chunk = max(1, len(times) // (4 * workers))
    chunks = [sum(times[i:i + chunk]) for i in range(0, len(times), chunk)]
    return max(chunks) / (sum(chunks) / len(chunks))
