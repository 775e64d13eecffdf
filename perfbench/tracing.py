"""In-memory spans for the traced benchmark run.

While installed, a :class:`Tracer` replaces public module attributes that the
library calls through its own module namespaces (``snmtf.adam.residuals``,
``snmtf.cli.data.load_bundle`` is ``snmtf.data.load_bundle``, ...) with
wrappers that record one span per call: name, start, end and parent span.
Only public names are wrapped.  A path that no longer resolves is skipped, so
its span reports zero calls and a refactor that removes a helper does not
break the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# Span name -> every attribute path patched for it.  A name imported into
# several modules is patched in each, because callers look it up in their own
# module's namespace.
SPAN_TARGETS = {
    "runner.run": ("snmtf.run", "snmtf.runner.run"),
    "runner.build_start": ("snmtf.runner.build_start",),
    "initialization.deterministic_g": ("snmtf.initialization.deterministic_g",),
    "initialization.lift_to_transformed": ("snmtf.initialization.lift_to_transformed",),
    "fpm.fpm_solve": ("snmtf.fpm.fpm_solve",),
    "bcd.bcd_solve": ("snmtf.bcd.bcd_solve",),
    "gmels.gmels_solve": ("snmtf.gmels.gmels_solve",),
    "adam.adam_solve": ("snmtf.adam.adam_solve",),
    "model.se_from_gram": (
        "snmtf.model.se_from_gram", "snmtf.fpm.se_from_gram", "snmtf.bcd.se_from_gram",
    ),
    "model.residuals": (
        "snmtf.model.residuals", "snmtf.gradients.residuals",
        "snmtf.adam.residuals", "snmtf.gmels.residuals",
    ),
    "model.TraceBuilder.step": ("snmtf.model.TraceBuilder.step",),
    "gradients.grads_from_residuals": (
        "snmtf.gradients.grads_from_residuals",
        "snmtf.adam.grads_from_residuals", "snmtf.gmels.grads_from_residuals",
    ),
    "bcd.minimize_scalar": ("snmtf.bcd.minimize_scalar",),
    "gmels.poly_minimize": ("snmtf.gmels.poly_minimize",),
    "adam.adam_step": ("snmtf.adam.adam_step",),
    "data.generate_synthetic": ("snmtf.data.generate_synthetic",),
    "data.save_bundle": ("snmtf.data.save_bundle",),
    "data.load_bundle": ("snmtf.data.load_bundle",),
    "data.save_factorization": ("snmtf.data.save_factorization",),
    "cli.cmd_generate": ("snmtf.cli.cmd_generate",),
    "cli.cmd_benchmark": ("snmtf.cli.cmd_benchmark",),
    "cli.cmd_compare": ("snmtf.cli.cmd_compare",),
}


def _resolve(path: str):
    """(owner, attribute) for a dotted path, or None when it does not resolve."""
    owner_path, attr = path.rsplit(".", 1)
    parts = owner_path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                owner = getattr(owner, name)
            getattr(owner, attr)
        except AttributeError:
            return None
        return owner, attr
    return None


class Tracer:
    """Records spans in memory; self time is computed when asked for."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call into a layer."""
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1] if self._stack else -1)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)

        return traced

    def install(self, targets=None) -> None:
        for name, paths in (targets or SPAN_TARGETS).items():
            for path in paths:
                found = _resolve(path)
                if found is None:
                    self.missing.append(path)
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        A span's self time is its duration minus the durations of its direct
        children; calls are single-threaded, so children nest inside parents.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")
