"""Run the egms CLI with a span recorded around each call into its layers.

Usage: ``python perfbench/tracer.py TRACE_OUT <egms arguments...>`` with
``src`` on ``PYTHONPATH``. It behaves as ``python -m egms.cli <egms
arguments...>`` and, when egms returns, writes the spans to TRACE_OUT as JSON.

Each public function is wrapped at the module attribute where its caller
looks it up (``egms.sampler.kmeans``, ``egms.cli.kmeans``, ...), so nothing
under ``src/`` changes. A span is (name, start, end, thread, parent, attrs);
the parent is the innermost open span of the same thread, so self times stay
right when the sampler runs clusters on several threads. Spans stay in memory
until the process ends.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _kmeans(args, kwargs, result):
    store, kept = _arg(args, kwargs, 0, "store"), _arg(args, kwargs, 1, "kept")
    return {"n": len(kept), "d": store.dim, "L": _arg(args, kwargs, 2, "L"), "iters": len(result.inertia_history)}


def _gains(args, kwargs, result):
    state, cands = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 2, "candidate_rows")
    return {"m": len(cands), "t": state.size}


def _sampled(args, kwargs, result):
    return {"selected": len(result.selected)}


# (module where the caller looks the name up, attribute, attrs from the call)
SITES = (
    ("egms.cli", "main", None),
    ("egms.cli", "load_embedding_store", _file_bytes),
    ("egms.cli", "load_sample_manifest", _file_bytes),
    ("egms.cli", "write_selection_manifest", None),
    ("egms.cli", "write_embedding_store", None),
    ("egms.cli", "exam_select", None),
    ("egms.cli", "baseline_select", None),
    ("egms.cli", "resolve_ppls", None),
    ("egms.cli", "filter_extremes", None),
    ("egms.cli", "kmeans", _kmeans),
    ("egms.sampler", "resolve_ppls", None),
    ("egms.sampler", "filter_extremes", None),
    ("egms.sampler", "kmeans", _kmeans),
    ("egms.sampler", "allocate_budgets", None),
    ("egms.sampler", "greedy_sample_cluster", _sampled),
    ("egms.sampler", "mmd_sample_cluster", _sampled),
    ("egms.sampler", "build_similarity", None),
    ("egms.sampler", "augment", None),
    ("egms.sampler", "von_neumann_entropy", None),
    ("egms.sampler", "entropy_gains", _gains),
)


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, fn, attrs_of):
        name = f"{fn.__module__.removeprefix('egms.')}.{fn.__name__}"

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                sid = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result, attrs = None, {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if attrs_of is not None and result is not None:
                    attrs = attrs_of(args, kwargs, result)
                self.spans[sid] = (name, start, end, threading.get_ident(), parent, attrs)

        return traced

    def install(self) -> None:
        for module_name, attr, attrs_of in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, attrs_of))

    def write(self, path: str, argv: list[str]) -> None:
        threads: dict[int, int] = {}
        # a span still open when egms returns stays null, so parent indices hold
        spans = [
            None if span is None else [*span[:3], threads.setdefault(span[3], len(threads)), *span[4:]]
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "argv": argv, "missing": self.missing, "spans": spans}, fh)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    cli = importlib.import_module("egms.cli")
    try:
        return cli.main(argv)
    finally:
        recorder.write(out, argv)


if __name__ == "__main__":
    sys.exit(main())
