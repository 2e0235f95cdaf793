"""In-memory span tracer wrapped around the program's layer boundaries.

Nothing in the program is edited: :meth:`Tracer.install` replaces the public
functions each layer exposes (module attributes and class attributes) with
timing wrappers and :meth:`Tracer.uninstall` puts the originals back. A span
records its name, start, end, parent span, question id, phase and one
optional work count. Spans stay in memory until :meth:`Tracer.save`.

A span's self time is its duration minus the durations of its child spans;
calls are synchronous, so children never overlap within one thread.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _request_bytes(args) -> int:
    # (self, question, text[, k]): payload text plus the fixed JSON frame
    # of a protocol-v1 request line with a short id.
    return len(args[1]) + len(args[2]) + 60


def _postings(args) -> int:
    starts, ends = args[0], args[1]
    return int((ends - starts).sum())


def layer_targets():
    """(owner, attribute, span name, work counter) for every wrapped call.

    The work counter, when given, maps the call's positional arguments or
    its result to a count stored with the span."""
    from mindstone import _kernels, fusion, pipeline, scorers
    from mindstone.index import InvertedIndex
    from mindstone.pipeline import Pipeline
    from mindstone.scorers import datasets
    from mindstone.scorers.external import ExternalScorer, ScorerPool

    return [
        (InvertedIndex, "build", "index.build", None),
        (InvertedIndex, "save", "index.save", None),
        (InvertedIndex, "load", "index.load", None),
        (InvertedIndex, "retrieve", "index.retrieve", None),
        (InvertedIndex, "retrieve_weighted", "index.retrieve_weighted", None),
        (_kernels, "bm25_accumulate", "_kernels.bm25_accumulate",
         ("args", _postings)),
        (_kernels, "span_score_matrix", "_kernels.span_score_matrix",
         ("args", lambda a: len(a[0]))),
        (scorers, "rank", "scorers.rank", None),
        (datasets, "rank", "scorers.rank", None),
        (scorers, "read", "scorers.read", None),
        (scorers, "truncate_to_tokens", "scorers.truncate_to_tokens", None),
        (pipeline, "expand_query", "expansion.expand_query",
         ("result", len)),
        (Pipeline, "fuse_candidates", "fusion.fuse_candidates", None),
        (Pipeline, "answer", "pipeline.answer", None),
        (fusion, "tune_weights", "fusion.tune_weights", None),
        (ScorerPool, "rank_text", "scorers.external.rank_text",
         ("args", _request_bytes)),
        (ScorerPool, "read_text", "scorers.external.read_text",
         ("args", _request_bytes)),
        (ExternalScorer, "__init__", "scorers.external.spawn", None),
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # (span id, name id, start, end, parent id, qid, phase, work)
        self.records: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.phase = "setup"
        self.qid_of: dict[str, str] = {}
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.qid = None
            return self._local.stack

    def wrap(self, name: str, fn, work=None):
        nid = self._nid(name)
        records, ids, clock = self.records, self._ids, time.perf_counter
        is_answer = name == "pipeline.answer"
        kind, count = work if work else (None, None)

        def traced(*args, **kwargs):
            stack = self._stack()
            local = self._local
            prev_qid = local.qid
            if is_answer:
                local.qid = self.qid_of.get(args[1])
            qid = local.qid
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                local.qid = prev_qid
            n = count(args if kind == "args" else result) if kind else None
            records.append((sid, nid, t0, t1, parent, qid, self.phase, n))
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.records.append((sid, self._nid(name), t0, t1, parent,
                                 self._local.qid, self.phase, None))

    # -- patching --------------------------------------------------------

    def install(self):
        for owner, attr, name, work in layer_targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, work))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__, work))
            else:
                new = self.wrap(name, raw, work)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- analysis --------------------------------------------------------

    def table(self):
        """Per-span arrays: name, duration, self time, parent, qid, phase,
        work; ordered by span id."""
        recs = sorted(self.records)
        n = len(recs)
        sid = np.fromiter((r[0] for r in recs), np.int64, n)
        dur = np.fromiter((r[3] - r[2] for r in recs), np.float64, n)
        parent = np.fromiter((r[4] for r in recs), np.int64, n)
        pos = np.full(int(sid.max()) + 1 if n else 0, -1, dtype=np.int64)
        pos[sid] = np.arange(n)
        has_parent = parent >= 0
        child = np.zeros(n)
        np.add.at(child, pos[parent[has_parent]], dur[has_parent])
        return {
            "name": np.array([self.names[r[1]] for r in recs], dtype=object),
            "start": np.fromiter((r[2] for r in recs), np.float64, n),
            "dur": dur,
            "self": dur - child,
            "parent_pos": np.where(has_parent, pos[np.maximum(parent, 0)],
                                   -1),
            "qid": np.array([r[5] for r in recs], dtype=object),
            "phase": np.array([r[6] for r in recs], dtype=object),
            "work": np.array([np.nan if r[7] is None else r[7]
                              for r in recs]),
        }

    @staticmethod
    def save(path: Path, t) -> None:
        """Write every span of a :meth:`table` (name, start, end, parent,
        qid, phase, work)."""
        start = t["start"]
        np.savez_compressed(
            path, name=t["name"].astype(str), start=start,
            end=start + t["dur"], parent=t["parent_pos"],
            qid=np.array(["" if q is None else q for q in t["qid"]]),
            phase=t["phase"].astype(str), work=t["work"])
