"""Cascade orchestration: retrieve, rank, optional RM3 second pass, read
the top ranked slice, fuse the three stage scores, and emit sorted answers.

All stages are pure over an immutable index and paragraph store, so a batch
gives the same results on any thread; it fans out only when a stage waits on
external-scorer subprocesses (see ``Pipeline.answer_batch``). Any failure
in the rank or read stage, an external scorer's protocol fault included,
is a StageError naming that stage.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, Sequence

from . import scorers
from .corpus import (BOOLEAN, INTEGER, INTEGER_OR_NULL, NUMBER, OBJECT,
                     Paragraph, json_value)
from .errors import MindstoneError, StageError
from .eval import normalize_answer
from .expansion import ExpansionParams, expand_query, question_vector
from .fusion import FusionWeights, fuse, normalize_scores
from .index import InvertedIndex
from .scorers import TruncationLimits
from .scorers.external import ScorerPool

DEFAULT_WEIGHTS = FusionWeights(1 / 3, 1 / 3, 1 / 3)


@dataclass(frozen=True)
class PipelineConfig:
    n_retriever: int = 100
    read_fraction: float = 0.025
    n_reader: int | None = None  # explicit override of the read cutoff
    rm3_enabled: bool = False
    rm3: ExpansionParams = ExpansionParams()
    weights: FusionWeights = DEFAULT_WEIGHTS
    k_spans_per_paragraph: int = 1
    limits: TruncationLimits = TruncationLimits()

    def __post_init__(self):
        if self.n_retriever < 0:
            raise ValueError("n_retriever must be >= 0")
        if not 0.0 < self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in (0, 1]")
        if self.n_reader is not None and self.n_reader < 1:
            raise ValueError("n_reader must be >= 1 when set")
        if self.k_spans_per_paragraph < 1:
            raise ValueError("k_spans_per_paragraph must be >= 1")

    @property
    def n_reader_effective(self) -> int:
        if self.n_reader is not None:
            return self.n_reader
        return max(1, math.ceil(self.read_fraction * self.n_retriever))

    def to_dict(self) -> dict:
        out: dict = {}
        for key, attr, _, _ in CONFIG_KEYS:
            *sections, leaf = key.split(".")
            node = out
            for section in sections:
                node = node.setdefault(section, {})
            node[leaf] = attrgetter(attr)(self)
        return out

    @classmethod
    def from_dict(cls, data: dict,
                  overrides: Mapping[str, object] = {}) -> "PipelineConfig":
        """Config from its JSON form; absent keys keep their defaults, and an
        unknown key or a value of the wrong type raises ValueError.
        ``overrides`` maps CLI flag dests (the third column of
        :data:`CONFIG_KEYS`) to values that replace the file's; a None value
        is no override."""
        values = _flatten_config(data)
        for key, _, dest, _ in CONFIG_KEYS:
            if dest is not None and overrides.get(dest) is not None:
                values[key] = overrides[dest]
        base = cls()
        fields: dict = {}
        nested: dict[str, dict] = {}
        for key, attr, _, _ in CONFIG_KEYS:
            value = values.get(key, attrgetter(attr)(base))
            owner, _, name = attr.rpartition(".")
            (nested.setdefault(owner, {}) if owner else fields)[name] = value
        # Each nested object is built once from all of its keys, so checks
        # across them (fusion weights summing to 1) see the final values.
        for owner, kwargs in nested.items():
            fields[owner] = type(getattr(base, owner))(**kwargs)
        return cls(**fields)


# One row per config key: dotted JSON key path, dotted PipelineConfig
# attribute path, the dest of the CLI flag that overrides it (None where
# there is no flag), and the kind of JSON value it accepts. to_dict writes
# keys in this order.
CONFIG_KEYS: tuple[tuple[str, str, str | None, str], ...] = (
    ("n_retriever", "n_retriever", "n_retriever", INTEGER),
    ("read_fraction", "read_fraction", "read_fraction", NUMBER),
    ("n_reader", "n_reader", "n_reader", INTEGER_OR_NULL),
    ("k_spans_per_paragraph", "k_spans_per_paragraph", "k_spans", INTEGER),
    ("rm3.enabled", "rm3_enabled", "rm3", BOOLEAN),
    ("rm3.alpha", "rm3.alpha", "rm3_alpha", NUMBER),
    ("rm3.terms", "rm3.top_terms", "rm3_terms", INTEGER),
    ("rm3.second_pass_n", "rm3.second_pass_n", "rm3_second_pass_n",
     INTEGER_OR_NULL),
    ("fusion.w_retriever", "weights.w_retriever", "w_retriever", NUMBER),
    ("fusion.w_ranker", "weights.w_ranker", "w_ranker", NUMBER),
    ("fusion.w_reader", "weights.w_reader", "w_reader", NUMBER),
    ("limits.ranker_para_tokens", "limits.ranker_para_tokens", None,
     INTEGER),
    ("limits.reader_total_tokens", "limits.reader_total_tokens", None,
     INTEGER),
)
_CONFIG_KINDS = {row[0]: row[3] for row in CONFIG_KEYS}
_CONFIG_SECTIONS = frozenset(key.rpartition(".")[0] for key in _CONFIG_KINDS
                             if "." in key)


def _flatten_config(data, prefix: str = "") -> dict:
    """Dotted key -> checked value for every leaf of a config's JSON form."""
    json_value(data, OBJECT, prefix[:-1] or "config")
    values = {}
    for name, value in data.items():
        key = f"{prefix}{name}"
        if key in _CONFIG_KINDS:
            values[key] = json_value(value, _CONFIG_KINDS[key], key)
        elif key in _CONFIG_SECTIONS:
            values.update(_flatten_config(value, key + "."))
        else:
            raise ValueError(f"unknown config key {key!r}")
    return values


@dataclass(frozen=True)
class SpanCandidate:
    """A reader span with its raw and normalized stage scores."""

    para_id: str
    start_char: int
    end_char: int
    text: str
    s_retriever: float
    s_ranker: float
    s_reader: float
    n_retriever: float
    n_ranker: float
    n_reader: float


@dataclass(frozen=True)
class RankedAnswer:
    answer_text: str
    para_id: str
    start_char: int
    end_char: int
    s_retriever: float
    s_ranker: float
    s_reader: float
    fused: float


@dataclass
class StageTrace:
    counts: dict[str, int] = field(default_factory=dict)
    times_ms: dict[str, float] = field(default_factory=dict)


@dataclass
class PipelineResult:
    answers: list[RankedAnswer]
    trace: StageTrace
    retrieved: list[tuple[str, float]]  # first-pass retrieval order
    ranked: list[tuple[str, float]]     # full pool in ranker order
    candidates: list[SpanCandidate] = field(default_factory=list)
    error: str | None = None


class Pipeline:
    """Immutable serving object tying the stages together."""

    def __init__(self, index: InvertedIndex,
                 paragraphs: Mapping[str, Paragraph], ranker, reader,
                 config: PipelineConfig = PipelineConfig()):
        self.index = index
        self.paragraphs = paragraphs
        self.ranker = ranker
        self.reader = reader
        self.config = config

    def _paragraphs(self, para_ids: Sequence[str],
                    stage: str) -> list[Paragraph]:
        try:
            return list(map(self.paragraphs.__getitem__, para_ids))
        except KeyError as exc:
            raise StageError(stage, f"no paragraph text for {exc.args[0]!r}")

    def _rank(self, question: str, para_ids: Sequence[str]) -> list[float]:
        """Ranker scores of a candidate pool, in ``para_ids`` order."""
        return scorers.rank(self.ranker, question,
                            self._paragraphs(para_ids, "rank"),
                            self.config.limits).tolist()

    def answer(self, question: str) -> PipelineResult:
        cfg = self.config
        trace = StageTrace()

        t0 = time.perf_counter()
        retrieval = self.index.retrieve(question, cfg.n_retriever)
        trace.times_ms["retrieve"] = (time.perf_counter() - t0) * 1000.0
        trace.counts["retrieved"] = len(retrieval.hits)

        # The pool as parallel lists: para_id, retriever score (0.0 for a
        # paragraph only the RM3 pass found) and ranker score.
        t0 = time.perf_counter()
        pool_ids = retrieval.para_ids()
        s_ret = [s for _, s in retrieval.hits]
        s_rank = self._rank(question, pool_ids)
        trace.times_ms["rank"] = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        if cfg.rm3_enabled and pool_ids:
            q = question_vector(self.index, question)
            expanded = expand_query(q, list(zip(pool_ids, s_rank)),
                                    self.index, cfg.rm3)
            depth = (cfg.rm3.second_pass_n
                     if cfg.rm3.second_pass_n is not None
                     else cfg.n_retriever)
            # The first-pass pool seeds the second pass's top-n cut.
            seen = set(pool_ids)
            second = self.index.retrieve_weighted(expanded, depth, seen)
            new_ids = [pid for pid, _ in second.hits if pid not in seen]
            pool_ids.extend(new_ids)
            s_ret.extend([0.0] * len(new_ids))
            s_rank.extend(self._rank(question, new_ids))
            trace.counts["rm3_added"] = len(new_ids)
        else:
            trace.counts["rm3_added"] = 0
        trace.times_ms["rm3"] = (time.perf_counter() - t0) * 1000.0

        # Ordering the pool is rank-stage time; it waits for RM3's additions.
        t0 = time.perf_counter()
        order = sorted(range(len(pool_ids)),
                       key=lambda i: (-s_rank[i], pool_ids[i]))
        ranked = [(pool_ids[i], s_rank[i]) for i in order]
        trace.times_ms["rank"] += (time.perf_counter() - t0) * 1000.0
        trace.counts["ranked"] = len(ranked)
        to_read = order[:cfg.n_reader_effective]
        trace.counts["read"] = len(to_read)

        t0 = time.perf_counter()
        paras = self._paragraphs([pool_ids[i] for i in to_read], "read")
        read_slice = scorers.read(self.reader, question, paras,
                                  cfg.k_spans_per_paragraph, cfg.limits)
        # (pool position, span) for every span read.
        raw = [(i, span) for i, spans in zip(to_read, read_slice)
               for span in spans]
        trace.times_ms["read"] = (time.perf_counter() - t0) * 1000.0
        trace.counts["spans"] = len(raw)

        t0 = time.perf_counter()
        try:
            n_ret = normalize_scores([s_ret[i] for i, _ in raw])
            n_rank = normalize_scores([s_rank[i] for i, _ in raw])
            n_read = normalize_scores([s.s_reader for _, s in raw])
        except ValueError as exc:
            raise StageError("fuse", str(exc))
        candidates = [SpanCandidate(
            para_id=pool_ids[i], start_char=span.start_char,
            end_char=span.end_char, text=span.text,
            s_retriever=s_ret[i], s_ranker=s_rank[i],
            s_reader=span.s_reader, n_retriever=n_ret[j], n_ranker=n_rank[j],
            n_reader=n_read[j])
            for j, (i, span) in enumerate(raw)]
        answers = self.fuse_candidates(candidates, cfg.weights)
        trace.times_ms["fuse"] = (time.perf_counter() - t0) * 1000.0
        trace.counts["answers"] = len(answers)

        return PipelineResult(
            answers=answers, trace=trace, retrieved=list(retrieval.hits),
            ranked=ranked, candidates=candidates)

    @staticmethod
    def fuse_candidates(candidates: Sequence[SpanCandidate],
                        weights: FusionWeights) -> list[RankedAnswer]:
        """Fuse, sort (fused desc, ties para_id then start), and dedupe by
        normalized answer text keeping the highest-fused span."""
        scored = [(fuse((c.n_retriever, c.n_ranker, c.n_reader), weights), c)
                  for c in candidates]
        scored.sort(key=lambda t: (-t[0], t[1].para_id, t[1].start_char))
        answers = []
        seen: set[str] = set()
        for fused_score, c in scored:
            key = normalize_answer(c.text)
            if key in seen:
                continue
            seen.add(key)
            answers.append(RankedAnswer(
                answer_text=c.text, para_id=c.para_id,
                start_char=c.start_char, end_char=c.end_char,
                s_retriever=c.s_retriever, s_ranker=c.s_ranker,
                s_reader=c.s_reader, fused=fused_score))
        return answers

    def answer_or_error(self, question: str) -> PipelineResult:
        """answer(), with a stage error recorded in the result instead of
        raised."""
        try:
            return self.answer(question)
        except MindstoneError as exc:
            return PipelineResult(answers=[], trace=StageTrace(), retrieved=[],
                                  ranked=[], error=str(exc))

    def answer_batch(self, questions: Sequence[str]) -> list[PipelineResult]:
        """Element-wise answer_or_error(), in input order. Fans out over up
        to one thread per usable CPU when a stage is a ScorerPool, else
        answers serially on the calling thread."""
        threads = min(usable_cpus(), len(questions))
        if threads > 1 and any(isinstance(stage, ScorerPool)
                               for stage in (self.ranker, self.reader)):
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(self.answer_or_error, questions))
        return [self.answer_or_error(q) for q in questions]

    def with_config(self, config: PipelineConfig) -> "Pipeline":
        return Pipeline(self.index, self.paragraphs, self.ranker,
                        self.reader, config)


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has
    one): the cap on a batch's threads and so on its scorer processes."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def answer_record(qid: str, result: PipelineResult) -> dict:
    """JSONL record for one answered question."""
    rec = {
        "qid": qid,
        "answers": [{
            "text": a.answer_text, "para_id": a.para_id,
            "start": a.start_char, "end": a.end_char,
            "s_retriever": a.s_retriever, "s_ranker": a.s_ranker,
            "s_reader": a.s_reader, "fused": a.fused,
        } for a in result.answers],
        "trace": {"counts": result.trace.counts,
                  "times_ms": result.trace.times_ms},
    }
    if result.error is not None:
        rec["error"] = result.error
    return rec
