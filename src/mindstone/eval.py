"""Answer metrics (EM, F1), recall curves, and the timing methodology.

EM/F1 follow the SQuAD v1.1 answer normalization: lowercase, strip
punctuation, drop the articles a/an/the, collapse whitespace. Lenient
recall checks normalized answer-string containment; strict recall checks
token-set Jaccard similarity against the annotated source paragraph. A
curve keeps each question's first-hit position in its list (answers, for
top-N EM), so its value at a cutoff n >= 1 is the share of positions < n.
"""

from __future__ import annotations

import json
import logging
import re
import string
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import (ARRAY, OBJECT, STRING, STRING_OR_INTEGER, STRING_OR_NULL,
                     Article, json_field, json_value, load_json_object,
                     read_text_lines, segment, write_csv, write_json_lines)

log = logging.getLogger("mindstone")

_ARTICLES_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT = str.maketrans("", "", string.punctuation)


def normalize_answer(s: str) -> str:
    """SQuAD answer normalization."""
    s = _ARTICLES_RE.sub(" ", s.lower().translate(_PUNCT))
    return " ".join(s.split())


def exact_match(pred: str, golds: Sequence[str]) -> int:
    norm = normalize_answer(pred)
    return int(any(norm == normalize_answer(g) for g in golds))


def _token_f1(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = Counter(pred_tokens) & Counter(gold_tokens)
    num_same = sum(common.values())
    if num_same == 0:
        return 0.0
    precision = num_same / len(pred_tokens)
    recall = num_same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def f1(pred: str, golds: Sequence[str]) -> float:
    pred_tokens = normalize_answer(pred).split()
    return max(_token_f1(pred_tokens, normalize_answer(g).split())
               for g in golds)


def contains_answer(text: str, golds: Sequence[str]) -> bool:
    """Lenient hit test: any normalized gold is a substring of the
    normalized text. Golds that normalize to nothing never match."""
    norm_text = normalize_answer(text)
    for g in golds:
        ng = normalize_answer(g)
        if ng and ng in norm_text:
            return True
    return False


def jaccard(a: str, b: str) -> float:
    """Token-set Jaccard similarity (stopwords kept)."""
    sa, sb = set(segment(a)), set(segment(b))
    if not sa and not sb:
        return 1.0
    union = len(sa | sb)
    return len(sa & sb) / union if union else 0.0


def first_hit(items: Sequence[str], hit: Callable[[str], bool],
              limit: int) -> int:
    """Position of the first of ``items[:limit]`` that passes ``hit``, else
    ``limit``: for 1 <= n <= limit, the first n items hold a hit iff < n."""
    for pos, item in enumerate(items[:limit]):
        if hit(item):
            return pos
    return limit


# -- question records ------------------------------------------------------

@dataclass(frozen=True)
class GoldRecord:
    qid: str
    question: str
    gold_answers: tuple[str, ...]
    gold_article_id: str | None = None
    gold_paragraph: str | None = None

    def __post_init__(self):
        if not self.gold_answers:
            raise ValueError(f"question {self.qid!r} has no gold answers")


def read_questions(path: str | Path) -> tuple[list[GoldRecord], int]:
    """Load questions JSONL; malformed records are skipped and counted. A
    record is a JSON object with a string ``question``, a non-empty array
    of string ``answers``, a string or integer ``qid`` (an integer is read
    as its ``str``) and, optionally, a string or null ``gold_article_id``
    and ``gold_paragraph``."""
    records: list[GoldRecord] = []
    skipped = 0
    for _, line in read_text_lines(path):
        try:
            rec = json_value(json.loads(line), OBJECT, "record")
            qid = json_field(rec, "qid", STRING_OR_INTEGER)
            question = json_field(rec, "question", STRING)
            answers = json_field(rec, "answers", ARRAY, items=STRING)
            gold = [json_value(rec.get(name), STRING_OR_NULL, name)
                    for name in ("gold_article_id", "gold_paragraph")]
            records.append(GoldRecord(str(qid), question, tuple(answers),
                                      *gold))
        except ValueError:
            skipped += 1
    return records, skipped


def write_questions(records: Iterable[GoldRecord], path: str | Path) -> int:
    """Write questions JSONL, leaving out gold fields that are None; return
    the count."""
    gold = ("gold_article_id", "gold_paragraph")
    return write_json_lines(({"qid": r.qid, "question": r.question,
                              "answers": list(r.gold_answers),
                              **{name: getattr(r, name) for name in gold
                                 if getattr(r, name) is not None}}
                             for r in records), path)


def convert_squad_v11(path: str | Path) -> tuple[list[Article], list[GoldRecord]]:
    """Convert a SQuAD v1.1 JSON file into articles + question records. A
    node of the wrong shape is a ValueError naming the file and the node's
    JSON path (``data[0].paragraphs[2].qas[1].answers``)."""
    return load_json_object(path, _read_squad_v11)


def _read_squad_v11(root: dict) -> tuple[list[Article], list[GoldRecord]]:
    articles: list[Article] = []
    records: list[GoldRecord] = []
    for i, entry in enumerate(json_field(root, "data", ARRAY, items=OBJECT)):
        at = f"data[{i}]"
        title = (json_field(entry, "title", STRING, at)
                 if "title" in entry else "")
        article_id = title or f"article{len(articles)}"
        contexts = []
        for j, para in enumerate(json_field(entry, "paragraphs", ARRAY, at,
                                            items=OBJECT)):
            at_para = f"{at}.paragraphs[{j}]"
            context = json_field(para, "context", STRING, at_para)
            contexts.append(context)
            for k, qa in enumerate(json_field(para, "qas", ARRAY, at_para,
                                              items=OBJECT)):
                at_qa = f"{at_para}.qas[{k}]"
                answers = []
                for n, ans in enumerate(json_field(qa, "answers", ARRAY,
                                                   at_qa, items=OBJECT)):
                    text = json_field(ans, "text", STRING,
                                      f"{at_qa}.answers[{n}]")
                    if text not in answers:
                        answers.append(text)
                qid = str(json_field(qa, "id", STRING_OR_INTEGER, at_qa))
                question = json_field(qa, "question", STRING, at_qa)
                try:
                    records.append(GoldRecord(
                        qid=qid, question=question,
                        gold_answers=tuple(answers),
                        gold_article_id=article_id, gold_paragraph=context))
                except ValueError as exc:
                    raise ValueError(f"{at_qa}: {exc}") from None
        articles.append(Article(article_id=article_id, title=title,
                                body="\n\n".join(contexts)))
    return articles, records


# -- reports ---------------------------------------------------------------

@dataclass
class LatencyReport:
    runs: int
    queries_per_run: int
    per_run_mean_ms: list[float]
    reported_ms: float
    stage_breakdown_ms: dict[str, float]
    # Per stage, p50/p95/max over the reported run's questions.
    stage_spread_ms: dict[str, dict[str, float]]


@dataclass
class EvalReport:
    em: float
    f1: float
    recall_at: dict[int, float]
    strict_recall_at: dict[int, float]
    topn_em: dict[int, float]
    n_questions: int
    strict_excluded: int
    malformed_skipped: int = 0
    manifest_key: str | None = None

    def to_dict(self) -> dict:
        # String cutoff keys: sort_keys orders them as text ("1", "100", "5").
        out = asdict(self)
        for name in ("recall_at", "strict_recall_at", "topn_em"):
            out[name] = {str(k): v for k, v in out[name].items()}
        return out


@dataclass
class CurvePoint:
    n: int
    retriever_recall: float
    ranker_recall: float
    strict_retriever_recall: float
    strict_ranker_recall: float
    topn_em: float


CURVE_COLUMNS = ["N", "retriever_recall", "ranker_recall",
                 "strict_retriever_recall", "strict_ranker_recall", "topn_em"]


def write_curves_csv(points: Sequence[CurvePoint], path: str | Path):
    write_csv(CURVE_COLUMNS, ([p.n] + [repr(getattr(p, column))
                                       for column in CURVE_COLUMNS[1:]]
                              for p in points), path)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def log_failed_questions(qids: Sequence[str], results) -> None:
    """One WARNING per result that carries a stage error (its text starts
    with the failing stage, as ``[read] ...``)."""
    for qid, result in zip(qids, results):
        if result.error is not None:
            log.warning("question %s failed: %s", qid, result.error)


def run_eval(records: Sequence[GoldRecord], pipeline, n_grid: Sequence[int],
             tau: float = 0.5, malformed_skipped: int = 0
             ) -> tuple[EvalReport, list[CurvePoint]]:
    """Run the pipeline over all questions and compute every metric.

    Latency is intentionally not measured here (see run_benchmark); the
    resulting report is deterministic for fixed inputs.
    """
    if not records:
        raise ValueError("empty question set")
    bad = [n for n in n_grid if int(n) < 1]
    if bad:
        raise ValueError(f"recall cutoff {bad[0]} is below 1")
    if not 0 <= tau <= 1:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    n_grid = sorted(set(int(n) for n in n_grid))
    limit = max(n_grid, default=0)
    results = pipeline.answer_batch([r.question for r in records])
    log_failed_questions([r.qid for r in records], results)
    paragraphs = pipeline.paragraphs

    em_vals, f1_vals = [], []
    first_hits = {column: [] for column in CURVE_COLUMNS[1:]}
    for record, result in zip(records, results):
        golds, gold_para = record.gold_answers, record.gold_paragraph
        top_pred = result.answers[0].answer_text if result.answers else ""
        em_vals.append(exact_match(top_pred, golds))
        f1_vals.append(f1(top_pred, golds))

        for stage, hits in (("retriever", result.retrieved),
                            ("ranker", result.ranked)):
            texts = [paragraphs[pid].full_text for pid, _ in hits[:limit]]
            first_hits[f"{stage}_recall"].append(first_hit(
                texts, lambda t: contains_answer(t, golds), limit))
            if gold_para is not None:
                first_hits[f"strict_{stage}_recall"].append(first_hit(
                    texts, lambda t: jaccard(t, gold_para) >= tau, limit))
        first_hits["topn_em"].append(first_hit(
            [a.answer_text for a in result.answers],
            lambda a: exact_match(a, golds), limit))

    curves = [CurvePoint(n, **{column: _mean([int(pos < n) for pos in hits])
                               for column, hits in first_hits.items()})
              for n in n_grid]
    report = EvalReport(
        em=_mean(em_vals),
        f1=_mean(f1_vals),
        recall_at={p.n: p.retriever_recall for p in curves},
        strict_recall_at={p.n: p.strict_retriever_recall for p in curves},
        topn_em={p.n: p.topn_em for p in curves},
        n_questions=len(records),
        strict_excluded=sum(r.gold_paragraph is None for r in records),
        malformed_skipped=malformed_skipped,
    )
    return report, curves


def run_benchmark(records: Sequence[GoldRecord], pipeline, runs: int = 5,
                  queries_per_run: int | None = None) -> LatencyReport:
    """Timing protocol: a warm-up pass, then ``runs`` timed passes over the
    same batch; the reported latency is the minimum of per-run means. It
    never fans out, so the per-question stage times add up to the wall time.
    A timed run with failed questions logs their count and the first qid."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if queries_per_run is not None and queries_per_run < 1:
        raise ValueError("queries_per_run must be >= 1")
    if not records:
        raise ValueError("empty question set")
    if queries_per_run is not None:
        reps = (queries_per_run + len(records) - 1) // len(records)
        records = (list(records) * reps)[:queries_per_run]
    questions = [r.question for r in records]

    for question in questions:  # warm-up, untimed
        pipeline.answer_or_error(question)

    per_run_mean_ms: list[float] = []
    per_run_stage_times: list[dict[str, list[float]]] = []
    for run in range(runs):
        start = time.perf_counter()
        results = [pipeline.answer_or_error(q) for q in questions]
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        per_run_mean_ms.append(elapsed_ms / len(questions))
        failed = [r.qid for r, res in zip(records, results)
                  if res.error is not None]
        if failed:
            log.warning("timed run %d: %d of %d questions failed, first %s",
                        run + 1, len(failed), len(questions), failed[0])
        stage_times: dict[str, list[float]] = {}
        for res in results:
            for stage, dt in res.trace.times_ms.items():
                stage_times.setdefault(stage, []).append(dt)
        per_run_stage_times.append(stage_times)

    best = min(range(runs), key=lambda i: per_run_mean_ms[i])
    best_times = per_run_stage_times[best]
    spread = {}
    for stage, times in best_times.items():
        p50, p95 = np.percentile(times, [50, 95])
        spread[stage] = {"p50": float(p50), "p95": float(p95),
                         "max": max(times)}
    return LatencyReport(
        runs=runs,
        queries_per_run=len(questions),
        per_run_mean_ms=per_run_mean_ms,
        reported_ms=per_run_mean_ms[best],
        stage_breakdown_ms={stage: sum(times) / len(questions)
                            for stage, times in best_times.items()},
        stage_spread_ms=spread,
    )
