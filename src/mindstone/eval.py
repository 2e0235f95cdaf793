"""Answer metrics (EM, F1), recall curves, and the timing methodology.

EM/F1 follow the SQuAD v1.1 answer normalization: lowercase, strip
punctuation, drop the articles a/an/the, collapse whitespace. Lenient
recall checks normalized answer-string containment; strict recall checks
token-set Jaccard similarity against the annotated source paragraph.
"""

from __future__ import annotations

import csv
import json
import re
import string
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Article, segment

_ARTICLES_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT = set(string.punctuation)


def normalize_answer(s: str) -> str:
    """SQuAD answer normalization."""
    s = s.lower()
    s = "".join(ch for ch in s if ch not in _PUNCT)
    s = _ARTICLES_RE.sub(" ", s)
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


def recall_at(candidate_texts: Sequence[str], golds: Sequence[str],
              n: int) -> int:
    """1 iff any of the first n candidate texts contains a gold answer."""
    return int(any(contains_answer(t, golds) for t in candidate_texts[:n]))


def jaccard(a: str, b: str) -> float:
    """Token-set Jaccard similarity (stopwords kept)."""
    sa, sb = set(segment(a)), set(segment(b))
    if not sa and not sb:
        return 1.0
    union = len(sa | sb)
    return len(sa & sb) / union if union else 0.0


def strict_recall_at(candidate_texts: Sequence[str], gold_paragraph: str,
                     n: int, tau: float = 0.5) -> int:
    """1 iff any of the first n candidates is (near-)identical to the
    annotated source paragraph: token-set Jaccard >= tau."""
    return int(any(jaccard(t, gold_paragraph) >= tau
                   for t in candidate_texts[:n]))


def topn_em(answer_texts: Sequence[str], golds: Sequence[str], n: int) -> int:
    """1 iff any of the first n (deduplicated) answers is an exact match."""
    return int(any(exact_match(a, golds) for a in answer_texts[:n]))


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
    """Load questions JSONL; malformed records are skipped and counted."""
    records: list[GoldRecord] = []
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                records.append(GoldRecord(
                    qid=str(rec["qid"]),
                    question=rec["question"],
                    gold_answers=tuple(rec["answers"]),
                    gold_article_id=rec.get("gold_article_id"),
                    gold_paragraph=rec.get("gold_paragraph"),
                ))
            except (ValueError, KeyError, TypeError):
                skipped += 1
    return records, skipped


def write_questions(records: Iterable[GoldRecord], path: str | Path) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            rec = {"qid": r.qid, "question": r.question,
                   "answers": list(r.gold_answers)}
            if r.gold_article_id is not None:
                rec["gold_article_id"] = r.gold_article_id
            if r.gold_paragraph is not None:
                rec["gold_paragraph"] = r.gold_paragraph
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
            n += 1
    return n


def convert_squad_v11(path: str | Path) -> tuple[list[Article], list[GoldRecord]]:
    """Convert a SQuAD v1.1 JSON file into articles + question records."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))["data"]
    articles: list[Article] = []
    records: list[GoldRecord] = []
    for entry in data:
        title = entry.get("title", "")
        article_id = title or f"article{len(articles)}"
        contexts = []
        for para in entry["paragraphs"]:
            context = para["context"]
            contexts.append(context)
            for qa in para["qas"]:
                answers = []
                for ans in qa["answers"]:
                    if ans["text"] not in answers:
                        answers.append(ans["text"])
                records.append(GoldRecord(
                    qid=str(qa["id"]), question=qa["question"],
                    gold_answers=tuple(answers),
                    gold_article_id=article_id, gold_paragraph=context))
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

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "queries_per_run": self.queries_per_run,
            "per_run_mean_ms": self.per_run_mean_ms,
            "reported_ms": self.reported_ms,
            "stage_breakdown_ms": self.stage_breakdown_ms,
        }


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
    latency: LatencyReport | None = None
    manifest_key: str | None = None

    def to_dict(self) -> dict:
        return {
            "em": self.em,
            "f1": self.f1,
            "recall_at": {str(k): v for k, v in self.recall_at.items()},
            "strict_recall_at": {str(k): v
                                 for k, v in self.strict_recall_at.items()},
            "topn_em": {str(k): v for k, v in self.topn_em.items()},
            "n_questions": self.n_questions,
            "strict_excluded": self.strict_excluded,
            "malformed_skipped": self.malformed_skipped,
            "latency": self.latency.to_dict() if self.latency else None,
            "manifest_key": self.manifest_key,
        }


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_COLUMNS)
        for p in points:
            writer.writerow([p.n, repr(p.retriever_recall),
                             repr(p.ranker_recall),
                             repr(p.strict_retriever_recall),
                             repr(p.strict_ranker_recall), repr(p.topn_em)])


def write_report_json(report: EvalReport, path: str | Path):
    Path(path).write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def run_eval(records: Sequence[GoldRecord], pipeline, n_grid: Sequence[int],
             tau: float = 0.5, malformed_skipped: int = 0
             ) -> tuple[EvalReport, list[CurvePoint]]:
    """Run the pipeline over all questions and compute every metric.

    Latency is intentionally not measured here (see run_benchmark); the
    resulting report is deterministic for fixed inputs.
    """
    if not records:
        raise ValueError("empty question set")
    n_grid = sorted(set(int(n) for n in n_grid))
    results = pipeline.answer_batch([r.question for r in records])
    paragraphs = pipeline.paragraphs

    em_vals, f1_vals = [], []
    retr_hits = {n: [] for n in n_grid}
    rank_hits = {n: [] for n in n_grid}
    strict_retr_hits = {n: [] for n in n_grid}
    strict_rank_hits = {n: [] for n in n_grid}
    topn_hits = {n: [] for n in n_grid}
    strict_excluded = 0

    for record, result in zip(records, results):
        golds = list(record.gold_answers)
        top_pred = result.answers[0].answer_text if result.answers else ""
        em_vals.append(exact_match(top_pred, golds))
        f1_vals.append(f1(top_pred, golds))

        retrieved_texts = [paragraphs[pid].full_text
                           for pid, _ in result.retrieved]
        ranked_texts = [paragraphs[pid].full_text for pid, _ in result.ranked]
        answer_texts = [a.answer_text for a in result.answers]
        has_gold_para = record.gold_paragraph is not None
        if not has_gold_para:
            strict_excluded += 1
        for n in n_grid:
            retr_hits[n].append(recall_at(retrieved_texts, golds, n))
            rank_hits[n].append(recall_at(ranked_texts, golds, n))
            topn_hits[n].append(topn_em(answer_texts, golds, n))
            if has_gold_para:
                strict_retr_hits[n].append(strict_recall_at(
                    retrieved_texts, record.gold_paragraph, n, tau))
                strict_rank_hits[n].append(strict_recall_at(
                    ranked_texts, record.gold_paragraph, n, tau))

    report = EvalReport(
        em=_mean(em_vals),
        f1=_mean(f1_vals),
        recall_at={n: _mean(retr_hits[n]) for n in n_grid},
        strict_recall_at={n: _mean(strict_retr_hits[n]) for n in n_grid},
        topn_em={n: _mean(topn_hits[n]) for n in n_grid},
        n_questions=len(records),
        strict_excluded=strict_excluded,
        malformed_skipped=malformed_skipped,
    )
    curves = [CurvePoint(
        n=n,
        retriever_recall=_mean(retr_hits[n]),
        ranker_recall=_mean(rank_hits[n]),
        strict_retriever_recall=_mean(strict_retr_hits[n]),
        strict_ranker_recall=_mean(strict_rank_hits[n]),
        topn_em=_mean(topn_hits[n]),
    ) for n in n_grid]
    return report, curves


def run_benchmark(records: Sequence[GoldRecord], pipeline, runs: int = 5,
                  queries_per_run: int | None = None) -> LatencyReport:
    """Timing protocol: a warm-up pass, then ``runs`` timed passes over the
    same batch; the reported latency is the minimum of per-run means. It
    never fans out, so the per-question stage times add up to the wall time."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if not records:
        raise ValueError("empty question set")
    questions = [r.question for r in records]
    if queries_per_run is not None:
        reps = (queries_per_run + len(questions) - 1) // len(questions)
        questions = (questions * reps)[:queries_per_run]

    for question in questions:  # warm-up, untimed
        pipeline.answer_or_error(question)

    per_run_mean_ms: list[float] = []
    per_run_stage_ms: list[dict[str, float]] = []
    for _ in range(runs):
        start = time.perf_counter()
        results = [pipeline.answer_or_error(q) for q in questions]
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        per_run_mean_ms.append(elapsed_ms / len(questions))
        stage_totals: dict[str, float] = {}
        for res in results:
            for stage, dt in res.trace.times_ms.items():
                stage_totals[stage] = stage_totals.get(stage, 0.0) + dt
        per_run_stage_ms.append(
            {k: v / len(questions) for k, v in stage_totals.items()})

    best = min(range(runs), key=lambda i: per_run_mean_ms[i])
    return LatencyReport(
        runs=runs,
        queries_per_run=len(questions),
        per_run_mean_ms=per_run_mean_ms,
        reported_ms=per_run_mean_ms[best],
        stage_breakdown_ms=per_run_stage_ms[best],
    )
