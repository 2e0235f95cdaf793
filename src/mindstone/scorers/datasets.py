"""Ranker-dataset builders over question records and a paragraph corpus.

Three strategies: paired gold/non-gold paragraphs from the gold article
("finetune"), retrieval top-n labeled by answer containment ("aug1"), and
retrieve-m-then-rerank-keep-n ("aug2", defaults m=100, n=5). Labels always
come from case-insensitive containment of a normalized gold answer string.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..corpus import Paragraph
from ..eval import GoldRecord, contains_answer, jaccard
from ..index import InvertedIndex
from . import RankExample, TruncationLimits, rank


def _by_article(paragraphs: Iterable[Paragraph]) -> dict[str, list[Paragraph]]:
    grouped: dict[str, list[Paragraph]] = {}
    for p in paragraphs:
        grouped.setdefault(p.article_id, []).append(p)
    for plist in grouped.values():
        plist.sort(key=lambda p: p.position)
    return grouped


def resolve_gold_paragraph(record: GoldRecord,
                           article_paragraphs: Sequence[Paragraph],
                           ) -> Paragraph | None:
    """Locate the annotated source paragraph inside its article: exact body
    match first, then highest token-set Jaccard."""
    if record.gold_paragraph is None or not article_paragraphs:
        return None
    for p in article_paragraphs:
        if p.body == record.gold_paragraph:
            return p
    return max(article_paragraphs,
               key=lambda p: (jaccard(p.body, record.gold_paragraph),
                              -p.position))


def _lookup(paragraphs: Mapping[str, Paragraph],
            para_ids: Sequence[str]) -> list[Paragraph]:
    """The paragraphs of ``para_ids``; one that ``paragraphs`` lacks is an
    error naming it and, for a map read by ``load_paragraph_map``, the
    paragraph file."""
    try:
        return [paragraphs[pid] for pid in para_ids]
    except KeyError as exc:
        source = getattr(paragraphs, "path", "paragraphs")
        raise ValueError(f"{source}: no paragraph text for "
                         f"{exc.args[0]!r}") from None


def _labelled(record: GoldRecord,
              paras: Sequence[Paragraph]) -> list[RankExample]:
    """One example per paragraph, labeled by answer containment."""
    examples = []
    for p in paras:
        text = p.full_text
        label = int(contains_answer(text, record.gold_answers))
        examples.append(RankExample(question=record.question,
                                    para_id=p.para_id, text=text,
                                    label=label))
    return examples


def build_dataset_finetune(records: Sequence[GoldRecord],
                           paragraphs: Iterable[Paragraph],
                           ) -> list[RankExample]:
    """One positive (the gold paragraph) per question, plus one same-article
    paragraph that lacks every gold answer string, when one exists."""
    grouped = _by_article(paragraphs)
    examples: list[RankExample] = []
    for record in records:
        article = grouped.get(record.gold_article_id or "", [])
        gold = resolve_gold_paragraph(record, article)
        if gold is None:
            continue
        examples.append(RankExample(question=record.question,
                                    para_id=gold.para_id,
                                    text=gold.full_text, label=1))
        for p in article:
            if p.para_id == gold.para_id:
                continue
            if not contains_answer(p.full_text, record.gold_answers):
                examples.append(RankExample(question=record.question,
                                            para_id=p.para_id,
                                            text=p.full_text, label=0))
                break
    return examples


def build_dataset_aug1(records: Sequence[GoldRecord], index: InvertedIndex,
                       paragraphs: Mapping[str, Paragraph],
                       n: int = 5) -> list[RankExample]:
    """Top-n retrieved paragraphs per question, labeled by containment."""
    examples: list[RankExample] = []
    for record in records:
        para_ids = index.retrieve(record.question, n).para_ids()
        examples += _labelled(record, _lookup(paragraphs, para_ids))
    return examples


def build_dataset_aug2(records: Sequence[GoldRecord], index: InvertedIndex,
                       paragraphs: Mapping[str, Paragraph], ranker,
                       m: int = 100, n: int = 5,
                       limits: TruncationLimits = TruncationLimits(),
                       ) -> list[RankExample]:
    """Retrieve m, rerank by ranker score (ties by para_id), keep top n."""
    if m < n:
        raise ValueError(f"m must be >= n, got m={m}, n={n}")
    examples: list[RankExample] = []
    for record in records:
        pool = _lookup(paragraphs,
                       index.retrieve(record.question, m).para_ids())
        scores = rank(ranker, record.question, pool, limits)
        scored = sorted(zip(scores.tolist(), pool),
                        key=lambda t: (-t[0], t[1].para_id))
        examples += _labelled(record, [p for _, p in scored[:n]])
    return examples
