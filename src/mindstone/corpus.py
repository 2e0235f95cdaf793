"""Corpus ingestion: article splitting, title prepending, tokenization.

Articles are split into paragraphs on blank lines; each paragraph's
``full_text`` carries the article title prepended on its own line so that
downstream stages (indexing, ranking, reading) all see one canonical text
with unambiguous character offsets.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

# Classic Lucene English stopword list (33 terms).
DEFAULT_STOPWORDS = frozenset([
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
    "in", "into", "is", "it", "no", "not", "of", "on", "or", "such",
    "that", "the", "their", "then", "there", "these", "they", "this",
    "to", "was", "will", "with",
])

# Maximal runs of Unicode alphanumerics; underscore is a separator.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_BLANK_LINE_RE = re.compile(r"\n[ \t]*\n[ \t\n]*")


@dataclass(frozen=True)
class Article:
    """A corpus article: paragraphs in ``body`` separated by blank lines."""

    article_id: str
    title: str
    body: str

    def __post_init__(self):
        if not self.article_id:
            raise ValueError("article_id must be non-empty")


@dataclass(frozen=True)
class Paragraph:
    """A title-prepended corpus unit with stable identity."""

    para_id: str
    article_id: str
    title: str
    body: str
    position: int

    @property
    def full_text(self) -> str:
        """Canonical text used for indexing, ranking, and reading."""
        if not self.title:
            return self.body
        return f"{self.title}\n{self.body}"


def split_article(article: Article) -> list[Paragraph]:
    """Split an article body on blank lines into ordered paragraphs.

    Each non-empty block becomes one paragraph; positions run 0, 1, 2, ...
    and para_id is ``"<article_id>#<position>"``. Empty bodies yield [].
    """
    paragraphs = []
    for block in _BLANK_LINE_RE.split(article.body.strip()):
        block = block.strip()
        if not block:
            continue
        position = len(paragraphs)
        paragraphs.append(Paragraph(
            para_id=f"{article.article_id}#{position}",
            article_id=article.article_id,
            title=article.title,
            body=block,
            position=position,
        ))
    return paragraphs


def segment(text: str) -> list[str]:
    """The lowercased maximal alphanumeric runs of ``text`` (no stopword
    filtering): the tokens of :func:`token_spans`, without offsets. This is
    the raw token stream truncation limits count."""
    # Lowered per token, not as a whole text: "İ".lower() appends a
    # combining mark, which would split the token.
    return [token.lower() for token in _TOKEN_RE.findall(text)]


def token_spans(text: str) -> list[tuple[str, int, int]]:
    """Like :func:`segment` but with (lowercased token, start, end) character
    offsets into the original text."""
    return [(m.group().lower(), m.start(), m.end())
            for m in _TOKEN_RE.finditer(text)]


def tokenize(text: str, stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Stopword-filtered lowercase unigrams, order preserved."""
    return [t for t in segment(text) if t not in stopwords]


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: one term per line, '#' comments ignored."""
    terms = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        terms.add(line.lower())
    return frozenset(terms)


def read_articles(path: str | Path) -> Iterator[Article]:
    """Stream articles from a UTF-8 JSONL file."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            yield Article(article_id=rec["article_id"], title=rec["title"],
                          body=rec["body"])


def read_paragraphs(path: str | Path) -> Iterator[Paragraph]:
    """Stream paragraphs from a UTF-8 JSONL file."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            yield Paragraph(para_id=rec["para_id"], article_id=rec["article_id"],
                            title=rec["title"], body=rec["body"],
                            position=rec["position"])


def write_paragraphs(paragraphs: Iterable[Paragraph], path: str | Path) -> int:
    """Write paragraphs as JSONL; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for p in paragraphs:
            fh.write(json.dumps({
                "para_id": p.para_id, "article_id": p.article_id,
                "title": p.title, "body": p.body, "position": p.position,
            }, ensure_ascii=False) + "\n")
            n += 1
    return n


def load_paragraph_map(path: str | Path) -> dict[str, Paragraph]:
    """Load a paragraphs JSONL file into a para_id -> Paragraph mapping."""
    out: dict[str, Paragraph] = {}
    for p in read_paragraphs(path):
        if p.para_id in out:
            raise ValueError(f"duplicate para_id in paragraph file: {p.para_id}")
        out[p.para_id] = p
    return out
