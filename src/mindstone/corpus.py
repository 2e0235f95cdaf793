"""Corpus ingestion: article splitting, title prepending, tokenization.

Articles are split into paragraphs on blank lines; each paragraph's
``full_text`` carries the article title prepended on its own line so that
downstream stages (indexing, ranking, reading) all see one canonical text
with unambiguous character offsets. Record files (articles, paragraphs,
ranker datasets) are JSONL keyed by their dataclass's field names.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, get_type_hints

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
    for line in _read_utf8(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        terms.add(line.lower())
    return frozenset(terms)


def _read_utf8(path: str | Path) -> str:
    """The text of the UTF-8 file ``path``; a byte that is not UTF-8 is a
    ValueError naming its file:line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = 1 + data.count(b"\n", 0, exc.start)
        raise ValueError(f"{path}:{lineno}: not valid UTF-8 (byte "
                         f"0x{data[exc.start]:02x}: {exc.reason})") from None


def read_text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) per non-blank line of a UTF-8 file;
    bytes that are not UTF-8 are a ValueError naming their file:line."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if line:
                    yield lineno, line
    except UnicodeDecodeError:
        # The text layer decodes in blocks, so its error has no line.
        _read_utf8(path)
        raise


def read_json_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) per non-blank line of a UTF-8 JSONL file;
    a line holding anything else is a ValueError naming its file:line."""
    for lineno, line in read_text_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: {exc.msg} "
                             f"(column {exc.colno})") from None
        if not isinstance(obj, dict):
            raise ValueError(f"{path}:{lineno}: not a JSON object")
        yield lineno, obj


def load_json_object(path: str | Path) -> dict:
    """The JSON object in a UTF-8 file; else a ValueError naming the file."""
    try:
        obj = json.loads(_read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg} "
                         f"(column {exc.colno})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: not a JSON object")
    return obj


def read_records(cls, path: str | Path) -> Iterator:
    """Stream records of the dataclass ``cls`` (two or more fields, each a
    ``str`` or an ``int``) from a JSONL file keyed by its field names,
    ignoring other keys. A malformed line, a value of another JSON type
    (``true`` is not an int) or a rejected record is a ValueError naming
    its file:line."""
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    kinds = tuple(hints[name] for name in names)
    values = itemgetter(*names)
    for lineno, rec in read_json_lines(path):
        try:
            args = values(rec)
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing field {exc}") from None
        if tuple(map(type, args)) != kinds:
            for name, kind, value in zip(names, kinds, args):
                if type(value) is not kind:
                    raise ValueError(
                        f"{path}:{lineno}: field {name!r} must be "
                        f"{kind.__name__}, got {type(value).__name__}")
        try:
            record = cls(*args)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        yield record


def write_records(records: Iterable, path: str | Path) -> int:
    """Write dataclass records as JSONL in field order; return the count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            rec = {f.name: getattr(record, f.name) for f in fields(record)}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
            n += 1
    return n


def load_paragraph_map(path: str | Path) -> dict[str, Paragraph]:
    """Load a paragraphs JSONL file into a para_id -> Paragraph mapping."""
    out: dict[str, Paragraph] = {}
    for p in read_records(Paragraph, path):
        if p.para_id in out:
            raise ValueError(f"duplicate para_id in paragraph file: {p.para_id}")
        out[p.para_id] = p
    return out
