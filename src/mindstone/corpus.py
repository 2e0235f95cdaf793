"""Corpus ingestion: article splitting, title prepending, tokenization.

Articles are split into paragraphs on blank lines; each paragraph's
``full_text`` carries the article title prepended on its own line so that
downstream stages (indexing, ranking, reading) all see one canonical text
with unambiguous character offsets. Record files (articles, paragraphs,
ranker datasets) are JSONL keyed by their dataclass's field names. Every
JSON, JSONL and CSV output is written by the one writer here for its format.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, get_type_hints

# Classic Lucene English stopword list (33 terms).
DEFAULT_STOPWORDS = frozenset([
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
    "in", "into", "is", "it", "no", "not", "of", "on", "or", "such",
    "that", "the", "their", "then", "there", "these", "they", "this",
    "to", "was", "will", "with",
])

# Kinds of JSON value, named as errors name them, with the types json.loads
# gives for each: an integer is a number, and a boolean is neither.
STRING, INTEGER, NUMBER = "a string", "an integer", "a number"
BOOLEAN, ARRAY, OBJECT = "a boolean", "an array", "an object"
INTEGER_OR_NULL, STRING_OR_NULL = "an integer or null", "a string or null"
STRING_OR_INTEGER = "a string or an integer"
_KIND_TYPES = {STRING: {str}, INTEGER: {int}, NUMBER: {int, float},
               BOOLEAN: {bool}, ARRAY: {list}, OBJECT: {dict},
               STRING_OR_INTEGER: {str, int},
               INTEGER_OR_NULL: {int, type(None)},
               STRING_OR_NULL: {str, type(None)}}
# The JSON type of each type json.loads gives, as an error names it.
_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "a number", float: "a number", bool: "a boolean",
               type(None): "null"}

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


@dataclass(frozen=True, slots=True)
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


def load_json_object(path: str | Path, read: Callable | None = None):
    """The JSON object in a UTF-8 file, or what ``read`` makes of it; a
    ValueError, in the file or from ``read``, names the file."""
    try:
        obj = json.loads(_read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg} "
                         f"(column {exc.colno})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: not a JSON object")
    if read is None:
        return obj
    try:
        return read(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_json_object(obj: dict, path: str | Path):
    """Write ``obj`` as UTF-8 JSON indented by 2, keys sorted, with a final
    newline: the file :func:`load_json_object` reads."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_json_lines(objects: Iterable[dict], path: str | Path | None) -> int:
    """Write one JSON line per object (non-ASCII characters not escaped) to
    the UTF-8 file ``path``, or to ``sys.stdout`` when it is None: the file
    :func:`read_json_lines` reads. Return the count."""
    n = 0
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8")) as fh:
        for obj in objects:
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
            n += 1
    return n


def write_csv(header: Sequence[str], rows: Iterable[Sequence],
              path: str | Path):
    """Write a UTF-8 CSV file: the ``header`` row, then ``rows``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def json_value(value, kind: str, where: str):
    """``value`` when its JSON type is ``kind``; else a ValueError
    ``<where>: expected <kind>, got <its JSON type>``."""
    if type(value) not in _KIND_TYPES[kind]:
        got = _TYPE_NAMES.get(type(value), type(value).__name__)
        raise ValueError(f"{where}: expected {kind}, got {got}")
    return value


def json_field(obj: dict, name: str, kind: str, where: str = "",
               items: str | None = None):
    """``obj[name]`` checked by :func:`json_value` at ``[<where>.]<name>``,
    and, for an array, each item at ``[<where>.]<name>[<i>]`` against the
    kind ``items``; else ``[<where>: ]missing field '<name>'``."""
    if name not in obj:
        raise ValueError(f"{where}: missing field {name!r}" if where
                         else f"missing field {name!r}")
    at = f"{where}.{name}" if where else name
    value = json_value(obj[name], kind, at)
    # One pass over the item types; a second only to name a bad item.
    if items is not None and not set(map(type, value)) <= _KIND_TYPES[items]:
        for i, item in enumerate(value):
            json_value(item, items, f"{at}[{i}]")
    return value


def read_records(cls, path: str | Path) -> Iterator:
    """Stream records of the dataclass ``cls`` (two or more fields, each a
    ``str`` or an ``int``) from a JSONL file keyed by its field names,
    ignoring other keys. A malformed line, a value of another JSON type
    (``true`` is not an integer) or a rejected record is a ValueError
    naming its file:line."""
    for lineno, args in _record_values(cls, path):
        try:
            record = cls(*args)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        yield record


def _record_values(cls, path: str | Path) -> Iterator[tuple[int, tuple]]:
    """(line number, field values in field order) per record of
    :func:`read_records`, the values checked but no record made."""
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    types = tuple(hints[name] for name in names)
    values = itemgetter(*names)
    for lineno, rec in read_json_lines(path):
        try:
            args = values(rec)
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing field {exc}") from None
        # One comparison per record; the helper only names the field.
        if tuple(map(type, args)) != types:
            try:
                for name, t, value in zip(names, types, args):
                    json_value(value, STRING if t is str else INTEGER, name)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        yield lineno, args


def write_records(records: Iterable, path: str | Path) -> int:
    """Write dataclass records as JSONL in field order; return the count."""
    return write_json_lines(({f.name: getattr(r, f.name) for f in fields(r)}
                             for r in records), path)


class ParagraphMap(dict):
    """A para_id -> Paragraph dict that remembers the file it was read
    from, so a lookup that misses can name it."""

    def __init__(self, path: str | Path):
        super().__init__()
        self.path = path


def load_paragraph_map(path: str | Path) -> ParagraphMap:
    """Load a paragraphs JSONL file into a para_id -> Paragraph mapping.
    Equal ``article_id`` and ``title`` strings are one object, so an
    article's paragraphs hold one copy of each, not one per JSON line."""
    out = ParagraphMap(path)
    share = {}.setdefault
    for _, (para_id, article_id, title, body, position) in _record_values(
            Paragraph, path):
        if para_id in out:
            raise ValueError(f"duplicate para_id in paragraph file: {para_id}")
        out[para_id] = Paragraph(para_id, share(article_id, article_id),
                                 share(title, title), body, position)
    return out
