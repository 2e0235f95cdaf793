"""Article splitting, tokenization, and corpus file formats."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mindstone.corpus import (DEFAULT_STOPWORDS, Article, Paragraph,
                              load_json_object, load_paragraph_map,
                              load_stopwords, read_json_lines, read_records,
                              segment, split_article, token_spans, tokenize,
                              write_records)
from mindstone.eval import read_questions
from mindstone.scorers import RankExample


def _unicode_text():
    """Arbitrary Unicode, and ASCII mixed with characters whose lowercase
    form differs in length or category."""
    return st.text() | st.lists(st.sampled_from(
        ["A", "z", "9", " ", "_", "-", "\u0130", "\u00df", "\u1e9e",
         "\u03a3", "\ufb01", "\u2160", "\u0301", "\u00c9"]),
        max_size=30).map("".join)


class TestSplitArticle:
    def test_title_prepended_to_each_paragraph(self):
        out = split_article(Article("oxygen", "Oxygen", "p1\n\np2"))
        assert [p.full_text for p in out] == ["Oxygen\np1", "Oxygen\np2"]
        assert [p.para_id for p in out] == ["oxygen#0", "oxygen#1"]
        assert [p.position for p in out] == [0, 1]

    def test_empty_body_yields_no_paragraphs(self):
        assert split_article(Article("x", "X", "")) == []

    def test_empty_title_adds_no_line(self):
        out = split_article(Article("x", "", "solo"))
        assert len(out) == 1
        assert out[0].full_text == "solo"

    def test_multiple_blank_lines_are_one_boundary(self):
        out = split_article(Article("x", "T", "a\n\n\n\nb\n \nc"))
        assert [p.body for p in out] == ["a", "b", "c"]

    def test_deterministic(self):
        art = Article("id", "T", "one\n\ntwo\n\nthree")
        first = split_article(art)
        second = split_article(art)
        assert [p.para_id for p in first] == [p.para_id for p in second]
        assert first == second

    def test_roundtrip_reproduces_trimmed_body(self):
        rng = np.random.default_rng(7)
        words = ["alpha", "beta", "gamma", "delta"]
        for _ in range(200):
            blocks = [" ".join(words[int(rng.integers(4))]
                               for _ in range(int(rng.integers(1, 6))))
                      for _ in range(int(rng.integers(1, 6)))]
            body = "\n\n".join(blocks)
            out = split_article(Article("a", "T", body))
            assert "\n\n".join(p.body for p in out) == body.strip()

    def test_article_id_required(self):
        with pytest.raises(ValueError):
            Article("", "T", "body")


class TestTokenize:
    def test_case_folding_punctuation_and_stopwords(self):
        assert tokenize("The Quick, brown-fox!", {"the"}) == \
            ["quick", "brown", "fox"]

    def test_empty_string(self):
        assert tokenize("", DEFAULT_STOPWORDS) == []

    def test_stopwords_removed_case_insensitively(self):
        assert tokenize("the The THE", {"the"}) == []

    def test_underscore_is_a_separator(self):
        assert tokenize("foo_bar", frozenset()) == ["foo", "bar"]

    def test_idempotent_on_joined_output(self):
        rng = np.random.default_rng(11)
        alphabet = list("ab c-D._!7é")
        for _ in range(300):
            s = "".join(alphabet[int(rng.integers(len(alphabet)))]
                        for _ in range(int(rng.integers(0, 40))))
            once = tokenize(s, DEFAULT_STOPWORDS)
            again = tokenize(" ".join(once), DEFAULT_STOPWORDS)
            assert once == again

    def test_output_is_clean(self):
        rng = np.random.default_rng(13)
        alphabet = list("the cat! AND_or,bÉ 42")
        for _ in range(300):
            s = "".join(alphabet[int(rng.integers(len(alphabet)))]
                        for _ in range(int(rng.integers(0, 50))))
            for tok in tokenize(s, DEFAULT_STOPWORDS):
                assert tok, "empty token"
                assert tok == tok.lower(), f"uppercase survived: {tok!r}"
                assert tok not in DEFAULT_STOPWORDS

    def test_token_spans_offsets(self):
        text = "The Quick, brown-fox!"
        spans = token_spans(text)
        assert [t for t, _, _ in spans] == ["the", "quick", "brown", "fox"]
        for tok, start, end in spans:
            assert text[start:end].lower() == tok

    def test_segment_keeps_stopwords(self):
        assert segment("The cat") == ["the", "cat"]

    @settings(max_examples=500, deadline=None)
    @given(_unicode_text())
    @example("\u0130stanbul")  # "İ".lower() appends a combining mark
    @example("Stra\u00dfe \u1e9e \u03a3\u0391\u03a3 \ufb01ne \u2160")
    def test_segment_and_token_spans_agree(self, text):
        spans = token_spans(text)
        assert segment(text) == [token for token, _, _ in spans]
        for token, start, end in spans:
            assert text[start:end].lower() == token


class TestUtf8Errors:
    """Bytes that are not UTF-8 are a ValueError naming the file and the
    line of the first bad byte, whichever reader meets them."""

    @pytest.mark.parametrize("read", [
        lambda path: list(read_json_lines(path)),
        lambda path: read_questions(path),
        load_json_object,
        load_stopwords,
    ])
    def test_bad_byte_names_file_and_line(self, tmp_path, read):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b'{"a": 1}\n\n{"a": "\xc3\xa9\xff"}\n')
        with pytest.raises(ValueError, match=(
                f"^{path}:3: not valid UTF-8 \\(byte 0xff: invalid start "
                "byte\\)$")):
            read(path)

    def test_utf16_file_fails_on_its_first_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes('{"a": 1}\n'.encode("utf-16"))
        with pytest.raises(ValueError, match=f"^{path}:1: not valid UTF-8"):
            list(read_json_lines(path))


class TestStopwordFile:
    def test_load_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nthe\n\nAnd\n  of  \n", encoding="utf-8")
        assert load_stopwords(path) == {"the", "and", "of"}

    def test_default_list_is_the_classic_33(self):
        assert len(DEFAULT_STOPWORDS) == 33


class TestParagraphFiles:
    def test_roundtrip(self, tmp_path):
        paras = split_article(Article("a1", "Title", "one two\n\nthree"))
        path = tmp_path / "p.jsonl"
        assert write_records(paras, path) == 2
        assert list(read_records(Paragraph, path)) == paras

    def test_article_jsonl(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text(
            '{"article_id": "a", "title": "T", "body": "x"}\n\n'
            '{"article_id": "b", "title": "", "body": "y"}\n',
            encoding="utf-8")
        arts = list(read_records(Article, path))
        assert [a.article_id for a in arts] == ["a", "b"]

    @pytest.mark.parametrize("line, message", [
        ('{"article_id": "a", "title": "T"', "Expecting ',' delimiter"),
        ('["a", "T", "x"]', "not a JSON object"),
        ('"a"', "not a JSON object"),
        ('{"article_id": "a", "body": "x"}', "missing field 'title'"),
        ('{"article_id": "", "title": "T", "body": "x"}',
         "article_id must be non-empty"),
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, line,
                                                message):
        path = tmp_path / "a.jsonl"
        path.write_text('{"article_id": "a", "title": "T", "body": "x"}\n'
                        f"\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            list(read_records(Article, path))
        assert str(info.value).startswith(f"{path}:3: {message}")

    def test_rejected_label_names_file_and_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"question": "q", "para_id": "p#0", "text": "t", '
                        '"label": 2}\n', encoding="utf-8")
        with pytest.raises(ValueError,
                           match=f"^{path}:1: label must be 0 or 1, got 2$"):
            list(read_records(RankExample, path))

    @pytest.mark.parametrize("cls, line, message", [
        (Paragraph, '{"para_id": "p#0", "article_id": "a", "title": "", '
         '"body": 5, "position": 0}', "body: expected a string, got a number"),
        (Paragraph, '{"para_id": "p#0", "article_id": "a", "title": null, '
         '"body": "x", "position": 0}',
         "title: expected a string, got null"),
        (Paragraph, '{"para_id": "p#0", "article_id": "a", "title": "", '
         '"body": "x", "position": 0.0}',
         "position: expected an integer, got a number"),
        (Paragraph, '{"para_id": ["p#0"], "article_id": "a", "title": "", '
         '"body": "x", "position": true}',
         "para_id: expected a string, got an array"),
        (Article, '{"article_id": {}, "title": "T", "body": "x"}',
         "article_id: expected a string, got an object"),
        (RankExample, '{"question": "q", "para_id": "p#0", "text": "t", '
         '"label": true}', "label: expected an integer, got a boolean"),
        (RankExample, '{"question": "q", "para_id": "p#0", "text": "t", '
         '"label": "1"}', "label: expected an integer, got a string"),
    ])
    def test_value_of_another_type_names_file_and_line(self, tmp_path, cls,
                                                       line, message):
        path = tmp_path / "r.jsonl"
        path.write_text(f"\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{path}:2: {message}$"):
            list(read_records(cls, path))
        if cls is Paragraph:
            with pytest.raises(ValueError, match=f"^{path}:2: {message}$"):
                load_paragraph_map(path)

    def test_duplicate_para_id_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        rec = ('{"para_id": "p#0", "article_id": "a", "title": "",'
               ' "body": "x", "position": 0}\n')
        path.write_text(rec + rec, encoding="utf-8")
        with pytest.raises(ValueError, match="p#0"):
            load_paragraph_map(path)

    def test_paragraph_map_shares_article_strings(self, tmp_path):
        """An article's paragraphs hold one ``article_id`` and one
        ``title`` object, and are the paragraphs the file holds."""
        paras = [p for article in (Article("a", "Alpha", "x\n\ny\n\nz"),
                                   Article("b", "Beta", "u\n\nv"),
                                   Article("c", "", "w"))
                 for p in split_article(article)]
        path = tmp_path / "p.jsonl"
        write_records(paras[3:4] + paras[:3] + paras[4:], path)
        loaded = load_paragraph_map(path)
        assert loaded == {p.para_id: p for p in read_records(Paragraph, path)}
        for article in ("a", "b"):
            first, *rest = [p for p in loaded.values()
                            if p.article_id == article]
            assert rest
            for p in rest:
                assert p.article_id is first.article_id
                assert p.title is first.title

    def test_paragraph_has_no_instance_dict(self):
        p = Paragraph("a#0", "a", "Title", "body text", 0)
        assert not hasattr(p, "__dict__")
        with pytest.raises(AttributeError):
            p.title = "Other"

    def test_full_text_property(self):
        p = Paragraph("a#0", "a", "Title", "body text", 0)
        assert p.full_text == "Title\nbody text"
        q = Paragraph("a#1", "a", "", "body text", 1)
        assert q.full_text == "body text"


# -- record files: round trip and malformed lines ----------------------------

def _hand_written_line(record) -> str:
    """The JSONL line the hand-written writers produced (paragraphs, ranker
    datasets; articles, which had none, in their style): the oracle of the
    bytes ``write_records`` must keep."""
    if isinstance(record, Paragraph):
        rec = {"para_id": record.para_id, "article_id": record.article_id,
               "title": record.title, "body": record.body,
               "position": record.position}
    elif isinstance(record, RankExample):
        rec = {"question": record.question, "para_id": record.para_id,
               "text": record.text, "label": record.label}
    else:
        rec = {"article_id": record.article_id, "title": record.title,
               "body": record.body}
    return json.dumps(rec, ensure_ascii=False)


# Empty, long, and non-ASCII text, including characters JSON escapes and a
# line separator that JSON writes raw but the file reader must not split on.
_TEXT = st.one_of(
    st.text(),
    st.text(min_size=1, max_size=8).map(lambda t: t * 500),
    st.sampled_from(["", "\u0130stanbul", "\u65e5\u672c\u8a9e", "a\nb\r\nc",
                     "\u2028\u2029\x85\x0b", '"\\', "\x00\x1f"]))
_RECORDS = {
    Article: st.builds(Article, st.text(min_size=1), _TEXT, _TEXT),
    Paragraph: st.builds(Paragraph, _TEXT, _TEXT, _TEXT, _TEXT,
                         st.integers()),
    RankExample: st.builds(RankExample, _TEXT, _TEXT, _TEXT,
                           st.sampled_from([0, 1])),
}


@st.composite
def _record_file(draw):
    """A record type and one or more records of it."""
    cls = draw(st.sampled_from(list(_RECORDS)))
    return cls, draw(st.lists(_RECORDS[cls], min_size=1, max_size=4))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8)


class TestRecordFiles:
    @settings(max_examples=250, deadline=None)
    @given(_record_file())
    def test_roundtrip_keeps_records_and_bytes(self, tmp_path_factory,
                                               typed):
        cls, records = typed
        path = tmp_path_factory.mktemp("records") / "r.jsonl"
        assert write_records(records, path) == len(records)
        assert path.read_bytes() == "".join(
            _hand_written_line(r) + "\n" for r in records).encode("utf-8")
        assert list(read_records(cls, path)) == records

    @settings(max_examples=400, deadline=None)
    @given(_record_file(), st.data())
    def test_mutated_line_reads_same_or_names_it(self, tmp_path_factory,
                                                 typed, data):
        """One non-blank line replaced by arbitrary text, a JSON value
        that is not an object, the record without one field, or the record
        with extra keys in any order: reading gives the same records or a
        ValueError naming that line, never another exception."""
        cls, records = typed
        names = [f.name for f in dataclasses.fields(cls)]
        i = data.draw(st.integers(0, len(records) - 1))
        rec = json.loads(_hand_written_line(records[i]))
        mutation = data.draw(st.sampled_from(
            ["text", "non-object", "missing", "extra"]))
        if mutation == "text":
            chars = st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\r\n")
            line = data.draw(st.text(chars).filter(str.strip))
        elif mutation == "non-object":
            value = data.draw(_JSON_VALUES.filter(
                lambda v: not isinstance(v, dict)))
            line = json.dumps(value, ensure_ascii=data.draw(st.booleans()))
        elif mutation == "missing":
            del rec[data.draw(st.sampled_from(names))]
            line = json.dumps(rec, ensure_ascii=False)
        else:
            extra = data.draw(st.dictionaries(
                st.text().filter(lambda k: k not in names), _JSON_VALUES,
                min_size=1, max_size=3))
            items = data.draw(st.permutations(list({**rec, **extra}.items())))
            line = json.dumps(dict(items), ensure_ascii=False)
        lines = [_hand_written_line(r) for r in records]
        lines[i] = line
        path = tmp_path_factory.mktemp("records") / "r.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            got = list(read_records(cls, path))
        except ValueError as exc:
            assert mutation != "extra"
            assert str(exc).startswith(f"{path}:{i + 1}: ")
        else:
            assert mutation in ("text", "extra")
            assert got == records
