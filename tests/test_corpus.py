"""Article splitting, tokenization, and corpus file formats."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mindstone.corpus import (DEFAULT_STOPWORDS, Article, Paragraph,
                              load_paragraph_map, load_stopwords,
                              read_articles, read_paragraphs, segment,
                              split_article, token_spans, tokenize,
                              write_paragraphs)


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
        assert write_paragraphs(paras, path) == 2
        assert list(read_paragraphs(path)) == paras

    def test_article_jsonl(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text(
            '{"article_id": "a", "title": "T", "body": "x"}\n\n'
            '{"article_id": "b", "title": "", "body": "y"}\n',
            encoding="utf-8")
        arts = list(read_articles(path))
        assert [a.article_id for a in arts] == ["a", "b"]

    def test_duplicate_para_id_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        rec = ('{"para_id": "p#0", "article_id": "a", "title": "",'
               ' "body": "x", "position": 0}\n')
        path.write_text(rec + rec, encoding="utf-8")
        with pytest.raises(ValueError, match="p#0"):
            load_paragraph_map(path)

    def test_full_text_property(self):
        p = Paragraph("a#0", "a", "Title", "body text", 0)
        assert p.full_text == "Title\nbody text"
        q = Paragraph("a#1", "a", "", "body text", 1)
        assert q.full_text == "body text"
