"""Every JSON input checks value types one way: a value of another JSON
type than its field's kind is one error naming the file, the line where
there is one, and the value's location (``body``, ``rm3.enabled``,
``data[0].paragraphs[0].qas[0].id``), as ``<location>: expected <kind>,
got <JSON type>``; a value of the right kind reads back as written."""

import copy
import json
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scorer_command
from mindstone import cli
from mindstone.corpus import Paragraph, read_records
from mindstone.errors import IndexBuildError, MalformedResponseError
from mindstone.eval import GoldRecord, convert_squad_v11, read_questions
from mindstone.index import InvertedIndex
from mindstone.pipeline import CONFIG_KEYS, PipelineConfig
from mindstone.scorers import BuiltinRankerModel
from mindstone.scorers.external import ExternalScorer

# A strategy for each JSON type, and the name an error gives that type
# (JSON has one number type).
_TYPES = {
    "null": (st.none(), "null"),
    "boolean": (st.booleans(), "a boolean"),
    "integer": (st.integers(-2**63, 2**63), "a number"),
    "float": (st.floats(allow_nan=False, allow_infinity=False), "a number"),
    "string": (st.text(max_size=8), "a string"),
    "array": (st.lists(st.integers(), max_size=2), "an array"),
    "object": (st.dictionaries(st.text(max_size=3), st.integers(),
                               max_size=2), "an object"),
}
# The JSON types each kind accepts: a boolean is never a number.
_ACCEPTS = {
    "a string": {"string"}, "an integer": {"integer"},
    "a number": {"integer", "float"}, "a boolean": {"boolean"},
    "an array": {"array"}, "an object": {"object"},
    "an integer or null": {"integer", "null"},
    "a string or null": {"string", "null"},
    "a string or an integer": {"string", "integer"},
}


def _others(data, kind: str):
    """(value, JSON type name) for a value of every JSON type that ``kind``
    does not accept."""
    for name in sorted(set(_TYPES) - _ACCEPTS[kind]):
        strategy, got = _TYPES[name]
        yield data.draw(strategy), got


def _location(path: tuple) -> str:
    """``("data", 0, "title")`` -> ``"data[0].title"``."""
    out = ""
    for step in path:
        out += f"[{step}]" if isinstance(step, int) else (
            f".{step}" if out else step)
    return out


def _replaced(doc, path: tuple, value):
    doc = copy.deepcopy(doc)
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


def _rejects_other_types(data, kind: str, load, error, prefix: str):
    """``load(value)`` raises ``error`` with the message ``<prefix>expected
    <kind>, got <type>`` for a value of each type ``kind`` does not
    accept."""
    for value, got in _others(data, kind):
        with pytest.raises(error) as info:
            load(value)
        assert str(info.value) == f"{prefix}expected {kind}, got {got}"


_TEXT = st.text(max_size=8)
_PARAGRAPH = {"para_id": "a#0", "article_id": "a", "title": "T",
              "body": "x", "position": 0}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_record(tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(_PARAGRAPH)))
    kind = "an integer" if name == "position" else "a string"
    path = tmp_path_factory.mktemp("records") / "p.jsonl"

    def load(value):
        path.write_text(json.dumps(_PARAGRAPH) + "\n\n"
                        + json.dumps({**_PARAGRAPH, name: value}) + "\n",
                        encoding="utf-8")
        return list(read_records(Paragraph, path))

    _rejects_other_types(data, kind, load, ValueError, f"{path}:3: {name}: ")
    value = data.draw(st.integers() if name == "position" else _TEXT)
    assert load(value)[1] == Paragraph(**{**_PARAGRAPH, name: value})


_QUESTION = {"qid": "q1", "question": "q?", "answers": ["a", "b"],
             "gold_article_id": "art", "gold_paragraph": "para"}
_QUESTION_FIELDS = [
    (("qid",), "a string or an integer", _TEXT | st.integers()),
    (("question",), "a string", _TEXT),
    (("answers",), "an array", st.lists(_TEXT, min_size=1, max_size=3)),
    (("answers", 1), "a string", _TEXT),
    (("gold_article_id",), "a string or null", st.none() | _TEXT),
    (("gold_paragraph",), "a string or null", st.none() | _TEXT),
]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_question_is_skipped_and_counted(tmp_path_factory, data):
    field, kind, right = data.draw(st.sampled_from(_QUESTION_FIELDS))
    path = tmp_path_factory.mktemp("questions") / "q.jsonl"
    good = GoldRecord("q1", "q?", ("a", "b"), "art", "para")

    def load(value):
        path.write_text(json.dumps(_QUESTION) + "\n"
                        + json.dumps(_replaced(_QUESTION, field, value))
                        + "\n", encoding="utf-8")
        return read_questions(path)

    for value, _ in _others(data, kind):
        assert load(value) == ([good], 1)
    value = data.draw(right)
    rec = _replaced(_QUESTION, field, value)
    assert load(value) == ([good, GoldRecord(
        str(rec["qid"]), rec["question"], tuple(rec["answers"]),
        rec["gold_article_id"], rec["gold_paragraph"])], 0)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_batch_question(tmp_path_factory, data):
    name = data.draw(st.sampled_from(["qid", "question"]))
    kind = "a string or an integer" if name == "qid" else "a string"
    path = tmp_path_factory.mktemp("batch") / "b.jsonl"
    line = {"qid": "q0", "question": "q?"}

    def load(value):
        path.write_text('{"question": "x"}\n'
                        + json.dumps({**line, name: value}) + "\n",
                        encoding="utf-8")
        return cli._read_batch_questions(str(path))

    _rejects_other_types(data, kind, load, ValueError, f"{path}:2: {name}: ")
    value = data.draw(_TEXT | st.integers() if name == "qid" else _TEXT)
    rec = {**line, name: value}
    assert load(value) == [("q0", "x"), (str(rec["qid"]), rec["question"])]


# A value of the right kind that the config accepts, per key; a fusion
# weight of 1 leaves the other two at 0.
_CONFIG_VALUES = {
    "n_retriever": st.integers(0, 1000),
    "read_fraction": st.floats(0.001, 1.0) | st.just(1),
    "n_reader": st.none() | st.integers(1, 100),
    "k_spans_per_paragraph": st.integers(1, 5),
    "rm3.enabled": st.booleans(),
    "rm3.alpha": st.floats(0.0, 1.0) | st.sampled_from([0, 1]),
    "rm3.terms": st.integers(0, 50),
    "rm3.second_pass_n": st.none() | st.integers(0, 100),
    "fusion.w_retriever": st.sampled_from([1, 1.0]),
    "fusion.w_ranker": st.sampled_from([1, 1.0]),
    "fusion.w_reader": st.sampled_from([1, 1.0]),
    "limits.ranker_para_tokens": st.integers(1, 1000),
    "limits.reader_total_tokens": st.integers(1, 1000),
}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_config(tmp_path_factory, data):
    key, attr, _, kind = data.draw(st.sampled_from(
        CONFIG_KEYS + tuple((section, None, None, "an object")
                            for section in ("rm3", "fusion", "limits"))))
    path = tmp_path_factory.mktemp("config") / "c.json"
    args = cli.build_parser().parse_args([
        "answer", "--index", "idx", "--paragraphs", "p.jsonl",
        "--config", str(path), "--question", "q"])
    base = PipelineConfig().to_dict()
    if key.startswith("fusion."):
        base["fusion"] = {"w_retriever": 0, "w_ranker": 0, "w_reader": 0}

    def load(value):
        path.write_text(json.dumps(_replaced(base, tuple(key.split(".")),
                                             value)), encoding="utf-8")
        return cli._load_config(args)

    _rejects_other_types(data, kind, load, ValueError, f"{path}: {key}: ")
    if attr is not None:
        value = data.draw(_CONFIG_VALUES[key])
        assert attrgetter(attr)(load(value)) == value


_MODEL = {"feature_weights": [0.5, -1, 0, 2.5, 0, 1e-3], "bias": -0.25,
          "feature_spec_version": 1}
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(
    -10**6, 10**6)
_MODEL_FIELDS = [
    (("feature_weights",), "an array", st.lists(_FINITE, min_size=6,
                                                max_size=6)),
    (("feature_weights", 4), "a number", _FINITE),
    (("bias",), "a number", _FINITE),
    (("feature_spec_version",), "an integer", st.just(1)),
]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_model(tmp_path_factory, data):
    field, kind, right = data.draw(st.sampled_from(_MODEL_FIELDS))
    path = tmp_path_factory.mktemp("model") / "m.json"

    def load(value):
        rec = _replaced(_MODEL, field, value)
        path.write_text(json.dumps(rec), encoding="utf-8")
        return rec, BuiltinRankerModel.load(path)

    _rejects_other_types(data, kind, load, ValueError,
                         f"{path}: {_location(field)}: ")
    rec, model = load(data.draw(right))
    assert model == BuiltinRankerModel(tuple(rec["feature_weights"]),
                                       rec["bias"], 1)


_INDEX_FIELDS = [
    ("manifest.json", ("format_version",), "an integer"),
    ("manifest.json", ("k1",), "a number"),
    ("manifest.json", ("b",), "a number"),
    ("manifest.json", ("build_checksum",), "a string"),
    ("strings.json", ("terms",), "an array"),
    ("strings.json", ("terms", 2), "a string"),
    ("strings.json", ("doc_ids",), "an array"),
    ("strings.json", ("doc_ids", 0), "a string"),
    ("strings.json", ("stopwords",), "an array"),
    ("strings.json", ("stopwords", 5), "a string"),
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_index_files(tmp_path_factory, f1_index, data):
    name, field, kind = data.draw(st.sampled_from(_INDEX_FIELDS))
    directory = tmp_path_factory.mktemp("index")
    f1_index.save(directory)
    path = directory / name
    saved = json.loads(path.read_text("utf-8"))

    def load(value):
        path.write_text(json.dumps(_replaced(saved, field, value)),
                        encoding="utf-8")
        return InvertedIndex.load(directory)

    _rejects_other_types(data, kind, load, IndexBuildError,
                         f"{path}: {_location(field)}: ")
    value = saved
    for step in field:
        value = value[step]
    assert load(value).build_checksum == f1_index.build_checksum


_SQUAD = {"data": [{"title": "T", "paragraphs": [{"context": "c d", "qas": [
    {"id": "q1", "question": "q?", "answers": [{"text": "d"}]}]}]}]}
_QA = ("data", 0, "paragraphs", 0, "qas", 0)
_SQUAD_FIELDS = [
    (("data",), "an array"), (("data", 0), "an object"),
    (("data", 0, "title"), "a string"),
    (("data", 0, "paragraphs"), "an array"),
    (_QA[:4], "an object"), (_QA[:4] + ("context",), "a string"),
    (_QA[:5], "an array"), (_QA, "an object"),
    (_QA + ("id",), "a string or an integer"),
    (_QA + ("question",), "a string"), (_QA + ("answers",), "an array"),
    (_QA + ("answers", 0), "an object"),
    (_QA + ("answers", 0, "text"), "a string"),
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_squad(tmp_path_factory, data):
    field, kind = data.draw(st.sampled_from(_SQUAD_FIELDS))
    path = tmp_path_factory.mktemp("squad") / "s.json"

    def load(value):
        path.write_text(json.dumps(_replaced(_SQUAD, field, value)),
                        encoding="utf-8")
        return convert_squad_v11(path)

    _rejects_other_types(data, kind, load, ValueError,
                         f"{path}: {_location(field)}: ")
    if kind in ("a string", "a string or an integer"):
        value = data.draw(st.text(min_size=1, max_size=8))
        articles, records = load(value)
        doc = _replaced(_SQUAD, field, value)
        entry = doc["data"][0]
        qa = entry["paragraphs"][0]["qas"][0]
        assert articles[0].title == entry["title"]
        assert records == [GoldRecord(
            qa["id"], qa["question"], (qa["answers"][0]["text"],),
            entry["title"], entry["paragraphs"][0]["context"])]


# Answers every request with the reply its question holds, under its id.
_MIRROR = scorer_command("json.loads(req['question'])")
_RANK_BATCH_RESULT = {"type": "rank_batch_result", "scores": [0.5]}
_READ_BATCH_RESULT = {"type": "read_batch_result",
                      "spans": [[{"start": 0, "end": 3, "score": 1.5}]]}
_REPLY_FIELDS = [
    (_RANK_BATCH_RESULT, ("scores",), "an array", None),
    (_RANK_BATCH_RESULT, ("scores", 0), "a number", _FINITE),
    (_READ_BATCH_RESULT, ("spans",), "an array", None),
    (_READ_BATCH_RESULT, ("spans", 0), "an array", None),
    (_READ_BATCH_RESULT, ("spans", 0, 0), "an object", None),
    (_READ_BATCH_RESULT, ("spans", 0, 0, "start"), "an integer",
     st.integers(0, 99)),
    (_READ_BATCH_RESULT, ("spans", 0, 0, "end"), "an integer",
     st.integers(0, 99)),
    (_READ_BATCH_RESULT, ("spans", 0, 0, "score"), "a number", _FINITE),
]


@pytest.fixture(scope="module")
def mirror():
    with ExternalScorer(_MIRROR, "rank") as ranker, \
            ExternalScorer(_MIRROR, "read") as reader:
        yield ranker, reader


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scorer_reply(mirror, data):
    base, field, kind, right = data.draw(st.sampled_from(_REPLY_FIELDS))
    ranker, reader = mirror

    def load(value):
        reply = json.dumps(_replaced(base, field, value))
        if base is _RANK_BATCH_RESULT:
            return ranker.rank_pool(reply, ["p"], ["text"])
        return reader.read_pool(reply, ["p"], ["text"], 1)

    for value, got in _others(data, kind):
        with pytest.raises(MalformedResponseError) as info:
            load(value)
        assert str(info.value).startswith(
            f"{_location(field)}: expected {kind}, got {got}: ")
    # A well-framed reply of the wrong type keeps the handle.
    assert not ranker._closed and not reader._closed
    if right is not None:
        value = data.draw(right)
        if base is _RANK_BATCH_RESULT:
            assert load(value) == [float(value)]
        else:
            span = _replaced(base, field, value)["spans"][0][0]
            assert load(value) == [
                [(span["start"], span["end"], float(span["score"]))]]
