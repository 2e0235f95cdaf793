"""External scorer wire protocol: handshake, request/response, failures."""

import gc
import importlib.util
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mindstone
from conftest import scorer_command
from mindstone import scorers
from mindstone.corpus import Paragraph
from mindstone.errors import (HandshakeTimeoutError, MalformedResponseError,
                              MindstoneError, ScorerExitError,
                              ScorerProtocolError, StageError)
from mindstone.scorers import datasets, rank, read
from mindstone.scorers.external import ExternalScorer, ScorerPool

ECHO = [sys.executable, "-m", "mindstone.scorers.echo_scorer"]


def py_script(body: str) -> list[str]:
    return [sys.executable, "-c", body]


@pytest.fixture
def spawned(monkeypatch):
    """Every process started through subprocess.Popen during the test."""
    procs = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        procs.append(popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", spy)
    return procs


class TestEchoScorer:
    def test_handshake_and_constant_rank(self):
        with ExternalScorer(ECHO + ["--rank-score", "0.25"],
                            "rank") as scorer:
            assert scorer.hello["protocol"] == 2
            assert scorer.rank_pool("question", ["p"],
                                    ["paragraph text"]) == [0.25]
            assert scorer.rank_pool("q", ["a", "b"], ["x", "y z"]) == [
                0.25, 0.25]

    def test_read_returns_whole_text_span(self):
        with ExternalScorer(ECHO, "read") as scorer:
            spans = scorer.read_pool("q", ["p", "r"],
                                     ["some paragraph", "x"], k=2)
            assert spans == [[(0, len("some paragraph"), 1.0)],
                             [(0, 1, 1.0)]]

    def test_refuses_other_requests(self):
        from mindstone.scorers import echo_scorer
        req = {"type": "summarise", "id": "4", "question": "q",
               "texts": ["t"]}
        assert echo_scorer.reply(req, 1.0) == {
            "type": "error", "id": "4",
            "message": "unknown request type 'summarise'"}

    def test_dispatch_through_stage_functions(self, f2_paragraphs):
        para = next(iter(f2_paragraphs.values()))
        with ExternalScorer(ECHO + ["--rank-score", "2.0"],
                            "rank") as ranker:
            assert rank(ranker, "q", [para]).tolist() == [2.0]
        with ExternalScorer(ECHO, "read") as reader:
            [spans] = read(reader, "q", [para], k=1)
            assert spans[0].text == para.full_text


class TestLightImports:
    """Every scorer spawn pays for its imports, so the package ``__init__``s
    stay numpy-free; and the cascade tracer patches the stage functions
    through the modules' ``__dict__``, so the lazy names must not hide
    them."""

    def test_echo_scorer_imports_no_numpy(self):
        src = os.path.dirname(os.path.dirname(mindstone.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-c", "import sys, mindstone.scorers.echo_scorer"
             "; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'numpy'))"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_stage_functions_are_module_entries(self):
        for name in ("rank", "read", "truncate_to_tokens"):
            assert name in vars(scorers), name
        assert vars(datasets)["rank"] is scorers.rank

    def test_benchmark_tracer_targets_stay_patchable(self):
        # The benchmark's tracer replaces each (owner, attribute) it lists
        # in the owner's own namespace, and probes a reader pool's spawn
        # with one ``read_text``.
        path = Path(__file__).resolve().parents[1] / "cascadebench/tracer.py"
        spec = importlib.util.spec_from_file_location("_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for owner, attr, *_ in tracer.layer_targets():
            assert attr in vars(owner), (owner, attr)
        text = "a probe paragraph"
        with ScorerPool(ECHO, "read") as pool:
            assert pool.read_text("probe", text, 1) == [(0, len(text), 1.0)]

    def test_all_resolves_to_submodule_objects(self):
        for name in scorers.__all__:
            obj = getattr(scorers, name)
            home = importlib.import_module(obj.__module__)
            assert getattr(home, name) is obj, name
        with pytest.raises(AttributeError):
            scorers.NoSuchScorer


class TestFailureModes:
    def test_immediate_exit_is_exit_error(self, spawned):
        with pytest.raises(ScorerExitError):
            ExternalScorer(py_script("import sys; sys.exit(3)"), "rank",
                           timeout=10)
        assert spawned[0].stdout.closed

    def test_invalid_hello_line_names_offender(self):
        script = py_script("print('this is not json', flush=True); "
                           "import time; time.sleep(2)")
        with pytest.raises(MalformedResponseError, match="not json"):
            ExternalScorer(script, "rank", timeout=10)

    def test_handshake_timeout(self, spawned):
        script = py_script("import time; time.sleep(5)")
        with pytest.raises(HandshakeTimeoutError):
            ExternalScorer(script, "rank", timeout=0.3)
        assert spawned[0].stdout.closed
        assert spawned[0].returncode is not None

    def test_role_not_offered(self):
        with pytest.raises(MalformedResponseError, match="read"):
            ExternalScorer(ECHO + ["--roles", "rank"], "read")

    def test_error_response_becomes_stage_error(self, f2_paragraphs):
        script = scorer_command("{'type':'error','message':'model exploded'}")
        para = next(iter(f2_paragraphs.values()))
        with ExternalScorer(script, "rank") as scorer:
            # The handle raises the scorer's message, which is no protocol
            # fault, so the handle stays usable; the rank stage labels it.
            for _ in range(2):
                with pytest.raises(MindstoneError,
                                   match=r"^model exploded$") as info:
                    scorer.rank_pool("q", ["p"], ["t"])
                assert type(info.value) is MindstoneError
            assert not scorer._closed
            with pytest.raises(StageError,
                               match=r"^\[rank\] model exploded$"):
                rank(scorer, "q", [para])

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_is_stage_error(self, f2_paragraphs, score):
        # The reply carries NaN or Infinity, which json.loads accepts.
        para = next(iter(f2_paragraphs.values()))
        with ExternalScorer(ECHO + [f"--rank-score={score}"],
                            "rank") as ranker:
            with pytest.raises(StageError, match=rf"\[rank\] non-finite "
                                                 rf"score {score} for "
                                                 rf"{para.para_id}"):
                rank(ranker, "q", [para])

    @pytest.mark.parametrize("role", ["rank", "read"])
    def test_protocol_fault_in_pipeline_names_stage(self, role, f2_index,
                                                    f2_paragraphs, f2_records,
                                                    trained_ranker,
                                                    f2_reader):
        from mindstone.pipeline import Pipeline, PipelineConfig
        script = ECHO + ["--roles", role, "--garbage-after", "0"]
        with ScorerPool(script, role, timeout=10) as pool:
            ranker, reader = ((pool, f2_reader) if role == "rank"
                              else (trained_ranker, pool))
            pipe = Pipeline(f2_index, f2_paragraphs, ranker, reader,
                            PipelineConfig(n_retriever=5))
            result = pipe.answer_or_error(f2_records[0].question)
        assert result.error.startswith(f"[{role}] ")
        assert "response is not valid JSON: 'not json" in result.error

    def test_id_mismatch_is_malformed(self):
        script = scorer_command(
            "{'type':'rank_batch_result','id':'bogus','scores':[1.0]}")
        with ExternalScorer(script, "rank") as scorer:
            with pytest.raises(MalformedResponseError, match="bogus"):
                scorer.rank_pool("q", ["p"], ["t"])
            # The channel is out of step: the scorer is killed and closed.
            assert scorer._proc.returncode is not None
            with pytest.raises(ScorerProtocolError, match="closed"):
                scorer.rank_pool("q", ["p"], ["t"])

    @pytest.mark.parametrize("protocol", [1, 3])
    def test_wrong_protocol_version(self, protocol):
        script = py_script(
            "import json; print(json.dumps({'type':'hello','protocol':"
            f"{protocol},'roles':['rank']}}), flush=True)")
        with pytest.raises(MalformedResponseError,
                           match=f"^unsupported protocol {protocol}: "):
            ExternalScorer(script, "rank")

    @pytest.mark.parametrize("hello, message", [
        ({"protocol": True, "roles": ["rank"]},
         "protocol: expected an integer, got a boolean"),
        ({"protocol": 2, "roles": "rank,read"},
         "roles: expected an array, got a string"),
        ({"protocol": 2, "roles": ["rank", 2]},
         "roles[1]: expected a string, got a number"),
    ])
    def test_hello_of_another_type_is_malformed(self, hello, message):
        script = py_script(
            "import json; print(json.dumps("
            f"{dict(hello, type='hello')!r}), flush=True)")
        with pytest.raises(MalformedResponseError,
                           match="^" + re.escape(f"{message}: ")):
            ExternalScorer(script, "rank", timeout=10)

    @pytest.mark.parametrize("role, reply, message", [
        ("rank", {"scores": ["0.5"]},
         "scores[0]: expected a number, got a string"),
        ("rank", {"scores": [True]},
         "scores[0]: expected a number, got a boolean"),
        ("read", {"spans": [[{"start": 0.9, "end": 5, "score": 1.0}]]},
         "spans[0][0].start: expected an integer, got a number"),
        ("read", {"spans": [[{"start": 0, "end": "5", "score": 1.0}]]},
         "spans[0][0].end: expected an integer, got a string"),
        ("read", {"spans": [[{"start": 0, "end": 5, "score": None}]]},
         "spans[0][0].score: expected a number, got null"),
        ("read", {"spans": [[{"start": 0, "end": 5}]]},
         "spans[0][0]: missing field 'score'"),
    ])
    def test_reply_of_another_type_is_malformed(self, role, reply, message):
        reply = dict(reply, type=f"{role}_batch_result")
        with ExternalScorer(scorer_command(repr(reply)), role) as scorer:
            # The reply is well framed: the handle stays usable.
            for _ in range(2):
                with pytest.raises(MalformedResponseError,
                                   match="^" + re.escape(f"{message}: ")):
                    if role == "rank":
                        scorer.rank_pool("q", ["p"], ["text"])
                    else:
                        scorer.read_pool("q", ["p"], ["text"], 1)
            assert scorer._proc.poll() is None

    def test_death_mid_stream_is_exit_error(self):
        scorer = ExternalScorer(ECHO + ["--exit-after", "0"], "rank")
        with pytest.raises(ScorerExitError, match=r"\(exit code 3\)"):
            scorer.rank_pool("q", ["p"], ["t"])
        assert scorer._closed

    def test_close_is_idempotent(self):
        scorer = ExternalScorer(ECHO, "rank")
        scorer.close()
        scorer.close()
        assert scorer._proc.stdout.closed

    def test_dropped_handle_stops_scorer(self):
        scorer = ExternalScorer(ECHO, "rank")
        proc = scorer._proc
        del scorer
        gc.collect()
        assert proc.returncode is not None
        assert proc.stdout.closed

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            ExternalScorer(ECHO, "juggle")


class ThreadRecordingPool(ScorerPool):
    """A ScorerPool that notes which threads call it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.threads = set()

    def rank_pool(self, question, para_ids, texts):
        self.threads.add(threading.get_ident())
        return super().rank_pool(question, para_ids, texts)


class TestScorerPool:
    @pytest.mark.parametrize("role, reply, message", [
        ("rank", "{'type':'rank_batch_result','scores':[]}",
         "not enough values to unpack"),
        ("read", "{'type':'read_batch_result','spans':[[],[]]}",
         "too many values to unpack"),
    ])
    def test_one_text_call_wants_one_result(self, role, reply, message):
        with ScorerPool(scorer_command(reply), role) as pool:
            with pytest.raises(ValueError, match=message):
                if role == "rank":
                    pool.rank_text("q", "text")
                else:
                    pool.read_text("q", "text", 1)

    def test_timed_out_handle_is_replaced(self, spawned, tmp_path):
        # Only the first request of all sleeps past the timeout; the score
        # is the text's length, so a late reply to it would show.
        flag = str(tmp_path / "slept")
        script = scorer_command(
            "{'type':'rank_batch_result',"
            "'scores':[len(text) for text in req['texts']]}",
            each=f"if not os.path.exists({flag!r}):\n"
                 f"    open({flag!r}, 'w').close()\n"
                 "    time.sleep(3)")
        with ScorerPool(script, "rank", timeout=1.0) as pool:
            with pytest.raises(ScorerProtocolError, match="no response"):
                pool.rank_pool("q", ["p"], ["slow"])
            assert spawned[0].returncode is not None
            assert pool.rank_pool("q", ["p", "r"], ["second text", "x"]) == [
                len("second text"), 1]
            assert pool.rank_pool("q", ["p"], ["third"]) == [len("third")]
            assert len(spawned) == 2

    def test_parallel_batch_through_pool(self, f2_index, f2_paragraphs,
                                         f2_records, f2_reader):
        from mindstone.pipeline import (Pipeline, PipelineConfig,
                                        answer_record, usable_cpus)
        with ThreadRecordingPool(ECHO + ["--rank-score", "1.0"],
                                 "rank") as pool:
            pipe = Pipeline(f2_index, f2_paragraphs, pool, f2_reader,
                            PipelineConfig(n_retriever=10))
            questions = [r.question for r in f2_records[:8]]
            serial = [pipe.answer(q) for q in questions]
            pool.threads.clear()
            batch = pipe.answer_batch(questions)
            if usable_cpus() > 1:
                assert threading.get_ident() not in pool.threads
            assert [answer_record(f"q{i}", r)["answers"]
                    for i, r in enumerate(batch)] == \
                [answer_record(f"q{i}", r)["answers"]
                 for i, r in enumerate(serial)]
            assert [r.ranked for r in batch] == [r.ranked for r in serial]

    def test_repeated_parallel_batches_reuse_handles(self, f2_index,
                                                    f2_paragraphs,
                                                    f2_records, f2_reader,
                                                    spawned):
        from mindstone.pipeline import Pipeline, PipelineConfig, usable_cpus
        with ScorerPool(ECHO + ["--rank-score", "1.0"], "rank") as pool:
            pipe = Pipeline(f2_index, f2_paragraphs, pool, f2_reader,
                            PipelineConfig(n_retriever=10))
            questions = [r.question for r in f2_records[:8]]
            serial = [pipe.answer(q).answers for q in questions]
            for _ in range(3):
                batch = pipe.answer_batch(questions)
                assert [r.answers for r in batch] == serial
            assert 1 <= len(spawned) <= min(usable_cpus(), len(questions))

    def test_one_usable_cpu_batches_serially(self, f2_index, f2_paragraphs,
                                             f2_records, f2_reader, spawned,
                                             monkeypatch):
        from mindstone.pipeline import Pipeline, PipelineConfig
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        with ThreadRecordingPool(ECHO + ["--rank-score", "1.0"],
                                 "rank") as pool:
            pipe = Pipeline(f2_index, f2_paragraphs, pool, f2_reader,
                            PipelineConfig(n_retriever=10))
            pipe.answer_batch([r.question for r in f2_records[:8]])
            assert pool.threads == {threading.get_ident()}
            assert len(spawned) == 1


# Set-up of a scorer that frames every line it sends as sys.argv[2] says:
# "whole" (one write), "bytes" (one flushed write per byte) or "split" (two
# flushed writes, cut inside the emoji if the line has one). With "joined"
# the hello and the reply to request "0" go out in one write, before the
# host sends that request. The reply to question "fail" is an error.
FRAMED = r"""
role, framing = sys.argv[1:]
EMOJI = "\U0001F600".encode()

def reply(req):
    if req["question"] == "fail":
        return {"type": "error", "message": "café \U0001F600"}
    if role == "rank":
        return {"type": "rank_batch_result",
                "scores": [len(text) for text in req["texts"]]}
    return {"type": "read_batch_result",
            "spans": [[{"start": 0, "end": len(text), "score": 1.0}]
                      for text in req["texts"]]}

def line(obj):
    return (json.dumps(obj, ensure_ascii=False) + "\n").encode()

def write(data):
    cut = data.find(EMOJI) + 2 if EMOJI in data else len(data) // 2
    pieces = {"bytes": [data[i:i + 1] for i in range(len(data))],
              "split": [data[:cut], data[cut:]]}.get(framing, [data])
    for piece in pieces:
        sys.stdout.buffer.write(piece)
        sys.stdout.buffer.flush()
        time.sleep(0.001)

sent = 0

def send(obj):
    global sent
    sent += 1
    if framing != "joined" or sent > 2:
        write(line(obj))
    elif sent == 1:  # the hello, then the reply to request "0" unasked
        write(line(obj) + line(dict(reply({"question": "q",
                                           "texts": ["some text"]}),
                                    id="0")))
"""


class TestReplyFraming:
    @pytest.mark.parametrize("framing", ["whole", "bytes", "joined",
                                         "split"])
    @pytest.mark.parametrize("role", ["rank", "read"])
    def test_framing_gives_the_whole_line_result(self, role, framing):
        script = scorer_command("reply(req)", roles=[role], setup=FRAMED)
        with ExternalScorer(script + [role, framing], role,
                            timeout=10) as scorer:
            assert scorer.hello == {"type": "hello", "protocol": 2,
                                    "roles": [role]}

            def call(question, text):
                if role == "rank":
                    return scorer.rank_pool(question, ["p"], [text])
                return scorer.read_pool(question, ["p"], [text], 1)

            assert call("q", "some text") == (
                [9.0] if role == "rank" else [[(0, 9, 1.0)]])
            with pytest.raises(MindstoneError, match="^café \U0001F600$"):
                call("fail", "t")
            assert call("q", "other") == (
                [5.0] if role == "rank" else [[(0, 5, 1.0)]])
            assert scorer._proc.poll() is None


class TestReaderFaults:
    @pytest.mark.parametrize("when", ["hello", "reply"])
    def test_non_utf8_line_is_malformed_at_once(self, spawned, when):
        # The default 30 s timeout: the bytes fail the call, not the clock.
        junk = "sys.stdout.buffer.write(b'\\xff\\xfe junk\\n'); " \
               "sys.stdout.flush(); time.sleep(60)"
        if when == "hello":
            script = py_script("import sys, time\n" + junk)
        else:
            script = scorer_command(each=junk)
        start = time.monotonic()
        with pytest.raises(MalformedResponseError,
                           match=re.escape(r"not UTF-8: b'\xff\xfe junk'")):
            scorer = ExternalScorer(script, "rank")
            start = time.monotonic()
            scorer.rank_pool("q", ["p"], ["t"])
        assert time.monotonic() - start < 1.0
        assert spawned[0].returncode is not None
        assert spawned[0].stdout.closed
        if when == "reply":
            assert scorer._closed

    def test_closed_stdout_is_exit_error_within_timeout(self, spawned):
        # The scorer outlives its stdout: it is killed at the deadline.
        script = scorer_command(each="os.close(1)\ntime.sleep(10)")
        scorer = ExternalScorer(script, "rank", timeout=2.0)
        start = time.monotonic()
        with pytest.raises(ScorerExitError) as info:
            scorer.rank_pool("q", ["p"], ["t"])
        assert time.monotonic() - start < 4.0
        assert "closed its stdout (exit code None)" in str(info.value)
        assert spawned[0].returncode is not None
        assert scorer._closed and spawned[0].stdout.closed

    def test_close_with_grandchild_holding_stdout(self):
        # The grandchild inherits the scorer's stdout and outlives it.
        script = scorer_command(
            setup="import subprocess\n"
                  "child = subprocess.Popen([sys.executable, '-c', "
                  "'import time; time.sleep(30)'])",
            hello="{'pid': child.pid}")
        scorer = ExternalScorer(script, "rank")
        try:
            start = time.monotonic()
            scorer.close()
            assert time.monotonic() - start < 1.0
            assert scorer._proc.stdout.closed
        finally:
            os.kill(scorer.hello["pid"], signal.SIGKILL)


class TestBatchReplies:
    PARAS = [Paragraph("p#0", "a", "", "first body", 0),
             Paragraph("p#1", "a", "", "second body", 1)]

    def test_pool_calls_match_per_text_calls(self):
        ids, texts = ["a", "b", "c"], ["some paragraph", "x", "a longer text"]
        with ExternalScorer(ECHO + ["--rank-score", "0.5"], "read") as s:
            spans = s.read_pool("q", ids, texts, 1)
            assert spans == [s.read_pool("q", [pid], [text], 1)[0]
                             for pid, text in zip(ids, texts)]
            assert s.rank_pool("q", ids, texts) == [0.5] * 3
            # One request per pool.
            assert s._next_id == 2 + len(texts)

    @pytest.mark.parametrize("stage, reply, message", [
        ("read", "{'type':'read_batch_result','spans':[[]]}",
         "reader returned 1 span lists for 2 paragraphs"),
        ("rank", "{'type':'rank_batch_result','scores':[1.0]}",
         "ranker returned scores of shape (1,) for 2 paragraphs"),
        ("read", "{'type':'error','message':'model exploded'}",
         "p#0, p#1: model exploded"),
        ("read", "{'type':'read_batch_result','spans':"
                 "[[{'start':0,'end':5,'score':1.0}],"
                 "[{'start':0,'end':99,'score':1.0}]]}",
         "p#1: span [0, 99) outside the truncated text"),
        ("read", "{'type':'read_batch_result','spans':"
                 "[[{'start':0,'end':5,'score':1.0}], []]}",
         "p#1: scorer returned no spans"),
    ], ids=["span list count", "score count", "error reply", "overlong",
            "no spans"])
    def test_refused_batch_reply_keeps_the_handle(self, stage, reply,
                                                  message):
        with ExternalScorer(scorer_command(reply), stage) as scorer:
            for _ in range(2):
                with pytest.raises(StageError) as info:
                    if stage == "rank":
                        rank(scorer, "q", self.PARAS)
                    else:
                        read(scorer, "q", self.PARAS, k=1)
                assert str(info.value) == f"[{stage}] {message}"
            assert not scorer._closed and scorer._proc.poll() is None


class TestEchoFaultFlags:
    """``echo_scorer`` breaks after answering N requests: it hangs, replies
    garbage or exits."""

    @pytest.mark.parametrize("fault, error, message", [
        ("--hang-after", ScorerProtocolError, "no response from scorer"),
        ("--garbage-after", MalformedResponseError,
         "response is not valid JSON: 'not json'"),
        ("--exit-after", ScorerExitError, r"\(exit code 3\)"),
    ])
    def test_fault_after_n_requests(self, spawned, fault, error, message):
        scorer = ExternalScorer(ECHO + [fault, "2"], "read", timeout=1.0)
        for text in ("one", "two"):
            assert scorer.read_pool("q", ["p"], [text], 1) == [
                [(0, len(text), 1.0)]]
        with pytest.raises(error, match=message):
            scorer.read_pool("q", ["p"], ["three"], 1)
        assert scorer._closed
        assert spawned[0].returncode is not None


class TestRoundTrips:
    """Requests per F2 question, counted on the handle: one per stage."""

    def test_read_requests_per_question(self, f2_index, f2_paragraphs,
                                        f2_records, trained_ranker,
                                        f2_reader):
        from mindstone.pipeline import Pipeline, PipelineConfig
        config = PipelineConfig()
        builtin = Pipeline(f2_index, f2_paragraphs, trained_ranker,
                           f2_reader, config)
        with ExternalScorer(ECHO, "read") as reader:
            pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker,
                            reader, config)
            for record in f2_records[:10]:
                before = reader._next_id
                result = pipe.answer(record.question)
                assert result.trace.counts["read"] == 3
                assert reader._next_id - before == 1
                # The echo reader reads each whole (truncated) text.
                assert result.ranked == builtin.answer(
                    record.question).ranked
                assert {a.answer_text for a in result.answers} == {
                    f2_paragraphs[pid].full_text
                    for pid, _ in result.ranked[:3]}

    @pytest.mark.parametrize("rm3", [False, True])
    def test_one_rank_batch_per_pool(self, rm3, f2_index, f2_paragraphs,
                                     f2_records, f2_reader):
        from mindstone.pipeline import Pipeline, PipelineConfig
        config = PipelineConfig(n_retriever=20, rm3_enabled=rm3)
        with ExternalScorer(ECHO, "rank") as ranker:
            pipe = Pipeline(f2_index, f2_paragraphs, ranker, f2_reader,
                            config)
            for record in f2_records[:10]:
                before = ranker._next_id
                result = pipe.answer(record.question)
                pools = 1 + (result.trace.counts["rm3_added"] > 0)
                assert ranker._next_id - before == pools


def _fault_free_answers(f2_index, f2_paragraphs, ranker, questions):
    from mindstone.pipeline import Pipeline, PipelineConfig
    with ScorerPool(ECHO, "read") as reader:
        pipe = Pipeline(f2_index, f2_paragraphs, ranker, reader,
                        PipelineConfig(n_retriever=20, n_reader=3))
        return [r.answers for r in pipe.answer_batch(questions)]


_SCHEDULES = st.fixed_dictionaries({}, optional={
    "--hang-after": st.integers(0, 6),
    "--garbage-after": st.integers(0, 6),
    "--exit-after": st.integers(0, 6),
})


@settings(max_examples=20, deadline=None)
@given(schedule=_SCHEDULES,
       picks=st.lists(st.integers(0, 7), min_size=1, max_size=4))
def test_fault_schedules_fail_only_read(f2_index, f2_paragraphs, f2_records,
                                        trained_ranker, schedule, picks):
    """Random fault schedules through a ScorerPool reader: every question
    gets its fault-free answer or a ``[read]`` error, never another
    request's reply (which would change the whole-text spans or fail the
    id check), and every scorer spawned is stopped with its pipes closed."""
    from unittest import mock

    from mindstone.pipeline import Pipeline, PipelineConfig
    questions = [f2_records[i].question for i in picks]
    want = _fault_free_answers(f2_index, f2_paragraphs, trained_ranker,
                               questions)
    procs = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        procs.append(popen(*args, **kwargs))
        return procs[-1]

    flags = [str(v) for flag, n in schedule.items() for v in (flag, n)]
    with mock.patch.object(subprocess, "Popen", spy):
        # The timeout also bounds each spawn's hello, so it leaves room
        # for a slow spawn on a busy host.
        with ScorerPool(ECHO + flags, "read", timeout=1.0) as reader:
            pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, reader,
                            PipelineConfig(n_retriever=20, n_reader=3))
            results = pipe.answer_batch(questions)
    for result, answers in zip(results, want):
        if result.error is None:
            assert result.answers == answers
        else:
            assert result.error.startswith("[read] "), result.error
    if not schedule:
        assert all(r.error is None for r in results)
    assert procs and all(p.returncode is not None and p.stdout.closed
                         and p.stdin.closed for p in procs)
