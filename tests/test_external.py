"""External scorer wire protocol: handshake, request/response, failures."""

import gc
import importlib
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

import mindstone
from mindstone import scorers
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
            assert scorer.hello["protocol"] == 1
            assert scorer.rank_text("question", "paragraph text") == 0.25
            assert scorer.rank_text("another", "text") == 0.25

    def test_read_returns_whole_text_span(self):
        with ExternalScorer(ECHO, "read") as scorer:
            spans = scorer.read_text("q", "some paragraph", k=2)
            assert spans == [(0, len("some paragraph"), 1.0)]

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
        script = py_script(
            "import sys, json\n"
            "print(json.dumps({'type':'hello','protocol':1,"
            "'roles':['rank']}), flush=True)\n"
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            "    print(json.dumps({'type':'error','id':req['id'],"
            "'message':'model exploded'}), flush=True)\n")
        para = next(iter(f2_paragraphs.values()))
        with ExternalScorer(script, "rank") as scorer:
            # The handle raises the scorer's message, which is no protocol
            # fault, so the handle stays usable; the rank stage labels it.
            for _ in range(2):
                with pytest.raises(MindstoneError,
                                   match=r"^model exploded$") as info:
                    scorer.rank_text("q", "t")
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
        script = py_script(
            "import sys, json\n"
            "print(json.dumps({'type':'hello','protocol':1,"
            f"'roles':['{role}']}}), flush=True)\n"
            "for line in sys.stdin:\n"
            "    print('not json', flush=True)\n")
        with ScorerPool(script, role, timeout=10) as pool:
            ranker, reader = ((pool, f2_reader) if role == "rank"
                              else (trained_ranker, pool))
            pipe = Pipeline(f2_index, f2_paragraphs, ranker, reader,
                            PipelineConfig(n_retriever=5))
            result = pipe.answer_or_error(f2_records[0].question)
        assert result.error.startswith(f"[{role}] ")
        assert "response is not valid JSON: 'not json" in result.error

    def test_id_mismatch_is_malformed(self):
        script = py_script(
            "import sys, json\n"
            "print(json.dumps({'type':'hello','protocol':1,"
            "'roles':['rank']}), flush=True)\n"
            "for line in sys.stdin:\n"
            "    print(json.dumps({'type':'rank_result','id':'bogus',"
            "'score':1.0}), flush=True)\n")
        with ExternalScorer(script, "rank") as scorer:
            with pytest.raises(MalformedResponseError, match="bogus"):
                scorer.rank_text("q", "t")
            # The channel is out of step: the scorer is killed and closed.
            assert scorer._proc.returncode is not None
            with pytest.raises(ScorerProtocolError, match="closed"):
                scorer.rank_text("q", "t")

    def test_wrong_protocol_version(self):
        script = py_script(
            "import json; print(json.dumps({'type':'hello','protocol':2,"
            "'roles':['rank']}), flush=True)")
        with pytest.raises(MalformedResponseError, match="protocol"):
            ExternalScorer(script, "rank")

    @pytest.mark.parametrize("hello, message", [
        ({"protocol": True, "roles": ["rank"]},
         "protocol: expected an integer, got a boolean"),
        ({"protocol": 1, "roles": "rank,read"},
         "roles: expected an array, got a string"),
        ({"protocol": 1, "roles": ["rank", 2]},
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
        ("rank", {"score": "0.5"}, "score: expected a number, got a string"),
        ("rank", {"score": True}, "score: expected a number, got a boolean"),
        ("read", {"spans": [{"start": 0.9, "end": 5, "score": 1.0}]},
         "spans[0].start: expected an integer, got a number"),
        ("read", {"spans": [{"start": 0, "end": "5", "score": 1.0}]},
         "spans[0].end: expected an integer, got a string"),
        ("read", {"spans": [{"start": 0, "end": 5, "score": None}]},
         "spans[0].score: expected a number, got null"),
    ])
    def test_reply_of_another_type_is_malformed(self, role, reply, message):
        reply = dict(reply, type=f"{role}_result")
        script = py_script(
            "import sys, json\n"
            "print(json.dumps({'type':'hello','protocol':1,"
            f"'roles':['{role}']}}), flush=True)\n"
            "for line in sys.stdin:\n"
            f"    print(json.dumps(dict({reply!r}, "
            "id=json.loads(line)['id'])), flush=True)\n")
        with ExternalScorer(script, role) as scorer:
            # The reply is well framed: the handle stays usable.
            for _ in range(2):
                with pytest.raises(MalformedResponseError,
                                   match="^" + re.escape(f"{message}: ")):
                    if role == "rank":
                        scorer.rank_text("q", "text")
                    else:
                        scorer.read_text("q", "text", 1)
            assert scorer._proc.poll() is None

    def test_death_mid_stream_is_exit_error(self):
        script = py_script(
            "import sys, json\n"
            "print(json.dumps({'type':'hello','protocol':1,"
            "'roles':['rank']}), flush=True)\n"
            "sys.stdin.readline()\n"
            "sys.exit(7)\n")
        scorer = ExternalScorer(script, "rank")
        with pytest.raises(ScorerExitError, match="7"):
            scorer.rank_text("q", "t")
        scorer.close()

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

    def rank_text(self, question, text):
        self.threads.add(threading.get_ident())
        return super().rank_text(question, text)


class TestScorerPool:
    def test_timed_out_handle_is_replaced(self, spawned, tmp_path):
        # Only the first request of all sleeps past the timeout; the score
        # is the text's length, so a late reply to it would show.
        flag = str(tmp_path / "slept")
        script = py_script(
            "import json, os, sys, time\n"
            "print(json.dumps({'type':'hello','protocol':1,"
            "'roles':['rank']}), flush=True)\n"
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            f"    if not os.path.exists({flag!r}):\n"
            f"        open({flag!r}, 'w').close()\n"
            "        time.sleep(3)\n"
            "    print(json.dumps({'type':'rank_result','id':req['id'],"
            "'score':len(req['text'])}), flush=True)\n")
        with ScorerPool(script, "rank", timeout=1.0) as pool:
            with pytest.raises(ScorerProtocolError, match="no response"):
                pool.rank_text("q", "slow")
            assert spawned[0].returncode is not None
            assert pool.rank_text("q", "second text") == len("second text")
            assert pool.rank_text("q", "third") == len("third")
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


# A scorer that frames every line it sends as sys.argv[2] says: "whole"
# (one write), "bytes" (one flushed write per byte) or "split" (two flushed
# writes, cut inside the emoji if the line has one). With "joined" the
# hello and the reply to request "0" go out in one write, before the host
# sends that request. The reply to question "fail" is an error.
FRAMED = r"""
import json, sys, time
role, framing = sys.argv[1:]
EMOJI = "\U0001F600".encode()

def reply(req):
    if req["question"] == "fail":
        return {"type": "error", "id": req["id"],
                "message": "café \U0001F600"}
    if role == "rank":
        return {"type": "rank_result", "id": req["id"],
                "score": len(req["text"])}
    return {"type": "read_result", "id": req["id"],
            "spans": [{"start": 0, "end": len(req["text"]), "score": 1.0}]}

def line(obj):
    return (json.dumps(obj, ensure_ascii=False) + "\n").encode()

def send(data):
    cut = data.find(EMOJI) + 2 if EMOJI in data else len(data) // 2
    pieces = {"bytes": [data[i:i + 1] for i in range(len(data))],
              "split": [data[:cut], data[cut:]]}.get(framing, [data])
    for piece in pieces:
        sys.stdout.buffer.write(piece)
        sys.stdout.buffer.flush()
        time.sleep(0.001)

hello = line({"type": "hello", "protocol": 1, "roles": [role]})
if framing == "joined":
    send(hello + line(reply({"id": "0", "question": "q",
                             "text": "some text"})))
    sys.stdin.readline()
else:
    send(hello)
for request in sys.stdin:
    send(line(reply(json.loads(request))))
"""


class TestReplyFraming:
    @pytest.mark.parametrize("framing", ["whole", "bytes", "joined",
                                         "split"])
    @pytest.mark.parametrize("role", ["rank", "read"])
    def test_framing_gives_the_whole_line_result(self, role, framing):
        with ExternalScorer(py_script(FRAMED) + [role, framing], role,
                            timeout=10) as scorer:
            assert scorer.hello == {"type": "hello", "protocol": 1,
                                    "roles": [role]}

            def call(question, text):
                if role == "rank":
                    return scorer.rank_text(question, text)
                return scorer.read_text(question, text, 1)

            assert call("q", "some text") == (
                9.0 if role == "rank" else [(0, 9, 1.0)])
            with pytest.raises(MindstoneError, match="^café \U0001F600$"):
                call("fail", "t")
            assert call("q", "other") == (
                5.0 if role == "rank" else [(0, 5, 1.0)])
            assert scorer._proc.poll() is None


class TestReaderFaults:
    HELLO = ("import json, os, sys, time\n"
             "print(json.dumps({'type':'hello','protocol':1,"
             "'roles':['rank']}), flush=True)\n")

    @pytest.mark.parametrize("when", ["hello", "reply"])
    def test_non_utf8_line_is_malformed_at_once(self, spawned, when):
        # The default 30 s timeout: the bytes fail the call, not the clock.
        junk = "sys.stdout.buffer.write(b'\\xff\\xfe junk\\n'); " \
               "sys.stdout.flush(); time.sleep(60)\n"
        if when == "hello":
            script = "import sys, time\n" + junk
        else:
            script = self.HELLO + "sys.stdin.readline()\n" + junk
        start = time.monotonic()
        with pytest.raises(MalformedResponseError,
                           match=re.escape(r"not UTF-8: b'\xff\xfe junk'")):
            scorer = ExternalScorer(py_script(script), "rank")
            start = time.monotonic()
            scorer.rank_text("q", "t")
        assert time.monotonic() - start < 1.0
        assert spawned[0].returncode is not None
        assert spawned[0].stdout.closed
        if when == "reply":
            assert scorer._closed

    def test_closed_stdout_is_exit_error_within_timeout(self, spawned):
        # The scorer outlives its stdout: it is killed at the deadline.
        script = (self.HELLO + "sys.stdin.readline()\n"
                  "os.close(1)\n"
                  "time.sleep(10)\n")
        scorer = ExternalScorer(py_script(script), "rank", timeout=2.0)
        start = time.monotonic()
        with pytest.raises(ScorerExitError) as info:
            scorer.rank_text("q", "t")
        assert time.monotonic() - start < 4.0
        assert "closed its stdout (exit code None)" in str(info.value)
        assert spawned[0].returncode is not None
        assert scorer._closed and spawned[0].stdout.closed

    def test_close_with_grandchild_holding_stdout(self):
        # The grandchild inherits the scorer's stdout and outlives it.
        script = (
            "import json, subprocess, sys\n"
            "child = subprocess.Popen([sys.executable, '-c', "
            "'import time; time.sleep(30)'])\n"
            "print(json.dumps({'type':'hello','protocol':1,"
            "'roles':['rank'],'pid':child.pid}), flush=True)\n"
            "sys.stdin.read()\n")
        scorer = ExternalScorer(py_script(script), "rank")
        try:
            start = time.monotonic()
            scorer.close()
            assert time.monotonic() - start < 1.0
            assert scorer._proc.stdout.closed
        finally:
            os.kill(scorer.hello["pid"], signal.SIGKILL)
