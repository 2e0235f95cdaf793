"""External scorer wire protocol: handshake, request/response, failures."""

import gc
import os
import subprocess
import sys
import threading

import pytest

from mindstone.errors import (HandshakeTimeoutError, MalformedResponseError,
                              ScorerExitError, StageError)
from mindstone.scorers import rank, read
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
            spans = read(reader, "q", para, k=1)
            assert spans[0].text == para.full_text
            assert spans[0].para_id == para.para_id


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

    def test_error_response_becomes_stage_error(self):
        script = py_script(
            "import sys, json\n"
            "print(json.dumps({'type':'hello','protocol':1,"
            "'roles':['rank']}), flush=True)\n"
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            "    print(json.dumps({'type':'error','id':req['id'],"
            "'message':'model exploded'}), flush=True)\n")
        with ExternalScorer(script, "rank") as scorer:
            with pytest.raises(StageError, match="model exploded"):
                scorer.rank_text("q", "t")

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

    def test_wrong_protocol_version(self):
        script = py_script(
            "import json; print(json.dumps({'type':'hello','protocol':2,"
            "'roles':['rank']}), flush=True)")
        with pytest.raises(MalformedResponseError, match="protocol"):
            ExternalScorer(script, "rank")

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
