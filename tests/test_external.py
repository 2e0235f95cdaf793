"""External scorer wire protocol: handshake, request/response, failures."""

import sys

import pytest

from mindstone.errors import (HandshakeTimeoutError, MalformedResponseError,
                              ScorerExitError, StageError)
from mindstone.scorers import rank, read
from mindstone.scorers.external import (ExternalScorer, ScorerPool,
                                        external_scorer_session)

ECHO = [sys.executable, "-m", "mindstone.scorers.echo_scorer"]


def py_script(body: str) -> list[str]:
    return [sys.executable, "-c", body]


class TestEchoScorer:
    def test_handshake_and_constant_rank(self):
        with external_scorer_session(ECHO + ["--rank-score", "0.25"],
                                     "rank") as scorer:
            assert scorer.hello["protocol"] == 1
            assert scorer.rank_text("question", "paragraph text") == 0.25
            assert scorer.rank_text("another", "text") == 0.25

    def test_read_returns_whole_text_span(self):
        with external_scorer_session(ECHO, "read") as scorer:
            spans = scorer.read_text("q", "some paragraph", k=2)
            assert spans == [(0, len("some paragraph"), 1.0)]

    def test_dispatch_through_stage_functions(self, f2_paragraphs):
        para = next(iter(f2_paragraphs.values()))
        with external_scorer_session(ECHO + ["--rank-score", "2.0"],
                                     "rank") as ranker:
            assert rank(ranker, "q", [para]).tolist() == [2.0]
        with external_scorer_session(ECHO, "read") as reader:
            spans = read(reader, "q", para, k=1)
            assert spans[0].text == para.full_text
            assert spans[0].para_id == para.para_id


class TestFailureModes:
    def test_immediate_exit_is_exit_error(self):
        with pytest.raises(ScorerExitError):
            external_scorer_session(py_script("import sys; sys.exit(3)"),
                                    "rank", timeout=10)

    def test_invalid_hello_line_names_offender(self):
        script = py_script("print('this is not json', flush=True); "
                           "import time; time.sleep(2)")
        with pytest.raises(MalformedResponseError, match="not json"):
            external_scorer_session(script, "rank", timeout=10)

    def test_handshake_timeout(self):
        script = py_script("import time; time.sleep(5)")
        with pytest.raises(HandshakeTimeoutError):
            external_scorer_session(script, "rank", timeout=0.3)

    def test_role_not_offered(self):
        with pytest.raises(MalformedResponseError, match="read"):
            external_scorer_session(ECHO + ["--roles", "rank"], "read")

    def test_error_response_becomes_stage_error(self):
        script = py_script(
            "import sys, json\n"
            "print(json.dumps({'type':'hello','protocol':1,"
            "'roles':['rank']}), flush=True)\n"
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            "    print(json.dumps({'type':'error','id':req['id'],"
            "'message':'model exploded'}), flush=True)\n")
        with external_scorer_session(script, "rank") as scorer:
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
        with external_scorer_session(script, "rank") as scorer:
            with pytest.raises(MalformedResponseError, match="bogus"):
                scorer.rank_text("q", "t")

    def test_wrong_protocol_version(self):
        script = py_script(
            "import json; print(json.dumps({'type':'hello','protocol':2,"
            "'roles':['rank']}), flush=True)")
        with pytest.raises(MalformedResponseError, match="protocol"):
            external_scorer_session(script, "rank")

    def test_death_mid_stream_is_exit_error(self):
        script = py_script(
            "import sys, json\n"
            "print(json.dumps({'type':'hello','protocol':1,"
            "'roles':['rank']}), flush=True)\n"
            "sys.stdin.readline()\n"
            "sys.exit(7)\n")
        scorer = external_scorer_session(script, "rank")
        with pytest.raises(ScorerExitError, match="7"):
            scorer.rank_text("q", "t")
        scorer.close()

    def test_close_is_idempotent(self):
        scorer = external_scorer_session(ECHO, "rank")
        scorer.close()
        scorer.close()

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            ExternalScorer(ECHO, "juggle")


class TestScorerPool:
    def test_parallel_batch_through_pool(self, f2_index, f2_paragraphs,
                                         f2_records, f2_reader):
        from mindstone.pipeline import Pipeline, PipelineConfig
        with ScorerPool(ECHO + ["--rank-score", "1.0"], "rank") as pool:
            pipe = Pipeline(f2_index, f2_paragraphs, pool, f2_reader,
                            PipelineConfig(n_retriever=10))
            questions = [r.question for r in f2_records[:8]]
            serial = pipe.answer_batch(questions, workers=1)
            parallel = pipe.answer_batch(questions, workers=4)
            assert [r.answers for r in serial] == \
                [r.answers for r in parallel]

    def test_repeated_parallel_batches_reuse_handles(self, f2_index,
                                                    f2_paragraphs,
                                                    f2_records, f2_reader):
        from mindstone.pipeline import Pipeline, PipelineConfig
        with ScorerPool(ECHO + ["--rank-score", "1.0"], "rank") as pool:
            pipe = Pipeline(f2_index, f2_paragraphs, pool, f2_reader,
                            PipelineConfig(n_retriever=10))
            questions = [r.question for r in f2_records[:8]]
            serial = [r.answers for r in pipe.answer_batch(questions)]
            for _ in range(3):
                parallel = pipe.answer_batch(questions, workers=2)
                assert [r.answers for r in parallel] == serial
            assert 1 <= len(pool._handles) <= 2
