"""Tests of the cascade benchmark itself, on corpora small enough to run in
seconds:

    python3 -m pytest cascadebench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import checks  # noqa: E402
import synth  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 3


def answered(name: str, work: Path, n_questions: int = 40):
    """Set up one workload on a small corpus and answer some questions."""
    spec = run.SPECS[name]
    inputs = run.load_inputs(spec, SEED, work, synth_paragraphs=600)
    inputs.questions = inputs.questions[:n_questions]
    texts = checks.read_paragraph_texts(inputs.paragraphs)
    pipeline, _, _, pools = run.set_up(spec, inputs, work, run.no_span)
    answers = run.Answers(pipeline.config.n_reader_effective)
    try:
        run.answer_round(pipeline, inputs.questions, answers, [])
    finally:
        for pool in pools:
            pool.close()
    return spec, inputs, texts, pipeline, answers


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    return answered("f2-desk", tmp_path_factory.mktemp("desk"))


@pytest.mark.parametrize("name", ["synth100k-rm3", "f2-external"])
def test_workload_checks_pass(name, tmp_path):
    spec, inputs, texts, pipeline, answers = answered(name, tmp_path)
    assert answers.failed == 0
    assert run.run_checks(spec, inputs, texts, pipeline, answers, SEED) == []


def test_desk_checks_pass(desk):
    spec, inputs, texts, pipeline, answers = desk
    assert answers.failed == 0
    assert run.run_checks(spec, inputs, texts, pipeline, answers, SEED) == []


def test_corrupted_answer_list_fails(desk):
    spec, inputs, texts, pipeline, answers = desk
    qid, rec = next((q, r) for q, r in answers.first.items()
                    if len(r["answers"]) > 1)
    text, pid, start, end, fused = rec["answers"][0]
    question = next(q["question"] for q in inputs.questions
                    if q["qid"] == qid)
    good = list(rec["answers"])
    read = set(rec["read"])
    assert checks.check_answers(question, good, texts, read) == []
    corruptions = [
        [(text + "x", pid, start, end, fused)] + good[1:],     # wrong text
        [(text, pid, start, end + 10**6, fused)] + good[1:],   # past the end
        [good[1], good[0]] + good[2:],                          # order
        [(text, pid, start, end, 1.5)] + good[1:],              # fused > 1
        good[:1] + good[:1],                                    # duplicate
    ]
    for bad in corruptions:
        assert checks.check_answers(question, bad, texts, read), bad

    # The same corruption seen through the whole run's checks.
    saved = rec["answers"]
    rec["answers"] = tuple(corruptions[0])
    try:
        errors = run.run_checks(spec, inputs, texts, pipeline, answers, SEED)
    finally:
        rec["answers"] = saved
    assert any("is not" in e for e in errors)


def test_corrupted_retrieval_fails(desk):
    _, inputs, texts, pipeline, _ = desk
    question = inputs.questions[0]["question"]
    ref = checks.ReferenceBm25(texts, checks.question_weights(question))
    scores = ref.scores(checks.question_weights(question))
    hits = pipeline.index.retrieve(question, 20).hits
    assert checks.compare_hits("ok", hits, ref, scores, 20) == []
    pid, score = hits[0]
    drift = [(pid, score * (1 + 1e-6))] + hits[1:]
    swapped = [hits[-1]] + hits[1:-1] + [hits[0]]
    for bad in (drift, swapped, hits[:-1], hits[:1] + hits[:-1]):
        assert checks.compare_hits("bad", bad, ref, scores, 20), bad


def test_generator_is_seeded_and_gold_is_in_its_paragraph():
    paragraphs, questions = synth.generate(5, 300, 50)
    assert (paragraphs, questions) == synth.generate(5, 300, 50)
    assert paragraphs != synth.generate(6, 300, 50)[0]
    bodies = {p["para_id"]: p["body"] for p in paragraphs}
    assert len(bodies) == len(paragraphs) == 300
    for q in questions:
        assert q["answers"][0] in bodies[q["gold_para_id"]]
        assert bodies[q["gold_para_id"]] == q["gold_paragraph"]


def test_tracer_restores_layers_and_nests_spans(desk):
    from mindstone import _kernels
    from mindstone.pipeline import Pipeline
    _, inputs, _, pipeline, _ = desk
    before = (Pipeline.__dict__["answer"], _kernels.bm25_accumulate)
    tracer = Tracer()
    tracer.phase = "query"
    tracer.qid_of = {q["question"]: q["qid"] for q in inputs.questions}
    tracer.install()
    try:
        pipeline.answer(inputs.questions[0]["question"])
    finally:
        tracer.uninstall()
    assert (Pipeline.__dict__["answer"], _kernels.bm25_accumulate) == before
    t = tracer.table()
    names = set(t["name"])
    assert {"pipeline.answer", "index.retrieve", "_kernels.bm25_accumulate",
            "scorers.rank", "scorers.read", "fusion.fuse_candidates"} <= names
    assert (t["self"] <= t["dur"] + 1e-12).all()
    assert (t["self"] >= -1e-6).all()
    top = t["name"] == "pipeline.answer"
    assert (t["parent_pos"][top] == -1).all()
    assert set(t["qid"]) == {inputs.questions[0]["qid"]}


def test_metric_names_match_benchmark_json(desk, tmp_path):
    spec, inputs, texts, _, _ = desk
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] \
        == run.END_TO_END
    _, _, _, metrics = run.traced_run(spec, inputs, tmp_path, 0.1, texts)
    assert [m["name"] for m in declared["per_layer"]] == list(metrics)
    assert all(run.unit_of(m["name"]) == m["unit"]
               for m in declared["per_layer"])


def test_stage_error_counts_as_failed_and_the_round_goes_on(desk):
    from mindstone.errors import StageError
    _, inputs, _, pipeline, _ = desk
    batch = inputs.questions[:3]
    bad = batch[1]["question"]

    class Failing:
        def answer(self, question):
            if question == bad:
                raise StageError("read", "scorer died")
            return pipeline.answer(question)

    answers = run.Answers(pipeline.config.n_reader_effective)
    latencies = []
    results = run.answer_round(Failing(), batch, answers, latencies)
    assert len(results) == 2 and len(latencies) == 3
    assert answers.failed == 1
    assert set(answers.first) == {batch[0]["qid"], batch[2]["qid"]}
    assert answers.errors == [f"{batch[1]['qid']}: [read] scorer died"]
