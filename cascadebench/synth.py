"""Seeded synthetic corpus for the ``synth100k-rm3`` workload.

F2-style at scale: every entity gets an article whose title names it, an
entity-heavy intro, one fact paragraph per asked attribute (the entity name
appears there only through the prepended title) and entity-heavy legend
paragraphs that contain no fact. Intro and legend text is drawn from a
Zipf-distributed filler vocabulary of 20k words. Fact paragraphs wrap their
fact sentence in words from a small shared vocabulary, as F2 does, so those
words sit in a fifth of all paragraphs: the TF-IDF feedback terms RM3 takes
from a fact paragraph have long postings, and their idf stays under the
builtin reader's informativeness floor, so the reader can still isolate the
answer.

Every question has one gold answer string and one gold source paragraph.
The program under test receives only ``paragraphs.jsonl`` and the question
texts; the gold side stays with the benchmark.

    python3 cascadebench/synth.py --seed 7 --paragraphs 100000 --out DIR

writes ``DIR/paragraphs.jsonl`` and ``DIR/questions.jsonl``. The same seed
and size give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import numpy as np

KINDS = ["mount", "river", "lake", "fort", "temple", "abbey", "harbor",
         "vale", "isle", "citadel", "forest", "bridge"]
ATTRS = {
    "height": ("num", "meters"), "depth": ("num", "fathoms"),
    "length": ("num", "paces"), "population": ("num", "households"),
    "founder": ("person", None), "guardian": ("person", None),
    "chronicler": ("person", None), "emblem": ("phrase", None),
    "motto": ("phrase", None), "festival": ("phrase", None),
    "currency": ("phrase", None), "harvest": ("phrase", None),
}
FACTS_PER_ENTITY = 4
LEGENDS_PER_ENTITY = 5
PARAGRAPHS_PER_ENTITY = 1 + FACTS_PER_ENTITY + LEGENDS_PER_ENTITY

# Name syllables. Entity names are three syllables, filler words two or
# three from a disjoint set, so no filler word can equal an entity name.
NAME_SYL = ["ar", "bel", "cor", "dun", "el", "fen", "gal", "hal", "ith",
            "jor", "kel", "lor", "mir", "nor", "oth", "pel", "quin", "ros",
            "sar", "tor", "ul", "vor", "wyn", "yar", "zel", "bran", "crel",
            "dris", "fald", "grim", "holt", "kast"]
WORD_SYL = ["ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu",
            "na", "pe", "ri", "so", "tu", "va", "we", "xi", "yo", "zu",
            "bra", "cle", "dro", "fli", "gre", "pla", "sku", "tra"]
FIRST_NAMES = ["doran", "maive", "torben", "selka", "ansel", "brida",
               "colwyn", "ysolde", "farrin", "orla", "petric", "sunniva",
               "edric", "lisbet", "hamon", "rhosyn"]
LAST_NAMES = ["velt", "marrow", "quist", "harrow", "senn", "valk", "droste",
              "imber", "lorn", "casker", "reva", "smed", "ostler", "pell",
              "varga", "eyre", "dace", "brand", "kettle", "moss"]
PHRASE_ADJ = ["silver", "iron", "amber", "crimson", "golden", "pale",
              "woven", "carved", "gilded", "painted", "braided", "frosted",
              "burnished", "stitched"]
PHRASE_NOUN = ["fern", "bell", "stag", "heron", "lantern", "anchor", "comet",
               "thistle", "falcon", "drum", "sickle", "banner", "crown",
               "sparrow", "otter", "beacon", "loom", "acorn"]
FACT_WORDS = ("people region years known called early later often seen "
              "found made used part form work life world time place name "
              "long small large local").split()

VOCAB_SIZE = 20_000
ZIPF_EXPONENT = 1.07


def _vocabulary(rng: np.random.Generator) -> list[str]:
    """Distinct filler words in a seeded Zipf rank order."""
    words = [a + b for a in WORD_SYL for b in WORD_SYL]
    words += [a + b + c for a in WORD_SYL for b in WORD_SYL for c in WORD_SYL]
    return [words[i] for i in rng.permutation(len(words))[:VOCAB_SIZE]]


class _Filler:
    """Draws filler words from the Zipf vocabulary in large batches."""

    def __init__(self, rng: np.random.Generator):
        self.words = _vocabulary(rng)
        ranks = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64)
        p = ranks ** -ZIPF_EXPONENT
        self._cdf = np.cumsum(p / p.sum())
        self._rng = rng
        self._buf: list[int] = []
        self._pos = 0

    def sentence(self, n: int) -> str:
        if self._pos + n > len(self._buf):
            draws = self._rng.random(1 << 18)
            self._buf = np.searchsorted(self._cdf, draws).tolist()
            self._pos = 0
        ids = self._buf[self._pos:self._pos + n]
        self._pos += n
        words = self.words
        return " ".join(words[i] for i in ids).capitalize() + "."


def _fact_sentence(rng: random.Random) -> str:
    words = rng.choices(FACT_WORDS, k=rng.randint(4, 6))
    return " ".join(words).capitalize() + "."


def _value(rng: random.Random, attr: str, numbers) -> str:
    vtype, unit = ATTRS[attr]
    if vtype == "num":
        return f"{next(numbers)} {unit}"
    if vtype == "person":
        return f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"
    return f"the {rng.choice(PHRASE_ADJ)} {rng.choice(PHRASE_NOUN)}"


def _legend(filler: _Filler, rng: random.Random, kind: str,
            proper: str) -> str:
    return (f"Songs of {proper} {filler.sentence(rng.randint(5, 8)).lower()} "
            f"The {kind} of {proper} appeared in legends. "
            f"{filler.sentence(rng.randint(5, 8))} People spoke of {proper}.")


def generate(seed: int, n_paragraphs: int = 100_000,
             n_questions: int = 1_200):
    """Return (paragraph records, question records) for one seed.

    ``n_paragraphs`` is rounded down to whole entity articles of
    ``PARAGRAPHS_PER_ENTITY`` paragraphs each.
    """
    rng = random.Random(seed)
    n_entities = max(1, n_paragraphs // PARAGRAPHS_PER_ENTITY)
    names = [a + b + c for a in NAME_SYL for b in NAME_SYL for c in NAME_SYL]
    if n_entities > len(names):
        raise ValueError(f"at most {len(names) * PARAGRAPHS_PER_ENTITY} "
                         f"paragraphs")
    propers = rng.sample(names, n_entities)
    filler = _Filler(np.random.default_rng(seed))
    numbers = iter(rng.sample(range(100, 1_000_000),
                              n_entities * FACTS_PER_ENTITY))

    paragraphs: list[dict] = []
    facts: list[tuple[str, str, str, str, str, str]] = []
    for e, proper in enumerate(propers):
        kind = KINDS[e % len(KINDS)]
        article_id = f"{kind}-{proper}"
        title = f"{kind.capitalize()} {proper.capitalize()}"
        blocks = [f"The {kind} of {proper} was known through the region. "
                  f"{filler.sentence(rng.randint(6, 9))} Stories "
                  f"about {proper} remained part of local life."]
        for attr in rng.sample(list(ATTRS), FACTS_PER_ENTITY):
            value = _value(rng, attr, numbers)
            blocks.append(f"{_fact_sentence(rng)} Its {attr} was {value}. "
                          f"{_fact_sentence(rng)}")
            facts.append((proper, kind, attr, value,
                          f"{article_id}#{len(blocks) - 1}", blocks[-1]))
        for _ in range(LEGENDS_PER_ENTITY):
            blocks.append(_legend(filler, rng, kind, proper))
        for position, body in enumerate(blocks):
            paragraphs.append({
                "para_id": f"{article_id}#{position}",
                "article_id": article_id, "title": title, "body": body,
                "position": position})

    questions = []
    picks = rng.sample(range(len(facts)), min(n_questions, len(facts)))
    for qnum, i in enumerate(picks):
        proper, kind, attr, value, gold_pid, gold_body = facts[i]
        wh = "Who" if ATTRS[attr][0] == "person" else "What"
        questions.append({
            "qid": f"s-q{qnum:04d}",
            "question": f"{wh} was the {attr} of {kind} {proper}?",
            "answers": [value],
            "gold_article_id": gold_pid.split("#")[0],
            "gold_paragraph": gold_body, "gold_para_id": gold_pid})
    return paragraphs, questions


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--paragraphs", type=int, default=100_000)
    parser.add_argument("--questions", type=int, default=1_200)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paragraphs, questions = generate(args.seed, args.paragraphs,
                                     args.questions)
    write_jsonl(out / "paragraphs.jsonl", paragraphs)
    write_jsonl(out / "questions.jsonl", questions)
    return 0


if __name__ == "__main__":
    sys.exit(main())
