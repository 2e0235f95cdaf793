"""Deterministic generator for the frozen test fixtures.

F1: 50 single-paragraph documents over a small vocabulary, used by the
    retrieval oracle tests.
F2: a SQuAD-style desk corpus (~500 paragraphs, 200 questions with gold
    answers and gold source paragraphs) used by the pipeline, training,
    and acceptance tests.

Running this script regenerates tests/fixtures/*.jsonl byte-identically
(seed 0) and prints the measured fixture statistics that the test suite
asserts. Regenerate only if the fixture design changes, and re-freeze the
measured numbers in tests/fixtures/README.md.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mindstone.corpus import (Article, Paragraph, split_article,  # noqa: E402
                              write_json_lines, write_records)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

KINDS = ["mount", "river", "lake", "fort", "temple", "abbey", "harbor",
         "vale", "isle", "citadel"]
PROPER_PREFIX = ["arden", "kels", "nor", "thorn", "elder", "gray", "bram",
                 "dun", "fen", "wyn", "cal", "mor", "hale", "stern", "brig",
                 "ash", "elm", "oak", "hav", "tor"]
PROPER_SUFFIX = ["fell", "mere", "wick", "moor"]

COMMON = ("people region years known called early later often seen found "
          "made used part form work life world time place name long small "
          "large local old records visitors stories legends trade area "
          "roads walls stone winter summer markets songs houses fields "
          "crops wells towers gates lamps boats carts bells according "
          "its it many came remained held kept wrote every after near "
          "through during said").split()

ATTRS = {
    "height": ("num", "meters"),
    "depth": ("num", "fathoms"),
    "length": ("num", "paces"),
    "population": ("num", "households"),
    "founder": ("person", None),
    "guardian": ("person", None),
    "chronicler": ("person", None),
    "emblem": ("phrase", None),
    "motto": ("phrase", None),
    "festival": ("phrase", None),
    "currency": ("phrase", None),
    "harvest": ("phrase", None),
}

FIRST_NAMES = ["doran", "maive", "torben", "selka", "ansel", "brida",
               "colwyn", "ysolde", "farrin", "orla", "petric", "sunniva"]
LAST_NAMES = ["velt", "marrow", "quist", "harrow", "senn", "valk", "droste",
              "imber", "lorn", "casker", "reva", "smed", "ostler", "pell",
              "varga", "holt", "eyre", "dace"]
PHRASE_ADJ = ["silver", "iron", "amber", "crimson", "golden", "pale",
              "woven", "carved", "gilded", "painted", "braided", "frosted",
              "burnished", "stitched"]
PHRASE_NOUN = ["fern", "bell", "stag", "heron", "lantern", "anchor", "comet",
               "thistle", "falcon", "drum", "sickle", "banner", "crown",
               "sparrow", "otter", "beacon", "loom", "acorn"]


def _common_sentence(rng: random.Random, n: int) -> str:
    words = [rng.choice(COMMON) for _ in range(n)]
    return " ".join(words).capitalize() + "."


_FACT_TAILS = [
    "according to the old records",
    "as people often said through the years",
    "in the records kept near the markets",
    "as the songs of the area held",
]


def _fact_sentence(rng: random.Random, attr: str, value: str) -> str:
    # Pronoun form keeps the entity name out of the gold paragraph body,
    # so retrieval has to work for it against entity-heavy siblings.
    return f"Its {attr} was {value} {rng.choice(_FACT_TAILS)}."


def _legend_paragraph(rng: random.Random, kind: str, proper: str,
                      variant: int) -> str:
    if variant == 0:
        return (f"Songs praised {proper} through the years, and people of "
                f"the area held {proper} in their stories. The {kind} "
                f"appeared in many local legends about {proper}.")
    if variant == 1:
        return (f"Markets near {proper} traded in crops and lamps. "
                f"Visitors came to {proper} during the summer, and "
                f"{proper} remained a place of work for the {kind}.")
    if variant == 2:
        return (f"Roads led through the {kind} gates toward {proper}. "
                f"Carts and boats carried trade around {proper} every "
                f"winter, and {proper} kept its name in the songs.")
    return (f"People held markets under the walls of {proper}. Lamps "
            f"burned for {proper} during winter songs, and travelers "
            f"wrote of {proper} in their records of the {kind}.")


def make_f2(rng: random.Random):
    propers = [p + s for p in PROPER_PREFIX for s in PROPER_SUFFIX]
    rng.shuffle(propers)
    entities = []
    numbers = rng.sample(range(100, 9900), 200)
    num_iter = iter(numbers)
    attr_names = list(ATTRS)

    for i in range(50):
        proper = propers[i]
        kind = KINDS[i % len(KINDS)]
        attrs = rng.sample(attr_names, 4)
        facts = {}
        for attr in attrs:
            vtype, unit = ATTRS[attr]
            if vtype == "num":
                facts[attr] = f"{next(num_iter)} {unit}"
            elif vtype == "person":
                facts[attr] = f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"
            else:
                facts[attr] = f"the {rng.choice(PHRASE_ADJ)} {rng.choice(PHRASE_NOUN)}"
        entities.append({"kind": kind, "proper": proper, "facts": facts})

    articles = []
    gold_map = {}  # (proper, attr) -> (article_id, paragraph body, value)
    for i, ent in enumerate(entities):
        proper, kind = ent["proper"], ent["kind"]
        article_id = f"{kind}-{proper}"
        title = f"{kind.capitalize()} {proper.capitalize()}"
        blocks = []
        # Intro paragraph: entity-heavy, no facts.
        blocks.append(
            f"The {kind} of {proper} was known through the region and "
            f"beyond. Travelers called {proper} a {rng.choice(COMMON)} "
            f"place among {rng.choice(COMMON)} and {rng.choice(COMMON)}. "
            f"Stories about {proper} remained part of local life.")
        # One fact paragraph per attribute, fact sentence in the middle.
        for attr, value in ent["facts"].items():
            body = " ".join([
                _common_sentence(rng, rng.randint(6, 9)),
                _fact_sentence(rng, attr, value),
                _common_sentence(rng, rng.randint(6, 9)),
            ])
            blocks.append(body)
            gold_map[(proper, attr)] = (article_id, body, value)
        # Entity-heavy filler paragraphs: strong BM25 matches for the
        # entity name without containing any fact.
        for variant in range(4):
            blocks.append(_legend_paragraph(rng, kind, proper, variant))
        # Cross-reference paragraph mentioning two other entities.
        others = rng.sample([e["proper"] for e in entities
                             if e["proper"] != proper], 2)
        blocks.append(
            f"Unlike {others[0]}, the {kind} remained a "
            f"{rng.choice(COMMON)} place through the years. People came "
            f"between {others[1]} and the area for trade and work.")
        articles.append(Article(article_id=article_id, title=title,
                                body="\n\n".join(blocks)))

    # Keyword-stuffed almanac articles: attribute terms with high tf,
    # no entities, no answer values.
    for j, attr_group in enumerate([["height", "depth", "length"],
                                    ["population", "founder", "guardian"],
                                    ["motto", "emblem", "festival"],
                                    ["currency", "harvest", "chronicler"]]):
        blocks = []
        for attr in attr_group:
            blocks.append(
                f"The almanac lists {attr} after {attr}, with {attr} "
                f"tables made for every region. Each {attr} entry was "
                f"checked against records of {attr} kept through the "
                f"years. Readers often asked about the {attr} pages.")
            blocks.append(
                f"Notes on {attr} filled many pages, and the {attr} "
                f"column was copied into local records. A {attr} register "
                f"was held in the markets.")
        articles.append(Article(article_id=f"almanac-{j}",
                                title=f"Almanac of Measures {j}",
                                body="\n\n".join(blocks)))

    # Chronicle articles restating a slice of facts verbatim: a second
    # lenient hit whose paragraph is not the annotated source.
    chronicle_facts = rng.sample(sorted(gold_map), 24)
    for j in range(2):
        blocks = []
        for chunk_start in range(0, 12, 3):
            sentences = []
            for proper, attr in chronicle_facts[j * 12 + chunk_start:
                                                j * 12 + chunk_start + 3]:
                _, _, value = gold_map[(proper, attr)]
                sentences.append(
                    f"Chroniclers wrote that the {attr} of {proper} "
                    f"reached {value}.")
            blocks.append(" ".join(sentences))
        articles.append(Article(article_id=f"chronicle-{j}",
                                title=f"Chronicle of the Region {j}",
                                body="\n\n".join(blocks)))

    # Questions: 200 drawn over the entity facts.
    questions = []
    ask = []
    for ent in entities:
        ask.extend((ent["proper"], a) for a in sorted(ent["facts"]))
    rng.shuffle(ask)
    for qnum, (proper, attr) in enumerate(ask[:200]):
        article_id, body, value = gold_map[(proper, attr)]
        ent = next(e for e in entities if e["proper"] == proper)
        wh = "Who" if ATTRS[attr][0] == "person" else "What"
        question = f"{wh} was the {attr} of {ent['kind']} {proper}?"
        questions.append({
            "qid": f"f2-q{qnum:03d}",
            "question": question,
            "answers": [value],
            "gold_article_id": article_id,
            "gold_paragraph": body,
        })
    return articles, questions


def make_f1(rng: random.Random):
    vocab = ("cat dog bird fish ran sat slept river stone cloud red blue "
             "green tall small fast quiet bright dark warm cold hill tree "
             "rain wind snow road door lamp book").split()
    paragraphs = []
    for i in range(50):
        title = rng.choice(vocab) if rng.random() < 0.5 else ""
        body = " ".join(rng.choice(vocab)
                        for _ in range(rng.randint(5, 30)))
        paragraphs.append(Paragraph(
            para_id=f"f1-d{i:02d}", article_id=f"f1-a{i:02d}",
            title=title, body=body, position=0))
    return paragraphs


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    rng = random.Random(0)
    f1 = make_f1(rng)
    write_records(f1, FIXTURES / "f1_paragraphs.jsonl")

    articles, questions = make_f2(random.Random(1))
    write_records(articles, FIXTURES / "f2_articles.jsonl")
    paragraphs = [p for a in articles for p in split_article(a)]
    write_records(paragraphs, FIXTURES / "f2_paragraphs.jsonl")
    write_json_lines(questions, FIXTURES / "f2_questions.jsonl")
    print(f"F1: {len(f1)} paragraphs")
    print(f"F2: {len(articles)} articles, {len(paragraphs)} paragraphs, "
          f"{len(questions)} questions")


if __name__ == "__main__":
    main()
