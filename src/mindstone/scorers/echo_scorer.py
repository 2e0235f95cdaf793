"""Reference external scorer speaking wire protocol v2 (or v1).

Ranks every paragraph with a constant score and reads each whole text as a
single span. Useful for wiring checks and as a template for real scorers:

    python -m mindstone.scorers.echo_scorer --rank-score 0.5

``--protocol 1`` answers only v1's one-text ``rank`` and ``read`` requests
(a batch request gets an ``error`` reply). The fault flags make it a test
double for a scorer that breaks after answering N requests: from then on
``--hang-after N`` never replies again (it reads its stdin until the host
closes it), ``--garbage-after N`` replies ``not json`` to each request, and
``--exit-after N`` exits with status 3 on the next request.
"""

import argparse
import json
import sys

EXIT_STATUS = 3  # of --exit-after


def whole_text(text: str) -> list[dict]:
    return [{"start": 0, "end": len(text), "score": 1.0}]


def reply(req: dict, rank_score: float, protocol: int) -> dict:
    kind, texts = req["type"], req.get("texts")
    if kind == "rank":
        return {"type": "rank_result", "id": req["id"], "score": rank_score}
    if kind == "read":
        return {"type": "read_result", "id": req["id"],
                "spans": whole_text(req["text"])}
    if protocol >= 2 and kind == "rank_batch":
        return {"type": "rank_batch_result", "id": req["id"],
                "scores": [rank_score] * len(texts)}
    if protocol >= 2 and kind == "read_batch":
        return {"type": "read_batch_result", "id": req["id"],
                "spans": [whole_text(text) for text in texts]}
    return {"type": "error", "id": req.get("id", ""),
            "message": f"unknown request type {kind!r}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rank-score", type=float, default=1.0)
    parser.add_argument("--roles", default="rank,read")
    parser.add_argument("--protocol", type=int, choices=[1, 2], default=2)
    for fault in ("hang", "garbage", "exit"):
        parser.add_argument(f"--{fault}-after", type=int, metavar="N")
    args = parser.parse_args(argv)

    def due(after: int | None) -> bool:
        return after is not None and answered >= after

    roles = [r for r in args.roles.split(",") if r]
    print(json.dumps({"type": "hello", "protocol": args.protocol,
                      "roles": roles}), flush=True)
    answered = 0
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        if due(args.exit_after):
            return EXIT_STATUS
        if due(args.hang_after):
            sys.stdin.read()
            return 0
        if due(args.garbage_after):
            print("not json", flush=True)
        else:
            print(json.dumps(reply(req, args.rank_score, args.protocol)),
                  flush=True)
        answered += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
