"""CI client for the serve-smoke job.

Usage::

    python .github/scripts/serve_probe.py burst <socket>
    python .github/scripts/serve_probe.py probe <socket> <answers.json>
    python .github/scripts/serve_probe.py mixed <socket>

``burst`` fires one synchronous wave of queries at a rate-limited server
and asserts the shed policy engaged: some queries shed, every shed reply
carries a ``retry_after`` hint, and some queries were still answered.

``probe`` sends a small deterministic query set paced under the admission
rate (retrying sheds after their hint) and writes the ``ok`` results to a
JSON file — two probe files from a server and its ``--resume`` restart
must compare equal, which is the byte-identical-restart check.

``mixed`` sends one wave of good and bad queries of all three ops down one
connection (so they share micro-batches, and with ``--executor processes``
worker chunks) and asserts per-query isolation: every bad query gets its
own ``error`` reply, every good one an ``ok`` result equal to the answer
the same query gets alone.
"""

import asyncio
import json
import sys

import numpy as np

from repro.serve import socket_query

N_BURST = 300
N_PROBE = 20


def _points(n, seed=123):
    return np.random.default_rng(seed).uniform(0.05, 0.95, (n, 3))


def burst(where):
    wire = [{"id": f"b{i:04d}", "op": "knn", "point": list(p), "k": 8}
            for i, p in enumerate(_points(N_BURST))]
    docs = asyncio.run(socket_query(where, wire, timeout=120))
    by = {}
    for d in docs:
        by[d["status"]] = by.get(d["status"], 0) + 1
    shed = [d for d in docs if d["status"] == "shed"]
    assert shed, f"{N_BURST} simultaneous queries must trip shedding: {by}"
    missing = [d for d in shed if d.get("retry_after") is None]
    assert not missing, f"{len(missing)} shed replies lack retry_after"
    assert by.get("ok", 0) > 0, f"no queries served at all: {by}"
    print(f"burst: {by} — all {len(shed)} sheds carry retry_after")


async def _probe(where):
    answers = {}
    for i, p in enumerate(_points(N_PROBE, seed=7)):
        q = {"id": f"p{i:03d}", "op": "knn", "point": list(p), "k": 6}
        for _ in range(50):
            doc = (await socket_query(where, [q], timeout=60))[0]
            if doc["status"] == "ok":
                answers[q["id"]] = doc["result"]
                break
            assert doc["status"] == "shed", doc
            await asyncio.sleep(doc.get("retry_after") or 0.05)
        else:
            raise AssertionError(f"probe {q['id']} never admitted")
        await asyncio.sleep(0.02)   # stay under the admission rate
    return answers


def probe(where, out):
    answers = asyncio.run(_probe(where))
    assert len(answers) == N_PROBE
    with open(out, "w") as fh:
        json.dump(answers, fh, sort_keys=True, indent=1)
    print(f"probe: wrote {len(answers)} answers to {out}")


def mixed(where):
    good = []
    for i, p in enumerate(_points(48, seed=11)):
        op = ("knn", "range", "density")[i % 3]
        good.append({"id": f"g{i:02d}", "op": op, "point": list(p),
                     **({"radius": 0.08} if op == "range" else {"k": 1 + i % 9})})
    bad = [{"id": "bad-k", "op": "knn", "point": [0.5, 0.5, 0.5], "k": 10 ** 9},
           {"id": "bad-radius", "op": "range", "point": [0.5, 0.5, 0.5], "radius": -1.0},
           {"id": "bad-point", "op": "density", "point": [0.5, None, 0.5], "k": 4},
           {"id": "bad-op", "op": "nearest", "point": [0.5, 0.5, 0.5]}]
    wave = list(good)
    for j, doc in enumerate(bad):
        wave.insert(5 + 13 * j, doc)       # spread through the micro-batches
    replies = {d["id"]: d for d in asyncio.run(socket_query(where, wave, timeout=120))}
    assert len(replies) == len(wave) == len(good) + len(bad), (len(replies), len(wave))
    for doc in bad:
        reply = replies[doc["id"]]
        assert reply["status"] == "error" and reply.get("error"), reply
    for doc in good:
        reply = replies[doc["id"]]
        assert reply["status"] == "ok", reply
        alone = asyncio.run(socket_query(where, [doc], timeout=60))[0]
        assert alone["status"] == "ok" and alone["result"] == reply["result"], (reply, alone)
    print(f"mixed: {len(good)} good answers equal their solo answers, "
          f"{len(bad)} bad queries each got their own error")


def main():
    cmd, sock = sys.argv[1], sys.argv[2]
    where = sock if ":" in sock else f"unix:{sock}"
    if cmd == "burst":
        burst(where)
    elif cmd == "probe":
        probe(where, sys.argv[3])
    elif cmd == "mixed":
        mixed(where)
    else:
        raise SystemExit(f"unknown command {cmd!r}")


if __name__ == "__main__":
    main()
