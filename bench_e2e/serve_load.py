"""serve_mixed: a real ``python -m repro serve`` subprocess under load
from one asyncio client connection.

Untraced: closed loop, rounds of 1 000 mixed queries with 64 outstanding
(callers that each wait for a reply); ``iter_s`` is the median round.
Traced: an open loop first (Poisson arrivals at 400 qps, each request
timed from when it was *due*, generator lateness reported), then three
closed-loop rounds, then the request path re-composed in-process from
public calls with a span per stage, checked against the replies of the
real server and of an in-process ``QueryService``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
from batch import check_coverage
from harness import MIN_REPS, OUT, Run, SameProgramError, digest
from stats import percentile
from repro.serve import (OPS, STATUS_OK, AdmissionConfig, AdmissionController,
                         BatchPolicy, InProcessClient, MicroBatcher,
                         QueryService, Response, ServeConfig,
                         build_resident_state, decode_query_line, encode_line,
                         execute_queries)

ROOT = Path(__file__).resolve().parent.parent
OPEN_RATE_QPS = 400.0
ROUND_QUERIES = 1_000
OUTSTANDING = 64
K, RADIUS = 8, 0.05
VERIFY_REPLIES = 300
STAGED_QUERIES = 4_096          # in-process legs: 16 groups of 4 batches


def make_queries(n: int, seed: int, tag: str) -> list[dict]:
    rng = np.random.default_rng([seed, sum(tag.encode())])
    ops = rng.integers(len(OPS), size=n)
    points = rng.uniform(-0.5, 0.5, size=(n, 3))
    out = []
    for i in range(n):
        doc = {"id": f"{tag}{i}", "op": OPS[ops[i]],
               "point": [float(c) for c in points[i]]}
        doc["radius" if doc["op"] == "range" else "k"] = (
            RADIUS if doc["op"] == "range" else K)
        out.append(doc)
    return out


class Server:
    """The server process and the one client connection to it."""

    def __init__(self, n: int, seed: int) -> None:
        OUT.mkdir(exist_ok=True)
        # relative to ROOT, the working directory of this process and of
        # the server: a Unix socket path is capped at ~108 bytes
        self.socket = f"{OUT.relative_to(ROOT)}/serve-{os.getpid()}.sock"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--n", str(n), "--seed", str(seed),
             "--socket", self.socket, "--checkpoint-dir", ""],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.reader = self.writer = None

    async def first_ok(self) -> None:
        """Connect (retrying while the server builds its tree) and get one
        ``ok`` reply: the server is resident and answering."""
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                self.reader, self.writer = await asyncio.open_unix_connection(
                    self.socket, limit=1 << 20)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                await asyncio.sleep(0.005)
        replies = await self.closed_loop(make_queries(1, 0, "hello"))
        if replies[0][1].get("status") != STATUS_OK:
            raise RuntimeError(f"first reply not ok: {replies[0][1]}")

    async def closed_loop(self, queries: list[dict]) -> list[tuple[dict, dict]]:
        """Keep OUTSTANDING requests in flight until all are answered;
        -> (query, reply) pairs."""
        lines = [encode_line(q) for q in queries]
        by_id = {q["id"]: q for q in queries}
        out = []
        sent = min(OUTSTANDING, len(lines))
        self.writer.writelines(lines[:sent])
        while len(out) < len(lines):
            reply = json.loads(await self.reader.readline())
            out.append((by_id[reply["id"]], reply))
            if sent < len(lines):
                self.writer.write(lines[sent])
                sent += 1
        return out

    async def open_loop(self, queries: list[dict], rate: float, seed: int):
        """Send on a Poisson schedule whatever the replies do.
        -> (pairs, latency from due time per reply, lateness per send)."""
        gaps = np.random.default_rng([seed, 600]).exponential(1.0 / rate, len(queries))
        due = np.cumsum(gaps)
        lines = [encode_line(q) for q in queries]
        index = {q["id"]: i for i, q in enumerate(queries)}
        late = [0.0] * len(queries)
        t0 = time.perf_counter()

        async def send() -> None:
            for i, line in enumerate(lines):
                wait = due[i] - (time.perf_counter() - t0)
                if wait > 0:
                    await asyncio.sleep(wait)
                late[i] = (time.perf_counter() - t0) - due[i]
                self.writer.write(line)

        sender = asyncio.ensure_future(send())
        pairs, latency = [], []
        try:
            for _ in queries:
                reply = json.loads(await self.reader.readline())
                i = index[reply["id"]]
                latency.append((time.perf_counter() - t0) - due[i])
                pairs.append((queries[i], reply))
            await sender
        finally:
            sender.cancel()
        return pairs, latency, late

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return float(status.split("VmHWM:")[1].split()[0]) / 1024.0

    async def close(self) -> dict:
        """SIGTERM -> drain -> the server's own ledger (its last line)."""
        if self.writer is not None:
            self.writer.close()
            await self.writer.wait_closed()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            stdout, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            stdout, _ = self.proc.communicate()
        lines = stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            return {}


def account(run: Run, phase: str, pairs) -> None:
    """Every reply that is not ``ok`` -- shed, expired or errored -- is a
    failed operation."""
    counts = {"sent": len(pairs), "ok": 0, "shed": 0, "expired": 0, "error": 0}
    for _, reply in pairs:
        status = reply.get("status")
        counts[status if status in counts else "error"] += 1
    run.detail.setdefault("phases", {})[phase] = counts
    bad = counts["sent"] - counts["ok"]
    run.attempted += counts["sent"]
    run.failed += bad
    if bad:
        run.misses.append(f"{phase}: {bad} of {counts['sent']} replies not ok: {counts}")


def verify(run: Run, state, pairs, max_results: int) -> None:
    """Brute-force check of a seeded sample of ``ok`` replies."""
    ok = [(q, r) for q, r in pairs if r.get("status") == STATUS_OK]
    pos, mass = state.tree.particles.position, state.tree.particles.mass
    misses = []
    for i in oracles.sample_indices(len(ok), VERIFY_REPLIES, run.seed):
        query, reply = ok[i]
        miss = oracles.check_serve_reply(pos, mass, query, reply["result"], max_results)
        if miss:
            misses.append(f"reply {query['id']}: {miss}")
    run.check(min(VERIFY_REPLIES, len(ok)), misses)


def serve_mixed(run: Run) -> None:
    asyncio.run(_serve_mixed(run))


async def _serve_mixed(run: Run) -> None:
    n = run.size(50_000, 2_000)
    round_queries = run.size(ROUND_QUERIES, 300)
    spec = {"kind": "clumps", "n": n, "seed": run.seed}
    server = Server(n, run.seed)
    try:
        await server.first_ok()
        run.setup_done()
        warm = await server.closed_loop(make_queries(round_queries // 3, run.seed, "warm"))
        pairs: list = []

        if run.trace:
            # p99 needs >= 1000 samples
            n_open = max(int(run.seconds * OPEN_RATE_QPS), 1_050)
            queries = make_queries(n_open, run.seed, "open")
            opened, latency, late = await server.open_loop(queries, OPEN_RATE_QPS, run.seed)
            account(run, "open", opened)
            pairs += opened

        rounds: list[float] = []

        async def one_round(k: int) -> None:
            queries = make_queries(round_queries, run.seed, f"r{k}-")
            t = time.perf_counter()
            pairs.extend(await server.closed_loop(queries))
            rounds.append(time.perf_counter() - t)

        while (len(rounds) < MIN_REPS) if run.trace else (
                not rounds or sum(rounds) < run.seconds):
            await one_round(len(rounds))
        account(run, "closed", pairs[-round_queries * len(rounds):])
        account(run, "warmup", warm)
        rss = server.peak_rss_mb()
    finally:
        ledger = await server.close()
    # the server's own ledger against the client's tallies (+1: the hello)
    phases = run.detail["phases"].values()
    want = {"offered": 1 + sum(p["sent"] for p in phases),
            "served": 1 + sum(p["ok"] for p in phases),
            "shed_total": sum(p["shed"] for p in phases),
            "expired": sum(p["expired"] for p in phases)}
    got = {key: ledger.get(key) for key in want}
    run.check(1, [] if got == want else
              [f"server ledger {got} disagrees with the client's tallies {want}"])

    config = ServeConfig(dataset=spec, status_every=0)
    if run.oracle:
        state = build_resident_state(spec)
        run.detail["input_digest"] = digest(state.particles.position)
        verify(run, state, pairs, config.max_results)
    if not run.trace:
        run.time("iter_s", rounds)
        run.metrics["peak_rss_mb"] = rss
        return

    ok = [r for _, r in opened if r.get("status") == STATUS_OK]
    counts = run.detail["phases"]["open"]
    run.time("saturation_qps", [round_queries / r for r in rounds])
    run.metrics.update({
        "lat_p50_ms": 1e3 * statistics.median(latency),
        "lat_p90_ms": 1e3 * percentile(latency, 0.90),
        "serve.lat_p99_ms": 1e3 * percentile(latency, 0.99),
        "serve.client_late_p99_ms": 1e3 * percentile(late, 0.99),
        "serve.queue_wait_p50_ms": 1e3 * statistics.median(r["queue_s"] for r in ok),
        "serve.service_p50_ms": 1e3 * statistics.median(r["service_s"] for r in ok),
        "serve.shed": counts["shed"], "serve.expired": counts["expired"],
        "serve.error": counts["error"],
    })
    run.detail["open_loop"] = {"rate_qps": OPEN_RATE_QPS, "n": len(latency)}
    await _request_path(run, config, pairs)


async def _request_path(run: Run, config: ServeConfig, pairs) -> None:
    """decode -> validate -> admit -> batch -> execute -> encode, re-composed
    from public calls over the same queries the real server answered.  Each
    group of queries goes first through an in-process ``QueryService``
    (the product, untraced) and then through the staged pipeline."""
    rec = run.rec
    with rec.span("serve.resident_build"):
        state = build_resident_state(config.dataset)
    admission = AdmissionController(AdmissionConfig())
    batcher = MicroBatcher(BatchPolicy(batch_max=4 * state.tree.bucket_size,
                                       batch_wait=config.batch_wait))
    size = batcher.policy.batch_max
    group = 4 * size
    n = min(run.size(STAGED_QUERIES, 2 * group), len(pairs)) // group * group
    queries = [q for q, _ in pairs[-n:]]
    served = {q["id"]: r.get("result") for q, r in pairs[-n:]}
    lines = [encode_line(q) for q in queries]
    product: dict = {}
    staged: dict = {}
    per_op = dict.fromkeys(OPS, 0)

    def batch_of(chunk: list[bytes]) -> None:
        with rec.span("iteration"):
            for line in chunk:
                with rec.span("serve.decode"):
                    query = decode_query_line(line)
                query.t = None
                with rec.span("serve.validate"):
                    bad = query.validate(state.n_particles, config.max_k)
                with rec.span("serve.admit"):
                    verdict = admission.offer(query, time.monotonic())
                if bad or verdict != "admitted":
                    raise SameProgramError(f"staged query refused: {bad or verdict}")
            with rec.span("serve.batch"):
                batch, _ = batcher.form_batch(admission.queue, time.monotonic())
            wire = [entry.query.to_wire() for entry in batch]
            results: dict = {}
            for op in OPS:
                docs = [doc for doc in wire if doc["op"] == op]
                if rec.rep >= 0:
                    per_op[op] += len(docs)
                with rec.span(f"serve.exec_{op}"):
                    out = execute_queries(state.tree, docs, config.max_results)
                results.update(zip((doc["id"] for doc in docs), out))
            admission.note_served(len(batch))
            for doc in wire:
                reply = Response(id=doc["id"], status=STATUS_OK, result=results[doc["id"]],
                                 queue_s=0.0, service_s=0.0)
                with rec.span("serve.encode"):
                    encoded = encode_line(reply.to_wire())
                staged[doc["id"]] = json.loads(encoded)

    service = QueryService(config)
    client = InProcessClient(service)
    product_s: list[float] = []
    # the service executes on its dispatch thread, the staged pipeline on
    # this one, never both at once: keep them on one CPU, or a host that
    # slows one vCPU slows one leg of every pair
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    await service.start()
    try:
        async def answer(chunk: list[bytes]) -> None:
            decoded = [decode_query_line(line) for line in chunk]
            for reply in await client.query_many(decoded):
                product[reply.id] = json.loads(encode_line(reply.to_wire()))

        await answer(lines[:group])                      # warm-up of both legs
        batch_of(lines[:size])
        for k in range(0, n, group):
            t = time.perf_counter()
            await answer(lines[k:k + group])
            product_s.append(time.perf_counter() - t)
            rec.rep = len(product_s) - 1
            for j in range(k, k + group, size):
                batch_of(lines[j:j + size])
            rec.rep = -1
    finally:
        await service.stop()
        os.sched_setaffinity(0, cpus)

    for qid, result in served.items():
        if not (staged[qid]["result"] == product[qid].get("result") == result):
            raise SameProgramError(
                f"serve_mixed: reply {qid} differs between the staged pipeline, "
                f"the in-process service and the server")
    stage_us = {}
    for stage in ("decode", "validate", "admit", "batch", "encode"):
        stage_us[stage] = 1e6 * sum(rec.samples(f"serve.{stage}")) / n
    for op in OPS:
        stage_us[f"exec_{op}"] = 1e6 * sum(rec.samples(f"serve.exec_{op}")) / max(per_op[op], 1)
    run.metrics.update({f"serve.{k}_us": v for k, v in stage_us.items()})
    run.probe_metric("serve.resident_build_s", "serve.resident_build")

    # per group: the staged batches against the product's wall time for them
    durations, sums = rec.layer_sums("iteration")
    per_group = group // size
    ratios = [(sum(durations[g * per_group:(g + 1) * per_group]) / p,
               sum(sums[g * per_group:(g + 1) * per_group]) / p)
              for g, p in enumerate(product_s)]
    coverage = statistics.median(r[1] for r in ratios)
    check_coverage(run, coverage)
    run.metrics.update({
        "bench.iter_untraced_s": statistics.median(product_s) / group,
        "bench.span_coverage": coverage,
        "bench.trace_overhead_frac": statistics.median(r[0] for r in ratios) - 1.0,
    })


WORKLOADS = {"serve_mixed": serve_mixed}
