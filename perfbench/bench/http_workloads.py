"""The workloads that drive the HTTP service.

* ``interactive_query`` -- one user, one query per request, against
  ``scripts/serve.py`` over a few hundred documents; each result is
  decrypted and ranked inside the timed operation (Algorithm 5).
* ``served_batches`` -- one session sends 8-query batches to
  ``scripts/serve.py`` over ~2000 documents.  Queries are embellished before
  timing and results checked after each batch, outside the timed interval.
* ``sharded_batches`` -- the same index, key and batches through a front-end
  process whose :class:`~repro.core.coordinator.QueryCoordinator` scatters
  to two shard server processes split by
  :meth:`~repro.core.partitioning.BucketPartitioner.from_organization`.

The load generator is this process: one thread, one request in flight.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

from repro.core.buckets import BucketOrganization
from repro.core.client import DEFAULT_BLOCK_SIZE
from repro.core.coordinator import QueryCoordinator, ShardTopology
from repro.core.embellish import QueryEmbellisher
from repro.core.partitioning import BucketPartitioner, save_sharded
from repro.core.postfilter import PostFilterCounters, post_filter
from repro.core.server import PrivateRetrievalServer
from repro.crypto import benaloh
from repro.core import parallel
from repro.service import client as service_client
from repro.service.app import chunked_organization
from repro.service.client import ServiceClient, ServiceError
from repro.service.cluster import HttpShardBackend
from repro.service.wire import decode_result, encode_organization, encode_query
from repro.textsearch import InvertedIndex
from repro.textsearch.corpus import Corpus

from bench import checks
from bench.common import (
    FRONTEND_SCRIPT,
    SERVE_SCRIPT,
    median,
    peak_rss_mib,
    read_address,
    tail,
    wait_for_log_address,
    wait_healthy,
)
from bench.config import KEY_SEED, TAIL_FRACTION, TENANT, TOP_K
from bench.inputs import (
    BATCH_SIZE,
    BUCKET_SIZE,
    banded_queries,
    bucket_terms,
    make_documents,
    make_lexicon,
    plaintext_scores,
    posting_docs,
    postings_count,
    sample_positions,
    sorted_chunks,
)
from bench.spans import NullTracer, Tracer, covered, duration

NUM_SHARDS = 2


class CountingClient(ServiceClient):
    """A :class:`ServiceClient` that counts HTTP body bytes at the client.

    Response bodies are counted as they are read.  Request bodies are
    counted by encoding the payload a second time, so that is done only
    where ``count_sent`` asks for it (outside timed intervals, or where the
    extra encoding is part of a traced replay).
    """

    def __init__(self, host: str, port: int, *, count_sent: bool = False) -> None:
        super().__init__(host, port, timeout=300.0)
        self.count_sent = count_sent
        self.sent = 0
        self.received = 0
        self._reading = False

    def _request(self, method, path, payload=None):
        if self.count_sent and payload is not None:
            self.sent += len(json.dumps(payload).encode("utf-8"))
        response = super()._request(method, path, payload)
        for name in ("read", "readline"):
            original = getattr(response, name)

            def counted(*args, _original=original):
                # A chunked readline reads through read(): count the
                # outermost call only, so each byte is counted once.
                if self._reading:
                    return _original(*args)
                self._reading = True
                try:
                    data = _original(*args)
                finally:
                    self._reading = False
                self.received += len(data)
                return data

            setattr(response, name, counted)
        return response


def request_bytes(queries) -> int:
    """Body bytes of a batch request, as :meth:`ServiceClient.submit_batch` sends it."""
    return len(json.dumps({"queries": [encode_query(q) for q in queries]}).encode("utf-8"))


def stream_batch(client, session, queries, modulus, tracer):
    """Submit one batch and decode its stream: ``(results, arrivals, done, seconds)``.

    ``arrivals[i]`` is when query ``i``'s decoded result was in hand,
    counted from submission.
    """
    start = time.perf_counter()
    results, arrivals, done = [], [], None
    for line in client.submit_batch(session, queries, modulus):
        if line["kind"] == "result":
            with tracer.span("wire.decode_result"):
                results.append(decode_result(line, modulus))
            arrivals.append(time.perf_counter() - start)
        elif line["kind"] == "done":
            done = line
    elapsed = time.perf_counter() - start
    if done is None or len(results) != len(queries):
        raise ServiceError(500, f"batch returned {len(results)}/{len(queries)} results")
    return results, arrivals, done, elapsed


class HttpWorkload:
    """One of the three HTTP workloads; ``name`` picks which."""

    def __init__(self, name: str, scale, seed: int, work: Path, children) -> None:
        self.name = name
        self.scale = scale
        self.seed = seed
        self.work = work
        self.children = children
        self.interactive = name == "interactive_query"
        self.sharded = name == "sharded_batches"
        self.procs: list[subprocess.Popen] = []
        self.setup_dir: Path | None = None
        self.problems: list[str] = []

    # -- inputs (untimed) ---------------------------------------------------------------
    def make_inputs(self) -> dict:
        scale = self.scale
        lexicon = make_lexicon(scale.synsets, self.seed)
        num_docs = scale.interactive_docs if self.interactive else scale.batch_docs
        self.corpus = Corpus(make_documents(lexicon, num_docs, self.seed + 1))
        #: The benchmark's own plaintext index: the reference for every check.
        self.reference = InvertedIndex.build(self.corpus)
        layout = BucketOrganization(
            buckets=sorted_chunks(self.reference.terms), bucket_size=BUCKET_SIZE,
            segment_size=0, specificity={},
        )
        if self.interactive:
            self.queries = banded_queries(
                self.reference, layout, self.seed + 2, scale.interactive_pass,
                scale.interactive_band, scale.interactive_match_band,
            )
            genuine = self.queries
        else:
            genuine = banded_queries(
                self.reference, layout, self.seed + 2, scale.batch_pass * BATCH_SIZE,
                scale.batch_band,
            )
            self.batches = [
                genuine[start:start + BATCH_SIZE]
                for start in range(0, len(genuine), BATCH_SIZE)
            ]
        terms = [bucket_terms(layout, query) for query in genuine]
        return {
            "documents": num_docs,
            "terms": self.reference.num_terms,
            "queries_per_pass": len(genuine),
            "pass_candidates": sum(len(posting_docs(self.reference, t)) for t in terms),
            "pass_matches": sum(len(posting_docs(self.reference, q)) for q in genuine),
            "pass_postings": sum(postings_count(self.reference, t) for t in terms),
        }

    # -- set-up (timed) -----------------------------------------------------------------
    def write_index(self, directory: Path, tracer, sharded: bool | None = None):
        """Build the corpus's index and save it the way the service loads it;
        returns the shard layout when ``sharded`` (default: on sharded_batches)."""
        with tracer.span("setup.index_build"):
            index = InvertedIndex.build(self.corpus)
        if not (self.sharded if sharded is None else sharded):
            with tracer.span("setup.save"):
                index.save(directory / "index")
            return None
        organization = chunked_organization(index, BUCKET_SIZE)
        partitioner = BucketPartitioner.from_organization(
            organization, NUM_SHARDS,
            weights={term: index.document_frequency(term) for term in index.terms},
        )
        with tracer.span("setup.save"):
            layout = save_sharded(index, directory, partitioner)
            (directory / "organization.json").write_text(
                json.dumps(encode_organization(organization))
            )
        return layout

    def set_up(self, repeat: int, tracer) -> None:
        directory = self.work / f"setup-{repeat}"
        self.layout = self.write_index(directory, tracer)
        self.setup_dir = directory
        with tracer.span("setup.service_start"):
            address = self._start_processes(directory, tracer)
            self.client = CountingClient(*address)
            wait_healthy(self.client)
        with tracer.span("setup.session"):
            self.organization = self.client.organization(TENANT)
            self.session = self.client.open_session(TENANT, self.keypair.public)

    def _start_processes(self, directory: Path, tracer) -> tuple[str, int]:
        """Start the serving processes; the client key is generated while they boot."""
        python = sys.executable
        if not self.sharded:
            log = open(directory / "serve.log", "w")
            try:
                proc = self.children.spawn(
                    [python, str(SERVE_SCRIPT), "--tenant", f"{TENANT}={directory / 'index'}",
                     "--host", "127.0.0.1", "--port", "0",
                     "--bucket-size", str(BUCKET_SIZE)],
                    stdout=subprocess.DEVNULL, stderr=log,
                )
            finally:
                log.close()
            self.procs = [proc]
            self._keygen(tracer)
            return wait_for_log_address(proc, directory / "serve.log")
        shards = self._spawn_shards(self.layout)
        self.procs = list(shards)
        self._keygen(tracer)
        self.shard_addresses = [read_address(proc) for proc in shards]
        front = self.children.spawn(
            [python, str(FRONTEND_SCRIPT), "--sharded", str(directory),
             "--organization", str(directory / "organization.json"), "--tenant", TENANT]
            + [arg for host, port in self.shard_addresses
               for arg in ("--replica", f"{host}:{port}")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        self.procs.append(front)
        return read_address(front)

    def _spawn_shards(self, layout) -> list[subprocess.Popen]:
        """One shard server process per shard directory of ``layout``."""
        return [
            self.children.spawn(
                [sys.executable, "-m", "repro.service.cluster", "--serve-shard", str(shard_dir),
                 "--tenant", TENANT, "--host", "127.0.0.1"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            )
            for shard_dir in layout.shard_dirs
        ]

    def _keygen(self, tracer) -> None:
        with tracer.span("setup.keygen"):
            self.keypair = benaloh.generate_keypair(
                key_bits=self.scale.key_bits, block_size=DEFAULT_BLOCK_SIZE,
                rng=random.Random(KEY_SEED),
            )

    def tear_down(self) -> None:
        for proc in self.procs:
            self.children.stop(proc)
        self.procs = []
        if self.setup_dir is not None:
            shutil.rmtree(self.setup_dir, ignore_errors=True)
            self.setup_dir = None

    # -- preparation (untimed) ----------------------------------------------------------
    def prepare(self) -> None:
        """Check the served layout; embellish and check the batches."""
        self.problems += checks.check_organization(self.organization, self.reference)
        self.embellisher = QueryEmbellisher(
            organization=self.organization, keypair=self.keypair,
            rng=random.Random(self.seed + 3),
        )
        self.modulus = self.keypair.public.n
        if self.interactive:
            return
        self.embellished, self.expected, self.batch_problems = [], [], []
        for batch in self.batches:
            queries = [self.embellisher.embellish(genuine) for genuine in batch]
            self.embellished.append(queries)
            self.expected.append([posting_docs(self.reference, q.terms) for q in queries])
            self.batch_problems.append([
                problem for genuine, query in zip(batch, queries)
                for problem in checks.check_embellished(query, genuine, self.organization)
            ])
        self.request_bytes = [request_bytes(batch) for batch in self.embellished]
        self.samples = sample_positions(
            self.seed + 4, [len(b) for b in self.batches], self.scale.decrypt_samples
        )
        #: (batch, slot) -> (op number, doc id, ciphertext) of each sampled candidate.
        self.captured: dict[tuple[int, int], tuple[int, int, int]] = {}

    # -- operations ---------------------------------------------------------------------
    def query_op(self, position: int, tracer, number: int) -> dict:
        """One interactive query: embellish -> HTTP -> decode -> post_filter."""
        genuine = self.queries[position]
        counters = PostFilterCounters()
        received = self.client.received
        with tracer.span("op"):
            start = time.perf_counter()
            with tracer.span("embellish"):
                query = self.embellisher.embellish(genuine)
            sent = time.perf_counter()
            with tracer.span("service.request"):
                results, _, done, _ = stream_batch(
                    self.client, self.session, [query], self.modulus, tracer
                )
            answered = time.perf_counter()
            with tracer.span("postfilter"):
                ranking = post_filter(
                    results[0], self.keypair.private, k=TOP_K, counters=counters
                )
            finished = time.perf_counter()
        problems = (
            checks.check_embellished(query, genuine, self.organization)
            + checks.check_candidates(
                results[0].encrypted_scores, posting_docs(self.reference, query.terms)
            )
            + checks.check_ranking(ranking.ranking, self.reference, genuine, TOP_K)
        )
        return {
            "queries": 1,
            "seconds": finished - start,
            "request_s": answered - sent,
            "arrivals": [finished - start],
            "service_ms": done["service_ms"],
            "queue_wait_ms": done["queue_wait_ms"],
            "sent": request_bytes([query]),
            "received": self.client.received - received,
            "decrypts": counters.decryptions,
            "candidates": len(results[0]),
            "embellished": query,
            "problems": problems,
        }

    def batch_op(self, position: int, tracer, number: int) -> dict:
        """One served batch: submit -> stream -> decode every result."""
        queries = self.embellished[position]
        received = self.client.received
        with tracer.span("op"):
            with tracer.span("service.request"):
                results, arrivals, done, elapsed = stream_batch(
                    self.client, self.session, queries, self.modulus, tracer
                )
        problems = list(self.batch_problems[position])
        for slot, (result, want) in enumerate(zip(results, self.expected[position])):
            problems += checks.check_candidates(result.encrypted_scores, want)
            key = (position, slot)
            if key in self.samples and key not in self.captured and result.encrypted_scores:
                rng = random.Random(self.seed * 7919 + position * 131 + slot)
                doc = rng.choice(sorted(result.encrypted_scores))
                self.captured[key] = (number, doc, result.encrypted_scores[doc])
        return {
            "queries": len(queries),
            "seconds": elapsed,
            "request_s": elapsed,
            "arrivals": arrivals,
            "service_ms": done["service_ms"],
            "queue_wait_ms": done["queue_wait_ms"],
            "sent": self.request_bytes[position],
            "received": self.client.received - received,
            "candidates": sum(len(r) for r in results),
            "problems": problems,
        }

    def run_pass(self, tracer, ops: list) -> float:
        timed = 0.0
        count = len(self.queries) if self.interactive else len(self.embellished)
        operation = self.query_op if self.interactive else self.batch_op
        for position in range(count):
            tracer.op = len(ops)
            attempt = time.perf_counter()
            try:
                op = operation(position, tracer, len(ops))
            except (ServiceError, OSError) as exc:
                # A refused or broken request is a failed operation; its
                # time still counts towards the window so the run ends.
                op = {"queries": 0, "seconds": time.perf_counter() - attempt,
                      "problems": [], "error": repr(exc)}
            ops.append(op)
            timed += op["seconds"]
        return timed

    def warm_up(self) -> None:
        self.run_pass(NullTracer(), [])
        if not self.interactive:
            self.captured.clear()  # samples come from timed operations only

    def measure(self, seconds: float, tracer, ops: list) -> dict:
        """Whole passes until ``seconds`` of operation time; operations are
        appended to the run's ``ops`` so their numbers are run-wide."""
        first = len(ops)
        timed = 0.0
        passes = 0
        while timed < seconds:
            timed += self.run_pass(tracer, ops)
            passes += 1
        return {"ops": ops[first:], "timed": timed, "passes": passes}

    # -- after the timed window ---------------------------------------------------------
    def final_checks(self) -> list[tuple[int, list[str]]]:
        """Decrypt the sampled candidates; returns ``(op number, problems)`` pairs."""
        if self.interactive:
            return []
        found = []
        for (position, slot), (number, doc, ciphertext) in sorted(self.captured.items()):
            genuine = self.batches[position][slot]
            expected = plaintext_scores(self.reference, genuine).get(doc, 0)
            found.append((number, checks.check_decryption(
                self.keypair.private, ciphertext, expected
            )))
        return found

    def end_to_end(self, window: dict) -> dict:
        ops = [op for op in window["ops"] if not op.get("error")]
        queries = sum(op["queries"] for op in ops)
        if self.interactive:
            query_ms = median(op["seconds"] for op in ops) * 1e3
        else:
            query_ms = median(a for op in ops for a in op["arrivals"]) * 1e3
        batch_times = [op["request_s"] * 1e3 for op in ops]
        return {
            "qps": queries / window["timed"],
            "query_ms_p50": query_ms,
            "batch_ms_p50": median(batch_times),
            "batch_ms_tail": tail(batch_times, TAIL_FRACTION),
            "traffic_kb_per_query": sum(op["sent"] + op["received"] for op in ops) / queries / 1e3,
            "samples": len(batch_times),
        }

    def server_rss_mib(self) -> float:
        return sum(peak_rss_mib(proc.pid) for proc in self.procs)

    # -- traced replay of the server-side layers ---------------------------------------
    def layers(self, window: dict, tracer: Tracer) -> dict:
        ops = [op for op in window["ops"] if not op.get("error")]
        queries = sum(op["queries"] for op in ops)
        requests = len(ops)
        spans = tracer.spans

        def total(name):
            return sum(duration(s) for s in spans if s[1] == name)

        decode_s = total("wire.decode_result")
        request_s = total("service.request")
        service_ms = sum(op["service_ms"] for op in ops)
        layers = {
            "wire.encode_query_ms": total("wire.encode_query") / queries * 1e3,
            "wire.decode_result_ms": decode_s / queries * 1e3,
            "wire.result_kb": sum(op["received"] for op in ops) / queries / 1e3,
            "service.request_ms": request_s / requests * 1e3,
            "service.service_ms": service_ms / requests,
            "service.queue_wait_ms": sum(op["queue_wait_ms"] for op in ops) / requests,
            "service.overhead_ms": (request_s * 1e3 - service_ms - decode_s * 1e3) / requests,
        }
        if self.interactive:
            embellish_spans = tracer.by_name("embellish")
            embellished = [op["embellished"] for op in ops]
            layers.update({
                "postfilter.ms": total("postfilter") / queries * 1e3,
                "postfilter.decrypts": sum(op["decrypts"] for op in ops) / queries,
            })
        else:
            # The batches were embellished before timing; embellish the
            # same genuine queries again under the tracer to time the layer.
            with tracer.span("prep"):
                for batch in self.batches:
                    for genuine in batch:
                        with tracer.span("embellish"):
                            self.embellisher.embellish(genuine)
            embellish_spans = tracer.by_name("embellish")
            embellished = [q for batch in self.embellished for q in batch]
        replenish = total("embellish.replenish")
        self_times = tracer.self_times()
        layers.update({
            # Off the interactive path, the decryptions are the checks' samples.
            "benaloh.decrypt_ms": mean_ms(tracer.by_name("benaloh.decrypt")),
            "server.candidates": sum(op["candidates"] for op in ops) / queries,
            "embellish.ms": sum(self_times[s[0]] for s in embellish_spans)
            / len(embellish_spans) * 1e3,
            "embellish.replenish_ms": replenish / len(embellish_spans) * 1e3,
            "embellish.terms": sum(len(q.terms) for q in embellished) / len(embellished),
        })
        layers.update(self._replay_server(embellished, tracer))
        if self.sharded:
            layers.update(self._replay_coordinator(tracer))
        elif not self.interactive:
            layers.update(self._replay_split(tracer))
        layers["trace.uncovered_ms"] = uncovered_ms(tracer)
        return layers

    def _replay_split(self, tracer: Tracer) -> dict:
        """served_batches' view of the scatter/gather hop: split the same
        index as sharded_batches does, serve the shards from their own
        processes, and replay the batches through a coordinator."""
        self.layout = self.write_index(self.work / "split", NullTracer(), sharded=True)
        shards = self._spawn_shards(self.layout)
        try:
            self.shard_addresses = [read_address(proc) for proc in shards]
            return self._replay_coordinator(tracer)
        finally:
            for proc in shards:
                self.children.stop(proc)

    def _replay_server(self, embellished, tracer: Tracer) -> dict:
        """Answer the same queries through ``PrivateRetrievalServer.process_batch``
        in this process, over the index the service serves."""
        if self.sharded:
            index = self.reference
        else:
            index = InvertedIndex.load(self.setup_dir / "index", mmap=True)
        server = PrivateRetrievalServer(
            index=index, organization=self.organization, public_key=self.keypair.public
        )
        size = 1 if self.interactive else BATCH_SIZE
        batches = [embellished[i:i + size] for i in range(0, len(embellished), size)]
        for batch in batches:  # warm the power-plan cache, as the service's is
            server.process_batch(batch)
        postings = table = acc = 0
        undo = tracer.patch(parallel, "accumulate_terms", "server.accumulate")
        try:
            with tracer.span("replay"):
                for batch in batches:
                    with tracer.span("server.process_batch"):
                        server.process_batch(batch)
                    postings += server.counters.postings_processed
                    table += server.counters.table_multiplications
                    acc += server.counters.modular_multiplications
        finally:
            undo()
        count = len(embellished)
        return {
            "server.ms": sum(duration(s) for s in tracer.by_name("server.process_batch"))
            / count * 1e3,
            "server.accumulate_ms": sum(duration(s) for s in tracer.by_name("server.accumulate"))
            / count * 1e3,
            "server.postings": postings / count,
            "server.table_mults": table / count,
            "server.acc_mults": acc / count,
        }

    def _replay_coordinator(self, tracer: Tracer) -> dict:
        """Replay the batches through a coordinator in this process that
        scatters to the same shard server processes over HTTP."""
        backends = []
        for host, port in self.shard_addresses:
            backend = HttpShardBackend(host=host, port=port, tenant=TENANT,
                                       public_key=self.keypair.public)
            backend._client = CountingClient(host, port, count_sent=True)
            backends.append(backend)
        coordinator = QueryCoordinator(
            topology=ShardTopology(
                partitioner=self.layout.partitioner,
                replicas=tuple((backend,) for backend in backends),
                expected_epochs=self.layout.epochs,
            ),
            public_key=self.keypair.public,
        )
        for batch in self.embellished:
            coordinator.process_batch(batch)
        for backend in backends:
            backend._client.sent = backend._client.received = 0
        undo = tracer.patch(HttpShardBackend, "accumulate", "cluster.accumulate")
        try:
            with tracer.span("replay"):
                for batch in self.embellished:
                    with tracer.span("coordinator.process_batch"):
                        coordinator.process_batch(batch)
        finally:
            undo()
        children: dict[int, list] = {}
        for span in tracer.by_name("cluster.accumulate"):
            children.setdefault(span[2], []).append(duration(span))
        batch_spans = tracer.by_name("coordinator.process_batch")
        shard_max = [max(children.get(s[0], [0.0])) for s in batch_spans]
        shard_min = [min(children.get(s[0], [0.0])) for s in batch_spans]
        batch_ms = sum(duration(s) for s in batch_spans) / len(batch_spans) * 1e3
        queries = sum(len(batch) for batch in self.embellished)
        shard_postings = [0] * NUM_SHARDS
        for batch in self.embellished:
            for query in batch:
                for term in query.terms:
                    shard = self.layout.partitioner.shard_of(term)
                    shard_postings[shard] += self.reference.document_frequency(term)
        return {
            "coordinator.batch_ms": batch_ms,
            "cluster.shard_ms_max": sum(shard_max) / len(shard_max) * 1e3,
            "cluster.shard_ms_min": sum(shard_min) / len(shard_min) * 1e3,
            "coordinator.merge_ms": batch_ms - sum(shard_max) / len(shard_max) * 1e3,
            "cluster.partials_kb": sum(b._client.sent + b._client.received for b in backends)
            / queries / 1e3,
            "partitioning.max_postings_share": max(shard_postings) / sum(shard_postings),
        }

    def patch_client_layers(self, tracer: Tracer) -> list:
        """Span the calls the program makes inside the client-side path."""
        return [
            tracer.patch(service_client, "encode_query", "wire.encode_query"),
            tracer.patch(benaloh.ZeroEncryptionPool, "replenish", "embellish.replenish"),
            tracer.patch(benaloh.BenalohPrivateKey, "decrypt", "benaloh.decrypt"),
        ]


def mean_ms(spans) -> float:
    return sum(duration(s) for s in spans) / len(spans) * 1e3 if spans else 0.0


def uncovered_ms(tracer: Tracer) -> float:
    """Mean part of an operation's wall time that none of its child spans covers."""
    ops = tracer.by_name("op")
    if not ops:
        return 0.0
    children: dict[int, list] = {}
    for span in tracer.spans:
        if span[2] is not None:
            children.setdefault(span[2], []).append(span)
    return sum(
        duration(op) - covered(op, children.get(op[0], ())) for op in ops
    ) / len(ops) * 1e3
