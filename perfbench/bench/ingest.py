"""The ``live_ingest`` workload: writes beside reads on an in-process index.

The index uses the paper's bucket organisation (Algorithms 1-2 over the
lexicon).  A pass is a fixed stream of rounds replayed on a fresh copy of
the index saved at set-up; each round adds documents, removes as many of the
oldest ones so the live size stays level, runs ``maintain()``, makes an
incremental WAL ``save`` back onto the same directory, and answers one
8-query batch through :meth:`PrivateRetrievalServer.iter_batch` (the
streaming form of ``process_batch``).  Because every pass starts from the
same saved state, every pass does the same writes, merges and reads.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from pathlib import Path

from repro.core import generate_buckets, sequence_dictionary
from repro.core.sequencing import concatenate_sequences
from repro.core.client import DEFAULT_BLOCK_SIZE
from repro.core.embellish import QueryEmbellisher
from repro.core.server import PrivateRetrievalServer
from repro.lexicon import hypernym_depth_specificity
from repro.crypto import benaloh
from repro.core import parallel
from repro.service.wire import encode_result
from repro.textsearch import InvertedIndex
from repro.textsearch.corpus import Corpus
from repro.textsearch.tokenizer import Tokenizer

from bench import checks
from bench.common import directory_bytes, median, peak_rss_mib, tail
from bench.config import KEY_SEED, TAIL_FRACTION
from bench.http_workloads import mean_ms, request_bytes, uncovered_ms
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
)
from bench.spans import NullTracer, Tracer, duration


def searchable_organization(lexicon, index):
    """Algorithms 1-2 over the lexicon's sequenced dictionary, keeping the
    terms the index can search (as ``build_private_search_system`` does)."""
    searchable = set(index.terms)
    sequence = [
        term for term in concatenate_sequences(sequence_dictionary(lexicon))
        if term in searchable
    ]
    return generate_buckets(
        sequence, hypernym_depth_specificity(lexicon), bucket_size=BUCKET_SIZE
    )


class IngestWorkload:
    name = "live_ingest"

    def __init__(self, name: str, scale, seed: int, work: Path, children) -> None:
        self.scale = scale
        self.seed = seed
        self.work = work
        self.problems: list[str] = []
        self.setup_dir: Path | None = None

    # -- inputs (untimed) ---------------------------------------------------------------
    def make_inputs(self) -> dict:
        scale = self.scale
        self.lexicon = make_lexicon(scale.synsets, self.seed)
        documents = make_documents(
            self.lexicon, scale.ingest_docs + scale.ingest_round_docs * scale.ingest_rounds,
            self.seed + 1,
        )
        self.base = documents[:scale.ingest_docs]
        stream = documents[scale.ingest_docs:]
        live = [document.doc_id for document in self.base]
        by_id = {document.doc_id: document for document in documents}
        self.rounds = []
        for number in range(scale.ingest_rounds):
            adds = stream[number * scale.ingest_round_docs:(number + 1) * scale.ingest_round_docs]
            removes, live = live[:len(adds)], live[len(adds):] + [d.doc_id for d in adds]
            first = sorted(Tokenizer().term_frequencies(adds[0].text))[0]
            self.rounds.append((adds, removes, first))
        self.final_live = [by_id[doc_id] for doc_id in live]
        index = InvertedIndex.build(Corpus(self.base))
        organization = searchable_organization(self.lexicon, index)
        genuine = banded_queries(
            index, organization, self.seed + 2, scale.ingest_rounds * BATCH_SIZE,
            scale.ingest_band,
        )
        self.batches = [
            genuine[start:start + BATCH_SIZE] for start in range(0, len(genuine), BATCH_SIZE)
        ]
        terms = [bucket_terms(organization, query) for query in genuine]
        return {
            "documents": scale.ingest_docs,
            "documents_per_round": scale.ingest_round_docs,
            "rounds_per_pass": scale.ingest_rounds,
            "terms": index.num_terms,
            "queries_per_pass": len(genuine),
            "pass_candidates": sum(len(posting_docs(index, t)) for t in terms),
            "pass_postings": sum(postings_count(index, t) for t in terms),
        }

    # -- set-up (timed) -----------------------------------------------------------------
    def set_up(self, repeat: int, tracer) -> None:
        directory = self.work / f"setup-{repeat}"
        with tracer.span("setup.index_build"):
            index = InvertedIndex.build(Corpus(self.base))
        with tracer.span("setup.buckets"):
            self.organization = searchable_organization(self.lexicon, index)
        with tracer.span("setup.save"):
            index.save(directory / "index")
        with tracer.span("setup.keygen"):
            self.keypair = benaloh.generate_keypair(
                key_bits=self.scale.key_bits, block_size=DEFAULT_BLOCK_SIZE,
                rng=random.Random(KEY_SEED),
            )
        with tracer.span("setup.session"):
            PrivateRetrievalServer(
                index=index, organization=self.organization, public_key=self.keypair.public
            )
        self.setup_dir = directory

    def tear_down(self) -> None:
        if self.setup_dir is not None:
            shutil.rmtree(self.setup_dir, ignore_errors=True)
            self.setup_dir = None

    # -- preparation (untimed) ----------------------------------------------------------
    def prepare(self) -> None:
        embellisher = QueryEmbellisher(
            organization=self.organization, keypair=self.keypair,
            rng=random.Random(self.seed + 3),
        )
        self.embellisher = embellisher
        self.embellished = [[embellisher.embellish(g) for g in batch] for batch in self.batches]
        self.batch_problems = [
            [problem for genuine, query in zip(batch, queries)
             for problem in checks.check_embellished(query, genuine, self.organization)]
            for batch, queries in zip(self.batches, self.embellished)
        ]
        self.samples = set(sample_positions(
            self.seed + 4, [len(b) for b in self.batches], self.scale.decrypt_samples
        ))
        self.captured: dict[tuple[int, int], tuple[int, int, int]] = {}
        self.wire_bytes = 0
        self.index_dir = self.work / "live"

    # -- operations ---------------------------------------------------------------------
    def fresh_index(self):
        shutil.rmtree(self.index_dir, ignore_errors=True)
        shutil.copytree(self.setup_dir / "index", self.index_dir)
        index = InvertedIndex.load(self.index_dir)
        server = PrivateRetrievalServer(
            index=index, organization=self.organization, public_key=self.keypair.public
        )
        return index, server

    def round_op(self, number: int, index, server, tracer, ops) -> dict:
        adds, removes, first = self.rounds[number]
        queries = self.embellished[number]
        before = _files(self.index_dir) if tracer.enabled else None
        results, arrivals = [], []
        with tracer.span("op"):
            start = time.perf_counter()
            with tracer.span("index.add_documents"):
                index.add_documents(adds)
            with tracer.span("index.remove_documents"):
                index.remove_documents(removes)
            with tracer.span("index.maintain"):
                report = index.maintain()
            with tracer.span("index.save"):
                index.save(self.index_dir)
            written = time.perf_counter()
            if tracer.enabled:
                with tracer.span("index.first_read"):
                    index.columns(first)
            read = time.perf_counter()
            with tracer.span("server.process_batch"):
                for result in server.iter_batch(queries):
                    results.append(result)
                    arrivals.append(time.perf_counter() - read)
            finished = time.perf_counter()
        op = {
            "queries": len(queries),
            "write_s": written - start,
            "read_s": finished - read,
            "arrivals": arrivals,
            "merges": report["merges_committed"],
            "candidates": sum(len(r) for r in results),
            "postings": server.counters.postings_processed,
            "table_mults": server.counters.table_multiplications,
            "acc_mults": server.counters.modular_multiplications,
            "problems": list(self.batch_problems[number]),
        }
        if before is not None:
            op["written"] = _written(before, _files(self.index_dir))
        for slot, (query, result) in enumerate(zip(queries, results)):
            op["problems"] += checks.check_candidates(
                result.encrypted_scores, posting_docs(index, query.terms)
            )
            key = (number, slot)
            if key in self.samples and key not in self.captured and result.encrypted_scores:
                rng = random.Random(self.seed * 7919 + number * 131 + slot)
                doc = rng.choice(sorted(result.encrypted_scores))
                expected = plaintext_scores(index, self.batches[number][slot]).get(doc, 0)
                self.captured[key] = (len(ops), doc, result.encrypted_scores[doc], expected)
        return op, results

    def run_pass(self, tracer, ops: list, wire: bool = False) -> float:
        index, server = self.fresh_index()
        timed = 0.0
        first = len(ops)
        for number in range(len(self.rounds)):
            tracer.op = len(ops)
            op, results = self.round_op(number, index, server, tracer, ops)
            ops.append(op)
            timed += op["write_s"] + op["read_s"]
            if wire:
                self.wire_bytes += request_bytes(self.embellished[number]) + sum(
                    len(json.dumps(encode_result(r)).encode("utf-8")) for r in results
                )
        self.last_pass = (index, first, len(ops))
        return timed

    def warm_up(self) -> None:
        self.run_pass(NullTracer(), [], wire=True)
        self.captured.clear()  # samples come from timed operations only

    def measure(self, seconds: float, tracer, ops: list) -> dict:
        """Whole passes until ``seconds`` of write and read time; operations
        are appended to the run's ``ops`` so their numbers are run-wide."""
        first = len(ops)
        timed = 0.0
        passes = 0
        while timed < seconds:
            timed += self.run_pass(tracer, ops)
            passes += 1
        return {"ops": ops[first:], "timed": timed, "passes": passes}

    # -- after the timed window ---------------------------------------------------------
    def final_checks(self) -> list[tuple[int, list[str]]]:
        """Check the last pass's final index, then the sampled decryptions;
        returns ``(op number, problems)`` pairs."""
        index, first, end = self.last_pass
        problems = checks.check_postings_match_documents(index, self.final_live)
        problems += checks.check_same_index(
            index, InvertedIndex.build(Corpus(self.final_live)), "live index vs rebuild"
        )
        problems += checks.check_same_index(
            InvertedIndex.load(self.index_dir), index, "reloaded directory vs live index"
        )
        found = [(op, problems) for op in range(first, end)] if problems else []
        for op, _doc, ciphertext, expected in self.captured.values():
            found.append((op, checks.check_decryption(
                self.keypair.private, ciphertext, expected
            )))
        return found

    def end_to_end(self, window: dict) -> dict:
        ops = window["ops"]
        queries = sum(op["queries"] for op in ops)
        read_times = [op["read_s"] * 1e3 for op in ops]
        return {
            "qps": queries / sum(op["read_s"] for op in ops),
            "query_ms_p50": median(a for op in ops for a in op["arrivals"]) * 1e3,
            "batch_ms_p50": median(read_times),
            "batch_ms_tail": tail(read_times, TAIL_FRACTION),
            "ingest_docs_per_s": sum(len(self.rounds[i % len(self.rounds)][0])
                                     for i in range(len(ops)))
            / sum(op["write_s"] for op in ops),
            "traffic_kb_per_query": self.wire_bytes / sum(len(b) for b in self.batches) / 1e3,
            "samples": len(read_times),
        }

    def server_rss_mib(self) -> float:
        return peak_rss_mib()

    def patch_client_layers(self, tracer: Tracer) -> list:
        return [
            tracer.patch(parallel, "accumulate_terms", "server.accumulate"),
            tracer.patch(benaloh.ZeroEncryptionPool, "replenish", "embellish.replenish"),
            tracer.patch(benaloh.BenalohPrivateKey, "decrypt", "benaloh.decrypt"),
        ]

    def layers(self, window: dict, tracer: Tracer) -> dict:
        ops = window["ops"]
        rounds = len(ops)
        queries = sum(op["queries"] for op in ops)
        docs_added = sum(len(self.rounds[i % len(self.rounds)][0]) for i in range(rounds))
        docs_removed = sum(len(self.rounds[i % len(self.rounds)][1]) for i in range(rounds))

        def total(name):
            return sum(duration(s) for s in tracer.by_name(name))

        with tracer.span("prep"):
            for batch in self.batches:
                for genuine in batch:
                    with tracer.span("embellish"):
                        self.embellisher.embellish(genuine)
        self_times = tracer.self_times()
        embellish_spans = tracer.by_name("embellish")
        index = self.last_pass[0]
        embellished = [q for batch in self.embellished for q in batch]
        return {
            "embellish.ms": sum(self_times[s[0]] for s in embellish_spans)
            / len(embellish_spans) * 1e3,
            "embellish.replenish_ms": total("embellish.replenish") / len(embellish_spans) * 1e3,
            "embellish.terms": sum(len(q.terms) for q in embellished) / len(embellished),
            "server.ms": total("server.process_batch") / queries * 1e3,
            "server.accumulate_ms": total("server.accumulate") / queries * 1e3,
            "server.postings": sum(op["postings"] for op in ops) / queries,
            "server.table_mults": sum(op["table_mults"] for op in ops) / queries,
            "server.acc_mults": sum(op["acc_mults"] for op in ops) / queries,
            "server.candidates": sum(op["candidates"] for op in ops) / queries,
            "benaloh.decrypt_ms": mean_ms(tracer.by_name("benaloh.decrypt")),
            "index.add_ms_per_doc": total("index.add_documents") / docs_added * 1e3,
            "index.remove_ms_per_doc": total("index.remove_documents") / docs_removed * 1e3,
            "index.maintain_ms": total("index.maintain") / rounds * 1e3,
            "index.merges": sum(op["merges"] for op in ops) / rounds,
            "index.save_ms": total("index.save") / rounds * 1e3,
            "index.written_kb_per_doc": sum(op["written"] for op in ops) / docs_added / 1e3,
            "index.first_read_ms": total("index.first_read") / rounds * 1e3,
            "index.segments": float(index.num_segments),
            "index.disk_mb": directory_bytes(self.index_dir) / 2**20,
            "trace.uncovered_ms": uncovered_ms(tracer),
        }


def _files(directory: Path) -> dict[str, tuple[int, int]]:
    return {
        path.name: (stat.st_size, stat.st_mtime_ns)
        for path in directory.iterdir() if path.is_file()
        for stat in (path.stat(),)
    }


def _written(before: dict, after: dict) -> int:
    """Bytes a save wrote: new or rewritten files in full, appended logs by growth."""
    total = 0
    for name, (size, mtime) in after.items():
        old = before.get(name)
        if old is None:
            total += size
        elif old != (size, mtime):
            total += size - old[0] if name.endswith(".log") and size >= old[0] else size
    return total
