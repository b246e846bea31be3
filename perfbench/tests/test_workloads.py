"""Every workload runs end to end at a tiny size, and a corrupted output shows
up as failed operations rather than passing unnoticed."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import http_workloads, ingest, runner

BENCH_DIR = Path(__file__).resolve().parents[1]
WORKLOADS = tuple(runner.WORKLOADS)


def tiny(workload: str, trace: bool = False) -> dict:
    return runner.run(workload, seed=7, seconds=0.2, trace=trace, size="tiny")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_checks_clean(workload):
    report = tiny(workload)
    assert report["failed"] == 0, report["problems"] + report["errors"]
    assert report["correct"]
    assert report["attempted"] >= 1
    line = runner.result_line(report, trace=False)
    assert set(line["metrics"]) == set(runner.END_TO_END)
    for name, metric in line["metrics"].items():
        assert metric["value"] > 0, name
        assert metric["unit"] == runner.END_TO_END[name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    report = tiny(workload, trace=True)
    assert report["failed"] == 0, report["problems"] + report["errors"]
    line = runner.result_line(report, trace=True)
    assert set(line["metrics"]) == set(runner.PER_LAYER)
    layers = report["per_layer"]
    on_path = {
        "interactive_query": ("postfilter.ms", "benaloh.decrypt_ms", "service.request_ms",
                              "server.ms", "embellish.ms", "setup.service_start_s"),
        "served_batches": ("wire.decode_result_ms", "service.service_ms", "server.accumulate_ms",
                           "embellish.terms", "setup.keygen_s", "coordinator.batch_ms",
                           "cluster.partials_kb", "partitioning.max_postings_share"),
        "sharded_batches": ("coordinator.batch_ms", "cluster.shard_ms_max",
                            "cluster.partials_kb", "partitioning.max_postings_share"),
        "live_ingest": ("index.add_ms_per_doc", "index.save_ms", "index.written_kb_per_doc",
                        "index.segments", "server.ms", "setup.buckets_s"),
    }[workload]
    for name in on_path:
        assert layers[name] > 0, name
    spans = runner.OUT_DIR / f"spans-{workload}-seed7-trace1.json"
    assert any(span["name"] == "op" for span in json.loads(spans.read_text()))


def test_swapped_ranking_fails_interactive_queries(monkeypatch):
    real = http_workloads.post_filter

    def swapped(*args, **kwargs):
        result = real(*args, **kwargs)
        ranking = result.ranking
        object.__setattr__(result, "ranking", (ranking[1], ranking[0]) + ranking[2:])
        return result

    monkeypatch.setattr(http_workloads, "post_filter", swapped)
    report = tiny("interactive_query")
    assert report["failed"] == report["attempted"]
    assert not report["correct"]


def test_dropped_candidate_fails_served_batches(monkeypatch):
    real = http_workloads.decode_result

    def dropping(line, modulus):
        result = real(line, modulus)
        result.encrypted_scores.pop(next(iter(result.encrypted_scores)))
        return result

    monkeypatch.setattr(http_workloads, "decode_result", dropping)
    report = tiny("served_batches")
    assert report["failed"] == report["attempted"]
    assert not report["correct"]


def test_perturbed_ciphertext_fails_a_sampled_batch(monkeypatch):
    real = http_workloads.decode_result

    def perturbing(line, modulus):
        result = real(line, modulus)
        for doc in result.encrypted_scores:
            result.encrypted_scores[doc] = result.encrypted_scores[doc] * 2 % modulus
        return result

    monkeypatch.setattr(http_workloads, "decode_result", perturbing)
    report = tiny("sharded_batches")
    assert 0 < report["failed"] < report["attempted"]
    assert not report["correct"]


def test_missing_posting_fails_live_ingest(monkeypatch):
    real = ingest.InvertedIndex.add_documents

    def skipping(self, documents):
        documents = list(documents)
        return real(self, documents[1:])  # the first document never reaches the index

    monkeypatch.setattr(ingest.InvertedIndex, "add_documents", skipping)
    report = tiny("live_ingest")
    assert report["failed"] > 0
    assert not report["correct"]


def test_counting_client_counts_each_response_byte_once(tmp_path):
    from bench.common import Children
    from bench.config import TINY
    from bench.spans import NullTracer

    children = Children()
    bench = http_workloads.HttpWorkload("served_batches", TINY, 5, tmp_path, children)
    try:
        bench.make_inputs()
        bench.set_up(0, NullTracer())
        bench.prepare()
        client, queries = bench.client, bench.embellished[0]
        before = client.received
        lines = list(client.submit_batch(bench.session, queries, bench.modulus))
        body = sum(len(json.dumps(line).encode("utf-8")) + 1 for line in lines)
        assert client.received - before == body
    finally:
        bench.tear_down()
        children.close()


def test_command_prints_one_json_line_last():
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "served_batches",
         "--seed", "3", "--seconds", "0.2", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, cwd=BENCH_DIR.parent, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "served_batches",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60, env=env,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
