"""One benchmark run: inputs, repeated set-up, warm-up, timed window(s), checks.

An untraced run reports the end-to-end metrics.  A traced run measures the
same window untraced first and then again with spans, reports the per-layer
metrics from the traced window, and writes the spans to ``perfbench/out``;
the difference between its two windows is the tracing overhead.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from bench.common import OUT_DIR, WORK_DIR, Children, environment, median, write_json
from bench.config import SCALES
from bench.http_workloads import HttpWorkload
from bench.ingest import IngestWorkload
from bench.spans import NullTracer, Tracer, duration

WORKLOADS = {
    "interactive_query": HttpWorkload,
    "served_batches": HttpWorkload,
    "sharded_batches": HttpWorkload,
    "live_ingest": IngestWorkload,
}

#: End-to-end metrics: name -> unit.  Every run reports all of them.
#: ``batch_ms_p50`` and ``batch_ms_tail`` are reported beside them, ungated:
#: interactive_query holds four requests a run, too few for either.
END_TO_END = {
    "setup_s": "s",
    "query_ms_p50": "ms",
    "qps": "1/s",
    "ingest_docs_per_s": "1/s",
    "traffic_kb_per_query": "kB",
    "server_rss_mb": "MiB",
}

#: Per-layer metrics of a traced run: name -> unit.  A layer a workload's
#: path does not include reads 0.
PER_LAYER = {
    "embellish.ms": "ms/query",
    "embellish.replenish_ms": "ms/query",
    "embellish.terms": "count/query",
    "wire.encode_query_ms": "ms/query",
    "wire.decode_result_ms": "ms/query",
    "wire.result_kb": "kB/query",
    "service.request_ms": "ms/request",
    "service.service_ms": "ms/request",
    "service.queue_wait_ms": "ms/request",
    "service.overhead_ms": "ms/request",
    "server.ms": "ms/query",
    "server.accumulate_ms": "ms/query",
    "server.postings": "count/query",
    "server.table_mults": "count/query",
    "server.acc_mults": "count/query",
    "server.candidates": "count/query",
    "postfilter.ms": "ms/query",
    "benaloh.decrypt_ms": "ms/ciphertext",
    "postfilter.decrypts": "count/query",
    "coordinator.batch_ms": "ms/batch",
    "cluster.shard_ms_max": "ms/batch",
    "cluster.shard_ms_min": "ms/batch",
    "coordinator.merge_ms": "ms/batch",
    "cluster.partials_kb": "kB/query",
    "partitioning.max_postings_share": "ratio",
    "index.add_ms_per_doc": "ms/doc",
    "index.remove_ms_per_doc": "ms/doc",
    "index.maintain_ms": "ms/round",
    "index.merges": "count/round",
    "index.save_ms": "ms/round",
    "index.written_kb_per_doc": "kB/doc",
    "index.first_read_ms": "ms/round",
    "index.segments": "count",
    "index.disk_mb": "MiB",
    "setup.index_build_s": "s",
    "setup.save_s": "s",
    "setup.buckets_s": "s",
    "setup.keygen_s": "s",
    "setup.service_start_s": "s",
    "trace.uncovered_ms": "ms/op",
    "trace.overhead_pct": "%",
}

#: Seconds of bulk build and save a read-only workload's ingest rate is taken over.
BULK_SECONDS = 4.0

SETUP_LAYERS = {
    "setup.index_build_s": "setup.index_build",
    "setup.save_s": "setup.save",
    "setup.buckets_s": "setup.buckets",
    "setup.keygen_s": "setup.keygen",
    "setup.service_start_s": "setup.service_start",
}


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload; returns the full report (the last line is built from it)."""
    scale = SCALES[size]
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    children = Children()
    bench = WORKLOADS[workload](workload, scale, seed, Path(work), children)
    try:
        report = _run(bench, workload, seed, seconds, trace, scale)
    finally:
        bench.tear_down()
        children.close()
        shutil.rmtree(work, ignore_errors=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    write_json(OUT_DIR / f"{name}.json", {k: v for k, v in report.items() if k != "spans"})
    if trace:
        write_json(OUT_DIR / f"spans-{name}.json", report.pop("spans"))
    return report


def _run(bench, workload, seed, seconds, trace, scale) -> dict:
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "environment": environment()}
    report["inputs"] = bench.make_inputs()

    setup_tracer = Tracer()
    setups = []
    for repeat in range(scale.setup_repeats[workload]):
        if repeat:
            bench.tear_down()
        with setup_tracer.span("setup") as span:
            bench.set_up(repeat, setup_tracer)
        setups.append(duration(span))
    bench.prepare()
    bench.warm_up()

    ops: list[dict] = []
    plain = bench.measure(seconds, NullTracer(), ops)
    windows = [plain]
    if not trace:
        rss = bench.server_rss_mib()
        late = bench.final_checks()
    else:
        tracer = Tracer()
        undo = bench.patch_client_layers(tracer)
        try:
            traced = bench.measure(seconds, tracer, ops)
            windows.append(traced)
            rss = bench.server_rss_mib()
            late = bench.final_checks()
            layers = dict.fromkeys(PER_LAYER, 0.0)
            layers.update(bench.layers(traced, tracer))
        finally:
            for restore in undo:
                restore()

    # -- correctness ----------------------------------------------------------------
    # An operation fails when it raised or a check found a wrong output;
    # ``correct`` is false only for the latter.
    failed_ops = {i for i, op in enumerate(ops) if op["problems"] or op.get("error")}
    problems = [p for op in ops for p in op["problems"]] + list(bench.problems)
    for op_number, found in late:
        if found:
            failed_ops.add(op_number)
            problems += found
    if bench.problems:
        failed_ops = set(range(len(ops)))
    report["attempted"] = len(ops)
    report["failed"] = len(failed_ops)
    report["correct"] = not problems
    report["problems"] = problems[:20]
    report["errors"] = [op["error"] for op in ops if op.get("error")][:20]
    report["passes"] = [window["passes"] for window in windows]

    # -- end-to-end -----------------------------------------------------------------
    e2e = bench.end_to_end(plain)
    e2e["setup_s"] = median(setups)
    e2e["server_rss_mb"] = rss
    if "ingest_docs_per_s" not in e2e:
        e2e["ingest_docs_per_s"] = bulk_ingest_rate(
            bench, setup_tracer, report["inputs"]["documents"]
        )
    report["end_to_end"] = e2e
    report["setups_s"] = setups

    if trace:
        for metric, span_name in SETUP_LAYERS.items():
            spans = setup_tracer.by_name(span_name)
            layers[metric] = median(duration(s) for s in spans) if spans else 0.0
        plain_op = median(_op_seconds(op) for op in plain["ops"])
        traced_op = median(_op_seconds(op) for op in traced["ops"])
        layers["trace.overhead_pct"] = (traced_op / plain_op - 1.0) * 100.0
        unknown = set(layers) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"unlisted per-layer metrics {sorted(unknown)}")
        report["per_layer"] = layers
        report["end_to_end_traced"] = bench.end_to_end(traced)
        report["self_ms"] = _self_table(tracer)
        report["spans"] = tracer.records()
    return report


def bulk_ingest_rate(bench, setup_tracer: Tracer, documents: int) -> float:
    """Documents made durable per second on a read-only workload.

    Its only writes are the bulk build and save of its corpus, so the rate
    is taken over the set-ups' builds and saves, plus further ones until
    ``BULK_SECONDS`` of them have been timed.
    """
    writes = [duration(s) for s in setup_tracer.by_name("setup.index_build")
              + setup_tracer.by_name("setup.save")]
    rounds = len(setup_tracer.by_name("setup.save"))
    while sum(writes) < BULK_SECONDS:
        tracer = Tracer()  # records exactly one build and one save
        directory = bench.work / f"bulk-{rounds}"
        bench.write_index(directory, tracer)
        shutil.rmtree(directory, ignore_errors=True)
        writes += [duration(s) for s in tracer.spans]
        rounds += 1
    return documents * rounds / sum(writes)


def _op_seconds(op) -> float:
    if "write_s" in op:
        return op["write_s"] + op["read_s"]
    return op["seconds"]


def _self_table(tracer) -> dict:
    """Total self time per span name, in ms."""
    table: dict[str, float] = {}
    self_times = tracer.self_times()
    for span in tracer.spans:
        table[span[1]] = table.get(span[1], 0.0) + self_times[span[0]] * 1e3
    return dict(sorted(table.items(), key=lambda item: -item[1]))


def result_line(report: dict, trace: bool) -> dict:
    """The last line of standard output."""
    if trace:
        values = {name: (report["per_layer"][name], unit) for name, unit in PER_LAYER.items()}
    else:
        values = {name: (report["end_to_end"][name], unit) for name, unit in END_TO_END.items()}
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
