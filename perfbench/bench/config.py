"""Input sizes, bands and fixed parameters of every workload.

``FULL`` is what ``perfbench/run.py`` measures; ``TINY`` exists so the
benchmark's own tests can drive every workload end to end in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from bench.inputs import Band

#: Seed of the client key.  Prime search time differs from key to key, so
#: one fixed key keeps the set-up work identical whatever ``--seed`` is.
KEY_SEED = 20100901
#: Documents each interactive query returns after decryption and ranking.
TOP_K = 10
#: The batch-time percentile reported as ``batch_ms_tail``.
TAIL_FRACTION = 0.9
#: Tenant name the services register.
TENANT = "bench"


@dataclass(frozen=True)
class Scale:
    key_bits: int
    synsets: int
    #: Set-ups per run by workload; ``setup_s`` is their median.
    setup_repeats: dict
    interactive_docs: int
    #: Candidate-count band of an interactive query (decryptions it costs).
    interactive_band: Band
    #: Band of its matches: candidates with a non-zero score, whose
    #: decryption costs about twice that of a zero (more non-zero digits).
    interactive_match_band: Band
    interactive_pass: int
    batch_docs: int
    #: Candidate-count band of each query of a served or sharded batch.
    batch_band: Band
    #: Batches of eight queries per pass.
    batch_pass: int
    #: Sampled candidates decrypted and checked per batch-workload run.
    decrypt_samples: int
    ingest_docs: int
    ingest_band: Band
    ingest_round_docs: int
    ingest_rounds: int


FULL = Scale(
    key_bits=1024,
    synsets=2500,
    setup_repeats={"interactive_query": 5, "served_batches": 3, "sharded_batches": 3,
                   "live_ingest": 5},
    interactive_docs=200,
    interactive_band=Band(74, 78),
    interactive_match_band=Band(16, 19),
    interactive_pass=2,
    batch_docs=2000,
    batch_band=Band(700, 800),
    batch_pass=16,
    decrypt_samples=4,
    ingest_docs=500,
    ingest_band=Band(180, 220),
    ingest_round_docs=10,
    ingest_rounds=16,
)

TINY = Scale(
    key_bits=128,
    synsets=600,
    setup_repeats=dict.fromkeys(
        ("interactive_query", "served_batches", "sharded_batches", "live_ingest"), 2
    ),
    interactive_docs=40,
    interactive_band=Band(1, 10**6),
    interactive_match_band=Band(1, 10**6),
    interactive_pass=2,
    batch_docs=80,
    batch_band=Band(1, 10**6),
    batch_pass=2,
    decrypt_samples=2,
    ingest_docs=60,
    ingest_band=Band(1, 10**6),
    ingest_round_docs=4,
    ingest_rounds=6,
)

SCALES = {"full": FULL, "tiny": TINY}
