"""Seeded inputs: corpora, bucket layouts, banded query lists.

Everything here is derived from ``--seed`` and is built before any timing.
The candidate count of a query -- the documents sharing a posting list with
any term of its genuine terms' buckets -- is computed from the organisation
and the index postings, so a query can be kept or dropped by the work it
will cost before it is ever sent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.buckets import BucketOrganization
from repro.core.workloads import QueryWorkloadGenerator
from repro.lexicon import build_lexicon
from repro.textsearch import InvertedIndex, SyntheticCorpusGenerator

#: Genuine terms per query.
QUERY_SIZE = 3
#: Terms per bucket (BktSz): the genuine term and seven decoys.
BUCKET_SIZE = 8
#: Queries per batch on the batch workloads.
BATCH_SIZE = 8
#: Draws of the query generator before a band is declared unreachable.
MAX_DRAWS = 50_000


@dataclass(frozen=True)
class Band:
    """Inclusive range of a per-query work count a kept query must fall in."""

    low: int
    high: int

    def __contains__(self, value: int) -> bool:
        return self.low <= value <= self.high


def make_lexicon(num_synsets: int, seed: int):
    return build_lexicon(num_synsets, seed=seed)


def make_documents(lexicon, num_documents: int, seed: int) -> list:
    return list(SyntheticCorpusGenerator(
        lexicon=lexicon, num_documents=num_documents, seed=seed
    ).generate())


def sorted_chunks(terms, bucket_size: int = BUCKET_SIZE) -> tuple[tuple[str, ...], ...]:
    """Consecutive runs of ``bucket_size`` terms in sorted order.

    The single-node service derives its layout this way from the index it
    serves; the benchmark derives it independently to check the layout the
    service hands out.
    """
    ordered = sorted(terms)
    return tuple(
        tuple(ordered[start:start + bucket_size])
        for start in range(0, len(ordered), bucket_size)
    )


def bucket_terms(organization: BucketOrganization, genuine) -> frozenset[str]:
    """Union of the buckets of the genuine terms: the embellished term set."""
    terms: set[str] = set()
    for term in genuine:
        terms.update(organization.buckets[organization.bucket_id_of(term)])
    return frozenset(terms)


def posting_docs(index, terms) -> frozenset[int]:
    docs: set[int] = set()
    for term in terms:
        doc_ids, _ = index.columns(term)
        docs.update(doc_ids)
    return frozenset(docs)


def postings_count(index, terms) -> int:
    return sum(index.document_frequency(term) for term in terms)


def banded_queries(
    index: InvertedIndex,
    organization: BucketOrganization,
    seed: int,
    count: int,
    band: Band,
    match_band: Band | None = None,
) -> list[tuple[str, ...]]:
    """``count`` distinct frequency-weighted 3-term queries whose candidate
    count lies in ``band`` and, when given, whose matches (documents holding
    a genuine term, i.e. candidates with a non-zero score) lie in
    ``match_band``.

    Queries come from :meth:`QueryWorkloadGenerator.frequency_weighted_query`
    seeded with ``seed``, restricted to terms the organisation buckets.
    """
    generator = QueryWorkloadGenerator(index, seed=seed)
    kept: list[tuple[str, ...]] = []
    seen: set[frozenset] = set()
    for _ in range(MAX_DRAWS):
        query = generator.frequency_weighted_query(QUERY_SIZE)
        key = frozenset(query)
        if key in seen or any(term not in organization for term in query):
            continue
        seen.add(key)
        if len(posting_docs(index, bucket_terms(organization, query))) not in band:
            continue
        if match_band is not None and len(posting_docs(index, query)) not in match_band:
            continue
        kept.append(query)
        if len(kept) == count:
            return kept
    raise RuntimeError(
        f"only {len(kept)} of {count} queries fell in candidate band "
        f"[{band.low}, {band.high}] after {MAX_DRAWS} draws"
    )


def plaintext_scores(index, genuine) -> dict[int, int]:
    """Per-document sum of the genuine terms' quantised impacts (Algorithm 4
    without the encryption), read through the index read API."""
    scores: dict[int, int] = {}
    for term in dict.fromkeys(genuine):
        doc_ids, impacts = index.columns(term)
        for doc_id, impact in zip(doc_ids, impacts):
            scores[doc_id] = scores.get(doc_id, 0) + int(impact)
    return scores


def sample_positions(seed: int, shape: list[int], count: int) -> list[tuple[int, int]]:
    """``count`` seeded ``(batch, query)`` positions over batches of sizes ``shape``."""
    rng = random.Random(seed)
    positions = [(b, q) for b, size in enumerate(shape) for q in range(size)]
    return sorted(rng.sample(positions, k=min(count, len(positions))))
