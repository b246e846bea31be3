"""Each output check passes the program's real output and fails a corrupted one."""

from __future__ import annotations

import random

import pytest

from bench import checks
from bench.inputs import (
    BUCKET_SIZE,
    bucket_terms,
    make_documents,
    make_lexicon,
    plaintext_scores,
    posting_docs,
    sorted_chunks,
)
from repro.core.buckets import BucketOrganization
from repro.core.embellish import EmbellishedQuery, QueryEmbellisher
from repro.core.postfilter import post_filter
from repro.core.server import PrivateRetrievalServer
from repro.crypto.benaloh import generate_keypair
from repro.textsearch import InvertedIndex
from repro.textsearch.corpus import Corpus


@pytest.fixture(scope="module")
def system():
    lexicon = make_lexicon(600, seed=3)
    documents = make_documents(lexicon, 50, seed=4)
    index = InvertedIndex.build(Corpus(documents))
    organization = BucketOrganization(
        buckets=sorted_chunks(index.terms), bucket_size=BUCKET_SIZE,
        segment_size=0, specificity={},
    )
    keypair = generate_keypair(key_bits=128, block_size=3**9, rng=random.Random(5))
    embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(6)
    )
    server = PrivateRetrievalServer(
        index=index, organization=organization, public_key=keypair.public
    )
    ranked = sorted(index.terms, key=index.document_frequency, reverse=True)
    genuine = (ranked[0], ranked[5], ranked[9])
    query = embellisher.embellish(genuine)
    result = server.process_query(query)
    return {
        "documents": documents, "index": index,
        "organization": organization, "keypair": keypair, "genuine": genuine,
        "query": query, "result": result,
    }


class DroppedPosting:
    """An index whose posting list for ``term`` lost its first document."""

    def __init__(self, index, term):
        self.inner, self.term = index, term
        self.terms, self.stats = index.terms, index.stats

    def columns(self, term):
        doc_ids, impacts = self.inner.columns(term)
        if term == self.term:
            return doc_ids[1:], impacts[1:]
        return doc_ids, impacts


def test_ranking_check_rejects_a_swapped_ranking(system):
    ranking = post_filter(system["result"], system["keypair"].private, k=10).ranking
    assert len(ranking) >= 2
    assert checks.check_ranking(ranking, system["index"], system["genuine"], 10) == []
    swapped = (ranking[1], ranking[0]) + tuple(ranking[2:])
    assert checks.check_ranking(swapped, system["index"], system["genuine"], 10)


def test_candidate_check_rejects_a_dropped_candidate(system):
    result, query = system["result"], system["query"]
    want = posting_docs(system["index"], query.terms)
    assert checks.check_candidates(result.encrypted_scores, want) == []
    dropped = dict(result.encrypted_scores)
    dropped.pop(next(iter(dropped)))
    assert checks.check_candidates(dropped, want)


def test_decryption_check_rejects_a_perturbed_ciphertext(system):
    result, keypair = system["result"], system["keypair"]
    scores = plaintext_scores(system["index"], system["genuine"])
    doc = max(result.encrypted_scores, key=lambda d: scores.get(d, 0))
    ciphertext = result.encrypted_scores[doc]
    expected = scores[doc]
    assert checks.check_decryption(keypair.private, ciphertext, expected) == []
    perturbed = ciphertext * keypair.public.g % keypair.public.n  # adds 1 to the plaintext
    assert checks.check_decryption(keypair.private, perturbed, expected)


def test_embellished_check_rejects_a_foreign_term(system):
    query, organization, genuine = system["query"], system["organization"], system["genuine"]
    assert checks.check_embellished(query, genuine, organization) == []
    outside = next(t for t in system["index"].terms
                   if t not in bucket_terms(organization, genuine))
    terms = (outside,) + query.terms[1:]
    forged = EmbellishedQuery(terms=terms, encrypted_selectors=query.encrypted_selectors)
    assert checks.check_embellished(forged, genuine, organization)


def test_organization_check_rejects_a_reordered_layout(system):
    organization, index = system["organization"], system["index"]
    assert checks.check_organization(organization, index) == []
    buckets = list(organization.buckets)
    buckets[0], buckets[1] = buckets[1], buckets[0]
    reordered = BucketOrganization(
        buckets=tuple(buckets), bucket_size=BUCKET_SIZE, segment_size=0, specificity={}
    )
    assert checks.check_organization(reordered, index)


def test_index_checks_reject_a_missing_posting(system):
    index, documents = system["index"], system["documents"]
    assert checks.check_postings_match_documents(index, documents) == []
    rebuilt = InvertedIndex.build(Corpus(documents))
    assert checks.check_same_index(index, rebuilt, "rebuild") == []
    term = max(index.terms, key=index.document_frequency)
    broken = DroppedPosting(index, term)
    assert checks.check_postings_match_documents(broken, documents)
    assert checks.check_same_index(broken, rebuilt, "rebuild")
