"""Output checks, each against a reference the benchmark computes itself from
plaintext (no ciphertext enters a reference).

Every check returns a list of problems; an empty list means the output is
correct.  A workload counts an operation as failed when any check on its
outputs reports a problem, and keeps running.
"""

from __future__ import annotations

from repro.textsearch.tokenizer import Tokenizer

from bench.inputs import bucket_terms, plaintext_scores, sorted_chunks


def reference_top_k(scores: dict[int, int], k: int) -> list[tuple[int, int]]:
    """Top ``k`` by score then doc id, zero scores dropped."""
    ranked = sorted(
        ((doc, score) for doc, score in scores.items() if score > 0),
        key=lambda item: (-item[1], item[0]),
    )
    return ranked[:k]


def check_ranking(ranking, index, genuine, k: int) -> list[str]:
    """``ranking`` (``(doc_id, score)`` pairs from ``post_filter``) equals the
    plaintext top-k of the genuine terms."""
    got = [(int(doc), int(score)) for doc, score in ranking]
    want = reference_top_k(plaintext_scores(index, genuine), k)
    if got != want:
        return [f"ranking for {list(genuine)} is {got[:3]}..., reference {want[:3]}..."]
    return []


def check_organization(organization, index) -> list[str]:
    """The served layout is the sorted-dictionary chunking of the index."""
    if tuple(tuple(b) for b in organization.buckets) != sorted_chunks(index.terms):
        return ["served bucket layout differs from the sorted-dictionary chunking"]
    return []


def check_embellished(query, genuine, organization) -> list[str]:
    """The embellished term set is exactly the union of the genuine terms' buckets."""
    problems = []
    if len(set(query.terms)) != len(query.terms):
        problems.append("embellished query repeats a term")
    if set(query.terms) != bucket_terms(organization, genuine):
        problems.append(f"embellished terms of {list(genuine)} differ from their buckets")
    return problems


def check_candidates(doc_ids, want: frozenset[int]) -> list[str]:
    """The candidate set equals ``want``, the union of the embellished terms'
    posting doc ids (:func:`bench.inputs.posting_docs`)."""
    got = set(doc_ids)
    if got != want:
        return [
            f"candidate set has {len(got - want)} extra and "
            f"{len(want - got)} missing documents"
        ]
    return []


def check_decryption(private_key, ciphertext: int, expected: int) -> list[str]:
    """One sampled candidate decrypts to its plaintext score."""
    try:
        plaintext = private_key.decrypt(ciphertext)
    except ValueError as exc:  # not an encryption under this key at all
        return [f"candidate does not decrypt: {exc}"]
    if plaintext != expected:
        return [f"candidate decrypted to {plaintext}, plaintext sum {expected}"]
    return []


def check_postings_match_documents(index, documents) -> list[str]:
    """Every posting list holds exactly the live documents containing its term."""
    tokenizer = Tokenizer()
    want: dict[str, set[int]] = {}
    for document in documents:
        for term in tokenizer.term_frequencies(document.text):
            want.setdefault(term, set()).add(document.doc_id)
    problems = []
    if set(index.terms) != set(want):
        problems.append(
            f"dictionary has {len(set(index.terms) - set(want))} extra and "
            f"{len(set(want) - set(index.terms))} missing terms"
        )
    for term, docs in want.items():
        doc_ids, _ = index.columns(term)
        if set(doc_ids) != docs or len(doc_ids) != len(docs):
            problems.append(f"posting list of {term!r} does not match its documents")
            break
    return problems


def check_same_index(got, want, what: str) -> list[str]:
    """Same dictionary, document count and per-term ``(doc, impact)`` columns."""
    if set(got.terms) != set(want.terms):
        return [f"{what}: dictionaries differ"]
    if got.stats.num_documents != want.stats.num_documents:
        return [f"{what}: document counts differ"]
    for term in want.terms:
        got_docs, got_impacts = got.columns(term)
        want_docs, want_impacts = want.columns(term)
        if list(got_docs) != list(want_docs) or list(got_impacts) != list(want_impacts):
            return [f"{what}: posting list of {term!r} differs"]
    return []
