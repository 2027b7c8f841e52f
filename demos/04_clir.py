"""Unsupervised cross-lingual retrieval with aggregated embeddings.

Documents and queries are bags of words; each becomes the idf-weighted
mean of its word vectors, projected through an alignment, and documents
are ranked by cosine. Here both 'languages' share a toy vocabulary so we
can sanity-check every ranking by eye.

Run:  python3 demos/04_clir.py
"""

import numpy as np

from clembed.clir import (DocumentCollection, clir_run, clir_significance,
                          idf_weighting, tokenize, write_trec_run)
from clembed.embeddings import WordVectorSpace
from clembed.projection import identity_pair

docs = {
    "d1": tokenize("Apple apple banana."),
    "d2": tokenize("Banana, banana; cherry!"),
    "d3": tokenize("Cherry cherry cherry"),
    "d4": tokenize("apple cherry"),
    "d5": tokenize("banana"),
}
queries = {"q1": tokenize("apple"), "q2": tokenize("banana cherry")}
qrels = frozenset({("q1", "d1"), ("q1", "d4"), ("q2", "d2")})
collection = DocumentCollection(docs=docs, queries=queries, qrels=qrels)

space = WordVectorSpace(("apple", "banana", "cherry"), np.eye(3))
idf = idf_weighting(collection)
print("idf weights:", {t: round(w, 3) for t, w in idf.items()})

run = clir_run(collection, identity_pair(3), space, space, idf)
for qid, ranked in run.rankings.items():
    print(f"{qid}: {' > '.join(ranked)}")
print(f"MAP = {run.map_score:.4f} over {run.scored_queries} queries")

# A run is trivially indistinguishable from itself.
print("p-value vs. itself:", clir_significance(run, run))

write_trec_run(run, "demo_run.trec")
print("wrote demo_run.trec (TREC run format)")
