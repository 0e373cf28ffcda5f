"""Nearest-neighbour index substrate (the FAISS stand-in).

``brute.knn_join`` is exact L2 top-k executed as one distributed Spark
job for all committee members: the (small) member matrices are
broadcast, the queries are cut into fixed row blocks spread over
``defaultParallelism`` tasks, and each block computes every member's
top-k with vectorized numpy — the same semantics as FAISS
``IndexFlatL2.search`` in the paper (tiles of queries against a
resident index). ``repro.core.ibc.retrieve_cand`` collects the
committee's pairs and merges them into CAND on the driver. ``kmeans`` provides k-means++ seeding
for the BADGE selector.
"""
from repro.index.brute import knn_join, knn_numpy  # noqa: F401
from repro.index.kmeans import kmeans_pp_indices  # noqa: F401
