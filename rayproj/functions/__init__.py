"""Training-data-pipeline operators: text analysis, dedup, similarity.

Each operator is a vectorized per-batch function designed for a
stateless ``Dataset.map_batches`` task; state a worker reuses across
batches sits behind a ``functools.cache``.
"""
