"""Stateful side-input models: shift grids, spatial indexes.

These are the objects held once per worker process: built lazily on
first use and kept by a ``functools.cache`` (``flagship.cached_stage``,
``polygons.layer_index``), then applied vectorized per batch by
stateless task maps.
"""
