"""Spatial-join + tiling layer (north rule, SURVEY.md §2.5/M6).

New engine-side design (no reference equivalent): hierarchical cell
encoding, web-mercator tile assignment, point-in-polygon against a
per-worker cached index; kNN uses the shared ``functions/ann`` top-k.
"""
