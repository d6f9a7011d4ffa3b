"""The round-5 consolidation merged per-operator queries into joined /
tag-union driver rows. Where a member query is still a live function
of its union (``events_windows``' tumbling windows), a test pins that
its output equals the tagged subset of the union. ``projections_fwd``,
``events_joins``, ``dedup_surface`` and ``sampling`` compute all their
members in one pass over their table, so they have no member function
left; ``test_queries_oracle`` checks every tagged subset. The orphan
guard keeps every ``q_*`` reachable: each one
is registered in QUERIES or composed by another ``q_*``; the geolocate
guard keeps one per-doc read + geolocate path (``_per_doc``); the
top-k guard keeps one per-batch top-k kernel (``ann.topk_window``) and
one kNN self-join path; the polygon-index guard keeps one per-worker
``PolygonIndex`` build; the read guard keeps one parquet read
(``_read_path``); the per-key guard keeps one keyed group-apply
(``dedup.group_apply``); the actor-pool guard keeps every Ray Data map
a stateless task; the aggregate guard keeps every keyed aggregate on
``merge_partials`` or ``group_apply``."""

import ast
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from rayproj.functions.ann import IVFIndex
from rayproj.pipelines import queries as q

SF = "/root/testdata/sf0.001"


def _df(res):
    out = res.to_pandas() if hasattr(res, "to_pandas") else res
    return out.reset_index(drop=True)


def _sorted(df, by):
    return df.sort_values(by, kind="mergesort").reset_index(drop=True)


def test_events_windows_union_matches_split_queries(ray_session):
    merged = _df(q.q_events_windows(SF))
    tumb = _sorted(
        merged[merged["wkind"] == "tumbling"].drop(columns=["wkind"]),
        ["event_type", "window_id"])
    split = _sorted(
        _df(q.q_events_window(SF)).rename(columns={"window": "window_id"}),
        ["event_type", "window_id"])
    assert len(tumb) == len(split)
    for c in ("n_events", "sum_cents"):
        assert (tumb[c].to_numpy() == split[c].to_numpy()).all()


def test_no_orphan_queries():
    """Every q_* in queries.py is a QUERIES value or is called from
    another q_* body (docstrings don't count), and every oracle twin
    belongs to a registered query."""
    with open(q.__file__) as f:
        tree = ast.parse(f.read())
    bodies = {n.name: n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name.startswith("q_")}
    registered = {fn.__name__ for fn in q.QUERIES.values()}
    composed = {
        node.id
        for name, fn in bodies.items()
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id in bodies and node.id != name
    }
    assert sorted(set(bodies) - registered - composed) == []
    assert set(q.ORACLE_SQL) <= set(q.QUERIES)


def test_one_geolocate_path():
    """Per-doc queries geolocate through ``_per_doc`` only (the pages
    pipeline geolocates its fixture's row_id), and the per-batch
    geolocate helper and per-member ``tag_*`` functions stay gone."""
    with open(q.__file__) as f:
        tree = ast.parse(f.read())
    callers = sorted(
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "geolocate_ids"
    )
    assert callers == ["_per_doc", "q_pages_pipeline"]
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "_geoloc_batch" not in defined
    assert sorted(n for n in defined if n.startswith("tag_")) == []


def test_one_topk_path():
    """The ranked queries share one top-k kernel (``ann.topk_window``)
    and one per-key merge: no other ``argpartition``, no kNN module,
    none of the replaced top-k copies, no source top-3 shuffle, and one
    kNN self-join path (no IVF-pruned index, no ``use_ivf`` switch)."""
    def n_argpartition(node):
        return sum(isinstance(n, ast.Attribute) and n.attr == "argpartition"
                   for n in ast.walk(node))

    root = os.path.dirname(os.path.dirname(q.__file__))
    total, inside, defined, params = 0, 0, set(), set()
    for dirpath, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as f:
                tree = ast.parse(f.read())
            total += n_argpartition(tree)
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.ClassDef, ast.FunctionDef)):
                    defined.add(fn.name)
                if isinstance(fn, ast.FunctionDef):
                    params |= {a.arg for a in ast.walk(fn.args)
                               if isinstance(a, ast.arg)}
                    if (os.path.relpath(path, root), fn.name) == (
                            os.path.join("functions", "ann.py"), "topk_window"):
                        inside += n_argpartition(fn)
    assert total == inside > 0
    assert not os.path.exists(os.path.join(root, "spatial", "knn.py"))
    gone = {"partial_topk", "cosine_topk_batch", "merge_topk", "ann_dataset",
            "ExactPrunedKNN", "_knn_join_impl"}
    assert defined & gone == set()
    assert "use_ivf" not in params
    assert not hasattr(IVFIndex, "train")
    with open(q.__file__) as f:
        tree = ast.parse(f.read())
    fn = next(n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name == "q_source_top_chars")
    assert not any(isinstance(n, ast.Attribute) and n.attr == "map_groups"
                   for n in ast.walk(fn))


def test_one_polygon_index():
    """The flagship stage and the spatial queries share one per-worker
    polygon index: inside ``rayproj/`` only ``polygons.layer_index``
    builds a ``PolygonIndex``."""
    def n_builds(node):
        return sum(isinstance(n, ast.Call) and getattr(
            n.func, "id", getattr(n.func, "attr", None)) == "PolygonIndex"
            for n in ast.walk(node))

    root = os.path.dirname(os.path.dirname(q.__file__))
    total, inside = 0, 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as f:
                tree = ast.parse(f.read())
            total += n_builds(tree)
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and (
                        os.path.relpath(path, root), fn.name) == (
                        os.path.join("spatial", "polygons.py"), "layer_index"):
                    inside += n_builds(fn)
    assert total == inside == 1


def test_one_read_path():
    """Every parquet read in queries.py goes through ``_read_path``,
    which plans one read task per input file, fused with the map, and
    reads through ``parquet_source.ParquetFiles``: ``read_datasource`` is
    called there alone, and no ``read_parquet`` call is left."""
    with open(q.__file__) as f:
        tree = ast.parse(f.read())

    def called(nodes):
        return [getattr(n.func, "attr", getattr(n.func, "id", None))
                for n in nodes if isinstance(n, ast.Call)]

    read_path = next(fn for fn in tree.body
                     if isinstance(fn, ast.FunctionDef) and fn.name == "_read_path")
    everywhere = called(ast.walk(tree))
    assert everywhere.count("read_datasource") == 1
    assert "read_datasource" in called(ast.walk(read_path))
    assert "read_parquet" not in everywhere


def test_one_group_apply():
    """Every keyed group-apply in ``rayproj/`` is ``dedup.group_apply``:
    no per-key ``map_groups``, no ``n_buckets`` and no ``& 0x7FFFFFFF``
    bucket hash, and ``sort(...).map_batches(..., batch_size=None)``
    appears only in ``group_apply``."""
    def sort_then_block_map(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "map_batches"
                and isinstance(node.func.value, ast.Call)
                and getattr(node.func.value.func, "attr", None) == "sort"
                and any(k.arg == "batch_size" and isinstance(k.value, ast.Constant)
                        and k.value.value is None for k in node.keywords))

    root = os.path.dirname(os.path.dirname(q.__file__))
    sites = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as f:
                src = f.read()
            assert "map_groups" not in src, path
            assert "n_buckets" not in src, path
            tree = ast.parse(src)
            assert not any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.BitAnd)
                           and any(isinstance(x, ast.Constant) and x.value == 0x7FFFFFFF
                                   for x in (n.left, n.right))
                           for n in ast.walk(tree)), path
            sites += [(os.path.relpath(path, root), fn.name)
                      for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                      for n in ast.walk(fn) if sort_then_block_map(n)]
    assert sites == [(os.path.join("functions", "dedup.py"), "group_apply")]


def test_no_actor_pools():
    """``rayproj/`` runs every Ray Data map as a stateless task: no
    ``concurrency=``, ``fn_constructor_kwargs=`` or ``compute=`` keyword
    and no class passed to ``map_batches``. State a worker reuses is a
    ``functools.cache``, as in ``flagship.cached_stage``."""
    root = os.path.dirname(os.path.dirname(q.__file__))
    found = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as f:
                tree = ast.parse(f.read())
            classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
            for n in ast.walk(tree):
                if not isinstance(n, ast.Call):
                    continue
                found += [(path, k.arg) for k in n.keywords
                          if k.arg in ("concurrency", "fn_constructor_kwargs", "compute")]
                if getattr(n.func, "attr", None) == "map_batches" and n.args:
                    fn = n.args[0]
                    fn_name = getattr(fn, "id", None) or getattr(fn, "attr", None)
                    if fn_name in classes or (fn_name or "")[:1].isupper():
                        found.append((path, fn_name))
    assert found == []


def _aggregate_sites(tree):
    """(enclosing function, kind) of each Ray Data aggregate in ``tree``:
    a ``ray.data.aggregate`` import; a ``groupby(...)`` with no pandas
    keyword followed by a ``GroupedData`` method; a ``.limit(`` call; a
    Dataset reduction (``.sum/.min/.max/.mean/.std/.unique/.aggregate``
    on a column name, or ``.aggregate`` of an ``AggregateFn``); and a Dataset
    ``.sort(`` (a positional key or ``descending=``, which ``list.sort``
    never takes) outside ``group_apply``."""
    grouped = {"aggregate", "count", "sum", "min", "max", "mean", "std", "map_groups"}
    reductions = {"sum", "min", "max", "mean", "std", "unique", "aggregate"}

    def kind(node, fn):
        if isinstance(node, ast.ImportFrom) and node.module == "ray.data.aggregate":
            return "import"
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return None
        attr, recv = node.func.attr, node.func.value
        if (attr in grouped and isinstance(recv, ast.Call)
                and getattr(recv.func, "attr", None) == "groupby"
                and all(k.arg == "num_partitions" for k in recv.keywords)):
            return "groupby"
        if attr == "limit":
            return "limit"
        if attr in reductions and (
                any(k.arg == "on" for k in node.keywords)
                or any(isinstance(a, ast.Constant) and isinstance(a.value, str)
                       for a in node.args)):
            return attr
        if attr == "aggregate" and any(
                isinstance(a, ast.Call) and getattr(a.func, "id", "")[:1].isupper()
                for a in node.args):
            return attr
        if attr == "sort" and fn != "group_apply" and (
                node.args or any(k.arg == "descending" for k in node.keywords)):
            return "sort"
        return None

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, ast.FunctionDef) else fn
            hit = kind(child, fn)
            if hit:
                yield name, hit
            yield from walk(child, name)

    return list(walk(tree, None))


def test_no_ray_data_aggregate():
    """No Ray Data aggregate runs in ``rayproj/``: bounded keys merge on
    the driver through ``merge_partials``, growing keys run through
    ``dedup.group_apply`` (the only Dataset ``sort``), and a top-n is a
    per-block top-n merged on the driver after ``collect``."""
    root = os.path.dirname(os.path.dirname(q.__file__))
    sites = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as f:
                    sites += [(name, *site) for site in _aggregate_sites(ast.parse(f.read()))]
    assert sites == []
