"""ops.co_partition: the one keyed exchange every ops/ close-out goes through."""

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

BIG = 1 << 62


def _blocks(table: pa.Table, n: int):
    import ray.data as rd

    step = -(-table.num_rows // n)
    return rd.from_arrow([table.slice(i, step) for i in range(0, table.num_rows, step)])


def _sides():
    keys = np.arange(200, dtype=np.int64)
    left = pa.table({"k": keys, "x": keys + BIG, "extra": keys.astype(str)})
    # the right side holds 3 keys only, so most groups have no right rows
    right = pa.table({"k": pa.array([3, 5, 5, 150], pa.int64()),
                      "s": ["p", "q", "r", "t"]})
    return _blocks(left, 4), _blocks(right, 2)


def test_salt_count_tracks_cluster():
    """The group count derives from cluster CPUs the way auto_planes
    derives from corpus size; power of two, clamped."""
    from pytorchocr_ray.ops import salt_count

    assert salt_count(8) == 16
    assert salt_count(32) == 64
    assert salt_count(256) == 512
    assert salt_count(100000) == 1024  # upper clamp
    assert salt_count(1) == 16  # lower clamp
    for c in (8, 32, 256):
        s = salt_count(c)
        assert s & (s - 1) == 0  # so x % s == x & (s-1)


def test_absent_side_gets_typed_empty_frame(ray_session):
    from pytorchocr_ray.ops import co_partition

    left, right = _sides()

    def fn(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_left": [len(left)], "n_right": [len(right)],
            "left_cols": [",".join(f"{c}:{t}" for c, t in left.dtypes.items())],
            "right_cols": [",".join(f"{c}:{t}" for c, t in right.dtypes.items())],
        })

    out = co_partition(
        fn,
        left=(left, "k", {"k": pa.int64(), "x": pa.int64()}),
        right=(right, "k", {"k": pa.int64(), "s": pa.string()}),
    ).to_pandas()
    assert out["n_left"].sum() == 200 and out["n_right"].sum() == 4
    assert (out["n_right"] == 0).any()  # some groups hold no right rows
    assert set(out["left_cols"]) == {"k:int64,x:int64"}
    assert set(out["right_cols"]) == {"k:int64,s:object"}


def test_int64_payload_exact_and_each_key_in_one_call(ray_session):
    from pytorchocr_ray.ops import co_partition

    left, right = _sides()

    def fn(left: pd.DataFrame, right: pd.DataFrame) -> pa.Table:
        call = uuid.uuid4().hex
        k = np.concatenate([left["k"].to_numpy(), right["k"].to_numpy()])
        x = np.concatenate([left["x"].to_numpy(), np.full(len(right), -1, np.int64)])
        return pa.table({"k": k, "x": x, "call": [call] * len(k)})

    out = co_partition(
        fn,
        left=(left, "k", {"k": pa.int64(), "x": pa.int64()}),
        right=(right, "k", {"k": pa.int64(), "s": pa.string()}),
    ).to_pandas()
    assert len(out) == 204
    assert out["call"].nunique() > 1  # many groups, not one
    assert (out.groupby("k")["call"].nunique() == 1).all()
    lx = out[out["x"] >= 0].sort_values("k")
    assert lx["x"].tolist() == [BIG + k for k in range(200)]


def test_string_and_composite_keys(ray_session):
    import ray.data as rd

    from pytorchocr_ray.ops import co_partition

    words = [f"w{i % 37}" for i in range(300)]
    ds = rd.from_arrow(pa.table({"w": words, "b": pa.array(np.arange(300) % 3, pa.int64())}))

    def by_word(words: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"w": words["w"].unique(), "call": uuid.uuid4().hex})

    out = co_partition(by_word, words=(ds, "w", {"w": pa.string()})).to_pandas()
    assert sorted(out["w"]) == sorted(set(words))  # each word in one call

    def by_pair(words: pd.DataFrame) -> pd.DataFrame:
        return words.groupby(["b", "w"], as_index=False).size()

    out = co_partition(by_pair, words=(ds, ["b", "w"], {"b": pa.int64(), "w": pa.string()})).to_pandas()
    assert not out.duplicated(["b", "w"]).any()
    assert out["size"].sum() == 300


@pytest.mark.parametrize("as_arrow", [False, True])
def test_fn_may_return_pandas_or_arrow(ray_session, as_arrow):
    from pytorchocr_ray.ops import co_partition

    left, _right = _sides()

    def fn(left: pd.DataFrame):
        out = pd.DataFrame({"k": left["k"].to_numpy(), "x2": left["x"].to_numpy() - BIG})
        return pa.Table.from_pandas(out, preserve_index=False) if as_arrow else out

    out = co_partition(fn, left=(left, "k", {"k": pa.int64(), "x": pa.int64()})).to_pandas()
    assert sorted(out["x2"]) == list(range(200))


def test_map_groups_only_in_co_partition():
    """Every keyed close-out in ops/ goes through co_partition: Ray's
    ``map_groups`` is called once, inside co_partition itself."""
    import pathlib

    ops = pathlib.Path(__file__).resolve().parents[1] / "pytorchocr_ray" / "ops"
    sites = {p.name: p.read_text().count(".map_groups(") for p in sorted(ops.glob("*.py"))}
    assert {name: n for name, n in sites.items() if n} == {"__init__.py": 1}


# Ray keyed exchanges deliberately left outside co_partition, by
# (module, top-level function), with the reason each stays.
LEFT_ALONE = {
    ("ops/relational.py", "revenue_by_segment_join"):
        "Dataset.join is the query's point: it shows Ray's native "
        "hash-partitioned join (the both-sides-large plan beside the "
        "broadcast twin); its aggregate after the join goes through reduce_by",
}

# The methods of Ray's grouped data; a ``.groupby(`` consumed by any other
# method is pandas's.
_RAY_GROUPED = {"aggregate", "map_groups", "count", "sum", "min", "max", "mean", "std"}
# keywords only pandas's groupby takes
_PANDAS_GROUPBY_KW = {"sort", "as_index", "dropna", "observed", "group_keys", "level"}
_ARRAY_MODULES = {"np", "numpy", "pd", "pandas"}


def _ray_exchanges(path):
    """(top-level function, what) of every Ray keyed exchange and global
    sort in one module: a Dataset ``.groupby(``, ``.map_groups(``, a
    ``ray.data.aggregate`` import, a keyed ``.join(``, a Dataset
    ``.unique(col)`` and a Dataset ``.sort(``.

    Types are not known to an AST, so a call is Ray's unless it shows
    itself as something else.  A ``.groupby(`` is pandas's when it takes a
    pandas-only keyword (``sort=``, ``as_index=``, ...), is indexed by
    columns, iterated, or consumed by a method Ray's grouped data lacks
    (``.agg``, ``.size``, ...); any other, also one bound to a name first,
    counts as Ray's.  A ``.sort(`` is a list's or an array's when it is
    numpy's, or takes no column: no positional argument, no ``descending=``
    or ``boundaries=``, and a ``key=`` that is a lambda.  A ``.unique(`` is
    Ray's when given a column and not called on numpy or pandas.  Calls
    reached through ``getattr`` or ``**kwargs`` are not seen."""
    import ast

    tree = ast.parse(path.read_text())
    owner = {}
    for top in tree.body:
        for node in ast.walk(top):
            owner[node] = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
    parent = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
    iterated = {n.iter for n in ast.walk(tree) if isinstance(n, (ast.For, ast.comprehension))}

    def pandas_groupby(node, kw):
        up = parent.get(node)
        return (
            kw & _PANDAS_GROUPBY_KW
            or node in iterated
            or isinstance(up, ast.Subscript)
            or (isinstance(up, ast.Attribute) and up.attr not in _RAY_GROUPED)
        )

    def list_sort(node, kw):
        key = next((k.value for k in node.keywords if k.arg == "key"), None)
        return not node.args and not kw & {"descending", "boundaries"} and (
            key is None or isinstance(key, ast.Lambda)
        )

    found = set()
    for node in ast.walk(tree):
        what = None
        if isinstance(node, ast.ImportFrom) and (
            (node.module or "").startswith("ray.data.aggregate")
            or (node.module == "ray.data" and any(a.name == "aggregate" for a in node.names))
        ):
            what = "ray.data.aggregate import"
        elif isinstance(node, ast.Import) and any(
            a.name.startswith("ray.data.aggregate") for a in node.names
        ):
            what = "ray.data.aggregate import"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, kw = node.func.attr, {k.arg for k in node.keywords}
            recv = node.func.value
            module = isinstance(recv, ast.Name) and recv.id in _ARRAY_MODULES
            if attr == "groupby" and not pandas_groupby(node, kw):
                what = "groupby"
            elif attr == "map_groups":
                what = "map_groups"
            elif attr == "join" and kw & {"on", "num_partitions"}:
                what = "join"
            elif attr == "unique" and node.args and not module:
                what = "unique"
            elif attr == "sort" and not module and not list_sort(node, kw):
                what = "global sort"
        if what:
            found.add((owner.get(node, "<module>"), what))
    return found


def test_every_ray_exchange_goes_through_co_partition():
    """One keyed exchange for the whole library: a Ray groupby, map_groups
    or ``ray.data.aggregate`` import appears only inside co_partition, no
    Dataset sort or unique remains (a top-k is ``ops.top_k``), and every
    other Ray keyed exchange is a named LEFT_ALONE site.  What the scan
    can and cannot tell apart is in :func:`_ray_exchanges`."""
    import pathlib

    package = pathlib.Path(__file__).resolve().parents[1] / "pytorchocr_ray"
    sites = {}
    for path in sorted(package.rglob("*.py")):
        for func, what in _ray_exchanges(path):
            sites.setdefault((str(path.relative_to(package)), func), set()).add(what)
    assert sites.pop(("ops/__init__.py", "co_partition")) == {"groupby", "map_groups"}
    assert sites == {site: {"join"} for site in LEFT_ALONE}


# popcount primitives: the LUT, numpy's and Python's bit counts
_POPCOUNT = {"_POP16", "bitwise_count", "bit_count", "unpackbits", "bin"}


def _references(root):
    """{name: {(module, top-level function)}} of every identifier (a name
    or an attribute) and, under ``"str:" + value``, every string constant
    in the package ("<module>" outside any function)."""
    import ast

    refs = {}
    for path in sorted(root.rglob("*.py")):
        module = str(path.relative_to(root))
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else "str:" + node.value if isinstance(node, ast.Constant)
                        and isinstance(node.value, str) else None)
                if name:
                    refs.setdefault(name, set()).add((module, owner))
    return refs


def test_one_banded_hamming_path():
    """The banded-Hamming near-dup pipeline exists once, in
    ``ops/dedup.py``: only ``hamming`` counts bits (the module builds its
    lookup table); only ``hamming_buckets`` and its ``HAMMING_BUCKET``
    columns name a ``key2`` column, so the band explode, the hot-bucket
    count and split live there alone; and every function that calls
    ``hamming`` also calls ``hamming_buckets``, so a Hamming close-out is
    one of the kernel's.  A third copy of the pipeline fails here."""
    import pathlib

    refs = _references(pathlib.Path(__file__).resolve().parents[1] / "pytorchocr_ray")
    popcount = set().union(*(refs.get(n, set()) for n in _POPCOUNT))
    assert popcount == {("ops/dedup.py", "<module>"), ("ops/dedup.py", "hamming")}, popcount
    assert refs["str:key2"] == {("ops/dedup.py", "<module>"), ("ops/dedup.py", "hamming_buckets")}
    assert "hot_buckets" not in refs
    assert refs["hamming"] <= refs["hamming_buckets"]
    assert {f for _m, f in refs["hamming"]} == {"simhash_pairs", "image_dhash_near"}
