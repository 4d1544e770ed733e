import os

import pandas as pd
import pytest


def _pipeline_vs_extract(small_corpus, reassemble_stage):
    """(build_pipeline output, extract_dataset output) over the flagship
    spec, reassembled by the named registry stage."""
    import ray.data as rd

    from pytorchocr_ray.pipelines.extract import extract_dataset, load_media_store
    from pytorchocr_ray.registry import build_pipeline
    from pytorchocr_ray.state.weights import put_weights

    docs = os.path.join(small_corpus, "documents.parquet")
    media = os.path.join(small_corpus, "media.parquet")
    media_ref = load_media_store(media)
    weights_ref = put_weights()
    spec = [
        {"stage": "explode_spans"},
        {"stage": "normalize_text"},
        {
            "stage": "ocr",
            "params": {"media_ref": media_ref, "weights_ref": weights_ref},
            "compute": {"batch_size": 16, "concurrency": 2},
        },
        {
            "stage": "project",
            "params": {
                "columns": ["doc_id", "offset", "region_idx", "kind", "text", "media_ref"]
            },
        },
        {"stage": reassemble_stage},
    ]
    got = build_pipeline(rd.read_parquet(docs), spec).to_pandas()
    want = extract_dataset(docs, media, concurrency=2).to_pandas()

    def canon(df):
        return df.sort_values(["doc_id", "order"]).reset_index(drop=True)

    return canon(got), canon(want)


def test_build_pipeline_matches_extract(ray_session, small_corpus):
    pd.testing.assert_frame_equal(*_pipeline_vs_extract(small_corpus, "reassemble_local"))


def test_build_pipeline_shuffle_matches_extract(ray_session, small_corpus):
    """The registry's shuffle reassembly runs on the same six projected
    columns as the block-local one and gives the same rows."""
    pd.testing.assert_frame_equal(*_pipeline_vs_extract(small_corpus, "reassemble_shuffle"))


def test_unknown_stage_raises(ray_session):
    import ray.data as rd

    from pytorchocr_ray.registry import build_pipeline

    with pytest.raises(KeyError, match="unknown stage"):
        build_pipeline(rd.range(1), [{"stage": "nope"}])


def test_register_custom_stage(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from pytorchocr_ray.registry import STAGES, build_pipeline, register_stage

    @register_stage("double_id")
    def _double(**_p):
        def fn(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return t.set_column(0, "id", pc.multiply(t["id"], 2))

        return ("batches", fn, {"batch_format": "pyarrow"})

    try:
        out = build_pipeline(rd.range(5), [{"stage": "double_id"}]).to_pandas()
        assert sorted(out["id"]) == [0, 2, 4, 6, 8]
    finally:
        STAGES.pop("double_id", None)


def test_det_resize_modes():
    import numpy as np

    from pytorchocr_ray.functions.dbpost import det_resize_fixed, det_resize_long

    img = np.zeros((100, 300), dtype=np.uint8)
    out, (sh, sw, rh, rw) = det_resize_fixed(img, 64, 64)
    assert out.shape == (64, 64) and (sh, sw) == (100, 300)
    out2, _ = det_resize_long(img, resize_long=960)
    assert out2.shape[1] % 128 == 0 and out2.shape[0] % 128 == 0
    assert out2.shape[1] >= 960
