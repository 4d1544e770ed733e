"""Driver contract for the Ray-Data-native extraction engine.

The driver initialises Ray itself; nothing here (or in the library) calls
``ray.init`` / ``ray.shutdown``.

* ``entry()`` — flagship interleaved-corpus extraction at sf0.001 scale.
* ``queries()`` — every implemented operator/pipeline (SURVEY.md §2 +
  training-data ops), each a callable of ``sf_dir``.
* ``oracle_sql()`` — a DuckDB twin for EVERY query.

The interleaved corpus itself is synthesized deterministically per sf_dir
(seed fixed, cached under /tmp) because the BASELINE input_hint's
``documents(doc_id, spans[])`` shape does not exist in the TPC-H-ish
testdata; its size scales with the sf's documents row count.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

_SEED = 42


def _corpus_for(sf_dir: str) -> str:
    """Deterministic synthetic interleaved corpus sized to the sf_dir.
    The cache path embeds a content-version token (hash of the generator
    sources) so generator changes can never reuse a stale cached corpus."""
    import pyarrow.parquet as pq

    from pytorchocr_ray.synth.generate import corpus_path, generate_corpus_ray

    n_rows = pq.ParquetFile(os.path.join(sf_dir, "documents.parquet")).metadata.num_rows
    n_docs = max(50, n_rows)
    return generate_corpus_ray(corpus_path(n_docs, _SEED), n_docs=n_docs, seed=_SEED)


def _extract(sf_dir: str) -> Any:
    from pytorchocr_ray.pipelines.extract import extract_dataset

    corpus = _corpus_for(sf_dir)
    return extract_dataset(
        os.path.join(corpus, "documents"),
        os.path.join(corpus, "media"),
    )


def entry() -> Any:
    """Flagship pipeline on the sf0.001-scaled interleaved corpus."""
    return _extract("/root/testdata/sf0.001")


def _n_rows(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    return pq.ParquetFile(os.path.join(sf_dir, "documents.parquet")).metadata.num_rows


def _audio_parquet(sf_dir: str) -> str:
    from pytorchocr_ray.synth.multimodal import synth_audio_parquet

    return synth_audio_parquet(min(200, _n_rows(sf_dir)), seed=_SEED)


def _video_parquet(sf_dir: str) -> str:
    from pytorchocr_ray.synth.multimodal import synth_video_parquet

    return synth_video_parquet(min(200, _n_rows(sf_dir)), seed=_SEED)


def _audio_features(sf_dir: str) -> Any:
    import ray.data as rd

    from pytorchocr_ray.stages.multimodal import audio_features

    ds = rd.read_parquet(_audio_parquet(sf_dir), override_num_blocks=8)
    return audio_features(ds)


def _real_audio_dir(sf_dir: str) -> str:
    from pytorchocr_ray.synth.multimodal import synth_real_audio_parquet

    return synth_real_audio_parquet(min(100, _n_rows(sf_dir)), seed=_SEED)


def _adpcm_audio_dir(sf_dir: str) -> str:
    from pytorchocr_ray.synth.multimodal import synth_adpcm_audio_parquet

    return synth_adpcm_audio_parquet(min(100, _n_rows(sf_dir)), seed=_SEED)


def _mulaw_audio_dir(sf_dir: str) -> str:
    from pytorchocr_ray.synth.multimodal import synth_mulaw_audio_parquet

    return synth_mulaw_audio_parquet(min(100, _n_rows(sf_dir)), seed=_SEED)


def _audio_features_mulaw(sf_dir: str) -> Any:
    """COMPRESSED (G.711 mu-law 2:1) WAV payloads through the native
    table-gather decoder — expected features from an independent
    per-sample reference expansion (lossy codec, so both decoders must
    agree on the decoded stream bit-for-bit; asserted at synthesis)."""
    import os

    import ray.data as rd

    from pytorchocr_ray.stages.multimodal import audio_features, real_audio_decode

    ds = rd.read_parquet(
        os.path.join(_mulaw_audio_dir(sf_dir), "payload.parquet"),
        override_num_blocks=8,
    )
    return audio_features(ds, decoder=real_audio_decode)


def _audio_features_adpcm(sf_dir: str) -> Any:
    """COMPRESSED (IMA-ADPCM 4:1) WAV payloads through the pure-numpy
    block-vectorized decoder — the oracle's expected features come
    from an independent per-sample reference decoder (ADPCM is lossy, so
    both sides must agree on the decoded stream bit-for-bit)."""
    import os

    import ray.data as rd

    from pytorchocr_ray.stages.multimodal import audio_features, real_audio_decode

    ds = rd.read_parquet(
        os.path.join(_adpcm_audio_dir(sf_dir), "payload.parquet"),
        override_num_blocks=8,
    )
    return audio_features(ds, decoder=real_audio_decode)


def _real_video_dir(sf_dir: str) -> str:
    from pytorchocr_ray.synth.multimodal import synth_real_video_parquet

    return synth_real_video_parquet(min(100, _n_rows(sf_dir)), seed=_SEED)


def _audio_features_real(sf_dir: str) -> Any:
    """REAL 16-bit PCM WAV payloads through the real decoder."""
    import os

    import ray.data as rd

    from pytorchocr_ray.stages.multimodal import audio_features, real_audio_decode

    ds = rd.read_parquet(
        os.path.join(_real_audio_dir(sf_dir), "payload.parquet"),
        override_num_blocks=8,
    )
    return audio_features(ds, decoder=real_audio_decode)


def _video_frames_real(sf_dir: str) -> Any:
    """REAL YUV4MPEG2 payloads through the real decoder."""
    import os

    import ray.data as rd

    from pytorchocr_ray.stages.multimodal import (
        real_video_decode,
        video_frame_samples,
    )

    ds = rd.read_parquet(
        os.path.join(_real_video_dir(sf_dir), "payload.parquet"),
        override_num_blocks=8,
    )
    return video_frame_samples(ds, decoder=real_video_decode)


def _video_frames(sf_dir: str) -> Any:
    import ray.data as rd

    from pytorchocr_ray.stages.multimodal import video_frame_samples

    ds = rd.read_parquet(_video_parquet(sf_dir), override_num_blocks=8)
    return video_frame_samples(ds)


def _sessionize(sf_dir: str) -> Any:
    from pytorchocr_ray.ops.sessions import sessionize

    return sessionize(sf_dir)


def _sessionize_sql() -> str:
    from pytorchocr_ray.ops.sessions import sessionize_sql

    return sessionize_sql()


def _asof_last_view(sf_dir: str) -> Any:
    from pytorchocr_ray.ops.sessions import asof_last_view

    return asof_last_view(sf_dir)


def _funnel_steps(sf_dir: str) -> Any:
    from pytorchocr_ray.ops.sessions import funnel_steps

    return funnel_steps(sf_dir)


def _funnel_steps_sql() -> str:
    from pytorchocr_ray.ops.sessions import funnel_steps_sql

    return funnel_steps_sql()


def _asof_sql() -> str:
    from pytorchocr_ray.ops.sessions import ASOF_LAST_VIEW_SQL

    return ASOF_LAST_VIEW_SQL


def _pubtab_fixture(sf_dir: str) -> str:
    import os

    from pytorchocr_ray.synth.pubtab import pubtab_path, synth_pubtab

    n = min(300, _n_rows(sf_dir))
    return os.path.join(synth_pubtab(pubtab_path(n), n=n), "table_labels.jsonl")


def _table_structure(sf_dir: str) -> Any:
    from pytorchocr_ray.pipelines.table import table_structure_ds

    return table_structure_ds(_pubtab_fixture(sf_dir))


def _table_structure_image(sf_dir: str) -> Any:
    import os

    from pytorchocr_ray.pipelines.table import table_structure_from_images

    images = os.path.join(
        os.path.dirname(_pubtab_fixture(sf_dir)), "table_images.parquet"
    )
    return table_structure_from_images(images)


def _evaluate_engine(sf_dir: str) -> Any:
    import pandas as pd

    from pytorchocr_ray.ops.evaluate import evaluate_corpus

    corpus = _corpus_for(sf_dir)
    return pd.DataFrame([evaluate_corpus(corpus, sharded=True)])


def queries() -> dict[str, Callable[[str], Any]]:
    from pytorchocr_ray.ops import (
        bpe,
        curation,
        dedup,
        imagededup,
        lexsearch,
        pii,
        relational,
        sampling,
        simsearch,
        textstats,
    )

    return {
        # flagship extraction — hash-verified against the generator's
        # ground-truth span table (see oracle_sql)
        "extract_interleaved": _extract,
        # text analysis
        "normalize_docs": textstats.normalize_docs,
        "doc_stats": textstats.doc_stats,
        # token counting by BOTH brief-named rules: whitespace words
        # + a BPE-ish RE2 pre-tokenizer, integer compression-rate proxy
        "bpe_token_count": textstats.bpe_token_count,
        "lang_id": textstats.lang_id,
        "term_freq": textstats.term_freq,
        "fingerprint": textstats.fingerprint,
        # exact global-quantile quality prune: histogram partials ->
        # bounded threshold -> broadcast filter, no sort
        "token_quantile_filter": textstats.token_quantile_filter,
        # deterministic stratified sample: k docs per lang by LCG
        # scramble — partial top-k per key, <= k rows per (key, block)
        "sample_per_group": sampling.sample_per_group,
        # weighted priority sample (Duffield-Lund-Thorup): integer
        # hash // weight priorities, per-block partial top-k, zero
        # corpus shuffle — deterministic weighted draw by n_chars
        "weighted_sample": sampling.weighted_sample,
        # HyperLogLog distinct-token registers: order-independent
        # max() sketch, deterministic -> hash-verified like exact ops
        "distinct_token_sketch": textstats.distinct_token_sketch,
        # Count-Min frequency sketch: d x w counter table, sums are
        # order-independent -> deterministic and hash-verified
        "countmin_sketch": textstats.countmin_sketch,
        # per-doc TF-IDF keyword extraction: integer idf surrogate,
        # broadcast df map, per-doc top-k
        "tfidf_top_terms": textstats.tfidf_top_terms,
        # corpus curation: Gopher repetition prune signals — one
        # shuffle-free windowed-hash pass, all-integer outputs
        "repetition_stats": curation.repetition_stats,
        # benchmark 8-gram decontamination: broadcast eval-suite
        # gram set, streaming membership flag over the training side
        "decontaminate": curation.decontaminate,
        # concat-and-chunk sequence packing: distributed exclusive
        # prefix sum over per-block summaries — global token offsets
        # without a sort or a driver-side corpus scan
        "pack_sequences": curation.pack_sequences,
        # temperature language rebalancing: sqrt(n_min/n_lang) keep
        # rate, deterministic LCG keep decision, shuffle-free two-pass
        "lang_rebalance": curation.lang_rebalance,
        # SemDeDup semantic near-dup: broadcast k-means assignment
        # + one cid-keyed groupby for in-cluster cosine flags
        "semdedup": curation.semdedup,
        # passage-level exact dedup (Lee et al. ExactSubstr approx):
        # fixed 10-token windows, dup occurrences removed corpus-wide;
        # two salted exchanges, no driver hash-set materialization
        "passage_dedup": curation.passage_dedup,
        # content-defined chunking dedup: FastCDC-style rolling-
        # hash boundaries, dup chunks counted corpus-wide; two salted
        # integer-row exchanges, shift-robust where fixed windows break
        "cdc_dedup": curation.cdc_dedup,
        # deterministic per-epoch global shuffle: LCG(doc_id,
        # epoch) key -> shard + within-shard rank; ONE 24-byte-row
        # exchange, reproducible across runs and cluster sizes
        "epoch_shuffle": curation.epoch_shuffle,
        # k-means clustering as a first-class result: k-bounded
        # per-cluster sizes + sorted-member fingerprints over the
        # trained-centroid broadcast assignment
        "kmeans_clusters": curation.kmeans_clusters,
        # corpus-trained bigram-LM perplexity filter (CCNet-style):
        # integer floor(log2 q) scores, model built AND attached via
        # salted co-partition — the vocabulary never hits the driver
        "lm_perplexity_filter": curation.lm_perplexity_filter,
        # BM25 lexical top-k: integer-exact Robertson scoring, O(1)
        # query-term stats collect, per-block partial top-k
        "bm25_search": lexsearch.bm25_search,
        # inverted-index build: per-token df/tf + posting-list
        # fingerprint via ONE token-salted exchange; output stays
        # vocabulary-bounded (postings verified by fingerprint)
        "inverted_index": lexsearch.inverted_index,
        # non-equi range join: events binned into static value
        # tiers by broadcast searchsorted — zero shuffle, the small-
        # side interval-join shape equality joins can't express
        "range_join_tiers": relational.range_join_tiers,
        # distributed anti-join (TPC-H Q22 shape): customers with
        # no 'P'-status order — one custkey-salted union exchange,
        # orders side pre-distincted per batch
        "customers_without_orders": relational.customers_without_orders,
        # cumulative window: per-user running spend — SUM OVER
        # (PARTITION ORDER BY) via a user-salted exchange + segment-
        # vectorized cumsum, no per-user loop
        "user_running_total": relational.user_running_total,
        # long-to-wide pivot: hourly counts per event-type column
        # from per-batch crosstab partials; unknown types -> n_other
        "events_pivot": relational.events_pivot,
        # GROUP BY ROLLUP: detail + per-type subtotal + grand
        # total, subtotal levels re-aggregated from the detail
        # aggregate (hour-bounded) — never extra corpus passes
        "events_rollup": relational.events_rollup,
        # BPE tokenizer training: K-bounded word-count collect ->
        # serial merge loop (how real trainers run) -> merge table;
        # oracle = INDEPENDENT serial reference fixture
        "bpe_merges": bpe.bpe_merges,
        # BPE encoding: trained merges broadcast, per-distinct-
        # word memo, per-doc symbol counts + sequence fingerprint
        "bpe_encode": bpe.bpe_encode,
        # entity extraction / explode: one row per email/phone/IP
        # occurrence — the flat_map contract over unstructured text
        "extract_entities": pii.extract_entities,
        # PII redaction: email/phone/IP scrub over the planted-PII
        # table — one vectorized RE2 pass, counts + redacted text
        "pii_redact": pii.pii_redact,
        # per-source token-budget cap: C4/RefinedWeb-style domain
        # limiting — one skinny source-salted exchange, running sums
        # vectorized per sorted segment
        "source_budget_cap": curation.source_budget_cap,
        # deterministic weighted interleave schedule: sqrt-
        # temperature source weights, stride-scheduling priorities —
        # the reproducible datasets.interleave_datasets mixing step
        "interleave_mix": curation.interleave_mix,
        # vocabulary build + token-id encoding: top-K corpus vocab
        # (K-bounded driver materialize), unk id, per-doc id-sequence
        # fingerprint — the word-level tokenizer-training stage
        "vocab_encode": textstats.vocab_encode,
        # JL sign projection of the embedding column: matrix-free
        # (LCG-parity entries regenerated per batch), exact-int outputs
        "random_projection": simsearch.random_projection,
        # image perceptual-hash dedup: actor-pool PNG decode + dHash
        # over the sharded media table, one 8-byte-key groupby; oracle =
        # independent integral-image hasher (fixture parquet)
        "image_dhash_dups": lambda sf: imagededup.image_dhash_dups(
            os.path.join(_corpus_for(sf), "media")
        ),
        # image NEAR-dup flags: Hamming-banded LSH over the dHash
        # (keep-first rule; flags not pairs — pair mass is quadratic on
        # low-entropy hashes), hot buckets split on complementary-band
        # bits, degenerate pileups skip-and-counted — SQL-mirrored
        "image_dhash_near": lambda sf: imagededup.image_dhash_near(
            os.path.join(_corpus_for(sf), "media")
        ),
        # dedup family
        "dedup_exact": dedup.dedup_exact,
        # incremental dedup vs a corpus snapshot: Bloom bitset over
        # reference fingerprints, broadcast membership flag on new docs
        "bloom_incremental_dedup": dedup.bloom_incremental_dedup,
        "minhash_pairs": dedup.minhash_pairs,
        "simhash_pairs": dedup.simhash_pairs,
        "embedding_neardup": dedup.embedding_neardup,
        "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs,
        # connected components over the minhash dup graph -> one
        # (doc_id, cluster_id) row per document
        "dedup_clusters": dedup.dedup_clusters,
        # similarity search
        "simsearch_topk": simsearch.topk_bruteforce,
        "simsearch_ivf": simsearch.topk_ivf,
        # int8 scalar-quantized variant: exact-integer scores, 4x less
        # data movement than float32 at scale
        "simsearch_sq": simsearch.topk_sq,
        # product-quantization ADC: m one-byte codes per vector +
        # per-query LUT gather — the deepest-compression scale path
        "simsearch_pq": simsearch.topk_pq,
        # IVFADC: nprobe-bounded touch set x PQ-bounded touch cost —
        # the billion-scale layout, both trained fixtures composed
        "simsearch_ivfpq": simsearch.topk_ivfpq,
        # multimodal binary-payload stages (stub decoders, SQL-verified)
        "audio_features": _audio_features,
        "video_frames": _video_frames,
        # same stages over REAL container payloads (PCM WAV / YUV4MPEG2)
        # through the real decoders; generator-knowledge expected oracle
        "audio_features_real": _audio_features_real,
        # compressed audio for real: IMA-ADPCM 4:1 WAV via the
        # in-engine numpy decoder, no optional deps
        "audio_features_adpcm": _audio_features_adpcm,
        # G.711 mu-law compressed audio through the native table-gather
        # decoder: second compressed codec exercised end to end
        "audio_features_mulaw": _audio_features_mulaw,
        "video_frames_real": _video_frames_real,
        # engine evaluation (det IoU + rec accuracy, partial+final agg)
        "evaluate_engine": _evaluate_engine,
        # table branch: pubtab JSONL -> structure decode + bbox denorm
        "table_structure": _table_structure,
        # image-driven table branch: rendered PNG -> cell detection ->
        # structure reconstruction -> same decode path
        "table_structure_image": _table_structure_image,
        # relational coverage
        "q1_pricing": relational.q1_pricing,
        "revenue_by_segment": relational.revenue_by_segment,
        "revenue_by_segment_join": relational.revenue_by_segment_join,
        "top_customers": relational.top_customers,
        "top_orders_per_customer": relational.top_orders_per_customer,
        "events_hourly": relational.events_hourly,
        # sliding (hopping) 1h/15min window — integer-cents sums for
        # association-order-proof exactness
        "events_sliding": relational.events_sliding,
        # per-group exact quantile: histogram partials + per-key
        # threshold scan, zero driver-side steps
        "events_value_quantile": relational.events_value_quantile,
        # mergeable float-quantile sketch: bottom-k-by-LCG-hash
        # uniform value sample — order-independent, so the sketch table
        # itself hash-verifies (KLL compaction is merge-order-dependent
        # and would not; see ops/relational.py for the trade)
        "value_quantile_sketch": relational.value_quantile_sketch,
        "user_activity": relational.user_activity,
        "supplier_nation": relational.supplier_nation,
        "sessionize": _sessionize,
        "asof_last_view": _asof_last_view,
        # funnel / sequential pattern matching: first view ->
        # first later click -> first later purchase per user, strict-
        # time ordering, one user-salted exchange
        "funnel_steps": _funnel_steps,
    }


def oracle_sql(sf_dir: str = "/root/testdata/sf0.01") -> dict[str, str]:
    """Oracle SQL per query.  ``sf_dir`` must be the same scale factor the
    driver runs ``queries()`` at (the fixture-backed oracles —
    extraction ground truth, pubtab expected table, audio/video synth
    parquet — are derived from it, not pinned to sf0.01)."""
    from pytorchocr_ray.ops import (
        bpe,
        curation,
        dedup,
        imagededup,
        lexsearch,
        pii,
        relational,
        sampling,
        simsearch,
        textstats,
    )

    # The flagship extraction oracle is the generator's GROUND-TRUTH span
    # table (normalized text spans + rendered transcripts in reading
    # order), written next to the corpus at synthesis time — an oracle
    # STRONGER than a SQL reimplementation: the engine must reproduce the
    # rendered truth, not merely agree with another program.  Materialize
    # that corpus now so the SQL can read it regardless of call order.
    corpus = _corpus_for(sf_dir)
    extract_sql = (
        'SELECT doc_id, "order", kind, text, media_ref '
        f"FROM read_parquet('{corpus}/expected/*.parquet')"
    )

    import os

    pubtab_expected = os.path.join(
        os.path.dirname(_pubtab_fixture(sf_dir)),
        "expected.parquet",
    )

    from pytorchocr_ray.stages.multimodal import (
        audio_features_sql,
        video_frames_sql,
    )

    # evaluate_engine oracle: the
    # single-process serial loop over the same per-image integer counters,
    # written as a 1-row parquet — the distributed partial+final aggregate
    # must reproduce it bit-for-bit (integer counter sums are exact)
    from pytorchocr_ray.oracle.metrics import expected_metrics_parquet

    metrics_parquet = expected_metrics_parquet(corpus, sharded=True)

    return {
        "extract_interleaved": extract_sql,
        "evaluate_engine": (
            "SELECT \"precision\", recall, hmean, acc, norm_edit_sim "
            f"FROM read_parquet('{metrics_parquet}')"
        ),
        "audio_features": audio_features_sql(_audio_parquet(sf_dir)),
        "video_frames": video_frames_sql(_video_parquet(sf_dir)),
        "audio_features_real": (
            "SELECT sample_ref, window_idx, energy, zcr "
            f"FROM read_parquet('{os.path.join(_real_audio_dir(sf_dir), 'expected.parquet')}')"
        ),
        "audio_features_adpcm": (
            "SELECT sample_ref, window_idx, energy, zcr "
            f"FROM read_parquet('{os.path.join(_adpcm_audio_dir(sf_dir), 'expected.parquet')}')"
        ),
        "audio_features_mulaw": (
            "SELECT sample_ref, window_idx, energy, zcr "
            f"FROM read_parquet('{os.path.join(_mulaw_audio_dir(sf_dir), 'expected.parquet')}')"
        ),
        "video_frames_real": (
            "SELECT frame_ref, frame_idx, mean_luma "
            f"FROM read_parquet('{os.path.join(_real_video_dir(sf_dir), 'expected.parquet')}')"
        ),
        "table_structure": (
            "SELECT filename, structure, n_cells, bbox_sum "
            f"FROM read_parquet('{pubtab_expected}')"
        ),
        # image branch oracle: generator-knowledge expected table over the
        # RENDERED (span-aware) rects — the engine must detect them back
        # from pixels and reproduce it exactly
        "table_structure_image": (
            "SELECT filename, structure, n_cells, bbox_sum "
            f"FROM read_parquet('{pubtab_expected.replace('expected.parquet', 'expected_image.parquet')}')"
        ),
        "normalize_docs": textstats.NORMALIZE_DOCS_SQL,
        "fingerprint": textstats.fingerprint_sql(),
        "doc_stats": textstats.DOC_STATS_SQL,
        "lang_id": textstats.LANG_ID_SQL,
        "term_freq": textstats.term_freq_sql(),
        "token_quantile_filter": textstats.token_quantile_filter_sql(),
        "sample_per_group": sampling.sample_per_group_sql(),
        "weighted_sample": sampling.weighted_sample_sql(),
        "distinct_token_sketch": textstats.distinct_token_sketch_sql(),
        "countmin_sketch": textstats.countmin_sketch_sql(),
        "tfidf_top_terms": textstats.tfidf_top_terms_sql(),
        "bpe_token_count": textstats.bpe_token_count_sql(),
        "repetition_stats": curation.repetition_stats_sql(),
        "decontaminate": curation.decontaminate_sql(),
        "pack_sequences": curation.pack_sequences_sql(),
        "lang_rebalance": curation.lang_rebalance_sql(),
        "semdedup": curation.semdedup_sql(sf_dir),
        "passage_dedup": curation.passage_dedup_sql(),
        "cdc_dedup": curation.cdc_dedup_sql(),
        "epoch_shuffle": curation.epoch_shuffle_sql(),
        "kmeans_clusters": curation.kmeans_clusters_sql(sf_dir),
        "lm_perplexity_filter": curation.lm_perplexity_filter_sql(),
        "bm25_search": lexsearch.bm25_search_sql(),
        "inverted_index": lexsearch.inverted_index_sql(),
        "range_join_tiers": relational.range_join_tiers_sql(),
        "customers_without_orders": relational.customers_without_orders_sql(),
        "user_running_total": relational.user_running_total_sql(),
        "events_pivot": relational.events_pivot_sql(),
        "events_rollup": relational.events_rollup_sql(),
        "extract_entities": pii.extract_entities_sql(sf_dir),
        "bpe_merges": bpe.bpe_merges_sql(sf_dir),
        "bpe_encode": bpe.bpe_encode_sql(sf_dir),
        "pii_redact": pii.pii_redact_sql(sf_dir),
        "source_budget_cap": curation.source_budget_cap_sql(),
        "interleave_mix": curation.interleave_mix_sql(),
        "vocab_encode": textstats.vocab_encode_sql(),
        "random_projection": simsearch.random_projection_sql(),
        "image_dhash_dups": imagededup.image_dhash_dups_sql(
            os.path.join(corpus, "media")
        ),
        "image_dhash_near": imagededup.image_dhash_near_sql(
            os.path.join(corpus, "media")
        ),
        "dedup_exact": dedup.DEDUP_EXACT_SQL,
        "bloom_incremental_dedup": dedup.bloom_incremental_dedup_sql(),
        "minhash_pairs": dedup.minhash_pairs_sql(),
        "simhash_pairs": dedup.simhash_pairs_sql(),
        "embedding_neardup": dedup.embedding_neardup_sql(sf_dir=sf_dir),
        "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs_sql(),
        "dedup_clusters": dedup.dedup_clusters_sql(),
        "simsearch_topk": simsearch.topk_bruteforce_sql(),
        # trained-centroid IVF: the twin reads the same deterministic
        # k-means centroid parquet the engine trains, so it's sf_dir-bound
        "simsearch_ivf": simsearch.topk_ivf_sql(sf_dir=sf_dir),
        "simsearch_sq": simsearch.topk_sq_sql(),
        "simsearch_pq": simsearch.topk_pq_sql(sf_dir=sf_dir),
        "simsearch_ivfpq": simsearch.topk_ivfpq_sql(sf_dir=sf_dir),
        "q1_pricing": relational.Q1_SQL,
        "revenue_by_segment": relational.REVENUE_BY_SEGMENT_SQL,
        "revenue_by_segment_join": relational.REVENUE_BY_SEGMENT_SQL,
        "top_customers": relational.top_customers_sql(),
        "top_orders_per_customer": relational.top_orders_per_customer_sql(),
        "events_hourly": relational.EVENTS_HOURLY_SQL,
        "events_sliding": relational.events_sliding_sql(),
        "events_value_quantile": relational.events_value_quantile_sql(),
        "value_quantile_sketch": relational.value_quantile_sketch_sql(),
        "user_activity": relational.USER_ACTIVITY_SQL,
        "supplier_nation": relational.SUPPLIER_NATION_SQL,
        "sessionize": _sessionize_sql(),
        "asof_last_view": _asof_sql(),
        "funnel_steps": _funnel_steps_sql(),
    }
