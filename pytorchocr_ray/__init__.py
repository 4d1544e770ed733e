"""pytorchocr_ray — a Ray-Data-native document-content extraction engine.

A from-scratch reimplementation of the query/data-processing capabilities of
the PyTorchOCR reference (detect -> reading-order sort -> recognize -> per-doc
reassembly) expressed as ``ray.data.Dataset`` pipelines of ``map_batches``
over zero-copy Arrow batches, with the stateful model stages built once per
worker process inside fused task operators, and an optional
``co_partition`` exchange on doc_id for span reassembly.

Layout:
  functions/  pure numpy/pyarrow kernels shared by the pipeline AND the oracle
              (parity by construction)
  state/      deterministic seeded model weights + broadcast helpers
  synth/      deterministic synthetic corpus generator (interleaved documents
              + PNG media sidecar + generator-known ground truth)
  oracle/     single-process reference implementation (golden output)
  stages/     Ray Data stage functions / warm stage classes
  pipelines/  end-to-end pipeline composition + partitioned resumable runner
  ops/        large-scale training-data ops (dedup, simsearch, text stats,
              relational) over generic Arrow tables
"""

__version__ = "0.1.0"
