"""Benchmark of the pytorchocr_ray engine (see run.py)."""
