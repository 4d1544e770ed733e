"""Deterministic model-weight artifacts + broadcast helpers, and the
crash-safe fixture cache (:mod:`.cache`)."""
