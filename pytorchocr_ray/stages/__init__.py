"""Ray Data stage functions / warm stage classes for the extraction pipeline."""
