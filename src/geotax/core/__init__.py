"""Shared numeric primitives: matrices, RNG, rank statistics, PCA, file I/O."""
