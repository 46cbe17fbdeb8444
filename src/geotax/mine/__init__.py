"""Mutual information estimation stack: MLP engine, DV-bound estimator,
bias correction, ceiling calibration, sanity checks, and nonlinear probes."""
