"""Dynamics of fractional-linear maps over prime fields, and the exponential
sums they generate.

Layout mirrors the pipeline: exact field arithmetic (`field_arith`), the
dynamical system itself (`mobius_dynamics`), the Mobius function and the
primes (`arith_fn`), the sum kernels with their reference bounds
(`char_sums`), the sieve-block machinery for correlations with bounded
multiplicative functions (`bsz_harness`), and a reproducible experiment
driver (`cli_runner`).
"""

__version__ = "0.1.0"
