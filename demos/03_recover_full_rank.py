#!/usr/bin/env python3
"""Recovering a matrix from its k-th compound, end to end.

For a source of rank r > k the compound determines the source up to a
single global sign (and exactly, when k is odd).  This script walks the
pipeline on a rectangular example, prints the recovery report, then shows
the odd/even sign behavior and what preprocessing does for repeated
singular values.
"""

import numpy as np

from compound_kit import TolerancePolicy, compound, inverse_compound
from compound_kit.testkit import random_rank_r

np.set_printoptions(precision=4, suppress=True)

A = random_rank_r(5, 4, 3, seed=42)
M = compound(A, 2)
print(f"Source A: 5x4 of rank 3;  compound C_2(A): {M.shape[0]}x{M.shape[1]} "
      f"of rank {np.linalg.matrix_rank(M)}")
print()

result = inverse_compound(M, 5, 4, 2)
A_hat = result.outcome.A
report = result.report
err = min(np.linalg.norm(A_hat - A), np.linalg.norm(A_hat + A)) / np.linalg.norm(A)
print("Recovery report:")
print(f"  inferred source rank     : {report.inferred_r}")
print(f"  preprocessing used       : {report.preprocessing_used}")
print(f"  reconstruction residual  : {report.reconstruction_residual:.2e}")
print(f"  stage timings (ms)       : "
      + ", ".join(f"{k}={v * 1e3:.2f}" for k, v in report.stage_timings.items()))
print(f"  error vs original (up to sign): {err:.2e}")
print(f"  sign ambiguous (k even)  : {result.outcome.sign_ambiguous}")
print()

print("With k even the compound genuinely cannot tell A from -A:")
print(f"  |C_2(-A) - C_2(A)| = {np.linalg.norm(compound(-A, 2) - M):.2e}")
print()

A3 = random_rank_r(6, 5, 4, seed=7)
M3 = compound(A3, 3)
out3 = inverse_compound(M3, 6, 5, 3).outcome
print("With k odd the sign is pinned down exactly:")
print(f"  k = 3 recovery error without any sign freedom: "
      f"{np.linalg.norm(out3.A - A3) / np.linalg.norm(A3):.2e}")
print(f"  sign ambiguous: {out3.sign_ambiguous}")
print()

print("Repeated singular values break the plain factor extraction; the")
print("pipeline detects the collision and composes with a random rotation")
print("first.  The identity matrix is the extreme case — every singular")
print("value equal:")
res_id = inverse_compound(np.eye(6), 4, 4, 2, TolerancePolicy(rng_seed=0))
print(f"  preprocessing used: {res_id.report.preprocessing_used} "
      f"(resamples: {res_id.report.resample_count})")
print(f"  residual of C_2(A_hat) vs I_6: {res_id.report.reconstruction_residual:.2e}")
print("  recovered source (an orthogonal matrix, as it must be):")
print(res_id.outcome.A)
