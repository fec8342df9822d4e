"""Settings that must be in place before NumPy loads in a test session."""

import os

# One OpenBLAS thread, as CI and the benchmark run. The exact-equality tests
# of the quadrature oracle were measured under it: with two threads, complex
# gemm may sum in another order.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
