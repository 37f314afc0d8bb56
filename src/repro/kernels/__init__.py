"""Columnar hot-path kernels: batch numpy implementations of the inner loops.

Every inner loop of the reproduction — dominance tests in BBS /
``getDominatingSky``, Algorithm 1's per-dimension candidate enumeration,
and the per-pair ``LBC`` evaluation driving Algorithm 4's heap — exists in
two forms:

* a **scalar** pure-Python implementation (the correctness oracle, exactly
  the paper's pseudo code), and
* a **kernel** implementation in this package operating on ``(n, d)``
  float64 blocks, evaluating a whole batch per numpy dispatch.

The :func:`kernels_enabled` switch selects between them globally.  Kernels
are **on by default**; call sites additionally require the cost model to
support vectorized evaluation (``CostModel.supports_vectorization`` /
``supports_vector_bounds``) and fall back to the scalar path per call when
it does not — so arbitrary user-supplied cost functions always work.

Disabling kernels (:func:`set_kernels_enabled` or the :func:`use_kernels`
context manager) forces the scalar path everywhere; ``skyup bench-kernels``
and the agreement tests in ``tests/test_kernels_agreement.py`` run both
paths this way and compare.

The vectorized stretches spend their time inside numpy ufuncs, which
release the GIL — worker threads in :mod:`repro.serve.pool` overlap there,
so the serving engine's throughput gains exceed the single-thread speedup.
"""

from __future__ import annotations

from repro.kernels.block import PointBlock
from repro.kernels.bounds_batch import pair_bounds_block
from repro.kernels.dominance import (
    any_dominates,
    dominated_mask,
    dominating_mask,
    pairwise_dominance,
)
from repro.kernels.skybuffer import SkylineBuffer
from repro.kernels.switch import (
    kernels_enabled,
    set_kernels_enabled,
    use_kernels,
)
from repro.kernels.upgrade_enum import (
    enumerate_candidates,
    enumerate_candidates_grouped,
    upgrade_kernel,
    upgrade_kernel_batch,
)

__all__ = [
    "PointBlock",
    "SkylineBuffer",
    "any_dominates",
    "dominated_mask",
    "dominating_mask",
    "enumerate_candidates",
    "enumerate_candidates_grouped",
    "kernels_enabled",
    "pair_bounds_block",
    "pairwise_dominance",
    "set_kernels_enabled",
    "upgrade_kernel",
    "upgrade_kernel_batch",
    "use_kernels",
]
