"""Multimodal survival prediction: genomic and histology bags fused by
mutual-guided cross-attention, trained with a discrete-time hazard loss.
On glibc, importing mgct keeps up to ``HEAP_KEEP`` bytes of freed heap in
the process for the next tape run to reuse."""

import ctypes
import os

from . import dataio, embedders, mgct_core, numkit, survival, train  # noqa: F401

__version__ = "0.1.0"

# glibc's mmap and trim thresholds. By default the heap top a tape run frees
# goes back to the kernel and the next run faults it in again page by page.
# Setting either threshold turns off the dynamic mmap threshold, so the trim
# threshold alone would mmap (and fault afresh) every array over 128 KiB; 32
# MiB is the largest mmap threshold 64-bit glibc accepts. Measured minor
# faults (medians, glibc 2.36, BENCH_14.json): 3,111 per eval_cohort
# operation became 6, and 12,127 per train_ref fold became 24.
HEAP_KEEP = 32 << 20


def _keep_freed_heap() -> None:
    """Set both thresholds to ``HEAP_KEEP`` through ``mallopt``; off glibc, do nothing."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD (-3) first: if it is refused, M_TRIM_THRESHOLD (-1)
    # is left alone too, so the dynamic threshold stays on
    if mallopt(-3, HEAP_KEEP):
        mallopt(-1, HEAP_KEEP)


_keep_freed_heap()
