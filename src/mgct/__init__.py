"""Multimodal survival prediction: genomic and histology bags fused by
mutual-guided cross-attention, trained with a discrete-time hazard loss.
Importing mgct sets numpy's bundled OpenBLAS to one thread (forked fold and
sweep children inherit it), and on glibc keeps up to ``HEAP_KEEP`` bytes of
freed heap in the process for the next tape run to reuse."""

import ctypes
import os

import numpy

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
# OpenBLAS's thread setters, newest first. One thread fixes each product's
# summation order, so outputs do not depend on the host or the environment,
# and forked children (``forks``) do not oversubscribe the CPUs.
BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Set the OpenBLAS that numpy's wheel bundles (in ``numpy.libs``) to one thread; without one, do nothing."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for name in sorted(os.listdir(libs)) if os.path.isdir(libs) else ():
        lib = ctypes.CDLL(os.path.join(libs, name)) if "openblas" in name else None
        setters = [getattr(lib, s) for s in BLAS_SETTERS if hasattr(lib, s)]
        if setters:
            setters[0](1)


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


_one_blas_thread()
_keep_freed_heap()
