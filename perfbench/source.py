"""Locate the package source in the checkout and pin BLAS before numpy loads.

Both the benchmark process and its fresh set-up processes call these two
functions first, so that every measured process runs one BLAS thread and
imports `stbclab` from `<root>/src`, never from an installed copy.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas():
    """Pin BLAS to one thread; must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


class SourceMissing(RuntimeError):
    """The checkout holds no `src/stbclab` package to benchmark."""


def load_package(root):
    """Import `stbclab` from `<root>/src` and return the module.

    Raises SourceMissing when the checkout has no package source, or when
    the import resolves to a copy outside the checkout.
    """
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "stbclab", "__init__.py")):
        raise SourceMissing(f"no package source at {os.path.join(src, 'stbclab')}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import stbclab

    if not os.path.abspath(stbclab.__file__).startswith(src + os.sep):
        raise SourceMissing(f"stbclab resolved to {stbclab.__file__}, outside {src}")
    return stbclab
