"""The `gausscone` program: the entry module of the console script.

It sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 and
only then imports `cli`, whose imports load numpy, so the program runs BLAS
and OpenMP on one thread whatever the caller's environment says (see
`cli`).  Importing this module sets nothing; `python -m gausscone.cli` pins
the same variables through `pin_one_thread`.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_one_thread() -> None:
    """Set every variable of THREAD_VARS to 1 in this process's environment."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    pin_one_thread()
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
