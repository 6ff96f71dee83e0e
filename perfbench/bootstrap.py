"""Process set-up shared by the benchmark's entry points.

``prepare`` must run before numpy is imported: it pins the BLAS/OpenMP
thread pools to one thread and puts the repository's ``src`` directory on
the import path, so the benchmark always measures the source tree it sits
in.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def prepare() -> None:
    """Pin thread pools and make ``import loblab`` load ``ROOT/src/loblab``.

    Exits with status 2 when the source tree is missing, so a directory
    holding only the benchmark cannot produce a result.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "loblab" / "__init__.py").is_file():
        print(f"perfbench: no loblab package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
