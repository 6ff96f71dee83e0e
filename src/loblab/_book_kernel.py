"""Build and load the compiled event kernel of the six-slot book.

The kernel is ``_book_kernel.c``, compiled with cffi against numpy's
``numpy/random/distributions.h`` and static ``libnpyrandom.a``.  The built
extension lives in a cache directory next to this file, named after a hash
of everything that shapes the binary: the C source, the declarations, the
compiler flags, the interpreter's extension suffix and the numpy and cffi
versions.  A cache hit loads the extension with ``importlib`` alone and
imports none of ``cffi.FFI``, ``setuptools`` and ``subprocess``.  A miss
compiles in a fresh interpreter, which runs this file as a script, so the
build tools never load into the importing process nor raise its peak
memory.  It builds in a temporary directory inside the cache and moves the
result into place with ``os.replace``, so concurrent interpreters never
load a partial file.  After a build, the cache's other builds for the same
extension suffix are removed, so an edit of the source or an upgrade of
numpy or cffi does not leave the old extension behind.

There is no pure-Python fallback: when the kernel cannot be built, loading
raises ``KernelBuildError``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
import sysconfig
import tempfile
from pathlib import Path

import _cffi_backend
import numpy as np

SOURCE = Path(__file__).with_name("_book_kernel.c")
CACHE_DIR = Path(__file__).with_name("_kernel_cache")

# exact IEEE double arithmetic in source order: no fused multiply-add, no
# fast-math reassociation, no host-specific instruction set
COMPILE_ARGS = ("-O2", "-ffp-contract=off")

CDEF = """
typedef struct bitgen bitgen_t;
typedef struct {
    double fixed[6];
    double fixed_total, tb, ts;
} rates_t;
typedef struct {
    double dt;
    int slot, delta, region, category;
} event_t;
#define KERNEL_OK ...
#define KERNEL_UNREACHABLE ...
#define KERNEL_FAULT ...
#define KERNEL_HORIZON ...
#define KERNEL_OUTSIDE ...
int classify(const int64_t *q, double e, double u, const rates_t *r, event_t *ev);
int apply_event(int64_t *q, int slot, int delta, int category);
int run_to_renewal(bitgen_t *bg, int64_t *q, const rates_t *r, double limit,
                   double *clock, event_t *ev);
int run_scaled_path(bitgen_t *bg, int64_t *q, const rates_t *r,
                    const double *grid, int64_t m, int64_t *counts,
                    double *occupations, event_t *ev);
"""


class KernelBuildError(RuntimeError):
    """Raised when the compiled book kernel cannot be built."""


def module_name(source: str) -> str:
    """Name of the extension built from ``source``, keyed by its build inputs."""
    digest = hashlib.sha256()
    for part in (source, CDEF, " ".join(COMPILE_ARGS), sysconfig.get_config_var("EXT_SUFFIX"),
                 np.__version__, _cffi_backend.__version__):
        digest.update(part.encode())
        digest.update(b"\0")
    return f"_book_kernel_{digest.hexdigest()[:16]}"


def _cffi_build(name: str, source_path: str, build_dir: str) -> str:
    """Compile the kernel as extension ``name`` in ``build_dir``; return its path."""
    from cffi import FFI

    numpy_dir = Path(np.__file__).parent
    ffi = FFI()
    ffi.cdef(CDEF)
    ffi.set_source(
        name,
        Path(source_path).read_text(),
        include_dirs=[np.get_include()],
        library_dirs=[str(numpy_dir / "random" / "lib")],
        libraries=["npyrandom", "m"],
        extra_compile_args=list(COMPILE_ARGS),
    )
    return ffi.compile(tmpdir=build_dir)


def _compile(name: str, source_path: str, build_dir: str) -> str:
    """Run ``_cffi_build`` in a fresh interpreter; return the built file."""
    # imported here because only a cache miss runs a build
    import subprocess

    proc = subprocess.run(
        [sys.executable, __file__, name, source_path, build_dir],
        capture_output=True,
        text=True,
    )
    if proc.returncode:
        lines = proc.stderr.strip().splitlines() or [f"exit status {proc.returncode}"]
        raise RuntimeError(f"the build interpreter failed: {lines[-1]}")
    return proc.stdout.strip().splitlines()[-1]


def _build(name: str, target: Path) -> None:
    # an unwritable cache or a failed build interpreter both mean the
    # kernel is missing; the cause stays chained
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=target.parent, prefix=".build-") as build_dir:
            os.replace(_compile(name, str(SOURCE), build_dir), target)
    except (OSError, RuntimeError) as exc:
        raise KernelBuildError(
            f"cannot build the compiled book kernel {SOURCE.name} into {target.parent}:"
            f" {type(exc).__name__}: {exc}.  loblab needs cffi, a C compiler and"
            " numpy's libnpyrandom.a; it has no pure-Python event loop"
        ) from exc


def _prune(keep: Path, suffix: str) -> None:
    """Remove this interpreter's other kernel builds from the cache."""
    for stale in keep.parent.glob("_book_kernel_*" + suffix):
        if stale != keep:
            stale.unlink(missing_ok=True)


def load():
    """Return the kernel's ``(ffi, lib)``, compiling it on a cache miss.

    A build replaces the cache's other builds for the same extension suffix;
    a cache hit leaves the directory as it is.
    """
    source = SOURCE.read_text()
    name = module_name(source)
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    path = CACHE_DIR / (name + suffix)
    built = not path.exists()
    if built:
        _build(name, path)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if built:
        _prune(path, suffix)
    return module.ffi, module.lib


if __name__ == "__main__":
    print(_cffi_build(*sys.argv[1:4]))
