import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from loblab import _book_kernel as kernel

SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")


@pytest.fixture
def compiles(monkeypatch):
    """Names of the extensions the loader compiles during the test."""
    names = []
    real = kernel._compile

    def counting(name, source_path, build_dir):
        names.append(name)
        return real(name, source_path, build_dir)

    monkeypatch.setattr(kernel, "_compile", counting)
    return names


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A cache directory holding the extension this interpreter loaded."""
    name = kernel.module_name(kernel.SOURCE.read_text()) + SUFFIX
    shutil.copy2(kernel.CACHE_DIR / name, tmp_path / name)
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path)
    return tmp_path


def _sample(lib, ffi):
    # u = 0 picks the first flow: a market buy at the ask (slot 4) in region O
    rates = ffi.new("rates_t *", {"fixed": [1.0] * 6, "fixed_total": 6.0, "tb": 0.0, "ts": 0.0})
    ev = ffi.new("event_t *")
    q = ffi.new("int64_t[6]", [1, 1, 0, 0, -1, -1])
    assert lib.classify(q, 1.5, 0.0, rates, ev) == lib.KERNEL_OK
    return ev.dt, ev.slot, ev.delta, ev.region, ev.category


def test_cache_hit_loads_without_compiling(cache, compiles):
    for _ in range(2):
        ffi, lib = kernel.load()
        assert _sample(lib, ffi) == (0.25, 4, 1, 7, 0)
    assert compiles == []


def test_changed_source_rebuilds_once(cache, compiles, tmp_path_factory, monkeypatch):
    changed = tmp_path_factory.mktemp("src") / "_book_kernel.c"
    changed.write_text(kernel.SOURCE.read_text() + "\n/* changed */\n")
    old_name = kernel.module_name(kernel.SOURCE.read_text())
    monkeypatch.setattr(kernel, "SOURCE", changed)
    for _ in range(2):
        ffi, lib = kernel.load()
        assert _sample(lib, ffi) == (0.25, 4, 1, 7, 0)
    assert len(compiles) == 1
    assert compiles[0] != old_name
    # the new build replaces the old one, and no build directory is left
    assert [p.name for p in cache.iterdir()] == [compiles[0] + SUFFIX]


def test_rebuild_prunes_stale_builds_and_a_hit_keeps_them(cache, compiles, tmp_path_factory,
                                                          monkeypatch):
    stale = cache / ("_book_kernel_0123456789abcdef" + SUFFIX)
    stale.write_bytes(b"an older build")
    other_abi = cache / "_book_kernel_0123456789abcdef.cpython-00-other.so"
    other_abi.write_bytes(b"another interpreter's build")
    kernel.load()
    assert compiles == []
    assert stale.exists()
    changed = tmp_path_factory.mktemp("src") / "_book_kernel.c"
    changed.write_text(kernel.SOURCE.read_text() + "\n/* changed */\n")
    monkeypatch.setattr(kernel, "SOURCE", changed)
    kernel.load()
    assert len(compiles) == 1
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        (compiles[0] + SUFFIX, other_abi.name)
    )


def test_missing_compiler_is_named(tmp_path, monkeypatch):
    def no_compiler(name, source_path, build_dir):
        raise FileNotFoundError(2, "No such file or directory", "gcc")

    monkeypatch.setattr(kernel, "_compile", no_compiler)
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path)
    with pytest.raises(kernel.KernelBuildError, match="no pure-Python event loop") as exc:
        kernel.load()
    assert "gcc" in str(exc.value)
    assert list(tmp_path.iterdir()) == []


def test_compiler_not_found_by_the_real_build(tmp_path, monkeypatch):
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path / "cache")
    with pytest.raises(kernel.KernelBuildError, match="needs cffi, a C compiler"):
        kernel.load()
    assert list((tmp_path / "cache").iterdir()) == []


def test_import_never_loads_the_build_tools(tmp_path):
    # a fresh interpreter imports the package on a cache hit, then loads the
    # kernel again from an empty cache: the build runs in a child
    # interpreter, so neither the cffi builder nor setuptools loads here
    src = Path(kernel.__file__).parent.parent
    code = (
        "import sys, pathlib, loblab; from loblab import _book_kernel as k; "
        f"k.CACHE_DIR = pathlib.Path({str(tmp_path)!r}); k.load(); "
        "print(sorted(m for m in ('cffi.api', 'setuptools', 'distutils') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert out.stdout.strip() == "[]"
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]
