"""Build the optional compiled kernel backend in place.

Compiles ``_ckernels.c`` into an extension module next to this file so
``from repro.core.segmented import _ckernels`` succeeds and the ``auto``
backend (see :mod:`repro.core.segmented.kernels`) picks it up.  Usage::

    python -m repro.core.segmented.build [--sanitize]

``--sanitize`` builds with AddressSanitizer and UndefinedBehaviorSanitizer
for checking the extension's memory and reference-count handling.  The
sanitizer runtimes must then be loaded first, e.g.::

    ASAN=$(gcc -print-file-name=libasan.so)
    UBSAN=$(gcc -print-file-name=libubsan.so)
    LD_PRELOAD="$ASAN:$UBSAN" ASAN_OPTIONS=detect_leaks=0 \\
        REPRO_KERNELS=compiled python -m pytest \\
        tests/core/test_kernels.py tests/core/test_engine_parity.py \\
        tests/pipeline/test_dispatch_stage.py

Rebuild without the flag afterwards.  A plain interpreter treats the
sanitized extension as absent (loading it would abort), so running this
module again without ``--sanitize`` replaces it, and so does
:func:`ensure_built` (a plain ``pytest`` session calls it first).

Only a C compiler and the Python headers are required — no build system
and no third-party packages.  When either is missing the build fails
with a clear message and the pure-Python backend keeps working.
"""

from __future__ import annotations

import argparse
import importlib.util
import pathlib
import shlex
import subprocess
import sys
import sysconfig
from typing import List, Optional

#: Compiler flags of an ``--sanitize`` build (in place of ``-O2``).
SANITIZE_FLAGS = ["-O1", "-g", "-fno-omit-frame-pointer",
                  "-fsanitize=address,undefined"]


def _load_ckload():
    """``repro.common._ckload``, loaded from its file.  Its
    ``extension_path`` decides which extension a process can load, so it
    also decides when to rebuild; loading it by path keeps this module
    usable before anything imports ``repro`` (tests/conftest.py)."""
    path = pathlib.Path(__file__).resolve().parents[2] / "common"
    spec = importlib.util.spec_from_file_location("_repro_ckload",
                                                  path / "_ckload.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ckload = _load_ckload()


def _compiler() -> List[str]:
    """The C compiler command, honoring the interpreter's build config."""
    cc = sysconfig.get_config_var("CC")
    if cc:
        return shlex.split(cc)
    return ["cc"]


def build(verbose: bool = True, sanitize: bool = False) -> pathlib.Path:
    """Compile ``_ckernels.c``; returns the built extension's path."""
    package_dir = pathlib.Path(__file__).resolve().parent
    source = package_dir / "_ckernels.c"
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    target = package_dir / f"_ckernels{suffix}"
    command = _compiler() + (SANITIZE_FLAGS if sanitize else ["-O2"]) + [
        "-fPIC", "-shared",
        f"-I{sysconfig.get_paths()['include']}",
        str(source), "-o", str(target),
    ]
    if verbose:
        print(" ".join(command))
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(
            "compiling the kernel backend failed "
            f"(exit {result.returncode}):\n{result.stderr.strip()}")
    if verbose and result.stderr.strip():
        print(result.stderr.strip())
    return target


def ensure_built(verbose: bool = False,
                 strict: bool = False) -> Optional[pathlib.Path]:
    """Build unless this process can load the existing extension: one at
    least as new as ``_ckernels.c`` that is not a sanitizer build run
    without the ASan runtime.  Returns the extension path, or None when
    no compiler toolchain is available (``strict`` raises the build
    failure instead)."""
    existing = _ckload.extension_path()
    if existing is not None:
        return pathlib.Path(existing)
    try:
        return build(verbose=verbose)
    except (RuntimeError, OSError) as exc:
        if strict:
            raise
        if verbose:
            print(f"kernel backend unavailable: {exc}", file=sys.stderr)
        return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.segmented.build",
        description="Compile the segmented-IQ kernel extension in place.")
    parser.add_argument("--sanitize", action="store_true",
                        help="build with -fsanitize=address,undefined")
    args = parser.parse_args(argv)
    try:
        target = build(verbose=True, sanitize=args.sanitize)
    except (RuntimeError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"built {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
