"""Direct loader for the optional compiled kernel extension.

``repro.common.stats`` and ``repro.common.events`` want the compiled
``Counter``/``Distribution``/``EventQueue`` types, but they cannot import
``repro.core.segmented._ckernels`` by name: the ``repro.core.segmented``
package ``__init__`` pulls in ``queue``, which imports ``stats`` — a cycle.
Instead this module loads the shared object straight from its file path and
registers it in ``sys.modules`` under its canonical name, so a later normal
import (from ``kernels.py``) reuses the same module object.

An extension older than its ``_ckernels.c`` source counts as absent, so
every extension that loads has every type the current source defines.
So does a sanitizer build (``build --sanitize``) in a process without the
AddressSanitizer runtime, where loading it would abort the interpreter.
:func:`extension_path` is that rule, and ``build.ensure_built`` (which
loads this file by path) rebuilds exactly when it finds no extension.
Returns ``None`` quietly whenever the extension is unavailable or the user
forced the pure-Python backend with ``REPRO_KERNELS=py``.  Because the swap
happens at module import time, ``REPRO_KERNELS`` governs the stats/event
primitives for the whole process; ``repro.core.segmented.set_backend`` only
switches the IQ kernel engine.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from typing import Optional

_MODULE_NAME = "repro.core.segmented._ckernels"
_PACKAGE_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "core", "segmented")


def _loads_here(path: str) -> bool:
    """False for a sanitizer build when this process lacks the
    AddressSanitizer runtime."""
    with open(path, "rb") as handle:
        if b"__asan_init" not in handle.read():
            return True
    import ctypes
    return hasattr(ctypes.CDLL(None), "__asan_init")


def extension_path() -> Optional[str]:
    """The built extension, or ``None`` when none is built, the built
    one is older than ``_ckernels.c`` (a checkout without the source
    accepts any build) or it is a sanitizer build this process cannot
    load."""
    source = os.path.join(_PACKAGE_DIR, "_ckernels.c")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(_PACKAGE_DIR, "_ckernels" + suffix)
        if not os.path.exists(path):
            continue
        if (os.path.exists(source)
                and os.path.getmtime(path) < os.path.getmtime(source)):
            return None
        return path if _loads_here(path) else None
    return None


def compiled_kernels(honor_env: bool = True):
    """Return the compiled ``_ckernels`` module, or ``None`` when it is
    not built, stale, fails to load or (``honor_env``) ``REPRO_KERNELS``
    is ``py``."""
    if (honor_env and os.environ.get("REPRO_KERNELS", "auto")
            .strip().lower() == "py"):
        return None
    module = sys.modules.get(_MODULE_NAME)
    if module is not None:
        return module
    path = extension_path()
    if path is None:
        return None
    try:
        spec = importlib.util.spec_from_file_location(_MODULE_NAME, path)
        if spec is None or spec.loader is None:
            return None
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception:
        return None
    sys.modules[_MODULE_NAME] = module
    return module
