"""Shared fixtures and program helpers for the test suite."""

import importlib.util
import os
import pathlib

import pytest


def _build_kernels():
    """Compile the kernel extension if it is missing or stale.

    This runs before anything imports ``repro``, whose import binds the
    compiled stat primitives.  A checkout with a C compiler thus runs the
    py-vs-compiled parity tests instead of skipping them.  Under
    ``REPRO_KERNELS=compiled`` a failed build ends the session with the
    compiler's error.
    """
    path = (pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
            / "core" / "segmented" / "build.py")
    spec = importlib.util.spec_from_file_location("_kernel_build", path)
    build = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build)
    strict = os.environ.get("REPRO_KERNELS", "").strip().lower() == "compiled"
    try:
        build.ensure_built(strict=strict)
    except (RuntimeError, OSError) as exc:
        pytest.exit("REPRO_KERNELS=compiled, but the kernel backend did "
                    f"not build:\n{exc}")


_build_kernels()

from repro.common import (ProcessorParams, StatGroup,  # noqa: E402
                          ideal_iq_params)
from repro.isa import F, ProgramBuilder, R, execute  # noqa: E402
from repro.pipeline import Processor  # noqa: E402


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the on-disk result cache at a per-test directory.

    The CLI caches simulation results by default; tests must never read
    from (or pollute) the invoking user's real ``~/.cache/repro``.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


def daxpy_program(n=64, stride=1, name="daxpy"):
    """y[i] = 3*x[i] + y[i] over n/stride elements."""
    b = ProgramBuilder(name)
    x = b.alloc("x", n, init=[1.0] * n)
    y = b.alloc("y", n, init=[2.0] * n)
    i, limit, addr = R(1), R(2), R(3)
    b.li(R(4), 3)
    b.cvtif(F(4), R(4))
    b.li(limit, n)
    b.li(i, 0)
    b.label("loop")
    b.slli(addr, i, 3)
    b.fld(F(0), addr, base=x)
    b.fld(F(1), addr, base=y)
    b.fmul(F(2), F(0), F(4))
    b.fadd(F(3), F(2), F(1))
    b.fst(F(3), addr, base=y)
    b.addi(i, i, stride)
    b.blt(i, limit, "loop")
    b.halt()
    return b.build()


def dependent_chain_program(length=100):
    """A serial integer dependence chain (no ILP at all)."""
    b = ProgramBuilder("chain")
    b.li(R(1), 0)
    for _ in range(length):
        b.addi(R(1), R(1), 1)
    b.halt()
    return b.build()


def independent_ops_program(count=100):
    """Fully parallel integer ops (ILP = issue width)."""
    b = ProgramBuilder("parallel")
    regs = [R(i) for i in range(1, 25)]
    for i in range(count):
        reg = regs[i % len(regs)]
        b.li(reg, i)
    b.halt()
    return b.build()


def run_program(program, params=None, max_cycles=1_000_000,
                max_instructions=None):
    """Run a program through the timing model; returns the processor."""
    if params is None:
        params = ProcessorParams().replace(iq=ideal_iq_params(64))
    stream = execute(program, max_instructions=max_instructions)
    processor = Processor(params, stream)
    processor.run(max_cycles=max_cycles)
    return processor


@pytest.fixture
def ideal_params():
    return ProcessorParams().replace(iq=ideal_iq_params(64))
