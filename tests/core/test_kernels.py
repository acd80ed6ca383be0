"""Py-vs-compiled kernel backend parity suite.

The segmented IQ's active-cycle state lives in a struct-of-arrays kernel
engine with two interchangeable implementations: the pure-Python
reference (:class:`repro.core.segmented.kernels.PyKernelEngine`) and the
optional C extension (``repro.core.segmented._ckernels``, built with
``python -m repro.core.segmented.build``).  The backends must be
**bit-identical**: same cycle counts, same statistics, same JSONL trace
streams, on every IQ design and every benchmark workload.

When the extension is not built (or ``REPRO_KERNELS=py`` disabled it for
the process) the compiled-side tests skip gracefully — the pure-Python
fallback is the only backend and there is nothing to compare.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import api
from repro.common import stats as stat_primitives
from repro.core.segmented import kernels
from repro.harness.configs import DESIGNS
from repro.obs import RingBufferTracer, dump_jsonl
from repro.workloads import WORKLOADS



def _compiled_available() -> bool:
    try:
        kernels.set_backend("compiled")
        kernels.backend()
        return True
    except RuntimeError:
        return False
    finally:
        kernels.set_backend(None)


COMPILED = _compiled_available()

requires_compiled = pytest.mark.skipif(
    not COMPILED,
    reason="compiled kernel backend not built "
           "(python -m repro.core.segmented.build)")


def _run(kind, workload, backend):
    """One conformance-config run under a forced kernel backend."""
    kernels.set_backend(backend)
    try:
        params = DESIGNS[kind].conformance_config()
        tracer = RingBufferTracer()
        result = api.run(params, workload, max_instructions=1200,
                         trace=tracer)
    finally:
        kernels.set_backend(None)
    return result, dump_jsonl(tracer.events)


class TestBackendSelection:
    def test_py_backend_always_available(self):
        kernels.set_backend("py")
        try:
            assert kernels.backend() == "py"
            engine = kernels.make_engine(4, 8, [0, 4, 8, 12])
            assert engine.kind == "py"
        finally:
            kernels.set_backend(None)

    @requires_compiled
    def test_compiled_backend_reports_kind(self):
        kernels.set_backend("compiled")
        try:
            assert kernels.backend() == "compiled"
            engine = kernels.make_engine(4, 8, [0, 4, 8, 12])
            assert engine.kind == "compiled"
        finally:
            kernels.set_backend(None)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            kernels.set_backend("fortran")

    def test_segmented_iq_reports_its_backend(self):
        from repro.harness import configs
        from repro.pipeline import Processor
        kernels.set_backend("py")
        try:
            processor = Processor(configs.segmented(128, 64, "comb"),
                                  iter(()))
            assert processor.iq.kernel_backend == "py"
        finally:
            kernels.set_backend(None)


@requires_compiled
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_segmented_backend_parity(workload):
    """The tentpole contract: engine backends are indistinguishable on
    the segmented design across all eight benchmarks."""
    py_result, py_trace = _run("segmented", workload, "py")
    c_result, c_trace = _run("segmented", workload, "compiled")
    assert c_result.cycles == py_result.cycles
    assert c_result.instructions == py_result.instructions
    assert json.dumps(c_result.stats, sort_keys=True) == \
        json.dumps(py_result.stats, sort_keys=True)
    assert c_trace == py_trace


@requires_compiled
@pytest.mark.parametrize("kind", sorted(DESIGNS))
def test_all_models_backend_parity(kind):
    """Every IQ design runs bit-identically under both backends
    (non-segmented models exercise the shared compiled stat/event
    primitives rather than the IQ engine)."""
    py_result, py_trace = _run(kind, "gcc", "py")
    c_result, c_trace = _run(kind, "gcc", "compiled")
    assert c_result.cycles == py_result.cycles
    assert json.dumps(c_result.stats, sort_keys=True) == \
        json.dumps(py_result.stats, sort_keys=True)
    assert c_trace == py_trace


# ------------------------------------------------------- pipeline tier --
def _run_dense(workload, backend):
    """One dense seg-512 run (the pipeline-kernel design point) under a
    forced backend: the fused rename loop, the C admission path, and
    the FU-heap engine are all active on ``compiled``."""
    from repro.harness import configs
    kernels.set_backend(backend)
    try:
        params = configs.segmented(512, 128, "comb")
        tracer = RingBufferTracer()
        result = api.run(params, workload, config_label="seg-512-128ch",
                         max_instructions=1200, trace=tracer)
    finally:
        kernels.set_backend(None)
    return result, dump_jsonl(tracer.events)


@requires_compiled
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_pipeline_tier_parity(workload):
    """The PR-10 contract: with the pipeline tier kernelized (dispatch
    rename, IQ admission, FU heaps), the dense design point stays
    bit-identical across backends on all eight benchmarks."""
    py_result, py_trace = _run_dense(workload, "py")
    c_result, c_trace = _run_dense(workload, "compiled")
    assert c_result.cycles == py_result.cycles
    assert c_result.instructions == py_result.instructions
    assert json.dumps(c_result.stats, sort_keys=True) == \
        json.dumps(py_result.stats, sort_keys=True)
    assert c_trace == py_trace


#: One dense cell in a fresh interpreter under ``REPRO_KERNELS=py``, so
#: that its stat and event primitives really are the Python classes
#: (``REPRO_KERNELS`` binds them once per process); prints the cycles and
#: the stats as sorted-key JSON.
_PY_PROCESS_RUN = """
import json, sys
from repro import api
from repro.common import events, stats
from repro.harness import configs
assert stats.Distribution is stats.PyDistribution
assert events.EventQueue is events._PyEventQueue
result = api.run(configs.segmented(512, 128, "comb"), sys.argv[1],
                 max_instructions=1200)
print(result.cycles)
print(json.dumps(result.stats, sort_keys=True))
"""


@requires_compiled
@pytest.mark.skipif(
    stat_primitives.Distribution is stat_primitives.PyDistribution,
    reason="this process runs the Python stat primitives")
@pytest.mark.parametrize("workload", ["twolf", "swim"])
def test_whole_run_parity_across_real_primitives(workload):
    """A py-primitives run in its own process and a compiled run here
    agree on cycles and on the stats' JSON bytes, so a value-type
    difference (``117`` against ``117.0``) between the two
    ``Distribution`` classes cannot pass."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, REPRO_KERNELS="py",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PY_PROCESS_RUN, workload],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    py_cycles, py_stats = proc.stdout.splitlines()
    from repro.harness import configs
    kernels.set_backend("compiled")
    try:
        c_result = api.run(configs.segmented(512, 128, "comb"), workload,
                           max_instructions=1200)
    finally:
        kernels.set_backend(None)
    assert c_result.cycles == int(py_cycles)
    assert json.dumps(c_result.stats, sort_keys=True) == py_stats


class _Counter:
    """Minimal stand-in honouring the stat ``inc`` protocol."""

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


def _pipeline_engines():
    """A (py, compiled) pair of pipeline engines with identical FU
    shapes, plus their counters for comparison."""
    from repro.pipeline.kernels import PyPipelineEngine, make_engine
    shapes = dict(n_classes=3, clusters=2, counts=[4, 2, 2],
                  mem_port_index=2)
    py_issued = [_Counter() for _ in range(3)]
    py_structural = _Counter()
    py_engine = PyPipelineEngine(issued_counters=py_issued,
                                 structural_counter=py_structural,
                                 **shapes)
    kernels.set_backend("compiled")
    try:
        c_issued = [_Counter() for _ in range(3)]
        c_structural = _Counter()
        c_engine = make_engine(issued_counters=c_issued,
                               structural_counter=c_structural, **shapes)
    finally:
        kernels.set_backend(None)
    return (py_engine, py_issued, py_structural,
            c_engine, c_issued, c_structural)


@requires_compiled
def test_pipeline_engine_op_parity():
    """The FU-heap engine twins agree call-for-call: accept outcomes,
    cache-port claims, next-event horizons, and every stat increment."""
    (py_engine, py_issued, py_structural,
     c_engine, c_issued, c_structural) = _pipeline_engines()
    assert c_engine.kind == "compiled"
    ops = [("accept", 0, 0, 3, 0), ("accept", 0, 0, 3, 0),
           ("accept", 0, 1, 2, 0), ("can", 0, 0, 1), ("can", 0, 0, 3),
           ("port", 0), ("port", 0), ("port", 1), ("next", 0),
           ("accept", 1, 0, 5, 2), ("accept", 1, 0, 5, 2),
           ("next", 2), ("port", 2), ("next", 4), ("can", 1, 0, 6),
           ("accept", 2, 1, 1, 6), ("port", 6), ("next", 6)]
    for op in ops:
        if op[0] == "accept":
            _, ci, cluster, occupancy, now = op
            assert (py_engine.fu_accept(ci, cluster, occupancy, now)
                    == c_engine.fu_accept(ci, cluster, occupancy, now)), op
        elif op[0] == "can":
            _, ci, cluster, now = op
            assert (py_engine.fu_can_accept(ci, cluster, now)
                    == c_engine.fu_can_accept(ci, cluster, now)), op
        elif op[0] == "port":
            assert (py_engine.fu_cache_port(op[1])
                    == c_engine.fu_cache_port(op[1])), op
        else:
            assert (py_engine.fu_next_event(op[1])
                    == c_engine.fu_next_event(op[1])), op
    assert [c.value for c in c_issued] == [c.value for c in py_issued]
    assert c_structural.value == py_structural.value


class TestPipelineGracefulFallback:
    def test_py_backend_uses_python_engine_and_loop(self):
        """On the py backend the pipeline tier needs no extension: the
        engine is the Python reference."""
        from repro.pipeline.kernels import PyPipelineEngine, make_engine
        kernels.set_backend("py")
        try:
            engine = make_engine(1, 1, [2], 0, [_Counter()], _Counter())
            assert isinstance(engine, PyPipelineEngine)
        finally:
            kernels.set_backend(None)

    def test_stale_extension_is_not_loaded(self, tmp_path, monkeypatch):
        """An extension older than its _ckernels.c counts as absent, the
        rule the build uses to decide a rebuild: no stale build loads, so
        every loaded one has every type the source defines."""
        import importlib.machinery
        import os
        import sys
        from repro.common import _ckload
        built = tmp_path / (
            "_ckernels" + importlib.machinery.EXTENSION_SUFFIXES[0])
        source = tmp_path / "_ckernels.c"
        built.write_bytes(b"")
        source.write_text("")
        os.utime(built, (1_000, 1_000))
        os.utime(source, (2_000, 2_000))
        monkeypatch.setattr(_ckload, "_PACKAGE_DIR", str(tmp_path))
        assert _ckload.extension_path() is None
        # Nothing is loaded from a stale build, and the backend is py.
        monkeypatch.delitem(sys.modules, _ckload._MODULE_NAME,
                            raising=False)
        assert _ckload.compiled_kernels(honor_env=False) is None
        kernels.set_backend("auto")
        try:
            assert kernels.backend() == "py"
        finally:
            kernels.set_backend(None)
        # A build at least as new as its source is found; so is any
        # build in a checkout without the source.
        os.utime(built, (3_000, 3_000))
        assert _ckload.extension_path() == str(built)
        os.utime(built, (1_000, 1_000))
        source.unlink()
        assert _ckload.extension_path() == str(built)

    def test_sanitized_extension_is_absent_without_asan(self, tmp_path,
                                                        monkeypatch):
        """A sanitizer build would abort a process without the ASan
        runtime, so there it counts as absent, and the plain build
        command (which imports repro) can replace it."""
        import ctypes
        import importlib.machinery
        from repro.common import _ckload
        if hasattr(ctypes.CDLL(None), "__asan_init"):
            pytest.skip("this process runs under the ASan runtime")
        built = tmp_path / (
            "_ckernels" + importlib.machinery.EXTENSION_SUFFIXES[0])
        monkeypatch.setattr(_ckload, "_PACKAGE_DIR", str(tmp_path))
        built.write_bytes(b"\x7fELF...__asan_init...")
        assert _ckload.extension_path() is None
        built.write_bytes(b"\x7fELF...")
        assert _ckload.extension_path() == str(built)

    def test_ensure_built_replaces_what_this_process_cannot_load(
            self, tmp_path, monkeypatch):
        """The build shares the loader's rule: after ``build --sanitize``
        a plain session rebuilds, rather than keep an extension it then
        treats as absent (the parity tests would skip); a loadable,
        up-to-date extension is kept."""
        import ctypes
        import importlib.machinery
        import os
        from repro.core.segmented import build
        if hasattr(ctypes.CDLL(None), "__asan_init"):
            pytest.skip("this process runs under the ASan runtime")
        built = tmp_path / (
            "_ckernels" + importlib.machinery.EXTENSION_SUFFIXES[0])
        source = tmp_path / "_ckernels.c"
        source.write_text("")
        monkeypatch.setattr(build._ckload, "_PACKAGE_DIR", str(tmp_path))
        rebuilds = []
        monkeypatch.setattr(build, "build",
                            lambda **kwargs: rebuilds.append(kwargs) or built)
        for content, expect_rebuild in ((b"\x7fELF...", False),
                                        (b"\x7fELF...__asan_init...", True)):
            built.write_bytes(content)
            os.utime(source, (1_000, 1_000))
            os.utime(built, (2_000, 2_000))
            rebuilds.clear()
            assert build.ensure_built() == built
            assert bool(rebuilds) == expect_rebuild, content
        # A stale extension is rebuilt too.
        built.write_bytes(b"\x7fELF...")
        os.utime(built, (500, 500))
        rebuilds.clear()
        build.ensure_built()
        assert rebuilds
