"""Kernel-engine microbenchmark: promote / wakeup / pop in isolation.

Times the three hot operations of the segmented-IQ struct-of-arrays
engine (``repro.core.segmented.kernels``) on synthetic state, outside
the full pipeline, for every available backend:

* ``promote_all`` — the fused per-cycle promotion sweep draining a
  fully-loaded queue (dense seg-512 shape: 8 segments x 64 slots),
  including the issue-side ``free_entry`` of segment-0 arrivals.
* ``notify`` — a chain wakeup broadcast over a large member list while
  the chain head walks down the segments (the critical-base filter and
  duplicate-push suppression are both exercised).
* ``pop_eligible`` — batched oldest-first selection draining one packed
  512-entry segment at issue width.

Pipeline-tier ops (``repro.pipeline.kernels``) ride along:

* ``fu_ops`` — the per-issue FU-heap claims/probes plus the per-cycle
  cache-port and next-event scans.
* ``rename`` — the dispatch rename loop (fused C kernel on the
  compiled backend, the Processor twin on py).

Not a pytest module on purpose: it measures, it does not assert.  Run

    PYTHONPATH=src python benchmarks/bench_kernels.py [--rounds N]

Results (best-of-``rounds`` CPU time per call, plus the compiled/py
ratio when the C extension is built) are printed and written to
``benchmarks/out/kernels_micro.json``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.core.segmented import kernels

OUT_DIR = Path(__file__).parent / "out"

MODE_QUEUED = 0


class MicroEntry:
    """Minimal stand-in for an IQ entry: ``slot`` lets the loop free
    segment-0 arrivals."""

    __slots__ = ("slot",)

    def __init__(self):
        self.slot = -1


def _thresholds(num_segments):
    return [2 * k for k in range(num_segments)]


# ------------------------------------------------------------- promote --
def bench_promote(rounds):
    """Drain a full 8x64 queue through promote_all, freeing segment-0
    arrivals each sweep the way select_issue would."""
    num_segments, cap, width = 8, 64, 8
    best = None
    calls = 0
    for _ in range(rounds):
        eng = kernels.make_engine(num_segments, cap,
                                  _thresholds(num_segments))
        seq = 0
        for seg in range(1, num_segments):
            for _ in range(cap):
                obj = MicroEntry()
                obj.slot = eng.insert_entry(obj, seq, seg, -1, -1, 0,
                                            -1, 0, -1, 0)
                seq += 1
        calls = 0
        t0 = time.perf_counter()
        now = 0
        while True:
            eng.set_now(now)
            _promos, _push, seg0 = eng.promote_all(now, width, False)
            calls += 1
            for obj in seg0:
                eng.free_entry(obj.slot)
            eng.refresh_free_prev()
            if not any(eng.seg_occ(s) for s in range(num_segments)):
                break
            now += 1
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return {"op": "promote_all", "calls": calls,
            "shape": f"{num_segments}x{cap} dense, width {width}",
            "seconds": best, "us_per_call": 1e6 * best / calls}


# -------------------------------------------------------------- wakeup --
def bench_notify(rounds, members=256, sweeps=16):
    """Broadcast chain events over a large member list as the head
    walks segment by segment toward issue (base = 2*head_segment)."""
    num_segments, cap = 8, 64
    top = num_segments - 1
    best = None
    calls = 0
    for _ in range(rounds):
        eng = kernels.make_engine(num_segments, cap * num_segments,
                                  _thresholds(num_segments))
        cslot = eng.alloc_chain(MODE_QUEUED, 2 * top, top)
        for seq in range(members):
            seg = 1 + seq % top
            eng.insert_entry(MicroEntry(), seq, seg, -1, cslot,
                             seq % 4, -1, 0, -1, 0)
        calls = 0
        t0 = time.perf_counter()
        for _ in range(sweeps):
            for head in range(top, -1, -1):
                eng.chain_set(cslot, MODE_QUEUED, 2 * head, head)
                eng.notify(cslot)
                calls += 1
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return {"op": "notify", "calls": calls,
            "shape": f"{members} members, head walk x{sweeps}",
            "seconds": best, "us_per_call": 1e6 * best / calls}


# ----------------------------------------------------------------- pop --
def bench_pop(rounds, entries=512, limit=8):
    """Drain one packed segment through pop_eligible at issue width."""
    best = None
    calls = 0
    for _ in range(rounds):
        eng = kernels.make_engine(2, entries, [0, 0])
        for seq in range(entries):
            eng.insert_entry(MicroEntry(), seq, 1, -1, -1, 0, -1, 0,
                             -1, 0)
        calls = 0
        t0 = time.perf_counter()
        while eng.pop_eligible(1, 0, limit):
            calls += 1
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return {"op": "pop_eligible", "calls": calls,
            "shape": f"{entries} entries, limit {limit}",
            "seconds": best, "us_per_call": 1e6 * best / calls}


# -------------------------------------------------------- pipeline tier --
class MicroCounter:
    """Minimal stat counter honouring the ``inc`` protocol."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


def bench_fu(rounds, cycles=4096):
    """Pipeline-tier engine: FU-heap claims/probes the way _issue makes
    them, plus the per-cycle cache-port and next-event scans."""
    from repro.pipeline import kernels as pipeline_kernels
    best = None
    calls = 0
    for _ in range(rounds):
        eng = pipeline_kernels.make_engine(
            4, 2, [8, 4, 2, 2], 3,
            [MicroCounter() for _ in range(4)], MicroCounter())
        calls = 0
        t0 = time.perf_counter()
        for now in range(cycles):
            for ci in range(4):
                eng.fu_can_accept(ci, now & 1, now)
                eng.fu_accept(ci, now & 1, 1 + (ci & 1), now)
                calls += 2
            eng.fu_cache_port(now)
            eng.fu_next_event(now)
            calls += 2
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return {"op": "fu_ops", "calls": calls,
            "shape": f"4 classes x 2 clusters, {cycles} cycles",
            "seconds": best, "us_per_call": 1e6 * best / calls}


def bench_rename(rounds, insts=4096):
    """The dispatch rename loop over a mixed ready/in-flight register
    file: the fused C kernel on the compiled backend, the Processor
    twin on py (same objects built either way)."""
    from repro.core.iq_base import Operand
    from repro.pipeline.kernels import rename_kernel

    class Producer:
        __slots__ = ("value_ready_cycle",)

        def __init__(self, ready):
            self.value_ready_cycle = ready

    last_writer = {reg: Producer(None if reg % 3 == 0 else reg)
                   for reg in range(1, 32)}
    src_sets = [(1 + i % 31, 1 + (i * 7) % 31) for i in range(insts)]
    fused = rename_kernel()
    best = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        if fused is not None:
            for srcs in src_sets:
                fused(Operand, last_writer, srcs, -1)
        else:
            for srcs in src_sets:
                operands = []
                for reg in srcs:
                    producer = last_writer.get(reg) if reg != 0 else None
                    if producer is None:
                        operands.append(Operand(reg, None, 0, 0))
                    else:
                        operands.append(Operand(
                            reg, producer, producer.value_ready_cycle, 0))
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return {"op": "rename", "calls": len(src_sets),
            "shape": "2 srcs/inst, 31 live writers",
            "seconds": best, "us_per_call": 1e6 * best / len(src_sets)}


# -------------------------------------------------------------- driver --
def available_backends():
    names = ["py"]
    try:
        kernels.set_backend("compiled")
        kernels.backend()
        names.append("compiled")
    except RuntimeError:
        pass
    finally:
        kernels.set_backend(None)
    return names


def run(rounds=5):
    results = {}
    for name in available_backends():
        kernels.set_backend(name)
        try:
            results[name] = [bench_promote(rounds), bench_notify(rounds),
                             bench_pop(rounds), bench_fu(rounds),
                             bench_rename(rounds)]
        finally:
            kernels.set_backend(None)
    return results


def render(results):
    lines = []
    ops = [row["op"] for row in next(iter(results.values()))]
    have_c = "compiled" in results
    header = f"{'op':<14}{'shape':<34}{'py us/call':>12}"
    if have_c:
        header += f"{'compiled':>12}{'ratio':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for i, op in enumerate(ops):
        py = results["py"][i]
        line = f"{op:<14}{py['shape']:<34}{py['us_per_call']:>12.2f}"
        if have_c:
            c = results["compiled"][i]
            ratio = py["us_per_call"] / c["us_per_call"]
            line += f"{c['us_per_call']:>12.2f}{ratio:>7.1f}x"
        lines.append(line)
    if not have_c:
        lines.append("(compiled backend not built: "
                     "python -m repro.core.segmented.build)")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5,
                        help="best-of rounds per op (default 5)")
    parser.add_argument("--out", default=str(OUT_DIR /
                                             "kernels_micro.json"),
                        help="JSON results path")
    args = parser.parse_args(argv)
    results = run(args.rounds)
    print(render(results))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {out}")
    return results


if __name__ == "__main__":
    main()
