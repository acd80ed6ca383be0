"""The fabric worker: ``python -m repro.fabric.worker [cache_dir]``.

One worker serves one channel of the ``ssh`` backend, speaking a JSONL
request/response protocol over stdin/stdout (stdout is reserved for the
protocol; ``sys.stdout`` is rebound to stderr so stray prints from
simulation code cannot corrupt it).

Protocol (one JSON object per line)::

    -> {"op": "hello", "token": <source token>, "pid": ...}   (worker)
    <- {"op": "run",  "id": N, "spec": {...}}
    -> {"op": "done", "id": N, "result": {...}, "cached": bool}
    <- {"op": "task", "id": N, "name": "mod:func", "item": ...}
    -> {"op": "tick", "id": N, "payload": {...}}              (repeated)
    -> {"op": "done", "id": N, "result": ...}
    <- {"op": "merge", "id": N}
    -> {"op": "merged", "id": N, "entries": [[key, result], ...]}
    <- {"op": "ping", "id": N}      -> {"op": "pong", "id": N}
    <- {"op": "exit"}               (or EOF)

The hello line carries the worker's source-version token; the parent
refuses a mismatched worker outright — that single check is what makes
the backend bit-identical (same sources compute the same cells) and
keeps cache keys aligned across hosts.

The worker keeps its own :class:`~repro.harness.cache.ResultCache`
(``cache_dir`` argv, else ``$REPRO_CACHE_DIR``, else the default) and
records every entry a session touched; the ``merge`` op ships those
entries back so the submitting host's cache absorbs remote work.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from typing import Dict, Optional

from repro.fabric.cells import (result_to_dict, resolve_remote_task,
                                spec_from_dict)
from repro.harness.cache import ResultCache, source_version_token


def _serve(proto_out, proto_in, cache_dir: Optional[str]) -> None:
    cache = ResultCache(cache_dir) if cache_dir else ResultCache()
    session: Dict[str, dict] = {}    # key -> result dict touched this session

    def send(message: dict) -> None:
        proto_out.write(json.dumps(message, sort_keys=True) + "\n")
        proto_out.flush()

    send({"op": "hello", "token": source_version_token(),
          "pid": os.getpid()})

    for line in proto_in:
        line = line.strip()
        if not line:
            continue
        try:
            message = json.loads(line)
            op = message["op"]
        except (ValueError, KeyError, TypeError):
            continue                    # torn/foreign line: skip, stay up
        if op == "exit":
            break
        request_id = message.get("id")
        if op == "ping":
            send({"op": "pong", "id": request_id})
        elif op == "merge":
            send({"op": "merged", "id": request_id,
                  "entries": [[key, result]
                              for key, result in session.items()]})
        elif op == "run":
            _serve_run(send, cache, session, request_id, message)
        elif op == "task":
            _serve_task(send, request_id, message)
        else:
            send({"op": "error", "id": request_id, "label": "protocol",
                  "error": f"unknown op {op!r}", "details": ""})


def _serve_run(send, cache: ResultCache, session: Dict[str, dict],
               request_id, message: dict) -> None:
    from repro.fabric.cells import _execute_spec
    try:
        spec = spec_from_dict(message["spec"])
    except Exception as exc:            # noqa: BLE001 — protocol surface
        send({"op": "error", "id": request_id, "label": "spec",
              "error": f"{type(exc).__name__}: {exc}",
              "details": traceback.format_exc()})
        return
    key = cache.key_for(spec.workload, spec.params, **spec.cache_kwargs())
    hit = cache.get(key)
    if hit is not None:
        session[key] = result_to_dict(hit)
        send({"op": "done", "id": request_id,
              "result": result_to_dict(hit), "cached": True})
        return
    try:
        result = _execute_spec(spec)
    except Exception as exc:            # noqa: BLE001 — surfaced per-cell
        send({"op": "error", "id": request_id, "label": spec.label,
              "error": f"{type(exc).__name__}: {exc}",
              "details": traceback.format_exc()})
        return
    payload = result_to_dict(result)
    cache.put(key, result)
    session[key] = payload
    send({"op": "done", "id": request_id, "result": payload,
          "cached": False})


def _serve_task(send, request_id, message: dict) -> None:
    try:
        func = resolve_remote_task(message["name"])
    except Exception as exc:            # noqa: BLE001 — protocol surface
        send({"op": "error", "id": request_id,
              "label": message.get("name", "task"),
              "error": f"{type(exc).__name__}: {exc}", "details": ""})
        return

    def emit(payload: dict) -> None:
        send({"op": "tick", "id": request_id, "payload": payload})

    try:
        value = func(message.get("item"), emit)
    except Exception as exc:            # noqa: BLE001 — surfaced per-task
        send({"op": "error", "id": request_id,
              "label": message.get("name", "task"),
              "error": f"{type(exc).__name__}: {exc}",
              "details": traceback.format_exc()})
        return
    send({"op": "done", "id": request_id, "result": value,
          "cached": False})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cache_dir = argv[0] if argv else None
    # Reserve the real stdout for the protocol; stray prints from
    # simulation code land on stderr instead of corrupting the stream.
    proto_out = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr
    try:
        _serve(proto_out, sys.stdin, cache_dir)
    except (BrokenPipeError, KeyboardInterrupt):
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
