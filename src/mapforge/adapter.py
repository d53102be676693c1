"""Wire protocol client for external mapper optimizers.

One request/response round per search iteration, as newline-delimited
JSON.  Two transports: an HTTP endpoint (the URL is POSTed one JSON
body per iteration) or a subprocess command (one JSON line on stdin,
one JSON line on stdout per iteration).  See docs/adapter_protocol.md
for the field-by-field schema; the protocol is versioned.

A response proposes either a decision vector (``vector``: one option
index per dimension) or replacement DSL text for named program blocks
(``blocks``).  Malformed responses and transport failures raise
:class:`AdapterError`; the search loop records them as failed
iterations and keeps going.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import time
import urllib.request
from typing import Optional, Sequence

from .binder import DecisionDimension, LayoutChoice

PROTOCOL_VERSION = 1

# Seconds an adapter has to answer one request, on either transport, and
# a subprocess to exit once its input is closed.
ROUND_TIMEOUT = 30

# Canonical assembly order for block-structured responses.
BLOCK_NAMES = ("task", "region", "layout", "instance_limit",
               "index_task_map", "single_task_map")


class AdapterError(Exception):
    pass


def _serialize_option(option) -> object:
    if isinstance(option, LayoutChoice):
        return {"soa": option.aos_or_soa, "order": option.order}
    if isinstance(option, tuple):
        return list(option)
    return option


def serialize_domains(dims: Sequence[DecisionDimension]) -> list[dict]:
    return [{"id": list(d.dim_id),
             "options": [_serialize_option(o) for o in d.options]}
            for d in dims]


def build_request(app_name: str, machine_name: str,
                  dims: Sequence[DecisionDimension],
                  history: Sequence[dict],
                  best: Optional[dict]) -> dict:
    return {
        "version": PROTOCOL_VERSION,
        "app": app_name,
        "machine": machine_name,
        "iteration": len(history),
        "domains": serialize_domains(dims),
        "history": list(history),
        "best_so_far": best,
    }


def parse_response(raw: str, dims: Sequence[DecisionDimension]) -> dict:
    """Validate a response line; returns {"choices": [...]} or
    {"blocks": {...}}."""
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise AdapterError(f"adapter response is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise AdapterError("adapter response must be a JSON object")
    if "vector" in data:
        vector = data["vector"]
        if not isinstance(vector, list) or len(vector) != len(dims):
            raise AdapterError(
                f"adapter vector must list {len(dims)} option indexes")
        choices = []
        for i, (entry, dim) in enumerate(zip(vector, dims)):
            if not isinstance(entry, int) or not 0 <= entry < len(dim.options):
                raise AdapterError(
                    f"adapter vector entry {i} must be an option index in "
                    f"[0, {len(dim.options)})")
            choices.append(dim.options[entry])
        return {"choices": choices}
    if "blocks" in data:
        blocks = data["blocks"]
        if not isinstance(blocks, dict) or not blocks:
            raise AdapterError("adapter blocks must be a nonempty object")
        for name, text in blocks.items():
            if name not in BLOCK_NAMES:
                raise AdapterError(f"unknown block name {name!r}")
            if not isinstance(text, str):
                raise AdapterError(f"block {name!r} must be DSL text")
        program = "\n".join(blocks[name] for name in BLOCK_NAMES if name in blocks)
        return {"program": program}
    raise AdapterError("adapter response needs either 'vector' or 'blocks'")


class AdapterClient:
    """Holds one connection to an external optimizer for a search run."""

    def __init__(self, endpoint: str):
        self.endpoint = endpoint
        self._proc: Optional[subprocess.Popen] = None
        self._unread = b""  # subprocess output past the last response line

    @property
    def is_http(self) -> bool:
        return self.endpoint.startswith(("http://", "https://"))

    def propose(self, request: dict) -> str:
        payload = json.dumps(request, separators=(",", ":"))
        try:
            if self.is_http:
                return self._http_round(payload)
            return self._subprocess_round(payload)
        except AdapterError:
            raise
        except Exception as exc:
            raise AdapterError(f"adapter transport failure: {exc}") from exc

    def _http_round(self, payload: str) -> str:
        req = urllib.request.Request(
            self.endpoint, data=payload.encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=ROUND_TIMEOUT) as response:
            return response.read().decode()

    def _subprocess_round(self, payload: str) -> str:
        """Send one request line and read one response line.  An adapter
        that has not taken the request and answered a full line within
        ROUND_TIMEOUT is killed; the next request starts a new one."""
        if self._proc is None or self._proc.poll() is not None:
            self.close()
            self._proc = subprocess.Popen(
                shlex.split(self.endpoint), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE)
            os.set_blocking(self._proc.stdin.fileno(), False)
            self._unread = b""
        request = memoryview((payload + "\n").encode())
        send, out = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        deadline = time.monotonic() + ROUND_TIMEOUT
        while b"\n" not in self._unread:
            readable, writable, _ = select.select(
                [out], [send] if request else [], [],
                max(deadline - time.monotonic(), 0))
            if not (readable or writable):
                with self._proc:  # closes its pipes and waits
                    self._proc.kill()
                raise AdapterError(
                    f"adapter subprocess sent no response within {ROUND_TIMEOUT} s")
            if writable:
                request = request[os.write(send, request):]
            if readable:
                chunk = os.read(out, 4096)
                if not chunk:
                    break
                self._unread += chunk
        line, newline, self._unread = self._unread.partition(b"\n")
        if not (line or newline):
            raise AdapterError("adapter subprocess closed its output")
        return line.decode()

    def close(self):
        """Close the subprocess's input and wait for it to exit, killing it
        after ROUND_TIMEOUT."""
        if self._proc is not None:
            with self._proc:  # closes its pipes and waits
                self._proc.stdin.close()
                try:
                    self._proc.wait(timeout=ROUND_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self._proc.kill()
        self._proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
