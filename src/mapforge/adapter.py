"""Wire protocol client for external mapper optimizers.

One request/response round per search iteration, as newline-delimited
JSON.  Two transports: an HTTP endpoint (the URL is POSTed one JSON
body per iteration) or a subprocess command (one JSON line on stdin,
one JSON line on stdout per iteration).  See docs/adapter_protocol.md
for the field-by-field schema; the protocol is versioned.

The adapter keeps its own copy of the run's history: a request carries
only the records added since the last round that succeeded
(``history_start`` onward), and ``history_start: 0`` tells the adapter
to forget what it holds.  The client counts the records its adapter
holds; the count drops to 0 after any failed round and whenever the
subprocess is not running, so the next request resends the whole
history.

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

PROTOCOL_VERSION = 2

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
                  best: Optional[dict], history_start: int = 0) -> dict:
    """A request whose ``history`` holds the records from index
    ``history_start`` of the run's history onward."""
    return {
        "version": PROTOCOL_VERSION,
        "app": app_name,
        "machine": machine_name,
        "iteration": history_start + len(history),
        "history_start": history_start,
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
        self.run = os.urandom(16).hex()  # tells one run's HTTP requests apart
        self._proc: Optional[subprocess.Popen] = None
        self._unread = b""  # subprocess output past the last response line
        self._held = 0  # history records the adapter holds

    @property
    def is_http(self) -> bool:
        return self.endpoint.startswith(("http://", "https://"))

    @property
    def held(self) -> int:
        """How many history records the adapter holds, and so the
        ``history_start`` of the next request: 0 before the first round
        that succeeds, after a failed one, and while no subprocess runs."""
        if not self.is_http and (self._proc is None or self._proc.poll() is not None):
            return 0
        return self._held

    def forget(self) -> None:
        """Mark the round as failed: the next request resends the whole
        history."""
        self._held = 0

    def propose(self, request: dict) -> str:
        """One round: send ``request`` and return the raw response line.
        A subprocess started during the round holds none of the history,
        so a request that starts past 0 fails there and is resent whole."""
        start = request.get("history_start", 0)
        if self.is_http:
            request = {**request, "run": self.run}
        payload = json.dumps(request, separators=(",", ":"))
        proc, self._held = self._proc, 0  # 0 until this round succeeds
        try:
            if self.is_http:
                raw = self._http_round(payload)
            else:
                raw = self._subprocess_round(payload)
        except AdapterError:
            raise
        except Exception as exc:
            raise AdapterError(f"adapter transport failure: {exc}") from exc
        if start and self._proc is not proc:
            raise AdapterError("adapter subprocess restarted; "
                               "the next request resends the history")
        self._held = start + len(request.get("history", ()))
        return raw

    def _http_round(self, payload: str) -> str:
        req = urllib.request.Request(
            self.endpoint, data=payload.encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=ROUND_TIMEOUT) as response:
            return response.read().decode()

    def _subprocess_round(self, payload: str) -> str:
        """Send one request line and read one response line.  An adapter
        that has not taken the request and answered a full line within
        ROUND_TIMEOUT, or that fails the round otherwise, is killed; the
        next request starts a new one."""
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
        try:
            while b"\n" not in self._unread:
                readable, writable, _ = select.select(
                    [out], [send] if request else [], [],
                    max(deadline - time.monotonic(), 0))
                if not (readable or writable):
                    raise AdapterError(
                        f"adapter subprocess sent no response within {ROUND_TIMEOUT} s")
                if writable:
                    request = request[os.write(send, request):]
                if readable:
                    chunk = os.read(out, 4096)
                    if not chunk:
                        raise AdapterError("adapter subprocess closed its output")
                    self._unread += chunk
        except BaseException:
            with self._proc:  # closes its pipes and waits
                self._proc.kill()
            raise
        line, _, self._unread = self._unread.partition(b"\n")
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
