#!/usr/bin/env python3
"""Replay optimizer for the external-text workload.

Speaks the subprocess transport of docs/adapter_protocol.md: one JSON
request per line on stdin, one JSON response per line on stdout.  It
reads the whole request, history included, as an optimizer would, and
answers request ``i`` with entry ``i`` of a script of ``blocks``
responses written by ``inputs.py``::

    python3 perfbench/replay_adapter.py perfbench/.work/inputs/seed-1/external-r0-circuit.json
"""

import json
import sys


def main() -> int:
    with open(sys.argv[1]) as handle:
        script = json.load(handle)
    for line in sys.stdin:
        request = json.loads(line)
        blocks = script[request["iteration"] % len(script)]
        sys.stdout.write(json.dumps({"blocks": blocks}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
