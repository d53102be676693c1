#!/usr/bin/env python3
"""Reference external optimizer speaking the adapter wire protocol.

Reads one JSON request per line on stdin and answers one JSON response
per line on stdout (see docs/adapter_protocol.md).  It keeps the run's
history itself, as version 2 of the protocol asks: each request carries
only the records it does not hold yet, from ``history_start`` on, and
``history_start: 0`` starts the history over.  A request that starts
anywhere else than at the end of what it holds gets an error object,
and the client resends the whole history with the next request.

The policy is a feedback-aware greedy sweep: keep the best vector seen,
advance one dimension at a time through its options, and fall back to
the first option everywhere on the first call.  It exists as a working
example of the protocol, not as a strong optimizer.

Usage:
    mapforge optimize --strategy external \
        --adapter-url "python3 scripts/greedy_adapter.py" ...
"""

import json
import sys


def choose(request):
    domains = request["domains"]
    best = request.get("best_so_far")
    if request["iteration"] == 0:
        return [0] * len(domains)
    base = best["choices"] if best and best.get("choices") else [0] * len(domains)
    # Sweep: iteration k perturbs dimension k % n to its next option.
    k = request["iteration"] % len(domains)
    vector = list(base)
    vector[k] = (vector[k] + 1) % len(domains[k]["options"])
    return vector


def main():
    history = []
    for line in sys.stdin:
        request = json.loads(line)
        if request["history_start"] == 0:
            history = []
        if request["history_start"] != len(history):
            response = {"error": f"history_start {request['history_start']} "
                                 f"is not the {len(history)} records held"}
        else:
            history += request["history"]
            response = {"vector": choose(request)}
        print(json.dumps(response), flush=True)


if __name__ == "__main__":
    main()
