import json
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from mapforge import adapter
from mapforge.adapter import (
    AdapterClient, AdapterError, build_request, parse_response,
    serialize_domains,
)
from mapforge.binder import DecisionDimension, decision_dimensions
from mapforge.search import ObjectiveSpec, external_strategy, run

from conftest import load_app_named
from test_search import reference_external_request

ECHO_ADAPTER = """\
import json, sys
for line in sys.stdin:
    request = json.loads(line)
    best = request.get("best_so_far")
    if best and best.get("choices") is not None:
        vector = best["choices"]
    else:
        vector = [0] * len(request["domains"])
    print(json.dumps({"vector": vector}), flush=True)
"""

REPLAY_ADAPTER = """\
import json, sys
script = json.load(open(sys.argv[1]))
for line in sys.stdin:
    request = json.loads(line)
    vector = script[request["iteration"] % len(script)]
    print(json.dumps({"vector": vector}), flush=True)
"""

BAD_DSL_ADAPTER = """\
import json, sys
for line in sys.stdin:
    blocks = {"index_task_map": "IndexTaskMap stage_one missing_function;"}
    print(json.dumps({"blocks": blocks}), flush=True)
"""

GARBAGE_ADAPTER = """\
import sys
for line in sys.stdin:
    print("not json at all", flush=True)
"""

# Keeps the run's history as protocol version 2 asks, and logs what it
# holds at each request.  Its move depends on that memory: the best
# record it holds, with dimension len(memory) % n advanced.  The first
# process to see iteration FAIL_AT fails there: it exits, hangs, or
# loses its memory and so answers an error object.
MEMORY_ADAPTER = """\
import json, os, sys, time
log_path, fail_at, failure = sys.argv[1], int(sys.argv[2]), sys.argv[3]
memory = []
for line in sys.stdin:
    request = json.loads(line)
    start = request["history_start"]
    if start == 0:
        memory = []
    failing = request["iteration"] == fail_at and not os.path.exists(log_path + ".failed")
    if failing:
        open(log_path + ".failed", "w").close()
        if failure == "forget":
            memory = []
    accepted = start == len(memory)
    if accepted:
        memory += request["history"]
    with open(log_path, "a") as log:
        log.write(json.dumps({"pid": os.getpid(), "iteration": request["iteration"],
                              "history_start": start,
                              "memory": memory if accepted else None}) + "\\n")
    if not accepted:
        print(json.dumps({"error": "history_start is not the records held"}), flush=True)
        continue
    if failing and failure == "exit":
        sys.exit(0)
    if failing and failure == "timeout":
        time.sleep(60)
    scored = [r for r in memory if r["score"] is not None and r["choices"] is not None]
    best = max(scored, key=lambda r: r["score"]) if scored else None
    vector = list(best["choices"]) if best else [0] * len(request["domains"])
    k = len(memory) % len(vector)
    vector[k] = (vector[k] + 1) % len(request["domains"][k]["options"])
    print(json.dumps({"vector": vector}), flush=True)
"""


def adapter_cmd(tmp_path, name, source, *args):
    path = tmp_path / name
    path.write_text(source)
    return " ".join([sys.executable, str(path), *map(str, args)])


def dims_of(*option_lists):
    return [DecisionDimension(("d", i), tuple(opts))
            for i, opts in enumerate(option_lists)]


# -- protocol units ------------------------------------------------------------


def test_request_shape(stencil_app):
    dims = decision_dimensions(stencil_app)
    request = build_request("stencil", "m", dims, [], None)
    assert request["version"] == 2
    assert request["iteration"] == 0
    assert request["history_start"] == 0
    assert request["history"] == []
    assert len(request["domains"]) == len(dims)
    assert request["domains"][0] == {"id": ["proc", "apply_stencil"],
                                     "options": ["GPU", "CPU"]}
    json.dumps(request)  # everything on the wire must be serializable


def test_a_delta_request_counts_iterations_from_its_start(stencil_app):
    dims = decision_dimensions(stencil_app)
    request = build_request("stencil", "m", dims, [{"iteration": 7}], None, 7)
    assert (request["history_start"], request["iteration"]) == (7, 8)


def test_setup_round_trip_of_a_bare_request(tmp_path, circuit_app):
    # The benchmark starts an adapter with this call form and no run.
    dims = decision_dimensions(circuit_app)
    cmd = adapter_cmd(tmp_path, "echo.py", ECHO_ADAPTER)
    with AdapterClient(cmd) as client:
        raw = client.propose(build_request("circuit", "m", dims, [], None))
        assert client.held == 0
    assert parse_response(raw, dims) == {"choices": [d.options[0] for d in dims]}


def test_layout_options_serialize(stencil_app):
    dims = decision_dimensions(stencil_app)
    serialized = serialize_domains(dims)
    layout_options = serialized[14]["options"]
    assert {"soa": "SOA", "order": "C_order"} in layout_options


def test_vector_response_maps_indexes_to_options():
    dims = dims_of(["a", "b"], [10, 20, 30])
    parsed = parse_response('{"vector": [1, 2]}', dims)
    assert parsed == {"choices": ["b", 30]}


def test_vector_response_validates_range():
    dims = dims_of(["a", "b"])
    with pytest.raises(AdapterError, match="option index"):
        parse_response('{"vector": [5]}', dims)
    with pytest.raises(AdapterError, match="must list 1"):
        parse_response('{"vector": [0, 0]}', dims)


def test_blocks_response_assembles_in_canonical_order():
    parsed = parse_response(
        json.dumps({"blocks": {"region": "Region * * * SYSMEM;",
                               "task": "Task * GPU;"}}), [])
    assert parsed == {"program": "Task * GPU;\nRegion * * * SYSMEM;"}


def test_blocks_response_rejects_unknown_names():
    with pytest.raises(AdapterError, match="unknown block"):
        parse_response('{"blocks": {"magic": "x"}}', [])


def test_malformed_json_raises():
    with pytest.raises(AdapterError, match="not valid JSON"):
        parse_response("nope", [])


@pytest.mark.parametrize("raw, message", [
    ("[1, 2]", "adapter response must be a JSON object"),
    ('{"blocks": {}}', "adapter blocks must be a nonempty object"),
    ('{"blocks": {"task": 5}}', "block 'task' must be DSL text"),
    ('{"program": "Task * GPU;"}', "adapter response needs either 'vector' or 'blocks'"),
], ids=["non_object", "empty_blocks", "non_string_block", "neither_key"])
def test_malformed_responses_raise(raw, message):
    with pytest.raises(AdapterError) as raised:
        parse_response(raw, [])
    assert str(raised.value) == message


# -- subprocess transport ---------------------------------------------------------


def test_echo_adapter_returns_best(tmp_path, machine, costs):
    app = load_app_named("toy16")
    cmd = adapter_cmd(tmp_path, "echo.py", ECHO_ADAPTER)
    with AdapterClient(cmd) as client:
        strategy = external_strategy(client, app.name, machine.name)
        trajectory = run(app, machine, costs, strategy, ObjectiveSpec(budget=3),
                         seed=0)
    first = trajectory.records[0].candidate.choices
    assert all(r.candidate.choices == first for r in trajectory.records)
    assert trajectory.records[0].score is not None


def test_replay_adapter_reproduces_recording(tmp_path, machine, costs):
    app = load_app_named("toy16")
    # Recorded improving run: all-CPU, then big tasks to GPU, then the
    # known-good split (big on GPU, tiny on CPU).
    script = [[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1]]
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script))
    cmd = adapter_cmd(tmp_path, "replay.py", REPLAY_ADAPTER, script_path)
    with AdapterClient(cmd) as client:
        strategy = external_strategy(client, app.name, machine.name)
        trajectory = run(app, machine, costs, strategy, ObjectiveSpec(budget=3),
                         seed=0)
    scores = [r.score for r in trajectory.records]
    assert all(s is not None for s in scores)
    assert scores == sorted(scores)  # the recording improves monotonically
    assert [r.best_so_far for r in trajectory.records] == [
        max(scores[:i + 1]) for i in range(3)]


def test_invalid_dsl_from_adapter_is_compile_error(tmp_path, machine, costs):
    app = load_app_named("toy4096")
    cmd = adapter_cmd(tmp_path, "bad.py", BAD_DSL_ADAPTER)
    with AdapterClient(cmd) as client:
        strategy = external_strategy(client, app.name, machine.name)
        trajectory = run(app, machine, costs, strategy, ObjectiveSpec(budget=2),
                         seed=0)
    for record in trajectory.records:
        assert record.feedback.kind == "CompileError"
        assert "IndexTaskMap's function undefined" in record.rendered_feedback
        assert record.score is None


def test_garbage_output_keeps_loop_running(tmp_path, machine, costs):
    app = load_app_named("toy16")
    cmd = adapter_cmd(tmp_path, "garbage.py", GARBAGE_ADAPTER)
    with AdapterClient(cmd) as client:
        strategy = external_strategy(client, app.name, machine.name)
        trajectory = run(app, machine, costs, strategy, ObjectiveSpec(budget=3),
                         seed=0)
    assert len(trajectory.records) == 3
    for record in trajectory.records:
        assert record.feedback.kind == "CompileError"
        assert "not valid JSON" in record.feedback.system_message


def test_dead_subprocess_is_reported(machine, costs):
    app = load_app_named("toy16")
    with AdapterClient(f"{sys.executable} -c pass") as client:
        strategy = external_strategy(client, app.name, machine.name)
        trajectory = run(app, machine, costs, strategy, ObjectiveSpec(budget=2),
                         seed=0)
    assert all(r.feedback.kind == "CompileError" for r in trajectory.records)


def test_silent_subprocess_times_out_and_respawns(monkeypatch, machine, costs):
    monkeypatch.setattr(adapter, "ROUND_TIMEOUT", 0.5)
    spawned = []
    popen = subprocess.Popen

    def spawn(*args, **kwargs):
        spawned.append(popen(*args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(adapter.subprocess, "Popen", spawn)
    app = load_app_named("toy16")
    silent = f'{sys.executable} -c "import sys, time; sys.stdin.readline(); time.sleep(60)"'
    start = time.monotonic()
    with AdapterClient(silent) as client:
        strategy = external_strategy(client, app.name, machine.name)
        trajectory = run(app, machine, costs, strategy, ObjectiveSpec(budget=3),
                         seed=0)
    assert time.monotonic() - start < 10
    assert [r.feedback.system_message for r in trajectory.records] == [
        "adapter subprocess sent no response within 0.5 s"] * 3
    assert all(r.feedback.kind == "CompileError" for r in trajectory.records)
    assert len(spawned) == 3
    assert all(proc.poll() is not None for proc in spawned)


def test_adapter_that_reads_no_request_times_out(monkeypatch):
    # A request larger than a pipe's buffer blocks a writer whose reader
    # never reads; the bound covers sending as well as answering.
    monkeypatch.setattr(adapter, "ROUND_TIMEOUT", 0.5)
    with AdapterClient(f'{sys.executable} -c "import time; time.sleep(60)"') as client:
        with pytest.raises(AdapterError, match="no response within 0.5 s"):
            client.propose({"history": ["x" * 1_000_000]})
        assert client._proc.poll() is not None


def test_adapter_that_outlives_its_input_is_killed_on_close(monkeypatch, tmp_path):
    monkeypatch.setattr(adapter, "ROUND_TIMEOUT", 0.5)
    lingering = adapter_cmd(tmp_path, "lingering.py",
                            ECHO_ADAPTER + "import time\ntime.sleep(60)\n")
    start = time.monotonic()
    with AdapterClient(lingering) as client:
        client.propose({"domains": [], "best_so_far": None})
        proc = client._proc
    assert time.monotonic() - start < 10
    assert proc.poll() is not None


def memory_run(tmp_path, machine, costs, fail_at=-1, failure="none", budget=20):
    """A run against MEMORY_ADAPTER; returns the trajectory and the log."""
    app = load_app_named("circuit")
    log = tmp_path / f"{failure}.jsonl"
    cmd = adapter_cmd(tmp_path, "memory.py", MEMORY_ADAPTER, log, fail_at, failure)
    with AdapterClient(cmd) as client:
        strategy = external_strategy(client, app.name, machine.name)
        trajectory = run(app, machine, costs, strategy, ObjectiveSpec(budget=budget),
                         seed=0)
    return trajectory, [json.loads(line) for line in log.read_text().splitlines()]


def assert_holds_the_full_history(trajectory, log):
    """At each request it accepted, the adapter held exactly the wire
    history a request of protocol version 1 carried."""
    dims = decision_dimensions(load_app_named("circuit"))
    for entry in log:
        if entry["memory"] is not None:
            records = trajectory.records[:entry["iteration"]]
            assert entry["memory"] == reference_external_request(records, dims)[0]


def test_adapter_holds_every_record_once(tmp_path, machine, costs):
    trajectory, log = memory_run(tmp_path, machine, costs)
    # Each request carries the one record the previous round added.
    assert [(e["iteration"], e["history_start"]) for e in log] == [
        (i, max(i - 1, 0)) for i in range(20)]
    assert len({e["pid"] for e in log}) == 1
    assert_holds_the_full_history(trajectory, log)
    assert all(r.feedback.kind != "CompileError" for r in trajectory.records)
    assert len({r.candidate.choices for r in trajectory.records}) > 5


@pytest.mark.parametrize("failure, message", [
    ("exit", "adapter subprocess closed its output"),
    ("timeout", "adapter subprocess sent no response within 2 s"),
    ("forget", "adapter response needs either 'vector' or 'blocks'"),
], ids=["exit", "timeout", "forget"])
def test_adapter_that_fails_mid_run_gets_the_whole_history_again(
        monkeypatch, tmp_path, machine, costs, failure, message):
    monkeypatch.setattr(adapter, "ROUND_TIMEOUT", 2)
    steady, _ = memory_run(tmp_path, machine, costs)
    # Fail at a record that sets no new best, so that the adapter's later
    # moves, read from the best record it holds, do not depend on it.
    fail_at = next(i for i in range(5, 20)
                   if steady.records[i].best_so_far == steady.records[i - 1].best_so_far)
    trajectory, log = memory_run(tmp_path, machine, costs, fail_at, failure)

    failed = trajectory.records[fail_at]
    assert (failed.feedback.kind, failed.feedback.system_message) == (
        "CompileError", message)

    def outcome(r):
        return (r.candidate.choices, r.candidate.program_text,
                r.rendered_feedback, r.score, r.best_so_far)
    assert ([outcome(r) for r in trajectory.records if r is not failed]
            == [outcome(r) for r in steady.records if r.index != fail_at])
    # The next request starts over at 0 and carries the whole history.
    after = next(e for e in log if e["iteration"] == fail_at + 1)
    assert after["history_start"] == 0 and len(after["memory"]) == fail_at + 1
    assert all(e["history_start"] == max(e["iteration"] - 1, 0)
               for e in log if e is not after)
    pids = [e["pid"] for e in log]
    assert len(set(pids)) == (1 if failure == "forget" else 2)
    assert_holds_the_full_history(trajectory, log)


def test_a_second_run_on_one_client_starts_over(tmp_path, machine, costs):
    app = load_app_named("circuit")
    log = tmp_path / "log.jsonl"
    cmd = adapter_cmd(tmp_path, "memory.py", MEMORY_ADAPTER, log, -1, "none")
    with AdapterClient(cmd) as client:
        strategy = external_strategy(client, app.name, machine.name)
        first, second = (run(app, machine, costs, strategy, ObjectiveSpec(budget=budget),
                             seed=0) for budget in (6, 4))
    entries = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(e["iteration"], e["history_start"]) for e in entries] == [
        (i, max(i - 1, 0)) for budget in (6, 4) for i in range(budget)]
    assert_holds_the_full_history(first, entries[:6])
    assert_holds_the_full_history(second, entries[6:])


def test_an_adapter_restarted_before_the_round_fails_it(tmp_path):
    cmd = adapter_cmd(tmp_path, "echo.py", ECHO_ADAPTER)
    with AdapterClient(cmd) as client:
        request = {"domains": [], "best_so_far": None, "history": [{}]}
        client.propose({**request, "history_start": 0})
        assert client.held == 1
        client._proc.kill()
        client._proc.wait()
        assert client.held == 0
        with pytest.raises(AdapterError, match="restarted"):
            client.propose({**request, "history_start": 1})
        assert client.held == 0


# -- HTTP transport ------------------------------------------------------------


class _VectorHandler(BaseHTTPRequestHandler):
    """Answers the all-zero vector, and keeps each run's history, told
    apart by its ``run`` id, in ``server.histories``."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        history = self.server.histories.setdefault(request["run"], [])
        if request["history_start"] == 0:
            history.clear()
        if request["history_start"] == len(history):
            history += request["history"]
            response = {"vector": [0] * len(request["domains"])}
        else:
            response = {"error": "history_start is not the records held"}
        body = json.dumps(response).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _VectorHandler)
    server.histories = {}
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_port}/"
    yield server
    server.shutdown()


def http_run(url, machine, costs, budget):
    app = load_app_named("toy16")
    with AdapterClient(url) as client:
        strategy = external_strategy(client, app.name, machine.name)
        trajectory = run(app, machine, costs, strategy, ObjectiveSpec(budget=budget),
                         seed=0)
    return client.run, trajectory


def test_http_adapter_round_trip(http_server, machine, costs):
    _, trajectory = http_run(http_server.url, machine, costs, 2)
    assert all(r.candidate.choices == ("GPU", "GPU", "GPU", "GPU")
               for r in trajectory.records)
    assert trajectory.best_score is not None


def test_http_runs_on_one_endpoint_keep_their_own_histories(http_server, machine, costs):
    dims = decision_dimensions(load_app_named("toy16"))
    first, one = http_run(http_server.url, machine, costs, 5)
    second, two = http_run(http_server.url, machine, costs, 3)
    assert first != second
    # The last record of a run is never sent: no request follows it.
    assert http_server.histories == {
        first: reference_external_request(one.records[:-1], dims)[0],
        second: reference_external_request(two.records[:-1], dims)[0]}
    assert all(r.feedback.kind != "CompileError"
               for r in one.records + two.records)
