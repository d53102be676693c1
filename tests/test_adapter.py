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
    assert request["version"] == 1
    assert request["iteration"] == 0
    assert len(request["domains"]) == len(dims)
    assert request["domains"][0] == {"id": ["proc", "apply_stencil"],
                                     "options": ["GPU", "CPU"]}
    json.dumps(request)  # everything on the wire must be serializable


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


# -- HTTP transport ------------------------------------------------------------


class _VectorHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        vector = [0] * len(request["domains"])
        body = json.dumps({"vector": vector}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _VectorHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()


def test_http_adapter_round_trip(http_endpoint, machine, costs):
    app = load_app_named("toy16")
    with AdapterClient(http_endpoint) as client:
        strategy = external_strategy(client, app.name, machine.name)
        trajectory = run(app, machine, costs, strategy, ObjectiveSpec(budget=2),
                         seed=0)
    assert all(r.candidate.choices == ("GPU", "GPU", "GPU", "GPU")
               for r in trajectory.records)
    assert trajectory.best_score is not None
