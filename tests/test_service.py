"""Tests for the scenario service: routing, validation, jobs, streaming.

The load-bearing guarantees pinned here:

* every read endpoint serves the same data as its CLI twin (components
  listing, status counts, lease rows, report aggregation);
* the streaming replay's per-interval records are **bit-identical** to an
  offline :func:`~repro.scenario.engine.run_scenario` of the same spec —
  power, utilisation and violation series compare equal, element by
  element, and the stream's final record *is* the offline result;
* a campaign drained through ``POST /campaigns`` leaves a store whose
  ``canonical_dump`` equals a clean serial ``run_campaign`` of the same
  spec;
* concurrent read-only consumers never observe an error while a
  submitted campaign is actively writing the store.
"""

import json
import os
import re
import socket
import sqlite3
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from contextlib import contextmanager

import pytest

from repro.campaign import CampaignSpec, CampaignStore, run_campaign
from repro.campaign.store import canonical_result_dict
from repro.obs import metrics
from repro.scenario.engine import run_scenario
from repro.scenario.registry import registered_components
from repro.service.handlers import ServiceState, run_scenario_payload, submit_campaign_payload
from repro.service.jobs import RUNNING, CampaignJob, JobManager
from repro.service.schemas import (
    ServiceError,
    campaign_request,
    points_query,
    report_query,
    scenario_spec_from_request,
)
from repro.service.server import ServiceConfig, create_server


# --------------------------------------------------------------------- #
# Fixtures: cheap scenario stacks (mirrors tests/test_campaign.py)
# --------------------------------------------------------------------- #
def base_scenario():
    return {
        "name": "svc-scenario",
        "topology": "geant",
        "traffic": {
            "name": "uniform",
            "params": {"num_pairs": 6, "num_endpoints": 5, "flow_bps": 1e8, "seed": 0},
        },
        "power": "cisco",
        "schemes": [{"name": "response", "params": {"num_paths": 2, "k": 2}}, "ecmp"],
    }


def eventful_scenario():
    spec = base_scenario()
    spec["name"] = "svc-eventful"
    spec["events"] = [
        {"name": "link-failure", "params": {"time_s": 0.0, "link": ["DE", "FR"]}}
    ]
    return spec


def campaign_dict(name="svc-grid"):
    return {
        "name": name,
        "base": base_scenario(),
        "axes": {"seed": [0, 1], "set": {"traffic.flow_bps": [1e8, 1.5e8]}},
    }


@contextmanager
def service(tmp_path, **config_overrides):
    """A live service on an ephemeral port, torn down afterwards."""
    settings = dict(
        host="127.0.0.1", port=0, store=str(tmp_path / "service.sqlite")
    )
    settings.update(config_overrides)
    server = create_server(ServiceConfig(**settings))
    # shutdown() waits out one poll; the default is 0.5 s per test.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def get_json(server, path):
    with urllib.request.urlopen(server.url + path, timeout=60) as response:
        return response.status, json.loads(response.read())


def post_json(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        return response.status, json.loads(response.read())


def request_error(server, path, payload=None, method=None):
    """The (status, error payload) of a request expected to fail."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        server.url + path,
        data=data,
        method=method or ("POST" if data is not None else "GET"),
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=60)
    body = json.loads(excinfo.value.read())
    return excinfo.value.code, body["error"]


def stream_replay(server, spec, via_get=False):
    """Every NDJSON record of a replay stream, in order."""
    if via_get:
        query = urllib.parse.urlencode({"spec": json.dumps(spec)})
        request = urllib.request.Request(
            server.url + "/scenarios/replay?" + query
        )
    else:
        request = urllib.request.Request(
            server.url + "/scenarios/replay",
            data=json.dumps({"spec": spec}).encode("utf-8"),
            method="POST",
        )
    with urllib.request.urlopen(request, timeout=300) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("application/x-ndjson")
        lines = response.read().splitlines()
    return [json.loads(line) for line in lines]


def wait_for_job(server, campaign_id, timeout_s=120.0):
    """Poll the status endpoint until the background job leaves ``running``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _, status = get_json(server, f"/campaigns/{campaign_id[:12]}/status")
        if status.get("job", {}).get("state") != "running":
            return status
        time.sleep(0.05)
    raise AssertionError(f"campaign {campaign_id[:12]} still running after {timeout_s}s")


# --------------------------------------------------------------------- #
# Plumbing: index, health, components, errors
# --------------------------------------------------------------------- #
def test_index_health_and_components_match_registry(tmp_path):
    with service(tmp_path) as server:
        status, index = get_json(server, "/")
        assert status == 200
        assert "GET /components" in index["endpoints"]
        status, health = get_json(server, "/healthz")
        assert status == 200 and health["status"] == "ok"
        status, payload = get_json(server, "/components")
        assert status == 200
        # Same data as `list-components --json`: both sides call
        # registered_components().
        assert payload["components"] == registered_components()


def test_unknown_routes_and_malformed_bodies(tmp_path):
    with service(tmp_path) as server:
        code, error = request_error(server, "/nope")
        assert (code, error["code"]) == (404, "not-found")
        code, error = request_error(server, "/campaigns/zzz/nope")
        assert code == 404
        # POST /scenarios with a broken body dies at the edge.
        request = urllib.request.Request(
            server.url + "/scenarios", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 400
        code, error = request_error(server, "/scenarios", {"spec": {"name": "x"}})
        assert (code, error["code"]) == (400, "invalid-scenario")
        # Campaign store does not exist yet: specific lookups are 404s...
        code, error = request_error(server, "/campaigns/any/status")
        assert (code, error["code"]) == (404, "no-store")
        # ...but the listing is just empty.
        status, listing = get_json(server, "/campaigns")
        assert status == 200 and listing["campaigns"] == []


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_malformed_content_length_is_a_400_before_any_read(tmp_path, length):
    """``int("abc")`` was a 500; ``rfile.read(-1)`` held the handler thread
    until the client hung up.  Both are answered while the client waits."""
    errors = metrics.counter("repro_service_requests_total").labels(
        method="POST", route="/scenarios", outcome="error"
    )
    with service(tmp_path) as server:
        before = errors.value
        with socket.create_connection(server.server_address[:2], timeout=3) as raw:
            raw.sendall(
                "POST /scenarios HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {length}\r\n\r\n".encode("ascii")
            )
            # To EOF: nothing says where the body ends, so the server closes.
            reply = raw.makefile("rb").read()
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b'"bad-request"' in reply and length.encode("ascii") in reply
        assert errors.value == before + 1
        assert get_json(server, "/healthz")[0] == 200  # answered: a thread is free


# --------------------------------------------------------------------- #
# POST /scenarios: one-shot runs, answered from the store on a hit
# --------------------------------------------------------------------- #
def test_post_scenario_is_answered_from_the_store_on_a_hit(tmp_path):
    """The campaign store is the service's one result cache.

    A one-shot run never writes; a spec whose config hash a campaign has
    already executed is answered from that ``results`` row.
    """
    offline = run_scenario(base_scenario())
    with service(tmp_path) as server:
        status, first = post_json(server, "/scenarios", {"spec": base_scenario()})
        assert status == 200 and first["cache"] == "miss"  # no store yet
        # Identical to the offline engine, wall-clock timings aside.
        assert canonical_result_dict(first["result"]) == canonical_result_dict(
            offline.to_dict()
        )
        # The run left nothing behind: the same spec misses again.
        _, second = post_json(server, "/scenarios", base_scenario())
        assert second["cache"] == "miss"
        assert not os.path.exists(server.config.store)

        _, submitted = post_json(server, "/campaigns", {"spec": campaign_dict()})
        wait_for_job(server, submitted["campaign_id"])
        point = CampaignSpec.from_dict(campaign_dict()).expand()[0]
        _, hit = post_json(server, "/scenarios", {"spec": point.spec.to_dict()})
        assert hit["cache"] == "hit"
        with CampaignStore(server.config.store, read_only=True) as store:
            assert hit["result"] == store.result(point.config_hash).to_dict()
            results_before = len(store.canonical_dump(submitted["campaign_id"])["results"])
        # Same stack under another name is another config hash: a miss, and
        # still nothing written.
        _, miss = post_json(server, "/scenarios", {"spec": base_scenario()})
        assert miss["cache"] == "miss"
        with CampaignStore(server.config.store, read_only=True) as store:
            assert store.result(offline.config_hash) is None
            assert (
                len(store.canonical_dump(submitted["campaign_id"])["results"])
                == results_before
            )


@pytest.mark.parametrize("corrupt", ["not json", "power_percent"])
def test_a_cached_row_that_does_not_decode_is_a_miss(tmp_path, corrupt):
    """A corrupt ``results`` row must not fail every request for its spec:
    the scenario runs as if nothing were cached."""
    offline = run_scenario(base_scenario())
    store_path = tmp_path / "service.sqlite"
    CampaignStore(store_path).close()
    row = offline.to_dict()
    row["power_percent"] = [1, 2]  # a column that is not keyed by scheme
    with sqlite3.connect(store_path) as connection:
        connection.execute(
            "INSERT INTO results (config_hash, result_json, created_at) VALUES (?, ?, ?)",
            (offline.config_hash, corrupt if corrupt == "not json" else json.dumps(row), "now"),
        )
    payload = run_scenario_payload(ServiceState(str(store_path)), {"spec": base_scenario()})
    assert payload["cache"] == "miss"
    assert canonical_result_dict(payload["result"]) == canonical_result_dict(offline.to_dict())


def test_post_scenario_malformed_shapes_are_400_not_500(tmp_path, caplog):
    from test_scenario import MALFORMED_SPEC_SHAPES

    shapes = [shape for shape, _ in MALFORMED_SPEC_SHAPES]
    shapes.append({"schemes": [{"name": "greente", "params": {"ordering": "bogus"}}]})
    with service(tmp_path) as server, caplog.at_level("ERROR", logger="repro.service"):
        for shape in shapes:
            body = {"spec": {**base_scenario(), **shape}}
            code, error = request_error(server, "/scenarios", body)
            assert (code, error["code"]) == (400, "invalid-scenario"), shape
    assert "Traceback" not in caplog.text


def test_post_scenario_out_of_range_scheme_params_are_400_not_500(tmp_path, caplog):
    """``k: 0`` / ``k: 2.5`` were 500 ``internal`` (an unmapped ``ValueError``)
    and ``time_limit_s: -1`` a 200 after a solve with no limit at all."""
    from test_scenario import OUT_OF_RANGE_SCHEME_PARAMS

    with service(tmp_path) as server, caplog.at_level("ERROR", logger="repro.service"):
        for name, params, complaint in OUT_OF_RANGE_SCHEME_PARAMS:
            spec = {**base_scenario(), "schemes": [{"name": name, "params": params}]}
            code, error = request_error(server, "/scenarios", {"spec": spec})
            assert (code, error["code"]) == (400, "invalid-scenario"), (name, params)
            assert re.search(complaint, error["message"]), (name, params, error)
    assert "Traceback" not in caplog.text


def test_post_scenario_unknown_scheme_params_are_400_not_500(tmp_path, caplog):
    """``greedy.bogus`` was a ``TypeError`` out of the runtime's constructor."""
    from test_scenario import UNKNOWN_SCHEME_PARAMS

    with service(tmp_path) as server, caplog.at_level("ERROR", logger="repro.service"):
        for scheme, parameter in UNKNOWN_SCHEME_PARAMS:
            spec = {**base_scenario(), "schemes": [{"name": scheme, "params": {parameter: 1}}]}
            code, error = request_error(server, "/scenarios", {"spec": spec})
            assert (code, error["code"]) == (400, "invalid-scenario"), (scheme, parameter)
            assert f"scheme parameters ['{parameter}']" in error["message"], error
    assert "Traceback" not in caplog.text


def test_non_finite_or_negative_volumes_are_400_not_200_or_500(tmp_path, caplog):
    """NaN volumes ran (a 200); ``Infinity`` and negatives were 500 ``internal``.
    The body is sent with ``NaN`` / ``Infinity`` tokens, which Python's
    ``json`` writes and parses."""
    from test_scenario import NON_FINITE_OR_NEGATIVE_VOLUMES

    with service(tmp_path) as server, caplog.at_level("ERROR", logger="repro.service"):
        for overrides, _error, complaint in NON_FINITE_OR_NEGATIVE_VOLUMES:
            spec = {**base_scenario(), **overrides}
            code, error = request_error(server, "/scenarios", {"spec": spec})
            assert (code, error["code"]) == (400, "invalid-scenario"), overrides
            assert re.search(complaint, error["message"]), (overrides, error)
            # A replay refuses a bad volume or event before it streams.
            code, error = request_error(server, "/scenarios/replay", {"spec": spec})
            assert (code, error["code"]) == (400, "invalid-scenario"), overrides
            assert re.search(complaint, error["message"]), (overrides, error)
    assert "Traceback" not in caplog.text


def test_a_bad_explicit_matrix_is_400_under_every_scheme(tmp_path, caplog):
    """``[["DE", "XX", 1e8]]`` was a 500 under ``response`` / ``greente`` and a
    200 at 100 % power under ``ospf``; a short row was a 500 everywhere."""
    from test_scenario import BAD_EXPLICIT_MATRICES, explicit_matrix_spec

    schemes = ["response", "greente", "ospf", "ecmp", "elastictree"]
    with service(tmp_path) as server, caplog.at_level("ERROR", logger="repro.service"):
        for demands, complaint in BAD_EXPLICIT_MATRICES:
            for scheme in schemes:
                spec = explicit_matrix_spec(demands, scheme)
                code, error = request_error(server, "/scenarios", {"spec": spec})
                assert (code, error["code"]) == (400, "invalid-scenario"), (demands, scheme)
                assert re.search(complaint, error["message"]), (demands, scheme, error)
    assert "Traceback" not in caplog.text


def test_post_scenario_unknown_component_param_is_400(tmp_path):
    spec = base_scenario()
    spec["traffic"]["params"]["no_such_knob"] = 1
    with service(tmp_path) as server:
        code, error = request_error(server, "/scenarios", {"spec": spec})
        assert (code, error["code"]) == (400, "invalid-scenario")


# --------------------------------------------------------------------- #
# Streaming replay: bit-identity with the offline engine
# --------------------------------------------------------------------- #
def assert_stream_matches_offline(records, offline):
    """The stream's interval series must equal the offline result exactly."""
    assert records[0]["type"] == "start"
    assert records[-1]["type"] == "end"
    intervals = [record for record in records if record["type"] == "interval"]
    assert records[0]["config_hash"] == offline.config_hash
    assert records[0]["intervals"] == len(intervals) == len(offline.times_s)
    assert [record["time_s"] for record in intervals] == offline.times_s
    for label in offline.labels():
        streamed_power = [
            record["schemes"][label]["power_percent"] for record in intervals
        ]
        assert streamed_power == offline.columns["power_percent"][label]
        utilisation = offline.columns["max_utilisation"].get(label)
        if utilisation:
            streamed_util = [
                record["schemes"][label]["max_utilisation"] for record in intervals
            ]
            assert streamed_util == utilisation
            streamed_violations = [
                record["schemes"][label]["violation"] for record in intervals
            ]
            assert streamed_violations == offline.columns["violations"][label]
    # The closing record is the full offline result, wall-clock fields aside.
    assert canonical_result_dict(records[-1]["result"]) == canonical_result_dict(
        offline.to_dict()
    )


def test_replay_stream_bit_identical_to_offline_run(tmp_path):
    offline = run_scenario(base_scenario())
    with service(tmp_path) as server:
        records = stream_replay(server, base_scenario())
        assert_stream_matches_offline(records, offline)
        # The GET form (?spec=<url-encoded JSON>) streams the same records,
        # modulo per-step wall-clock timings.
        def strip(records):
            stripped = []
            for record in records:
                entry = json.loads(json.dumps(record))
                if entry["type"] == "interval":
                    for scheme in entry["schemes"].values():
                        scheme.pop("compute_seconds", None)
                entry.get("result", {}).pop("compute_seconds", None)
                entry.get("result", {}).pop("reaction", None)
                stripped.append(entry)
            return stripped

        assert strip(stream_replay(server, base_scenario(), via_get=True)) == strip(
            records
        )


def test_replay_stream_marks_events_on_their_interval(tmp_path):
    spec = eventful_scenario()
    offline = run_scenario(spec)
    with service(tmp_path) as server:
        records = stream_replay(server, spec)
    assert_stream_matches_offline(records, offline)
    intervals = [record for record in records if record["type"] == "interval"]
    fired = [
        (record["index"], event["kind"])
        for record in intervals
        for event in record["events"]
    ]
    # The offline engine reports the same single firing.
    assert fired == [
        (event_record["interval_index"], event_record["kind"])
        for event_record in offline.reaction["response"]
    ]
    assert fired[0][1] == "link-failure"


def test_replay_rejects_a_bad_event_target_before_the_first_byte(tmp_path):
    """Targets were checked as the timeline started: the stream sent ``start``
    and then an ``error`` record under a 200."""
    from repro.service import handlers

    spec = eventful_scenario()
    spec["events"][0]["params"]["link"] = ["DE", "XX"]
    emitted = []
    with pytest.raises(handlers.ServiceError) as rejected:
        handlers.replay_stream({"spec": spec}, emitted.append)
    assert rejected.value.status == 400 and emitted == []
    with service(tmp_path) as server:
        code, error = request_error(server, "/scenarios/replay", {"spec": spec})
    assert (code, error["code"]) == (400, "invalid-scenario")
    assert "unknown link ['DE', 'XX']" in error["message"]


def test_replay_invalid_spec_is_a_clean_400(tmp_path):
    with service(tmp_path) as server:
        code, error = request_error(
            server, "/scenarios/replay", {"spec": {"name": "broken"}}
        )
        assert (code, error["code"]) == (400, "invalid-scenario")
        # GET without a spec parameter is a 400, not a hung stream.
        code, error = request_error(server, "/scenarios/replay")
        assert code == 400


# --------------------------------------------------------------------- #
# Campaigns over HTTP: submit, poll, paginate, report
# --------------------------------------------------------------------- #
def test_campaign_lifecycle_matches_offline_serial_run(tmp_path):
    with service(tmp_path) as server:
        status, submitted = post_json(
            server, "/campaigns", {"spec": campaign_dict(), "workers": 2}
        )
        assert status == 202
        assert submitted["grid_size"] == 4
        assert submitted["job"]["workers"] == 2
        campaign_id = submitted["campaign_id"]

        final = wait_for_job(server, campaign_id)
        assert final["job"]["state"] == "done"
        assert final["counts"] == {"done": 4, "error": 0, "pending": 0, "total": 4}
        assert final["leases"] == []  # nothing held once the drain is over

        # Pagination is SQL-side: a one-row page of done points.
        _, page = get_json(
            server, f"/campaigns/{campaign_id[:12]}/points?status=done&limit=1&offset=2"
        )
        assert page["count"] == 1
        assert page["points"][0]["point_index"] == 2
        assert page["counts"]["done"] == 4
        _, empty = get_json(
            server, f"/campaigns/{campaign_id[:12]}/points?status=error"
        )
        assert empty["count"] == 0

        # The report endpoint runs the campaign-report pipeline.
        _, report = get_json(
            server,
            f"/campaigns/{campaign_id[:12]}/report"
            "?metric=mean_power_percent&group_by=scheme&filter=scheme%3Dresponse",
        )
        assert report["filters"] == {"scheme": "response"}
        assert [row["scheme"] for row in report["summary"]] == ["response"]
        assert report["dominance"]["points"] == 4

        _, listing = get_json(server, "/campaigns")
        assert [row["campaign_id"] for row in listing["campaigns"]] == [campaign_id]
        assert listing["campaigns"][0]["job"]["state"] == "done"

        # The store the service's thread-workers produced is bit-identical
        # to a clean offline serial run of the same grid.
        serial_path = tmp_path / "serial.sqlite"
        run_campaign(CampaignSpec.from_dict(campaign_dict()), store_path=serial_path)
        with CampaignStore(server.config.store, read_only=True) as serviced:
            with CampaignStore(serial_path, read_only=True) as serial:
                assert serviced.canonical_dump(campaign_id) == serial.canonical_dump(
                    campaign_id
                )


def test_default_submission_shares_the_lone_drains_offline_work(tmp_path):
    """A default ``POST /campaigns`` is grouped exactly like a lone drain.

    The grid's four points share one network and two pair sets, so a drain
    whose claim covers it builds each pair set's REsPoNse plan (two path
    MILPs) once; a ``chunk_size=1`` submission (every group a single point)
    pays per point.  Before the service shared ``run_campaign``'s default
    claim it drained every submission at one point per claim.  (The
    ``workers=2`` thread fleet's dump identity is pinned by
    ``test_campaign_lifecycle_matches_offline_serial_run``.)  Candidate paths
    are shared by the whole process, so their enumeration no longer shows
    the grouping; the path-MILP count does.
    """
    solves = metrics.counter("repro_milp_solves_total").labels(kind="path")

    def path_milps_solved_by(drain):
        before = solves.value
        drain()
        return solves.value - before

    def submit_and_wait(server, body):
        _, submitted = post_json(server, "/campaigns", body)
        final = wait_for_job(server, submitted["campaign_id"])
        assert final["job"]["state"] == "done"
        assert final["counts"] == {"done": 4, "error": 0, "pending": 0, "total": 4}

    lone = path_milps_solved_by(
        lambda: run_campaign(
            campaign_dict("svc-shared"), store_path=tmp_path / "lone.sqlite"
        )
    )
    with service(tmp_path) as server:
        default = path_milps_solved_by(
            lambda: submit_and_wait(server, {"spec": campaign_dict("svc-shared")})
        )
        per_point = path_milps_solved_by(
            lambda: submit_and_wait(
                server, {"spec": campaign_dict("svc-per-point"), "chunk_size": 1}
            )
        )
    assert 0 < default == lone < per_point


def test_campaign_query_validation(tmp_path):
    with service(tmp_path) as server:
        _, submitted = post_json(
            server, "/campaigns", {"spec": campaign_dict(), "max_points": 0}
        )
        campaign_id = submitted["campaign_id"]
        wait_for_job(server, campaign_id)
        prefix = f"/campaigns/{campaign_id[:12]}"
        code, error = request_error(server, f"{prefix}/points?status=bogus")
        assert code == 400
        code, error = request_error(server, f"{prefix}/points?limit=-1")
        assert code == 400
        code, error = request_error(server, f"{prefix}/points?offset=x")
        assert code == 400
        code, error = request_error(server, f"{prefix}/report?filter=notakv")
        assert (code, error["code"]) == (400, "invalid-filter")
        code, error = request_error(server, "/campaigns/zzz/status")
        assert (code, error["code"]) == (404, "unknown-campaign")


def test_report_rejects_an_unknown_group_by_column(tmp_path):
    """A misspelt ``group_by`` is a 400 naming the row columns, not one
    bogus group."""
    with service(tmp_path) as server:
        _, submitted = post_json(
            server, "/campaigns", {"spec": campaign_dict(), "max_points": 1}
        )
        wait_for_job(server, submitted["campaign_id"])
        prefix = f"/campaigns/{submitted['campaign_id'][:12]}"
        _, report = get_json(server, f"{prefix}/report?group_by=seed")
        assert [row["seed"] for row in report["summary"]] == ["0"]
        code, error = request_error(server, f"{prefix}/report?group_by=topolgy")
        assert (code, error["code"]) == (400, "invalid-report")
        assert "unknown group-by column(s) ['topolgy']" in error["message"]
        assert "'scheme'" in error["message"]


def test_set_axis_on_null_params_and_label_is_not_a_500(tmp_path):
    """``null`` params / label read as absent; params that are not a
    mapping are the client's mistake."""
    spec = campaign_dict("null-grid")
    spec["base"]["schemes"] = [{"name": "response", "label": None, "params": None}]
    spec["axes"] = {"set": {"response.k": [2, 3]}}
    with service(tmp_path) as server:
        status, submitted = post_json(
            server, "/campaigns", {"spec": spec, "max_points": 0}
        )
        assert (status, submitted["grid_size"]) == (202, 2)
        wait_for_job(server, submitted["campaign_id"])
        spec["base"]["schemes"][0]["params"] = [2]
        code, error = request_error(server, "/campaigns", {"spec": spec})
        assert (code, error["code"]) == (400, "invalid-campaign")
        assert "cannot set a parameter" in error["message"]


def test_default_workers_config_applies_to_submissions(tmp_path):
    with service(tmp_path, default_workers=2) as server:
        _, submitted = post_json(
            server, "/campaigns", {"spec": campaign_dict(), "max_points": 0}
        )
        assert submitted["job"]["workers"] == 2
        wait_for_job(server, submitted["campaign_id"])
        # An explicit choice always wins over the config default.
        _, explicit = post_json(
            server,
            "/campaigns",
            {"spec": campaign_dict("svc-grid-b"), "workers": 1, "max_points": 0},
        )
        assert explicit["job"]["workers"] == 1


def test_concurrent_readers_during_active_drain(tmp_path):
    """Status/points/report polling never errors while workers write."""
    with service(tmp_path) as server:
        _, submitted = post_json(
            server, "/campaigns", {"spec": campaign_dict(), "workers": 2}
        )
        campaign_id = submitted["campaign_id"]
        errors = []
        stop = threading.Event()

        def poll(path):
            while not stop.is_set():
                try:
                    status, _ = get_json(server, path)
                    assert status == 200
                except Exception as error:  # noqa: BLE001 - collected for assert
                    errors.append(repr(error))
                    return

        prefix = f"/campaigns/{campaign_id[:12]}"
        readers = [
            threading.Thread(target=poll, args=(path,), daemon=True)
            for path in (
                f"{prefix}/status",
                f"{prefix}/points?status=done",
                f"{prefix}/report",
                "/campaigns",
            )
        ]
        for reader in readers:
            reader.start()
        final = wait_for_job(server, campaign_id)
        stop.set()
        for reader in readers:
            reader.join(timeout=30)
        assert errors == []
        assert final["job"]["state"] == "done"
        assert final["counts"]["done"] == 4


def test_status_done_implies_nothing_pending(tmp_path, monkeypatch):
    """A ``done`` job never arrives beside counts taken before it was done.

    The drain commits its last point and then flips the job to ``done``.
    The reader below stalls every count that still shows pending points
    until that flip has happened — the worst interleaving a status request
    can meet — so a handler that reads counts before the job state answers
    ``done`` with ``pending > 0``.
    """
    with service(tmp_path) as server:
        jobs = server.state.jobs

        class StalledReader(CampaignStore):
            def status_counts(self, campaign_id):
                counts = super().status_counts(campaign_id)
                if counts["pending"]:
                    assert jobs.wait(campaign_id, timeout=120)
                return counts

        monkeypatch.setattr(
            ServiceState,
            "open_reader",
            lambda state: StalledReader(state.store_path, read_only=True),
        )
        _, submitted = post_json(server, "/campaigns", {"spec": campaign_dict()})
        # The first poll meets the live drain and is held until its end.
        final = wait_for_job(server, submitted["campaign_id"])
        assert final["job"]["state"] == "done"
        assert final["counts"] == {"done": 4, "error": 0, "pending": 0, "total": 4}


# --------------------------------------------------------------------- #
# Job manager and schema validation (no HTTP)
# --------------------------------------------------------------------- #
def test_job_manager_refuses_resubmitting_a_running_campaign(tmp_path):
    spec = CampaignSpec.from_dict(campaign_dict())
    manager = JobManager(tmp_path / "store.sqlite")
    # Simulate a drain in flight: the submit path must refuse a duplicate
    # rather than race two fleets' error-reset phases.
    campaign_id = spec.campaign_id()
    manager._jobs[campaign_id] = CampaignJob(
        campaign_id=campaign_id, name=spec.name, workers=1, state=RUNNING
    )
    with pytest.raises(ServiceError) as excinfo:
        manager.submit(campaign_request({"spec": campaign_dict()}))
    assert excinfo.value.status == 409


def test_campaign_request_validation(tmp_path):
    assert campaign_request(campaign_dict()).workers == 1  # bare-spec form
    wrapped = campaign_request(
        {"spec": campaign_dict(), "workers": 3, "chunk_size": 4, "max_points": 2}
    )
    assert (wrapped.workers, wrapped.chunk_size, wrapped.max_points) == (3, 4, 2)
    # Shape and JSON types die at the edge...
    for broken in (
        {"spec": campaign_dict(), "workers": True},
        {"spec": campaign_dict(), "workers": "2"},
        {"spec": campaign_dict(), "max_points": 1.5},
        {"spec": campaign_dict(), "chunk_size": [1]},
        {"spec": campaign_dict(), "lease_seconds": "soon"},
        {"spec": campaign_dict(), "batch": True},  # retired: grouping is the drain
        {"spec": campaign_dict(), "typo_option": 1},
        {"spec": {"no": "base"}},
    ):
        with pytest.raises(ServiceError):
            campaign_request(broken)
    with pytest.raises(ServiceError) as excinfo:
        campaign_request({"spec": campaign_dict(), "batch": True})
    assert excinfo.value.status == 400
    assert "expected workers, max_points, chunk_size, lease_seconds" in str(
        excinfo.value
    )
    # ...ranges where run-campaign's are checked, at submission: still a
    # 400, and nothing is registered or started.
    state = ServiceState(str(tmp_path / "store.sqlite"))
    for out_of_range in (
        {"workers": 0},
        {"max_points": -1},
        {"chunk_size": 0},
        {"lease_seconds": 0},
    ):
        with pytest.raises(ServiceError) as excinfo:
            submit_campaign_payload(state, {"spec": campaign_dict(), **out_of_range})
        assert (excinfo.value.status, excinfo.value.code) == (400, "invalid-campaign")
        assert next(iter(out_of_range)) in excinfo.value.message
    assert state.jobs.jobs() == [] and not os.path.exists(state.store_path)


def test_scenario_and_query_validators():
    spec = scenario_spec_from_request({"spec": base_scenario()})
    assert spec.name == "svc-scenario"
    assert scenario_spec_from_request(base_scenario()).name == "svc-scenario"
    with pytest.raises(ServiceError):
        scenario_spec_from_request({"spec": []})
    schemeless = base_scenario()
    schemeless["schemes"] = []
    with pytest.raises(ServiceError):
        scenario_spec_from_request(schemeless)

    page = points_query({"status": ["done"], "limit": ["5"], "offset": ["10"]})
    assert (page.status, page.limit, page.offset) == ("done", 5, 10)
    assert points_query({}) == points_query({"offset": ["0"]})
    with pytest.raises(ServiceError):
        points_query({"status": ["nope"]})

    report = report_query(
        {"group_by": ["scheme,seed"], "filter": ["scheme=response"]}
    )
    assert report.group_by == ("scheme", "seed")
    assert report.filters == {"scheme": "response"}
    assert report_query({}).group_by == ("scheme",)


def test_service_state_without_store_raises_404(tmp_path):
    state = ServiceState(str(tmp_path / "missing.sqlite"))
    with pytest.raises(ServiceError) as excinfo:
        state.open_reader()
    assert excinfo.value.status == 404


# --------------------------------------------------------------------- #
# CLI wiring
# --------------------------------------------------------------------- #
def test_serve_cli_rejects_bad_arguments():
    from repro.experiments.runner import main

    with pytest.raises(SystemExit):
        main(["serve", "--port", "70000"])
    with pytest.raises(SystemExit):
        main(["serve", "--workers", "0"])
