"""The repo's benchmark: five isolated workloads, end to end and by layer.

    python3 benchmarks/harness/run.py --seed N [--workload NAME]
        [--seconds S] [--trace [0|1]] [--out DIR] [--append]

Every workload runs in its own spawned child process, so the process-wide
calibration memo, kernel choices and ``ru_maxrss`` never leak from one
workload into the next.  ``--trace 0`` (the default) measures the
end-to-end metrics through the stable outer surface only; ``--trace 1``
runs the layer probes of ``layers.py`` under harness-side spans instead.
Each workload's table ends with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``); see README.md beside this file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pickle
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional

HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HARNESS_DIR))
SRC = os.path.join(ROOT, "src")
MANIFEST_PATH = os.path.join(ROOT, "BENCHMARK.json")
TRAJECTORY_PATH = os.path.join(HARNESS_DIR, "trajectory.ndjson")

#: Scratch stores of the running workloads (inside the checkout, ignored).
WORK_DIR = os.path.join(ROOT, ".bench_work")

WORKLOADS = (
    "campaign_cold",
    "campaign_warm",
    "timeline_replay",
    "engine_step",
    "service_mixed",
)

#: Set-up is performed this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: A child that has not answered after this long is killed.
CHILD_TIMEOUT_S = 170.0

#: Per-call samples kept by ``--out`` for re-analysis, too bulky for the trajectory.
SAMPLE_KEYS = ("calls_s", "raw_calls_s", "reference_s")

END_TO_END_UNITS = {
    "work_per_s": "1/s",
    "call_ms_p50": "ms",
    "cpu_ms_per_work": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# --------------------------------------------------------------------- #
# Children
# --------------------------------------------------------------------- #


def spawn(target: str, *args: Any) -> Dict[str, Any]:
    """Run *target* (a name of ``child_main``) with ``(*args, spawned_at)`` in a fresh interpreter.

    ``spawned_at`` is ``time.monotonic()`` (system-wide on Linux) taken just
    before the start, so the child can charge interpreter start-up and its
    imports to set-up.  The child is a plain ``subprocess`` of this script
    (``--child``), not a ``multiprocessing`` one: that would start a resource
    tracker nobody waits for, and a run must leave no process behind.  The
    child pickles its result into a file of ``WORK_DIR``; it is always reaped.
    """
    os.makedirs(WORK_DIR, exist_ok=True)
    handle, result_path = tempfile.mkstemp(dir=WORK_DIR, prefix="result-", suffix=".pickle")
    os.close(handle)
    call = json.dumps([target, list(args), time.monotonic(), result_path])
    # Its own session, so that a child cut short takes its server along.
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", call],
        stdin=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        try:
            process.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{target}{args[:1]} gave no result in time") from None
        finally:
            _end_session(process)
        with open(result_path, "rb") as stream:
            blob = stream.read()
    finally:
        os.unlink(result_path)
    if not blob:
        raise RuntimeError(f"{target}{args[:1]} died with exit code {process.returncode}")
    payload = pickle.loads(blob)
    if "error" in payload:
        raise RuntimeError(f"{target}{args[:1]} failed:\n{payload['error']}")
    return payload


def _end_session(process: "subprocess.Popen[bytes]") -> None:
    """Kill whatever is left of the child's session and wait until it has ended.

    After a clean child nothing is left (``ServiceMixed.close`` reaps its
    server).  A child that was killed, or died, may orphan its server: the
    orphan is in the child's process group, and this process adopts orphans
    (``become_subreaper``), so it can be killed and reaped here.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    while True:
        try:
            os.waitpid(-1, 0)  # adopted orphans; no other child runs beside a spawn
        except ChildProcessError:
            return


def become_subreaper() -> None:
    """Have orphaned grandchildren re-parented to this process (Linux), not to init."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: a killed child's orphan is then init's to reap


def _terminated(_signum: int, _frame: Any) -> None:
    raise SystemExit(143)  # unwinds through spawn's finally, which ends the child


def child_main(call: str) -> int:
    """The ``--child`` side of :func:`spawn`: run the target, pickle its result."""
    from layers import layer_child

    targets = {"workload": workload_child, "layer": layer_child}
    target, args, spawned_at, result_path = json.loads(call)
    try:
        payload = targets[target](*args, spawned_at)
    except Exception:
        payload = {"error": traceback.format_exc()}
    with open(result_path, "wb") as stream:
        pickle.dump(payload, stream)
    return 0


def workload_child(name: str, seed: int, seconds: float, mode: str, spawned_at: float):
    """Set up one workload and, unless ``mode == "setup"``, run its window.

    ``mode`` is ``"setup"`` (set-up only), ``"measure"`` (untraced window)
    or ``"trace"`` (alternating traced and untraced calls).
    """
    from measure import SpeedReference, peak_rss_mb
    from spans import SpanRecorder
    from workloads import ServiceMixed, closed_loop, in_process_workload

    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix=f"{name}-") as workdir:
        if name == "service_mixed":
            workload: Any = ServiceMixed(seed, workdir, SRC)
        else:
            workload = in_process_workload(name, seed, workdir)
        try:
            setup_failed = workload.setup()
            setup_s = time.monotonic() - spawned_at
            reference = SpeedReference()
            setup_s /= reference.start()
            if mode == "setup":
                return {"setup_s": setup_s}
            recorder = SpanRecorder() if mode == "trace" else None
            if name == "service_mixed":
                observed = _service_window(workload, seconds, reference, recorder)
            else:

                def wrap(index: int) -> Any:
                    return recorder.span(f"{name}.call") if index % 2 else None

                observed = closed_loop(
                    workload, seconds, reference, wrap if recorder is not None else None
                )
                observed.update(
                    peak_rss_mb=peak_rss_mb(),
                    traced_calls_s=observed["calls_s"][1::2],
                    untraced_calls_s=observed["calls_s"][0::2],
                )
        finally:
            workload.close()
    observed.update(
        unit=workload.unit,
        attempted=observed["attempted"] + 1,  # the set-up checks count as one
        failed=observed["failed"] + (1 if setup_failed else 0),
        result_digest=workload.result_digest,
        failures=workload.failures,
        setup_s=setup_s,
        speed_factor=reference.factor(),
        reference_s=reference.samples,
        spans=recorder.to_dicts() if recorder is not None else [],
    )
    return observed


def _service_window(workload: Any, seconds: float, reference: Any, recorder: Any):
    """One window (untraced), or a half window untraced and a whole one traced."""
    if recorder is None:
        windows = [workload.run_window(seconds, reference)]
    else:
        windows = [workload.run_window(seconds / 2.0, reference)]
        with recorder.span("service_mixed.window"):
            windows.append(workload.run_window(seconds, reference, recorder.span))
    reads = [read for window in windows for read in window["reads"]]
    writer = windows[0]["writer"]
    for window in windows[1:]:
        for key, value in window["writer"].items():
            writer[key] += value
    return {
        "calls_s": [latency for _route, latency in reads],
        "busy_s": sum(window["window_s"] for window in windows),
        "cpu_s": sum(window["server_cpu_s"] for window in windows),
        "work_units": len(reads),
        "attempted": sum(window["attempted"] for window in windows),
        "failed": sum(window["failed"] for window in windows),
        "peak_rss_mb": windows[-1]["server_peak_rss_mb"],
        "untraced_calls_s": [latency for _route, latency in windows[0]["reads"]],
        "traced_calls_s": [latency for _route, latency in windows[-1]["reads"]],
        "raw_calls_s": [latency for window in windows for latency in window["raw_latencies_s"]],
        "reads": reads,
        "writer": writer,
    }


# --------------------------------------------------------------------- #
# One workload, untraced or traced
# --------------------------------------------------------------------- #


def end_to_end_metrics(observed: Dict[str, Any], setup_s: float) -> Dict[str, float]:
    """The five end-to-end numbers (times already speed-normalised)."""
    work = observed["work_units"]
    return {
        "work_per_s": work / observed["busy_s"],
        "call_ms_p50": statistics.median(observed["calls_s"]) * 1e3,
        "cpu_ms_per_work": observed["cpu_s"] / work * 1e3,
        "peak_rss_mb": observed["peak_rss_mb"],
        "setup_s": setup_s,
    }


def call_tail(calls_s: List[float]) -> Dict[str, float]:
    """The highest percentile of a call with ten samples beyond it."""
    from measure import percentile, supported_percentile

    rank = supported_percentile(len(calls_s))
    return {"percentile": rank, "call_ms": percentile(calls_s, rank) * 1e3}


def run_untraced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """``SETUP_REPEATS - 1`` set-up-only children, then the measuring one."""
    setups = [
        spawn("workload", name, seed, seconds, "setup")["setup_s"]
        for _ in range(SETUP_REPEATS - 1)
    ]
    observed = spawn("workload", name, seed, seconds, "measure")
    setups.append(observed["setup_s"])
    values = end_to_end_metrics(observed, statistics.median(setups))
    return result_record(
        name,
        0,
        observed,
        {m: {"value": value, "unit": END_TO_END_UNITS[m]} for m, value in values.items()},
        raw={"call_ms_p50": statistics.median(observed["raw_calls_s"]) * 1e3},
        tail=call_tail(observed["calls_s"]),
        **{key: observed[key] for key in SAMPLE_KEYS},
    )


def result_record(
    name: str, trace: int, observed: Dict[str, Any], metrics: Dict[str, Any], **extra: Any
) -> Dict[str, Any]:
    """What both kinds of run report about a workload child, plus *extra*."""
    return {
        "workload": name,
        "trace": trace,
        "unit": observed["unit"],
        "samples": len(observed["calls_s"]),
        "speed_factor": observed["speed_factor"],
        "attempted": observed["attempted"],
        "failed": observed["failed"],
        "result_digest": observed["result_digest"],
        "failures": observed["failures"],
        "metrics": metrics,
        "notes": {},
        **extra,
    }


def run_traced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The workload's traced window, then every layer group in its own child.

    The service layer is read off a traced ``service_mixed`` window — the
    workload's own when that is the workload being traced.
    """
    from layers import GROUPS, PER_LAYER_UNITS, service_metrics, window_metrics

    observed = spawn("workload", name, seed, seconds, "trace")
    values = window_metrics(observed)
    notes: Dict[str, str] = {}
    spans = [dict(span, process=name) for span in observed["spans"]]
    service = observed
    if name != "service_mixed":
        service = spawn("workload", "service_mixed", seed, seconds, "trace")
        spans.extend(dict(span, process="service_mixed") for span in service["spans"])
    values.update(service_metrics(service))
    for group in GROUPS:
        payload = spawn("layer", group, seed, WORK_DIR)
        values.update(payload["metrics"])
        notes.update(payload["notes"])
        spans.extend(dict(span, process=f"layers.{group}") for span in payload["spans"])
    status_read = values.get("campaign.status_read_ms_p50")
    status_http = values.get("service.read_ms_p50.status")
    if status_read is not None and status_http is not None:
        values["service.http_overhead_ms"] = status_http - status_read
    metrics = {
        metric: {"value": values.get(metric), "unit": unit}
        for metric, unit in PER_LAYER_UNITS.items()
    }
    return result_record(name, 1, observed, metrics, notes=notes, spans=spans)


# --------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------- #


def driver_line(record: Dict[str, Any]) -> str:
    """The line the acceptance driver reads: exactly these four keys."""
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def print_record(record: Dict[str, Any]) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(
        f"== {record['workload']} ({mode}, seed {record['fingerprint']['seed']}, "
        f"{record['samples']} calls, work unit: {record['unit']}, "
        f"speed factor {record['speed_factor']:.3f}) =="
    )
    for metric, entry in record["metrics"].items():
        value = entry["value"]
        if value is None:
            print(f"  {metric:<40} null  # {record['notes'].get(metric, 'not measured')}")
            continue
        raw = record.get("raw", {}).get(metric)
        beside = f"  (raw {raw:.6g})" if raw is not None else ""
        print(f"  {metric:<40} {value:.6g} {entry['unit']}{beside}")
    if record.get("tail", {}).get("percentile", 50.0) > 50.0:
        tail = record["tail"]
        label = f"call_ms_p{tail['percentile']:g} (highest supported)"
        print(f"  {label:<40} {tail['call_ms']:.6g} ms")
    share = record["failed"] / record["attempted"]
    print(f"  {'failed_share':<40} {share:.6g} ({record['failed']} of {record['attempted']})")
    for failure in record["failures"]:
        print(f"    failed: {failure}")
    print(f"  {'result_digest':<40} {record['result_digest']}")
    print(driver_line(record), flush=True)


def write_outputs(records: List[Dict[str, Any]], out_dir: Optional[str], append: bool) -> None:
    from spans import write_ndjson

    results = [{key: value for key, value in r.items() if key != "spans"} for r in records]
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_ndjson(os.path.join(out_dir, "results.ndjson"), results)
        traced = [span for record in records for span in record.get("spans", [])]
        if traced:
            write_ndjson(os.path.join(out_dir, "spans.ndjson"), traced)
    if append:
        write_ndjson(
            TRAJECTORY_PATH,
            [{k: v for k, v in result.items() if k not in SAMPLE_KEYS} for result in results],
        )


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        sys.path[:0] = [HARNESS_DIR, SRC]
        return child_main(argv[1])
    manifest_seconds = 12
    if os.path.exists(MANIFEST_PATH):
        with open(MANIFEST_PATH, encoding="utf-8") as stream:
            manifest_seconds = json.load(stream)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="workload input seed")
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(manifest_seconds),
        help="measured window per workload (default: BENCHMARK.json's run_seconds)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        choices=(0, 1),
        const=1,
        default=0,
        help="1: layer probes under spans instead of the end-to-end run",
    )
    parser.add_argument("--out", metavar="DIR", help="write results.ndjson / spans.ndjson here")
    parser.add_argument(
        "--append", action="store_true", help="append the results to trajectory.ndjson"
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: the program under test is missing: {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HARNESS_DIR)
    from measure import fingerprint

    become_subreaper()
    signal.signal(signal.SIGTERM, _terminated)
    environment = fingerprint(ROOT, args.seed)
    run_one = run_traced if args.trace else run_untraced
    records = []
    try:
        for name in [args.workload] if args.workload else WORKLOADS:
            record = run_one(name, args.seed, args.seconds)
            record.update(fingerprint=environment, seconds=args.seconds)
            records.append(record)
            print_record(record)
    finally:
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    write_outputs(records, args.out, args.append)
    return 0 if all(record["failed"] == 0 for record in records) else 1


if __name__ == "__main__":
    raise SystemExit(main())
