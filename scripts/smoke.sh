#!/usr/bin/env bash
# End-to-end smoke of the example scripts and every CLI surface: scenario,
# timeline, campaign, service, observability.  Runs locally as it runs in CI:
#
#     scripts/smoke.sh [OUT_DIR]
#
# Outputs (stores, traces, reports) land in OUT_DIR (default: a fresh temp
# directory).  What the commands must *compute* is pinned by tier-1 tests;
# this only checks that each surface starts, answers and writes its files.
set -euo pipefail

cd "$(dirname "$0")/.."
REPO=$PWD
export PYTHONPATH="$REPO/src${PYTHONPATH:+:$PYTHONPATH}"
OUT=${1:-$(mktemp -d)}
mkdir -p "$OUT"
cd "$OUT"
EXAMPLES=$REPO/examples
repro() { python -m repro.experiments "$@"; }

SERVICE_PID=
trap '[ -z "$SERVICE_PID" ] || kill "$SERVICE_PID" 2>/dev/null || true' EXIT
serve() {  # serve STORE PORT: boot the service, wait until it answers
  python -m repro.experiments serve --store "$1" --port "$2" &  # not the function: $! must be python's
  SERVICE_PID=$!
  for _ in $(seq 1 50); do
    curl -sf "localhost:$2/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "service on port $2 did not come up" >&2
  return 1
}
stop_service() {  # stop the service; fail if a process it started (its drain) outlives it
  local children child
  children=$(pgrep -P "$SERVICE_PID" || true)
  kill "$SERVICE_PID"; wait "$SERVICE_PID" 2>/dev/null || true; SERVICE_PID=
  for child in $children; do
    if kill -0 "$child" 2>/dev/null; then
      echo "process $child outlived the service" >&2
      return 1
    fi
  done
}

echo "== example scripts (library entry points nothing else executes)"
for script in "$EXAMPLES"/*.py; do
  echo "-- $(basename "$script")"
  python "$script" >/dev/null
done

echo "== scenario CLI"
repro list-components
repro run-scenario --spec "$EXAMPLES/scenario_geant_gravity.json" \
  --set traffic.num_pairs=12 --set traffic.num_endpoints=6 \
  --set traffic.levels='[0.25, 1.0]' | grep "config hash"
# A parameter the scheme does not take is a usage error (exit 2) naming it,
# not a traceback.
status=0
repro run-scenario --topology geant --traffic gravity --power cisco --scheme greente \
  --set greente.ordering=stable 2>unknown-param.err >/dev/null || status=$?
test "$status" -eq 2
grep -q "'ordering'" unknown-param.err
if grep -q Traceback unknown-param.err; then echo "a usage error printed a traceback" >&2; exit 1; fi

echo "== timeline / events"
repro list-components --kind event
repro run-scenario --spec "$EXAMPLES/scenario_geant_failure.json" \
  --output timeline-result.json | grep "link-failure"
test -s timeline-result.json

echo "== campaign: a bounded slice, its resume, a forked fleet, a worker, status, report"
GRID=$EXAMPLES/campaign_geant_grid.json
repro run-campaign --spec "$GRID" --store campaign-store.sqlite --max-points 2 \
  | grep "2 executed"
repro run-campaign --spec "$GRID" --store campaign-store.sqlite \
  | tee resume.out | grep "2 already done"
grep "0 remaining" resume.out
repro run-campaign --spec "$GRID" --store workers-store.sqlite --workers 2 \
  | tee workers.out | grep "workers: 2"
grep "0 remaining" workers.out
# One lease worker joined by hand: one point per claim, as a fleet node runs.
repro run-campaign --spec "$GRID" --store worker-store.sqlite --worker-id smoke-1 \
  | tee worker.out | grep "0 remaining"
repro campaign-status --store workers-store.sqlite
# What a read command imports before it reads: kept as importtime.txt.
python -X importtime -m repro.experiments campaign-status --store workers-store.sqlite \
  >/dev/null 2>importtime.txt
repro campaign-report --store campaign-store.sqlite | grep "dominance"
repro campaign-report --store workers-store.sqlite --format csv --output workers-rows.csv
test -s workers-rows.csv

echo "== service: components, then a bounded slice submitted for a background drain"
serve service-store.sqlite 8321
curl -sf localhost:8321/components | grep '"response"' >/dev/null
curl -sf -X POST localhost:8321/campaigns \
  -d "{\"spec\": $(cat "$GRID"), \"max_points\": 2}" | grep '"campaign_id"'
stop_service

echo "== service: POST /scenarios answers a point the CLI drained from the store"
serve campaign-store.sqlite 8323
curl -sf "localhost:8323/campaigns/geant-grid/points?status=done&limit=1" | python -c '
import json, sys
print(json.dumps({"spec": json.load(sys.stdin)["points"][0]["spec"]}))' > stored-point.json
curl -sf -X POST localhost:8323/scenarios -d @stored-point.json | grep '"cache": "hit"' >/dev/null
python -c '
import json, sys
body = json.load(sys.stdin)
body["spec"]["name"] += "-changed"
print(json.dumps(body))' < stored-point.json > changed-point.json
curl -sf -X POST localhost:8323/scenarios -d @changed-point.json | grep '"cache": "miss"' >/dev/null
stop_service

echo "== observability: traced + profiled scenarios and drain, timings, /metrics"
repro run-scenario --spec "$EXAMPLES/scenario_geant_failure.json" \
  --trace scenario-trace.ndjson --profile | grep "phase timings"
grep -q '"scheme.step"' scenario-trace.ndjson
# A calibrating spec: its phase line, and one search's span (the λ solve and
# the confirm and reject probes on its model).
repro run-scenario --spec "$EXAMPLES/scenario_geant_gravity.json" \
  --trace gravity-trace.ndjson --profile | grep -E "^ +calibrate +[0-9.]+s"
grep '"traffic.calibrate"' gravity-trace.ndjson | grep -q '"lp_solves": 3'
repro run-campaign --spec "$GRID" --store obs-store.sqlite --profile \
  --trace campaign-trace.ndjson
repro campaign-report --store obs-store.sqlite --timings | grep "solve"
repro campaign-status --store obs-store.sqlite --json | grep "points_per_second"
# /metrics stays scrapeable while a submitted campaign drains.
serve obs-service.sqlite 8322
curl -sf -X POST localhost:8322/campaigns -d "{\"spec\": $(cat "$GRID")}" >/dev/null
for _ in $(seq 1 10); do
  curl -sf localhost:8322/metrics >/dev/null
done
curl -sf localhost:8322/metrics | grep "repro_service_requests_total"
curl -sf "localhost:8322/metrics?format=json" | grep '"counter"'
stop_service

echo "smoke ok: outputs in $OUT"
