#!/usr/bin/env bash
# Smoke test for the discovery service daemon (examples/mcsm_serve): boots
# the server on an ephemeral port, registers two tables, submits a job,
# polls it to completion, verifies the index cache shows a hit on a second
# identical job, runs a traced job end-to-end (trace endpoint validated with
# check_trace.py, explain field present), checks that unversioned paths
# answer 404 (only /v1/ is routed), exercises 429
# backpressure, and checks graceful SIGTERM drain (exit 0 with queued work
# finished). Run from anywhere:
#
#   tools/serve_smoke.sh <path-to-mcsm_serve>
#
# Designed to run under ASan/UBSan in CI — any sanitizer report fails the
# server process and therefore the script.
set -euo pipefail

SERVE_BIN=${1:?usage: serve_smoke.sh <path-to-mcsm_serve>}
WORKDIR=$(mktemp -d)
SERVER_PID=""
SLOW_PID=""
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null; [ -n "$SLOW_PID" ] && kill "$SLOW_PID" 2>/dev/null; rm -rf "$WORKDIR"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# http VERB PATH [BODY] -> sets $HTTP_STATUS and $BODY (no subshell, so the
# variables survive).
http() {
  local verb=$1 path=$2 payload=${3:-}
  HTTP_STATUS=$(curl -s -o "$WORKDIR/resp" -w '%{http_code}' -X "$verb" \
                ${payload:+-d "$payload"} "http://127.0.0.1:$PORT$path")
  BODY=$(cat "$WORKDIR/resp")
}

# --- boot -------------------------------------------------------------------
"$SERVE_BIN" --port 0 --port-file "$WORKDIR/port" \
             --job-workers 2 --max-queue 2 >"$WORKDIR/serve.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [ -s "$WORKDIR/port" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORKDIR/serve.log"; fail "server died at boot"; }
  sleep 0.1
done
[ -s "$WORKDIR/port" ] || fail "server never wrote --port-file"
PORT=$(cat "$WORKDIR/port")
echo "server up on port $PORT (pid $SERVER_PID)"

http GET /v1/healthz
[ "$HTTP_STATUS" = 200 ] || fail "healthz returned $HTTP_STATUS"
echo "$BODY" | grep -q '"ok"' || fail "healthz body: $BODY"
echo "$BODY" | grep -q '"schema_version":1' || fail "no schema_version: $BODY"

# --- unversioned paths -----------------------------------------------------
# Only /v1/ is routed: the pre-/v1 paths answer 404 with the JSON error body.
for path in /healthz /metrics /tables /jobs /jobs/1; do
  http GET "$path"
  [ "$HTTP_STATUS" = 404 ] || fail "unversioned $path -> $HTTP_STATUS, want 404"
  echo "$BODY" | grep -q '"error"' || fail "unversioned $path body: $BODY"
done
curl -s -D "$WORKDIR/headers" -o /dev/null "http://127.0.0.1:$PORT/healthz"
grep -qi '^Deprecation' "$WORKDIR/headers" \
  && fail "unversioned /healthz must not carry a Deprecation header"
echo "unversioned paths 404: OK"

# --- register tables --------------------------------------------------------
http POST /v1/tables '{"name":"people","csv":"first,last\nhenry,warner\nanna,smith\nbob,jones\ncarol,white\ndave,brown\neve,black\n"}'
[ "$HTTP_STATUS" = 200 ] || fail "POST /tables people -> $HTTP_STATUS: $BODY"
http POST /v1/tables '{"name":"logins","csv":"login\nhwarner\nasmith\nbjones\ncwhite\ndbrown\neblack\n"}'
[ "$HTTP_STATUS" = 200 ] || fail "POST /tables logins -> $HTTP_STATUS: $BODY"

# --- per-table storage stats ------------------------------------------------
http GET /v1/tables/people
[ "$HTTP_STATUS" = 200 ] || fail "GET /tables/people -> $HTTP_STATUS: $BODY"
echo "$BODY" | grep -q '"storage"' || fail "no storage stats: $BODY"
echo "$BODY" | grep -q '"encoding":"' || fail "no encoding: $BODY"
echo "$BODY" | grep -q '"rows":6' || fail "wrong rows in: $BODY"
http GET /v1/tables/nope
[ "$HTTP_STATUS" = 404 ] || fail "GET /tables/nope -> $HTTP_STATUS (want 404)"
echo "table storage stats: OK"

# --- submit + poll a job ----------------------------------------------------
http POST /v1/jobs '{"source_table":"people","target_table":"logins","target_column":0,"deadline_ms":30000}'
[ "$HTTP_STATUS" = 202 ] || fail "POST /jobs -> $HTTP_STATUS: $BODY"
JOB_ID=$(echo "$BODY" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
[ -n "$JOB_ID" ] || fail "no job id in: $BODY"

STATE=""
for _ in $(seq 1 100); do
  http GET "/v1/jobs/$JOB_ID"
  STATE=$(echo "$BODY" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && fail "job failed: $BODY"
  sleep 0.1
done
[ "$STATE" = done ] || fail "job never finished (state=$STATE)"
echo "$BODY" | grep -q '"formula":"first\[1-1\]last\[1-n\]"' \
  || fail "unexpected formula: $BODY"
echo "job $JOB_ID done: $BODY"

# --- cache hit on the second identical job ----------------------------------
http POST /v1/jobs '{"source_table":"people","target_table":"logins","target_column":0}'
[ "$HTTP_STATUS" = 202 ] || fail "second POST /jobs -> $HTTP_STATUS"
JOB2=$(echo "$BODY" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
for _ in $(seq 1 100); do
  http GET "/v1/jobs/$JOB2"
  echo "$BODY" | grep -q '"state":"done"' && break
  sleep 0.1
done
echo "$BODY" | grep -q '"state":"done"' || fail "second job never finished: $BODY"

http GET /v1/metrics
[ "$HTTP_STATUS" = 200 ] || fail "GET /metrics -> $HTTP_STATUS"
HITS=$(echo "$BODY" | sed -n 's/^mcsm_index_cache_hits \([0-9]*\)$/\1/p')
[ -n "$HITS" ] && [ "$HITS" -gt 0 ] || fail "expected cache hits > 0; metrics: $BODY"
echo "cache hits: $HITS"

# --- bulk-translate job: discover-then-translate, then replay by program ----
http POST /v1/jobs '{"mode":"translate","source_table":"people","target_table":"logins","target_column":0,"deadline_ms":30000}'
[ "$HTTP_STATUS" = 202 ] || fail "translate POST /v1/jobs -> $HTTP_STATUS: $BODY"
TR_ID=$(echo "$BODY" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
for _ in $(seq 1 100); do
  http GET "/v1/jobs/$TR_ID"
  echo "$BODY" | grep -q '"state":"done"' && break
  echo "$BODY" | grep -q '"state":"failed"' && fail "translate job failed: $BODY"
  sleep 0.1
done
echo "$BODY" | grep -q '"state":"done"' || fail "translate job never finished: $BODY"
echo "$BODY" | grep -q '"mode":"translate"' || fail "no translate mode: $BODY"
echo "$BODY" | grep -q '"rows_translated":6' \
  || fail "expected 6 translated rows: $BODY"
echo "$BODY" | grep -q '"program_wire":"' || fail "no program_wire: $BODY"
PROGRAM_HEX=$(echo "$BODY" | sed -n 's/.*"program_wire":"\([0-9a-f]*\)".*/\1/p')
[ -n "$PROGRAM_HEX" ] || fail "could not extract program hex: $BODY"
# Replay the saved program without a target table (discovery skipped).
http POST /v1/jobs "{\"mode\":\"translate\",\"source_table\":\"people\",\"program\":\"$PROGRAM_HEX\"}"
[ "$HTTP_STATUS" = 202 ] || fail "replay POST /v1/jobs -> $HTTP_STATUS: $BODY"
REPLAY_ID=$(echo "$BODY" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
for _ in $(seq 1 100); do
  http GET "/v1/jobs/$REPLAY_ID"
  echo "$BODY" | grep -q '"state":"done"' && break
  echo "$BODY" | grep -q '"state":"failed"' && fail "replay job failed: $BODY"
  sleep 0.1
done
echo "$BODY" | grep -q '"rows_translated":6' \
  || fail "replay expected 6 translated rows: $BODY"
# A corrupt program is a 400 at submit, not a failed job.
http POST /v1/jobs '{"mode":"translate","source_table":"people","program":"deadbeef"}'
[ "$HTTP_STATUS" = 400 ] || fail "corrupt program -> $HTTP_STATUS (want 400): $BODY"
http GET /v1/metrics
TRANSLATED=$(echo "$BODY" | sed -n 's/^mcsm_translate_rows_total \([0-9]*\)$/\1/p')
[ -n "$TRANSLATED" ] && [ "$TRANSLATED" -ge 12 ] \
  || fail "expected mcsm_translate_rows_total >= 12; metrics: $BODY"
echo "translate jobs: OK (rows_total=$TRANSLATED)"

# --- traced job: trace endpoint + explain + check_trace.py ------------------
http POST /v1/jobs '{"source_table":"people","target_table":"logins","target_column":0,"trace":true}'
[ "$HTTP_STATUS" = 202 ] || fail "traced POST /v1/jobs -> $HTTP_STATUS: $BODY"
TRACED_ID=$(echo "$BODY" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
for _ in $(seq 1 100); do
  http GET "/v1/jobs/$TRACED_ID"
  echo "$BODY" | grep -q '"state":"done"' && break
  sleep 0.1
done
echo "$BODY" | grep -q '"state":"done"' || fail "traced job never finished: $BODY"
echo "$BODY" | grep -q '"traced":true' || fail "snapshot not marked traced: $BODY"
echo "$BODY" | grep -q '"explain":' || fail "no explain field on traced job: $BODY"

http GET "/v1/jobs/$TRACED_ID/trace"
[ "$HTTP_STATUS" = 200 ] || fail "GET trace -> $HTTP_STATUS: $BODY"
echo "$BODY" > "$WORKDIR/trace.json"
python3 "$(dirname "$0")/check_trace.py" "$WORKDIR/trace.json" \
  || fail "check_trace.py rejected the service trace"

# Untraced jobs 404 on the trace endpoint.
http GET "/v1/jobs/$JOB_ID/trace"
[ "$HTTP_STATUS" = 404 ] || fail "untraced job trace -> $HTTP_STATUS (want 404)"

http GET /v1/metrics
echo "$BODY" | grep -q '^mcsm_jobs_traced 1$' || fail "mcsm_jobs_traced != 1"
TRACE_EVENTS=$(echo "$BODY" | sed -n 's/^mcsm_trace_events_total \([0-9]*\)$/\1/p')
[ -n "$TRACE_EVENTS" ] && [ "$TRACE_EVENTS" -gt 0 ] || fail "trace events counter empty"
echo "traced job: OK ($TRACE_EVENTS events)"

# --- 429 backpressure -------------------------------------------------------
# A second server with the service.job delay failpoint armed: every job
# stalls 500ms before running, so 1 worker + 1 queue slot saturate
# deterministically and later submits must bounce with 429.
SLOW_PID=""
MCSM_FAILPOINTS="service.job=delay:500ms" \
  "$SERVE_BIN" --port 0 --port-file "$WORKDIR/slow_port" \
               --job-workers 1 --max-queue 1 >"$WORKDIR/slow.log" 2>&1 &
SLOW_PID=$!
for _ in $(seq 1 100); do
  [ -s "$WORKDIR/slow_port" ] && break
  sleep 0.1
done
[ -s "$WORKDIR/slow_port" ] || fail "slow server never wrote --port-file"
MAIN_PORT=$PORT
PORT=$(cat "$WORKDIR/slow_port")
http POST /v1/tables '{"name":"people","csv":"first,last\nhenry,warner\nanna,smith\n"}'
[ "$HTTP_STATUS" = 200 ] || fail "slow server POST /tables -> $HTTP_STATUS"
http POST /v1/tables '{"name":"logins","csv":"login\nhwarner\nasmith\n"}'
[ "$HTTP_STATUS" = 200 ] || fail "slow server POST /tables -> $HTTP_STATUS"
SAW_429=0
for _ in $(seq 1 6); do
  http POST /v1/jobs '{"source_table":"people","target_table":"logins","target_column":0}'
  [ "$HTTP_STATUS" = 429 ] && SAW_429=1
done
[ "$SAW_429" = 1 ] || fail "expected a 429 from the saturated queue"
http GET /v1/metrics
REJECTED=$(echo "$BODY" | sed -n 's/^mcsm_jobs_rejected \([0-9]*\)$/\1/p')
[ -n "$REJECTED" ] && [ "$REJECTED" -gt 0 ] || fail "rejected counter not incremented"
echo "backpressure: $REJECTED rejected with 429"

# SIGTERM with jobs still queued/delayed: the drain must finish them all and
# exit 0 — this is the chaos leg of the drain contract.
kill -TERM "$SLOW_PID"
for _ in $(seq 1 200); do
  kill -0 "$SLOW_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SLOW_PID" 2>/dev/null; then
  kill -9 "$SLOW_PID"; fail "slow server did not drain within 20s of SIGTERM"
fi
wait "$SLOW_PID" && RC=0 || RC=$?
SLOW_PID=""
[ "$RC" = 0 ] || { cat "$WORKDIR/slow.log"; fail "slow server exited $RC after SIGTERM"; }
grep -q "drained; bye" "$WORKDIR/slow.log" || fail "slow server drain banner missing"
PORT=$MAIN_PORT

# --- graceful drain ---------------------------------------------------------
kill -TERM "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  kill -9 "$SERVER_PID"; fail "server did not drain within 10s of SIGTERM"
fi
wait "$SERVER_PID" && RC=0 || RC=$?
SERVER_PID=""
[ "$RC" = 0 ] || { cat "$WORKDIR/serve.log"; fail "server exited $RC after SIGTERM"; }
grep -q "drained; bye" "$WORKDIR/serve.log" || { cat "$WORKDIR/serve.log"; fail "drain banner missing from log"; }

echo "serve smoke: OK"
