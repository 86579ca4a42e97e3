#!/usr/bin/env bash
# End-to-end drill of the estimation server (docs/SERVER.md), run as a
# ctest and as a CI step: start `sjsel serve` with metrics armed, run a
# scripted client session covering the happy path and the structured
# error paths, then shut down gracefully and assert that
#
#   1. every response is the expected ok/error shape,
#   2. the server's explain report equals the CLI's explain --json file,
#   3. the final metrics snapshot counts server.requests.answered,
#   4. the daemon exits cleanly (exit 0, "served N requests", socket
#      file removed).
#
# Usage: server_smoke.sh <path-to-sjsel-binary> [workdir]

set -u

SJSEL=${1:?usage: server_smoke.sh <sjsel-binary> [workdir]}
SJSEL=$(realpath "$SJSEL") || { echo "server_smoke: no such binary" >&2; exit 1; }
WORKDIR=${2:-$(mktemp -d)}
mkdir -p "$WORKDIR"
cd "$WORKDIR"

SOCK="$WORKDIR/smoke.sock"
METRICS="$WORKDIR/serve_metrics.json"
SERVE_LOG="$WORKDIR/serve.log"
SERVER_PID=""

fail() {
  echo "server_smoke: FAILED: $1" >&2
  echo "--- serve log ---" >&2
  cat "$SERVE_LOG" >&2 || true
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
  exit 1
}

"$SJSEL" gen uniform:1500 a.ds --seed=1 > /dev/null || fail "gen a.ds"
"$SJSEL" gen clustered:1000 b.ds --seed=2 > /dev/null || fail "gen b.ds"
"$SJSEL" gen uniform:800 c.ds --seed=3 > /dev/null || fail "gen c.ds"

# The daemon also arms metrics process-wide (--metrics) so the snapshot
# written at shutdown aggregates every request in the session.
"$SJSEL" serve "$SOCK" --workers=2 --metrics="$METRICS" > "$SERVE_LOG" 2>&1 &
SERVER_PID=$!

# Wait for the socket to appear (the daemon prints "listening" first).
# Generous timeout: CI boxes running the suite in parallel can stall
# process startup for seconds.
for _ in $(seq 1 300); do
  [ -S "$SOCK" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "daemon died during startup"
  sleep 0.1
done
[ -S "$SOCK" ] || fail "socket never appeared"

# Scripted session: happy paths and every structured-error path that can
# be triggered deterministically.
RESPONSES=$("$SJSEL" client "$SOCK" <<'EOF'
{"id":1,"op":"ping"}
{"id":2,"op":"estimate","a":"a.ds","b":"b.ds"}
{"id":3,"op":"estimate","a":"a.ds","b":"b.ds","deadline_ms":0}
{"id":4,"op":"estimate","a":"missing.ds","b":"b.ds"}
{"id":5,"op":"frobnicate"}
{"id":6,"op":"plan","paths":["a.ds","b.ds","c.ds"]}
{"id":7,"op":"stats"}
{"id":8,"op":"explain","a":"a.ds","b":"b.ds","level":5,"exact":true}
EOF
) || fail "client session errored"
echo "$RESPONSES"

expect() {
  echo "$RESPONSES" | grep -q "$1" || fail "missing in responses: $1"
}
expect '"id":1,"ok":true,"result":{"pong":true}'
expect '"id":2,"ok":true'
expect '"estimated_pairs"'
expect '"id":3,"ok":false,"error":{"code":"deadline"'
expect '"id":4,"ok":false,"error":{"code":"not_found"'
expect '"id":5,"ok":false,"error":{"code":"unknown_op"'
expect '"id":6,"ok":true'
expect '"tree"'
expect '"server.requests.answered"'

# Estimates through the server match the standalone CLI bit-for-bit: the
# response's *_text fields reproduce the `estimate` rendering.
PAIRS_CLI=$("$SJSEL" estimate a.ds b.ds | sed -n 's/^estimated pairs *: //p')
echo "$RESPONSES" | grep -q "\"estimated_pairs_text\":\"$PAIRS_CLI\"" \
  || fail "server estimate '$PAIRS_CLI' differs from CLI"

# The server's explain report is the CLI's `explain --json` file byte for
# byte: both are the same JSON document, dumped by the same writer.
"$SJSEL" explain a.ds b.ds --level=5 --exact --json=explain.json > /dev/null \
  || fail "CLI explain"
echo "$RESPONSES" \
  | sed -n 's/^{"id":8,"ok":true,"result":{"report":\(.*\)},"request_id":.*$/\1/p' \
  > explain_report.json
[ -s explain_report.json ] || fail "no explain report in the responses"
printf '%s' "$(cat explain_report.json)" | cmp -s - explain.json \
  || fail "server explain report differs from the CLI's explain --json"

# Graceful shutdown via the protocol; the daemon must exit 0 by itself.
"$SJSEL" client "$SOCK" '{"id":99,"op":"shutdown"}' \
  | grep -q '"stopping":true' || fail "shutdown not acknowledged"
for _ in $(seq 1 300); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  fail "daemon still running after shutdown request"
fi
wait "$SERVER_PID"
SERVE_EXIT=$?
SERVER_PID=""
[ "$SERVE_EXIT" -eq 0 ] || fail "daemon exited $SERVE_EXIT"
grep -q "served .* requests" "$SERVE_LOG" || fail "no served-requests line"
[ -S "$SOCK" ] && fail "socket file not removed on shutdown"

# The metrics snapshot written at exit must carry the per-request
# counters (armed per request, aggregated across the run).
[ -f "$METRICS" ] || fail "metrics snapshot not written"
grep -q '"server.requests.answered"' "$METRICS" \
  || fail "server.requests.answered missing from metrics snapshot"
grep -q '"server.requests.failed.deadline"' "$METRICS" \
  || fail "deadline failure counter missing from metrics snapshot"

echo "server_smoke: OK"
