#!/usr/bin/env bash
# metrics-smoke.sh — CI smoke test for the observability endpoint.
#
# Starts a single wbcast-node replica with -metrics-addr, scrapes /metrics
# and /debug/vars, and checks that the documented metric families are
# present in Prometheus text form. Then runs wbcast-node in the client slot
# of the same -peers list for three multicasts and checks that the replica
# counted three deliveries. Fails if the endpoint does not come up, any
# required name is missing or the client round trip does not complete.
set -euo pipefail
cd "$(dirname "$0")/.."

NODE_ADDR=${NODE_ADDR:-127.0.0.1:7390}
CLIENT_ADDR=${CLIENT_ADDR:-127.0.0.1:7391}
METRICS_ADDR=${METRICS_ADDR:-127.0.0.1:9390}

go build -o /tmp/wbcast-node ./cmd/wbcast-node
/tmp/wbcast-node -id 0 -groups 1 -size 1 -peers "$NODE_ADDR,$CLIENT_ADDR" \
  -metrics-addr "$METRICS_ADDR" &
node_pid=$!
trap 'kill "$node_pid" 2>/dev/null || true' EXIT

# Wait for the endpoint.
up=0
for _ in $(seq 1 50); do
  if curl -sf "http://$METRICS_ADDR/metrics" >/tmp/metrics-smoke.txt; then
    up=1
    break
  fi
  sleep 0.1
done
if [ "$up" -ne 1 ]; then
  echo "metrics-smoke: endpoint http://$METRICS_ADDR/metrics never came up"
  exit 1
fi

fail=0
# Families every replica must expose from the start (counters and views
# exist even before traffic; histogram families appear via their TYPE
# headers).
for name in \
  wbcast_deliveries_total \
  wbcast_commits_total \
  wbcast_stage_latency_seconds \
  wbcast_mailbox_depth \
  wbcast_mailbox_high_water \
  wbcast_messages_encoded_total \
  wbcast_frames_sent_total \
  wbcast_frames_read_total \
  wbcast_socket_reads_total \
  wbcast_socket_writes_total \
; do
  if ! grep -q "$name" /tmp/metrics-smoke.txt; then
    echo "metrics-smoke: /metrics lacks $name"
    fail=1
  fi
done
# Samples carry the process label.
if ! grep -q 'proc="0"' /tmp/metrics-smoke.txt; then
  echo 'metrics-smoke: /metrics samples lack the proc="0" label'
  fail=1
fi
# Every check below greps a scrape saved to a file, never curl's output
# through a pipe: grep -q exits at its first match, curl then fails to write
# the rest (exit 23), and under pipefail a present line reads as missing.
# /debug/vars is the standard library's expvar endpoint (/metrics is the one
# exposition of the registries).
if ! curl -sf "http://$METRICS_ADDR/debug/vars" >/tmp/metrics-smoke-vars.txt \
  || ! grep -q '"memstats"' /tmp/metrics-smoke-vars.txt; then
  echo "metrics-smoke: /debug/vars lacks memstats"
  fail=1
fi
# pprof index answers.
if ! curl -sf "http://$METRICS_ADDR/debug/pprof/" >/tmp/metrics-smoke-pprof.txt \
  || ! grep -q goroutine /tmp/metrics-smoke-pprof.txt; then
  echo "metrics-smoke: /debug/pprof/ lacks the profile index"
  fail=1
fi

# The command-line client: three multicasts to group 0 from the client slot.
if ! /tmp/wbcast-node -id 1 -groups 1 -size 1 -peers "$NODE_ADDR,$CLIENT_ADDR" \
  -dest 0 -count 3 -timeout 10s >/tmp/metrics-smoke-client.txt 2>&1 \
  || ! grep -q 'completed 3 multicasts' /tmp/metrics-smoke-client.txt; then
  cat /tmp/metrics-smoke-client.txt
  echo "metrics-smoke: the client did not complete 3 multicasts"
  fail=1
fi
if ! curl -sf "http://$METRICS_ADDR/metrics" >/tmp/metrics-smoke.txt \
  || ! grep -q 'wbcast_deliveries_total{proc="0"} 3$' /tmp/metrics-smoke.txt; then
  echo 'metrics-smoke: /metrics lacks wbcast_deliveries_total{proc="0"} 3 after the client run'
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "metrics-smoke: FAILED"
  exit 1
fi
echo "metrics-smoke: OK"
