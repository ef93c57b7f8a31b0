#!/usr/bin/env bash
# kv-smoke.sh — CI smoke test for the key-value server, cmd/wbcast-kv.
#
# Starts wbcast-kv -shards 2 -size 3 and checks, over its HTTP API: PUT,
# GET and DELETE on single keys; a /txn that spans both shards; 16
# concurrent PUTs through the server's one shared client, each read back;
# equal digests in /state for the replicas of each shard. Then runs it with
# -data-dir, writes a key, stops it with SIGTERM, restarts it on the same
# directory and reads the key back. Fails at the first check that does not
# hold.
set -euo pipefail
cd "$(dirname "$0")/.."

KV_ADDR=${KV_ADDR:-127.0.0.1:7490}
base="http://$KV_ADDR"

work=$(mktemp -d)
kv_pid=
stop() {
  [ -n "$kv_pid" ] || return 0
  kill -TERM "$kv_pid" 2>/dev/null || true
  wait "$kv_pid" 2>/dev/null || true
  kv_pid=
}
trap 'stop; rm -rf "$work"' EXIT

fail() {
  echo "kv-smoke: $*"
  echo "kv-smoke: FAILED"
  exit 1
}

go build -o "$work/wbcast-kv" ./cmd/wbcast-kv

# start runs the server with the given extra flags and waits for /state.
start() {
  "$work/wbcast-kv" -shards 2 -size 3 -addr "$KV_ADDR" -timeout 10s "$@" 2>>"$work/server.log" &
  kv_pid=$!
  for _ in $(seq 1 100); do
    if curl -sf "$base/state" >/dev/null; then
      return 0
    fi
    sleep 0.1
  done
  cat "$work/server.log"
  fail "$base/state never came up"
}

# get prints the value of key $1, or fails the smoke if the GET does not
# answer 200.
get() {
  curl -sf "$base/kv/$1" || fail "GET /kv/$1 did not answer 200"
}

# digests_agree holds once every replica of a shard reports the same digest.
digests_agree() {
  curl -sf "$base/state" >"$work/state.json" || return 1
  [ "$(jq '[group_by(.shard)[] | map(.digest) | unique | length] | all(. == 1)' "$work/state.json")" = true ]
}

start

# Single keys.
curl -sf -X PUT --data-binary 'alice' "$base/kv/user:1" || fail "PUT /kv/user:1 failed"
[ "$(get user:1)" = alice ] || fail "GET /kv/user:1 does not read alice"
curl -sf -X DELETE "$base/kv/user:1" >"$work/delete.json" || fail "DELETE /kv/user:1 failed"
[ "$(jq .existed "$work/delete.json")" = true ] || fail "DELETE /kv/user:1 did not report the key existed"
status=$(curl -s -o /dev/null -w '%{http_code}' "$base/kv/user:1")
[ "$status" = 404 ] || fail "GET of a deleted key answered $status, want 404"

# A transaction over eight keys: the store was empty, so the keys each
# shard holds afterwards are the transaction's writes, on both shards.
txn='['
for i in $(seq 0 7); do txn+="{\"op\":\"put\",\"key\":\"t$i\",\"val\":\"v$i\"},"; done
txn="${txn%,}]"
curl -sf -X POST --data-binary "$txn" "$base/txn" >/dev/null || fail "POST /txn of eight puts failed"
curl -sf "$base/state" >"$work/state.json" || fail "GET /state failed"
[ "$(jq '[group_by(.shard)[] | .[0].keys] | length == 2 and all(. > 0) and add == 8' "$work/state.json")" = true ] \
  || fail "the transaction's eight keys are not spread over both shards: $(cat "$work/state.json")"
curl -sf -X POST --data-binary '[{"op":"get","key":"t0"},{"op":"get","key":"t7"}]' "$base/txn" >"$work/txn.json" \
  || fail "POST /txn of two gets failed"
[ "$(jq -c 'map(.val)' "$work/txn.json")" = '["v0","v7"]' ] || fail "the read transaction returned $(cat "$work/txn.json")"

# Concurrent callers share the server's one kv client.
pids=()
for i in $(seq 1 16); do
  curl -sf -X PUT --data-binary "c$i" "$base/kv/c$i" &
  pids+=($!)
done
for p in "${pids[@]}"; do
  wait "$p" || fail "a concurrent PUT failed"
done
for i in $(seq 1 16); do
  [ "$(get "c$i")" = "c$i" ] || fail "GET /kv/c$i does not read c$i"
done

# The replicas of each shard converge on one digest.
agree=0
for _ in $(seq 1 50); do
  if digests_agree; then
    agree=1
    break
  fi
  sleep 0.1
done
[ "$agree" = 1 ] || fail "replicas of a shard report different digests: $(cat "$work/state.json")"
stop

# Durable: a write survives SIGTERM and a restart on the same directory.
start -data-dir "$work/data"
curl -sf -X PUT --data-binary 'kept' "$base/kv/durable" || fail "PUT /kv/durable failed"
stop
start -data-dir "$work/data"
[ "$(get durable)" = kept ] || fail "after a restart on the same -data-dir, GET /kv/durable does not read kept"
stop

echo "kv-smoke: OK"
