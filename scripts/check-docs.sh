#!/usr/bin/env bash
# check-docs.sh — the documentation gate run by CI's docs job.
#
#  1. Every exported identifier in the public wbcast package must carry a
#     doc comment (grep gate; go vet handles comment placement rules).
#  2. Every internal package must have a doc.go with a package comment.
#  3. Every relative markdown link in README.md and docs/ must resolve.
#  4. The metric catalog in docs/OBSERVABILITY.md is complete: every
#     metric name declared in internal/obs/names.go appears there, and no
#     non-test Go file mints a wbcast_* metric literal that is not a
#     declared name.
#  5. No doc.go and no docs/*.md (nor README.md) names an internal/ package
#     (or file) or a cmd/ directory that does not exist; README.md and
#     docs/*.md name no bare file (`X.md`, `X.json`, `X.go`) that exists
#     nowhere in the repository, no flag of a cmd/wbcast-* command that
#     the command does not define, and none of the retired names
#     (`lockedStorage`, the compaction knobs `Snapshot{Every,Threshold}`,
#     wire's `{Append,Consume}*` storage wrappers, the buffer knobs
#     `{Trace,Delivery}Buffer`, the range partitioner, the inbound frames'
#     reference counting, the record-list clone, the goroutine runtime
#     the in-memory tcpnet node replaced, the subscription drop policies,
#     the observability off switch, the separate client command, the
#     history checkers check.Monitor replaced, the adapter extensions
#     and timer options the protocol table replaced, the harness's
#     copies of the simulator's process state, the mailbox ring's
#     capacity, overflow and second high-water gauge, the transport's
#     ack batch, kv's separate shard attachment, the copying message
#     decoder, the Config conflict relation, the per-frame codec
#     timers, the public fault-plan builder and the kv response hub's
#     done rings and evicting early buffer, the cluster's replica crash,
#     kv's partitioner accessor, the batch unpacker's slice form and the
#     separate latency command).
set -euo pipefail
cd "$(dirname "$0")/.."
fail=0

# --- 1. exported identifiers in the public packages are documented -------
# Root package plus every other non-internal library package (kv).
for f in *.go kv/*.go; do
  case "$f" in *_test.go) continue ;; esac
  # An exported declaration line whose preceding line is not a comment or
  # a group opener ("const (", "var (") is undocumented.
  undoc=$(awk '
    /^(func|type|const|var) [A-Z]/ || /^func \([^)]*\) [A-Z]/ {
      if (prev !~ /^\/\// && prev !~ /^(const|var|type) \($/) {
        printf "%s:%d: undocumented exported declaration: %s\n", FILENAME, FNR, $0
      }
    }
    { prev = $0 }
  ' "$f")
  if [ -n "$undoc" ]; then
    echo "$undoc"
    fail=1
  fi
done

# --- 2. every internal package has a doc.go with a package comment -------
# Including nested packages (internal/kvstore/workload).
for d in $(find internal -type d); do
  ls "$d"/*.go >/dev/null 2>&1 || continue
  pkg=$(basename "$d")
  if [ ! -f "$d/doc.go" ] && ! grep -lq "^// Package $pkg" "$d"/*.go; then
    echo "$d: no doc.go or package comment"
    fail=1
  fi
done

# --- 3. relative markdown links resolve ----------------------------------
for md in README.md docs/*.md; do
  dir=$(dirname "$md")
  # Extract relative link targets: [text](target), skipping URLs/anchors.
  while IFS= read -r target; do
    target=${target%%#*}
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "$md: broken link: $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//' | grep -vE '^(https?:|#|mailto:)')
done

# --- 4. the observability catalog matches the declared metric names -----
names=$(grep -oE '"(wbcast|genmcast)_[a-z_]+"' internal/obs/names.go | tr -d '"' | sort -u)
for name in $names; do
  if ! grep -q "$name" docs/OBSERVABILITY.md; then
    echo "docs/OBSERVABILITY.md: metric $name missing from the catalog"
    fail=1
  fi
done
while IFS=: read -r file line lit; do
  lit=$(printf '%s' "$lit" | tr -d '"')
  if ! printf '%s\n' $names | grep -qx "$lit"; then
    echo "$file:$line: metric literal $lit is not declared in internal/obs/names.go"
    fail=1
  fi
done < <(grep -rn --include='*.go' -oE '"(wbcast|genmcast)_[a-z_]+"' . \
  | grep -v '_test\.go:' | grep -v '^\./internal/obs/names\.go:')

# --- 5. documentation names only packages, commands, files and flags that exist
while IFS=: read -r file line path; do
  if [ ! -e "$path" ]; then
    echo "$file:$line: names $path, which does not exist"
    fail=1
  fi
done < <(grep -n -oE '(internal|cmd)/[a-z0-9_-]+(/[a-z0-9_]+)*(\.go)?' README.md docs/*.md $(find . -name doc.go -not -path './.bench_build/*') \
  | sort -u)

# A bare file name in backticks (globs and <n> placeholders allowed).
while IFS=: read -r file line name; do
  name=${name//\`/}
  if [ -z "$(find . -name "${name//<n>/*}" -not -path './.git/*' -not -path './.bench_build/*' -print -quit)" ]; then
    echo "$file:$line: names $name, which does not exist"
    fail=1
  fi
done < <(grep -n -oE '`[A-Za-z0-9_*<>.-]+\.(md|json|go)`' README.md docs/*.md | sort -u)

# Flags that follow a command's name: up to the end of the (continued)
# command line inside a code fence, up to the closing backtick outside,
# and in both up to a shell separator. Every cmd/wbcast-* command is
# checked against the flags it defines.
for cmd in cmd/wbcast-*; do
  tool=$(basename "$cmd")
  flags=$(find "$cmd" -name '*.go' ! -name '*_test.go' -exec grep -ohE 'flag\.[A-Za-z0-9]+\((&[A-Za-z0-9_.]+, )?"[a-z0-9-]+"' {} + \
    | sed -E 's/.*"([a-z0-9-]+)"$/\1/')
  for md in README.md docs/*.md; do
    while read -r flag; do
      if ! printf '%s\n' $flags | grep -qx -- "${flag#-}"; then
        echo "$md: names $tool flag $flag, which does not exist"
        fail=1
      fi
    done < <(awk -v tool="$tool" '
      /^```/ { fence = !fence; next }
      /\\$/ { sub(/\\$/, ""); held = held $0 " "; next }
      { line = held $0; held = "" }
      fence { if (match(line, tool " [^|;&]*")) print substr(line, RSTART, RLENGTH); next }
      { prose = prose " " line }
      END {
        n = split(prose, span, "`")
        for (i = 2; i <= n; i += 2) if (match(span[i], tool " [^|;&]*")) print substr(span[i], RSTART, RLENGTH)
      }
    ' "$md" | grep -oE ' -[a-z][a-z0-9-]*' | tr -d ' ' | sort -u)
  done
done

# Names the code no longer has: the store's lock wrapper went when node.Step
# became the store's only writer; the compaction knobs when both logs
# began to compact once they outgrow their snapshot; wire's storage
# wrappers when every format began to read and write through
# wire.Writer/Reader; the trace and delivery buffer knobs and the range
# partitioner when nothing set them; the inbound frames' reference counts and
# the handlers' clones of received messages when frames stopped being
# reused; the separate in-process runtime when InProcess began to host
# in-memory tcpnet nodes; the drop policies and the Observability struct when
# every subscription became lossless and metrics always on; the client
# command when wbcast-node began to host a client in a client slot; the
# end-of-run history, its GTS switch and the kv partial-order checker when
# check.Monitor became the one history checker; the harness's three optional
# adapter interfaces and the black-box baselines' timer options when the
# protocol table (internal/protocols) became the one constructor; the fault
# engine's crash and restart hooks and the harness's replica map when the
# harness began to read liveness and live handlers from the simulator (the
# public wbcast Cluster.Replicas() method stays nameable); the mailbox's ring
# capacity, its overflow and the runtime's copy of its high-water mark when
# the mailbox queue became a mutex and a slice that keeps its own high water;
# the ack batch, its message kind, the ack-class rule and the send path's
# accumulator when every frame began to carry one message; kv's separate
# shard attachment and its options, the copying message decoder and the
# Config conflict relation when each lost its last caller; the encode and
# decode stage histograms when the codec's cost was left to its
# microbenchmarks (check 4 maps declared names to the catalog, not catalog
# rows to declared names, so a row left behind is caught here); the kv
# response hub's done rings and evicting early buffer when each response
# began to go to the client that sent its operation; the cluster's replica
# crash, kv's partitioner accessor, the batch unpacker's slice form and the
# separate latency command when each became a second way of doing what
# Replica.Close, HashPartitioner, ExpandInto and wbcast-sim -scenario latency
# do.
for gone in lockedStorage Snapshot{Every,Threshold} {Append,Consume}{Uint,TS,Ballot,Command,Record} \
  {Trace,Delivery}Buffer Range''Partitioner {retain,release}''Read Clone''Records '[Rr]etention'' boundary' internal''/live live''.Network \
  Drop''Oldest Drop''Newest Delivery''Policy Observability''{ wbcast''-client \
  check''.History Check''GTS Check''Partial \
  Protocol''Obs Storage''Protocol Conflict''Protocol blackbox''.Options \
  On''Crash On''Restart 'Cluster''.Replicas\($\|[^(]\)' \
  Mailbox''HW mailbox''Size 'ring + overflow' \
  Ack''Batch ACK''_BATCH Is''Ack ack''BatchMax flush''Acks \
  Attach''Shard Shard''Options 'wire''\.Decode(' 'wbcast''\.Config\.Conflicts' \
  wbcast_encode''_stage_seconds wbcast_decode''_stage_seconds \
  New''FaultPlan Fault''Step After''Messages \
  done''Ring 'done ring' max''Pending new''Hub \
  Crash''Replica 'Service''\.Partitioner' 'batch''\.Expand(' wbcast''-latency; do
  if grep -n "$gone" README.md docs/*.md $(find . -name doc.go -not -path './.bench_build/*'); then
    echo "documentation names $gone, which does not exist"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check-docs: FAILED"
  exit 1
fi
echo "check-docs: OK"
