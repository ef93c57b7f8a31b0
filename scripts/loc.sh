#!/usr/bin/env bash
# loc.sh — code-only lines of non-test Go per package: no blank lines, no
# comment lines, no *_test.go, and nothing under benchmark/ (the measuring
# program is not the thing measured). This is the number ROADMAP aim 2
# ("the same behaviour from the least code") is tracked by.
#
#   scripts/loc.sh              every package, then the total
#   scripts/loc.sh internal/rsm only packages whose path starts with the prefix
set -euo pipefail
cd "$(dirname "$0")/.."
prefix=${1:-}

git ls-files -co --exclude-standard -- '*.go' \
  | grep -v -e '_test\.go$' -e '^benchmark/' \
  | { grep "^${prefix#./}" || true; } \
  | while IFS= read -r f; do
      [ -f "$f" ] || continue # deleted in the working tree, not yet staged
      awk -v pkg="$(dirname "$f")" '
        {
          line = $0
          if (inblock) {                      # inside /* ... */
            if (!sub(/^.*\*\//, "", line)) next
            inblock = 0
          }
          gsub(/\/\*.*\*\//, "", line)        # one-line /* ... */
          if (sub(/\/\*.*$/, "", line)) inblock = 1
          sub(/^[ \t]*\/\/.*$/, "", line)     # whole-line // comment
          if (line ~ /[^ \t]/) n++
        }
        END { printf "%s %d\n", pkg, n }
      ' "$f"
    done \
  | awk '
      { loc[$1] += $2; total += $2 }
      END {
        for (p in loc) printf "%6d  %s\n", loc[p], p | "sort -k2"
        close("sort -k2")
        printf "%6d  total\n", total
      }'
