#!/usr/bin/env bash
# Textual lock of the workspace's public API surface.
#
# Extracts every `pub` item declaration from crates/*/src library sources
# (bins, examples, tests and benches are not API), normalises whitespace
# and writes the sorted result to API.lock. `pub use` re-export lists are
# joined across lines so a renamed re-export counts as drift;
# `pub(crate)`/`pub(super)` items are internal and excluded.
#
# This is a textual lock, not a semantic one: it pins declaration lines,
# which is enough to make any additive, removing or re-signing change to
# the public surface show up in review as an API.lock diff.
#
# Usage:
#   scripts/check_api_surface.sh          # regenerate API.lock
#   scripts/check_api_surface.sh --check  # exit 1 if API.lock is stale
#   scripts/check_api_surface.sh --ratchet <git-ref>
#                                         # exit 1 if API.lock lists more
#                                         # items than it does at <git-ref>
set -euo pipefail

cd "$(dirname "$0")/.."

LOCK=API.lock

surface() {
  local f
  find crates/*/src -name '*.rs' | LC_ALL=C sort | while IFS= read -r f; do
    awk -v file="$f" '
      {
        line = $0
        sub(/^[ \t]+/, "", line)
        if (buf != "") {            # inside a multi-line pub use list
          buf = buf " " line
          if (line ~ /;/) { print file " " buf; buf = "" }
          next
        }
        if (line ~ /^pub (fn|struct|enum|union|trait|mod|use|const|static|type)[ <(]/) {
          if (line ~ /^pub use / && line !~ /;/) { buf = line; next }
          print file " " line
        }
      }
    ' "$f"
  done \
    | sed -E 's/[[:space:]]+/ /g; s/ \{$//; s/ where$//; s/ *$//' \
    | LC_ALL=C sort
}

case "${1:-}" in
  --check)
    if ! diff -u "$LOCK" <(surface) >/tmp/api_surface.diff 2>&1; then
      echo "error: public API surface drifted from $LOCK:" >&2
      cat /tmp/api_surface.diff >&2
      echo >&2
      echo "If the change is intentional, regenerate with scripts/check_api_surface.sh" >&2
      echo "and commit the updated $LOCK alongside the API change." >&2
      exit 1
    fi
    echo "API surface matches $LOCK"
    ;;
  --ratchet)
    base=$(git show "${2:?usage: $0 --ratchet <git-ref>}:$LOCK" | wc -l)
    head=$(wc -l < "$LOCK")
    echo "$LOCK: $base public items at $2, $head now"
    if [ "$head" -gt "$base" ]; then
      echo "error: the public API surface may shrink or hold, not grow;" >&2
      echo "demote or remove $((head - base)) item(s), or land the growth first in a PR of its own" >&2
      exit 1
    fi
    ;;
  "")
    surface > "$LOCK"
    echo "wrote $(wc -l < "$LOCK") public items to $LOCK"
    ;;
  *)
    echo "usage: $0 [--check | --ratchet <git-ref>]" >&2
    exit 2
    ;;
esac
