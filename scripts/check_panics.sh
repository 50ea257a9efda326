#!/usr/bin/env bash
# Ratchet on the library crates' panic sites.
#
# Counts `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!` and
# `assert!` / `assert_eq!` / `assert_ne!` (not their `debug_assert*`
# forms, which release builds compile out) in every crates/*/src file, in
# the lines above the file's first `#[cfg(test)]` (in-file tests may
# panic) and outside `//` comments (doc examples are not library code),
# and writes `<file> <count>` per file, sorted, to PANICS.lock. A file with no site is listed with 0, so a new
# file shows up in review like a new site does.
#
# Usage:
#   scripts/check_panics.sh          # regenerate PANICS.lock
#   scripts/check_panics.sh --check  # exit 1 unless PANICS.lock equals a
#                                    # regenerated count: a file gained or
#                                    # lost sites, is new, or is gone
set -euo pipefail

cd "$(dirname "$0")/.."

LOCK=PANICS.lock

counts() {
  local f
  find crates/*/src -name '*.rs' | LC_ALL=C sort | while IFS= read -r f; do
    awk -v file="$f" '
      /^[ \t]*#\[cfg\(test\)\]/ { exit }
      /^[ \t]*\/\// { next }
      { n += gsub(/\.unwrap\(\)|\.expect\(|panic!|unreachable!|todo!/, "&") }
      { n += gsub(/(^|[^_[:alnum:]])assert(_eq|_ne)?!/, "&") }
      END { print file, n + 0 }
    ' "$f"
  done
}

case "${1:-}" in
  --check)
    if ! drift=$(diff -u --label "$LOCK" --label counted "$LOCK" <(counts)); then
      echo "error: panic sites differ from $LOCK:" >&2
      echo "$drift" >&2
      echo >&2
      echo "A file that gained sites or is new: return an error instead of panicking or," >&2
      echo "if the site is intended, regenerate. A file that lost sites or is gone:" >&2
      echo "regenerate to keep the gain. Regenerate with scripts/check_panics.sh and" >&2
      echo "commit $LOCK alongside the change." >&2
      exit 1
    fi
    echo "panic sites match $LOCK ($(awk '{ n += $2 } END { print n + 0 }' "$LOCK") sites)"
    ;;
  "")
    counts > "$LOCK"
    echo "wrote $(awk '{ n += $2 } END { print n + 0 }' "$LOCK") panic sites in $(wc -l < "$LOCK") files to $LOCK"
    ;;
  *)
    echo "usage: $0 [--check]" >&2
    exit 2
    ;;
esac
