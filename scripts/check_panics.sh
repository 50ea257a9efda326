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
#   scripts/check_panics.sh --check  # exit 1 if a file has more sites than
#                                    # PANICS.lock allows or is not listed
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
    status=0
    while read -r file n; do
      allowed=$(awk -v f="$file" '$1 == f { print $2 }' "$LOCK")
      if [ -z "$allowed" ]; then
        echo "error: $file ($n panic sites) is not listed in $LOCK" >&2
        status=1
      elif [ "$n" -gt "$allowed" ]; then
        echo "error: $file has $n panic sites, $LOCK allows $allowed" >&2
        status=1
      elif [ "$n" -lt "$allowed" ]; then
        echo "note: $file is down to $n panic sites from $allowed; regenerate $LOCK to keep the gain"
      fi
    done < <(counts)
    if [ "$status" -ne 0 ]; then
      echo >&2
      echo "Return an error instead of panicking; if a new file or site is intended," >&2
      echo "regenerate with scripts/check_panics.sh and commit $LOCK alongside it." >&2
      exit 1
    fi
    echo "panic sites within $LOCK ($(awk '{ n += $2 } END { print n + 0 }' "$LOCK") allowed)"
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
