#!/usr/bin/env bash
# The suites CI runs one by one after `cargo test --workspace`, as one
# table: package, test target, profile, harness threads. What each suite
# pins is said once, in its own module docs (`tests/<name>.rs` or
# `crates/<crate>/tests/<name>.rs`) — not here and not in ci.yml.
#
# Why they run again on their own: `threads` 1 removes harness-level
# parallelism as a confounder for the suites that spawn their own threads
# or compare runs across executor worker counts; `release` is for the
# suites whose slow cases are ignored in a debug build, and for the ones
# that measure the optimised code (allocation counts, kernel bit
# equality, every mutant that loads tuned over).
#
# Usage: scripts/ci_suites.sh [name ...]   # no names: every suite; a name is
#                                          # the test target, the `--lib=`
#                                          # filter, or the `--all` package
set -euo pipefail

cd "$(dirname "$0")/.."

# package               test target            profile  threads
# (`-` for the package is the workspace root; `-` for threads is the
# harness default; `--lib=<filter>` runs unit tests, `--all` every test of
# the package.)
SUITES='
pipetune                --lib=runner::tests    dev      1
-                       parallel_equivalence   dev      1
pipetune-tensor         kernel_determinism     release  1
pipetune-dnn            lstm_determinism       release  1
pipetune-dnn            --lib=lanes::tests     release  -
pipetune-kernels        stepper_determinism    release  -
pipetune-perfmon        profile_determinism    dev      -
pipetune-search         issue_sequence         dev      -
-                       alloc_budget           release  1
-                       failure_injection      dev      1
-                       fault_replay           dev      1
-                       telemetry_determinism  dev      1
pipetune-telemetry      --lib=decimal::tests   release  -
pipetune-telemetry      trace_codec            dev      -
pipetune-telemetry      registry_equivalence   dev      -
-                       insight_determinism    dev      1
pipetune-insight        report_oracle          dev      -
pipetune-tsdb           point_oracle           dev      -
-                       cache_determinism      dev      1
-                       persist_hostile        release  -
serde_json              --all                  dev      -
pipetune-tensor         --all                  dev      -
-                       service_props          dev      1
-                       service_determinism    dev      1
-                       service_chaos          dev      1
-                       monitor_determinism    dev      1
-                       metric_names           dev      1
pipetune-bench          experiments            release  -
'

ran=0
while read -r package target profile threads; do
  case "$package" in '' | '#'*) continue ;; esac
  name=${target#--lib=}
  [ "$target" = --all ] && name=$package
  if [ $# -gt 0 ] && ! printf '%s\n' "$@" | grep -qx -- "$name"; then
    continue
  fi
  cmd=(cargo test -q --offline)
  [ "$profile" = release ] && cmd+=(--release)
  [ "$package" != - ] && cmd+=(-p "$package")
  case "$target" in
    --all) ;;
    --lib=*) cmd+=(--lib "$name") ;;
    *) cmd+=(--test "$target") ;;
  esac
  [ "$threads" != - ] && cmd+=(-- "--test-threads=$threads")
  echo "+ ${cmd[*]}"
  "${cmd[@]}"
  ran=$((ran + 1))
done <<<"$SUITES"

if [ "$ran" -eq 0 ]; then
  echo "no suite named: $*" >&2
  exit 2
fi
echo "ran $ran suite(s)"
