#!/bin/sh
# Checks that the OCaml sources under lib/ bin/ tools/ bench/ hold
# exactly one JSON string escaper (Ximd_obs.Json) and exactly one
# Chrome trace_event writer (Ximd_obs.Chrome).  An escaper is
# recognised by the \u escape it must emit for control characters, a
# trace writer by the document header it opens with.
#
# Usage (from the repository root): sh tools/check_one_writer.sh
set -eu

status=0
check() {
  what=$1
  pattern=$2
  files=$(grep -rlF --include='*.ml' "$pattern" lib bin tools bench || true)
  n=$(printf '%s' "$files" | grep -c . || true)
  echo "$what: $n"
  if [ "$n" -ne 1 ]; then
    printf '%s\n' "$files" | sed 's/^/  /'
    status=1
  fi
}

check "JSON string escapers" '\\u'
check "Chrome trace_event writers" '{\"traceEvents\":['
exit $status
