#!/usr/bin/env bash
# Runs `<ecsim_flow> ARGS...` and passes iff it exits 2 and its stderr is
# exactly `ecsim_flow: bad value for FLAG: 'TEXT'` — a malformed numeric flag
# is a usage error, never a crash.
#
# Usage: tests/cli/expect_bad_value.sh <ecsim_flow> <FLAG> <TEXT> ARGS...
set -uo pipefail

FLOW="${1:?usage: expect_bad_value.sh <ecsim_flow> <FLAG> <TEXT> ARGS...}"
FLAG="${2:?}"
TEXT="${3?}"
shift 3
want="ecsim_flow: bad value for ${FLAG}: '${TEXT}'"
err="$("${FLOW}" "$@" 2>&1 >/dev/null)"
rc=$?
if [[ ${rc} -ne 2 || "${err}" != "${want}" ]]; then
  echo "FAIL: ecsim_flow $* -> rc=${rc}, stderr:"
  echo "${err}"
  echo "expected rc=2, stderr: ${want}"
  exit 1
fi
echo "OK: ecsim_flow $* -> rc=2, ${want}"
