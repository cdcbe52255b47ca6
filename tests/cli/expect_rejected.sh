#!/usr/bin/env bash
# ctest driver for a CLI call that must reject its input cleanly.
#
#   expect_rejected.sh <reason> <command> [args...]
#
# Passes when the command exits with status 1, names <reason> on
# stderr, and prints no "fatal:" or "panic:" line: a bad input file is
# a reported error, never a crash.
set -u

REASON="$1"
shift
ERR="$(mktemp)"
trap 'rm -f "$ERR"' EXIT

"$@" >/dev/null 2>"$ERR"
STATUS=$?
cat "$ERR" >&2

if [ "$STATUS" -ne 1 ]; then
    echo "expect_rejected: exit status $STATUS, want 1" >&2
    exit 1
fi
if ! grep -qF -- "$REASON" "$ERR"; then
    echo "expect_rejected: stderr does not name '$REASON'" >&2
    exit 1
fi
if grep -qE '(fatal|panic):' "$ERR"; then
    echo "expect_rejected: the command died instead of rejecting" >&2
    exit 1
fi
exit 0
