#!/usr/bin/env bash
# ctest wrapper for a CLI call whose exit status is part of its contract.
#
#   expect_exit.sh <status> <command> [args...]
#
# Passes when the command exits with exactly <status>.
set -u

WANT="$1"
shift
"$@"
STATUS=$?
if [ "$STATUS" -ne "$WANT" ]; then
    echo "expect_exit: exit status $STATUS, want $WANT" >&2
    exit 1
fi
exit 0
