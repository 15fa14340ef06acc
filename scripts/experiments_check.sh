#!/usr/bin/env bash
# Golden-file check of the reproduction: rerun every experiment with the
# flags given (`make experiments-check` passes those of `make experiments`)
# into a temporary file and compare it byte for byte with the committed
# experiments_output.txt. On a difference it names the first table that
# differs and shows the start of the diff.
#
# A change that is meant to move a number regenerates the file with
# `make -s experiments > experiments_output.txt` and shows the diff.
set -euo pipefail

cd "$(dirname "$0")/.."

GO="${GO:-go}"
GOLDEN=experiments_output.txt

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

"$GO" run ./cmd/churnctl eval all "$@" >"$OUT"

if cmp -s "$GOLDEN" "$OUT"; then
	echo "experiments-check: $GOLDEN reproduces byte for byte"
	exit 0
fi
line="$(cmp "$GOLDEN" "$OUT" 2>&1 | sed -n 's/.*line \([0-9]*\).*/\1/p' || true)"
table="$(head -n "${line:-1}" "$OUT" | grep '^== ' | tail -n 1 || true)"
echo "experiments-check: $GOLDEN differs from a fresh run, first in ${table:-its first table} (line ${line:-?})" >&2
diff "$GOLDEN" "$OUT" | head -n 20 >&2 || true
exit 1
