#!/bin/sh
# Observability smoke test: run a small census with live progress enabled,
# a JSONL ledger and frequent periodic checkpoints, and a metrics snapshot,
# then verify the snapshot parses and carries the counters and latency
# histograms every stage is supposed to populate, checkpoint pauses
# included.
set -eu

cd "$(dirname "$0")/.."

dir="$(mktemp -d /tmp/ftpcensus-smoke.XXXXXX)"
trap 'rm -rf "$dir"' EXIT
snap="$dir/metrics.json"

go run ./cmd/ftpcensus -scale 65536 -progress 1s -metrics-out "$snap" -quiet \
	-out "$dir/census.jsonl" -checkpoint "$dir/census.checkpoint" -checkpoint-every 5ms

if ! grep -q '"census.checkpoints": [1-9]' "$snap"; then
	echo "smoke: the census wrote no periodic checkpoint" >&2
	exit 1
fi
go run ./scripts/checkmetrics "$snap"
echo "smoke: metrics snapshot OK"
