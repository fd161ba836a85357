#!/usr/bin/env bash
# ci.sh — the local CI gate: formatting, vet, build, the full test
# suite under the race detector, the graph/query/durability packages
# again under a GOMAXPROCS matrix (-cpu 1,4), and a short open-loop load
# smoke against an in-process server (kgload -smoke: zero 5xx, zero transport
# errors, p99 of admitted requests under the read route's deadline).
# Run it before every push; it is exactly what a hosted CI job would
# run, so a clean exit here means a clean check there.
#
# Usage:
#   scripts/ci.sh            # full gate
#   SKIP_RACE=1 scripts/ci.sh  # tests without -race (quick mode)
#   SKIP_LOAD=1 scripts/ci.sh  # skip the load smoke
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

if [[ "${SKIP_RACE:-}" == "1" ]]; then
    echo "== go test =="
    go test ./...
else
    echo "== go test -race =="
    go test -race ./...
fi

# The shard count follows GOMAXPROCS, so -cpu 4 runs four-shard graphs
# even on a one-CPU machine, where the run above sees a single shard and
# cannot catch an order or as-of contract that holds only there.
echo "== go test -cpu 1,4 (multi-shard matrix) =="
go test -count=1 -cpu 1,4 ./internal/kg ./internal/graphengine ./internal/server ./internal/wal ./internal/rules

if [[ "${SKIP_LOAD:-}" != "1" ]]; then
    echo "== load smoke (kgload) =="
    go run ./cmd/kgload -smoke -rate 300 -duration 2s
fi

echo "CI gate passed."
