#!/usr/bin/env bash
# Smoke test of the benchmark harness: its unit tests, then a --quick
# (2 s) untraced and traced run of all four workloads. Every run must
# exit 0 and end with a result line that says "correct":true. Run from
# anywhere; a later PR can call this from ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

for workload in analyst ingest_durable_x10 mixed mixed_sharded; do
  for trace in 0 1; do
    last=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
      --workload "$workload" --seed 7 --quick --trace "$trace" | tail -n 1)
    case "$last" in
      '{"correct":true,'*) echo "ok   $workload --trace $trace" ;;
      *) echo "FAIL $workload --trace $trace: $last" >&2; exit 1 ;;
    esac
  done
done
