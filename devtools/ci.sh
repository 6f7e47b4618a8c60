#!/usr/bin/env bash
# The CI gate: formatting, lints (clippy -D warnings), release build, the
# throughput gate on the benchmark of record, the release-mode timing
# check, the full test suite, the parser fuzz pass and results freshness.
# Nothing here writes a tracked file. The workspace has no crates.io
# dependencies, so every step builds with no network.
#
# Usage:
#   devtools/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "ci: cargo fmt --check"
cargo fmt --all -- --check

echo "ci: cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "ci: cargo build --release"
cargo build --release --workspace

# Median execs_per_s of the benchmark-of-record command below over five
# runs on a 2-core x86_64 VM; see CHANGES.md. The gate fails a drop of
# more than 20% below it.
CAMPAIGN_EXECS_PER_S_REF=1400005

echo "ci: throughput gate (perfbench campaign execs_per_s >= 0.8 x $CAMPAIGN_EXECS_PER_S_REF)"
line=$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
  --workload campaign --seed 1)
echo "$line"
if [[ "$line" != '{"correct": true,'* ]]; then
  echo "ci: perfbench campaign run is not correct" >&2
  exit 1
fi
execs_per_s=$(sed -n 's/.*"execs_per_s": {"value": \([^,]*\),.*/\1/p' <<<"$line")
if ! awk -v v="$execs_per_s" -v ref="$CAMPAIGN_EXECS_PER_S_REF" 'BEGIN { exit !(v >= 0.8 * ref) }'; then
  echo "ci: campaign execs_per_s $execs_per_s fell more than 20% below $CAMPAIGN_EXECS_PER_S_REF" >&2
  exit 1
fi

echo "ci: timing check (wall-clock overheads, contention, scaling; release build)"
./target/release/timing_check

echo "ci: cargo test"
cargo test -q

echo "ci: parser fuzz smoke (in-tree fallback fuzzer, ~30s time-box)"
cargo build --release -p torpedo-bench --bin parser_fuzz
./target/release/parser_fuzz --secs 30
# Coverage-guided pass when cargo-fuzz + nightly are available (the
# fallback above always runs). The targets are fuzz/Cargo.toml's [[bin]]s.
if command -v cargo-fuzz >/dev/null 2>&1 && cargo +nightly --version >/dev/null 2>&1; then
  echo "ci: cargo-fuzz pass (30s per target)"
  targets=$(awk '/^\[\[bin\]\]/ { bin = 1 } bin && /^name = / { gsub(/^name = "|"$/, ""); print; bin = 0 }' fuzz/Cargo.toml)
  for target in $targets; do
    (cd fuzz && cargo +nightly fuzz run "$target" "corpora/$target" -- -max_total_time=30)
  done
else
  echo "ci: cargo-fuzz or nightly unavailable; skipped coverage-guided pass" >&2
fi

echo "ci: results freshness (regenerate tables, diff against committed)"
regen_dir=$(mktemp -d)
OUT_DIR="$regen_dir" devtools/regen-results.sh
if ! diff -ru results "$regen_dir"; then
  echo "ci: results/ is stale — run devtools/regen-results.sh and commit" >&2
  exit 1
fi
rm -rf "$regen_dir"

echo "ci: all gates passed"
