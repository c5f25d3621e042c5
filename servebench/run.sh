#!/usr/bin/env bash
# Builds ceci-serve, ceci-shard and the load generator from source, then
# runs one benchmark workload:
#
#   bash servebench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target/) and to stderr; the last stdout line is the result.
set -euo pipefail

here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p ceci-service --bin ceci-serve --bin ceci-shard >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/servebench" "$@" --bin-dir "$CARGO_TARGET_DIR/release"
