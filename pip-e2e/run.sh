#!/bin/sh
# Build the server as shipped and the harness, then run the harness.
# Run from the repository root: sh pip-e2e/run.sh [pip-e2e arguments]
set -e
manifest="$(dirname "$0")/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$manifest" -p pip-server --bin pip-serverd
cargo build --release --offline --quiet --manifest-path "$manifest"
exec "${CARGO_TARGET_DIR:-$(dirname "$0")/target}/release/pip-e2e" "$@"
