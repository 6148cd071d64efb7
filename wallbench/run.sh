#!/usr/bin/env bash
# Build the benchmark (a no-op when nothing changed) and run it:
#   bash wallbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# A traced run uses the binary with the counting allocator installed.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"
bin=eoml-wallbench
[[ " $* " == *" --trace 1 "* ]] && bin=eoml-wallbench-traced
exec "$target/release/$bin" "$@"
