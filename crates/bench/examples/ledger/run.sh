#!/usr/bin/env bash
# Builds the `p3-serve` binary and the ledger from source, then runs the
# ledger with the given arguments. Run it from the repository root:
#
#   bash crates/bench/examples/ledger/run.sh --workload trust-cold --seed 1 --seconds 20 --trace 0
#   bash crates/bench/examples/ledger/run.sh run --seed 1 --out FILE
#   bash crates/bench/examples/ledger/run.sh compare A.json B.json
#
# Both builds go to $CARGO_TARGET_DIR (default: target), where the ledger
# also finds `p3-serve` and writes its result and trace files (ledger/).
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p p3-service --bin p3-serve >&2
cargo build --release --offline --quiet --manifest-path crates/bench/examples/ledger/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ledger" "$@"
