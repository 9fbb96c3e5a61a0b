#!/usr/bin/env bash
# Offline CI: formatting, lints, and the tier-1 gate.
# No network access is required — all dependencies are vendored.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> every crate's unit tests, integration tests and doctests"
# Tier-1 runs only the facade package; this runs the whole workspace.
cargo test --workspace -q

echo "==> SIMD feature gate: simd-fieldset build + dataplane tests"
# The explicit SSE2 kernels live behind a feature flag; the gate keeps the
# cfg matrix (feature on/off) compiling and byte-equivalent everywhere.
cargo build --release --features simd-fieldset
cargo test -q --release -p hermes-dataplane --features simd-fieldset

echo "==> solver property suite"
cargo test -q --release --test solver_portfolio

echo "==> hot-path equivalence suite"
cargo test -q --release --test eval_equivalence

echo "==> migration property suite + mid-migration chaos soak"
cargo test -q --release --test migration --test migration_chaos

echo "==> target-model equivalence suite (default byte-identity + mixed topology + serde golden)"
cargo test -q --release --test target_equivalence

echo "==> durability suites: journal fuzz, event-schema round trip, recovery soak"
cargo test -q --release --test journal_fuzz --test event_schema --test recovery_chaos

echo "==> state-access soundness suite (fast-pass/oracle equivalence, relaxed-plan verification)"
cargo test -q --release --test stateaccess_soundness

echo "==> parallel deploy determinism smoke (--threads 4 vs --threads 1, byte-diff)"
# A 4-worker deploy must emit byte-identical artifacts to a single-worker
# deploy of the same workload — the CLI face of the determinism guarantee.
dep_1="$(cargo run -q --release -p hermes-cli --bin hermes -- \
  deploy tests/fixtures/audit_workload.p4dsl --topology linear:3 \
  --solver exact --threads 1 --json)"
dep_4a="$(cargo run -q --release -p hermes-cli --bin hermes -- \
  deploy tests/fixtures/audit_workload.p4dsl --topology linear:3 \
  --solver exact --threads 4 --json)"
dep_4b="$(cargo run -q --release -p hermes-cli --bin hermes -- \
  deploy tests/fixtures/audit_workload.p4dsl --topology linear:3 \
  --solver exact --threads 4 --json)"
if [[ "$dep_1" != "$dep_4a" || "$dep_4a" != "$dep_4b" ]]; then
  echo "deploy --threads output diverges across worker counts or runs:" >&2
  diff <(printf '%s\n' "$dep_1") <(printf '%s\n' "$dep_4a") >&2 || true
  diff <(printf '%s\n' "$dep_4a") <(printf '%s\n' "$dep_4b") >&2 || true
  exit 1
fi
echo "deploy --threads 4 matches --threads 1 byte-for-byte"

echo "==> chaos rollout smoke under --threads 4 (fixed seed)"
cargo run -q --release -p hermes-cli --bin hermes -- \
  chaos tests/fixtures/audit_workload.p4dsl --topology linear:3 \
  --solver exact --threads 4 --seed 7 > /dev/null
echo "chaos rollout with a 4-worker solver completed"

echo "==> audit-engine smoke (oracle equivalence + certificate fast-path)"
cargo run -q --release -p hermes-bench --bin audit -- --smoke

echo "==> workload audit golden diff (library + fixture, fat-tree k=4)"
# The CLI itself exits nonzero if any error-severity diagnostic fires;
# the diff additionally catches drift in warning/info findings so new
# diagnostics land with a reviewed golden update.
audit_out="$(cargo run -q --release -p hermes-cli --bin hermes -- \
  audit tests/fixtures/audit_workload.p4dsl --library --topology fattree:4 --json)"
if ! diff <(printf '%s\n' "$audit_out") tests/fixtures/audit_golden.json; then
  echo "audit output drifted from tests/fixtures/audit_golden.json" >&2
  echo "re-generate the golden if the new diagnostics are intentional" >&2
  exit 1
fi
echo "audit golden matches"

echo "==> state-access report golden diff (aggregation fixture, linear:3, relaxed mode)"
# Pins the classifier verdicts, the HS5xx diagnostics, the HC310
# certificate, and the relaxed-edge accounting in one artifact.
# REGEN_GOLDEN=1 ./ci.sh rewrites the fixture instead of failing.
state_out="$(cargo run -q --release -p hermes-cli --bin hermes -- \
  audit tests/fixtures/stateaccess_workload.p4dsl \
  --state-report --relax-state --topology linear:3 --json)"
if [[ "${REGEN_GOLDEN:-0}" == "1" ]]; then
  printf '%s\n' "$state_out" > tests/fixtures/stateaccess_golden.json
  echo "state-access golden regenerated"
elif ! diff <(printf '%s\n' "$state_out") tests/fixtures/stateaccess_golden.json; then
  echo "state report drifted from tests/fixtures/stateaccess_golden.json" >&2
  echo "re-generate with REGEN_GOLDEN=1 if the new verdicts are intentional" >&2
  exit 1
else
  echo "state-access golden matches"
fi

echo "==> merge golden (tdg_fingerprint + node/edge counts per program set and analysis mode)"
# Pins merge_all on the library, churn's live set and scale-wan's set under
# all three analysis modes. REGEN_GOLDEN=1 ./ci.sh rewrites the fixture.
cargo test -q --release --test merge_golden
if [[ "${REGEN_GOLDEN:-0}" == "1" ]]; then
  echo "merge golden regenerated"
else
  echo "merge golden matches"
fi

echo "==> determinism smokes (hotpath, portfolio, migration, targets, recovery; double run, byte-diff)"
# Each bench binary's --smoke mode prints only deterministic fields
# (plans, objectives, proofs, virtual-clock timings): hotpath solves the
# library workload at 1/2/4/8 workers, portfolio races with a fixed seed,
# 2 threads and a 2 s budget, migration compares staged vs all-at-once,
# targets plans per-target greedy, recovery crashes at every boundary.
# Two runs of each must be byte-identical.
for bin in hotpath portfolio migration targets recovery; do
  smoke_a="$(cargo run -q --release -p hermes-bench --bin "$bin" -- --smoke)"
  smoke_b="$(cargo run -q --release -p hermes-bench --bin "$bin" -- --smoke)"
  if [[ "$smoke_a" != "$smoke_b" ]]; then
    echo "$bin smoke is nondeterministic:" >&2
    diff <(printf '%s\n' "$smoke_a") <(printf '%s\n' "$smoke_b") >&2 || true
    exit 1
  fi
  echo "$bin smoke output stable: ${smoke_a:0:120}..."
done

echo "==> golden journal + schema gate"
# The journal of a clean deploy is byte-exact per format version; the
# dump also pins JOURNAL_FORMAT_VERSION and EVENT_SCHEMA_VERSION, so any
# wire or schema change lands with a reviewed fixture update.
if ! diff <(cargo run -q --release -p hermes-bench --bin recovery -- --golden) \
          tests/fixtures/journal_golden.txt; then
  echo "journal bytes or schema versions drifted from tests/fixtures/journal_golden.txt" >&2
  echo "re-generate with: cargo run --release -p hermes-bench --bin recovery -- --golden" >&2
  exit 1
fi
echo "journal golden matches"

echo "==> CLI JSON golden (deploy, migrate, chaos, recover on the audit fixture, linear:3)"
# Pins the pretty and compact JSON the CLI prints (plan artifacts, event
# logs, recovery summary) byte for byte. REGEN_GOLDEN=1 ./ci.sh rewrites
# the fixture instead of failing.
cli_journal="$(mktemp)"
hermes_cli() {
  cargo run -q --release -p hermes-cli --bin hermes -- "$@"
}
cli_out="$(
  fixture=tests/fixtures/audit_workload.p4dsl
  echo "### deploy --topology linear:3 --json"
  hermes_cli deploy "$fixture" --topology linear:3 --json --journal "$cli_journal"
  echo "### migrate --topology linear:3 --exclude 0 --json"
  hermes_cli migrate "$fixture" --topology linear:3 --exclude 0 --json
  echo "### chaos --topology linear:3 --seed 7 --json"
  hermes_cli chaos "$fixture" --topology linear:3 --seed 7 --json
  echo "### recover --json (journal of the deploy above)"
  hermes_cli recover --journal "$cli_journal" --json
)"
rm -f "$cli_journal"
if [[ "${REGEN_GOLDEN:-0}" == "1" ]]; then
  printf '%s\n' "$cli_out" > tests/fixtures/cli_json_golden.txt
  echo "CLI JSON golden regenerated"
elif ! diff <(printf '%s\n' "$cli_out") tests/fixtures/cli_json_golden.txt; then
  echo "CLI JSON output drifted from tests/fixtures/cli_json_golden.txt" >&2
  echo "re-generate with REGEN_GOLDEN=1 if the change is intentional" >&2
  exit 1
else
  echo "CLI JSON golden matches"
fi

echo "==> pipeline benchmark build + self-test"
# The benchmark is a workspace of its own that compiles against the
# crates' public API; its self-test smokes every workload twice.
CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path pipebench/Cargo.toml

echo "CI OK"
