#!/usr/bin/env bash
# Full offline verification gate: build, tests, lints, formatting.
#
# Everything runs with the network disabled (CARGO_NET_OFFLINE) so the
# gate gives the same answer on an air-gapped machine as on a developer
# laptop. The workspace has no external dependencies, so an up-to-date
# Cargo.lock is all cargo needs.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release
# Tier-1 verification is `cargo test -q` at the root; `default-members`
# makes that every crate's tests. Both runs must pass, and tier-1 must
# run at least as many tests as `--workspace` does.
tests_log=$(mktemp -d)
count_tests() { grep -o '[0-9]* passed' "$1" | awk '{ s += $1 } END { print s + 0 }'; }
run cargo test -q --workspace 2>&1 | tee "$tests_log/workspace.txt"
run cargo test -q 2>&1 | tee "$tests_log/tier1.txt"
workspace_tests=$(count_tests "$tests_log/workspace.txt")
tier1_tests=$(count_tests "$tests_log/tier1.txt")
rm -rf "$tests_log"
echo "==> tier-1 ran $tier1_tests tests, --workspace ran $workspace_tests"
if [ "$tier1_tests" -lt "$workspace_tests" ]; then
    echo "error: tier-1 (cargo test -q) runs fewer tests than the workspace has" >&2
    exit 1
fi
# The benchmark is a workspace of its own (dfvbench/), so its self-tests
# run separately. They assert, among other things, that generated blocks
# have reproducible and distinct content hashes.
run cargo test --release --offline --manifest-path dfvbench/Cargo.toml
# Offline smoke test: fault-injection sweep + kernel watchdog demos. The
# example asserts zero masked faults and byte-for-byte report
# reproducibility, so a plain exit 0 is a real check.
run cargo run --release --example fault_campaign
# Offline smoke test: observability layer. The example localizes a seeded
# fault and asserts its combined VCD round-trips; here we additionally
# pin down the canonical JSON report — it must parse and be
# byte-reproducible across two separate processes.
obs_dir=$(mktemp -d)
trap 'kill $(jobs -p) 2> /dev/null || true; rm -rf "$obs_dir"' EXIT
run cargo run --release --example observability -- "$obs_dir/run1.json"
run cargo run --release --example observability -- "$obs_dir/run2.json"
run cmp "$obs_dir/run1.json" "$obs_dir/run2.json"
run cargo run --release -q -p dfv-bench --bin experiments -- e10 > /dev/null
# Offline smoke test: deterministic parallel scheduling. The same campaign
# runs serial and with a 4-worker pool; the canonical JSON a CI gate would
# diff must be byte-identical — the worker count is invisible in it.
run env DFV_WORKERS=1 cargo run --release --example parallel_campaign -- "$obs_dir/camp_w1.json"
run env DFV_WORKERS=4 cargo run --release --example parallel_campaign -- "$obs_dir/camp_w4.json"
run cmp "$obs_dir/camp_w1.json" "$obs_dir/camp_w4.json"
run cargo run --release -q -p dfv-bench --bin experiments -- e11 > /dev/null
# Offline smoke test: the simulation engines. The workload sweep runs
# the bytecode VM against the reference oracle, then 64 scalar VM
# simulators against one 64-lane LaneSim per workload, and panics on any
# output divergence (VM vs oracle hash, per-lane vs scalar hashes); the
# canonical JSON (deterministic counters, no wall-clock) must be
# byte-identical across two separate processes.
run cargo run --release -q -p dfv-bench --bin bench -- sim --smoke \
    --out "$obs_dir/bench_sim1_full.json" --canonical "$obs_dir/bench_sim1.json" > /dev/null
run cargo run --release -q -p dfv-bench --bin bench -- sim --smoke \
    --out "$obs_dir/bench_sim2_full.json" --canonical "$obs_dir/bench_sim2.json" > /dev/null
run cmp "$obs_dir/bench_sim1.json" "$obs_dir/bench_sim2.json"
run cargo run --release -q -p dfv-bench --bin experiments -- e12 > /dev/null
# Offline smoke test: crash-tolerant campaigns. A clean journaled run
# produces the reference report; a second run is hard-killed (abort())
# by a chaos fail point the instant its 3rd journal record lands; the
# resumed run must replay the journaled verdicts and write a canonical
# report byte-identical to the clean one.
run cargo build --release --example crash_resume
run ./target/release/examples/crash_resume "$obs_dir/clean.journal" "$obs_dir/camp_clean.json"
echo "==> crash_resume --kill-after 3 (must die)"
if ./target/release/examples/crash_resume "$obs_dir/kill.journal" "$obs_dir/camp_never.json" --kill-after 3 2> /dev/null; then
    echo "error: killed run exited 0" >&2
    exit 1
fi
test ! -e "$obs_dir/camp_never.json"
run ./target/release/examples/crash_resume "$obs_dir/kill.journal" "$obs_dir/camp_resumed.json"
run cmp "$obs_dir/camp_clean.json" "$obs_dir/camp_resumed.json"
run cargo run --release -q -p dfv-bench --bin experiments -- e13 > /dev/null
# Offline smoke test: the dfv-serve daemon over a real loopback socket.
# An uninterrupted daemon produces the baseline report; a second daemon
# is hard-killed (abort()) by a chaos fail point the instant its 3rd
# journal record lands, mid-campaign, taking the client's connection
# with it; a restarted daemon over the same state dir must replay the
# journal and hand the resubmitting client a canonical report that is
# byte-identical to the baseline. Graceful drain must exit 0.
run cargo build --release --example serve_demo
serve_demo=./target/release/examples/serve_demo
wait_addr() {
    for _ in $(seq 100); do
        [ -f "$1/serve.addr" ] && return 0
        sleep 0.1
    done
    echo "error: daemon never wrote $1/serve.addr" >&2
    exit 1
}
echo "==> serve_demo serve (baseline daemon)"
"$serve_demo" serve "$obs_dir/serve_base" 2> /dev/null &
base_pid=$!
wait_addr "$obs_dir/serve_base"
run "$serve_demo" submit "$obs_dir/serve_base" --journal job.journal --out "$obs_dir/serve_base.json" > /dev/null 2>&1
run "$serve_demo" drain "$obs_dir/serve_base" > /dev/null
run wait "$base_pid"
echo "==> serve_demo serve --kill-after 3 (daemon must die mid-campaign)"
"$serve_demo" serve "$obs_dir/serve_crash" --kill-after 3 2> /dev/null &
crash_pid=$!
wait_addr "$obs_dir/serve_crash"
if "$serve_demo" submit "$obs_dir/serve_crash" --journal job.journal --out "$obs_dir/serve_never.json" > /dev/null 2>&1; then
    echo "error: submission against the killed daemon succeeded" >&2
    exit 1
fi
if wait "$crash_pid"; then
    echo "error: killed daemon exited 0" >&2
    exit 1
fi
test ! -e "$obs_dir/serve_never.json"
echo "==> serve_demo serve (restarted over the crashed state dir)"
rm -f "$obs_dir/serve_crash/serve.addr"
"$serve_demo" serve "$obs_dir/serve_crash" 2> /dev/null &
resume_pid=$!
wait_addr "$obs_dir/serve_crash"
run "$serve_demo" submit "$obs_dir/serve_crash" --journal job.journal --out "$obs_dir/serve_resumed.json" > /dev/null 2>&1
run "$serve_demo" drain "$obs_dir/serve_crash" > /dev/null
run wait "$resume_pid"
run cmp "$obs_dir/serve_base.json" "$obs_dir/serve_resumed.json"
# A warm resubmit with one block changed travels as a plan delta naming
# that one slot, and its store hits come back in one frame. Its report
# must byte-match a fresh daemon's for the same two plans, the edited
# one sent in full by a fresh client. A second warm resubmit reverts the
# edit: its answer comes by reference, carrying only the reverted row,
# and the report the client rebuilds must byte-match the fresh daemon's
# for the plan sent in full once more.
echo "==> serve_demo submit --edit-resubmit (plan delta vs full submission)"
"$serve_demo" serve "$obs_dir/serve_delta" 2> /dev/null &
delta_pid=$!
wait_addr "$obs_dir/serve_delta"
run "$serve_demo" submit "$obs_dir/serve_delta" --edit-resubmit --out "$obs_dir/serve_delta.json" \
    --revert-out "$obs_dir/serve_delta_revert.json" > /dev/null 2>&1
run "$serve_demo" drain "$obs_dir/serve_delta" > /dev/null
run wait "$delta_pid"
"$serve_demo" serve "$obs_dir/serve_full" 2> /dev/null &
full_pid=$!
wait_addr "$obs_dir/serve_full"
run "$serve_demo" submit "$obs_dir/serve_full" > /dev/null 2>&1
run "$serve_demo" submit "$obs_dir/serve_full" --edited --out "$obs_dir/serve_full.json" > /dev/null 2>&1
run "$serve_demo" submit "$obs_dir/serve_full" --out "$obs_dir/serve_full_revert.json" > /dev/null 2>&1
run "$serve_demo" drain "$obs_dir/serve_full" > /dev/null
run wait "$full_pid"
run cmp "$obs_dir/serve_delta.json" "$obs_dir/serve_full.json"
run cmp "$obs_dir/serve_delta_revert.json" "$obs_dir/serve_full_revert.json"
# dfv-serve's suites in release, the optimization level the benchmark
# runs the daemon at: the wire goldens and ref-id reuse tests beside
# robustness and hostile_input.
run cargo test -q --release -p dfv-serve
run cargo run --release -q -p dfv-bench --bin experiments -- e14 > /dev/null
# The 64-lane batched engine (its sweep rides in `bench sim` above): the
# lane-parity property suite pins VM vs LaneSim vs full-oracle 3-way
# equivalence in release.
run cargo test -q --release -p dfv-designs --test prop_sim_diff
# Every crate on the lane path, in release: the transposes (dfv-bits),
# LaneSim (dfv-rtl), stimulus draws (dfv-cosim), StimulusSweep
# (dfv-core) and the designs' parity suites. Release builds compile
# debug_assert! out, so a bound checked only by one (such as a lane
# index) goes unchecked only here.
run cargo test -q --release -p dfv-bits -p dfv-rtl -p dfv-cosim -p dfv-core -p dfv-designs
run cargo run --release -q -p dfv-bench --bin experiments -- e15 > /dev/null
# The register-bytecode VM's instruction suite runs in release — the
# same optimization level the benchmarks use — and so does dfv-slmir's,
# whose prop_elab pins compiled SLM-C functions to the tree-walker
# (identical RunResults, and identical fuel and call-depth errors).
run cargo test -q --release -p dfv-vm
run cargo test -q --release -p dfv-slmir
run cargo run --release -q -p dfv-bench --bin experiments -- e16 > /dev/null
# Stress the determinism property tests with the test harness itself
# running them concurrently (worker pools inside worker pools), and the
# crash-tolerance properties: kill-at-random-journal-point + resume.
run cargo test -q --release -p dfv-core --test prop_parallel -- --test-threads 8
run cargo test -q --release -p dfv-core --test prop_crash
# Offline smoke test: the SAT-sweeping miter front-end. Every workload is
# checked sweep-off and sweep-on with verdict and counterexample-location
# parity asserted inside the harness (the run panics on any divergence),
# and the canonical JSON (SAT conflicts, CNF sizes, sweep counters — no
# wall-clock) must be byte-identical across two separate processes. The
# seeded verdict-parity property suite then runs in release, and E17
# gates the "sweeping never changes a verdict" claim at full width.
run cargo run --release -q -p dfv-bench --bin bench -- sec --smoke \
    --out "$obs_dir/bench_sec1_full.json" --canonical "$obs_dir/bench_sec1.json" > /dev/null
run cargo run --release -q -p dfv-bench --bin bench -- sec --smoke \
    --out "$obs_dir/bench_sec2_full.json" --canonical "$obs_dir/bench_sec2.json" > /dev/null
run cmp "$obs_dir/bench_sec1.json" "$obs_dir/bench_sec2.json"
# Counters as the regression gate: a full-size run's deterministic
# counters (SAT conflicts, CNF vars and clauses, every sweep.* counter,
# sweep off and on) must equal the ones checked in with BENCH_sec.json,
# the CDCL solver's full search counters (conflicts, decisions,
# propagations, restarts, reductions) the ones in BENCH_sat.json, and
# the simulators' (steps, passes, node_evals, output hashes, VM and
# oracle, scalar and batched) the ones in BENCH_sim.json. Only
# the timing sections may move; a change that means to move a counter
# regenerates the file and the diff is reviewed.
counters() { grep -o '"counters":{[^}]*}' "$1" | tr ',' '\n'; }
gate_counters() {
    echo "==> counters of bench $1 == $2"
    if ! diff <(counters "$2") <(counters "$3"); then
        echo "error: bench $1 counters differ from the checked-in $2" >&2
        exit 1
    fi
}
run cargo run --release -q -p dfv-bench --bin bench -- sec \
    --out "$obs_dir/bench_sec_full.json" --canonical "$obs_dir/bench_sec.json" > /dev/null
gate_counters sec BENCH_sec.json "$obs_dir/bench_sec.json"
run cargo run --release -q -p dfv-bench --bin bench -- sat \
    --out "$obs_dir/bench_sat_full.json" --canonical "$obs_dir/bench_sat.json" > /dev/null
gate_counters sat BENCH_sat.json "$obs_dir/bench_sat.json"
run cargo run --release -q -p dfv-bench --bin bench -- sim \
    --out "$obs_dir/bench_sim_full.json" --canonical "$obs_dir/bench_sim.json" > /dev/null
gate_counters sim BENCH_sim.json "$obs_dir/bench_sim.json"
# All of dfv-sec's tests in release, the optimization level the
# benchmarks run at: the word DAG's and the symbolic simulator's unit
# tests as well as the property suites.
run cargo test -q --release -p dfv-sec
run cargo test -q --release -p dfv-sec --test prop_sweep
run cargo test -q --release -p dfv-sec --test prop_bitblast
run cargo test -q --release -p dfv-sat --test prop_solver
run cargo run --release -q -p dfv-bench --bin experiments -- e17 > /dev/null
run cargo clippy --all-targets --workspace -- -D warnings
# Every crate's rustdoc builds warning-free, so an intra-doc link to an
# item that was renamed or deleted fails here instead of dangling.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
run cargo fmt --all --check

echo "==> all checks passed"
