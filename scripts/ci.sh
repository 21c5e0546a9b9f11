#!/usr/bin/env bash
# Offline CI pipeline: the same staged gates locally and in
# .github/workflows/ci.yml. Every stage runs with --offline — the
# workspace has no registry dependencies, so a network-less container
# must pass end-to-end.
#
# Stages (in order):
#   fmt     cargo fmt --all --check
#   clippy  cargo clippy, all targets, warnings are errors
#   check   scripts/check.sh (release build + full test suite + bench smoke)
#   golden  committed paper artifacts still match the binaries
#           (Fig. 5-7's logical schedule-space views included, so how
#           plan versions are stored never shows in them), and the
#           served response bodies match artifacts/bodies_*.txt
#   chaos   herc chaos over the fixed seed set (failure semantics)
#   obs     tracing gate: obs property + scenario tests, session
#           isolation (obs + hercules trace unit tests in debug, a
#           trace taken under serve load), herc trace
#           exports of fig8 + chaos validate as JSON, the end-to-end
#           trace-id correlation suite, the B16 always-on flight
#           recorder budget, and CLI-path checks that a traced oneshot
#           request lands in the access log + flight dump and that
#           /metrics?format=prom exposes the labeled series
#   ws      workspace kernel gate: threaded stress + compaction
#           property + store conformance + B12 scaling tests, then the
#           end-to-end create->plan->crash->recover->gc->query script
#           (with a storage-v3 leg: orphan data-segment bytes are
#           tolerated on reopen, reported by fsck, dropped by
#           --repair; then a corrupt->fsck->repair->re-serve leg; then
#           an unchanged re-plan that must append exactly two records,
#           a carry-plan last, and read the same after reopen and gc),
#           the carried-versions differential test, the planning-view
#           property, the restored-vs-live property and the
#           planner-metrics tests
#   fsck    durability gate: the 64-seed fault-injection sweep over
#           FaultVfs, the commit crash sweep (a power loss at every
#           write point of a compaction, a replace_db and a create
#           reopens one generation; fsck heals each root in one
#           repair), the restamp properties (a compacted database is
#           its reloaded snapshot: same dump, same stale-handle
#           refusals, same plans, status and forecasts), the fsync
#           count of a gc, the corruption-corpus goldens in
#           artifacts/corrupt_roots/ (v3 data-segment cases, a
#           half-written next generation and their repair included),
#           the storage-v3 goldens and v1/v2
#           compatibility, write groups (ENOSPC at every write point
#           and a crash at every mutation of plan + execute, the
#           tail/segment golden of an asic_flow run, the store's group
#           unit tests), the CRC32 lane kernel against a bitwise
#           reference, the snapshot/tail parser corpus and properties,
#           and the B15 checksum-overhead gate (v2 framing <= 1.2x v1
#           on append and open)
#   serve   workspace-server gate: differential transport conformance,
#           protocol fuzzer, 64-seed chaos-under-load sweep, herc
#           serve CLI coverage, B13 scaling/coalescing floor, and a
#           quick B13 latency-percentile artifact
#   scale   data-oriented CPM gate: B14 shape tests (subquadratic
#           full pass, >=100x incremental advantage, thread-count
#           invariance, a cache-hit plan under 8x the time for 4x the
#           activities) plus a quick 10^5-activity B14 artifact
#   exec    policy-engine gate: the cross-policy property suite
#           (outcome-set invariance, replay ≡ live for every policy,
#           uniform-cluster equivalence), a per-policy chaos leg
#           pinning each policy over the shared seed set, and the B17
#           acceptance tests (schedule-aware policies beat Fifo's
#           simulated makespan; Fifo on one worker stays within 1.05x
#           of the serial reference wall-clock)
#   bench   bench_compare: fresh quick run vs committed BENCH_schedflow.json
#   perfbench  the end-to-end benchmark (perfbench/, a package of its
#           own built against the crates by path) still builds, and
#           one-second plan_large, serve_mixed and history_deep runs,
#           untraced and traced, each end with "correct": true and
#           "failed": 0
#   doc     rustdoc builds without warnings
#
# Usage:
#   scripts/ci.sh                 run every stage, fail fast
#   scripts/ci.sh --stage NAME    run a single stage (repeatable)
#   scripts/ci.sh --list          list stage names
#
# The run ends with a per-stage timing summary; exit status is
# non-zero if any executed stage failed.

set -uo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES=(fmt clippy check golden chaos obs ws fsck serve scale exec bench perfbench doc)

usage() {
    echo "usage: scripts/ci.sh [--stage NAME]... [--list]" >&2
    echo "stages: ${ALL_STAGES[*]}" >&2
}

declare -a SELECTED=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --stage)
            [[ $# -ge 2 ]] || { usage; exit 2; }
            SELECTED+=("$2")
            shift 2
            ;;
        --list)
            printf '%s\n' "${ALL_STAGES[@]}"
            exit 0
            ;;
        --help|-h)
            usage
            exit 0
            ;;
        *)
            echo "ci.sh: unknown argument: $1" >&2
            usage
            exit 2
            ;;
    esac
done
if [[ ${#SELECTED[@]} -eq 0 ]]; then
    SELECTED=("${ALL_STAGES[@]}")
fi
for s in "${SELECTED[@]}"; do
    case " ${ALL_STAGES[*]} " in
        *" $s "*) ;;
        *) echo "ci.sh: unknown stage: $s" >&2; usage; exit 2 ;;
    esac
done

echo "== toolchain =="
rustc --version
cargo --version

stage_fmt() {
    cargo fmt --all -- --check
}

stage_clippy() {
    cargo clippy --offline --workspace --all-targets -- -D warnings
}

stage_check() {
    scripts/check.sh
}

stage_golden() {
    # The golden-file diff: committed artifacts vs today's binaries,
    # Fig. 5-8 and Table 1, then the served response bodies (status,
    # plan, replan, run) byte for byte.
    cargo test -q --offline --release -p bench --test golden || return 1
    cargo test -q --offline --release -p serve --test golden_bodies
}

stage_chaos() {
    # Failure-semantics gate: the same fixed seed set the chaos
    # property suite sweeps (tests/chaos_properties.rs), replayed via
    # the interactive tool so a red stage maps 1:1 onto a local
    # `herc chaos --seed N` repro. Release mode keeps it bounded.
    cargo run -q --release --offline -p dac95-schedflow --bin herc -- \
        chaos --seed 0 --count 64
}

stage_obs() {
    # Tracing gate: the obs property suite (well-formed traces,
    # deterministic merge, lane ordering), the scenario/golden tests,
    # and an end-to-end `herc trace` of both named scenarios — the
    # exact command a user runs — with the exports checked as JSON.
    cargo test -q --offline --release -p dac95-schedflow \
        --test obs_properties --test trace_scenarios || return 1
    # Session isolation, in debug with default test threads — the
    # setup where a session picking up other threads' spans shows: the
    # collector's own tests, the scenario traces' determinism, and a
    # `GET /trace/fig8` under status/replan load that must match the
    # idle server's bytes.
    cargo test -q --offline -p obs --lib || return 1
    cargo test -q --offline -p hercules --lib trace || return 1
    cargo test -q --offline -p serve --test trace_isolation || return 1
    # Live-telemetry correlation over real TCP: one trace id must show
    # up in the echoed header, the JSONL access log, the filtered
    # flight dump, and the labeled metrics (tests/serve_telemetry.rs).
    cargo test -q --offline --release -p dac95-schedflow \
        --test serve_telemetry || return 1
    # B16 acceptance: the always-on flight recorder stays <= 1.15x on
    # the B2 plan and B13 serve bodies — a tax, not a mode.
    cargo test -q --offline --release -p bench \
        --test obs_live || return 1
    mkdir -p target/traces
    # The same correlation through the user-facing CLI: a oneshot
    # request with a known trace id must land in the access log and be
    # filterable back out of the flight dump. Both files ship in the
    # `traces` CI artifact.
    rm -f target/traces/ci_access.jsonl
    cargo run -q --release --offline -p dac95-schedflow --bin herc -- \
        serve :memory: --access-log target/traces/ci_access.jsonl \
        --trace-id deadbeef \
        --oneshot GET '/debug/flight?trace=deadbeef' \
        > target/traces/ci_flight.json || return 1
    grep -q '"trace":"00000000deadbeef"' target/traces/ci_flight.json || {
        echo "obs stage: flight dump lost the request's trace id" >&2
        return 1
    }
    grep -q '"trace":"00000000deadbeef"' target/traces/ci_access.jsonl || {
        echo "obs stage: access log lost the request's trace id" >&2
        return 1
    }
    # Prometheus exposition through the CLI path: the scrape must carry
    # the typed, labeled series `herc top` and a real scraper consume
    # (the telemetry test above runs the full grammar validator).
    cargo run -q --release --offline -p dac95-schedflow --bin herc -- \
        serve :memory: --oneshot GET '/metrics?format=prom' \
        > target/traces/ci_metrics.prom || return 1
    grep -q '^# TYPE serve_requests counter$' target/traces/ci_metrics.prom &&
        grep -q '^serve_requests{endpoint="metrics"} 1$' \
            target/traces/ci_metrics.prom || {
        echo "obs stage: /metrics?format=prom lost the labeled series" >&2
        return 1
    }
    cargo run -q --release --offline -p dac95-schedflow --bin herc -- \
        trace fig8 --logical --out target/traces/fig8_trace.json || return 1
    cargo run -q --release --offline -p dac95-schedflow --bin herc -- \
        trace chaos --out target/traces/chaos_trace.json || return 1
    # The committed golden is the same logical-timebase fig8 export:
    # the CLI must reproduce it byte-for-byte.
    cmp artifacts/fig8_trace.json target/traces/fig8_trace.json || {
        echo "obs stage: herc trace fig8 diverges from artifacts/fig8_trace.json" >&2
        return 1
    }
    # Exports must load as JSON (chrome://tracing / Perfetto input).
    if command -v python3 >/dev/null 2>&1; then
        python3 -m json.tool target/traces/fig8_trace.json >/dev/null || return 1
        python3 -m json.tool target/traces/chaos_trace.json >/dev/null || return 1
    else
        echo "obs stage: python3 not found; skipping external JSON parse check" >&2
    fi
}

stage_ws() {
    # Workspace-kernel gate: interleaved multi-session determinism,
    # snapshot + tail ≡ full replay on chaos seeds, both store
    # backends through the shared conformance suite (epoch switches
    # and torn-tail repair on the real filesystem included), project
    # removal under live holders, carried plan versions ≡ versions
    # written in full (seeded op sequences, reopen ≡ live), and the
    # B12 lock-granularity scaling floor (≥2x throughput 1 -> 4
    # threads).
    cargo test -q --offline --release -p metadata \
        --test store_conformance || return 1
    cargo test -q --offline --release -p hercules --lib workspace || return 1
    # The planning view: a warm manager (kept estimates, plan caches,
    # levelled schedules) plans as a cold one, and the planner's
    # metrics count recomputed estimates and reused levelling. A
    # manager restored from the dump reads the live one's clock and
    # plans, forecasts and reports status as it does.
    cargo test -q --offline --release -p hercules --lib view_properties || return 1
    cargo test -q --offline --release -p hercules \
        --test workspace_stress --test compaction_property \
        --test carry_differential --test plan_metrics \
        --test restore_properties || return 1
    cargo test -q --offline --release -p bench \
        --test workspace_scaling || return 1
    # End-to-end lifecycle through the user-facing CLI, torn-tail
    # crash, orphaned data-segment bytes and a carried re-plan
    # included.
    scripts/ws_e2e.sh
}

stage_fsck() {
    # Durability gate. The chaos sweep drives 64 fault-seeded sessions
    # (ENOSPC, EIO, short writes, lying fsync, crash truncation)
    # through the persistent store and asserts it either serves an
    # acknowledged state or reports typed corruption that fsck can
    # repair — never silently wrong, never a panic. The corpus goldens
    # pin the scrub verdicts on committed damaged roots; the B15 gate
    # holds checksummed framing to <= 1.2x the un-checksummed paths.
    # The vfs unit tests pin one fault model for by-path appends and
    # held append handles; the vfs conformance suite pins binary reads
    # on every backend. Storage v3: golden snapshot/tail/segment
    # bytes, and v1/v2 roots opening unmodified and compacting or
    # repairing into v3 with byte-identical dumps. Write groups: a
    # planning pass and each activity step reach the store as one
    # segment write and one tail append, under the same ENOSPC, crash
    # and golden-bytes contract as per-op appends; the CRC32 lane
    # kernel must equal a bit-at-a-time reference at every length.
    # Commits: a power loss at every write point of a compaction, a
    # replace_db and a create reopens the old generation or the new
    # one, and fsck calls each crashed root healthy (naming what the
    # dead commit left uncommitted) and heals it in one repair. A
    # compaction restamps the live database instead of reloading it:
    # the restamp properties hold it to the reload (dump, stale-handle
    # refusals, then plans, status and forecasts), and a gc makes 6
    # fsyncs, 5 when the segment did not grow.
    cargo test -q --offline --release -p simtools --lib vfs || return 1
    cargo test -q --offline --release -p metadata --lib -- \
        framing::tests::crc32 store::tests::write_group \
        store::tests::compaction_ fsck::tests || return 1
    cargo test -q --offline --release -p metadata \
        --test commit_crash --test db_properties || return 1
    cargo test -q --offline --release -p hercules \
        --test compaction_property -- a_restamped_gc || return 1
    cargo test -q --offline --release -p hercules --lib -- \
        manager::tests::write_group || return 1
    cargo test -q --offline --release -p hercules \
        --test store_write_groups || return 1
    cargo test -q --offline --release -p simtools \
        --test vfs_conformance || return 1
    cargo test -q --offline --release -p metadata \
        --test fault_chaos --test store_v3_golden --test store_compat || return 1
    # The snapshot and tail line parsers: the corpus pins what each
    # accepts and refuses (line and message); the seeded properties
    # round-trip random databases and read random edits of snapshots
    # and journals as the split_whitespace readers before them did.
    cargo test -q --offline --release -p metadata \
        --test parse_corpus --test parse_properties || return 1
    cargo test -q --offline --release -p dac95-schedflow \
        --test fsck_corpus --test fsck_segment || return 1
    cargo test -q --offline --release -p bench \
        --test store_durability
}

stage_serve() {
    # Workspace-server gate: the server must be a pure, robust, scaling
    # transport over the kernel. Differential conformance (HTTP ≡
    # direct Workspace calls, byte-identical), the seeded protocol
    # fuzzer with shrinking (malformed request lines, bad auth,
    # truncated bodies, header floods, mid-request disconnects — never
    # a panic), the 64-seed chaos-under-load sweep (PR-3 invariants +
    # generational-ID safety under concurrent clients, crash -> recover
    # -> re-serve), and `herc serve` CLI coverage.
    cargo test -q --offline --release -p serve || return 1
    cargo test -q --offline --release -p dac95-schedflow \
        --test serve_differential --test serve_chaos --test cli || return 1
    # B13 acceptance floor: ≥2x request throughput from 1 -> 4 pool
    # workers, and coalesced replan kernel passes < client requests.
    cargo test -q --offline --release -p bench \
        --test serve_scaling || return 1
    # Quick B13 rerun: the latency-percentile report CI uploads as an
    # artifact (p50/p95/p99 per worker count).
    cargo run -q --release --offline -p bench --bin benchmarks -- \
        serve_load --quick --out target/serve_latency.json
}

stage_scale() {
    # Data-oriented CPM gate: the B14 acceptance tests assert the
    # *shape* of the flat core with host-independent ratios — the full
    # pass (one flat forward and one flat backward sweep) scales
    # subquadratically 10^4 -> 10^5, a slack-absorbed leaf slip stays
    # >=100x faster than a full recompute with an O(1) dirty cone,
    # and a whole cache-hit `Hercules::plan` (extraction,
    # estimates, levelling, recorded versions) costs under 8x the time
    # for 4x the activities (501 -> 2001). Release mode: debug builds
    # cross-check every incremental update against a full pass, which
    # is the very cost the gate measures.
    cargo test -q --offline --release -p bench \
        --test cpm_scale || return 1
    # Quick B14 rerun at 10^5: the scale report CI uploads as an
    # artifact (full / inc_leaf medians).
    cargo run -q --release --offline -p bench --bin benchmarks -- \
        cpm_scale --quick --out target/cpm_scale.json
}

stage_exec() {
    # Policy-engine gate. The property suite sweeps seeded scenarios
    # across every built-in policy: identical outcome sets, journal
    # replay ≡ live under explicit clusters, and uniform-cluster ≡
    # implicit equivalence. The chaos legs then pin each policy over
    # the same fixed seed set the chaos stage sweeps, exercising the
    # PR-3 invariants per policy through the user-facing CLI.
    cargo test -q --offline --release -p dac95-schedflow \
        --test policy_properties || return 1
    local policy
    for policy in fifo minslack heft worksteal; do
        cargo run -q --release --offline -p dac95-schedflow --bin herc -- \
            chaos --seed 0 --count 16 --policy "$policy" || return 1
    done
    # B17 acceptance: MinSlack/HEFT beat Fifo's simulated makespan on
    # the contended heterogeneous scenario, and Fifo on one implicit
    # worker stays within 1.05x of the serial reference wall-clock.
    cargo test -q --offline --release -p bench \
        --test exec_policies
}

stage_bench() {
    # Regression gate: fresh quick run vs the committed baseline.
    # Release mode — the baseline was measured in release. Shared CI
    # hosts show multi-x timing swings between runs, so a transient
    # all-benches-slow verdict gets up to two retries; a genuine code
    # regression fails all three attempts identically.
    local attempt
    for attempt in 1 2 3; do
        if cargo run -q --release --offline -p bench --bin bench_compare; then
            return 0
        fi
        echo "bench stage: attempt $attempt failed; retrying in case of host timing noise" >&2
        sleep 2
    done
    return 1
}

stage_perfbench() {
    # The benchmark is outside the workspace, so `cargo build
    # --workspace` never compiles it: build it here, so a crate API
    # change that breaks it fails CI instead of the benchmark. The
    # smoke runs exercise every output check of the kernel path, of
    # the served path, and of the storage path: history_deep is the
    # one workload that checks dumps stay byte-identical across a
    # reopen and a gc. The traced run (`--trace 1`) is the only one
    # that also calls the kernel from outside, layer by layer
    # (`extract_task_tree`, `duration_estimate`, `level_resources`), so
    # each workload runs both ways.
    cargo build --release --offline --manifest-path perfbench/Cargo.toml || return 1
    local workload trace result
    for workload in plan_large serve_mixed history_deep; do
        for trace in 0 1; do
            result=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
                --workload "$workload" --seconds 1 --trace "$trace" | tail -n 1) || return 1
            grep -q '"failed": 0[,}]' <<<"$result" && grep -q '"correct": true' <<<"$result" || {
                echo "perfbench stage: $workload --trace $trace smoke run failed: $result" >&2
                return 1
            }
        done
    done
}

stage_doc() {
    # Warnings fail the stage: a broken or private intra-doc link is a
    # documentation bug.
    RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps
}

declare -a RAN=() STATUS=() SECS=()
failed=0
for stage in "${SELECTED[@]}"; do
    if [[ $failed -ne 0 ]]; then
        RAN+=("$stage"); STATUS+=(skip); SECS+=("-")
        continue
    fi
    echo
    echo "== stage: $stage =="
    t0=$SECONDS
    if "stage_$stage"; then
        RAN+=("$stage"); STATUS+=(pass); SECS+=($((SECONDS - t0)))
    else
        RAN+=("$stage"); STATUS+=(FAIL); SECS+=($((SECONDS - t0)))
        failed=1
    fi
done

echo
echo "== ci.sh summary =="
printf '%-10s %-6s %8s\n' stage status seconds
for i in "${!RAN[@]}"; do
    printf '%-10s %-6s %8s\n' "${RAN[$i]}" "${STATUS[$i]}" "${SECS[$i]}"
done
if [[ $failed -ne 0 ]]; then
    echo "ci.sh: FAILED"
    exit 1
fi
echo "ci.sh: all stages green"
