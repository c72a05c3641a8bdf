#!/usr/bin/env bash
# Repository verification: exactly what CI runs, runnable offline.
#
#   scripts/verify.sh                # format check + clippy + rustdoc + build + tests + debug certificate run
#                                    # + the hard Table-1 circuits under debug assertions
#   scripts/verify.sh --quick        # skip the slow integration suites
#   scripts/verify.sh --faults       # fault-injection suite + no-panic CLI smoke
#   scripts/verify.sh --metrics      # observability smoke: lacr and table1 JSONL streams validated
#   scripts/verify.sh --determinism  # bit-identical plans across thread counts
#   scripts/verify.sh --regress      # quality-regression gate vs committed baseline
#   scripts/verify.sh --serve        # daemon smoke: hostile mix, multi-client socket, cache determinism
#
# The workspace has no external dependencies, so --offline always works.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
FAULTS=0
METRICS=0
DETERMINISM=0
REGRESS=0
SERVE=0
case "${1:-}" in
    --quick) QUICK=1 ;;
    --faults) FAULTS=1 ;;
    --metrics) METRICS=1 ;;
    --determinism) DETERMINISM=1 ;;
    --regress) REGRESS=1 ;;
    --serve) SERVE=1 ;;
    "") ;;
    *)
        echo "error: unknown option '${1}' (usage: scripts/verify.sh [--quick|--faults|--metrics|--determinism|--regress|--serve])" >&2
        exit 2
        ;;
esac

# Runs the one test whose full path is $2 in package $1. A cargo test
# filter that matches nothing passes silently, so the step fails unless
# exactly that test ran (and passed): renaming or deleting a guarded test
# cannot go unnoticed.
run_named_test() {
    local out passed
    out=$(RUSTFLAGS="${RUSTFLAGS:-} -D warnings" \
        cargo test --release --offline -p "$1" -- --exact "$2" 2>&1) || {
        echo "$out" >&2
        exit 1
    }
    grep -E '^test .+ \.\.\. ' <<<"$out" || true
    passed=$(awk '/^test result:/ { n += $4 } END { print n + 0 }' <<<"$out")
    if [[ "$passed" != 1 ]]; then
        echo "error: cargo test -p $1 -- --exact $2 ran $passed test(s), expected 1" >&2
        exit 1
    fi
}

if [[ "$METRICS" == 1 ]]; then
    echo "==> cargo build --release (warnings are errors)"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --offline --workspace

    echo "==> lacr run s344 --metrics-out (JSONL stream + self-time report + JSON report)"
    mkdir -p target/metrics
    status=0
    target/release/lacr run s344 --metrics-out target/metrics/s344.jsonl --report \
        --report-json target/metrics/s344.report.json \
        >target/metrics/s344.report.txt || status=$?
    # 0 (clean) and 3 (degraded-but-finished) both produce a full stream.
    if [[ "$status" != 0 && "$status" != 3 ]]; then
        echo "error: lacr run s344 exited $status" >&2
        exit 1
    fi
    grep -q "^total" target/metrics/s344.report.txt || {
        echo "error: self-time report missing its total row" >&2
        exit 1
    }
    grep -q "self mem" target/metrics/s344.report.txt || {
        echo "error: self-time report missing its memory columns" >&2
        exit 1
    }
    grep -q '"t":"report".*"schema_version":2' target/metrics/s344.report.json || {
        echo "error: --report-json artifact missing its versioned header" >&2
        exit 1
    }
    grep -q '"mem":{"live_bytes":' target/metrics/s344.report.json || {
        echo "error: --report-json artifact missing its allocator block" >&2
        exit 1
    }

    echo "==> check_metrics (JSONL syntax, span balance, summary record)"
    target/release/check_metrics target/metrics/s344.jsonl

    echo "==> table1 --metrics-out s344: the artifact binary's stream passes the same contract"
    LACR_RECORD_DIR=target/metrics target/release/table1 --quiet \
        --metrics-out target/metrics/table1.jsonl s344 >target/metrics/table1.txt
    target/release/check_metrics target/metrics/table1.jsonl

    echo "==> disabled-path smoke: LACR_MEM=off still plans, reports zeroed gauges"
    status=0
    LACR_MEM=off target/release/lacr run s344 --report >target/metrics/s344.memoff.txt || status=$?
    if [[ "$status" != 0 && "$status" != 3 ]]; then
        echo "error: lacr run s344 with LACR_MEM=off exited $status" >&2
        exit 1
    fi
    grep -q "^total" target/metrics/s344.memoff.txt || {
        echo "error: LACR_MEM=off lost the self-time report" >&2
        exit 1
    }

    echo "==> metrics OK (artifacts in target/metrics/)"
    exit 0
fi

if [[ "$REGRESS" == 1 ]]; then
    echo "==> cargo build --release (warnings are errors)"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --offline --workspace

    # s838 is the multi-round member: its LAC loop re-weights 12 times, so
    # the gates see a legaliser run on re-weighted solves.
    echo "==> regenerate run artifacts for the fast subset (s344 s382 s526 s838)"
    mkdir -p target/regress
    LACR_RECORD_DIR=target/regress target/release/table1 --quiet s344 s382 s526 s838 \
        >target/regress/table1.txt

    echo "==> check_metrics: artifact contracts (provenance + quality blocks)"
    target/release/check_metrics --run target/regress/RUN_table1.json
    target/release/check_metrics --bench target/regress/BENCH_table1.json

    echo "==> bench_compare vs committed baseline (hard quality gates, wall ignored)"
    # --subset declares the fast-subset run: baseline circuits we did not
    # regenerate are skipped. Without it a missing circuit fails as DROPPED.
    target/release/bench_compare RUN_table1.json target/regress/RUN_table1.json \
        --no-wall --subset --json target/regress/compare.json

    echo "==> negative control: an undeclared subset must fail as dropped coverage"
    status=0
    target/release/bench_compare RUN_table1.json target/regress/RUN_table1.json \
        --no-wall >target/regress/dropped.txt || status=$?
    if [[ "$status" != 1 ]]; then
        echo "error: bench_compare accepted silently dropped circuits (exit $status)" >&2
        exit 1
    fi
    grep -q "DROPPED" target/regress/dropped.txt || {
        echo "error: dropped circuits not reported as DROPPED" >&2
        exit 1
    }
    echo "    undeclared subset rejected (exit 1), as required"

    echo "==> bench_scale fast subset (synthetic 4096-cell ring + mesh, 20000-cell ring)"
    LACR_RECORD_DIR=target/regress target/release/bench_scale ring:4096 mesh:4096 ring:20000 \
        >target/regress/scale.txt
    target/release/check_metrics --bench target/regress/BENCH_scale.json

    echo "==> bench_compare scale artifact vs committed baseline"
    target/release/bench_compare BENCH_scale.json target/regress/BENCH_scale.json \
        --no-wall --subset --json target/regress/compare_scale.json

    echo "==> ablations pruning s344 s641 s1423 (pairs and constraints at T_clk), sharing s344"
    # A header plus one row per circuit, and no row that reports an error.
    check_ablation() {
        local lines
        lines=$(wc -l <"$1")
        if [[ "$lines" != $(($2 + 1)) ]] || grep -q "error" "$1"; then
            echo "error: $1 must hold a header and $2 row(s), none an error:" >&2
            cat "$1" >&2
            exit 1
        fi
    }
    target/release/ablations pruning --quiet s344 s641 s1423 >target/regress/ablations_pruning.txt
    check_ablation target/regress/ablations_pruning.txt 3
    target/release/ablations sharing --quiet s344 >target/regress/ablations_sharing.txt
    check_ablation target/regress/ablations_sharing.txt 1

    echo "==> stress s5378 (exact T_min search, single thread) vs committed baseline"
    # Quality is gated exactly; the allocator peak by the soft memory gate.
    LACR_THREADS=1 LACR_RECORD_DIR=target/regress target/release/stress --quiet \
        --metrics-out target/regress/stress.jsonl >target/regress/stress.txt
    target/release/check_metrics target/regress/stress.jsonl
    target/release/check_metrics --bench target/regress/BENCH_stress.json
    target/release/bench_compare BENCH_stress.json target/regress/BENCH_stress.json \
        --no-wall --json target/regress/compare_stress.json

    echo "==> negative control: a synthetic quality regression must fail the gate"
    status=0
    target/release/bench_compare \
        crates/bench/tests/fixtures/run_base.json \
        crates/bench/tests/fixtures/run_regressed.json \
        >target/regress/negative.txt || status=$?
    if [[ "$status" != 1 ]]; then
        echo "error: bench_compare accepted a known regression (exit $status)" >&2
        exit 1
    fi
    echo "    synthetic regression rejected (exit 1), as required"

    echo "==> negative control: an inflated memory peak must fail the soft mem gate"
    # Appending a digit multiplies every recorded peak by 10 — far past
    # the 15% tolerance; the gate must reject the inflated run.
    sed -E 's/"peak_bytes":([0-9]+)/"peak_bytes":\10/g' \
        target/regress/RUN_table1.json >target/regress/RUN_table1.inflated.json
    status=0
    target/release/bench_compare target/regress/RUN_table1.json \
        target/regress/RUN_table1.inflated.json \
        --no-wall >target/regress/mem_negative.txt || status=$?
    if [[ "$status" != 1 ]]; then
        echo "error: bench_compare accepted a 10x memory-peak inflation (exit $status)" >&2
        exit 1
    fi
    grep -q "peak_bytes" target/regress/mem_negative.txt || {
        echo "error: memory regression not attributed to peak_bytes" >&2
        exit 1
    }
    echo "    inflated memory peak rejected (exit 1), as required"

    echo "==> lacr plan s838: its table row, with the second iteration when LAC leaves violations"
    status=0
    target/release/lacr plan s838 >target/regress/plan_s838.txt \
        2>target/regress/plan_s838.err || status=$?
    if [[ "$status" != 0 && "$status" != 3 ]]; then
        echo "error: lacr plan s838 exited $status" >&2
        exit 1
    fi
    row=$(grep '^s838 ' target/regress/plan_s838.txt) || {
        echo "error: lacr plan s838 printed no s838 row:" >&2
        cat target/regress/plan_s838.txt >&2
        exit 1
    }
    if [[ "$status" == 3 ]] && grep -q '\[lac\]' target/regress/plan_s838.err; then
        # The LAC N_FOA cell leads the second column group: "113 (0)".
        lac_foa=$(awk -F'|' '{print $3}' <<<"$row" | awk '{print $1, $2}')
        if ! [[ "$lac_foa" =~ ^[0-9]+\ \([0-9]+\)$ ]]; then
            echo "error: s838 left LAC violations but its row shows no second iteration:" >&2
            echo "$row" >&2
            exit 1
        fi
    fi
    echo "    $row"

    echo "==> flight-recorder smoke: budget expiry leaves a postmortem dump"
    status=0
    target/release/lacr plan s838 --budget-ms 1 \
        --flight-recorder-out target/regress/flight.jsonl >/dev/null 2>&1 || status=$?
    if [[ "$status" != 3 ]]; then
        echo "error: lacr plan s838 --budget-ms 1 exited $status (expected degraded exit 3)" >&2
        exit 1
    fi
    target/release/check_metrics --flight target/regress/flight.jsonl

    echo "==> regress OK (artifacts in target/regress/)"
    exit 0
fi

if [[ "$SERVE" == 1 ]]; then
    echo "==> cargo build --release (warnings are errors)"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --offline --workspace

    echo "==> serve soak suite (200-request mixed batch, 3 workers, byte-identity)"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" \
        cargo test --release --offline --test serve_soak

    echo "==> multi-client socket suite (4 clients, one shared pool, connection cap, bind rules)"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" \
        cargo test --release --offline --test serve_socket

    LACR_BIN=target/release/lacr
    CHECK=target/release/check_metrics
    mkdir -p target/serve

    echo "==> admission control: sleep-fault flood must shed, not stall (1 worker, queue 1)"
    {
        for i in 1 2 3 4 5; do
            printf '{"id":"sleep-%d","circuit":"s344","fault":{"sleep_ms":400}}\n' "$i"
        done
    } | "$LACR_BIN" serve --workers 1 --queue-cap 1 \
        --flight-recorder-out target/serve/flight/last-run.jsonl \
        >target/serve/overload.jsonl
    # EOF drain: the daemon answers or sheds every request, then exits 0.
    responses=$(wc -l <target/serve/overload.jsonl)
    if [[ "$responses" != 5 ]]; then
        echo "error: 5 requests but $responses responses in overload.jsonl" >&2
        exit 1
    fi
    shed=$(grep -c '"reason":"overloaded"' target/serve/overload.jsonl || true)
    if [[ "$shed" -lt 1 ]]; then
        echo "error: a 5-request flood at capacity 1 shed nothing" >&2
        exit 1
    fi
    "$CHECK" --serve target/serve/overload.jsonl
    echo "    $shed of 5 requests shed as overloaded, daemon exited 0"

    echo "==> fault isolation: hostile mix (panic, malformed, bad path, over-budget, oversized)"
    {
        printf '{"id":"ok-1","circuit":"s344"}\n'
        printf 'this line is not JSON {\n'
        printf '{"id":"lost","bench_path":"/no/such/file.bench"}\n'
        printf '{"id":"boom","circuit":"s344","fault":{"panic":true}}\n'
        printf '{"id":"late","bench_path":"tests/data/counter3.bench","budget_ms":0}\n'
        printf '{"id":"big","bench":"%s"}\n' "$(printf 'x%.0s' $(seq 1 2000))"
        printf '{"cmd":"shutdown"}\n'
    } | RUST_BACKTRACE=0 "$LACR_BIN" serve --workers 2 --queue-cap 16 --max-line-bytes 512 \
        --flight-recorder-out target/serve/flight/last-run.jsonl \
        >target/serve/hostile.jsonl 2>target/serve/hostile.stderr
    responses=$(wc -l <target/serve/hostile.jsonl)
    if [[ "$responses" != 6 ]]; then
        echo "error: 6 requests but $responses responses in hostile.jsonl" >&2
        exit 1
    fi
    "$CHECK" --serve target/serve/hostile.jsonl
    grep -q '"id":"boom".*"kind":"panic"' target/serve/hostile.jsonl || {
        echo "error: injected panic did not come back as a structured panic error" >&2
        exit 1
    }
    grep -q '"id":"late".*"status":"degraded"' target/serve/hostile.jsonl || {
        echo "error: over-budget request did not degrade" >&2
        exit 1
    }
    grep -q '"reason":"oversized"' target/serve/hostile.jsonl || {
        echo "error: oversized line was not shed" >&2
        exit 1
    }

    echo "==> per-request postmortem: the panic left a request-tagged flight dump"
    test -f target/serve/flight/req-boom.jsonl || {
        echo "error: no flight dump at target/serve/flight/req-boom.jsonl" >&2
        exit 1
    }
    "$CHECK" --flight target/serve/flight/req-boom.jsonl

    echo "==> live introspection: mid-soak stats probes + periodic heartbeat"
    {
        printf '{"id":"s-1","circuit":"s344"}\n'
        printf '{"cmd":"stats","id":"probe-1"}\n'
        printf '{"id":"s-2","circuit":"s344","fault":{"sleep_ms":150}}\n'
        printf '{"id":"s-3","circuit":"s344"}\n'
        printf '{"cmd":"stats","id":"probe-2"}\n'
        sleep 0.4
        printf '{"cmd":"stats","id":"probe-3"}\n'
    } | "$LACR_BIN" serve --workers 2 --queue-cap 16 --stats-interval-ms 100 \
        --flight-recorder-out target/serve/flight/last-run.jsonl \
        >target/serve/soak.jsonl 2>target/serve/soak.stderr
    "$CHECK" --serve target/serve/soak.jsonl
    # In-band probe responses and the stderr heartbeat are two streams;
    # each must carry versioned snapshots with all six blocks. The
    # snapshot's own invariants are asserted by the serve unit and soak
    # tests.
    grep '"status":"stats"' target/serve/soak.jsonl >target/serve/stats_probes.jsonl
    probes=$(wc -l <target/serve/stats_probes.jsonl)
    if [[ "$probes" != 3 ]]; then
        echo "error: 3 stats probes sent but $probes stats responses" >&2
        exit 1
    fi
    "$CHECK" --serve target/serve/stats_probes.jsonl
    grep '"status":"stats"' target/serve/soak.stderr >target/serve/stats_heartbeat.jsonl || {
        echo "error: --stats-interval-ms 100 produced no heartbeat on stderr" >&2
        exit 1
    }
    "$CHECK" --serve target/serve/stats_heartbeat.jsonl
    echo "    $probes probe responses + $(wc -l <target/serve/stats_heartbeat.jsonl) heartbeats, all well-formed"

    echo "==> cache determinism: warm hit must be byte-identical to the cold plan"
    # --workers 1 makes the queue FIFO, so the cold request completes (and
    # populates the plan cache) before the identical warm request runs.
    {
        printf '{"id":"cold","circuit":"s344"}\n'
        printf '{"id":"warm","circuit":"s344"}\n'
    } | "$LACR_BIN" serve --workers 1 --queue-cap 16 \
        --flight-recorder-out target/serve/flight/last-run.jsonl \
        >target/serve/cache.jsonl
    "$CHECK" --serve target/serve/cache.jsonl
    grep -q '"id":"cold".*"cached":false' target/serve/cache.jsonl || {
        echo "error: cold request did not report cached:false" >&2
        exit 1
    }
    grep -q '"id":"warm".*"cached":true' target/serve/cache.jsonl || {
        echo "error: identical warm request did not hit the plan cache" >&2
        exit 1
    }
    # The plan block sits between "plan": and ,"quality" on each response
    # line; a cache hit must replay it byte-for-byte.
    plan_of() {
        sed -n "s/.*\"id\":\"$1\".*\"plan\":{\(.*\)},\"quality\".*/\1/p" \
            target/serve/cache.jsonl
    }
    if [[ -z "$(plan_of cold)" || "$(plan_of cold)" != "$(plan_of warm)" ]]; then
        echo "error: cached plan is not byte-identical to the cold run" >&2
        exit 1
    fi
    echo "    warm hit byte-identical to cold plan"

    echo "==> per-request memory: cold run allocates, cache hit reports zero"
    grep -q '"id":"cold".*"mem_bytes":[1-9]' target/serve/cache.jsonl || {
        echo "error: cold request reported no allocated bytes" >&2
        exit 1
    }
    grep -qE '"id":"warm".*"mem_bytes":0[,}]' target/serve/cache.jsonl || {
        echo "error: cache hit did not report mem_bytes 0" >&2
        exit 1
    }

    echo "==> serve OK (transcripts in target/serve/)"
    exit 0
fi

if [[ "$DETERMINISM" == 1 ]]; then
    echo "==> cargo build --release (warnings are errors)"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --offline --workspace

    echo "==> determinism suite (full plans at 1/2/8 threads, two sequential runs)"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" \
        cargo test --release --offline -p lacr-core --test determinism

    echo "==> thread-count regression (router rip-up)"
    run_named_test lacr-route tests::routing_is_byte_identical_across_runs_and_thread_counts

    echo "==> adjacency-order invariance (W/D constraint property test)"
    run_named_test lacr-retime constraints::tests::constraints_invariant_under_adjacency_order

    echo "==> renumbering invariance (warm min-cost-flow solves on degenerate systems)"
    run_named_test lacr-mcmf dual::tests::warm_solves_commute_with_renumbering

    echo "==> CLI cross-thread diff: lacr plan s344 at LACR_THREADS=1,2,8"
    mkdir -p target/determinism
    # Mask the two Texec/s wall-clock columns — the only 3-decimal fields
    # in the table — before diffing; everything else must be byte-equal.
    for t in 1 2 8; do
        LACR_THREADS=$t target/release/lacr plan s344 2>/dev/null |
            sed -E 's/[0-9]+\.[0-9]{3}/<T>/g' >"target/determinism/s344.t$t.txt"
    done
    for t in 2 8; do
        diff -u target/determinism/s344.t1.txt "target/determinism/s344.t$t.txt" || {
            echo "error: lacr plan s344 differs between LACR_THREADS=1 and LACR_THREADS=$t" >&2
            exit 1
        }
        echo "    LACR_THREADS=$t: identical to LACR_THREADS=1"
    done

    echo "==> determinism OK"
    exit 0
fi

if [[ "$FAULTS" == 1 ]]; then
    echo "==> cargo build --release (warnings are errors)"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --offline --workspace

    echo "==> fault-injection suite (seeded hostile inputs, catch_unwind-audited)"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" \
        cargo test --release --offline -p lacr-core --test fault_injection

    echo "==> degradation-ladder suite"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" \
        cargo test --release --offline -p lacr-core --test degradation

    echo "==> no-panic CLI smoke: every bench89 circuit under a tight budget"
    LACR_BIN=target/release/lacr
    for circuit in $("$LACR_BIN" list | awk '/^  s/ {print $1}'); do
        # Exit 0 (clean) and 3 (degraded) are both acceptable under a
        # 50ms budget; anything else — especially a panic (101/134) — is
        # a verification failure.
        status=0
        "$LACR_BIN" plan "$circuit" --budget-ms 50 >/dev/null 2>&1 || status=$?
        if [[ "$status" != 0 && "$status" != 3 ]]; then
            echo "error: lacr plan $circuit --budget-ms 50 exited $status" >&2
            exit 1
        fi
        echo "    $circuit: exit $status"
    done

    echo "==> faults OK"
    exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Broken intra-doc links (a renamed or deleted item) fail here.
echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="${RUSTDOCFLAGS:-} -D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo build --release (warnings are errors)"
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --offline --workspace

if [[ "$QUICK" == 1 ]]; then
    echo "==> cargo test (lib/unit tests only)"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo test --release --offline --workspace --lib
else
    echo "==> cargo test (full workspace)"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo test --release --offline --workspace

    # A debug build certifies every successful DualSolver solve by LP
    # duality (lacr_mcmf::check_optimal); release builds skip the check.
    echo "==> cargo test, debug profile (every min-cost-flow solve certified)"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" \
        cargo test --offline -p lacr-mcmf -p lacr-retime -p lacr-core --lib
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo test --offline --test lac_scenarios

    # The debug-profile suites run only single-round LAC loops. An
    # optimised build with debug assertions runs the three multi-round
    # circuits under the same references: every skipped slide is replayed
    # through the journal and must fail, every closure-sweep verdict must
    # equal a grown closure, and every solve is certified. Their plans
    # must still match the committed baseline.
    echo "==> table1 s838 s1196 s1423, optimised with debug assertions"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings -C debug-assertions=on" CARGO_TARGET_DIR=target/checked \
        cargo build --release --offline -p lacr-bench --bin table1
    mkdir -p target/checked/run
    LACR_RECORD_DIR=target/checked/run target/checked/release/table1 --quiet \
        s838 s1196 s1423 >target/checked/run/table1.txt
    target/release/bench_compare RUN_table1.json target/checked/run/RUN_table1.json \
        --no-wall --subset
fi

echo "==> verify OK"
