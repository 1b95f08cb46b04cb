#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
#   ./scripts/tier1.sh [stage]
#
# Stages (run in this order by the default `all`; each is also a CI job
# in .github/workflows/ci.yml):
#   fmt     cargo fmt --check              (tree must be rustfmt-clean)
#   build   cargo build --release          (every workspace package: the
#           root manifest's default-members, so all crates + every bin)
#   test    cargo test -q                  (unit + integration + doc tests
#           of every workspace package, the same default-members)
#   golden  golden + telemetry suites: each test walks its matrix in one
#           process, {fast,exact} access paths x memo {off,on} (the access
#           path is a host-side choice, so every leg must match the golden
#           constants bit-for-bit and the engine its heap-order
#           reference; a memo-on leg pins the mining results, timing free
#           to improve); plus a gramer-mine --memo off byte-compare
#           against the default multi-app run
#   query   query-matrix: the pinned labeled queries of tests/query.rs on
#           every {fast,exact} x memo {off,on} leg in one process
#           (filtered match totals and filter-probe counters are pinned
#           on every leg; filtered embeddings must be bit-identical to
#           brute force), plus a gramer-mine --query / gramer-query CLI
#           smoke
#   doc     cargo doc --no-deps            (rustdoc, warnings denied)
#   clippy  clippy on every workspace target with warnings denied (the
#           default lints), then on the library crates with unwrap/expect
#           denied (failures must flow through the typed error taxonomy,
#           not panic; the perf lints warn so hot-path regressions
#           surface in review)
#   bench   gramer-bench as it ships: `perf --quick --repeats 1` (the
#           pinned cells, with their repeat-drift assertions), then every
#           sweep once at --quick on 2 jobs, each of which must exit 0;
#           then the sweep journal's crash contract: the ablation sweep,
#           killed by kill -9 once its journal holds 3 points and re-run
#           with --resume, must replay k of its 12 points (0 < k < 12)
#           and emit points byte-identical to an uninterrupted run
#   artifact  .gra artifact round-trip on both golden workloads:
#           gramer-artifact build/verify/inspect + gramer-mine --artifact,
#           plus the artifact test suite (see docs/FORMAT.md), whose
#           load-path test verifies both golden artifacts mapped and
#           copied into memory; then the edge-list path: a
#           skewed edge list written here, its variant with CRLF endings,
#           comment lines, tabs and a third column, and its .gra artifact
#           give byte-identical gramer-mine --json, and under an 8 GiB
#           address-space limit the edge list `0 4294967294` (a 2^32
#           vertex universe) exits 1 with a typed error, not an abort
#   serve   gramer-serve daemon end-to-end: both golden workloads over
#           HTTP byte-identical to gramer-mine --json, injected-panic
#           containment, queue-full back-pressure, SIGTERM drain with an
#           intact journal, and kill -9 recovery: both golden jobs run
#           twice on one daemon, the repeats answered from the stored
#           outputs (byte-identical again, /stats report_hits 2), then a
#           restart over the appended (never drained) journal serves the
#           latest jobs' reports byte-identical; a --max-steps 1 job ends timed_out
#           however fast it runs, --deadline -1 is a usage error, and a
#           daemon under an 8 GiB address-space limit ends the inline
#           job `0 4294967294` failed with kind graph-too-large and
#           still answers /healthz (see docs/DESIGN.md, service
#           architecture)
#   perfbench  build and unit-test the benchmark harness (perfbench/, its
#           own package outside the workspace, so no other stage compiles
#           it): a reshaped simulator API it calls fails here, not first
#           in a benchmark run
#   all     every stage above (the default)
set -euo pipefail
cd "$(dirname "$0")/.."

stage_fmt() {
    echo "== tier1: cargo fmt --check"
    cargo fmt --all --check
}

stage_build() {
    echo "== tier1: cargo build --release"
    cargo build --release
}

stage_test() {
    echo "== tier1: cargo test -q"
    cargo test -q
}

stage_golden() {
    echo "== tier1: golden + telemetry suites, every access-path x memo leg"
    # Each test walks its legs in one process (tests/common): both access
    # paths reproduce the same golden constants — and the same telemetry
    # document — bit-for-bit; a memo-on leg pins the mining results.
    cargo test -q --test golden --test telemetry
    # `--memo off` is the bit-exact reference path: explicitly passing it
    # must reproduce the default multi-app run byte-for-byte (JSON and
    # stdout).
    echo "   -- --memo off byte-identity with the default run (gramer-mine)"
    cargo build --release -q -p gramer --bin gramer-mine
    local tmp
    tmp="$(mktemp -d)"
    trap 'rm -rf "${tmp:-}"; trap - RETURN' RETURN
    target/release/gramer-mine --demo --app 3-cf,3-mc,4-cf \
        --json "$tmp/default.json" > "$tmp/default.out" 2> /dev/null
    target/release/gramer-mine --demo --app 3-cf,3-mc,4-cf --memo off \
        --json "$tmp/memo-off.json" > "$tmp/memo-off.out" 2> /dev/null
    cmp "$tmp/default.json" "$tmp/memo-off.json"
    cmp "$tmp/default.out" "$tmp/memo-off.out"
}

stage_query() {
    echo "== tier1: query suite, every access-path x memo leg"
    # The candidate filter must be result-identical to brute force, and
    # its probe counters are pinned: both hold bit-for-bit on every leg,
    # which the suite walks in one process.
    cargo test -q --test query
    # CLI smoke: both query front ends accept the same spec and the
    # ablation tool's internal brute-vs-filtered identity check passes.
    echo "   -- gramer-mine --query / gramer-query smoke"
    cargo build --release -q -p gramer --bin gramer-mine --bin gramer-query
    target/release/gramer-mine --demo --query "0,0,0:0-1,1-2,2-0" > /dev/null 2> /dev/null
    target/release/gramer-query --gen golden-ba --labels 6:3 \
        --query "1,2,3:0-1,1-2" > /dev/null 2> /dev/null
}

stage_doc() {
    echo "== tier1: cargo doc --no-deps --workspace (warnings denied)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
}

stage_clippy() {
    echo "== tier1: clippy on every workspace target (warnings denied)"
    cargo clippy -q --workspace --all-targets -- -D warnings
    echo "== tier1: clippy unwrap/expect gate on library crates"
    cargo clippy -q -p gramer -p gramer-graph -p gramer-memsim -p gramer-mining \
        -p gramer-serve --lib -- \
        -D clippy::unwrap_used -D clippy::expect_used \
        -W clippy::needless_collect -W clippy::redundant_clone \
        -W clippy::large_stack_arrays -W clippy::trivially_copy_pass_by_ref \
        -W clippy::large_enum_variant
    # The query ablation bin is part of the documented experiment surface,
    # so it is held to the same no-panic bar as the libraries.
    echo "== tier1: clippy unwrap/expect gate on gramer-query"
    cargo clippy -q -p gramer --bin gramer-query -- \
        -D clippy::unwrap_used -D clippy::expect_used
}

stage_bench() {
    echo "== tier1: gramer-bench perf --quick, every sweep at --quick"
    cargo build --release -q -p gramer-bench
    local tmp
    tmp="$(mktemp -d)"
    trap 'rm -rf "${tmp:-}"; trap - RETURN' RETURN
    local bench=target/release/gramer-bench name
    "$bench" perf --quick --repeats 1 --json "$tmp/core.json" > /dev/null
    for name in fig3 fig5 fig8 table2 table3 fig11 fig12 table4 fig13 fig14 ablation; do
        echo "   -- $name"
        "$bench" "$name" --quick --jobs 2 --json "$tmp/$name.json" \
            --journal "$tmp/$name.jsonl" > /dev/null 2> "$tmp/$name.err" || {
            echo "tier1 bench: gramer-bench $name --quick failed:" >&2
            cat "$tmp/$name.err" >&2
            exit 1
        }
    done

    echo "   -- ablation sweep: kill -9 partway, then --resume gives byte-identical points"
    "$bench" ablation --jobs 1 --journal "$tmp/full.jsonl" --json "$tmp/full.json" \
        > /dev/null 2> "$tmp/full.err"
    "$bench" ablation --jobs 1 --journal "$tmp/killed.jsonl" --json "$tmp/killed.json" \
        > /dev/null 2> "$tmp/killed.err" &
    local pid=$! i
    for i in $(seq 1 1200); do
        if [ -f "$tmp/killed.jsonl" ] && [ "$(wc -l < "$tmp/killed.jsonl")" -ge 3 ]; then
            break
        fi
        kill -0 "$pid" 2> /dev/null || break
        sleep 0.05
    done
    kill -KILL "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
    "$bench" ablation --jobs 1 --resume --journal "$tmp/killed.jsonl" --json "$tmp/resumed.json" \
        > /dev/null 2> "$tmp/resumed.err"
    local k
    k="$(sed -n 's/.*resuming: \([0-9]*\)\/12 points.*/\1/p' "$tmp/resumed.err")"
    if [ -z "$k" ] || [ "$k" -le 0 ] || [ "$k" -ge 12 ]; then
        echo "tier1 bench: the resumed sweep did not replay part of the 12 points:" >&2
        cat "$tmp/resumed.err" >&2
        exit 1
    fi
    # The pretty-printed document holds `points` from its own line up to
    # the `summary` line.
    local part
    for part in full resumed; do
        sed -n '/^  "points": \[/,/^  "summary": /p' "$tmp/$part.json" > "$tmp/$part.points"
    done
    [ -s "$tmp/full.points" ] || { echo "tier1 bench: no points in the sweep JSON" >&2; exit 1; }
    cmp "$tmp/full.points" "$tmp/resumed.points"
    echo "   -- resumed after $k/12 points: points byte-identical"
}

stage_artifact() {
    echo "== tier1: .gra artifact round-trip (build / verify / inspect / mine)"
    cargo build --release -q -p gramer --bins
    local tmp
    tmp="$(mktemp -d)"
    trap 'rm -rf "${tmp:-}"; trap - RETURN' RETURN
    local w
    for w in golden-ba golden-rmat; do
        echo "   -- $w: build + verify + inspect"
        target/release/gramer-artifact build --gen "$w" -o "$tmp/$w.gra"
        target/release/gramer-artifact verify "$tmp/$w.gra"
        target/release/gramer-artifact inspect "$tmp/$w.gra" > /dev/null
    done
    echo "   -- golden-ba: gramer-mine --artifact (4-clique finding)"
    target/release/gramer-mine --artifact "$tmp/golden-ba.gra" --app 4-cf > /dev/null
    echo "   -- golden-rmat: gramer-mine --artifact (3-motif counting)"
    target/release/gramer-mine --artifact "$tmp/golden-rmat.gra" --app 3-mc > /dev/null
    echo "   -- artifact test suite (round-trip, corruption, pinned digest, mapped vs copied load)"
    cargo test -q --test artifact

    echo "   -- edge-list path: plain, CRLF/comment/tab/third-column variant and .gra agree"
    awk 'BEGIN { srand(20201017); for (i = 0; i < 4000; i++) print int(1500 * rand() ^ 3), int(1500 * rand()) }' \
        > "$tmp/skew.txt"
    awk 'BEGIN { printf "# skewed edge list, CRLF variant\r\n" }
         NR % 97 == 0 { printf "%% comment line %d\r\n", NR }
         { printf "%s\t%s\t%d\r\n", $1, $2, NR }' "$tmp/skew.txt" > "$tmp/skew-variant.txt"
    target/release/gramer-mine "$tmp/skew.txt" --app 3-cf --json "$tmp/skew.json" > /dev/null
    target/release/gramer-mine "$tmp/skew-variant.txt" --app 3-cf --json "$tmp/skew-variant.json" > /dev/null
    target/release/gramer-artifact build "$tmp/skew.txt" -o "$tmp/skew.gra" > /dev/null
    target/release/gramer-mine --artifact "$tmp/skew.gra" --app 3-cf --json "$tmp/skew-gra.json" > /dev/null
    cmp "$tmp/skew.json" "$tmp/skew-variant.json"
    cmp "$tmp/skew.json" "$tmp/skew-gra.json"

    echo "   -- a 2^32-vertex edge list under an 8 GiB address-space limit: typed error, exit 1"
    printf '0 4294967294\n' > "$tmp/huge.txt"
    local code=0
    (ulimit -v 8388608 && exec target/release/gramer-mine "$tmp/huge.txt" --app 3-cf) \
        > /dev/null 2> "$tmp/huge.err" || code=$?
    if [ "$code" -ne 1 ] || ! grep -q 'graph too large' "$tmp/huge.err"; then
        echo "tier1 artifact: the huge edge list exited $code instead of a typed error:" >&2
        cat "$tmp/huge.err" >&2
        exit 1
    fi
}

# Polls for the daemon's --addr-file (atomic publish) instead of racing
# the bind; prints the address on stdout.
wait_addr_file() {
    local file="$1" log="$2" i
    for i in $(seq 1 200); do
        if [ -f "$file" ]; then
            cat "$file"
            return 0
        fi
        sleep 0.05
    done
    echo "tier1 serve: daemon never published $file" >&2
    cat "$log" >&2
    return 1
}

# Runs both golden jobs with --wait on the daemon at $2 and byte-compares
# each served report with gramer-mine's; leaves each job id in $1/<w>.id.
serve_goldens() {
    local tmp="$1" addr="$2" pair w app id
    for pair in golden-ba:4-cf golden-rmat:3-mc; do
        w="${pair%%:*}"
        app="${pair#*:}"
        echo "   -- $w/$app over HTTP, byte-compared to gramer-mine --json"
        target/release/gramer-serve client --addr "$addr" submit --artifact "$tmp/$w.gra" \
            --app "$app" --wait > "$tmp/$w.summary.json"
        id="$(grep -o '"id":[[:space:]]*[0-9]*' "$tmp/$w.summary.json" | head -n1 | grep -o '[0-9]*$')"
        echo "$id" > "$tmp/$w.id"
        target/release/gramer-serve client --addr "$addr" report "$id" --out "$tmp/$w.served.json"
        cmp "$tmp/$w.served.json" "$tmp/$w.cli.json"
    done
}

stage_serve() {
    echo "== tier1: gramer-serve daemon (HTTP parity, panic containment, back-pressure, drain, kill -9, run budgets)"
    cargo build --release -q -p gramer -p gramer-serve --bins
    local tmp
    tmp="$(mktemp -d)"
    trap 'rm -rf "${tmp:-}"; trap - RETURN' RETURN
    local serve=target/release/gramer-serve
    local mine=target/release/gramer-mine
    local artifact=target/release/gramer-artifact

    # Reference inputs: the two golden workload artifacts, mined directly
    # by the CLI. The daemon must reproduce these bytes exactly.
    "$artifact" build --gen golden-ba -o "$tmp/golden-ba.gra"
    "$artifact" build --gen golden-rmat -o "$tmp/golden-rmat.gra"
    "$mine" --artifact "$tmp/golden-ba.gra" --app 4-cf --json "$tmp/golden-ba.cli.json" > /dev/null
    "$mine" --artifact "$tmp/golden-rmat.gra" --app 3-mc --json "$tmp/golden-rmat.cli.json" > /dev/null

    echo "   -- daemon up (ephemeral port, journal on)"
    "$serve" --addr 127.0.0.1:0 --addr-file "$tmp/addr" --workers 2 \
        --journal "$tmp/jobs.jsonl" 2> "$tmp/daemon.log" &
    local pid=$!
    local addr
    addr="$(wait_addr_file "$tmp/addr" "$tmp/daemon.log")"

    serve_goldens "$tmp" "$addr"

    echo "   -- SIGTERM drains gracefully and leaves the journal intact"
    kill -TERM "$pid"
    if ! wait "$pid"; then
        echo "tier1 serve: daemon did not exit 0 after SIGTERM" >&2
        cat "$tmp/daemon.log" >&2
        exit 1
    fi
    [ -s "$tmp/jobs.jsonl" ] || { echo "tier1 serve: journal missing after drain" >&2; exit 1; }
    # Journal lines are compact JSONL; both completed jobs must survive.
    [ "$(grep -c '"status":"completed"' "$tmp/jobs.jsonl")" -eq 2 ] || {
        echo "tier1 serve: journal lost the completed jobs:" >&2
        cat "$tmp/jobs.jsonl" >&2
        exit 1
    }

    # The drain above compacts the journal into a snapshot; only a crash
    # leaves the appended lines for the next start to replay. The second
    # round of the same two jobs is answered from the stored outputs.
    echo "   -- both jobs twice (the repeats from the stored outputs), kill -9, then a restart serves both reports again"
    "$serve" --addr 127.0.0.1:0 --addr-file "$tmp/addr-killed" --workers 2 \
        --journal "$tmp/killed.jsonl" 2>> "$tmp/daemon.log" &
    pid=$!
    addr="$(wait_addr_file "$tmp/addr-killed" "$tmp/daemon.log")"
    serve_goldens "$tmp" "$addr"
    serve_goldens "$tmp" "$addr"
    "$serve" client --addr "$addr" stats > "$tmp/stats.json"
    grep -q '"report_hits":[[:space:]]*2[^0-9]' "$tmp/stats.json" || {
        echo "tier1 serve: the repeated jobs were not answered from the stored outputs:" >&2
        cat "$tmp/stats.json" >&2
        exit 1
    }
    kill -KILL "$pid"
    wait "$pid" 2> /dev/null || true
    # No workers: the reports must come from the journal, not a re-run.
    "$serve" --addr 127.0.0.1:0 --addr-file "$tmp/addr-restarted" --workers 0 \
        --journal "$tmp/killed.jsonl" 2>> "$tmp/daemon.log" &
    pid=$!
    addr="$(wait_addr_file "$tmp/addr-restarted" "$tmp/daemon.log")"
    local w
    for w in golden-ba golden-rmat; do
        "$serve" client --addr "$addr" report "$(cat "$tmp/$w.id")" --out "$tmp/$w.restored.json"
        cmp "$tmp/$w.restored.json" "$tmp/$w.cli.json"
    done
    "$serve" client --addr "$addr" shutdown > /dev/null
    wait "$pid"

    echo "   -- injected panic ends in a typed state; daemon survives"
    "$serve" --addr 127.0.0.1:0 --addr-file "$tmp/addr2" --workers 1 \
        --chaos panic=1000,seed=1 2>> "$tmp/daemon.log" &
    pid=$!
    addr="$(wait_addr_file "$tmp/addr2" "$tmp/daemon.log")"
    if "$serve" client --addr "$addr" submit --gen ba:120:3:5 --app 3-cf --wait \
        > "$tmp/panic.json"; then
        echo "tier1 serve: a panicked job reported success" >&2
        exit 1
    fi
    grep -q '"status":[[:space:]]*"panicked"' "$tmp/panic.json"
    "$serve" client --addr "$addr" healthz > /dev/null
    "$serve" client --addr "$addr" shutdown > /dev/null
    wait "$pid"

    echo "   -- full queue answers a typed 429"
    "$serve" --addr 127.0.0.1:0 --addr-file "$tmp/addr3" --workers 0 --queue 1 \
        2>> "$tmp/daemon.log" &
    pid=$!
    addr="$(wait_addr_file "$tmp/addr3" "$tmp/daemon.log")"
    "$serve" client --addr "$addr" submit --gen ba:120:3:5 --app 3-cf > /dev/null
    if "$serve" client --addr "$addr" submit --gen ba:120:3:5 --app 3-cf > "$tmp/full.json"; then
        echo "tier1 serve: an over-capacity submission was accepted" >&2
        exit 1
    fi
    grep -q 'queue_full' "$tmp/full.json"
    "$serve" client --addr "$addr" shutdown > /dev/null
    wait "$pid"

    # The job finishes in far less time than any polling interval, so
    # only a budget the worker checks itself can catch it.
    echo "   -- a job past --max-steps ends timed_out, whatever the host speed"
    "$serve" --addr 127.0.0.1:0 --addr-file "$tmp/addr4" --workers 1 --max-steps 1 \
        2>> "$tmp/daemon.log" &
    pid=$!
    addr="$(wait_addr_file "$tmp/addr4" "$tmp/daemon.log")"
    if "$serve" client --addr "$addr" submit --gen ba:30:2:1 --app 3-cf --wait \
        > "$tmp/budget.json"; then
        echo "tier1 serve: a job past its step budget reported success" >&2
        exit 1
    fi
    grep -q '"status":[[:space:]]*"timed_out"' "$tmp/budget.json"
    "$serve" client --addr "$addr" shutdown > /dev/null
    wait "$pid"

    echo "   -- a 2^32-vertex inline job fails typed under an 8 GiB limit; daemon survives"
    (ulimit -v 8388608 && exec "$serve" --addr 127.0.0.1:0 --addr-file "$tmp/addr6" \
        --workers 1 2>> "$tmp/daemon.log") &
    pid=$!
    addr="$(wait_addr_file "$tmp/addr6" "$tmp/daemon.log")"
    curl -sS -X POST --data '{"graph":{"inline":"0 4294967294\n"},"app":"3-cf"}' \
        "http://$addr/jobs" > "$tmp/huge.json"
    local id i
    id="$(grep -o '"id":[[:space:]]*[0-9]*' "$tmp/huge.json" | head -n1 | grep -o '[0-9]*$')"
    for i in $(seq 1 200); do
        "$serve" client --addr "$addr" status "$id" > "$tmp/huge.json"
        grep -q '"status":[[:space:]]*"\(queued\|running\)"' "$tmp/huge.json" || break
        sleep 0.05
    done
    if ! grep -q '"status":[[:space:]]*"failed"' "$tmp/huge.json" ||
        ! grep -q '"kind":[[:space:]]*"graph-too-large"' "$tmp/huge.json"; then
        echo "tier1 serve: the huge inline job did not fail with graph-too-large:" >&2
        cat "$tmp/huge.json" >&2
        exit 1
    fi
    "$serve" client --addr "$addr" healthz > /dev/null
    "$serve" client --addr "$addr" shutdown > /dev/null
    wait "$pid"

    echo "   -- --deadline -1 is a usage error and publishes no address"
    local code=0
    timeout 30 "$serve" --addr 127.0.0.1:0 --addr-file "$tmp/addr5" --deadline -1 \
        2>> "$tmp/daemon.log" || code=$?
    if [ "$code" -ne 2 ] || [ -e "$tmp/addr5" ]; then
        echo "tier1 serve: --deadline -1 exited $code instead of a usage error" >&2
        exit 1
    fi
    echo "   -- serve stage green"
}

stage_perfbench() {
    echo "== tier1: perfbench build + unit tests (release, own lockfile)"
    CARGO_TARGET_DIR=target/perfbench cargo test --release --offline --locked \
        --manifest-path perfbench/Cargo.toml
}

stage_all() {
    stage_fmt
    stage_build
    stage_test
    stage_golden
    stage_query
    stage_doc
    stage_clippy
    stage_bench
    stage_artifact
    stage_serve
    stage_perfbench
    echo "== tier1: all green"
}

stage="${1:-all}"
case "$stage" in
    fmt|build|test|golden|query|doc|clippy|bench|artifact|serve|perfbench|all)
        "stage_$stage"
        ;;
    *)
        echo "unknown stage: $stage" >&2
        echo "usage: $0 [fmt|build|test|golden|query|doc|clippy|bench|artifact|serve|perfbench|all]" >&2
        exit 2
        ;;
esac
