#!/usr/bin/env bash
# Offline verification gate: the whole workspace must build, lint, test and
# smoke-bench with no network and no registry crates. The byte-identity
# checks are Rust tests; this script adds only the gates that need a whole
# process: paper-scale volume and memory, the 100k-UE fleet, mmqd serving
# and the bench reports' sections. No gate compares wall-clock timings.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
# cargo builds into $CARGO_TARGET_DIR when it is set.
bin="${CARGO_TARGET_DIR:-target}/release"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# Poll PID's resident set into peak_kb (kB) until it exits, then return
# its exit status. Call it in this shell: a $(…) subshell cannot wait on
# its parent's child.
peak_rss() {
    local pid="$1" rss
    peak_kb=0
    while kill -0 "$pid" 2>/dev/null; do
        rss="$(awk '/VmRSS/{print $2}' "/proc/$pid/status" 2>/dev/null || echo 0)"
        [ "${rss:-0}" -gt "$peak_kb" ] && peak_kb=$rss
        sleep 0.05
    done
    wait "$pid"
}

# Fail unless the JSON report REPORT carries every KEY, matched as a
# whole quoted key (`speedup_x` is not satisfied by `warm_speedup_x`).
require_keys() {
    local report="$1" key
    shift
    for key in "$@"; do
        if ! grep -q "\"$key\"" "$report"; then
            echo "verify.sh: FAIL — $report lacks the $key section" >&2
            exit 1
        fi
    done
}

# --locked: a stale lock file fails here instead of being rewritten.
cargo build --workspace --release --locked
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Domain lints (determinism scopes, hermetic manifests, panic-free
# libraries, cross-file semantic rules — DESIGN.md §8, §13): zero
# unsuppressed diagnostics allowed, and under --strict-suppress every
# mm-allow annotation must still match a live diagnostic (stale
# suppressions are errors, not warnings).
"$bin"/mmlint --root . --strict-suppress
cargo test -q --workspace
# The byte-identity tests again, against the release binaries: output,
# --metrics and mmlint --json invariant to MM_THREADS, the golden hashes
# (and the fleet's 100k-UE run, which the debug suite skips), streamed vs
# materialized figures, store replay and typed store errors, and mmq
# equivalence with mmx.
cargo test -q --release -p mobility-mm --test determinism --test fleet --test streaming_equiv
cargo test -q --release -p mmexperiments --test query_equiv --test store_cli --test telemetry
cargo test -q --release -p mm-lint --test workspace
# The pipeline benchmark is its own workspace, so the builds above never
# compile it: test it here so a public-API change cannot break it silently.
cargo test -q --release --locked --manifest-path benches/pipeline/Cargo.toml

# Paper scale: the full crawl must reach the published dataset volume
# (>= 8M samples, paper: 7,996,149), and every D2 figure must render off
# the on-disk store inside a fixed memory ceiling — materializing the
# ~8M-sample dataset (~650 MB resident) is impossible under it, so staying
# below proves the block-streamed path (DESIGN.md §10).
paper_store="$tmpdir/paper-store"
crawl_line="$("$bin"/mmx crawl --scale paper --store "$paper_store" 2>&1 | grep 'mmx crawl:')"
echo "verify.sh: $crawl_line"
n_samples="$(printf '%s' "$crawl_line" | sed -n 's/.*crawl: \([0-9]*\) samples.*/\1/p')"
if [ -z "$n_samples" ] || [ "$n_samples" -lt 8000000 ]; then
    echo "verify.sh: FAIL — paper-scale crawl yielded ${n_samples:-0} samples (want >= 8,000,000)" >&2
    exit 1
fi
rss_ceiling_kb=409600   # 400 MB; the streamed render measures ~145 MB
render_start="$(date +%s.%N)"
"$bin"/mmx f11 f12 f13 f14 f15 f16 f17 f18 f19 f20 f21 f22 \
    --scale paper --store "$paper_store" --load > "$tmpdir/paper-figs.txt" 2>/dev/null &
if ! peak_rss $!; then
    echo "verify.sh: FAIL — paper-scale streamed figure render exited nonzero" >&2
    exit 1
fi
render_s="$(awk -v a="$render_start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.2f", b - a }')"
if [ "$peak_kb" -gt "$rss_ceiling_kb" ]; then
    echo "verify.sh: FAIL — paper-scale render peaked at ${peak_kb} kB RSS (ceiling ${rss_ceiling_kb} kB)" >&2
    exit 1
fi
if [ "$(wc -l < "$tmpdir/paper-figs.txt")" -lt 100 ]; then
    echo "verify.sh: FAIL — paper-scale figure output is implausibly short" >&2
    exit 1
fi
# Pin the paper-scale store bytes: cksum (CRC and size) of the d2 entry
# the crawl wrote. A change to the column encodings, the dictionary's id
# order or the group stats must update it on purpose.
store_sum="$(cksum < "$paper_store"/d2-*.mmst)"
if [ "$store_sum" != "2553311804 143336572" ]; then
    echo "verify.sh: FAIL — paper-scale d2 entry cksum is '$store_sum' (want '2553311804 143336572')" >&2
    exit 1
fi
# Pin the paper-scale figures themselves; they are the same at any
# MM_THREADS.
paper_sum="$(cksum < "$tmpdir/paper-figs.txt")"
if [ "$paper_sum" != "64495986 17300" ]; then
    echo "verify.sh: FAIL — paper-scale figures cksum is '$paper_sum' (want '64495986 17300')" >&2
    exit 1
fi
echo "verify.sh: paper-scale D2 (${n_samples} samples) rendered off-store in ${render_s} s at ${peak_kb} kB peak RSS (ceiling ${rss_ceiling_kb} kB), store and figures cksums pinned"
# The same render with one thread: the scan's decode stage then runs
# inline instead of on a second core (DESIGN.md §6), and the figures must
# not change.
seq_start="$(date +%s.%N)"
MM_THREADS=1 "$bin"/mmx f11 f12 f13 f14 f15 f16 f17 f18 f19 f20 f21 f22 \
    --scale paper --store "$paper_store" --load > "$tmpdir/paper-figs-1.txt" 2>/dev/null
seq_s="$(awk -v a="$seq_start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.2f", b - a }')"
seq_sum="$(cksum < "$tmpdir/paper-figs-1.txt")"
if [ "$seq_sum" != "64495986 17300" ]; then
    echo "verify.sh: FAIL — paper-scale figures cksum at MM_THREADS=1 is '$seq_sum' (want '64495986 17300')" >&2
    exit 1
fi
echo "verify.sh: paper-scale D2 render at MM_THREADS=1 matches the pinned cksum (${seq_s} s vs ${render_s} s at the default thread count)"

# Predicate pushdown at paper scale: a single-carrier query must skip at
# least half of the row groups — the crawl clusters carriers, so the
# per-group vocabulary stats rule most blocks out before any column (or
# checksum) is touched.
scan_line="$("$bin"/mmq f16 --carrier A --rat lte --scale paper --store "$paper_store" 2>&1 >/dev/null | grep 'mmq scan:')"
echo "verify.sh: $scan_line"
decoded="$(printf '%s' "$scan_line" | sed -n 's/.*: \([0-9]*\) of [0-9]* group(s).*/\1/p')"
total="$(printf '%s' "$scan_line" | sed -n 's/.* of \([0-9]*\) group(s).*/\1/p')"
if [ -z "$decoded" ] || [ -z "$total" ] || [ $((decoded * 2)) -gt "$total" ]; then
    echo "verify.sh: FAIL — carrier query decoded ${decoded:-?} of ${total:-?} groups (want <= half)" >&2
    exit 1
fi
echo "verify.sh: paper-scale carrier query decoded ${decoded}/${total} row groups (pushdown skipped >= 50%)"

# Fleet scale (DESIGN.md §12): the event-driven runtime must carry 100k
# concurrent UEs in one process inside a fixed memory ceiling — integer
# tallies are O(1) per UE, so staying below proves nothing per-UE is
# materialized — and the report plus retained telemetry must be
# byte-identical for any MM_THREADS and any shard count.
fleet_rss_ceiling_kb=131072   # 128 MB; the 100k-UE tally run measures ~60 MB
MM_THREADS=8 "$bin"/mmx fleet --ues 100000 --shards 64 --duration-s 2 \
    --metrics="$tmpdir/fleet-a.json" > "$tmpdir/fleet-a.txt" 2>/dev/null &
if ! peak_rss $!; then
    echo "verify.sh: FAIL — 100k-UE fleet run exited nonzero" >&2
    exit 1
fi
if [ "$peak_kb" -gt "$fleet_rss_ceiling_kb" ]; then
    echo "verify.sh: FAIL — 100k-UE fleet peaked at ${peak_kb} kB RSS (ceiling ${fleet_rss_ceiling_kb} kB)" >&2
    exit 1
fi
if ! grep -q "fleet: ues 100000 attached 100000" "$tmpdir/fleet-a.txt"; then
    echo "verify.sh: FAIL — fleet report did not attach all 100,000 UEs" >&2
    cat "$tmpdir/fleet-a.txt" >&2
    exit 1
fi
MM_THREADS=1 "$bin"/mmx fleet --ues 100000 --shards 16 --duration-s 2 \
    --metrics="$tmpdir/fleet-b.json" > "$tmpdir/fleet-b.txt" 2>/dev/null
if ! cmp -s "$tmpdir/fleet-a.txt" "$tmpdir/fleet-b.txt"; then
    echo "verify.sh: FAIL — fleet report differs between MM_THREADS=8/64 shards and MM_THREADS=1/16 shards" >&2
    diff "$tmpdir/fleet-a.txt" "$tmpdir/fleet-b.txt" >&2 || true
    exit 1
fi
if ! cmp -s "$tmpdir/fleet-a.json" "$tmpdir/fleet-b.json"; then
    echo "verify.sh: FAIL — fleet --metrics differ between MM_THREADS=8/64 shards and MM_THREADS=1/16 shards" >&2
    exit 1
fi
echo "verify.sh: 100k-UE fleet at ${peak_kb} kB peak RSS (ceiling ${fleet_rss_ceiling_kb} kB), thread/shard-invariant report + metrics"

# Query serving (DESIGN.md §14): a resident mmqd must answer concurrent
# `mmq --connect` clients byte-identically to local `mmq` over the same
# store, share its warm query cache across connections, expose a
# well-formed Serve telemetry snapshot through the stats control request,
# and drain to exit 0 on the shutdown control frame — at MM_THREADS=1
# (one worker serializing every client) and MM_THREADS=8 alike.
sstore="$tmpdir/sstore"
served="t2 t3 t4 f11 f12 f13 f14 f15 f16 f17 f18 f19 f20 f21 f22"
"$bin"/mmx f5 --quick --store "$sstore" --save >/dev/null 2>&1
"$bin"/mmq $served --quick --store "$sstore" > "$tmpdir/ref-corpus.txt" 2>/dev/null
"$bin"/mmq div --carrier A --quick --store "$sstore" > "$tmpdir/ref-div.txt" 2>/dev/null
"$bin"/mmq ho-active --quick --store "$sstore" > "$tmpdir/ref-ho-active.txt" 2>/dev/null
"$bin"/mmq ho-idle --quick --store "$sstore" > "$tmpdir/ref-ho-idle.txt" 2>/dev/null
"$bin"/mmq f16 --group-by carrier --quick --store "$sstore" > "$tmpdir/ref-group.txt" 2>/dev/null
for threads in 1 8; do
    MM_THREADS=$threads "$bin"/mmqd --store "$sstore" --quick \
        > "$tmpdir/mmqd-$threads.out" 2>/dev/null &
    mmqd_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^mmqd: listening on //p' "$tmpdir/mmqd-$threads.out")"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "verify.sh: FAIL — mmqd (MM_THREADS=$threads) never reported its address" >&2
        exit 1
    fi
    # Eight concurrent clients: three full corpora, two diversity slices,
    # both handoff summaries, one carrier-grouped figure.
    declare -A want=(
        [c1]="ref-corpus" [c2]="ref-corpus" [c3]="ref-corpus"
        [d1]="ref-div" [d2]="ref-div"
        [ha]="ref-ho-active" [hi]="ref-ho-idle"
        [g1]="ref-group"
    )
    pids=""
    for tag in c1 c2 c3 d1 d2 ha hi g1; do
        case "$tag" in
            c*) args="$served" ;;
            d*) args="div --carrier A" ;;
            ha) args="ho-active" ;;
            hi) args="ho-idle" ;;
            g1) args="f16 --group-by carrier" ;;
        esac
        "$bin"/mmq $args --connect "$addr" \
            > "$tmpdir/client-$tag.txt" 2>/dev/null &
        pids="$pids $!"
    done
    for pid in $pids; do
        if ! wait "$pid"; then
            echo "verify.sh: FAIL — a concurrent mmq --connect client exited nonzero (MM_THREADS=$threads)" >&2
            exit 1
        fi
    done
    for tag in c1 c2 c3 d1 d2 ha hi g1; do
        if ! cmp -s "$tmpdir/client-$tag.txt" "$tmpdir/${want[$tag]}.txt"; then
            echo "verify.sh: FAIL — served output $tag diverges from local mmq (MM_THREADS=$threads)" >&2
            diff "$tmpdir/client-$tag.txt" "$tmpdir/${want[$tag]}.txt" >&2 || true
            exit 1
        fi
    done
    # Warm service: a repeat query must be a cache hit that opened no
    # data blocks — the shared-engine claim, observable client-side.
    warm_serve_err="$("$bin"/mmq f16 --connect "$addr" 2>&1 >/dev/null)"
    if ! printf '%s' "$warm_serve_err" | grep -q "query-cache hit"; then
        echo "verify.sh: FAIL — repeat served query was not a warm cache hit: $warm_serve_err" >&2
        exit 1
    fi
    # The Serve snapshot is well-formed JSON with the serving counters.
    stats_out="$("$bin"/mmq stats --connect "$addr" 2>/dev/null)"
    for key in '"name":"serve"' cache_hits connections requests_served service_ms queue_depth; do
        if ! printf '%s' "$stats_out" | grep -q "$key"; then
            echo "verify.sh: FAIL — serve stats snapshot lacks $key: $stats_out" >&2
            exit 1
        fi
    done
    # Clean drain: the control frame is acknowledged and mmqd exits 0.
    "$bin"/mmq shutdown --connect "$addr" >/dev/null 2>&1
    if ! wait "$mmqd_pid"; then
        echo "verify.sh: FAIL — mmqd exited nonzero after shutdown (MM_THREADS=$threads)" >&2
        exit 1
    fi
    if ! grep -q "mmqd: drained, exiting" "$tmpdir/mmqd-$threads.out"; then
        echo "verify.sh: FAIL — mmqd did not report a clean drain (MM_THREADS=$threads)" >&2
        exit 1
    fi
    echo "verify.sh: mmqd served 8 concurrent clients byte-identically, warm-cached, and drained clean (MM_THREADS=$threads)"
done

# One smoke pass runs every bench routine once and writes its reports;
# MM_BENCH_OUT keeps them apart from any earlier run's. They must publish
# the rates README.md cites. The ratios in them are recorded, not gated:
# the facts they stand for are counted by `cargo test` above (a carrier
# slice decodes at most half of the row groups, a cached answer reads no
# data block, a warm mmlint run re-analyzes no file).
export MM_BENCH_OUT="$tmpdir/bench"
cargo bench -p mm-bench -- --smoke
require_keys "$MM_BENCH_OUT/aggregate.json" aggregate_rate crawl_samples_per_s agg_from_store_samples_per_s
require_keys "$MM_BENCH_OUT/query.json" query_pushdown full_scan_rows_per_s pushdown_rows_per_s speedup_x query_latency warm_speedup_x
require_keys "$MM_BENCH_OUT/fleet.json" fleet_rate ue_events_per_sec
require_keys "$MM_BENCH_OUT/serve.json" serve_rate warm_qps cold_process_qps speedup_x
require_keys "$MM_BENCH_OUT/lint.json" lint_cache cold_files_per_s warm_files_per_s warm_speedup_x
echo "verify.sh: aggregate, query, fleet, serve and lint bench JSON carry their rate sections"

echo "verify.sh: build + fmt + clippy + mmlint strict + tests (debug and release) + paper-scale + fleet + serving + bench smoke sections all green (offline)"
