#!/usr/bin/env bash
# Offline verification gate: the whole workspace must build, lint, test and
# smoke-bench with no network and no registry crates, and the mm-exec
# parallel scheduler must be byte-identical to the sequential path.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# --locked: a stale lock file fails here instead of being rewritten.
cargo build --workspace --release --locked
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Domain lints (determinism scopes, hermetic manifests, panic-free
# libraries, cross-file semantic rules — DESIGN.md §8, §13): zero
# unsuppressed diagnostics allowed, and under --strict-suppress every
# mm-allow annotation must still match a live diagnostic (stale
# suppressions are errors, not warnings).
./target/release/mmlint --root . --strict-suppress
cargo test -q --workspace
# The scheduler determinism contract, explicitly (also part of the suite
# above; kept separate so a violation is unmistakable in CI logs).
cargo test -q --release --test determinism
# The fleet golden hash and the 100k-UE run in the release build the
# benchmark measures (the debug suite above skips the 100k run).
cargo test -q --release --test fleet
# The pipeline benchmark is its own workspace, so the builds above never
# compile it: test it here so a public-API change cannot break it silently.
cargo test -q --release --locked --manifest-path benches/pipeline/Cargo.toml
cargo bench -p mm-bench -- --smoke
cargo bench -p mm-bench --bench exec -- --smoke

# End-to-end: `mmx all ablations` stdout must not depend on the thread
# count, and neither may the deterministic telemetry snapshot emitted by
# --metrics. Any divergence here is a scheduler-determinism bug.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
seq_out="$(MM_THREADS=1 ./target/release/mmx all ablations --quick --metrics="$tmpdir/m1.json" 2>/dev/null)"
par_out="$(MM_THREADS=8 ./target/release/mmx all ablations --quick --metrics="$tmpdir/m8.json" 2>/dev/null)"
if [ "$seq_out" != "$par_out" ]; then
    echo "verify.sh: FAIL — mmx output diverges between MM_THREADS=1 and 8" >&2
    exit 1
fi
echo "verify.sh: mmx parallel output identical to sequential (MM_THREADS=1 vs 8)"
if ! cmp -s "$tmpdir/m1.json" "$tmpdir/m8.json"; then
    echo "verify.sh: FAIL — mmx --metrics snapshot diverges between MM_THREADS=1 and 8" >&2
    diff "$tmpdir/m1.json" "$tmpdir/m8.json" >&2 || true
    exit 1
fi
echo "verify.sh: mmx --metrics telemetry snapshot identical (MM_THREADS=1 vs 8)"

# Lint determinism (DESIGN.md §13): the scattered per-file analyses must
# gather into byte-identical output at any thread count. --no-cache keeps
# the comparison about the scheduler, not the cache.
MM_THREADS=1 ./target/release/mmlint --root . --no-cache --json > "$tmpdir/lint1.json"
MM_THREADS=8 ./target/release/mmlint --root . --no-cache --json > "$tmpdir/lint8.json"
if ! cmp -s "$tmpdir/lint1.json" "$tmpdir/lint8.json"; then
    echo "verify.sh: FAIL — mmlint --json diverges between MM_THREADS=1 and 8" >&2
    diff "$tmpdir/lint1.json" "$tmpdir/lint8.json" >&2 || true
    exit 1
fi
echo "verify.sh: mmlint --json byte-identical (MM_THREADS=1 vs 8)"

# Storage layer (DESIGN.md §9): a warm `--load` rerun must byte-identically
# replay the cold run's stdout and --metrics snapshot, at any thread count.
store="$tmpdir/store"
cold_out="$(MM_THREADS=1 ./target/release/mmx all --quick --store "$store" --save --metrics="$tmpdir/cold.json" 2>/dev/null)"
warm_out="$(MM_THREADS=8 ./target/release/mmx all --quick --store "$store" --load --metrics="$tmpdir/warm.json" 2>/dev/null)"
if [ "$cold_out" != "$warm_out" ]; then
    echo "verify.sh: FAIL — warm mmx --load stdout diverges from the cold run" >&2
    exit 1
fi
if ! cmp -s "$tmpdir/cold.json" "$tmpdir/warm.json"; then
    echo "verify.sh: FAIL — warm mmx --load metrics diverge from the cold run" >&2
    diff "$tmpdir/cold.json" "$tmpdir/warm.json" >&2 || true
    exit 1
fi
echo "verify.sh: mmx cold-vs-warm store replay byte-identical (stdout + metrics)"

# Corruption injection: a damaged store entry must fail with the typed
# runtime exit code (3), never panic and never silently fall back.
bundle="$(ls "$store"/run-*.mmst)"
corrupt_check() {
    local label="$1"
    set +e
    err="$(MM_THREADS=2 ./target/release/mmx all --quick --store "$store" --load 2>&1 >/dev/null)"
    code=$?
    set -e
    if [ "$code" -ne 3 ]; then
        echo "verify.sh: FAIL — $label store entry exited $code (want 3): $err" >&2
        exit 1
    fi
    if ! printf '%s' "$err" | grep -q "store error"; then
        echo "verify.sh: FAIL — $label store entry lacks typed diagnosis: $err" >&2
        exit 1
    fi
}
cp "$bundle" "$tmpdir/bundle.bak"
printf '\xff' | dd of="$bundle" bs=1 seek=200 conv=notrunc 2>/dev/null   # bit flip
corrupt_check "bit-flipped"
head -c 64 "$tmpdir/bundle.bak" > "$bundle"                              # truncation
corrupt_check "truncated"
printf 'XXXX' | dd of="$bundle" bs=1 conv=notrunc 2>/dev/null            # wrong magic
corrupt_check "wrong-magic"
cp "$tmpdir/bundle.bak" "$bundle"
printf '\x63' | dd of="$bundle" bs=1 seek=4 conv=notrunc 2>/dev/null     # future version
corrupt_check "future-version"
echo "verify.sh: corrupted store entries fail typed (exit 3) for all four damage classes"

# Streaming aggregation (DESIGN.md §10): with the run bundle gone but the
# dataset entries still cached, a --load falls back to the cold path fed by
# the *streamed* D2 aggregate — its stdout must byte-match the materialized
# cold run above.
rm -f "$store"/run-*.mmst
stream_out="$(MM_THREADS=8 ./target/release/mmx all --quick --store "$store" --load 2>/dev/null)"
if [ "$cold_out" != "$stream_out" ]; then
    echo "verify.sh: FAIL — streamed-aggregate re-render diverges from the materialized run" >&2
    exit 1
fi
echo "verify.sh: streamed D2 aggregate re-render byte-identical to the materialized run"

# Query front-end (DESIGN.md §11): `mmq` must answer every store-served
# artifact byte-identically to `mmx --load` streaming the same campaign,
# replay warm answers from the query cache alone, and union appended
# rounds without ever rewriting a prior round's file.
qstore="$tmpdir/qstore"
./target/release/mmx crawl --quick --store "$qstore" >/dev/null 2>&1
served="t2 t3 t4 f11 f12 f13 f14 f15 f16 f17 f18 f19 f20 f21 f22"
mmx_q="$(MM_THREADS=8 ./target/release/mmx $served --quick --store "$qstore" --load 2>/dev/null)"
mmq_q="$(./target/release/mmq $served --quick --store "$qstore" 2>/dev/null)"
if [ "$mmx_q" != "$mmq_q" ]; then
    echo "verify.sh: FAIL — mmq output diverges from mmx --load on the same campaign" >&2
    exit 1
fi
echo "verify.sh: mmq answers all 15 store-served artifacts byte-identically to mmx --load"

warm_err="$(./target/release/mmq $served --quick --store "$qstore" 2>&1 >"$tmpdir/mmq-warm.txt")"
if [ "$(cat "$tmpdir/mmq-warm.txt")" != "$mmq_q" ] || ! printf '%s' "$warm_err" | grep -q "query-cache hit"; then
    echo "verify.sh: FAIL — warm mmq rerun is not a byte-identical query-cache replay" >&2
    exit 1
fi
echo "verify.sh: warm mmq rerun replays the query cache byte-identically (no blocks opened)"

# Append-only rounds: the prior round's file stays byte-identical, the
# union covers more samples, and a --rounds 0 ceiling reproduces the
# pre-append answer exactly.
base_f12="$(./target/release/mmq f12 --quick --store "$qstore" 2>/dev/null)"
round0="$(ls "$qstore"/d2-*.mmst | grep -v 'd2-round' | head -n1)"
round0_sum="$(cksum "$round0")"
./target/release/mmx --append --quick --store "$qstore" >/dev/null 2>&1
if [ "$(cksum "$round0")" != "$round0_sum" ]; then
    echo "verify.sh: FAIL — mmx --append rewrote the round-0 entry" >&2
    exit 1
fi
union_f12="$(./target/release/mmq f12 --quick --store "$qstore" 2>/dev/null)"
ceil_f12="$(./target/release/mmq f12 --rounds 0 --quick --store "$qstore" 2>/dev/null)"
if [ "$union_f12" = "$base_f12" ] || [ "$ceil_f12" != "$base_f12" ]; then
    echo "verify.sh: FAIL — appended round does not union (or --rounds 0 is not the round-0 answer)" >&2
    exit 1
fi
echo "verify.sh: mmx --append left round 0 untouched; mmq unions it and --rounds 0 replays the old answer"

# Schema fail-fast: a campaign entry of the wrong kind must be a typed
# runtime error (exit 3) before any row decode is attempted.
cp "$qstore"/manifest-*.mmst "$round0"
set +e
q_err="$(./target/release/mmq f13 --quick --store "$qstore" 2>&1 >/dev/null)"
q_code=$?
set -e
if [ "$q_code" -ne 3 ] || ! printf '%s' "$q_err" | grep -q "store error"; then
    echo "verify.sh: FAIL — wrong-kind campaign entry exited $q_code (want 3): $q_err" >&2
    exit 1
fi
echo "verify.sh: wrong-kind campaign entry fails typed (exit 3) under mmq"

# Paper scale: the full crawl must reach the published dataset volume
# (>= 8M samples, paper: 7,996,149), and every D2 figure must render off
# the on-disk store inside a fixed memory ceiling — materializing the
# ~8M-sample dataset (~650 MB resident) is impossible under it, so staying
# below proves the block-streamed path (DESIGN.md §10).
paper_store="$tmpdir/paper-store"
crawl_line="$(./target/release/mmx crawl --scale paper --store "$paper_store" 2>&1 | grep 'mmx crawl:')"
echo "verify.sh: $crawl_line"
n_samples="$(printf '%s' "$crawl_line" | sed -n 's/.*crawl: \([0-9]*\) samples.*/\1/p')"
if [ -z "$n_samples" ] || [ "$n_samples" -lt 8000000 ]; then
    echo "verify.sh: FAIL — paper-scale crawl yielded ${n_samples:-0} samples (want >= 8,000,000)" >&2
    exit 1
fi
rss_ceiling_kb=409600   # 400 MB; the streamed render measures ~165 MB
./target/release/mmx f11 f12 f13 f14 f15 f16 f17 f18 f19 f20 f21 f22 \
    --scale paper --store "$paper_store" --load > "$tmpdir/paper-figs.txt" 2>/dev/null &
mmx_pid=$!
peak_kb=0
while kill -0 "$mmx_pid" 2>/dev/null; do
    rss="$(awk '/VmRSS/{print $2}' "/proc/$mmx_pid/status" 2>/dev/null || echo 0)"
    [ "${rss:-0}" -gt "$peak_kb" ] && peak_kb=$rss
    sleep 0.05
done
if ! wait "$mmx_pid"; then
    echo "verify.sh: FAIL — paper-scale streamed figure render exited nonzero" >&2
    exit 1
fi
if [ "$peak_kb" -gt "$rss_ceiling_kb" ]; then
    echo "verify.sh: FAIL — paper-scale render peaked at ${peak_kb} kB RSS (ceiling ${rss_ceiling_kb} kB)" >&2
    exit 1
fi
if [ "$(wc -l < "$tmpdir/paper-figs.txt")" -lt 100 ]; then
    echo "verify.sh: FAIL — paper-scale figure output is implausibly short" >&2
    exit 1
fi
echo "verify.sh: paper-scale D2 (${n_samples} samples) rendered off-store at ${peak_kb} kB peak RSS (ceiling ${rss_ceiling_kb} kB)"

# Predicate pushdown at paper scale: a single-carrier query must skip at
# least half of the row groups — the crawl clusters carriers, so the
# per-group vocabulary stats rule most blocks out before any column (or
# checksum) is touched.
scan_line="$(./target/release/mmq f16 --carrier A --rat lte --scale paper --store "$paper_store" 2>&1 >/dev/null | grep 'mmq scan:')"
echo "verify.sh: $scan_line"
decoded="$(printf '%s' "$scan_line" | sed -n 's/.*: \([0-9]*\) of [0-9]* group(s).*/\1/p')"
total="$(printf '%s' "$scan_line" | sed -n 's/.* of \([0-9]*\) group(s).*/\1/p')"
if [ -z "$decoded" ] || [ -z "$total" ] || [ $((decoded * 2)) -gt "$total" ]; then
    echo "verify.sh: FAIL — carrier query decoded ${decoded:-?} of ${total:-?} groups (want <= half)" >&2
    exit 1
fi
echo "verify.sh: paper-scale carrier query decoded ${decoded}/${total} row groups (pushdown skipped >= 50%)"

# The aggregation bench must publish its samples/sec section in the JSON
# report — the number the performance claims in README.md cite.
cargo bench -p mm-bench --bench aggregate -- --smoke
agg_report="${MM_BENCH_DIR:-target/mm-bench}/aggregate.json"
for key in aggregate_rate crawl_samples_per_s agg_from_store_samples_per_s; do
    if ! grep -q "$key" "$agg_report"; then
        echo "verify.sh: FAIL — $agg_report lacks the $key section" >&2
        exit 1
    fi
done
echo "verify.sh: aggregate bench JSON carries the aggregate_rate samples/sec section"

# The query bench must publish both mmq sections, and pushdown must beat
# the full scan by at least 2x on the same carrier slice.
cargo bench -p mm-bench --bench query -- --smoke
q_report="${MM_BENCH_DIR:-target/mm-bench}/query.json"
for key in query_pushdown full_scan_rows_per_s pushdown_rows_per_s speedup_x query_latency warm_speedup_x; do
    if ! grep -q "$key" "$q_report"; then
        echo "verify.sh: FAIL — $q_report lacks the $key section" >&2
        exit 1
    fi
done
speedup="$(sed -n 's/.*"speedup_x":\([0-9.]*\).*/\1/p' "$q_report")"
if ! awk -v s="${speedup:-0}" 'BEGIN { exit !(s >= 2.0) }'; then
    echo "verify.sh: FAIL — pushdown speedup ${speedup:-?}x is below the 2x gate" >&2
    exit 1
fi
echo "verify.sh: query bench pushdown speedup ${speedup}x (gate: >= 2x) with both JSON sections"

# Fleet scale (DESIGN.md §12): the event-driven runtime must carry 100k
# concurrent UEs in one process inside a fixed memory ceiling — integer
# tallies are O(1) per UE, so staying below proves nothing per-UE is
# materialized — and the report plus retained telemetry must be
# byte-identical for any MM_THREADS and any shard count.
fleet_rss_ceiling_kb=131072   # 128 MB; the 100k-UE tally run measures ~60 MB
MM_THREADS=8 ./target/release/mmx fleet --ues 100000 --shards 64 --duration-s 2 \
    --metrics="$tmpdir/fleet-a.json" > "$tmpdir/fleet-a.txt" 2>/dev/null &
fleet_pid=$!
fleet_peak_kb=0
while kill -0 "$fleet_pid" 2>/dev/null; do
    rss="$(awk '/VmRSS/{print $2}' "/proc/$fleet_pid/status" 2>/dev/null || echo 0)"
    [ "${rss:-0}" -gt "$fleet_peak_kb" ] && fleet_peak_kb=$rss
    sleep 0.05
done
if ! wait "$fleet_pid"; then
    echo "verify.sh: FAIL — 100k-UE fleet run exited nonzero" >&2
    exit 1
fi
if [ "$fleet_peak_kb" -gt "$fleet_rss_ceiling_kb" ]; then
    echo "verify.sh: FAIL — 100k-UE fleet peaked at ${fleet_peak_kb} kB RSS (ceiling ${fleet_rss_ceiling_kb} kB)" >&2
    exit 1
fi
if ! grep -q "fleet: ues 100000 attached 100000" "$tmpdir/fleet-a.txt"; then
    echo "verify.sh: FAIL — fleet report did not attach all 100,000 UEs" >&2
    cat "$tmpdir/fleet-a.txt" >&2
    exit 1
fi
MM_THREADS=1 ./target/release/mmx fleet --ues 100000 --shards 16 --duration-s 2 \
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
echo "verify.sh: 100k-UE fleet at ${fleet_peak_kb} kB peak RSS (ceiling ${fleet_rss_ceiling_kb} kB), thread/shard-invariant report + metrics"

# The fleet bench must publish its UE-events/sec section in the JSON
# report — the throughput number README.md cites for the runtime.
cargo bench -p mm-bench --bench fleet -- --smoke
fleet_report="${MM_BENCH_DIR:-target/mm-bench}/fleet.json"
for key in fleet_rate ue_events_per_sec; do
    if ! grep -q "$key" "$fleet_report"; then
        echo "verify.sh: FAIL — $fleet_report lacks the $key section" >&2
        exit 1
    fi
done
echo "verify.sh: fleet bench JSON carries the fleet_rate ue_events_per_sec section"

# The lint bench must publish cold-vs-warm files/sec, and the warm
# (cache-served) run must be at least 3x faster than the cold run — the
# number that makes incremental `mmlint` worth its cache. Full sampling
# (not --smoke): the gate reads a median, not a single timing.
cargo bench -p mm-bench --bench lint
lint_report="${MM_BENCH_DIR:-target/mm-bench}/lint.json"
for key in lint_cache cold_files_per_s warm_files_per_s warm_speedup_x; do
    if ! grep -q "$key" "$lint_report"; then
        echo "verify.sh: FAIL — $lint_report lacks the $key section" >&2
        exit 1
    fi
done
lint_speedup="$(sed -n 's/.*"warm_speedup_x":\([0-9.]*\).*/\1/p' "$lint_report")"
if ! awk -v s="${lint_speedup:-0}" 'BEGIN { exit !(s >= 3.0) }'; then
    echo "verify.sh: FAIL — warm mmlint speedup ${lint_speedup:-?}x is below the 3x gate" >&2
    exit 1
fi
echo "verify.sh: lint bench warm-cache speedup ${lint_speedup}x (gate: >= 3x) with cold/warm files/sec sections"

# Query serving (DESIGN.md §14): a resident mmqd must answer concurrent
# `mmq --connect` clients byte-identically to local `mmq` over the same
# store, share its warm query cache across connections, expose a
# well-formed Serve telemetry snapshot through the stats control request,
# and drain to exit 0 on the shutdown control frame — at MM_THREADS=1
# (one worker serializing every client) and MM_THREADS=8 alike.
sstore="$tmpdir/sstore"
./target/release/mmx f5 --quick --store "$sstore" --save >/dev/null 2>&1
./target/release/mmq $served --quick --store "$sstore" > "$tmpdir/ref-corpus.txt" 2>/dev/null
./target/release/mmq div --carrier A --quick --store "$sstore" > "$tmpdir/ref-div.txt" 2>/dev/null
./target/release/mmq ho-active --quick --store "$sstore" > "$tmpdir/ref-ho-active.txt" 2>/dev/null
./target/release/mmq ho-idle --quick --store "$sstore" > "$tmpdir/ref-ho-idle.txt" 2>/dev/null
./target/release/mmq f16 --group-by carrier --quick --store "$sstore" > "$tmpdir/ref-group.txt" 2>/dev/null
for threads in 1 8; do
    MM_THREADS=$threads ./target/release/mmqd --store "$sstore" --quick \
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
        ./target/release/mmq $args --connect "$addr" \
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
    warm_serve_err="$(./target/release/mmq f16 --connect "$addr" 2>&1 >/dev/null)"
    if ! printf '%s' "$warm_serve_err" | grep -q "query-cache hit"; then
        echo "verify.sh: FAIL — repeat served query was not a warm cache hit: $warm_serve_err" >&2
        exit 1
    fi
    # The Serve snapshot is well-formed JSON with the serving counters.
    stats_out="$(./target/release/mmq stats --connect "$addr" 2>/dev/null)"
    for key in '"name":"serve"' cache_hits connections requests_served service_ms queue_depth; do
        if ! printf '%s' "$stats_out" | grep -q "$key"; then
            echo "verify.sh: FAIL — serve stats snapshot lacks $key: $stats_out" >&2
            exit 1
        fi
    done
    # Clean drain: the control frame is acknowledged and mmqd exits 0.
    ./target/release/mmq shutdown --connect "$addr" >/dev/null 2>&1
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

# The serve bench must publish warm-vs-cold-process qps, and the resident
# warm path must beat spawning a fresh mmq per query by at least 100x.
cargo bench -p mm-bench --bench serve -- --smoke
serve_report="${MM_BENCH_DIR:-target/mm-bench}/serve.json"
for key in serve_rate warm_qps cold_process_qps speedup_x; do
    if ! grep -q "$key" "$serve_report"; then
        echo "verify.sh: FAIL — $serve_report lacks the $key section" >&2
        exit 1
    fi
done
serve_speedup="$(sed -n 's/.*"speedup_x":\([0-9.]*\).*/\1/p' "$serve_report")"
if ! awk -v s="${serve_speedup:-0}" 'BEGIN { exit !(s >= 100.0) }'; then
    echo "verify.sh: FAIL — warm served qps is ${serve_speedup:-?}x the cold-process path (gate: >= 100x)" >&2
    exit 1
fi
echo "verify.sh: serve bench warm qps ${serve_speedup}x the cold-process path (gate: >= 100x)"

echo "verify.sh: build + fmt + clippy + mmlint strict + tests + determinism + bench smoke + store + streaming + paper-scale + query + fleet + lint-cache + serving gates all green (offline)"
