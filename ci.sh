#!/usr/bin/env bash
# Local CI gate: everything a PR must pass, in the order that fails fastest.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> non-test lines per crate (report only)"
# ROADMAP's line budget counts, in every file under crates/*/src, the
# lines above its first #[cfg(test)]. Printed for the record, not a gate.
nontest_lines() {
    find "$@" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { print n + 0 }' | awk '{ total += $1 } END { print total + 0 }'
}
for src in crates/*/src; do
    printf '    %-10s %6d\n' "$(basename "$(dirname "$src")")" "$(nontest_lines "$src")"
done
printf '    %-10s %6d\n' total "$(nontest_lines crates/*/src)"
# ROADMAP 8(a) tracks the library's documented panics; also report only.
echo "==> '# Panics' doc sections under crates/*/src (report only)"
printf '    %-10s %6d\n' panics \
    "$({ grep -rhE '^[[:space:]]*//[/!] # Panics' crates/*/src || true; } | wc -l)"
# ROADMAP item 3: a wait ends on its event, not on a timer. Count the
# timed-wait call sites in the non-test lines (above each file's first
# #[cfg(test)]), skipping comments and method definitions, and list the
# sleeps: the ones left should all be backoffs (the dial, the launcher's
# restart, the fetch client). The transport contract suite
# (mpsim/src/conformance.rs) is test code that other crates' tests call,
# so its deliberate delays are not counted. Report only.
echo "==> timed waits under crates/*/src (report only)"
timed_waits() {
    find crates/*/src -name '*.rs' ! -name conformance.rs -print0 | xargs -0 awk -v pat="$1" '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*\/\// || /fn [a-z_]+\(/ { next }
        $0 ~ pat { sub(/^[[:space:]]+/, ""); print FILENAME ":" FNR ": " $0 }'
}
for pat in 'thread::sleep' 'recv_timeout\(' 'wait_timeout\('; do
    printf '    %-14s %4d\n' "${pat%\\(}" "$(timed_waits "$pat" | wc -l)"
done
timed_waits 'thread::sleep' | sed 's/^/        /'

echo "==> cargo build --release"
cargo build --release --workspace

# What each engine plans to keep per rank, for the benchmark's three
# generation tuples (P = 2, x = 4, RRP): printed so each change shows its
# planned bytes beside the line counts above; not a gate. The paged one
# plans with its page size as well as its budget.
echo "==> planned per-rank memory (report only)"
plan() {
    ./target/release/pagen info --x 4 --ranks 2 --scheme rrp "$@" | sed 's/^/    /'
}
plan --n 2000000 --engine 2
plan --n 2000000 --engine 3
plan --n 500000 --engine 3 --memory-budget 4194304 --page-bytes 16384

echo "==> cargo test"
cargo test -q --workspace

echo "==> perf/ builds against the crates and passes its tests"
# perf/ is its own workspace (the frozen benchmark), so the workspace
# build above never compiles it: an API change that breaks it must fail
# here, not in the pipeline. Its smoke run asserts cpu_s_per_medge > 0 on
# a child that burns 7-9 ms of CPU against a 10 ms clock tick, which
# reads 0 about one run in five at any commit (4 of 20 runs, measured on
# a 2-core host), so the step gets three attempts and all three fail
# about once in 125 runs; a compile break fails all three.
perf_ok=0
for _ in 1 2 3; do
    if cargo test -q --offline --manifest-path perf/Cargo.toml; then
        perf_ok=1
        break
    fi
done
if [ "$perf_ok" -ne 1 ]; then
    echo "perf/ does not build or its tests fail against this tree" >&2
    exit 1
fi

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Every smoke run below writes under one scratch directory, removed on
# exit however the script ends.
scratch="$(mktemp -d /tmp/pagen_ci_XXXXXX)"
trap 'rm -rf "$scratch"' EXIT

# same_edge_set <a> <b> <failure message>: two txt edge files must hold
# the same edges. Within-rank emission order is timing-dependent, so
# they are compared as sorted edge sets.
same_edge_set() {
    sort "$1" > "$1.sorted"
    sort "$2" > "$2.sorted"
    if ! cmp -s "$1.sorted" "$2.sorted"; then
        echo "$3" >&2
        exit 1
    fi
}

echo "==> pagen streaming smoke run"
# Stream a small network to disk and check the file holds exactly the
# edge count the run reported (16 bytes per binary edge).
smoke_out="$scratch/smoke.bin"
report="$(cargo run -q -p pa-cli --release -- generate --model pa \
    --n 20000 --x 3 --ranks 4 --seed 7 --out "$smoke_out" --format bin)"
echo "    $report"
reported_edges="$(echo "$report" | sed -n 's/.* \([0-9]\+\) edges.*/\1/p')"
file_bytes="$(stat -c %s "$smoke_out")"
if [ -z "$reported_edges" ] || [ "$file_bytes" -ne "$((reported_edges * 16))" ]; then
    echo "smoke run mismatch: reported $reported_edges edges, file is $file_bytes bytes" >&2
    exit 1
fi

echo "==> pagen PAG smoke run"
# A PAG container is the bin stream behind a header: an engine-3 run
# (which emits in label order) must end in exactly the bin run's bytes,
# and the header must count 4 shards holding every one of its edges.
pag_out="$scratch/smoke.pag"
pag_bin="$scratch/smoke_e3.bin"
for format in pag bin; do
    out="$pag_out"
    [ "$format" = bin ] && out="$pag_bin"
    ./target/release/pagen generate --model pa --n 20000 --x 3 --ranks 4 \
        --seed 7 --engine 3 --out "$out" --format "$format" >/dev/null
done
if ! tail -c "$(stat -c %s "$pag_bin")" "$pag_out" | cmp -s - "$pag_bin"; then
    echo "PAG smoke mismatch: the container's payload is not the bin file" >&2
    exit 1
fi
pag_info="$(./target/release/pagen info --in "$pag_out")"
if ! grep -q "^edges:  $(($(stat -c %s "$pag_bin") / 16)) in 4 shard(s)$" <<< "$pag_info"; then
    echo "PAG smoke mismatch: header does not count the bin file's edges in 4 shards" >&2
    echo "$pag_info" >&2
    exit 1
fi

echo "==> pagen Chung-Lu rank-count smoke run"
# Chung-Lu streams a contiguous block of rows per rank, so its bytes do
# not depend on --ranks: one rank and four must write the same file.
for ranks in 1 4; do
    ./target/release/pagen generate --model cl --n 20000 --x 3 --gamma 3.0 \
        --seed 7 --ranks "$ranks" --out "$scratch/cl_p$ranks.bin" --format bin >/dev/null
done
if ! cmp -s "$scratch/cl_p1.bin" "$scratch/cl_p4.bin"; then
    echo "Chung-Lu smoke mismatch: --ranks 4 wrote other bytes than --ranks 1" >&2
    exit 1
fi

echo "==> pagen chain-memo and block invariance smoke run"
# Engine 3's chain memo caches a pure function, so its size changes how
# much is recomputed, never the network: off, the lowest 50 000 labels a
# rank does not own, and the default must write the same bytes (engine 3
# emits in label order). A memo row is indexed by the label's ordinal
# among the rank's remote labels, which the partition decides, so the
# check runs under every scheme: each has its own `local_count_below`,
# which both the memo ordinal and engine 3's gather pass go through.
for scheme in rrp ucp lcp bcp; do
    for memo in 0 50000 default; do
        memo_flag=()
        [ "$memo" = default ] || memo_flag=(--chain-memo "$memo")
        ./target/release/pagen generate --model pa --n 200000 --x 4 --ranks 4 \
            --scheme "$scheme" --seed 7 --engine 3 "${memo_flag[@]}" \
            --out "$scratch/memo_${scheme}_$memo.bin" --format bin >/dev/null
    done
    for memo in 0 50000; do
        if ! cmp -s "$scratch/memo_${scheme}_$memo.bin" "$scratch/memo_${scheme}_default.bin"; then
            echo "chain-memo smoke mismatch: --chain-memo $memo changed engine 3's output bytes under --scheme $scheme" >&2
            exit 1
        fi
    done
done
# The sweep hands engine 3 blocks of up to 64 nodes, cut at every service
# point: --service-interval 1 makes every block one node, 7 cuts them
# short, and neither may change the bytes.
for scheme in rrp bcp; do
    for interval in 1 7; do
        ./target/release/pagen generate --model pa --n 200000 --x 4 --ranks 4 \
            --scheme "$scheme" --seed 7 --engine 3 --service-interval "$interval" \
            --out "$scratch/block_${scheme}_$interval.bin" --format bin >/dev/null
        if ! cmp -s "$scratch/block_${scheme}_$interval.bin" "$scratch/memo_${scheme}_default.bin"; then
            echo "block smoke mismatch: --service-interval $interval changed engine 3's output bytes under --scheme $scheme" >&2
            exit 1
        fi
    done
done

echo "==> pagen chaos smoke run"
# The fault layer's headline invariant, end to end through the binary: a
# run with aggressive fault injection must produce exactly the clean
# run's edge set. Within-rank emission order is timing-dependent, so the
# files are compared as sorted edge sets. The faulty run must also report
# that it injected something, or a profile that faults nothing would pass.
chaos_clean="$scratch/chaos_clean.txt"
chaos_faulty="$scratch/chaos_faulty.txt"
cargo run -q -p pa-cli --release -- generate --model pa \
    --n 20000 --x 3 --ranks 4 --seed 7 --out "$chaos_clean" --format txt
cargo run -q -p pa-cli --release -- generate --model pa \
    --n 20000 --x 3 --ranks 4 --seed 7 --out "$chaos_faulty" --format txt \
    --chaos-profile aggressive --chaos-seed 1 --stall-timeout-ms 60000 \
    --stats on > "$scratch/chaos_stats.txt"
same_edge_set "$chaos_clean" "$chaos_faulty" \
    "chaos smoke mismatch: fault injection changed the edge set"
if ! grep -Eq '^  faults: [1-9][0-9]* injected$' "$scratch/chaos_stats.txt"; then
    echo "chaos smoke: the faulty run reported no injected fault" >&2
    cat "$scratch/chaos_stats.txt" >&2
    exit 1
fi

echo "==> palaunch net smoke run"
# The TCP backend end to end through the real binaries: a 4-process
# localhost world must produce exactly the edge set of a same-seed
# single-process run. Within-rank emission order over sockets depends on
# packet interleaving, so the files are compared as sorted edge sets.
net_multi="$scratch/net_multi.txt"
net_single="$scratch/net_single.txt"
./target/release/palaunch -p 4 --pagen ./target/release/pagen -- \
    generate --model pa --n 20000 --x 4 --scheme lcp --seed 7 \
    --out "$net_multi" --format txt
cargo run -q -p pa-cli --release -- generate --model pa \
    --n 20000 --x 4 --ranks 4 --scheme lcp --seed 7 \
    --out "$net_single" --format txt
same_edge_set "$net_multi" "$net_single" \
    "net smoke mismatch: 4-process run diverged from single-process run"

echo "==> engine3 net smoke run"
# The communication-free engine end to end through the real binaries: a
# 4-process TCP world on engine3 must produce exactly the edge set of a
# same-seed single-process engine3 run (which the determinism suite in
# turn pins to the engine1/engine2 oracles).
e3_multi="$scratch/e3_multi.txt"
e3_single="$scratch/e3_single.txt"
./target/release/palaunch -p 4 --pagen ./target/release/pagen -- \
    generate --model pa --n 20000 --x 4 --scheme bcp --seed 7 --engine 3 \
    --out "$e3_multi" --format txt
cargo run -q -p pa-cli --release -- generate --model pa \
    --n 20000 --x 4 --ranks 4 --scheme bcp --seed 7 --engine 3 \
    --out "$e3_single" --format txt
same_edge_set "$e3_multi" "$e3_single" \
    "engine3 smoke mismatch: 4-process run diverged from single-process run"

echo "==> engine1 net smoke run"
# Algorithm 3.1 speaks Algorithm 3.2's messages at e = l = 0, so it runs
# over the TCP backend too: a 3-process world on engine 1 must produce
# exactly the edge set of a same-seed single-process engine-1 run.
e1_multi="$scratch/e1_multi.txt"
e1_single="$scratch/e1_single.txt"
./target/release/palaunch -p 3 --pagen ./target/release/pagen -- \
    generate --model pa --n 20000 --x 1 --scheme rrp --seed 7 --engine 1 \
    --out "$e1_multi" --format txt
./target/release/pagen generate --model pa --n 20000 --x 1 --ranks 3 \
    --scheme rrp --seed 7 --engine 1 --out "$e1_single" --format txt >/dev/null
same_edge_set "$e1_multi" "$e1_single" \
    "engine1 smoke mismatch: 3-process run diverged from single-process run"

echo "==> off-default p net smoke run"
# A p away from 1/2 end to end through the real binaries: a 4-process
# TCP world at p = 0.5^1.5 must produce exactly the edge set of a
# same-seed single-process run.
offp_multi="$scratch/offp_multi.txt"
offp_single="$scratch/offp_single.txt"
./target/release/palaunch -p 4 --pagen ./target/release/pagen -- \
    generate --model pa --p 0.3535533905932738 --n 20000 --x 4 --scheme rrp --seed 7 \
    --out "$offp_multi" --format txt
cargo run -q -p pa-cli --release -- generate --model pa --p 0.3535533905932738 \
    --n 20000 --x 4 --ranks 4 --scheme rrp --seed 7 \
    --out "$offp_single" --format txt
same_edge_set "$offp_multi" "$offp_single" \
    "off-default p smoke mismatch: 4-process run diverged from single-process run"

# The bench binaries below reject a flag they do not read (exit 2), so a
# stale flag here fails the step instead of silently running defaults.
echo "==> engine3 zero-communication guard"
# exp_engine3_vs_engine2 exits non-zero if engine3 sent any message or
# queued any request — the communication-free property, asserted on the
# real engine through the real bench binary.
cargo run -q -p pa-bench --release --bin exp_engine3_vs_engine2 -- \
    --n 50000 --ranks 4 > /dev/null

echo "==> hub-cache edge-set guard"
# exp_hub_cache exits non-zero unless the runs with the hub cache on and
# off produce identical edge sets — the cache's exactness, asserted on
# the real engine through the real bench binary.
cargo run -q -p pa-bench --release --bin exp_hub_cache -- \
    --n 200000 --ranks 4 > /dev/null

echo "==> measured scaling figures"
# Figures 5 and 6 are built on each rank's on-CPU time; both binaries
# exit non-zero, naming the rank, unless every rank reported a reading.
cargo run -q -p pa-bench --release --bin fig5_strong_scaling -- \
    --n 200000 --maxp 4 > /dev/null
cargo run -q -p pa-bench --release --bin fig6_weak_scaling -- \
    --nodes-per-rank 20000 --maxp 8 > /dev/null

echo "==> palaunch crash-recovery smoke run"
# The recovery layer end to end from a shell: a 4-rank checkpointing
# world loses one rank to kill -9 mid-generation; palaunch must restart
# the world (resuming from the last agreed checkpoint epoch), exit 0,
# and the final edge set must still equal a single-process run's. Small
# message buffers slow the run enough to kill it mid-flight without
# changing the generated network.
rec_multi="$scratch/rec_multi.txt"
rec_single="$scratch/rec_single.txt"
rec_log="$scratch/rec_log.txt"
rec_ckpts="$scratch/rec_ckpts"
./target/release/palaunch -p 4 --restart-failed 2 \
    --pagen ./target/release/pagen -- \
    generate --model pa --n 500000 --x 4 --scheme rrp --seed 7 \
    --buffer-cap 64 --service-interval 64 \
    --out "$rec_multi" --format txt \
    --checkpoint-dir "$rec_ckpts" --checkpoint-interval 50000 \
    > "$rec_log" 2>&1 &
launcher=$!
victim=""
for _ in $(seq 1 100); do
    victim="$(pgrep -f "pagen.*$rec_multi.*--rank 2" | head -n 1 || true)"
    [ -n "$victim" ] && break
    sleep 0.05
done
if [ -z "$victim" ]; then
    echo "recovery smoke: never saw rank 2 running (world finished too fast?)" >&2
    cat "$rec_log" >&2
    exit 1
fi
sleep 0.5   # let a few checkpoint epochs commit before the crash
kill -9 "$victim" 2>/dev/null || true
if ! wait "$launcher"; then
    echo "recovery smoke: palaunch did not recover from the killed rank" >&2
    cat "$rec_log" >&2
    exit 1
fi
if ! grep -q "restarting world" "$rec_log"; then
    echo "recovery smoke: no restart happened (rank killed too late?)" >&2
    cat "$rec_log" >&2
    exit 1
fi
cargo run -q -p pa-cli --release -- generate --model pa \
    --n 500000 --x 4 --ranks 4 --scheme rrp --seed 7 \
    --out "$rec_single" --format txt
same_edge_set "$rec_multi" "$rec_single" \
    "recovery smoke mismatch: recovered run diverged from single-process run"
if ls "$rec_ckpts"/*.ckpt* >/dev/null 2>&1; then
    echo "recovery smoke: finished job left checkpoints behind" >&2
    exit 1
fi

echo "==> palaunch paged crash-recovery smoke run"
# The same recovery with the F tables out of core: engine 3 under a
# --memory-budget far below each rank's 8 MB F table, so its page files
# (one per rank, beside the checkpoints and parts) take the evictions
# once a table outgrows the budget; no checkpoint writes pages back. One
# rank is killed by kill -9 once it has checkpointed; the restarted
# world reads each rank's committed rows back out of its part into fresh
# page files (the old ones are a cache and are discarded), and since
# engine 3 emits in label order the recovered file must equal a fresh
# run's bytes.
prec_dir="$scratch/prec"
mkdir "$prec_dir"
prec_job=(generate --model pa --n 2000000 --x 4 --scheme rrp --seed 7 --engine 3 --format bin)
./target/release/palaunch -p 4 --restart-failed 2 \
    --pagen ./target/release/pagen -- "${prec_job[@]}" \
    --out "$prec_dir/recovered.bin" --memory-budget 1m \
    --checkpoint-dir "$prec_dir/ckpts" --checkpoint-interval 100000 \
    > "$prec_dir/log.txt" 2>&1 &
launcher=$!
victim=""
for _ in $(seq 1 400); do
    if ls "$prec_dir/ckpts"/rank2.epoch*.ckpt >/dev/null 2>&1; then
        victim="$(pgrep -f "pagen.*$prec_dir/recovered.bin.*--rank 2" | head -n 1 || true)"
        break
    fi
    sleep 0.025
done
if [ -z "$victim" ]; then
    echo "paged recovery smoke: never saw rank 2 checkpoint while running" >&2
    cat "$prec_dir/log.txt" >&2
    exit 1
fi
kill -9 "$victim" 2>/dev/null || true
if ls "$prec_dir/ckpts"/*.pg >/dev/null 2>&1; then
    echo "paged recovery smoke: expected no per-page files" >&2
    ls "$prec_dir/ckpts" >&2
    exit 1
fi
if ! wait "$launcher"; then
    echo "paged recovery smoke: palaunch did not recover from the killed rank" >&2
    cat "$prec_dir/log.txt" >&2
    exit 1
fi
if ! grep -q "restarting world" "$prec_dir/log.txt"; then
    echo "paged recovery smoke: no restart happened (rank killed too late?)" >&2
    cat "$prec_dir/log.txt" >&2
    exit 1
fi
./target/release/palaunch -p 4 --pagen ./target/release/pagen -- \
    "${prec_job[@]}" --out "$prec_dir/fresh.bin"
if ! cmp -s "$prec_dir/recovered.bin" "$prec_dir/fresh.bin"; then
    echo "paged recovery smoke mismatch: recovered run diverged from a fresh run" >&2
    exit 1
fi
if [ -d "$prec_dir/ckpts" ] && [ -n "$(ls -A "$prec_dir/ckpts")" ]; then
    echo "paged recovery smoke: finished job left checkpoints or page files behind" >&2
    ls "$prec_dir/ckpts" >&2
    exit 1
fi

echo "==> out-of-core smoke run"
# The paged node-table store end to end through the binary: a 4-rank run
# under a deliberately tiny --memory-budget (64 KiB: sixteen pages of the
# default 4 KiB — constant eviction traffic) must write the same network
# as the unbudgeted in-memory run, and a successful non-checkpointing run
# must clean its page files up. Both store-backed engines, at n = 200000
# (a ~0.8 MiB F table per rank, 12.5x the budget): engine 3 reads its table
# in sweep order and — emitting in label order — is compared byte for
# byte; engine 2 looks slots up all over the table, nearly every lookup
# an eviction (a positioned read, and a positioned write when the victim
# is dirty), and, being edge-set- not byte-deterministic, is compared as
# a sorted set.
oc_dir="$scratch/oc"
mkdir "$oc_dir"
for engine in 3 2; do
    cargo run -q -p pa-cli --release -- generate --model pa \
        --n 200000 --x 4 --ranks 4 --scheme rrp --seed 7 --engine "$engine" \
        --out "$oc_dir/resident$engine.txt" --format txt
    cargo run -q -p pa-cli --release -- generate --model pa \
        --n 200000 --x 4 --ranks 4 --scheme rrp --seed 7 --engine "$engine" \
        --out "$oc_dir/paged$engine.txt" --format txt \
        --memory-budget 64k --store-dir "$oc_dir/store$engine"
    if [ -d "$oc_dir/store$engine" ]; then
        echo "out-of-core smoke: finished engine-$engine run left page files behind" >&2
        exit 1
    fi
done
if ! cmp -s "$oc_dir/resident3.txt" "$oc_dir/paged3.txt"; then
    echo "out-of-core smoke mismatch: --memory-budget changed engine 3's output bytes" >&2
    exit 1
fi
# 24-byte pages hold six compact cells: not a power of two, so a slot
# splits into page and offset by division, and x = 4 rows straddle pages.
cargo run -q -p pa-cli --release -- generate --model pa \
    --n 200000 --x 4 --ranks 4 --scheme rrp --seed 7 --engine 3 \
    --out "$oc_dir/paged3_24.txt" --format txt \
    --memory-budget 64k --page-bytes 24 --store-dir "$oc_dir/store3_24"
if [ -d "$oc_dir/store3_24" ]; then
    echo "out-of-core smoke: finished 24-byte-page run left page files behind" >&2
    exit 1
fi
if ! cmp -s "$oc_dir/resident3.txt" "$oc_dir/paged3_24.txt"; then
    echo "out-of-core smoke mismatch: --page-bytes 24 changed engine 3's output bytes" >&2
    exit 1
fi
same_edge_set "$oc_dir/resident2.txt" "$oc_dir/paged2.txt" \
    "out-of-core smoke mismatch: --memory-budget changed engine 2's edge set"

echo "==> elastic restart smoke run"
# Elastic gang restart end to end through the real binaries: a 4-rank
# checkpointed world keeps its saved cut (--keep-checkpoints on), then
# a 2-rank launch restarts from it — and the resized run's output must
# be byte-identical to a fresh never-checkpointed 2-rank run (engine 3
# emits in label order, so the comparison is exact bytes, not sets).
./target/release/palaunch -p 4 --pagen ./target/release/pagen -- \
    generate --model pa --n 200000 --x 4 --scheme rrp --seed 7 --engine 3 \
    --out "$oc_dir/world4.bin" --format bin \
    --checkpoint-dir "$oc_dir/world4" --keep-checkpoints on
if ! ls "$oc_dir/world4"/*.ckpt >/dev/null 2>&1; then
    echo "elastic smoke: --keep-checkpoints left no saved world behind" >&2
    exit 1
fi
./target/release/palaunch -p 2 --restart-world "$oc_dir/world4" \
    --pagen ./target/release/pagen -- \
    generate --model pa --n 200000 --x 4 --scheme rrp --seed 7 --engine 3 \
    --out "$oc_dir/resized.bin" --format bin
./target/release/palaunch -p 2 --pagen ./target/release/pagen -- \
    generate --model pa --n 200000 --x 4 --scheme rrp --seed 7 --engine 3 \
    --out "$oc_dir/fresh2.bin" --format bin
if ! cmp -s "$oc_dir/resized.bin" "$oc_dir/fresh2.bin"; then
    echo "elastic smoke mismatch: P=4 -> P=2 restart diverged from a fresh P=2 run" >&2
    exit 1
fi

echo "==> serve soak test"
# The multi-tenant daemon under concurrent load, in-process through the
# CLI layer. #[ignore]d in the default suite (it is a load test), run
# here explicitly.
cargo test -q -p pa-bench --test serve_soak -- --ignored

echo "==> pagen serve smoke run"
# The daemon end to end through the real binary: three concurrent
# fetches of one engine-3 tuple (one interrupted mid-stream and then
# resumed), all byte-identical to a solo run of the same tuple, then a
# clean drain with no temp litter in the jobs dir.
serve_dir="$scratch/serve"
mkdir "$serve_dir"
serve_log="$serve_dir/serve.log"
serve_job=(--n 50000 --x 2 --p 0.5 --seed 11 --ranks 2 --scheme rrp --engine 3 --format bin)
serve_addr="127.0.0.1:$(( 20000 + RANDOM % 20000 ))"
./target/release/pagen serve --addr "$serve_addr" \
    --jobs-dir "$serve_dir/jobs" --workers 2 > "$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    (exec 3<>"/dev/tcp/${serve_addr%:*}/${serve_addr#*:}") 2>/dev/null && { exec 3>&-; break; }
    sleep 0.05
done
cargo run -q -p pa-cli --release -- generate --model pa \
    "${serve_job[@]}" --out "$serve_dir/solo.bin"
./target/release/pagen fetch --addr "$serve_addr" \
    "${serve_job[@]}" --out "$serve_dir/f1.bin" &
f1=$!
./target/release/pagen fetch --addr "$serve_addr" \
    "${serve_job[@]}" --out "$serve_dir/f2.bin" &
f2=$!
# The third client dies mid-stream at a deterministic byte...
if ./target/release/pagen fetch --addr "$serve_addr" \
    "${serve_job[@]}" --out "$serve_dir/f3.bin" \
    --stop-after-bytes 100000 --max-attempts 1 > /dev/null 2>&1; then
    echo "serve smoke: interrupted fetch unexpectedly succeeded" >&2
    exit 1
fi
wait "$f1" "$f2"
# ...and resumes from the 100000 bytes it already has.
./target/release/pagen fetch --addr "$serve_addr" \
    "${serve_job[@]}" --out "$serve_dir/f3.bin" --resume on
for f in f1 f2 f3; do
    if ! cmp -s "$serve_dir/solo.bin" "$serve_dir/$f.bin"; then
        echo "serve smoke mismatch: $f.bin diverged from the solo engine-3 run" >&2
        exit 1
    fi
done
./target/release/pagen drain --addr "$serve_addr"
if ! wait "$serve_pid"; then
    echo "serve smoke: daemon did not exit cleanly after drain" >&2
    cat "$serve_log" >&2
    exit 1
fi
if ! grep -q "drained:" "$serve_log"; then
    echo "serve smoke: daemon never printed its drain stats line" >&2
    cat "$serve_log" >&2
    exit 1
fi
if ls "$serve_dir/jobs"/*.tmp* >/dev/null 2>&1; then
    echo "serve smoke: jobs dir holds leftover temp files" >&2
    exit 1
fi

echo "==> pagen serve crash-restart smoke run"
# Self-healing end to end through the real binary: SIGKILL the daemon
# after it cached an artifact and while a client holds a partial file,
# restart a new daemon on the same jobs dir, and it must (a) announce
# the recovered artifact and cleaned temp litter on its startup line,
# (b) resume the interrupted fetch byte-identically to a solo run
# WITHOUT re-running the job — its drain line reports 0 jobs run.
restart_dir="$scratch/restart"
mkdir "$restart_dir"
restart_job=(--n 50000 --x 2 --p 0.5 --seed 23 --ranks 2 --scheme rrp --engine 3 --format bin)
restart_addr="127.0.0.1:$(( 20000 + RANDOM % 20000 ))"
./target/release/pagen serve --addr "$restart_addr" \
    --jobs-dir "$restart_dir/jobs" --workers 2 > "$restart_dir/serve_a.log" 2>&1 &
restart_pid=$!
for _ in $(seq 1 100); do
    (exec 3<>"/dev/tcp/${restart_addr%:*}/${restart_addr#*:}") 2>/dev/null && { exec 3>&-; break; }
    sleep 0.05
done
cargo run -q -p pa-cli --release -- generate --model pa \
    "${restart_job[@]}" --out "$restart_dir/solo.bin"
./target/release/pagen fetch --addr "$restart_addr" \
    "${restart_job[@]}" --out "$restart_dir/full.bin"
# A client dies mid-stream with 100000 of the bytes on disk...
if ./target/release/pagen fetch --addr "$restart_addr" \
    "${restart_job[@]}" --out "$restart_dir/partial.bin" \
    --stop-after-bytes 100000 --max-attempts 1 > /dev/null 2>&1; then
    echo "restart smoke: interrupted fetch unexpectedly succeeded" >&2
    exit 1
fi
# ...and then the daemon itself dies hard: no drain, no cleanup.
kill -9 "$restart_pid" 2>/dev/null || true
wait "$restart_pid" 2>/dev/null || true
# Stage the temp litter an in-flight run would have left behind: its
# output and a rank's part file.
printf junk > "$restart_dir/jobs/0123456789abcdef.5.tmp"
printf junk > "$restart_dir/jobs/0123456789abcdef.5.tmp.part0"
restart_addr_b="127.0.0.1:$(( 20000 + RANDOM % 20000 ))"
./target/release/pagen serve --addr "$restart_addr_b" \
    --jobs-dir "$restart_dir/jobs" --workers 2 > "$restart_dir/serve_b.log" 2>&1 &
restart_pid_b=$!
for _ in $(seq 1 100); do
    (exec 3<>"/dev/tcp/${restart_addr_b%:*}/${restart_addr_b#*:}") 2>/dev/null && { exec 3>&-; break; }
    sleep 0.05
done
# (Captured to a variable: grep -q on the pipe would close it at the
# first match and fail the daemon's client with EPIPE under pipefail.)
restart_status="$(./target/release/pagen serve-status --addr "$restart_addr_b")"
if ! grep -q "1 recovered at startup" <<< "$restart_status"; then
    echo "restart smoke: serve-status does not report the recovered artifact" >&2
    echo "$restart_status" >&2
    exit 1
fi
# Resume the dead client's partial fetch against the restarted daemon.
./target/release/pagen fetch --addr "$restart_addr_b" \
    "${restart_job[@]}" --out "$restart_dir/partial.bin" --resume on
for f in full partial; do
    if ! cmp -s "$restart_dir/solo.bin" "$restart_dir/$f.bin"; then
        echo "restart smoke mismatch: $f.bin diverged from the solo engine-3 run" >&2
        exit 1
    fi
done
./target/release/pagen drain --addr "$restart_addr_b"
if ! wait "$restart_pid_b"; then
    echo "restart smoke: restarted daemon did not exit cleanly after drain" >&2
    cat "$restart_dir/serve_b.log" >&2
    exit 1
fi
if ! grep -q "recovered 1 artifact(s), cleaned 2 stale temp file(s)" "$restart_dir/serve_b.log"; then
    echo "restart smoke: startup line does not report the recovery scan" >&2
    cat "$restart_dir/serve_b.log" >&2
    exit 1
fi
if ! grep -q "drained: 0 job(s) run" "$restart_dir/serve_b.log"; then
    echo "restart smoke: the resumed fetch re-ran instead of hitting the recovered cache" >&2
    cat "$restart_dir/serve_b.log" >&2
    exit 1
fi
if ls "$restart_dir/jobs"/*.tmp* >/dev/null 2>&1; then
    echo "restart smoke: stale temp files survived the restart scan" >&2
    exit 1
fi

echo "CI OK"
