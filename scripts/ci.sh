#!/usr/bin/env sh
# Tier-1 CI gate: format, lint, build, test — fully offline.
#
# The workspace is hermetic (no external crates: seeded PRNG, JSON
# parser, thread pool and verification oracle are all in-tree), so
# everything below must pass with the network disabled.
set -eu

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --locked"
# --locked fails a dependency edit that leaves Cargo.lock stale instead
# of letting cargo rewrite it.
cargo build --workspace --release --locked

echo "==> paper goldens (table, figure and claim binaries vs crates/bench/golden)"
# Every deterministic reproduction binary's stdout is pinned byte for
# byte: Tables 1-3, Figures 1-2, the §3 search comparison, the §3.4
# work scaling, the budget sweep, the ablations, the crosstalk survey,
# the ordering survey and the scale stress. The list is the golden
# directory itself, and every binary but fig3 (which writes SVG files)
# must have a golden, so a new table binary cannot go unpinned. A change
# that moves a paper number fails here until its golden is re-recorded
# (./target/release/<bin> > crates/bench/golden/<bin>.txt). Run at one
# worker and on the default pool, so each table is a thread-independence
# check too.
for src in crates/bench/src/bin/*.rs; do
    bin="$(basename "$src" .rs)"
    if [ "$bin" != fig3 ] && [ ! -f "crates/bench/golden/$bin.txt" ]; then
        echo "ci: table binary $bin has no crates/bench/golden/$bin.txt" >&2
        exit 1
    fi
done
GOLDEN_DIR="$(mktemp -d)"
for threads in 1 ""; do (
    [ -n "$threads" ] && export OCR_THREADS="$threads"
    for golden in crates/bench/golden/*.txt; do
        bin="$(basename "$golden" .txt)"
        ./target/release/$bin > "$GOLDEN_DIR/$bin.txt"
        cmp "$GOLDEN_DIR/$bin.txt" "$golden"
    done
); done
rm -rf "$GOLDEN_DIR"

echo "==> fig3 (writes the two Figure 3 SVGs; each must be non-empty)"
# fig3 has no golden: its output is SVG files, not table text. Run it
# from a scratch directory so the files stay out of the tree.
ROOT="$(pwd)"
FIG_DIR="$(mktemp -d)"
(cd "$FIG_DIR" && "$ROOT/target/release/fig3") >/dev/null
for svg in fig3_ami33_level_b.svg fig3_ami33_full.svg; do
    [ -s "$FIG_DIR/$svg" ] || {
        echo "ci: fig3 did not write a non-empty $svg" >&2
        exit 1
    }
done
rm -rf "$FIG_DIR"

echo "==> examples (each asserts an oracle-clean result)"
# The examples check their own results with the ocr-verify oracle. Run
# them from a scratch directory so the files they write stay out of the
# tree.
cargo build -q --release --examples
EX_DIR="$(mktemp -d)"
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    (cd "$EX_DIR" && "$ROOT/target/release/examples/$name") >/dev/null
done
rm -rf "$EX_DIR"

echo "==> cargo test (OCR_THREADS=1, sequential reference)"
# Both runs include tests/determinism.rs: the route pins of the suite
# and of the ×2 and ×8 stress chips, and the generator's chip pins (the
# ×16 pin runs in its own release step below).
OCR_THREADS=1 cargo test --workspace -q

echo "==> cargo test (default ocr-exec pool)"
cargo test --workspace -q

echo "==> ×16 stress route pin (release, --ignored)"
# The ×16 chip's maze waves cross the most wave-buffer tiles. Its route
# pin is #[ignore]d in the plain runs above, which build without
# optimisation; in release it routes and verifies in about 1.2 s.
cargo test -q --release --test determinism -- --ignored

echo "==> telemetry smoke (ocr route --suite --stats-json + obs-check, same work at both settings)"
# The suite routed with telemetry on must yield a valid ocr-stats-v1
# document — per-phase timings and rip/retry counters for every chip's
# overcell run — at one worker and on the default pool alike.
STATS_DIR="$(mktemp -d)"
trap 'rm -rf "$STATS_DIR"' EXIT
OCR_THREADS=1 ./target/release/ocr route --suite \
    --stats-json "$STATS_DIR/stats-seq.json" >/dev/null
./target/release/obs-check "$STATS_DIR/stats-seq.json" --min-chips 3
./target/release/ocr route --suite \
    --stats-json "$STATS_DIR/stats-par.json" >/dev/null
./target/release/obs-check "$STATS_DIR/stats-par.json" --min-chips 3
# The two documents must record the same work: every counter outside
# the scheduling-dependent exec.* family and every span count, run by run.
./target/release/obs-check --same-work "$STATS_DIR/stats-seq.json" "$STATS_DIR/stats-par.json"

echo "==> chaos smoke (ocr chaos --seed 1 --trials 8)"
# Deterministic fault-injection soak: trial 0 is deliberately poisoned
# (two-fire panic rule, so the isolation retry panics too) and must be
# reported without aborting the run; every surviving trial must be
# oracle-clean on its salvaged subset. Sequential and pooled.
OCR_THREADS=1 ./target/release/ocr chaos --seed 1 --trials 8 >/dev/null
./target/release/ocr chaos --seed 1 --trials 8 >/dev/null

echo "==> run-control smoke (interrupt, checkpoint, resume, compare)"
# A route interrupted by a tiny step budget and resumed from its
# checkpoint must be byte-identical to one that was never interrupted —
# sequentially and on the default pool.
RC_DIR="$(mktemp -d)"
./target/release/ocr generate ami33 -o "$RC_DIR/chip.ocr"
for threads in 1 ""; do (
    [ -n "$threads" ] && export OCR_THREADS="$threads"
    ./target/release/ocr route "$RC_DIR/chip.ocr" \
        --routes "$RC_DIR/full.txt" >/dev/null
    ./target/release/ocr route "$RC_DIR/chip.ocr" --max-steps 8 \
        --checkpoint-out "$RC_DIR/ck.txt" \
        --routes "$RC_DIR/part.txt" >/dev/null
    ./target/release/ocr route "$RC_DIR/chip.ocr" --resume "$RC_DIR/ck.txt" \
        --routes "$RC_DIR/resumed.txt" >/dev/null
    cmp "$RC_DIR/full.txt" "$RC_DIR/resumed.txt"
    if cmp -s "$RC_DIR/full.txt" "$RC_DIR/part.txt"; then
        echo "ci: --max-steps 8 did not interrupt the route" >&2
        exit 1
    fi
); done
rm -rf "$RC_DIR"

echo "==> ordering smoke (--order portfolio: run all, keep the minimum; winner vs standalone)"
# The run-all portfolio must produce byte-identical routes at
# OCR_THREADS=1 and on the default pool, print a numbered row for each
# of its 4 strategies and its deterministic winner line, and its routes
# must equal a standalone `--order <winner>` run. `--order longest`
# must keep working as the explicit default strategy.
OP_DIR="$(mktemp -d)"
./target/release/ocr generate ami33 -o "$OP_DIR/chip.ocr"
OCR_THREADS=1 ./target/release/ocr route "$OP_DIR/chip.ocr" --order portfolio \
    --routes "$OP_DIR/pf-seq.txt" > "$OP_DIR/pf-seq.out"
./target/release/ocr route "$OP_DIR/chip.ocr" --order portfolio \
    --routes "$OP_DIR/pf-par.txt" > "$OP_DIR/pf-par.out"
cmp "$OP_DIR/pf-seq.txt" "$OP_DIR/pf-par.txt"
cmp "$OP_DIR/pf-seq.out" "$OP_DIR/pf-par.out"
grep -q "portfolio: winner " "$OP_DIR/pf-seq.out" || {
    echo "ci: ordering smoke expected a portfolio winner line" >&2
    exit 1
}
rows="$(grep -c '^  \[[0-9]\] ' "$OP_DIR/pf-seq.out" || true)"
if [ "$rows" -ne 4 ] || grep -q "lost" "$OP_DIR/pf-seq.out"; then
    echo "ci: ordering smoke expected 4 numbered strategy rows and no lost row" >&2
    exit 1
fi
winner="$(sed -n 's/^portfolio: winner \([^ ]*\) .*/\1/p' "$OP_DIR/pf-seq.out")"
./target/release/ocr route "$OP_DIR/chip.ocr" --order "$winner" \
    --routes "$OP_DIR/winner.txt" >/dev/null
cmp "$OP_DIR/pf-seq.txt" "$OP_DIR/winner.txt"
./target/release/ocr route "$OP_DIR/chip.ocr" --order longest \
    --routes "$OP_DIR/longest.txt" >/dev/null
./target/release/ocr route "$OP_DIR/chip.ocr" \
    --routes "$OP_DIR/default.txt" >/dev/null
cmp "$OP_DIR/longest.txt" "$OP_DIR/default.txt"
rm -rf "$OP_DIR"

echo "==> serve smoke (spool three suite chips, preempt/resume, diff vs ocr route)"
# The batch service on a spool of the three suite chips, with a quantum
# tight enough to force preemption: the admission log must show at least
# one preempt and one resume, every per-job stats document must satisfy
# obs-check, every answer must be byte-identical to a standalone
# `ocr route` run, and the log/results must not depend on OCR_THREADS.
SV_DIR="$(mktemp -d)"
for chip in ami33 xerox ex3; do
    ./target/release/ocr generate "$chip" -o "$SV_DIR/$chip.ocr"
    ./target/release/ocr route "$SV_DIR/$chip.ocr" \
        --routes "$SV_DIR/direct-$chip.txt" >/dev/null
done
for threads in 1 ""; do (
    [ -n "$threads" ] && export OCR_THREADS="$threads"
    tag="${threads:-par}"
    mkdir -p "$SV_DIR/spool-$tag"
    cp "$SV_DIR"/*.ocr "$SV_DIR/spool-$tag/"
    {
        echo "ocr-jobs-v1"
        for chip in ami33 xerox ex3; do
            echo "job $chip $chip.ocr flow overcell"
        done
    } > "$SV_DIR/spool-$tag/batch.job"
    ./target/release/ocr serve --spool "$SV_DIR/spool-$tag" \
        --out "$SV_DIR/out-$tag" --quantum 64 --max-concurrent 2 \
        --drain >/dev/null
    grep -q ": preempt " "$SV_DIR/out-$tag/serve.log" || {
        echo "ci: serve smoke expected at least one preemption" >&2
        exit 1
    }
    grep -q ": resume " "$SV_DIR/out-$tag/serve.log" || {
        echo "ci: serve smoke expected at least one resume" >&2
        exit 1
    }
    for chip in ami33 xerox ex3; do
        ./target/release/obs-check "$SV_DIR/out-$tag/$chip/stats.json" >/dev/null
        cmp "$SV_DIR/out-$tag/$chip/routes.txt" "$SV_DIR/direct-$chip.txt"
    done
); done
cmp "$SV_DIR/out-1/serve.log" "$SV_DIR/out-par/serve.log"
cmp "$SV_DIR/out-1/results.txt" "$SV_DIR/out-par/results.txt"
rm -rf "$SV_DIR"

echo "==> crash-recovery smoke (kill -9 a journaled daemon, restart, diff vs uninterrupted)"
# A journaled daemon SIGKILLed mid-batch and restarted with the same
# --journal must answer every job byte-identically to a never-killed
# run (results.txt, per-job routes and status), log its recovery, and
# export the durability counters through obs-check --service. serve.log
# is deliberately not compared: the restarted run carries extra
# `recover ...` lines. Sequential and pooled.
KR_DIR="$(mktemp -d)"
for chip in ami33 xerox ex3; do
    ./target/release/ocr generate "$chip" -o "$KR_DIR/$chip.ocr"
done
for threads in 1 ""; do (
    [ -n "$threads" ] && export OCR_THREADS="$threads"
    tag="${threads:-par}"
    for mode in ref killed; do
        mkdir -p "$KR_DIR/spool-$mode-$tag"
        cp "$KR_DIR"/*.ocr "$KR_DIR/spool-$mode-$tag/"
        {
            echo "ocr-jobs-v1"
            for chip in ami33 xerox ex3; do
                echo "job $chip $chip.ocr flow overcell"
            done
        } > "$KR_DIR/spool-$mode-$tag/batch.job"
    done
    ./target/release/ocr serve --spool "$KR_DIR/spool-ref-$tag" \
        --out "$KR_DIR/out-ref-$tag" --journal "$KR_DIR/wal-ref-$tag" \
        --quantum 64 --max-concurrent 2 --drain >/dev/null
    ./target/release/ocr serve --spool "$KR_DIR/spool-killed-$tag" \
        --out "$KR_DIR/out-killed-$tag" --journal "$KR_DIR/wal-killed-$tag" \
        --quantum 64 --max-concurrent 2 >/dev/null 2>&1 &
    pid=$!
    # Let the daemon journal at least the batch admission before the
    # kill, so the restart genuinely recovers instead of starting cold.
    i=0
    while [ ! -s "$KR_DIR/wal-killed-$tag/serve.journal" ] && [ "$i" -lt 100 ]; do
        sleep 0.1
        i=$((i + 1))
    done
    [ -s "$KR_DIR/wal-killed-$tag/serve.journal" ] || {
        echo "ci: crash smoke: journal never appeared" >&2
        exit 1
    }
    sleep 1
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    ./target/release/ocr serve --spool "$KR_DIR/spool-killed-$tag" \
        --out "$KR_DIR/out-killed-$tag" --journal "$KR_DIR/wal-killed-$tag" \
        --quantum 64 --max-concurrent 2 --drain >/dev/null
    grep -q "recover " "$KR_DIR/out-killed-$tag/serve.log" || {
        echo "ci: crash smoke expected recovery lines in serve.log" >&2
        exit 1
    }
    cmp "$KR_DIR/out-ref-$tag/results.txt" "$KR_DIR/out-killed-$tag/results.txt"
    for chip in ami33 xerox ex3; do
        cmp "$KR_DIR/out-ref-$tag/$chip/routes.txt" "$KR_DIR/out-killed-$tag/$chip/routes.txt"
        cmp "$KR_DIR/out-ref-$tag/$chip/status" "$KR_DIR/out-killed-$tag/$chip/status"
    done
    ./target/release/obs-check "$KR_DIR/out-killed-$tag/serve-stats.json" --service \
        --require journal.append --require journal.replayed \
        --require recover.jobs_resumed --require io.retries \
        --require net.conns --require net.frames --require net.rejected.quota \
        --require net.rejected.overload --require net.timeouts >/dev/null
); done
rm -rf "$KR_DIR"

echo "==> network smoke (TCP submissions vs spool reference, torn client mid-frame)"
# A journaled daemon on an ephemeral TCP port, fed the suite chips over
# ocr-wire-v1 — with one client deliberately killed mid-frame — must
# answer byte-identically (results.txt, per-job routes and status) to a
# spool-fed reference, sequentially and pooled, and export the net.*
# counters. serve.log is not compared: TCP arrival batching differs
# from a single spool scan, and only the answers are contractual.
NS_DIR="$(mktemp -d)"
for chip in ami33 xerox ex3; do
    ./target/release/ocr generate "$chip" -o "$NS_DIR/$chip.ocr"
done
for threads in 1 ""; do (
    [ -n "$threads" ] && export OCR_THREADS="$threads"
    tag="${threads:-par}"
    mkdir -p "$NS_DIR/spool-$tag"
    cp "$NS_DIR"/*.ocr "$NS_DIR/spool-$tag/"
    {
        echo "ocr-jobs-v1"
        for chip in ami33 xerox ex3; do
            echo "job $chip $chip.ocr flow overcell"
        done
    } > "$NS_DIR/spool-$tag/batch.job"
    ./target/release/ocr serve --spool "$NS_DIR/spool-$tag" \
        --out "$NS_DIR/out-ref-$tag" \
        --quantum 64 --max-concurrent 2 --drain >/dev/null
    ./target/release/ocr serve --listen 127.0.0.1:0 \
        --addr-file "$NS_DIR/addr-$tag" --out "$NS_DIR/out-net-$tag" \
        --journal "$NS_DIR/wal-$tag" \
        --quantum 64 --max-concurrent 2 >/dev/null 2>&1 &
    pid=$!
    i=0
    while [ ! -s "$NS_DIR/addr-$tag" ] && [ "$i" -lt 100 ]; do
        sleep 0.1
        i=$((i + 1))
    done
    [ -s "$NS_DIR/addr-$tag" ] || {
        echo "ci: net smoke: the daemon never published its address" >&2
        exit 1
    }
    addr="$(cat "$NS_DIR/addr-$tag")"
    # One hostile client first: tear the frame mid-payload and vanish.
    # The daemon must shrug it off and serve everyone after it.
    ./target/release/ocr submit --addr "$addr" --chip "$NS_DIR/ami33.ocr" \
        --name torn --tear-bytes 40 >/dev/null
    for chip in ami33 xerox ex3; do
        ./target/release/ocr submit --addr "$addr" \
            --chip "$NS_DIR/$chip.ocr" --flow overcell >/dev/null
    done
    ./target/release/ocr submit --addr "$addr" --shutdown >/dev/null
    wait "$pid"
    cmp "$NS_DIR/out-ref-$tag/results.txt" "$NS_DIR/out-net-$tag/results.txt"
    for chip in ami33 xerox ex3; do
        cmp "$NS_DIR/out-ref-$tag/$chip/routes.txt" "$NS_DIR/out-net-$tag/$chip/routes.txt"
        cmp "$NS_DIR/out-ref-$tag/$chip/status" "$NS_DIR/out-net-$tag/$chip/status"
    done
    ./target/release/obs-check "$NS_DIR/out-net-$tag/serve-stats.json" --service \
        --require net.conns --require net.frames --require net.rejected.quota \
        --require net.rejected.overload --require net.timeouts >/dev/null
); done
rm -rf "$NS_DIR"

echo "==> no panicking macros reachable from external input (crates/io, core ckpt/order, serve journal/intake/net) or in the Level B search (crates/grid, maze, core mbfs/pst/cost)"
# The parsers take untrusted text — ocr-io formats, checkpoint reason
# tokens and stat names, `order` names from spool and TCP jobs, journal
# files, spool files and TCP bytes — and every served chip runs through
# the grid, the maze wave, the MBFS, path selection and its cost; their
# non-test code must contain no
# unwrap/expect/panic!/unreachable!/todo!/unimplemented!. (Everything
# before the #[cfg(test)] marker.)
for f in crates/io/src/*.rs crates/core/src/ckpt.rs crates/core/src/order.rs \
    crates/serve/src/journal.rs crates/serve/src/intake.rs crates/serve/src/net.rs \
    crates/grid/src/*.rs crates/maze/src/lib.rs \
    crates/core/src/mbfs.rs crates/core/src/pst.rs crates/core/src/cost.rs; do
    if sed -n '1,/#\[cfg(test)\]/p' "$f" \
        | grep -n '\.unwrap()\|\.expect(\|panic!(\|unreachable!(\|todo!(\|unimplemented!('; then
        echo "ci: panicking macro in $f non-test code" >&2
        exit 1
    fi
done

echo "==> perfbench (self-tests + exact work-count gate against perfbench/counts.txt)"
# The benchmark is a package of its own on the workspace crates: this
# catches a core API change that breaks it, and --check fails on any
# changed expanded-vertex, maze-cell or quality count. --locked fails
# a new or removed dependency edge between workspace crates instead of
# letting cargo rewrite perfbench/Cargo.lock.
cargo test -q --release --locked --manifest-path perfbench/Cargo.toml
cargo run -q --release --locked --manifest-path perfbench/Cargo.toml -- --check

echo "==> Rust line count of crates/ + src/ (informational, tracked in ROADMAP.md)"
find crates src -name '*.rs' | xargs cat | wc -l

echo "==> ci: all green"
