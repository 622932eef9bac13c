#!/usr/bin/env sh
# Tier-1 verification for the hermetic workspace: build + tests fully
# offline, then audit that no manifest declares a non-path dependency.
# Exits non-zero on any failure. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo build --release --offline =="
cargo build --release --offline --workspace

echo "== repo benchmark builds against this tree =="
# benchmark/ is a contract feature PRs do not edit; it calls only the
# signatures listed under "API surface" in benchmark/README.md. Build it
# now, so a refactor that broke one fails here, by name, rather than at the
# smoke run at the end.
if ! cargo build --release --offline --manifest-path benchmark/Cargo.toml; then
    echo "FAIL: benchmark/ does not build against the workspace crates: a" \
         "signature in benchmark/README.md \"API surface\" changed. Restore" \
         "it here; changing it is a benchmark PR first."
    exit 1
fi

echo "== flavor matches live in protocol.rs only =="
# A RecoveryFlavor variant may be named where a flavor is turned into
# behaviour (crates/esm/src/protocol.rs, which also defines it) and where a
# scheme picks its flavor (crates/core/src/config.rs) — nowhere else in
# non-test, non-comment code of the two crates. A `#[cfg(test)]` followed by
# an inline `mod … {` starts a file's test half; tests.rs files are tests.
flavor_sites=$(find crates/esm/src crates/core/src -name '*.rs' \
        ! -path crates/esm/src/protocol.rs ! -path crates/core/src/config.rs \
        ! -name tests.rs -exec awk '
    FNR == 1 { in_tests = 0; pending = 0 }
    pending { if ($0 ~ /mod [a-z_]+ *\{/) in_tests = 1; pending = 0 }
    /^[ \t]*#\[cfg\(test\)\]/ { pending = 1 }
    !in_tests && $0 !~ /^[ \t]*\/\// && /RecoveryFlavor::/ {
        print "    " FILENAME ":" FNR ": " $0
    }' {} +)
if [ -n "$flavor_sites" ]; then
    echo "FAIL: RecoveryFlavor variants named outside protocol.rs / config.rs:"
    echo "$flavor_sites"
    echo "  ask crates/esm/src/protocol.rs (Protocol, FlavorFacts) instead"
    exit 1
fi

echo "== the frame layout lives in qs-wal's record.rs and writer.rs only =="
# Those two files own the log's on-disk format (DESIGN.md "Log on-disk
# format"). Everybody else asks the frame views and compares tags against
# the `tag::` constants: non-test, non-comment code anywhere else may name
# neither a layout constant (PREFIX / TRAILER / PREV_RANGE) nor a numeric
# literal next to `frame_tag(..)` — compared with it, listed in a
# `matches!` on it, or as a `match` arm in a file that calls it.
layout_sites=$(find crates/*/src src examples -name '*.rs' \
        ! -path crates/wal/src/record.rs ! -path crates/wal/src/writer.rs \
        ! -name tests.rs -exec awk '
    FNR == 1 { in_tests = 0; pending = 0; calls_frame_tag = 0 }
    pending { if ($0 ~ /mod [a-z_]+ *\{/) in_tests = 1; pending = 0 }
    /^[ \t]*#\[cfg\(test\)\]/ { pending = 1 }
    in_tests || $0 ~ /^[ \t]*\/\// { next }
    /frame_tag\(/ { calls_frame_tag = 1 }
    /(^|[^A-Za-z0-9_])(PREFIX|TRAILER|PREV_RANGE)([^A-Za-z0-9_]|$)/ ||
    /frame_tag\([^)]*\)\?? *(==|!=) *[0-9]/ ||
    /[0-9] *(==|!=) *[A-Za-z_:]*frame_tag\(/ ||
    /matches!\(.*frame_tag\(.*, *[0-9]/ ||
    (calls_frame_tag && /^[ \t]*[0-9]+( *\| *[0-9]+)* *=>/) {
        print "    " FILENAME ":" FNR ": " $0
    }' {} +)
if [ -n "$layout_sites" ]; then
    echo "FAIL: frame layout named outside crates/wal/src/{record,writer}.rs:"
    echo "$layout_sites"
    echo "  use qs_wal::record::{frame_*, tag::*, FRAME_LEN_MIN} instead"
    exit 1
fi

echo "== the log has nine record tags =="
# `pub mod tag` in record.rs is the tag space (DESIGN.md "Log on-disk
# format"). A tenth constant is a format change: it needs a golden frame, a
# row in that table and a new log format revision, not just a new line.
tags=$(awk '/^pub mod tag \{/ { on = 1; next } on && /^\}/ { on = 0 }
            on && /pub const [A-Z_]+: u8 =/ { n++ } END { print n + 0 }' \
        crates/wal/src/record.rs)
if [ "$tags" -ne 9 ]; then
    echo "FAIL: crates/wal/src/record.rs defines $tags record tags, expected 9"
    exit 1
fi

echo "== one checkpoint procedure, one checkpoint record =="
# The stop-the-world checkpoint body, the begin/end record pair and the
# option that chose between two bodies are gone; none of their names may
# come back, in code or in comments that would describe them as alive —
# nor in README.md or DESIGN.md, which describe the code as it is.
gone=$(grep -rnE 'checkpoint_quiesced|checkpoint_fuzzy|BEGIN_CHECKPOINT|END_CHECKPOINT|BeginCheckpoint|EndCheckpoint|FlusherConfig|flusher\.enabled|with_background_flusher|with_flusher_batch_pages' \
        crates src tests examples README.md DESIGN.md || true)
if [ -n "$gone" ]; then
    echo "FAIL: a deleted checkpoint path is named again:"
    echo "$gone" | sed 's/^/    /'
    exit 1
fi

echo "== nothing stops the whole server; one lock view =="
# Abort, WPL reclaim, quiesce and restart take the subsystem locks they
# need (DESIGN.md §6b). The whole-server stop, the single-lock view it
# rebuilt, the whole-pool view and lock, and the trait that let a page
# fault run under either view are gone; none of their names may come
# back, in code or in comments.
gone=$(grep -rnE 'with_quiesced|InnerView|PoolView|DiskTables|lock_all' \
        crates src tests examples README.md DESIGN.md || true)
if [ -n "$gone" ]; then
    echo "FAIL: a deleted whole-server lock path is named again:"
    echo "$gone" | sed 's/^/    /'
    exit 1
fi

echo "== clients reach the server one way; one kind of lock waiter =="
# Every client is a thread making direct calls on the server, and group
# commit is the one commit batcher (DESIGN.md §6d). The event-driven
# runtime, its message transport, its committer's batch force and the
# lock manager's second (callback) kind of waiter are gone; none of their
# names may come back, in code or in comments.
gone=$(grep -rnE 'Reactor|RuntimeConfig|ClientPort|via_reactor|lock_async|LockEvents|WaiterKind|commit_force_batch' \
        crates tests examples README.md DESIGN.md || true)
if [ -n "$gone" ]; then
    echo "FAIL: a deleted client transport or lock-waiter path is named again:"
    echo "$gone" | sed 's/^/    /'
    exit 1
fi

echo "== restart and the transaction path key their tables on the workspace hasher =="
# Every table restart keeps is keyed by a page or transaction id this
# server assigned and reads back from its own checksummed log
# (crates/types/src/hash.rs), and a worker probes its page table once per
# page run: std's SipHash there cost oo7_t2a about a third of its restart.
# The deferred-frame store restart's workers share with the running server
# (crates/esm/src/stash.rs) and its no-steal path (server/txn.rs) too, and
# the WPL table (wpl.rs), which restart's workers rebuild. So does every
# per-transaction table, probed on each lock, record run and shipped page
# from begin to commit: the lock manager's (lock.rs), the transaction
# table (txn.rs), the dirty-page table (dpt.rs), the client's logged-page
# set (client.rs) and the recovery buffer (core's recovery_buffer.rs).
if grep -nE 'HashMap|HashSet' crates/esm/src/restart.rs crates/esm/src/stash.rs \
        crates/esm/src/server/txn.rs crates/esm/src/wpl.rs crates/esm/src/lock.rs \
        crates/esm/src/txn.rs crates/esm/src/dpt.rs crates/esm/src/client.rs \
        crates/core/src/recovery_buffer.rs; then
    echo "FAIL: a restart or per-transaction table (restart.rs, stash.rs," \
         "server/txn.rs, wpl.rs, lock.rs, txn.rs, dpt.rs, client.rs," \
         "recovery_buffer.rs) names a std HashMap/HashSet; use qs_types::{IdMap, IdSet}"
    exit 1
fi

echo "== restart reads every replayed log once =="
# One scan for every log (DESIGN.md §6c): a frame whose transaction's fate
# is open waits in that transaction's arena until its end, so the second
# scan and the analysis-only worker it needed are gone; their names may not
# come back.
if grep -nE 'fn analyze\(|fn redo\(|PageShard' crates/esm/src/restart.rs; then
    echo "FAIL: crates/esm/src/restart.rs names the deleted second scan" \
         "(analyze / redo / PageShard)"
    exit 1
fi

echo "== restart has one path =="
# WPL's table rebuild is a rule in the one replay (DESIGN.md §6c): the
# second restart, its image candidates and their worker, and the optional
# restart facts that forked to it are gone; their names may not come back.
gone=$(grep -rnE 'wpl_restart|ImageCandidate|image_worker|Option<Holds>' \
        crates/esm/src README.md DESIGN.md || true)
if [ -n "$gone" ]; then
    echo "FAIL: the deleted second restart is named again:"
    echo "$gone" | sed 's/^/    /'
    exit 1
fi

echo "== one WPL table =="
# Restart's page-log workers rebuild the server's `WplTable` with the calls
# normal running makes, and the table keeps each transaction's logged
# pages (DESIGN.md §6c): restart's own version table, the copy into the
# server's and the per-transaction page list in the transaction table are
# gone; their names may not come back.
gone=$(grep -rnE 'struct Versions|insert_restored|\bwpl_images\b' \
        crates/esm/src README.md DESIGN.md || true)
if [ -n "$gone" ]; then
    echo "FAIL: a deleted second WPL table is named again:"
    echo "$gone" | sed 's/^/    /'
    exit 1
fi

echo "== one pass per log record: no tail copy in force, no pool scan per overflow =="
# `LogManager::force` detaches the prefix it writes; a `to_vec` there is
# the 2 MB-per-commit copy coming back. `Store` scans the client pool for
# its dirty list in two places: `commit`, and `ensure_elected` behind the
# "an election is pending" guard — not on every recovery-buffer overflow.
force_copies=$(awk '/^    pub fn force\(/ { on = 1 } on && /^    }$/ { on = 0 }
                    on && $0 !~ /^[ \t]*\/\// && /to_vec/ { print "    " FILENAME ":" FNR ": " $0 }' \
        crates/wal/src/log.rs)
if [ -n "$force_copies" ]; then
    echo "FAIL: LogManager::force copies the tail it writes:"
    echo "$force_copies"
    exit 1
fi
scans=$(awk '/^    (pub )?fn [a-z_]+/ { name = $0; sub(/^ *(pub )?fn /, "", name); sub(/[(<].*/, "", name)
                                          guarded = 0 }
             /elected_scheme\(\)\.is_some\(\)/ { guarded = 1 }
             $0 !~ /^[ \t]*\/\// && /dirty_pages\(\)/ &&
             !(name == "commit" || (name == "ensure_elected" && guarded)) {
                 print "    " FILENAME ":" FNR ": " $0 " (in fn " name ")"
             }' crates/core/src/store.rs)
if [ -n "$scans" ]; then
    echo "FAIL: crates/core/src/store.rs builds a dirty list outside \`commit\`" \
         "and the guarded \`ensure_elected\`:"
    echo "$scans"
    exit 1
fi

echo "== one kind of medium: the file-backed disk stays deleted =="
# Every medium lives in memory: MemDisk, and CrashDisk for crash tests.
# The file-backed medium no example or test used is gone; its name may not
# come back.
gone=$(grep -rn 'FileDisk' crates src tests examples README.md DESIGN.md || true)
if [ -n "$gone" ]; then
    echo "FAIL: the deleted file-backed medium is named again:"
    echo "$gone" | sed 's/^/    /'
    exit 1
fi

echo "== an object visit ticks no atomic; the product has no unsafe =="
# OO7 visits reach the meter in batches through `Store::visit` (DESIGN.md
# §3c): a `fetch_add` in the traversal is the per-visit atomic coming
# back. And the product is safe Rust: outside test modules, no source
# under crates/ says `unsafe` — the counting allocator lives in the
# dev-only crates/testkit, which no [dependencies] table may name (the
# audit below checks that).
if grep -n 'fetch_add' crates/oo7/src/traversal.rs; then
    echo "FAIL: crates/oo7/src/traversal.rs ticks the meter per visit;" \
         "visit through Store::visit"
    exit 1
fi
unsafe_sites=$(find crates/*/src ! -path 'crates/testkit/*' -name '*.rs' ! -name tests.rs \
        -exec awk '
    FNR == 1 { in_tests = 0; pending = 0 }
    pending { if ($0 ~ /mod [a-z_]+ *\{/) in_tests = 1; pending = 0 }
    /^[ \t]*#\[cfg\(test\)\]/ { pending = 1 }
    !in_tests && $0 !~ /^[ \t]*\/\// && /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ {
        print "    " FILENAME ":" FNR ": " $0
    }' {} +)
if [ -n "$unsafe_sites" ]; then
    echo "FAIL: non-test source under crates/ uses unsafe:"
    echo "$unsafe_sites"
    exit 1
fi

echo "== no-steal frames wait in one arena per transaction =="
# A transaction's deferred frames sit back to back in one recycled arena of
# the one deferred-frame store (`Stash`, crates/esm/src/stash.rs), which
# the running server's no-steal commit and restart's workers both use and
# both settle page by page through `Arena::lay_run`. The per-frame
# `PendingOp` copy, the `BTreeMap` that regrouped them, and restart's own
# parking arena with its per-page queue may not come back.
if grep -rn 'PendingOp' crates tests examples README.md DESIGN.md \
        || grep -n 'BTreeMap' crates/esm/src/server/txn.rs crates/esm/src/stash.rs \
        || grep -rnE 'struct Parked|ParkedFrame' crates/esm/src README.md DESIGN.md; then
    echo "FAIL: a deleted deferred-frame stash (PendingOp / BTreeMap regroup /" \
         "Parked / ParkedFrame) is named again"
    exit 1
fi

echo "== cargo test -q --offline =="
cargo test -q --offline --workspace

echo "== allocation-free paths, release profile too =="
# The counting-allocator tests hold "no allocation per log record, per
# force, per recovery-buffer overflow, per no-steal frame, per warm OO7
# transaction"; the optimizer
# decides what gets boxed or inlined, so the profile that ships is checked
# as well.
cargo test -q --release --offline -p qs-wal --test alloc_free_append
cargo test -q --release --offline -p quickstore --test alloc_free_commit
cargo test -q --release --offline -p qs-esm --test alloc_free_nosteal
cargo test -q --release --offline -p qs-oo7 --test alloc_free_traversal

echo "== dependency audit: path-only =="
# Any bare `name = "x.y"` or `{ version = ... }` entry in a [dependencies]
# block is an external (registry) dependency and fails the audit. Internal
# deps always carry `path = ...` (directly or via `workspace = true`
# resolving to a path entry in the root manifest).
audit_failed=0
# The glob must actually cover every workspace crate; spot-check one that
# was added after the audit was written (a silent glob miss would pass
# vacuously).
audit_saw_trace=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    [ "$manifest" = "crates/trace/Cargo.toml" ] && audit_saw_trace=1
    bad=$(awk '
        /^\[/ { in_deps = ($0 ~ /dependencies\]$/) }
        in_deps && /^[A-Za-z0-9_-]+[ \t]*=/ {
            if ($0 !~ /path[ \t]*=/ && $0 !~ /workspace[ \t]*=[ \t]*true/) print
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "FAIL: non-path dependency in $manifest:"
        echo "$bad" | sed 's/^/    /'
        audit_failed=1
    fi
    # The test-support crate is a dev-dependency only (the root manifest
    # declares its path for the members to inherit).
    bad=$(awk '
        /^\[/ { section = $0 }
        /^qs-testkit([ \t]*=|\.)/ && section != "[dev-dependencies]" &&
            section != "[workspace.dependencies]" { print section ": " $0 }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "FAIL: $manifest names qs-testkit outside [dev-dependencies]:"
        echo "$bad" | sed 's/^/    /'
        audit_failed=1
    fi
done
# Belt and braces: the named crates the refactor removed must not return.
if grep -RE '^(rand|proptest|criterion|crossbeam|parking_lot|bytes|serde)[ \t]*=' \
        Cargo.toml crates/*/Cargo.toml; then
    echo "FAIL: removed external crate reappeared in a manifest"
    audit_failed=1
fi
if [ "$audit_saw_trace" -ne 1 ]; then
    echo "FAIL: dep audit glob never visited crates/trace/Cargo.toml"
    audit_failed=1
fi
[ "$audit_failed" -eq 0 ] || exit 1
echo "dependency audit: OK (all dependencies are internal path deps)"

echo "== clippy (whole workspace), warnings are errors =="
cargo clippy -q --offline --workspace -- -D warnings

echo "== concurrency tests under a deadlock watchdog =="
# The multi-client / group-commit / shard-independence tests exercise the
# decomposed server's locking across real threads, and restart_equivalence
# the restart engine's reader -> router -> worker channels (committed-model
# oracle, pinned phase counts, byte-identity across 1/2/4/8 workers and
# odd chunk sizes — the 29-byte chunks are what pipelines these short logs,
# at the default size they are scanned inline — corrupt frames failing
# loudly — whichever thread
# verifies them, incl. the redo-verified frames below the anchor); a
# lock-order or channel-hangup bug shows up as a hang, not a failure.
# `timeout` turns a hang into a hard FAIL. multi_client also closes a
# deadlock between two client threads (the closer is denied, the blocked
# survivor commits); the lock_property suite drives seeded random
# histories through the granularity hierarchy (flat-manager oracle, slot
# independence, mixed page/record deadlocks closed against a blocked
# thread) and record_granularity pins the zero-wait distinct-slot
# contention win between two client threads.
# ckpt_fuzzy, ckpt_concurrent and ckpt_seeded cover the checkpoint under
# load: a checkpoint mid-transaction recovers the committed model for all
# six schemes (plus the two lost-commit reproductions: log page /
# checkpoint(s) / dirty page), client threads hammering hot pages while
# the flusher thread checkpoints in a loop (checkpoints complete during
# the traffic, every last committed value survives the crash), and 50
# seeds of clients shipping log page -> dirty page -> commit against a
# checkpoint loop, inline and on the flusher thread, every acknowledged
# commit present after the crash (a failure prints its seed).
# adaptive_equivalence crashes a seeded mixed-scheme workload at several
# commit points and requires the 1/2/4-worker restarts of the interleaved
# PD/SD/WPL/RLOG log to be byte-identical and to match a never-crashed twin.
for t in multi_client group_commit shard_independence restart_equivalence \
         lock_property record_granularity ckpt_fuzzy ckpt_concurrent \
         ckpt_seeded adaptive_equivalence; do
    if ! timeout 120 cargo test -q --offline --test "$t"; then
        echo "FAIL: --test $t did not finish within 120s (possible deadlock)" \
             "or failed; see output above"
        exit 1
    fi
done

# A force parked inside its media write (crates/wal/tests/force_detached.rs
# blocks a thread on purpose): readers, appenders and the next force around
# it. A lock held across the write, or a lost wake-up, is a hang.
if ! timeout 120 cargo test -q --offline -p qs-wal --test force_detached; then
    echo "FAIL: qs-wal --test force_detached did not finish within 120s or failed"
    exit 1
fi

# The restart engine's own unit tests (crates/esm/src/restart.rs: the one
# scan vs the serial two-pass reference at 1/2/4/8 workers and one-record
# chunks, stashed no-steal frames included) drive the same channels.
if ! timeout 120 cargo test -q --offline -p qs-esm --lib restart::; then
    echo "FAIL: qs-esm restart:: unit tests did not finish within 120s or failed"
    exit 1
fi

echo "== RedoLogical (PD-RLOG) crash/restart smoke =="
# The sixth scheme's full cycle — generate, committed traversals, crash,
# REDO-only restart (no undo phase), byte-identical object state vs every
# other scheme. scheme_equivalence derives its list from
# SystemConfig::all_schemes(), so PD-RLOG is covered by construction and
# this run fails if the shared list ever loses it.
if ! timeout 180 cargo test -q --offline --test scheme_equivalence; then
    echo "FAIL: --test scheme_equivalence did not finish within 180s or failed"
    exit 1
fi

echo "== determinism contract: the count tables regenerate byte-identical =="
# Defaults (one shard, no group commit, no flusher thread, fixed schemes)
# keep every *count* identical run to run and PR to PR: the single-client
# tables, the restart figures and the traced restart (ROADMAP "Determinism
# is the product"). Regenerate them (~5 s) and diff against results/. The
# multi-client, time-valued figures are not reproducible yet and are not
# checked here.
regen_dir=$(mktemp -d)
(cd "$regen_dir" \
    && "$OLDPWD/target/release/figures" table1_2 table3 fig09 fig14 > /dev/null \
    && "$OLDPWD/target/release/trace" > /dev/null)
for f in table1_2.txt table3.txt fig09.txt fig14.txt restart_trace.json; do
    if ! diff -q "$regen_dir/results/$f" "results/$f" > /dev/null; then
        echo "FAIL: results/$f no longer regenerates byte-identical:"
        diff "$regen_dir/results/$f" "results/$f" | head -20
        exit 1
    fi
done
rm -rf "$regen_dir"

echo "== micro benchmark smoke run =="
# --smoke shrinks the batches so this is a harness/JSON regression check,
# not a measurement; --validate asserts BENCH_micro.json parses and covers
# every expected benchmark name.
micro_dir=$(mktemp -d)
(cd "$micro_dir" && "$OLDPWD/target/release/micro" --smoke > /dev/null)
cargo run --release --offline -p qs-bench --bin micro -- \
    --validate "$micro_dir/BENCH_micro.json"
rm -rf "$micro_dir"

echo "== restart benchmark smoke run =="
# Crashes a small OO7 workload and restarts it at every worker count with
# the phase-count cross-check enabled; --validate asserts the JSON covers
# every scheme × worker count, that every row carries the per-stage wall
# accounting (reader, router, each worker, merge, undo, checkpoint), that
# no scan reports more busy time than wall × threads, and that every
# restart made exactly one scan and read no more than 1.05 × its log span
# + one chunk — the second read of the log must not come back.
restart_dir=$(mktemp -d)
(cd "$restart_dir" && "$OLDPWD/target/release/restart_bench" --smoke > /dev/null)
cargo run --release --offline -p qs-bench --bin restart_bench -- \
    --validate "$restart_dir/BENCH_restart.json"
rm -rf "$restart_dir"

echo "== scale benchmark smoke run =="
# Runs the full mode × client-count matrix (threads and threads_gc, up to
# 1024 client threads) at tiny sizes, with the workload-applied and
# commit-count assertions live; --validate asserts the JSON covers every
# mode at every client count.
scale_dir=$(mktemp -d)
(cd "$scale_dir" && "$OLDPWD/target/release/scale" --smoke > /dev/null)
cargo run --release --offline -p qs-bench --bin scale -- \
    --validate "$scale_dir/BENCH_scale.json"
rm -rf "$scale_dir"

echo "== checkpoint benchmark smoke run =="
# Watermark maintenance on the committing client vs on the flusher thread,
# with the crash + restart + value re-assertions live in both rows;
# --validate asserts the JSON shape.
ckpt_dir=$(mktemp -d)
(cd "$ckpt_dir" && "$OLDPWD/target/release/ckpt_bench" --smoke > /dev/null)
cargo run --release --offline -p qs-bench --bin ckpt_bench -- \
    --validate "$ckpt_dir/BENCH_ckpt.json"
rm -rf "$ckpt_dir"

echo "== adaptive benchmark smoke run =="
# Per-transaction scheme election vs every fixed scheme on three
# workloads, each run ending in a crash with restart equivalence across
# worker counts asserted; --validate asserts the JSON covers every
# workload × scheme (the 1.05×/1.3× acceptance bars are skipped for
# smoke files).
adaptive_dir=$(mktemp -d)
(cd "$adaptive_dir" && "$OLDPWD/target/release/adaptive_bench" --smoke > /dev/null)
cargo run --release --offline -p qs-bench --bin adaptive_bench -- \
    --validate "$adaptive_dir/BENCH_adaptive.json"
rm -rf "$adaptive_dir"

echo "== repo benchmark: crash_restart smoke =="
# The standalone benchmark crate's own checks on a small crash image: (a)
# recovered digest equals the last acknowledged commit, (b) the loser's
# writes are absent, (c) quiesced media identical across worker counts,
# (d) restart phase counts identical across restarts. The exit code is
# the check, so a restart change that breaks what BENCHMARK.json measures
# fails here, before the driver runs it.
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload crash_restart --smoke > /dev/null

echo "== verify: all green =="
