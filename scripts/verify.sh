#!/usr/bin/env bash
# Offline verification: the tier-1 gate plus lints. Everything here runs
# with no network access — the workspace has no external dependencies.
#
#   scripts/verify.sh            # build + tests + clippy + fmt + docs
#   NBL_THREADS=4 scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: cargo build --release =="
cargo build --release

echo "== tier 1: cargo test -q =="
cargo test -q

echo "== workspace tests (every property suite included) =="
cargo test --workspace -q

echo "== warm arena: zero processor builds on warm replay (pinned counters) =="
cargo test -q -p nbl-sim --test warm_arena

echo "== artifact store: cross-process warm start + corruption recovery =="
cargo test -q -p nbl-sim --test artifact_store

echo "== nbl-benchmark: builds and passes its tests against the public API =="
cargo test -q --release --manifest-path nbl-benchmark/Cargo.toml

echo "== clippy (warnings denied) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== nbl-analyze (repo-specific lints, findings denied) =="
cargo run --release -p nbl-analyze -- --deny --json results/json/analyze.json
python3 - results/json/analyze.json <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["kind"] == "analyze", d["kind"]
assert d["findings_total"] == len(d["findings"]) == 0, d["findings"]
assert d["files_scanned"] > 0, d["files_scanned"]
known = {"no-panic", "determinism", "exhaustiveness", "event-guard",
         "doc-coverage", "bad-allow"}
assert set(d["per_lint"]) <= known, d["per_lint"]
print("analyze.json: shape OK")
EOF

echo "== rustfmt check =="
cargo fmt --all -- --check

echo "== rustdoc (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== smoke: parallel figures run =="
cargo run --release -p nbl-bench -- fig5 --quick --out /dev/null >/dev/null

echo "== smoke: replacement-policy sweep vs pinned LRU golden =="
replsens_dir="$(mktemp -d)"
trap 'rm -rf "$replsens_dir"' EXIT
cargo run --release -p nbl-bench -- replsens --quick \
  --csv "$replsens_dir" --json "$replsens_dir" --out /dev/null >/dev/null
# The LRU rows must be bit-identical to the pinned golden: the
# policy-parameterized tag array may not perturb the default policy.
grep '^lru,' "$replsens_dir/replsens.csv" \
  | diff -u scripts/golden/replsens_lru_quick.csv -
# The whole file, every policy plane, must match too: the plane-sweep
# layer may not perturb the non-LRU policies either.
diff -u scripts/golden/replsens_quick_full.csv "$replsens_dir/replsens.csv"
python3 - "$replsens_dir/replsens.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["kind"] == "replacement_sweep", d["kind"]
assert len(d["policies"]) >= 3, d["policies"]
assert len(d["configs"]) >= 3, d["configs"]
assert d["load_latencies"] == [1, 2, 3, 6, 10, 20], d["load_latencies"]
assert len(d["runs"]) == len(d["policies"]) * len(d["configs"]) * 6
print("replsens.json: shape OK")
EOF

echo "== smoke: processor-model sweep vs pinned single-issue golden =="
cargo run --release -p nbl-bench -- replaymodel --quick \
  --csv "$replsens_dir" --json "$replsens_dir" --out /dev/null >/dev/null
# The single-issue rows must be bit-identical to the pinned golden: the
# issue-policy engine may not perturb the default stalling pipeline.
grep '^single,' "$replsens_dir/replaymodel.csv" \
  | diff -u scripts/golden/replaymodel_single_quick.csv -
# The whole file, the dual and replaying planes included.
diff -u scripts/golden/replaymodel_quick_full.csv "$replsens_dir/replaymodel.csv"
python3 - "$replsens_dir/replaymodel.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["kind"] == "model_sweep", d["kind"]
assert d["models"] == ["single", "dual", "replay"], d["models"]
assert len(d["configs"]) >= 3, d["configs"]
assert d["load_latencies"] == [1, 2, 3, 6, 10, 20], d["load_latencies"]
assert len(d["runs"]) == len(d["models"]) * len(d["configs"]) * 6
causes = {"fwd_fail", "bank_conflict", "dcache_rep", "dcache_miss"}
for r in d["runs"]:
    assert set(r["replays"]) == causes, r["replays"]
    for c in r["replays"].values():
        assert c["count"] >= 0 and c["stall_cycles"] >= 0, c
stall = sum(c["stall_cycles"]
            for r in d["runs"] if r["model"] == "replay"
            for c in r["replays"].values())
assert stall > 0, "replay model attributed no stall cycles"
for r in d["runs"]:
    if r["model"] == "single":
        assert all(c["count"] == 0 for c in r["replays"].values()), r
print("replaymodel.json: shape OK")
EOF

echo "== smoke: Fig. 18 penalty sweep vs pinned full-file golden =="
cargo run --release -p nbl-bench -- fig18 --quick --csv "$replsens_dir" --out /dev/null >/dev/null
# Every penalty row runs on the fused-row runner: the whole table must
# stay bit-identical.
diff -u scripts/golden/fig18_quick_full.csv "$replsens_dir/fig18.csv"

echo "== smoke: Fig. 19 dual-issue table vs pinned golden =="
cargo run --release -p nbl-bench -- fig19 --quick --out "$replsens_dir/fig19.txt" >/dev/null
# The table must be bit-identical to the pinned golden: the dual-issue
# run (real- and perfect-cache tape replays) may not drift. The
# wall-clock throughput summary after the table is left out.
sed -n '/^== Figure 19/,/^$/{/^$/d;p}' "$replsens_dir/fig19.txt" \
  | diff -u scripts/golden/fig19_quick.txt -

echo "== smoke: Fig. 6, 13 and 14 tables vs pinned goldens =="
# Each table runs on the fused-row runner and must stay bit-identical to
# the per-cell runs it replaced; the throughput summary is left out.
for n in 6 13 14; do
  cargo run --release -p nbl-bench -- "fig$n" --quick --out "$replsens_dir/fig$n.txt" >/dev/null
  sed -n "/^== Figure $n:/,/^\$/{/^\$/d;p}" "$replsens_dir/fig$n.txt" \
    | diff -u "scripts/golden/fig${n}_quick.txt" -
done

echo "== full scale: figures all CSV and JSON vs committed results/ =="
# The committed full-scale results are the numbers EXPERIMENTS.md cites:
# every figure CSV and JSON must regenerate byte for byte.
full_dir="$replsens_dir/full"
mkdir -p "$full_dir"
cargo run --release -p nbl-bench -- all --csv "$full_dir" --json "$full_dir" --out /dev/null >/dev/null
# bench.json is left out: its fields are wall clocks.
for f in results/csv/*.csv results/json/fig*.json results/json/misslife.json \
         results/json/oracle.json results/json/replsens.json results/json/replaymodel.json; do
  cmp "$f" "$full_dir/$(basename "$f")"
done

echo "== smoke: miss-lifecycle stats vs pinned golden =="
cargo run --release -p nbl-bench -- misslife --quick --json "$replsens_dir" --out /dev/null >/dev/null
# The lifecycle aggregates must be bit-identical to the pinned golden:
# the memory system's one event stream may not drift, and an access's
# resolution event stays out of the lifecycle stats.
diff -u scripts/golden/misslife_quick.json "$replsens_dir/misslife.json"

echo "== oracle gate: 72-cell cross-check, zero violations (--deny) =="
oracle_store="$replsens_dir/oracle-store"
# Four passes: cold and warm against one verdict store (the second must
# answer every cell from it), a third after flipping one byte of one
# verdict file (quarantined, that one cell re-analyzed), and a fourth
# whose store root is a regular file (every read and write fails, is
# counted, and the run still finishes clean). The gate reads the verdict
# tier's counters from the JSON "store" object.
oracle_pass() {
  cargo run --release -p nbl-oracle -- --deny --json "$replsens_dir/oracle_cli$1.json" \
    --store "$2" "${@:3}" >/dev/null
}
oracle_pass 1 "$oracle_store" --csv "$replsens_dir/oracle_cli.csv"
oracle_pass 2 "$oracle_store"
python3 - "$oracle_store" <<'EOF'
import os, sys
victim = sorted(f for f in os.listdir(sys.argv[1]) if f.endswith(".nbo"))[0]
path = os.path.join(sys.argv[1], victim)
data = bytearray(open(path, "rb").read())
data[len(data) // 2] ^= 0x01
open(path, "wb").write(data)
EOF
oracle_pass 3 "$oracle_store"
touch "$replsens_dir/not-a-dir"
oracle_pass 4 "$replsens_dir/not-a-dir"
python3 - "$replsens_dir"/oracle_cli{1,2,3,4}.json <<'EOF'
import json, sys
cold, warm, healed, no_dir = (json.load(open(p)) for p in sys.argv[1:])
for d in (cold, warm, healed, no_dir):
    assert d["exhibit"] == "oracle", d["exhibit"]
    assert d["cells"] == len(d["rows"]) == 72, d["cells"]
    assert d["violations"] == 0, d["violations"]
    for r in d["rows"]:
        assert r["must_hit"] + r["must_miss"] + r["unknown"] == r["accesses"], r
        assert r["violations"] == 0, r
# Blocking LRU cells have a zero fill window: the analysis is exact there.
for r in cold["rows"]:
    if r["policy"] == "lru" and r["hw"] == "mc=0":
        assert r["unknown"] == 0, ("blocking lru cell left unknowns", r)
def counters(d, *keys):
    return tuple(d["store"][k] for k in keys)
assert counters(cold, "hits", "misses", "writes") == (0, 72, 72), cold["store"]
assert counters(warm, "hits", "writes") == (72, 0), warm["store"]
assert counters(healed, "corruptions", "hits", "writes") == (1, 71, 1), healed["store"]
assert counters(no_dir, "hits", "writes", "io_errors") == (0, 0, 144), no_dir["store"]
for d in (cold, warm, healed):
    assert d["store"]["io_errors"] == 0, d["store"]
def coverage(d):
    return [(r["bench"], r["geometry"], r["policy"], r["hw"], r["accesses"],
             r["must_hit"], r["must_miss"], r["unknown"]) for r in d["rows"]]
assert coverage(cold) == coverage(warm) == coverage(healed) == coverage(no_dir)
print("oracle gate: 72 cells, 0 violations, verdict store cold/warm/corrupt/unwritable OK")
EOF

echo "== smoke: oracle exhibit vs pinned LRU coverage golden =="
cargo run --release -p nbl-bench -- oracle --quick \
  --csv "$replsens_dir" --json "$replsens_dir" --out /dev/null >/dev/null
# The LRU coverage rows must be bit-identical to the pinned golden: a
# drift means either the tapes, the tag array, or the abstract domain
# changed semantics silently.
grep ',lru,' "$replsens_dir/oracle.csv" \
  | diff -u scripts/golden/oracle_lru_quick.csv -
python3 - "$replsens_dir/oracle.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["exhibit"] == "oracle", d["exhibit"]
assert d["cells"] == len(d["rows"]) == 80, d["cells"]
assert d["violations"] == 0, d["violations"]
for r in d["rows"]:
    assert r["must_hit"] + r["must_miss"] + r["unknown"] == r["accesses"], r
# Acceptance: on at least one benchmark the LRU analysis classifies >= 90%.
best = max(100.0 * (r["must_hit"] + r["must_miss"]) / r["accesses"]
           for r in d["rows"] if r["policy"] == "lru")
assert best >= 90.0, f"best lru coverage {best:.1f}% < 90%"
print("oracle.json: shape + coverage floor OK")
EOF

echo "== smoke: bench gates (fused/unfused/disk-warm + artifact store) =="
bench_store="$replsens_dir/store"
# Two processes against one artifact store, each writing its own
# bench.json: the first populates the disk tier from scratch, the second
# must warm-start from it — tapes decoded instead of re-recorded, and
# still bit-identical. The second runs on a pinned 4-thread pool so the
# multi-thread sweep scheduling is exercised cross-process.
cargo run --release -p nbl-bench -- bench --store "$bench_store" \
  --json "$replsens_dir/bench1" --out /dev/null >/dev/null
NBL_THREADS=4 cargo run --release -p nbl-bench -- bench --store "$bench_store" \
  --json "$replsens_dir/bench2" --out /dev/null >/dev/null
python3 - "$replsens_dir"/bench{1,2}/bench.json <<'EOF'
import json, sys
first, second = (json.load(open(p)) for p in sys.argv[1:])
store_keys = {"tape_hits", "tape_misses", "tape_writes",
              "result_hits", "result_misses", "result_writes",
              "corruptions", "io_errors"}
for d in (first, second):
    assert d["kind"] == "bench", d["kind"]
    # 18 benchmarks x 8 configurations x 6 latencies.
    assert d["runs"] == 864, d["runs"]
    assert d["bit_identical"] is True, "a replay or store path diverged"
    for key in ("cold_wall_s", "warm_wall_s", "disk_warm_wall_s",
                "speedup_disk_warm_vs_cold"):
        assert d[key] > 0, key
    # Fusion gate: fused replay must beat unfused at both pinned thread
    # counts — fusion-aware row-span scheduling is what holds the
    # 4-thread side, so a regression here is a scheduling or kernel
    # defect.
    for key in ("speedup_fused_vs_unfused_1t", "speedup_fused_vs_unfused_4t"):
        assert d[key] > 1.0, (key, d[key])
    caches = d["caches"]
    assert set(caches) == {"compile_cache", "tape_cache", "store"}, caches
    assert set(caches["compile_cache"]) == {"compiles", "hits"}, caches["compile_cache"]
    assert set(caches["tape_cache"]) == {"records", "hits", "evictions",
                                         "resident_bytes"}, caches["tape_cache"]
    for store in (caches["store"], d["disk_warm_store"]):
        assert set(store) == store_keys, store
        assert store["corruptions"] == 0 and store["io_errors"] == 0, store
    # The disk-warm phase answers every cell from stored results.
    assert d["disk_warm_store"]["result_hits"] >= d["runs"], d["disk_warm_store"]
# Throughput floor on the 4-thread run: well below any observed machine
# (baseline ~2.7k/s before fusion) but high enough to catch a
# pipeline-wide regression.
assert second["warm_runs_per_sec"] >= 2000, second["warm_runs_per_sec"]
# Acceptance floor: a fresh incremental process over the populated store
# must beat the cold (empty-store) pass by at least 1.5x. The first run
# is the only one whose cold pass saw an empty store.
assert first["speedup_disk_warm_vs_cold"] >= 1.5, first
# Second process: every tape decoded from the disk tier, none
# re-recorded. Tapes are per schedule: the 108 (benchmark, latency)
# pairs compile to 66 schedules, and the other 42 pairs' lookups are
# memory-tier hits.
pairs, schedules = 18 * 6, 66
tape_cache, store = second["caches"]["tape_cache"], second["caches"]["store"]
assert tape_cache["records"] == 0, tape_cache
assert store["tape_hits"] == schedules, store
assert tape_cache["records"] + store["tape_hits"] == schedules
assert tape_cache["hits"] >= pairs - schedules, tape_cache
assert tape_cache["hits"] > 0
print("bench.json: gates + store telemetry OK (2 runs)")
EOF

echo "== cli: --out with no file exits 2 =="
rc=0; ./target/release/figures fig5 --out >/dev/null 2>&1 || rc=$?; test "$rc" -eq 2

echo "verify: OK"
