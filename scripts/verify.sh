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

echo "== workspace tests =="
cargo test --workspace -q

echo "== scan-prop: chunked flag-plane scan vs scalar reference =="
cargo test -q -p nbl-trace --features scan-prop

echo "== codec-prop: tape artifact round-trip under random tapes =="
cargo test -q -p nbl-trace --features codec-prop

echo "== probe-prop: split probe/note_hit vs fused touch under all policies =="
cargo test -q -p nbl-core --features probe-prop

echo "== mshr-prop: flat MSHR slots vs an ordered-map reference on every shape =="
cargo test -q -p nbl-core --features mshr-prop

echo "== oracle-prop: abstract-domain soundness vs the engine on random tapes =="
cargo test -q -p nbl-oracle --features oracle-prop

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
         "doc-coverage", "bad-allow", "allowlist"}
assert set(d["per_lint"]) <= known, d["per_lint"]
assert d["allowlist_entries"] == 0, "the allowlist only burns down"
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

echo "== smoke: Fig. 19 dual-issue table vs pinned golden =="
cargo run --release -p nbl-bench -- fig19 --quick --out "$replsens_dir/fig19.txt" >/dev/null
# The table must be bit-identical to the pinned golden: the dual-issue
# run (real- and perfect-cache tape replays) may not drift. The
# wall-clock throughput summary after the table is left out.
sed -n '/^== Figure 19/,/^$/{/^$/d;p}' "$replsens_dir/fig19.txt" \
  | diff -u scripts/golden/fig19_quick.txt -

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

echo "== smoke: bench rail (fused/unfused/disk-warm + artifact store) =="
bench_json="$replsens_dir/bench.json"
bench_store="$replsens_dir/store"
bench_date="$(git log -1 --format=%cs 2>/dev/null || echo unknown)"
# Two processes against one artifact store: the first populates the disk
# tier from scratch, the second must warm-start from it — tapes decoded
# instead of re-recorded, and still bit-identical. The second runs on a
# pinned 4-thread pool so the multi-thread sweep scheduling is exercised
# cross-process. The real commit date (not a placeholder) stamps both
# trajectory entries.
# NBL_ORACLE_CHECKED=1: the oracle gate above passed in this same
# verification run, so both trajectory entries record oracle_checked.
NBL_BENCH_JSON="$bench_json" NBL_BENCH_DATE="$bench_date" NBL_ORACLE_CHECKED=1 \
  cargo run --release -p nbl-bench -- bench --store "$bench_store" \
  --bench-reps 2 --out /dev/null >/dev/null
NBL_BENCH_JSON="$bench_json" NBL_BENCH_DATE="$bench_date" NBL_ORACLE_CHECKED=1 \
  NBL_THREADS=4 \
  cargo run --release -p nbl-bench -- bench --store "$bench_store" \
  --bench-reps 2 --out /dev/null >/dev/null
python3 - "$bench_json" "$bench_date" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
bench_date = sys.argv[2]
assert d["kind"] == "bench_sweep", d["kind"]
assert d["runs"] == len(d["benchmarks"]) * len(d["configs"]) * len(d["load_latencies"])
assert d["bit_identical"] is True, "a replay or store path diverged"
for key in ("cold_wall_s", "warm_wall_s", "unfused_wall_s",
            "disk_warm_wall_s", "tape_scan_s", "mem_step_s",
            "speedup_fused_vs_unfused", "speedup_warm_vs_cold",
            "speedup_disk_warm_vs_cold"):
    assert d[key] > 0, key
# Fusion gate: fused replay must beat unfused at both pinned thread
# counts — fusion-aware row-span scheduling is what holds the 4-thread
# side, so a regression here is a scheduling or kernel defect.
assert d["fusion_regressed"] is False, \
    "fused replay lost to unfused at a pinned thread count"
for key in ("speedup_fused_vs_unfused_1t", "speedup_fused_vs_unfused_4t"):
    assert d[key] > 1.0, (key, d[key])
# Throughput floor: well below any observed machine (baseline ~2.7k/s
# before fusion) but high enough to catch a pipeline-wide regression.
assert d["warm_runs_per_sec"] >= 2000, d["warm_runs_per_sec"]
traj = d["trajectory"]
assert [e["date"] for e in traj] == [bench_date, bench_date], traj
assert bench_date != "unknown", "commit date must resolve"
for e in traj:
    for key in ("git", "threads", "reps", "warm_runs_per_sec", "disk_warm_wall_s",
                "speedup_disk_warm_vs_cold", "fusion_regressed", "bit_identical",
                "speedup_fused_vs_unfused_1t", "speedup_fused_vs_unfused_4t",
                "tape_scan_s", "mem_step_s", "oracle_checked"):
        assert key in e, key
    assert e["bit_identical"] is True, e
    assert e["fusion_regressed"] is False, e
    assert e["oracle_checked"] is True, e
# Acceptance floor: a fresh incremental process over the populated store
# must beat the cold (empty-store) pass by at least 1.5x. Entry 0 is the
# only run whose cold pass saw an empty store.
assert traj[0]["speedup_disk_warm_vs_cold"] >= 1.5, traj[0]
caches = d["caches"]
pairs = len(d["benchmarks"]) * len(d["load_latencies"])
store = caches["store"]
assert set(store) == {"tape_hits", "tape_misses", "tape_writes",
                      "result_hits", "result_misses", "result_writes",
                      "corruptions", "io_errors"}, store
# Second process: every tape pair decoded from the disk tier, none
# re-recorded; all 864 cells answered by the disk-warm phase.
assert caches["tape_cache"]["records"] == 0, caches["tape_cache"]
assert store["tape_hits"] == pairs, store
assert caches["tape_cache"]["records"] + store["tape_hits"] == pairs
assert store["result_hits"] >= d["runs"], store
assert store["corruptions"] == 0 and store["io_errors"] == 0, store
assert caches["tape_cache"]["hits"] > 0
print("bench.json: shape + floors + store telemetry + 2-entry trajectory OK")
EOF

echo "verify: OK"
