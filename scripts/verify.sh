#!/usr/bin/env bash
# Tier-1 verification gate: build, test, lint. Run from the repo root.
#
# The workspace is zero-external-dependency apart from rand/rand_chacha
# (dev/synthesis only) and criterion (benches), so this also doubles as
# the offline-sandbox smoke test: nothing here should need a registry
# once the lockfile/vendor cache is in place.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The data-parallel runtime must be bitwise deterministic: the suite has
# to pass pinned to one worker and at the machine's natural width.
KRAFTWERK_THREADS=1 cargo test -q
cargo test -q
# The whole suite must also hold with the spectral Poisson backend forced
# through the KRAFTWERK_POISSON override — the backends are drop-in
# replacements, not separately-tested islands.
KRAFTWERK_POISSON=spectral cargo test -q
# The adversarial corpus and watchdog-recovery suite must stay green on
# its own too — it is the contract behind the panic audit below.
cargo test -q --test robustness
cargo clippy --all-targets -- -D warnings
# No new unwrap()/expect()/panic! in library crates (allowlisted
# invariants only — see scripts/panic-allowlist.txt).
bash scripts/panic_audit.sh
# Bench schema smoke (writes to a scratch file, never the committed
# baseline) and the regression gate: HPWL drift beyond 2% against
# BENCH_place.json is fatal, wall-clock drift is warn-only.
bench_smoke=$(mktemp)
obs_dir=$(mktemp -d)
trap 'rm -f "$bench_smoke"; rm -rf "$obs_dir"' EXIT
cargo run --release --bin kraftwerk -- bench --json --max-cells 200 -o "$bench_smoke" -q
KRAFTWERK_BIN=target/release/kraftwerk bash scripts/bench_gate.sh
# The committed multilevel-b2b scale-tier rows (scale10k/scale50k/
# scale250k) are enforcing too: rerun the V-cycle flow and fail on HPWL
# drift, same 2% bar as the flat modes (HPWL is bitwise deterministic,
# so any drift is a real change).
KRAFTWERK_BIN=target/release/kraftwerk MODES=multilevel-b2b MAX_CELLS=250000 \
    bash scripts/bench_gate.sh
# The spectral- and hybrid-backend scale-tier rows (scale10k/scale50k)
# gate the Poisson backends inside the multilevel flow at the same 2%
# HPWL bar — a kernel change that shifts placement quality fails here.
KRAFTWERK_BIN=target/release/kraftwerk MODES=multilevel-spectral,multilevel-hybrid MAX_CELLS=50000 \
    bash scripts/bench_gate.sh

# Large-netlist smoke: the 50k-cell scale tier must place end-to-end
# through the multilevel + bound-to-bound flow inside a generous
# wall-clock budget (measured ~12 s; the budget allows for slow CI).
timeout 300 target/release/kraftwerk bench --json --modes multilevel-b2b \
    --max-cells 50000 -o "$bench_smoke" -q \
    || { echo "verify: 50k multilevel smoke failed or exceeded 300s" >&2; exit 1; }
python3 - "$bench_smoke" <<'EOF'
import json, sys
runs = json.load(open(sys.argv[1]))["runs"]
tiers = {r["netlist"]: r for r in runs if r["mode"] == "multilevel-b2b"}
assert "scale50k" in tiers, f"scale50k row missing: {sorted(tiers)}"
assert all(r["legal"] for r in tiers.values()), "multilevel smoke produced illegal placement"
print("multilevel smoke: OK (" + ", ".join(f"{n} in {r['wall_s']:.1f}s" for n, r in sorted(tiers.items())) + ")")
EOF

# Observability smoke on a fract-scale run. Three contracts:
#   1. telemetry is observation-only — the placement with every probe on
#      (trace + report + alloc tracking + perfetto) is bitwise identical
#      to the untraced one;
#   2. the arena claim holds at runtime — per-phase steady-state heap
#      allocation is bounded (density_map amortizes to zero allocations
#      per iteration, no phase exceeds a small per-iteration constant);
#   3. the Perfetto export is a valid trace whose span tree carries the
#      report's phases.
target/release/kraftwerk gen fract 125 147 6 -o "$obs_dir/fract.kw" > /dev/null
target/release/kraftwerk place "$obs_dir/fract.kw" --fast -o "$obs_dir/plain.pl" --quiet
target/release/kraftwerk place "$obs_dir/fract.kw" --fast -o "$obs_dir/traced.pl" \
    --alloc-stats --trace "$obs_dir/run.jsonl" --report "$obs_dir/report.json" \
    --perfetto "$obs_dir/trace.json" --quiet > /dev/null
cmp "$obs_dir/plain.pl" "$obs_dir/traced.pl" \
    || { echo "verify: telemetry perturbed the placement" >&2; exit 1; }
python3 - "$obs_dir" <<'EOF'
import json, sys
d = sys.argv[1]
report = json.load(open(f"{d}/report.json"))
alloc = {a["phase"]: a for a in report["alloc"]}
assert alloc, "no alloc records in report"
for phase, a in alloc.items():
    per_iter = a["allocs"] / max(a["samples"], 1)
    assert per_iter <= 32, f"{phase}: {per_iter:.1f} allocs/iteration — arena regression"
dm = alloc["place.density_map"]
assert dm["allocs"] < dm["samples"], "density_map no longer allocation-free at steady state"
assert {u["span"] for u in report["utilization"]} >= set(alloc), "utilization spans missing"
trace = json.load(open(f"{d}/trace.json"))
events = trace["traceEvents"]
assert events and all("ph" in e and "name" in e for e in events), "malformed trace events"
spans = {e["name"] for e in events if e["ph"] == "X"}
# The alloc bracket wraps the X/Y join as one phase (`place.solve_xy`);
# the timed span tree records the two overlapped solves individually.
if {"place.solve_x", "place.solve_y"} <= spans:
    spans.add("place.solve_xy")
# Likewise the field/matrix join (`place.field_and_matrix`) overlaps the
# Poisson solve with the system assembly.
if {"place.field_solve", "place.force_assembly"} <= spans:
    spans.add("place.field_and_matrix")
missing = set(alloc) - spans
assert not missing, f"report phases absent from perfetto span tree: {missing}"
assert any(e["ph"] == "C" for e in events), "no counter tracks in perfetto export"
print(f"observability smoke: OK ({len(events)} trace events, "
      f"{len(alloc)} instrumented phases)")
EOF

# Daemon smoke: the served path end to end against a real process — one
# good job (trace-id correlated), one malformed frame, and one
# fault-injected job, each answered with the documented structured frame
# on a surviving connection, with the /metrics sidecar scraped between
# jobs (counters must move, the exposition must parse line by line, and
# /healthz must report ok), then a SIGTERM shutdown that must exit 0 and
# print the served: summary (README "Serving placements" and "Service
# metrics").
serve_log="$obs_dir/serve.log"
target/release/kraftwerk serve --workers 1 --queue-cap 4 --deadline 30 \
    --metrics-addr 127.0.0.1:0 \
    > "$serve_log" 2>&1 &
serve_pid=$!
serve_addr=""
metrics_url=""
for _ in $(seq 1 100); do
    serve_addr=$(sed -n 's/^listening on //p' "$serve_log" | head -n 1)
    metrics_url=$(sed -n 's/^metrics on //p' "$serve_log" | head -n 1)
    [ -n "$serve_addr" ] && [ -n "$metrics_url" ] && break
    sleep 0.1
done
if [ -z "$serve_addr" ] || [ -z "$metrics_url" ]; then
    echo "verify: daemon never reported its addresses" >&2
    kill "$serve_pid" 2> /dev/null || true
    exit 1
fi
python3 - "$serve_addr" "$obs_dir/fract.kw" "$metrics_url" <<'EOF'
import json, socket, sys, time, urllib.request
host, port = sys.argv[1].rsplit(":", 1)
netlist = open(sys.argv[2]).read()
metrics_url = sys.argv[3]
health_url = metrics_url.rsplit("/", 1)[0] + "/healthz"
sock = socket.create_connection((host, int(port)), timeout=60)
f = sock.makefile("rw")

def send(obj):
    f.write(json.dumps(obj) + "\n")
    f.flush()

def recv():
    line = f.readline()
    assert line, "daemon closed the connection"
    return json.loads(line)

def outcome():
    r = recv()
    while r["type"] == "progress":
        r = recv()
    return r

def scrape():
    body = urllib.request.urlopen(metrics_url, timeout=10).read().decode()
    samples = {}
    for line in body.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            # Exposition comments are HELP/TYPE only.
            assert line.startswith("# HELP ") or line.startswith("# TYPE "), line
            continue
        series, _, value = line.rpartition(" ")
        assert series, f"malformed sample: {line}"
        float(value)  # every sample value must parse
        samples[series] = float(value)
    return samples

def scrape_until(series, value, tries=100):
    # The solve-wall sample lands a moment after the result frame is
    # sent; give each counter a bounded window to settle.
    for _ in range(tries):
        m = scrape()
        if m.get(series) == value:
            return m
        time.sleep(0.02)
    raise AssertionError(f"{series} never reached {value}: {scrape()}")

# 0. The sidecar answers before any job ran.
m0 = scrape()
assert m0.get('kraftwerk_jobs_total{outcome="ok"}') == 0.0, m0

# 1. A good job round-trips: queued ack, then an ok/degraded result,
#    every frame echoing the client trace id.
send({"type": "place", "id": "smoke-good", "mode": "fast",
      "netlist": netlist, "max_transformations": 12,
      "trace_id": "verify-smoke-1"})
q = recv()
assert q["type"] == "queued" and q["trace_id"] == "verify-smoke-1", q
r = outcome()
assert r["type"] == "result" and r["status"] in ("ok", "degraded"), r
assert r["trace_id"] == "verify-smoke-1", r

# 2. The scrape reflects the finished job: outcome counter moved, both
#    SLO histograms carry the sample, and the connection thread timed
#    reading and parsing the place frame.
m1 = scrape_until("kraftwerk_solve_wall_seconds_count", 1.0)
done = (m1.get('kraftwerk_jobs_total{outcome="ok"}', 0)
        + m1.get('kraftwerk_jobs_total{outcome="degraded"}', 0))
assert done == 1.0, f"jobs_total did not move: {m1}"
assert m1.get("kraftwerk_queue_wait_seconds_count") == 1.0, m1
assert m1.get("kraftwerk_frame_parse_seconds_count") == 1.0, m1
assert any('kraftwerk_queue_wait_seconds_bucket{le="' in s for s in m1), \
    "queue-wait histogram buckets missing from exposition"
assert any('kraftwerk_solve_wall_seconds_bucket{le="' in s for s in m1), \
    "solve-wall histogram buckets missing from exposition"

# 3. A malformed frame answers a structured protocol error (same
#    taxonomy code as CLI exit 2) and the connection resyncs.
f.write("this is not json\n")
f.flush()
e = recv()
assert e["type"] == "error" and e["stage"] == "protocol" and e["code"] == 2, e
#    The frame-parse histogram counts the rejected frame too (observed
#    before the error frame is sent).
m_bad = scrape()
assert m_bad.get("kraftwerk_frame_parse_seconds_count") == 2.0, m_bad

# 4. A fault-injected job fails as a parse-stage error frame (code 4,
#    the CLI parse exit code) without taking the worker down, and the
#    failure lands in the metrics.
send({"type": "place", "id": "smoke-fault", "mode": "fast",
      "netlist": netlist, "fault": "parse", "max_transformations": 12})
q = recv()
assert q["type"] == "queued", q
e = outcome()
assert e["type"] == "error" and e["stage"] == "parse" and e["code"] == 4, e
m2 = scrape_until("kraftwerk_solve_wall_seconds_count", 2.0)
assert m2.get('kraftwerk_jobs_total{outcome="failed"}') == 1.0, m2

# 5. The daemon is still healthy after both failure paths — protocol
#    ping and HTTP liveness probe agree.
send({"type": "ping"})
assert recv()["type"] == "pong"
with urllib.request.urlopen(health_url, timeout=10) as resp:
    assert resp.status == 200, resp.status
    health = json.loads(resp.read().decode())
assert health["status"] == "ok" and health["queue_depth"] == 0, health
print("daemon smoke: OK (good / malformed / fault-injected answered; "
      f"{len(m2)} metric series scraped)")
EOF
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "verify: daemon did not exit cleanly on SIGTERM" >&2
    exit 1
fi
grep -q "^served: " "$serve_log" \
    || { echo "verify: no served: summary after SIGTERM" >&2; exit 1; }

# Opt-in slow tier: KRAFTWERK_SLOW=1 places the million-cell scale tier
# end to end (measured ~5 min by the EXPERIMENTS E7 extrapolation; the
# budget allows for slow CI). Off by default to keep verify.sh fast.
if [ "${KRAFTWERK_SLOW:-0}" = "1" ]; then
    timeout 900 target/release/kraftwerk bench --json --modes multilevel-b2b \
        --max-cells 1000000 -o "$bench_smoke" -q \
        || { echo "verify: scale1m smoke failed or exceeded 900s" >&2; exit 1; }
    python3 - "$bench_smoke" <<'EOF'
import json, sys
runs = json.load(open(sys.argv[1]))["runs"]
tiers = {r["netlist"]: r for r in runs if r["mode"] == "multilevel-b2b"}
assert "scale1m" in tiers, f"scale1m row missing: {sorted(tiers)}"
assert all(r["legal"] for r in tiers.values()), "scale1m smoke produced illegal placement"
print("scale1m smoke: OK (" + ", ".join(f"{n} in {r['wall_s']:.1f}s" for n, r in sorted(tiers.items())) + ")")
EOF
fi

echo "verify: OK"
