#!/usr/bin/env bash
# Tier-1 verification: formatting, release build, full test suite.
#
# Everything runs offline — the workspace has no external crate
# dependencies, so a fresh container with only the Rust toolchain
# must pass this script without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo build --release (offline)"
cargo build --release --workspace --offline

echo "== cargo clippy (offline, -D warnings)"
cargo clippy --workspace --offline -- -D warnings

echo "== cargo test -q (offline)"
cargo test -q --workspace --offline

echo "== unwrap/expect lint (non-test library code vs baseline)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
# Count .unwrap()/.expect( per file in crates/*/src, ignoring everything
# from the first #[cfg(test)] on. New library code must use typed errors;
# counts may only shrink relative to scripts/unwrap_baseline.txt, and the
# baseline is a ratchet: it must record every file's current count
# exactly, so a count that shrank (or a file that is gone) must be
# lowered (or removed) there in the same change.
for f in $(find crates/*/src -name '*.rs' | sort); do
  n=$(awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -c -E '\.unwrap\(\)|\.expect\(' || true)
  if [ "$n" -gt 0 ]; then echo "$n $f"; fi
done >"$smoke_dir/unwrap_now.txt"
awk 'NR==FNR { base[$2] = $1; next }
     { now[$2] = $1
       b = ($2 in base) ? base[$2] : 0
       if ($1 + 0 > b + 0) {
         printf "FAIL: %s has %d unwrap/expect in library code (baseline %d)\n", $2, $1, b
         bad = 1
       } }
     END {
       for (f in base) {
         n = (f in now) ? now[f] : 0
         if (base[f] + 0 > n + 0) {
           printf "FAIL: stale baseline: %s is listed at %d unwrap/expect but has %d; lower it in scripts/unwrap_baseline.txt\n", f, base[f], n
           bad = 1
         }
       }
       exit bad
     }' scripts/unwrap_baseline.txt "$smoke_dir/unwrap_now.txt"

echo "== one arrival path (serve reaches its engine only through ge_fleet::Fleet)"
# A serving session is admission plus books over a one-server fleet, so
# every arrival enters an engine through the fleet's router: the serve
# crate must not start an engine or inject a job itself.
if grep -rnE 'Run::start|inject_job' crates/serve/src; then
  echo "FAIL: crates/serve/src starts or feeds an engine directly; submit through ge_fleet::Fleet"
  exit 1
fi

echo "== faults smoke run (--faults coreloss)"
cargo run --release --offline -q -p ge-experiments -- \
  --quick --reps 1 --horizon 5 --out "$smoke_dir" --faults coreloss \
  >"$smoke_dir/stdout.log"
test -s "$smoke_dir/faults-corelossa.csv"

echo "== CLI flag validation (typed errors, exit 1)"
# Out-of-range or malformed flag values are one diagnostic line and exit
# status 1, never a panic or a degenerate run.
# A path or address flag with no value is the same kind of error.
for bad in "--horizon nan" "--horizon -5" "--reps 0" "--out" "--retries 0" "--faults"; do
  set +e
  # shellcheck disable=SC2086
  ./target/release/ge-experiments --quick fig1 $bad >/dev/null 2>"$smoke_dir/cli.err"
  status=$?
  set -e
  if [ "$status" -ne 1 ] || ! grep -q 'invalid value for' "$smoke_dir/cli.err"; then
    echo "FAIL: '$bad' exited $status: $(cat "$smoke_dir/cli.err")"
    exit 1
  fi
done
# An unknown target is refused (usage, exit 2) before any target runs.
set +e
./target/release/ge-experiments --quick --horizon 1 --out "$smoke_dir/unknown" fig1 fig99 \
  >/dev/null 2>"$smoke_dir/cli.err"
status=$?
set -e
if [ "$status" -ne 2 ] || compgen -G "$smoke_dir/unknown/fig1*.csv" >/dev/null; then
  echo "FAIL: 'fig1 fig99' exited $status or ran fig1: $(head -1 "$smoke_dir/cli.err")"
  exit 1
fi

# Committed result digests. A change that moves any of them changes what
# the simulator computes and must update the value here on purpose.
fleet_digest='digest=0x93e1402037f3a1ba'
resume_digest='digest=0xc12f84f8cc86500b'
serve_digest='digest=0x6010d599f20da3aa'
soak_digest='0x3f46ffe26c6a100a'
# sha256 of the short fig1 trace below: pins the JSONL wire bytes.
trace_sha256='0927e2e7b996aa20ce85dc9a60727cc864179735fbe31839931d4ed49adc57db'
# sha256 of the kill-and-resume smoke's checkpoint: pins its wire bytes.
checkpoint_sha256='6286e06b8a3202108c28b83d906e31a3fd68fc954dd9235d19412d9f39ea7ed4'

echo "== trace wire-format pin (--trace fig1, sha256 of the JSONL bytes)"
# The written trace is the replay-certified JSONL, byte for byte. A
# change to the event table, the codec or the exemplar run that moves
# any byte of it must update the value here on purpose.
cargo run --release --offline -q -p ge-experiments -- \
  --quick --horizon 2 --out "$smoke_dir" --trace "$smoke_dir/wire.jsonl" fig1 \
  >"$smoke_dir/wire.log"
grep -q 'verdict   OK' "$smoke_dir/wire.log"
trace_sha=$(sha256sum "$smoke_dir/wire.jsonl" | cut -d' ' -f1)
if [ "$trace_sha" != "$trace_sha256" ]; then
  echo "FAIL: trace sha256 $trace_sha != committed $trace_sha256"
  exit 1
fi

echo "== fleet smoke run (--fleet fleetcombined, digest bit-exactness)"
# Run the fleet degradation study twice at a small scale and require the
# printed result digest — FNV-1a over every cell's exact result bits —
# to repeat bit-for-bit and to equal the committed value: the whole fleet
# (router, repartitioner, failover, retries) must be reproducible from
# one seed.
cargo run --release --offline -q -p ge-experiments -- \
  --quick --horizon 8 --out "$smoke_dir" --fleet fleetcombined --servers 3 \
  >"$smoke_dir/fleet-a.log"
test -s "$smoke_dir/fleet-fleetcombineda.csv"
cargo run --release --offline -q -p ge-experiments -- \
  --quick --horizon 8 --out "$smoke_dir" --fleet fleetcombined --servers 3 \
  >"$smoke_dir/fleet-b.log"
d_fleet_a=$(grep -o 'digest=0x[0-9a-f]*' "$smoke_dir/fleet-a.log")
d_fleet_b=$(grep -o 'digest=0x[0-9a-f]*' "$smoke_dir/fleet-b.log")
test -n "$d_fleet_a"
if [ "$d_fleet_a" != "$d_fleet_b" ]; then
  echo "FAIL: fleet digest $d_fleet_a != repeat-run digest $d_fleet_b"
  exit 1
fi
if [ "$d_fleet_a" != "$fleet_digest" ]; then
  echo "FAIL: fleet digest $d_fleet_a != committed $fleet_digest"
  exit 1
fi

echo "== supervised runner smoke (--supervise + manifest + ge_supervise_* scrape)"
cargo run --release --offline -q -p ge-experiments -- \
  --quick --reps 1 --horizon 5 --out "$smoke_dir" --faults throttle --supervise \
  --metrics-addr 127.0.0.1:0 \
  >"$smoke_dir/supervise.log"
test -s "$smoke_dir/faults-throttlea.csv"
grep -q '"schema": "ge-run-manifest/v1"' "$smoke_dir/run-manifest.json"
grep -q '"status": "ok"' "$smoke_dir/run-manifest.json"
# The supervisor's health counters must reach the Prometheus exposition.
grep -q '^# TYPE ge_supervise_retries_total counter$' "$smoke_dir/metrics-scrape.txt"
grep -q '^# TYPE ge_supervise_timeouts_total counter$' "$smoke_dir/metrics-scrape.txt"
grep -q '^# TYPE ge_supervise_salvages_total counter$' "$smoke_dir/metrics-scrape.txt"
# Supervision wraps the study's own cells and tables: the same study run
# unsupervised must write byte-identical CSVs.
cargo run --release --offline -q -p ge-experiments -- \
  --quick --reps 1 --horizon 5 --out "$smoke_dir/unsupervised" --faults throttle \
  >"$smoke_dir/unsupervised.log"
for t in a b c; do
  if ! cmp "$smoke_dir/faults-throttle$t.csv" "$smoke_dir/unsupervised/faults-throttle$t.csv"; then
    echo "FAIL: --supervise and unsupervised faults-throttle$t.csv differ"
    exit 1
  fi
done

echo "== kill-and-resume smoke (checkpoint bit-exactness)"
# Stop a checkpointed run mid-flight, resume it, and require the resumed
# result digest to equal an uninterrupted run's, bit for bit.
cargo run --release --offline -q -p ge-experiments -- \
  --quick --horizon 6 --checkpoint "$smoke_dir/smoke.ckpt" \
  --checkpoint-every 3 --stop-after 2 --faults combined \
  >"$smoke_dir/ck-stop.log"
grep -q '^stopped:' "$smoke_dir/ck-stop.log"
test -s "$smoke_dir/smoke.ckpt"
# The checkpoint format is the field order of the Persist declarations; a
# change that moves any byte of it must bump CHECKPOINT_VERSION and update
# the value here on purpose.
checkpoint_sha=$(sha256sum "$smoke_dir/smoke.ckpt" | cut -d' ' -f1)
if [ "$checkpoint_sha" != "$checkpoint_sha256" ]; then
  echo "FAIL: checkpoint sha256 $checkpoint_sha != committed $checkpoint_sha256"
  exit 1
fi
cargo run --release --offline -q -p ge-experiments -- \
  --quick --horizon 6 --checkpoint "$smoke_dir/smoke.ckpt" \
  --checkpoint-every 3 --resume --faults combined \
  >"$smoke_dir/ck-resume.log"
cargo run --release --offline -q -p ge-experiments -- \
  --quick --horizon 6 --checkpoint "$smoke_dir/straight.ckpt" \
  --checkpoint-every 3 --faults combined \
  >"$smoke_dir/ck-straight.log"
d_resumed=$(grep -o 'digest=0x[0-9a-f]*' "$smoke_dir/ck-resume.log")
d_straight=$(grep -o 'digest=0x[0-9a-f]*' "$smoke_dir/ck-straight.log")
test -n "$d_resumed"
if [ "$d_resumed" != "$d_straight" ]; then
  echo "FAIL: resumed digest $d_resumed != straight digest $d_straight"
  exit 1
fi
if [ "$d_resumed" != "$resume_digest" ]; then
  echo "FAIL: resumed digest $d_resumed != committed $resume_digest"
  exit 1
fi

echo "== differential-oracle smoke (--differential, 200 instances)"
# Fan every algorithm over 200 tiny random instances and certify the
# results against the brute-force oracle (YDS KKT certificate, cut
# optimality, clairvoyant energy bound, checkpoint/resume bit-equality).
# Any disagreement is a non-zero exit with a paste-ready repro.
cargo run --release --offline -q -p ge-experiments -- \
  --differential --instances 200 --seed 42 --out "$smoke_dir" \
  >"$smoke_dir/differential.log"
grep -q 'disagreements: none' "$smoke_dir/differential.log"

echo "== serve smoke (live front end: port 0, replay, SIGTERM drain, digest equality)"
# Two identical server+replay pairs must land on the same accounting
# digest; a third pair is SIGTERMed mid-stream and must still drain
# cleanly with every request in exactly one terminal state. The binary
# is exec'd directly so the signal reaches it rather than cargo.
serve_bin=./target/release/ge-experiments
for run in a b; do
  "$serve_bin" --serve --serve-addr 127.0.0.1:0 --horizon 20 \
    --out "$smoke_dir/serve-$run" >"$smoke_dir/serve-$run.log" 2>&1 &
  serve_pid=$!
  for _ in $(seq 50); do
    grep -q 'serve: listening on ' "$smoke_dir/serve-$run.log" && break
    sleep 0.1
  done
  addr=$(sed -n 's/^serve: listening on //p' "$smoke_dir/serve-$run.log")
  test -n "$addr"
  "$serve_bin" --serve-replay "$addr" --requests 120 --horizon 20 --seed 9 \
    >"$smoke_dir/replay-$run.log"
  wait "$serve_pid"
done
grep -q 'verdict   OK' "$smoke_dir/serve-a.log"
grep -q 'resume_bit_exact=true' "$smoke_dir/serve-a.log"
d_serve_a=$(grep -o 'digest=0x[0-9a-f]*' "$smoke_dir/serve-a.log")
d_serve_b=$(grep -o 'digest=0x[0-9a-f]*' "$smoke_dir/serve-b.log")
test -n "$d_serve_a"
if [ "$d_serve_a" != "$d_serve_b" ]; then
  echo "FAIL: serve digest $d_serve_a != repeat-run digest $d_serve_b"
  exit 1
fi
if [ "$d_serve_a" != "$serve_digest" ]; then
  echo "FAIL: serve digest $d_serve_a != committed $serve_digest"
  exit 1
fi
# The replay client's decision-latency percentiles land in the trajectory.
grep -q 'serve_decision/p999' "$smoke_dir/serve-a/BENCH_trajectory.jsonl"
# SIGTERM mid-stream under a paced replay: graceful drain, full books.
"$serve_bin" --serve --serve-addr 127.0.0.1:0 --horizon 20 \
  --out "$smoke_dir/serve-kill" >"$smoke_dir/serve-kill.log" 2>&1 &
serve_pid=$!
for _ in $(seq 50); do
  grep -q 'serve: listening on ' "$smoke_dir/serve-kill.log" && break
  sleep 0.1
done
addr=$(sed -n 's/^serve: listening on //p' "$smoke_dir/serve-kill.log")
test -n "$addr"
"$serve_bin" --serve-replay "$addr" --requests 120 --horizon 20 --seed 9 \
  --replay-speed 2 >"$smoke_dir/replay-kill.log" &
replay_pid=$!
sleep 2
kill -TERM "$serve_pid"
wait "$serve_pid"
wait "$replay_pid"
grep -q 'termination signal received' "$smoke_dir/serve-kill.log"
grep -q 'verdict   OK' "$smoke_dir/serve-kill.log"
grep -q 'resume_bit_exact=true' "$smoke_dir/serve-kill.log"

echo "== chaos soak smoke (--soak: seeded wire abuse, digest equality)"
# Garbage frames, partial writes, connection drops, bursts, slow clients,
# a worker-panic probe, and a mid-stream kill-and-drain — twice, with the
# same seed; the accounting digests must agree and the independently
# recounted trace must show every request in exactly one terminal state.
cargo run --release --offline -q -p ge-experiments -- \
  --soak --requests 100 --horizon 20 --seed 7 --out "$smoke_dir/soak" \
  >"$smoke_dir/soak.log" 2>&1
grep -q "digests agree across two runs: $soak_digest" "$smoke_dir/soak.log"
grep -q 'verdict   OK' "$smoke_dir/soak.log"

echo "== telemetry smoke (live scrape + folded profile artifact)"
# Run a quick figure with the metrics endpoint armed: the CLI
# self-scrapes the Prometheus text into <out>/metrics-scrape.txt and
# writes the folded-stack span profile. The scrape must carry at least
# one counter, one gauge, and one histogram family; the profile must
# contain the structural engine_advance span. Both artifacts stay in the
# scratch directory, so a verify run leaves the work tree clean.
cargo run --release --offline -q -p ge-experiments -- \
  --quick --reps 1 --horizon 5 --out "$smoke_dir" fig1 \
  --metrics-addr 127.0.0.1:0 --profile-out "$smoke_dir/profile-smoke.folded" \
  >"$smoke_dir/telemetry.log"
grep -q '^# TYPE ge_epochs_total counter$' "$smoke_dir/metrics-scrape.txt"
grep -q '^# TYPE ge_replan_incremental_epochs gauge$' "$smoke_dir/metrics-scrape.txt"
grep -q '^# TYPE ge_epoch_planning_seconds histogram$' "$smoke_dir/metrics-scrape.txt"
grep -q '_bucket{le=' "$smoke_dir/metrics-scrape.txt"
grep -q '^engine_advance ' "$smoke_dir/profile-smoke.folded"

echo "== bench report smoke run (sched_report --json, telemetry pair)"
cargo bench -q --offline -p ge-bench --bench sched_report -- \
  e2e_ge/telemetry --json "$smoke_dir/BENCH_sched.json" \
  >"$smoke_dir/bench.log"
test -s "$smoke_dir/BENCH_sched.json"
grep -q '"schema": "ge-bench-sched/v1"' "$smoke_dir/BENCH_sched.json"
grep -q '"entries"' "$smoke_dir/BENCH_sched.json"
grep -q '"min_ns"' "$smoke_dir/BENCH_sched.json"
grep -q '"name": "e2e_ge/telemetry_off"' "$smoke_dir/BENCH_sched.json"
grep -q '"name": "e2e_ge/telemetry_on"' "$smoke_dir/BENCH_sched.json"
# The committed report must also carry the interleaved pair, the
# event-queue pair (live-work depth vs every arrival queued), the
# engine-sweep entry (the server's share of one event), the largest
# whole-fleet run, the serving session in process and over loopback,
# the trace codec pair, one run replay, one GE epoch, the water-fill and
# Quality-OPT kernels and the staggered-release YDS entries that keep the
# general peel benched.
grep -q '"name": "e2e_ge/telemetry_off"' BENCH_sched.json
grep -q '"name": "e2e_ge/telemetry_on"' BENCH_sched.json
grep -q '"name": "engine/event_queue/16"' BENCH_sched.json
grep -q '"name": "engine/event_queue/90000"' BENCH_sched.json
grep -q '"name": "engine/server_advance_16"' BENCH_sched.json
grep -q '"name": "fleet_e2e/16"' BENCH_sched.json
grep -q '"name": "serve/in_process"' BENCH_sched.json
grep -q '"name": "serve/loopback"' BENCH_sched.json
grep -q '"name": "trace/encode_jsonl"' BENCH_sched.json
grep -q '"name": "trace/decode_jsonl"' BENCH_sched.json
grep -q '"name": "trace/replay_run"' BENCH_sched.json
grep -q '"name": "ge/epoch_16"' BENCH_sched.json
grep -q '"name": "power/water_fill_16"' BENCH_sched.json
grep -q '"name": "quality/prefix_level_fill_4"' BENCH_sched.json
grep -q '"name": "quality/prefix_level_fill_16"' BENCH_sched.json
grep -q '"name": "yds_schedule_scratch/staggered_4"' BENCH_sched.json
grep -q '"name": "yds_schedule_scratch/staggered_16"' BENCH_sched.json

echo "verify: OK"
