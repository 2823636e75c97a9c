#!/bin/sh
# Performance snapshot: writes BENCH_<yyyymmdd>.json at the repo root
# with the three numbers the roadmap tracks release over release:
#
#   sim_ns_per_day      — BenchmarkRunMPPT (one full simulated day on a
#                         prebuilt SolarDay, 1-minute steps) from
#                         bench_test.go
#   served_req_per_sec  — solarload sustained rate on the cached path
#                         against a real solard on an ephemeral port
#   uncached_req_per_sec — the same harness with -distinct equal to the
#                         request count, so every request is a cache
#                         miss running a full simulation (the fill-path
#                         rate the hotcost budgets guard)
#   stream_events_per_sec — solarload -stream consumption rate of one
#                         whole run over GET /v1/stream: live SSE from
#                         simulation through the hub to a typed watcher
#   fleet3_req_per_sec  — solarload sustained rate on the cached path
#                         through a solargate fronting three solard
#                         nodes (uncapped; on a single host this mostly
#                         measures the routing hop's overhead, on real
#                         hardware it measures scale-out)
#   warm_start_ms       — durable-store boot scan after a kill -9: time
#                         to verify every record and rebuild the index,
#                         as announced by the restarted solard
#   store_hit_req_per_sec — sustained rate when requests are served by
#                         the durable store's verified disk reads (the
#                         memory LRU is pinned tiny so nearly every
#                         request takes the disk path)
#   solarvet_wall_ms    — a full cold solarvet pass (parse + type-check
#                         + all analyzers over the whole module)
#
# Usage: ./scripts/bench.sh   (from anywhere inside the repository)
set -eu
cd "$(dirname "$0")/.."

stamp="$(date +%Y%m%d)"
out="BENCH_${stamp}.json"
workdir="$(mktemp -d)"
solard_pid=''
trap 'kill "$solard_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo '== sim: BenchmarkRunMPPT'
go test -run '^$' -bench '^BenchmarkRunMPPT$' -benchtime 3x . > "$workdir/sim.txt"
# "BenchmarkRunMPPT-8   5   123456789 ns/op" -> 123456789
sim_ns="$(awk '/^BenchmarkRunMPPT/ {print $3; exit}' "$workdir/sim.txt")"
[ -n "$sim_ns" ] || { echo 'benchmark produced no ns/op'; cat "$workdir/sim.txt"; exit 1; }

echo '== serve: solard + solarload (cached path)'
go build -o "$workdir/solard" ./cmd/solard
go build -o "$workdir/solarload" ./cmd/solarload
"$workdir/solard" -addr 127.0.0.1:0 > "$workdir/solard.log" 2>&1 &
solard_pid=$!
url=''
for _ in $(seq 1 100); do
    url="$(sed -n 's/^solard: listening on //p' "$workdir/solard.log")"
    [ -n "$url" ] && break
    kill -0 "$solard_pid" 2>/dev/null || { cat "$workdir/solard.log"; exit 1; }
    sleep 0.1
done
[ -n "$url" ] || { echo 'solard never announced its address'; exit 1; }
"$workdir/solarload" -url "$url" -n 3000 -c 16 -step 8 > "$workdir/load.txt"
# "wall         : 1.23 s  (2434 req/s sustained)" -> 2434
req_s="$(sed -n 's/.*(\([0-9][0-9]*\) req\/s sustained).*/\1/p' "$workdir/load.txt")"
[ -n "$req_s" ] || { echo 'solarload printed no sustained rate'; cat "$workdir/load.txt"; exit 1; }

# Every request is a distinct spec, so each one runs a full simulation
# on the bounded worker pool. Concurrency stays within the smallest
# default pool+queue (GOMAXPROCS ≥ 1 → capacity ≥ 5) so backpressure
# never sheds: this measures fill throughput, not the 429 path.
echo '== serve: solarload (uncached fill path)'
"$workdir/solarload" -url "$url" -n 512 -c 4 -distinct 512 > "$workdir/load-uncached.txt"
uncached_s="$(sed -n 's/.*(\([0-9][0-9]*\) req\/s sustained).*/\1/p' "$workdir/load-uncached.txt")"
[ -n "$uncached_s" ] || { echo 'solarload printed no sustained rate'; cat "$workdir/load-uncached.txt"; exit 1; }

echo '== serve: solarload -stream (live event watch over /v1/stream)'
"$workdir/solarload" -url "$url" -stream -step 8 -timeout 30s > "$workdir/stream.txt"
stream_s="$(sed -n 's/.*(\([0-9][0-9]*\) events\/s).*/\1/p' "$workdir/stream.txt")"
[ -n "$stream_s" ] || { echo 'stream watch printed no event rate'; cat "$workdir/stream.txt"; exit 1; }
kill -TERM "$solard_pid"
wait "$solard_pid" || true
solard_pid=''

echo '== store: fill, kill -9, warm start, durable-hit path'
storedir="$workdir/store"
"$workdir/solard" -addr 127.0.0.1:0 -store.dir "$storedir" > "$workdir/store1.log" 2>&1 &
solard_pid=$!
url=''
for _ in $(seq 1 100); do
    url="$(sed -n 's/^solard: listening on //p' "$workdir/store1.log")"
    [ -n "$url" ] && break
    kill -0 "$solard_pid" 2>/dev/null || { cat "$workdir/store1.log"; exit 1; }
    sleep 0.1
done
[ -n "$url" ] || { echo 'store-bench solard never announced'; exit 1; }
# Fill 256 distinct results into the store, then die without a drain.
"$workdir/solarload" -url "$url" -n 256 -c 4 -step 8 -distinct 256 > /dev/null
kill -9 "$solard_pid"
wait "$solard_pid" 2>/dev/null || true
# Restart: -cache 2 pins the memory LRU tiny, so the measured rate is
# the store's verified-disk-read path, not memory replays.
"$workdir/solard" -addr 127.0.0.1:0 -store.dir "$storedir" -cache 2 > "$workdir/store2.log" 2>&1 &
solard_pid=$!
url=''
for _ in $(seq 1 100); do
    url="$(sed -n 's/^solard: listening on //p' "$workdir/store2.log")"
    [ -n "$url" ] && break
    kill -0 "$solard_pid" 2>/dev/null || { cat "$workdir/store2.log"; exit 1; }
    sleep 0.1
done
[ -n "$url" ] || { echo 'restarted store-bench solard never announced'; exit 1; }
# "solard: store warmed 256 records (... ) in 3.2ms from ..." -> 3.2
warm_ms="$(sed -n 's/^solard: store warmed .* in \([0-9.]*\)ms from .*/\1/p' "$workdir/store2.log")"
[ -n "$warm_ms" ] || { echo 'restart announced no warm start'; cat "$workdir/store2.log"; exit 1; }
"$workdir/solarload" -url "$url" -n 2000 -c 16 -step 8 -distinct 256 > "$workdir/load-store.txt"
store_s="$(sed -n 's/.*(\([0-9][0-9]*\) req\/s sustained).*/\1/p' "$workdir/load-store.txt")"
[ -n "$store_s" ] || { echo 'store solarload printed no sustained rate'; cat "$workdir/load-store.txt"; exit 1; }
kill -TERM "$solard_pid"
wait "$solard_pid" || true
solard_pid=''

echo '== fleet: solargate over 3 solard nodes (cached path)'
go build -o "$workdir/solargate" ./cmd/solargate
fleet_pids=''
fleet_urls=''
trap 'for p in $fleet_pids $solard_pid; do kill "$p" 2>/dev/null || true; done; rm -rf "$workdir"' EXIT
for i in 1 2 3; do
    # -queue 64: absorb the uncached warm-up burst (16 closed-loop
    # clients + hedges) that the 1-CPU default queue would 429.
    "$workdir/solard" -addr 127.0.0.1:0 -queue 64 > "$workdir/node$i.log" 2>&1 &
    fleet_pids="$fleet_pids $!"
done
for i in 1 2 3; do
    nurl=''
    for _ in $(seq 1 100); do
        nurl="$(sed -n 's/^solard: listening on //p' "$workdir/node$i.log")"
        [ -n "$nurl" ] && break
        sleep 0.1
    done
    [ -n "$nurl" ] || { echo "fleet node $i never announced"; cat "$workdir/node$i.log"; exit 1; }
    fleet_urls="$fleet_urls$nurl,"
done
"$workdir/solargate" -addr 127.0.0.1:0 -backends "$fleet_urls" -hedge 250ms > "$workdir/gate.log" 2>&1 &
solard_pid=$!
gate_url=''
for _ in $(seq 1 100); do
    gate_url="$(sed -n 's/^solargate: listening on \(http[^ ]*\).*/\1/p' "$workdir/gate.log")"
    [ -n "$gate_url" ] && break
    kill -0 "$solard_pid" 2>/dev/null || { cat "$workdir/gate.log"; exit 1; }
    sleep 0.1
done
[ -n "$gate_url" ] || { echo 'solargate never announced'; cat "$workdir/gate.log"; exit 1; }
"$workdir/solarload" -url "$gate_url" -n 600 -c 16 -step 8 -distinct 60 > /dev/null
"$workdir/solarload" -url "$gate_url" -n 3000 -c 16 -step 8 -distinct 60 > "$workdir/load-fleet.txt"
fleet_s="$(sed -n 's/.*(\([0-9][0-9]*\) req\/s sustained).*/\1/p' "$workdir/load-fleet.txt")"
[ -n "$fleet_s" ] || { echo 'fleet solarload printed no sustained rate'; cat "$workdir/load-fleet.txt"; exit 1; }
kill -TERM "$solard_pid"
wait "$solard_pid" || true
solard_pid=''
for p in $fleet_pids; do kill -TERM "$p" 2>/dev/null || true; done
for p in $fleet_pids; do wait "$p" || true; done
fleet_pids=''

echo '== lint: cold solarvet wall time'
go build -o "$workdir/solarvet" ./cmd/solarvet
start_ms="$(date +%s%3N)"
"$workdir/solarvet" > /dev/null 2>&1 || { echo 'solarvet found a dirty tree'; exit 1; }
end_ms="$(date +%s%3N)"
vet_ms=$((end_ms - start_ms))

cat > "$out" <<JSON
{
  "date": "$(date +%Y-%m-%d)",
  "sim_ns_per_day": $sim_ns,
  "served_req_per_sec": $req_s,
  "uncached_req_per_sec": $uncached_s,
  "stream_events_per_sec": $stream_s,
  "fleet3_req_per_sec": $fleet_s,
  "warm_start_ms": $warm_ms,
  "store_hit_req_per_sec": $store_s,
  "solarvet_wall_ms": $vet_ms
}
JSON
echo "wrote $out"
cat "$out"
