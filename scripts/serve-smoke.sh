#!/bin/sh
# serve-smoke: the end-to-end serving gate. Boots bfsd on a loopback
# port with a scale-14 R-MAT graph and an impossible SLO (p99 under a
# microsecond), drives a short mixed OLTP/OLAP bfsload run against it,
# then asserts the observability surfaces: the /metrics scrape carries
# the serve counters, the /debug/flight dump is a valid Chrome trace
# per tracecheck, and the injected latency breach produced exactly one
# incident bundle (slo.json + heap/cpu pprof + flight dump) — the
# hour-long cooldown guarantees the "exactly one". Wired into
# `make verify` as the serve-smoke target; see SERVING.md.
set -eu

GO=${GO:-go}
DIR=$(mktemp -d "${TMPDIR:-/tmp}/crossbfs-serve-smoke.XXXXXX")
DPID=""
cleanup() {
    [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

$GO build -o "$DIR/bfsd" ./cmd/bfsd
$GO build -o "$DIR/bfsload" ./cmd/bfsload
$GO build -o "$DIR/tracecheck" ./cmd/tracecheck

"$DIR/bfsd" -graph smoke=rmat:14:8:42 -listen 127.0.0.1:0 \
    -addrfile "$DIR/addr" -sample 2 \
    -slo "total p99 < 1us over 5s" -slo-poll 250ms -slo-cooldown 1h \
    -incident-dir "$DIR/incidents" &
DPID=$!

# Wait for the daemon to bind (it writes -addrfile once listening).
i=0
while [ ! -s "$DIR/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: bfsd never bound" >&2
        exit 1
    fi
    if ! kill -0 "$DPID" 2>/dev/null; then
        echo "serve-smoke: bfsd exited during startup" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$DIR/addr")

"$DIR/bfsload" -addr "$ADDR" -qps 200 -duration 3s -mix mixed -seed 42 \
    -out "$DIR/load.json" \
    -scrape-metrics "$DIR/metrics.txt" \
    -flight-out "$DIR/flight.json"

grep -q "crossbfs_admission_outcomes_total" "$DIR/metrics.txt" || {
    echo "serve-smoke: /metrics scrape misses the admission outcomes" >&2
    exit 1
}
grep -q "crossbfs_engine_traversals_total" "$DIR/metrics.txt" || {
    echo "serve-smoke: /metrics scrape misses the engine counters" >&2
    exit 1
}
"$DIR/tracecheck" "$DIR/flight.json"

# The impossible objective must have breached during the load run and
# captured exactly one incident bundle (cooldown 1h), holding all four
# artifacts. Give the poll loop a beat to finish the CPU profile.
i=0
while [ "$(ls "$DIR/incidents" 2>/dev/null | wc -l)" -lt 1 ]; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "serve-smoke: SLO breach never captured an incident" >&2
        exit 1
    fi
    sleep 0.1
done
sleep 2
bundles=$(ls "$DIR/incidents" | wc -l)
[ "$bundles" -eq 1 ] || {
    echo "serve-smoke: $bundles incident bundles under a 1h cooldown, want exactly 1" >&2
    exit 1
}
bundle="$DIR/incidents/$(ls "$DIR/incidents")"
for artifact in slo.json heap.pprof cpu.pprof flight.json; do
    [ -s "$bundle/$artifact" ] || {
        echo "serve-smoke: incident bundle misses $artifact" >&2
        exit 1
    }
done
grep -q '"breaching": *true' "$bundle/slo.json" || {
    echo "serve-smoke: slo.json does not record a breaching verdict" >&2
    exit 1
}

kill "$DPID"
wait "$DPID" 2>/dev/null || true
DPID=""
echo "serve-smoke: ok"
