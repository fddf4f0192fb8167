#!/bin/sh
# metrics-smoke: the exposition-format gate. Boots bfsd on a loopback
# port, pushes a little traffic through it, and validates the live
# GET /metrics page with expcheck — HELP/TYPE metadata on every
# family, family contiguity, histogram bucket discipline — plus the
# readiness split (/readyz 200 only once graphs are loaded, /healthz
# always 200).
# Wired into `make verify` as the metrics-smoke target; the format
# rules are documented in OBSERVABILITY.md.
set -eu

GO=${GO:-go}
DIR=$(mktemp -d "${TMPDIR:-/tmp}/crossbfs-metrics-smoke.XXXXXX")
DPID=""
cleanup() {
    [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

$GO build -o "$DIR/bfsd" ./cmd/bfsd
$GO build -o "$DIR/bfsload" ./cmd/bfsload
$GO build -o "$DIR/expcheck" ./cmd/expcheck

"$DIR/bfsd" -graph smoke=rmat:12:8:42 -listen 127.0.0.1:0 \
    -addrfile "$DIR/addr" -slo "oltp p99 < 100ms over 1m" &
DPID=$!

i=0
while [ ! -s "$DIR/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "metrics-smoke: bfsd never bound" >&2
        exit 1
    fi
    if ! kill -0 "$DPID" 2>/dev/null; then
        echo "metrics-smoke: bfsd exited during startup" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$DIR/addr")

# The addrfile only appears once readiness is armed.
code=$(curl -s -o /dev/null -w "%{http_code}" "http://$ADDR/readyz")
[ "$code" = "200" ] || {
    echo "metrics-smoke: /readyz = $code after addrfile, want 200" >&2
    exit 1
}
code=$(curl -s -o /dev/null -w "%{http_code}" "http://$ADDR/healthz")
[ "$code" = "200" ] || {
    echo "metrics-smoke: /healthz = $code, want 200" >&2
    exit 1
}

# Populate the labeled families, then validate the live page twice:
# once over HTTP, once from the scrape bfsload saved.
"$DIR/bfsload" -addr "$ADDR" -qps 100 -duration 1s -mix mixed -seed 7 \
    -scrape-metrics "$DIR/metrics.txt" >/dev/null

"$DIR/expcheck" -url "http://$ADDR/metrics"
"$DIR/expcheck" "$DIR/metrics.txt"

# Every family on the page is typed: the registry is the only renderer,
# so an untyped family means a second aggregator crept back in.
"$DIR/expcheck" -summary "$DIR/metrics.txt" >"$DIR/summary.txt"
if grep -q "^untyped" "$DIR/summary.txt"; then
    echo "metrics-smoke: /metrics has untyped families:" >&2
    grep "^untyped" "$DIR/summary.txt" >&2
    exit 1
fi

# The page must carry the dimensional families the SLO engine and
# bfsload's server-side report read.
for family in \
    crossbfs_query_latency_seconds_bucket \
    crossbfs_admission_outcomes_total \
    crossbfs_engine_level_seconds_bucket \
    crossbfs_engine_events_total \
    crossbfs_serve_inflight \
    crossbfs_serve_queued \
    crossbfs_slo_burn \
    crossbfs_flight_retained; do
    grep -q "$family" "$DIR/metrics.txt" || {
        echo "metrics-smoke: /metrics misses $family" >&2
        exit 1
    }
done

kill "$DPID"
wait "$DPID" 2>/dev/null || true
DPID=""
echo "metrics-smoke: ok"
