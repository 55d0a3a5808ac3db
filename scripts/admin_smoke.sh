#!/usr/bin/env bash
# Admin-endpoint smoke test: a real 4-node rccnode cluster over TCP with the
# admin HTTP listener on, driven by rccclient, then scraped. Asserts that
# /readyz goes 200 on every replica, that /metrics parses far enough to carry
# the key series, that the per-stage latency histograms actually observed
# the transactions the client executed, and that every replica's flight
# recorder (/debug/events) captured protocol events — the live-cluster
# acceptance check for the observability layer. The cluster runs with -auth ds
# (signed frames checked by each link's reader, digest cache), so the
# verify-stage histogram and the digest-cache miss counter must move too —
# the CLI-level acceptance check for the authentication layer. The client
# runs a window of 16, so its requests must arrive as envelopes: fewer
# request envelopes than transactions.
set -euo pipefail

cd "$(dirname "$0")/.."

TXNS=${TXNS:-200}
DIR=$(mktemp -d)
BIN="$DIR/bin"
mkdir -p "$BIN"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

go build -o "$BIN/rccnode" ./cmd/rccnode
go build -o "$BIN/rccclient" ./cmd/rccclient

PEERS="0=127.0.0.1:7700,1=127.0.0.1:7701,2=127.0.0.1:7702,3=127.0.0.1:7703"
SECRET="admin-smoke-secret"
for i in 0 1 2 3; do
  # -batch 1: the client keeps only its window in flight, so interactive
  # batch sizing is what keeps the run fast. -auth ds turns on signed
  # frames; -digest-cache the verified client frame cache.
  "$BIN/rccnode" -id "$i" -n 4 -peers "$PEERS" -batch 1 \
    -auth ds -auth-secret "$SECRET" -digest-cache 4096 \
    -data-dir "$DIR/replica-$i" -admin-addr "127.0.0.1:770$((i+4))" \
    -stats 0 >"$DIR/node-$i.log" 2>&1 &
  PIDS+=($!)
done

# Every replica must report ready (durable, journaling, caught up).
for i in 0 1 2 3; do
  addr="127.0.0.1:770$((i+4))"
  for attempt in $(seq 1 50); do
    if curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
      break
    fi
    if [ "$attempt" -eq 50 ]; then
      echo "FAIL: replica $i never became ready" >&2
      cat "$DIR/node-$i.log" >&2
      exit 1
    fi
    sleep 0.2
  done
done
echo "OK: all replicas ready"

"$BIN/rccclient" -n 4 -peers "$PEERS" -txns "$TXNS" -window 16 \
  -auth ds -auth-secret "$SECRET"

# Scrape replica 0 and assert the key series exist and moved.
METRICS=$(curl -fsS "http://127.0.0.1:7704/metrics")

# series <name-with-labels-prefix>: the sample must be present with a
# strictly positive value.
series() {
  local want="$1"
  local line
  line=$(grep -v '^#' <<<"$METRICS" | grep -F "$want" | head -n 1) || true
  if [ -z "$line" ]; then
    echo "FAIL: /metrics is missing $want" >&2
    exit 1
  fi
  local val="${line##* }"
  if ! awk -v v="$val" 'BEGIN { exit (v > 0 ? 0 : 1) }'; then
    echo "FAIL: $want is $val, want > 0" >&2
    exit 1
  fi
  echo "OK: $line"
}

series 'rcc_requests_total'
series 'rcc_rounds_decided_total'
series 'rcc_rounds_unified_total'
series 'rcc_acks_sent_total'
series 'rcc_stage_latency_seconds_count{stage="verify"}'
series 'rcc_stage_latency_seconds_count{stage="consensus"}'
series 'rcc_stage_latency_seconds_count{stage="unify"}'
series 'rcc_stage_latency_seconds_count{stage="execute"}'
series 'rcc_stage_latency_seconds_count{stage="journal"}'
series 'rcc_stage_latency_seconds_count{stage="ack"}'
series 'wal_fsync_seconds_count'
series 'wal_appends_total'
series 'rcc_txns_executed_total'
series 'rcc_durability_healthy'
series 'transport_msgs_sent_total'
series 'transport_digest_cache_misses_total'
series 'rcc_client_requests_total'

# Clients send one request per flush, not one per transaction: replica 0
# must have received fewer request envelopes than its instances admitted
# transactions.
value() { grep -v '^#' <<<"$METRICS" | grep -F "$1" | head -n 1 | awk '{print $2}'; }
ENVELOPES=$(value 'rcc_client_requests_total')
ADMITTED=$(value 'rcc_requests_total')
if ! awk -v e="$ENVELOPES" -v a="$ADMITTED" 'BEGIN { exit (e > 0 && e < a ? 0 : 1) }'; then
  echo "FAIL: $ENVELOPES request envelopes for $ADMITTED admitted transactions, want 0 < envelopes < transactions" >&2
  exit 1
fi
echo "OK: $ENVELOPES request envelopes carried $ADMITTED transactions"

# The consensus stage must have observed at least the rounds the client's
# transactions decided (no-op fills make it strictly more).
DECIDED=$(grep -F 'rcc_stage_latency_seconds_count{stage="consensus"}' <<<"$METRICS" | awk '{print $2}')
if [ "${DECIDED%.*}" -lt 1 ]; then
  echo "FAIL: consensus stage histogram empty after $TXNS txns" >&2
  exit 1
fi

# The lifecycle tracer must have sampled something.
curl -fsS "http://127.0.0.1:7704/debug/trace" | head -n 5

# The flight recorder must be populated on every replica: after this much
# load each text dump has to carry protocol events (a decided round records
# instance_decide + wave_unify under RCC; PBFT rounds record commits and
# checkpoint adoptions) and end with the ?since= cursor for the next poll.
for i in 0 1 2 3; do
  EVENTS=$(curl -fsS "http://127.0.0.1:770$((i+4))/debug/events")
  if ! grep -Eq 'instance_decide|wave_unify|checkpoint_adopt|snapshot_commit' <<<"$EVENTS"; then
    echo "FAIL: replica $i /debug/events carries no protocol events:" >&2
    head -n 10 <<<"$EVENTS" >&2
    exit 1
  fi
  CURSOR=$(tail -n 1 <<<"$EVENTS")
  if ! grep -Eq '^next=[0-9]+$' <<<"$CURSOR"; then
    echo "FAIL: replica $i /debug/events dump does not end with a next= cursor: $CURSOR" >&2
    exit 1
  fi
done
echo "OK: /debug/events populated on all replicas ($(grep -c . <<<"$EVENTS") lines on replica 3)"

# Incremental scrape: re-polling from the returned cursor must be valid and
# ends with a cursor at least as large.
NEXT=${CURSOR#next=}
curl -fsS "http://127.0.0.1:7707/debug/events?since=$NEXT" | tail -n 1

echo "admin smoke: PASS"
