#!/usr/bin/env bash
# CI obs-smoke: boot mercuryd with the observability plane and a demo kill,
# scrape /metrics, /healthz and /tree, wait for the recovery to land in the
# counters and for the daemon's own stream to close the outage with
# system-recovered; then boot a micro-mode station and check that the store
# and checkpoint families are served. Run from the repository root.
set -euo pipefail

# Build mercuryd
go build -o /tmp/mercuryd ./cmd/mercuryd

# Boot with observability plane and a demo kill (not -quiet: the trace
# stream is part of what is checked)
/tmp/mercuryd -listen 127.0.0.1:7707 -tree IV -scale 25 -obs 127.0.0.1:7790 -kill rtu -kill-after 3s -duration 45s > /tmp/mercuryd.log &
trap 'kill $! 2>/dev/null || true' EXIT

# Scrape /metrics
for i in $(seq 1 30); do
  curl -sf 127.0.0.1:7790/metrics > /tmp/metrics.txt && break
  sleep 1
done
grep mercury_build_info /tmp/metrics.txt
grep mercury_fd_pings_sent_total /tmp/metrics.txt
grep mercury_rec_restarts_total /tmp/metrics.txt

# Scrape /healthz and /tree
curl -sf 127.0.0.1:7790/healthz | tee /tmp/healthz.json | grep -q '"status"'
curl -sf 127.0.0.1:7790/tree | tee /tmp/tree.json | grep -q '"policy": "escalating"'
grep -q '"rtu"' /tmp/tree.json

# Wait for the recovery to land in the counters and in the daemon's stream
recovered=no
for i in $(seq 1 40); do
  if curl -sf 127.0.0.1:7790/metrics | grep -q '^mercury_rec_recovery_seconds_count [1-9]' &&
     grep -q system-recovered /tmp/mercuryd.log; then
    recovered=yes
    break
  fi
  sleep 1
done
if [ "$recovered" != yes ]; then
  echo "no recovery sample in /metrics, or no system-recovered in the daemon's output"
  cat /tmp/mercuryd.log
  exit 1
fi
kill $! 2>/dev/null || true
wait $! 2>/dev/null || true

# Micro mode: the store and checkpoint families are registered only there
/tmp/mercuryd -listen 127.0.0.1:7708 -tree IVm -scale 25 -quiet -obs 127.0.0.1:7791 -duration 30s &
trap 'kill $! 2>/dev/null || true' EXIT
for i in $(seq 1 30); do
  curl -sf 127.0.0.1:7791/metrics > /tmp/metrics-micro.txt && break
  sleep 1
done
grep mercury_ckpt_snapshots_total /tmp/metrics-micro.txt
grep mercury_store_ /tmp/metrics-micro.txt
