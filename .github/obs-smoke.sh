#!/usr/bin/env bash
# CI obs-smoke: boot mercuryd with the observability plane and a demo kill,
# scrape /metrics, /healthz and /tree, and wait for the recovery to land in
# the counters. Run from the repository root.
set -euo pipefail

# Build mercuryd
go build -o /tmp/mercuryd ./cmd/mercuryd

# Boot with observability plane and a demo kill
/tmp/mercuryd -listen 127.0.0.1:7707 -tree IV -scale 25 -quiet -obs 127.0.0.1:7790 -kill rtu -kill-after 3s -duration 45s &
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

# Wait for the recovery to land in the counters
for i in $(seq 1 40); do
  if curl -sf 127.0.0.1:7790/metrics | grep -q '^mercury_rec_recovery_seconds_count [1-9]'; then
    exit 0
  fi
  sleep 1
done
echo "no recovery sample appeared in /metrics"; exit 1
