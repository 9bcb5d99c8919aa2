#!/usr/bin/env bash
# End-to-end smoke of the serving stack: start promptem_serve on an
# ephemeral port, drive it with the closed-loop load generator, send it a
# deeply nested 400 KB frame (it must answer bad_request and keep
# serving), SIGTERM the daemon mid-life, and assert the whole drain
# contract — exit 0, a
# "drained:" summary, and a valid flushed embedding cache that a second
# daemon warm-starts from. CI runs this after the unit suites; it is the
# one place the real binaries, the real signal path, and the real TCP
# transport meet.
#
# Usage: tools/serve_smoke.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

build_dir="${1:-build}"
serve_bin="${build_dir}/tools/promptem_serve"
loadgen_bin="${build_dir}/tools/promptem_loadgen"
for bin in "${serve_bin}" "${loadgen_bin}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "serve_smoke: missing ${bin} (build the 'tools' targets first)" >&2
    exit 1
  fi
done

scratch="$(mktemp -d)"
server_log="${scratch}/serve.log"
cache="${scratch}/scores.embcache"
server_pid=""
cleanup() {
  if [[ -n "${server_pid}" ]] && kill -0 "${server_pid}" 2>/dev/null; then
    kill -KILL "${server_pid}" 2>/dev/null || true
  fi
  rm -rf "${scratch}"
}
trap cleanup EXIT

# Sets the globals `server_pid` and `port` (no subshell: both must
# survive into the caller).
start_daemon() {
  "${serve_bin}" --synthetic 60 --matcher DeepMatcher --epochs 2 \
    --port 0 --lm tests/data/promptem_integration_lm \
    --embed-cache "${cache}" --flush-every 64 > "${server_log}" 2>&1 &
  server_pid=$!
  # The port line is printed (and flushed) once training finishes.
  port=""
  for _ in $(seq 1 600); do
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "${server_log}")"
    [[ -n "${port}" ]] && break
    if ! kill -0 "${server_pid}" 2>/dev/null; then
      echo "serve_smoke: daemon died during startup:" >&2
      cat "${server_log}" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "serve_smoke: daemon never reported its port:" >&2
    cat "${server_log}" >&2
    exit 1
  fi
}

echo "serve_smoke: cold daemon + load generator"
start_daemon
"${loadgen_bin}" --port "${port}" --clients 4 --requests 25 --pairs 8 \
  --seed 7

echo "serve_smoke: 400 KB nested frame -> bad_request, daemon keeps serving"
python3 - "${port}" <<'PY'
import socket
import struct
import sys

def frame(sock, payload):
    sock.sendall(struct.pack(">I", len(payload)) + payload)
    header = b""
    while len(header) < 4:
        got = sock.recv(4 - len(header))
        if not got:
            sys.exit("serve_smoke: connection closed before a response")
        header += got
    (length,) = struct.unpack(">I", header)
    body = b""
    while len(body) < length:
        got = sock.recv(length - len(body))
        if not got:
            sys.exit("serve_smoke: truncated response")
        body += got
    return body.decode()

port = int(sys.argv[1])
with socket.create_connection(("127.0.0.1", port)) as sock:
    reply = frame(sock, b"[" * (400 * 1024))
    if '"status":"bad_request"' not in reply:
        sys.exit("serve_smoke: nested frame got " + reply[:200])
    reply = frame(sock, b'{"op":"info"}')
    if '"status":"ok"' not in reply:
        sys.exit("serve_smoke: info after the nested frame got " + reply[:200])
with socket.create_connection(("127.0.0.1", port)) as sock:
    reply = frame(sock, b'{"op":"info"}')
    if '"status":"ok"' not in reply:
        sys.exit("serve_smoke: info on a new connection got " + reply[:200])
PY
if ! kill -0 "${server_pid}" 2>/dev/null; then
  echo "serve_smoke: daemon died on the nested frame:" >&2
  cat "${server_log}" >&2
  exit 1
fi

echo "serve_smoke: SIGTERM -> graceful drain"
kill -TERM "${server_pid}"
drain_rc=0
wait "${server_pid}" || drain_rc=$?
server_pid=""
if [[ "${drain_rc}" -ne 0 ]]; then
  echo "serve_smoke: daemon exited ${drain_rc} after SIGTERM (want 0):" >&2
  cat "${server_log}" >&2
  exit 1
fi
grep -q '^drained: ' "${server_log}" || {
  echo "serve_smoke: no drain summary in daemon output:" >&2
  cat "${server_log}" >&2
  exit 1
}
grep -q '^batching: ' "${server_log}" || {
  echo "serve_smoke: no batching summary in daemon output:" >&2
  cat "${server_log}" >&2
  exit 1
}
if [[ ! -s "${cache}" ]]; then
  echo "serve_smoke: SIGTERM drain left no flushed cache at ${cache}" >&2
  exit 1
fi
if [[ -e "${cache}.tmp" ]]; then
  echo "serve_smoke: flush left a stale temp file ${cache}.tmp" >&2
  exit 1
fi

echo "serve_smoke: warm restart from the flushed cache"
start_daemon
# A corrupt file would be rejected with a "rebuilding" warning; a valid
# one loads with a nonzero entry count.
grep -q '^embed cache: loaded [1-9]' "${server_log}" || {
  echo "serve_smoke: restarted daemon did not load the flushed cache:" >&2
  cat "${server_log}" >&2
  exit 1
}
"${loadgen_bin}" --port "${port}" --clients 2 --requests 10 --pairs 8 \
  --seed 7
kill -TERM "${server_pid}"
wait "${server_pid}" || {
  echo "serve_smoke: warm daemon drain failed:" >&2
  cat "${server_log}" >&2
  exit 1
}
server_pid=""
# Warm-started scoring must actually hit: the drain summary counts
# score-cache hits and the first cold run seeded these exact pairs.
grep -Eq '^drained: .*\([0-9]+ pairs scored, [1-9][0-9]* cache hits\)' \
  "${server_log}" || {
  echo "serve_smoke: warm daemon served no cache hits:" >&2
  cat "${server_log}" >&2
  exit 1
}

echo "serve_smoke: OK"
