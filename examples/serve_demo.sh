#!/bin/sh
# Drives a real na_serve daemon over loopback: starts it on an ephemeral
# port with a state dir, opens and edits a session from the shell, saves,
# kills the daemon with SIGTERM (graceful: dirty sessions are saved), then
# restarts and restores the session.
#
#   usage: examples/serve_demo.sh [path-to-na_serve]
set -eu

NA_SERVE=${1:-./na_serve}
WORK=$(mktemp -d)
trap 'kill $SERVER_PID 2>/dev/null || true; rm -rf "$WORK"' EXIT

req() {  # one request line -> one response line, over an nc-free TCP client
  PORT=$(cat "$WORK/port")
  python3 - "$PORT" "$1" <<'EOF' 2>/dev/null || req_fallback "$1"
import socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
s.sendall((sys.argv[2] + "\n").encode())
f = s.makefile()
print(f.readline().rstrip())
EOF
}

req_fallback() {  # no python3: bash's /dev/tcp
  PORT=$(cat "$WORK/port")
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  printf '%s\n' "$1" >&3
  IFS= read -r line <&3
  printf '%s\n' "$line"
  exec 3<&- 3>&-
}

start_server() {
  rm -f "$WORK/port"
  "$NA_SERVE" --port 0 --port-file "$WORK/port" --threads 4 \
      --state-dir "$WORK/state" &
  SERVER_PID=$!
  for _ in $(seq 50); do
    [ -s "$WORK/port" ] && return 0
    sleep 0.1
  done
  echo "na_serve did not come up" >&2
  exit 1
}

echo "== start daemon =="
start_server

echo "== open + edit a session =="
req '{"op":"open","session":"walk","design":"life"}'
req '{"op":"edit","session":"walk","edits":[{"kind":"add_module","name":"probe","template":"","w":6,"h":4}]}'

echo "== graceful SIGTERM (saves the dirty session) =="
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || true
ls -l "$WORK/state"

echo "== restart + restore =="
start_server
req '{"op":"open","session":"walk","restore":true}'
req '{"op":"edit","session":"walk","edits":[{"kind":"resize_module","name":"probe","w":8,"h":4}]}'
req '{"op":"metrics"}'
req '{"op":"shutdown"}'
wait "$SERVER_PID" || true
echo "== done =="
