#!/usr/bin/env bash
# End-to-end smoke test of the networked serving layer, driven exactly the
# way an operator would drive it: a real tv_server process, a real
# gsql_shell --connect client, real TCP.
#
#   1. happy path   — boot with --init, load vectors through a loading job,
#                     run a top-k over the wire, fetch \metrics, and check
#                     the server-side request counters reconcile; then
#                     EXPLAIN ANALYZE and PROFILE a top-k and check the
#                     rendered plan and stage table.
#   2. torn frame   — server armed to tear every response mid-write; the
#                     client must surface a typed error, never a silently
#                     truncated result.
#   3. kill -9      — server killed while a request is blocked inside
#                     execution; the client must report the dead peer as a
#                     typed error.
#
# Usage: tests/server_smoke.sh [BUILD_DIR]   (default: build)
set -u

BUILD_DIR="${1:-build}"
SERVER="$BUILD_DIR/tools/tv_server"
SHELL_BIN="$BUILD_DIR/tools/gsql_shell"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/tv_smoke.XXXXXX")"
SERVER_PID=""
FAILURES=0

cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
  if [ "${TV_SMOKE_KEEP:-0}" = 1 ]; then echo "workdir: $WORK"; else rm -rf "$WORK"; fi
}
trap cleanup EXIT

fail() {
  echo "FAIL: $1" >&2
  FAILURES=$((FAILURES + 1))
}

for bin in "$SERVER" "$SHELL_BIN"; do
  [ -x "$bin" ] || { echo "missing binary $bin (build first)" >&2; exit 2; }
done

# Starts tv_server with the given extra flags, parses the ephemeral port
# from its banner, and exports SERVER_PID / PORT.
start_server() {
  "$SERVER" --port=0 "$@" > "$WORK/server.log" 2>&1 &
  SERVER_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$WORK/server.log")"
    [ -n "$PORT" ] && return 0
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
  done
  echo "server did not come up; log:" >&2
  cat "$WORK/server.log" >&2
  exit 2
}

stop_server() {
  [ -n "$SERVER_PID" ] && { kill "$SERVER_PID" 2>/dev/null; wait "$SERVER_PID" 2>/dev/null; }
  SERVER_PID=""
}

# ---------------------------------------------------------------------------
# Scenario 1: happy path.
# ---------------------------------------------------------------------------
printf '1,alpha\n2,beta\n3,gamma\n4,delta\n' > "$WORK/docs.csv"
printf '1,1:0:0:0\n2,2:0:0:0\n3,3:0:0:0\n4,4:0:0:0\n' > "$WORK/embs.csv"
cat > "$WORK/init.gsql" <<EOF
CREATE VERTEX Doc (title STRING);
CREATE EMBEDDING SPACE space1 (DIMENSION = 4, MODEL = M, INDEX = HNSW,
  DATATYPE = FLOAT, METRIC = L2);
ALTER VERTEX Doc ADD EMBEDDING ATTRIBUTE emb IN EMBEDDING SPACE space1;
CREATE LOADING JOB j FOR GRAPH g {
  LOAD "$WORK/docs.csv" TO VERTEX Doc VALUES (id, title);
  LOAD "$WORK/embs.csv" TO EMBEDDING ATTRIBUTE emb
    ON VERTEX Doc VALUES (id, split(emb, ":"));
}
EOF

start_server --init="$WORK/init.gsql"

"$SHELL_BIN" --connect "127.0.0.1:$PORT" > "$WORK/happy.out" 2>&1 <<'EOF'
\set qv 1,0,0,0
R = SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 2; PRINT R;
\metrics
\quit
EOF
grep -q "connected to 127.0.0.1:$PORT" "$WORK/happy.out" \
  || fail "shell did not connect (happy path)"
grep -q 'R (2 vertices):' "$WORK/happy.out" \
  || fail "top-k over the wire did not return 2 vertices"
# The shell issued exactly one query, one ping, one metrics fetch; each
# per-type counter must reconcile with those driven counts exactly.
for kind in query ping metrics; do
  grep -q "^tv_server_requests_total{type=\"$kind\"} 1\$" "$WORK/happy.out" \
    || fail "tv_server_requests_total{type=\"$kind\"} does not reconcile to 1"
done
grep -q '^tv_net_frames_recv_total' "$WORK/happy.out" \
  || fail "\\metrics did not include tv_net_frames_recv_total"

# EXPLAIN ANALYZE and PROFILE both travel as the rendered, executed plan in
# the reply's explain text; PROFILE appends the run's stage table.
"$SHELL_BIN" --connect "127.0.0.1:$PORT" > "$WORK/explain.out" 2>&1 <<'EOF'
\set qv 1,0,0,0
EXPLAIN ANALYZE R = SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 2; PRINT R;
\quit
EOF
"$SHELL_BIN" --connect "127.0.0.1:$PORT" > "$WORK/profile.out" 2>&1 <<'EOF'
\set qv 1,0,0,0
PROFILE R = SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 2; PRINT R;
\quit
EOF
for out in explain profile; do
  grep -q -- '--- plan (analyzed) ---' "$WORK/$out.out" \
    || fail "$out: no '--- plan (analyzed) ---' header: $(cat "$WORK/$out.out")"
  grep -q 'EmbeddingAction\[Top' "$WORK/$out.out" \
    || fail "$out: plan has no EmbeddingAction[Top node"
  grep -q '^    \* rows_out: ' "$WORK/$out.out" \
    || fail "$out: plan has no '* rows_out:' actual"
done
grep -Eq '^query\.parse +[0-9]' "$WORK/profile.out" \
  || fail "PROFILE output has no query.parse stage row: $(cat "$WORK/profile.out")"

stop_server

# ---------------------------------------------------------------------------
# Scenario 2: every server response torn mid-write -> typed client error.
# The first exchange is the shell's ping, whose 32-byte response is cut at
# byte 20; the client must classify it, not accept a short frame.
# ---------------------------------------------------------------------------
start_server --fault=net.server.conn:torn_write:20

"$SHELL_BIN" --connect "127.0.0.1:$PORT" > "$WORK/torn.out" 2>&1 <<'EOF'
\quit
EOF
grep -q "cannot reach 127.0.0.1:$PORT" "$WORK/torn.out" \
  || fail "torn response did not surface as a connect-time error"
grep -Eq 'torn frame|closed' "$WORK/torn.out" \
  || fail "torn response error is not typed (want 'torn frame'/'closed'): $(cat "$WORK/torn.out")"
grep -q 'R (' "$WORK/torn.out" \
  && fail "torn response still produced a result (silent truncation)"

stop_server

# ---------------------------------------------------------------------------
# Scenario 3: kill -9 while a request is blocked inside execution.
# The request is a loading job reading from a FIFO with no writer, so the
# server is deterministically wedged mid-request when the KILL lands.
# ---------------------------------------------------------------------------
start_server --init="$WORK/init.gsql"
mkfifo "$WORK/block.fifo"

# One line: the shell dispatches on a trailing ';' even inside braces.
"$SHELL_BIN" --connect "127.0.0.1:$PORT" > "$WORK/kill.out" 2>&1 <<EOF &
CREATE LOADING JOB jk FOR GRAPH g { LOAD "$WORK/block.fifo" TO VERTEX Doc VALUES (id, title); }
\quit
EOF
SHELL_PID=$!
sleep 1  # let the request reach the server and block on the FIFO
kill -9 "$SERVER_PID" 2>/dev/null
wait "$SERVER_PID" 2>/dev/null
SERVER_PID=""
wait "$SHELL_PID"
# The prompt shares the line with the error ("gsql> error: ..."), so no
# line anchor here.
grep -q 'error: IOError' "$WORK/kill.out" \
  || fail "killed server did not surface a typed IOError: $(grep 'error' "$WORK/kill.out")"
grep -Eq 'closed|reset' "$WORK/kill.out" \
  || fail "killed-server error does not name the dead peer: $(cat "$WORK/kill.out")"

if [ "$FAILURES" -ne 0 ]; then
  echo "server smoke: $FAILURES failure(s)" >&2
  exit 1
fi
echo "server smoke: all scenarios passed"
