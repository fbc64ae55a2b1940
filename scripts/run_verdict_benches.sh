#!/usr/bin/env bash
# Paper-shape verdict gate: run every bench that prints [PASS]/[CHECK]
# verdicts (bench::print_verdict) and fail if any of them exits non-zero.
# A [CHECK] verdict makes its bench exit non-zero, and so do the benches'
# own fatal checks (late schedules, an incomplete campaign).
#
#   scripts/run_verdict_benches.sh [BUILD_DIR] [OUT_DIR]
#
# BUILD_DIR defaults to build-bench (a Release build: the benches replay
# real-length traces). Each bench runs inside OUT_DIR (default: a fresh
# temporary directory), since benches write CWD-relative CSVs and journals;
# its stdout/stderr are kept there as <bench>.out / <bench>.err. One line
# per bench and the verdict totals are printed at the end.
set -u

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "${1:-build-bench}" && pwd)"
out="${2:-$(mktemp -d)}"
mkdir -p "$out"

benches=()
for src in "$repo"/bench/*.cpp; do
  if grep -q 'print_verdict' "$src"; then
    benches+=("$(basename "$src" .cpp)")
  fi
done

failed=0
passes=0
checks=0
cd "$out" || exit 1
for b in "${benches[@]}"; do
  start=$(date +%s%N)
  "$build/bench/$b" > "$b.out" 2> "$b.err"
  rc=$?
  ms=$(( ($(date +%s%N) - start) / 1000000 ))
  p=$(grep -c '^\[PASS\]' "$b.out")
  c=$(grep -c '^\[CHECK\]' "$b.out")
  passes=$((passes + p))
  checks=$((checks + c))
  printf '%-26s exit=%d pass=%d check=%d %6d ms\n' "$b" "$rc" "$p" "$c" "$ms"
  if [ "$rc" -ne 0 ]; then
    failed=$((failed + 1))
    grep '^\[CHECK\]' "$b.out"
    tail -n 5 "$b.err"
  fi
done
printf '%d verdicts across %d benches: %d PASS, %d CHECK; %d bench(es) failed\n' \
  $((passes + checks)) "${#benches[@]}" "$passes" "$checks" "$failed"
echo "outputs: $out"
[ "$failed" -eq 0 ]
