#!/usr/bin/env bash
# Build the benchmark, run it, check its verdicts (see benchmark/README.md).
#
# One run, as a harness calls it (the last line of stdout is the result):
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#
# A pass over several workloads, printing every metric with its unit:
#   benchmark/run.sh [--seed S] [--workloads a,b,...] [--seconds T] [--trace]
#   benchmark/run.sh --smoke            # 3 requests per workload, schema check
#   benchmark/run.sh --runs N --out F   # N seeds from S on, results to F (JSONL);
#                                       # with --trace, traced runs too
#
# Everything it builds or writes, save the --out file, stays under
# build/benchmark/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build/benchmark"
spec="$root/BENCHMARK.json"
all_workloads="svc_thread,svc_sim,svc_socket_loss10,witness_byz_n16,convex_lp_n13"
sim_workloads=" svc_sim witness_byz_n16 convex_lp_n13 "

usage() {
  sed -n '2,14p' "${BASH_SOURCE[0]}" >&2
  exit 2
}

compile() {
  if [[ ! -f "$build/CMakeCache.txt" || ! -f "$build/Makefile" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  local jobs
  jobs="$(nproc 2>/dev/null || echo 2)"
  (( jobs > 4 )) && jobs=4
  cmake --build "$build" -j "$jobs" >&2
}

workload="" seed=1 seconds="" trace="" workloads="$all_workloads"
smoke=0 runs=0 out=""
while (( $# > 0 )); do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    --runs) runs="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) usage ;;
  esac
done

compile
bench="$build/aabench"

if [[ -n "$workload" ]]; then
  exec "$bench" --workload "$workload" --seed "$seed" \
    --seconds "${seconds:?--seconds is required with --workload}" \
    --trace "${trace:-0}" --spans "$build/trace_$workload.json"
fi

if [[ -z "$seconds" ]]; then
  seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
fi
size=()
if (( smoke )); then
  seconds=1
  size=(--requests 3)
fi
tmp="$(mktemp -d "$build/run.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
status=0

# One run: human lines to the terminal, then the result line checked against
# BENCHMARK.json.  Leaves the output in $tmp/last.
one() {
  local w="$1" s="$2" t="$3"
  shift 3
  if ! "$bench" --workload "$w" --seed "$s" --seconds "$seconds" --trace "$t" \
      --spans "$build/trace_$w.json" "$@" > "$tmp/last"; then
    echo "$w: benchmark exited with an error" >&2
    status=1
    return 1
  fi
  sed '$d' "$tmp/last"
  if ! tail -n 1 "$tmp/last" | python3 "$here/validate.py" "$spec" "$t"; then
    status=1
  fi
}

metric() { awk -v m="$1" '$1 == m { print $2 }' "$tmp/last"; }

IFS=, read -r -a list <<< "$workloads"

if (( runs > 0 )); then
  [[ -n "$out" ]] || usage
  passes=(0)
  [[ "$trace" == 1 ]] && passes+=(1)
  for (( k = 0; k < runs; k++ )); do
    for w in "${list[@]}"; do
      for t in "${passes[@]}"; do
        one "$w" $(( seed + k )) "$t" "${size[@]}" > /dev/null || continue
        printf '{"workload": "%s", "seed": %d, "trace": %d, "result": %s}\n' \
          "$w" $(( seed + k )) "$t" "$(tail -n 1 "$tmp/last")" >> "$out"
      done
    done
  done
  exit "$status"
fi

for w in "${list[@]}"; do
  one "$w" "$seed" 0 "${size[@]}" || continue
  if [[ "$trace" == 1 ]] || (( smoke )); then
    one "$w" "$seed" 1 "${size[@]}" || continue
    echo "  (spans written to $build/trace_$w.json)"
  fi
  if [[ "$sim_workloads" == *" $w "* ]]; then
    # Counts on the simulator must repeat exactly for one seed.
    keys=(msgs_per_inst bytes_per_inst finish_p50_delta)
    first=""
    for rep in 1 2; do
      "$bench" --workload "$w" --seed "$seed" --seconds 1 --trace 0 \
        --requests 3 > "$tmp/last" || status=1
      got=""
      for key in "${keys[@]}"; do got+="$(metric "$key") "; done
      [[ -z "$first" ]] && first="$got"
    done
    if [[ "$first" == "$got" ]]; then
      echo "  deterministic: yes"
    else
      echo "  deterministic: no ($first vs $got)"
      status=1
    fi
  fi
done
exit "$status"
