#!/bin/sh
# CLI golden cases: each case prints the command line, its stdout and its
# exit code. Usage: run.sh JAVATIME_CLI > golden.out. The cases write
# their .mj sources and artifacts into a temporary directory.
cli=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

case_ () {
  echo "\$ javatime $*"
  "$cli" "$@" 2>/dev/null
  echo "[exit $?]"
}

"$cli" demo fir > fir.mj
"$cli" demo traffic > traffic.mj

for design in "fir.mj FirFilter" "traffic.mj TrafficLight"; do
  set -- $design
  case_ simulate "$1" "$2" -n 8
  for strategy in chaotic scheduled worklist fused; do
    case_ simulate "$1" "$2" -n 8 --strategy $strategy
  done
  for engine in interp jit; do
    case_ simulate "$1" "$2" -n 8 --engine $engine
  done
  case_ simulate "$1" "$2" -n 8 --supervise --budget 50 --fault-log faults.json
  echo "faults.json:"
  cat faults.json
  echo
  case_ simulate "$1" "$2" -n 8 --budget 100
  case_ why "$1" "$2" --net 0 --instant 3
  case_ why "$1" "$2" --net 0 --instant 3 --strategy chaotic
done

case_ simulate fir.mj FirFilter -n 8 --strategy worklist --causal-trace w.json
case_ simulate fir.mj FirFilter -n 8 --strategy fused --causal-trace f.json
case_ simulate fir.mj FirFilter -n 12 --causal-trace w12.json
case_ trace-diff w.json f.json
case_ trace-diff w.json w12.json
