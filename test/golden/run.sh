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

# For outputs too wide to pin line by line (image arrays): the first
# and last lines cut to 100 columns, then the byte count and MD5 of the
# whole stdout.
case_digest () {
  echo "\$ javatime $*"
  "$cli" "$@" 2>/dev/null > out.txt
  status=$?
  head -n 1 out.txt | cut -c 1-100 | sed "s/ *$//"
  tail -n 1 out.txt | cut -c 1-100 | sed "s/ *$//"
  echo "stdout: $(wc -c < out.txt | tr -d ' ') bytes, md5 $(md5sum < out.txt | cut -d' ' -f1)"
  echo "[exit $status]"
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

# An array-port design: the restricted JPEG codec reads its image with
# readPortArray, so its stimulus is a calibrated pixel array.
"$cli" demo jpeg-restricted > jr.mj
case_digest simulate jr.mj JpegCodec -n 3
case_digest why jr.mj JpegCodec --net 1 --instant 1 -n 2

# Resume with a fresh monitor: the first run quarantines mj:FirFilter at
# instant 2 and checkpoints at instant 4 with no monitor attached; the
# resumed run's flight dump carries the supervisor's block health and
# the simulator's instant numbers. Its summary line holds wall-clock
# latencies, so that command prints only its exit code, then the dump,
# which holds modeled values only.
case_ simulate fir.mj FirFilter -n 4 --supervise --budget 10 --checkpoint-every 4 --checkpoint-out ck
echo "\$ javatime simulate fir.mj FirFilter -n 6 --resume ck/checkpoint-4.json --monitor --flight-out flight.json"
"$cli" simulate fir.mj FirFilter -n 6 --resume ck/checkpoint-4.json --monitor --flight-out flight.json > /dev/null 2>&1
echo "[exit $?]"
echo "flight.json:"
cat flight.json
echo

# The same checkpoint resumed without a monitor: the trace table's
# columns are headed by the resumed instants, 4 and 5.
case_ simulate fir.mj FirFilter -n 6 --resume ck/checkpoint-4.json

# The policy checks and the reaction bound on every bundled design: the
# ASR policy and the SDF policy on each, and the bound of each of the
# nine ASR classes they hold.
for design in fir traffic elevator fig8 fig8-blocks uart jpeg-unrestricted jpeg-restricted; do
  "$cli" demo $design > $design.mj
  case_ check $design.mj
  case_ check $design.mj --policy sdf
done
for design in "fir.mj FirFilter" "traffic.mj TrafficLight" "elevator.mj Elevator" \
    "fig8-blocks.mj IncrementA" "fig8-blocks.mj IncrementB" \
    "uart.mj UartTx" "uart.mj UartRx" \
    "jpeg-unrestricted.mj JpegCodec" "jpeg-restricted.mj JpegCodec"; do
  set -- $design
  case_ bound "$1" "$2"
done

# An inherited design: Derived declares only a constructor, so its run
# method, its port signature and its state are all Base's.
cat > inh.mj <<'MJ'
class Base extends ASR {
  private int count;

  Base() {
    declarePorts(1, 1);
    count = 0;
  }

  public void run() {
    count = count + 1;
    writePort(0, readPort(0) + count);
  }
}

class Derived extends Base {
  Derived() {
    super();
  }
}
MJ
case_ check inh.mj
case_ check inh.mj --policy sdf
case_ bound inh.mj Base
case_ bound inh.mj Derived

# The refinement checker: verification conditions and trace
# correspondence on FIR (one run covers every seed), as text and as
# JSON, and on a reaction that spawns and joins a worker thread, whose
# scheduler picks between runnable threads, so every seed runs.
case_ verify-refinement fir.mj FirFilter
case_ verify-refinement fir.mj FirFilter --json
cat > pipe.mj <<'MJ'
class Worker extends Thread {
  public int acc;
  Worker() {}
  public void run() {
    int i = 0;
    while (i < 8) {
      acc = acc + i;
      Thread.yield();
      i = i + 1;
    }
  }
}

class Pipe extends ASR {
  Pipe() {
    declarePorts(1, 1);
  }
  public void run() {
    int x = readPort(0);
    Worker w = new Worker();
    w.start();
    w.join();
    writePort(0, x + w.acc);
  }
}
MJ
case_ verify-refinement pipe.mj Pipe --schedules 5 --instants 3
case_ verify-refinement pipe.mj Pipe --schedules 5 --instants 3 --json

# The Chrome trace of a run with a small causal ring reports the ring's
# loss, as the flight dump does; a run resumed from the recording
# carries the ring on, so its trace counts every overwrite. Both runs
# print the monitor's wall-clock latencies, so only their exit codes and
# the two causal fields of each file are printed.
echo "\$ javatime simulate fir.mj FirFilter -n 8 --causal-trace c.json --causal-capacity 4 --trace-out t.json --monitor --flight-out fl.json"
"$cli" simulate fir.mj FirFilter -n 8 --causal-trace c.json --causal-capacity 4 --trace-out t.json --monitor --flight-out fl.json > /dev/null 2>&1
echo "[exit $?]"
echo "t.json:"
grep -o '"causal_[a-z]*":[0-9]*' t.json
echo "fl.json:"
grep -o '"causal_[a-z]*":[0-9]*' fl.json
echo "\$ javatime simulate fir.mj FirFilter -n 12 --resume c.json --trace-out t12.json"
"$cli" simulate fir.mj FirFilter -n 12 --resume c.json --trace-out t12.json > /dev/null 2>&1
echo "[exit $?]"
echo "t12.json:"
grep -o '"causal_[a-z]*":[0-9]*' t12.json
