#!/bin/sh
# Golden reports: the full tquad+quad+gprof report and the recorded trace's
# block table for every workload-zoo member and for the tiny wfs run under
# each library policy, compared byte for byte against tests/golden/.
#
#   sh golden_reports.sh <tools dir> <work dir> <golden dir> [update]
#
# Every case runs on both engines (-engine compiled and -engine interp); the
# two must reproduce the same committed file. `update` rewrites the golden
# files from the compiled engine instead of comparing (do that only for an
# intended report change, and say why in the commit).
set -e
TOOLS=$(cd "$1" && pwd)
WORK="$2"
GOLDEN=$(cd "$3" && pwd)
MODE="${4:-check}"
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

WORKLOADS=$("$TOOLS/zoo_gen" -list | awk 'NR > 1 { print $1 }')
for w in $WORKLOADS; do
  "$TOOLS/zoo_gen" -workload "$w" -image "$w.tqim" -input "$w.in" > /dev/null
done
"$TOOLS/wfs_gen" -tiny -image wfs_tiny.tqim -wav wfs_tiny.wav > /dev/null

# profile <name> <image> <input> <libs> <engine>: the golden text on stdout.
profile() {
  in_args=""
  if [ -s "$3" ]; then in_args="-in $3"; fi
  echo "\$ tquad_cli -image $2${in_args:+ $in_args} -libs $4 -tools tquad,quad,gprof -report all -slice 2000 -trace $1.tqtr"
  # shellcheck disable=SC2086
  "$TOOLS/tquad_cli" -image "$2" $in_args -libs "$4" -engine "$5" \
      -tools tquad,quad,gprof -report all -slice 2000 -trace "$1.tqtr"
  echo "\$ tqtr_doctor summarize $1.tqtr -blocks -1"
  "$TOOLS/tqtr_doctor" summarize "$1.tqtr" -blocks -1
}

failures=0
check() {  # check <name> <image> <input> <libs>
  for engine in compiled interp; do
    profile "$1" "$2" "$3" "$4" "$engine" > "$1.$engine.txt"
    if [ "$MODE" = update ]; then
      cp "$1.compiled.txt" "$GOLDEN/$1.txt"
      break
    fi
    if ! cmp -s "$GOLDEN/$1.txt" "$1.$engine.txt"; then
      echo "golden report mismatch: $1 (-engine $engine)"
      diff "$GOLDEN/$1.txt" "$1.$engine.txt" | head -20
      failures=$((failures + 1))
    fi
  done
}

for w in $WORKLOADS; do
  check "$w" "$w.tqim" "$w.in" exclude
done
for libs in exclude caller track; do
  check "wfs_tiny_$libs" wfs_tiny.tqim wfs_tiny.wav "$libs"
done

if [ "$failures" -ne 0 ]; then
  echo "golden reports: $failures mismatch(es)"
  exit 1
fi
echo "golden reports: OK"
