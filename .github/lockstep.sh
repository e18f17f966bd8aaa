#!/usr/bin/env bash
# Three orders in lockstep give, byte for byte, the rows of the three
# one-order studies, on five temporal ladders:
#   the distributed load; point loads sharing their evaluators; point loads
#   on a windowed march; point loads and their offsets on a wide windowed
#   march; and a deep one on the benchmark's own grid, nx = 1000 and
#   nt = 1280, whose history folds 39 times.
# Usage: bash .github/lockstep.sh [DIR]  (with `hallaire` on PATH; the
# reports go to DIR, a new temporary directory by default).
set -euo pipefail

out="${1:-$(mktemp -d)}"
mkdir -p "$out"

lockstep() {
  name="$1"
  shift
  hallaire run --mode temporal "$@" --alpha 0.1,0.5,0.9 --out "$out/$name-lockstep.csv"
  : > "$out/$name-alone.csv"
  for alpha in 0.1 0.5 0.9; do
    hallaire run --mode temporal "$@" --alpha "$alpha" --out "$out/$name-alone-$alpha.csv"
    tail -n +2 "$out/$name-alone-$alpha.csv" >> "$out/$name-alone.csv"
  done
  tail -n +2 "$out/$name-lockstep.csv" | cmp - "$out/$name-alone.csv"
  wc -l "$out/$name-lockstep.csv" "$out/$name-alone.csv"
}

lockstep integral --problem integral-load --nx 200 --nt 10,20,40,420
lockstep points --problem benchmark --nx 1000 --nt 10,20,40
lockstep windowed --problem benchmark --nx 24 --nt 400,800
lockstep wide --problem benchmark --nx 1000 --nt 400
lockstep deep --problem benchmark --nx 1000 --nt 1280
