#!/usr/bin/env bash
# Simulator figure outputs for byte-for-byte comparison between commits.
#
#   tools/figures.sh <build-dir> <out-dir>
#
# Builds fig5a_tpcw_scalability, overhead_stats, outage_recovery and
# warm_restart in Release into <build-dir>, runs each in a temporary
# directory (so files the benches write, such as BENCH_admission.json, land
# nowhere) and writes its stdout to <out-dir>/<bench>.txt with the
# wall-clock "(wall)" lines removed. warm_restart runs a short 6+2 minute
# schedule, and the sha256 of the learned-state snapshot it writes goes to
# <out-dir>/warm_restart.snapshot.sha256, so snapshot bytes are compared
# too. Every other line is simulated and deterministic, so two commits that
# must not move the figures produce identical files:
#
#   tools/figures.sh build-fig-base out-base   # at the base commit
#   tools/figures.sh build-fig-head out-head   # at the head commit
#   diff -r out-base out-head
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi

src="$(cd "$(dirname "$0")/.." && pwd)"
benches=(fig5a_tpcw_scalability overhead_stats outage_recovery)
all_targets=("${benches[@]}" warm_restart)

cmake -B "$1" -S "${src}" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$1" -j"$(nproc)" --target "${all_targets[@]}"
build="$(cd "$1" && pwd)"

mkdir -p "$2"
out="$(cd "$2" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
cd "${work}"
for b in "${benches[@]}"; do
  echo "=== ${b} ==="
  "${build}/bench/${b}" | grep -v '(wall)' > "${out}/${b}.txt"
done
echo "=== warm_restart ==="
"${build}/bench/warm_restart" --cold-minutes=6 --warm-minutes=2 \
  | grep -v '(wall)' > "${out}/warm_restart.txt"
sha256sum warm_restart.snapshot > "${out}/warm_restart.snapshot.sha256"
