#!/usr/bin/env bash
# Behaviour-contract check: fixed-seed outputs must not change.
#
#   tools/contract_diff.sh <base-ref> [program ...]
#
# Builds <base-ref> and the working tree with the same toolchain and build
# type, runs every contract program in both, and diffs their stdout (plus
# exit status) byte for byte. Each program is a quoted command line relative
# to the build directory; the default set is the repo's contract:
#
#   example_quickstart
#   bench_fig1_stale_model
#   bench_harmony_ec2 --jobs=1
#   bench_scale --smoke
#   bench_resilience --seeds=2
#   example_failover_drill
#
# Both trees are built fresh, so no committed golden file is involved: the
# same seed may print different bytes under another compiler or libm, but
# never under the same one. Exit status is non-zero if any output differs
# or a program fails in the working tree.
#
# Environment:
#   CONTRACT_WORK_DIR  scratch directory (default: a fresh mktemp -d, removed
#                      on exit); builds are reused when it already holds them
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <base-ref> [program ...]" >&2
  exit 2
fi
base_ref="$1"
shift
if [[ $# -gt 0 ]]; then
  programs=("$@")
else
  programs=(
    "example_quickstart"
    "bench_fig1_stale_model"
    "bench_harmony_ec2 --jobs=1"
    "bench_scale --smoke"
    "bench_resilience --seeds=2"
    "example_failover_drill"
  )
fi

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
base_sha="$(git -C "$root" rev-parse --verify "${base_ref}^{commit}")"
if [[ -n "${CONTRACT_WORK_DIR:-}" ]]; then
  work="$CONTRACT_WORK_DIR"
  mkdir -p "$work"
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi

targets=()
for p in "${programs[@]}"; do
  read -r -a argv <<<"$p"
  targets+=("${argv[0]}")
done

build() {  # build <source-dir> <build-dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$2" -j "$(nproc)" --target "${targets[@]}" >/dev/null
}

# The base tree comes from git archive: a clean export of the commit, with
# nothing registered in the repository that an interrupted run leaves behind.
base_src="$work/base-$base_sha"
if [[ ! -d "$base_src" ]]; then
  mkdir -p "$base_src.tmp"
  git -C "$root" archive "$base_sha" | tar -x -C "$base_src.tmp"
  mv "$base_src.tmp" "$base_src"
fi
echo "contract_diff: building base ${base_ref} (${base_sha:0:12})" >&2
build "$base_src" "$work/base-build"
echo "contract_diff: building working tree" >&2
build "$root" "$work/head-build"

run() {  # run <build-dir> <program> <out-file>; records the exit status too
  local status=0
  read -r -a argv <<<"$2"
  (cd "$1" && "./${argv[0]}" "${argv[@]:1}") >"$3" || status=$?
  echo "exit status: $status" >>"$3"
  return "$status"
}

failed=0
for p in "${programs[@]}"; do
  name="${p//[^A-Za-z0-9_.-]/_}"
  run "$work/base-build" "$p" "$work/$name.base" || true
  head_status=0
  run "$work/head-build" "$p" "$work/$name.head" || head_status=$?
  if [[ $head_status -ne 0 ]]; then
    echo "FAIL  $p: exits $head_status in the working tree" >&2
    failed=1
  fi
  if diff -u --label "base: $p" --label "head: $p" \
      "$work/$name.base" "$work/$name.head"; then
    echo "same  $p"
  else
    echo "DIFF  $p" >&2
    failed=1
  fi
done
exit "$failed"
