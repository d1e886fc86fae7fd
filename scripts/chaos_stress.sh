#!/usr/bin/env bash
# chaos_stress: the chaos stress battery. Each round starts three copies
# of the chaos matrix's seeds 01-09 (`cargo test --test chaos
# soak_seed_0`, debug build) at once, so the soaks race each other for
# the CPUs; a copy passes when every seed in it passes.
#
#   scripts/chaos_stress.sh [ROUNDS]      (default 12 rounds: 36 copies)
#
# ROUNDS is a positive count without leading zeros. If the test binary
# does not build, cargo's output goes to stderr and the script exits 1.
#
# Prints `passed/total` copies and, on stderr, the log of every copy that
# failed. Exits non-zero unless every copy passed. The test binary is
# built once and then run directly; the logs go to a directory under
# ${TMPDIR:-/tmp}, removed on exit unless a copy failed.
set -euo pipefail
cd "$(dirname "$0")/.."

rounds=${1:-12}
case $rounds in
'' | *[!0-9]* | 0*)
    echo "usage: scripts/chaos_stress.sh [ROUNDS]" >&2
    exit 2
    ;;
esac
copies=3

# No colour: the sed below needs `Executable` followed by a plain space,
# and CARGO_TERM_COLOR=always (as CI sets it) would put an escape there.
if ! build=$(cargo test --color never --no-run --test chaos 2>&1); then
    printf '%s\n' "$build" >&2
    echo "chaos_stress: the chaos test binary did not build" >&2
    exit 1
fi
bin=$(printf '%s\n' "$build" | sed -n 's/.*Executable .*(\(.*\))$/\1/p')
[ -x "$bin" ] || {
    printf '%s\n' "$build" >&2
    echo "chaos_stress: cannot find the chaos test binary" >&2
    exit 1
}
logs=$(mktemp -d "${TMPDIR:-/tmp}/chaos_stress.XXXXXX")

passed=0
failed=()
for round in $(seq 1 "$rounds"); do
    pids=()
    for copy in $(seq 1 "$copies"); do
        "$bin" soak_seed_0 >"$logs/round$round-copy$copy.log" 2>&1 &
        pids+=($!)
    done
    for i in "${!pids[@]}"; do
        if wait "${pids[$i]}"; then
            passed=$((passed + 1))
        else
            failed+=("$logs/round$round-copy$((i + 1)).log")
        fi
    done
done

echo "$passed/$((rounds * copies))"
if [ ${#failed[@]} -gt 0 ]; then
    printf 'chaos_stress: failed copy, log kept: %s\n' "${failed[@]}" >&2
    exit 1
fi
rm -rf "$logs"
