#!/usr/bin/env bash
# instr_census: count the user-space instructions each `e2e` workload
# retires, per operation.
#
#   scripts/instr_census.sh [--smoke]
#
# Compiles a small LD_PRELOAD shim with the system `cc` into a temporary
# directory. The shim opens one hardware instruction counter when the
# process starts (`perf_event_open`, user space only: `exclude_kernel`,
# `exclude_hv`; `inherit`, so every thread the process starts counts)
# and writes its total when the process exits. Then it builds the `e2e`
# benchmark and runs each of the four workloads untraced at seed 12,
# 10 seconds long unless `--smoke`, with the shim preloaded into the
# benchmark binary alone (not into cargo).
#
# Prints per workload: operations, instructions retired by the whole
# run (its set-ups included) and instructions per operation. A count is
# a sizing and attribution tool, not a gate, and the counter slows every
# context switch of the run it counts: it prints no wall-clock metric.
# Where the host exposes no instruction counter (many virtual machines),
# it says so and exits 0. No host this project has been built and run
# on so far exposed one: it has never counted anything yet.
#
# `e2e` is built in place; its `Cargo.lock` is put back as it was on
# exit, so a run leaves the tree as it found it.
# bash + cc + python3 stdlib only.
set -euo pipefail

usage() {
    sed -n 's/^#   \(scripts.*\)/usage: \1/p' "$0" >&2
    exit 2
}

length="--seconds 10"
case "${1-}" in
    '') ;;
    --smoke) [ $# -eq 1 ] || usage; length=--smoke ;;
    *) usage ;;
esac

repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/instr_census.XXXXXX")
cp "$repo/e2e/Cargo.lock" "$work/Cargo.lock"
trap 'cp "$work/Cargo.lock" "$repo/e2e/Cargo.lock"; rm -rf "$work"' EXIT

cat >"$work/shim.c" <<'EOF'
#define _GNU_SOURCE
#include <errno.h>
#include <linux/perf_event.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <unistd.h>

static int fd = -1;
static int open_errno;

__attribute__((constructor)) static void open_counter(void) {
    struct perf_event_attr attr;
    memset(&attr, 0, sizeof attr);
    attr.size = sizeof attr;
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = PERF_COUNT_HW_INSTRUCTIONS;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.inherit = 1;
    fd = (int)syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
    if (fd < 0) open_errno = errno;
}

__attribute__((destructor)) static void report(void) {
    const char *path = getenv("INSTR_CENSUS_OUT");
    FILE *f = path ? fopen(path, "w") : NULL;
    if (!f) return;
    uint64_t count;
    if (fd < 0)
        fprintf(f, "unavailable %s\n", strerror(open_errno));
    else if (read(fd, &count, sizeof count) != (ssize_t)sizeof count)
        fprintf(f, "unavailable read: %s\n", strerror(errno));
    else
        fprintf(f, "%llu\n", (unsigned long long)count);
    fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$work/shim.so" "$work/shim.c"

# The counter exists, or there is nothing to count.
env INSTR_CENSUS_OUT="$work/probe.count" LD_PRELOAD="$work/shim.so" true
read -r probe rest <"$work/probe.count"
if [ "$probe" = unavailable ]; then
    echo "instr_census: this host exposes no user-space instruction counter" \
        "(perf_event_open: $rest); nothing counted" >&2
    exit 0
fi

target=${CARGO_TARGET_DIR:-$repo/e2e/target}
echo "instr_census: building e2e" >&2
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path "$repo/e2e/Cargo.toml"

printf '%-12s %9s %15s %12s\n' workload ops instructions instr/op
for w in local_hot remote_read write_churn mixed_zipf; do
    # shellcheck disable=SC2086 # $length is one or two words
    INSTR_CENSUS_OUT="$work/$w.count" LD_PRELOAD="$work/shim.so" \
        "$target/release/e2e" --workload "$w" --seed 12 --trace 0 \
        $length --out "$work/out" >"$work/$w.log" 2>&1 ||
        { echo "instr_census: $w failed:" >&2; cat "$work/$w.log" >&2; exit 1; }
    python3 - "$w" "$work/$w.log" "$work/$w.count" <<'EOF'
import sys
w, log, count = sys.argv[1:]
ops = next(int(l.split()[6]) for l in open(log) if l.startswith("workload "))
instructions = int(open(count).read().split()[0])
print(f"{w:<12} {ops:>9} {instructions:>15} {instructions / ops:>12.0f}")
EOF
done
