#!/usr/bin/env bash
# futex_census: count the futex wakes and waits each `e2e` workload makes,
# and how many wakes woke nobody.
#
#   scripts/futex_census.sh [--full]
#
# Compiles a small LD_PRELOAD shim with the system `cc` into a temporary
# directory. The shim wraps glibc's `syscall()`, through which Rust's
# `std` makes every futex call, and counts FUTEX_WAKE calls, the ones
# among them that returned 0 (no thread was asleep on the word), and
# FUTEX_WAIT calls. Then it builds the `e2e` benchmark and runs each
# of the four workloads untraced at seed 12, twice: at `e2e`'s smoke
# length and 4 seconds long (4 and 10 seconds with `--full`), with the
# shim preloaded into the benchmark binary alone (not into cargo). `e2e`
# pins itself to one CPU, as in every measured run.
#
# `e2e` is built in place; its `Cargo.lock` is put back as it was on
# exit, so a run leaves the tree as it found it (cargo rewrites the lock
# while it does not list `ipc`'s `parking_lot` dependency, ROADMAP 1).
#
# Prints per workload: the longer run's operations, futex wakes, waits
# and wakes that woke nobody, then each of the three per operation in
# the steady state: the difference between the two runs' counts divided
# by the difference between their operations, so the set-up both runs
# share drops out (a smoke run's own counts are mostly set-up). Exits
# non-zero when a run fails or, in either run of any workload, more than
# 5 % of the wakes woke nobody: a notify that enters the kernel with no
# sleeper to wake is the cost the vendored `parking_lot` condvar's
# sleeper count exists to remove (DESIGN §8 "A waker unlocks before it
# wakes").
# bash + cc + python3 stdlib only.
set -euo pipefail

usage() {
    sed -n 's/^#   \(scripts.*\)/usage: \1/p' "$0" >&2
    exit 2
}

lengths=("--smoke" "--seconds 4")
case "${1-}" in
    '') ;;
    --full) [ $# -eq 1 ] || usage; lengths=("--seconds 4" "--seconds 10") ;;
    *) usage ;;
esac

repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/futex_census.XXXXXX")
cp "$repo/e2e/Cargo.lock" "$work/Cargo.lock"
trap 'cp "$work/Cargo.lock" "$repo/e2e/Cargo.lock"; rm -rf "$work"' EXIT

cat >"$work/shim.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <linux/futex.h>
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/syscall.h>

static long wakes, woke_nobody, waits;

long syscall(long n, ...) {
    static long (*real)(long, ...);
    long a[6];
    va_list ap;
    va_start(ap, n);
    for (int i = 0; i < 6; i++) a[i] = va_arg(ap, long);
    va_end(ap);
    if (!real) real = (long (*)(long, ...))dlsym(RTLD_NEXT, "syscall");
    long r = real(n, a[0], a[1], a[2], a[3], a[4], a[5]);
    if (n == SYS_futex) {
        int op = (int)a[1] & FUTEX_CMD_MASK;
        if (op == FUTEX_WAKE || op == FUTEX_WAKE_BITSET) {
            __atomic_fetch_add(&wakes, 1, __ATOMIC_RELAXED);
            if (r == 0) __atomic_fetch_add(&woke_nobody, 1, __ATOMIC_RELAXED);
        } else if (op == FUTEX_WAIT || op == FUTEX_WAIT_BITSET) {
            __atomic_fetch_add(&waits, 1, __ATOMIC_RELAXED);
        }
    }
    return r;
}

__attribute__((destructor)) static void report(void) {
    const char *path = getenv("FUTEX_CENSUS_OUT");
    FILE *f = path ? fopen(path, "w") : NULL;
    if (!f) return;
    fprintf(f, "%ld %ld %ld\n", wakes, waits, woke_nobody);
    fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$work/shim.so" "$work/shim.c" -ldl

target=${CARGO_TARGET_DIR:-$repo/e2e/target}
echo "futex_census: building e2e" >&2
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path "$repo/e2e/Cargo.toml"

printf '%-12s %9s %9s %9s %11s %10s %10s %10s\n' \
    workload ops wakes waits woke_nobody wakes/op waits/op nobody/op
status=0
for w in local_hot remote_read write_churn mixed_zipf; do
    for run in 0 1; do
        # shellcheck disable=SC2086 # a length is one or two words
        FUTEX_CENSUS_OUT="$work/$w.$run.count" LD_PRELOAD="$work/shim.so" \
            "$target/release/e2e" --workload "$w" --seed 12 --trace 0 \
            ${lengths[$run]} --out "$work/out" >"$work/$w.$run.log" 2>&1 ||
            { echo "futex_census: $w failed:" >&2; cat "$work/$w.$run.log" >&2; exit 1; }
    done
    python3 - "$w" "$work" <<'EOF' || status=1
import sys
w, work = sys.argv[1:]
runs = []
for i in (0, 1):
    ops = next(int(l.split()[6]) for l in open(f"{work}/{w}.{i}.log") if l.startswith("workload "))
    runs.append((ops, *map(int, open(f"{work}/{w}.{i}.count").read().split())))
(ops0, wakes0, waits0, nobody0), (ops, wakes, waits, nobody) = runs
d = ops - ops0
print(f"{w:<12} {ops:>9} {wakes:>9} {waits:>9} {nobody:>11} "
      f"{(wakes - wakes0) / d:>10.3f} {(waits - waits0) / d:>10.3f} {(nobody - nobody0) / d:>10.3f}")
for _, run_wakes, _, run_nobody in runs:
    if run_nobody > 0.05 * run_wakes:
        print(f"futex_census: {w}: {run_nobody} of {run_wakes} wakes "
              f"({100 * run_nobody / run_wakes:.1f} %) woke nobody, over the 5 % bound",
              file=sys.stderr)
        sys.exit(1)
EOF
done
exit $status
