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
# of the four workloads untraced at seed 12, at `--smoke` length unless
# `--full`, with the shim preloaded into the benchmark binary alone (not
# into cargo). `e2e` pins itself to one CPU, as in every measured run.
#
# `e2e` is built in place, and its `Cargo.lock` does not yet list `ipc`'s
# `parking_lot` dependency, so a run rewrites `e2e/Cargo.lock` until the
# next benchmark change refreshes it (ROADMAP 1); restore it afterwards
# with `git checkout e2e/Cargo.lock`.
#
# Prints per workload: operations, futex wakes, waits and wakes that
# woke nobody, and each of the three per operation. Exits non-zero when
# a run fails or, in any workload, more than 5 % of the wakes woke
# nobody: a notify that enters the kernel with no sleeper to wake is the
# cost the vendored `parking_lot` condvar's sleeper count exists to
# remove (DESIGN §8 "A waker unlocks before it wakes").
# bash + cc + python3 stdlib only.
set -euo pipefail

usage() {
    sed -n 's/^#   \(scripts.*\)/usage: \1/p' "$0" >&2
    exit 2
}

length=--smoke
case "${1-}" in
    '') ;;
    --full) [ $# -eq 1 ] || usage; length= ;;
    *) usage ;;
esac

repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/futex_census.XXXXXX")
trap 'rm -rf "$work"' EXIT

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
    FUTEX_CENSUS_OUT="$work/$w.count" LD_PRELOAD="$work/shim.so" \
        "$target/release/e2e" --workload "$w" --seed 12 --trace 0 \
        $length --out "$work/out" >"$work/$w.log" 2>&1 ||
        { echo "futex_census: $w failed:" >&2; cat "$work/$w.log" >&2; exit 1; }
    python3 - "$w" "$work/$w.log" "$work/$w.count" <<'EOF' || status=1
import sys
w, log, count = sys.argv[1:]
ops = next(int(l.split()[6]) for l in open(log) if l.startswith("workload "))
wakes, waits, nobody = map(int, open(count).read().split())
print(f"{w:<12} {ops:>9} {wakes:>9} {waits:>9} {nobody:>11} "
      f"{wakes / ops:>10.3f} {waits / ops:>10.3f} {nobody / ops:>10.3f}")
if nobody > 0.05 * wakes:
    print(f"futex_census: {w}: {nobody} of {wakes} wakes "
          f"({100 * nobody / wakes:.1f} %) woke nobody, over the 5 % bound",
          file=sys.stderr)
    sys.exit(1)
EOF
done
exit $status
