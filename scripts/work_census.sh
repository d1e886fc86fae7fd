#!/usr/bin/env bash
# work_census: count the allocations, copies, futex calls and (where the
# host has a counter) instructions each `e2e` workload makes per
# operation, in the steady state.
#
#   scripts/work_census.sh [--smoke] [--sites]
#
# Compiles one LD_PRELOAD shim with the system `cc` into a temporary
# directory. It interposes glibc's `malloc`, `calloc`, `realloc`, `free`,
# `memcpy` and `memmove` (calls, and the bytes each copy moves) and
# `syscall()`, through which Rust's `std` makes every futex call
# (FUTEX_WAKE calls, those that returned 0 because no thread slept on
# the word, and FUTEX_WAIT calls), and opens one user-space instruction
# counter (`perf_event_open`, inherited by every thread). It reads its
# environment in its constructor: a `getenv` made later, from inside an
# interposed call, can find nothing. Then it builds `e2e` and runs each
# workload untraced at seed 12, twice, with the shim preloaded into the
# benchmark alone: 4 and 8 seconds long (with `--smoke`, `e2e`'s smoke
# length and 4 seconds). A count per operation is the difference of the
# two runs' counts over the difference of their operations, so the
# set-up both share drops out.
#
# With `--sites`, the shim also records the stack of one `malloc` in 101
# (on the longer run), and the script prints, per workload, the share of
# sampled allocations under each innermost frame of the product's own
# code (`llvm-symbolizer`; `bytes` and the standard library are walked
# past, so a frame buffer is charged to what sized it).
#
# Prints two tables. The work table (per operation: mallocs, reallocs,
# callocs, frees, memcpy and memmove calls, bytes copied, instructions or
# "-") reports and gates nothing: it counts calls into libc, not time.
# The futex table (the longer run's wakes, waits and wakes that woke
# nobody, then each per operation) gates: exits non-zero when a run
# fails or, in either run of any workload, more than 5 % of the wakes
# woke nobody, the cost the vendored `parking_lot` condvar's sleeper
# count removes (DESIGN §8 "A waker unlocks before it wakes").
#
# `e2e` is built in place; its `Cargo.lock` is put back as it was on
# exit, so a run leaves the tree as it found it.
# bash + cc + python3 stdlib (+ llvm-symbolizer for --sites) only.
set -euo pipefail

usage() {
    sed -n 's/^#   \(scripts.*\)/usage: \1/p' "$0" >&2
    exit 2
}

lengths=("--seconds 4" "--seconds 8")
sites=0
for arg in "$@"; do
    case "$arg" in
        --smoke) lengths=("--smoke" "--seconds 4") ;;
        --sites) sites=1 ;;
        *) usage ;;
    esac
done

repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/work_census.XXXXXX")
cp "$repo/e2e/Cargo.lock" "$work/Cargo.lock"
trap 'cp "$work/Cargo.lock" "$repo/e2e/Cargo.lock"; rm -rf "$work"' EXIT

cat >"$work/shim.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <linux/futex.h>
#include <linux/perf_event.h>
#include <stdarg.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void __libc_free(void *);

enum { MALLOC, REALLOC, CALLOC, FREE, MEMCPY, MEMMOVE, COPIED, WAKES, WAITS, WOKE_NOBODY, NCOUNT };
static unsigned long counts[NCOUNT];
#define COUNT(i, n) __atomic_fetch_add(&counts[i], (n), __ATOMIC_RELAXED)

/* Read once, in the constructor. */
static char out_path[4096], sites_path[4096];
static int fd = -1, open_errno;

#define SAMPLE_EVERY 101
#define DEPTH 24
#define MAX_STACKS 40000
static void *stacks[MAX_STACKS][DEPTH];
static int depths[MAX_STACKS];
static unsigned long sampled, seen;
static __thread int inside __attribute__((tls_model("initial-exec")));

static void *(*real_memcpy)(void *, const void *, size_t);
static void *(*real_memmove)(void *, const void *, size_t);
static long (*real_syscall)(long, ...);

static void sample(void) {
    if (!sites_path[0] || inside) return;
    if (__atomic_fetch_add(&seen, 1, __ATOMIC_RELAXED) % SAMPLE_EVERY) return;
    unsigned long slot = __atomic_fetch_add(&sampled, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_STACKS) return;
    inside = 1;
    depths[slot] = backtrace(stacks[slot], DEPTH);
    inside = 0;
}

void *malloc(size_t n) { COUNT(MALLOC, 1); sample(); return __libc_malloc(n); }
void *calloc(size_t k, size_t n) { COUNT(CALLOC, 1); return __libc_calloc(k, n); }
void *realloc(void *p, size_t n) { COUNT(REALLOC, 1); return __libc_realloc(p, n); }
void free(void *p) { if (p) COUNT(FREE, 1); __libc_free(p); }

void *memcpy(void *d, const void *s, size_t n) {
    COUNT(MEMCPY, 1);
    COUNT(COPIED, n);
    if (real_memcpy) return real_memcpy(d, s, n);
    for (size_t i = 0; i < n; i++) ((char *)d)[i] = ((const char *)s)[i];
    return d;
}

void *memmove(void *d, const void *s, size_t n) {
    COUNT(MEMMOVE, 1);
    COUNT(COPIED, n);
    if (real_memmove) return real_memmove(d, s, n);
    if (d < s)
        for (size_t i = 0; i < n; i++) ((char *)d)[i] = ((const char *)s)[i];
    else
        for (size_t i = n; i > 0; i--) ((char *)d)[i - 1] = ((const char *)s)[i - 1];
    return d;
}

long syscall(long n, ...) {
    long a[6];
    va_list ap;
    va_start(ap, n);
    for (int i = 0; i < 6; i++) a[i] = va_arg(ap, long);
    va_end(ap);
    if (!real_syscall) real_syscall = (long (*)(long, ...))dlsym(RTLD_NEXT, "syscall");
    long r = real_syscall(n, a[0], a[1], a[2], a[3], a[4], a[5]);
    if (n == SYS_futex) {
        int op = (int)a[1] & FUTEX_CMD_MASK;
        if (op == FUTEX_WAKE || op == FUTEX_WAKE_BITSET) {
            COUNT(WAKES, 1);
            if (r == 0) COUNT(WOKE_NOBODY, 1);
        } else if (op == FUTEX_WAIT || op == FUTEX_WAIT_BITSET) {
            COUNT(WAITS, 1);
        }
    }
    return r;
}

__attribute__((constructor)) static void start(void) {
    const char *p = getenv("WORK_CENSUS_OUT");
    if (p) strncpy(out_path, p, sizeof out_path - 1);
    p = getenv("WORK_CENSUS_SITES");
    if (p) strncpy(sites_path, p, sizeof sites_path - 1);
    real_memcpy = (void *(*)(void *, const void *, size_t))dlsym(RTLD_NEXT, "memcpy");
    real_memmove = (void *(*)(void *, const void *, size_t))dlsym(RTLD_NEXT, "memmove");
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
    inside = 1;
    FILE *f = out_path[0] ? fopen(out_path, "w") : NULL;
    if (!f) return;
    for (int i = 0; i < NCOUNT; i++) fprintf(f, "%lu ", counts[i]);
    uint64_t instr;
    if (fd >= 0 && read(fd, &instr, sizeof instr) == (ssize_t)sizeof instr)
        fprintf(f, "%llu\n", (unsigned long long)instr);
    else
        fprintf(f, "- %s\n", strerror(fd < 0 ? open_errno : errno));
    fclose(f);
    if (!sites_path[0] || !(f = fopen(sites_path, "w"))) return;
    unsigned long n = sampled < MAX_STACKS ? sampled : MAX_STACKS;
    for (unsigned long s = 0; s < n; s++) {
        for (int i = 0; i < depths[s]; i++) fprintf(f, "%p ", stacks[s][i]);
        fputc('\n', f);
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    fputs("maps\n", f);
    while (maps && fgets(line, sizeof line, maps)) fputs(line, f);
    if (maps) fclose(maps);
    fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$work/shim.so" "$work/shim.c" -ldl

target=${CARGO_TARGET_DIR:-$repo/e2e/target}
echo "work_census: building e2e" >&2
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path "$repo/e2e/Cargo.toml"

printf '%-12s %7s %9s %9s %9s %9s %9s %9s %11s %11s\n' workload ops \
    malloc/op realloc/op calloc/op free/op memcpy/op memmove/op bytes/op instr/op
for w in local_hot remote_read write_churn mixed_zipf; do
    for run in 0 1; do
        site_file=
        [ "$sites" = 1 ] && [ "$run" = 1 ] && site_file="$work/$w.sites"
        # shellcheck disable=SC2086 # a length is one or two words
        WORK_CENSUS_OUT="$work/$w.$run.count" WORK_CENSUS_SITES="$site_file" \
            LD_PRELOAD="$work/shim.so" \
            "$target/release/e2e" --workload "$w" --seed 12 --trace 0 \
            ${lengths[$run]} --out "$work/out" >"$work/$w.$run.log" 2>&1 ||
            { echo "work_census: $w failed:" >&2; cat "$work/$w.$run.log" >&2; exit 1; }
    done
    python3 - "$w" "$work" "$sites" <<'EOF'
import collections, os, re, subprocess, sys
w, work, sites = sys.argv[1:]

def run(i):
    log = f"{work}/{w}.{i}.log"
    ops = next(int(l.split()[6]) for l in open(log) if l.startswith("workload "))
    return ops, open(f"{work}/{w}.{i}.count").read().split()

(ops0, c0), (ops1, c1) = run(0), run(1)
d = ops1 - ops0
per = [(int(b) - int(a)) / d for a, b in zip(c0[:7], c1[:7])]
instr = "-" if c1[10] == "-" else f"{(int(c1[10]) - int(c0[10])) / d:.0f}"
print(f"{w:<12} {ops1:>7} " + " ".join(f"{v:>9.1f}" for v in per[:6])
      + f" {per[6]:>11.0f} {instr:>11}")
futex = [(int(b) - int(a)) / d for a, b in zip(c0[7:10], c1[7:10])]
with open(f"{work}/futex", "a") as out:
    out.write(f"{w:<12} {ops1:>9} {c1[7]:>9} {c1[8]:>9} {c1[9]:>11} "
              + " ".join(f"{v:>10.3f}" for v in futex) + "\n")
for c in (c0, c1):
    if int(c[9]) > 0.05 * int(c[7]):
        print(f"work_census: {w}: {c[9]} of {c[7]} wakes ({100 * int(c[9]) / int(c[7]):.1f} %) "
              "woke nobody, over the 5 % bound", file=sys.stderr)
        open(f"{work}/over", "w").close()
said = f"{work}/no-counter"
if c1[10] == "-" and not os.path.exists(said):
    open(said, "w").close()
    print(f"work_census: no instruction counter ({' '.join(c1[11:])})", file=sys.stderr)
if sites != "1":
    sys.exit(0)

# Symbolize the sampled stacks: each frame's module from the run's maps,
# its address relative to the module's base, one llvm-symbolizer call
# per module.
text = open(f"{work}/{w}.sites").read().split("maps\n", 1)
stacks = [[int(a, 16) for a in l.split()] for l in text[0].splitlines() if l]
maps = []
for l in text[1].splitlines():
    f = l.split()
    if len(f) < 6 or not f[5].startswith("/"):
        continue
    lo, hi = (int(x, 16) for x in f[0].split("-"))
    maps.append((lo, hi, int(f[2], 16), f[5]))
base = {}
for lo, _, off, path in maps:
    if off == 0:
        base.setdefault(path, lo)
def where(a):
    for lo, hi, _, path in maps:
        if lo <= a < hi:
            return path, a - base.get(path, lo)
    return None, a
frames = {a: where(a) for s in stacks for a in s}
names = {}
by_module = collections.defaultdict(set)
for a, (path, rel) in frames.items():
    if path:
        by_module[path].add(rel)
for path, rels in by_module.items():
    rels = sorted(rels)
    out = subprocess.run(["llvm-symbolizer", "--obj=" + path, "--functions=linkage",
                          "--demangle", "--no-inlines"],
                         input="\n".join(f"0x{r:x}" for r in rels), capture_output=True,
                         text=True).stdout.split("\n\n")
    for rel, block in zip(rels, out):
        names[(path, rel)] = block.strip().splitlines()[0] if block.strip() else "??"
# The product's crates; `bytes` (vendored) and std's `alloc::` are not
# among them, so a stack is walked past their frames to their caller.
product = re.compile(r"^<?(ipc|rpclite|disagg|plasma|tfsim|memalloc|obs|netsim|e2e|topo)::")
tally = collections.Counter()
for s in stacks:
    innermost = "(no product frame)"
    for a in s[1:]:
        name = names.get(frames[a], "??")
        if product.match(name):
            innermost = re.sub(r"::h[0-9a-f]{16}$", "", name)
            break
    tally[innermost] += 1
total = sum(tally.values())
print(f"  sites: {total} sampled mallocs (1 in 101), by innermost product frame")
for name, n in tally.most_common(25):
    print(f"  {100 * n / total:6.1f} %  {name}")
EOF
done

printf '\n%-12s %9s %9s %9s %11s %10s %10s %10s\n' workload ops wakes waits woke_nobody \
    wakes/op waits/op nobody/op
cat "$work/futex"
if [ -e "$work/over" ]; then exit 1; fi
