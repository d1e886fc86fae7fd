//! Experiment A1 — allocator ablation.
//!
//! The paper replaces dlmalloc with "a simple allocation algorithm" and
//! notes that "improved allocators generally have substantial impact"
//! (future work). This harness quantifies that: identical allocation
//! traces replayed against the paper's first-fit, the paper's
//! size-ordered-map (best-fit), a dlmalloc-style segregated-bin
//! allocator and the size-class slab allocator the store runs,
//! reporting throughput, failure counts, and external fragmentation.
//! The last workload first churns the region into thousands of small
//! holes (untimed) — the state in which an address-ordered scan pays
//! for every hole on every allocation.
//!
//! Usage: `cargo run -p bench --bin alloc_ablation --release [-- --seed N]`

use bench::{fragment_region, render_table, windowed_trace, HarnessOpts};
use memalloc::{DlSeg, FirstFit, RegionAllocator, SizeMap, Slab, Trace, TraceSpec};
use std::time::Instant;

const CAPACITY: u64 = 1 << 30; // 1 GiB region
const OPS: usize = 200_000;

fn allocators() -> Vec<Box<dyn RegionAllocator>> {
    vec![
        Box::new(FirstFit::new(CAPACITY)),
        Box::new(SizeMap::new(CAPACITY)),
        Box::new(DlSeg::new(CAPACITY)),
        Box::new(Slab::new(CAPACITY)),
    ]
}

fn main() {
    let opts = HarnessOpts::parse();
    let specs: Vec<(&str, TraceSpec)> = vec![
        (
            "uniform 64B-64KB",
            TraceSpec::Uniform {
                min: 64,
                max: 64 << 10,
            },
        ),
        (
            "skewed (pareto)",
            TraceSpec::Skewed {
                max: 4 << 20,
                alpha: 2.2,
            },
        ),
        (
            "churn 4KB x64",
            TraceSpec::Churn {
                size: 4 << 10,
                burst: 64,
            },
        ),
        ("Table I mix", TraceSpec::TableOne),
    ];

    println!(
        "A1: allocator ablation — {OPS} ops on a 1 GiB region, seed {}",
        opts.seed
    );
    // (name, trace, whether the region is fragmented before the clock starts)
    let mut workloads: Vec<(&str, Trace, bool)> = specs
        .into_iter()
        .map(|(name, spec)| {
            let trace = Trace::generate(spec, OPS, CAPACITY, 0.7, opts.seed);
            (name, trace, false)
        })
        .collect();
    workloads.push(("5000 holes, 4KB x64", windowed_trace(OPS / 2), true));
    let mut rows = Vec::new();
    for (name, trace, fragmented) in workloads {
        for mut alloc in allocators() {
            if fragmented {
                fragment_region(alloc.as_mut());
            }
            let start = Instant::now();
            let outcome = trace.replay(alloc.as_mut()).expect("replay");
            let elapsed = start.elapsed();
            let stats = alloc.stats();
            let mops = trace.ops.len() as f64 / elapsed.as_secs_f64() / 1e6;
            rows.push(vec![
                name.to_string(),
                alloc.name().to_string(),
                format!("{mops:.2}"),
                outcome.allocs_failed.to_string(),
                format!("{:.3}", stats.external_fragmentation()),
                stats.free_regions.to_string(),
            ]);
        }
        eprintln!("  {name} done");
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "allocator",
                "Mops/s",
                "failed allocs",
                "ext. frag",
                "free regions"
            ],
            &rows
        )
    );
    println!("(higher Mops/s and lower fragmentation are better; the paper's first-fit");
    println!(" trades lookup cost and fragmentation for simplicity)");
}
