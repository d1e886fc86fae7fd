//! Criterion bench for experiment A1 — allocator throughput on identical
//! traces (first-fit vs size-map vs dlmalloc-style segregated bins vs
//! buddy vs the store's size-class slabs), the last over a region
//! pre-fragmented into thousands of small holes.

use bench::{fragment_region, windowed_trace};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use memalloc::{Buddy, DlSeg, FirstFit, RegionAllocator, SizeMap, Slab, Trace, TraceSpec};
use std::time::Duration;

type AllocFactory = (&'static str, fn() -> Box<dyn RegionAllocator>);

const CAPACITY: u64 = 256 << 20;
const OPS: usize = 20_000;

fn bench_allocators(c: &mut Criterion) {
    let workloads: Vec<(&str, TraceSpec)> = vec![
        (
            "uniform",
            TraceSpec::Uniform {
                min: 64,
                max: 64 << 10,
            },
        ),
        (
            "skewed",
            TraceSpec::Skewed {
                max: 4 << 20,
                alpha: 2.2,
            },
        ),
        (
            "churn",
            TraceSpec::Churn {
                size: 4 << 10,
                burst: 64,
            },
        ),
    ];
    let mut group = c.benchmark_group("allocator");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.throughput(Throughput::Elements(OPS as u64));

    let make: Vec<AllocFactory> = vec![
        ("first-fit", || Box::new(FirstFit::new(CAPACITY))),
        ("size-map", || Box::new(SizeMap::new(CAPACITY))),
        ("dlseg", || Box::new(DlSeg::new(CAPACITY))),
        ("buddy", || Box::new(Buddy::new(CAPACITY))),
        ("slab", || Box::new(Slab::new(CAPACITY))),
    ];
    for (wname, spec) in workloads {
        let trace = Trace::generate(spec, OPS, CAPACITY, 0.7, 99);
        for (aname, factory) in &make {
            group.bench_with_input(BenchmarkId::new(*aname, wname), &trace, |b, trace| {
                b.iter(|| {
                    let mut alloc = factory();
                    trace.replay(alloc.as_mut()).expect("replay")
                });
            });
        }
    }
    // The trace drains its window, so one fragmented allocator serves
    // every iteration and the prelude stays outside the timed region.
    let windowed = windowed_trace(OPS / 2);
    for (aname, factory) in &make {
        let mut alloc = factory();
        fragment_region(alloc.as_mut());
        group.bench_with_input(BenchmarkId::new(*aname, "fragmented"), &windowed, |b, t| {
            b.iter(|| t.replay(alloc.as_mut()).expect("replay"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_allocators);
criterion_main!(benches);
