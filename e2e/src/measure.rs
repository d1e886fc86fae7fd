//! The two kinds of run: the untraced one that yields the end-to-end
//! metrics, and the traced one that replays a fixed-length prefix of the
//! same stream at three entry points and prices each layer.

use crate::bed::{cluster_config, Bed, NODES};
use crate::drive::{self, Kind, Level, Series, BOTH, FAR_MODEL_NS};
use crate::gen::{recorded_digest, Noise, Workload, DEFAULT_SEED};
use crate::pin::{self, Pinning};
use crate::probes;
use crate::report::Values;
use crate::stats::{median, percentile};
use plasma::ObjectId;
use std::time::Instant;

/// Times the bed is set up per run; `setup_s` is their median. One
/// set-up's time swings by a fifth on this host, and the benchmark's
/// contract asks for the median of several. Each extra one costs ≈ 1 s to
/// tear down (the product's listener and idle connection threads poll
/// their stop flags every 250–500 ms): time spent asleep, before the
/// timed phase starts, inside no measurement.
const SETUPS: usize = 5;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Operation count of a `--smoke` run or a test, in place of the one
    /// `seconds` implies.
    pub ops: Option<u64>,
}

impl Options {
    fn sized_ops(&self) -> u64 {
        (self.workload.ops_per_second() as f64 * self.seconds) as u64
    }

    /// Length of the untraced run.
    fn ops(&self) -> u64 {
        self.ops.unwrap_or(self.sized_ops())
    }

    /// Length of every pass of the traced run: a fifth of the untraced
    /// run's, unless `ops` fixed the count.
    fn trace_ops(&self) -> u64 {
        self.ops.unwrap_or(self.sized_ops() / 5)
    }
}

/// What a run hands back besides its metric values.
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Violated gates; empty when the run is correct.
    pub violations: Vec<String>,
    /// Digest of the operations the E0 pass applied, if it ran long enough.
    pub op_digest: Option<u64>,
    /// Exact counts worth recording next to the metrics.
    pub notes: Vec<(String, u64)>,
    pub spans: Vec<drive::Span>,
}

fn launch(o: &Options, noise: &Noise) -> Result<Bed, String> {
    Bed::launch(o.workload, o.seed, noise).map_err(|e| format!("setup failed: {e}"))
}

/// Gates every E0 pass must clear, beyond zero failed operations.
fn violations(o: &Options, bed: &Bed, series: &Series) -> Vec<String> {
    let mut bad = bed.gate(series.count(Kind::Get));
    if series.failed > 0 {
        bad.push(format!(
            "{} of {} operations failed",
            series.failed, series.ops
        ));
    }
    match series.op_digest {
        Some(d) if o.seed == DEFAULT_SEED && d != recorded_digest(o.workload) => bad.push(format!(
            "the operations applied digest to {d:016x}, not to what is recorded for seed {DEFAULT_SEED}"
        )),
        _ => {}
    }
    bad
}

fn us(ns: Option<f64>) -> Option<f64> {
    ns.map(|v| v / 1e3)
}

/// The untraced run: set up [`SETUPS`] times, drive the stream through
/// real clients, report what a user sees.
pub fn end_to_end(o: &Options, pinned: bool) -> Result<Outcome, String> {
    let noise = Noise::new(o.seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bed = None;
    for _ in 0..SETUPS {
        drop(bed.take());
        let t = Instant::now();
        bed = Some(launch(o, &noise)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut bed = bed.expect("SETUPS > 0");
    let s = drive::run(&mut bed, &noise, o.seed, Level::E0, false, o.ops());
    // Without confinement wall-clock numbers on this kind of host swing
    // by a factor of three (README, "Noise"): they stay unmeasured.
    let sw = |v: Option<f64>| v.filter(|_| pinned);
    let (get_sw_ns, put_sw_ns) = (
        s.call_sw_mean_ns(Kind::Get, &BOTH),
        s.call_sw_mean_ns(Kind::Put, &BOTH),
    );

    let mut v = Values::default();
    v.push("setup_s", median(&mut setups));
    v.push_opt(
        "get_model_us_p50",
        us(s.model_quantile_ns(Kind::Get, &BOTH, 0.50)),
    );
    v.push_opt(
        "get_model_us_p99",
        us(s.model_quantile_ns(Kind::Get, &BOTH, 0.99)),
    );
    v.push_opt(
        "put_model_us_p50",
        us(s.model_quantile_ns(Kind::Put, &BOTH, 0.50)),
    );
    v.push_opt(
        "put_model_us_p99",
        us(s.model_quantile_ns(Kind::Put, &BOTH, 0.99)),
    );
    v.push_opt(
        "batch_get_model_us_per_obj",
        us(s.model_mean_ns(Kind::Batch)).map(|b| b / crate::gen::BATCH as f64),
    );
    if s.read_model_ns > 0 {
        let gib = s.read_bytes as f64 / (1u64 << 30) as f64;
        v.push("read_model_gibps", gib / (s.read_model_ns as f64 / 1e9));
    }
    if s.model_elapsed_ns > 0 {
        v.push(
            "model_ops_per_s",
            s.ops as f64 * 1e9 / s.model_elapsed_ns as f64,
        );
    }
    v.push_opt("get_sw_per_ref", sw(s.per_reference(get_sw_ns)));
    v.push_opt("put_sw_per_ref", sw(s.per_reference(put_sw_ns)));
    v.push_opt("sw_ops_per_ref", sw(s.ops_per_reference()));
    let live = bed.objects.live_bytes();
    if live > 0 {
        v.push(
            "store_bytes_per_user_byte",
            bed.allocated_bytes() as f64 / live as f64,
        );
    }
    v.push_opt("peak_rss_mib", pin::peak_rss_mib());

    // What turns the ratios above back into this run's time.
    let whole_ns = |v: Option<f64>| v.unwrap_or(0.0) as u64;
    let mut notes = vec![
        ("wall_ms".to_string(), s.wall_ns / 1_000_000),
        ("reference_ns".to_string(), whole_ns(s.reference_ns())),
        ("get_sw_ns".to_string(), whole_ns(get_sw_ns)),
        ("put_sw_ns".to_string(), whole_ns(put_sw_ns)),
    ];
    for kind in [Kind::Get, Kind::Batch, Kind::Put, Kind::Delete, Kind::Tick] {
        for far in [false, true] {
            let class = if far { "far" } else { "near" };
            notes.push((
                format!("{kind:?}.{class}").to_lowercase(),
                s.group(kind, far).n,
            ));
        }
    }
    Ok(Outcome {
        violations: violations(o, &bed, &s),
        values: v,
        attempted: s.ops,
        failed: s.failed,
        op_digest: s.op_digest,
        notes,
        spans: Vec::new(),
    })
}

/// The node `frag_penalty_ns` probes: in every workload it has room for
/// the probe's objects beside its own (it is empty on `local_hot` and
/// `remote_read`, a fifth full on `mixed_zipf`), so the probe evicts
/// nothing, and on `write_churn` it takes its third of the churn.
const PROBED_NODE: usize = 1;

/// Median sw time, ns, of 256 `StoreCore::create`s of a 10 kB object on
/// the probed node's core. The objects stay stored until all are made,
/// so the creates are served from 256 free regions, not each from the
/// hole its predecessor just left; then they are deleted.
fn median_create_ns(bed: &Bed, batch: usize) -> f64 {
    let core = bed.rig.cluster.store(PROBED_NODE).core();
    let mut held = Vec::with_capacity(256);
    let mut ns = Vec::with_capacity(256);
    for i in 0..256 {
        let id = ObjectId::from_name(&format!("frag/{batch}/{i}"));
        let t = Instant::now();
        let created = core.create(id, 10_000, 0);
        ns.push(t.elapsed().as_nanos() as f64);
        // A full region is a finding (the penalty shows as a failed
        // create's cost), not a reason to stop the run.
        if created.is_ok() {
            held.push(id);
        }
    }
    for id in held {
        let _ = core
            .seal(id)
            .and_then(|_| core.release(id))
            .and_then(|()| core.delete(id));
    }
    median(&mut ns)
}

/// What the replay's fragmentation costs the allocator, ns per create:
/// `used`, the bed the E2 replay ran on, against `fresh`, an identically
/// seeded bed that only stored the catalog.
///
/// The beds are probed in pairs of batches a millisecond apart, taking
/// turns to go first, and the result is the median of the pairs'
/// differences: the host's drift lands on both beds alike, and a batch an
/// interrupt fell into is one pair in 32.
fn frag_penalty_ns(used: &Bed, fresh: &Bed) -> f64 {
    let mut diffs: Vec<f64> = (0..32)
        .map(|pair| {
            if pair % 2 == 0 {
                let fresh_ns = median_create_ns(fresh, pair);
                median_create_ns(used, pair) - fresh_ns
            } else {
                let used_ns = median_create_ns(used, pair);
                used_ns - median_create_ns(fresh, pair)
            }
        })
        .collect();
    median(&mut diffs)
}

/// The traced run. Four passes of the same fixed-length stream, each on
/// a freshly launched, identically seeded bed — E0 untraced, E0 traced,
/// E1, E2 — then the allocator probe and the standalone probes.
pub fn per_layer(o: &Options, pinning: &Pinning) -> Result<Outcome, String> {
    let noise = Noise::new(o.seed);
    let ops = o.trace_ops();
    let pass = |level: Level, trace: bool| -> Result<(Bed, Series), String> {
        let mut bed = launch(o, &noise)?;
        let s = drive::run(&mut bed, &noise, o.seed, level, trace, ops);
        Ok((bed, s))
    };

    // The first bed of a process pays for faulting its memory in; the
    // untraced run's timed phase comes after five set-ups and never does.
    drop(launch(o, &noise)?);
    let (untraced_bed, untraced) = pass(Level::E0, false)?;
    drop(untraced_bed);
    let (bed0, e0) = pass(Level::E0, true)?;
    let bad = violations(o, &bed0, &e0);
    let snap = bed0.snapshot();
    let fabric = bed0.rig.cluster.fabric().stats().snapshot();
    let stats: Vec<_> = (0..NODES)
        .map(|i| bed0.rig.cluster.store(i).disagg_stats())
        .collect();
    let pending_releases: usize = (0..NODES)
        .map(|i| bed0.rig.cluster.store(i).pending_release_count())
        .sum();
    drop(bed0);

    let (bed1, e1) = pass(Level::E1, false)?;
    drop(bed1);

    let (bed2, e2) = pass(Level::E2, false)?;
    let used_per_live = bed2.allocated_bytes() as f64 / bed2.objects.live_bytes().max(1) as f64;
    let frag_penalty_ns = frag_penalty_ns(&bed2, &launch(o, &noise)?);
    drop(bed2);
    for (level, s) in [("E1", &e1), ("E2", &e2)] {
        if s.failed > 0 {
            return Err(format!(
                "{} operations failed in the {level} replay",
                s.failed
            ));
        }
    }

    let p = probes::run(&cluster_config(o.workload, o.seed), pinning);
    if p.link_delay_min_ns < 2 * FAR_MODEL_NS {
        return Err(format!(
            "the interconnect link sampled {} ns: too close to the {FAR_MODEL_NS} ns near/far threshold",
            p.link_delay_min_ns
        ));
    }

    // A pass's sw time is the mean, as in the untraced run, but left in
    // microseconds: the passes share a process and a minute, and a pass's
    // reference hand-off depends on what the pass does (beside E1's and
    // E2's calls, which hand nothing off, it costs up to half as much
    // again as beside E0's), so dividing by it would distort the
    // differences taken below.
    // A path a workload never takes has no cost here: it reports 0.
    let est = |s: &Series, kind: Kind, far: bool| {
        s.call_sw_mean_ns(kind, &[far]).map_or(0.0, |ns| ns / 1e3)
    };
    let all = |s: &Series, kind: Kind| s.call_sw_mean_ns(kind, &BOTH).map_or(0.0, |ns| ns / 1e3);
    let model_mean = |s: &Series, kind: Kind, far: bool| {
        let g = s.group(kind, far);
        if g.n == 0 {
            0.0
        } else {
            g.model_sum_ns as f64 / g.n as f64 / 1e3
        }
    };
    let model_p50 = |s: &Series, kind: Kind, far: bool| {
        s.model_quantile_ns(kind, &[far], 0.5)
            .map_or(0.0, |v| v / 1e3)
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let pct_of = |part: f64, whole: f64| {
        if whole == 0.0 {
            0.0
        } else {
            100.0 * part / whole
        }
    };
    let calls = |verb: &str| Bed::rpc_calls(&snap, Some(verb));
    let sum = |f: fn(&disagg::DisaggStats) -> u64| stats.iter().map(f).sum::<u64>();

    let far_gets = e0.group(Kind::Get, true).n;
    let far_puts = e0.group(Kind::Put, true).n;
    let rpcs_per_remote_get = ratio(e0.far_get_lookup_rpcs, far_gets);
    let rpcs_per_forwarded_put = ratio(calls("create_at") + calls("seal_at"), far_puts);
    let core_get = all(&e2, Kind::Get);
    let core_put = all(&e2, Kind::Put);
    let front_get_model = e0.model_mean_ns(Kind::Get).unwrap_or(0.0) / 1e3
        - e1.model_mean_ns(Kind::Get).unwrap_or(0.0) / 1e3;
    let front_put_model = e0.model_mean_ns(Kind::Put).unwrap_or(0.0) / 1e3
        - e1.model_mean_ns(Kind::Put).unwrap_or(0.0) / 1e3;

    let mut v = Values::default();
    // Counters the product registers, summed over nodes, read by name.
    for (metric, counter) in [
        ("plasma.evictions", "plasma.evictions"),
        ("plasma.evicted_bytes", "plasma.evicted_bytes"),
        ("plasma.shard_contention", "plasma.shard.contention"),
        (
            "disagg.redirects_followed",
            "disagg.elastic.redirects_followed",
        ),
        ("disagg.spills", "disagg.elastic.spills"),
        ("disagg.replicas_created", "disagg.replica.created"),
        ("disagg.peer_retries", "disagg.peer.retries"),
        (
            "disagg.fabric_mapped_bytes",
            "disagg.fabric.mapped_payload_bytes",
        ),
        (
            "disagg.fabric_framed_bytes",
            "disagg.fabric.framed_payload_bytes",
        ),
    ] {
        v.push(metric, snap.counter(counter) as f64);
    }
    v.push("ipc.roundtrip_sw_us", p.ipc_roundtrip_sw_us);
    v.push(
        "plasma.front_get_sw_us",
        all(&e0, Kind::Get) - all(&e1, Kind::Get),
    );
    v.push(
        "plasma.front_put_sw_us",
        all(&e0, Kind::Put) - all(&e1, Kind::Put),
    );
    v.push("plasma.front_get_model_us", front_get_model);
    v.push("plasma.codec_get_sw_ns", p.codec_get_sw_ns);
    v.push("plasma.core_get_sw_us", core_get);
    v.push("plasma.core_put_sw_us", core_put);
    v.push("plasma.core_delete_sw_us", all(&e2, Kind::Delete));
    v.push("plasma.core_2t_speedup", p.core_2t_speedup);
    v.push("memalloc.frag_penalty_sw_us", frag_penalty_ns / 1e3);
    v.push("memalloc.used_per_live_byte", used_per_live);
    // E1 minus E2 is what the distributed layer adds; on far paths the
    // interconnect calls it makes are priced by the echo probe.
    let self_time = |e1_us: f64, core_us: f64, rpcs: f64| {
        if e1_us == 0.0 {
            0.0
        } else {
            e1_us - core_us - rpcs * p.rpc_call_sw_us
        }
    };
    v.push(
        "disagg.local_self_sw_us",
        self_time(est(&e1, Kind::Get, false), core_get, 0.0),
    );
    v.push(
        "disagg.remote_get_self_sw_us",
        self_time(est(&e1, Kind::Get, true), core_get, rpcs_per_remote_get),
    );
    v.push(
        "disagg.remote_put_self_sw_us",
        self_time(est(&e1, Kind::Put, true), core_put, rpcs_per_forwarded_put),
    );
    v.push("disagg.rpcs_per_remote_get", rpcs_per_remote_get);
    v.push("disagg.rpcs_per_forwarded_put", rpcs_per_forwarded_put);
    v.push("disagg.ring_hits", sum(|s| s.ring_hits) as f64);
    v.push("disagg.ring_fallbacks", sum(|s| s.ring_fallbacks) as f64);
    let (hits, misses) = (
        snap.counter("disagg.idcache.hits"),
        snap.counter("disagg.idcache.misses"),
    );
    v.push("disagg.idcache_hit_ratio", ratio(hits, hits + misses));
    let replica_hits = snap.counter("disagg.replica.local_hits");
    v.push("disagg.replica_local_hits", replica_hits as f64);
    v.push(
        "disagg.replica_hit_ratio",
        ratio(replica_hits, replica_hits + sum(|s| s.remote_found)),
    );
    v.push(
        "disagg.releases_forwarded",
        sum(|s| s.releases_forwarded) as f64,
    );
    v.push("disagg.pending_releases_end", pending_releases as f64);
    v.push("rpclite.call_sw_us", p.rpc_call_sw_us);
    v.push("rpclite.call_model_us_p50", p.rpc_call_model_us_p50);
    let verbs = [
        ("rpclite.calls.get_many", "get_many"),
        ("rpclite.calls.release", "release"),
        ("rpclite.calls.create_at", "create_at"),
        ("rpclite.calls.seal_at", "seal_at"),
        ("rpclite.calls.delete", "delete"),
        ("rpclite.calls.spill_at", "spill_at"),
        ("rpclite.calls.replicate_at", "replicate_at"),
        ("rpclite.calls.invalidate", "invalidate"),
    ];
    let mut listed = 0;
    for (name, verb) in verbs {
        listed += calls(verb);
        v.push(name, calls(verb) as f64);
    }
    v.push(
        "rpclite.calls.other",
        (Bed::rpc_calls(&snap, None) - listed) as f64,
    );
    let suffix_sum = |suffix: &str| -> u64 {
        let named = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("rpc.client.") && n.ends_with(suffix));
        named.map(|(_, c)| *c).sum()
    };
    v.push(
        "rpclite.deadline_expired",
        suffix_sum(".deadline_expired") as f64,
    );
    v.push("rpclite.redials", suffix_sum(".redials") as f64);
    v.push("netsim.grpc_lan_delay_us_p50", p.link_delay_us_p50);
    v.push("tfsim.local_read_bytes", fabric.local_read_bytes as f64);
    v.push("tfsim.remote_read_bytes", fabric.remote_read_bytes as f64);
    v.push("tfsim.read_model_gibps_local", p.tfsim_model_gibps_local);
    v.push("tfsim.read_model_gibps_remote", p.tfsim_model_gibps_remote);
    v.push("tfsim.read_sw_gibps", p.tfsim_sw_gibps);
    v.push("obs.record_sw_ns", p.obs_record_sw_ns);
    v.push("obs.p99_rel_err_pct", histogram_p99_error_pct(&e1));

    // Budgets: what of an E0 figure the layer rows leave unexplained.
    // On the sw clock the unexplained part is the plasma front end beyond
    // its IPC round trips and codec; on the model clock it is whatever
    // the modeled client IPC and the echo-priced round trips do not cover.
    let codec_us = p.codec_get_sw_ns / 1e3;
    let front_sw = |kind: Kind, far: bool, round_trips: f64, codecs: f64| {
        let (top, below) = (est(&e0, kind, far), est(&e1, kind, far));
        pct_of(
            top - below - round_trips * p.ipc_roundtrip_sw_us - codecs * codec_us,
            top,
        )
    };
    v.push(
        "budget.get_local.residual_sw_pct",
        front_sw(Kind::Get, false, 1.0, 1.0),
    );
    v.push(
        "budget.get_local.residual_model_pct",
        pct_of(
            model_mean(&e0, Kind::Get, false) - front_get_model,
            model_mean(&e0, Kind::Get, false),
        ),
    );
    v.push(
        "budget.get_remote.residual_sw_pct",
        front_sw(Kind::Get, true, 1.0, 1.0),
    );
    let explained = |front: f64, rpcs: f64| front + rpcs * p.rpc_call_model_us_p50;
    let far_get_p50 = model_p50(&e0, Kind::Get, true);
    v.push(
        "budget.get_remote.residual_model_pct",
        pct_of(
            far_get_p50 - explained(front_get_model, rpcs_per_remote_get),
            far_get_p50,
        ),
    );
    // A put is three client requests: create, seal, release.
    v.push(
        "budget.put_forwarded.residual_sw_pct",
        front_sw(Kind::Put, true, 3.0, 0.0),
    );
    let far_put_p50 = model_p50(&e0, Kind::Put, true);
    v.push(
        "budget.put_forwarded.residual_model_pct",
        pct_of(
            far_put_p50 - explained(front_put_model, rpcs_per_forwarded_put),
            far_put_p50,
        ),
    );
    // Same operations, so the throughputs compare as the busy times do.
    let (plain, traced) = (untraced.busy_ns() as f64, e0.busy_ns() as f64);
    v.push("trace.overhead_pct", pct_of(traced - plain, traced));
    v.push("trace.ops", e0.ops as f64);

    let notes = vec![
        ("e0_far_gets".to_string(), far_gets),
        ("e0_far_puts".to_string(), far_puts),
        ("e1_ops".to_string(), e1.ops),
        ("e2_ops".to_string(), e2.ops),
    ];
    Ok(Outcome {
        values: v,
        attempted: e0.ops,
        failed: e0.failed,
        violations: bad,
        op_digest: e0.op_digest,
        notes,
        spans: e0.spans,
    })
}

/// Relative error of `obs`'s p99 for the E1 single-get sw times, against
/// the exact p99 of the same samples. 0 when there are under 1 000.
fn histogram_p99_error_pct(e1: &Series) -> f64 {
    let mut ns: Vec<u32> = e1.group(Kind::Get, false).sw_ns.clone();
    ns.extend_from_slice(&e1.group(Kind::Get, true).sw_ns);
    ns.sort_unstable();
    let Some(exact) = percentile(&ns, 0.99) else {
        return 0.0;
    };
    let h = obs::Histogram::new();
    ns.iter().for_each(|&v| h.record(u64::from(v)));
    100.0 * (h.snapshot().p99() as f64 - exact).abs() / exact
}
