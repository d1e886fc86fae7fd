//! The metric tables — the one place every metric name, unit, direction
//! and bound is written down — and the result formats built from them.
//! `BENCHMARK.json` repeats these tables; a test keeps the two equal.

use crate::drive::Span;
use crate::pin::Environment;
use std::fmt::Write as _;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read only by the test that holds `BENCHMARK.json` to this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// What a user of the store sees. A bound is about three times the
/// widest quartile spread any workload showed over ten seeds (README,
/// "Repeatability"): model-clock metrics are functions of the seed alone
/// and spread only as far as seeds differ — most on `mixed_zipf`, whose
/// spills and replicas depend on the path taken — while sw-clock metrics
/// carry the host's noise even when counted in reference hand-offs.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("get_model_us_p50", "us", "lower", 0.04),
    e2e("get_model_us_p99", "us", "lower", 0.15),
    e2e("put_model_us_p50", "us", "lower", 0.03),
    e2e("put_model_us_p99", "us", "lower", 0.05),
    e2e("batch_get_model_us_per_obj", "us", "lower", 0.1),
    e2e("read_model_gibps", "GiB/s", "higher", 0.03),
    e2e("model_ops_per_s", "ops/s", "higher", 0.15),
    e2e("get_sw_per_ref", "ratio", "lower", 0.25),
    e2e("put_sw_per_ref", "ratio", "lower", 0.25),
    e2e("sw_ops_per_ref", "ops/ref", "higher", 0.25),
    e2e("store_bytes_per_user_byte", "ratio", "lower", 0.04),
    e2e("peak_rss_mib", "MiB", "lower", 0.1),
];

pub const PER_LAYER: &[Metric] = &[
    layer("ipc.roundtrip_sw_us", "us", "lower"),
    layer("plasma.front_get_sw_us", "us", "lower"),
    layer("plasma.front_put_sw_us", "us", "lower"),
    layer("plasma.front_get_model_us", "us", "lower"),
    layer("plasma.codec_get_sw_ns", "ns", "lower"),
    layer("plasma.core_get_sw_us", "us", "lower"),
    layer("plasma.core_put_sw_us", "us", "lower"),
    layer("plasma.core_delete_sw_us", "us", "lower"),
    layer("plasma.evictions", "count", "lower"),
    layer("plasma.evicted_bytes", "bytes", "lower"),
    layer("plasma.shard_contention", "count", "lower"),
    layer("plasma.core_2t_speedup", "ratio", "higher"),
    layer("memalloc.frag_penalty_sw_us", "us", "lower"),
    layer("memalloc.used_per_live_byte", "ratio", "lower"),
    layer("disagg.local_self_sw_us", "us", "lower"),
    layer("disagg.remote_get_self_sw_us", "us", "lower"),
    layer("disagg.remote_put_self_sw_us", "us", "lower"),
    layer("disagg.rpcs_per_remote_get", "ratio", "lower"),
    layer("disagg.rpcs_per_forwarded_put", "ratio", "lower"),
    layer("disagg.ring_hits", "count", "higher"),
    layer("disagg.ring_fallbacks", "count", "lower"),
    layer("disagg.idcache_hit_ratio", "ratio", "higher"),
    layer("disagg.redirects_followed", "count", "lower"),
    layer("disagg.spills", "count", "lower"),
    layer("disagg.replicas_created", "count", "higher"),
    layer("disagg.replica_local_hits", "count", "higher"),
    layer("disagg.replica_hit_ratio", "ratio", "higher"),
    layer("disagg.releases_forwarded", "count", "lower"),
    layer("disagg.pending_releases_end", "count", "lower"),
    layer("disagg.peer_retries", "count", "lower"),
    layer("disagg.fabric_mapped_bytes", "bytes", "higher"),
    layer("disagg.fabric_framed_bytes", "bytes", "lower"),
    layer("rpclite.call_sw_us", "us", "lower"),
    layer("rpclite.call_model_us_p50", "us", "lower"),
    layer("rpclite.calls.get_many", "count", "lower"),
    layer("rpclite.calls.release", "count", "lower"),
    layer("rpclite.calls.create_at", "count", "lower"),
    layer("rpclite.calls.seal_at", "count", "lower"),
    layer("rpclite.calls.delete", "count", "lower"),
    layer("rpclite.calls.spill_at", "count", "lower"),
    layer("rpclite.calls.replicate_at", "count", "lower"),
    layer("rpclite.calls.invalidate", "count", "lower"),
    layer("rpclite.calls.other", "count", "lower"),
    layer("rpclite.deadline_expired", "count", "lower"),
    layer("rpclite.redials", "count", "lower"),
    layer("netsim.grpc_lan_delay_us_p50", "us", "lower"),
    layer("tfsim.local_read_bytes", "bytes", "higher"),
    layer("tfsim.remote_read_bytes", "bytes", "lower"),
    layer("tfsim.read_model_gibps_local", "GiB/s", "higher"),
    layer("tfsim.read_model_gibps_remote", "GiB/s", "higher"),
    layer("tfsim.read_sw_gibps", "GiB/s", "higher"),
    layer("obs.record_sw_ns", "ns", "lower"),
    layer("obs.p99_rel_err_pct", "%", "lower"),
    layer("budget.get_local.residual_sw_pct", "%", "lower"),
    layer("budget.get_local.residual_model_pct", "%", "lower"),
    layer("budget.get_remote.residual_sw_pct", "%", "lower"),
    layer("budget.get_remote.residual_model_pct", "%", "lower"),
    layer("budget.put_forwarded.residual_sw_pct", "%", "lower"),
    layer("budget.put_forwarded.residual_model_pct", "%", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.ops", "count", "higher"),
];

/// Measured values, in the order they were pushed.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// A value some estimator could not produce stays out; `check` then
    /// names it.
    pub fn push_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.push(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Every value must be a finite number under a name `table` declares,
    /// and — unless `partial` — every metric of `table` must have one.
    /// Returns what is wrong otherwise.
    pub fn check(&self, table: &[Metric], partial: bool) -> Result<(), String> {
        for (n, v) in &self.0 {
            if !table.iter().any(|m| m.name == *n) {
                return Err(format!("{n} is not a declared metric"));
            }
            if !v.is_finite() {
                return Err(format!("{n} = {v}"));
            }
        }
        match table.iter().find(|m| self.get(m.name).is_none()) {
            Some(m) if !partial => Err(format!("{} could not be measured", m.name)),
            _ => Ok(()),
        }
    }
}

/// `"name": {"value": v, "unit": "u"}` for every measured metric of
/// `table`, in table order.
fn metrics_json(values: &Values, table: &[Metric]) -> String {
    let body: Vec<String> = table
        .iter()
        .filter_map(|m| {
            let v = values.get(m.name)?;
            Some(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The line the driver reads: the last line of standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    table: &[Metric],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(values, table)
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What one run was: enough to repeat it.
pub struct RunRecord<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub trace: bool,
    pub pinned_cpu: Option<usize>,
    pub env: &'a Environment,
    pub ops: u64,
    pub op_digest: Option<u64>,
    pub notes: &'a [(String, u64)],
}

/// `metrics-<workload>.json`: the result line plus the run record.
pub fn metrics_file(rec: &RunRecord, result_line: &str) -> String {
    let notes: Vec<String> = rec
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"pinned\": {}, \"cpu\": {}, \"nproc\": {}, \
         \"kernel\": {}, \"rustc\": {}, \"ops\": {}, \"op_digest\": {}, \"counts\": {{{}}}, \
         \"result\": {result_line}}}\n",
        json_str(rec.workload),
        rec.seed,
        rec.trace,
        rec.pinned_cpu.is_some(),
        rec.pinned_cpu.map_or("null".into(), |c| c.to_string()),
        rec.env.nproc,
        json_str(&rec.env.kernel),
        json_str(&rec.env.rustc),
        rec.ops,
        rec.op_digest
            .map_or("null".into(), |d| format!("\"{d:016x}\"")),
        notes.join(", "),
    )
}

/// Spans written to a trace file; a run records more than it writes.
pub const TRACE_FILE_SPANS: usize = 50_000;

/// `trace-<workload>.json`: one span per line inside a JSON array.
pub fn trace_file(workload: &str, seed: u64, spans: &[Span]) -> String {
    let kept = &spans[..spans.len().min(TRACE_FILE_SPANS)];
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"spans_recorded\": {}, \"spans\": [\n",
        json_str(workload),
        spans.len()
    );
    for (i, s) in kept.iter().enumerate() {
        let parent = s.parent.map_or("null".into(), |p| p.to_string());
        let comma = if i + 1 == kept.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \"wall_ns\": [{}, {}], \"model_ns\": [{}, {}]}}{comma}",
            s.op, s.name, s.wall_ns.0, s.wall_ns.1, s.model_ns.0, s.model_ns.1
        )
        .expect("string write");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Every `"name": "…"` in the text after `"<section>": [` up to the
    /// closing bracket of that array.
    fn names_in(section: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("string closes")].to_string())
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = std::collections::HashSet::new();
        let workloads = Workload::ALL.map(Workload::name);
        let metrics = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name);
        for n in workloads.into_iter().chain(metrics) {
            assert!(valid_name(n), "{n}");
            assert!(seen.insert(n), "{n} is used twice");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let names = |t: &[Metric]| t.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        assert_eq!(
            names_in("workloads"),
            Workload::ALL.map(|w| w.name().to_string())
        );
        assert_eq!(names_in("end_to_end"), names(END_TO_END));
        assert_eq!(names_in("per_layer"), names(PER_LAYER));
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "BENCHMARK.json lacks {entry}"
            );
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "BENCHMARK.json lacks {entry}"
            );
        }
    }

    #[test]
    fn values_must_match_the_table() {
        let mut v = Values::default();
        assert!(v.check(END_TO_END, false).is_err());
        assert!(v.check(END_TO_END, true).is_ok());
        for m in END_TO_END {
            v.push(m.name, 1.5);
        }
        assert!(v.check(END_TO_END, false).is_ok());
        let line = result_line(true, 10, 0, &v, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        v.push("stray", 1.0);
        assert!(v.check(END_TO_END, true).is_err());
    }
}
