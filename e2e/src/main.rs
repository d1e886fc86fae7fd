//! `e2e` — the client-to-fabric benchmark.
//!
//! With `--workload` it runs that workload once in this process and ends
//! its standard output with the result line `BENCHMARK.json` promises.
//! Without, it runs all four workloads and their traced replays, each in
//! a process of its own, and with `--repeat N` reports how far N such
//! sets spread. See README.md for every metric and workload.

mod bed;
mod drive;
mod gen;
mod measure;
mod pin;
mod probes;
mod report;
mod stats;

use gen::Workload;
use measure::{Options, Outcome};
use report::{Metric, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str =
    "usage: e2e [--workload local_hot|remote_read|write_churn|mixed_zipf] [--seed N] \
[--seconds S] [--trace 0|1] [--smoke] [--repeat N] [--out DIR]";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: gen::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        repeat: 1,
        out: PathBuf::from("target/e2e"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
        }
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => cli.seed = num(flag, value()?)?,
            "--seconds" => cli.seconds = num(flag, value()?)?,
            "--trace" => cli.trace = num::<u8>(flag, value()?)? != 0,
            "--repeat" => cli.repeat = num(flag, value()?)?,
            "--out" => cli.out = PathBuf::from(value()?),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if cli.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(cli)
}

/// `--smoke`: a fiftieth of the workload's 10-second length.
fn smoke_ops(w: Workload) -> u64 {
    w.ops_per_second() * 10 / 50
}

fn write_file(dir: &Path, name: &str, body: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, in this process. Prints every metric by name with its
/// unit, then the result line.
fn run_one(cli: &Cli, workload: Workload) -> Result<bool, String> {
    let pinning = pin::confine();
    if cli.trace && pinning.cpu.is_none() {
        return Err(
            "a traced run prices layers in wall-clock time and needs the process pinned to one CPU"
                .into(),
        );
    }
    if pinning.cpu.is_none() {
        eprintln!(
            "e2e: the process could not be pinned to one CPU: sw-clock metrics stay unresolved"
        );
    }
    let options = Options {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        ops: cli.smoke.then(|| smoke_ops(workload)),
    };
    let (table, outcome): (&[Metric], Outcome) = if cli.trace {
        (PER_LAYER, measure::per_layer(&options, &pinning)?)
    } else {
        (
            END_TO_END,
            measure::end_to_end(&options, pinning.cpu.is_some())?,
        )
    };
    let name = workload.name();
    let run = if cli.trace { "traced" } else { "untraced" };
    println!(
        "workload {name} seed {} {run} ops {} failed {}",
        cli.seed, outcome.attempted, outcome.failed
    );
    for (what, n) in &outcome.notes {
        println!("count {what} {n}");
    }
    for m in table {
        match outcome.values.get(m.name) {
            Some(v) => println!("metric {} {v} {}", m.name, m.unit),
            None => println!("metric {} unresolved {}", m.name, m.unit),
        }
    }
    for v in &outcome.violations {
        eprintln!("e2e: {name}: GATE VIOLATED: {v}");
    }
    // A --smoke run may lack the samples a p99 needs; a run of the
    // declared length must measure everything.
    outcome
        .values
        .check(table, cli.smoke)
        .map_err(|e| format!("{name}: {e}"))?;
    let correct = outcome.violations.is_empty();
    let line = report::result_line(
        correct,
        outcome.attempted,
        outcome.failed,
        &outcome.values,
        table,
    );
    if correct {
        // A run that broke a promise leaves no file a later comparison
        // could mistake for a baseline.
        let env = pin::environment(&pinning);
        let record = report::RunRecord {
            workload: name,
            seed: cli.seed,
            trace: cli.trace,
            pinned_cpu: pinning.cpu,
            env: &env,
            ops: outcome.attempted,
            op_digest: outcome.op_digest,
            notes: &outcome.notes,
        };
        if cli.trace {
            write_file(
                &cli.out,
                &format!("trace-{name}.json"),
                &report::trace_file(name, cli.seed, &outcome.spans),
            )?;
            write_file(
                &cli.out,
                &format!("layers-{name}.json"),
                &report::metrics_file(&record, &line),
            )?;
        } else {
            write_file(
                &cli.out,
                &format!("metrics-{name}.json"),
                &report::metrics_file(&record, &line),
            )?;
        }
    }
    println!("{line}");
    Ok(correct)
}

/// Run one workload in a child process, echo its output, and return the
/// metrics it printed.
fn run_child(
    cli: &Cli,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &cli.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&cli.out);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut metrics = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["metric", name, value, ..] => {
                println!("  {line}");
                if let Ok(v) = value.parse() {
                    metrics.push((name.to_string(), v));
                }
            }
            ["workload", ..] => println!("{line}"),
            _ => {}
        }
    }
    if !out.status.success() {
        return Err(format!(
            "{} (seed {seed}, trace {}) exited with {}",
            workload.name(),
            u8::from(trace),
            out.status
        ));
    }
    Ok(metrics)
}

/// All four workloads, `repeat` sets of untraced runs (set *i* at seed
/// `seed + i`, as the driver varies it) and one traced replay each.
fn run_all(cli: &Cli) -> Result<(), String> {
    let mut sets: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
    for i in 0..cli.repeat {
        let seed = cli.seed + i as u64;
        let set: Result<Vec<_>, String> = Workload::ALL
            .iter()
            .map(|&w| run_child(cli, w, seed, false))
            .collect();
        sets.push(set?);
    }
    for w in Workload::ALL {
        run_child(cli, w, cli.seed, true)?;
    }
    if cli.repeat > 1 {
        println!(
            "\nspread over {} sets (seeds {}..{})",
            cli.repeat,
            cli.seed,
            cli.seed + cli.repeat as u64 - 1
        );
        println!(
            "{:<12} {:<28} {:>12} {:>12} {:>12} {:>8} {:>8}",
            "workload", "metric", "min", "median", "max", "iqr/med", "/bound"
        );
        for (wi, w) in Workload::ALL.iter().enumerate() {
            for m in END_TO_END {
                let mut vals: Vec<f64> = sets
                    .iter()
                    .filter_map(|set| set[wi].iter().find(|(n, _)| n == m.name).map(|&(_, v)| v))
                    .collect();
                if vals.is_empty() {
                    // Too short a run for this metric (a p99 under --smoke).
                    println!("{:<12} {:<28} unresolved in every set", w.name(), m.name);
                    continue;
                }
                let spread = stats::iqr_over_median(&vals);
                let med = stats::median(&mut vals);
                // A metric whose own spread exceeds its bound cannot
                // show a regression of that size: unresolved, not fine.
                let verdict = if spread > m.bound { "UNRESOLVED" } else { "" };
                println!(
                    "{:<12} {:<28} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>8.2} {verdict}",
                    w.name(),
                    m.name,
                    vals[0],
                    med,
                    vals[vals.len() - 1],
                    spread * 100.0,
                    spread / m.bound
                );
            }
        }
    }
    println!("results in {}", cli.out.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cli.workload {
        Some(w) => run_one(&cli, w),
        None => run_all(&cli).map(|()| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke` lengths of all four workloads clear every gate and
    /// measure every end-to-end metric but the p99s, which the percentile
    /// rule withholds from a run this short.
    #[test]
    fn smoke_runs_pass_their_gates() {
        for workload in Workload::ALL {
            let options = Options {
                workload,
                seed: gen::DEFAULT_SEED,
                seconds: 10.0,
                ops: Some(smoke_ops(workload)),
            };
            let outcome = measure::end_to_end(&options, true).expect("setup");
            assert_eq!(
                outcome.violations,
                Vec::<String>::new(),
                "{}",
                workload.name()
            );
            assert_eq!(outcome.failed, 0);
            assert_eq!(
                outcome.op_digest,
                Some(gen::recorded_digest(workload)),
                "the digest gate covers even a smoke run"
            );
            for m in END_TO_END.iter().filter(|m| !m.name.ends_with("_p99")) {
                assert!(
                    outcome.values.get(m.name).is_some(),
                    "{}: {}",
                    workload.name(),
                    m.name
                );
            }
        }
    }

    /// A traced run yields exactly the declared per-layer metrics.
    #[test]
    fn traced_smoke_run_prices_every_layer() {
        let options = Options {
            workload: Workload::MixedZipf,
            seed: 3,
            seconds: 10.0,
            ops: Some(4_096),
        };
        let pinning = pin::Pinning {
            cpu: None,
            original: pin::allowed(),
        };
        let outcome = measure::per_layer(&options, &pinning).expect("traced run");
        assert_eq!(outcome.violations, Vec::<String>::new());
        outcome
            .values
            .check(PER_LAYER, false)
            .expect("every layer priced");
        assert!(outcome.spans.iter().any(|s| s.parent.is_some()));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli = parse(&args(
            "--workload mixed_zipf --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(cli.workload, Some(Workload::MixedZipf));
        assert!(cli.trace && cli.seed == 7 && cli.seconds == 3.0);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
    }
}
