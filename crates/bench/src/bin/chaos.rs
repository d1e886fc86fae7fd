//! Nemesis soak driver: run (or replay) a wire-level fault plan against
//! a live cluster and check the recorded history for consistency
//! violations.
//!
//! ```text
//! cargo run -p bench --bin chaos -- --seed 7 --nodes 3 --steps 4 --ops 200
//! cargo run -p bench --bin chaos -- --replay failing-plan.txt
//! ```
//!
//! On a violation the driver prints the seed, the full serialized plan
//! (write it to a file for `--replay`), and a greedily minimized plan
//! that still reproduces the failure — then exits non-zero.

use chaos::{minimize, run_plan, FaultPlan, SoakConfig};

struct Opts {
    seed: u64,
    nodes: usize,
    steps: usize,
    span: u64,
    ops: usize,
    replay: Option<String>,
    no_minimize: bool,
}

fn parse() -> Opts {
    let mut opts = Opts {
        seed: 42,
        nodes: 3,
        steps: 4,
        span: 150,
        ops: 200,
        replay: None,
        no_minimize: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a number"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = num("--seed"),
            "--nodes" => opts.nodes = num("--nodes") as usize,
            "--steps" => opts.steps = num("--steps") as usize,
            "--span" => opts.span = num("--span"),
            "--ops" => opts.ops = num("--ops") as usize,
            "--no-minimize" => opts.no_minimize = true,
            "--replay" => {
                opts.replay = Some(args.next().expect("--replay needs a plan file"));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: [--seed N] [--nodes N] [--steps N] [--span N] [--ops N] \
                     [--no-minimize] [--replay plan.txt]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn main() {
    let opts = parse();
    let plan = match &opts.replay {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            FaultPlan::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
        }
        None => FaultPlan::generate(opts.seed, opts.nodes, opts.steps, opts.span),
    };
    let cfg = SoakConfig {
        ops_per_client: opts.ops,
        ..SoakConfig::quick(opts.nodes)
    };

    println!("== chaos soak: seed={} nodes={} ==", plan.seed, opts.nodes);
    println!("{}", plan.serialize());
    let report = run_plan(&plan, &cfg).expect("soak failed to launch");
    println!(
        "events={} injected_faults={} evictions={} reconciled={}",
        report.events, report.injected_faults, report.evictions, report.reconciled
    );

    // Counters only: a fault-injected soak has no meaningful latency or
    // throughput figure, so the ratchet treats this file as informational.
    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"seed\": {},\n  \"nodes\": {},\n  \
         \"events\": {},\n  \"injected_faults\": {},\n  \"evictions\": {},\n  \
         \"reconciled\": {},\n  \"borrow_drops\": {},\n  \"borrow_trims\": {},\n  \
         \"replica_drops\": {},\n  \"replica_trims\": {},\n  \
         \"consistent\": {}\n}}\n",
        plan.seed,
        opts.nodes,
        report.events,
        report.injected_faults,
        report.evictions,
        report.reconciled,
        report.borrow_drops,
        report.borrow_trims,
        report.replica_drops,
        report.replica_trims,
        report.verdict.ok(),
    );
    bench::write_result("chaos", &json);

    if report.verdict.ok() {
        println!("verdict: CONSISTENT");
        return;
    }
    println!("verdict: VIOLATIONS FOUND");
    println!("{}", report.verdict);
    if !opts.no_minimize {
        println!("-- minimizing (re-runs the soak per candidate, may take a while) --");
        let minimized = minimize(&plan, |candidate| {
            run_plan(candidate, &cfg)
                .map(|r| !r.verdict.ok())
                .unwrap_or(false)
        });
        println!("minimized plan still reproducing the violation:");
        println!("{}", minimized.serialize());
    }
    std::process::exit(1);
}
