//! The repository benchmark: time to a verdict, to a shrunk counterexample,
//! and what each layer costs, on four checker workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload todomvc_pass --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One invocation runs one workload in its own process, so `peak_rss_mb` is
//! that workload's alone; `--workload all` runs each in a child process.
//! A run repeats "load the spec, call `check_spec`" on seeded inputs for
//! `--seconds`, then checks every verdict against its known answer outside
//! the timed region. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! times the layer seams from outside, prints a self-time table and the
//! per-layer metrics, and reports its overhead against an untraced twin of each check.
//! The last line of standard output is one JSON object with the metrics
//! `BENCHMARK.json` lists; the line before it holds every named metric,
//! with `null` where the workload does not measure it. A wrong verdict or
//! a failed gate makes the exit code 1.

mod host;
mod metrics;
mod seams;
mod workload;

use metrics::Metric;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{run_check, CheckRecord, Mode, Planner, Workload};

/// The end-to-end metrics `BENCHMARK.json` lists: the ones every workload
/// measures and a shared host leaves steady. Check wall time and CPU time
/// are not among them: on a shared 2-vCPU VM they spread by up to 0.7 and
/// 0.3 of their median over runs of the same code, while CPU time divided
/// by the reference loop's (see `host`) spread by at most 0.13 on the
/// gated workloads.
const GATED_END_TO_END: &[&str] = &["setup_s", "check_ref_p50", "states_per_ref", "peak_rss_mb"];

/// The per-layer metrics `BENCHMARK.json` lists: the ones every workload
/// measures. The `protocol.wire_*` metrics exist on `todomvc_remote` only
/// and appear in the full listing.
const GATED_PER_LAYER: &[&str] = &[
    "specstrom.load_s",
    "specstrom.atoms_total",
    "specstrom.atoms_reevaluated",
    "specstrom.atom_memo_hit_ratio",
    "quickltl.table_hits",
    "quickltl.residual_states",
    "checker.step_memo_hit_ratio",
    "checker.self_s",
    "checker.eval_s",
    "checker.executor_stall_s",
    "checker.evaluator_stall_s",
    "checker.speculative_states_discarded",
    "executor.send_s",
    "executor.sends",
    "executor.send_us_p50",
    "executor.send_us_p99",
    "executor.sends_per_state",
    "protocol.shipped_bytes_per_state",
    "protocol.delta_ratio",
    "explore.distinct_states",
    "explore.distinct_edges",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <todomvc_pass|todomvc_bughunt|bigtable_grid|todomvc_remote|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    run(workload, &args)
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate its own executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(workload: Workload, args: &Args) -> ExitCode {
    let remote = workload == Workload::TodomvcRemote;
    let mut planner = Planner::new(workload, args.seed);
    let budget = Duration::from_secs(args.seconds);

    // The timed region: whole checks until the budget is spent, each after
    // two passes of the reference loop, so that the passes sample the host
    // throughout the run. A traced check is followed by its untraced twin,
    // so that the pair sees the same host load when the agreement gate and
    // the overhead compare them.
    let started = Instant::now();
    let mut records: Vec<CheckRecord> = Vec::new();
    let mut twins: Vec<CheckRecord> = Vec::new();
    let mut references: Vec<f64> = Vec::new();
    while records.len() < workload.min_checks() || started.elapsed() < budget {
        let plan = planner.next();
        references.push(host::reference_cpu_s());
        references.push(host::reference_cpu_s());
        records.push(run_check(workload, plan, Mode::Native, args.trace));
        if args.trace {
            twins.push(run_check(workload, plan, Mode::Native, false));
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    let peak_rss = metrics::peak_rss_mb();

    // The correctness gate, outside the timed region.
    let mut problems: Vec<String> = Vec::new();
    let failed = records.iter().filter(|r| r.verdict.is_failure()).count();
    for r in records.iter().filter(|r| r.verdict.is_failure()) {
        problems.push(format!(
            "{} (seed {}): {:?}",
            r.plan.subject.name(),
            r.plan.options_seed,
            r.verdict
        ));
    }
    let shipped: u64 = records.iter().map(|r| r.transport.shipped_bytes).sum();
    if shipped == 0 {
        problems
            .push("no snapshot bytes shipped: transport statistics were lost on the way".into());
    }
    if remote {
        for r in &records {
            let local = run_check(workload, r.plan, Mode::InProcess, false);
            if local.report.is_none() || local.report != r.report {
                problems.push(format!(
                    "{} (seed {}): the remote report differs from the in-process one",
                    r.plan.subject.name(),
                    r.plan.options_seed
                ));
            }
        }
    }
    let mut overhead = None;
    if args.trace {
        let (mut traced_s, mut plain_s) = (0.0, 0.0);
        for (r, plain) in records.iter().zip(&twins) {
            if plain.verdict != r.verdict || plain.states != r.states {
                problems.push(format!(
                    "{} (seed {}): traced and untraced runs disagree: {:?} {:?} vs {:?} {:?}",
                    r.plan.subject.name(),
                    r.plan.options_seed,
                    r.verdict,
                    r.states,
                    plain.verdict,
                    plain.states
                ));
            }
            traced_s += r.check_s;
            plain_s += plain.check_s;
        }
        overhead = Some(traced_s / plain_s - 1.0);
    }
    let correct = problems.is_empty();

    // Output: a summary, every named metric, then the result line.
    let reference = metrics::quantile(&references, 0.5);
    let e2e = metrics::end_to_end(workload, &records, reference, peak_rss);
    println!(
        "perfbench {} seed {} trace {}: {} checks in {:.2} s, {} failed, {}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        records.len(),
        measured_s,
        failed,
        if correct {
            "gate passed"
        } else {
            "GATE FAILED"
        }
    );
    for problem in &problems {
        println!("  gate: {problem}");
    }
    let mut listed: Vec<Metric> = e2e.clone();
    let mut gated: Vec<Metric> = pick(&e2e, GATED_END_TO_END);
    if args.trace {
        let layers = metrics::per_layer(workload, &records);
        print!("{}", metrics::self_time_table(workload, &records));
        println!(
            "tracing overhead on check wall vs the untraced twin of each check: {}",
            overhead.map_or("n/a".into(), |o| format!("{:+.1}%", o * 100.0))
        );
        listed.extend(layers.iter().cloned());
        listed.push(Metric {
            name: "bench.trace_overhead",
            unit: "ratio",
            value: overhead,
        });
        gated = pick(&layers, GATED_PER_LAYER);
    }
    print!("{}", metrics::metrics_text(&listed));
    println!("{{\"all_metrics\": {}}}", metrics::metrics_json(&listed));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        records.len(),
        metrics::metrics_json(&gated)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn pick(metrics: &[Metric], names: &[&str]) -> Vec<Metric> {
    names
        .iter()
        .map(|name| {
            metrics
                .iter()
                .find(|m| m.name == *name)
                .cloned()
                .expect("every gated metric is computed")
        })
        .collect()
}
