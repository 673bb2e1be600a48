//! Turning check records into named metrics, and printing them.
//!
//! A metric a workload does not measure has the value `None`, printed as
//! `null`, never as `0`.

use crate::workload::{CheckRecord, SpanTable, Verdict, Workload};
use quickstrom::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
}

fn metric(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
    Metric { name, unit, value }
}

/// The `q`-quantile by linear interpolation between order statistics.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The records of checks that produced a report.
fn completed(records: &[CheckRecord]) -> impl Iterator<Item = &CheckRecord> {
    records
        .iter()
        .filter(|r| !matches!(r.verdict, Verdict::Error(_)))
}

/// What a user sees: set-up, time to verdict, throughput, time to a shrunk
/// counterexample, its size, failures and memory.
/// `reference` is the median CPU time of the run's reference passes.
pub fn end_to_end(
    workload: Workload,
    records: &[CheckRecord],
    reference: Option<f64>,
    peak_rss: Option<f64>,
) -> Vec<Metric> {
    let setups: Vec<f64> = records.iter().map(|r| r.setup_s).collect();
    let checks: Vec<f64> = completed(records).map(|r| r.check_s).collect();
    // Each is taken per subject, as the median of its checks, then averaged
    // over subjects: a bug hunt's check times span three decades, and a
    // pooled median over a few hundred checks moved by 15 % from seed to
    // seed on a 2-vCPU VM; per subject it moved by 2 %.
    let per_subject = |value: &dyn Fn(&CheckRecord) -> Option<f64>| -> Option<f64> {
        let mut by_subject: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in completed(records) {
            if let Some(v) = value(r) {
                by_subject.entry(r.plan.subject.name()).or_default().push(v);
            }
        }
        let medians: Vec<f64> = by_subject
            .values()
            .filter_map(|v| quantile(v, 0.5))
            .collect();
        ratio(medians.iter().sum(), medians.len() as f64)
    };
    let states = |r: &CheckRecord| r.states_total() as f64;
    let check_cpu_s = per_subject(&|r| Some(r.cpu_s));
    let states_per_cpu_s = per_subject(&|r| ratio(states(r), r.cpu_s));
    let bughunt = workload == Workload::TodomvcBughunt;
    let bugs: Vec<f64> = records
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::BugFound { .. }))
        .map(|r| r.check_s)
        .collect();
    let cex: Vec<f64> = records
        .iter()
        .filter_map(|r| match r.verdict {
            Verdict::BugFound { cex_actions } => Some(cex_actions as f64),
            _ => None,
        })
        .collect();
    let off_table = records
        .iter()
        .filter(|r| r.verdict.is_failure() || r.verdict == Verdict::BugMissed)
        .count();
    vec![
        metric("setup_s", "s", quantile(&setups, 0.5)),
        metric("check_s_p50", "s", per_subject(&|r| Some(r.check_s))),
        metric("check_s_p90", "s", quantile(&checks, 0.9)),
        metric(
            "states_per_s",
            "1/s",
            per_subject(&|r| ratio(states(r), r.check_s)),
        ),
        metric("check_cpu_s_p50", "s", check_cpu_s),
        metric("states_per_cpu_s", "1/s", states_per_cpu_s),
        metric(
            "check_ref_p50",
            "ref",
            check_cpu_s.zip(reference).and_then(|(c, f)| ratio(c, f)),
        ),
        metric(
            "states_per_ref",
            "1/ref",
            states_per_cpu_s.zip(reference).map(|(r, f)| r * f),
        ),
        metric("reference_cpu_us", "us", reference.map(|f| f * 1e6)),
        metric(
            "bug_s_p50",
            "s",
            if bughunt { quantile(&bugs, 0.5) } else { None },
        ),
        metric(
            "bug_s_p90",
            "s",
            if bughunt { quantile(&bugs, 0.9) } else { None },
        ),
        metric(
            "cex_actions_mean",
            "actions",
            if bughunt {
                ratio(cex.iter().sum(), cex.len() as f64)
            } else {
                None
            },
        ),
        metric(
            "checks_failed",
            "ratio",
            ratio(off_table as f64, records.len() as f64),
        ),
        metric("peak_rss_mb", "MiB", peak_rss),
    ]
}

/// Per-layer numbers from the traced run. Counters are means per check,
/// so they do not depend on how many checks fit in the run.
pub fn per_layer(workload: Workload, records: &[CheckRecord]) -> Vec<Metric> {
    let done: Vec<&CheckRecord> = completed(records).collect();
    let n = done.len() as f64;
    let phase = |field: &str| -> Option<f64> {
        done.iter()
            .map(|r| r.phases.get(field).copied())
            .sum::<Option<f64>>()
    };
    let per_check = |total: Option<f64>| total.and_then(|t| ratio(t, n));
    let sum = |f: &dyn Fn(&CheckRecord) -> f64| done.iter().map(|r| f(r)).sum::<f64>();
    let states = sum(&|r| r.states_total() as f64);
    let send_s = sum(&|r| r.seams.send_ns.iter().sum::<u64>() as f64 * 1e-9);
    let sends = sum(&|r| r.seams.send_ns.len() as f64);
    let send_us: Vec<f64> = done
        .iter()
        .flat_map(|r| r.seams.send_ns.iter().map(|&ns| ns as f64 * 1e-3))
        .collect();
    let mut transport = TransportStats::default();
    for r in &done {
        transport.absorb(r.transport);
    }
    let remote = workload == Workload::TodomvcRemote;
    let wire = |f: &dyn Fn(&CheckRecord) -> f64| {
        if remote {
            per_check(Some(sum(f)))
        } else {
            None
        }
    };
    let memo_hits = phase("atom_memo_hits");
    let memo_lookups = memo_hits.zip(phase("atom_memo_misses")).map(|(h, m)| h + m);
    vec![
        metric(
            "specstrom.load_s",
            "s",
            quantile(&done.iter().map(|r| r.load_s).collect::<Vec<_>>(), 0.5),
        ),
        metric(
            "specstrom.atoms_total",
            "1/check",
            per_check(phase("atoms_total")),
        ),
        metric(
            "specstrom.atoms_reevaluated",
            "1/check",
            per_check(phase("atoms_reevaluated")),
        ),
        metric(
            "specstrom.atom_memo_hit_ratio",
            "ratio",
            memo_hits.zip(memo_lookups).and_then(|(h, l)| ratio(h, l)),
        ),
        metric(
            "quickltl.table_hits",
            "1/check",
            per_check(phase("ltl_table_hits")),
        ),
        metric(
            "quickltl.residual_states",
            "1/check",
            per_check(phase("ltl_states")),
        ),
        metric(
            "checker.step_memo_hit_ratio",
            "ratio",
            phase("step_memo_hits").and_then(|h| ratio(h, states)),
        ),
        metric(
            "checker.self_s",
            "s/check",
            per_check(Some(sum(&|r| r.check_s) - send_s)),
        ),
        metric("checker.eval_s", "s/check", per_check(phase("eval_s"))),
        metric(
            "checker.executor_stall_s",
            "s/check",
            per_check(phase("executor_stall_s")),
        ),
        metric(
            "checker.evaluator_stall_s",
            "s/check",
            per_check(phase("evaluator_stall_s")),
        ),
        metric(
            "checker.speculative_states_discarded",
            "1/check",
            per_check(phase("speculative_states_discarded")),
        ),
        metric("executor.send_s", "s/check", per_check(Some(send_s))),
        metric("executor.sends", "1/check", per_check(Some(sends))),
        metric("executor.send_us_p50", "us", quantile(&send_us, 0.5)),
        metric("executor.send_us_p99", "us", quantile(&send_us, 0.99)),
        metric("executor.sends_per_state", "ratio", ratio(sends, states)),
        metric(
            "protocol.shipped_bytes_per_state",
            "B/state",
            ratio(transport.shipped_bytes as f64, transport.states as f64),
        ),
        metric(
            "protocol.delta_ratio",
            "ratio",
            ratio(transport.shipped_bytes as f64, transport.full_bytes as f64),
        ),
        metric(
            "protocol.wire_encode_s",
            "s/check",
            wire(&|r| r.seams.encode_s),
        ),
        metric(
            "protocol.wire_decode_s",
            "s/check",
            wire(&|r| r.seams.decode_s),
        ),
        metric("protocol.wire_wait_s", "s/check", wire(&|r| r.seams.wait_s)),
        metric(
            "protocol.wire_bytes",
            "B/check",
            wire(&|r| r.seams.wire_bytes as f64),
        ),
        metric(
            "explore.distinct_states",
            "1/check",
            per_check(Some(sum(&|r| r.coverage.distinct_states as f64))),
        ),
        metric(
            "explore.distinct_edges",
            "1/check",
            per_check(Some(sum(&|r| r.coverage.distinct_edges as f64))),
        ),
    ]
}

/// The per-layer self-time table of a traced run: the benchmark's own spans
/// first, then the program's observability spans.
pub fn self_time_table(workload: Workload, records: &[CheckRecord]) -> String {
    let done: Vec<&CheckRecord> = completed(records).collect();
    let sum = |f: &dyn Fn(&CheckRecord) -> f64| done.iter().map(|r| f(r)).sum::<f64>();
    let count = done.len() as f64;
    let load = sum(&|r| r.load_s);
    let check = sum(&|r| r.check_s);
    let sends = sum(&|r| r.seams.send_ns.len() as f64);
    let send = sum(&|r| r.seams.send_ns.iter().sum::<u64>() as f64 * 1e-9);
    let encode = sum(&|r| r.seams.encode_s);
    let wait = sum(&|r| r.seams.wait_s);
    let decode = sum(&|r| r.seams.decode_s);
    let mut rows: Vec<(String, f64, f64, f64)> = vec![
        ("specstrom.load".into(), count, load, load),
        ("checker.check_spec".into(), count, check, check - send),
        (
            "executor.send".into(),
            sends,
            send,
            send - encode - wait - decode,
        ),
    ];
    if workload == Workload::TodomvcRemote {
        rows.push(("protocol.encode+frame".into(), sends, encode, encode));
        rows.push(("protocol.frame_wait".into(), sends, wait, wait));
        rows.push(("protocol.decode".into(), sends, decode, decode));
    }
    let mut spans = SpanTable::new();
    for r in &done {
        for (name, (n, total, own)) in &r.spans {
            let row = spans.entry(name).or_default();
            row.0 += n;
            row.1 += total;
            row.2 += own;
        }
    }
    for (name, (n, total, own)) in spans {
        rows.push((format!("obs.{name}"), n as f64, total, own));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<26} {:>10} {:>11} {:>11} {:>10}",
        "span", "count", "total_s", "self_s", "mean_us"
    );
    for (name, n, total, own) in rows {
        let mean_us = if n > 0.0 { total / n * 1e6 } else { 0.0 };
        let _ = writeln!(
            out,
            "{name:<26} {n:>10} {total:>11.4} {own:>11.4} {mean_us:>10.1}"
        );
    }
    out.push_str(
        "(checker.check_spec self = wall not covered by sends; under the default pipeline the \
         obs.* program spans run on two threads per session and overlap)\n",
    );
    out
}

/// A JSON number, or `null` for an unmeasured or non-finite value.
fn json_number(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".into(),
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` over `metrics`.
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> String {
    let fields: Vec<String> = metrics
        .into_iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A plain-text listing, one metric per line.
pub fn metrics_text(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<38} {:>16} {}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out
}
