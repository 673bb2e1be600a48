//! The four workloads and the one operation they all time: load a spec,
//! then call `check_spec` on it.
//!
//! Every workload leaves each engine knob of `CheckOptions` at its default
//! and sets only `tests`, `max_actions`, `default_demand`, `seed` and
//! `shrink`, so it keeps measuring the default path when knobs go away.

use crate::host::process_cpu_s;
use crate::seams::{Probe, RemoteExecutor, SeamTotals, Server, TimedExecutor};
use quickstrom::prelude::*;
use quickstrom::quickstrom_apps::registry::{Entry, REGISTRY};
use quickstrom::quickstrom_apps::BigTable;
use quickstrom::quickstrom_checker::PhaseTimings;
use quickstrom::quickstrom_obs::TraceLog;
use quickstrom::specstrom;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Rows in the `bigtable_grid` application.
const BIGTABLE_ROWS: u32 = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TodomvcPass,
    TodomvcBughunt,
    BigtableGrid,
    TodomvcRemote,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TodomvcPass,
        Workload::TodomvcBughunt,
        Workload::BigtableGrid,
        Workload::TodomvcRemote,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TodomvcPass => "todomvc_pass",
            Workload::TodomvcBughunt => "todomvc_bughunt",
            Workload::BigtableGrid => "bigtable_grid",
            Workload::TodomvcRemote => "todomvc_remote",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The options of one check. Only the five user-facing settings are
    /// ever touched.
    fn options(self, seed: u64) -> CheckOptions {
        let base = CheckOptions::default().with_seed(seed);
        match self {
            // Table 1's budget.
            Workload::TodomvcPass => base.with_max_actions(120).with_default_demand(100),
            // Product defaults: 20 tests, shrinking on.
            Workload::TodomvcBughunt => base,
            Workload::BigtableGrid => base
                .with_tests(4)
                .with_max_actions(25)
                .with_default_demand(20),
            Workload::TodomvcRemote => base
                .with_tests(5)
                .with_max_actions(30)
                .with_default_demand(25),
        }
    }

    /// The subjects one round of checks covers; a run repeats rounds.
    fn subjects(self) -> Vec<Subject> {
        let todomvc = |faulty: bool| {
            REGISTRY
                .iter()
                .filter(|e| e.expected_to_fail() == faulty)
                .map(Subject::Todomvc)
                .collect()
        };
        match self {
            Workload::TodomvcPass | Workload::TodomvcRemote => todomvc(false),
            Workload::TodomvcBughunt => todomvc(true),
            Workload::BigtableGrid => vec![Subject::Bigtable],
        }
    }

    /// Checks a run completes even if `--seconds` runs out first: one round
    /// of subjects, so that every subject is measured, and at least 100 on
    /// the bug hunt, so that its quantiles rest on enough samples.
    pub fn min_checks(self) -> usize {
        match self {
            Workload::TodomvcBughunt => 100,
            _ => self.subjects().len(),
        }
    }
}

/// What a check runs against.
#[derive(Debug, Clone, Copy)]
pub enum Subject {
    /// A Table 1 registry implementation, checked against the TodoMVC spec.
    Todomvc(&'static Entry),
    /// The data grid, checked against the BigTable spec.
    Bigtable,
}

impl Subject {
    pub fn name(self) -> &'static str {
        match self {
            Subject::Todomvc(entry) => entry.name,
            Subject::Bigtable => "bigtable",
        }
    }

    /// Table 1's answer (the grid is correct).
    pub fn expected_to_fail(self) -> bool {
        match self {
            Subject::Todomvc(entry) => entry.expected_to_fail(),
            Subject::Bigtable => false,
        }
    }

    fn source(self) -> &'static str {
        match self {
            Subject::Todomvc(_) => quickstrom::specs::TODOMVC,
            Subject::Bigtable => quickstrom::specs::BIGTABLE,
        }
    }

    fn executor(self) -> Box<dyn Executor> {
        match self {
            Subject::Todomvc(entry) => Box::new(WebExecutor::new(move || entry.build())),
            Subject::Bigtable => Box::new(WebExecutor::new(|| BigTable::with_rows(BIGTABLE_ROWS))),
        }
    }
}

/// One planned check: the inputs a run derives from its seed.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub subject: Subject,
    pub options_seed: u64,
}

/// SplitMix64: the benchmark's own generator, so inputs depend on the
/// seed alone.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// An endless sequence of checks: rounds over the workload's subjects, each
/// round in a seeded order, each check with its own seeded options seed.
pub struct Planner {
    subjects: Vec<Subject>,
    round: Vec<Subject>,
    rng: SplitMix,
}

impl Planner {
    pub fn new(workload: Workload, seed: u64) -> Planner {
        let salt = workload
            .name()
            .bytes()
            .fold(0u64, |h, b| h.rotate_left(5) ^ u64::from(b));
        Planner {
            subjects: workload.subjects(),
            round: Vec::new(),
            rng: SplitMix(seed ^ salt),
        }
    }

    pub fn next(&mut self) -> Plan {
        if self.round.is_empty() {
            self.round = self.subjects.clone();
            // Fisher–Yates; `pop` below takes from the back.
            for i in (1..self.round.len()).rev() {
                let j = (self.rng.next() % (i as u64 + 1)) as usize;
                self.round.swap(i, j);
            }
        }
        let subject = self.round.pop().expect("a workload has subjects");
        Plan {
            subject,
            options_seed: self.rng.next(),
        }
    }
}

/// How a check ended, judged against Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A correct subject passed.
    Passed,
    /// A faulty subject failed; the first counterexample has this many
    /// actions.
    BugFound { cex_actions: usize },
    /// A faulty subject passed: the test budget missed the bug.
    BugMissed,
    /// A correct subject failed.
    FalseAlarm,
    /// `check_spec` returned an error, or a call panicked.
    Error(String),
}

impl Verdict {
    /// An operation failed: the program erred or gave a verdict a correct
    /// checker cannot give. A missed bug is a verdict random testing may
    /// give within a finite budget, so it is counted but not failed.
    pub fn is_failure(&self) -> bool {
        matches!(self, Verdict::FalseAlarm | Verdict::Error(_))
    }
}

/// Observability span self-times of one check, by span name:
/// `(count, total seconds, self seconds)`.
pub type SpanTable = BTreeMap<&'static str, (u64, f64, f64)>;

/// Everything recorded about one check.
#[derive(Debug, Clone)]
pub struct CheckRecord {
    pub plan: Plan,
    /// Seconds in `specstrom::load`.
    pub load_s: f64,
    /// The set-up a user waits for before checking starts: the load, and
    /// for the remote workload also server start and session connects.
    pub setup_s: f64,
    /// Seconds inside `check_spec`.
    pub check_s: f64,
    /// CPU seconds the process used inside `check_spec`, on every thread
    /// (on `todomvc_remote` the server thread's too).
    pub cpu_s: f64,
    pub verdict: Verdict,
    /// `(property, states_total)` in report order, for the agreement gate.
    pub states: Vec<(String, usize)>,
    /// `Report::timings()`, read field by field (see `phase_fields`).
    pub phases: BTreeMap<String, f64>,
    pub transport: TransportStats,
    pub coverage: CoverageStats,
    pub seams: SeamTotals,
    pub spans: SpanTable,
    /// The whole report, kept only on `todomvc_remote`, whose gate
    /// compares remote and in-process reports.
    pub report: Option<Report>,
}

impl CheckRecord {
    pub fn states_total(&self) -> usize {
        self.states.iter().map(|(_, n)| n).sum()
    }
}

/// How a check is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The workload's own executor (in-process, or remote for
    /// `todomvc_remote`).
    Native,
    /// In-process, whatever the workload: the oracle for the remote gate.
    InProcess,
}

/// Loads the spec and runs one check, timing both from outside.
pub fn run_check(workload: Workload, plan: Plan, mode: Mode, trace: bool) -> CheckRecord {
    let remote = workload == Workload::TodomvcRemote && mode == Mode::Native;
    let options = workload.options(plan.options_seed);
    let probe = Probe::new(trace);
    let obs = if trace {
        ObsOptions {
            tracing: Some(TraceOptions::default()),
            metrics: false,
        }
    } else {
        ObsOptions::disabled()
    };
    let mut record = CheckRecord {
        plan,
        load_s: 0.0,
        setup_s: 0.0,
        check_s: 0.0,
        cpu_s: 0.0,
        verdict: Verdict::Passed,
        states: Vec::new(),
        phases: BTreeMap::new(),
        transport: TransportStats::default(),
        coverage: CoverageStats::default(),
        seams: SeamTotals::default(),
        spans: SpanTable::new(),
        report: None,
    };

    let load_started = Instant::now();
    let spec = specstrom::load(plan.subject.source());
    record.load_s = load_started.elapsed().as_secs_f64();
    let spec = match spec {
        Ok(spec) => spec,
        Err(e) => {
            record.verdict = Verdict::Error(format!("load the spec: {e:?}"));
            return record;
        }
    };
    let server_started = Instant::now();
    let server = match (remote, plan.subject) {
        (true, Subject::Todomvc(entry)) => match Server::start(entry) {
            Ok(server) => Some(server),
            Err(e) => {
                record.verdict = Verdict::Error(format!("start the server: {e}"));
                return record;
            }
        },
        _ => None,
    };
    let server_start_s = server_started.elapsed().as_secs_f64();

    let addr = server.as_ref().map(Server::addr);
    let subject = plan.subject;
    let make_executor = |probe: &Arc<Probe>| -> Box<dyn Executor> {
        let inner: Box<dyn Executor> = match addr {
            Some(addr) => {
                Box::new(RemoteExecutor::connect(addr, probe).expect("connect a session"))
            }
            None => subject.executor(),
        };
        if trace {
            TimedExecutor::wrap(inner, probe)
        } else {
            inner
        }
    };
    let factory = || make_executor(&probe);
    let cpu_started = process_cpu_s();
    let check_started = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        check_spec_observed(&spec, &options, &factory, &obs)
    }));
    record.check_s = check_started.elapsed().as_secs_f64();
    record.cpu_s = process_cpu_s() - cpu_started;
    record.seams = probe.take();
    record.setup_s = server_start_s + record.load_s + record.seams.connect_s;

    let served = server.map(Server::shutdown);
    let (report, artifacts) = match outcome {
        Ok(Ok(pair)) => pair,
        Ok(Err(e)) => {
            record.verdict = Verdict::Error(format!("check_spec: {e:?}"));
            return record;
        }
        Err(payload) => {
            record.verdict = Verdict::Error(format!("panic: {}", panic_message(payload.as_ref())));
            return record;
        }
    };
    record.transport = match served {
        Some(Ok(shipped)) => shipped,
        Some(Err(e)) => {
            record.verdict = Verdict::Error(format!("remote server: {e}"));
            return record;
        }
        None => report.transport(),
    };
    record.verdict = match (
        subject.expected_to_fail(),
        report.properties.iter().find_map(|p| p.counterexample()),
    ) {
        (false, None) => Verdict::Passed,
        (false, Some(_)) => Verdict::FalseAlarm,
        (true, None) => Verdict::BugMissed,
        (true, Some(cex)) => Verdict::BugFound {
            cex_actions: cex.script.len(),
        },
    };
    record.states = report
        .properties
        .iter()
        .map(|p| (p.property.clone(), p.states_total))
        .collect();
    record.phases = phase_fields(&report.timings());
    record.coverage = report.coverage();
    record.spans = span_table(&artifacts.trace);
    if workload == Workload::TodomvcRemote {
        record.report = Some(report);
    }
    record
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Reads `PhaseTimings` by field name from its `Debug` form. Several of its
/// counters belong to engine layers slated for deletion; reading them by
/// name keeps the benchmark compiling across those deletions, and a field
/// that is gone is reported as not measured rather than as zero.
pub fn phase_fields(timings: &PhaseTimings) -> BTreeMap<String, f64> {
    let text = format!("{timings:?}");
    let body = text
        .split_once('{')
        .and_then(|(_, rest)| rest.rsplit_once('}'))
        .map_or("", |(body, _)| body);
    body.split(',')
        .filter_map(|field| {
            let (name, value) = field.split_once(':')?;
            Some((name.trim().to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Self time per span name over every track of a check's trace. Spans on a
/// track nest, so a span's parent is the innermost span still open when it
/// opened.
fn span_table(trace: &TraceLog) -> SpanTable {
    let mut table = SpanTable::new();
    for track in &trace.tracks {
        let mut events: Vec<_> = track.events.iter().filter(|e| !e.instant).collect();
        events.sort_by_key(|e| e.seq_open);
        let mut child_us = vec![0u64; events.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, event) in events.iter().enumerate() {
            while open
                .last()
                .is_some_and(|&p| events[p].seq_close < event.seq_open)
            {
                open.pop();
            }
            if let Some(&parent) = open.last() {
                child_us[parent] += event.dur_us;
            }
            open.push(i);
        }
        for (event, children) in events.iter().zip(child_us) {
            let row = table.entry(event.kind.as_str()).or_default();
            row.0 += 1;
            row.1 += event.dur_us as f64 * 1e-6;
            row.2 += event.dur_us.saturating_sub(children) as f64 * 1e-6;
        }
    }
    table
}
