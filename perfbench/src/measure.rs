//! Outside-in measurement of one run: a timing wrapper around the real
//! scaler, the run itself through `run_experiment`, and the output
//! checks every run must pass.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use atom_cluster::{ScaleAction, WindowReport};
use atom_core::{run_experiment, Atom, Autoscaler, ExperimentResult};
use atom_obs::DecisionRecord;

use crate::workload::Scenario;

/// A fixed memory-bound kernel: random read-modify-writes over an
/// 8 MiB table, larger than the per-core caches. Its time tracks how much
/// shared cache and memory bandwidth the machine's other tenants leave
/// this process. On a shared 2-vCPU VM the workloads' per-repetition
/// times moved with it (correlation 0.74-0.93 over 12 repetitions), while
/// a compute-only kernel barely moved.
pub struct ContentionProbe {
    table: Vec<u64>,
}

impl ContentionProbe {
    /// Kernel time the corrected wall times are scaled to.
    pub const REFERENCE_S: f64 = 1e-3;

    /// A probe with its table allocated and touched.
    pub fn new() -> Self {
        let mut probe = ContentionProbe {
            table: vec![1; 1 << 20],
        };
        probe.run();
        probe
    }

    /// Runs the kernel once; returns its wall seconds.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        let mask = self.table.len() - 1;
        let (mut z, mut acc) = (0x2545_F491_4F6C_DD1Du64, 0u64);
        for _ in 0..100_000 {
            z = z
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let slot = (z >> 20) as usize & mask;
            acc = acc.wrapping_add(self.table[slot]);
            self.table[slot] = acc;
        }
        std::hint::black_box(acc);
        started.elapsed().as_secs_f64()
    }
}

/// Delegates to the real scaler and records the wall time of every
/// `decide` call. Everything else passes straight through, so the run
/// it drives is the run the bare scaler would produce. Before each
/// `decide` (and outside its timing) it runs the [`ContentionProbe`].
pub struct Timed<'a> {
    inner: &'a mut dyn Autoscaler,
    probe: ContentionProbe,
    /// Wall seconds of each `decide`, in window order.
    pub decide_s: Vec<f64>,
    /// Wall seconds of each contention-probe run, in window order.
    pub probe_s: Vec<f64>,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Autoscaler) -> Self {
        Timed {
            inner,
            probe: ContentionProbe::new(),
            decide_s: Vec::new(),
            probe_s: Vec::new(),
        }
    }
}

impl Autoscaler for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, report: &WindowReport) -> Vec<ScaleAction> {
        self.probe_s.push(self.probe.run());
        let started = Instant::now();
        let actions = self.inner.decide(report);
        self.decide_s.push(started.elapsed().as_secs_f64());
        actions
    }

    fn actuation_delay(&self) -> f64 {
        self.inner.actuation_delay()
    }

    fn explain_last(&self) -> Option<String> {
        self.inner.explain_last()
    }

    fn take_decision_record(&mut self) -> Option<DecisionRecord> {
        self.inner.take_decision_record()
    }
}

/// One run of a scenario.
pub struct Rep {
    /// Wall seconds of the whole `run_experiment` call, contention probes
    /// excluded.
    pub wall_s: f64,
    /// Wall seconds of each `decide` (empty for an untimed run).
    pub decide_s: Vec<f64>,
    /// Wall seconds of each contention-probe run (empty for an untimed
    /// run).
    pub probe_s: Vec<f64>,
    /// What the run produced.
    pub result: ExperimentResult,
}

impl Rep {
    /// Wall seconds spent outside `decide`: the cluster DES plus the
    /// experiment loop's bookkeeping.
    pub fn des_s(&self) -> f64 {
        self.wall_s - self.decide_s.iter().sum::<f64>()
    }

    /// How much slower than the reference the contention probe ran
    /// during this repetition (median probe time over
    /// [`ContentionProbe::REFERENCE_S`]); 1 for an untimed run.
    pub fn contention(&self) -> f64 {
        if self.probe_s.is_empty() {
            return 1.0;
        }
        crate::stats::median(&mut self.probe_s.clone()) / ContentionProbe::REFERENCE_S
    }
}

/// Runs `scenario` once with a fresh controller, timing each decision
/// when `timed`. A panic or an error is returned as `Err`.
pub fn run_rep(scenario: &Scenario, timed: bool) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut atom = Atom::new(scenario.binding.clone(), scenario.atom.clone());
        let run = |scaler: &mut dyn Autoscaler| {
            let started = Instant::now();
            let result = run_experiment(
                &scenario.spec,
                scenario.workload.clone(),
                scaler,
                scenario.experiment.clone(),
            );
            (result, started.elapsed().as_secs_f64())
        };
        let ((result, wall_s), decide_s, probe_s) = if timed {
            let mut wrapper = Timed::new(&mut atom);
            let (result, wall_s) = run(&mut wrapper);
            let probes: f64 = wrapper.probe_s.iter().sum();
            ((result, wall_s - probes), wrapper.decide_s, wrapper.probe_s)
        } else {
            (run(&mut atom), Vec::new(), Vec::new())
        };
        result
            .map(|result| Rep {
                wall_s,
                decide_s,
                probe_s,
                result,
            })
            .map_err(|e| format!("run_experiment failed: {e}"))
    }))
    .unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "unknown panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Hash of a value's `Debug` rendering. Rust prints every `f64` in its
/// shortest round-trip form, so equal fingerprints mean bitwise-equal
/// floats. Of an `ExperimentResult`, it covers every simulated-time
/// output: reports, traces, actions, explanations, the decision journal,
/// the cluster counters and the sampled spans.
pub fn fingerprint<T: std::fmt::Debug>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    format!("{value:?}").hash(&mut hasher);
    hasher.finish()
}

/// Fingerprint of a run's trajectory alone: the window reports with the
/// span aggregates removed, and the chosen configurations. Span sampling
/// on or off must leave it unchanged.
pub fn trajectory_fingerprint(result: &ExperimentResult) -> u64 {
    let reports: Vec<WindowReport> = result
        .reports
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.span_stats = None;
            r
        })
        .collect();
    let chosen: Vec<_> = result
        .telemetry
        .decisions
        .iter()
        .map(|d| d.as_ref().map(|d| (&d.chosen, &d.actuation.issued)))
        .collect();
    fingerprint(&(reports, chosen, result.actions.entries()))
}

/// Per-window Little's-law ratio `avg_users / (X · (R + Z))`, or `None`
/// when the monitoring plane was dark for part of the window (its
/// counters are degraded by design) or nothing completed.
pub fn little_ratio(report: &WindowReport, think: f64) -> Option<f64> {
    if report.monitor_dropout_fraction != 0.0 {
        return None;
    }
    let count: u64 = report.feature_counts.iter().sum();
    if count == 0 || report.total_tps <= 0.0 {
        return None;
    }
    let response = report
        .feature_counts
        .iter()
        .zip(&report.feature_response)
        .map(|(&c, &r)| c as f64 * r)
        .sum::<f64>()
        / count as f64;
    Some(report.avg_users / (report.total_tps * (response + think)))
}

/// Band Little's law must hold in on every clean window. Window-level
/// Little's law is approximate at window edges (users mid-think or
/// mid-request straddle the boundary), so the band allows a few percent.
pub const LITTLE_BAND: (f64, f64) = (0.9, 1.1);

/// Checks one window of `rep` against the reference run `reference` (the
/// first repetition of the same seed): its outputs must be bitwise equal,
/// finite, and satisfy Little's law. Returns the failures found.
pub fn check_window(rep: &Rep, reference: &Rep, window: usize, think: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let (Some(report), Some(expected)) = (
        rep.result.reports.get(window),
        reference.result.reports.get(window),
    ) else {
        return vec![format!("window {window}: missing report")];
    };
    let decision = rep.result.telemetry.decisions.get(window);
    let expected_decision = reference.result.telemetry.decisions.get(window);
    if fingerprint(&(report, decision)) != fingerprint(&(expected, expected_decision)) {
        failures.push(format!(
            "window {window}: outputs differ from the first repetition of the seed"
        ));
    }
    if !(report.total_tps.is_finite() && report.avg_users.is_finite()) {
        failures.push(format!(
            "window {window}: non-finite throughput or population"
        ));
    }
    if let Some(ratio) = little_ratio(report, think) {
        if !(LITTLE_BAND.0..=LITTLE_BAND.1).contains(&ratio) {
            failures.push(format!(
                "window {window}: Little's law ratio {ratio:.3} outside {:?}",
                LITTLE_BAND
            ));
        }
    }
    failures
}
