//! Plan replay: re-runs each window's plan phase through public calls,
//! timing each phase from outside, and checks that the replayed plan is
//! the configuration ATOM journaled.
//!
//! The replay mirrors `Atom::decide` on the reactive path (no forecast,
//! no online demand calibration): analyze with one `WorkloadAnalyzer`
//! fed the same window sequence, one `CandidateEvaluator` per window,
//! the GA through `atom_ga::optimize_batched` with the controller's
//! per-window seed, then `Planner::plan_with`.

use std::time::Instant;

use atom_cluster::WindowReport;
use atom_core::analyzer::WorkloadAnalyzer;
use atom_core::optimizer::{decode, lattice_genome};
use atom_core::planner::Planner;
use atom_core::solver::{solve, SolverOptions};
use atom_core::{CandidateEvaluator, DecisionVector, ExperimentResult};
use atom_ga::{optimize_batched, GaOptions};
use atom_lqn::ScalingConfig;
use atom_obs::DecisionRecord;

use crate::workload::Scenario;

/// Outside-in timings and counts of the replayed plan phases, summed
/// over the windows that planned.
#[derive(Debug, Default)]
pub struct Replay {
    /// Windows whose journal shows a plan (an evaluator ran).
    pub planned: usize,
    /// Of those, windows whose replayed plan equals the journaled one.
    pub matched: usize,
    /// Human-readable description of each mismatch.
    pub mismatches: Vec<String>,
    /// Windows the analyzer instantiated a model for.
    pub analyzed: usize,
    /// Wall seconds in `WorkloadAnalyzer::instantiate`.
    pub instantiate_s: f64,
    /// Wall seconds in the GA search, `evaluate_batch` included.
    pub search_s: f64,
    /// Wall seconds inside `evaluate_batch`.
    pub batch_s: f64,
    /// Wall seconds in `Planner::plan_with`.
    pub plan_s: f64,
    /// Wall seconds of one cold `solve` of the current configuration per
    /// window.
    pub cold_solve_s: f64,
    /// Solver iterations spent inside the GA searches (the work
    /// `batch_s` timed).
    pub search_iterations: usize,
    /// Cold (unhinted) solves of the replayed searches and plans.
    pub cold_solves: usize,
    /// Inner iterations of the cold solves.
    pub cold_iterations: usize,
    /// Warm-started solves of the replayed searches and plans.
    pub hinted_solves: usize,
    /// Inner iterations of the warm-started solves.
    pub hinted_iterations: usize,
}

/// Last trusted report merged with the fresh report's control-plane state
/// — what ATOM analyses when the monitoring plane was dark.
fn merge_trusted(trusted: &WindowReport, fresh: &WindowReport) -> WindowReport {
    let mut merged = trusted.clone();
    merged.start = fresh.start;
    merged.end = fresh.end;
    merged.service_replicas = fresh.service_replicas.clone();
    merged.service_ready_replicas = fresh.service_ready_replicas.clone();
    merged.service_shares = fresh.service_shares.clone();
    merged.service_availability = fresh.service_availability.clone();
    merged.service_alloc_cores = fresh.service_alloc_cores.clone();
    merged.avg_users = fresh.avg_users;
    merged.users_at_end = fresh.users_at_end;
    merged.peak_in_system = fresh.peak_in_system;
    merged.avg_in_system = fresh.avg_in_system;
    merged.monitor_dropout_fraction = fresh.monitor_dropout_fraction;
    merged.failed_actuations = fresh.failed_actuations;
    merged
}

/// Whether `planned` is exactly the configuration journaled in `record`.
fn matches_journal(scenario: &Scenario, planned: &DecisionVector, record: &DecisionRecord) -> bool {
    let replayed: Vec<(String, u64, f64)> = scenario
        .binding
        .scalable()
        .filter_map(|s| {
            planned
                .get(s.task)
                .map(|d| (s.name.clone(), d.replicas as u64, d.share()))
        })
        .collect();
    replayed.len() == record.chosen.len()
        && replayed
            .iter()
            .zip(&record.chosen)
            .all(|((name, r, share), c)| {
                *name == c.service && *r == c.replicas && share.to_bits() == c.share.to_bits()
            })
}

/// Replays the plan phase of every window of `result`, which must come
/// from a run of `scenario`.
pub fn replay(scenario: &Scenario, result: &ExperimentResult) -> Replay {
    let binding = &scenario.binding;
    let config = &scenario.atom;
    let mut out = Replay::default();
    let mut analyzer = WorkloadAnalyzer::new();
    let mut last_trusted: Option<WindowReport> = None;
    for (i, (report, record)) in result
        .reports
        .iter()
        .zip(&result.telemetry.decisions)
        .enumerate()
    {
        let Some(record) = record else { continue };
        let analysis = if report.degraded(config.max_dropout) {
            last_trusted.as_ref().map(|t| merge_trusted(t, report))
        } else {
            last_trusted = Some(report.clone());
            Some(report.clone())
        };
        // An empty demand list means the controller returned before its
        // analyze phase (re-issue only, or no trusted telemetry yet).
        let Some(analysis) = analysis.filter(|_| !record.demands.is_empty()) else {
            continue;
        };
        let started = Instant::now();
        let model = analyzer.instantiate(binding, &analysis);
        out.instantiate_s += started.elapsed().as_secs_f64();
        out.analyzed += 1;
        let Ok(model) = model else { continue };
        if record.evaluator.is_none() {
            continue;
        }
        out.planned += 1;

        let mut current = ScalingConfig::new();
        for s in binding.scalable() {
            let si = s.service.0;
            let replicas = analysis
                .service_replicas
                .get(si)
                .copied()
                .unwrap_or(1)
                .max(1);
            let share = analysis.service_shares.get(si).copied().unwrap_or(1.0);
            current.set(s.task, replicas, share);
        }
        let current = DecisionVector::quantize(&current);

        let mut cold = model.clone();
        if current.apply(&mut cold).is_ok() {
            let started = Instant::now();
            let solved = solve(&cold, SolverOptions::candidate());
            out.cold_solve_s += started.elapsed().as_secs_f64();
            drop(solved);
        }

        let mut evaluator =
            CandidateEvaluator::new(binding, &model, &config.objective).with_workers(1);
        let window = i as u64 + 1;
        let ga = GaOptions {
            seed: config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(window),
            niching: true,
            ..config.ga
        };
        let scalable: Vec<_> = binding.scalable().collect();
        let genome = lattice_genome(&scalable);
        let mut batch_s = 0.0;
        let started = Instant::now();
        let found = optimize_batched(&genome, ga, |batch| {
            let decisions: Vec<DecisionVector> =
                batch.iter().map(|genes| decode(&scalable, genes)).collect();
            let t = Instant::now();
            let evals = evaluator.evaluate_batch(&decisions);
            batch_s += t.elapsed().as_secs_f64();
            evals
        });
        out.search_s += started.elapsed().as_secs_f64();
        out.batch_s += batch_s;
        out.search_iterations += evaluator.stats().solver_iterations;
        let candidate = decode(&scalable, &found.best_values);

        let planner = Planner {
            mode: config.planner_mode,
            quick_fixes: config.quick_fixes,
            ..Planner::default()
        };
        let started = Instant::now();
        let planned = planner.plan_with(binding, &mut evaluator, candidate, &current);
        out.plan_s += started.elapsed().as_secs_f64();

        let stats = evaluator.stats();
        out.cold_solves += stats.cold_solves();
        out.cold_iterations += stats.cold_iterations();
        out.hinted_solves += stats.hinted_solves;
        out.hinted_iterations += stats.hinted_iterations;
        if matches_journal(scenario, &planned, record) {
            out.matched += 1;
        } else {
            out.mismatches.push(format!(
                "window {i}: replayed {:?}, journaled {:?}",
                scalable
                    .iter()
                    .filter_map(|s| planned.get(s.task).map(|d| (d.replicas, d.share())))
                    .collect::<Vec<_>>(),
                record
                    .chosen
                    .iter()
                    .map(|c| (c.replicas, c.share))
                    .collect::<Vec<_>>()
            ));
        }
    }
    out
}
