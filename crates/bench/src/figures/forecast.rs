//! Forecast experiment (beyond the paper): reactive vs proactive ATOM.
//!
//! A reactive ATOM plans for the load it just observed, so every
//! scale-up lands one actuation horizon late — the cluster spends the
//! start-up delay of each correction under-provisioned. The proactive
//! controller (`ATOM-P`) forecasts the demand at `t + horizon` with the
//! `atom-forecast` ensemble and hands the *predicted* snapshot to the
//! same planner. This experiment measures what that buys on three
//! workload shapes:
//!
//! * **ramp** — the paper's §V ramp to N = 2000 (trend models shine);
//! * **bursty** — MMPP2 burstiness at I = 4000 (Fig. 13's hard mode);
//! * **diurnal** — a sinusoidal population cycle (seasonal model).
//!
//! Reported per run: SLO-violation-seconds (`T_u` over the stateless
//! services), under-provisioned area `A_u`, time-to-stable (end of the
//! last under-provisioned window), mean TPS, and the forecaster's own
//! accounting (windows forecast, fallbacks, clamps). `repro --smoke
//! forecast` gates CI on the ramp: proactive must meet or beat reactive on
//! SLO-violation-seconds, and both must finish without wedging.

use atom_core::workload::{LoadProfile, WorkloadSpec};
use atom_core::ExperimentResult;
use atom_sockshop::{scenarios, SockShop};

use crate::eval::{run_one, ScalerKind, STATELESS};
use crate::figures::chaos;
use crate::output::{f, Table};
use crate::{trace, HarnessOptions};

/// Shortfall (cores) below which a window does not count as
/// under-provisioned — same tolerance the chaos wedging check uses.
const SHORTFALL_TOLERANCE: f64 = 0.05;

/// One forecast-experiment scenario: a named workload plus the seasonal
/// cycle hint (in monitoring windows) handed to the proactive ensemble.
pub struct ForecastScenario {
    /// Scenario name ("ramp" / "bursty" / "diurnal").
    pub name: &'static str,
    /// The workload both scalers run.
    pub workload: WorkloadSpec,
    /// Dominant period in monitoring windows (0 = no seasonal model).
    pub season_windows: usize,
}

/// The three scenarios, sized to the experiment horizon.
pub fn scenarios_for(windows: usize, window_secs: f64) -> Vec<ForecastScenario> {
    let horizon = windows as f64 * window_secs;
    // Two full cycles over the run, so the seasonal smoother sees one
    // complete warm-up season and still has one to predict.
    let period = horizon / 2.0;
    let season_windows = (windows / 2).max(2);
    let diurnal = scenarios::evaluation_workload(scenarios::ordering_mix(), 2000).with_source(
        LoadProfile::Sinusoidal {
            mean: 1200,
            amplitude: 800,
            period,
        },
    );
    vec![
        ForecastScenario {
            name: "ramp",
            workload: scenarios::evaluation_workload(scenarios::ordering_mix(), 2000),
            season_windows: 0,
        },
        ForecastScenario {
            name: "bursty",
            workload: scenarios::bursty_workload(4000.0),
            season_windows: 0,
        },
        ForecastScenario {
            name: "diurnal",
            workload: diurnal,
            season_windows,
        },
    ]
}

/// End of the last window in which some stateless service was
/// under-provisioned (seconds; 0 when the run never fell behind) — how
/// long the controller took to stop violating.
pub fn time_to_stable(result: &ExperimentResult) -> f64 {
    let mut stable_at = 0.0;
    for (i, w) in result.reports.iter().enumerate() {
        let under = STATELESS
            .iter()
            .any(|&si| result.capacity[si].windows()[i].shortfall() > SHORTFALL_TOLERANCE);
        if under {
            stable_at = w.end;
        }
    }
    stable_at
}

/// SLO-violation-seconds: `T_u` summed over the stateless services (the
/// same trio the paper's `T_u`/`A_u` figures consider).
pub fn slo_violation_seconds(result: &ExperimentResult) -> f64 {
    result.underprovision_time(Some(&STATELESS))
}

/// The forecaster's own accounting over a run's decision journal.
#[derive(Debug, Default, Clone, Copy)]
pub struct ForecastTally {
    /// Windows planned against a forecast record.
    pub windows: u64,
    /// Windows the accuracy guardrail planned reactively.
    pub fallbacks: u64,
    /// Windows the envelope clamp changed the prediction.
    pub clamped: u64,
    /// Mean rolling sMAPE over scored forecasts (`NaN` with none).
    pub mean_smape: f64,
}

/// Tallies the forecast records journaled during `result`.
pub fn forecast_tally(result: &ExperimentResult) -> ForecastTally {
    let mut t = ForecastTally::default();
    let (mut err_sum, mut err_n) = (0.0f64, 0u64);
    for d in result.telemetry.decisions.iter().flatten() {
        if let Some(fc) = &d.forecast {
            t.windows += 1;
            t.fallbacks += fc.fallback as u64;
            t.clamped += fc.clamped as u64;
            if let Some(e) = fc.rolling_smape {
                err_sum += e;
                err_n += 1;
            }
        }
    }
    t.mean_smape = if err_n > 0 {
        err_sum / err_n as f64
    } else {
        f64::NAN
    };
    t
}

/// Runs one scenario under reactive and proactive ATOM, in that order.
pub fn run_pair(
    opts: &HarnessOptions,
    scenario: &ForecastScenario,
    windows: usize,
    window_secs: f64,
) -> [ExperimentResult; 2] {
    let shop = SockShop::default();
    [
        ScalerKind::Atom,
        ScalerKind::AtomP {
            season_windows: scenario.season_windows,
        },
    ]
    .map(|kind| {
        atom_obs::progress!("  running forecast {} {}", scenario.name, kind.name());
        run_one(
            &shop,
            scenario.workload.clone(),
            kind,
            windows,
            window_secs,
            opts,
        )
    })
}

/// The full artefact: reactive vs proactive across all three scenarios,
/// as a table and `forecast.csv`. Returns the results so callers can
/// export the decision journal (`--trace-out`).
pub fn run(opts: &HarnessOptions) -> Vec<ExperimentResult> {
    atom_obs::info!("\n== Forecast: reactive vs proactive ATOM (ramp / bursty / diurnal) ==");
    let (windows, window_secs) = if opts.quick {
        (6usize, 120.0)
    } else {
        (opts.windows(), opts.window_secs())
    };
    let mut table = Table::new(&[
        "scenario",
        "scaler",
        "SLO viol [s]",
        "A_u [core-s]",
        "stable at [s]",
        "mean TPS",
        "forecasts",
        "fallbacks",
        "clamped",
        "#actions",
    ]);
    let mut all = Vec::new();
    for scenario in scenarios_for(windows, window_secs) {
        let pair = run_pair(opts, &scenario, windows, window_secs);
        for r in pair {
            let tally = forecast_tally(&r);
            table.row(vec![
                scenario.name.to_string(),
                r.scaler.clone(),
                f(slo_violation_seconds(&r), 0),
                f(r.underprovision_area(Some(&STATELESS)), 0),
                f(time_to_stable(&r), 0),
                f(r.mean_tps(0, windows), 1),
                tally.windows.to_string(),
                tally.fallbacks.to_string(),
                tally.clamped.to_string(),
                r.actions.len().to_string(),
            ]);
            all.push(r);
        }
    }
    table.print();
    table.write_csv(&opts.out_dir.join("forecast.csv"));

    // The proactive controller's window-by-window account: which model
    // answered, what it planned for, when the guardrails fired.
    for r in all.iter().filter(|r| r.scaler == "ATOM-P") {
        for d in r.telemetry.decisions.iter().flatten() {
            if let Some(fc) = &d.forecast {
                atom_obs::info!(
                    "  [{:>6.0}s] {}: observed {:>5.0} -> planned {:>5.0} ({}, sMAPE {}{}{})",
                    d.time,
                    r.scaler,
                    fc.observed,
                    fc.planned,
                    fc.model,
                    fc.rolling_smape
                        .map_or("n/a".to_string(), |e| format!("{e:.3}")),
                    if fc.fallback { ", fallback" } else { "" },
                    if fc.clamped { ", clamped" } else { "" },
                );
            }
        }
    }
    all
}

/// The `repro --smoke forecast` CI gate on the quick ramp (6 × 120 s
/// windows): proactive ATOM must meet or beat reactive ATOM on
/// SLO-violation-seconds, both runs must finish every window without
/// wedging (see [`chaos::MAX_IDLE_UNDERPROVISIONED`]), and proactive
/// ATOM must journal at least one forecast record. Exits non-zero on
/// failure.
pub fn smoke(opts: &HarnessOptions) {
    let (windows, window_secs) = (6usize, 120.0);
    let ramp = scenarios_for(windows, window_secs)
        .into_iter()
        .find(|s| s.name == "ramp")
        .expect("ramp scenario exists");
    let results = run_pair(opts, &ramp, windows, window_secs);
    trace::emit(opts, &results);
    let [reactive, proactive] = &results;
    assert_eq!(reactive.scaler, "ATOM");
    assert_eq!(proactive.scaler, "ATOM-P");

    let mut failures = Vec::new();
    let (t_reactive, t_proactive) = (
        slo_violation_seconds(reactive),
        slo_violation_seconds(proactive),
    );
    if t_proactive > t_reactive {
        failures.push(format!(
            "proactive ATOM violated the SLO longer than reactive on the ramp \
             ({t_proactive:.0} s > {t_reactive:.0} s)"
        ));
    }
    for r in &results {
        if r.reports.len() != windows {
            failures.push(format!(
                "{}: run ended after {}/{} windows",
                r.scaler,
                r.reports.len(),
                windows
            ));
        }
        let idle = chaos::longest_idle_underprovisioned(r);
        if idle > chaos::MAX_IDLE_UNDERPROVISIONED {
            failures.push(format!(
                "{} wedged: {idle} consecutive under-provisioned windows without an action \
                 (allowed {})",
                r.scaler,
                chaos::MAX_IDLE_UNDERPROVISIONED
            ));
        }
        atom_obs::progress!(
            "smoke: {} SLO-violation={:.0}s stable-at={:.0}s actions={}",
            r.scaler,
            slo_violation_seconds(r),
            time_to_stable(r),
            r.actions.len()
        );
    }
    let tally = forecast_tally(proactive);
    if tally.windows == 0 {
        failures.push("proactive ATOM journaled no forecast records".to_string());
    }

    if failures.is_empty() {
        atom_obs::info!(
            "smoke OK: proactive {t_proactive:.0} s <= reactive {t_reactive:.0} s \
             SLO-violation on the ramp ({} forecast windows, {} fallbacks)",
            tally.windows,
            tally.fallbacks
        );
    } else {
        for msg in &failures {
            atom_obs::error!("smoke FAILED: {msg}");
        }
        std::process::exit(1);
    }
}
