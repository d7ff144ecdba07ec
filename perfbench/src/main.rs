//! The repository benchmark: runs one named MAPE-K workload from a seed,
//! checks its outputs and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-ramp --seed 1 --seconds 40 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones (see `metrics.rs` and `perfbench/README.md`). The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it record the
//! run's metadata and any failed check. `--manifest` prints
//! `BENCHMARK.json` instead.

mod layers;
mod measure;
mod metrics;
mod replay;
mod stats;
mod workload;

use std::time::Instant;

use atom_cluster::{BackendKind, Cluster};
use atom_core::Atom;

use measure::{check_window, fingerprint, run_rep, trajectory_fingerprint, Rep};
use metrics::{Def, END_TO_END, PER_LAYER};
use stats::{median, ratio};
use workload::{Scenario, Workload};

/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 40;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 101;

/// No repetition starts once this much wall time has gone, whatever
/// `--seconds` says, so a run always ends well within its time limit.
const HARD_STOP_S: f64 = 120.0;

const USAGE: &str = "usage: perfbench --workload <paper-ramp|plan-sine|fabric-chaos> \
--seed <n> --seconds <n> --trace <0|1> [--quick] | perfbench --manifest";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

enum Command {
    Run(Args),
    Manifest,
}

fn parse_args() -> Result<Command, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--quick" => quick = true,
            "--manifest" => return Ok(Command::Manifest),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace is required")?,
        quick,
    }))
}

/// What one invocation measured and checked.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
    values: Vec<(&'static str, f64)>,
    reps: usize,
    fingerprint: u64,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Checks every window of `rep` against `reference`.
    fn check_rep(&mut self, rep: &Rep, reference: &Rep, think: f64) {
        for w in 0..reference.result.reports.len() {
            self.attempted += 1;
            let failures = check_window(rep, reference, w, think);
            if !failures.is_empty() {
                self.failed += 1;
                self.failures.extend(failures);
            }
        }
    }

    /// Records a run that panicked or errored: all its windows fail.
    fn lose_rep(&mut self, windows: usize, error: String) {
        self.attempted += windows as u64;
        self.failed += windows as u64;
        self.failures.push(error);
    }
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mean over planning windows of the best objective the GA reached.
fn objective_mean(rep: &Rep) -> f64 {
    let best: Vec<f64> = rep
        .result
        .telemetry
        .decisions
        .iter()
        .flatten()
        .filter_map(|d| d.ga.as_ref())
        .filter_map(|ga| ga.best.iter().rev().find_map(|b| *b))
        .collect();
    ratio(best.iter().sum(), best.len() as f64)
}

/// Times `SETUPS` set-ups: scenario (spec, binding, workload source),
/// controller, and `Cluster::new`, up to the first simulated event.
fn setup_s(args: &Args) -> f64 {
    let mut samples: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let started = Instant::now();
            let scenario = Scenario::build(args.workload, args.seed, args.quick);
            let atom = Atom::new(scenario.binding.clone(), scenario.atom.clone());
            let cluster = Cluster::new(
                &scenario.spec,
                scenario.workload.clone(),
                scenario.experiment.cluster.clone(),
            );
            let elapsed = started.elapsed().as_secs_f64();
            drop((atom, cluster));
            elapsed
        })
        .collect();
    median(&mut samples)
}

/// `--trace 0`: repeats the workload under the timing wrapper for the
/// time budget and reports the end-to-end metrics.
fn end_to_end(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let setup = setup_s(args);
    let scenario = Scenario::build(args.workload, args.seed, args.quick);
    let think = scenario.workload.think_time;
    let windows = scenario.experiment.windows;
    let sim_hours = scenario.horizon() / 3600.0;
    let started = Instant::now();
    // Only the first repetition's outputs are kept (as the reference the
    // others must equal), so peak memory does not grow with the
    // repetition count.
    let mut first: Option<Rep> = None;
    let (mut walls, mut contentions) = (Vec::new(), Vec::new());
    // Per window, its decide time in each repetition.
    let mut decides: Vec<Vec<f64>> = vec![Vec::new(); windows];
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let per_rep = elapsed / (out.reps.max(1)) as f64;
        if out.reps >= 2 && elapsed + per_rep > args.seconds.min(HARD_STOP_S) {
            break;
        }
        out.reps += 1;
        match run_rep(&scenario, true) {
            Ok(rep) => {
                out.check_rep(&rep, first.as_ref().unwrap_or(&rep), think);
                // Wall times are scaled to the reference contention, so
                // a neighbour thrashing the shared cache for a minute
                // does not read as a regression.
                let contention = rep.contention();
                contentions.push(contention);
                walls.push(rep.wall_s / contention / sim_hours);
                for (window, s) in decides.iter_mut().zip(&rep.decide_s) {
                    window.push(s * 1e3 / contention);
                }
                first.get_or_insert(rep);
            }
            Err(e) => out.lose_rep(windows, e),
        }
    }
    let Some(first) = first else {
        return out;
    };
    out.fingerprint = fingerprint(&first.result);
    let result = &first.result;
    let stateless = &atom_bench::eval::STATELESS;
    out.set("setup_s", setup);
    out.set("wall_s_per_sim_hour", median(&mut walls));
    // The median window, each window at its median over repetitions:
    // pooling the repetitions instead would put the median at the edge
    // of one window's spread of samples.
    let mut per_window: Vec<f64> = decides.iter_mut().map(|w| median(w)).collect();
    out.notes.push(format!(
        "plan_ms_p50 over {} windows x {} repetitions; contention per repetition {:.3?}",
        per_window.len(),
        walls.len(),
        contentions
    ));
    out.set("plan_ms_p50", median(&mut per_window));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("t_u_s", result.underprovision_time(Some(stateless)));
    out.set("a_u_core_s", result.underprovision_area(Some(stateless)));
    out.set("tps_mean", result.mean_tps(0, result.reports.len()));
    out.set("plan_objective_mean", objective_mean(&first));
    out
}

/// `--trace 1`: one canonical timed run, the plan replay, the span
/// toggle and the layer probes; reports the per-layer metrics.
fn per_layer(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let scenario = Scenario::build(args.workload, args.seed, args.quick);
    let think = scenario.workload.think_time;
    let windows = scenario.experiment.windows;

    // The bare scaler and the timed wrapper must produce the same run:
    // the benchmark-side inertness check.
    let plain = match run_rep(&scenario, false) {
        Ok(rep) => rep,
        Err(e) => {
            out.lose_rep(windows, e);
            return out;
        }
    };
    let timed = match run_rep(&scenario, true) {
        Ok(rep) => rep,
        Err(e) => {
            out.lose_rep(windows, e);
            return out;
        }
    };
    out.reps = 2;
    out.check_rep(&timed, &plain, think);
    let ratios: Vec<f64> = timed
        .result
        .reports
        .iter()
        .filter_map(|r| measure::little_ratio(r, think))
        .collect();
    out.notes.push(format!(
        "Little's law ratio on {} clean windows: {:.3} to {:.3}",
        ratios.len(),
        ratios.iter().copied().fold(f64::INFINITY, f64::min),
        ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    ));
    out.fingerprint = fingerprint(&timed.result);
    if out.fingerprint != fingerprint(&plain.result) {
        out.failures
            .push("the timed run's outputs differ from the bare scaler's".into());
    }

    // Span sampling flipped: same trajectory, different DES cost. One
    // flipped run always, then (canonical, flipped) pairs while the time
    // budget lasts.
    let flipped = scenario.with_spans_flipped(args.seed);
    let trajectory = trajectory_fingerprint(&timed.result);
    let (mut des_same, mut des_flipped) = (vec![timed.des_s()], Vec::new());
    let mut spans_recorded = timed.result.telemetry.cluster.spans_recorded;
    loop {
        out.reps += 1;
        match run_rep(&flipped, true) {
            Ok(rep) => {
                out.attempted += windows as u64;
                if trajectory_fingerprint(&rep.result) != trajectory {
                    out.failed += windows as u64;
                    out.failures
                        .push("span sampling changed the simulated trajectory".into());
                }
                des_flipped.push(rep.des_s());
                spans_recorded = spans_recorded.max(rep.result.telemetry.cluster.spans_recorded);
            }
            Err(e) => out.lose_rep(windows, e),
        }
        let pair_s = 2.0 * timed.wall_s;
        if started.elapsed().as_secs_f64() + pair_s > args.seconds.min(HARD_STOP_S) {
            break;
        }
        out.reps += 1;
        match run_rep(&scenario, true) {
            Ok(rep) => {
                out.check_rep(&rep, &plain, think);
                des_same.push(rep.des_s());
            }
            Err(e) => out.lose_rep(windows, e),
        }
    }
    let (on, off) = if scenario.spans_on() {
        (median(&mut des_same), median(&mut des_flipped))
    } else {
        (median(&mut des_flipped), median(&mut des_same))
    };

    let result = &timed.result;
    let t = &result.telemetry.cluster;
    let des = timed.des_s();
    let events = t.total_events() as f64;
    let requests: u64 = result
        .reports
        .iter()
        .map(|r| r.feature_counts.iter().sum::<u64>())
        .sum();
    out.set("cluster.des_s", des);
    out.set("cluster.events", events);
    out.set("cluster.events.user_ready", t.user_ready_events as f64);
    out.set(
        "cluster.events.processor_check",
        t.processor_check_events as f64,
    );
    out.set("cluster.events.latency_done", t.latency_done_events as f64);
    out.set("cluster.events.net_transit", t.net_transit_events as f64);
    out.set("cluster.events.fluid_step", t.fluid_step_events as f64);
    out.set(
        "cluster.events.backend_check",
        t.backend_check_events as f64,
    );
    out.set(
        "cluster.events.replica_ready",
        t.replica_ready_events as f64,
    );
    out.set("cluster.requests", requests as f64);
    out.set("cluster.ns_per_event", ratio(des * 1e9, events));
    out.set("cluster.events_per_request", ratio(events, requests as f64));

    // Layer probes at this workload's sizes.
    let fluid = result
        .reports
        .iter()
        .all(|r| r.backend == BackendKind::Fluid);
    let peak_users = result
        .reports
        .iter()
        .map(|r| r.users_at_end)
        .max()
        .unwrap_or(0);
    let pending = if fluid { 1000 } else { peak_users.max(1000) };
    let jobs = result
        .reports
        .iter()
        .map(|r| r.avg_in_system.ceil() as usize)
        .max()
        .unwrap_or(0)
        .max(8);
    out.notes.push(format!(
        "probe sizes: {pending} pending events, {jobs} active jobs"
    ));
    out.set(
        "sim.wheel_ns_per_op",
        layers::wheel_ns_per_op(pending, think, args.seed),
    );
    out.set("sim.ps_ns_per_op", layers::ps_ns_per_op(jobs, args.seed));
    let large_horizon = if args.quick { 1.0 } else { 10.0 };
    let (large_ns, large_events) = layers::large_n_probe(args.seed, large_horizon);
    out.notes.push(format!(
        "large-N probe: {} users, {large_events} events",
        layers::LARGE_N
    ));
    out.set("probe.users_300k.ns_per_event", large_ns);
    out.set("probe.contention", timed.contention());

    out.set("net.transits", t.net_transit_events as f64);
    out.set("spans.recorded", spans_recorded as f64);
    out.set("spans.overhead_pct", ratio((on - off) * 100.0, off));

    let (fluid_ms, fluid_steps) = if t.fluid_step_events > 0 {
        (
            ratio(des * 1e3, t.fluid_step_events as f64),
            t.fluid_step_events,
        )
    } else {
        layers::fluid_probe(&scenario)
    };
    out.set("fluid.steps", fluid_steps as f64);
    out.set("fluid.ms_per_step", fluid_ms);

    // The controller, split by plan replay.
    let replay = replay::replay(&scenario, result);
    let decide_total: f64 = timed.decide_s.iter().sum();
    let planned = replay.planned as f64;
    out.set(
        "controller.decide_ms",
        ratio(decide_total * 1e3, timed.decide_s.len() as f64),
    );
    out.set(
        "analyzer.instantiate_us",
        ratio(replay.instantiate_s * 1e6, replay.analyzed as f64),
    );
    out.set("planner.plan_ms", ratio(replay.plan_s * 1e3, planned));
    out.set(
        "controller.other_ms",
        ratio(
            (decide_total - replay.instantiate_s - replay.search_s - replay.plan_s) * 1e3,
            timed.decide_s.len() as f64,
        ),
    );

    let journal: Vec<_> = result.telemetry.decisions.iter().flatten().collect();
    let sum = |f: &dyn Fn(&atom_obs::SolveCounters) -> u64| -> f64 {
        journal
            .iter()
            .filter_map(|d| d.evaluator.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let candidates = sum(&|c| c.candidates);
    out.set("evaluator.candidates", candidates);
    out.set(
        "evaluator.hit_rate",
        ratio(sum(&|c| c.cache_hits), candidates),
    );
    out.set("evaluator.batch_ms", ratio(replay.batch_s * 1e3, planned));
    out.set("lqn.solves", sum(&|c| c.solves));
    out.set("lqn.hinted_solves", sum(&|c| c.hinted_solves));
    out.set("lqn.saturated_solves", sum(&|c| c.saturated_solves));
    out.set("lqn.iterations", sum(&|c| c.solver_iterations));
    out.set(
        "lqn.iterations_per_solve.cold",
        ratio(replay.cold_iterations as f64, replay.cold_solves as f64),
    );
    out.set(
        "lqn.iterations_per_solve.hinted",
        ratio(replay.hinted_iterations as f64, replay.hinted_solves as f64),
    );
    out.set(
        "lqn.ns_per_iteration",
        ratio(replay.batch_s * 1e9, replay.search_iterations as f64),
    );
    out.set(
        "lqn.cold_solve_us",
        ratio(replay.cold_solve_s * 1e6, planned),
    );

    let ga_sum = |f: &dyn Fn(&atom_obs::GaGenerations) -> u64| -> f64 {
        journal
            .iter()
            .filter_map(|d| d.ga.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    out.set("ga.generations", ga_sum(&|g| g.generations));
    out.set("ga.evaluations", ga_sum(&|g| g.evaluations));
    out.set("ga.niche_dedup", ga_sum(&|g| g.niche_dedup));
    out.set(
        "ga.self_ms",
        ratio((replay.search_s - replay.batch_s) * 1e3, planned),
    );
    out.set("replay.match_rate", ratio(replay.matched as f64, planned));
    out.notes.push(format!(
        "plan replay: {}/{} planned windows match the journal",
        replay.matched, replay.planned
    ));
    for m in &replay.mismatches {
        out.notes.push(format!("plan replay mismatch: {m}"));
    }
    out
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout; parent directories are not
/// searched, so a checkout nested in another repository is not
/// mistaken for it).
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let rev = read(".git/HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        Some(name) => read(&format!(".git/{name}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .map(str::to_string)
        }),
        None => Some(head),
    });
    rev.map(|r| r.trim().chars().take(12).collect())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs a short command and returns its trimmed standard output.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// CPU counters for the noise record: (steal jiffies, total jiffies)
/// from `/proc/stat`, and this thread's run-queue wait in ns from
/// `/proc/self/schedstat`.
fn cpu_counters() -> (u64, u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    let total = fields.iter().take(8).sum();
    let wait = std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|w| w.parse().ok()))
        .unwrap_or(0);
    (steal, total, wait)
}

fn main() {
    let args = match parse_args() {
        Ok(Command::Run(args)) => args,
        Ok(Command::Manifest) => {
            print!("{}", metrics::manifest(RUN_SECONDS));
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Evaluator workers are fixed at 1: the measurement is of one core's
    // work, whatever the machine. Set before any thread exists.
    std::env::set_var("ATOM_EVAL_WORKERS", "1");

    let wall = Instant::now();
    let (steal0, total0, wait0) = cpu_counters();
    let outcome = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    let (steal1, total1, wait1) = cpu_counters();
    let wall_s = wall.elapsed().as_secs_f64();

    let defs: &[Def] = if args.trace { PER_LAYER } else { END_TO_END };
    let mut values = Vec::with_capacity(defs.len());
    let mut failures = outcome.failures;
    let mut complete = true;
    for def in defs {
        match outcome.values.iter().find(|(name, _)| *name == def.name) {
            Some(&(_, v)) if v.is_finite() => values.push((def, v)),
            Some(&(_, v)) => {
                failures.push(format!("{} is not finite ({v})", def.name));
                complete = false;
            }
            None => complete = false,
        }
    }
    if !complete {
        // Nothing trustworthy to report (every run failed, or a metric
        // came out non-finite).
        for f in &failures {
            println!("failed check: {f}");
        }
        eprintln!("error: the run produced no complete set of metrics");
        std::process::exit(1);
    }

    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"repetitions\": {}, \"evaluator_workers\": 1, \"nproc\": {}, \"git_rev\": \"{}\", \
         \"rustc\": \"{}\", \"steal_pct\": {:.3}, \"runq_wait_pct\": {:.3}, \"wall_s\": {:.3}, \
         \"fingerprint\": \"{:016x}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        outcome.reps,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_rev(),
        command_output("rustc", &["--version"]),
        ratio((steal1 - steal0) as f64 * 100.0, (total1 - total0) as f64),
        ratio((wait1 - wait0) as f64 * 100.0 / 1e9, wall_s),
        wall_s,
        outcome.fingerprint,
    );
    println!("meta: {meta}");
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for f in &failures {
        println!("failed check: {f}");
    }
    println!(
        "{}",
        metrics::result_line(
            outcome.failed == 0 && failures.is_empty(),
            outcome.attempted,
            outcome.failed,
            &values
        )
    );
}
