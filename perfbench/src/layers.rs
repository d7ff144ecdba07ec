//! Layer probes that run a library component in isolation: the timer
//! wheel and the PS processor at a workload's pending-event and
//! active-job counts, a fluid-backend pass over a workload's population,
//! and the per-user DES at a population far larger than the CPU caches.

use std::hint::black_box;
use std::time::Instant;

use atom_cluster::{AppSpec, BackendMode, Cluster, ClusterOptions};
use atom_core::workload::{RequestMix, WorkloadSpec};
use atom_sim::{GroupId, PsProcessor, TimerWheel};

use crate::workload::Scenario;

/// A small deterministic generator for probe inputs (splitmix64), kept
/// here so the probes do not depend on the simulator's RNG.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Exponential draw with the given mean.
    fn exp(&mut self, mean: f64) -> f64 {
        let u = ((self.next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        -mean * u.ln()
    }
}

/// Median of the per-operation cost over `batches` timed batches of
/// `ops` operations each, in nanoseconds.
fn median_ns_per_op(batches: usize, ops: usize, mut batch: impl FnMut(usize)) -> f64 {
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let started = Instant::now();
            batch(ops);
            started.elapsed().as_secs_f64() * 1e9 / ops as f64
        })
        .collect();
    crate::stats::median(&mut samples)
}

/// Nanoseconds per timer-wheel operation (one push or one pop) in the
/// classic hold model: `pending` events with exponential think-time
/// offsets, then pop the earliest and push its successor.
pub fn wheel_ns_per_op(pending: usize, think: f64, seed: u64) -> f64 {
    let mut rng = Mix(seed);
    let mut wheel = TimerWheel::new();
    for i in 0..pending {
        wheel.push(rng.exp(think), i);
    }
    let ops = 400_000;
    median_ns_per_op(5, ops, |ops| {
        for _ in 0..ops / 2 {
            let (t, e) = black_box(wheel.pop()).expect("hold model never drains");
            wheel.push(t + rng.exp(think), e);
        }
    })
}

/// Nanoseconds per PS-processor operation cycle (next completion, remove
/// the finished job, add a new one) with `jobs` active jobs on a 4-core
/// processor split over 4 capped groups.
pub fn ps_ns_per_op(jobs: usize, seed: u64) -> f64 {
    let mut rng = Mix(seed);
    let mut ps = PsProcessor::new(4.0, 1.0);
    let groups: Vec<GroupId> = (0..4).map(|_| ps.add_group(1.0)).collect();
    for i in 0..jobs {
        ps.add_job(0.0, groups[i % groups.len()], rng.exp(0.005));
    }
    let mut now = 0.0;
    let mut next_group = 0usize;
    let ops = (4_000_000 / jobs.max(1)).clamp(200, 100_000);
    median_ns_per_op(5, ops, |ops| {
        for _ in 0..ops {
            let (t, job) = black_box(ps.next_completion(now)).expect("jobs are always active");
            now = t;
            black_box(ps.remove_job(now, job));
            ps.add_job(now, groups[next_group], rng.exp(0.005));
            next_group = (next_group + 1) % groups.len();
        }
    })
}

/// Wall milliseconds per fluid step over `scenario`'s spec and population
/// on the fluid backend with no controller, and the step count.
pub fn fluid_probe(scenario: &Scenario) -> (f64, u64) {
    let options = scenario
        .experiment
        .cluster
        .clone()
        .with_backend(BackendMode::Fluid);
    let mut cluster = Cluster::new(&scenario.spec, scenario.workload.clone(), options)
        .expect("fluid probe cluster");
    let started = Instant::now();
    for _ in 0..scenario.experiment.windows {
        cluster.run_window(scenario.experiment.window_secs);
        drop(cluster.take_spans());
    }
    let wall = started.elapsed().as_secs_f64();
    let steps = cluster.telemetry().fluid_step_events;
    (crate::stats::ratio(wall * 1e3, steps as f64), steps)
}

/// Population of the large-N probe.
pub const LARGE_N: usize = 300_000;

/// The one-service spec `repro scale` uses, sized so `users` load it to
/// 65 % (5 ms demand, 7 s think time, 4 replicas).
fn scale_spec(users: usize) -> AppSpec {
    let capacity = (users as f64 / 7.0 * 0.005 / 0.65).max(0.5);
    let mut spec = AppSpec::new();
    let node = spec.add_server("hub", capacity.ceil() as usize + 2, 1.0);
    let svc = spec.add_service("api", node, 1 << 14, 4, capacity / 4.0);
    let ep = spec.add_endpoint(svc, "op", 0.005, 1.0);
    spec.add_feature("op", svc, ep);
    spec.service_mut(svc).max_replicas = 16;
    spec
}

/// Nanoseconds per DES event and event count of the per-user DES at
/// [`LARGE_N`] users over `horizon` simulated seconds, no controller.
/// The pending-event set is far larger than the CPU caches here.
pub fn large_n_probe(seed: u64, horizon: f64) -> (f64, u64) {
    let spec = scale_spec(LARGE_N);
    let workload = WorkloadSpec::constant(RequestMix::uniform(1), LARGE_N, 7.0);
    let mut cluster = Cluster::new(&spec, workload, ClusterOptions::new().with_seed(seed))
        .expect("large-N probe cluster");
    let started = Instant::now();
    for _ in 0..4 {
        cluster.run_window(horizon / 4.0);
    }
    let wall = started.elapsed().as_secs_f64();
    let events = cluster.telemetry().total_events();
    (crate::stats::ratio(wall * 1e9, events as f64), events)
}
