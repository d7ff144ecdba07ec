//! The benchmark's workloads. Each builds one Sock Shop scenario (spec,
//! knowledge base, population, cluster options and ATOM configuration).
//!
//! The simulated trajectory of a workload is part of its definition: the
//! cluster RNG and the controller's GA run from [`SCENARIO_SEED`], so the
//! simulated-time metrics are exact regression guards and the wall-clock
//! metrics time the same work on every run. The `--seed` of a run picks
//! what does not steer the trajectory: the span-sampling subset, and the
//! inputs of the layer probes. One seed always gives the same inputs.

use atom_bench::figures::chaos::chaos_schedule;
use atom_bench::figures::netlat::Placement;
use atom_cluster::{AppSpec, BackendMode, ClusterOptions, NetworkDelay};
use atom_core::workload::{LoadProfile, WorkloadSpec};
use atom_core::{AtomConfig, ExperimentConfig, ModelBinding};
use atom_ga::Budget;
use atom_sockshop::{scenarios, SockShop};

/// One named workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §V-B protocol on the per-user DES.
    PaperRamp,
    /// ATOM on the fluid backend under a two-hour sinusoid: planning-bound.
    PlanSine,
    /// ATOM on the per-user DES over an adversarial two-rack fabric, with
    /// span sampling and the chaos fault schedule.
    FabricChaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperRamp,
        Workload::PlanSine,
        Workload::FabricChaos,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRamp => "paper-ramp",
            Workload::PlanSine => "plan-sine",
            Workload::FabricChaos => "fabric-chaos",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seed of every workload's cluster RNG and controller GA. Different
/// trajectories differ in their work: across scenario seeds 11-15,
/// `paper-ramp`'s median plan time ranged 339-821 ms and its T_u
/// 900-2100 s, spreads no bound on a regression could absorb.
pub const SCENARIO_SEED: u64 = 42;

/// Span sampling rate of `fabric-chaos` (and of the spans-on side of the
/// span-overhead measurement on the other workloads).
pub const SPAN_RATE: f64 = 0.02;

/// Everything one run of a workload needs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The simulated application.
    pub spec: AppSpec,
    /// ATOM's knowledge base.
    pub binding: ModelBinding,
    /// The closed user population.
    pub workload: WorkloadSpec,
    /// Window count, window length and cluster options.
    pub experiment: ExperimentConfig,
    /// The controller configuration.
    pub atom: AtomConfig,
}

impl Scenario {
    /// Builds `workload` with span-sampling seed `seed`. `quick` keeps
    /// the 300 s windows but runs four of them on a smaller population
    /// with a smaller GA budget, so a whole run takes about a second
    /// (used by the benchmark's own tests, never by measured runs).
    pub fn build(workload: Workload, seed: u64, quick: bool) -> Scenario {
        let shop = SockShop::default();
        let spec = shop.app_spec();
        let (windows, window_secs) = match (workload, quick) {
            (Workload::PaperRamp, false) => (8, scenarios::WINDOW_SECS),
            (Workload::PlanSine, false) => (24, scenarios::WINDOW_SECS),
            (Workload::FabricChaos, false) => (8, scenarios::WINDOW_SECS),
            (_, true) => (4, scenarios::WINDOW_SECS),
        };
        let horizon = windows as f64 * window_secs;
        let population = match (workload, quick) {
            (Workload::PaperRamp, false) => {
                scenarios::evaluation_workload(scenarios::ordering_mix(), 3000)
            }
            (Workload::PaperRamp, true) => {
                scenarios::evaluation_workload(scenarios::ordering_mix(), 900)
            }
            (Workload::PlanSine, _) => WorkloadSpec::new(
                scenarios::ordering_mix(),
                scenarios::THINK_TIME,
                LoadProfile::Sinusoidal {
                    mean: 1800,
                    amplitude: 1200,
                    period: if quick { horizon } else { 7200.0 },
                },
            ),
            (Workload::FabricChaos, _) => WorkloadSpec::new(
                scenarios::shopping_mix(),
                scenarios::THINK_TIME,
                LoadProfile::Spike {
                    baseline: scenarios::INITIAL_USERS,
                    spike: if quick { 900 } else { 2500 },
                    start: 0.25 * horizon,
                    duration: 0.5 * horizon,
                },
            ),
        };
        let mut cluster = ClusterOptions::new().with_seed(SCENARIO_SEED);
        let mut binding = shop.binding(
            scenarios::INITIAL_USERS,
            population.think_time,
            population.mix.fractions(),
        );
        match workload {
            Workload::PaperRamp => {}
            Workload::PlanSine => cluster = cluster.with_backend(BackendMode::Fluid),
            Workload::FabricChaos => {
                let topology = Placement::Adversarial.topology();
                binding.apply_network(&NetworkDelay::new(topology.clone()));
                cluster = cluster
                    .with_topology(topology)
                    .with_span_sampling(SPAN_RATE, seed)
                    .with_span_tail(true)
                    .with_faults(chaos_schedule(horizon, window_secs));
            }
        }
        let mut atom = AtomConfig::new(shop.objective());
        atom.ga.budget = Budget::Evaluations(if quick { 120 } else { 600 });
        atom.seed = SCENARIO_SEED;
        Scenario {
            spec,
            binding,
            workload: population,
            experiment: ExperimentConfig {
                windows,
                window_secs,
                cluster,
            },
            atom,
        }
    }

    /// Simulated seconds one run covers.
    pub fn horizon(&self) -> f64 {
        self.experiment.windows as f64 * self.experiment.window_secs
    }

    /// Whether the cluster samples request spans.
    pub fn spans_on(&self) -> bool {
        self.experiment.cluster.span_sample_rate > 0.0 || self.experiment.cluster.span_tail
    }

    /// The same scenario with span sampling flipped (on at [`SPAN_RATE`]
    /// with tail sampling, or off) — the other side of the span-overhead
    /// measurement. Sampling is observational, so the trajectory is the
    /// same.
    pub fn with_spans_flipped(&self, seed: u64) -> Scenario {
        let mut flipped = self.clone();
        let rate = if self.spans_on() { 0.0 } else { SPAN_RATE };
        flipped.experiment.cluster = flipped
            .experiment
            .cluster
            .with_span_sampling(rate, seed)
            .with_span_tail(rate > 0.0);
        flipped
    }
}
