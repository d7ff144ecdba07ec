//! The metric catalogue (the single source of `BENCHMARK.json`'s metric
//! lists) and the JSON the benchmark prints.

use crate::workload::Workload;

/// One metric of `BENCHMARK.json`.
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// For end-to-end metrics: the share of the parent's median by which
    /// the metric may get worse.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics a user of the system sees, printed with `--trace 0`.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s_per_sim_hour", "s", "lower", 0.25),
    e2e("plan_ms_p50", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("t_u_s", "sim-s", "lower", 0.25),
    e2e("a_u_core_s", "core-s", "lower", 0.25),
    e2e("tps_mean", "req/s", "higher", 0.05),
    e2e("plan_objective_mean", "score", "higher", 0.05),
];

/// Metrics of single layers, printed with `--trace 1`.
pub const PER_LAYER: &[Def] = &[
    layer("cluster.des_s", "s", "lower"),
    layer("cluster.events", "count", "lower"),
    layer("cluster.events.user_ready", "count", "lower"),
    layer("cluster.events.processor_check", "count", "lower"),
    layer("cluster.events.latency_done", "count", "lower"),
    layer("cluster.events.net_transit", "count", "lower"),
    layer("cluster.events.fluid_step", "count", "lower"),
    layer("cluster.events.backend_check", "count", "lower"),
    layer("cluster.events.replica_ready", "count", "lower"),
    layer("cluster.requests", "count", "higher"),
    layer("cluster.ns_per_event", "ns", "lower"),
    layer("cluster.events_per_request", "count", "lower"),
    layer("sim.wheel_ns_per_op", "ns", "lower"),
    layer("sim.ps_ns_per_op", "ns", "lower"),
    layer("probe.users_300k.ns_per_event", "ns", "lower"),
    layer("probe.contention", "ratio", "lower"),
    layer("net.transits", "count", "lower"),
    layer("spans.recorded", "count", "higher"),
    layer("spans.overhead_pct", "%", "lower"),
    layer("fluid.steps", "count", "lower"),
    layer("fluid.ms_per_step", "ms", "lower"),
    layer("controller.decide_ms", "ms", "lower"),
    layer("analyzer.instantiate_us", "us", "lower"),
    layer("planner.plan_ms", "ms", "lower"),
    layer("controller.other_ms", "ms", "lower"),
    layer("evaluator.candidates", "count", "lower"),
    layer("evaluator.hit_rate", "ratio", "higher"),
    layer("evaluator.batch_ms", "ms", "lower"),
    layer("lqn.solves", "count", "lower"),
    layer("lqn.hinted_solves", "count", "higher"),
    layer("lqn.saturated_solves", "count", "lower"),
    layer("lqn.iterations", "count", "lower"),
    layer("lqn.iterations_per_solve.cold", "count", "lower"),
    layer("lqn.iterations_per_solve.hinted", "count", "lower"),
    layer("lqn.ns_per_iteration", "ns", "lower"),
    layer("lqn.cold_solve_us", "us", "lower"),
    layer("ga.generations", "count", "lower"),
    layer("ga.evaluations", "count", "lower"),
    layer("ga.niche_dedup", "count", "lower"),
    layer("ga.self_ms", "ms", "lower"),
    layer("replay.match_rate", "ratio", "higher"),
];

/// Why each workload is in the benchmark (the `why` of `BENCHMARK.json`).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::PaperRamp => {
            "the paper's 500-to-3000-user ramp on the per-user DES: DES and planning both show, \
             next to the paper's T_u, A_u and TPS"
        }
        Workload::PlanSine => {
            "a 2 h sinusoid on the fluid backend: planning is nearly all the wall time, so \
             evaluator, LQN and GA work shows"
        }
        Workload::FabricChaos => {
            "a shopping spike over an adversarial two-rack fabric with spans and faults: \
             the only workload on the net, span, drift and fault paths"
        }
    }
}

/// Renders a float as JSON: its shortest round-trip form, all digits.
fn num(value: f64) -> String {
    format!("{value:?}")
}

/// Renders a string as JSON (the catalogue holds no characters needing
/// more than quote and backslash escapes).
fn text(value: &str) -> String {
    format!("\"{}\"", value.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The benchmark's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[(&Def, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(def, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                text(def.name),
                num(*value),
                text(def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// `BENCHMARK.json`, generated from this catalogue.
pub fn manifest(run_seconds: u64) -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                text(w.name()),
                text(why(*w))
            )
        })
        .collect();
    let defs = |defs: &[Def]| -> String {
        defs.iter()
            .map(|d| {
                let bound = d
                    .bound
                    .map(|b| format!(", \"bound\": {}", num(b)))
                    .unwrap_or_default();
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    text(d.name),
                    text(d.unit),
                    text(d.better)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        defs(END_TO_END),
        defs(PER_LAYER)
    )
}
