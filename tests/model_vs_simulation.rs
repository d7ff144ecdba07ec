//! Cross-crate integration: the analytic solvers must agree with the one
//! discrete-event simulator, the cluster testbed, within the paper's
//! validation tolerances (§III-C). Each system is described once, as an
//! `AppSpec`: the LQN is derived from it by `ModelBinding::from_app_spec`
//! and the cluster runs the same spec.

use atom::cluster::{AppSpec, Cluster, ClusterOptions, WindowReport};
use atom::core::ModelBinding;
use atom::lqn::analytic::{solve, SolverOptions};
use atom::lqn::LqnSolution;
use atom::mva::{closed::solve_exact, ClassSpec, ClosedNetwork, Station};
use atom::sockshop::SockShop;
use atom::workload::{RequestMix, WorkloadSpec};

const MIX: [f64; 3] = [0.57, 0.29, 0.14];

/// Runs `spec` under a constant closed workload and returns the window
/// measured after discarding `warmup` seconds.
fn measure(
    spec: &AppSpec,
    mix: &[f64],
    users: usize,
    think: f64,
    seed: u64,
    (warmup, horizon): (f64, f64),
) -> WindowReport {
    let workload = WorkloadSpec::constant(RequestMix::new(mix.to_vec()).unwrap(), users, think);
    let options = ClusterOptions::new().with_seed(seed);
    let mut cluster = Cluster::new(spec, workload, options).unwrap();
    cluster.run_window(warmup);
    cluster.run_window(horizon)
}

/// The LQN derived from `spec`, solved analytically.
fn analytic(spec: &AppSpec, mix: &[f64], users: usize, think: f64) -> (ModelBinding, LqnSolution) {
    let binding = ModelBinding::from_app_spec(spec, users, think, mix).unwrap();
    let solution = solve(&binding.model, SolverOptions::default()).unwrap();
    (binding, solution)
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b
}

/// One service of `c` threads, parallelism `c` and share `c` on a server
/// with enough cores: an exponential FCFS `c`-server station.
fn product_form_station(c: usize, demand: f64) -> AppSpec {
    let mut spec = AppSpec::new();
    let node = spec.add_server("cpu", 64, 1.0);
    let svc = spec.add_service("svc", node, c, 1, c as f64);
    spec.service_mut(svc).parallelism = Some(c);
    let op = spec.add_endpoint(svc, "op", demand, 1.0);
    spec.add_feature("op", svc, op);
    spec
}

#[test]
fn analytic_matches_cluster_across_populations_and_seeds() {
    let shop = SockShop::default();
    let spec = shop.validation_app_spec(false);
    for users in [1000usize, 2000, 3000] {
        let (_, model) = analytic(&spec, &MIX, users, 7.0);
        for seed in [1u64, 2, 3] {
            let measured = measure(&spec, &MIX, users, 7.0, seed, (150.0, 750.0));
            assert!(
                rel(model.client_throughput, measured.total_tps) < 0.08,
                "N={users} seed {seed}: analytic {} vs cluster {}",
                model.client_throughput,
                measured.total_tps
            );
        }
    }
}

#[test]
fn analytic_matches_cluster_testbed_on_sockshop() {
    let shop = SockShop::default();
    let users = 2000;
    let spec = shop.validation_app_spec(false);
    let (binding, model) = analytic(&spec, &MIX, users, 7.0);
    let measured = measure(&spec, &MIX, users, 7.0, 1, (200.0, 900.0));

    assert!(
        rel(model.client_throughput, measured.total_tps) < 0.08,
        "analytic {} vs cluster {}",
        model.client_throughput,
        measured.total_tps
    );
    // Per-service utilisations within the paper's 10% band.
    for (si, svc) in binding.services.iter().enumerate() {
        let m = model.task_utilization(svc.task);
        let s = measured.service_utilization[si];
        assert!(
            (m - s).abs() < 0.10 * s.max(0.05),
            "{}: model {m} vs measured {s}",
            svc.name
        );
    }
}

#[test]
fn cluster_agrees_with_derived_model_on_both_placements() {
    let shop = SockShop::default();
    let users = 1500;
    for single_host in [false, true] {
        let spec = shop.validation_app_spec(single_host);
        let (_, model) = analytic(&spec, &MIX, users, 7.0);
        let measured = measure(&spec, &MIX, users, 7.0, 3, (150.0, 750.0));
        assert!(
            rel(model.client_throughput, measured.total_tps) < 0.05,
            "single host {single_host}: analytic {} vs cluster {}",
            model.client_throughput,
            measured.total_tps
        );
    }
}

#[test]
fn cluster_matches_exact_mva_on_product_form_stations() {
    // c = 1 is the machine-repairman model: 8 users, Z = 2 s, D = 0.5 s.
    for c in [1usize, 2, 4] {
        let (demand, users, think) = (0.5, 8 * c, 2.0);
        let measured = measure(
            &product_form_station(c, demand),
            &[1.0],
            users,
            think,
            11,
            (800.0, 3200.0),
        );
        let exact = solve_exact(
            &ClosedNetwork::new(
                vec![Station::queueing("svc", c, vec![demand])],
                vec![ClassSpec::new("users", users, think)],
            )
            .unwrap(),
        )
        .unwrap();
        let (x, r) = (exact.throughput[0], exact.response_time[0]);
        assert!(
            rel(measured.total_tps, x) < 0.05,
            "c={c}: cluster X {} vs exact {x}",
            measured.total_tps
        );
        assert!(
            rel(measured.feature_response[0], r) < 0.10,
            "c={c}: cluster R {} vs exact {r}",
            measured.feature_response[0]
        );
    }
}

#[test]
fn share_cap_limits_throughput() {
    // One single-threaded replica capped at half a core: capacity
    // 0.5 / 0.01 = 50 requests/s, whatever the offered load.
    let mut spec = product_form_station(1, 0.01);
    spec.services[0].initial_share = 0.5;
    let x = measure(&spec, &[1.0], 500, 1.0, 5, (100.0, 400.0)).total_tps;
    assert!(x > 45.0 && x < 51.0, "X={x}");
}

#[test]
fn analytic_matches_cluster_on_layered_two_tier() {
    let mut spec = AppSpec::new();
    let s1 = spec.add_server("s1", 4, 1.0);
    let s2 = spec.add_server("s2", 1, 1.0);
    let web = spec.add_service("web", s1, 50, 2, 2.0);
    let db = spec.add_service("db", s2, 8, 1, 1.0);
    let page = spec.add_endpoint(web, "page", 0.004, 1.0);
    let query = spec.add_endpoint(db, "query", 0.01, 1.0);
    spec.add_call(web, page, db, query, 1.0);
    spec.add_feature("page", web, page);

    let (_, model) = analytic(&spec, &[1.0], 100, 2.0);
    let measured = measure(&spec, &[1.0], 100, 2.0, 3, (400.0, 1600.0));
    assert!(
        rel(model.client_throughput, measured.total_tps) < 0.10,
        "analytic {} vs cluster {}",
        model.client_throughput,
        measured.total_tps
    );
    let (m, s) = (
        model.processor_utilization[1],
        measured.server_utilization[1],
    );
    assert!(
        (m - s).abs() < 0.08,
        "db server: model U {m} vs measured U {s}"
    );
}

#[test]
fn fractional_call_means_average_out() {
    let mut spec = AppSpec::new();
    let node = spec.add_server("cpu", 8, 1.0);
    let svc = spec.add_service("svc", node, 16, 1, 8.0);
    let root = spec.add_endpoint(svc, "root", 0.001, 1.0);
    let a = spec.add_endpoint(svc, "a", 0.001, 1.0);
    let b = spec.add_endpoint(svc, "b", 0.001, 1.0);
    spec.add_call(svc, root, svc, a, 0.7);
    spec.add_call(svc, root, svc, b, 0.3);
    spec.add_feature("root", svc, root);
    let measured = measure(&spec, &[1.0], 50, 1.0, 9, (400.0, 1600.0));
    let tps = &measured.endpoint_tps[0];
    let ratio = tps[a.0] / tps[b.0];
    assert!((ratio - 7.0 / 3.0).abs() < 0.15, "ratio {ratio}");
}
