//! `atom-cli run` on a malformed application spec reports an error and
//! exits 1; it never panics.

use std::process::Command;

use atom::cluster::spec::CallSpec;
use atom::cluster::{AppSpec, EndpointId, ServiceId};
use atom::sockshop::{scenarios, SockShop};

/// Runs `atom-cli run` on the example scenario with `mutate` applied to
/// its spec, returning the exit code and stderr.
fn run_with(name: &str, mutate: impl FnOnce(&mut AppSpec)) -> (Option<i32>, String) {
    let mut app = SockShop::default().app_spec();
    mutate(&mut app);
    let workload = scenarios::evaluation_workload(scenarios::ordering_mix(), 2000);
    let json = format!(
        r#"{{"app": {}, "workload": {}, "windows": 1, "window_secs": 30.0, "ga_evaluations": 20}}"#,
        serde_json::to_string(&app).unwrap(),
        serde_json::to_string(&workload).unwrap()
    );
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.json"));
    std::fs::write(&path, json).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_atom-cli"))
        .arg("run")
        .arg(&path)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(name: &str, mutate: impl FnOnce(&mut AppSpec), needle: &str) {
    let (code, stderr) = run_with(name, mutate);
    assert_eq!(code, Some(1), "{name}: stderr {stderr}");
    assert!(
        stderr.starts_with("error: invalid app spec:") && stderr.contains(needle),
        "{name}: stderr {stderr}"
    );
}

#[test]
fn cyclic_call_graph_is_an_error() {
    // carts-db.query -> front-end.carts closes front-end.carts -> carts.get
    // -> carts-db.query.
    assert_rejected(
        "cycle",
        |app| {
            app.add_call(
                ServiceId(5),
                EndpointId(0),
                ServiceId(1),
                EndpointId(2),
                1.0,
            )
        },
        "cycle",
    );
}

#[test]
fn zero_threads_is_an_error() {
    assert_rejected(
        "zero_threads",
        |app| app.services[1].threads = 0,
        "service `front-end` needs at least one thread",
    );
}

#[test]
fn zero_initial_share_is_an_error() {
    assert_rejected(
        "zero_share",
        |app| app.services[2].initial_share = 0.0,
        "service `catalogue` needs a finite CPU share",
    );
}

#[test]
fn call_to_unknown_service_is_an_error() {
    assert_rejected(
        "unknown_callee",
        |app| {
            app.services[1].endpoints[0].calls.push(CallSpec {
                service: ServiceId(99),
                endpoint: EndpointId(0),
                mean: 1.0,
            })
        },
        "calls unknown endpoint 0 of service id 99",
    );
}
