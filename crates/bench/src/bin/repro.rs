//! `repro` — regenerate every table and figure of the ATOM paper.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--seed N] [--out DIR] [--trace-out FILE]
//!       [--metrics-out FILE] [--spans-out FILE] [--trace-file FILE]
//!       [--format alibaba|google] [--quiet] [--verbose] <command> [command...]
//! commands: fig2 fig4 table3 fig5 table4 fig7 fig8 fig9 fig10 fig11
//!           fig12 fig13 setup validation evaluation ablation chaos
//!           forecast trace audit all
//! ```
//!
//! `repro --smoke` runs a short ATOM + UH pair, exports the decision
//! journal, and re-parses every emitted JSONL line through the
//! `atom-obs` schema — the schema-stability gate CI runs on every
//! commit. With `--trace-out`/`--metrics-out` the artefacts are also
//! written to disk. `repro --smoke <command>` runs that command's own
//! gate instead, for `chaos`, `forecast`, `trace`, `contention`,
//! `netlat`, `audit` and `scale`.

use atom_bench::eval::{run_one, ScalerKind};
use atom_bench::figures::{
    ablation, audit, chaos, contention, fig11, fig12, fig13, fig2, fig4, fig7, fig8910, forecast,
    netlat, scale, trace_replay, validation,
};
use atom_bench::{eval, trace, HarnessOptions};
use atom_core::workload::TraceFormat;
use atom_obs::{Journal, Record};
use atom_sockshop::{scenarios, SockShop};

fn print_setup() {
    atom_obs::info!("== Tables I/V/VI: experimental setup (encoded constants) ==");
    atom_obs::info!(
        "Table I  : case A: N=1000, fe share 0.2; case B: N=4000, fe share 1.0; mix 57/29/14, Z=7s"
    );
    atom_obs::info!("Table V  : server-1: 4 cores @1.2 (router, front-end, carts-db)");
    atom_obs::info!("           server-2: 4 cores @0.8 (catalogue, carts, catalogue-db)");
    atom_obs::info!("Table VI : browsing 63/32/5, shopping 54/26/20, ordering 33/17/50; N in {{1000,2000,3000}}, Z=7s");
    atom_obs::info!("protocol : 40-minute runs, workload ramps 500->N over the first 25 minutes, 5-minute windows");
}

/// The schema-stability smoke gate: run a short experiment pair, emit
/// the journal, and require every line to parse back through the
/// `atom-obs` record types with the expected per-window content.
fn smoke(opts: &HarnessOptions) {
    let shop = SockShop::default();
    let windows = 3usize;
    let mut results = Vec::new();
    for kind in [ScalerKind::Uh, ScalerKind::Atom] {
        atom_obs::progress!("smoke: running {} ({windows} windows)", kind.name());
        let workload = scenarios::evaluation_workload(scenarios::ordering_mix(), 1500);
        results.push(run_one(&shop, workload, kind, windows, 120.0, opts));
    }
    trace::emit(opts, &results);

    // Validate the JSONL exactly as a consumer would see it: from the
    // file when --trace-out was given, from the in-memory rendering
    // otherwise.
    let jsonl = match &opts.trace_out {
        Some(path) => std::fs::read_to_string(path).expect("read back the emitted journal"),
        None => trace::journal_of(&results).to_jsonl(),
    };
    let mut failures = Vec::new();
    let events = match Journal::parse_jsonl(&jsonl) {
        Ok(events) => events,
        Err(e) => {
            atom_obs::error!("smoke FAILED: emitted journal does not re-parse: {e}");
            std::process::exit(1);
        }
    };
    let decisions: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.record {
            Record::Decision(d) => Some(d),
            _ => None,
        })
        .collect();
    let runs = events
        .iter()
        .filter(|e| matches!(e.record, Record::Run(_)))
        .count();
    if decisions.len() != results.len() * windows {
        failures.push(format!(
            "expected {} decision records ({} scalers x {windows} windows), found {}",
            results.len() * windows,
            results.len(),
            decisions.len()
        ));
    }
    if runs != results.len() {
        failures.push(format!(
            "expected {} run records, found {runs}",
            results.len()
        ));
    }
    for d in decisions.iter().filter(|d| d.scaler == "ATOM") {
        let Some(ev) = &d.evaluator else {
            failures.push(format!(
                "ATOM window {} journals no evaluator counters",
                d.window
            ));
            continue;
        };
        if ev.solves == 0 || ev.solver_iterations == 0 {
            failures.push(format!(
                "ATOM window {}: empty solver counters ({} solves, {} iterations)",
                d.window, ev.solves, ev.solver_iterations
            ));
        }
        if d.ga.is_none() {
            failures.push(format!("ATOM window {} journals no GA stats", d.window));
        }
    }
    if failures.is_empty() {
        atom_obs::info!(
            "smoke OK: {} journal events re-parse ({} decisions, {runs} run summaries)",
            events.len(),
            decisions.len()
        );
    } else {
        for msg in &failures {
            atom_obs::error!("smoke FAILED: {msg}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let mut opts = HarnessOptions::default();
    let mut commands: Vec<String> = Vec::new();
    let mut run_smoke = false;
    let mut users: usize = 1_000_000;
    let mut trace_file: Option<std::path::PathBuf> = None;
    let mut trace_format: Option<TraceFormat> = None;
    let (mut quiet, mut verbose) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--quiet" => quiet = true,
            "--verbose" => verbose = true,
            "--smoke" => {
                run_smoke = true;
                opts.quick = true;
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            "--users" => {
                users = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .expect("--users needs a positive integer");
            }
            "--out" => {
                opts.out_dir = args.next().expect("--out needs a directory").into();
            }
            "--trace-out" => {
                opts.trace_out = Some(args.next().expect("--trace-out needs a file path").into());
            }
            "--trace-file" => {
                trace_file = Some(args.next().expect("--trace-file needs a file path").into());
            }
            "--format" => {
                trace_format = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--format needs `alibaba` or `google`"),
                );
            }
            "--metrics-out" => {
                opts.metrics_out =
                    Some(args.next().expect("--metrics-out needs a file path").into());
            }
            "--spans-out" => {
                opts.spans_out = Some(args.next().expect("--spans-out needs a file path").into());
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--quick] [--smoke] [--seed N] [--users N] [--out DIR] \
                     [--trace-out FILE] [--metrics-out FILE] [--spans-out FILE] \
                     [--trace-file FILE] [--format alibaba|google] [--quiet] [--verbose] \
                     <command>...\n\
                     commands: setup fig2 fig4 table3 fig5 table4 validation fig7 \
                     fig8 fig9 fig10 evaluation fig11 fig12 fig13 ablation chaos forecast \
                     trace contention netlat scale audit all\n\
                     chaos: ATOM vs UH vs UV under a fault schedule (writes chaos.csv, \
                     chaos_availability.csv); `chaos --smoke` enforces the wedging, \
                     no-action, and restored-availability gates\n\
                     forecast: reactive vs proactive ATOM on ramp, bursty, and diurnal \
                     workloads (writes forecast.csv); `forecast --smoke` enforces the \
                     proactive<=reactive, wedging, window-count, and forecast-record gates\n\
                     trace: replay a production arrival trace (--trace-file, --format; \
                     defaults to the bundled fixtures); `trace --smoke` enforces the \
                     journal-schema, wedging, and proactive<=reactive gates\n\
                     contention: multi-tenant placement/admission matrix (2 and 4 \
                     tenants on ample and tight pools); `contention --smoke` enforces \
                     the fairness, ledger-reconciliation, and rejection gates\n\
                     netlat: placement-sensitive scaling under the network fabric \
                     (friendly vs adversarial rack assignment); `netlat --smoke` \
                     enforces the placement-degradation and network-drift gates\n\
                     scale: backend scaling trajectory up to --users (default 1000000); \
                     `scale --smoke` enforces the wall-clock and speedup gates\n\
                     audit: span sampling + LQN model-drift attribution (writes \
                     drift.csv, audit_attribution.csv, and --spans-out as Chrome \
                     trace-event JSON); `audit --smoke` enforces the drift-finiteness, \
                     sMAPE-bound, attribution-reconciliation, and trace-re-parse gates"
                );
                return;
            }
            other => commands.push(other.to_string()),
        }
    }
    atom_obs::log::configure(quiet, verbose);
    if run_smoke {
        // `--smoke <command>` runs that command's own gate; the bare
        // `--smoke` remains the journal-schema gate.
        if commands.iter().any(|c| c == "scale") {
            std::fs::create_dir_all(&opts.out_dir).expect("create output dir");
            scale::run(&opts, users, true);
        } else if commands.iter().any(|c| c == "trace") {
            trace_replay::smoke(&opts);
        } else if commands.iter().any(|c| c == "chaos") {
            chaos::smoke(&opts);
        } else if commands.iter().any(|c| c == "forecast") {
            forecast::smoke(&opts);
        } else if commands.iter().any(|c| c == "contention") {
            std::fs::create_dir_all(&opts.out_dir).expect("create output dir");
            contention::smoke(&opts);
        } else if commands.iter().any(|c| c == "audit") {
            std::fs::create_dir_all(&opts.out_dir).expect("create output dir");
            audit::smoke(&opts);
        } else if commands.iter().any(|c| c == "netlat") {
            std::fs::create_dir_all(&opts.out_dir).expect("create output dir");
            netlat::smoke(&opts);
        } else {
            smoke(&opts);
        }
        return;
    }
    if commands.is_empty() {
        commands.push("all".into());
    }
    const KNOWN: [&str; 24] = [
        "setup",
        "fig2",
        "fig4",
        "table3",
        "fig5",
        "table4",
        "validation",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "evaluation",
        "fig11",
        "fig12",
        "fig13",
        "ablation",
        "chaos",
        "forecast",
        "trace",
        "contention",
        "netlat",
        "scale",
        "audit",
        "all",
    ];
    for c in &commands {
        if !KNOWN.contains(&c.as_str()) {
            atom_obs::error!("unknown command `{c}`; run with --help for the list");
            std::process::exit(2);
        }
    }
    std::fs::create_dir_all(&opts.out_dir).expect("create output dir");

    let wants = |what: &str| {
        commands.iter().any(|c| c == what || c == "all")
            || (matches!(what, "table3" | "fig5" | "table4")
                && commands.iter().any(|c| c == "validation"))
            || (matches!(what, "fig8" | "fig9" | "fig10")
                && commands.iter().any(|c| c == "evaluation"))
    };

    if wants("setup") {
        print_setup();
    }
    if wants("fig2") {
        fig2::run(&opts);
    }
    if wants("fig4") {
        fig4::run(&opts);
    }
    if wants("table3") || wants("fig5") || wants("table4") {
        atom_obs::progress!("running the Table II validation sweep (12 runs)...");
        let runs = validation::sweep(&opts);
        if wants("table3") {
            validation::table3(&runs, &opts);
        }
        if wants("fig5") {
            validation::fig5(&runs, &opts);
        }
        if wants("table4") {
            validation::table4(&runs, &opts);
        }
    }
    if wants("fig7") {
        fig7::run(&opts);
    }
    if wants("fig8") || wants("fig9") || wants("fig10") {
        atom_obs::progress!("running the evaluation matrix (27 runs)...");
        let matrix = eval::evaluation_matrix(&opts);
        if wants("fig8") {
            fig8910::fig8(&matrix, &opts);
        }
        if wants("fig9") {
            fig8910::fig9(&matrix, &opts);
        }
        if wants("fig10") {
            fig8910::fig10(&matrix, &opts);
        }
    }
    if wants("fig11") {
        fig11::run(&opts);
    }
    if wants("fig12") {
        fig12::run(&opts);
    }
    if wants("fig13") {
        fig13::run(&opts);
    }
    if wants("ablation") {
        ablation::run(&opts);
    }
    if wants("chaos") {
        let results = chaos::run(&opts);
        trace::emit(&opts, &results);
    }
    if wants("forecast") {
        let results = forecast::run(&opts);
        trace::emit(&opts, &results);
    }
    if wants("trace") {
        let results = trace_replay::run(&opts, trace_file.as_deref(), trace_format);
        trace::emit(&opts, &results);
    }
    if wants("audit") {
        let results = audit::run(&opts);
        trace::emit(&opts, &results);
    }
    if wants("contention") {
        contention::run(&opts);
    }
    if wants("netlat") {
        netlat::run(&opts);
    }
    // `scale` is a performance trajectory, not a paper artefact: it runs
    // only when asked for explicitly, never as part of `all`.
    if commands.iter().any(|c| c == "scale") {
        scale::run(&opts, users, false);
    }
    atom_obs::info!("\nartefacts written to {}", opts.out_dir.display());
}
