//! End-to-end tests of the scenario subsystem through the public `syncron` facade:
//! TOML text → sweep expansion → parallel runner → keyed results → JSON export →
//! parse-back, plus the determinism guarantees the harness promises.

use syncron::harness::{json, toml};
use syncron::prelude::*;

const FIG10_MINI: &str = r#"
[sweep]
label = "mini"

[sweep.config]
units = 2
cores_per_unit = 4
mechanism = ["Central", "SynCron"]

[sweep.workload]
kind = "micro"
primitive = "lock"
interval = [100, 500]
iterations = 6
"#;

fn mini_scenarios() -> Vec<Scenario> {
    let doc = toml::parse(FIG10_MINI).expect("valid TOML");
    Sweep::scenarios_from_value(doc.get("sweep").expect("sweep table")).expect("valid sweep")
}

#[test]
fn toml_sweep_to_keyed_results() {
    let scenarios = mini_scenarios();
    assert_eq!(scenarios.len(), 4, "2 intervals x 2 mechanisms");

    let results = Runner::new().run(&scenarios).expect("runs");
    assert_eq!(results.len(), 4);
    let speedup = results
        .speedup_over(
            "mini/lock-micro.i100/mechanism=SynCron",
            "mini/lock-micro.i100/mechanism=Central",
        )
        .expect("keyed lookup");
    assert!(speedup > 1.0, "SynCron should beat Central: {speedup:.2}");
}

#[test]
fn json_export_round_trips_scenarios() {
    let scenarios = mini_scenarios();
    let results = Runner::new().threads(2).run(&scenarios).expect("runs");

    let text = results.to_json_string();
    let doc = json::parse(&text).expect("export is valid JSON");
    let rows = doc.as_array().expect("array of entries");
    assert_eq!(rows.len(), scenarios.len());
    for (row, original) in rows.iter().zip(&scenarios) {
        let parsed = Scenario::from_value(row).expect("scenario parses back");
        assert_eq!(
            &parsed, original,
            "export must preserve the scenario exactly"
        );
        assert!(
            row.get("report")
                .unwrap()
                .get("completed")
                .unwrap()
                .as_bool()
                == Some(true)
        );
    }
}

#[test]
fn scenario_files_and_code_sweeps_agree() {
    // The same sweep expressed in code must produce the same configs and workloads as
    // the TOML document (labels differ only in axis naming).
    let from_toml = mini_scenarios();
    let base = ConfigSpec::default().with_geometry(2, 4);
    let from_code = Sweep::new("mini")
        .base(base)
        .workloads([100u64, 500].map(|interval| WorkloadSpec::Micro {
            primitive: syncron::workloads::micro::SyncPrimitive::Lock,
            interval,
            iterations: 6,
        }))
        .mechanisms([
            syncron::core::MechanismKind::Central,
            syncron::core::MechanismKind::SynCron,
        ])
        .scenarios()
        .expect("valid sweep");
    assert_eq!(from_toml.len(), from_code.len());
    for (a, b) in from_toml.iter().zip(&from_code) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.workload, b.workload);
    }
}

#[test]
fn same_seed_and_scenario_are_deterministic_across_runs_and_thread_counts() {
    let scenarios = mini_scenarios();
    let runs = [
        Runner::new().threads(1).run(&scenarios).expect("runs"),
        Runner::new().threads(1).run(&scenarios).expect("runs"),
        Runner::new().threads(4).run(&scenarios).expect("runs"),
    ];
    for scenario in &scenarios {
        let baseline = &runs[0].get(&scenario.label).unwrap().report;
        for run in &runs[1..] {
            let report = &run.get(&scenario.label).unwrap().report;
            assert_eq!(report.sim_time, baseline.sim_time, "{}", scenario.label);
            assert_eq!(report.total_ops, baseline.total_ops);
            assert_eq!(report.sync_requests, baseline.sync_requests);
            assert_eq!(report.traffic, baseline.traffic);
        }
    }
    // A different seed must (in general) change the timeline of a seeded workload.
    let mut reseeded = scenarios[0].clone();
    reseeded.config.seed ^= 0xDEAD_BEEF;
    let a = scenarios[0].run().unwrap();
    let b = reseeded.run().unwrap();
    assert_eq!(a.total_ops, b.total_ops, "work amount is seed-independent");
}

#[test]
fn toml_scenario_setting_sim_threads_is_rejected() {
    // The sharded executor and its `sim_threads` knob are gone; an old scenario
    // file that still sets it must fail loudly rather than silently run.
    let text = r#"
[[scenario]]
label = "old-sharded"

[scenario.config]
units = 2
sim_threads = 4

[scenario.workload]
kind = "micro"
primitive = "lock"
interval = 100
iterations = 2
"#;
    let doc = toml::parse(text).expect("valid TOML");
    let entry = &doc
        .get("scenario")
        .and_then(|s| s.as_array())
        .expect("array")[0];
    let err = Scenario::from_value(entry).unwrap_err().to_string();
    assert!(
        err.contains("unknown config field 'sim_threads'"),
        "unexpected error: {err}"
    );
}

#[test]
fn json_config_setting_sim_threads_is_rejected() {
    let doc = json::parse(r#"{"units": 2, "sim_threads": 1}"#).expect("valid JSON");
    let err = ConfigSpec::from_value(&doc).unwrap_err().to_string();
    assert!(
        err.contains("unknown config field 'sim_threads'"),
        "unexpected error: {err}"
    );
}
