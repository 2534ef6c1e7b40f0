//! One pass over a workload: parse its documents, then build, run and drop a
//! machine per scenario, then export the results — each step a public call into
//! the library, timed from outside.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use syncron_harness::{toml, RunSet, Scenario, Sweep};
use syncron_mem::L1Cache;
use syncron_system::{AddressSpace, IncompleteReason, NdpMachine, RunReport};

use crate::calib::Calibration;
use crate::trace::Trace;

/// What one pass measured and produced.
#[derive(Debug)]
pub struct Pass {
    /// Parse through export, including every machine drop.
    pub wall: Duration,
    /// Parse + `WorkloadSpec::build` + `NdpMachine::new`, summed.
    pub setup: Duration,
    pub results: RunSet,
    /// The exported JSON document.
    pub export: String,
    /// Host time of the calibration slices run between scenarios (not part
    /// of `wall`), and their number.
    pub calibration: Duration,
    pub slices: u32,
}

fn begin(
    trace: &mut Option<&mut Trace>,
    name: &'static str,
    key: &str,
    parent: Option<usize>,
) -> Option<usize> {
    trace.as_mut().map(|t| t.begin(name, key, parent))
}

fn end(trace: &mut Option<&mut Trace>, span: Option<usize>) {
    if let (Some(t), Some(index)) = (trace.as_mut(), span) {
        t.end(index);
    }
}

fn parse(text: &str) -> Result<Vec<Scenario>, String> {
    let doc = toml::parse(text).map_err(|e| e.to_string())?;
    let sweep = doc
        .get("sweep")
        .ok_or("the document has no [sweep] table")?;
    Sweep::scenarios_from_value(sweep).map_err(|e| e.to_string())
}

/// Runs every scenario of `docs` once on this thread. With a trace, records a
/// span around each library call, and additionally times the workload's
/// program generation and its L1 construction on their own (after the
/// machine is dropped, so the machine's own timings are taken in the same
/// state as in an untraced pass). With a calibration, runs one slice of it
/// after every scenario and leaves the slices' time out of `wall`.
pub fn run(
    docs: &[(&str, String)],
    mut trace: Option<&mut Trace>,
    mut calibration: Option<&mut Calibration>,
) -> Result<Pass, String> {
    let mut calibrated = Duration::ZERO;
    let mut slices = 0;
    let start = Instant::now();
    let root = begin(&mut trace, "bench.pass", "", None);
    let mut setup = Duration::ZERO;
    let mut pairs = Vec::new();
    for (file, text) in docs {
        let t = Instant::now();
        let span = begin(&mut trace, "harness.parse", file, root);
        let scenarios = parse(text).map_err(|e| format!("{file}: {e}"))?;
        end(&mut trace, span);
        setup += t.elapsed();
        for scenario in scenarios {
            let report = run_scenario(&scenario, &mut trace, root, &mut setup)?;
            pairs.push((scenario, report));
            if let Some(c) = calibration.as_mut() {
                calibrated += c.slice();
                slices += 1;
            }
        }
    }
    let span = begin(&mut trace, "harness.export", "", root);
    let results = RunSet::from_pairs(pairs).map_err(|e| e.to_string())?;
    let export = black_box(results.to_json_string());
    end(&mut trace, span);
    end(&mut trace, root);
    Ok(Pass {
        wall: start.elapsed() - calibrated,
        setup,
        results,
        export,
        calibration: calibrated,
        slices,
    })
}

fn run_scenario(
    scenario: &Scenario,
    trace: &mut Option<&mut Trace>,
    root: Option<usize>,
    setup: &mut Duration,
) -> Result<RunReport, String> {
    let key = scenario.label.as_str();
    let scope = begin(trace, "bench.scenario", key, root);
    let t = Instant::now();
    let workload = scenario
        .workload
        .build()
        .map_err(|e| format!("{key}: {e}"))?;
    let config = scenario
        .config
        .to_ndp_config()
        .map_err(|e| format!("{key}: {e}"))?;
    let span = begin(trace, "system.build", key, scope);
    let built = catch_unwind(AssertUnwindSafe(|| NdpMachine::new(&config, &*workload)));
    end(trace, span);
    *setup += t.elapsed();
    let panicked = |payload: Box<dyn std::any::Any + Send>| {
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        RunReport::failed(
            workload.name(),
            scenario.config.mechanism.name(),
            IncompleteReason::Panicked(message),
        )
    };
    let mut machine = match built {
        Ok(machine) => machine,
        Err(payload) => {
            end(trace, scope);
            return Ok(panicked(payload));
        }
    };
    let span = begin(trace, "system.run", key, scope);
    let report = catch_unwind(AssertUnwindSafe(|| machine.run()));
    end(trace, span);
    let span = begin(trace, "system.drop", key, scope);
    drop(machine);
    end(trace, span);

    if trace.is_some() {
        let span = begin(trace, "workloads.generate", key, scope);
        let mut space = AddressSpace::new(config.units);
        drop(black_box(workload.build(
            &mut space,
            &config,
            &config.client_cores(),
        )));
        end(trace, span);
        let caches = config.client_cores().len() + config.units;
        let span = begin(trace, "mem.l1_new", key, scope);
        drop(black_box(
            (0..caches)
                .map(|_| L1Cache::new(config.l1))
                .collect::<Vec<_>>(),
        ));
        end(trace, span);
    }
    end(trace, scope);
    Ok(report.unwrap_or_else(panicked))
}
