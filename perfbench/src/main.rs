//! End-to-end and per-layer benchmark of the SynCron reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-4x16 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process, one worker thread. A run first makes an untimed reference pass
//! (whose reports are checked and give the simulated metrics), then repeats the
//! workload for `--seconds`:
//!
//! * `--trace 0`: untraced passes, each followed scenario by scenario by a slice
//!   of a fixed calibration computation; prints host wall time and set-up time
//!   on a reference host (each pass's times divided by how slow its slices
//!   ran, medians over the passes), the reference pass's peak heap and the
//!   simulated end-to-end metrics.
//! * `--trace 1`: alternating untraced and traced passes; prints per-layer
//!   times (medians over the traced passes), deterministic work counts and the
//!   tracing overhead, and writes every span to a JSON file.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any failed check makes the exit code 1.
//! See `METRICS.md` for what each metric measures and which layer moves it.

mod calib;
mod heap;
mod pass;
mod results;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::{Calibration, REFERENCE_SLICE};
use pass::Pass;
use results::{median, SimMetrics, MECHANISMS};
use trace::{json_string, Trace};
use workloads::WorkloadDef;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Timed passes a run makes even when `--seconds` runs out first, so that
/// every median has several samples behind it.
const MIN_PASSES: usize = 3;

struct Args {
    workload: &'static WorkloadDef,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace"].contains(n))
            .ok_or_else(|| format!("unknown argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(name, value.as_str());
    }
    let get = |name: &str| {
        values
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a whole number"))
    };
    let name = get("workload")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (expected one of {known:?})")
    })?;
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds,
        trace,
    })
}

fn samples(values: &[f64]) -> String {
    let text: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    text.join(" ")
}

/// Scenario outcomes and check results across every pass of a run.
struct Tally {
    /// Passes after the reference pass.
    passes: usize,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    digest: u64,
}

impl Tally {
    /// Checks the reference pass in full.
    fn new(reference: &Pass) -> Tally {
        let mut violations = results::check(&reference.results);
        match syncron_harness::json::parse(&reference.export) {
            Ok(doc) if doc.as_array().map(<[_]>::len) == Some(reference.results.len()) => {}
            _ => violations.push("the JSON export does not hold one row per scenario".into()),
        }
        let mut tally = Tally {
            passes: 0,
            attempted: 0,
            failed: 0,
            violations,
            digest: results::digest(&reference.results),
        };
        tally.count(reference);
        tally
    }

    fn count(&mut self, pass: &Pass) {
        for entry in pass.results.entries() {
            self.attempted += 1;
            if !entry.report.completed {
                self.failed += 1;
            }
        }
    }

    /// A later pass must reproduce the reference pass's simulated results.
    fn record(&mut self, pass: &Pass) {
        self.passes += 1;
        self.count(pass);
        if results::digest(&pass.results) != self.digest {
            self.violations.push(format!(
                "pass {}: simulated results differ from the reference pass",
                self.passes
            ));
        }
    }
}

/// A reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark and prints its result; `Ok(false)` when a check failed.
fn run(args: &Args) -> Result<bool, String> {
    let docs = args.workload.documents(args.seed);
    let reference = pass::run(&docs, None, None)?;
    // Read before the calibration table exists: the peak of one pass.
    let peak_heap = heap::peak_mib();
    let mut tally = Tally::new(&reference);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (metrics, overhead) = if args.trace {
        let mut trace = Trace::new();
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        while traced.len() < MIN_PASSES || start.elapsed() < budget {
            if untraced.len() <= traced.len() {
                let pass = pass::run(&docs, None, None)?;
                tally.record(&pass);
                untraced.push(pass.wall.as_secs_f64());
            } else {
                trace.set_pass(traced.len());
                let pass = pass::run(&docs, Some(&mut trace), None)?;
                tally.record(&pass);
                traced.push(pass.wall.as_secs_f64());
            }
        }
        println!("untraced wall_s per pass: {}", samples(&untraced));
        println!("traced wall_s per pass: {}", samples(&traced));
        let overhead = median(traced.clone()) - median(untraced.clone());
        let metrics = layer_metrics(&trace, &reference, &untraced, &traced);
        let path = write_trace(args, &trace, &metrics, overhead)?;
        println!(
            "trace: {} spans written to {}",
            trace.spans().len(),
            path.display()
        );
        (metrics, Some(overhead))
    } else {
        let mut calibration = Calibration::new();
        let (mut walls, mut setups, mut slowness) = (Vec::new(), Vec::new(), Vec::new());
        while walls.len() < MIN_PASSES || start.elapsed() < budget {
            let pass = pass::run(&docs, None, Some(&mut calibration))?;
            tally.record(&pass);
            walls.push(pass.wall.as_secs_f64());
            setups.push(pass.setup.as_secs_f64());
            let slice = pass.calibration / pass.slices.max(1);
            slowness.push(slice.as_secs_f64() / REFERENCE_SLICE.as_secs_f64());
        }
        let on_reference = |times: &[f64]| -> Vec<f64> {
            times.iter().zip(&slowness).map(|(t, s)| t / s).collect()
        };
        let (reference_walls, reference_setups) = (on_reference(&walls), on_reference(&setups));
        println!("measured wall_s per pass: {}", samples(&walls));
        println!("measured setup_s per pass: {}", samples(&setups));
        println!(
            "host slowness per pass (calibration slice / {REFERENCE_SLICE:?}): {}",
            samples(&slowness)
        );
        println!(
            "wall_s per pass on the reference host: {}",
            samples(&reference_walls)
        );
        println!(
            "setup_s per pass on the reference host: {}",
            samples(&reference_setups)
        );
        let mut metrics = vec![
            metric("wall_s", median(reference_walls), "s"),
            metric("setup_s", median(reference_setups), "s"),
            metric("peak_heap_mb", peak_heap, "MiB"),
            metric(
                "completed_share",
                (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
                "ratio",
            ),
        ];
        metrics.extend(sim_metrics(&reference, &mut tally.violations));
        (metrics, None)
    };

    println!(
        "perfbench: workload={} seed={} scenarios={} passes={} (after one reference pass)",
        args.workload.name,
        args.seed,
        reference.results.len(),
        tally.passes
    );
    println!("context: {}", context_json(overhead));
    println!(
        "digest: {} fnv1a64={:016x} (every simulated report field, perf excluded)",
        args.workload.name, tally.digest
    );
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            tally
                .violations
                .push(format!("{name} is not a finite number"));
        }
    }
    for violation in &tally.violations {
        println!("check failed: {violation}");
    }
    let correct = tally.violations.is_empty() && tally.failed == 0;
    println!("checks: {}", if correct { "all passed" } else { "FAILED" });
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                json_string(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// The simulated end-to-end metrics, each printed beside the paper's figure.
/// An undefined metric (no scenario group to take it over) is a violation.
fn sim_metrics(reference: &Pass, violations: &mut Vec<String>) -> Vec<Metric> {
    const PRIOR: &str =
        "paper: 1.27x average and up to 1.78x over prior schemes under high contention";
    const NO_FIGURE: &str = "paper: none (open-loop service traffic goes beyond the paper)";
    let sim = SimMetrics::from(&reference.results);
    let groups = |g: results::GroupMean| {
        (
            g.value,
            format!("geometric mean over {} scenario groups", g.groups),
        )
    };
    let latency = format!(
        "median over {} kv/Poisson rows of {} requests in all, each row at least {} with 50 beyond its p99",
        sim.latency_rows,
        sim.latency_samples,
        results::MIN_LATENCY_SAMPLES
    );
    let rows = [
        ("sim_speedup_syncron_vs_central", groups(sim.speedup_vs_central), "x", PRIOR),
        ("sim_speedup_syncron_vs_hier", groups(sim.speedup_vs_hier), "x", PRIOR),
        (
            "sim_energy_ratio_central_vs_syncron",
            groups(sim.energy_ratio_central),
            "x",
            "paper: 2.08x less energy than prior schemes",
        ),
        (
            "sim_data_movement_ratio_central_vs_syncron",
            groups(sim.data_movement_ratio_central),
            "x",
            "paper: less inter-unit traffic (Figure 15); no single figure is stated",
        ),
        (
            "sim_slowdown_syncron_vs_ideal",
            groups(sim.slowdown_vs_ideal),
            "x",
            "paper: within about 10% of Ideal on real applications (graph and time-series rows only)",
        ),
        ("sim_p99_request_us_syncron", (sim.p99_us, latency.clone()), "us", NO_FIGURE),
        ("sim_p50_request_us_syncron", (sim.p50_us, latency), "us", NO_FIGURE),
    ];
    let mut out = Vec::new();
    for (name, (value, basis), unit, paper) in rows {
        println!("{name} = {value:.4} {unit} ({basis}); {paper}");
        if value.is_nan() || value <= 0.0 {
            violations.push(format!("{name} is undefined on this workload"));
        }
        out.push(metric(name, value, unit));
    }
    println!(
        "note: beyond these figures the model is unvalidated against hardware, so no error figure is given"
    );
    out
}

/// Per-layer metrics of a `--trace 1` run: medians over the traced passes of
/// each layer's time and share, the reference pass's work counts, and the
/// tracing cost.
fn layer_metrics(trace: &Trace, reference: &Pass, untraced: &[f64], traced: &[f64]) -> Vec<Metric> {
    let scheme: BTreeMap<&str, &str> = reference
        .results
        .entries()
        .iter()
        .map(|e| {
            (
                e.scenario.label.as_str(),
                e.scenario.config.mechanism.name(),
            )
        })
        .collect();
    let mut samples: BTreeMap<String, (Vec<f64>, &'static str)> = BTreeMap::new();
    for p in 0..traced.len() {
        let own = trace.self_time_by_name(p);
        let secs = |name: &str| own.get(name).map_or(0.0, Duration::as_secs_f64);
        let mut sample = |name: String, value: f64, unit: &'static str| {
            samples
                .entry(name)
                .or_insert((Vec::new(), unit))
                .0
                .push(value);
        };
        for name in own.keys().filter(|n| !n.starts_with("bench.")) {
            sample(format!("{name}_s"), secs(name), "s");
        }
        for m in MECHANISMS {
            let run: f64 = trace
                .spans()
                .iter()
                .filter(|s| {
                    s.pass == p && s.name == "system.run" && scheme.get(s.key.as_str()) == Some(&m)
                })
                .map(|s| s.duration().as_secs_f64())
                .sum();
            sample(format!("system.run_s.{m}"), run, "s");
        }
        for layer in ["bench", "harness", "mem", "system", "workloads"] {
            let total = own
                .iter()
                .filter(|(name, _)| name.split('.').next() == Some(layer))
                .map(|(_, d)| d.as_secs_f64())
                .sum();
            sample(format!("{layer}.self_s"), total, "s");
        }
        let wall: f64 = own.values().map(Duration::as_secs_f64).sum();
        let unattributed = secs("bench.pass") + secs("bench.scenario");
        sample("trace.coverage".into(), 1.0 - unattributed / wall, "ratio");
        // Shares of the pass without the two probes, which untraced passes skip.
        let base = wall - secs("workloads.generate") - secs("mem.l1_new");
        sample(
            "system.run_share".into(),
            secs("system.run") / base,
            "ratio",
        );
        let lifecycle = secs("system.build") + secs("system.drop");
        sample("system.build_drop_share".into(), lifecycle / base, "ratio");
    }
    let mut out: Vec<Metric> = samples
        .iter()
        .map(|(name, (values, unit))| metric(name, median(values.clone()), unit))
        .collect();
    let counts = results::counts(&reference.results);
    let events = counts
        .iter()
        .find(|m| m.0 == "sim.events")
        .map_or(0.0, |m| m.1);
    let run = median(samples["system.run_s"].0.clone());
    out.push(metric("sim.ns_per_event", run / events * 1e9, "ns"));
    out.extend(counts);
    let (untraced, traced) = (median(untraced.to_vec()), median(traced.to_vec()));
    out.push(metric("trace.untraced_wall_s", untraced, "s"));
    out.push(metric("trace.traced_wall_s", traced, "s"));
    out.push(metric("trace.overhead_s", traced - untraced, "s"));
    out
}

/// The host context recorded with every result.
fn context_json(overhead: Option<f64>) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"available_parallelism\": {parallelism}, \"worker_threads\": 1, \"rustc\": {}, \"commit\": {}, \"tracing_overhead_s\": {}}}",
        json_string(env!("PERFBENCH_RUSTC_VERSION")),
        json_string(&commit()),
        overhead.map_or("null".to_string(), |o| o.to_string())
    )
}

/// The commit checked out in the working directory, read from `.git` without
/// running git; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Writes the spans, per-layer metrics and host context of a traced run
/// under the build directory (`CARGO_TARGET_DIR`, else `perfbench/target`).
fn write_trace(
    args: &Args,
    trace: &Trace,
    metrics: &[Metric],
    overhead: f64,
) -> Result<PathBuf, String> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "perfbench-trace-{}-seed{}.json",
        args.workload.name, args.seed
    ));
    let layers: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "    {}: {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                json_string(name)
            )
        })
        .collect();
    let text = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"context\": {},\n  \"metrics\": {{\n{}\n  }},\n  \"spans\": {}\n}}\n",
        args.workload.name,
        args.seed,
        context_json(Some(overhead)),
        layers.join(",\n"),
        trace.to_json()
    );
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
