//! What the benchmark reads out of a pass's reports: output checks, the digest
//! of the simulated fields, the simulated end-to-end metrics and the per-layer
//! work counts.

use std::collections::BTreeMap;

use syncron_harness::{RunEntry, RunSet, WorkloadSpec};
use syncron_system::report::LatencyReport;
use syncron_system::{RunReport, SimPerf};
use syncron_workloads::micro::SyncPrimitive;
use syncron_workloads::service::{ArrivalProcess, ServiceShape};

/// The four compared schemes, in the order per-scheme metrics are reported.
pub const MECHANISMS: [&str; 4] = ["Central", "Hier", "SynCron", "Ideal"];

/// A geometric mean and the number of scenario groups it was taken over.
#[derive(Clone, Copy, Debug)]
pub struct GroupMean {
    pub value: f64,
    pub groups: usize,
}

/// The simulated end-to-end metrics of one workload.
#[derive(Debug)]
pub struct SimMetrics {
    pub speedup_vs_central: GroupMean,
    pub speedup_vs_hier: GroupMean,
    pub energy_ratio_central: GroupMean,
    pub data_movement_ratio_central: GroupMean,
    pub slowdown_vs_ideal: GroupMean,
    /// Median over the kv/Poisson SynCron rows of each row's percentile.
    pub p99_us: f64,
    pub p50_us: f64,
    /// Requests behind the latency percentiles, and the rows they came from.
    pub latency_samples: u64,
    pub latency_rows: usize,
}

fn mechanism(entry: &RunEntry) -> &'static str {
    entry.scenario.config.mechanism.name()
}

/// The label without its `mechanism=` fragment: rows that differ only in the
/// scheme form one group.
fn group_key(label: &str) -> String {
    label
        .split('/')
        .filter(|part| !part.starts_with("mechanism="))
        .collect::<Vec<_>>()
        .join("/")
}

/// Per group, the entry of every scheme that ran in it.
fn groups(set: &RunSet) -> BTreeMap<String, BTreeMap<&'static str, &RunEntry>> {
    let mut groups: BTreeMap<String, BTreeMap<&'static str, &RunEntry>> = BTreeMap::new();
    for entry in set.entries() {
        groups
            .entry(group_key(&entry.scenario.label))
            .or_default()
            .insert(mechanism(entry), entry);
    }
    groups
}

/// Geometric mean of `ratio(a, b)` over the groups holding both scheme `a` and
/// scheme `b` that pass `keep`. Ratios that are not finite and positive (a
/// zero on either side) are left out.
fn group_mean(
    set: &RunSet,
    a: &str,
    b: &str,
    keep: impl Fn(&WorkloadSpec) -> bool,
    ratio: impl Fn(&RunReport, &RunReport) -> f64,
) -> GroupMean {
    let logs: Vec<f64> = groups(set)
        .values()
        .filter_map(|g| Some((g.get(a)?, g.get(b)?)))
        .filter(|(x, _)| keep(&x.scenario.workload))
        .map(|(x, y)| ratio(&x.report, &y.report))
        .filter(|r| r.is_finite() && *r > 0.0)
        .map(f64::ln)
        .collect();
    let value = if logs.is_empty() {
        f64::NAN
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    };
    GroupMean {
        value,
        groups: logs.len(),
    }
}

fn is_application(spec: &WorkloadSpec) -> bool {
    matches!(
        spec,
        WorkloadSpec::Graph { .. } | WorkloadSpec::TimeSeries { .. }
    )
}

fn is_kv_poisson(spec: &WorkloadSpec) -> bool {
    matches!(
        spec,
        WorkloadSpec::Service {
            shape: ServiceShape::Kv,
            arrival: ArrivalProcess::Poisson { .. },
            ..
        }
    )
}

impl SimMetrics {
    pub fn from(set: &RunSet) -> SimMetrics {
        let all = |_: &WorkloadSpec| true;
        let latency: Vec<_> = set
            .entries()
            .iter()
            .filter(|e| mechanism(e) == "SynCron" && is_kv_poisson(&e.scenario.workload))
            .filter_map(|e| e.report.latency)
            .collect();
        // The median over rows: a row whose tail met an unlucky fault plan
        // does not move it.
        let over_rows = |f: fn(&LatencyReport) -> f64| median(latency.iter().map(f).collect());
        SimMetrics {
            speedup_vs_central: group_mean(set, "SynCron", "Central", all, |s, c| {
                s.speedup_over(c)
            }),
            speedup_vs_hier: group_mean(set, "SynCron", "Hier", all, |s, h| s.speedup_over(h)),
            energy_ratio_central: group_mean(set, "Central", "SynCron", all, |c, s| {
                c.energy_ratio_over(s)
            }),
            data_movement_ratio_central: group_mean(set, "Central", "SynCron", all, |c, s| {
                c.traffic.inter_unit_bytes as f64 / s.traffic.inter_unit_bytes as f64
            }),
            slowdown_vs_ideal: group_mean(set, "SynCron", "Ideal", is_application, |s, i| {
                s.slowdown_over(i)
            }),
            p99_us: over_rows(|l| l.p99_ns / 1e3),
            p50_us: over_rows(|l| l.p50_ns / 1e3),
            latency_samples: latency.iter().map(|l| l.ops).sum(),
            latency_rows: latency.len(),
        }
    }
}

/// Requests a latency percentile needs: at least 50 samples beyond the p99.
pub const MIN_LATENCY_SAMPLES: u64 = 5_000;

/// How many operations a scenario must report.
enum ExpectedOps {
    Exactly(u64),
    AtLeast(u64),
    /// Data-dependent, but the same under every scheme of the group.
    SameInGroup,
}

fn expected_ops(entry: &RunEntry) -> Result<ExpectedOps, String> {
    let config = entry
        .scenario
        .config
        .to_ndp_config()
        .map_err(|e| e.to_string())?;
    let clients = config.client_cores().len() as u64;
    Ok(match &entry.scenario.workload {
        WorkloadSpec::Micro {
            primitive: SyncPrimitive::CondVar,
            iterations,
            ..
        } => {
            // Every completed wait consumed at least one counted signal.
            let waits = (clients / 2).max(1) * u64::from(*iterations);
            ExpectedOps::AtLeast(2 * waits)
        }
        WorkloadSpec::Micro { iterations, .. } => {
            ExpectedOps::Exactly(clients * u64::from(*iterations))
        }
        WorkloadSpec::DataStructure { ops_per_core, .. } => {
            ExpectedOps::Exactly(clients * u64::from(*ops_per_core))
        }
        WorkloadSpec::TimeSeries {
            diagonals_per_core, ..
        } => ExpectedOps::Exactly(clients * u64::from(*diagonals_per_core)),
        // Every key-value client serves its own requests; the epoch shape's
        // reclaimer cores count epochs instead.
        WorkloadSpec::Service {
            shape: ServiceShape::Kv | ServiceShape::KvFine,
            requests,
            ..
        } => ExpectedOps::Exactly(clients * u64::from(*requests)),
        _ => ExpectedOps::SameInGroup,
    })
}

/// Output checks of one pass. Returns one line per violation, each naming the
/// scenario; an empty list means every check held.
pub fn check(set: &RunSet) -> Vec<String> {
    let mut violations = Vec::new();
    for entry in set.entries() {
        let label = &entry.scenario.label;
        let r = &entry.report;
        if !r.completed || r.incomplete.is_some() {
            let reason = r.incomplete.as_ref().map_or("incomplete", |i| i.label());
            violations.push(format!("{label}: did not complete ({reason})"));
            continue;
        }
        match expected_ops(entry) {
            Ok(ExpectedOps::Exactly(n)) if r.total_ops != n => violations.push(format!(
                "{label}: total_ops {} != expected {n}",
                r.total_ops
            )),
            Ok(ExpectedOps::AtLeast(n)) if r.total_ops < n => {
                violations.push(format!("{label}: total_ops {} < expected {n}", r.total_ops))
            }
            Err(e) => violations.push(format!("{label}: {e}")),
            _ => {}
        }
        if let Some(f) = r.faults {
            if f.dropped != f.retransmitted {
                violations.push(format!(
                    "{label}: dropped {} != retransmitted {}",
                    f.dropped, f.retransmitted
                ));
            }
            if f.duplicated != f.dup_discarded {
                violations.push(format!(
                    "{label}: duplicated {} != dup_discarded {}",
                    f.duplicated, f.dup_discarded
                ));
            }
        }
        if is_kv_poisson(&entry.scenario.workload)
            && r.latency.map_or(0, |l| l.ops) < MIN_LATENCY_SAMPLES
        {
            violations.push(format!(
                "{label}: fewer than {MIN_LATENCY_SAMPLES} latency samples"
            ));
        }
    }
    for (key, group) in groups(set) {
        let data_dependent = group
            .values()
            .any(|e| matches!(expected_ops(e), Ok(ExpectedOps::SameInGroup)));
        let ops: Vec<u64> = group.values().map(|e| e.report.total_ops).collect();
        if data_dependent && (ops[0] == 0 || ops.iter().any(|&n| n != ops[0])) {
            violations.push(format!("{key}: total_ops differ across schemes: {ops:?}"));
        }
    }
    violations
}

/// FNV-1a digest of every simulated report field (everything but `perf`), in
/// label order.
pub fn digest(set: &RunSet) -> u64 {
    let mut entries: Vec<&RunEntry> = set.entries().iter().collect();
    entries.sort_by(|a, b| a.scenario.label.cmp(&b.scenario.label));
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for entry in entries {
        let mut report = entry.report.clone();
        report.perf = SimPerf::default();
        // `Debug` prints every float with enough digits to round-trip, so
        // the text differs whenever any field's bits differ.
        let text = format!("{}\n{report:?}\n", entry.scenario.label);
        for byte in text.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Deterministic per-layer work counts of one pass, by metric name.
pub fn counts(set: &RunSet) -> Vec<(String, f64, &'static str)> {
    let entries = set.entries();
    let sum = |f: &dyn Fn(&RunReport) -> u64| entries.iter().map(|e| f(&e.report)).sum::<u64>();
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.push((name.to_string(), value, unit));
    };
    push(
        "sim.events",
        sum(&|r| r.perf.events_delivered) as f64,
        "count",
    );
    for m in MECHANISMS {
        let events: u64 = entries
            .iter()
            .filter(|e| mechanism(e) == m)
            .map(|e| e.report.perf.events_delivered)
            .sum();
        push(&format!("sim.events.{m}"), events as f64, "count");
    }
    push(
        "core.sync_requests",
        sum(&|r| r.sync.requests) as f64,
        "count",
    );
    push(
        "core.local_messages",
        sum(&|r| r.sync.local_messages) as f64,
        "count",
    );
    push(
        "core.global_messages",
        sum(&|r| r.sync.global_messages) as f64,
        "count",
    );
    push(
        "core.overflow_messages",
        sum(&|r| r.sync.overflow_messages) as f64,
        "count",
    );
    push(
        "core.sync_mem_accesses",
        sum(&|r| r.sync.mem_accesses) as f64,
        "count",
    );
    push(
        "core.signal_nacks",
        sum(&|r| r.sync.signal_nacks) as f64,
        "count",
    );
    let syncron: Vec<&RunReport> = entries
        .iter()
        .filter(|e| mechanism(e) == "SynCron")
        .map(|e| &e.report)
        .collect();
    let overflowed: u64 = syncron.iter().map(|r| r.sync.overflowed_requests).sum();
    let acquires: u64 = syncron.iter().map(|r| r.sync.acquire_requests).sum();
    push(
        "core.overflow_fraction.SynCron",
        ratio(overflowed as f64, acquires as f64),
        "ratio",
    );
    push(
        "core.st_max_occupancy.SynCron",
        syncron
            .iter()
            .map(|r| r.sync.st_max_occupancy)
            .fold(0.0, f64::max),
        "ratio",
    );
    push(
        "mem.dram_accesses",
        sum(&|r| r.dram_accesses) as f64,
        "count",
    );
    // Weighted by each run's data accesses, so the ratio is over all accesses.
    let accesses = sum(&|r| r.loads + r.stores) as f64;
    let hits: f64 = entries
        .iter()
        .map(|e| e.report.l1_hit_ratio * (e.report.loads + e.report.stores) as f64)
        .sum();
    push("mem.l1_hit_ratio", ratio(hits, accesses), "ratio");
    let inter_msgs = sum(&|r| r.traffic.inter_unit_msgs);
    push(
        "net.inter_unit_bytes",
        sum(&|r| r.traffic.inter_unit_bytes) as f64,
        "B",
    );
    push("net.inter_unit_msgs", inter_msgs as f64, "count");
    push(
        "net.intra_unit_bytes",
        sum(&|r| r.traffic.intra_unit_bytes) as f64,
        "B",
    );
    let fault = |f: fn(&syncron_system::FaultStats) -> u64| {
        entries
            .iter()
            .filter_map(|e| e.report.faults.as_ref())
            .map(f)
            .sum::<u64>()
    };
    let retransmitted = fault(|f| f.retransmitted);
    push("net.fault.dropped", fault(|f| f.dropped) as f64, "count");
    push("net.fault.retransmitted", retransmitted as f64, "count");
    push(
        "net.fault.dup_discarded",
        fault(|f| f.dup_discarded) as f64,
        "count",
    );
    push("net.fault.delayed", fault(|f| f.delayed) as f64, "count");
    push(
        "net.fault.retry_share",
        ratio(retransmitted as f64, inter_msgs as f64),
        "ratio",
    );
    out
}

/// The median of `values`; `NaN` when there are none.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
