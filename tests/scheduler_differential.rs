//! Full-machine differential tests of the scheduler rework.
//!
//! The calendar-queue scheduler (with inline dispatch) and the reference
//! `BinaryHeap` scheduler (without it) must produce **bit-identical** reports for
//! every scenario in the bundled corpus: same simulated time, ops, traffic,
//! energy, synchronization statistics — everything except the host-side
//! [`SimPerf`] counters, which depend on the wall clock.
//!
//! The corpus is the real scenario files under `scenarios/` (the paper's
//! Figure 10 sweeps plus the 4096-core scale-out), loaded through the same TOML
//! path the CLI uses, so the test also covers the `scheduler` /
//! `inline_step_budget` config plumbing end to end.

use syncron::harness::toml;
use syncron::prelude::*;
use syncron::system::report::SimPerf;

/// Loads the `[sweep]` scenarios of a bundled file.
fn load_sweep(name: &str) -> Vec<Scenario> {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = toml::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    Sweep::scenarios_from_value(doc.get("sweep").expect("sweep table"))
        .unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Runs one scenario under both schedulers and asserts report equality.
fn assert_schedulers_agree(scenario: &Scenario) -> RunReport {
    let mut calendar = scenario.clone();
    calendar.config = calendar
        .config
        .with_scheduler(SchedulerKind::Calendar)
        .with_inline_step_budget(64);
    let mut heap = scenario.clone();
    heap.config = heap
        .config
        .with_scheduler(SchedulerKind::Heap)
        .with_inline_step_budget(0);

    let calendar_report = calendar.run().expect("calendar run");
    let heap_report = heap.run().expect("heap run");
    if let Some(field) = heap_report.divergence_from(&calendar_report) {
        panic!(
            "{}: calendar scheduler diverged from the heap reference in {field}",
            scenario.label
        );
    }
    // The event-count semantics are shared too: inline-dispatched steps count
    // exactly like queue round-trips, so both runs deliver the same events.
    assert_eq!(
        heap_report.perf.events_delivered, calendar_report.perf.events_delivered,
        "{}: delivered-event accounting diverged",
        scenario.label
    );
    calendar_report
}

/// Runs one scenario with message batching on and off and asserts report
/// equality. Batching merges equal-timestamp messages scheduled back to back
/// for one engine into a single queued event, so the *delivered-event count*
/// legitimately shrinks — but the simulation itself (time, ops, traffic,
/// energy, synchronization statistics) must not move by a bit.
fn assert_batching_is_invisible(scenario: &Scenario) -> RunReport {
    let mut batched = scenario.clone();
    batched.config = batched.config.with_message_batching(true);
    let mut unbatched = scenario.clone();
    unbatched.config = unbatched.config.with_message_batching(false);

    let batched_report = batched.run().expect("batched run");
    let unbatched_report = unbatched.run().expect("unbatched run");
    if let Some(field) = unbatched_report.divergence_from(&batched_report) {
        panic!(
            "{}: message batching diverged from the per-message reference in {field}",
            scenario.label
        );
    }
    assert!(
        batched_report.perf.events_delivered <= unbatched_report.perf.events_delivered,
        "{}: batching must never deliver more events",
        scenario.label
    );
    batched_report
}

#[test]
fn fig10_corpus_is_batching_invariant() {
    // The four Figure 10 microbenchmark sweeps at paper scale, with message
    // batching on vs off: reports must be bit-identical (the condvar sweep in
    // particular exercises the broadcast/wake bursts batching collapses).
    let mut total = 0;
    let mut saved = 0u64;
    for file in [
        "fig10_lock.toml",
        "fig10_barrier.toml",
        "fig10_semaphore.toml",
        "fig10_condvar.toml",
    ] {
        for scenario in load_sweep(file) {
            let report = assert_batching_is_invisible(&scenario);
            assert!(report.completed, "{} did not complete", scenario.label);
            total += 1;
            saved += report.perf.events_delivered;
        }
    }
    assert!(total >= 40, "corpus unexpectedly small: {total} scenarios");
    assert!(saved > 0, "no events delivered across the corpus");
}

#[test]
fn fig10_corpus_is_scheduler_invariant() {
    // The four Figure 10 microbenchmark sweeps at paper scale: lock, barrier,
    // semaphore and condition variable under all four schemes.
    let mut total = 0;
    for file in [
        "fig10_lock.toml",
        "fig10_barrier.toml",
        "fig10_semaphore.toml",
        "fig10_condvar.toml",
    ] {
        for scenario in load_sweep(file) {
            let report = assert_schedulers_agree(&scenario);
            assert!(report.completed, "{} did not complete", scenario.label);
            total += 1;
        }
    }
    assert!(total >= 40, "corpus unexpectedly small: {total} scenarios");
}

#[test]
fn service_openloop_corpus_is_scheduler_and_batching_invariant() {
    // The open-loop service corpus: all three service shapes under all three
    // arrival processes. Unlike the closed-loop sweeps, these scenarios carry a
    // latency summary in the report; `divergence_from` compares it bit-for-bit,
    // so this also proves the admission clock, the Zipf sampler and the
    // latency histogram are scheduler- and batching-independent.
    let scenarios = load_sweep("service_kv_openloop.toml");
    assert!(
        scenarios.len() >= 18,
        "corpus unexpectedly small: {} scenarios",
        scenarios.len()
    );
    for scenario in scenarios {
        let report = assert_schedulers_agree(&scenario);
        assert!(report.completed, "{} did not complete", scenario.label);
        let latency = report.latency.unwrap_or_else(|| {
            panic!("{}: open-loop run lost its latency summary", scenario.label)
        });
        assert!(latency.ops > 0, "{}: no requests measured", scenario.label);
        assert!(
            latency.p50_ns <= latency.p99_ns && latency.p99_ns <= latency.p999_ns,
            "{}: quantiles out of order",
            scenario.label
        );
        assert_batching_is_invisible(&scenario);
    }
}

#[test]
fn scale_64x64_is_scheduler_invariant() {
    // 4096 cores across 64 units: the geometry the calendar queue and dense
    // dispatch were built for. Keep the event budget bounded but identical on
    // both sides; equality must hold for truncated runs too.
    let scenarios = load_sweep("scale_64x64.toml");
    assert_eq!(scenarios.len(), 4, "one scenario per scheme");
    for scenario in scenarios {
        assert_schedulers_agree(&scenario);
    }
}

/// Runs one scenario with every combination of the burst-resume and
/// column-batching fast paths and asserts each report is bit-identical to the
/// both-off reference. Burst resume collapses same-timestamp wake-ups for one
/// unit into a single queued event, so the delivered-event count legitimately
/// shrinks; everything the report compares (time, ops, traffic, energy,
/// synchronization statistics, latency summaries) must not move by a bit.
fn assert_fastpath_is_invisible(scenario: &Scenario) -> RunReport {
    let mut plain = scenario.clone();
    plain.config = plain
        .config
        .with_burst_resume(false)
        .with_column_batching(false);
    let reference = plain.run().expect("reference run");

    for (burst, column) in [(true, false), (false, true), (true, true)] {
        let mut fast = scenario.clone();
        fast.config = fast
            .config
            .with_burst_resume(burst)
            .with_column_batching(column);
        let report = fast.run().expect("fast-path run");
        if let Some(field) = reference.divergence_from(&report) {
            panic!(
                "{}: fast path (burst_resume {burst}, column_batching {column}) \
                 diverged from the both-off reference in {field}",
                scenario.label
            );
        }
        if burst {
            assert!(
                report.perf.events_delivered <= reference.perf.events_delivered,
                "{}: burst resume must never deliver more events",
                scenario.label
            );
        } else {
            assert_eq!(
                report.perf.events_delivered, reference.perf.events_delivered,
                "{}: column batching alone must not change event accounting",
                scenario.label
            );
        }
    }
    reference
}

#[test]
fn fig10_corpus_is_fastpath_invariant() {
    // The four Figure 10 sweeps with the burst-resume and column-batching fast
    // paths toggled in every combination: reports must be bit-identical to the
    // both-off reference. The barrier and condvar sweeps are the interesting
    // ones — broadcast releases are exactly the wake bursts the resume path
    // collapses, and their notification fan-out feeds the column batcher runs
    // of same-variable messages.
    let mut total = 0;
    for file in [
        "fig10_lock.toml",
        "fig10_barrier.toml",
        "fig10_semaphore.toml",
        "fig10_condvar.toml",
    ] {
        for scenario in load_sweep(file) {
            let report = assert_fastpath_is_invisible(&scenario);
            assert!(report.completed, "{} did not complete", scenario.label);
            total += 1;
        }
    }
    assert!(total >= 40, "corpus unexpectedly small: {total} scenarios");
}

#[test]
fn service_openloop_corpus_is_fastpath_invariant() {
    // The open-loop service corpus under the fast-path toggles. The latency
    // summary is part of the compared report, so per-request timing must be
    // untouched by how wake-ups are queued or how batch members resolve slots.
    let scenarios = load_sweep("service_kv_openloop.toml");
    assert!(
        scenarios.len() >= 18,
        "corpus unexpectedly small: {} scenarios",
        scenarios.len()
    );
    for scenario in scenarios {
        let report = assert_fastpath_is_invisible(&scenario);
        assert!(report.completed, "{} did not complete", scenario.label);
        assert!(
            report.latency.is_some(),
            "{}: open-loop run lost its latency summary",
            scenario.label
        );
    }
}

#[test]
fn md1_exact_model_matches_quantized_on_corpus() {
    // The quantized M/D/1 table is the default; the `exact` closed form stays
    // available as the re-baseline reference. On the committed corpus the
    // quantized table agrees with the closed form bit-for-bit — the ≤1 ps
    // interpolation error rounds away at the corpus's utilization caps, which
    // is exactly why the re-baseline did not move the pinned figures.
    // Aliveness of the knob (the two models *do* diverge at extreme caps) is
    // pinned separately below.
    for scenario in load_sweep("fig10_barrier.toml") {
        let mut exact = scenario.clone();
        exact.config = exact.config.with_md1_model(Md1Model::Exact);
        let exact_report = exact.run().expect("exact run");
        assert!(exact_report.completed, "{} did not complete", exact.label);

        let quantized = scenario.run().expect("quantized run");
        if let Some(field) = quantized.divergence_from(&exact_report) {
            panic!(
                "{}: quantized M/D/1 moved the pinned corpus in {field} — \
                 re-baseline EXPERIMENTS.md before changing the table",
                scenario.label
            );
        }
    }

    // Knob aliveness: at an extreme utilization cap the table's chords round
    // differently from the closed form for some arrival rate, so a config that
    // selects `exact` is observably different from one that selects
    // `quantized` — the enum is not dead code.
    use syncron::sim::queueing::{md1_wait, Md1Table};
    let service = Time::from_ps(1600);
    let cap = 0.999;
    let table = Md1Table::new(service, cap);
    let saturation = 1.0 / 1600.0;
    let distinct = (1..=4000).any(|i| {
        let lambda = saturation * (i as f64) / 4000.0;
        table.wait(lambda) != md1_wait(lambda, service, cap)
    });
    assert!(
        distinct,
        "quantized and exact M/D/1 agreed everywhere even at cap 0.999 — \
         the table is the closed form in disguise and the knob is dead"
    );
}

/// Runs one scenario with the fault substrate fully off and again with it
/// *enabled but all probabilities zero*, asserting the reports are
/// bit-identical. This is the knob-aliveness half of the fault matrix: the
/// enabled run takes the fault code path (every mechanism message rolls a
/// verdict, carries a dedup tag budget, and could retransmit) yet must
/// schedule exactly the events of the fast path.
fn assert_zero_probability_faults_are_invisible(scenario: &Scenario) -> RunReport {
    let reference = scenario.run().expect("faults-off run");
    let mut zero = scenario.clone();
    zero.config = zero.config.with_fault(FaultConfig {
        enabled: true,
        ..FaultConfig::default()
    });
    let report = zero.run().expect("zero-probability run");
    if let Some(field) = reference.divergence_from(&report) {
        panic!(
            "{}: enabling fault injection with zero probabilities moved {field}",
            scenario.label
        );
    }
    assert_eq!(
        reference.perf.events_delivered, report.perf.events_delivered,
        "{}: zero-probability injection changed event accounting",
        scenario.label
    );
    let stats = report.faults.expect("enabled run reports fault stats");
    assert_eq!(
        stats.dropped
            + stats.retransmitted
            + stats.duplicated
            + stats.dup_discarded
            + stats.delayed
            + stats.stalled,
        0,
        "{}: zero-probability injection produced faults",
        scenario.label
    );
    reference
}

#[test]
fn fig10_corpus_is_invariant_under_zero_probability_faults() {
    // The four Figure 10 sweeps with the fault substrate off vs enabled-with-
    // zero-probabilities: bit-identical reports across the whole corpus.
    let mut total = 0;
    for file in [
        "fig10_lock.toml",
        "fig10_barrier.toml",
        "fig10_semaphore.toml",
        "fig10_condvar.toml",
    ] {
        for scenario in load_sweep(file) {
            let report = assert_zero_probability_faults_are_invisible(&scenario);
            assert!(report.completed, "{} did not complete", scenario.label);
            total += 1;
        }
    }
    assert!(total >= 40, "corpus unexpectedly small: {total} scenarios");
}

#[test]
fn faulted_runs_are_seed_deterministic() {
    // The other half of the fault matrix: with drops, duplicates and jitter
    // actually firing, runs must still (a) complete via timeout/retransmission
    // and (b) be bit-identical across repeated invocations (the fault plan is
    // a pure function of the scenario seed).
    let fault = FaultConfig {
        enabled: true,
        drop_prob: 0.05,
        dup_prob: 0.05,
        jitter_ns: 30,
        ..FaultConfig::default()
    };
    let mut injected_somewhere = false;
    for scenario in load_sweep("fig10_lock.toml") {
        let mut faulted = scenario.clone();
        faulted.config = faulted.config.with_fault(fault);

        let first = faulted.run().expect("faulted run");
        assert!(
            first.completed,
            "{}: faulted run did not recover to completion",
            scenario.label
        );
        let again = faulted.run().expect("repeat faulted run");
        if let Some(field) = first.divergence_from(&again) {
            panic!(
                "{}: repeated faulted run diverged in {field} — the fault plan \
                 is not a pure function of the seed",
                scenario.label
            );
        }

        let stats = first.faults.expect("enabled run reports fault stats");
        assert_eq!(
            stats.dropped, stats.retransmitted,
            "{}: every dropped message must be retransmitted exactly once",
            scenario.label
        );
        assert_eq!(
            stats.duplicated, stats.dup_discarded,
            "{}: every duplicate must be discarded by receiver dedup",
            scenario.label
        );
        injected_somewhere |= stats.dropped + stats.duplicated + stats.delayed > 0;
    }
    assert!(
        injected_somewhere,
        "no faults fired across the whole lock sweep — the substrate is dead"
    );
}

#[test]
fn inline_budget_values_do_not_change_results() {
    // The fairness budget bounds how long one pop may monopolize the loop; any
    // value (including 1 and "effectively unbounded") must leave results
    // untouched because inlining only fires on strict precedence.
    let base = load_sweep("fig10_lock.toml")
        .into_iter()
        .next()
        .expect("at least one scenario");
    let reference = base.run().expect("reference run");
    for budget in [0u32, 1, 7, u32::MAX] {
        let mut variant = base.clone();
        variant.config = variant.config.with_inline_step_budget(budget);
        let report = variant.run().expect("variant run");
        if let Some(field) = reference.divergence_from(&report) {
            panic!("inline budget {budget} changed {field}");
        }
    }
}

#[test]
fn perf_counters_populate_without_affecting_results() {
    let scenario = load_sweep("fig10_barrier.toml")
        .into_iter()
        .next()
        .expect("scenario");
    let report = scenario.run().expect("run");
    assert!(report.perf.events_delivered > 0);
    assert!(report.perf.wall_seconds >= 0.0);
    assert!(report.perf.events_per_sec() >= 0.0);
    // Two runs of the same scenario: identical simulation, independent perf.
    let again = scenario.run().expect("run");
    assert!(report.same_simulation(&again));
    assert_eq!(
        report.perf.events_delivered,
        again.perf.events_delivered,
        "event counts are simulation-determined even though SimPerf is not \
         compared: {:?} vs {:?}",
        SimPerf::default(),
        again.perf
    );
}
