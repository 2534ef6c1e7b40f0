//! Single-drop recovery property tests.
//!
//! Under an injected message drop, every mechanism kind (all 7) must still
//! drive every request to completion through the timeout/retransmission path —
//! across seeds, machine geometries and drop positions.

use syncron::prelude::*;
use syncron::workloads::micro::SyncPrimitive;

/// A small closed-loop lock microbenchmark with fault injection dropping the
/// `drop_nth`-th original message on every directed link.
fn faulted_scenario(
    mechanism: MechanismKind,
    units: usize,
    cores: usize,
    seed: u64,
    drop_nth: u64,
) -> Scenario {
    let mut config = ConfigSpec::default()
        .with_geometry(units, cores)
        .with_mechanism(mechanism)
        .with_fault(FaultConfig {
            enabled: true,
            drop_nth,
            ..FaultConfig::default()
        });
    config.seed = seed;
    Scenario::new(
        format!("{}.u{units}x{cores}.s{seed}.d{drop_nth}", mechanism.name()),
        config,
        WorkloadSpec::Micro {
            primitive: SyncPrimitive::Lock,
            interval: 80,
            iterations: 6,
        },
    )
}

/// The faults-off twin of [`faulted_scenario`], used as the work reference.
fn clean_scenario(mechanism: MechanismKind, units: usize, cores: usize, seed: u64) -> Scenario {
    let mut config = ConfigSpec::default()
        .with_geometry(units, cores)
        .with_mechanism(mechanism);
    config.seed = seed;
    Scenario::new(
        format!("{}.u{units}x{cores}.s{seed}.clean", mechanism.name()),
        config,
        WorkloadSpec::Micro {
            primitive: SyncPrimitive::Lock,
            interval: 80,
            iterations: 6,
        },
    )
}

#[test]
fn every_mechanism_recovers_from_single_drops() {
    for mechanism in MechanismKind::ALL {
        let mut drops_fired = 0u64;
        for (units, cores) in [(2, 4), (4, 4)] {
            for seed in [1u64, 7] {
                // The clean twin pins how much work the run must accomplish.
                let clean = clean_scenario(mechanism, units, cores, seed)
                    .run()
                    .expect("clean run");
                assert!(clean.completed);

                for drop_nth in [1u64, 3] {
                    let faulted = faulted_scenario(mechanism, units, cores, seed, drop_nth)
                        .run()
                        .expect("faulted run");
                    let label =
                        format!("{} u{units}x{cores} s{seed} d{drop_nth}", mechanism.name());

                    // (a) The run completes: no request is lost to the drop.
                    assert!(faulted.completed, "{label}: did not recover");
                    // (b) It does exactly the clean run's work — same ops, same
                    // synchronization completions; only timing may move.
                    assert_eq!(faulted.total_ops, clean.total_ops, "{label}: lost ops");
                    assert_eq!(
                        faulted.sync.completions, clean.sync.completions,
                        "{label}: lost sync completions"
                    );
                    // (c) Every drop was recovered by exactly one retransmission.
                    let stats = faulted.faults.expect("fault stats when enabled");
                    assert_eq!(
                        stats.dropped, stats.retransmitted,
                        "{label}: drops and retransmissions disagree"
                    );
                    drops_fired += stats.dropped;
                    if mechanism == MechanismKind::Ideal {
                        // Ideal completes synchronization without messages, so
                        // there is nothing to drop — the property is vacuous
                        // but the run must still be clean.
                        assert_eq!(stats.dropped, 0, "{label}: Ideal sent messages?");
                    } else {
                        // The first original on every used link always drops;
                        // the third may not exist on short-lived links.
                        if drop_nth == 1 {
                            assert!(stats.dropped >= 1, "{label}: no drop ever fired");
                        }
                        // Recovery costs time: the faulted run cannot be faster
                        // than its clean twin.
                        assert!(
                            faulted.sim_time >= clean.sim_time,
                            "{label}: recovery took no time"
                        );
                    }
                }
            }
        }
        if mechanism != MechanismKind::Ideal {
            assert!(
                drops_fired > 0,
                "{}: no drop fired anywhere in the matrix",
                mechanism.name()
            );
        }
    }
}

#[test]
fn recovery_holds_for_every_primitive_under_syncron() {
    // The drop/retry path is request-kind-agnostic; pin that for all four
    // primitives (lock, barrier, semaphore, condvar) under the full scheme.
    for primitive in SyncPrimitive::ALL {
        let mut config = ConfigSpec::default()
            .with_geometry(4, 4)
            .with_mechanism(MechanismKind::SynCron)
            .with_fault(FaultConfig {
                enabled: true,
                drop_nth: 1,
                ..FaultConfig::default()
            });
        config.seed = 3;
        let scenario = Scenario::new(
            format!("prim-{}", primitive.name()),
            config,
            WorkloadSpec::Micro {
                primitive,
                interval: 80,
                iterations: 6,
            },
        );
        let report = scenario.run().expect("faulted run");
        assert!(report.completed, "{}: did not recover", primitive.name());
        let stats = report.faults.expect("fault stats when enabled");
        assert!(stats.dropped >= 1, "{}: no drop fired", primitive.name());
        assert_eq!(
            stats.dropped,
            stats.retransmitted,
            "{}: unbalanced recovery",
            primitive.name()
        );
    }
}
