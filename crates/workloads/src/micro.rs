//! Synchronization-primitive microbenchmarks (Figure 10 of the paper).
//!
//! "We devise simple benchmarks, where cores repeatedly request a single
//! synchronization variable. For lock, the critical section is empty […]. For semaphore
//! and condition variable, half of the cores execute `sem_wait`/`cond_wait`, while the
//! rest execute `sem_post`/`cond_signal`." The x-axis of Figure 10 is the number of
//! instructions between two synchronization points; these workloads expose that as the
//! `interval` parameter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use syncron_core::request::{BarrierScope, SyncRequest};
use syncron_sim::time::Time;
use syncron_sim::{Addr, GlobalCoreId, UnitId};
use syncron_system::address::AddressSpace;
use syncron_system::config::NdpConfig;
use syncron_system::workload::{Action, CoreProgram, Workload};

/// The four primitives Figure 10 sweeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncPrimitive {
    /// `lock_acquire` / `lock_release` with an empty critical section.
    Lock,
    /// `barrier_wait` across all client cores.
    Barrier,
    /// `sem_wait` / `sem_post`, half of the cores each.
    Semaphore,
    /// `cond_wait` / `cond_signal` (plus the associated lock), half of the cores each.
    CondVar,
}

impl SyncPrimitive {
    /// All primitives in the order of Figure 10.
    pub const ALL: [SyncPrimitive; 4] = [
        SyncPrimitive::Lock,
        SyncPrimitive::Barrier,
        SyncPrimitive::Semaphore,
        SyncPrimitive::CondVar,
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SyncPrimitive::Lock => "lock",
            SyncPrimitive::Barrier => "barrier",
            SyncPrimitive::Semaphore => "semaphore",
            SyncPrimitive::CondVar => "condvar",
        }
    }
}

// ---------------------------------------------------------------------------
// Lock microbenchmark
// ---------------------------------------------------------------------------

/// Every core repeatedly computes for `interval` instructions, then acquires and
/// releases one global lock with an empty critical section.
#[derive(Clone, Copy, Debug)]
pub struct LockMicrobench {
    /// Instructions between critical sections.
    pub interval: u64,
    /// Lock acquisitions per core.
    pub iterations: u32,
}

impl LockMicrobench {
    /// Creates the benchmark.
    pub fn new(interval: u64, iterations: u32) -> Self {
        LockMicrobench {
            interval,
            iterations,
        }
    }
}

#[derive(Debug)]
struct LockProgram {
    lock: Addr,
    interval: u64,
    remaining: u32,
    phase: u8,
    ops: u64,
}

impl CoreProgram for LockProgram {
    fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
        if self.remaining == 0 {
            return Action::Done;
        }
        match self.phase {
            0 => {
                self.phase = 1;
                Action::Compute {
                    instrs: self.interval.max(1),
                }
            }
            1 => {
                self.phase = 2;
                Action::Sync(SyncRequest::LockAcquire { var: self.lock })
            }
            _ => {
                self.phase = 0;
                self.remaining -= 1;
                self.ops += 1;
                Action::Sync(SyncRequest::LockRelease { var: self.lock })
            }
        }
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }
}

impl Workload for LockMicrobench {
    fn name(&self) -> String {
        format!("lock-micro.i{}", self.interval)
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        _config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let lock = space.allocate_shared_rw(64, UnitId(0));
        clients
            .iter()
            .map(|_| {
                Box::new(LockProgram {
                    lock,
                    interval: self.interval,
                    remaining: self.iterations,
                    phase: 0,
                    ops: 0,
                }) as Box<dyn CoreProgram>
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Barrier microbenchmark
// ---------------------------------------------------------------------------

/// Every core repeatedly computes for `interval` instructions and waits on one global
/// barrier that all client cores participate in.
#[derive(Clone, Copy, Debug)]
pub struct BarrierMicrobench {
    /// Instructions between barrier episodes.
    pub interval: u64,
    /// Barrier episodes per core.
    pub iterations: u32,
}

impl BarrierMicrobench {
    /// Creates the benchmark.
    pub fn new(interval: u64, iterations: u32) -> Self {
        BarrierMicrobench {
            interval,
            iterations,
        }
    }
}

#[derive(Debug)]
struct BarrierProgram {
    barrier: Addr,
    participants: u32,
    interval: u64,
    remaining: u32,
    compute_next: bool,
    ops: u64,
}

impl CoreProgram for BarrierProgram {
    fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
        if self.remaining == 0 {
            return Action::Done;
        }
        if self.compute_next {
            self.compute_next = false;
            Action::Compute {
                instrs: self.interval.max(1),
            }
        } else {
            self.compute_next = true;
            self.remaining -= 1;
            self.ops += 1;
            Action::Sync(SyncRequest::BarrierWait {
                var: self.barrier,
                participants: self.participants,
                scope: BarrierScope::AcrossUnits,
            })
        }
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }
}

impl Workload for BarrierMicrobench {
    fn name(&self) -> String {
        format!("barrier-micro.i{}", self.interval)
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        _config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let barrier = space.allocate_shared_rw(64, UnitId(0));
        clients
            .iter()
            .map(|_| {
                Box::new(BarrierProgram {
                    barrier,
                    participants: clients.len() as u32,
                    interval: self.interval,
                    remaining: self.iterations,
                    compute_next: true,
                    ops: 0,
                }) as Box<dyn CoreProgram>
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Semaphore microbenchmark
// ---------------------------------------------------------------------------

/// Half of the cores repeatedly `sem_wait`, the other half `sem_post`, on a single
/// semaphore.
#[derive(Clone, Copy, Debug)]
pub struct SemaphoreMicrobench {
    /// Instructions between semaphore operations.
    pub interval: u64,
    /// Operations per core.
    pub iterations: u32,
}

impl SemaphoreMicrobench {
    /// Creates the benchmark.
    pub fn new(interval: u64, iterations: u32) -> Self {
        SemaphoreMicrobench {
            interval,
            iterations,
        }
    }
}

#[derive(Debug)]
struct SemProgram {
    sem: Addr,
    interval: u64,
    remaining: u32,
    waiter: bool,
    compute_next: bool,
    ops: u64,
}

impl CoreProgram for SemProgram {
    fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
        if self.remaining == 0 {
            return Action::Done;
        }
        if self.compute_next {
            self.compute_next = false;
            return Action::Compute {
                instrs: self.interval.max(1),
            };
        }
        self.compute_next = true;
        self.remaining -= 1;
        self.ops += 1;
        if self.waiter {
            Action::Sync(SyncRequest::SemWait {
                var: self.sem,
                initial: 1,
            })
        } else {
            Action::Sync(SyncRequest::SemPost { var: self.sem })
        }
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }
}

impl Workload for SemaphoreMicrobench {
    fn name(&self) -> String {
        format!("semaphore-micro.i{}", self.interval)
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        _config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let sem = space.allocate_shared_rw(64, UnitId(0));
        clients
            .iter()
            .enumerate()
            .map(|(i, _)| {
                Box::new(SemProgram {
                    sem,
                    interval: self.interval,
                    remaining: self.iterations,
                    // Alternate waiters and posters within each unit so both halves are
                    // spread across the system.
                    waiter: i % 2 == 0,
                    compute_next: true,
                    ops: 0,
                }) as Box<dyn CoreProgram>
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Condition-variable microbenchmark
// ---------------------------------------------------------------------------

/// Half of the cores `cond_wait` on a condition variable (with its associated lock),
/// the other half keep signalling until every wait has been satisfied.
#[derive(Clone, Copy, Debug)]
pub struct CondVarMicrobench {
    /// Instructions between condition-variable operations.
    pub interval: u64,
    /// Waits per waiting core.
    pub iterations: u32,
}

impl CondVarMicrobench {
    /// Creates the benchmark.
    pub fn new(interval: u64, iterations: u32) -> Self {
        CondVarMicrobench {
            interval,
            iterations,
        }
    }
}

#[derive(Debug)]
struct CondWaiterProgram {
    cond: Addr,
    lock: Addr,
    interval: u64,
    remaining: u32,
    phase: u8,
    pending_waits: Arc<AtomicU64>,
    ops: u64,
}

impl CoreProgram for CondWaiterProgram {
    fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
        if self.remaining == 0 {
            return Action::Done;
        }
        match self.phase {
            0 => {
                self.phase = 1;
                Action::Compute {
                    instrs: self.interval.max(1),
                }
            }
            1 => {
                self.phase = 2;
                Action::Sync(SyncRequest::LockAcquire { var: self.lock })
            }
            2 => {
                self.phase = 3;
                Action::Sync(SyncRequest::CondWait {
                    var: self.cond,
                    lock: self.lock,
                })
            }
            _ => {
                self.phase = 0;
                self.remaining -= 1;
                self.ops += 1;
                self.pending_waits.store(
                    self.pending_waits.load(Ordering::Relaxed).saturating_sub(1),
                    Ordering::Relaxed,
                );
                Action::Sync(SyncRequest::LockRelease { var: self.lock })
            }
        }
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }
}

/// The signaling half of the condvar benchmark.
///
/// Under signal coalescing `cond_signal` follows the delayed-grant path: the core
/// stalls until the engine's ACK (or backoff-delayed NACK) arrives, so this program
/// is only stepped again once the reply lands — possibly much later than the one
/// `req_async` cycle the paper's interface implies. The program re-checks the
/// outstanding-wait count at that point so a signaler retires as soon as the last
/// wait was satisfied while it was stalled. It always executes the full `interval`
/// compute block between signals, keeping the benchmark's "instructions between two
/// synchronization points" definition identical across mechanisms regardless of
/// their reply latencies.
#[derive(Debug)]
struct CondSignalerProgram {
    cond: Addr,
    interval: u64,
    compute_next: bool,
    pending_waits: Arc<AtomicU64>,
    ops: u64,
}

impl CoreProgram for CondSignalerProgram {
    fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
        if self.pending_waits.load(Ordering::Relaxed) == 0 {
            return Action::Done;
        }
        if self.compute_next {
            self.compute_next = false;
            Action::Compute {
                instrs: self.interval.max(1),
            }
        } else {
            self.compute_next = true;
            self.ops += 1;
            Action::Sync(SyncRequest::CondSignal { var: self.cond })
        }
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }
}

impl Workload for CondVarMicrobench {
    fn name(&self) -> String {
        format!("condvar-micro.i{}", self.interval)
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        _config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let cond = space.allocate_shared_rw(64, UnitId(0));
        let lock = space.allocate_shared_rw(64, UnitId(0));
        let waiters = (clients.len() / 2).max(1) as u64;
        let pending = Arc::new(AtomicU64::new(waiters * u64::from(self.iterations)));
        clients
            .iter()
            .enumerate()
            .map(|(i, _)| {
                if i % 2 == 0 && (i / 2) < waiters as usize {
                    Box::new(CondWaiterProgram {
                        cond,
                        lock,
                        interval: self.interval,
                        remaining: self.iterations,
                        phase: 0,
                        pending_waits: Arc::clone(&pending),
                        ops: 0,
                    }) as Box<dyn CoreProgram>
                } else {
                    Box::new(CondSignalerProgram {
                        cond,
                        interval: self.interval,
                        compute_next: true,
                        pending_waits: Arc::clone(&pending),
                        ops: 0,
                    }) as Box<dyn CoreProgram>
                }
            })
            .collect()
    }
}

/// Builds the Figure 10 microbenchmark for `primitive` with the given interval and
/// iteration count.
pub fn microbench(
    primitive: SyncPrimitive,
    interval: u64,
    iterations: u32,
) -> Box<dyn Workload + Send + Sync> {
    match primitive {
        SyncPrimitive::Lock => Box::new(LockMicrobench::new(interval, iterations)),
        SyncPrimitive::Barrier => Box::new(BarrierMicrobench::new(interval, iterations)),
        SyncPrimitive::Semaphore => Box::new(SemaphoreMicrobench::new(interval, iterations)),
        SyncPrimitive::CondVar => Box::new(CondVarMicrobench::new(interval, iterations)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncron_core::MechanismKind;
    use syncron_system::run_workload;

    fn config(kind: MechanismKind) -> NdpConfig {
        NdpConfig::builder()
            .units(2)
            .cores_per_unit(4)
            .mechanism(kind)
            .build()
            .expect("valid config")
    }

    #[test]
    fn lock_micro_completes_and_counts_ops() {
        let report = run_workload(
            &config(MechanismKind::SynCron),
            &LockMicrobench::new(100, 10),
        );
        assert!(report.completed);
        // 6 client cores (2 units x 3 clients) x 10 acquisitions.
        assert_eq!(report.total_ops, 60);
    }

    #[test]
    fn barrier_micro_completes_under_all_mechanisms() {
        for kind in MechanismKind::ALL {
            let report = run_workload(&config(kind), &BarrierMicrobench::new(50, 5));
            assert!(report.completed, "{kind:?}");
            assert!(report.total_ops > 0);
        }
    }

    #[test]
    fn semaphore_micro_completes() {
        for kind in [
            MechanismKind::SynCron,
            MechanismKind::Central,
            MechanismKind::Ideal,
        ] {
            let report = run_workload(&config(kind), &SemaphoreMicrobench::new(100, 8));
            assert!(report.completed, "{kind:?}");
        }
    }

    #[test]
    fn condvar_micro_completes() {
        for kind in [
            MechanismKind::SynCron,
            MechanismKind::Hier,
            MechanismKind::Ideal,
        ] {
            let report = run_workload(&config(kind), &CondVarMicrobench::new(200, 4));
            assert!(report.completed, "{kind:?}");
        }
    }

    #[test]
    fn condvar_micro_completes_within_event_budget_under_central_and_hier() {
        // Regression test for the signaler flood: before signal coalescing, the
        // signaler half of the cores re-signalled an empty condvar fast enough to
        // saturate the single Central server, and even this small configuration
        // burned millions of events. The explicit max_events budget is the assertion:
        // hitting it reports completed = false.
        for kind in [MechanismKind::Central, MechanismKind::Hier] {
            let cfg = NdpConfig::builder()
                .units(2)
                .cores_per_unit(4)
                .mechanism(kind)
                .max_events(300_000)
                .build()
                .expect("valid config");
            let report = run_workload(&cfg, &CondVarMicrobench::new(200, 8));
            assert!(
                report.completed,
                "{kind:?} blew the 300k event budget (signal coalescing regressed?)"
            );
            assert!(report.total_ops > 0, "{kind:?}");
        }
    }

    #[test]
    fn condvar_micro_completes_at_paper_geometry() {
        // The paper-scale Figure 10 condvar point that used to hit the 400M-event
        // safety limit under Central, shrunk to 2 iterations to stay CI-friendly.
        // The budget is three orders of magnitude below the old blow-up.
        for kind in [MechanismKind::Central, MechanismKind::Hier] {
            let cfg = NdpConfig::builder()
                .units(4)
                .cores_per_unit(16)
                .mechanism(kind)
                .max_events(2_000_000)
                .build()
                .expect("valid config");
            let report = run_workload(&cfg, &CondVarMicrobench::new(200, 2));
            assert!(report.completed, "{kind:?} (4x16, 60 clients)");
            assert!(
                report.sync.coalesced_signals > 0,
                "{kind:?}: coalescing active"
            );
        }
    }

    #[test]
    fn condvar_micro_still_completes_with_coalescing_disabled_at_small_scale() {
        // The knob is sweepable: with coalescing off the old fire-and-forget
        // semantics still finish at a small scale (the flood only bites at paper
        // scale), they just burn far more events.
        use syncron_core::mechanism::MechanismParams;
        let params = MechanismParams::new(MechanismKind::SynCron).with_signal_coalescing(false);
        let cfg = NdpConfig::builder()
            .units(2)
            .cores_per_unit(4)
            .mechanism_params(params)
            .build()
            .expect("valid config");
        let report = run_workload(&cfg, &CondVarMicrobench::new(200, 4));
        assert!(report.completed);
        assert_eq!(report.sync.coalesced_signals, 0);
        assert_eq!(report.sync.signal_nacks, 0);
    }

    #[test]
    fn shorter_interval_is_more_sync_intensive() {
        // With a shorter compute interval, synchronization dominates and SynCron's
        // advantage over Central grows (the trend of Figure 10).
        let short_central = run_workload(
            &config(MechanismKind::Central),
            &LockMicrobench::new(50, 20),
        );
        let short_syncron = run_workload(
            &config(MechanismKind::SynCron),
            &LockMicrobench::new(50, 20),
        );
        let long_central = run_workload(
            &config(MechanismKind::Central),
            &LockMicrobench::new(5000, 20),
        );
        let long_syncron = run_workload(
            &config(MechanismKind::SynCron),
            &LockMicrobench::new(5000, 20),
        );
        let short_speedup = short_syncron.speedup_over(&short_central);
        let long_speedup = long_syncron.speedup_over(&long_central);
        assert!(
            short_speedup > 1.0,
            "SynCron should beat Central: {short_speedup}"
        );
        assert!(
            short_speedup > long_speedup,
            "benefit should shrink with longer intervals ({short_speedup:.2} vs {long_speedup:.2})"
        );
    }

    #[test]
    fn primitive_names() {
        assert_eq!(SyncPrimitive::ALL.len(), 4);
        assert_eq!(SyncPrimitive::Lock.name(), "lock");
        let wl = microbench(SyncPrimitive::Barrier, 100, 2);
        assert!(wl.name().contains("barrier"));
    }
}
