//! Reader-writer epoch reclamation on barriers and condition variables.
//!
//! Each unit runs an epoch-based memory-reclamation loop: client cores are
//! *readers* serving open-loop read requests against the shared key space, and
//! one core per unit (the first client, when the unit has at least two) is the
//! *reclaimer*. Time is divided into epochs of `OPS_PER_EPOCH` (4) reads per
//! reader. At the end of an epoch the designated reader signals the unit's
//! condition variable, the reclaimer wakes, takes the epoch lock, retires the
//! garbage of the closed epoch, and everyone — readers and reclaimer — meets at
//! a within-unit barrier before the next epoch opens. Signal-before-wait is
//! safe because the engine counts pending signals, and the end-of-epoch barrier
//! orders each epoch's signal strictly after the previous epoch's wait.
//!
//! Units with a single client degrade to a lone reader with a one-participant
//! barrier and no condvar traffic.

use syncron_core::request::{BarrierScope, SyncRequest};
use syncron_sim::rng::SimRng;
use syncron_sim::time::Time;
use syncron_sim::{Addr, GlobalCoreId, UnitId};
use syncron_system::address::AddressSpace;
use syncron_system::config::NdpConfig;
use syncron_system::workload::{Action, CoreProgram, Workload};

use super::zipf::ZipfSampler;
use super::{service_name, LogHistogram, OpenLoop, ServiceParams, ServiceShape};

/// Open-loop reads each reader serves per epoch.
const OPS_PER_EPOCH: u32 = 4;

/// Read-processing overhead in instructions.
const READ_INSTRS: u64 = 8;

/// The epoch-reclamation open-loop service workload.
#[derive(Clone, Copy, Debug)]
pub struct EpochService {
    params: ServiceParams,
}

impl EpochService {
    /// Creates the workload.
    pub fn new(params: ServiceParams) -> Self {
        EpochService { params }
    }
}

/// Per-unit synchronization variables.
#[derive(Clone, Copy, Debug)]
struct UnitVars {
    barrier: Addr,
    epoch_lock: Addr,
    cond: Addr,
    cond_lock: Addr,
    retired: Addr,
}

#[derive(Debug)]
struct ReaderProgram {
    open: OpenLoop,
    rng: SimRng,
    zipf: ZipfSampler,
    data: Vec<Addr>,
    units: u64,
    vars: UnitVars,
    participants: u32,
    /// True for the one reader per unit that wakes the reclaimer.
    signaler: bool,
    epochs_left: u32,
    reads_left_in_epoch: u32,
    phase: u8,
    key_addr: Addr,
    completing: bool,
}

impl ReaderProgram {
    fn barrier_action(&mut self) -> Action {
        self.epochs_left -= 1;
        self.reads_left_in_epoch = OPS_PER_EPOCH;
        self.phase = 0;
        Action::Sync(SyncRequest::BarrierWait {
            var: self.vars.barrier,
            participants: self.participants,
            scope: BarrierScope::WithinUnit,
        })
    }
}

impl CoreProgram for ReaderProgram {
    fn step(&mut self, _core: GlobalCoreId, now: Time) -> Action {
        match self.phase {
            0 => {
                if self.completing {
                    self.completing = false;
                    self.open.complete(now);
                }
                if self.epochs_left == 0 {
                    return Action::Done;
                }
                if self.reads_left_in_epoch > 0 && !self.open.exhausted() {
                    if let Some(idle) = self.open.admit(now) {
                        return idle;
                    }
                    let key = self.zipf.sample(&mut self.rng);
                    self.key_addr =
                        self.data[(key % self.units) as usize].offset(key / self.units * 64);
                    self.reads_left_in_epoch -= 1;
                    self.phase = 1;
                    return Action::Compute {
                        instrs: READ_INSTRS,
                    };
                }
                // Epoch closed for this reader.
                if self.signaler {
                    self.phase = 2;
                    Action::Sync(SyncRequest::CondSignal {
                        var: self.vars.cond,
                    })
                } else {
                    self.barrier_action()
                }
            }
            1 => {
                self.phase = 0;
                self.completing = true;
                Action::Load {
                    addr: self.key_addr,
                }
            }
            _ => self.barrier_action(),
        }
    }

    fn ops_completed(&self) -> u64 {
        self.open.ops
    }

    fn latency_histogram(&self) -> Option<&LogHistogram> {
        Some(&self.open.hist)
    }
}

/// One per unit (when the unit has ≥ 2 clients): sleeps on the condvar until the
/// epoch closes, retires garbage under the epoch lock, joins the barrier.
#[derive(Debug)]
struct ReclaimerProgram {
    vars: UnitVars,
    participants: u32,
    epochs_left: u32,
    phase: u8,
    ops: u64,
}

impl CoreProgram for ReclaimerProgram {
    fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
        if self.epochs_left == 0 {
            return Action::Done;
        }
        match self.phase {
            0 => {
                self.phase = 1;
                Action::Sync(SyncRequest::LockAcquire {
                    var: self.vars.cond_lock,
                })
            }
            1 => {
                self.phase = 2;
                Action::Sync(SyncRequest::CondWait {
                    var: self.vars.cond,
                    lock: self.vars.cond_lock,
                })
            }
            2 => {
                self.phase = 3;
                Action::Sync(SyncRequest::LockRelease {
                    var: self.vars.cond_lock,
                })
            }
            3 => {
                self.phase = 4;
                Action::Sync(SyncRequest::LockAcquire {
                    var: self.vars.epoch_lock,
                })
            }
            4 => {
                self.phase = 5;
                Action::Store {
                    addr: self.vars.retired,
                }
            }
            5 => {
                self.phase = 6;
                Action::Sync(SyncRequest::LockRelease {
                    var: self.vars.epoch_lock,
                })
            }
            _ => {
                self.phase = 0;
                self.epochs_left -= 1;
                self.ops += 1;
                Action::Sync(SyncRequest::BarrierWait {
                    var: self.vars.barrier,
                    participants: self.participants,
                    scope: BarrierScope::WithinUnit,
                })
            }
        }
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }
}

impl Workload for EpochService {
    fn name(&self) -> String {
        service_name(ServiceShape::Epoch, &self.params)
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let units = config.units as u64;
        let keys = self.params.keys.max(1);
        let data = space.allocate_partitioned(
            keys.div_ceil(units) * Addr::LINE_BYTES,
            syncron_system::address::DataClass::SharedReadWrite,
        );
        let unit_vars: Vec<UnitVars> = (0..config.units)
            .map(|u| {
                let home = UnitId(u as u8);
                UnitVars {
                    barrier: space.allocate_shared_rw(64, home),
                    epoch_lock: space.allocate_shared_rw(64, home),
                    cond: space.allocate_shared_rw(64, home),
                    cond_lock: space.allocate_shared_rw(64, home),
                    retired: space.allocate_shared_rw(64, home),
                }
            })
            .collect();
        let epochs = self.params.requests.div_ceil(OPS_PER_EPOCH).max(1);
        let per_unit = config.clients_per_unit() as u32;
        clients
            .iter()
            .enumerate()
            .map(|(i, client)| {
                let vars = unit_vars[client.unit.index()];
                let local = client.core.index() as u32;
                // First client of a multi-client unit reclaims; the next one is
                // the designated signaler.
                if per_unit >= 2 && local == 0 {
                    Box::new(ReclaimerProgram {
                        vars,
                        participants: per_unit,
                        epochs_left: epochs,
                        phase: 0,
                        ops: 0,
                    }) as Box<dyn CoreProgram>
                } else {
                    Box::new(ReaderProgram {
                        open: OpenLoop::new(
                            self.params.arrival,
                            config.seed ^ ((i as u64) << 24) ^ 0xE90C,
                            self.params.requests,
                            config.core_cycle(),
                        ),
                        rng: SimRng::seed_from(config.seed ^ ((i as u64) << 24) ^ 0x4EAD),
                        zipf: ZipfSampler::new(keys, self.params.zipf_s),
                        data: data.clone(),
                        units,
                        vars,
                        participants: per_unit,
                        signaler: per_unit >= 2 && local == 1,
                        epochs_left: epochs,
                        reads_left_in_epoch: OPS_PER_EPOCH,
                        phase: 0,
                        key_addr: Addr(0),
                        completing: false,
                    }) as Box<dyn CoreProgram>
                }
            })
            .collect()
    }
}
