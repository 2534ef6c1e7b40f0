//! Work-stealing deque layer with per-queue locks and semaphore parking.
//!
//! Each client core owns a lock-protected task queue; a per-unit counting
//! semaphore tracks how many tasks are parked in the unit. Serving a request
//! means pushing a task onto the own queue (lock, store, unlock), posting the
//! unit semaphore, then acting as a worker: wait on the semaphore, pick a victim
//! queue in the unit (Zipf-skewed, so one queue is persistently hot and its lock
//! contends), pop from it, and process the stolen task by touching the shared key
//! space. Every core posts before it waits, so the semaphore count seen by any
//! wait is ≥ 1 and the workload is deadlock-free by construction while still
//! exercising the semaphore protocol on every request.

use syncron_core::request::SyncRequest;
use syncron_sim::rng::SimRng;
use syncron_sim::time::Time;
use syncron_sim::{Addr, GlobalCoreId};
use syncron_system::address::AddressSpace;
use syncron_system::config::NdpConfig;
use syncron_system::workload::{Action, CoreProgram, Workload};

use super::zipf::ZipfSampler;
use super::{service_name, LogHistogram, OpenLoop, ServiceParams, ServiceShape};

/// Request-processing overhead in instructions.
const REQUEST_INSTRS: u64 = 16;

/// Zipf skew of victim selection: mild, so stealing concentrates on a hot queue
/// without starving the rest.
const VICTIM_SKEW: f64 = 0.8;

/// The work-stealing open-loop service workload.
#[derive(Clone, Copy, Debug)]
pub struct StealService {
    params: ServiceParams,
}

impl StealService {
    /// Creates the workload.
    pub fn new(params: ServiceParams) -> Self {
        StealService { params }
    }
}

#[derive(Debug)]
struct StealProgram {
    open: OpenLoop,
    rng: SimRng,
    zipf: ZipfSampler,
    /// `(lock, slot)` of every queue in this core's unit, own queue included.
    unit_queues: Vec<(Addr, Addr)>,
    /// Index of the own queue within `unit_queues`.
    own: usize,
    unit_sem: Addr,
    victim_zipf: ZipfSampler,
    /// Per-unit data partitions for stolen-task payloads.
    data: Vec<Addr>,
    units: u64,
    phase: u8,
    victim: usize,
    key_addr: Addr,
    completing: bool,
}

impl CoreProgram for StealProgram {
    fn step(&mut self, _core: GlobalCoreId, now: Time) -> Action {
        match self.phase {
            0 => {
                if self.completing {
                    self.completing = false;
                    self.open.complete(now);
                }
                if self.open.exhausted() {
                    return Action::Done;
                }
                if let Some(idle) = self.open.admit(now) {
                    return idle;
                }
                self.victim = self.victim_zipf.sample(&mut self.rng) as usize;
                let key = self.zipf.sample(&mut self.rng);
                self.key_addr =
                    self.data[(key % self.units) as usize].offset(key / self.units * 64);
                self.phase = 1;
                Action::Compute {
                    instrs: REQUEST_INSTRS,
                }
            }
            // Push the task onto the own queue.
            1 => {
                self.phase = 2;
                Action::Sync(SyncRequest::LockAcquire {
                    var: self.unit_queues[self.own].0,
                })
            }
            2 => {
                self.phase = 3;
                Action::Store {
                    addr: self.unit_queues[self.own].1,
                }
            }
            3 => {
                self.phase = 4;
                Action::Sync(SyncRequest::LockRelease {
                    var: self.unit_queues[self.own].0,
                })
            }
            // Announce it, then park as a worker until a task is available. The
            // post always precedes the wait, so the wait can never block forever.
            4 => {
                self.phase = 5;
                Action::Sync(SyncRequest::SemPost { var: self.unit_sem })
            }
            5 => {
                self.phase = 6;
                Action::Sync(SyncRequest::SemWait {
                    var: self.unit_sem,
                    initial: 0,
                })
            }
            // Steal from the (skewed) victim queue.
            6 => {
                self.phase = 7;
                Action::Sync(SyncRequest::LockAcquire {
                    var: self.unit_queues[self.victim].0,
                })
            }
            7 => {
                self.phase = 8;
                Action::Load {
                    addr: self.unit_queues[self.victim].1,
                }
            }
            8 => {
                self.phase = 9;
                Action::Store {
                    addr: self.unit_queues[self.victim].1,
                }
            }
            9 => {
                self.phase = 10;
                Action::Sync(SyncRequest::LockRelease {
                    var: self.unit_queues[self.victim].0,
                })
            }
            // Process the stolen task: touch its payload in the shared key space.
            _ => {
                self.phase = 0;
                self.completing = true;
                Action::Load {
                    addr: self.key_addr,
                }
            }
        }
    }

    fn ops_completed(&self) -> u64 {
        self.open.ops
    }

    fn latency_histogram(&self) -> Option<&LogHistogram> {
        Some(&self.open.hist)
    }
}

impl Workload for StealService {
    fn name(&self) -> String {
        service_name(ServiceShape::Steal, &self.params)
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
        // One (lock, slot) pair per client, homed at the client's unit, plus one
        // semaphore per unit.
        let queues: Vec<(Addr, Addr)> = clients
            .iter()
            .map(|c| {
                (
                    space.allocate_shared_rw(64, c.unit),
                    space.allocate_shared_rw(64, c.unit),
                )
            })
            .collect();
        let sems: Vec<Addr> = (0..config.units)
            .map(|u| space.allocate_shared_rw(64, syncron_sim::UnitId(u as u8)))
            .collect();
        clients
            .iter()
            .enumerate()
            .map(|(i, client)| {
                let unit_members: Vec<usize> = clients
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.unit == client.unit)
                    .map(|(j, _)| j)
                    .collect();
                let own = unit_members
                    .iter()
                    .position(|&j| j == i)
                    .expect("client in own unit");
                let unit_queues: Vec<(Addr, Addr)> =
                    unit_members.iter().map(|&j| queues[j]).collect();
                Box::new(StealProgram {
                    open: OpenLoop::new(
                        self.params.arrival,
                        config.seed ^ ((i as u64) << 24) ^ 0xDE0E,
                        self.params.requests,
                        config.core_cycle(),
                    ),
                    rng: SimRng::seed_from(config.seed ^ ((i as u64) << 24) ^ 0x57EA),
                    zipf: ZipfSampler::new(keys, self.params.zipf_s),
                    victim_zipf: ZipfSampler::new(unit_queues.len() as u64, VICTIM_SKEW),
                    unit_queues,
                    own,
                    unit_sem: sems[client.unit.index()],
                    data: data.clone(),
                    units,
                    phase: 0,
                    victim: 0,
                    key_addr: Addr(0),
                    completing: false,
                }) as Box<dyn CoreProgram>
            })
            .collect()
    }
}
