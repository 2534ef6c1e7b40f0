//! Fine-grained key-value store: one lock per key, range-scan requests.
//!
//! The [`kv`](super::kv) shape hash-shards its key space into 16 buckets per
//! unit, so its sync-variable population is fixed and always fits the 64-entry
//! Synchronization Table. This shape drops the sharding: every key carries its
//! own lock, and a request is a short *range scan* — it locks [`SCAN_KEYS`]
//! consecutive keys in ascending key order (two-phase locking, so lock
//! acquisition order is globally consistent and deadlock-free), reads each
//! value line, then releases them all. The live sync-variable population is
//! therefore `clients × SCAN_KEYS` held locks drawn from a key space of
//! thousands — far past `st_entries` per engine — so under Zipf-skewed scan
//! starts the head of the key space stays ST-resident while the tail
//! continuously allocates, overflows and recycles entries. That is precisely
//! the regime the overflow machinery (indexing counters, in-memory
//! `syncronVar` images, slot recycling) exists for and one the bucketed shape
//! can never reach.

use syncron_core::request::SyncRequest;
use syncron_sim::rng::SimRng;
use syncron_sim::time::Time;
use syncron_sim::{Addr, GlobalCoreId};
use syncron_system::address::AddressSpace;
use syncron_system::config::NdpConfig;
use syncron_system::workload::{Action, CoreProgram, Workload};

use super::zipf::ZipfSampler;
use super::{service_name, LogHistogram, OpenLoop, ServiceParams, ServiceShape};

/// Consecutive keys locked by one range-scan request.
pub const SCAN_KEYS: usize = 8;

/// Request-processing overhead (parse + plan) in instructions.
const REQUEST_INSTRS: u64 = 16;

/// The per-key-lock range-scan open-loop service workload.
#[derive(Clone, Copy, Debug)]
pub struct FineKvService {
    params: ServiceParams,
}

impl FineKvService {
    /// Creates the workload.
    pub fn new(params: ServiceParams) -> Self {
        FineKvService { params }
    }
}

#[derive(Debug)]
struct FineKvProgram {
    open: OpenLoop,
    rng: SimRng,
    zipf: ZipfSampler,
    /// Per-unit lock partitions; key `k`'s lock lives at `locks[k % units] + (k/units)·64`.
    locks: Vec<Addr>,
    /// Per-unit value partitions; key `k` lives at `data[k % units] + (k/units)·64`.
    data: Vec<Addr>,
    units: u64,
    keys: u64,
    /// The scan's key set, ascending (deduplicated if the key space wraps).
    scan: Vec<u64>,
    idx: usize,
    phase: u8,
    completing: bool,
}

impl FineKvProgram {
    fn pick_request(&mut self) {
        let start = self.zipf.sample(&mut self.rng);
        self.scan.clear();
        for j in 0..SCAN_KEYS as u64 {
            self.scan.push((start + j) % self.keys);
        }
        // Ascending key order is the global lock order shared by every client
        // (two-phase locking): wrap-around scans must re-sort, and a key space
        // smaller than the scan must deduplicate to avoid self-deadlock.
        self.scan.sort_unstable();
        self.scan.dedup();
        self.idx = 0;
    }

    fn lock_addr(&self, key: u64) -> Addr {
        self.locks[(key % self.units) as usize].offset(key / self.units * 64)
    }

    fn data_addr(&self, key: u64) -> Addr {
        self.data[(key % self.units) as usize].offset(key / self.units * 64)
    }
}

impl CoreProgram for FineKvProgram {
    fn step(&mut self, _core: GlobalCoreId, now: Time) -> Action {
        match self.phase {
            // Dispatch: retire the previous request, then wait for / admit the next.
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
                self.pick_request();
                self.phase = 1;
                Action::Compute {
                    instrs: REQUEST_INSTRS,
                }
            }
            // Growing phase: acquire every scan lock in ascending key order.
            1 => {
                let var = self.lock_addr(self.scan[self.idx]);
                self.idx += 1;
                if self.idx == self.scan.len() {
                    self.phase = 2;
                    self.idx = 0;
                }
                Action::Sync(SyncRequest::LockAcquire { var })
            }
            // Read each value line under the locks.
            2 => {
                let addr = self.data_addr(self.scan[self.idx]);
                self.idx += 1;
                if self.idx == self.scan.len() {
                    self.phase = 3;
                    self.idx = 0;
                }
                Action::Load { addr }
            }
            // Shrinking phase: release everything; the last release retires the
            // request at the next dispatch.
            _ => {
                let var = self.lock_addr(self.scan[self.idx]);
                self.idx += 1;
                if self.idx == self.scan.len() {
                    self.phase = 0;
                    self.idx = 0;
                    self.completing = true;
                }
                Action::Sync(SyncRequest::LockRelease { var })
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

impl Workload for FineKvService {
    fn name(&self) -> String {
        service_name(ServiceShape::KvFine, &self.params)
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let units = config.units as u64;
        let keys = self.params.keys.max(1);
        // One lock line and one value line per key, both hash-partitioned over
        // the units: the sync-variable population scales with the key space.
        let locks = space.allocate_partitioned(
            keys.div_ceil(units) * Addr::LINE_BYTES,
            syncron_system::address::DataClass::SharedReadWrite,
        );
        let data = space.allocate_partitioned(
            keys.div_ceil(units) * Addr::LINE_BYTES,
            syncron_system::address::DataClass::SharedReadWrite,
        );
        clients
            .iter()
            .enumerate()
            .map(|(i, _)| {
                Box::new(FineKvProgram {
                    open: OpenLoop::new(
                        self.params.arrival,
                        config.seed ^ ((i as u64) << 24) ^ 0xF1E,
                        self.params.requests,
                        config.core_cycle(),
                    ),
                    rng: SimRng::seed_from(config.seed ^ ((i as u64) << 24) ^ 0x9B3D),
                    zipf: ZipfSampler::new(keys, self.params.zipf_s),
                    locks: locks.clone(),
                    data: data.clone(),
                    units,
                    keys,
                    scan: Vec::with_capacity(SCAN_KEYS),
                    idx: 0,
                    phase: 0,
                    completing: false,
                }) as Box<dyn CoreProgram>
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ArrivalProcess, KvService, ServiceParams};
    use super::*;
    use syncron_core::MechanismKind;
    use syncron_system::run_workload;

    fn params(keys: u64) -> ServiceParams {
        ServiceParams {
            arrival: ArrivalProcess::Poisson { rate_per_us: 0.5 },
            keys,
            zipf_s: 0.99,
            requests: 24,
        }
    }

    fn config() -> NdpConfig {
        NdpConfig::builder()
            .units(2)
            .cores_per_unit(16)
            .mechanism(MechanismKind::SynCron)
            .build()
            .expect("valid config")
    }

    #[test]
    fn per_key_locks_overflow_the_synchronization_table() {
        // 30 clients × 8 held locks per scan ≈ 240 concurrently live sync
        // variables over 2 engines: the 64-entry STs must overflow — the
        // regime the bucketed KV shape (16 locks/unit) can never produce.
        let fine = run_workload(&config(), &FineKvService::new(params(4096)));
        assert!(fine.completed);
        assert!(
            fine.sync.overflowed_requests > 0,
            "per-key scan locks must push the live variable population past st_entries"
        );
        let coarse = run_workload(&config(), &KvService::new(params(4096)));
        assert!(coarse.completed);
        assert_eq!(
            coarse.sync.overflowed_requests, 0,
            "the bucketed shape's 16 locks/unit never overflow"
        );
    }

    #[test]
    fn tiny_key_spaces_deduplicate_instead_of_self_deadlocking() {
        // A key space smaller than the scan width wraps onto itself; the scan
        // must deduplicate (locking a key twice would self-deadlock).
        let report = run_workload(&config(), &FineKvService::new(params(3)));
        assert!(report.completed);
        assert!(report.total_ops > 0);
    }
}
