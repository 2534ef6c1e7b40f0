//! Sharded key-value store with per-bucket locks.
//!
//! The classic memcached-style shape: the key space is hash-sharded into a fixed
//! set of buckets, each guarded by one lock homed on the unit that owns the
//! shard. A request locks its key's bucket, reads the value line, optionally
//! writes it back (20% of requests), and unlocks. Under Zipf-skewed traffic the
//! hottest keys concentrate onto a handful of buckets, so the per-bucket locks
//! serialize exactly where the load is — the saturation knee of the
//! `offered_load` experiment comes from this serialization, not from raw compute.

use syncron_core::request::SyncRequest;
use syncron_sim::rng::SimRng;
use syncron_sim::time::Time;
use syncron_sim::{Addr, GlobalCoreId};
use syncron_system::address::AddressSpace;
use syncron_system::config::NdpConfig;
use syncron_system::workload::{Action, CoreProgram, Workload};

use super::zipf::ZipfSampler;
use super::{service_name, LogHistogram, OpenLoop, ServiceParams, ServiceShape};

/// Lock buckets per NDP unit; total buckets = units × this.
const BUCKETS_PER_UNIT: u64 = 16;

/// Request-processing overhead (parse + hash) in instructions.
const REQUEST_INSTRS: u64 = 16;

/// Fraction of requests that write the value line back.
const WRITE_FRACTION: f64 = 0.2;

/// The sharded-KV open-loop service workload.
#[derive(Clone, Copy, Debug)]
pub struct KvService {
    params: ServiceParams,
}

impl KvService {
    /// Creates the workload.
    pub fn new(params: ServiceParams) -> Self {
        KvService { params }
    }
}

#[derive(Debug)]
struct KvProgram {
    open: OpenLoop,
    rng: SimRng,
    zipf: ZipfSampler,
    /// Per-unit lock partitions; bucket `b` lives at `locks[b % units] + (b/units)·64`.
    locks: Vec<Addr>,
    /// Per-unit value partitions; key `k` lives at `data[k % units] + (k/units)·64`.
    data: Vec<Addr>,
    units: u64,
    buckets: u64,
    phase: u8,
    lock_addr: Addr,
    key_addr: Addr,
    is_write: bool,
    completing: bool,
}

impl KvProgram {
    fn pick_request(&mut self) {
        let key = self.zipf.sample(&mut self.rng);
        let bucket = key % self.buckets;
        self.lock_addr =
            self.locks[(bucket % self.units) as usize].offset(bucket / self.units * 64);
        self.key_addr = self.data[(key % self.units) as usize].offset(key / self.units * 64);
        self.is_write = self.rng.gen_bool(WRITE_FRACTION);
    }
}

impl CoreProgram for KvProgram {
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
            1 => {
                self.phase = 2;
                Action::Sync(SyncRequest::LockAcquire {
                    var: self.lock_addr,
                })
            }
            2 => {
                self.phase = if self.is_write { 3 } else { 4 };
                Action::Load {
                    addr: self.key_addr,
                }
            }
            3 => {
                self.phase = 4;
                Action::Store {
                    addr: self.key_addr,
                }
            }
            _ => {
                self.phase = 0;
                self.completing = true;
                Action::Sync(SyncRequest::LockRelease {
                    var: self.lock_addr,
                })
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

impl Workload for KvService {
    fn name(&self) -> String {
        service_name(ServiceShape::Kv, &self.params)
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let units = config.units as u64;
        let buckets = units * BUCKETS_PER_UNIT;
        let locks = space.allocate_partitioned(
            BUCKETS_PER_UNIT * Addr::LINE_BYTES,
            syncron_system::address::DataClass::SharedReadWrite,
        );
        let keys = self.params.keys.max(1);
        let data = space.allocate_partitioned(
            keys.div_ceil(units) * Addr::LINE_BYTES,
            syncron_system::address::DataClass::SharedReadWrite,
        );
        clients
            .iter()
            .enumerate()
            .map(|(i, _)| {
                Box::new(KvProgram {
                    open: OpenLoop::new(
                        self.params.arrival,
                        config.seed ^ ((i as u64) << 24) ^ 0xA221,
                        self.params.requests,
                        config.core_cycle(),
                    ),
                    rng: SimRng::seed_from(config.seed ^ ((i as u64) << 24) ^ 0x5A1F),
                    zipf: ZipfSampler::new(keys, self.params.zipf_s),
                    locks: locks.clone(),
                    data: data.clone(),
                    units,
                    buckets,
                    phase: 0,
                    lock_addr: Addr(0),
                    key_addr: Addr(0),
                    is_write: false,
                    completing: false,
                }) as Box<dyn CoreProgram>
            })
            .collect()
    }
}
