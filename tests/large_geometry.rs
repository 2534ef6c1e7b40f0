//! Large-geometry correctness tests: the machine past the 64-bit hardware word.
//!
//! The seed reproduction capped waiter tracking at 64 cores/units by accident: the
//! Synchronization Table `Waitlist` was a single `u64` guarded only by a
//! `debug_assert!`, so `cores_per_unit(128)` built fine in release mode and silently
//! aliased waiters modulo 64 (and panicked on the shift in debug mode). These tests
//! pin the fixed behavior: exactly-once wakeup and FIFO service order at 65, 128 and
//! 4096 waiters, a full 16×256 (4096-core) machine completing under all four
//! schemes, and scenario specs round-tripping at extreme field values.

use syncron::core::mechanism::{
    build_mechanism, MechanismParams, RemotePayload, SyncContext, SyncMechanism,
};
use syncron::core::request::{BarrierScope, SyncRequest};
use syncron::prelude::*;
use syncron::sim::EventQueue;
use syncron::system::workload::{Action, CoreProgram, Workload};
use syncron::system::AddressSpace;

/// A minimal machine stand-in driving a mechanism directly: fixed hop and memory
/// latencies, FIFO event delivery, and a record of completions. Geometry-parametric,
/// unlike the in-crate protocol test harness.
struct MechHarness {
    mech: Box<dyn SyncMechanism>,
    ctx: Ctx,
}

struct Ctx {
    now: Time,
    queue: EventQueue<u64>,
    /// Remote payloads in flight, delivered interleaved with the token queue
    /// in arrival-time order.
    inbox: EventQueue<RemotePayload>,
    completed: Vec<GlobalCoreId>,
    units: usize,
    cores_per_unit: usize,
}

impl SyncContext for Ctx {
    fn now(&self) -> Time {
        self.now
    }
    fn schedule(&mut self, at: Time, _unit: UnitId, token: u64) {
        self.queue.push(at, token);
    }
    fn local_hop(&mut self, _unit: UnitId, _bytes: u64) -> Time {
        Time::from_ns(2)
    }
    fn send_remote(&mut self, at: Time, _f: UnitId, _t: UnitId, _bytes: u64, p: RemotePayload) {
        // One flat 40 ns for the whole remote journey, charged at the send
        // side; `recv_hop` is free so end-to-end latencies match the old
        // single-call hop model these tests were written against.
        self.inbox.push(at + Time::from_ns(40), p);
    }
    fn recv_hop(&mut self, _unit: UnitId, _bytes: u64) -> Time {
        Time::ZERO
    }
    fn sync_mem_access(&mut self, _u: UnitId, _a: Addr, _w: bool, _c: bool) -> Time {
        Time::from_ns(20)
    }
    fn home_unit(&self, addr: Addr) -> UnitId {
        UnitId(((addr.value() >> 22) as usize % self.units) as u8)
    }
    fn complete(&mut self, core: GlobalCoreId, _at: Time) {
        self.completed.push(core);
    }
    fn units(&self) -> usize {
        self.units
    }
    fn cores_per_unit(&self) -> usize {
        self.cores_per_unit
    }
}

impl MechHarness {
    fn new(kind: MechanismKind, units: usize, cores_per_unit: usize) -> Self {
        MechHarness {
            mech: build_mechanism(&MechanismParams::new(kind), units, cores_per_unit),
            ctx: Ctx {
                now: Time::ZERO,
                queue: EventQueue::new(),
                inbox: EventQueue::new(),
                completed: Vec::new(),
                units,
                cores_per_unit,
            },
        }
    }

    fn request(&mut self, core: GlobalCoreId, req: SyncRequest) {
        self.mech.request(&mut self.ctx, core, req);
        loop {
            // Deliver the earliest pending item, interleaving scheduled tokens
            // with in-flight remote payloads in arrival-time order.
            let token_at = self.ctx.queue.peek_time();
            let remote_at = self.ctx.inbox.peek_time();
            match (token_at, remote_at) {
                (None, None) => break,
                (Some(t), r) if r.is_none_or(|r| t <= r) => {
                    let (at, token) = self.ctx.queue.pop().unwrap();
                    self.ctx.now = self.ctx.now.max(at);
                    self.mech.deliver(&mut self.ctx, token);
                }
                _ => {
                    let (at, payload) = self.ctx.inbox.pop().unwrap();
                    self.ctx.now = self.ctx.now.max(at);
                    self.mech.deliver_remote(&mut self.ctx, payload);
                }
            }
        }
    }
}

const PROTOCOL_SCHEMES: [MechanismKind; 3] = [
    MechanismKind::Central,
    MechanismKind::Hier,
    MechanismKind::SynCron,
];

/// Lock waiters within one unit past the hardware word: every waiter is granted
/// exactly once and in FIFO order. With the old `u64` Waitlist this geometry
/// panicked on the shift in debug builds and aliased waiters in release builds.
#[test]
fn lock_fifo_exactly_once_at_65_and_128_waiters() {
    for waiters in [65usize, 128] {
        for kind in PROTOCOL_SCHEMES {
            let mut h = MechHarness::new(kind, 2, 128);
            let var = Addr(1 << 22); // homed at unit 1
            let cores: Vec<GlobalCoreId> = (0..waiters)
                .map(|c| GlobalCoreId::new(UnitId(0), CoreId(c as u8)))
                .collect();
            for &c in &cores {
                h.request(c, SyncRequest::LockAcquire { var });
            }
            assert_eq!(h.ctx.completed.len(), 1, "{kind:?}/{waiters}: one holder");
            let mut order = vec![h.ctx.completed[0]];
            for _ in 0..waiters - 1 {
                let holder = *order.last().unwrap();
                h.request(holder, SyncRequest::LockRelease { var });
                let granted = *h.ctx.completed.last().unwrap();
                assert_ne!(granted, holder, "{kind:?}/{waiters}: grant after release");
                order.push(granted);
            }
            h.request(*order.last().unwrap(), SyncRequest::LockRelease { var });
            // Exactly-once: every requester appears exactly once in the grant order.
            assert_eq!(order.len(), waiters, "{kind:?}/{waiters}");
            assert_eq!(
                order, cores,
                "{kind:?}/{waiters}: FIFO service order must match request order"
            );
        }
    }
}

/// A full-machine barrier with 4096 waiters (16 units × 256 cores) wakes every
/// core exactly once under each protocol scheme.
#[test]
fn barrier_wakes_4096_waiters_exactly_once() {
    let (units, cores_per_unit) = (16usize, 256usize);
    let total = (units * cores_per_unit) as u32;
    for kind in PROTOCOL_SCHEMES {
        let mut h = MechHarness::new(kind, units, cores_per_unit);
        let var = Addr(3 << 22);
        for u in 0..units {
            for c in 0..cores_per_unit {
                h.request(
                    GlobalCoreId::new(UnitId(u as u8), CoreId(c as u8)),
                    SyncRequest::BarrierWait {
                        var,
                        participants: total,
                        scope: BarrierScope::AcrossUnits,
                    },
                );
            }
        }
        assert_eq!(
            h.ctx.completed.len(),
            total as usize,
            "{kind:?}: every waiter woken"
        );
        let mut woken: Vec<usize> = h
            .ctx
            .completed
            .iter()
            .map(|c| c.flat_index(cores_per_unit))
            .collect();
        woken.sort_unstable();
        woken.dedup();
        assert_eq!(
            woken.len(),
            total as usize,
            "{kind:?}: each waiter woken exactly once"
        );
    }
}

/// Per-client one-round barrier workload for full-machine runs.
struct OneBarrier {
    rounds: u32,
}

struct OneBarrierProgram {
    bar: Addr,
    participants: u32,
    remaining: u32,
}

impl CoreProgram for OneBarrierProgram {
    fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
        if self.remaining == 0 {
            return Action::Done;
        }
        self.remaining -= 1;
        Action::Sync(SyncRequest::BarrierWait {
            var: self.bar,
            participants: self.participants,
            scope: BarrierScope::AcrossUnits,
        })
    }
}

impl Workload for OneBarrier {
    fn name(&self) -> String {
        "one-barrier".into()
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        _config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let bar = space.allocate_shared_rw(64, UnitId(0));
        clients
            .iter()
            .map(|_| {
                Box::new(OneBarrierProgram {
                    bar,
                    participants: clients.len() as u32,
                    remaining: self.rounds,
                }) as Box<dyn CoreProgram>
            })
            .collect()
    }
}

/// Acceptance: the 16×256 (4096-core) machine completes under all four schemes with
/// exactly-once wakeups, within an explicit event budget.
#[test]
fn scale_4096_machine_completes_under_all_four_schemes() {
    for kind in MechanismKind::COMPARED {
        let config = NdpConfig::builder()
            .units(16)
            .cores_per_unit(256)
            .mechanism(kind)
            .max_events(40_000_000)
            .build()
            .expect("16x256 is a valid geometry");
        let rounds = 2;
        let report = syncron::system::run_workload(&config, &OneBarrier { rounds });
        assert!(report.completed, "{kind:?}: 4096-core run must complete");
        let clients = config.total_clients() as u64;
        assert_eq!(clients, 16 * 255, "one core per unit reserved as server");
        // Exactly-once wakeup: every barrier round completes each blocked client
        // precisely once, so blocking completions equal clients × rounds.
        assert_eq!(
            report.sync.completions,
            clients * u64::from(rounds),
            "{kind:?}: exactly one wakeup per waiter per round"
        );
    }
}

/// A 64×64 machine (the other large-geometry shape named by the scale scenarios)
/// also completes under all four schemes.
#[test]
fn scale_64x64_machine_completes_under_all_four_schemes() {
    for kind in MechanismKind::COMPARED {
        let config = NdpConfig::builder()
            .units(64)
            .cores_per_unit(64)
            .mechanism(kind)
            .max_events(40_000_000)
            .build()
            .expect("64x64 is a valid geometry");
        let report = syncron::system::run_workload(&config, &OneBarrier { rounds: 1 });
        assert!(report.completed, "{kind:?}: 64x64 run must complete");
        assert_eq!(report.sync.completions, config.total_clients() as u64);
    }
}

/// ConfigSpec survives a TOML/JSON round trip at extreme field values (the largest
/// ID-addressable geometry and near-limit scalar knobs).
#[test]
fn config_spec_round_trips_at_extreme_values() {
    let mut spec = ConfigSpec::default().with_geometry(256, 256);
    spec.st_entries = 1 << 20;
    spec.link_latency_ns = 10_000_000;
    spec.max_events = i64::MAX as u64;
    spec.seed = i64::MAX as u64;
    spec.signal_backoff_ns = 1 << 40;
    spec.fairness_threshold = Some(u32::MAX);

    // Value-level round trip.
    let doc = spec.to_value();
    let back = ConfigSpec::from_value(&doc).expect("extreme but valid spec decodes");
    assert_eq!(back, spec);

    // Through JSON text.
    let text = doc.to_json_pretty();
    let reparsed = syncron::harness::json::parse(&text).expect("valid JSON");
    assert_eq!(ConfigSpec::from_value(&reparsed).unwrap(), spec);

    // Through TOML text (the format scenario files use).
    let toml_text: String = doc
        .as_table()
        .expect("config is a table")
        .iter()
        .map(|(k, v)| format!("{k} = {}\n", v.to_json()))
        .collect();
    let toml_doc = syncron::harness::toml::parse(&toml_text).expect("valid TOML");
    assert_eq!(ConfigSpec::from_value(&toml_doc).unwrap(), spec);

    // And the decoded spec builds a real machine description.
    let ndp = back.to_ndp_config().expect("builds");
    assert_eq!(ndp.total_cores(), 65536);
}
