//! The event-driven NDP machine.
//!
//! [`NdpMachine`] assembles the substrates — per-core L1 caches, per-unit crossbars and
//! DRAM devices, inter-unit links, a MESI directory (for the motivational experiments)
//! and one synchronization mechanism — and steps the client cores' programs one
//! [`Action`] at a time, charging each action's latency through the corresponding
//! models. The machine is fully deterministic: same configuration and workload seed,
//! same result.
//!
//! # The run loop
//!
//! One event queue drives the whole machine. The loop pops the earliest
//! `(time, key, event)`, dispatches it, and then checks two limits: the event
//! budget ([`crate::config::NdpConfig::max_events`]) and the liveness watchdog
//! ([`crate::config::NdpConfig::watchdog_limit`], which counts delivered events
//! since a client core last consumed a program action). The budget is checked
//! first; either one stops the run on the event that crossed it. A queue that
//! drains with unfinished cores is a deadlock.
//!
//! Equal-timestamp ordering is pinned by [`event_key`]: every event carries a
//! `(origin unit, per-unit counter)` tiebreak key, drawn once per push and once
//! per inlined step, so the pop order within one timestamp is a property of the
//! simulation.
//!
//! The loop keeps three fast paths: the calendar-queue scheduler by default
//! ([`syncron_sim::event::SchedulerKind`]), a precomputed dense
//! `GlobalCoreId -> client index` table on the resume path, and inline dispatch
//! of a core's next step when it strictly precedes every queued event (bounded
//! by [`crate::config::NdpConfig::inline_step_budget`]; the inlined step still
//! consumes its event key, so the key stream is identical whether a step is
//! inlined or queued).

use crate::address::AddressSpace;
use crate::config::{CoherenceMode, NdpConfig};
use crate::report::{BlockedCore, IncompleteReason, RunReport, SimPerf, StallKind, StallReport};
use crate::workload::{Action, CoreProgram, Workload};

use syncron_core::mechanism::{build_mechanism, RemotePayload, SyncContext, SyncMechanism};
use syncron_mem::cache::L1Cache;
use syncron_mem::dram::{DramModel, DramSpec};
use syncron_mem::energy::EnergyTally;
use syncron_mem::mesi::{CoherentAccess, MesiDirectory};
use syncron_net::crossbar::Crossbar;
use syncron_net::fault::{DedupSet, FaultEngine};
use syncron_net::link::InterUnitLink;
use syncron_net::traffic::TrafficStats;
use syncron_sim::event::{event_key, CalendarParams, EventQueue, SchedulerKind};
use syncron_sim::time::Time;
use syncron_sim::{Addr, BitQueue, CoreId, GlobalCoreId, UnitId};

/// Size of a request header packet on the network, in bytes.
const HDR_BYTES: u64 = 16;
/// Size of a data (cache line) packet on the network, in bytes.
const LINE_BYTES: u64 = 64;

#[derive(Clone, Copy, Debug)]
enum Event {
    /// A client core (by dense global client index) is ready for its next action.
    CoreStep(usize),
    /// A blocking synchronization request completed; the core resumes.
    CoreResume(GlobalCoreId),
    /// A broadcast release completed several cores of one unit at one time;
    /// they resume in ascending core order from one queued event. `token`
    /// indexes the burst slab ([`Substrates::bursts`]). Replaces
    /// O(waiters) `CoreResume` events with one, without changing the resume
    /// order by a single bit (see [`Substrates::complete`]).
    CoreResumeBurst { token: u32 },
    /// A token scheduled by the synchronization mechanism for the engine of
    /// `unit` is due.
    SyncToken { unit: UnitId, token: u64 },
    /// A cross-unit mechanism message arrives at the engine of `to`.
    RemoteSync { to: UnitId, payload: RemotePayload },
    /// A fault-injected copy of a cross-unit mechanism message. `tag` is
    /// unique per transmission; the receiver's [`DedupSet`] pairs duplicate
    /// copies so exactly one of them is delivered. Only the fault path emits
    /// this variant — faults-off runs never see it.
    RemoteSyncTagged {
        to: UnitId,
        payload: RemotePayload,
        tag: u64,
    },
    /// The retransmission timer of a dropped mechanism message fired on the
    /// sending unit `from`; the message is re-sent with the next attempt
    /// number (bounded exponential backoff, see
    /// [`syncron_net::fault::FaultConfig::retry_delay`]).
    FaultRetry {
        from: UnitId,
        to: UnitId,
        bytes: u64,
        payload: RemotePayload,
        attempt: u32,
    },
    /// A remote data request from client `idx` reaches the home unit of `addr`.
    DataReq {
        idx: usize,
        home: UnitId,
        addr: Addr,
        write: bool,
        rmw: bool,
    },
    /// The data line returns to client `idx`'s unit; the core's access completes.
    DataReply { idx: usize, rmw: bool },
}

/// Precomputed dense `GlobalCoreId -> client index` table.
///
/// Replaces the `HashMap` lookup that used to sit on the `CoreResume` hot path:
/// resolution is one bounds check plus one slot load. Slots covering server cores
/// (and the whole table for out-of-geometry IDs) answer `None`.
#[derive(Clone, Debug)]
struct ClientIndex {
    units: usize,
    cores_per_unit: usize,
    /// One slot per `(unit, core)` of the configured geometry; `NOT_A_CLIENT`
    /// marks reserved server cores.
    slots: Vec<u32>,
}

const NOT_A_CLIENT: u32 = u32::MAX;

impl ClientIndex {
    fn new(units: usize, cores_per_unit: usize, clients: &[GlobalCoreId]) -> Self {
        let mut slots = vec![NOT_A_CLIENT; units * cores_per_unit];
        for (index, core) in clients.iter().enumerate() {
            slots[core.flat_index(cores_per_unit)] = index as u32;
        }
        ClientIndex {
            units,
            cores_per_unit,
            slots,
        }
    }

    /// The dense client index of `core`, or `None` when the core is outside the
    /// machine geometry or is a reserved server core.
    #[inline]
    fn get(&self, core: GlobalCoreId) -> Option<usize> {
        // Guard both coordinates: a local core ID at or past `cores_per_unit`
        // would otherwise alias into the next unit's flat range.
        if core.unit.index() >= self.units || core.core.index() >= self.cores_per_unit {
            return None;
        }
        let slot = self.slots[core.flat_index(self.cores_per_unit)];
        (slot != NOT_A_CLIENT).then_some(slot as usize)
    }
}

/// Resolves a resumed core to its dense client index.
///
/// # Panics
///
/// Panics — naming the core — when the core is not a client of this machine
/// (outside the configured geometry, or a reserved server core). A resume for
/// such a core is always a mechanism bug; it used to be silently dropped,
/// which turned protocol bugs into unexplainable deadlocks.
fn resolve_client_in(index: &ClientIndex, core: GlobalCoreId, clients_total: usize) -> usize {
    index.get(core).unwrap_or_else(|| {
        panic!(
            "CoreResume for core {core}, which is not a client of this machine \
             ({} units x {} cores, {} clients): either the core is outside the \
             geometry or it is a reserved server core",
            index.units, index.cores_per_unit, clients_total
        )
    })
}

/// A pending [`Event::CoreResumeBurst`]: the cores of `unit` resuming together
/// at one timestamp. Slab-allocated so the `Copy` event stays one word.
#[derive(Clone, Debug, Default)]
struct ResumeBurst {
    unit: UnitId,
    /// Local core indices of the burst members; iterated (and therefore
    /// resumed) in ascending order.
    cores: BitQueue,
    live: bool,
}

/// Watermark for appending to the most recently opened resume burst.
///
/// A completion may merge into the open burst only when nothing that could
/// order between them has happened since it was opened: same target `unit`,
/// same resume time `at`, no event key drawn from the executing unit's counter
/// since the burst event was pushed (`stamp`, mirroring
/// [`SyncContext::schedule_stamp`]'s batching proof), and a strictly ascending
/// core index (`last_core`) so the burst's ascending-order delivery is exactly
/// the order the individual `CoreResume` events would have popped in.
#[derive(Clone, Copy, Debug)]
struct OpenBurst {
    token: u32,
    unit: usize,
    at: Time,
    stamp: u64,
    last_core: usize,
}

/// The machine substrates, plus the clock and event queue.
///
/// The struct implements [`SyncContext`] directly: the synchronization mechanism
/// operates on these crossbars, DRAMs and this queue. Per-unit vectors are
/// indexed by unit; the accessors check the unit against the geometry, so a
/// token, route or completion aimed outside it is a hard error naming the
/// unit, never an anonymous index panic.
struct Substrates {
    queue: EventQueue<Event>,
    /// Crossbars, one per unit.
    crossbars: Vec<Crossbar>,
    links: InterUnitLink,
    /// DRAM devices, one per unit.
    drams: Vec<DramModel>,
    /// Server-core caches, one per unit.
    server_l1s: Vec<L1Cache>,
    traffic: TrafficStats,
    space: AddressSpace,
    /// Per-unit event-key counters.
    key_counters: Vec<u64>,
    /// Unit of the event currently being dispatched; every key pushed while it
    /// runs is drawn from this unit's counter.
    cur_unit: usize,
    now: Time,
    units: usize,
    cores_per_unit: usize,
    /// Whether broadcast completions coalesce into [`Event::CoreResumeBurst`]
    /// events (the `burst_resume` knob; results are bit-identical either way).
    burst_resume: bool,
    /// Slab of pending resume bursts, indexed by the event's `token`.
    bursts: Vec<ResumeBurst>,
    /// Free slots of the burst slab.
    burst_free: Vec<u32>,
    /// The most recently opened burst still eligible for appends.
    open_burst: Option<OpenBurst>,
    /// Fault oracle for outbound mechanism messages; `Some` iff fault
    /// injection is enabled. Verdicts are pure functions of
    /// `(seed, link, sequence)`.
    fault: Option<FaultEngine>,
    /// Receiver-side pairing of duplicated (tagged) message copies.
    dedup: DedupSet,
}

impl Substrates {
    /// The index of `unit`, asserting it lies inside the geometry.
    ///
    /// # Panics
    ///
    /// Panics naming `what`, the unit and the geometry when `unit` is outside
    /// it — always a bug in whoever produced the unit.
    #[inline]
    fn unit_index(&self, unit: usize, what: &str) -> usize {
        assert!(
            unit < self.units,
            "{what} targeted unit U{unit}, which is outside the machine geometry \
             of {} units",
            self.units
        );
        unit
    }

    #[inline]
    fn xbar_at(&mut self, unit: UnitId) -> &mut Crossbar {
        let i = self.unit_index(unit.index(), "a crossbar transfer");
        &mut self.crossbars[i]
    }

    #[inline]
    fn dram_at(&mut self, unit: UnitId) -> &mut DramModel {
        let i = self.unit_index(unit.index(), "a DRAM access");
        &mut self.drams[i]
    }

    /// Draws the next event key from the current execution unit's counter.
    ///
    /// Called exactly once per scheduled event *and* once per inlined step, so
    /// the per-unit key streams evolve identically whatever the inline-dispatch
    /// decisions.
    #[inline]
    fn next_key(&mut self) -> u64 {
        let slot = &mut self.key_counters[self.cur_unit];
        let key = event_key(self.cur_unit, *slot);
        *slot += 1;
        key
    }

    /// Schedules `event` at `at` for `unit`. The key is drawn from the
    /// *originating* (current) unit, so the tiebreak order is a property of
    /// the simulation. Routing to a unit outside the geometry is a hard error
    /// naming the unit.
    fn route(&mut self, at: Time, unit: usize, event: Event) {
        self.unit_index(unit, "a routed message");
        let key = self.next_key();
        self.queue.push_keyed(at, key, event);
    }

    /// The fault-injecting send path for cross-unit mechanism messages
    /// (`attempt` is 0 for the original transmission, `k` for the k-th
    /// retransmission).
    ///
    /// Every transmission — kept or dropped — loads the network exactly like
    /// the fast path: the bytes are accounted and charged through the sender's
    /// crossbar and the link, so contention under faults is real. A dropped
    /// transmission schedules only a local [`Event::FaultRetry`] on the
    /// sending unit (bounded exponential backoff); a kept one arrives after
    /// any injected jitter plus the destination SE's stall-window deferral.
    /// Duplicates arrive as two [`Event::RemoteSyncTagged`] copies sharing a
    /// tag; the receiver delivers exactly one. With all fault probabilities
    /// zero every verdict is clean and this path schedules exactly the events
    /// the fast path would, with the same keys — the knob-aliveness contract.
    fn send_remote_faulted(
        &mut self,
        at: Time,
        from: UnitId,
        to: UnitId,
        bytes: u64,
        payload: RemotePayload,
        attempt: u32,
    ) {
        let engine = self
            .fault
            .as_mut()
            .expect("fault send path without a fault engine");
        let verdict = engine.verdict(from.index(), to.index(), attempt);
        if attempt > 0 {
            engine.stats.retransmitted += 1;
        }
        let retry_delay = engine.config().retry_delay(attempt);
        self.traffic.add_inter(bytes);
        let mut lat = self.xbar_at(from).transfer(at, bytes);
        lat += self.links.transfer(at + lat, from, to, bytes);
        if verdict.dropped {
            self.fault.as_mut().expect("fault engine").stats.dropped += 1;
            self.route(
                at + retry_delay,
                from.index(),
                Event::FaultRetry {
                    from,
                    to,
                    bytes,
                    payload,
                    attempt: attempt + 1,
                },
            );
            return;
        }
        let mut arrival = at + lat;
        if verdict.jitter > Time::ZERO {
            self.fault.as_mut().expect("fault engine").stats.delayed += 1;
            arrival += verdict.jitter;
        }
        let defer = self
            .fault
            .as_ref()
            .expect("fault engine")
            .stall_defer(to.index(), arrival);
        if defer > Time::ZERO {
            self.fault.as_mut().expect("fault engine").stats.stalled += 1;
            arrival += defer;
        }
        if verdict.duplicated {
            self.fault.as_mut().expect("fault engine").stats.duplicated += 1;
            let tag = verdict.tag;
            self.route(
                arrival,
                to.index(),
                Event::RemoteSyncTagged { to, payload, tag },
            );
            self.route(
                arrival + verdict.dup_offset,
                to.index(),
                Event::RemoteSyncTagged { to, payload, tag },
            );
        } else {
            self.route(arrival, to.index(), Event::RemoteSync { to, payload });
        }
    }
}

impl SyncContext for Substrates {
    fn now(&self) -> Time {
        self.now
    }

    fn schedule(&mut self, at: Time, unit: UnitId, token: u64) {
        self.unit_index(unit.index(), "a mechanism token");
        let key = self.next_key();
        self.queue
            .push_keyed(at, key, Event::SyncToken { unit, token });
    }

    fn schedule_stamp(&self) -> Option<u64> {
        // The next key the current unit would draw. It changes on every push
        // from this unit and advances by exactly one per `schedule` call, so
        // the protocol's equal-timestamp batching can prove "no event was
        // scheduled in between" — and because the key encodes the origin unit,
        // the watermark can never be confused with another unit's pushes.
        let counter = self.key_counters[self.cur_unit];
        Some(event_key(self.cur_unit, counter))
    }

    fn local_hop(&mut self, unit: UnitId, bytes: u64) -> Time {
        self.traffic.add_intra(bytes);
        let now = self.now;
        self.xbar_at(unit).transfer(now, bytes)
    }

    fn send_remote(
        &mut self,
        at: Time,
        from: UnitId,
        to: UnitId,
        bytes: u64,
        payload: RemotePayload,
    ) {
        if self.fault.is_some() {
            self.send_remote_faulted(at, from, to, bytes, payload, 0);
            return;
        }
        self.traffic.add_inter(bytes);
        let mut lat = self.xbar_at(from).transfer(at, bytes);
        lat += self.links.transfer(at + lat, from, to, bytes);
        self.route(at + lat, to.index(), Event::RemoteSync { to, payload });
    }

    fn recv_hop(&mut self, unit: UnitId, bytes: u64) -> Time {
        // Traffic was accounted at the send side; this is only the
        // destination-crossbar leg of the remote message.
        let now = self.now;
        self.xbar_at(unit).transfer(now, bytes)
    }

    fn sync_mem_access(&mut self, unit: UnitId, addr: Addr, write: bool, cached: bool) -> Time {
        let u = self.unit_index(unit.index(), "a synchronization memory access");
        let mut lat = Time::ZERO;
        if cached {
            let outcome = self.server_l1s[u].access(addr, write);
            lat += self.server_l1s[u].hit_latency();
            if outcome.is_hit() {
                return lat;
            }
        }
        // Miss (or uncached syncronVar access): go to the unit's local DRAM through the
        // crossbar.
        lat += self.crossbars[u].transfer(self.now + lat, HDR_BYTES);
        let done = self.drams[u].access(self.now + lat, addr, write);
        lat = done.saturating_sub(self.now);
        lat += self.crossbars[u].transfer(self.now + lat, LINE_BYTES);
        self.traffic.add_intra(HDR_BYTES + LINE_BYTES);
        lat
    }

    fn home_unit(&self, addr: Addr) -> UnitId {
        self.space.home_unit(addr)
    }

    fn complete(&mut self, core: GlobalCoreId, at: Time) {
        self.unit_index(core.unit.index(), "a completion");
        let at = at.max(self.now);
        if !self.burst_resume {
            let key = self.next_key();
            self.queue.push_keyed(at, key, Event::CoreResume(core));
            return;
        }
        // Burst path: a broadcast release completes many cores back to back at
        // one timestamp. Without bursting each completion pushes its own
        // CoreResume, drawing consecutive keys from the executing unit's
        // counter — so they pop contiguously, in completion order. Appending to
        // the open burst reproduces exactly that order as long as (a) no key
        // was drawn from the executing unit since the burst event was pushed
        // (the `stamp` check — any interleaving push would have ordered between
        // the individual resumes), (b) the target unit and resume time match,
        // and (c) the core index is strictly ascending, because the burst
        // delivers its members in ascending order. Any break in those
        // conditions simply opens a fresh burst: correctness never depends on
        // the completion pattern.
        let (unit, core_ix) = (core.unit.index(), core.core.index());
        if let Some(open) = self.open_burst {
            let counter = self.key_counters[self.cur_unit];
            if open.unit == unit
                && open.at == at
                && open.stamp == event_key(self.cur_unit, counter)
                && core_ix > open.last_core
            {
                let burst = &mut self.bursts[open.token as usize];
                debug_assert!(burst.live && burst.unit == core.unit);
                burst.cores.set(core_ix);
                self.open_burst = Some(OpenBurst {
                    last_core: core_ix,
                    ..open
                });
                return;
            }
        }
        let key = self.next_key();
        let token = match self.burst_free.pop() {
            Some(token) => token,
            None => {
                self.bursts.push(ResumeBurst::default());
                (self.bursts.len() - 1) as u32
            }
        };
        let burst = &mut self.bursts[token as usize];
        debug_assert!(!burst.live && burst.cores.is_empty());
        burst.unit = core.unit;
        burst.cores.set(core_ix);
        burst.live = true;
        self.queue
            .push_keyed(at, key, Event::CoreResumeBurst { token });
        // The watermark is the next key the executing unit would draw *after*
        // the burst event's own push.
        let counter = self.key_counters[self.cur_unit];
        self.open_burst = Some(OpenBurst {
            token,
            unit,
            at,
            stamp: event_key(self.cur_unit, counter),
            last_core: core_ix,
        });
    }

    fn units(&self) -> usize {
        self.units
    }

    fn cores_per_unit(&self) -> usize {
        self.cores_per_unit
    }
}

/// Why a run stopped before its event queue drained.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AbortCause {
    /// The event budget is exhausted.
    Budget,
    /// The liveness watchdog fired: more than the configured number of events
    /// were delivered without any core making forward progress.
    Stall,
}

/// The simulated NDP system.
pub struct NdpMachine {
    config: NdpConfig,
    sub: Substrates,
    mechanism: Option<Box<dyn SyncMechanism>>,
    /// Global core IDs of the client cores, indexed by dense client index.
    clients: Vec<GlobalCoreId>,
    client_index: ClientIndex,
    /// Programs of the clients (same indexing).
    programs: Vec<Box<dyn CoreProgram>>,
    l1s: Vec<L1Cache>,
    core_done: Vec<bool>,
    /// For each client, the sync-variable address its pending blocking
    /// request targets — `Some` while the core is parked in the mechanism,
    /// cleared the moment it resumes. Feeds the watchdog's [`StallReport`].
    blocked_on: Vec<Option<Addr>>,
    /// MESI directory; present only in the MESI coherence mode.
    mesi: Option<MesiDirectory>,
    mesi_network_pj: f64,
    done_count: usize,
    events_delivered: u64,
    /// `events_delivered` as of the last forward progress: the last program
    /// action consumed by a client core. Mechanism chatter (tokens, remote
    /// messages, retransmissions) does not count, so a retransmission storm
    /// that wakes no core is visible to the watchdog as zero progress.
    progress_at: u64,
    last_finish: Time,
    instructions: u64,
    loads: u64,
    stores: u64,
    sync_requests: u64,
    workload_name: String,
    completed: bool,
    /// Why the last run ended incomplete; `None` after a completed run.
    incomplete: Option<IncompleteReason>,
}

impl std::fmt::Debug for NdpMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NdpMachine(workload={}, clients={}, time={})",
            self.workload_name,
            self.clients.len(),
            self.now()
        )
    }
}

impl NdpMachine {
    /// Builds a machine for `config` running `workload`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`NdpConfig::validate`]; configurations
    /// from [`NdpConfig::builder`] are always valid) or if the workload returns a
    /// different number of programs than there are client cores.
    pub fn new(config: &NdpConfig, workload: &dyn Workload) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let mut space = AddressSpace::new(config.units);
        let clients = config.client_cores();
        let programs = workload.build(&mut space, config, &clients);
        assert_eq!(
            programs.len(),
            clients.len(),
            "workload must provide one program per client core"
        );
        let client_index = ClientIndex::new(config.units, config.cores_per_unit, &clients);
        let units = config.units;
        let dram_spec = DramSpec::for_tech(config.mem_tech);
        let mesi = match config.coherence {
            CoherenceMode::SoftwareAssisted => None,
            CoherenceMode::MesiDirectory => Some(MesiDirectory::new(
                config.units,
                config.cores_per_unit,
                config.mesi,
            )),
        };
        // Pre-size for the steady state so large geometries (thousands of
        // cores) never reallocate mid-run: every client can have a step or
        // resume event in flight plus a few mechanism tokens each. For the
        // calendar queue the buckets are sized so one core cycle maps to one
        // bucket and the reserve pre-allocates the far-future overflow heap.
        let mut queue = match config.scheduler {
            SchedulerKind::Calendar => {
                EventQueue::calendar(CalendarParams::for_cycle(config.core_cycle()))
            }
            SchedulerKind::Heap => EventQueue::with_scheduler(SchedulerKind::Heap),
        };
        queue.reserve(clients.len() * 8 + 64);
        let mut machine = NdpMachine {
            sub: Substrates {
                queue,
                crossbars: (0..units).map(|_| Crossbar::new(config.crossbar)).collect(),
                links: InterUnitLink::new(config.link, units),
                drams: (0..units).map(|_| DramModel::new(dram_spec)).collect(),
                server_l1s: (0..units).map(|_| L1Cache::new(config.l1)).collect(),
                traffic: TrafficStats::new(),
                space,
                key_counters: vec![0; units],
                cur_unit: 0,
                now: Time::ZERO,
                units,
                cores_per_unit: config.cores_per_unit,
                burst_resume: config.burst_resume,
                bursts: Vec::new(),
                burst_free: Vec::new(),
                open_burst: None,
                fault: config
                    .fault
                    .enabled
                    .then(|| FaultEngine::new(config.fault, config.seed, units)),
                dedup: DedupSet::new(),
            },
            mechanism: Some(build_mechanism(
                &config.mechanism,
                units,
                config.cores_per_unit,
            )),
            l1s: clients.iter().map(|_| L1Cache::new(config.l1)).collect(),
            core_done: vec![false; clients.len()],
            blocked_on: vec![None; clients.len()],
            programs,
            clients,
            client_index,
            mesi,
            mesi_network_pj: 0.0,
            config: *config,
            done_count: 0,
            events_delivered: 0,
            progress_at: 0,
            last_finish: Time::ZERO,
            instructions: 0,
            loads: 0,
            stores: 0,
            sync_requests: 0,
            workload_name: workload.name(),
            completed: false,
            incomplete: None,
        };
        // Seed the initial steps in client order so every core's first event
        // carries its unit's first keys.
        for (i, core) in machine.clients.iter().enumerate() {
            machine.sub.cur_unit = core.unit.index();
            let key = machine.sub.next_key();
            machine
                .sub
                .queue
                .push_keyed(Time::ZERO, key, Event::CoreStep(i));
        }
        machine
    }

    /// Resolves a resumed core to its dense client index (test hook).
    #[cfg(test)]
    fn resolve_client(&self, core: GlobalCoreId) -> usize {
        resolve_client_in(&self.client_index, core, self.clients.len())
    }

    /// Runs the machine until every client core has finished (or the event safety
    /// limit is reached) and returns the report.
    pub fn run(&mut self) -> RunReport {
        let wall_start = std::time::Instant::now();
        let abort = self.run_events();
        self.completed = abort.is_none() && self.done_count == self.clients.len();
        self.incomplete = if self.completed {
            None
        } else {
            Some(match abort {
                Some(AbortCause::Budget) => IncompleteReason::EventBudget,
                // Events kept circulating without any core consuming a
                // program action: a livelock.
                Some(AbortCause::Stall) => {
                    IncompleteReason::Stalled(self.stall_report(StallKind::NoProgress))
                }
                // The queue drained with unfinished cores still parked: a
                // deadlock.
                None => IncompleteReason::Stalled(self.stall_report(StallKind::EmptyFrontier)),
            })
        };
        self.build_report(wall_start.elapsed())
    }

    /// The run loop: pops and dispatches events until the queue drains
    /// (`None`) or a limit stops the run. After every event it checks the
    /// event budget, then the liveness watchdog.
    fn run_events(&mut self) -> Option<AbortCause> {
        let max_events = self.config.max_events;
        let watchdog = self.config.watchdog_limit();
        while let Some((at, event)) = self.sub.queue.pop() {
            self.dispatch(at, event);
            if self.events_delivered > max_events {
                return Some(AbortCause::Budget);
            }
            if watchdog > 0 && self.events_delivered - self.progress_at > watchdog {
                return Some(AbortCause::Stall);
            }
        }
        None
    }

    /// Diagnoses a stalled run: collects the unfinished cores and the
    /// sync-variable addresses their pending blocking requests name.
    fn stall_report(&self, kind: StallKind) -> StallReport {
        let mut blocked = Vec::new();
        let mut blocked_total = 0usize;
        let mut unfinished = 0usize;
        for (idx, core) in self.clients.iter().enumerate() {
            if self.core_done[idx] {
                continue;
            }
            unfinished += 1;
            if let Some(addr) = self.blocked_on[idx] {
                blocked_total += 1;
                if blocked.len() < StallReport::BLOCKED_CAP {
                    blocked.push(BlockedCore {
                        unit: core.unit.index(),
                        core: core.core.index(),
                        addr: addr.0,
                    });
                }
            }
        }
        StallReport {
            kind,
            blocked,
            blocked_total,
            unfinished,
        }
    }

    /// The configuration this machine runs.
    pub fn config(&self) -> &NdpConfig {
        &self.config
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.sub.now
    }

    fn build_report(&mut self, wall: std::time::Duration) -> RunReport {
        let end = if self.last_finish > Time::ZERO {
            self.last_finish
        } else {
            self.now()
        };
        // The floating-point sums below run in a fixed order (client L1s, then
        // server L1s, then per-unit devices in unit order).
        let mut energy = EnergyTally::new();
        let mut l1_hits = 0u64;
        let mut l1_accesses = 0u64;
        for l1 in self.l1s.iter().chain(&self.sub.server_l1s) {
            energy.add_cache(l1.energy_pj());
            l1_hits += l1.stats().hits.get();
            l1_accesses += l1.stats().accesses();
        }
        let mut dram_accesses = 0u64;
        for dram in &self.sub.drams {
            energy.add_memory(dram.energy_pj());
            dram_accesses += dram.stats().total_accesses();
        }
        for xbar in &self.sub.crossbars {
            energy.add_network(xbar.energy_pj());
        }
        energy.add_network(
            self.config
                .link
                .energy_pj_of_bytes(self.sub.links.stats().bytes.get()),
        );
        energy.add_network(self.mesi_network_pj);

        let total_ops: u64 = self.programs.iter().map(|p| p.ops_completed()).sum();
        // Open-loop workloads expose per-core latency histograms; merge them into
        // one machine-wide tail-latency summary. Closed-loop programs expose none
        // and the report keeps `latency: None`.
        let mut latency_hist = syncron_sim::stats::LogHistogram::new();
        for program in &self.programs {
            if let Some(hist) = program.latency_histogram() {
                latency_hist.merge(hist);
            }
        }
        let latency = crate::report::LatencyReport::from_histogram(&latency_hist);

        let mechanism = self.mechanism.as_ref();
        let sync = mechanism.map(|m| m.stats(end)).unwrap_or_default();
        let mechanism_name = mechanism.map(|m| m.name().to_string()).unwrap_or_default();

        RunReport {
            workload: self.workload_name.clone(),
            mechanism: mechanism_name,
            sim_time: end,
            completed: self.completed,
            total_ops,
            instructions: self.instructions,
            loads: self.loads,
            stores: self.stores,
            sync_requests: self.sync_requests,
            energy,
            traffic: self.sub.traffic,
            sync,
            dram_accesses,
            l1_hit_ratio: if l1_accesses == 0 {
                0.0
            } else {
                l1_hits as f64 / l1_accesses as f64
            },
            latency,
            incomplete: self.incomplete.clone(),
            // `Some` iff fault injection is enabled — an enabled run with zero
            // faults reports all-zero counters, which report divergence treats
            // as equal to `None` (the knob-aliveness contract).
            faults: self.sub.fault.as_ref().map(|engine| engine.stats),
            perf: SimPerf {
                wall_seconds: wall.as_secs_f64(),
                events_delivered: self.events_delivered,
            },
        }
    }

    /// The unit whose state `event` operates on (and whose key counter feeds
    /// everything it schedules).
    fn unit_of(&self, event: &Event) -> usize {
        match *event {
            Event::CoreStep(idx) | Event::DataReply { idx, .. } => self.clients[idx].unit.index(),
            Event::CoreResume(core) => core.unit.index(),
            Event::CoreResumeBurst { token } => self.sub.bursts[token as usize].unit.index(),
            Event::SyncToken { unit, .. } => unit.index(),
            Event::RemoteSync { to, .. } | Event::RemoteSyncTagged { to, .. } => to.index(),
            Event::FaultRetry { from, .. } => from.index(),
            Event::DataReq { home, .. } => home.index(),
        }
    }

    /// Delivers one popped event, then chases the core's next steps inline
    /// while they strictly precede every queued event (and the event budget is
    /// not yet exhausted). An inlined step consumes its event key exactly as a
    /// queued one would, so the key streams — and therefore all reports — are
    /// independent of the inline decisions.
    fn dispatch(&mut self, at: Time, event: Event) {
        let mut inline_budget = self.config.inline_step_budget;
        let mut current = (at, event);
        loop {
            let (at, event) = current;
            self.sub.now = self.sub.now.max(at);
            self.events_delivered += 1;
            self.sub.cur_unit = self.unit_of(&event);
            let next_step: Option<(Time, usize)> = match event {
                Event::CoreStep(idx) => self.step_core(idx).map(|t| (t, idx)),
                Event::CoreResume(core) => {
                    let idx = resolve_client_in(&self.client_index, core, self.clients.len());
                    assert!(
                        !self.core_done[idx],
                        "CoreResume for core {core}, which already finished: the \
                         mechanism completed the same request twice"
                    );
                    self.step_core(idx).map(|t| (t, idx))
                }
                Event::CoreResumeBurst { token } => {
                    // Close the open burst first: a completion scheduled while
                    // the members run must not append to this already-popped
                    // token.
                    if self.sub.open_burst.is_some_and(|open| open.token == token) {
                        self.sub.open_burst = None;
                    }
                    let burst = &mut self.sub.bursts[token as usize];
                    debug_assert!(burst.live);
                    burst.live = false;
                    let unit = burst.unit;
                    // Swap the member set out so the slab entry never aliases
                    // the walk; it goes back (drained, allocation intact) when
                    // the token returns to the free list below.
                    let mut cores = std::mem::take(&mut burst.cores);
                    // Ascending-core iteration is exactly the order the
                    // individual CoreResume events would have popped in (the
                    // append guard admits only ascending indices). Each
                    // member's next step is routed, never inlined — routing
                    // draws the same one key inlining would have consumed, so
                    // the key streams cannot tell the difference.
                    while let Some(core_ix) = cores.pop_first() {
                        let core = GlobalCoreId::new(unit, CoreId(core_ix as u8));
                        let idx = resolve_client_in(&self.client_index, core, self.clients.len());
                        assert!(
                            !self.core_done[idx],
                            "CoreResume for core {core}, which already finished: the \
                             mechanism completed the same request twice"
                        );
                        if let Some(t) = self.step_core(idx) {
                            self.sub.route(t, core.unit.index(), Event::CoreStep(idx));
                        }
                    }
                    // Hand the (now empty) word buffer back to the slab so a
                    // recycled token resumes with its capacity instead of
                    // reallocating per wake-up.
                    self.sub.bursts[token as usize].cores = cores;
                    self.sub.burst_free.push(token);
                    None
                }
                Event::SyncToken { token, .. } => {
                    self.with_mechanism(|mech, ctx| mech.deliver(ctx, token));
                    None
                }
                Event::RemoteSync { payload, .. } => {
                    self.with_mechanism(|mech, ctx| mech.deliver_remote(ctx, payload));
                    None
                }
                Event::RemoteSyncTagged { payload, tag, .. } => {
                    // A tagged copy delivers once: the first copy of a pair is
                    // handed to the mechanism, its twin is discarded here —
                    // duplicates are idempotent without the protocol knowing.
                    if self.sub.dedup.discard(tag) {
                        if let Some(engine) = self.sub.fault.as_mut() {
                            engine.stats.dup_discarded += 1;
                        }
                    } else {
                        self.with_mechanism(|mech, ctx| mech.deliver_remote(ctx, payload));
                    }
                    None
                }
                Event::FaultRetry {
                    from,
                    to,
                    bytes,
                    payload,
                    attempt,
                } => {
                    let now = self.sub.now;
                    self.sub
                        .send_remote_faulted(now, from, to, bytes, payload, attempt);
                    None
                }
                Event::DataReq {
                    idx,
                    home,
                    addr,
                    write,
                    rmw,
                } => {
                    self.serve_data_req(idx, home, addr, write, rmw);
                    None
                }
                Event::DataReply { idx, rmw } => self.serve_data_reply(idx, rmw).map(|t| (t, idx)),
            };
            let Some((t, idx)) = next_step else { return };
            // Inline dispatch: when the core's next step strictly precedes
            // every queued event it is the unique next pop, so executing it
            // without the queue round-trip is behaviour-preserving. The
            // fairness budget bounds how long one pop may monopolize the loop;
            // an exhausted event budget queues the step so the run loop stops
            // on the event that crossed it.
            if inline_budget > 0
                && self.events_delivered <= self.config.max_events
                && self.sub.queue.peek_time().is_none_or(|p| t < p)
            {
                inline_budget -= 1;
                // Consume the key the queued event would have carried, keeping
                // the per-unit key streams identical either way.
                let _ = self.sub.next_key();
                current = (t, Event::CoreStep(idx));
            } else {
                let unit = self.clients[idx].unit.index();
                self.sub.route(t, unit, Event::CoreStep(idx));
                return;
            }
        }
    }

    /// Executes one step of client `idx`. Returns the absolute time at which the
    /// same core wants its next `CoreStep`, or `None` when the core finished,
    /// blocked on a synchronization request, is waiting for a remote data reply,
    /// or was already done.
    fn step_core(&mut self, idx: usize) -> Option<Time> {
        if self.core_done[idx] {
            return None;
        }
        // The watchdog's definition of forward progress: a client core
        // consumed one program action (finishing included).
        self.progress_at = self.events_delivered;
        self.blocked_on[idx] = None;
        let core = self.clients[idx];
        let now = self.sub.now;
        let action = self.programs[idx].step(core, now);
        match action {
            Action::Compute { instrs } => {
                self.instructions += instrs;
                let latency = self.config.core_cycle().saturating_mul(instrs.max(1));
                Some(now + latency)
            }
            Action::Load { addr } => {
                self.loads += 1;
                self.data_access(idx, core, addr, CoherentAccess::Read)
            }
            Action::Store { addr } => {
                self.stores += 1;
                self.data_access(idx, core, addr, CoherentAccess::Write)
            }
            Action::Rmw { addr } => {
                self.loads += 1;
                self.stores += 1;
                self.data_access(idx, core, addr, CoherentAccess::Rmw)
            }
            Action::Sync(req) => {
                self.sync_requests += 1;
                // The mechanism decides whether the request blocks: beyond the
                // ISA-level req_sync/req_async split, delayed-grant replies (condvar
                // signal coalescing ACK/NACKs) also stall the issuing core.
                let blocking = self
                    .mechanism
                    .as_ref()
                    .map(|m| m.blocks_core(&req))
                    .unwrap_or_else(|| req.is_blocking());
                let var = req.var();
                self.with_mechanism(|mech, ctx| mech.request(ctx, core, req));
                if !blocking {
                    // req_async commits as soon as the message is issued.
                    Some(now + self.config.core_cycle())
                } else {
                    // Blocking requests resume when the mechanism completes them.
                    self.blocked_on[idx] = Some(var);
                    None
                }
            }
            Action::Done => {
                self.core_done[idx] = true;
                self.done_count += 1;
                self.last_finish = self.last_finish.max(now);
                None
            }
        }
    }

    /// A data access by client `idx` to `addr`. Returns the absolute completion
    /// time, or `None` for a remote access whose request is now in flight to the
    /// home unit (the eventual [`Event::DataReply`] resumes the core).
    fn data_access(
        &mut self,
        idx: usize,
        core: GlobalCoreId,
        addr: Addr,
        kind: CoherentAccess,
    ) -> Option<Time> {
        let class = self.sub.space.class_of(addr);
        let home = self.sub.space.home_unit(addr);
        let now = self.sub.now;

        // Coherent shared read-write data under the MESI mode goes through the
        // directory protocol (Figure 2 / Table 1 baselines only).
        if let Some(mesi) = self.mesi.as_mut().filter(|_| !class.cacheable()) {
            let out = mesi.access(now, core, addr, kind, home);
            // Account the protocol's traffic and energy analytically: control
            // messages are header-sized, every message moves through the crossbars
            // (and the links when crossing units).
            let intra_bytes = u64::from(out.intra_msgs) * 2 * HDR_BYTES;
            let inter_bytes = u64::from(out.inter_msgs) * (HDR_BYTES + LINE_BYTES) / 2;
            if intra_bytes > 0 {
                self.sub.traffic.add_intra(intra_bytes);
            }
            if inter_bytes > 0 {
                self.sub.traffic.add_inter(inter_bytes);
            }
            self.mesi_network_pj += intra_bytes as f64
                * 8.0
                * self.config.crossbar.pj_per_bit_hop
                * self.config.crossbar.hops as f64
                + inter_bytes as f64 * 8.0 * self.config.link.pj_per_bit;
            for _ in 0..out.mem_accesses {
                self.sub
                    .dram_at(home)
                    .access(now, addr, kind != CoherentAccess::Read);
            }
            // The requester's L1 energy for the probe/fill.
            self.l1s[idx].access(addr, kind != CoherentAccess::Read);
            return Some(now + out.latency);
        }

        let write = kind != CoherentAccess::Read;
        let mut lat = Time::ZERO;
        if class.cacheable() {
            let outcome = self.l1s[idx].access(addr, write);
            lat += self.l1s[idx].hit_latency();
            if outcome.is_hit() {
                return Some(now + lat);
            }
        }

        if core.unit == home {
            // Miss or uncacheable, homed locally: fetch/update the line in this
            // unit's DRAM.
            lat += self.sub.xbar_at(core.unit).transfer(now + lat, HDR_BYTES);
            let dram_done = self.sub.dram_at(home).access(now + lat, addr, write);
            lat = dram_done.saturating_sub(now);
            lat += self.sub.xbar_at(home).transfer(now + lat, LINE_BYTES);
            self.sub.traffic.add_intra(HDR_BYTES + LINE_BYTES);
            // An atomic RMW under software-assisted coherence performs its update at
            // the memory side; charge one extra core cycle for the returned old
            // value check.
            if kind == CoherentAccess::Rmw {
                lat += self.config.core_cycle();
            }
            Some(now + lat)
        } else {
            // Remote home: the request header crosses the local crossbar and the
            // inter-unit link, and the rest of the access runs as events on the
            // home unit (so the home-side crossbar and DRAM contention is
            // charged when the request arrives there).
            lat += self.sub.xbar_at(core.unit).transfer(now + lat, HDR_BYTES);
            self.sub.traffic.add_inter(HDR_BYTES);
            lat += self
                .sub
                .links
                .transfer(now + lat, core.unit, home, HDR_BYTES);
            self.sub.route(
                now + lat,
                home.index(),
                Event::DataReq {
                    idx,
                    home,
                    addr,
                    write,
                    rmw: kind == CoherentAccess::Rmw,
                },
            );
            None
        }
    }

    /// Home-unit half of a remote data access: crossbar, DRAM, crossbar, then the
    /// line travels back over the link to the requester's unit.
    fn serve_data_req(&mut self, idx: usize, home: UnitId, addr: Addr, write: bool, rmw: bool) {
        let t = self.sub.now;
        let mut lat = self.sub.xbar_at(home).transfer(t, HDR_BYTES);
        let dram_done = self.sub.dram_at(home).access(t + lat, addr, write);
        lat = dram_done.saturating_sub(t);
        lat += self.sub.xbar_at(home).transfer(t + lat, LINE_BYTES);
        self.sub.traffic.add_inter(LINE_BYTES);
        let cu = UnitId((idx / self.config.clients_per_unit()) as u8);
        lat += self.sub.links.transfer(t + lat, home, cu, LINE_BYTES);
        self.sub
            .route(t + lat, cu.index(), Event::DataReply { idx, rmw });
    }

    /// Requester-unit tail of a remote data access: the returning line crosses the
    /// local crossbar (plus the RMW check cycle) and the core resumes.
    fn serve_data_reply(&mut self, idx: usize, rmw: bool) -> Option<Time> {
        let core = self.clients[idx];
        let t = self.sub.now;
        let mut lat = self.sub.xbar_at(core.unit).transfer(t, LINE_BYTES);
        if rmw {
            lat += self.config.core_cycle();
        }
        Some(t + lat)
    }

    fn with_mechanism<R>(
        &mut self,
        f: impl FnOnce(&mut dyn SyncMechanism, &mut dyn SyncContext) -> R,
    ) -> R {
        let mut mech = self.mechanism.take().expect("mechanism in use");
        let result = f(mech.as_mut(), &mut self.sub);
        self.mechanism = Some(mech);
        result
    }
}

/// Convenience wrapper: builds a machine for `config`, runs `workload` to completion
/// and returns the report.
pub fn run_workload(config: &NdpConfig, workload: &dyn Workload) -> RunReport {
    NdpMachine::new(config, workload).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::DataClass;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use syncron_core::request::{BarrierScope, SyncRequest};
    use syncron_core::MechanismKind;
    use syncron_net::fault::FaultStats;
    use syncron_sim::{CoreId, UnitId};

    /// Each core increments a per-core counter `iterations` times, protected by one
    /// global lock, mixing compute, memory and synchronization actions.
    struct CounterWorkload {
        iterations: u32,
    }

    struct CounterProgram {
        lock: Addr,
        slot: Addr,
        remaining: u32,
        phase: u8,
        ops: u64,
    }

    impl CoreProgram for CounterProgram {
        fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
            if self.remaining == 0 {
                return Action::Done;
            }
            let action = match self.phase {
                0 => Action::Compute { instrs: 50 },
                1 => Action::Sync(SyncRequest::LockAcquire { var: self.lock }),
                2 => Action::Load { addr: self.slot },
                3 => Action::Store { addr: self.slot },
                4 => Action::Sync(SyncRequest::LockRelease { var: self.lock }),
                _ => unreachable!(),
            };
            if self.phase == 4 {
                self.phase = 0;
                self.remaining -= 1;
                self.ops += 1;
            } else {
                self.phase += 1;
            }
            action
        }

        fn ops_completed(&self) -> u64 {
            self.ops
        }
    }

    impl Workload for CounterWorkload {
        fn name(&self) -> String {
            "counter".into()
        }

        fn build(
            &self,
            space: &mut AddressSpace,
            _config: &NdpConfig,
            clients: &[GlobalCoreId],
        ) -> Vec<Box<dyn CoreProgram>> {
            let lock = space.allocate_shared_rw(64, UnitId(0));
            let slots = space.allocate_shared_rw(64 * clients.len() as u64, UnitId(0));
            clients
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    Box::new(CounterProgram {
                        lock,
                        slot: slots.offset(64 * i as u64),
                        remaining: self.iterations,
                        phase: 0,
                        ops: 0,
                    }) as Box<dyn CoreProgram>
                })
                .collect()
        }
    }

    /// All cores synchronize on a global barrier a few times.
    struct BarrierWorkload {
        rounds: u32,
    }

    struct BarrierProgram {
        bar: Addr,
        participants: u32,
        remaining: u32,
        compute_next: bool,
    }

    impl CoreProgram for BarrierProgram {
        fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
            if self.remaining == 0 {
                return Action::Done;
            }
            if self.compute_next {
                self.compute_next = false;
                Action::Compute { instrs: 100 }
            } else {
                self.compute_next = true;
                self.remaining -= 1;
                Action::Sync(SyncRequest::BarrierWait {
                    var: self.bar,
                    participants: self.participants,
                    scope: BarrierScope::AcrossUnits,
                })
            }
        }

        fn ops_completed(&self) -> u64 {
            1
        }
    }

    impl Workload for BarrierWorkload {
        fn name(&self) -> String {
            "barrier".into()
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
                    Box::new(BarrierProgram {
                        bar,
                        participants: clients.len() as u32,
                        remaining: self.rounds,
                        compute_next: true,
                    }) as Box<dyn CoreProgram>
                })
                .collect()
        }
    }

    fn small_config(kind: MechanismKind) -> NdpConfig {
        NdpConfig::builder()
            .units(2)
            .cores_per_unit(4)
            .mechanism(kind)
            .build()
            .unwrap()
    }

    #[test]
    fn counter_workload_completes_under_every_mechanism() {
        for kind in MechanismKind::ALL {
            let report = run_workload(&small_config(kind), &CounterWorkload { iterations: 5 });
            assert!(report.completed, "{kind:?} did not complete");
            assert_eq!(report.total_ops, 5 * 6, "{kind:?}");
            assert!(report.sim_time > Time::ZERO);
            assert!(report.sync_requests > 0);
        }
    }

    #[test]
    fn ideal_is_fastest_and_uses_least_energy() {
        let workload = CounterWorkload { iterations: 10 };
        let ideal = run_workload(&small_config(MechanismKind::Ideal), &workload);
        for kind in [
            MechanismKind::Central,
            MechanismKind::Hier,
            MechanismKind::SynCron,
        ] {
            let other = run_workload(&small_config(kind), &workload);
            assert!(
                other.sim_time >= ideal.sim_time,
                "{kind:?} ({}) beat Ideal ({})",
                other.sim_time,
                ideal.sim_time
            );
            assert!(other.energy.total_pj() >= ideal.energy.total_pj());
        }
    }

    #[test]
    fn syncron_beats_central_under_contention() {
        let workload = CounterWorkload { iterations: 20 };
        let central = run_workload(&small_config(MechanismKind::Central), &workload);
        let syncron = run_workload(&small_config(MechanismKind::SynCron), &workload);
        assert!(
            syncron.sim_time < central.sim_time,
            "SynCron {} should beat Central {}",
            syncron.sim_time,
            central.sim_time
        );
    }

    #[test]
    fn barrier_workload_completes() {
        for kind in [
            MechanismKind::SynCron,
            MechanismKind::Hier,
            MechanismKind::Ideal,
        ] {
            let report = run_workload(&small_config(kind), &BarrierWorkload { rounds: 4 });
            assert!(report.completed, "{kind:?}");
        }
    }

    #[test]
    fn report_accounts_energy_and_traffic() {
        let report = run_workload(
            &small_config(MechanismKind::SynCron),
            &CounterWorkload { iterations: 5 },
        );
        assert!(report.energy.total_pj() > 0.0);
        assert!(report.traffic.total_bytes() > 0);
        assert!(report.dram_accesses > 0);
        assert!(report.instructions > 0);
        assert!(report.loads > 0 && report.stores > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = small_config(MechanismKind::SynCron);
        let a = run_workload(&cfg, &CounterWorkload { iterations: 8 });
        let b = run_workload(&cfg, &CounterWorkload { iterations: 8 });
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn schedulers_and_inline_dispatch_agree_bit_for_bit() {
        // The determinism contract of the rework: the calendar queue (with and
        // without inline dispatch) and the reference heap produce the same report,
        // field for field, for every mechanism.
        for kind in MechanismKind::ALL {
            let base = small_config(kind);
            let reference = {
                let mut cfg = base;
                cfg.scheduler = SchedulerKind::Heap;
                cfg.inline_step_budget = 0;
                run_workload(&cfg, &CounterWorkload { iterations: 8 })
            };
            for (scheduler, budget) in [
                (SchedulerKind::Heap, 64),
                (SchedulerKind::Calendar, 0),
                (SchedulerKind::Calendar, 64),
                (SchedulerKind::Calendar, 1),
            ] {
                let mut cfg = base;
                cfg.scheduler = scheduler;
                cfg.inline_step_budget = budget;
                let report = run_workload(&cfg, &CounterWorkload { iterations: 8 });
                if let Some(field) = reference.divergence_from(&report) {
                    panic!("{kind:?} under {scheduler:?}/budget={budget} diverged: {field}");
                }
            }
        }
    }

    #[test]
    fn tokens_for_foreign_units_are_hard_errors() {
        let mut machine = NdpMachine::new(
            &small_config(MechanismKind::SynCron),
            &CounterWorkload { iterations: 1 },
        );
        // A token for a unit outside the 2-unit geometry names the unit and
        // the geometry.
        let err = catch_unwind(AssertUnwindSafe(|| {
            machine.sub.schedule(Time::from_ns(1), UnitId(7), 0);
        }))
        .unwrap_err();
        let msg = *err.downcast::<String>().unwrap();
        assert!(msg.contains("U7"), "panic must name the unit: {msg}");
        assert!(
            msg.contains("2 units"),
            "panic must name the geometry: {msg}"
        );
        // A message routed outside the geometry is equally fatal.
        let err = catch_unwind(AssertUnwindSafe(|| {
            machine.sub.route(
                Time::from_ns(1),
                9,
                Event::SyncToken {
                    unit: UnitId(9),
                    token: 0,
                },
            );
        }))
        .unwrap_err();
        let msg = *err.downcast::<String>().unwrap();
        assert!(msg.contains("U9"), "panic must name the unit: {msg}");
        // And so is a completion for a core of a unit outside it.
        let core = GlobalCoreId::new(UnitId(5), CoreId(0));
        let err = catch_unwind(AssertUnwindSafe(|| {
            machine.sub.complete(core, Time::from_ns(1));
        }))
        .unwrap_err();
        let msg = *err.downcast::<String>().unwrap();
        assert!(msg.contains("U5"), "panic must name the unit: {msg}");
    }

    #[test]
    fn duplicate_completion_is_a_hard_error() {
        let mut machine = NdpMachine::new(
            &small_config(MechanismKind::SynCron),
            &CounterWorkload { iterations: 1 },
        );
        machine.core_done[0] = true;
        machine.done_count = 1;
        let core = machine.clients[0];
        let err = catch_unwind(AssertUnwindSafe(|| {
            machine.dispatch(Time::ZERO, Event::CoreResume(core));
        }))
        .unwrap_err();
        let msg = *err.downcast::<String>().unwrap();
        assert!(
            msg.contains("already finished") && msg.contains("twice"),
            "panic must explain the double completion: {msg}"
        );
    }

    #[test]
    fn report_carries_simulator_perf() {
        let report = run_workload(
            &small_config(MechanismKind::SynCron),
            &CounterWorkload { iterations: 5 },
        );
        assert!(report.perf.events_delivered > 0);
        // Wall time resolution is host-dependent, but the counter must at least
        // cover one event per delivered action.
        assert!(report.perf.events_delivered >= report.instructions.min(1));
    }

    #[test]
    fn resume_for_unknown_core_is_a_hard_error() {
        // A CoreResume for a core outside the geometry (or for a reserved server
        // core) is a mechanism bug; it used to be silently ignored.
        let machine = NdpMachine::new(
            &small_config(MechanismKind::SynCron),
            &CounterWorkload { iterations: 1 },
        );
        // In-geometry client cores resolve to their dense index.
        assert_eq!(
            machine.resolve_client(GlobalCoreId::new(UnitId(0), CoreId(0))),
            0
        );
        assert_eq!(
            machine.resolve_client(GlobalCoreId::new(UnitId(1), CoreId(0))),
            machine.config.clients_per_unit()
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            machine.resolve_client(GlobalCoreId::new(UnitId(7), CoreId(3)))
        }));
        let message = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(
            message.contains("U7.c3"),
            "panic must name the core: {message}"
        );
        assert!(message.contains("not a client"));
    }

    #[test]
    fn server_cores_and_aliasing_ids_are_not_clients() {
        // cores_per_unit = 4 with a reserved server core: local core 3 serves.
        let machine = NdpMachine::new(
            &small_config(MechanismKind::SynCron),
            &CounterWorkload { iterations: 1 },
        );
        let index = &machine.client_index;
        assert_eq!(index.get(GlobalCoreId::new(UnitId(0), CoreId(3))), None);
        // A local core ID at or past cores_per_unit must not alias into the next
        // unit's flat range (U0.c4 would otherwise resolve to U1.c0's slot).
        assert_eq!(index.get(GlobalCoreId::new(UnitId(0), CoreId(4))), None);
        assert_eq!(index.get(GlobalCoreId::new(UnitId(2), CoreId(0))), None);
        assert_eq!(
            index.get(GlobalCoreId::new(UnitId(1), CoreId(0))),
            Some(machine.config.clients_per_unit())
        );
    }

    #[test]
    fn remote_data_costs_more_than_local() {
        // A single core reading shared data homed locally vs remotely.
        struct OneReader {
            home: UnitId,
        }
        struct ReaderProgram {
            addr: Addr,
            remaining: u32,
        }
        impl CoreProgram for ReaderProgram {
            fn step(&mut self, _c: GlobalCoreId, _n: Time) -> Action {
                if self.remaining == 0 {
                    return Action::Done;
                }
                self.remaining -= 1;
                Action::Load { addr: self.addr }
            }
        }
        impl Workload for OneReader {
            fn name(&self) -> String {
                "one-reader".into()
            }
            fn build(
                &self,
                space: &mut AddressSpace,
                _c: &NdpConfig,
                clients: &[GlobalCoreId],
            ) -> Vec<Box<dyn CoreProgram>> {
                let addr = space.allocate(4096, DataClass::SharedReadWrite, self.home);
                clients
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        Box::new(ReaderProgram {
                            addr: addr.offset(64 * i as u64),
                            remaining: if i == 0 { 100 } else { 0 },
                        }) as Box<dyn CoreProgram>
                    })
                    .collect()
            }
        }
        let cfg = small_config(MechanismKind::Ideal);
        let local = run_workload(&cfg, &OneReader { home: UnitId(0) });
        let remote = run_workload(&cfg, &OneReader { home: UnitId(1) });
        assert!(remote.sim_time > local.sim_time);
        assert!(remote.traffic.inter_unit_bytes > local.traffic.inter_unit_bytes);
    }

    #[test]
    fn deadlocked_workload_reports_incomplete() {
        // A core that acquires a lock twice without releasing deadlocks itself.
        struct Deadlock;
        struct DeadlockProgram {
            lock: Addr,
            acquired: u32,
        }
        impl CoreProgram for DeadlockProgram {
            fn step(&mut self, _c: GlobalCoreId, _n: Time) -> Action {
                self.acquired += 1;
                Action::Sync(SyncRequest::LockAcquire { var: self.lock })
            }
        }
        impl Workload for Deadlock {
            fn name(&self) -> String {
                "deadlock".into()
            }
            fn build(
                &self,
                space: &mut AddressSpace,
                _c: &NdpConfig,
                clients: &[GlobalCoreId],
            ) -> Vec<Box<dyn CoreProgram>> {
                let lock = space.allocate_shared_rw(64, UnitId(0));
                clients
                    .iter()
                    .map(|_| {
                        Box::new(DeadlockProgram { lock, acquired: 0 }) as Box<dyn CoreProgram>
                    })
                    .collect()
            }
        }
        let config = small_config(MechanismKind::SynCron);
        let report = run_workload(&config, &Deadlock);
        assert!(!report.completed);
        // The stall is diagnosed within ~1% of the event budget, with a
        // structured report naming the blocked cores and the lock address.
        assert!(
            report.perf.events_delivered <= config.max_events / 100,
            "stall diagnosis burned {} of {} events",
            report.perf.events_delivered,
            config.max_events
        );
        let Some(IncompleteReason::Stalled(stall)) = report.incomplete.as_ref() else {
            panic!("expected a stall diagnosis, got {:?}", report.incomplete);
        };
        assert_eq!(stall.unfinished, config.total_clients());
        assert!(stall.blocked_total > 0, "no core was seen blocked");
        assert!(!stall.blocked.is_empty());
        // Every blocked core waits on the one self-deadlocked lock, which the
        // workload allocated on unit 0's shared heap.
        let lock = stall.blocked[0].addr;
        assert!(stall.blocked.iter().all(|b| b.addr == lock));
        assert!(
            stall.blocked.iter().any(|b| b.unit == 0 && b.core == 0),
            "core U0.c0 must be listed"
        );
    }

    #[test]
    fn total_message_loss_is_diagnosed_as_a_livelock() {
        // drop_prob = 1.0 loses every mechanism message: the senders
        // retransmit forever, events keep circulating, and no core ever
        // resumes. The watchdog must call this a no-progress stall — and do it
        // within ~1% of the event budget instead of burning all of it.
        let mut cfg = small_config(MechanismKind::SynCron);
        cfg.fault.enabled = true;
        cfg.fault.drop_prob = 1.0;
        let report = run_workload(&cfg, &CounterWorkload { iterations: 3 });
        assert!(!report.completed);
        assert!(
            report.perf.events_delivered <= cfg.max_events / 50,
            "livelock diagnosis burned {} events",
            report.perf.events_delivered
        );
        let Some(IncompleteReason::Stalled(stall)) = report.incomplete.as_ref() else {
            panic!("expected a stall diagnosis, got {:?}", report.incomplete);
        };
        assert_eq!(stall.kind, StallKind::NoProgress);
        let faults = report.faults.expect("fault stats present when enabled");
        assert!(faults.dropped > 0);
        assert!(faults.retransmitted > 0);
    }

    #[test]
    fn event_budget_stops_on_the_event_that_crossed_it() {
        // The budget is checked after every event, so a truncated run stops on
        // event `max_events + 1` whatever the scheduler or inline budget.
        for (scheduler, inline) in [
            (SchedulerKind::Heap, 0),
            (SchedulerKind::Calendar, 0),
            (SchedulerKind::Calendar, 64),
        ] {
            let mut cfg = small_config(MechanismKind::SynCron);
            cfg.max_events = 50;
            cfg.scheduler = scheduler;
            cfg.inline_step_budget = inline;
            let report = run_workload(&cfg, &CounterWorkload { iterations: 100 });
            assert!(!report.completed);
            assert!(matches!(
                report.incomplete,
                Some(IncompleteReason::EventBudget)
            ));
            assert_eq!(
                report.perf.events_delivered, 51,
                "{scheduler:?}/inline={inline}"
            );
        }
    }

    #[test]
    fn zero_probability_faults_are_bit_invisible() {
        // The knob-aliveness contract at machine level: enabling fault
        // injection with every probability zero must reproduce the faults-off
        // run bit for bit.
        let mut base = NdpConfig::builder()
            .units(4)
            .cores_per_unit(4)
            .build()
            .unwrap();
        let reference = run_workload(&base, &CounterWorkload { iterations: 6 });
        assert!(reference.faults.is_none());
        base.fault.enabled = true;
        let report = run_workload(&base, &CounterWorkload { iterations: 6 });
        assert_eq!(report.faults, Some(FaultStats::default()));
        if let Some(field) = reference.divergence_from(&report) {
            panic!("zero-probability faults diverged: {field}");
        }
    }

    #[test]
    fn single_drop_recovers_through_retransmission() {
        // Deterministically drop the first original message on every link; the
        // timeout/retry path must still drive the run to completion.
        let mut cfg = NdpConfig::builder()
            .units(4)
            .cores_per_unit(4)
            .build()
            .unwrap();
        cfg.fault.enabled = true;
        cfg.fault.drop_nth = 1;
        let reference = run_workload(&cfg, &CounterWorkload { iterations: 4 });
        assert!(reference.completed, "run did not recover from drops");
        let faults = reference.faults.expect("fault stats present");
        assert!(faults.dropped > 0, "no message was dropped");
        assert_eq!(faults.retransmitted, faults.dropped);
    }

    #[test]
    fn mesi_mode_runs_rmw_workload() {
        struct SpinWorkload;
        struct SpinProgram {
            lock: Addr,
            remaining: u32,
            holding: bool,
        }
        impl CoreProgram for SpinProgram {
            fn step(&mut self, _c: GlobalCoreId, _n: Time) -> Action {
                if self.remaining == 0 {
                    return Action::Done;
                }
                if self.holding {
                    self.holding = false;
                    self.remaining -= 1;
                    Action::Store { addr: self.lock }
                } else {
                    self.holding = true;
                    Action::Rmw { addr: self.lock }
                }
            }
            fn ops_completed(&self) -> u64 {
                1
            }
        }
        impl Workload for SpinWorkload {
            fn name(&self) -> String {
                "spin".into()
            }
            fn build(
                &self,
                space: &mut AddressSpace,
                _c: &NdpConfig,
                clients: &[GlobalCoreId],
            ) -> Vec<Box<dyn CoreProgram>> {
                let lock = space.allocate_shared_rw(64, UnitId(0));
                clients
                    .iter()
                    .map(|_| {
                        Box::new(SpinProgram {
                            lock,
                            remaining: 10,
                            holding: false,
                        }) as Box<dyn CoreProgram>
                    })
                    .collect()
            }
        }
        let cfg = NdpConfig::builder()
            .units(2)
            .cores_per_unit(4)
            .coherence(CoherenceMode::MesiDirectory)
            .mechanism(MechanismKind::Ideal)
            .reserve_server_core(false)
            .build()
            .unwrap();
        let report = run_workload(&cfg, &SpinWorkload);
        assert!(report.completed);
        assert!(report.traffic.total_bytes() > 0);
    }
}
