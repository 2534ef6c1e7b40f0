//! Cross-crate integration tests: workloads running on the full simulated NDP system
//! through the public `syncron` facade.

use syncron::core::request::SyncRequest;
use syncron::harness::report_to_value;
use syncron::prelude::*;
use syncron::system::address::{AddressSpace, DataClass};
use syncron::system::report::SimPerf;
use syncron::workloads::datastructures::coarse::Stack;
use syncron::workloads::datastructures::{self, DsConfig};
use syncron::workloads::graph::{GraphAlgo, GraphApp, GraphInput};
use syncron::workloads::micro::{BarrierMicrobench, LockMicrobench, SyncPrimitive};
use syncron::workloads::timeseries::TimeSeries;

fn config(kind: MechanismKind, units: usize, cores: usize) -> NdpConfig {
    NdpConfig::builder()
        .units(units)
        .cores_per_unit(cores)
        .mechanism(kind)
        .build()
        .expect("valid config")
}

fn tiny_graph() -> GraphInput {
    GraphInput {
        name: "it",
        vertices: 400,
        avg_degree: 6,
        rmat: true,
    }
}

#[test]
fn every_mechanism_runs_every_workload_class() {
    for kind in MechanismKind::ALL {
        let cfg = config(kind, 2, 4);
        let micro = syncron::system::run_workload(&cfg, &LockMicrobench::new(100, 8));
        assert!(micro.completed, "{kind:?} lock micro");

        let ds = datastructures::by_name("hash-table", 10).unwrap();
        let ds_report = syncron::system::run_workload(&cfg, ds.as_ref());
        assert!(ds_report.completed, "{kind:?} hash table");

        let graph =
            syncron::system::run_workload(&cfg, &GraphApp::new(GraphAlgo::Bfs, tiny_graph()));
        assert!(graph.completed, "{kind:?} bfs");

        let ts = TimeSeries::air().with_diagonals_per_core(1);
        let ts_report = syncron::system::run_workload(&cfg, &ts);
        assert!(ts_report.completed, "{kind:?} time series");
    }
}

#[test]
fn paper_ordering_holds_under_high_contention() {
    // Figure 11 (stack): Central <= Hier <= SynCron <= Ideal in throughput at 60 cores.
    let stack = Stack::new(DsConfig::new(10_000, 25));
    let mut throughputs = Vec::new();
    for kind in MechanismKind::COMPARED {
        let report = syncron::system::run_workload(&config(kind, 4, 16), &stack);
        assert!(report.completed, "{kind:?}");
        throughputs.push((kind, report.ops_per_ms()));
    }
    let central = throughputs[0].1;
    let hier = throughputs[1].1;
    let syncron = throughputs[2].1;
    let ideal = throughputs[3].1;
    assert!(hier > central, "Hier {hier} should beat Central {central}");
    assert!(syncron > hier, "SynCron {syncron} should beat Hier {hier}");
    assert!(
        ideal >= syncron,
        "Ideal {ideal} must be an upper bound for SynCron {syncron}"
    );
}

#[test]
fn syncron_reduces_inter_unit_traffic_and_energy_vs_central() {
    // Figures 14 and 15: under contention, SynCron's hierarchical aggregation (one
    // global message on behalf of all local waiters) cuts remote traffic and energy
    // relative to the Central scheme, which sends every request across the system.
    let wl = Stack::new(DsConfig::new(10_000, 25));
    let central = syncron::system::run_workload(&config(MechanismKind::Central, 4, 16), &wl);
    let syncron = syncron::system::run_workload(&config(MechanismKind::SynCron, 4, 16), &wl);
    assert!(
        syncron.traffic.inter_unit_bytes < central.traffic.inter_unit_bytes,
        "SynCron {} vs Central {} inter-unit bytes",
        syncron.traffic.inter_unit_bytes,
        central.traffic.inter_unit_bytes
    );
    assert!(syncron.energy.total_pj() < central.energy.total_pj());
}

#[test]
fn barriers_scale_with_more_units() {
    // Figure 13 flavour: adding NDP units (and thus cores) should not slow down a
    // fixed-iteration barrier microbenchmark by more than the growth in participants.
    let one = syncron::system::run_workload(
        &config(MechanismKind::SynCron, 1, 16),
        &BarrierMicrobench::new(500, 10),
    );
    let four = syncron::system::run_workload(
        &config(MechanismKind::SynCron, 4, 16),
        &BarrierMicrobench::new(500, 10),
    );
    assert!(one.completed && four.completed);
    // 4x the cores should cost far less than 4x the time for the same per-core work.
    assert!(four.sim_time.as_ps() < one.sim_time.as_ps() * 3);
}

#[test]
fn st_occupancy_is_reported_for_real_apps() {
    let ts = TimeSeries::air().with_diagonals_per_core(2);
    let report = syncron::system::run_workload(&config(MechanismKind::SynCron, 4, 16), &ts);
    assert!(report.completed);
    assert!(
        report.sync.st_max_occupancy > 0.0,
        "ST occupancy should be tracked"
    );
    assert!(report.sync.st_max_occupancy <= 1.0);
    assert!(report.sync.st_avg_occupancy <= report.sync.st_max_occupancy);
}

#[test]
fn reports_are_deterministic_across_runs() {
    let wl = GraphApp::new(GraphAlgo::Cc, tiny_graph());
    let cfg = config(MechanismKind::SynCron, 2, 8);
    let a = syncron::system::run_workload(&cfg, &wl);
    let b = syncron::system::run_workload(&cfg, &wl);
    assert_eq!(a.sim_time, b.sim_time);
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(a.sync_requests, b.sync_requests);
}

/// SplitMix64: a tiny, high-quality seeded generator for the action scripts.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A core that replays a pre-generated action script and then goes idle.
///
/// The script is generated at build time from the workload seed, so the
/// program carries no state shared with any other core.
struct ScriptedCore {
    actions: Vec<Action>,
    pc: usize,
}

impl CoreProgram for ScriptedCore {
    fn step(&mut self, _core: GlobalCoreId, _now: Time) -> Action {
        let action = self.actions.get(self.pc).copied().unwrap_or(Action::Done);
        self.pc += 1;
        action
    }

    fn ops_completed(&self) -> u64 {
        self.pc.min(self.actions.len()) as u64
    }
}

/// Seeded random mix of computation, data accesses homed on every unit, and
/// properly paired lock / semaphore sections on variables homed on random
/// units.
///
/// Blocking requests are always emitted in safe pairs (acquire → body →
/// release), so every script terminates under every mechanism.
struct RandomMix {
    seed: u64,
    ops_per_core: usize,
}

impl Workload for RandomMix {
    fn name(&self) -> String {
        format!("random-mix.s{}", self.seed)
    }

    fn build(
        &self,
        space: &mut AddressSpace,
        config: &NdpConfig,
        clients: &[GlobalCoreId],
    ) -> Vec<Box<dyn CoreProgram>> {
        let data = space.allocate_partitioned(4096, DataClass::SharedReadWrite);
        let locks: Vec<Addr> = (0..config.units)
            .map(|u| space.allocate_shared_rw(64, UnitId(u as u8)))
            .collect();
        let sems: Vec<Addr> = (0..config.units)
            .map(|u| space.allocate_shared_rw(64, UnitId(u as u8)))
            .collect();
        let pick_addr = |rng: &mut SplitMix64| {
            let region = data[rng.below(data.len() as u64) as usize];
            Addr(region.0 + 64 * rng.below(32))
        };

        (0..clients.len())
            .map(|i| {
                let mut actions = Vec::new();
                let mut rng = SplitMix64(self.seed ^ (i as u64).wrapping_mul(0x0D1B_54A3));
                for _ in 0..self.ops_per_core {
                    match rng.below(6) {
                        0 => actions.push(Action::Compute {
                            instrs: 1 + rng.below(200),
                        }),
                        1 => actions.push(Action::Load {
                            addr: pick_addr(&mut rng),
                        }),
                        2 => actions.push(Action::Store {
                            addr: pick_addr(&mut rng),
                        }),
                        3 => actions.push(Action::Rmw {
                            addr: pick_addr(&mut rng),
                        }),
                        4 => {
                            let var = locks[rng.below(locks.len() as u64) as usize];
                            actions.push(Action::Sync(SyncRequest::LockAcquire { var }));
                            actions.push(Action::Store {
                                addr: pick_addr(&mut rng),
                            });
                            actions.push(Action::Sync(SyncRequest::LockRelease { var }));
                        }
                        _ => {
                            let var = sems[rng.below(sems.len() as u64) as usize];
                            actions.push(Action::Sync(SyncRequest::SemWait { var, initial: 2 }));
                            actions.push(Action::Compute {
                                instrs: 1 + rng.below(50),
                            });
                            actions.push(Action::Sync(SyncRequest::SemPost { var }));
                        }
                    }
                }
                Box::new(ScriptedCore { actions, pc: 0 }) as Box<dyn CoreProgram>
            })
            .collect()
    }
}

#[test]
fn randomized_scripted_mixes_complete_with_byte_identical_exports() {
    // Irregular traffic from seeded random scripts: remote loads, stores and
    // RMWs homed on every unit, plus lock and semaphore sections whose
    // variables live on random units. Every run must complete, and two runs
    // of the same (geometry, seed, scheme) must serialize to byte-identical
    // JSON once the host-side perf counters are zeroed.
    let export = |cfg: &NdpConfig, workload: &RandomMix| -> String {
        let mut report = syncron::system::run_workload(cfg, workload);
        assert!(
            report.completed,
            "{:?} {}x{} seed {} did not complete: {:?}",
            cfg.mechanism.kind, cfg.units, cfg.cores_per_unit, workload.seed, report.incomplete
        );
        report.perf = SimPerf::default();
        report_to_value(&report).to_json_pretty()
    };
    for (units, cores_per_unit) in [(2, 2), (4, 3), (8, 2)] {
        for seed in [1, 0xC0FFEE] {
            let workload = RandomMix {
                seed,
                ops_per_core: 16,
            };
            for kind in [
                MechanismKind::Central,
                MechanismKind::Hier,
                MechanismKind::SynCron,
                MechanismKind::Mcs,
            ] {
                let cfg = config(kind, units, cores_per_unit);
                assert_eq!(
                    export(&cfg, &workload),
                    export(&cfg, &workload),
                    "{kind:?} {units}x{cores_per_unit} seed {seed}: JSON export moved between runs"
                );
            }
        }
    }
}

#[test]
fn scenario_exports_are_byte_identical() {
    // Determinism at the export layer: the same scenario run three times in
    // one process must serialize to byte-identical RunSet JSON. Host-side
    // perf counters (wall clock) are zeroed before export — they are the one
    // documented nondeterministic surface.
    let scenario = Scenario::new(
        "det-barrier",
        ConfigSpec::default().with_geometry(4, 8),
        WorkloadSpec::Micro {
            primitive: SyncPrimitive::Barrier,
            interval: 100,
            iterations: 8,
        },
    );
    let export = || -> String {
        let mut report = scenario.run().expect("run");
        assert!(report.completed);
        report.perf = SimPerf::default();
        let set = RunSet::from_pairs([(scenario.clone(), report)]).expect("set");
        set.to_json_string()
    };

    let first = export();
    for _ in 0..2 {
        assert_eq!(
            first,
            export(),
            "same scenario: JSON export moved between runs"
        );
    }
}
