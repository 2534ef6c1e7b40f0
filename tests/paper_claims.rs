//! End-to-end checks of the paper's headline claims at reduced scale.
//!
//! These tests assert the *direction and rough magnitude* of the paper's key results —
//! not absolute numbers, which depend on the substrate (see `EXPERIMENTS.md`).

use syncron::core::mechanism::MechanismParams;
use syncron::core::protocol::OverflowMode;
use syncron::prelude::*;
use syncron::workloads::datastructures::{self};
use syncron::workloads::micro::LockMicrobench;
use syncron::workloads::timeseries::TimeSeries;

fn paper_config(kind: MechanismKind) -> NdpConfig {
    NdpConfig::builder()
        .units(4)
        .cores_per_unit(16)
        .mechanism(kind)
        .build()
        .expect("valid config")
}

#[test]
fn claim_syncron_outperforms_prior_schemes_under_high_contention() {
    // Section 1: "SynCron improves performance by 1.27x on average (up to 1.78x) under
    // high-contention scenarios" over prior schemes (Central/Hier-like).
    let wl = LockMicrobench::new(200, 25);
    let central = syncron::system::run_workload(&paper_config(MechanismKind::Central), &wl);
    let hier = syncron::system::run_workload(&paper_config(MechanismKind::Hier), &wl);
    let syncron = syncron::system::run_workload(&paper_config(MechanismKind::SynCron), &wl);
    assert!(
        syncron.speedup_over(&central) > 1.2,
        "vs Central: {:.2}",
        syncron.speedup_over(&central)
    );
    assert!(
        syncron.speedup_over(&hier) > 1.0,
        "vs Hier: {:.2}",
        syncron.speedup_over(&hier)
    );
}

#[test]
fn claim_syncron_approaches_ideal_on_low_contention_apps() {
    // Section 6.1.3: SynCron comes within ~10% of Ideal for real applications; at our
    // reduced scale we accept a looser bound but require it to be much closer to Ideal
    // than Central is.
    //
    // Calibration note: `ts.air` is the paper's *most* synchronization-intense
    // application, and at this reduced scale it issues roughly one sync request per
    // ten instructions — far denser than the real dataset. The per-leg remote-timing
    // re-baseline (see ARCHITECTURE.md, "Re-baselined event semantics") charges
    // home-side crossbar/DRAM contention at the packet's arrival time instead of the
    // requester's issue time; that deflated the artificial data-access queueing which
    // previously dominated *every* mechanism's runtime and masked the sync cost, so
    // the absolute gap bound is looser than before while the relative claim —
    // SynCron is several times closer to Ideal than Central — is asserted harder.
    let ts = TimeSeries::air().with_diagonals_per_core(3);
    let central = syncron::system::run_workload(&paper_config(MechanismKind::Central), &ts);
    let syncron = syncron::system::run_workload(&paper_config(MechanismKind::SynCron), &ts);
    let ideal = syncron::system::run_workload(&paper_config(MechanismKind::Ideal), &ts);
    let syncron_gap = syncron.slowdown_over(&ideal);
    let central_gap = central.slowdown_over(&ideal);
    assert!(
        syncron_gap < 2.5,
        "SynCron should stay near Ideal even at artificially dense sync, gap {syncron_gap:.2}"
    );
    assert!(
        central_gap > syncron_gap * 2.0,
        "Central gap {central_gap:.2} vs SynCron gap {syncron_gap:.2}"
    );
}

#[test]
fn claim_syncron_reduces_energy() {
    // Section 1: "SynCron reduces system energy consumption by 2.08x on average" over
    // prior schemes. Check that it is clearly lower on a sync-intensive workload.
    let ts = TimeSeries::pow().with_diagonals_per_core(2);
    let central = syncron::system::run_workload(&paper_config(MechanismKind::Central), &ts);
    let syncron = syncron::system::run_workload(&paper_config(MechanismKind::SynCron), &ts);
    let ratio = central.energy.total_pj() / syncron.energy.total_pj();
    assert!(ratio > 1.2, "energy reduction vs Central only {ratio:.2}x");
}

#[test]
fn claim_integrated_overflow_degrades_gracefully() {
    // Section 6.7.3: with the integrated scheme, ST overflow costs only a few percent;
    // the MiSAR-style fallbacks cost more.
    let ops = 20;
    let run = |st: usize, mode: OverflowMode| {
        let params = MechanismParams::new(MechanismKind::SynCron)
            .with_st_entries(st)
            .with_overflow_mode(mode);
        let config = NdpConfig::builder()
            .mechanism_params(params)
            .build()
            .expect("valid config");
        let wl = datastructures::by_name("bst-fg", ops).unwrap();
        syncron::system::run_workload(&config, wl.as_ref())
    };
    let no_overflow = run(256, OverflowMode::Integrated);
    let integrated = run(16, OverflowMode::Integrated);
    let misar = run(16, OverflowMode::MiSarCentral);
    assert!(
        integrated.sync.overflow_fraction() > 0.0,
        "16-entry ST must overflow"
    );
    let integrated_slowdown = integrated.slowdown_over(&no_overflow);
    let misar_slowdown = misar.slowdown_over(&no_overflow);
    assert!(
        misar_slowdown > integrated_slowdown,
        "MiSAR-style overflow ({misar_slowdown:.2}x) should cost more than integrated ({integrated_slowdown:.2}x)"
    );
}

#[test]
fn claim_se_hardware_cost_is_modest() {
    // Table 8: the SE is an order of magnitude smaller and lower-power than even a
    // small ARM core.
    let se = syncron::core::hw_cost::SeCost::paper_default();
    assert!(se.total_mm2() < 0.05);
    assert!(se.area_vs_cortex_a7() < 0.15);
    assert!(se.power_vs_cortex_a7() < 0.05);
}
