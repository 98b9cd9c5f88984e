//! Crash sweeps over a *maintenance window*: a `run_tick` loop whose policy
//! fires a roll-to-tail compaction and then a checkpoint against the store,
//! exactly as the background maintenance service would.
//!
//! The sweeps arm a crash at every device write and every flush barrier
//! issued inside the window — the compaction roll's page flushes and the
//! policy-triggered checkpoint's blob + manifest share one `FaultDomain`,
//! so the sweep walks the interleaved stream. Each swept point must recover
//! to an oracle snapshot: a maintenance-committed generation iff one
//! landed, else the baseline — proving a crashed background compaction can
//! never orphan the fallback generation (the roll/truncate clamp split).
//!
//! Sharded via `FASTER_FAULT_SEED_BASE` / `FASTER_FAULT_SEEDS`; failures
//! print their seed and script for replay.

use faster_integration_tests::fault_harness::{
    dry_run, fault_seed_range, sweep, Axis, CrashPoint, Mix, Step, PHASE1B_OPS, PHASE1_OPS,
};

/// A baseline generation (the fallback target the swept compaction must
/// never orphan), churn so the window has dead space to compact and dirty
/// pages to checkpoint, then the swept window.
fn script(point: Option<CrashPoint>) -> Vec<Step> {
    vec![
        Step::Ops { n: PHASE1_OPS, mix: Mix::All },
        Step::Checkpoint,
        Step::Ops { n: PHASE1B_OPS, mix: Mix::All },
        Step::Arm(point),
        Step::MaintWindow,
    ]
}

/// Write axis: crash at every device write issued inside the maintenance
/// window, cycling the torn-write model so each seed sees nothing-persisted,
/// byte-torn, and sector-torn points.
#[test]
fn maintenance_write_crash_sweep() {
    let mut cases = 0u64;
    let mut fell_back = 0u64;
    for seed in fault_seed_range(3) {
        let dry = dry_run(seed, false, true, script);
        assert!(
            dry.compactions >= 1 && dry.rolled >= 1 && dry.commit_ok,
            "seed {seed}: dry window did no work: {dry:?}"
        );
        assert!(
            dry.writes >= 2,
            "seed {seed}: window issued only {} writes (roll + checkpoint missing?)",
            dry.writes
        );
        let axis = Axis::Writes { torn_bytes: 4600 };
        for (point, report) in sweep(seed, false, axis, 0..dry.writes, script) {
            assert!(report.crashed, "seed {seed}: {point:?} of {} never fired", dry.writes);
            cases += 1;
            fell_back += !report.commit_ok as u64;
        }
    }
    assert!(cases >= 6, "write sweep ran only {cases} cases");
    // Early points (inside the compaction roll, before any checkpoint) must
    // leave the window with no acked generation — recovery then *must* have
    // replayed the baseline over the partially-rolled, clamp-truncated log.
    assert!(
        fell_back > 0,
        "no swept write point crashed before the maintenance checkpoint acked"
    );
}

/// Flush axis: crash at every flush barrier inside the window — the fsync
/// edges of the compaction roll and the checkpoint commit protocol. A crash
/// at a barrier makes it return `Err`, so the window's checkpoint attempt
/// at or after that barrier must report failure, and recovery still lands
/// on a valid oracle snapshot either way.
#[test]
fn maintenance_flush_crash_sweep() {
    let mut saw_fallback = false;
    for seed in fault_seed_range(3) {
        let dry = dry_run(seed, false, false, script);
        assert!(
            dry.flushes >= 2,
            "seed {seed}: expected roll + checkpoint barriers, saw {}",
            dry.flushes
        );
        for (point, report) in sweep(seed, false, Axis::Flushes, 0..dry.flushes, script) {
            assert!(report.crashed, "seed {seed}: {point:?} never fired");
            saw_fallback |= report.recovered_gen == 1;
        }
    }
    assert!(
        saw_fallback,
        "no flush point exercised the baseline-fallback path"
    );
}
