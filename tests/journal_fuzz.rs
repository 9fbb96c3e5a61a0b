//! Torn-write hardening for the write-ahead intent journal.
//!
//! The journal is the only thing a crashed controller gets back, so its
//! decoder must survive arbitrary damage: truncation at **every** byte
//! offset and a bit flip at **every** byte offset must either replay
//! cleanly (a torn tail is discarded, with the discarded length
//! reported) or fail with a typed [`JournalError`] — never a panic, and
//! never a silent misparse that folds corrupt bytes into intent.

use hermes::core::{Epsilon, GreedyHeuristic, ProgramAnalyzer, Solver};
use hermes::dataplane::library;
use hermes::net::topology;
use hermes::runtime::{
    replay_bytes, CrashTiming, DeploymentRuntime, FaultInjector, FaultProfile, RecoveredIntent,
    RetryPolicy, RolloutOutcome,
};
use proptest::prelude::*;

/// A realistic journal: a committed deploy (snapshot + compaction), a
/// second rollout crashed mid-protocol (in-flight txn records), and a
/// completed recovery (recovery + snapshot records). Built once — the
/// scenario is deterministic.
fn rich_journal() -> &'static [u8] {
    static JOURNAL: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    JOURNAL.get_or_init(build_journal)
}

fn build_journal() -> Vec<u8> {
    // Two library programs on a small topology keep the journal a few KB
    // so the every-byte sweeps below stay exhaustive AND affordable.
    let programs = library::real_programs();
    let tdg = ProgramAnalyzer::new().analyze(&programs[..2.min(programs.len())]);
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("healthy topology deploys");
    let mut rt = DeploymentRuntime::new(
        net,
        eps,
        FaultInjector::new(0, FaultProfile::none()),
        RetryPolicy::default(),
    );
    assert!(rt.rollout(&tdg, plan.clone()).is_committed());
    let n = plan.occupied_switch_count() as u64;
    rt.injector_mut().arm_controller_crash_at(2 + n, CrashTiming::BeforeWrite);
    let outcome = rt.rollout(&tdg, plan);
    assert!(matches!(outcome, RolloutOutcome::ControllerCrashed { .. }));
    rt.recover(&tdg).expect("recovery over an intact journal succeeds");
    rt.journal().bytes().to_vec()
}

/// Decoding must be total: whatever `bytes` holds, `replay_bytes` either
/// returns a replay (whose records then fold into intent without
/// panicking) or a typed error. Returns `Ok(records)` for inspection.
fn decode_is_total(bytes: &[u8]) -> Option<usize> {
    let outcome = std::panic::catch_unwind(|| match replay_bytes(bytes) {
        Ok(replay) => {
            // Folding damaged-but-framed records must not panic either.
            let intent = RecoveredIntent::from_replay(&replay);
            intent.planned_action();
            Some(replay.records.len())
        }
        Err(_) => None,
    });
    match outcome {
        Ok(records) => records,
        Err(_) => panic!("journal decoding panicked"),
    }
}

#[test]
fn truncation_at_every_byte_offset_is_a_typed_outcome() {
    let bytes = rich_journal();
    let full = decode_is_total(bytes).expect("the intact journal replays");
    assert!(full > 0, "the scenario must journal something");
    let mut torn_tails = 0usize;
    for cut in 0..bytes.len() {
        match decode_is_total(&bytes[..cut]) {
            // A prefix can only ever hold a prefix of the intent; the
            // lost suffix is a torn tail, not invented records.
            Some(records) => {
                assert!(
                    records <= full,
                    "cut at {cut}: {records} records from a prefix of a {full}-record journal"
                );
                torn_tails += 1;
            }
            // Cuts inside the 8-byte header (or a corrupted compaction
            // base) are typed errors.
            None => assert!(cut < bytes.len(), "cut at {cut} errored but shorter cuts replayed"),
        }
    }
    assert!(torn_tails > 0, "some truncations must replay as torn tails");
}

#[test]
fn bit_flip_at_every_byte_offset_is_a_typed_outcome() {
    let bytes = rich_journal();
    let full = decode_is_total(bytes).expect("the intact journal replays");
    for (i, _) in bytes.iter().enumerate() {
        for bit in [0x01u8, 0x80u8] {
            let mut damaged = bytes.to_vec();
            damaged[i] ^= bit;
            if let Some(records) = decode_is_total(&damaged) {
                // The CRC can only miss if the flip landed in a frame the
                // decoder then discards as a torn tail — the surviving
                // record count never exceeds the original.
                assert!(
                    records <= full,
                    "flip at byte {i}: {records} records out of a {full}-record journal"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random compound damage — truncate, then flip several bytes —
    /// still yields a typed outcome, never a panic.
    #[test]
    fn compound_damage_never_panics(
        cut_frac in 0.0f64..1.0,
        flips in proptest::collection::vec((0usize..4096, 1u8..=255), 0..8)
    ) {
        let bytes = rich_journal();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let mut damaged = bytes[..cut.min(bytes.len())].to_vec();
        for (offset, mask) in flips {
            if !damaged.is_empty() {
                let at = offset % damaged.len();
                damaged[at] ^= mask;
            }
        }
        decode_is_total(&damaged);
    }
}
