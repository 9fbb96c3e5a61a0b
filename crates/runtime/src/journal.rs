//! The controller's durable write-ahead intent journal.
//!
//! Every state transition the controller makes — epoch advances,
//! transaction begin/prepare/commit/abort, lease grants, migration step
//! checkpoints, activation snapshots — is appended here as a
//! [`JournalRecord`] *before* the transition takes effect (write-ahead
//! discipline). After a controller crash, [`crate::recovery`] replays the
//! journal to rebuild the intended state and reconciles it against the
//! live agents.
//!
//! # On-disk format
//!
//! ```text
//! header : JOURNAL_MAGIC (4) | format version u16 LE | reserved u16
//! frame  : FRAME_MAGIC (2) | payload len u32 LE | CRC32 u32 LE | payload
//! ```
//!
//! The payload is the canonical JSON serialization of one
//! [`JournalRecord`]; the CRC32 (IEEE) covers the payload bytes. The
//! format is deliberately append-only and self-framing so a crash mid
//! write leaves at worst a torn final frame.
//!
//! # Corruption semantics
//!
//! [`replay_bytes`] distinguishes two failure shapes:
//!
//! - **Torn tail** — the undecodable region extends to the end of the
//!   journal with no intact frame after it. This is what a crash during
//!   an append produces; the tail is discarded (reported via
//!   [`Replay::discarded_tail_bytes`]) and replay succeeds with every
//!   record that landed before it.
//! - **Mid-log corruption** — an intact frame exists *after* the
//!   undecodable region, so the damage cannot be a torn append. Replay
//!   fails with a typed [`JournalError::CorruptFrame`]; silently skipping
//!   records would let recovery act on a rewritten history.
//!
//! Headers with the wrong magic or an unsupported format version fail
//! with their own typed errors. Nothing on this path panics (enforced by
//! the crate's `clippy.toml` unwrap/expect ban).
//!
//! # Compaction
//!
//! Activation writes a [`JournalRecord::Snapshot`] carrying the full
//! active deployment. Once the bytes *preceding* the latest snapshot
//! exceed a threshold, the journal drops them: replay then starts from a
//! self-contained snapshot instead of the beginning of time, bounding
//! both journal size and recovery replay work.

use hermes_backend::DeploymentArtifacts;
use hermes_core::DeploymentPlan;
use hermes_net::SwitchId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// File magic: the first four bytes of every journal.
pub const JOURNAL_MAGIC: [u8; 4] = *b"HJL1";

/// Version of the journal byte format (header + framing + record schema).
///
/// History: 1 — original format (PR 7).
pub const JOURNAL_FORMAT_VERSION: u16 = 1;

/// Per-frame magic, chosen to be invalid UTF-8 so it cannot collide with
/// JSON payload bytes.
const FRAME_MAGIC: [u8; 2] = [0xA7, 0x4A];

/// Header: magic (4) + version u16 LE + reserved u16.
const HEADER_LEN: usize = 8;

/// Frame header: magic (2) + payload length u32 LE + CRC32 u32 LE.
const FRAME_HEADER_LEN: usize = 2 + 4 + 4;

/// An upper bound on a sane payload; a length field beyond this is
/// corruption, not a large record.
const MAX_PAYLOAD_LEN: usize = 64 * 1024 * 1024;

/// The reflected CRC32 (IEEE 802.3) polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// `CRC32_TABLE[b]` is the CRC register after shifting byte `b` through
/// eight bitwise steps, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
};

/// CRC32 (IEEE 802.3, reflected) over `bytes`, one table lookup per
/// byte. Guarantees detection of any single-bit error in the covered
/// payload.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Where in the protocol a journal write (and therefore a potential
/// controller crash) sits. Every [`JournalRecord`] maps to exactly one
/// crash point; the fault injector can strike at any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CrashPoint {
    /// Advancing the controller epoch counter.
    EpochAdvance,
    /// Recording a transaction's intent (plan + artifacts) before the
    /// first prepare.
    TxnBegin,
    /// Recording one switch's prepare acknowledgement.
    Prepare,
    /// The point of no return: the decision to start committing.
    CommitDecision,
    /// Recording one switch's commit acknowledgement.
    CommitAck,
    /// Recording a commit-window lease grant.
    LeaseGrant,
    /// Recording that the whole transaction committed.
    TxnCommit,
    /// Recording a pre-commit abort.
    TxnAbort,
    /// Writing an activation snapshot (or the cleared-state marker).
    Snapshot,
    /// Recording a migration's intent (target plan + commit order).
    MigrationBegin,
    /// Recording one migration step checkpoint.
    MigrationStep,
    /// Recording the decision to roll a migration back.
    MigrationRollback,
    /// Recording that every migration step committed.
    MigrationEnd,
    /// Recording recovery progress (only reachable with crash injection
    /// disarmed; recovery assumes the single-fault model).
    Recovery,
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CrashPoint::EpochAdvance => "epoch-advance",
            CrashPoint::TxnBegin => "txn-begin",
            CrashPoint::Prepare => "prepare",
            CrashPoint::CommitDecision => "commit-decision",
            CrashPoint::CommitAck => "commit-ack",
            CrashPoint::LeaseGrant => "lease-grant",
            CrashPoint::TxnCommit => "txn-commit",
            CrashPoint::TxnAbort => "txn-abort",
            CrashPoint::Snapshot => "snapshot",
            CrashPoint::MigrationBegin => "migration-begin",
            CrashPoint::MigrationStep => "migration-step",
            CrashPoint::MigrationRollback => "migration-rollback",
            CrashPoint::MigrationEnd => "migration-end",
            CrashPoint::Recovery => "recovery",
        })
    }
}

/// Whether an injected controller crash strikes before or after the
/// journal record lands. Before-write crashes lose the record (the
/// transition never happened, durably speaking); after-write crashes
/// persist intent the controller never got to act on. Recovery must be
/// correct either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashTiming {
    /// The crash strikes with the record unwritten.
    BeforeWrite,
    /// The crash strikes with the record durable.
    AfterWrite,
}

/// What kind of transaction a [`JournalRecord::TxnBegun`] opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnKind {
    /// An operator-initiated rollout of a new plan.
    Deploy,
    /// A healing transaction re-homing MATs lost to down switches.
    Heal,
    /// A reinstall driven by post-crash recovery.
    Recovery,
}

impl fmt::Display for TxnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TxnKind::Deploy => "deploy",
            TxnKind::Heal => "heal",
            TxnKind::Recovery => "recovery",
        })
    }
}

/// One durable state transition. Records carry everything recovery needs
/// to rebuild intent without the controller's memory: transaction records
/// embed the full serialized plan and per-switch artifacts, snapshots
/// embed the whole active deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// The controller is about to start using `epoch` (write-ahead: the
    /// in-memory counter advances only after this lands).
    EpochAdvanced {
        /// The epoch about to be used.
        epoch: u64,
    },
    /// A two-phase transaction is about to start preparing.
    TxnBegun {
        /// The transaction epoch.
        epoch: u64,
        /// What initiated the transaction.
        kind: TxnKind,
        /// Fingerprint of the TDG the plan was validated against.
        tdg_fp: u64,
        /// Fingerprint of `plan`.
        plan_fp: u64,
        /// The target plan.
        plan: DeploymentPlan,
        /// The compiled per-switch configs.
        artifacts: DeploymentArtifacts,
    },
    /// One switch acknowledged its prepare.
    Prepared {
        /// The transaction epoch.
        epoch: u64,
        /// The switch that staged.
        switch: SwitchId,
    },
    /// The point of no return: every switch prepared, validation and the
    /// mixed-epoch gate passed, commits are about to be sent in `order`.
    CommitDecided {
        /// The transaction epoch.
        epoch: u64,
        /// The commit order.
        order: Vec<SwitchId>,
    },
    /// One switch acknowledged its commit.
    CommitAcked {
        /// The transaction epoch.
        epoch: u64,
        /// The switch now serving the epoch.
        switch: SwitchId,
    },
    /// A commit-window lease was granted (the agent self-fences if the
    /// controller stops renewing it — the property recovery leans on).
    LeaseGranted {
        /// The leased epoch.
        epoch: u64,
        /// The leased switch.
        switch: SwitchId,
        /// Virtual-clock lease deadline.
        until_us: u64,
    },
    /// The whole transaction committed (leases swept; `dead` lists
    /// switches declared down during the commit window).
    TxnCommitted {
        /// The committed epoch.
        epoch: u64,
        /// Switches lost during the commit window.
        dead: Vec<SwitchId>,
    },
    /// The transaction aborted before any commit was sent.
    TxnAborted {
        /// The abandoned epoch.
        epoch: u64,
        /// Why.
        reason: String,
    },
    /// The active deployment after an activation — a self-contained
    /// restart point (compaction drops everything before the latest one).
    Snapshot {
        /// The active epoch.
        epoch: u64,
        /// Fingerprint of the TDG.
        tdg_fp: u64,
        /// Fingerprint of `plan`.
        plan_fp: u64,
        /// The active plan.
        plan: DeploymentPlan,
        /// The active per-switch configs.
        artifacts: DeploymentArtifacts,
        /// Virtual time of the activation.
        clock_us: u64,
    },
    /// The controller deliberately has no active deployment (a rollback
    /// with nothing to restore).
    Cleared {
        /// The epoch that was abandoned when state was cleared.
        epoch: u64,
    },
    /// A staged migration passed its gate and is about to execute.
    MigrationBegun {
        /// The migration epoch.
        epoch: u64,
        /// Fingerprint of the TDG.
        tdg_fp: u64,
        /// Fingerprint of the target plan.
        plan_fp: u64,
        /// The target plan.
        plan: DeploymentPlan,
        /// The target per-switch configs.
        artifacts: DeploymentArtifacts,
        /// The scheduled commit order.
        order: Vec<SwitchId>,
    },
    /// One migration step committed (a checkpoint).
    MigrationStepCommitted {
        /// The migration epoch.
        epoch: u64,
        /// 0-based step index.
        step: usize,
        /// The switch now serving its target config.
        switch: SwitchId,
    },
    /// The controller decided to roll the migration back.
    MigrationRolledBack {
        /// The abandoned migration epoch.
        epoch: u64,
        /// `true` when the out-of-band full restore was chosen over
        /// stepwise undo.
        forced: bool,
    },
    /// Every migration step committed; activation follows.
    MigrationCompleted {
        /// The migrated epoch.
        epoch: u64,
        /// Steps executed.
        steps: usize,
    },
    /// Post-crash recovery started replaying this journal.
    RecoveryBegun {
        /// The fresh epoch recovery will reinstall under.
        epoch: u64,
    },
    /// Recovery finished; the journal is consistent again.
    RecoveryCompleted {
        /// The epoch now serving.
        epoch: u64,
        /// Rendered [`crate::recovery::RecoveryAction`].
        action: String,
    },
}

impl JournalRecord {
    /// The crash point a write of this record represents.
    pub fn crash_point(&self) -> CrashPoint {
        match self {
            JournalRecord::EpochAdvanced { .. } => CrashPoint::EpochAdvance,
            JournalRecord::TxnBegun { .. } => CrashPoint::TxnBegin,
            JournalRecord::Prepared { .. } => CrashPoint::Prepare,
            JournalRecord::CommitDecided { .. } => CrashPoint::CommitDecision,
            JournalRecord::CommitAcked { .. } => CrashPoint::CommitAck,
            JournalRecord::LeaseGranted { .. } => CrashPoint::LeaseGrant,
            JournalRecord::TxnCommitted { .. } => CrashPoint::TxnCommit,
            JournalRecord::TxnAborted { .. } => CrashPoint::TxnAbort,
            JournalRecord::Snapshot { .. } | JournalRecord::Cleared { .. } => CrashPoint::Snapshot,
            JournalRecord::MigrationBegun { .. } => CrashPoint::MigrationBegin,
            JournalRecord::MigrationStepCommitted { .. } => CrashPoint::MigrationStep,
            JournalRecord::MigrationRolledBack { .. } => CrashPoint::MigrationRollback,
            JournalRecord::MigrationCompleted { .. } => CrashPoint::MigrationEnd,
            JournalRecord::RecoveryBegun { .. } | JournalRecord::RecoveryCompleted { .. } => {
                CrashPoint::Recovery
            }
        }
    }

    /// The epoch the record belongs to.
    pub fn epoch(&self) -> u64 {
        match self {
            JournalRecord::EpochAdvanced { epoch }
            | JournalRecord::TxnBegun { epoch, .. }
            | JournalRecord::Prepared { epoch, .. }
            | JournalRecord::CommitDecided { epoch, .. }
            | JournalRecord::CommitAcked { epoch, .. }
            | JournalRecord::LeaseGranted { epoch, .. }
            | JournalRecord::TxnCommitted { epoch, .. }
            | JournalRecord::TxnAborted { epoch, .. }
            | JournalRecord::Snapshot { epoch, .. }
            | JournalRecord::Cleared { epoch }
            | JournalRecord::MigrationBegun { epoch, .. }
            | JournalRecord::MigrationStepCommitted { epoch, .. }
            | JournalRecord::MigrationRolledBack { epoch, .. }
            | JournalRecord::MigrationCompleted { epoch, .. }
            | JournalRecord::RecoveryBegun { epoch }
            | JournalRecord::RecoveryCompleted { epoch, .. } => *epoch,
        }
    }
}

/// Typed replay failure. Recovery either succeeds (possibly discarding a
/// torn tail) or fails with one of these — never a panic, never a
/// silently misparsed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The journal is shorter than its fixed header.
    TooShort {
        /// Bytes present.
        len: usize,
    },
    /// The header magic is not [`JOURNAL_MAGIC`] — this is not a journal
    /// (or its header was damaged).
    BadMagic {
        /// The four bytes found.
        found: [u8; 4],
    },
    /// The header declares a format this code does not speak.
    UnsupportedVersion {
        /// The version found.
        found: u16,
        /// The version supported ([`JOURNAL_FORMAT_VERSION`]).
        supported: u16,
    },
    /// A frame in the *middle* of the journal is undecodable while an
    /// intact frame exists after it: mid-log corruption, not a torn
    /// append. Replaying past it would rewrite history.
    CorruptFrame {
        /// Byte offset of the undecodable frame.
        offset: usize,
        /// Byte offset of the next intact frame (the proof this is not a
        /// tail).
        next_intact: usize,
        /// What failed to decode.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::TooShort { len } => {
                write!(f, "journal too short: {len} bytes, header needs {HEADER_LEN}")
            }
            JournalError::BadMagic { found } => {
                write!(f, "bad journal magic {found:02x?} (expected {JOURNAL_MAGIC:02x?})")
            }
            JournalError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported journal format version {found} (supported: {supported})")
            }
            JournalError::CorruptFrame { offset, next_intact, detail } => write!(
                f,
                "corrupt journal frame at byte {offset} ({detail}); an intact frame at byte \
                 {next_intact} proves this is not a torn tail"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// The result of a successful replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of torn tail discarded (0 for a cleanly closed journal).
    pub discarded_tail_bytes: usize,
}

/// Decodes one frame at `off`. `Ok((record, next_off))` or a rendered
/// reason why the bytes at `off` are not an intact frame.
fn decode_frame(bytes: &[u8], off: usize) -> Result<(JournalRecord, usize), String> {
    let remaining = bytes.len() - off;
    if remaining < FRAME_HEADER_LEN {
        return Err(format!("{remaining} bytes left, frame header needs {FRAME_HEADER_LEN}"));
    }
    if bytes[off..off + 2] != FRAME_MAGIC {
        return Err(format!(
            "frame magic mismatch: {:02x?} (expected {FRAME_MAGIC:02x?})",
            &bytes[off..off + 2]
        ));
    }
    let len = u32::from_le_bytes([bytes[off + 2], bytes[off + 3], bytes[off + 4], bytes[off + 5]])
        as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(format!("declared payload length {len} exceeds the {MAX_PAYLOAD_LEN} cap"));
    }
    if remaining < FRAME_HEADER_LEN + len {
        return Err(format!(
            "declared payload length {len} overruns the journal ({} bytes left)",
            remaining - FRAME_HEADER_LEN
        ));
    }
    let stored_crc =
        u32::from_le_bytes([bytes[off + 6], bytes[off + 7], bytes[off + 8], bytes[off + 9]]);
    let payload = &bytes[off + FRAME_HEADER_LEN..off + FRAME_HEADER_LEN + len];
    let actual_crc = crc32(payload);
    if stored_crc != actual_crc {
        return Err(format!("CRC mismatch: stored {stored_crc:08x}, computed {actual_crc:08x}"));
    }
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
    let record: JournalRecord =
        serde_json::from_str(text).map_err(|e| format!("payload not a record: {e}"))?;
    Ok((record, off + FRAME_HEADER_LEN + len))
}

/// Scans for the first intact frame strictly after `from`.
fn find_intact_frame_after(bytes: &[u8], from: usize) -> Option<usize> {
    let mut i = from + 1;
    while i + FRAME_HEADER_LEN <= bytes.len() {
        if bytes[i..i + 2] == FRAME_MAGIC && decode_frame(bytes, i).is_ok() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Replays a raw journal image. See the module docs for the torn-tail
/// vs. mid-log-corruption contract.
///
/// # Errors
///
/// [`JournalError::TooShort`] / [`JournalError::BadMagic`] /
/// [`JournalError::UnsupportedVersion`] for a damaged header, and
/// [`JournalError::CorruptFrame`] for provable mid-log corruption.
pub fn replay_bytes(bytes: &[u8]) -> Result<Replay, JournalError> {
    if bytes.len() < HEADER_LEN {
        return Err(JournalError::TooShort { len: bytes.len() });
    }
    if bytes[0..4] != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic { found: [bytes[0], bytes[1], bytes[2], bytes[3]] });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != JOURNAL_FORMAT_VERSION {
        return Err(JournalError::UnsupportedVersion {
            found: version,
            supported: JOURNAL_FORMAT_VERSION,
        });
    }
    let mut records = Vec::new();
    let mut off = HEADER_LEN;
    while off < bytes.len() {
        match decode_frame(bytes, off) {
            Ok((record, next)) => {
                records.push(record);
                off = next;
            }
            Err(detail) => {
                return match find_intact_frame_after(bytes, off) {
                    Some(next_intact) => {
                        Err(JournalError::CorruptFrame { offset: off, next_intact, detail })
                    }
                    None => Ok(Replay { records, discarded_tail_bytes: bytes.len() - off }),
                };
            }
        }
    }
    Ok(Replay { records, discarded_tail_bytes: 0 })
}

/// Default compaction threshold: once more than this many bytes precede
/// the latest snapshot, they are dropped.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 64 * 1024;

/// The in-memory journal image the runtime appends to. `bytes()` is the
/// durable representation — what a resident server would fsync and what
/// the CLI's `--journal` flag writes to disk.
#[derive(Debug, Clone)]
pub struct Journal {
    bytes: Vec<u8>,
    records: usize,
    appends: u64,
    compactions: u64,
    encode_failures: u64,
    compact_threshold: usize,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

impl Journal {
    /// An empty journal (header only) with the default compaction
    /// threshold.
    pub fn new() -> Self {
        Journal::with_compact_threshold(DEFAULT_COMPACT_THRESHOLD)
    }

    /// An empty journal that compacts once more than `threshold` bytes
    /// precede the latest snapshot.
    pub fn with_compact_threshold(threshold: usize) -> Self {
        let mut bytes = Vec::with_capacity(HEADER_LEN);
        bytes.extend_from_slice(&JOURNAL_MAGIC);
        bytes.extend_from_slice(&JOURNAL_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0, 0]);
        Journal {
            bytes,
            records: 0,
            appends: 0,
            compactions: 0,
            encode_failures: 0,
            compact_threshold: threshold,
        }
    }

    /// Appends one record. A [`JournalRecord::Snapshot`] additionally
    /// triggers compaction when enough history precedes it.
    pub fn append(&mut self, record: &JournalRecord) {
        let payload = match serde_json::to_string(record) {
            Ok(p) => p,
            Err(_) => {
                // Derived serialization of journal records cannot fail; if
                // it somehow does, dropping the record (and counting it)
                // beats writing a frame that will never decode.
                self.encode_failures += 1;
                return;
            }
        };
        let frame_off = self.bytes.len();
        self.bytes.extend_from_slice(&FRAME_MAGIC);
        self.bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
        self.bytes.extend_from_slice(payload.as_bytes());
        self.records += 1;
        self.appends += 1;
        if matches!(record, JournalRecord::Snapshot { .. })
            && frame_off - HEADER_LEN > self.compact_threshold
        {
            // Drop everything between the header and this snapshot frame:
            // the snapshot is a self-contained restart point.
            self.bytes.drain(HEADER_LEN..frame_off);
            self.records = 1;
            self.compactions += 1;
        }
    }

    /// The durable byte image (header + frames).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Records currently in the image (after compaction).
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Total appends over the journal's lifetime (compaction does not
    /// reset this).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Times compaction dropped pre-snapshot history.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Records dropped because they failed to serialize (always 0 in
    /// practice; see [`Journal::append`]).
    pub fn encode_failures(&self) -> u64 {
        self.encode_failures
    }

    /// Replays the in-memory image.
    ///
    /// # Errors
    ///
    /// Propagates [`replay_bytes`]'s typed errors.
    pub fn replay(&self) -> Result<Replay, JournalError> {
        replay_bytes(&self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64) -> JournalRecord {
        JournalRecord::EpochAdvanced { epoch }
    }

    fn snapshot(epoch: u64) -> JournalRecord {
        JournalRecord::Snapshot {
            epoch,
            tdg_fp: 11,
            plan_fp: 22,
            plan: DeploymentPlan::new(),
            artifacts: DeploymentArtifacts {
                switches: std::collections::BTreeMap::new(),
                routes: Vec::new(),
            },
            clock_us: 5,
        }
    }

    #[test]
    fn append_replay_round_trips_in_order() {
        let mut j = Journal::new();
        let records = vec![
            record(1),
            JournalRecord::TxnAborted { epoch: 1, reason: "no".into() },
            JournalRecord::CommitDecided { epoch: 2, order: vec![] },
            snapshot(2),
        ];
        for r in &records {
            j.append(r);
        }
        let replay = match j.replay() {
            Ok(r) => r,
            Err(e) => panic!("clean journal must replay: {e}"),
        };
        assert_eq!(replay.records, records);
        assert_eq!(replay.discarded_tail_bytes, 0);
        assert_eq!(j.record_count(), 4);
        assert_eq!(j.encode_failures(), 0);
    }

    #[test]
    fn empty_journal_replays_to_nothing() {
        let j = Journal::new();
        let replay = j.replay().ok().filter(|r| r.records.is_empty());
        assert!(replay.is_some(), "header-only journal must replay cleanly");
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let mut j = Journal::new();
        j.append(&record(1));
        j.append(&record(2));
        let full = j.bytes().to_vec();
        // Truncate inside the final frame: a torn append.
        for cut in (full.len() - 10)..full.len() {
            let torn = &full[..cut];
            let replay = match replay_bytes(torn) {
                Ok(r) => r,
                Err(e) => panic!("torn tail at {cut} must not be fatal: {e}"),
            };
            assert_eq!(replay.records, vec![record(1)], "cut at {cut}");
            assert!(replay.discarded_tail_bytes > 0, "cut at {cut}");
        }
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let mut j = Journal::new();
        j.append(&record(1));
        j.append(&record(2));
        let mut bytes = j.bytes().to_vec();
        // Flip a payload bit of the FIRST frame; the intact second frame
        // proves this is not a torn tail.
        bytes[HEADER_LEN + FRAME_HEADER_LEN + 2] ^= 0x01;
        match replay_bytes(&bytes) {
            Err(JournalError::CorruptFrame { offset, next_intact, .. }) => {
                assert_eq!(offset, HEADER_LEN);
                assert!(next_intact > offset);
            }
            other => panic!("mid-log corruption must be typed, got {other:?}"),
        }
    }

    #[test]
    fn header_damage_is_typed() {
        let j = Journal::new();
        let good = j.bytes().to_vec();

        assert_eq!(replay_bytes(&good[..4]), Err(JournalError::TooShort { len: 4 }));

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(replay_bytes(&bad_magic), Err(JournalError::BadMagic { .. })));

        let mut bad_version = good;
        bad_version[4] = 0xFF;
        assert!(matches!(
            replay_bytes(&bad_version),
            Err(JournalError::UnsupportedVersion { found: 0xFF, .. })
        ));
    }

    #[test]
    fn snapshot_compaction_drops_history_and_keeps_replayability() {
        let mut j = Journal::with_compact_threshold(256);
        for epoch in 1..=40 {
            j.append(&record(epoch));
        }
        let before = j.bytes().len();
        j.append(&snapshot(41));
        assert!(j.bytes().len() < before, "compaction must shrink the image");
        assert_eq!(j.compactions(), 1);
        assert_eq!(j.record_count(), 1);
        let replay = match j.replay() {
            Ok(r) => r,
            Err(e) => panic!("compacted journal must replay: {e}"),
        };
        assert_eq!(replay.records.len(), 1);
        assert!(matches!(replay.records[0], JournalRecord::Snapshot { epoch: 41, .. }));
        // Appends after compaction land after the snapshot.
        j.append(&record(42));
        let replay = match j.replay() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(replay.records.len(), 2);
    }

    /// The bit-at-a-time CRC32 the table is derived from: the oracle.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_answers() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_table_matches_bitwise_oracle() {
        // SplitMix64 payloads of every length 0..=1024.
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for len in 0..=1024usize {
            let payload: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&payload), crc32_bitwise(&payload), "length {len}");
        }
    }

    #[test]
    fn crash_points_cover_every_record_kind() {
        assert_eq!(record(1).crash_point(), CrashPoint::EpochAdvance);
        assert_eq!(snapshot(1).crash_point(), CrashPoint::Snapshot);
        assert_eq!(JournalRecord::RecoveryBegun { epoch: 3 }.crash_point(), CrashPoint::Recovery);
        assert_eq!(JournalRecord::Cleared { epoch: 3 }.epoch(), 3);
    }
}
