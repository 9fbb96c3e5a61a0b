//! Post-crash recovery: journal replay, intent reconstruction, and
//! agent reconciliation.
//!
//! A controller crash ([`crate::runtime::ControllerCrash`]) loses every
//! piece of in-memory state — the epoch counter, the active deployment,
//! the in-flight transaction. What survives is the write-ahead
//! [`crate::journal::Journal`] and a fleet of agents frozen mid-protocol:
//! some serving the old plan, some with the new epoch staged, some
//! already committed to it, some with leases quietly lapsing.
//!
//! [`DeploymentRuntime::recover`] restores the invariant the runtime
//! promises everywhere else — *exactly plan A or exactly plan B, never a
//! mix* — in four moves:
//!
//! 1. **Replay** — decode the journal ([`crate::journal::replay_bytes`]),
//!    discarding a torn tail, and fold the records into a
//!    [`RecoveredIntent`]: the last durable snapshot plus whatever
//!    transaction or migration was in flight.
//! 2. **Fence by time and epoch** — the virtual clock jumps two lease
//!    windows, so every agent whose commit-window lease was running at
//!    the crash has provably self-fenced by the time recovery speaks to
//!    it. All reinstalls then run under a *fresh* epoch, strictly greater
//!    than any epoch the journal (and therefore any agent) has ever
//!    seen — write-ahead epoch advances make `max(journal) + 1` safe.
//! 3. **Reconcile** — probe every switch under the fresh epoch to learn
//!    what each agent actually serves ([`crate::event::Event::AgentReconciled`]).
//!    Probes never fence; dead switches are marked down so the repair
//!    plans around them.
//! 4. **Repair** — pick the [`RecoveryAction`] the journal dictates: a
//!    transaction whose commit decision was durable rolls *forward* (the
//!    decision is the point of no return — some agent may already serve
//!    it); one without rolls *back* to the snapshot; a migration rolls
//!    forward only if every step checkpointed. The chosen plan is
//!    reinstalled switch by switch under the fresh epoch; a switch that
//!    refuses is force-activated out of band, and past
//!    [`RECOVERY_ABORT_THRESHOLD`] failures the surgical path is
//!    abandoned for a full out-of-band restore.
//!
//! Recovery assumes the single-fault model: crash injection is disarmed
//! on entry, and recovery's own journal writes bypass the injector, so a
//! recovering controller cannot crash again mid-repair. Nothing on this
//! path panics — corrupt journals surface as [`RecoveryError::Journal`]
//! and a foreign journal as [`RecoveryError::TdgFingerprintMismatch`]
//! (enforced by the crate's `clippy.toml` unwrap/expect ban).

use crate::agent::{AgentError, Reply, Request};
use crate::event::{Event, MessageKind};
use crate::journal::{JournalError, JournalRecord, Replay, TxnKind};
use crate::runtime::{ActiveDeployment, DeploymentRuntime};
use hermes_backend::{DeploymentArtifacts, SwitchConfig};
use hermes_core::{verify, DeploymentPlan};
use hermes_net::SwitchId;
use hermes_tdg::Tdg;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Per-switch reinstall failures recovery tolerates before abandoning
/// surgical repair for the out-of-band full restore.
pub const RECOVERY_ABORT_THRESHOLD: u32 = 3;

/// The repair a recovery run decided on, derived purely from the journal
/// (see [`RecoveredIntent::planned_action`]) and demoted from a forward
/// action to its rollback counterpart only if the forward target no
/// longer verifies on the post-crash network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// No transaction was in flight: re-assert the snapshot so every
    /// agent provably serves it under the fresh epoch.
    AffirmSnapshot,
    /// A transaction died before its commit decision became durable (or
    /// after its abort did): abandon it and re-assert the snapshot.
    RollBackTxn,
    /// A transaction's commit decision was durable: finish its commits
    /// by reinstalling the target plan under the fresh epoch.
    ResumeCommit,
    /// Every migration step checkpointed: plan B is the intended state;
    /// reinstall it under the fresh epoch.
    CompleteMigration,
    /// The migration died mid-schedule (or mid-rollback): plan A is the
    /// intended state; reinstall it under the fresh epoch.
    RollBackMigration,
    /// The journal holds neither a snapshot nor a resumable intent: the
    /// controller deliberately serves nothing, and every live agent is
    /// wiped to match.
    Cleared,
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecoveryAction::AffirmSnapshot => "affirm-snapshot",
            RecoveryAction::RollBackTxn => "roll-back-txn",
            RecoveryAction::ResumeCommit => "resume-commit",
            RecoveryAction::CompleteMigration => "complete-migration",
            RecoveryAction::RollBackMigration => "roll-back-migration",
            RecoveryAction::Cleared => "cleared",
        })
    }
}

/// The last durable activation snapshot found in the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotState {
    /// The epoch the snapshot was active under.
    pub epoch: u64,
    /// Fingerprint of the TDG the snapshot was validated against.
    pub tdg_fp: u64,
    /// Fingerprint of `plan`.
    pub plan_fp: u64,
    /// The snapshotted plan.
    pub plan: DeploymentPlan,
    /// The snapshotted per-switch configs.
    pub artifacts: DeploymentArtifacts,
    /// Virtual time of the activation.
    pub clock_us: u64,
}

/// The unconcluded operation the journal's suffix describes, if any.
#[derive(Debug, Clone, PartialEq)]
pub enum InFlight {
    /// A two-phase transaction (deploy, heal, or recovery reinstall).
    Txn {
        /// The transaction epoch.
        epoch: u64,
        /// What initiated it.
        kind: TxnKind,
        /// Fingerprint of the TDG it was validated against.
        tdg_fp: u64,
        /// Fingerprint of `plan`.
        plan_fp: u64,
        /// The target plan.
        plan: DeploymentPlan,
        /// The compiled per-switch configs.
        artifacts: DeploymentArtifacts,
        /// Switches whose prepare ack was journaled.
        prepared: Vec<SwitchId>,
        /// The journaled commit order — `Some` iff the point of no
        /// return was crossed durably.
        commit_order: Option<Vec<SwitchId>>,
        /// Switches whose commit ack was journaled.
        commit_acked: Vec<SwitchId>,
        /// `true` when the whole-transaction commit record landed (the
        /// activation snapshot did not — it would have concluded the
        /// intent).
        committed: bool,
        /// `true` when the abort decision landed.
        aborted: bool,
    },
    /// A staged migration.
    Migration {
        /// The migration epoch.
        epoch: u64,
        /// Fingerprint of the TDG.
        tdg_fp: u64,
        /// Fingerprint of the target plan.
        plan_fp: u64,
        /// The target plan (plan B).
        plan: DeploymentPlan,
        /// The target per-switch configs.
        artifacts: DeploymentArtifacts,
        /// The scheduled commit order.
        order: Vec<SwitchId>,
        /// Switches whose step checkpoint was journaled.
        steps_committed: Vec<SwitchId>,
        /// `true` when the rollback decision landed.
        rolled_back: bool,
        /// `true` when the all-steps-committed record landed (but not
        /// the activation snapshot).
        completed: bool,
    },
}

impl InFlight {
    fn tdg_fp(&self) -> u64 {
        match self {
            InFlight::Txn { tdg_fp, .. } | InFlight::Migration { tdg_fp, .. } => *tdg_fp,
        }
    }
}

/// Everything a journal replay says about where the controller was when
/// it died: the last durable snapshot, the operation in flight (if its
/// conclusion never became durable), and the highest epoch ever journaled.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredIntent {
    /// The last durable activation snapshot, if any.
    pub snapshot: Option<SnapshotState>,
    /// The unconcluded operation, if any.
    pub in_flight: Option<InFlight>,
    /// `true` when the journal's last word on active state was
    /// [`JournalRecord::Cleared`] (deliberately serving nothing).
    pub cleared: bool,
    /// The highest epoch any journaled record carries. Write-ahead epoch
    /// advances guarantee `max_epoch + 1` is fresh: no agent has seen it.
    pub max_epoch: u64,
    /// Records replayed.
    pub records: usize,
    /// Torn-tail bytes the replay discarded.
    pub discarded_tail_bytes: usize,
}

impl RecoveredIntent {
    /// Folds a replay into recovered intent. Pure bookkeeping: no agent
    /// is touched, no state changed — the CLI's `recover` command uses
    /// this to explain a journal without acting on it.
    pub fn from_replay(replay: &Replay) -> Self {
        let mut intent = RecoveredIntent {
            snapshot: None,
            in_flight: None,
            cleared: false,
            max_epoch: 0,
            records: replay.records.len(),
            discarded_tail_bytes: replay.discarded_tail_bytes,
        };
        for record in &replay.records {
            intent.max_epoch = intent.max_epoch.max(record.epoch());
            match record {
                JournalRecord::EpochAdvanced { .. }
                | JournalRecord::LeaseGranted { .. }
                | JournalRecord::RecoveryBegun { .. }
                | JournalRecord::RecoveryCompleted { .. } => {}
                JournalRecord::TxnBegun { epoch, kind, tdg_fp, plan_fp, plan, artifacts } => {
                    intent.in_flight = Some(InFlight::Txn {
                        epoch: *epoch,
                        kind: *kind,
                        tdg_fp: *tdg_fp,
                        plan_fp: *plan_fp,
                        plan: plan.clone(),
                        artifacts: artifacts.clone(),
                        prepared: Vec::new(),
                        commit_order: None,
                        commit_acked: Vec::new(),
                        committed: false,
                        aborted: false,
                    });
                }
                JournalRecord::Prepared { epoch, switch } => {
                    if let Some(InFlight::Txn { epoch: e, prepared, .. }) = &mut intent.in_flight {
                        if *e == *epoch {
                            prepared.push(*switch);
                        }
                    }
                }
                JournalRecord::CommitDecided { epoch, order } => {
                    if let Some(InFlight::Txn { epoch: e, commit_order, .. }) =
                        &mut intent.in_flight
                    {
                        if *e == *epoch {
                            *commit_order = Some(order.clone());
                        }
                    }
                }
                JournalRecord::CommitAcked { epoch, switch } => {
                    if let Some(InFlight::Txn { epoch: e, commit_acked, .. }) =
                        &mut intent.in_flight
                    {
                        if *e == *epoch {
                            commit_acked.push(*switch);
                        }
                    }
                }
                JournalRecord::TxnCommitted { epoch, .. } => {
                    if let Some(InFlight::Txn { epoch: e, committed, .. }) = &mut intent.in_flight {
                        if *e == *epoch {
                            *committed = true;
                        }
                    }
                }
                JournalRecord::TxnAborted { epoch, .. } => {
                    if let Some(InFlight::Txn { epoch: e, aborted, .. }) = &mut intent.in_flight {
                        if *e == *epoch {
                            *aborted = true;
                        }
                    }
                }
                JournalRecord::Snapshot { epoch, tdg_fp, plan_fp, plan, artifacts, clock_us } => {
                    // An activation snapshot concludes whatever was in
                    // flight: the controller reached a consistent state.
                    intent.snapshot = Some(SnapshotState {
                        epoch: *epoch,
                        tdg_fp: *tdg_fp,
                        plan_fp: *plan_fp,
                        plan: plan.clone(),
                        artifacts: artifacts.clone(),
                        clock_us: *clock_us,
                    });
                    intent.in_flight = None;
                    intent.cleared = false;
                }
                JournalRecord::Cleared { .. } => {
                    intent.snapshot = None;
                    intent.in_flight = None;
                    intent.cleared = true;
                }
                JournalRecord::MigrationBegun {
                    epoch,
                    tdg_fp,
                    plan_fp,
                    plan,
                    artifacts,
                    order,
                } => {
                    intent.in_flight = Some(InFlight::Migration {
                        epoch: *epoch,
                        tdg_fp: *tdg_fp,
                        plan_fp: *plan_fp,
                        plan: plan.clone(),
                        artifacts: artifacts.clone(),
                        order: order.clone(),
                        steps_committed: Vec::new(),
                        rolled_back: false,
                        completed: false,
                    });
                }
                JournalRecord::MigrationStepCommitted { epoch, switch, .. } => {
                    if let Some(InFlight::Migration { epoch: e, steps_committed, .. }) =
                        &mut intent.in_flight
                    {
                        if *e == *epoch {
                            steps_committed.push(*switch);
                        }
                    }
                }
                JournalRecord::MigrationRolledBack { epoch, .. } => {
                    if let Some(InFlight::Migration { epoch: e, rolled_back, .. }) =
                        &mut intent.in_flight
                    {
                        if *e == *epoch {
                            *rolled_back = true;
                        }
                    }
                }
                JournalRecord::MigrationCompleted { epoch, .. } => {
                    if let Some(InFlight::Migration { epoch: e, completed, .. }) =
                        &mut intent.in_flight
                    {
                        if *e == *epoch {
                            *completed = true;
                        }
                    }
                }
            }
        }
        intent
    }

    /// The action the journal alone dictates (before network reality can
    /// demote a forward action to its rollback counterpart).
    pub fn planned_action(&self) -> RecoveryAction {
        match &self.in_flight {
            Some(InFlight::Txn { aborted: true, .. }) => RecoveryAction::RollBackTxn,
            Some(InFlight::Txn { committed, commit_order, .. }) => {
                if *committed || commit_order.is_some() {
                    // The point of no return was durable: some agent may
                    // already serve the target, so backward is unsafe.
                    RecoveryAction::ResumeCommit
                } else {
                    RecoveryAction::RollBackTxn
                }
            }
            Some(InFlight::Migration { completed, rolled_back, .. }) => {
                if *completed && !*rolled_back {
                    RecoveryAction::CompleteMigration
                } else {
                    RecoveryAction::RollBackMigration
                }
            }
            None if self.snapshot.is_some() => RecoveryAction::AffirmSnapshot,
            None => RecoveryAction::Cleared,
        }
    }

    /// The TDG fingerprint the journal's most authoritative record
    /// carries (the in-flight intent, else the snapshot), if any.
    pub fn tdg_fp(&self) -> Option<u64> {
        self.in_flight
            .as_ref()
            .map(InFlight::tdg_fp)
            .or_else(|| self.snapshot.as_ref().map(|s| s.tdg_fp))
    }
}

/// Typed recovery failure. Either the journal itself is unusable, or it
/// describes a different workload than the one recovery was asked to
/// restore — both cases where acting would be worse than stopping.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// The journal failed to replay (header damage or provable mid-log
    /// corruption; a torn tail is *not* an error).
    Journal(JournalError),
    /// The journal's records were validated against a different TDG than
    /// the one supplied: refusing beats reinstalling a plan whose
    /// workload assumptions no longer hold.
    TdgFingerprintMismatch {
        /// Fingerprint of the TDG recovery was called with.
        expected: u64,
        /// Fingerprint the journal records carry.
        found: u64,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Journal(e) => write!(f, "journal replay failed: {e}"),
            RecoveryError::TdgFingerprintMismatch { expected, found } => write!(
                f,
                "journal records a different workload: tdg fingerprint {found:#018x}, expected \
                 {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Journal(e) => Some(e),
            RecoveryError::TdgFingerprintMismatch { .. } => None,
        }
    }
}

impl From<JournalError> for RecoveryError {
    fn from(e: JournalError) -> Self {
        RecoveryError::Journal(e)
    }
}

/// What one [`DeploymentRuntime::recover`] run did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// The fresh epoch recovery ran (and the restored plan serves) under.
    pub epoch: u64,
    /// The repair that was applied.
    pub action: RecoveryAction,
    /// Journal records replayed.
    pub replayed: usize,
    /// Torn-tail bytes the replay discarded.
    pub discarded_tail_bytes: usize,
    /// Switches reinstalled through the prepare/commit protocol.
    pub reinstalled: usize,
    /// Switches force-activated out of band (including a full restore).
    pub forced: usize,
    /// Switches that answered no reconciliation probe at all.
    pub unreachable: usize,
    /// Control-plane messages recovery sent.
    pub messages: u64,
    /// Virtual time recovery took, including the two-lease fencing wait.
    pub recovery_us: u64,
}

impl DeploymentRuntime {
    /// Recovers a crashed (or merely restarted) controller from its
    /// journal: replays intent, reconciles every agent, and repairs the
    /// fleet to exactly one consistent deployment under a fresh epoch.
    /// See the module docs for the full protocol.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Journal`] when the journal cannot replay, and
    /// [`RecoveryError::TdgFingerprintMismatch`] when it describes a
    /// different workload than `tdg`. In both cases nothing was changed.
    pub fn recover(&mut self, tdg: &Tdg) -> Result<RecoveryReport, RecoveryError> {
        // Replay before touching anything: a corrupt journal must leave
        // the runtime exactly as it was.
        let replay = self.journal.replay()?;
        let intent = RecoveredIntent::from_replay(&replay);
        let expected = hermes_core::tdg_fingerprint(tdg);
        if let Some(found) = intent.tdg_fp().filter(|&fp| fp != expected) {
            return Err(RecoveryError::TdgFingerprintMismatch { expected, found });
        }

        let start_us = self.clock_us;
        let messages_before = self.channel.messages_sent();
        // The restarted controller is a new single fault domain: injected
        // crashes are disarmed, and the old process's in-flight messages
        // died with it.
        self.injector.disarm_controller_crash();
        self.channel.clear();
        // The dying process wrote no event; the restarted one records
        // what it found.
        if let Some(crash) = self.crashed.take() {
            self.log.push(Event::ControllerCrashed {
                epoch: crash.epoch,
                point: crash.point,
                at_us: self.clock_us,
            });
        }

        // Fence by time: after two lease windows of silence, every agent
        // whose commit-window lease was running at the crash has provably
        // self-fenced — no zombie can still be serving a lapsed epoch.
        self.clock_us += 2 * self.policy.lease_us;
        // Fence by epoch: write-ahead advances make max(journal) + 1
        // strictly newer than anything any agent has seen. Recovery's own
        // journal writes bypass the injector (single-fault model).
        let fresh = intent.max_epoch + 1;
        self.journal.append(&JournalRecord::RecoveryBegun { epoch: fresh });
        self.epoch = fresh;
        self.log.push(Event::RecoveryStarted {
            epoch: fresh,
            replayed: intent.records,
            discarded_tail_bytes: intent.discarded_tail_bytes,
            at_us: self.clock_us,
        });

        let unreachable = self.reconcile_agents(fresh);

        // Decide the repair. Forward actions demote to their rollback
        // counterpart if the forward target no longer verifies on the
        // post-crash network (a switch may have died with the controller).
        let mut action = intent.planned_action();
        let forward = match (&action, &intent.in_flight) {
            (RecoveryAction::ResumeCommit, Some(InFlight::Txn { plan, artifacts, .. }))
            | (
                RecoveryAction::CompleteMigration,
                Some(InFlight::Migration { plan, artifacts, .. }),
            ) => Some((plan.clone(), artifacts.clone())),
            _ => None,
        };
        let chosen = match forward {
            Some((plan, artifacts)) if verify(tdg, &self.net, &plan, &self.eps).is_empty() => {
                Some((plan, artifacts))
            }
            Some(_) => {
                action = match action {
                    RecoveryAction::CompleteMigration => RecoveryAction::RollBackMigration,
                    _ => RecoveryAction::RollBackTxn,
                };
                intent.snapshot.as_ref().map(|s| (s.plan.clone(), s.artifacts.clone()))
            }
            None => match action {
                RecoveryAction::Cleared => None,
                _ => intent.snapshot.as_ref().map(|s| (s.plan.clone(), s.artifacts.clone())),
            },
        };

        let (reinstalled, forced) = match chosen {
            Some((plan, artifacts)) => {
                let restored =
                    ActiveDeployment::new(fresh, Arc::new(tdg.clone()), expected, plan, artifacts);
                self.reinstall(restored)
            }
            None => {
                // Nothing to restore: journal the cleared state and wipe
                // every live agent to match it.
                self.journal.append(&JournalRecord::Cleared { epoch: fresh });
                for agent in self.agents.values_mut() {
                    agent.force_activate(fresh, None);
                }
                self.active = None;
                (0, 0)
            }
        };

        self.journal
            .append(&JournalRecord::RecoveryCompleted { epoch: fresh, action: action.to_string() });
        self.log.push(Event::RecoveryApplied {
            epoch: fresh,
            action: action.to_string(),
            reinstalled,
            forced,
            at_us: self.clock_us,
        });
        let messages = self.channel.messages_sent() - messages_before;
        let recovery_us = self.clock_us - start_us;
        self.log.push(Event::RecoveryFinished {
            epoch: fresh,
            messages,
            recovery_us,
            at_us: self.clock_us,
        });
        Ok(RecoveryReport {
            epoch: fresh,
            action,
            replayed: intent.records,
            discarded_tail_bytes: intent.discarded_tail_bytes,
            reinstalled,
            forced,
            unreachable,
            messages,
            recovery_us,
        })
    }

    /// Probes every switch under the fresh epoch to learn what it
    /// actually serves. Probes never fence; a `Crashed` answer marks the
    /// switch down in the substrate, and total silence is recorded as
    /// unreachable (the repair treats such switches like force-restore
    /// does: out of band, best effort). Returns the unreachable count.
    fn reconcile_agents(&mut self, fresh: u64) -> usize {
        let mut unreachable = 0usize;
        let switches: Vec<SwitchId> = self.net.switch_ids().collect();
        for switch in switches {
            let mut answered: Option<Reply> = None;
            for _ in 0..self.policy.max_attempts {
                if let Some(reply) =
                    self.exchange(switch, fresh, Request::Probe, MessageKind::Probe)
                {
                    answered = Some(reply);
                    break;
                }
            }
            match answered {
                Some(Reply::Nack { error: AgentError::Crashed, .. }) => {
                    if !self.net.down_switches().contains(&switch) {
                        self.fail_switch(switch);
                    }
                    self.log.push(Event::AgentReconciled {
                        switch,
                        serving_epoch: None,
                        reachable: true,
                        at_us: self.clock_us,
                    });
                }
                Some(reply) => {
                    self.log.push(Event::AgentReconciled {
                        switch,
                        serving_epoch: reply.active_epoch(),
                        reachable: true,
                        at_us: self.clock_us,
                    });
                }
                None => {
                    unreachable += 1;
                    self.log.push(Event::AgentReconciled {
                        switch,
                        serving_epoch: None,
                        reachable: false,
                        at_us: self.clock_us,
                    });
                }
            }
        }
        unreachable
    }

    /// Reinstalls `restored` on every live occupied switch under its
    /// (fresh) epoch (prepare + commit, with the usual bounded retries),
    /// falling back per switch to out-of-band force-activation and — past
    /// [`RECOVERY_ABORT_THRESHOLD`] failures — to a full force restore.
    /// Live agents the plan does not occupy are wiped so no stale epoch
    /// keeps serving anywhere. Returns `(reinstalled, forced)` counts.
    fn reinstall(&mut self, restored: ActiveDeployment) -> (usize, usize) {
        let fresh = restored.epoch;
        let occupied: Vec<(SwitchId, SwitchConfig)> =
            restored.artifacts.switches.iter().map(|(&s, c)| (s, c.clone())).collect();
        let mut committed: Vec<SwitchId> = Vec::new();
        let mut forced = 0usize;
        let mut failures = 0u32;
        let down = self.net.down_switches();
        for (switch, config) in &occupied {
            if down.contains(switch) {
                continue;
            }
            let ok = match self.prepare_with_retry(*switch, config, fresh) {
                Ok(()) => self.commit_with_retry(*switch, fresh),
                Err(_) => false,
            };
            if ok {
                committed.push(*switch);
                continue;
            }
            failures += 1;
            if failures > RECOVERY_ABORT_THRESHOLD {
                // Too much of the fleet refuses the protocol: stop being
                // surgical and restore everything out of band.
                self.journal.append(&restored.snapshot(self.clock_us));
                self.channel.clear();
                for (&s, agent) in &mut self.agents {
                    agent.force_activate(fresh, restored.artifacts.switches.get(&s).cloned());
                }
                let live = occupied.iter().filter(|(s, _)| !down.contains(s)).count();
                self.active = Some(restored);
                return (0, live);
            }
            // Surgical fallback for this switch alone.
            if let Some(agent) = self.agents.get_mut(switch) {
                agent.force_activate(fresh, Some(config.clone()));
            }
            forced += 1;
        }
        // End commit-window supervision for the reinstalled agents (the
        // same sweep a committing transaction runs).
        let now = self.clock_us;
        for &switch in &committed {
            if let Some(agent) = self.agents.get_mut(&switch) {
                if let Some(lapsed) = agent.expire_lease(now) {
                    self.log.push(Event::LeaseExpired { switch, epoch: lapsed, at_us: now });
                    self.fail_switch(switch);
                } else {
                    agent.release_lease();
                }
            }
        }
        // Wipe live agents the plan does not occupy: nothing stale may
        // keep serving beside the restored deployment.
        for (&switch, agent) in &mut self.agents {
            if !restored.artifacts.switches.contains_key(&switch) {
                agent.force_activate(fresh, None);
            }
        }
        self.journal.append(&restored.snapshot(self.clock_us));
        self.active = Some(restored);
        (committed.len(), forced)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultProfile};
    use crate::journal::{CrashPoint, CrashTiming, Journal};
    use crate::runtime::{RetryPolicy, RolloutOutcome};
    use hermes_core::{Epsilon, GreedyHeuristic, ProgramAnalyzer, Solver};
    use hermes_dataplane::library;
    use hermes_net::{topology, Network};

    fn workload() -> (Tdg, Network, DeploymentPlan) {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(4, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        (tdg, net, plan)
    }

    fn runtime(net: Network) -> DeploymentRuntime {
        DeploymentRuntime::new(
            net,
            Epsilon::loose(),
            FaultInjector::disabled(),
            RetryPolicy::default(),
        )
    }

    #[test]
    fn intent_folding_tracks_the_txn_state_machine() {
        let mut j = Journal::new();
        j.append(&JournalRecord::EpochAdvanced { epoch: 1 });
        let (_, _, plan) = workload();
        let artifacts =
            DeploymentArtifacts { switches: std::collections::BTreeMap::new(), routes: Vec::new() };
        j.append(&JournalRecord::TxnBegun {
            epoch: 1,
            kind: TxnKind::Deploy,
            tdg_fp: 7,
            plan_fp: 8,
            plan: plan.clone(),
            artifacts: artifacts.clone(),
        });
        let intent = RecoveredIntent::from_replay(&j.replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::RollBackTxn);
        assert_eq!(intent.max_epoch, 1);
        assert_eq!(intent.tdg_fp(), Some(7));

        j.append(&JournalRecord::CommitDecided { epoch: 1, order: vec![] });
        let intent = RecoveredIntent::from_replay(&j.replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::ResumeCommit);

        j.append(&JournalRecord::TxnAborted { epoch: 1, reason: "no".into() });
        let intent = RecoveredIntent::from_replay(&j.replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::RollBackTxn);

        j.append(&JournalRecord::Snapshot {
            epoch: 1,
            tdg_fp: 7,
            plan_fp: 8,
            plan,
            artifacts,
            clock_us: 0,
        });
        let intent = RecoveredIntent::from_replay(&j.replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::AffirmSnapshot);
        assert!(intent.in_flight.is_none());
    }

    #[test]
    fn intent_folding_tracks_migrations_and_cleared_state() {
        let (_, _, plan) = workload();
        let artifacts =
            DeploymentArtifacts { switches: std::collections::BTreeMap::new(), routes: Vec::new() };
        let mut j = Journal::new();
        assert_eq!(
            RecoveredIntent::from_replay(&j.replay().unwrap()).planned_action(),
            RecoveryAction::Cleared
        );
        j.append(&JournalRecord::MigrationBegun {
            epoch: 2,
            tdg_fp: 7,
            plan_fp: 9,
            plan: plan.clone(),
            artifacts,
            order: vec![],
        });
        let intent = RecoveredIntent::from_replay(&j.replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::RollBackMigration);

        j.append(&JournalRecord::MigrationCompleted { epoch: 2, steps: 3 });
        let intent = RecoveredIntent::from_replay(&j.replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::CompleteMigration);

        j.append(&JournalRecord::Cleared { epoch: 2 });
        let intent = RecoveredIntent::from_replay(&j.replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::Cleared);
        assert!(intent.cleared);
    }

    #[test]
    fn crash_after_commit_decision_resumes_forward() {
        let (tdg, net, plan) = workload();
        let n = plan.occupied_switch_count() as u64;
        let mut rt = runtime(net);
        // Boundary 2 + n is the commit decision (see runtime.rs tests).
        rt.injector_mut().arm_controller_crash_at(2 + n, CrashTiming::AfterWrite);
        let outcome = rt.rollout(&tdg, plan.clone());
        assert!(matches!(outcome, RolloutOutcome::ControllerCrashed { .. }));
        assert_eq!(rt.active_plan(), None);

        let report = rt.recover(&tdg).expect("recovery must succeed");
        assert_eq!(report.action, RecoveryAction::ResumeCommit);
        assert_eq!(report.reinstalled, plan.occupied_switch_count());
        assert_eq!(report.forced, 0);
        assert_eq!(rt.active_plan(), Some(&plan));
        assert_eq!(rt.active_epoch(), Some(report.epoch));
        assert!(rt.crashed().is_none(), "recovery clears the sticky crash");
        // Every live occupied agent serves the fresh epoch; nobody serves
        // the abandoned one.
        for switch in plan.occupied_switches() {
            assert_eq!(rt.agent(switch).unwrap().active_epoch(), Some(report.epoch));
        }
        for agent in rt.agents() {
            assert_ne!(agent.active_epoch(), Some(1), "epoch 1 died with the controller");
        }
        // The runtime accepts work again.
        assert!(rt.rollout(&tdg, plan).is_committed());
    }

    #[test]
    fn crash_mid_prepare_rolls_back_to_nothing_on_first_deploy() {
        let (tdg, net, plan) = workload();
        let mut rt = runtime(net);
        // Boundary 2 is the first Prepared record; crash before it lands.
        rt.injector_mut().arm_controller_crash_at(2, CrashTiming::BeforeWrite);
        let outcome = rt.rollout(&tdg, plan.clone());
        match outcome {
            RolloutOutcome::ControllerCrashed { point, .. } => {
                assert_eq!(point, CrashPoint::Prepare);
            }
            other => panic!("expected a crash, got {other}"),
        }
        let report = rt.recover(&tdg).expect("recovery must succeed");
        assert_eq!(report.action, RecoveryAction::RollBackTxn);
        assert_eq!(rt.active_plan(), None, "no snapshot existed to restore");
        for agent in rt.agents() {
            assert_eq!(agent.active_epoch(), None);
            assert_eq!(agent.staged_epoch(), None, "staged state is wiped");
        }
        // The journal records a consistent cleared state.
        let intent = RecoveredIntent::from_replay(&rt.journal().replay().unwrap());
        assert_eq!(intent.planned_action(), RecoveryAction::Cleared);
    }

    #[test]
    fn crash_mid_second_rollout_restores_the_first_plan() {
        let (tdg, net, plan) = workload();
        let mut rt = runtime(net);
        assert!(rt.rollout(&tdg, plan.clone()).is_committed());
        // Crash the second rollout before its commit decision lands: the
        // first plan's snapshot must come back.
        let n = plan.occupied_switch_count() as u64;
        rt.injector_mut().arm_controller_crash_at(2 + n, CrashTiming::BeforeWrite);
        let outcome = rt.rollout(&tdg, plan.clone());
        assert!(matches!(outcome, RolloutOutcome::ControllerCrashed { .. }));

        let report = rt.recover(&tdg).expect("recovery must succeed");
        assert_eq!(report.action, RecoveryAction::RollBackTxn);
        assert_eq!(rt.active_plan(), Some(&plan));
        for switch in plan.occupied_switches() {
            assert_eq!(rt.agent(switch).unwrap().active_epoch(), Some(report.epoch));
        }
        for agent in rt.agents() {
            assert_ne!(agent.active_epoch(), Some(2), "the abandoned epoch is gone");
        }
    }

    #[test]
    fn recovery_refuses_a_foreign_workload() {
        let (tdg, net, plan) = workload();
        let mut rt = runtime(net);
        assert!(rt.rollout(&tdg, plan).is_committed());
        let programs = library::real_programs();
        let other = ProgramAnalyzer::new().analyze(&programs[..programs.len() - 1]);
        assert_ne!(
            hermes_core::tdg_fingerprint(&other),
            hermes_core::tdg_fingerprint(&tdg),
            "the truncated workload must fingerprint differently"
        );
        match rt.recover(&other) {
            Err(RecoveryError::TdgFingerprintMismatch { expected, found }) => {
                assert_eq!(expected, hermes_core::tdg_fingerprint(&other));
                assert_eq!(found, hermes_core::tdg_fingerprint(&tdg));
            }
            other => panic!("foreign workload must be refused, got {other:?}"),
        }
    }

    #[test]
    fn recovery_is_idempotent_and_journaled() {
        let (tdg, net, plan) = workload();
        let mut rt = runtime(net);
        assert!(rt.rollout(&tdg, plan.clone()).is_committed());
        let first = rt.recover(&tdg).expect("affirming recovery must succeed");
        assert_eq!(first.action, RecoveryAction::AffirmSnapshot);
        let second = rt.recover(&tdg).expect("recovery of a recovered state must succeed");
        assert_eq!(second.action, RecoveryAction::AffirmSnapshot);
        assert_eq!(rt.active_plan(), Some(&plan));
        // Epochs strictly increase across recoveries.
        assert!(second.epoch > first.epoch);
        let replay = rt.journal().replay().unwrap();
        assert!(replay
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::RecoveryCompleted { .. })));
    }

    #[test]
    fn recovery_with_a_down_switch_demotes_resume_to_rollback() {
        let (tdg, net, plan) = workload();
        let mut rt = runtime(net);
        let n = plan.occupied_switch_count() as u64;
        rt.injector_mut().arm_controller_crash_at(2 + n, CrashTiming::AfterWrite);
        assert!(matches!(rt.rollout(&tdg, plan.clone()), RolloutOutcome::ControllerCrashed { .. }));
        // A switch the target occupies dies while the controller is down:
        // the forward target no longer verifies, so recovery demotes.
        let victim = *plan.occupied_switches().iter().next().unwrap();
        rt.fail_switch(victim);
        let report = rt.recover(&tdg).expect("recovery must succeed");
        assert_eq!(report.action, RecoveryAction::RollBackTxn);
        assert_eq!(rt.active_plan(), None, "no snapshot existed to fall back to");
    }

    #[test]
    fn probabilistic_controller_crashes_recover_across_seeds() {
        let (tdg, net, plan) = workload();
        let profile = FaultProfile { controller_crash_prob: 0.2, ..FaultProfile::none() };
        let mut crashes = 0;
        for seed in 0..20u64 {
            let mut rt = DeploymentRuntime::new(
                net.clone(),
                Epsilon::loose(),
                FaultInjector::new(seed, profile),
                RetryPolicy::default(),
            );
            let outcome = rt.rollout(&tdg, plan.clone());
            if let RolloutOutcome::ControllerCrashed { .. } = outcome {
                crashes += 1;
                let report = rt.recover(&tdg).expect("recovery must succeed");
                // Exactly plan A (nothing, pre-first-commit) or exactly
                // plan B — never a mix.
                match rt.active_plan() {
                    Some(active) => {
                        assert_eq!(active, &plan);
                        for switch in plan.occupied_switches() {
                            if !rt.network().down_switches().contains(&switch) {
                                assert_eq!(
                                    rt.agent(switch).unwrap().active_epoch(),
                                    Some(report.epoch)
                                );
                            }
                        }
                    }
                    None => {
                        for agent in rt.agents() {
                            if !agent.is_crashed() {
                                assert_eq!(agent.active_epoch(), None);
                            }
                        }
                    }
                }
            }
        }
        assert!(crashes > 0, "p=0.2 over 20 seeds must crash at least once");
    }
}
