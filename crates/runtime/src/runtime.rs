//! The failure-aware deployment runtime.
//!
//! [`DeploymentRuntime`] installs a verified [`DeploymentPlan`] onto a
//! fleet of emulated [`SwitchAgent`]s as a two-phase transaction whose
//! every prepare/commit/abort/probe travels a lossy [`ControlChannel`]:
//!
//! 1. **Prepare** — each occupied switch stages its config through
//!    `(epoch, seq)`-stamped request/reply exchanges. Installs can fail
//!    through the seeded [`FaultInjector`], and the channel can drop,
//!    duplicate, reorder, or delay any message; transient failures are
//!    retried with exponential backoff plus deterministic jitter on a
//!    virtual clock, and agents deduplicate replays and answer
//!    idempotently.
//! 2. **Commit** — only when every switch staged, the plan still
//!    validates against the possibly-degraded network, and — for a
//!    same-program plan change — every mixed-epoch window of the commit
//!    order preserves per-packet consistency
//!    ([`hermes_backend::check_transition`]) does the runtime start
//!    committing switch by switch. Each acked commit starts a lease the
//!    runtime renews with probes; a switch that stops answering is waited
//!    out (its lease lapses, so an alive-but-unreachable agent has
//!    provably self-fenced) and declared `Down`, feeding the existing
//!    healing path. Before any commit is sent the transaction can still
//!    abort cleanly — the previous plan keeps serving, and epoch fencing
//!    guarantees an aborted epoch can never activate later, even on an
//!    agent that missed the abort.
//!
//! If a switch crashes *after* commit, the runtime marks it down in the
//! [`Network`], re-runs the incremental deployer with all surviving
//! placements pinned ([`RedeployOptions::excluding`]), revalidates the
//! healed plan (ε-verifier + packet-level equivalence), and transitions to
//! it — recording the recovery latency and `A_max` before/after in the
//! event log. Healing deliberately skips the mixed-epoch gate: a dead
//! switch already broke per-packet consistency, and repairing service
//! outranks preserving a guarantee the failure voided.

// The crate-level clippy.toml bans unwrap/expect so the recovery path
// (journal.rs, recovery.rs) can never panic; this pre-durability module
// keeps its intentional `expect`s on internal invariants.
#![allow(clippy::disallowed_methods)]

use crate::agent::{
    AgentError, HandleNote, Reply, ReplyEnvelope, Request, RequestEnvelope, SwitchAgent,
};
use crate::channel::{ChannelProfile, ControlChannel, Message, SendReceipt};
use crate::event::{Event, EventLog, MessageKind};
use crate::fault::{Fault, FaultInjector};
use crate::journal::{CrashPoint, CrashTiming, Journal, JournalRecord, TxnKind};
use hermes_backend::{check_transition, validate_plan, DeploymentArtifacts, EpochTransition};
use hermes_core::{verify, DeploymentPlan, Epsilon, IncrementalDeployer, RedeployOptions};
use hermes_net::{Network, SwitchId};
use hermes_tdg::Tdg;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Retry/backoff/lease policy for the transaction protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum attempts per request kind per switch (including the first).
    pub max_attempts: u32,
    /// Backoff before attempt `n + 1` starts at `base_delay_us << (n - 1)`.
    pub base_delay_us: u64,
    /// Backoff (before jitter) is capped here.
    pub max_delay_us: u64,
    /// An exchange whose reply has not arrived after this long counts as
    /// a timed-out attempt.
    pub timeout_us: u64,
    /// Virtual cost of one well-behaved round-trip to an agent (the
    /// channel's one-way latency is half of this).
    pub rpc_cost_us: u64,
    /// Commit-window lease duration: an agent whose lease is not renewed
    /// for this long self-fences, and the runtime waits this long before
    /// declaring an unresponsive switch down.
    pub lease_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_us: 100,
            max_delay_us: 2_000,
            timeout_us: 200,
            rpc_cost_us: 50,
            lease_us: 20_000,
        }
    }
}

impl RetryPolicy {
    /// The pre-jitter backoff before `next_attempt` (2-based; there is no
    /// delay before the first attempt).
    fn backoff_us(&self, next_attempt: u32) -> u64 {
        let shift = next_attempt.saturating_sub(2).min(63);
        self.base_delay_us.saturating_mul(1u64 << shift).min(self.max_delay_us)
    }
}

/// Terminal state of one [`DeploymentRuntime::rollout`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RolloutOutcome {
    /// The plan (or, after a post-commit failure, a healed variant of it)
    /// is active and validated.
    Committed {
        /// The epoch now serving.
        epoch: u64,
        /// `true` when a post-commit switch failure was healed around.
        healed: bool,
    },
    /// The transaction aborted; the previously active plan still serves.
    RolledBack {
        /// The abandoned epoch.
        epoch: u64,
        /// Why the transaction could not commit.
        reason: String,
    },
    /// The controller itself crashed mid-protocol, losing all in-memory
    /// state. Only the durable journal survives; the agents are on their
    /// own until [`DeploymentRuntime::recover`] runs.
    ControllerCrashed {
        /// The epoch in flight when the crash struck.
        epoch: u64,
        /// Which journal-write boundary the crash struck at.
        point: CrashPoint,
    },
}

impl RolloutOutcome {
    /// `true` for the committed case.
    pub fn is_committed(&self) -> bool {
        matches!(self, RolloutOutcome::Committed { .. })
    }
}

impl fmt::Display for RolloutOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RolloutOutcome::Committed { epoch, healed: false } => {
                write!(f, "epoch {epoch} committed")
            }
            RolloutOutcome::Committed { epoch, healed: true } => {
                write!(f, "epoch {epoch} committed after healing")
            }
            RolloutOutcome::RolledBack { epoch, reason } => {
                write!(f, "epoch {epoch} rolled back: {reason}")
            }
            RolloutOutcome::ControllerCrashed { epoch, point } => {
                write!(f, "controller crashed at epoch {epoch} ({point} boundary)")
            }
        }
    }
}

/// The controller crashed at a journal-write boundary. All in-memory
/// state (epoch counter, active deployment, in-flight transaction) is
/// gone; only [`DeploymentRuntime::journal`] survives. Returned through
/// every protocol entry point via `Result`, and sticky: a crashed
/// runtime refuses further protocol calls until
/// [`DeploymentRuntime::recover`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerCrash {
    /// The epoch in flight when the crash struck.
    pub epoch: u64,
    /// Which journal-write boundary the crash struck at.
    pub point: CrashPoint,
    /// Whether the record at that boundary landed before the crash.
    pub timing: CrashTiming,
}

impl fmt::Display for ControllerCrash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let timing = match self.timing {
            CrashTiming::BeforeWrite => "before",
            CrashTiming::AfterWrite => "after",
        };
        write!(
            f,
            "controller crashed at epoch {} ({} boundary, {timing} the journal write)",
            self.epoch, self.point
        )
    }
}

/// Why [`DeploymentRuntime::install_transaction`] did not commit: a clean
/// pre-commit abort (previous plan untouched) or a controller crash.
pub(crate) enum TxnFailure {
    /// The transaction aborted before any commit was sent.
    Aborted(String),
    /// The controller died mid-transaction.
    Crashed(ControllerCrash),
}

impl From<ControllerCrash> for TxnFailure {
    fn from(crash: ControllerCrash) -> Self {
        TxnFailure::Crashed(crash)
    }
}

/// The plan currently serving traffic, with everything needed to heal it.
///
/// The fingerprints are computed once, when the plan is accepted, and
/// travel with the deployment into every journal record that names it.
/// The TDG is shared: a heal or a migration keeps the TDG of the
/// deployment it replaces.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ActiveDeployment {
    pub(crate) epoch: u64,
    pub(crate) tdg: Arc<Tdg>,
    /// `tdg_fingerprint(&tdg)`.
    pub(crate) tdg_fp: u64,
    pub(crate) plan: DeploymentPlan,
    /// `plan.fingerprint()`.
    pub(crate) plan_fp: u64,
    pub(crate) artifacts: DeploymentArtifacts,
}

impl ActiveDeployment {
    /// A deployment of `plan` for `tdg` at `epoch`, fingerprinting `plan`.
    pub(crate) fn new(
        epoch: u64,
        tdg: Arc<Tdg>,
        tdg_fp: u64,
        plan: DeploymentPlan,
        artifacts: DeploymentArtifacts,
    ) -> Self {
        let plan_fp = plan.fingerprint();
        ActiveDeployment { epoch, tdg, tdg_fp, plan, plan_fp, artifacts }
    }

    /// The write-ahead record opening a transaction that installs this
    /// deployment.
    fn txn_begun(&self, kind: TxnKind) -> JournalRecord {
        JournalRecord::TxnBegun {
            epoch: self.epoch,
            kind,
            tdg_fp: self.tdg_fp,
            plan_fp: self.plan_fp,
            plan: self.plan.clone(),
            artifacts: self.artifacts.clone(),
        }
    }

    /// The activation snapshot of this deployment at `clock_us`.
    pub(crate) fn snapshot(&self, clock_us: u64) -> JournalRecord {
        JournalRecord::Snapshot {
            epoch: self.epoch,
            tdg_fp: self.tdg_fp,
            plan_fp: self.plan_fp,
            plan: self.plan.clone(),
            artifacts: self.artifacts.clone(),
            clock_us,
        }
    }
}

/// The transactional, failure-aware deployment runtime.
///
/// Fields are crate-visible: the staged-migration executor
/// ([`crate::migrate`]) drives the same agents, channel, clock, and log
/// through the same helpers.
#[derive(Debug, Clone)]
pub struct DeploymentRuntime {
    pub(crate) net: Network,
    pub(crate) agents: BTreeMap<SwitchId, SwitchAgent>,
    pub(crate) injector: FaultInjector,
    pub(crate) channel: ControlChannel,
    pub(crate) policy: RetryPolicy,
    pub(crate) eps: Epsilon,
    pub(crate) packet_seeds: Vec<u64>,
    pub(crate) clock_us: u64,
    pub(crate) epoch: u64,
    pub(crate) seq: u64,
    pub(crate) log: EventLog,
    pub(crate) active: Option<ActiveDeployment>,
    recovery_budget_ms: Option<u64>,
    pub(crate) journal: Journal,
    pub(crate) crashed: Option<ControllerCrash>,
}

impl DeploymentRuntime {
    /// A runtime fronting `net` with one agent per switch and a perfect
    /// control channel ([`ChannelProfile::none`]); use
    /// [`DeploymentRuntime::with_channel_profile`] to make it lossy.
    pub fn new(net: Network, eps: Epsilon, injector: FaultInjector, policy: RetryPolicy) -> Self {
        let agents = net.switch_ids().map(|s| (s, SwitchAgent::new(s))).collect();
        let channel = ControlChannel::new(
            injector.seed(),
            ChannelProfile::none(),
            (policy.rpc_cost_us / 2).max(1),
        );
        DeploymentRuntime {
            net,
            agents,
            injector,
            channel,
            policy,
            eps,
            packet_seeds: vec![0, 1, 2, 3],
            clock_us: 0,
            epoch: 0,
            seq: 0,
            log: EventLog::new(),
            active: None,
            recovery_budget_ms: None,
            journal: Journal::new(),
            crashed: None,
        }
    }

    /// Builder: when healing falls back to a full redeploy, race the
    /// greedy heuristic against the exact search under `budget` (the
    /// recovery deadline) instead of running the heuristic alone. Off by
    /// default — healing then uses the plain heuristic fallback.
    #[must_use]
    pub fn with_recovery_budget(mut self, budget: std::time::Duration) -> Self {
        self.recovery_budget_ms = Some(budget.as_millis().try_into().unwrap_or(u64::MAX));
        self
    }

    /// Builder-style variant of [`DeploymentRuntime::set_channel_profile`].
    #[must_use]
    pub fn with_channel_profile(mut self, profile: ChannelProfile) -> Self {
        self.set_channel_profile(profile);
        self
    }

    /// Replaces the control channel with one drawing from `profile`,
    /// seeded from the fault injector's seed (any in-flight messages are
    /// discarded — configure the channel before rolling out).
    pub fn set_channel_profile(&mut self, profile: ChannelProfile) {
        self.channel = ControlChannel::new(
            self.injector.seed(),
            profile,
            (self.policy.rpc_cost_us / 2).max(1),
        );
    }

    /// The control channel's misbehavior profile.
    pub fn channel_profile(&self) -> &ChannelProfile {
        self.channel.profile()
    }

    /// Total control-plane messages handed to the channel so far (both
    /// directions, before drop/duplicate decisions).
    pub fn messages_sent(&self) -> u64 {
        self.channel.messages_sent()
    }

    /// The substrate network, including any failure state accumulated so
    /// far.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The structured event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The durable write-ahead intent journal. `journal().bytes()` is
    /// what a resident controller would persist; the CLI's `--journal`
    /// flag writes exactly these bytes.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The pending controller crash, if an injected crash struck. While
    /// set, every protocol entry point short-circuits; only
    /// [`DeploymentRuntime::recover`] clears it.
    pub fn crashed(&self) -> Option<ControllerCrash> {
        self.crashed
    }

    /// Read access to the fault injector (soaks read
    /// [`FaultInjector::journal_writes`] after a crash-free dry run to
    /// learn how many crash boundaries a scenario has).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Mutable access to the fault injector, e.g. to arm a deterministic
    /// controller crash at an exact journal boundary
    /// ([`FaultInjector::arm_controller_crash_at`]).
    pub fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.clock_us
    }

    /// The plan currently serving, if any.
    pub fn active_plan(&self) -> Option<&DeploymentPlan> {
        self.active.as_ref().map(|a| &a.plan)
    }

    /// The epoch currently serving, if any.
    pub fn active_epoch(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.epoch)
    }

    /// The ε-bounds every activated plan is validated against.
    pub fn epsilon(&self) -> &Epsilon {
        &self.eps
    }

    /// The per-switch agents, in switch order (soak tests inspect their
    /// fencing/lease state to assert protocol invariants).
    pub fn agents(&self) -> impl Iterator<Item = &SwitchAgent> {
        self.agents.values()
    }

    /// One switch's agent, if the switch exists.
    pub fn agent(&self, switch: SwitchId) -> Option<&SwitchAgent> {
        self.agents.get(&switch)
    }

    /// Overrides the packet seeds used for pre-activation equivalence
    /// checks and mixed-epoch windows.
    pub fn set_packet_seeds(&mut self, seeds: Vec<u64>) {
        self.packet_seeds = seeds;
    }

    /// Replaces the fault injector, e.g. to run one clean rollout and then
    /// turn chaos on for the next epoch. The control channel is reseeded
    /// from the new injector's seed, keeping its current profile.
    pub fn set_injector(&mut self, injector: FaultInjector) {
        let profile = *self.channel.profile();
        self.injector = injector;
        self.set_channel_profile(profile);
    }

    /// Marks a switch as failed (operator- or injector-initiated) without
    /// healing. The agent is crashed and the network degraded.
    pub fn fail_switch(&mut self, switch: SwitchId) {
        self.net.fail_switch(switch);
        if let Some(agent) = self.agents.get_mut(&switch) {
            agent.crash();
        }
        self.log.push(Event::SwitchDown { switch, at_us: self.clock_us });
    }

    /// Appends one record to the intent journal, letting the fault
    /// injector strike the controller at the boundary. Write-ahead
    /// discipline: call this *before* applying the transition the record
    /// describes, so a `BeforeWrite` crash loses both the record and the
    /// transition together.
    pub(crate) fn journal_note(&mut self, record: JournalRecord) -> Result<(), ControllerCrash> {
        let timing = self.injector.on_journal_write();
        if !matches!(timing, Some(CrashTiming::BeforeWrite)) {
            self.journal.append(&record);
        }
        match timing {
            None => Ok(()),
            Some(timing) => {
                let crash =
                    ControllerCrash { epoch: record.epoch(), point: record.crash_point(), timing };
                self.crashed = Some(crash);
                Err(crash)
            }
        }
    }

    /// Advances the controller epoch, journaling the new value *before*
    /// the in-memory counter moves — so `max(journaled epochs) + 1` is
    /// always a safe fresh epoch for recovery, no matter where a crash
    /// strikes.
    pub(crate) fn advance_epoch(&mut self) -> Result<u64, ControllerCrash> {
        let next = self.epoch + 1;
        self.journal_note(JournalRecord::EpochAdvanced { epoch: next })?;
        self.epoch = next;
        Ok(next)
    }

    /// Maps a sticky crash (if any) to the terminal outcome every public
    /// entry point returns while the controller is down.
    fn crashed_outcome(crash: ControllerCrash) -> RolloutOutcome {
        RolloutOutcome::ControllerCrashed { epoch: crash.epoch, point: crash.point }
    }

    /// Installs `plan` for `tdg` as a two-phase transaction, healing
    /// post-commit switch failures if any occur. Exactly one of three
    /// terminal states results: a committed, validated plan is serving;
    /// the transaction rolled back and the previous plan is untouched; or
    /// the controller crashed (injected) and only the journal survives.
    pub fn rollout(&mut self, tdg: &Tdg, plan: DeploymentPlan) -> RolloutOutcome {
        if let Some(crash) = self.crashed {
            return Self::crashed_outcome(crash);
        }
        match self.try_rollout(tdg, plan) {
            Ok(outcome) => outcome,
            Err(crash) => Self::crashed_outcome(crash),
        }
    }

    fn try_rollout(
        &mut self,
        tdg: &Tdg,
        plan: DeploymentPlan,
    ) -> Result<RolloutOutcome, ControllerCrash> {
        let epoch = self.advance_epoch()?;
        let switches: Vec<SwitchId> = plan.occupied_switches().into_iter().collect();
        self.log.push(Event::RolloutStarted {
            epoch,
            switches: switches.clone(),
            at_us: self.clock_us,
        });

        // Pre-install validation: constraints + packet equivalence. A
        // refusal here touched no agent, so nothing beyond the epoch
        // advance needs journaling — recovery sees no in-flight intent.
        let (report, artifacts) =
            validate_plan(tdg, &self.net, &plan, &self.eps, &self.packet_seeds);
        if !report.is_ok() {
            self.log.push(Event::ValidationFailed {
                epoch,
                failures: report.failures.iter().map(ToString::to_string).collect(),
                at_us: self.clock_us,
            });
            return Ok(self.roll_back(epoch, "pre-install validation failed".to_string()));
        }

        let tdg_fp = hermes_core::tdg_fingerprint(tdg);
        let next = ActiveDeployment::new(epoch, Arc::new(tdg.clone()), tdg_fp, plan, artifacts);
        self.journal_note(next.txn_begun(TxnKind::Deploy))?;
        // The pre-rollout deployment that activation replaces is what a
        // failed heal rolls back to.
        let prior = match self.install_transaction(&next, true) {
            Err(TxnFailure::Crashed(crash)) => return Err(crash),
            Err(TxnFailure::Aborted(reason)) => return Ok(self.roll_back(epoch, reason)),
            Ok(dead) => {
                let prior = self.activate(next)?;
                if !dead.is_empty() {
                    // Some switches were lost during the commit window
                    // itself (unreachable or lease-lapsed): the committed
                    // deployment is already degraded.
                    return self.heal(prior);
                }
                prior
            }
        };

        // The committed deployment may immediately lose a switch.
        let occupied: Vec<SwitchId> = self
            .active
            .as_ref()
            .expect("just activated")
            .plan
            .occupied_switches()
            .into_iter()
            .collect();
        if let Some(dead) = self.injector.post_commit_crash(&occupied) {
            self.fail_switch(dead);
            return self.heal(prior);
        }
        Ok(RolloutOutcome::Committed { epoch, healed: false })
    }

    /// Re-homes the MATs lost to down switches and transitions to the
    /// healed plan, looping if the heal's own commit window loses more
    /// switches. On any failure the runtime rolls back to `previous` (the
    /// last-known-good deployment before the failing rollout).
    fn heal(
        &mut self,
        previous: Option<ActiveDeployment>,
    ) -> Result<RolloutOutcome, ControllerCrash> {
        let healing_started_us = self.clock_us;
        let a_max_before =
            self.active.as_ref().map_or(0, |a| a.plan.max_inter_switch_bytes(&a.tdg));
        loop {
            let Some((tdg, tdg_fp)) = self.active.as_ref().map(|a| (Arc::clone(&a.tdg), a.tdg_fp))
            else {
                return Ok(RolloutOutcome::RolledBack {
                    epoch: self.epoch,
                    reason: "nothing to heal".to_string(),
                });
            };
            let epoch = self.advance_epoch()?;
            let down = self.net.down_switches();
            self.log.push(Event::HealingStarted {
                epoch,
                down: down.clone(),
                at_us: self.clock_us,
            });

            let mut opts = RedeployOptions::excluding(down);
            opts.exact_budget_ms = self.recovery_budget_ms;
            let current = &self.active.as_ref().expect("checked above").plan;
            let outcome = match IncrementalDeployer::new()
                .redeploy_with(&tdg, current, &tdg, &self.net, &self.eps, &opts)
            {
                Ok(outcome) => outcome,
                Err(e) => {
                    self.log.push(Event::HealingFailed {
                        epoch,
                        reason: e.to_string(),
                        at_us: self.clock_us,
                    });
                    return self.roll_back_to(previous, epoch, format!("healing infeasible: {e}"));
                }
            };
            self.log.push(Event::HealingPlanned {
                epoch,
                reused: outcome.reused,
                placed: outcome.placed,
                full_redeploy: outcome.full_redeploy,
                at_us: self.clock_us,
            });

            // Revalidate on the degraded network before activating. The
            // mixed-epoch gate is skipped (see module docs): the dead
            // switch already broke consistency, healing repairs service.
            let (report, artifacts) =
                validate_plan(&tdg, &self.net, &outcome.plan, &self.eps, &self.packet_seeds);
            if !report.is_ok() {
                self.log.push(Event::HealingFailed {
                    epoch,
                    reason: report.to_string(),
                    at_us: self.clock_us,
                });
                return self.roll_back_to(
                    previous,
                    epoch,
                    "healed plan failed validation".to_string(),
                );
            }
            let next = ActiveDeployment::new(epoch, tdg, tdg_fp, outcome.plan, artifacts);
            self.journal_note(next.txn_begun(TxnKind::Heal))?;
            match self.install_transaction(&next, false) {
                Err(TxnFailure::Crashed(crash)) => return Err(crash),
                Err(TxnFailure::Aborted(reason)) => {
                    return self.roll_back_to(previous, epoch, reason)
                }
                Ok(dead) => {
                    let a_max_after = next.plan.max_inter_switch_bytes(&next.tdg);
                    self.activate(next)?;
                    if dead.is_empty() {
                        self.log.push(Event::RecoveryCompleted {
                            epoch,
                            recovery_us: self.clock_us - healing_started_us,
                            a_max_before,
                            a_max_after,
                            at_us: self.clock_us,
                        });
                        return Ok(RolloutOutcome::Committed { epoch, healed: true });
                    }
                    // The heal itself lost switches mid-commit: heal again
                    // (each pass kills at least one more switch, so this
                    // terminates — eventually redeploy becomes infeasible
                    // and the runtime rolls back).
                }
            }
        }
    }

    /// Phase 1 (prepare with retry) + mid-transaction revalidation + the
    /// mixed-epoch gate + phase 2 (commit with retry, leases, and
    /// unreachable detection).
    ///
    /// `Err(Aborted)` means the transaction aborted *before any commit
    /// was sent*: every staged agent received an abort (best-effort;
    /// fencing covers the lost ones) and nothing was activated.
    /// `Err(Crashed)` means the controller died at a journal boundary.
    /// `Ok(dead)` means the commit phase ran; `dead` lists switches
    /// declared down during it.
    fn install_transaction(
        &mut self,
        next: &ActiveDeployment,
        check_mixed: bool,
    ) -> Result<Vec<SwitchId>, TxnFailure> {
        let ActiveDeployment { epoch, tdg, plan, artifacts, .. } = next;
        let epoch = *epoch;
        let mut prepared: Vec<SwitchId> = Vec::new();
        for (&switch, config) in &artifacts.switches {
            match self.prepare_with_retry(switch, config, epoch) {
                Ok(()) => {
                    self.journal_note(JournalRecord::Prepared { epoch, switch })?;
                    prepared.push(switch);
                }
                Err(reason) => return Err(self.abort_txn(&prepared, epoch, reason)),
            }
        }
        // Faults during prepare (link down, crashed bystander) may have
        // degraded the network under the transaction's feet; the plan must
        // still hold on what is actually left before anything activates.
        let violations = verify(tdg, &self.net, plan, &self.eps);
        if !violations.is_empty() {
            let reason = format!("plan no longer valid at commit time: {}", violations[0]);
            return Err(self.abort_txn(&prepared, epoch, reason));
        }
        // Mixed-epoch gate: a same-program plan change is committed switch
        // by switch, so every prefix of the commit order must keep packets
        // on a single observable epoch. Checked BEFORE the first commit —
        // afterwards a clean abort is no longer possible.
        if check_mixed {
            if let Some(active) = &self.active {
                if active.tdg == *tdg && active.plan != *plan {
                    let transition = EpochTransition {
                        tdg,
                        old_plan: &active.plan,
                        old_artifacts: &active.artifacts,
                        new_plan: plan,
                        new_artifacts: artifacts,
                    };
                    match check_transition(&transition, &prepared, &self.packet_seeds) {
                        Ok(windows) => self.log.push(Event::MixedEpochChecked {
                            epoch,
                            windows,
                            packets: self.packet_seeds.len(),
                            at_us: self.clock_us,
                        }),
                        Err(v) => {
                            self.log.push(Event::MixedEpochViolated {
                                epoch,
                                detail: v.to_string(),
                                at_us: self.clock_us,
                            });
                            let reason = format!(
                                "mixed-epoch window would break per-packet consistency: {v}"
                            );
                            return Err(self.abort_txn(&prepared, epoch, reason));
                        }
                    }
                }
            }
        }

        // The point of no return: the decision to commit must be durable
        // *before* the first commit message, so a crashed controller that
        // already changed an agent's state can never be mistaken for one
        // that was still free to abort.
        self.journal_note(JournalRecord::CommitDecided { epoch, order: prepared.clone() })?;

        let mut committed: Vec<SwitchId> = Vec::new();
        let mut dead: Vec<SwitchId> = Vec::new();
        let mut lease_refreshed_us = self.clock_us;
        for &switch in &prepared {
            // Keep already-committed agents' leases alive through a long
            // commit window.
            if self.clock_us.saturating_sub(lease_refreshed_us) > self.policy.lease_us / 4 {
                self.renew_leases(&committed, epoch);
                lease_refreshed_us = self.clock_us;
            }
            if self.commit_with_retry(switch, epoch) {
                self.journal_note(JournalRecord::CommitAcked { epoch, switch })?;
                self.journal_note(JournalRecord::LeaseGranted {
                    epoch,
                    switch,
                    until_us: self.clock_us + self.policy.lease_us,
                })?;
                committed.push(switch);
            } else {
                self.declare_unreachable(switch, epoch, &committed);
                lease_refreshed_us = self.clock_us;
                dead.push(switch);
            }
        }
        // Commit-window supervision ends: any lease that lapsed without
        // renewal means that agent stopped serving — it is down, not
        // committed. Everyone else transitions to steady state.
        let now = self.clock_us;
        for &switch in &committed {
            let expired =
                self.agents.get_mut(&switch).expect("agents cover all switches").expire_lease(now);
            if let Some(lapsed) = expired {
                self.log.push(Event::LeaseExpired { switch, epoch: lapsed, at_us: now });
                self.fail_switch(switch);
                dead.push(switch);
            } else {
                self.agents.get_mut(&switch).expect("agents cover all switches").release_lease();
            }
        }
        dead.sort_unstable();
        self.journal_note(JournalRecord::TxnCommitted { epoch, dead: dead.clone() })?;
        self.log.push(Event::Committed { epoch, at_us: self.clock_us });
        Ok(dead)
    }

    /// Journals the abort decision (write-ahead), then best-effort aborts
    /// every prepared switch. Returns the `TxnFailure` the transaction
    /// terminates with — `Crashed` if the controller dies at the abort
    /// boundary itself, `Aborted(reason)` otherwise.
    fn abort_txn(&mut self, prepared: &[SwitchId], epoch: u64, reason: String) -> TxnFailure {
        if let Err(crash) =
            self.journal_note(JournalRecord::TxnAborted { epoch, reason: reason.clone() })
        {
            return TxnFailure::Crashed(crash);
        }
        self.abort_prepared(prepared, epoch);
        TxnFailure::Aborted(reason)
    }

    /// One switch's prepare with bounded retry and exponential backoff.
    pub(crate) fn prepare_with_retry(
        &mut self,
        switch: SwitchId,
        config: &hermes_backend::SwitchConfig,
        epoch: u64,
    ) -> Result<(), String> {
        for attempt in 1..=self.policy.max_attempts {
            self.log.push(Event::PrepareAttempt { epoch, switch, attempt, at_us: self.clock_us });
            match self.exchange(
                switch,
                epoch,
                Request::Prepare(Box::new(config.clone())),
                MessageKind::Prepare,
            ) {
                Some(Reply::Ack { .. }) => {
                    self.log.push(Event::Prepared { epoch, switch, at_us: self.clock_us });
                    return Ok(());
                }
                Some(Reply::Nack { error: AgentError::Crashed, .. }) => {
                    return Err(format!("switch {switch} is down"));
                }
                // Transient refusal (install fault) or timeout: retry.
                Some(Reply::Nack { .. }) | None => {}
            }
            if attempt == self.policy.max_attempts {
                return Err(format!(
                    "switch {switch} failed all {} prepare attempts",
                    self.policy.max_attempts
                ));
            }
            self.schedule_retry(switch, epoch, attempt);
        }
        unreachable!("loop returns on success or final attempt")
    }

    /// One switch's commit with bounded retry; unanswered commits are
    /// resolved by probing (the commit may have landed with its ack
    /// lost). Returns `true` iff the switch provably serves `epoch`.
    pub(crate) fn commit_with_retry(&mut self, switch: SwitchId, epoch: u64) -> bool {
        for attempt in 1..=self.policy.max_attempts {
            match self.exchange(switch, epoch, Request::Commit, MessageKind::Commit) {
                Some(Reply::Ack { .. }) => {
                    self.log.push(Event::CommitAcked { epoch, switch, at_us: self.clock_us });
                    return true;
                }
                // A commit nack (fenced, mismatch, crashed) is final: this
                // switch cannot serve the epoch.
                Some(Reply::Nack { .. }) => return false,
                None => {}
            }
            if attempt < self.policy.max_attempts {
                self.schedule_retry(switch, epoch, attempt);
            }
        }
        for _ in 1..=self.policy.max_attempts {
            match self.exchange(switch, epoch, Request::Probe, MessageKind::Probe) {
                Some(Reply::Ack { .. }) => {
                    self.log.push(Event::ProbeAcked { switch, epoch, at_us: self.clock_us });
                    self.log.push(Event::CommitAcked { epoch, switch, at_us: self.clock_us });
                    return true;
                }
                Some(Reply::Nack { .. }) => return false,
                None => {}
            }
        }
        false
    }

    /// Burns backoff time (with deterministic jitter) before retrying.
    fn schedule_retry(&mut self, switch: SwitchId, epoch: u64, failed_attempt: u32) {
        let delay_us = self.policy.backoff_us(failed_attempt + 1)
            + self.injector.jitter_us(self.policy.base_delay_us);
        self.clock_us += delay_us;
        self.log.push(Event::RetryScheduled {
            epoch,
            switch,
            next_attempt: failed_attempt + 1,
            delay_us,
            at_us: self.clock_us,
        });
    }

    /// Single-attempt lease-renewal probes to every committed switch. A
    /// lost probe is tolerated — the final lease sweep catches agents
    /// whose leases genuinely lapsed.
    pub(crate) fn renew_leases(&mut self, committed: &[SwitchId], epoch: u64) {
        for &switch in committed {
            if self.agents[&switch].is_crashed() {
                continue;
            }
            if let Some(Reply::Ack { .. }) =
                self.exchange(switch, epoch, Request::Probe, MessageKind::Probe)
            {
                self.log.push(Event::ProbeAcked { switch, epoch, at_us: self.clock_us });
            }
        }
    }

    /// A switch answered neither commits nor probes. Wait out its lease —
    /// after `lease_us` of silence an alive-but-unreachable agent has
    /// provably self-fenced, so declaring it down cannot leave a zombie
    /// serving the epoch — then mark it down. Committed neighbors are
    /// probed immediately before and after the wait so *their* leases
    /// survive it.
    pub(crate) fn declare_unreachable(
        &mut self,
        switch: SwitchId,
        epoch: u64,
        committed: &[SwitchId],
    ) {
        self.renew_leases(committed, epoch);
        self.clock_us += self.policy.lease_us;
        let expired = self
            .agents
            .get_mut(&switch)
            .expect("agents cover all switches")
            .expire_lease(self.clock_us);
        if let Some(lapsed) = expired {
            self.log.push(Event::LeaseExpired { switch, epoch: lapsed, at_us: self.clock_us });
        }
        self.log.push(Event::SwitchUnreachable { switch, epoch, at_us: self.clock_us });
        if !self.agents[&switch].is_crashed() {
            self.fail_switch(switch);
        }
        self.renew_leases(committed, epoch);
    }

    /// Sends one request and runs the virtual-clock message pump until its
    /// reply arrives or the exchange times out. In-flight messages for
    /// other exchanges (duplicates, delayed stragglers) are delivered
    /// along the way; stale replies are discarded.
    pub(crate) fn exchange(
        &mut self,
        switch: SwitchId,
        epoch: u64,
        body: Request,
        kind: MessageKind,
    ) -> Option<Reply> {
        self.seq += 1;
        let seq = self.seq;
        let req = RequestEnvelope { epoch, seq, switch, body };
        let receipt = self.channel.send(self.clock_us, Message::Request(req));
        self.log_receipt(&receipt, kind, epoch, seq, switch);
        let deadline = self.clock_us + self.policy.timeout_us;
        while let Some((at, msg)) = self.channel.pop_due(deadline) {
            self.clock_us = self.clock_us.max(at);
            match msg {
                Message::Request(delivered) => self.deliver_request(delivered),
                Message::Reply(rep) => {
                    if rep.seq == seq && rep.epoch == epoch && rep.switch == switch {
                        return Some(rep.body);
                    }
                    self.log.push(Event::StaleReplyIgnored {
                        epoch: rep.epoch,
                        seq: rep.seq,
                        switch: rep.switch,
                        at_us: self.clock_us,
                    });
                }
            }
        }
        self.clock_us = deadline;
        None
    }

    /// Delivers one request to its agent: decides the install fate (fault
    /// injection happens at delivery, once per fresh attempt — replays and
    /// crashed agents never draw), runs the agent state machine, and sends
    /// the reply back through the channel.
    fn deliver_request(&mut self, req: RequestEnvelope) {
        let now = self.clock_us;
        let lease_us = self.policy.lease_us;
        let (crashed, seen) = {
            let agent = &self.agents[&req.switch];
            (agent.is_crashed(), agent.has_seen(req.epoch, req.seq))
        };
        let mut extra_delay_us = 0u64;
        let mut install_failure: Option<AgentError> = None;
        if !crashed && !seen {
            if let Request::Prepare(config) = &req.body {
                if let Some(fault) =
                    self.injector.on_prepare(&self.net, config.stages.len(), self.policy.timeout_us)
                {
                    self.log.push(Event::FaultInjected {
                        epoch: req.epoch,
                        switch: req.switch,
                        fault: fault.clone(),
                        at_us: now,
                    });
                    match fault {
                        Fault::SwitchCrash => self.fail_switch(req.switch),
                        Fault::LinkDown { a, b } => {
                            // The install attempt is lost with the link;
                            // the degradation is caught by the commit-time
                            // revalidation.
                            self.net.fail_link(a, b);
                            install_failure = Some(AgentError::InstallRejected);
                        }
                        Fault::SlowResponse { delay_us } => extra_delay_us = delay_us,
                        Fault::RejectInstall | Fault::PartialInstall { .. } => {
                            // Nothing (or only garbage, wiped on the spot)
                            // was staged; the attempt failed transiently.
                            install_failure = Some(AgentError::InstallRejected);
                        }
                    }
                }
            }
        }
        let reply = if let Some(error) = install_failure {
            // The install machinery failed before the agent's state
            // machine ran: nothing staged, nothing cached — a duplicate
            // delivery is a fresh install attempt.
            let active_epoch = self.agents[&req.switch].active_epoch();
            ReplyEnvelope {
                epoch: req.epoch,
                seq: req.seq,
                switch: req.switch,
                body: Reply::Nack { error, active_epoch },
            }
        } else {
            let (reply, notes) = self
                .agents
                .get_mut(&req.switch)
                .expect("agents cover all switches")
                .handle(&req, now, lease_us);
            let fenced = self.agents[&req.switch].fenced_epoch();
            for note in notes {
                match note {
                    HandleNote::Replayed => self.log.push(Event::ReplayAnswered {
                        epoch: req.epoch,
                        seq: req.seq,
                        switch: req.switch,
                        at_us: now,
                    }),
                    HandleNote::FencedStale { stale_epoch } => self.log.push(Event::EpochFenced {
                        switch: req.switch,
                        stale_epoch,
                        fenced,
                        at_us: now,
                    }),
                    HandleNote::LeaseExpired { epoch } => {
                        self.log.push(Event::LeaseExpired { switch: req.switch, epoch, at_us: now })
                    }
                    // The runtime-side CommitAcked / ProbeAcked events
                    // (emitted when the ack arrives back) cover these.
                    HandleNote::Activated | HandleNote::LeaseRenewed => {}
                }
            }
            reply
        };
        let receipt = self.channel.send(now + extra_delay_us, Message::Reply(reply));
        self.log_receipt(&receipt, MessageKind::Reply, req.epoch, req.seq, req.switch);
    }

    /// Logs the channel's misbehavior (if any) for one send.
    fn log_receipt(
        &mut self,
        receipt: &SendReceipt,
        kind: MessageKind,
        epoch: u64,
        seq: u64,
        switch: SwitchId,
    ) {
        let at_us = self.clock_us;
        if receipt.dropped {
            self.log.push(Event::MessageDropped { kind, epoch, seq, switch, at_us });
            return;
        }
        if receipt.duplicated {
            self.log.push(Event::MessageDuplicated { kind, epoch, seq, switch, at_us });
        }
        if receipt.delayed {
            let deliver_at_us = receipt.deliveries.iter().copied().max().unwrap_or(at_us);
            self.log.push(Event::MessageDelayed { kind, epoch, seq, switch, deliver_at_us, at_us });
        }
    }

    /// Best-effort aborts to every prepared switch, fencing the epoch.
    /// Lost aborts are safe: aborts only happen before the first commit
    /// is sent, so the epoch can never activate anywhere — and any agent
    /// that hears a later epoch fences this one on its own.
    pub(crate) fn abort_prepared(&mut self, prepared: &[SwitchId], epoch: u64) {
        for &switch in prepared {
            let _ = self.exchange(switch, epoch, Request::Abort, MessageKind::Abort);
        }
    }

    /// Journals `next`'s activation snapshot and makes it the active
    /// deployment. Returns the deployment it replaced.
    pub(crate) fn activate(
        &mut self,
        next: ActiveDeployment,
    ) -> Result<Option<ActiveDeployment>, ControllerCrash> {
        // Activation snapshots are the journal's compaction points: a
        // self-contained restart state that makes everything before them
        // replay-irrelevant.
        self.journal_note(next.snapshot(self.clock_us))?;
        self.log.push(Event::Activated {
            epoch: next.epoch,
            a_max_bytes: next.plan.max_inter_switch_bytes(&next.tdg),
            latency_us: next.plan.end_to_end_latency_us(),
            occupied: next.plan.occupied_switch_count(),
            at_us: self.clock_us,
        });
        Ok(self.active.replace(next))
    }

    /// Aborts epoch `epoch`, leaving the current active deployment as-is.
    fn roll_back(&mut self, epoch: u64, reason: String) -> RolloutOutcome {
        self.log.push(Event::RolledBack { epoch, reason: reason.clone(), at_us: self.clock_us });
        RolloutOutcome::RolledBack { epoch, reason }
    }

    /// Aborts epoch `epoch` and restores `previous` as the active
    /// deployment, force-reactivating its configs on every surviving
    /// agent out of band (the last-known-good rollback after a failed
    /// heal). In-flight messages are discarded — the epochs they belong
    /// to are dead, and agents fence them anyway.
    fn roll_back_to(
        &mut self,
        previous: Option<ActiveDeployment>,
        epoch: u64,
        reason: String,
    ) -> Result<RolloutOutcome, ControllerCrash> {
        self.force_restore(previous)?;
        Ok(self.roll_back(epoch, reason))
    }

    /// The out-of-band full restore behind [`DeploymentRuntime::roll_back_to`]:
    /// clears the channel and force-activates `previous`'s configs on
    /// every surviving agent, bypassing staging, fencing, and leases. The
    /// restored state is journaled (write-ahead) as a fresh snapshot — or
    /// a `Cleared` marker when there is nothing to restore.
    pub(crate) fn force_restore(
        &mut self,
        previous: Option<ActiveDeployment>,
    ) -> Result<(), ControllerCrash> {
        match &previous {
            Some(p) => self.journal_note(p.snapshot(self.clock_us))?,
            None => self.journal_note(JournalRecord::Cleared { epoch: self.epoch })?,
        }
        self.channel.clear();
        for (&switch, agent) in &mut self.agents {
            let config = previous.as_ref().and_then(|p| p.artifacts.switches.get(&switch)).cloned();
            let prev_epoch = previous.as_ref().map_or(0, |p| p.epoch);
            agent.force_activate(prev_epoch, config);
        }
        self.active = previous;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultProfile;
    use hermes_core::{GreedyHeuristic, ProgramAnalyzer, Solver};
    use hermes_dataplane::library;
    use hermes_net::topology;

    fn workload() -> (Tdg, Network, DeploymentPlan) {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(4, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        (tdg, net, plan)
    }

    #[test]
    fn fault_free_rollout_commits() {
        let (tdg, net, plan) = workload();
        let mut rt = DeploymentRuntime::new(
            net,
            Epsilon::loose(),
            FaultInjector::disabled(),
            RetryPolicy::default(),
        );
        let outcome = rt.rollout(&tdg, plan.clone());
        assert_eq!(outcome, RolloutOutcome::Committed { epoch: 1, healed: false });
        assert_eq!(rt.active_plan(), Some(&plan));
        assert_eq!(rt.active_epoch(), Some(1));
        assert_eq!(rt.log().count(|e| matches!(e, Event::Committed { .. })), 1);
        // One attempt per occupied switch, no retries, a perfect channel.
        assert_eq!(
            rt.log().count(|e| matches!(e, Event::PrepareAttempt { .. })),
            plan.occupied_switch_count()
        );
        assert_eq!(rt.log().count(|e| matches!(e, Event::RetryScheduled { .. })), 0);
        assert_eq!(rt.log().count(|e| matches!(e, Event::MessageDropped { .. })), 0);
        // Every occupied switch's agent serves epoch 1 with its lease
        // released (steady state).
        for switch in plan.occupied_switches() {
            let agent = rt.agent(switch).unwrap();
            assert_eq!(agent.active_epoch(), Some(1));
            assert_eq!(agent.lease_until(), None);
        }
    }

    #[test]
    fn transient_rejects_are_retried_to_success() {
        let (tdg, net, plan) = workload();
        // Reject with p=0.5: with 4 attempts per switch a handful of seeds
        // still commit; pick one deterministically by scanning.
        let profile = FaultProfile { reject_prob: 0.5, ..FaultProfile::none() };
        let committed = (0..50u64).find(|&seed| {
            let mut rt = DeploymentRuntime::new(
                net.clone(),
                Epsilon::loose(),
                FaultInjector::new(seed, profile),
                RetryPolicy::default(),
            );
            let outcome = rt.rollout(&tdg, plan.clone());
            if outcome.is_committed() {
                assert!(
                    rt.log().count(|e| matches!(e, Event::RetryScheduled { .. })) > 0,
                    "seed {seed} committed without ever retrying — not the case we want"
                );
                true
            } else {
                assert_eq!(rt.active_plan(), None, "rollback must leave nothing active");
                false
            }
        });
        assert!(committed.is_some(), "no seed in 0..50 committed under 50% rejects");
    }

    #[test]
    fn rollback_keeps_previous_plan_serving() {
        let (tdg, net, plan) = workload();
        // First install cleanly, then roll out again under guaranteed
        // rejection: the second transaction must abort and epoch 1 serve.
        let mut rt = DeploymentRuntime::new(
            net,
            Epsilon::loose(),
            FaultInjector::disabled(),
            RetryPolicy::default(),
        );
        assert!(rt.rollout(&tdg, plan.clone()).is_committed());
        rt.set_injector(FaultInjector::new(
            1,
            FaultProfile { reject_prob: 1.0, ..FaultProfile::none() },
        ));
        let outcome = rt.rollout(&tdg, plan.clone());
        assert!(!outcome.is_committed());
        assert_eq!(rt.active_epoch(), Some(1), "previous epoch keeps serving");
        assert_eq!(rt.active_plan(), Some(&plan));
        // And no agent was left serving (or able to activate) epoch 2.
        for agent in rt.agents() {
            assert_ne!(agent.active_epoch(), Some(2));
        }
    }

    #[test]
    fn post_commit_crash_heals_and_validates() {
        let (tdg, net, plan) = workload();
        let profile = FaultProfile { post_commit_crash_prob: 1.0, ..FaultProfile::none() };
        let mut healed_seen = false;
        for seed in 0..20u64 {
            let mut rt = DeploymentRuntime::new(
                net.clone(),
                Epsilon::loose(),
                FaultInjector::new(seed, profile),
                RetryPolicy::default(),
            );
            let outcome = rt.rollout(&tdg, plan.clone());
            match outcome {
                RolloutOutcome::Committed { healed, .. } => {
                    assert!(healed, "a post-commit crash was guaranteed");
                    healed_seen = true;
                    let active = rt.active_plan().unwrap();
                    // The healed plan avoids every down switch and still
                    // validates end to end.
                    for down in rt.network().down_switches() {
                        assert!(!active.occupied_switches().contains(&down));
                    }
                    assert!(verify(&tdg, rt.network(), active, &Epsilon::loose()).is_empty());
                    assert_eq!(rt.log().count(|e| matches!(e, Event::RecoveryCompleted { .. })), 1);
                }
                RolloutOutcome::RolledBack { .. } => {
                    assert_eq!(rt.active_plan(), None, "failed heal must roll back cleanly");
                }
                RolloutOutcome::ControllerCrashed { .. } => {
                    unreachable!("no controller crash was injected")
                }
            }
        }
        assert!(healed_seen, "no seed in 0..20 healed successfully");
    }

    #[test]
    fn recovery_budget_heals_with_the_portfolio_fallback() {
        // Same crash scenario as above, with healing allowed to race the
        // exact search under a recovery deadline. Every heal must still
        // produce a verified plan avoiding the dead switches.
        let (tdg, net, plan) = workload();
        let profile = FaultProfile { post_commit_crash_prob: 1.0, ..FaultProfile::none() };
        let mut healed_seen = false;
        for seed in 0..10u64 {
            let mut rt = DeploymentRuntime::new(
                net.clone(),
                Epsilon::loose(),
                FaultInjector::new(seed, profile),
                RetryPolicy::default(),
            )
            .with_recovery_budget(std::time::Duration::from_secs(2));
            if let RolloutOutcome::Committed { healed, .. } = rt.rollout(&tdg, plan.clone()) {
                assert!(healed);
                healed_seen = true;
                let active = rt.active_plan().unwrap();
                for down in rt.network().down_switches() {
                    assert!(!active.occupied_switches().contains(&down));
                }
                assert!(verify(&tdg, rt.network(), active, &Epsilon::loose()).is_empty());
            }
        }
        assert!(healed_seen, "no seed in 0..10 healed successfully");
    }

    #[test]
    fn event_log_is_reproducible_byte_for_byte() {
        let (tdg, net, plan) = workload();
        let run = |seed: u64| {
            let mut rt = DeploymentRuntime::new(
                net.clone(),
                Epsilon::loose(),
                FaultInjector::new(seed, FaultProfile::chaos()),
                RetryPolicy::default(),
            );
            rt.rollout(&tdg, plan.clone());
            rt.log().to_json()
        };
        for seed in [0u64, 7, 13] {
            assert_eq!(run(seed), run(seed), "seed {seed} diverged");
        }
    }

    #[test]
    fn lossy_channel_rollout_is_bimodal_and_reproducible() {
        let (tdg, net, plan) = workload();
        let run = |seed: u64| {
            let mut rt = DeploymentRuntime::new(
                net.clone(),
                Epsilon::loose(),
                FaultInjector::new(seed, FaultProfile::none()),
                RetryPolicy::default(),
            )
            .with_channel_profile(ChannelProfile::lossy());
            let outcome = rt.rollout(&tdg, plan.clone());
            (outcome, rt)
        };
        let mut committed = 0;
        for seed in 0..20u64 {
            let (outcome, rt) = run(seed);
            match outcome {
                RolloutOutcome::Committed { epoch, .. } => {
                    committed += 1;
                    for switch in rt.active_plan().unwrap().occupied_switches() {
                        if !rt.network().down_switches().contains(&switch) {
                            assert_eq!(rt.agent(switch).unwrap().active_epoch(), Some(epoch));
                        }
                    }
                }
                RolloutOutcome::RolledBack { epoch, .. } => {
                    for agent in rt.agents() {
                        assert_ne!(
                            agent.active_epoch(),
                            Some(epoch),
                            "no agent may serve a rolled-back epoch"
                        );
                    }
                }
                RolloutOutcome::ControllerCrashed { .. } => {
                    unreachable!("no controller crash was injected")
                }
            }
            let (_, rt2) = run(seed);
            assert_eq!(rt.log().to_json(), rt2.log().to_json(), "seed {seed} not reproducible");
        }
        assert!(committed > 0, "retries should beat the lossy channel for some seed");
    }

    #[test]
    fn mixed_epoch_gate_rolls_back_moved_mats() {
        let (tdg, net, plan) = workload();
        let mut rt = DeploymentRuntime::new(
            net.clone(),
            Epsilon::loose(),
            FaultInjector::disabled(),
            RetryPolicy::default(),
        );
        assert!(rt.rollout(&tdg, plan.clone()).is_committed());
        // A same-program plan that re-homes the MATs of one occupied
        // switch: committing it gradually would double- or skip-execute
        // the moved MATs mid-window.
        let exclude = *plan.occupied_switches().iter().next().unwrap();
        let moved = IncrementalDeployer::new()
            .redeploy_with(
                &tdg,
                &plan,
                &tdg,
                &net,
                &Epsilon::loose(),
                &RedeployOptions::excluding([exclude]),
            )
            .expect("residual capacity fits the moved MATs")
            .plan;
        assert_ne!(moved, plan, "the transition must actually move something");
        match rt.rollout(&tdg, moved) {
            RolloutOutcome::RolledBack { reason, .. } => {
                assert!(reason.contains("per-packet consistency"), "{reason}");
            }
            other => panic!("moved MATs must be refused, got: {other}"),
        }
        assert_eq!(rt.log().count(|e| matches!(e, Event::MixedEpochViolated { .. })), 1);
        assert_eq!(rt.active_epoch(), Some(1), "the old epoch keeps serving");
        // The abandoned epoch is fenced on every agent that staged it.
        for agent in rt.agents() {
            assert_ne!(agent.active_epoch(), Some(2));
            assert_ne!(agent.staged_epoch(), Some(2));
        }
    }

    #[test]
    fn fault_free_rollout_journals_a_replayable_clean_history() {
        use crate::journal::JournalRecord;
        let (tdg, net, plan) = workload();
        let mut rt = DeploymentRuntime::new(
            net,
            Epsilon::loose(),
            FaultInjector::disabled(),
            RetryPolicy::default(),
        );
        assert!(rt.rollout(&tdg, plan.clone()).is_committed());
        let replay = rt.journal().replay().expect("clean journal must replay");
        assert_eq!(replay.discarded_tail_bytes, 0);
        // Write-ahead order: epoch advance, txn begin, one Prepared +
        // CommitAcked + LeaseGranted per switch, commit decision before
        // any ack, then TxnCommitted and the activation snapshot.
        let kinds: Vec<CrashPoint> =
            replay.records.iter().map(JournalRecord::crash_point).collect();
        assert_eq!(kinds[0], CrashPoint::EpochAdvance);
        assert_eq!(kinds[1], CrashPoint::TxnBegin);
        let pos = |p: CrashPoint| kinds.iter().position(|&k| k == p).unwrap();
        assert!(pos(CrashPoint::CommitDecision) < pos(CrashPoint::CommitAck));
        assert!(pos(CrashPoint::TxnCommit) < pos(CrashPoint::Snapshot));
        let n = plan.occupied_switch_count();
        assert_eq!(kinds.iter().filter(|&&k| k == CrashPoint::Prepare).count(), n);
        assert_eq!(kinds.iter().filter(|&&k| k == CrashPoint::CommitAck).count(), n);
        assert_eq!(kinds.iter().filter(|&&k| k == CrashPoint::LeaseGrant).count(), n);
    }

    #[test]
    fn armed_controller_crash_is_terminal_and_sticky() {
        let (tdg, net, plan) = workload();
        // Dry run to count the scenario's journal boundaries.
        let boundaries = {
            let mut rt = DeploymentRuntime::new(
                net.clone(),
                Epsilon::loose(),
                FaultInjector::disabled(),
                RetryPolicy::default(),
            );
            assert!(rt.rollout(&tdg, plan.clone()).is_committed());
            rt.injector().journal_writes()
        };
        assert!(boundaries > 4, "a committing rollout must cross several boundaries");
        // Crash at the commit-decision boundary and check stickiness.
        let mut rt = DeploymentRuntime::new(
            net,
            Epsilon::loose(),
            FaultInjector::disabled(),
            RetryPolicy::default(),
        );
        let n = plan.occupied_switch_count() as u64;
        // Boundary layout for a clean deploy: 0 = epoch advance, 1 = txn
        // begin, 2..2+n = prepares, then the commit decision.
        rt.injector_mut().arm_controller_crash_at(2 + n, CrashTiming::AfterWrite);
        let outcome = rt.rollout(&tdg, plan.clone());
        match outcome {
            RolloutOutcome::ControllerCrashed { epoch, point } => {
                assert_eq!(epoch, 1);
                assert_eq!(point, CrashPoint::CommitDecision);
            }
            other => panic!("expected a controller crash, got {other}"),
        }
        assert!(rt.crashed().is_some());
        assert_eq!(rt.active_plan(), None, "the crash lost all in-memory state");
        // Sticky: further protocol calls refuse without touching agents.
        let again = rt.rollout(&tdg, plan);
        assert!(matches!(again, RolloutOutcome::ControllerCrashed { .. }));
        // The journal survived and replays cleanly up to the crash.
        let replay = rt.journal().replay().expect("journal must replay");
        assert!(matches!(
            replay.records.last(),
            Some(crate::journal::JournalRecord::CommitDecided { epoch: 1, .. })
        ));
    }

    #[test]
    fn identical_plan_rerollout_skips_the_gate_and_commits() {
        let (tdg, net, plan) = workload();
        let mut rt = DeploymentRuntime::new(
            net,
            Epsilon::loose(),
            FaultInjector::disabled(),
            RetryPolicy::default(),
        );
        assert!(rt.rollout(&tdg, plan.clone()).is_committed());
        assert!(rt.rollout(&tdg, plan).is_committed());
        assert_eq!(rt.log().count(|e| matches!(e, Event::MixedEpochChecked { .. })), 0);
        assert_eq!(rt.active_epoch(), Some(2));
    }
}
