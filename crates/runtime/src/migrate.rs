//! Staged execution of A→B migration schedules with checkpoints and
//! rollback.
//!
//! [`DeploymentRuntime::migrate`] takes the scheduler's output
//! ([`MigrationSchedule`], planned in `hermes-core`) and executes it over
//! the same lossy channel, fault injector, and epoch-fenced agents the
//! all-at-once rollout uses — but switch by switch:
//!
//! 1. **Plan** — a [`MigrationScheduler`] orders the per-switch commits
//!    to minimize the peak transient `A_max`, proving every intermediate
//!    state stage-feasible and acyclic.
//! 2. **Gate** — before the first commit, every prefix of the chosen
//!    order is replayed through the mixed-epoch per-packet-consistency
//!    check ([`hermes_backend::check_transition`]). A violating window
//!    aborts the migration with plan A untouched.
//! 3. **Execute** — each step prepares and commits one switch with the
//!    runtime's bounded retry/backoff. A committed step is a
//!    **checkpoint**: the mixed state it reaches was verified safe, so
//!    the migration can hold there through arbitrarily many retries of
//!    the next step.
//! 4. **Roll back** — when a step fails for good (its switch crashed, or
//!    the retry budget drained), committed steps are undone in reverse
//!    order by re-installing their plan-A configs under a fresh epoch.
//!    If the undo itself fails, or total failures cross the abort
//!    threshold, the runtime falls back to the out-of-band full restore
//!    (clear the channel, force-activate plan A everywhere). Either way
//!    the terminal state is exactly plan B installed or exactly plan A
//!    serving — never a mix.
//!
//! Unlike [`DeploymentRuntime::rollout`], migration never heals: healing
//! changes the target mid-flight, and the contract here is bimodal (B or
//! A). A post-migration switch failure is the next rollout's problem.

// The crate-level clippy.toml bans unwrap/expect so the recovery path
// (journal.rs, recovery.rs) can never panic; this pre-durability module
// keeps its intentional `expect`s on internal invariants.
#![allow(clippy::disallowed_methods)]

use crate::event::Event;
use crate::journal::{CrashPoint, JournalRecord};
use crate::runtime::{ActiveDeployment, ControllerCrash, DeploymentRuntime};
use hermes_backend::{check_transition, validate_plan, EpochTransition};
use hermes_core::{
    verify, DeploymentPlan, MigrationOrder, MigrationProblem, MigrationSchedule,
    MigrationScheduler, SearchContext,
};
use hermes_net::SwitchId;
use hermes_tdg::Tdg;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for one migration run.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationConfig {
    /// Budget for the schedule search, milliseconds.
    pub plan_budget_ms: u64,
    /// Extra whole-step attempts after a failed prepare (each attempt
    /// already retries per-message with backoff). A failed *commit* is
    /// never re-attempted: the switch may have silently committed, so it
    /// is waited out and declared down instead.
    pub step_retries: u32,
    /// Once this many step/rollback failures accumulate, surgical
    /// recovery is abandoned for the out-of-band full restore of plan A.
    pub abort_threshold: u32,
    /// How the commit order is chosen (see [`MigrationOrder`]).
    pub order: MigrationOrder,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            plan_budget_ms: 2_000,
            step_retries: 1,
            abort_threshold: 3,
            order: MigrationOrder::Auto,
        }
    }
}

/// Terminal state of one [`DeploymentRuntime::migrate`].
#[derive(Debug, Clone, PartialEq)]
pub enum MigrationOutcome {
    /// Every step committed; plan B is active and validated.
    Migrated {
        /// The epoch now serving.
        epoch: u64,
        /// Steps executed (0 for a no-op migration to the same plan).
        steps: usize,
        /// Virtual time from schedule start to activation.
        reconfig_us: u64,
        /// Control-plane messages the migration sent.
        messages: u64,
    },
    /// Refused before any commit — scheduling, validation, or the
    /// mixed-epoch gate said no. Plan A was never disturbed.
    Aborted {
        /// The refused epoch.
        epoch: u64,
        /// Why.
        reason: String,
    },
    /// A mid-migration failure: every committed step was rolled back and
    /// plan A serves again.
    RolledBack {
        /// The abandoned epoch.
        epoch: u64,
        /// Why.
        reason: String,
        /// `true` when the out-of-band full restore ran instead of
        /// reverse-order stepwise undo.
        forced: bool,
    },
    /// The controller itself crashed mid-migration; only the journal
    /// survives, and [`DeploymentRuntime::recover`] must run before the
    /// runtime accepts further work.
    ControllerCrashed {
        /// The epoch in flight when the crash struck.
        epoch: u64,
        /// Which journal-write boundary the crash struck at.
        point: CrashPoint,
    },
}

impl MigrationOutcome {
    /// `true` iff plan B ended up installed.
    pub fn is_migrated(&self) -> bool {
        matches!(self, MigrationOutcome::Migrated { .. })
    }
}

impl fmt::Display for MigrationOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationOutcome::Migrated { epoch, steps, reconfig_us, messages } => write!(
                f,
                "epoch {epoch} migrated in {steps} steps ({reconfig_us} us, {messages} messages)"
            ),
            MigrationOutcome::Aborted { epoch, reason } => {
                write!(f, "migration to epoch {epoch} aborted: {reason}")
            }
            MigrationOutcome::RolledBack { epoch, reason, forced: false } => {
                write!(f, "epoch {epoch} rolled back step by step: {reason}")
            }
            MigrationOutcome::RolledBack { epoch, reason, forced: true } => {
                write!(f, "epoch {epoch} rolled back by full restore: {reason}")
            }
            MigrationOutcome::ControllerCrashed { epoch, point } => {
                write!(f, "controller crashed at epoch {epoch} ({point} boundary)")
            }
        }
    }
}

impl DeploymentRuntime {
    /// Plans and executes a staged migration from the active plan to
    /// `target`. See the module docs for the full protocol; the terminal
    /// state is exactly one of: `target` active and validated, the
    /// migration refused with plan A untouched, or plan A restored.
    pub fn migrate(
        &mut self,
        tdg: &Tdg,
        target: DeploymentPlan,
        cfg: &MigrationConfig,
    ) -> MigrationOutcome {
        if let Some(crash) = self.crashed() {
            return MigrationOutcome::ControllerCrashed { epoch: crash.epoch, point: crash.point };
        }
        match self.try_migrate(tdg, target, cfg) {
            Ok(outcome) => outcome,
            Err(crash) => {
                MigrationOutcome::ControllerCrashed { epoch: crash.epoch, point: crash.point }
            }
        }
    }

    fn try_migrate(
        &mut self,
        tdg: &Tdg,
        target: DeploymentPlan,
        cfg: &MigrationConfig,
    ) -> Result<MigrationOutcome, ControllerCrash> {
        if let Some(outcome) = self.check_preconditions(tdg, &target)? {
            return Ok(outcome);
        }
        let schedule = {
            let active = self.active.as_ref().expect("preconditions checked");
            let problem = MigrationProblem { tdg, net: &self.net, from: &active.plan, to: &target };
            let ctx = SearchContext::with_time_limit(Duration::from_millis(cfg.plan_budget_ms));
            MigrationScheduler::with_order(cfg.order.clone()).plan(&problem, &ctx)
        };
        match schedule {
            Ok(schedule) => self.execute_schedule(tdg, target, &schedule, cfg),
            Err(e) => {
                let epoch = self.advance_epoch()?;
                Ok(self.migration_abort(epoch, format!("no safe schedule: {e}")))
            }
        }
    }

    /// Executes a precomputed schedule (e.g. one the operator reviewed or
    /// an explicit `--order`). The schedule must cover exactly the
    /// switches `target` occupies; every prefix of its commit order is
    /// re-verified through the mixed-epoch gate before the first commit.
    pub fn migrate_with_schedule(
        &mut self,
        tdg: &Tdg,
        target: DeploymentPlan,
        schedule: &MigrationSchedule,
        cfg: &MigrationConfig,
    ) -> MigrationOutcome {
        if let Some(crash) = self.crashed() {
            return MigrationOutcome::ControllerCrashed { epoch: crash.epoch, point: crash.point };
        }
        match self.try_migrate_with_schedule(tdg, target, schedule, cfg) {
            Ok(outcome) => outcome,
            Err(crash) => {
                MigrationOutcome::ControllerCrashed { epoch: crash.epoch, point: crash.point }
            }
        }
    }

    fn try_migrate_with_schedule(
        &mut self,
        tdg: &Tdg,
        target: DeploymentPlan,
        schedule: &MigrationSchedule,
        cfg: &MigrationConfig,
    ) -> Result<MigrationOutcome, ControllerCrash> {
        if let Some(outcome) = self.check_preconditions(tdg, &target)? {
            return Ok(outcome);
        }
        self.execute_schedule(tdg, target, schedule, cfg)
    }

    /// Validates, gates, journals and executes `schedule` once the
    /// preconditions hold. Plan A is read from `self.active`, which does
    /// not change until the final activation.
    fn execute_schedule(
        &mut self,
        tdg: &Tdg,
        target: DeploymentPlan,
        schedule: &MigrationSchedule,
        cfg: &MigrationConfig,
    ) -> Result<MigrationOutcome, ControllerCrash> {
        let epoch = self.advance_epoch()?;
        let start_us = self.clock_us;
        let messages_before = self.channel.messages_sent();
        self.log.push(Event::MigrationStarted {
            epoch,
            steps: schedule.steps.len(),
            peak_transient_amax: schedule.peak_transient_amax,
            at_us: self.clock_us,
        });

        // Pre-flight validation: ε-constraints + packet equivalence on
        // the network as it is now.
        let (report, artifacts) =
            validate_plan(tdg, &self.net, &target, &self.eps, &self.packet_seeds);
        if !report.is_ok() {
            self.log.push(Event::ValidationFailed {
                epoch,
                failures: report.failures.iter().map(ToString::to_string).collect(),
                at_us: self.clock_us,
            });
            return Ok(self.migration_abort(epoch, "target plan failed validation".to_string()));
        }
        let order = schedule.commit_order();
        let covered: BTreeSet<SwitchId> = order.iter().copied().collect();
        let occupied: BTreeSet<SwitchId> = artifacts.switches.keys().copied().collect();
        if covered != occupied || order.len() != covered.len() {
            return Ok(self.migration_abort(
                epoch,
                "schedule does not cover the target plan's switches exactly once".to_string(),
            ));
        }

        // Prefix gate: every window of the chosen commit order must keep
        // each packet on a single observable epoch end to end.
        let prior = self.active.as_ref().expect("preconditions checked");
        let transition = EpochTransition {
            tdg,
            old_plan: &prior.plan,
            old_artifacts: &prior.artifacts,
            new_plan: &target,
            new_artifacts: &artifacts,
        };
        match check_transition(&transition, &order, &self.packet_seeds) {
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
                return Ok(self.migration_abort(
                    epoch,
                    format!("mixed-epoch window would break per-packet consistency: {v}"),
                ));
            }
        }

        // The preconditions proved `tdg` equal to plan A's TDG, so plan
        // B shares it and its fingerprint.
        let prior = self.active.as_ref().expect("preconditions checked");
        let next =
            ActiveDeployment::new(epoch, Arc::clone(&prior.tdg), prior.tdg_fp, target, artifacts);
        // The migration's intent becomes durable before the first step
        // touches an agent: a restarted controller can tell exactly which
        // prefix of `order` had committed from the step checkpoints that
        // follow this record.
        self.journal_note(JournalRecord::MigrationBegun {
            epoch,
            tdg_fp: next.tdg_fp,
            plan_fp: next.plan_fp,
            plan: next.plan.clone(),
            artifacts: next.artifacts.clone(),
            order: order.clone(),
        })?;

        // Execute the schedule step by step; each committed step is a
        // checkpoint (its mixed state was verified safe above).
        let mut committed: Vec<SwitchId> = Vec::new();
        let mut failures = 0u32;
        let mut lease_refreshed_us = self.clock_us;
        for (idx, step) in schedule.steps.iter().enumerate() {
            let switch = step.switch;
            let config = next.artifacts.switches[&switch].clone();
            // Keep earlier checkpoints' leases alive through a long
            // migration window.
            if self.clock_us.saturating_sub(lease_refreshed_us) > self.policy.lease_us / 4 {
                let keep = committed.clone();
                self.renew_leases(&keep, epoch);
                lease_refreshed_us = self.clock_us;
            }
            let mut step_ok = false;
            let mut last_reason = String::new();
            'attempts: for _ in 0..=cfg.step_retries {
                match self.prepare_with_retry(switch, &config, epoch) {
                    Ok(()) => {
                        if self.commit_with_retry(switch, epoch) {
                            step_ok = true;
                        } else {
                            failures += 1;
                            last_reason = format!("switch {switch} did not acknowledge the commit");
                            self.log.push(Event::MigrationStepFailed {
                                epoch,
                                step: idx,
                                switch,
                                reason: last_reason.clone(),
                                at_us: self.clock_us,
                            });
                            // The commit may have landed with its ack
                            // lost. Wait out the lease so an alive-but-
                            // unreachable agent provably self-fences
                            // before anything rolls back.
                            let keep = committed.clone();
                            self.declare_unreachable(switch, epoch, &keep);
                            lease_refreshed_us = self.clock_us;
                        }
                        // Commit outcomes are final for the step either way.
                        break 'attempts;
                    }
                    Err(reason) => {
                        failures += 1;
                        last_reason.clone_from(&reason);
                        self.log.push(Event::MigrationStepFailed {
                            epoch,
                            step: idx,
                            switch,
                            reason,
                            at_us: self.clock_us,
                        });
                        if self.agents[&switch].is_crashed() || failures > cfg.abort_threshold {
                            break 'attempts;
                        }
                    }
                }
            }
            if step_ok {
                self.journal_note(JournalRecord::MigrationStepCommitted {
                    epoch,
                    step: idx,
                    switch,
                })?;
                self.journal_note(JournalRecord::LeaseGranted {
                    epoch,
                    switch,
                    until_us: self.clock_us + self.policy.lease_us,
                })?;
                committed.push(switch);
                self.log.push(Event::MigrationStepCommitted {
                    epoch,
                    step: idx,
                    switch,
                    transient_amax: step.transient_amax,
                    at_us: self.clock_us,
                });
            } else {
                // Best-effort un-stage of a prepared-but-uncommitted
                // config; fencing covers a lost abort.
                self.abort_prepared(&[switch], epoch);
                return self.migration_roll_back(
                    epoch,
                    format!("step {idx} (switch {switch}) failed: {last_reason}"),
                    &committed,
                    failures,
                    cfg,
                );
            }
        }

        // Commit-window supervision ends: a lease that lapsed without
        // renewal means that agent stopped serving mid-migration.
        let now = self.clock_us;
        let mut lapsed: Option<SwitchId> = None;
        for &switch in &committed {
            let expired =
                self.agents.get_mut(&switch).expect("agents cover all switches").expire_lease(now);
            if let Some(e) = expired {
                self.log.push(Event::LeaseExpired { switch, epoch: e, at_us: now });
                self.fail_switch(switch);
                if lapsed.is_none() {
                    lapsed = Some(switch);
                }
            } else {
                self.agents.get_mut(&switch).expect("agents cover all switches").release_lease();
            }
        }
        if let Some(switch) = lapsed {
            failures += 1;
            return self.migration_roll_back(
                epoch,
                format!("switch {switch}'s lease lapsed during the migration window"),
                &committed,
                failures,
                cfg,
            );
        }
        // Faults during the steps (lost links, crashed bystanders) may
        // have degraded the network; the target must still hold on what
        // is actually left before it becomes the active deployment.
        let violations = verify(tdg, &self.net, &next.plan, &self.eps);
        if let Some(first) = violations.first() {
            failures += 1;
            return self.migration_roll_back(
                epoch,
                format!("target plan no longer valid after migration: {first}"),
                &committed,
                failures,
                cfg,
            );
        }

        let steps = schedule.steps.len();
        self.journal_note(JournalRecord::MigrationCompleted { epoch, steps })?;
        self.activate(next)?;
        let reconfig_us = self.clock_us - start_us;
        let messages = self.channel.messages_sent() - messages_before;
        self.log.push(Event::MigrationCompleted {
            epoch,
            steps,
            reconfig_us,
            messages,
            at_us: self.clock_us,
        });
        Ok(MigrationOutcome::Migrated { epoch, steps, reconfig_us, messages })
    }

    /// Checks the migration preconditions: an active deployment of the
    /// same TDG, on which plan A stays until the final activation.
    /// `Ok(None)` means go; `Ok(Some(outcome))` is the outcome to return
    /// instead (a no-op when the target already serves, else a refusal).
    fn check_preconditions(
        &mut self,
        tdg: &Tdg,
        target: &DeploymentPlan,
    ) -> Result<Option<MigrationOutcome>, ControllerCrash> {
        let reason = match &self.active {
            Some(active) if *active.tdg == *tdg => {
                if active.plan == *target {
                    // Same plan: nothing to do, nothing to disturb.
                    return Ok(Some(MigrationOutcome::Migrated {
                        epoch: active.epoch,
                        steps: 0,
                        reconfig_us: 0,
                        messages: 0,
                    }));
                }
                return Ok(None);
            }
            Some(_) => "the active deployment runs a different program set; use rollout",
            None => "no active deployment to migrate from; use rollout",
        };
        let epoch = self.advance_epoch()?;
        Ok(Some(self.migration_abort(epoch, reason.to_string())))
    }

    /// Logs and returns a pre-commit refusal (plan A untouched).
    fn migration_abort(&mut self, epoch: u64, reason: String) -> MigrationOutcome {
        self.log.push(Event::MigrationAborted {
            epoch,
            reason: reason.clone(),
            at_us: self.clock_us,
        });
        MigrationOutcome::Aborted { epoch, reason }
    }

    /// Rolls the committed prefix back to plan A: reverse-order stepwise
    /// re-install of plan-A configs under a fresh epoch, escalating to
    /// the out-of-band full restore when the undo itself fails or the
    /// abort threshold is crossed.
    fn migration_roll_back(
        &mut self,
        epoch: u64,
        reason: String,
        committed: &[SwitchId],
        mut failures: u32,
        cfg: &MigrationConfig,
    ) -> Result<MigrationOutcome, ControllerCrash> {
        let undone = committed.len();
        // The abandonment decision is durable before any undo touches an
        // agent: a controller that crashes mid-undo is known (on replay)
        // to have been rolling back, not still migrating forward.
        self.journal_note(JournalRecord::MigrationRolledBack {
            epoch,
            forced: failures > cfg.abort_threshold,
        })?;
        if failures > cfg.abort_threshold {
            return self.forced_restore(epoch, reason, undone);
        }
        // Undo checkpoints newest-first under a fresh epoch — the
        // abandoned migration epoch is fenced wherever the undo lands, so
        // a straggling migration commit can never re-activate it.
        let undo_epoch = self.advance_epoch()?;
        let mut restored: Vec<SwitchId> = Vec::new();
        let prior_epoch = self.active_epoch().expect("plan A stays active while migrating");
        for &switch in committed.iter().rev() {
            let prior_config = self.active.as_ref().and_then(|a| a.artifacts.switches.get(&switch));
            let ok = match prior_config.cloned() {
                Some(config) => match self.prepare_with_retry(switch, &config, undo_epoch) {
                    Ok(()) => self.commit_with_retry(switch, undo_epoch),
                    Err(_) => false,
                },
                None => {
                    // The switch exists only in plan B; nothing in plan A
                    // routes through it, so decommission it out of band.
                    self.agents
                        .get_mut(&switch)
                        .expect("agents cover all switches")
                        .force_activate(prior_epoch, None);
                    true
                }
            };
            if !ok {
                failures += 1;
                let _ = failures;
                return self.forced_restore(epoch, reason, undone);
            }
            self.log.push(Event::MigrationStepRolledBack {
                epoch: undo_epoch,
                switch,
                at_us: self.clock_us,
            });
            restored.push(switch);
        }
        // The undo transaction is over; release its commit leases. A
        // lease that lapsed mid-undo means that agent stopped serving —
        // surgical undo failed, restore everything.
        for &switch in &restored {
            let expired = self
                .agents
                .get_mut(&switch)
                .expect("agents cover all switches")
                .expire_lease(self.clock_us);
            if expired.is_some() {
                return self.forced_restore(epoch, reason, undone);
            }
            self.agents.get_mut(&switch).expect("agents cover all switches").release_lease();
        }
        self.log.push(Event::MigrationRolledBack {
            epoch,
            reason: reason.clone(),
            forced: false,
            undone,
            at_us: self.clock_us,
        });
        Ok(MigrationOutcome::RolledBack { epoch, reason, forced: false })
    }

    /// The escalation path: out-of-band full restore of plan A.
    fn forced_restore(
        &mut self,
        epoch: u64,
        reason: String,
        undone: usize,
    ) -> Result<MigrationOutcome, ControllerCrash> {
        // Plan A is still the active deployment; restoring it re-journals
        // its snapshot, fingerprints included.
        let plan_a = self.active.clone();
        self.force_restore(plan_a)?;
        self.log.push(Event::MigrationRolledBack {
            epoch,
            reason: reason.clone(),
            forced: true,
            undone,
            at_us: self.clock_us,
        });
        Ok(MigrationOutcome::RolledBack { epoch, reason, forced: true })
    }
}
