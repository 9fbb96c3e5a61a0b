//! Deployment backend: from decision variables to running pipelines.
//!
//! The paper's implementation section describes a backend that takes the
//! optimizer's decision variables, determines which MATs and dependencies
//! each switch realizes, compiles per-switch configurations, and has the
//! controller steer traffic through the coordinated switch sequence. This
//! crate reproduces that layer in two parts:
//!
//! - [`config`] — [`config::generate`] turns a verified
//!   [`DeploymentPlan`](hermes_core::DeploymentPlan) into per-switch
//!   configurations (stage layouts, parse/append piggyback contracts) and
//!   a controller route table, all serializable.
//! - [`emulator`] — a functional pipeline emulator that pushes packets
//!   through the distributed deployment, stripping non-piggybacked
//!   metadata at every egress. [`emulator::equivalent`]
//!   checks that the distributed execution matches a single logical
//!   switch — Goal #2 of the paper, *observed* instead of assumed — and
//!   [`Trace::wire_bytes`](emulator::Trace) reports the true per-hop
//!   metadata load including pass-through carriage.
//! - [`mixed`] — Reitblatt-style per-packet consistency across the
//!   mixed-epoch window a staggered commit opens:
//!   [`mixed::check_transition`] replays packet seeds against every
//!   prefix of a commit order (old route, per-switch epoch mix) so the
//!   runtime can refuse transitions that cannot be committed gradually.
//!
//! # Example
//!
//! ```
//! use hermes_backend::{config::generate, emulator};
//! use hermes_core::{Epsilon, GreedyHeuristic, ProgramAnalyzer, Solver};
//! use hermes_dataplane::library;
//! use hermes_net::topology;
//!
//! let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
//! let net = topology::linear(3, 10.0);
//! let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose())?;
//! let artifacts = generate(&tdg, &net, &plan);
//! assert!(emulator::equivalent(&tdg, &plan, &artifacts, emulator::test_packet(0)));
//! # Ok::<(), hermes_core::DeployError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod emulator;
pub mod mixed;
pub mod simulate;
pub mod validate;

pub use config::{generate, DeploymentArtifacts, RouteEntry, StageEntry, SwitchConfig};
pub use emulator::{
    equivalent, pairwise_field_bytes, run_distributed, run_reference, test_packet, Packet,
    Registers, Trace,
};
pub use mixed::{check_transition, check_window, EpochTransition, MixedEpochViolation};
pub use simulate::{simulate_plan, PlanFlowConfig, PlanSimResult};
pub use validate::{validate_plan, ValidationFailure, ValidationReport};
