//! # Hermes — low-overhead inter-switch coordination for network-wide
//! data plane program deployment
//!
//! A full reproduction of *"Toward Low-Overhead Inter-Switch Coordination
//! in Network-Wide Data Plane Program Deployment"* (ICDCS 2022) as a Rust
//! workspace. This facade crate re-exports every subsystem:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`dataplane`] | `hermes-dataplane` | programs, MATs, fields, workload generators |
//! | [`tdg`] | `hermes-tdg` | table dependency graphs, merging, metadata analysis |
//! | [`net`] | `hermes-net` | substrate network, paths, topologies |
//! | [`milp`] | `hermes-milp` | simplex + branch-and-bound MILP solver |
//! | [`core`] | `hermes-core` | the Hermes analyzer, P#1, heuristic, Optimal, verifier |
//! | [`baselines`] | `hermes-baselines` | MS, Sonata, SPEED, MTP, FP, P4All, FFL, FFLS |
//! | [`sim`] | `hermes-sim` | packet-level simulator for FCT/goodput |
//! | [`backend`] | `hermes-backend` | switch configs + pipeline emulator |
//! | [`runtime`] | `hermes-runtime` | fault injection, transactional rollout, healing |
//!
//! # End-to-end example
//!
//! ```
//! use hermes::core::{Epsilon, GreedyHeuristic, ProgramAnalyzer, Solver};
//! use hermes::dataplane::library;
//! use hermes::net::topology;
//!
//! // Ten concurrent data plane programs, a three-switch testbed.
//! let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
//! let net = topology::linear(3, 10.0);
//! let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose())?;
//!
//! // The plan satisfies every constraint of the paper's formulation…
//! assert!(hermes::core::verify(&tdg, &net, &plan, &Epsilon::loose()).is_empty());
//! // …and its per-packet byte overhead is the objective Hermes minimizes.
//! println!("A_max = {} bytes", plan.max_inter_switch_bytes(&tdg));
//! # Ok::<(), hermes::core::DeployError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use hermes_analysis as analysis;
pub use hermes_backend as backend;
pub use hermes_baselines as baselines;
pub use hermes_core as core;
pub use hermes_dataplane as dataplane;
pub use hermes_milp as milp;
pub use hermes_net as net;
pub use hermes_runtime as runtime;
pub use hermes_sim as sim;
pub use hermes_tdg as tdg;
