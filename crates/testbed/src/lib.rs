//! # testbed — a simulated multi-machine measurement testbed
//!
//! The *Taming Performance Variability* campaign ran on ~900 physical
//! CloudLab servers for ten months. This crate is the substitute substrate
//! (documented in DESIGN.md §3): a deterministic simulator whose fleet,
//! per-unit hardware lottery, per-subsystem noise models, and maintenance
//! timeline reproduce the statistical structure the paper reports —
//! skewed/lognormal disk behaviour, multimodal memory lotteries,
//! heavy-tailed network latency, near-constant network throughput, and
//! level shifts at environment upgrades.
//!
//! Everything is seeded: the same seed reproduces the same fleet and the
//! same measurement for any `(machine, subsystem, day, run)` tuple,
//! independent of evaluation order.
//!
//! ```
//! use testbed::{catalog, Cluster, Subsystem, Timeline};
//!
//! let cluster = Cluster::provision(catalog(), 0.05, Timeline::cloudlab_default(), 7);
//! let node = cluster.machines()[0].id;
//! let runs: Vec<f64> = (0..30)
//!     .map(|nonce| cluster.measure(node, Subsystem::DiskSequential, 12.0, nonce).unwrap())
//!     .collect();
//! assert!(runs.iter().all(|&x| x > 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocation;
mod cluster;
mod derive;
mod distributions;
mod faults;
mod hardware;
mod interference;
mod machine;
mod temporal;
mod variation;

pub use allocation::{allocate, AllocationPolicy};
pub use cluster::{Cluster, Probe};
pub use faults::{FaultPlan, FaultPolicy, FaultTally, MAX_FAULTS_PER_SITE};
pub use hardware::{catalog, DiskKind, MachineType, Subsystem};
pub use interference::InterferenceModel;
pub use machine::{Machine, MachineId};
pub use temporal::{MaintenanceEvent, Timeline};
