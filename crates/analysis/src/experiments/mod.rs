//! The experiment pipelines, one module per DESIGN.md entry.

use crate::registry::ExperimentError;

/// [`workloads::sample`] with a typed error instead of an `Option`.
///
/// Pipelines draw from machines they just enumerated out of the shared
/// cluster, so a miss means the context cannot support the pipeline —
/// a persistent, per-id-reportable failure rather than a panic
/// (DESIGN.md §8).
pub(crate) fn draw(
    cluster: &testbed::Cluster,
    machine: testbed::MachineId,
    bench: workloads::BenchmarkId,
    day: f64,
    nonce: u64,
) -> Result<f64, ExperimentError> {
    workloads::sample(cluster, machine, bench, day, nonce)
        .ok_or_else(|| ExperimentError::new(format!("machine {} is not in the cluster", machine.0)))
}

pub(crate) mod ablation;
pub(crate) mod allocation_bias;
pub(crate) mod confirm_stability;
pub mod confirm_study;
pub(crate) mod convergence;
pub mod cov;
pub(crate) mod dataset_overview;
pub(crate) mod hardware_tables;
pub(crate) mod inter_intra;
pub(crate) mod interference_study;
pub(crate) mod mean_median;
pub(crate) mod motivating;
pub mod normality;
pub(crate) mod parametric_vs_confirm;
pub(crate) mod qq_study;
pub(crate) mod scaling_law;
pub(crate) mod temporal;
pub(crate) mod variance_homogeneity;
