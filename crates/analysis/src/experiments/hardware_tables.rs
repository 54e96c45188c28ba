//! T1 (hardware catalog) and T2 (benchmark suite) tables.

use workloads::BenchmarkId;

use crate::artifact::{Artifact, Table};
use crate::context::Context;
use crate::registry::ExperimentError;

/// T1: the machine-type catalog with provisioned counts.
pub(crate) fn t1_hardware(ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    let mut t = Table::new(
        "T1",
        "Hardware catalog (fleet types and provisioned counts)",
        &[
            "type",
            "site",
            "cpu",
            "cores",
            "GHz",
            "RAM GiB",
            "disk",
            "NIC Gb/s",
            "fleet",
            "provisioned",
        ],
    );
    for mt in ctx.cluster.types() {
        let provisioned = ctx.cluster.machines_of_type(&mt.name).len();
        t.push_row(vec![
            mt.name.clone(),
            mt.site.clone(),
            mt.cpu.clone(),
            mt.cores.to_string(),
            format!("{:.1}", mt.base_ghz),
            mt.ram_gb.to_string(),
            mt.disk.label().to_string(),
            mt.nic_gbps.to_string(),
            mt.count.to_string(),
            provisioned.to_string(),
        ]);
    }
    Ok(vec![Artifact::Table(t)])
}

/// T2: the benchmark suite with families, units, and parameters.
pub(crate) fn t2_benchmarks(_ctx: &Context) -> Result<Vec<Artifact>, ExperimentError> {
    let mut t = Table::new(
        "T2",
        "Benchmark suite (family, unit, parameters)",
        &["benchmark", "subsystem", "unit", "direction", "parameters"],
    );
    for b in BenchmarkId::ALL {
        t.push_row(vec![
            b.label().to_string(),
            b.subsystem().label().to_string(),
            b.unit().label().to_string(),
            if b.higher_is_better() {
                "higher".to_string()
            } else {
                "lower".to_string()
            },
            b.params().to_string(),
        ]);
    }
    Ok(vec![Artifact::Table(t)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn t1_lists_every_type() {
        let ctx = Context::new(Scale::Quick, 1);
        let artifacts = t1_hardware(&ctx).unwrap();
        assert_eq!(artifacts.len(), 1);
        match &artifacts[0] {
            Artifact::Table(t) => {
                assert_eq!(t.rows.len(), ctx.cluster.types().len());
                assert!(t.render().contains("c220g1"));
            }
            _ => panic!("expected table"),
        }
    }

    #[test]
    fn t2_lists_every_benchmark() {
        let ctx = Context::new(Scale::Quick, 1);
        let artifacts = t2_benchmarks(&ctx).unwrap();
        match &artifacts[0] {
            Artifact::Table(t) => {
                assert_eq!(t.rows.len(), BenchmarkId::ALL.len());
                assert!(t.render().contains("disk-rand-read"));
                assert!(t.render().contains("us"));
            }
            _ => panic!("expected table"),
        }
    }
}
