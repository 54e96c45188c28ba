//! Individual machines and the hardware lottery.

use varstats::rng::Rng;

use crate::hardware::{MachineType, Subsystem};
use crate::variation::default_variation;

/// Opaque machine identifier, unique within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u32);

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{:04}", self.0)
    }
}

/// One provisioned machine: a machine type plus its per-unit lottery
/// factors, drawn once at provisioning time.
///
/// Two machines of the same type therefore have *persistently* different
/// performance — the inter-machine variability the paper quantifies at up
/// to ~10%.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Unique id.
    pub id: MachineId,
    /// Name of the machine's type (index into the catalog).
    pub type_name: String,
    /// Per-subsystem multiplicative lottery factors (indexed by
    /// [`Subsystem::index`]).
    unit_factors: [f64; 6],
}

impl Machine {
    /// Provisions a machine of `mtype`, drawing its lottery factors from
    /// a deterministic RNG derived from `cluster_seed` and `id`.
    pub fn provision(mtype: &MachineType, id: MachineId, cluster_seed: u64) -> Self {
        // Mix the cluster seed with the machine id (splitmix-style) so
        // every machine gets an independent, reproducible stream.
        let seed = cluster_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.0 as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let mut rng = Rng::seed_from_u64(seed);
        let mut unit_factors = [1.0; 6];
        for s in Subsystem::ALL {
            let v = default_variation(s, mtype.disk);
            unit_factors[s.index()] = v.unit_lottery.sample(&mut rng).max(1e-6);
        }
        Self {
            id,
            type_name: mtype.name.clone(),
            unit_factors,
        }
    }

    /// The machine's lottery factor for one subsystem.
    pub(crate) fn unit_factor(&self, subsystem: Subsystem) -> f64 {
        self.unit_factors[subsystem.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::catalog;

    #[test]
    fn provisioning_is_deterministic() {
        let cat = catalog();
        let a = Machine::provision(&cat[0], MachineId(7), 42);
        let b = Machine::provision(&cat[0], MachineId(7), 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_ids_draw_different_lotteries() {
        let cat = catalog();
        let a = Machine::provision(&cat[0], MachineId(1), 42);
        let b = Machine::provision(&cat[0], MachineId(2), 42);
        assert_ne!(
            a.unit_factor(Subsystem::MemoryBandwidth),
            b.unit_factor(Subsystem::MemoryBandwidth)
        );
    }

    #[test]
    fn different_seeds_draw_different_lotteries() {
        let cat = catalog();
        let a = Machine::provision(&cat[0], MachineId(1), 42);
        let b = Machine::provision(&cat[0], MachineId(1), 43);
        assert_ne!(
            a.unit_factor(Subsystem::DiskSequential),
            b.unit_factor(Subsystem::DiskSequential)
        );
    }

    #[test]
    fn lottery_factors_are_near_one() {
        let cat = catalog();
        for i in 0..200u32 {
            let m = Machine::provision(&cat[3], MachineId(i), 7);
            for s in Subsystem::ALL {
                let f = m.unit_factor(s);
                assert!((0.7..1.3).contains(&f), "{s:?} factor {f}");
            }
        }
    }

    #[test]
    fn same_type_machines_spread_up_to_ten_percent() {
        // The paper attributes up to ~10% to hardware differences among
        // same-type machines; the memory lottery's worst cluster sits
        // about 8% below nominal.
        let cat = catalog();
        let factors: Vec<f64> = (0..500u32)
            .map(|i| {
                Machine::provision(&cat[5], MachineId(i), 11)
                    .unit_factor(Subsystem::MemoryBandwidth)
            })
            .collect();
        let min = factors.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = factors.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let spread = (max - min) / max;
        assert!((0.04..0.15).contains(&spread), "spread {spread}");
    }

    #[test]
    fn display_format() {
        assert_eq!(MachineId(3).to_string(), "node-0003");
    }
}
