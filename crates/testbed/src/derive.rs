//! Deterministic RNG stream derivation.
//!
//! Every random draw in the testbed comes from a stream seed derived by
//! folding identifying components (machine id, subsystem, day, run nonce)
//! into the master seed with [`stream_seed`]. The fold is sequential, so
//! derivation is *hierarchical*: deriving a machine's stream first
//! ([`machine_stream`]) and then folding the remaining components into it
//! yields exactly the same seed as folding everything at once. That
//! property is what makes the measurement campaign embarrassingly
//! parallel — a worker that owns a machine owns the machine's whole
//! stream, and no draw depends on which thread (or in which order)
//! another machine is measured.

use crate::machine::MachineId;

/// Folds `components` into `seed`, producing an independent stream seed.
///
/// The mix is a boost-style hash combine: each component is perturbed by
/// the 64-bit golden ratio and the running state before being XORed in.
/// Identical inputs always produce identical outputs; changing any single
/// component produces an unrelated stream.
pub(crate) fn stream_seed(seed: u64, components: &[u64]) -> u64 {
    let mut h = seed;
    for &k in components {
        h ^= k
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
    }
    h
}

/// The RNG stream seed owned by one machine of a campaign: every
/// measurement taken on `machine` derives from this stream, regardless of
/// which worker thread performs it.
pub(crate) fn machine_stream(campaign_seed: u64, machine: MachineId) -> u64 {
    stream_seed(campaign_seed, &[machine.0 as u64])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding_is_hierarchical() {
        // stream_seed(stream_seed(s, [a]), [b, c]) == stream_seed(s, [a, b, c])
        for seed in [0u64, 1, 42, u64::MAX] {
            for parts in [[1u64, 2, 3], [0, 0, 0], [u64::MAX, 7, 1 << 60]] {
                let whole = stream_seed(seed, &parts);
                let staged = stream_seed(stream_seed(seed, &parts[..1]), &parts[1..]);
                assert_eq!(whole, staged);
            }
        }
    }

    #[test]
    fn machine_streams_are_distinct_and_reproducible() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..1000u32 {
            let s = machine_stream(42, MachineId(id));
            assert_eq!(s, machine_stream(42, MachineId(id)));
            assert!(seen.insert(s), "machine {id} collides");
        }
    }

    #[test]
    fn any_component_changes_the_stream() {
        let base = stream_seed(7, &[1, 2, 3]);
        assert_ne!(base, stream_seed(8, &[1, 2, 3]));
        assert_ne!(base, stream_seed(7, &[9, 2, 3]));
        assert_ne!(base, stream_seed(7, &[1, 9, 3]));
        assert_ne!(base, stream_seed(7, &[1, 2, 9]));
        assert_ne!(base, stream_seed(7, &[1, 2]));
    }
}
