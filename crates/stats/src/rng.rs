//! Deterministic RNG stream derivation.
//!
//! Every simulation component (dataset generation, node-ID assignment, churn,
//! probe positions, …) gets an independent RNG stream derived from one master
//! seed, so that changing e.g. the number of probes does not perturb the
//! dataset, and every experiment is exactly reproducible.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives independent RNG streams from a single master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Creates a sequence rooted at `master`.
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// The master seed this sequence was created with.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Returns the RNG for the stream labelled `(component, index)`.
    ///
    /// Streams with distinct labels are statistically independent (the label
    /// is mixed into the seed with SplitMix64, a full-period 64-bit mixer).
    pub fn stream(&self, component: Component, index: u64) -> StdRng {
        let label = (component as u64) << 56 | (index & 0x00FF_FFFF_FFFF_FFFF);
        StdRng::seed_from_u64(splitmix64(self.master ^ splitmix64(label)))
    }
}

/// Well-known simulation components, used as RNG stream labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs, reason = "each variant's name is its documentation")]
pub enum Component {
    Dataset = 1,
    NodeIds = 2,
    Churn = 3,
    Probes = 4,
    Estimator = 5,
    Workload = 6,
    Test = 7,
}

/// SplitMix64 finalizer: a bijective 64-bit mixer with good avalanche.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let seq = SeedSequence::new(42);
        let a: Vec<u64> = seq
            .stream(Component::Dataset, 0)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u64> = seq
            .stream(Component::Dataset, 0)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_different_streams() {
        let seq = SeedSequence::new(42);
        let a: u64 = seq.stream(Component::Dataset, 0).gen();
        let b: u64 = seq.stream(Component::Dataset, 1).gen();
        let c: u64 = seq.stream(Component::Churn, 0).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn different_masters_different_streams() {
        let a: u64 = SeedSequence::new(1).stream(Component::Test, 0).gen();
        let b: u64 = SeedSequence::new(2).stream(Component::Test, 0).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn splitmix_is_bijective_on_samples() {
        // Distinct inputs must produce distinct outputs (spot check).
        let outs: Vec<u64> = (0..1000).map(splitmix64).collect();
        let mut dedup = outs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), outs.len());
    }
}
