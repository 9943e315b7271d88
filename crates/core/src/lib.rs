//! # dde-core
//!
//! Distribution-free data density estimation in ring-based P2P networks —
//! the core contribution of the ICDE 2012 paper this repository reproduces.
//!
//! ## The problem
//!
//! Data items are spread across the peers of a ring overlay
//! ([`dde_ring::Network`]). Any peer wants an estimate of the **global**
//! distribution of the data over its domain — accurately, cheaply (contacting
//! a small subset of peers), without assuming anything about the
//! distribution's shape, and without the bias that naive peer sampling
//! suffers when data volume per peer is skewed.
//!
//! ## The method ([`DfDde`])
//!
//! Inspired by the *inversion method* for random variate generation
//! (`x = F⁻¹(u)` turns uniform `u` into a sample of any `F`):
//!
//! 1. **Phase 1 — sample the global CDF.** Probe `k` uniformly random *ring
//!    positions* (each probe routes in `O(log P)` hops). A probe lands on a
//!    peer with probability equal to its arc fraction — a quantity the peer
//!    itself knows exactly. Horvitz–Thompson reweighting by that inclusion
//!    probability turns the `k` replies into unbiased estimates of the global
//!    item count and of the global cumulative counts, assembled into a
//!    monotone [`CdfSkeleton`].
//! 2. **Phase 2 — inversion sampling.** Unbiased samples of the global data
//!    distribution come from `F̂⁻¹(u)` — synthesized locally from the
//!    skeleton, or fetched as *real tuples* by routing to the peer owning
//!    quantile `u`. Density is read straight off the skeleton (or an
//!    equi-width histogram of it).
//!
//! Because step 1 corrects with *known* inclusion probabilities and step 2 is
//! exact inversion, nothing anywhere assumes a distribution family — hence
//! *distribution-free*.
//!
//! ## Baselines (for the paper's comparisons)
//!
//! * [`ExactAggregation`] — full ring walk; exact but `O(P)` messages;
//! * [`UniformPeerSampling`] — uniform random peers, equal-weight pooling
//!   (the classic *biased* estimator) or count-weighted pooling (ablation);
//! * [`RandomWalkSampling`] — Metropolis–Hastings walks, the decentralized
//!   way to sample peers ~uniformly, same pooling options;
//! * [`GossipAggregation`] — Push-Sum histogram gossip: converges to the
//!   truth but costs `rounds × P` messages.
//!
//! ## Dynamics
//!
//! [`ContinuousEstimator`] keeps an estimate fresh under churn by refreshing
//! a sliding window of probes (the "dynamic networks" aspect of the title).
//!
//! ## Example
//!
//! ```
//! use dde_core::{DensityEstimator, DfDde, DfDdeConfig};
//! use dde_ring::{Network, Placement, RingId};
//! use rand::{Rng, SeedableRng};
//!
//! // A 64-peer ring storing 5000 values of a skewed workload.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let ids: Vec<RingId> = (0..64).map(|_| RingId(rng.gen())).collect();
//! let mut net = Network::build(ids, Placement::range(0.0, 100.0));
//! let data: Vec<f64> = (0..5000).map(|_| rng.gen::<f64>().powi(3) * 100.0).collect();
//! net.bulk_load(&data);
//!
//! // Any peer estimates the global distribution with 48 probes.
//! let initiator = net.random_peer(&mut rng).unwrap();
//! let report = DfDde::new(DfDdeConfig::with_probes(48))
//!     .estimate(&mut net, initiator, &mut rng)
//!     .unwrap();
//!
//! // Cubed uniforms concentrate low: the median sits far below 50.
//! assert!(report.estimate.quantile(0.5) < 30.0);
//! assert!(report.messages() < 1000);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod aggregate;
pub mod baseline;
pub mod continuous;
pub mod dfdde;
pub mod estimate;
pub mod estimator;
pub mod exact;
pub mod piggyback;
pub mod retry;
pub mod skeleton;

pub use aggregate::{AggregateEstimator, AggregateReport};
pub use baseline::gossip::{GossipAggregation, GossipConfig};
pub use baseline::random_walk::{RandomWalkConfig, RandomWalkSampling};
pub use baseline::uniform_peer::{PoolWeighting, UniformPeerConfig, UniformPeerSampling};
pub use continuous::{ContinuousConfig, ContinuousEstimator};
pub use dfdde::{DfDde, DfDdeConfig, ProbeStrategy, SampleMode};
pub use estimate::DensityEstimate;
pub use estimator::{DensityEstimator, EstimateError, EstimationReport};
pub use exact::ExactAggregation;
pub use piggyback::ProbePlan;
pub use retry::RetryPolicy;
pub use skeleton::{CdfSkeleton, Weighting};
