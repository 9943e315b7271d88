//! Piggybacked probing ≡ dedicated probing, on identical snapshots.
//!
//! The soundness argument for probe piggybacking (`dde_core::piggyback`) is
//! that only the *transport* changes: the probe points are drawn up front,
//! before traffic sees them, so a point covered by a foreground lookup's
//! owner yields the exact reply a dedicated probe routed to that owner
//! would. On a healthy snapshot that makes the two skeletons not merely
//! close but *identical* — asserted pointwise here — and both must sit
//! inside the DKW band of a k-probe estimate against the realized dataset
//! ([`KsBand`]), which is the acceptance bar the F14 figure records.

use dde_core::{DensityEstimate, DfDde, DfDdeConfig, ProbePlan};
use dde_ring::{MessageKind, RingId};
use dde_sim::{build_fresh, Scenario};
use dde_stats::assert::KsBand;
use dde_stats::rng::{Component, SeedSequence};
use dde_stats::CdfFn;
use rand::Rng;

const PROBES: usize = 48;

#[test]
fn piggybacked_estimate_matches_dedicated_on_identical_snapshots() {
    for seed in [101u64, 202, 303] {
        let s = Scenario::default().with_peers(96).with_items(8_000).with_seed(seed);
        let built = build_fresh(&s);
        let est = DfDde::new(DfDdeConfig::with_probes(PROBES));
        let domain = built.net.placement().domain();
        let initiator = built.net.ids().next().expect("nonempty");

        // Dedicated transport: the plan completes with routed probes only.
        let mut net_d = built.net.fork();
        let mut rng_d = SeedSequence::new(seed).stream(Component::Estimator, 0);
        let plan_d = ProbePlan::plan(&est, &mut rng_d);
        let replies_d =
            plan_d.complete(&est, &mut net_d, initiator, &mut rng_d).expect("healthy ring");
        let sk_d = est.build_skeleton(&replies_d, domain).expect("skeleton");

        // Piggybacked transport: the *same* plan (same estimator stream),
        // with foreground lookups covering most strata first.
        let mut net_p = built.net.fork();
        let mut rng_p = SeedSequence::new(seed).stream(Component::Estimator, 0);
        let mut plan_p = ProbePlan::plan(&est, &mut rng_p);
        let mut traffic = SeedSequence::new(seed).stream(Component::Workload, 0);
        let ids: Vec<RingId> = net_p.ids().collect();
        let before = net_p.stats().clone();
        for _ in 0..400 {
            let from = ids[traffic.gen_range(0..ids.len())];
            if let Ok(r) = net_p.lookup(from, RingId(traffic.gen())) {
                plan_p.offer_owner(&mut net_p, r.owner);
            }
        }
        assert!(
            plan_p.piggybacked() >= PROBES / 2,
            "seed {seed}: foreground traffic covered only {} of {PROBES} strata",
            plan_p.piggybacked()
        );
        let replies_p =
            plan_p.complete(&est, &mut net_p, initiator, &mut rng_p).expect("healthy ring");
        let sk_p = est.build_skeleton(&replies_p, domain).expect("skeleton");
        let d = net_p.stats().since(&before);
        assert!(
            d.count(MessageKind::Probe) <= (PROBES / 2) as u64,
            "seed {seed}: piggybacking must displace most dedicated probes"
        );
        assert!(d.count(MessageKind::ProbePiggyback) >= (PROBES / 2) as u64);

        // Transport must not change the estimate at all: identical points →
        // identical owners → identical replies → identical skeleton.
        assert_eq!(replies_d.len(), replies_p.len(), "seed {seed}");
        assert!((sk_d.n_hat - sk_p.n_hat).abs() < 1e-9, "seed {seed}: N̂ differs");
        let (lo, hi) = domain;
        for i in 0..=64 {
            let x = lo + (hi - lo) * i as f64 / 64.0;
            let (a, b) = (sk_d.cdf.cdf(x), sk_p.cdf.cdf(x));
            assert!((a - b).abs() < 1e-12, "seed {seed}: cdf({x}) differs: {a} vs {b}");
        }

        // And both transports sit inside the DKW band against the realized
        // dataset (k-probe sampling noise at α = 1e-3, plus the systematic
        // budget of 8-bucket summaries over the skewed default workload).
        for (label, sk) in [("dedicated", sk_d), ("piggybacked", sk_p)] {
            let ks =
                DensityEstimate::with_samples(sk.cdf, Vec::new()).ks_to(&built.net.live_values());
            KsBand::new(PROBES, 1e-3)
                .with_systematic(0.08)
                .assert(&format!("{label} estimate, seed {seed}"), ks);
        }
    }
}
