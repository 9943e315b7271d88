//! T2 — messages needed to reach a target accuracy, per method.
//!
//! The headline efficiency table: for a KS target, how many messages does
//! each method spend? Expected shape: DF-DDE needs a small multiple of
//! `k*·log P`; uniform-peer (equal-weight) **never** reaches the target on
//! skewed data (bias floor); gossip/exact reach it at `Θ(P)`-and-up cost.

use super::t1_defaults::{default_probes, default_scenario};
use super::Scale;
use crate::build::build;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::runner::aggregate;
use crate::scenario::Scenario;
use dde_core::{
    DensityEstimator, DfDde, DfDdeConfig, ExactAggregation, GossipAggregation, GossipConfig,
    PoolWeighting, UniformPeerConfig, UniformPeerSampling,
};

/// The KS target per scale (looser at quick scale: fewer repeats).
fn ks_target(scale: Scale) -> f64 {
    match scale {
        Scale::Quick => 0.08,
        Scale::Full => 0.05,
    }
}

/// Doubles the budget until the method's mean KS reaches `target`, returning
/// `(budget, messages, ks)` of the first success, or `None` if the cap is
/// hit first (a bias floor). Builds its own network: one search = one cell.
/// With `cap_to_peers`, the cap also never exceeds the network size (for
/// peer-sampling methods, whose budget is a peer count).
fn search<F>(
    make: F,
    scenario: &Scenario,
    target: f64,
    repeats: usize,
    cap: usize,
    cap_to_peers: bool,
) -> Option<(usize, f64, f64)>
where
    F: Fn(usize) -> Box<dyn DensityEstimator>,
{
    let mut built = build(scenario);
    let cap = if cap_to_peers { cap.min(built.net.len()) } else { cap };
    let mut budget = 8;
    while budget <= cap {
        let est = make(budget);
        let a = aggregate(&mut built, est.as_ref(), repeats);
        if a.ks_mean <= target && a.runs > 0 {
            return Some((budget, a.messages_mean, a.ks_mean));
        }
        budget *= 2;
    }
    None
}

/// Builds table T2.
pub fn t2_messages_to_target_accuracy(scale: Scale) -> Vec<Table> {
    let scenario = default_scenario(scale);
    let target = ks_target(scale);
    let cap = match scale {
        Scale::Quick => 256,
        Scale::Full => 2048,
    };

    let fmt = move |name: &str, r: Option<(usize, f64, f64)>, cap: usize| -> Vec<String> {
        match r {
            Some((b, m, k)) => vec![name.into(), b.to_string(), f(m), f(k)],
            None => {
                vec![name.into(), format!(">{cap}"), "-".into(), "never (bias floor)".into()]
            }
        }
    };

    // One cell per method: each budget-doubling search is sequential inside,
    // but the five methods run concurrently. Each cell renders its own row.
    let mut plan: ExecPlan<'_, Vec<String>> = ExecPlan::new();
    let s = &scenario;
    let repeats = scale.repeats();
    plan.push(move || {
        let r = search(
            |k| Box::new(DfDde::new(DfDdeConfig::with_probes(k))),
            s,
            target,
            repeats,
            cap,
            false,
        );
        fmt("df-dde", r, cap)
    });
    plan.push(move || {
        let r = search(
            |k| {
                Box::new(UniformPeerSampling::new(UniformPeerConfig {
                    peers: k,
                    weighting: PoolWeighting::CountWeighted,
                    ..UniformPeerConfig::default()
                }))
            },
            s,
            target,
            repeats,
            cap,
            false,
        );
        fmt("uniform-peer-cw", r, cap)
    });
    plan.push(move || {
        // The biased baseline may be capped by the network size itself —
        // report the cap it actually ran under.
        let r = search(
            |k| {
                Box::new(UniformPeerSampling::new(UniformPeerConfig {
                    peers: k,
                    ..UniformPeerConfig::default()
                }))
            },
            s,
            target,
            repeats,
            cap,
            true,
        );
        fmt("uniform-peer", r, cap.min(s.peers))
    });
    plan.push(move || {
        let r = search(
            |rounds| {
                Box::new(GossipAggregation::new(GossipConfig { rounds, ..GossipConfig::default() }))
            },
            s,
            target,
            1,
            64,
            false,
        );
        fmt("gossip", r, cap)
    });
    plan.push(move || {
        let mut built = build(s);
        let a = aggregate(&mut built, &ExactAggregation::new(), 1);
        vec!["exact-walk".into(), "full".into(), f(a.messages_mean), f(a.ks_mean)]
    });

    let mut t = Table::new(
        format!("T2: cost to reach KS <= {target} (budget doubling, cap {cap})"),
        &["method", "budget", "msgs", "ks reached"],
    );
    for row in plan.run() {
        t.push_row(row.value);
    }

    let _ = default_probes(scale); // anchor: T2 shares T1's scenario
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t2_dfdde_reaches_target_cheaper_than_gossip() {
        let t = &t2_messages_to_target_accuracy(Scale::Quick)[0];
        let dfdde = t.rows.iter().find(|r| r[0] == "df-dde").unwrap();
        assert_ne!(dfdde[2], "-", "df-dde must reach the target: {dfdde:?}");
        let df_msgs: f64 = dfdde[2].parse().unwrap();
        let gossip = t.rows.iter().find(|r| r[0] == "gossip").unwrap();
        if gossip[2] != "-" {
            let g_msgs: f64 = gossip[2].parse().unwrap();
            assert!(g_msgs > df_msgs, "gossip {g_msgs} should cost more than df-dde {df_msgs}");
        }
    }
}
