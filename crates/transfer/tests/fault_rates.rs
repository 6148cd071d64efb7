//! Property tests of the fault model's statistics: for any plan and any
//! seed, the sampled drop/corrupt rates of a long stream must sit within
//! tight statistical bounds of the configured probabilities — the WAN
//! degradation the chaos scenarios dial in is only realistic if the
//! injector actually delivers the rates on the label.

use eoml_transfer::{FaultInjector, FaultPlan, FlowOutcome};
use proptest::prelude::*;

const DRAWS: usize = 20_000;

/// Five-sigma binomial half-width around rate `p` over [`DRAWS`] samples.
/// A correct sampler exceeds this with probability ≈ 6e-7 per bound, so a
/// failure is a real rate bug, not noise.
fn bound(p: f64) -> f64 {
    5.0 * (p * (1.0 - p) / DRAWS as f64).sqrt() + 1e-12
}

proptest! {
    #[test]
    fn sampled_rates_stay_within_statistical_bounds(
        seed in 0u64..1_000_000_000,
        drop_pct in 0u8..90,
        corrupt_pct in 0u8..90,
    ) {
        let p_drop = drop_pct as f64 / 100.0;
        let p_corrupt = corrupt_pct as f64 / 100.0;
        let plan = FaultPlan {
            drop_probability: p_drop,
            corrupt_probability: p_corrupt,
        };
        let mut inj = FaultInjector::new(plan, seed);
        let (mut drops, mut corrupts, mut successes) = (0usize, 0usize, 0usize);
        for _ in 0..DRAWS {
            match inj.sample() {
                FlowOutcome::ConnectionDropped => drops += 1,
                FlowOutcome::ChecksumMismatch => corrupts += 1,
                FlowOutcome::Success => successes += 1,
            }
        }
        prop_assert_eq!(drops + corrupts + successes, DRAWS);

        let drop_rate = drops as f64 / DRAWS as f64;
        prop_assert!(
            (drop_rate - p_drop).abs() <= bound(p_drop),
            "drop rate {} vs configured {} (seed {})",
            drop_rate, p_drop, seed
        );

        // Corruption is sampled only when the flow did not drop, so the
        // marginal corrupt rate is (1 - p_drop) × p_corrupt.
        let p_corrupt_marginal = (1.0 - p_drop) * p_corrupt;
        let corrupt_rate = corrupts as f64 / DRAWS as f64;
        prop_assert!(
            (corrupt_rate - p_corrupt_marginal).abs() <= bound(p_corrupt_marginal),
            "corrupt rate {} vs expected marginal {} (seed {})",
            corrupt_rate, p_corrupt_marginal, seed
        );

        let p_success = (1.0 - p_drop) * (1.0 - p_corrupt);
        let success_rate = successes as f64 / DRAWS as f64;
        prop_assert!(
            (success_rate - p_success).abs() <= bound(p_success),
            "success rate {} vs expected {} (seed {})",
            success_rate, p_success, seed
        );
    }

    #[test]
    fn seeded_streams_replay_identically_for_any_plan(
        seed in 0u64..1_000_000_000,
        drop_pct in 0u8..100,
        corrupt_pct in 0u8..100,
    ) {
        let plan = FaultPlan {
            drop_probability: drop_pct as f64 / 100.0,
            corrupt_probability: corrupt_pct as f64 / 100.0,
        };
        let mut a = FaultInjector::new(plan, seed);
        let mut b = FaultInjector::new(plan, seed);
        for _ in 0..256 {
            prop_assert_eq!(a.sample(), b.sample());
        }
    }
}
