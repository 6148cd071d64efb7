//! Fault injection for data movement.
//!
//! Real multi-facility transfers fail: connections drop mid-file and
//! payloads arrive corrupted. The services in this crate retry on failure;
//! these types decide *when* failures happen, deterministically from the
//! world seed.

use eoml_util::rng::{Rng64, Xoshiro256};

/// How a finished flow ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOutcome {
    /// All bytes arrived and the checksum (if verified) matched.
    Success,
    /// The connection dropped partway; the transfer must restart.
    ConnectionDropped,
    /// Bytes arrived but integrity verification failed.
    ChecksumMismatch,
}

impl FlowOutcome {
    /// Whether the flow delivered a usable file.
    pub fn is_success(self) -> bool {
        self == FlowOutcome::Success
    }
}

/// Per-flow failure probabilities.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Probability that a flow's connection drops.
    pub drop_probability: f64,
    /// Probability that a completed flow fails checksum verification.
    pub corrupt_probability: f64,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        Self {
            drop_probability: 0.0,
            corrupt_probability: 0.0,
        }
    }

    /// A mildly unreliable WAN (≈2 % drops, 0.5 % corruption).
    pub fn flaky_wan() -> Self {
        Self {
            drop_probability: 0.02,
            corrupt_probability: 0.005,
        }
    }

    /// Sample an outcome for one flow attempt.
    pub fn sample(&self, rng: &mut Xoshiro256) -> FlowOutcome {
        if rng.chance(self.drop_probability) {
            FlowOutcome::ConnectionDropped
        } else if rng.chance(self.corrupt_probability) {
            FlowOutcome::ChecksumMismatch
        } else {
            FlowOutcome::Success
        }
    }
}

/// A [`FaultPlan`] bundled with its own deterministically seeded RNG —
/// the reproducible fault source the ingest-verification path samples.
///
/// Two injectors built from the same plan and seed produce the same
/// outcome sequence, so a failing corruption/loss test reruns identically.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    rng: Xoshiro256,
}

impl FaultInjector {
    /// Injector over `plan` whose outcome stream starts from `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Self {
            plan,
            seed,
            rng: Xoshiro256::seed_from(seed),
        }
    }

    /// The seed this injector's stream started from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sample the next flow outcome.
    pub fn sample(&mut self) -> FlowOutcome {
        self.plan.sample(&mut self.rng)
    }

    /// Deterministically perturb a content digest — how a
    /// [`FlowOutcome::ChecksumMismatch`] corrupts a virtual artifact
    /// whose payload exists only as a digest. Never returns `digest`
    /// unchanged.
    pub fn corrupt_digest(&mut self, digest: u64) -> u64 {
        let noise = self.rng.next_u64() | 1; // non-zero ⇒ always differs
        digest ^ noise
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fails() {
        let mut rng = Xoshiro256::seed_from(1);
        let plan = FaultPlan::none();
        for _ in 0..1000 {
            assert_eq!(plan.sample(&mut rng), FlowOutcome::Success);
        }
    }

    #[test]
    fn rates_are_respected() {
        let mut rng = Xoshiro256::seed_from(2);
        let plan = FaultPlan {
            drop_probability: 0.3,
            corrupt_probability: 0.2,
        };
        let n = 100_000;
        let mut drops = 0;
        let mut corrupt = 0;
        for _ in 0..n {
            match plan.sample(&mut rng) {
                FlowOutcome::ConnectionDropped => drops += 1,
                FlowOutcome::ChecksumMismatch => corrupt += 1,
                FlowOutcome::Success => {}
            }
        }
        let drop_rate = drops as f64 / n as f64;
        // corrupt is conditioned on no drop: expected 0.7 × 0.2 = 0.14
        let corrupt_rate = corrupt as f64 / n as f64;
        assert!((drop_rate - 0.3).abs() < 0.01, "{drop_rate}");
        assert!((corrupt_rate - 0.14).abs() < 0.01, "{corrupt_rate}");
    }

    #[test]
    fn outcome_success_predicate() {
        assert!(FlowOutcome::Success.is_success());
        assert!(!FlowOutcome::ConnectionDropped.is_success());
        assert!(!FlowOutcome::ChecksumMismatch.is_success());
    }

    #[test]
    fn injectors_with_the_same_seed_replay_the_same_stream() {
        let plan = FaultPlan {
            drop_probability: 0.3,
            corrupt_probability: 0.3,
        };
        let mut a = FaultInjector::new(plan, 77);
        let mut b = FaultInjector::new(plan, 77);
        assert_eq!(a.seed(), 77);
        for _ in 0..200 {
            assert_eq!(a.sample(), b.sample());
        }
        assert_eq!(a.corrupt_digest(0x1234), b.corrupt_digest(0x1234));
        // A different seed diverges somewhere in the stream.
        let mut c = FaultInjector::new(plan, 78);
        let mut a = FaultInjector::new(plan, 77);
        let diverged = (0..200).any(|_| a.sample() != c.sample());
        assert!(diverged, "seeds 77 and 78 produced identical streams");
    }

    #[test]
    fn corrupt_digest_always_differs() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 5);
        for d in [0u64, 1, u64::MAX, 0xabcd] {
            assert_ne!(inj.corrupt_digest(d), d);
        }
    }
}
