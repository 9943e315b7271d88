//! Retry policy for probe RPCs under faults and churn.
//!
//! The cost-model split (shared with `dde_ring::faults`): the *network*
//! charges messages and delivery delays; the *retry policy* charges waiting
//! time — the per-attempt timeout spent discovering that an attempt is lost
//! plus the exponential backoff before re-issuing. Both land in the same
//! [`dde_ring::MessageStats`] delay-unit counter, so a single simulated-time
//! total covers the whole run with nothing counted twice.

/// Retry behaviour for one logical probe (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per logical probe; `1` disables retries.
    pub max_attempts: usize,
    /// Base backoff in simulated-time cost units; retry `i` (1-based) waits
    /// `base_backoff · 2^(i-1)` before re-issuing.
    pub base_backoff: u64,
    /// Per-attempt timeout in cost units, charged when an attempt is
    /// declared lost.
    pub attempt_timeout: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 4, base_backoff: 2, attempt_timeout: 8 }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt per probe).
    pub fn none() -> Self {
        Self { max_attempts: 1, ..Self::default() }
    }

    /// Backoff before retry number `retry` (1-based): exponential in the
    /// retry index, capped to avoid shifting into oblivion.
    fn backoff(&self, retry: usize) -> u64 {
        self.base_backoff << retry.saturating_sub(1).min(16)
    }

    /// Simulated-time cost of declaring attempt `attempt` (0-based) lost:
    /// the timeout wait, plus the backoff before the next attempt when one
    /// remains.
    pub fn failed_attempt_cost(&self, attempt: usize) -> u64 {
        let timeout = self.attempt_timeout;
        if attempt + 1 < self.max_attempts {
            timeout + self.backoff(attempt + 1)
        } else {
            timeout
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential() {
        let p = RetryPolicy { max_attempts: 5, base_backoff: 2, attempt_timeout: 8 };
        assert_eq!(p.backoff(1), 2);
        assert_eq!(p.backoff(2), 4);
        assert_eq!(p.backoff(3), 8);
        // Capped shift: no overflow panic for absurd retry counts.
        assert_eq!(p.backoff(100), 2 << 16);
    }

    #[test]
    fn failed_attempt_cost_includes_backoff_only_when_retrying() {
        let p = RetryPolicy { max_attempts: 3, base_backoff: 2, attempt_timeout: 8 };
        assert_eq!(p.failed_attempt_cost(0), 8 + 2); // will retry
        assert_eq!(p.failed_attempt_cost(1), 8 + 4); // will retry
        assert_eq!(p.failed_attempt_cost(2), 8); // final attempt: no backoff
    }

    #[test]
    fn none_disables_retries() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.failed_attempt_cost(0), p.attempt_timeout);
    }

    #[test]
    fn exhaustion_cost_is_timeouts_plus_all_but_last_backoff() {
        // Full exhaustion of the default policy {4, 2, 8}:
        // (8+2) + (8+4) + (8+8) + 8 = 46 — the closed form the fault
        // integration tests (crates/core/tests/retry_accounting.rs) pin
        // against the live delay counter.
        let p = RetryPolicy::default();
        let total: u64 = (0..p.max_attempts).map(|a| p.failed_attempt_cost(a)).sum();
        let expected = p.max_attempts as u64 * p.attempt_timeout
            + (1..p.max_attempts).map(|r| p.backoff(r)).sum::<u64>();
        assert_eq!(total, expected);
        assert_eq!(total, 46);
    }
}
