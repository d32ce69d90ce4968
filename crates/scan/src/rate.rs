//! Token-bucket rate limiting on a virtual clock.
//!
//! Responsible scanning means capping probes per second; ZMap's `-r` flag
//! is a token bucket. The simulator runs on **virtual time** — the bucket
//! is advanced by the simulated clock, and "when would the next packet be
//! allowed" is answered analytically — so simulated scan campaigns report
//! realistic durations without sleeping.

use std::sync::atomic::{AtomicU64, Ordering};

/// A token bucket: capacity `burst`, refilled at `rate` tokens/second.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    /// Virtual timestamp of the last update, in seconds.
    now: f64,
}

impl TokenBucket {
    /// Create a bucket that starts full. `rate` must be positive; use
    /// [`TokenBucket::unlimited`] to disable limiting.
    pub fn new(rate: f64, burst: f64) -> TokenBucket {
        assert!(rate > 0.0, "rate must be positive");
        assert!(burst >= 1.0, "burst must allow at least one token");
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            now: 0.0,
        }
    }

    /// A bucket that never limits (infinite rate).
    pub fn unlimited() -> TokenBucket {
        TokenBucket {
            rate: f64::INFINITY,
            burst: f64::INFINITY,
            tokens: f64::INFINITY,
            now: 0.0,
        }
    }

    /// The configured rate in tokens/second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance the virtual clock to `t` seconds, refilling tokens.
    /// Time never moves backwards (earlier `t` is ignored).
    pub fn advance_to(&mut self, t: f64) {
        if t <= self.now {
            return;
        }
        if self.rate.is_finite() {
            self.tokens = (self.tokens + (t - self.now) * self.rate).min(self.burst);
        }
        self.now = t;
    }

    /// Try to take one token at the current virtual time.
    pub fn try_take(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// A lock-free token bucket shared by every worker of a scan.
///
/// The serial bucket's batched take has a closed form: once a bucket
/// that starts full at `burst` has handed out `total` tokens, its
/// virtual clock reads `max(0, (total − burst) / rate)` — the burst
/// absorbs the first tokens for free and every later one refills at
/// exactly `1/rate`. That form depends only on the running token count,
/// so the shared bucket is a single `AtomicU64`: each worker
/// `fetch_add`s its batch size and computes the batch's send time
/// locally, with no lock and no cross-thread waiting.
///
/// Sharing one bucket makes the *aggregate* send rate the configured
/// one no matter how unevenly a plan shards across workers: an idle
/// worker's unused rate is automatically available to the busy ones.
/// (Workers that each own a private bucket at `rate / threads` pin a
/// lopsided plan to a fraction of the configured rate instead.)
#[derive(Debug)]
pub struct AtomicTokenBucket {
    rate: f64,
    burst: f64,
    consumed: AtomicU64,
}

impl AtomicTokenBucket {
    /// Create a shared bucket that starts full. `rate` must be positive;
    /// use [`AtomicTokenBucket::unlimited`] to disable limiting.
    pub fn new(rate: f64, burst: f64) -> AtomicTokenBucket {
        assert!(rate > 0.0, "rate must be positive");
        assert!(burst >= 1.0, "burst must allow at least one token");
        AtomicTokenBucket {
            rate,
            burst,
            consumed: AtomicU64::new(0),
        }
    }

    /// A shared bucket that never limits (infinite rate).
    pub fn unlimited() -> AtomicTokenBucket {
        AtomicTokenBucket {
            rate: f64::INFINITY,
            burst: f64::INFINITY,
            consumed: AtomicU64::new(0),
        }
    }

    /// The configured aggregate rate in tokens/second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Take `n` tokens and return the virtual send time of the last of
    /// them, in seconds. Equivalent to `n` blocking takes from a serial
    /// [`TokenBucket`] when called from one thread;
    /// under concurrent callers the returned times interleave but the
    /// global send rate still converges to `rate`. An unlimited bucket
    /// always returns 0.0 (virtual time never advances).
    pub fn take_n(&self, n: u64) -> f64 {
        if !self.rate.is_finite() {
            return 0.0;
        }
        // Relaxed is enough: the counter is the whole state, and each
        // caller only needs an atomic view of its own slice of tokens.
        let total = self.consumed.fetch_add(n, Ordering::Relaxed) + n;
        ((total as f64 - self.burst) / self.rate).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial bucket's blocking takes: the oracle
    /// [`AtomicTokenBucket::take_n`] is checked against.
    impl TokenBucket {
        /// Take one token, advancing the virtual clock to the earliest
        /// time it is available; returns the (possibly advanced) virtual
        /// time.
        fn take_blocking(&mut self) -> f64 {
            if !self.try_take() {
                let deficit = 1.0 - self.tokens;
                let wait = deficit / self.rate;
                let t = self.now + wait;
                self.advance_to(t);
                // guard against float rounding leaving us a hair short
                if !self.try_take() {
                    self.tokens = 0.0;
                }
            }
            self.now
        }

        /// Take `n` tokens at once, advancing the virtual clock as far
        /// as the last of them requires. Equivalent to `n` sequential
        /// `take_blocking` calls in O(1): once the bucket runs dry
        /// mid-batch, every further token refills exactly at `1/rate`,
        /// so the total wait collapses to `(n - tokens) / rate`.
        fn take_blocking_n(&mut self, n: u64) -> f64 {
            let n = n as f64;
            if self.tokens >= n {
                self.tokens -= n;
            } else {
                self.now += (n - self.tokens) / self.rate;
                self.tokens = 0.0;
            }
            self.now
        }
    }

    #[test]
    fn starts_full_and_drains() {
        let mut b = TokenBucket::new(10.0, 3.0);
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take(), "burst of 3 exhausted");
    }

    #[test]
    fn refills_with_time() {
        let mut b = TokenBucket::new(10.0, 1.0);
        assert!(b.try_take());
        assert!(!b.try_take());
        b.advance_to(0.1); // 1 token refilled
        assert!(b.try_take());
        assert!(!b.try_take());
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(1000.0, 5.0);
        b.advance_to(100.0);
        let mut taken = 0;
        while b.try_take() {
            taken += 1;
        }
        assert_eq!(taken, 5, "tokens must cap at burst");
    }

    #[test]
    fn time_never_goes_backwards() {
        let mut b = TokenBucket::new(10.0, 1.0);
        b.advance_to(5.0);
        b.advance_to(1.0);
        assert_eq!(b.now(), 5.0);
    }

    #[test]
    fn blocking_take_reports_send_times() {
        // rate 2/s, burst 1: sends at t=0, 0.5, 1.0, 1.5 ...
        let mut b = TokenBucket::new(2.0, 1.0);
        let t0 = b.take_blocking();
        let t1 = b.take_blocking();
        let t2 = b.take_blocking();
        assert_eq!(t0, 0.0);
        assert!((t1 - 0.5).abs() < 1e-9, "{t1}");
        assert!((t2 - 1.0).abs() < 1e-9, "{t2}");
    }

    #[test]
    fn simulated_duration_matches_rate() {
        // 1000 packets at 100 pps should take ~10 virtual seconds
        let mut b = TokenBucket::new(100.0, 10.0);
        let mut last = 0.0;
        for _ in 0..1000 {
            last = b.take_blocking();
        }
        assert!((9.0..10.5).contains(&last), "duration {last}");
    }

    #[test]
    fn unlimited_never_blocks() {
        let mut b = TokenBucket::unlimited();
        for _ in 0..10_000 {
            assert!(b.try_take());
        }
        assert_eq!(b.take_blocking(), 0.0, "virtual time must not advance");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_zero_rate() {
        TokenBucket::new(0.0, 1.0);
    }

    #[test]
    fn batched_take_matches_sequential_takes() {
        for (rate, burst, batches) in [
            (100.0, 10.0, vec![1u64, 64, 3, 64, 64, 7]),
            (2.0, 1.0, vec![5, 1, 1, 2]),
            (1000.0, 128.0, vec![64, 64, 64, 64, 64]),
        ] {
            let mut batched = TokenBucket::new(rate, burst);
            let mut sequential = TokenBucket::new(rate, burst);
            for &n in &batches {
                let tb = batched.take_blocking_n(n);
                let mut ts = sequential.now();
                for _ in 0..n {
                    ts = sequential.take_blocking();
                }
                assert!(
                    (tb - ts).abs() < 1e-9,
                    "rate {rate} burst {burst} n {n}: batched {tb} vs sequential {ts}"
                );
            }
        }
    }

    #[test]
    fn batched_take_on_unlimited_is_free() {
        let mut b = TokenBucket::unlimited();
        assert_eq!(b.take_blocking_n(1_000_000), 0.0);
        assert_eq!(b.now(), 0.0);
    }

    #[test]
    fn batched_take_zero_is_a_no_op() {
        let mut b = TokenBucket::new(10.0, 2.0);
        b.take_blocking_n(2);
        let t = b.now();
        assert_eq!(b.take_blocking_n(0), t);
    }

    #[test]
    fn atomic_bucket_matches_serial_bucket_single_threaded() {
        for (rate, burst, batches) in [
            (100.0, 10.0, vec![1u64, 64, 3, 64, 64, 7]),
            (2.0, 1.0, vec![5, 1, 1, 2]),
            (1000.0, 128.0, vec![64, 64, 64, 64, 64]),
        ] {
            let shared = AtomicTokenBucket::new(rate, burst);
            let mut serial = TokenBucket::new(rate, burst);
            for &n in &batches {
                let ta = shared.take_n(n);
                let ts = serial.take_blocking_n(n);
                assert!(
                    (ta - ts).abs() < 1e-9,
                    "rate {rate} burst {burst} n {n}: atomic {ta} vs serial {ts}"
                );
            }
        }
    }

    #[test]
    fn atomic_bucket_pools_rate_across_takers() {
        // 1000 tokens at 100/s with burst 10: the last token goes out at
        // (1000 − 10) / 100 = 9.9 s no matter how the takes interleave.
        let b = AtomicTokenBucket::new(100.0, 10.0);
        let mut last = 0.0f64;
        for n in [400u64, 350, 250] {
            last = last.max(b.take_n(n));
        }
        assert!((last - 9.9).abs() < 1e-9, "last send at {last}");
    }

    #[test]
    fn atomic_unlimited_never_advances_time() {
        let b = AtomicTokenBucket::unlimited();
        assert_eq!(b.take_n(1_000_000), 0.0);
        assert_eq!(b.take_n(1), 0.0);
    }

    #[test]
    fn atomic_send_times_are_monotone() {
        let b = AtomicTokenBucket::new(50.0, 4.0);
        let mut prev = -1.0;
        for _ in 0..100 {
            let t = b.take_n(3);
            assert!(t >= prev, "clock went backwards: {t} < {prev}");
            prev = t;
        }
    }
}
