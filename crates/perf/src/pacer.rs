//! Open-loop pacing: arrivals are sent on a schedule fixed before the run,
//! regardless of completions. Every request is timed from the instant it
//! was *due*, so a stall of the generator or the system is charged to the
//! arrivals that were due during it, and how late the generator ran is
//! reported beside the latencies.

use rand::rngs::StdRng;
use std::time::{Duration, Instant};

/// Due times (seconds from the start of pacing) of `n` arrivals whose gaps
/// are exponential at `rate_per_s` — independent users. The gaps are the
/// distribution's `n` mid-quantiles in a seeded order, so every seed sees
/// the same mix of bursts and lulls and the same span (`n / rate`), and
/// only their order differs: two seeds then differ by their inputs, not by
/// how lucky their schedule was.
pub fn exponential_schedule(rng: &mut StdRng, rate_per_s: f64, n: usize) -> Vec<f64> {
    let mut gaps: Vec<f64> = (0..n)
        .map(|k| -(1.0 - (k as f64 + 0.5) / n as f64).ln() / rate_per_s)
        .collect();
    crate::harness::shuffle(rng, &mut gaps);
    let mut t = 0.0;
    gaps.iter()
        .map(|g| {
            t += g;
            t
        })
        .collect()
}

/// The pacer's view of time; the host clock in runs, a scripted clock in
/// the stall test.
pub trait Clock {
    /// Seconds since pacing started.
    fn now(&self) -> f64;
    /// Block until `now() >= t` (returns at once if already past).
    fn sleep_until(&self, t: f64);
}

pub struct HostClock {
    start: Instant,
}

impl HostClock {
    pub fn start() -> HostClock {
        HostClock {
            start: Instant::now(),
        }
    }

    /// The host instant `t` seconds after pacing started.
    pub fn instant_at(&self, t: f64) -> Instant {
        self.start + Duration::from_secs_f64(t.max(0.0))
    }
}

impl Clock for HostClock {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, t: f64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_secs_f64(t - now));
        }
    }
}

/// Send arrival `i` at `due[i]`, never earlier; when the generator is
/// behind it sends at once and does not skip. Returns each arrival's lag
/// (`sent - due`, seconds): the generator's own lateness.
pub fn pace<C: Clock>(clock: &C, due: &[f64], mut send: impl FnMut(usize)) -> Vec<f64> {
    due.iter()
        .enumerate()
        .map(|(i, &d)| {
            clock.sleep_until(d);
            let lag = (clock.now() - d).max(0.0);
            send(i);
            lag
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct Scripted(Cell<f64>);

    impl Clock for Scripted {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn sleep_until(&self, t: f64) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_arrivals_due_during_it() {
        // One arrival every 15 ms; sending arrival 5 stalls for 200 ms.
        let due: Vec<f64> = (0..40).map(|i| i as f64 * 0.015).collect();
        let clock = Scripted(Cell::new(0.0));
        let service = 0.001;
        let lags = pace(&clock, &due, |i| {
            let stall = if i == 5 { 0.200 } else { 0.0 };
            clock.0.set(clock.0.get() + stall);
        });
        // A request served `service` after its send, timed from its due time.
        let from_due: Vec<f64> = lags.iter().map(|l| l + service).collect();
        // Before the stall nothing is late.
        assert!(lags[..=5].iter().all(|l| *l == 0.0));
        // Arrival 6 was due 15 ms into the stall: it waits the other 185 ms.
        assert!((lags[6] - 0.185).abs() < 1e-9, "{}", lags[6]);
        assert!((from_due[6] - 0.186).abs() < 1e-9);
        // The backlog drains as the schedule catches up with the clock.
        assert!((lags[18] - 0.005).abs() < 1e-9, "{}", lags[18]);
        assert!(lags[19..].iter().all(|l| *l == 0.0));
        // 13 arrivals were due during the stall and every one is charged.
        assert_eq!(lags.iter().filter(|l| **l > 0.0).count(), 13);
        // Timing from the send would have hidden all of it.
        assert_eq!(from_due.iter().filter(|l| **l > 2.0 * service).count(), 13);
        // Generator lag is reported as its own number.
        let lag = crate::stats::Latency::of(&lags);
        assert!((lag.p95 - 0.155).abs() < 1e-9, "{}", lag.p95);
    }

    #[test]
    fn schedule_is_seeded_and_has_the_asked_rate() {
        let a = exponential_schedule(&mut StdRng::seed_from_u64(3), 50.0, 4000);
        let b = exponential_schedule(&mut StdRng::seed_from_u64(3), 50.0, 4000);
        assert_eq!(a, b);
        assert_ne!(
            a,
            exponential_schedule(&mut StdRng::seed_from_u64(4), 50.0, 4000)
        );
        assert!(a.windows(2).all(|w| w[1] >= w[0]));
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate - 50.0).abs() < 0.5, "{rate}");
        // Exponential gaps: the median gap is ln 2 times the mean.
        let mut gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_by(|x, y| x.total_cmp(y));
        assert!((gaps[gaps.len() / 2] * 50.0 - std::f64::consts::LN_2).abs() < 0.01);
    }
}
