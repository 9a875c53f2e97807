//! The threaded driver of the dispatch core: a long-lived multi-tenant
//! service on the host clock.
//!
//! [`Serve`] is a [`DispatchCore`] behind a mutex plus a condition
//! variable. `submit` is *admit* + notify; each worker loops *next* →
//! execute the ticket outside the lock → *finish* → deliver the verdicts,
//! and sleeps on the condition variable — until the earliest retry turns
//! ready, or until an admit or a finish changes what `next` would say.
//! Every decision is the core's; this file supplies only the clock, the
//! threads and the result channels.
//!
//! Isolation argument: each admitted job owns its heap, executes on a
//! disjoint device slice, and layers the PR-1 retry/degrade ladder *inside
//! its own scheduler run*; neighbors never observe a fault. Above that,
//! the serve-layer failover ladder ([`crate::fleet`]) reacts to
//! whole-attempt device faults: retry on the same device, resubmit on the
//! healthiest other device, degrade to a CPU-only placement, and only then
//! return a typed [`ServeError::Exhausted`] verdict. A worker that
//! *panics* inside a job is contained too: the panic is caught, the slice
//! returns, the job fails alone as [`ServeError::Panicked`], and the
//! worker keeps serving.

use crate::cache::ProgramCache;
use crate::dispatch::{DispatchCore, KeyPolicy, Next, ServeConfig, Verdict};
use crate::error::{Rejected, ServeError};
use crate::job::{JobHandle, JobId, JobRequest, JobResult};
use crate::pool::PoolSnapshot;
use crate::stats::ServeStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Where a job's verdict goes.
type Delivery = (JobId, mpsc::Sender<Result<JobResult, ServeError>>);

struct Shared {
    core: Mutex<DispatchCore<Delivery>>,
    /// Signalled whenever `next` may answer differently: an admit, a
    /// finish, the close.
    changed: Condvar,
    cache: Arc<ProgramCache>,
    keys: KeyPolicy,
    started: Instant,
}

impl Shared {
    /// The core, with the service's clock read *under* the lock so event
    /// timestamps are ordered like the events.
    fn lock(&self) -> (MutexGuard<'_, DispatchCore<Delivery>>, f64) {
        let core = self.core.lock().unwrap_or_else(|e| e.into_inner());
        (core, self.started.elapsed().as_secs_f64())
    }
}

/// The running service. Dropping it drains the queue (every admitted job
/// still gets a verdict) and joins the workers.
pub struct Serve {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Serve {
    /// Start the service with `cfg.workers` dispatcher threads.
    pub fn start(cfg: ServeConfig) -> Serve {
        let cache = Arc::new(ProgramCache::new());
        let core = DispatchCore::new(&cfg, Arc::clone(&cache));
        let shared = Arc::new(Shared {
            keys: core.key_policy(),
            core: Mutex::new(core),
            changed: Condvar::new(),
            cache,
            started: Instant::now(),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Serve {
            shared,
            workers,
            next_id: AtomicU64::new(0),
        }
    }

    /// Submit one job. `Ok` means admitted: a verdict will arrive on the
    /// handle. `Err` is the synchronous admission-control verdict.
    pub fn submit(&self, req: JobRequest) -> Result<JobHandle, Rejected> {
        let job = self.shared.keys.key(req);
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = mpsc::channel();
        let (mut core, now) = self.shared.lock();
        let cancel = core.admit(job, (id, tx), now)?;
        drop(core);
        self.shared.changed.notify_one();
        Ok(JobHandle { id, cancel, rx })
    }

    /// Point-in-time statistics, read under the core's lock:
    /// `accounts_for_every_job()` holds on every snapshot.
    pub fn stats(&self) -> ServeStats {
        let (core, now) = self.shared.lock();
        core.stats(now)
    }

    /// Per-device utilization (for monitoring and lease-leak oracles).
    pub fn pool_snapshots(&self) -> Vec<PoolSnapshot> {
        let (core, now) = self.shared.lock();
        core.pool_snapshots(now)
    }

    /// The service's content-hash program cache. Sessions share it so a
    /// hot reload invalidates the stale program *here* — the next
    /// submission of the old hash recompiles instead of reusing a corpse —
    /// and so a LOAD-time compile is the same compile later RUNs hit.
    pub fn program_cache(&self) -> Arc<ProgramCache> {
        Arc::clone(&self.shared.cache)
    }

    /// Stop admissions and join the workers, who first drain the queue.
    fn drain(&mut self) {
        self.shared.lock().0.close();
        self.shared.changed.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Drain and stop: no new admissions, queued jobs still get verdicts,
    /// workers join. Returns the final statistics.
    pub fn shutdown(mut self) -> ServeStats {
        self.drain();
        self.stats()
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.drain();
    }
}

fn deliver((id, tx): Delivery, verdict: Verdict) {
    let _ = tx.send(verdict.map(|done| JobResult {
        id,
        report: done.report,
        heap: done.heap,
        queued_s: done.queued_s,
        latency_s: done.latency_s,
    }));
}

fn worker_loop(shared: &Shared) {
    let (mut core, mut now) = shared.lock();
    loop {
        match core.next(now) {
            Next::Retired(to, verdict) => deliver(to, verdict),
            Next::Dispatch(mut ticket) => {
                drop(core);
                let result = ticket.execute(&shared.cache);
                (core, now) = shared.lock();
                for (to, verdict) in core.finish(*ticket, result, now) {
                    deliver(to, verdict);
                }
                shared.changed.notify_all();
            }
            Next::Idle { ready_at } => {
                if ready_at.is_none() && core.is_closed() && core.running() == 0 {
                    // Drained. Whatever is still queued can never be
                    // placed; it gets its verdict rather than a hang.
                    for (to, verdict) in core.abandon() {
                        deliver(to, verdict);
                    }
                    return;
                }
                core = match ready_at {
                    Some(t) => shared
                        .changed
                        .wait_timeout(core, Duration::from_secs_f64((t - now).max(0.0)))
                        .map_or_else(|e| e.into_inner().0, |(guard, _)| guard),
                    None => shared.changed.wait(core).unwrap_or_else(|e| e.into_inner()),
                };
                now = shared.started.elapsed().as_secs_f64();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ResourceRequest;
    use japonica_ir::{Heap, Value};

    const SRC: &str = "static void scale(double[] a, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
    }";

    fn request(n: usize, sms: u32, cpus: u32) -> (JobRequest, japonica_ir::ArrayId) {
        let mut heap = Heap::new();
        let a = heap.alloc_doubles(&vec![1.0; n]);
        (
            JobRequest::new(
                SRC,
                "scale",
                vec![Value::Array(a), Value::Int(n as i32)],
                heap,
                ResourceRequest::new(sms, cpus),
            ),
            a,
        )
    }

    #[test]
    fn serves_concurrent_jobs_and_accounts_for_all() {
        let serve = Serve::start(ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        });
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (req, a) = request(2048, 7, 8);
                (serve.submit(req).expect("admitted"), a)
            })
            .collect();
        for (h, a) in handles {
            let r = h.wait().expect("completed");
            assert!(r.heap.read_doubles(a).unwrap().iter().all(|&v| v == 2.0));
            assert!(r.latency_s >= r.queued_s);
        }
        let stats = serve.shutdown();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.in_flight, 0);
        assert!(stats.accounts_for_every_job(), "{}", stats.summary());
        // 8 identical programs: 1 compile, 7 cache hits.
        assert_eq!(stats.program_cache_misses, 1);
        assert_eq!(stats.program_cache_hits, 7);
        assert_eq!(stats.latency.count(), 8);
    }

    #[test]
    fn oversized_request_is_rejected_invalid() {
        let serve = Serve::start(ServeConfig::default());
        let (req, _) = request(64, 99, 1);
        assert!(matches!(
            serve.submit(req),
            Err(Rejected::InvalidRequest(_))
        ));
        let stats = serve.shutdown();
        assert_eq!(stats.rejected_invalid, 1);
        assert!(stats.accounts_for_every_job());
    }

    #[test]
    fn bad_program_fails_alone() {
        let serve = Serve::start(ServeConfig::default());
        let mut bad = request(64, 2, 2).0;
        bad.source = "static void broken(".into();
        let good = request(2048, 7, 8).0;
        let hb = serve.submit(bad).unwrap();
        let hg = serve.submit(good).unwrap();
        assert!(matches!(hb.wait(), Err(ServeError::Compile(_))));
        assert!(hg.wait().is_ok());
        let stats = serve.shutdown();
        assert_eq!((stats.completed, stats.failed), (1, 1));
        assert!(stats.accounts_for_every_job());
    }

    #[test]
    fn cancellation_before_dispatch_is_honored() {
        // One worker, one huge-priority blocker job keeps the worker busy
        // while we cancel a queued job behind it.
        let serve = Serve::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (blocker, _) = request(65536, 14, 16);
        let hb = serve.submit(blocker.with_priority(200)).unwrap();
        let (victim, _) = request(64, 1, 1);
        let hv = serve.submit(victim.with_priority(1)).unwrap();
        hv.cancel();
        assert!(hb.wait().is_ok());
        assert!(matches!(hv.wait(), Err(ServeError::Cancelled)));
        let stats = serve.shutdown();
        assert_eq!(stats.cancelled, 1);
        assert!(stats.accounts_for_every_job());
    }

    #[test]
    fn zero_deadline_jobs_miss_deterministically() {
        let serve = Serve::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (blocker, _) = request(65536, 14, 16);
        let hb = serve.submit(blocker.with_priority(200)).unwrap();
        let (hopeless, _) = request(64, 1, 1);
        let hh = serve
            .submit(
                hopeless
                    .with_priority(1)
                    .with_deadline(std::time::Duration::ZERO),
            )
            .unwrap();
        assert!(hb.wait().is_ok());
        assert!(matches!(hh.wait(), Err(ServeError::DeadlineMissed { .. })));
        let stats = serve.shutdown();
        assert_eq!(stats.deadline_missed, 1);
        assert!(stats.accounts_for_every_job());
    }

    #[test]
    fn queue_full_rejects_with_backpressure() {
        let serve = Serve::start(ServeConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        // Occupy the worker so the queue cannot drain while we overfill.
        let (blocker, _) = request(65536, 14, 16);
        let hb = serve.submit(blocker.with_priority(200)).unwrap();
        let mut admitted = vec![hb];
        let mut rejected = 0;
        for _ in 0..6 {
            let (req, _) = request(64, 1, 1);
            match serve.submit(req.with_priority(1)) {
                Ok(h) => admitted.push(h),
                Err(Rejected::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected rejection {other}"),
            }
        }
        assert!(rejected >= 1, "backpressure never engaged");
        for h in admitted {
            h.wait().expect("admitted jobs complete");
        }
        let stats = serve.shutdown();
        assert_eq!(stats.rejected_full, rejected);
        assert!(stats.accounts_for_every_job(), "{}", stats.summary());
    }
}
