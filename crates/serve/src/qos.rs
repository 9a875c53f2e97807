//! Weighted-fair QoS admission and dispatch order.
//!
//! Replaces the service's head-of-line strict priority with deficit-weighted
//! round-robin (DWRR) across tenant QoS tiers, plus an optional program-hash
//! batching overlay. One deterministic queue — [`DwrrCore`] — defines the
//! *total dispatch order law*; the dispatch core
//! ([`crate::DispatchCore`]) owns one and scans it:
//!
//! 1. **Batch preference.** If batching is enabled and the previous pop had
//!    program hash `H`, every queued job with hash `H` whose tenant has not
//!    exhausted its per-burst cap outranks all other jobs. Batched pops
//!    still charge their tenant's virtual clock, so batching reorders for
//!    cache warmth without changing long-run weighted shares.
//! 2. **Tenant order.** Tenants are served by ascending `(virtual time,
//!    tenant id)`. A pop charges the tenant `SCALE / weight` (integer
//!    arithmetic — no float drift), so a weight-10 tenant's clock advances
//!    ten times slower than a weight-1 tenant's and it receives ten times
//!    the pops while both are backlogged.
//! 3. **Within a tenant**, the old law is unchanged: priority descending,
//!    then admission sequence ascending.
//!
//! A single-tenant workload therefore reduces *exactly* to the pre-QoS
//! priority-then-FIFO order. An idle tenant's clock is caught up to the
//! minimum backlogged clock when it becomes busy again, so sleeping never
//! banks credit (standard start-time fairness).

use std::collections::BTreeMap;

/// Virtual-time quantum charged to a weight-1 tenant per pop. Integer
/// arithmetic keeps the clock exactly reproducible across replays; with
/// `u64` clocks and weights capped at `MAX_WEIGHT`, overflow needs ~2^44
/// pops.
const SCALE: u64 = 1 << 20;

/// Weights above this are clamped (a zero-charge tenant would starve all
/// others forever).
pub const MAX_WEIGHT: u32 = SCALE as u32;

/// Per-tenant weighted-fair admission configuration.
///
/// `weights[t]` is tenant `t`'s DWRR weight; tenants beyond the vector (or
/// with a configured weight of 0) get weight 1. An empty vector means "no
/// explicit QoS tiers": every tenant weighs 1 and no per-tenant admission
/// share is enforced, which for the common single-tenant case is exactly
/// the pre-QoS behavior.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QosConfig {
    /// DWRR weight per tenant id. Empty = all tenants weight 1, no
    /// per-tenant queue-capacity shares.
    pub weights: Vec<u32>,
}

impl QosConfig {
    /// The effective DWRR weight of `tenant` (configured weight, else 1).
    pub fn weight(&self, tenant: u32) -> u32 {
        self.weights
            .get(tenant as usize)
            .copied()
            .filter(|w| *w > 0)
            .unwrap_or(1)
            .min(MAX_WEIGHT)
    }

    /// The tenant's share of a queue of `capacity` slots: proportional to
    /// its weight over the configured total, never below one slot. With no
    /// configured weights there is no per-tenant share — only the global
    /// capacity bounds admission.
    pub fn tenant_cap(&self, capacity: usize, tenant: u32) -> usize {
        if self.weights.is_empty() {
            return capacity;
        }
        let total: u64 = (0..self.weights.len() as u32)
            .map(|t| self.weight(t) as u64)
            .sum::<u64>()
            .max(1);
        let w = self.weight(tenant) as u64;
        (((capacity as u64) * w / total) as usize).max(1)
    }
}

/// Program-hash batch dispatch configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchConfig {
    /// Prefer queued jobs sharing the previous pop's program hash.
    pub enabled: bool,
    /// Per-tenant cap on consecutive batched pops within one same-hash
    /// burst, so a hot program can never let one tenant monopolize a burst.
    pub cap: u32,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            enabled: false,
            cap: 4,
        }
    }
}

impl BatchConfig {
    /// Batching on with the default per-tenant burst cap.
    pub fn enabled() -> BatchConfig {
        BatchConfig {
            enabled: true,
            cap: 4,
        }
    }
}

/// Scheduling metadata carried by every queued job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobMeta {
    /// Job priority (higher first *within* a tenant).
    pub prio: u8,
    /// QoS tenant id (indexes [`QosConfig::weights`]).
    pub tenant: u32,
    /// Program content hash — the batching key.
    pub hash: u64,
}

/// Verdict returned by a [`DwrrCore::scan`] visitor for one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanVerdict {
    /// Remove this job from the queue (and charge its tenant).
    Take,
    /// Leave it queued and offer the next candidate in dispatch order.
    Skip,
}

#[derive(Debug)]
struct QueuedItem<T> {
    meta: JobMeta,
    seq: u64,
    item: T,
}

/// The deterministic DWRR + batching queue. Not thread-safe — it is part
/// of the single-threaded dispatch core.
#[derive(Debug)]
pub(crate) struct DwrrCore<T> {
    qos: QosConfig,
    batch: BatchConfig,
    /// Per-tenant subqueues ordered by (priority desc, seq asc). The key
    /// encodes that order directly: `(!prio, seq)` sorts ascending.
    tenants: BTreeMap<u32, BTreeMap<(u8, u64), QueuedItem<T>>>,
    /// Per-tenant virtual clocks (scaled integers).
    clock: BTreeMap<u32, u64>,
    /// Program hash of the most recent pop — the live batching burst.
    batch_hash: Option<u64>,
    /// Per-tenant pops inside the current burst.
    burst: BTreeMap<u32, u32>,
    next_seq: u64,
    len: usize,
}

impl<T> DwrrCore<T> {
    pub fn new(qos: QosConfig, batch: BatchConfig) -> DwrrCore<T> {
        DwrrCore {
            qos,
            batch,
            tenants: BTreeMap::new(),
            clock: BTreeMap::new(),
            batch_hash: None,
            burst: BTreeMap::new(),
            next_seq: 0,
            len: 0,
        }
    }

    pub fn qos(&self) -> &QosConfig {
        &self.qos
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Jobs queued for one tenant (admission-share accounting).
    pub fn tenant_len(&self, tenant: u32) -> usize {
        self.tenants.get(&tenant).map_or(0, BTreeMap::len)
    }

    /// Enqueue a job, assigning it the next admission sequence number.
    pub fn push(&mut self, meta: JobMeta, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(meta, seq, item);
        seq
    }

    /// Enqueue with an explicit sequence number (re-admission of a faulted
    /// job keeps its original seq so it re-enters at its original rank).
    pub fn push_with_seq(&mut self, meta: JobMeta, seq: u64, item: T) {
        self.next_seq = self.next_seq.max(seq + 1);
        // Start-time catch-up: a tenant waking from idle starts at the
        // minimum backlogged clock, so it competes from "now" rather than
        // cashing in credit banked while asleep.
        if self.tenant_len(meta.tenant) == 0 {
            let floor = self
                .tenants
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .filter_map(|(t, _)| self.clock.get(t).copied())
                .min()
                .unwrap_or(0);
            let c = self.clock.entry(meta.tenant).or_insert(0);
            *c = (*c).max(floor);
        }
        self.tenants
            .entry(meta.tenant)
            .or_default()
            .insert((!meta.prio, seq), QueuedItem { meta, seq, item });
        self.len += 1;
    }

    /// Pop the head of the dispatch order unconditionally.
    pub fn pop(&mut self) -> Option<(JobMeta, u64, T)> {
        self.scan(|_, _| ScanVerdict::Take)
    }

    /// Offer queued jobs to `f` in the canonical dispatch order (batch
    /// preference, then tenant virtual time, then priority/seq) until `f`
    /// takes one; that job is removed, its tenant charged, and the batching
    /// burst state advanced. Skipped jobs are left queued and uncharged —
    /// this is the dispatch core's skip-over scan; `pop` is the same order
    /// law with an always-Take visitor.
    pub fn scan(
        &mut self,
        mut f: impl FnMut(&JobMeta, &mut T) -> ScanVerdict,
    ) -> Option<(JobMeta, u64, T)> {
        // Candidate order is static until a Take occurs (charging only
        // happens on Take, and scan returns at the first Take), so one
        // sorted snapshot of (batch-preferred, clock, tenant, !prio, seq)
        // keys enumerates it.
        let mut cands: Vec<(bool, u64, u32, (u8, u64))> = Vec::with_capacity(self.len);
        for (&tenant, q) in &self.tenants {
            let clock = self.clock.get(&tenant).copied().unwrap_or(0);
            let burst_ok = self.batch.enabled
                && self.burst.get(&tenant).copied().unwrap_or(0) < self.batch.cap;
            for (&key, it) in q.iter() {
                let preferred = burst_ok && self.batch_hash.is_some_and(|h| h == it.meta.hash);
                cands.push((!preferred, clock, tenant, key));
            }
        }
        cands.sort_unstable();
        for (_, _, tenant, key) in cands {
            let Some(q) = self.tenants.get_mut(&tenant) else {
                continue;
            };
            let Some(it) = q.get_mut(&key) else { continue };
            let meta = it.meta;
            match f(&meta, &mut it.item) {
                ScanVerdict::Skip => continue,
                ScanVerdict::Take => {
                    let taken = q.remove(&key);
                    self.len -= 1;
                    self.charge(meta);
                    return taken.map(|it| (it.meta, it.seq, it.item));
                }
            }
        }
        None
    }

    /// Advance the tenant's virtual clock and the batching burst for one
    /// taken job.
    fn charge(&mut self, meta: JobMeta) {
        let w = self.qos.weight(meta.tenant) as u64;
        *self.clock.entry(meta.tenant).or_insert(0) += SCALE / w;
        if self.batch.enabled {
            if self.batch_hash == Some(meta.hash) {
                *self.burst.entry(meta.tenant).or_insert(0) += 1;
            } else {
                self.batch_hash = Some(meta.hash);
                self.burst.clear();
                self.burst.insert(meta.tenant, 1);
            }
        }
    }

    /// Visit every queued job (arbitrary order, read-only) — the dispatch
    /// core's search for the earliest backoff ready-time.
    pub fn for_each(&self, mut f: impl FnMut(&JobMeta, &T)) {
        for q in self.tenants.values() {
            for it in q.values() {
                f(&it.meta, &it.item);
            }
        }
    }

    /// Drain every queued job in dispatch order.
    pub fn drain(&mut self) -> Vec<(JobMeta, u64, T)> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(entry) = self.pop() {
            out.push(entry);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(prio: u8, tenant: u32, hash: u64) -> JobMeta {
        JobMeta { prio, tenant, hash }
    }

    #[test]
    fn single_tenant_reduces_to_priority_then_fifo() {
        let mut q = DwrrCore::new(QosConfig::default(), BatchConfig::default());
        q.push(meta(5, 0, 1), "low-a");
        q.push(meta(200, 0, 2), "high-a");
        q.push(meta(5, 0, 3), "low-b");
        q.push(meta(200, 0, 4), "high-b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, _, v)| v).collect();
        assert_eq!(order, ["high-a", "high-b", "low-a", "low-b"]);
    }

    #[test]
    fn dwrr_shares_follow_weights() {
        // Weight 10 vs 1, both saturated: every 11-pop window serves the
        // heavy tenant 10 times.
        let qos = QosConfig {
            weights: vec![10, 1],
        };
        let mut q = DwrrCore::new(qos, BatchConfig::default());
        for i in 0..22u64 {
            q.push(meta(100, 0, i), "heavy");
            q.push(meta(100, 1, i), "light");
        }
        let first: Vec<(u32, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(m, seq, _)| (m.tenant, seq))
            .collect();
        let heavy = first.iter().take(22).filter(|(t, _)| *t == 0).count();
        assert_eq!(heavy, 20, "10:1 weights over 22 pops: {first:?}");
        // Within each tenant, order is still seq order.
        let heavy_seqs: Vec<u64> = first
            .iter()
            .filter(|(t, _)| *t == 0)
            .map(|(_, s)| *s)
            .collect();
        assert!(heavy_seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn idle_tenant_does_not_bank_credit() {
        let qos = QosConfig {
            weights: vec![1, 1],
        };
        let mut q = DwrrCore::new(qos, BatchConfig::default());
        // Tenant 0 alone pops 100 jobs; its clock advances far ahead.
        for i in 0..100u64 {
            q.push(meta(100, 0, i), 0u32);
        }
        for _ in 0..100 {
            q.pop();
        }
        // Tenant 1 wakes: it must not get 100 consecutive pops of "owed"
        // service — clocks interleave 1:1 from now on.
        for i in 0..8u64 {
            q.push(meta(100, 0, i), 0u32);
            q.push(meta(100, 1, i), 1u32);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(m, _, _)| m.tenant)
            .collect();
        let first4 = &order[..4];
        assert!(
            first4.contains(&0) && first4.contains(&1),
            "caught-up tenant must interleave, got {order:?}"
        );
    }

    #[test]
    fn batching_groups_same_hash_within_tenant_cap() {
        let qos = QosConfig {
            weights: vec![1, 1],
        };
        let batch = BatchConfig {
            enabled: true,
            cap: 2,
        };
        let mut q = DwrrCore::new(qos, batch);
        // Alternating hashes across two tenants; batching should group
        // same-hash runs up to 2 per tenant per burst.
        for i in 0..4u64 {
            q.push(meta(100, 0, 7), (0u32, i));
            q.push(meta(100, 0, 9), (0u32, 100 + i));
            q.push(meta(100, 1, 7), (1u32, i));
        }
        let hashes: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(m, _, _)| m.hash)
            .collect();
        // Count hash transitions: batching must produce fewer transitions
        // than strict round-robin would (which alternates constantly).
        let transitions = hashes.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            transitions <= 5,
            "batching should group hashes, got {hashes:?}"
        );
    }

    #[test]
    fn scan_skip_preserves_order_and_charges_nothing() {
        let mut q = DwrrCore::new(QosConfig::default(), BatchConfig::default());
        q.push(meta(200, 0, 1), "blocked");
        q.push(meta(5, 0, 2), "runnable");
        // Skip the head; the scan must offer the lower-priority job next.
        let got = q.scan(|_, item| {
            if *item == "blocked" {
                ScanVerdict::Skip
            } else {
                ScanVerdict::Take
            }
        });
        assert_eq!(got.map(|(_, _, v)| v), Some("runnable"));
        // The skipped head is untouched and still first.
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("blocked"));
    }

    #[test]
    fn tenant_caps_are_weight_proportional_and_never_zero() {
        let qos = QosConfig {
            weights: vec![10, 1],
        };
        assert_eq!(qos.tenant_cap(22, 0), 20);
        assert_eq!(qos.tenant_cap(22, 1), 2);
        // Tiny queues still give every tenant one slot.
        assert_eq!(qos.tenant_cap(2, 1), 1);
        // Unconfigured tenants weigh 1.
        assert_eq!(qos.weight(9), 1);
        // No weights configured: no per-tenant share.
        assert_eq!(QosConfig::default().tenant_cap(8, 3), 8);
    }
}
