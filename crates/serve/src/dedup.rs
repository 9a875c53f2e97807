//! Execution dedup: identical submissions coalesce onto one execution.
//!
//! A submission's *execution identity* is `(program content-hash, input
//! fingerprint, device-relevant config)`. Two jobs with the same identity
//! are guaranteed the same result bits — the runtime is deterministic in
//! exactly those inputs (held to solo runs by `tests/concurrency.rs`) —
//! so the service runs the first one (the **leader**) and fans its result
//! out to every later duplicate (the **joiners**). Each joiner still gets
//! its own verdict, latency sample and accounting row; only the execution
//! itself (and its whole retry ladder) is suppressed.
//!
//! Under chaos the job salt seeds the fault draws and therefore the rung
//! walk, so the salt joins the key whenever the fleet has a fault template:
//! same key ⇒ same salt ⇒ identical ladder, so `dedup_joins`, rung
//! counters and fault totals do not depend on *which* duplicate led or on
//! when the duplicates coalesced — the threaded and the virtual-clock
//! driver agree on them whatever their timing. `chaos_panic` jobs never dedup — a
//! deliberately panicking probe must panic every time it is submitted.
//!
//! Completed identities are memoized in a bounded FIFO table so a duplicate
//! arriving *after* its leader retired still joins ("recently-completed"
//! dedup); the in-flight table handles duplicates that arrive while the
//! leader is still running.

use crate::cache::content_hash;
use crate::error::ServeError;
use crate::job::JobRequest;
use japonica::RunReport;
use japonica_ir::{ArrayData, Heap, Value};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Default capacity of the recently-completed memo table.
pub const DEFAULT_DEDUP_CAPACITY: usize = 1024;

/// Execution-dedup configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupConfig {
    /// Coalesce identical submissions onto one execution.
    pub enabled: bool,
    /// Entries retained in the recently-completed memo table (FIFO).
    pub capacity: usize,
}

impl Default for DedupConfig {
    fn default() -> DedupConfig {
        DedupConfig {
            enabled: false,
            capacity: DEFAULT_DEDUP_CAPACITY,
        }
    }
}

impl DedupConfig {
    /// Dedup on with the default memo capacity.
    pub fn enabled() -> DedupConfig {
        DedupConfig {
            enabled: true,
            capacity: DEFAULT_DEDUP_CAPACITY,
        }
    }
}

/// The execution identity of a submission.
///
/// `program` is the source content hash (the same FNV-1a the
/// [`crate::ProgramCache`] dedups compilations by); `fp` is a two-stream
/// 128-bit FNV fingerprint over the entry name, arguments, every heap
/// array's typed element bits, the resource request, and the
/// device-relevant knobs (`subloops_per_task`, `scheme_override`); `salt`
/// is the job salt under chaos and 0 otherwise. Colliding identities would
/// need a simultaneous collision in both independent 64-bit streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DedupKey {
    /// Program source content hash.
    pub program: u64,
    /// Two-stream input/config fingerprint.
    pub fp: (u64, u64),
    /// Job salt when fault injection is active (it seeds the rung walk);
    /// 0 when the fleet is fault-free.
    pub salt: u64,
}

/// Two independent FNV-1a streams over the same byte feed.
struct Fp {
    a: u64,
    b: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fp {
    fn new() -> Fp {
        Fp {
            a: FNV_OFFSET,
            // A distinct offset basis decorrelates the second stream.
            b: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn byte(&mut self, x: u8) {
        self.a = (self.a ^ x as u64).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ x as u64).wrapping_mul(FNV_PRIME.rotate_left(1) | 1);
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.byte(b);
        }
    }

    fn bytes(&mut self, xs: &[u8]) {
        for &b in xs {
            self.byte(b);
        }
    }

    fn value(&mut self, v: Value) {
        match v {
            Value::Bool(x) => {
                self.byte(0);
                self.byte(x as u8);
            }
            Value::Int(x) => {
                self.byte(1);
                self.u64(x as u32 as u64);
            }
            Value::Long(x) => {
                self.byte(2);
                self.u64(x as u64);
            }
            Value::Float(x) => {
                self.byte(3);
                self.u64(x.to_bits() as u64);
            }
            Value::Double(x) => {
                self.byte(4);
                self.u64(x.to_bits());
            }
            Value::Array(id) => {
                self.byte(5);
                self.u64(id.0 as u64);
            }
        }
    }

    fn array(&mut self, a: &ArrayData) {
        match a {
            ArrayData::Bool(v) => {
                self.byte(10);
                self.u64(v.len() as u64);
                for &x in v {
                    self.byte(x as u8);
                }
            }
            ArrayData::Int(v) => {
                self.byte(11);
                self.u64(v.len() as u64);
                for &x in v {
                    self.u64(x as u32 as u64);
                }
            }
            ArrayData::Long(v) => {
                self.byte(12);
                self.u64(v.len() as u64);
                for &x in v {
                    self.u64(x as u64);
                }
            }
            ArrayData::Float(v) => {
                self.byte(13);
                self.u64(v.len() as u64);
                for &x in v {
                    self.u64(x.to_bits() as u64);
                }
            }
            ArrayData::Double(v) => {
                self.byte(14);
                self.u64(v.len() as u64);
                for &x in v {
                    self.u64(x.to_bits());
                }
            }
        }
    }
}

/// Compute a request's execution identity. `chaos` must be true iff the
/// fleet has any fault template (the salt then decides the rung walk and
/// must discriminate).
pub fn dedup_key(req: &JobRequest, chaos: bool) -> DedupKey {
    let mut fp = Fp::new();
    fp.bytes(req.entry.as_bytes());
    fp.byte(0xff);
    fp.u64(req.args.len() as u64);
    for &v in &req.args {
        fp.value(v);
    }
    fp.u64(req.heap.array_count() as u64);
    for i in 0..req.heap.array_count() {
        if let Ok(a) = req.heap.array(japonica_ir::ArrayId(i as u32)) {
            fp.array(a);
        }
    }
    fp.u64(req.resources.sms as u64);
    fp.u64(req.resources.cpu_slots as u64);
    match req.subloops_per_task {
        None => fp.byte(0),
        Some(n) => {
            fp.byte(1);
            fp.u64(n as u64);
        }
    }
    match req.scheme_override {
        None => fp.byte(0),
        Some(s) => {
            fp.byte(1);
            fp.byte(s as u8);
        }
    }
    DedupKey {
        program: content_hash(&req.source),
        fp: (fp.a, fp.b),
        salt: if chaos { req.salt } else { 0 },
    }
}

/// A memoized execution result: everything a joiner's verdict needs.
#[derive(Debug)]
pub struct DoneEntry {
    /// The leader's verdict (report + result heap, or its typed error).
    pub verdict: Result<(RunReport, Heap), ServeError>,
    /// Ladder attempts the leader spent — each join suppresses this many.
    pub attempts: u64,
}

/// What a first-dispatch dedup lookup resolved to.
pub(crate) enum Lookup {
    /// First of its key: the job executes and leads the key.
    Lead,
    /// A leader is in flight: the job parks on it.
    InFlight,
    /// The key completed recently: the memoized verdict applies at once.
    Done(Arc<DoneEntry>),
}

/// The dedup registry: keys with a leader dispatched but not yet retired
/// (plus the duplicates parked on them) and the bounded FIFO memo of
/// recently completed keys. Pure state — the dispatch core owns one.
pub(crate) struct DedupState<W> {
    capacity: usize,
    inflight: BTreeMap<DedupKey, Vec<W>>,
    done: BTreeMap<DedupKey, Arc<DoneEntry>>,
    done_order: VecDeque<DedupKey>,
}

impl<W> DedupState<W> {
    /// An empty registry memoizing at most `capacity` completed keys.
    pub fn new(capacity: usize) -> DedupState<W> {
        DedupState {
            capacity,
            inflight: BTreeMap::new(),
            done: BTreeMap::new(),
            done_order: VecDeque::new(),
        }
    }

    pub fn lookup(&self, key: &DedupKey) -> Lookup {
        if self.inflight.contains_key(key) {
            Lookup::InFlight
        } else if let Some(e) = self.done.get(key) {
            Lookup::Done(Arc::clone(e))
        } else {
            Lookup::Lead
        }
    }

    /// Register `key`'s leader: later duplicates park instead of executing.
    pub fn lead(&mut self, key: DedupKey) {
        self.inflight.entry(key).or_default();
    }

    /// Park a duplicate on `key`'s in-flight leader.
    pub fn park(&mut self, key: DedupKey, waiter: W) {
        self.inflight.entry(key).or_default().push(waiter);
    }

    /// Retire `key`'s leader: memoize its verdict (bounded FIFO) and hand
    /// back every parked duplicate for fan-out.
    pub fn complete(&mut self, key: DedupKey, entry: Arc<DoneEntry>) -> Vec<W> {
        let waiters = self.inflight.remove(&key).unwrap_or_default();
        if self.capacity > 0 {
            if self.done.len() >= self.capacity {
                if let Some(old) = self.done_order.pop_front() {
                    self.done.remove(&old);
                }
            }
            if self.done.insert(key, entry).is_none() {
                self.done_order.push_back(key);
            }
        }
        waiters
    }

    /// Keys with a leader in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Take every parked duplicate (their leaders will never retire).
    pub fn drain_parked(&mut self) -> Vec<W> {
        std::mem::take(&mut self.inflight)
            .into_values()
            .flatten()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobRequest;

    fn req(src: &str, salt: u64) -> JobRequest {
        JobRequest::new(
            src,
            "f",
            vec![Value::Int(3)],
            Heap::default(),
            crate::ResourceRequest::new(1, 1),
        )
        .with_salt(salt)
    }

    #[test]
    fn identical_requests_share_a_key_and_salt_splits_under_chaos() {
        let a = dedup_key(&req("int f(int x) { return x; }", 1), false);
        let b = dedup_key(&req("int f(int x) { return x; }", 2), false);
        assert_eq!(a, b, "salt must not discriminate without chaos");
        let ca = dedup_key(&req("int f(int x) { return x; }", 1), true);
        let cb = dedup_key(&req("int f(int x) { return x; }", 2), true);
        assert_ne!(ca, cb, "salt decides the rung walk under chaos");
    }

    #[test]
    fn inputs_and_config_discriminate() {
        let base = req("int f(int x) { return x; }", 0);
        let k0 = dedup_key(&base, false);
        let mut other = req("int f(int x) { return x; }", 0);
        other.args = vec![Value::Int(4)];
        assert_ne!(k0, dedup_key(&other, false), "args");
        let mut heapy = req("int f(int x) { return x; }", 0);
        heapy.heap.alloc_init(ArrayData::Int(vec![7; 4]));
        assert_ne!(k0, dedup_key(&heapy, false), "heap contents");
        let subbed = req("int f(int x) { return x; }", 0).with_subloops(8);
        assert_ne!(k0, dedup_key(&subbed, false), "device-relevant config");
        let resized = {
            let mut r = req("int f(int x) { return x; }", 0);
            r.resources = crate::ResourceRequest::new(2, 2);
            r
        };
        assert_ne!(k0, dedup_key(&resized, false), "resource slice");
    }

    fn done(attempts: u64) -> Arc<DoneEntry> {
        Arc::new(DoneEntry {
            verdict: Ok((RunReport::default(), Heap::default())),
            attempts,
        })
    }

    #[test]
    fn state_leads_parks_and_memoizes() {
        let mut t: DedupState<u32> = DedupState::new(DEFAULT_DEDUP_CAPACITY);
        let k = dedup_key(&req("int f() { return 1; }", 0), false);
        assert!(matches!(t.lookup(&k), Lookup::Lead));
        t.lead(k);
        assert!(matches!(t.lookup(&k), Lookup::InFlight));
        t.park(k, 2);
        t.park(k, 3);
        assert_eq!(t.in_flight(), 1);
        assert_eq!(t.complete(k, done(1)), vec![2, 3]);
        assert_eq!(t.in_flight(), 0);
        // Late join hits the memo table.
        match t.lookup(&k) {
            Lookup::Done(e) => assert_eq!(e.attempts, 1),
            _ => panic!("late duplicate must take the memoized verdict"),
        }
    }

    #[test]
    fn memo_table_is_bounded_fifo() {
        let mut t: DedupState<u32> = DedupState::new(2);
        let keys: Vec<DedupKey> = (0..3)
            .map(|i| dedup_key(&req(&format!("int f() {{ return {i}; }}"), 0), false))
            .collect();
        for &k in &keys {
            assert!(matches!(t.lookup(&k), Lookup::Lead));
            t.lead(k);
            t.complete(k, done(1));
        }
        // Oldest key evicted; the two newest remain.
        assert!(matches!(t.lookup(&keys[0]), Lookup::Lead));
        assert!(matches!(t.lookup(&keys[1]), Lookup::Done(..)));
        assert!(matches!(t.lookup(&keys[2]), Lookup::Done(..)));
    }
}
