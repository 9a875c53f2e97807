//! Speculative memory: per-iteration write buffers + access metadata for
//! the dependency-checking phase.
//!
//! Everything the SE phase records lives in one [`SpecArena`]:
//!
//! * **write buffers** indexed by iteration offset (a sub-loop's
//!   iterations are a contiguous range), each location-sorted;
//! * **access metadata** in dense per-array tables indexed by
//!   `ArrayId.0`: per element two `u32` heads of index-linked lists —
//!   writer `(iter, warp)` pairs kept sorted and unique, reader records —
//!   whose nodes all come from one pooled `Vec`, with bitsets marking the
//!   touched elements so the DC scan and the reset only visit those.
//!
//! One recorded access is an array index plus a pool push: no allocation
//! per touched element, nothing to drop per element, and an arena can be
//! [reused](SpeculativeMemory::with_arena) across the rounds of a TLS loop
//! (reset walks the touched bitsets, not the arrays). Semantics are pinned
//! bit-identical to the map-based reference (see `MapModel` in the tests).

pub use japonica_gpusim::WriteList;
use japonica_gpusim::{AccessCtx, DeviceMemory, LaneMemory, ParallelLaneMemory, WarpAccess};
use japonica_ir::{ArrayData, ArrayId, ExecError, Value};
use std::collections::BTreeSet;
use std::ops::{Deref, DerefMut};

/// Result of the dependency-checking phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DcOutcome {
    /// Iterations that observed stale values (RAW violations), ascending.
    pub violating_iters: Vec<u64>,
    /// Violations where reader and writer sat in the same warp.
    pub intra_warp: u32,
    /// Violations across warps.
    pub inter_warp: u32,
    /// Metadata entries scanned (drives the DC time model).
    pub entries_scanned: u64,
}

impl DcOutcome {
    /// Did speculation succeed?
    pub fn success(&self) -> bool {
        self.violating_iters.is_empty()
    }

    /// Earliest violating iteration, if any.
    pub fn first_violation(&self) -> Option<u64> {
        self.violating_iters.first().copied()
    }
}

/// Dependence classification over one (sub-)loop's recorded accesses,
/// produced by [`SpeculativeMemory::dependence_stats`] for the profiler.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DepStats {
    /// Histogram of observed true-dependence distances (reader iteration
    /// minus the latest earlier writer), the raw material of von Praun's
    /// quantitative dependence model.
    pub td_distances: std::collections::BTreeMap<u64, u64>,
    /// True-dependence pair counts per array.
    pub td_by_array: std::collections::BTreeMap<japonica_ir::ArrayId, u64>,
    /// Cross-iteration read-after-write pairs (true dependences).
    pub raw_pairs: u64,
    /// Cross-iteration write-after-read pairs (anti dependences).
    pub war_pairs: u64,
    /// Cross-iteration write-after-write pairs (output dependences).
    pub waw_pairs: u64,
    /// Iterations carrying a true dependence on an earlier iteration.
    pub td_iters: std::collections::BTreeSet<u64>,
    /// Iterations carrying only-false dependences on earlier iterations.
    pub fd_iters: std::collections::BTreeSet<u64>,
    /// True-dependence pairs within one warp / across warps.
    pub intra_warp_td: u64,
    pub inter_warp_td: u64,
}

/// Fixed-capacity bitset over one array's element indices.
#[derive(Debug, Clone, Default)]
struct BitSet {
    words: Vec<u64>,
}

/// Set bit positions of one word at word index `wi`, ascending.
fn ones_of(wi: usize, mut w: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if w == 0 {
            return None;
        }
        let b = w.trailing_zeros() as usize;
        w &= w - 1;
        Some(wi * 64 + b)
    })
}

impl BitSet {
    /// All-clear set over `len` indices, keeping the allocation.
    fn resize(&mut self, len: usize) {
        self.words.resize(len.div_ceil(64), 0);
    }

    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set bit positions, ascending.
    fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| ones_of(wi, word))
    }

    /// Clear the set, handing every position that was set to `f`.
    fn drain_ones(&mut self, mut f: impl FnMut(usize)) {
        for (wi, word) in self.words.iter_mut().enumerate() {
            ones_of(wi, std::mem::take(word)).for_each(&mut f);
        }
    }
}

/// One iteration's buffered writes, sorted by location (so commits walk
/// locations in the same `(array, index)` order as the map-based
/// reference).
type IterBuf = Vec<((ArrayId, i64), Value)>;

/// Per-iteration write buffers, indexed by iteration offset from the
/// lowest iteration seen. Buffers past `used` are cleared spares kept for
/// their capacity.
#[derive(Debug, Default)]
struct IterBufs {
    lo: u64,
    used: usize,
    bufs: Vec<IterBuf>,
}

impl IterBufs {
    fn clear(&mut self) {
        self.bufs[..self.used].iter_mut().for_each(Vec::clear);
        self.used = 0;
    }

    /// `(iteration, its writes)` of every iteration that wrote, ascending.
    fn iter(&self) -> impl Iterator<Item = (u64, &IterBuf)> {
        let lo = self.lo;
        self.bufs[..self.used]
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(move |(i, b)| (lo + i as u64, b))
    }

    fn total(&self) -> u64 {
        self.iter().map(|(_, b)| b.len() as u64).sum()
    }

    /// Read-your-own-write lookup in `iter`'s buffer.
    fn read_own(&self, iter: u64, arr: ArrayId, idx: i64) -> Option<Value> {
        let off = iter.checked_sub(self.lo)?;
        let buf = self.bufs[..self.used].get(off as usize)?;
        buf.binary_search_by_key(&(arr, idx), |&(loc, _)| loc)
            .ok()
            .map(|p| buf[p].1)
    }

    fn buf_mut(&mut self, iter: u64) -> &mut IterBuf {
        let grow = |bufs: &mut Vec<IterBuf>, n: usize| {
            if bufs.len() < n {
                bufs.resize_with(n, Vec::new);
            }
        };
        if self.used == 0 {
            self.lo = iter;
        }
        if iter < self.lo {
            // Launches visit iterations ascending, so this is rare: re-base
            // by rotating empty spares in front of the buffers in use.
            let shift = (self.lo - iter) as usize;
            grow(&mut self.bufs, self.used + shift);
            self.bufs[..self.used + shift].rotate_right(shift);
            self.used += shift;
            self.lo = iter;
        }
        let off = (iter - self.lo) as usize;
        if off >= self.used {
            grow(&mut self.bufs, off + 1);
            self.used = off + 1;
        }
        &mut self.bufs[off]
    }

    fn write(&mut self, iter: u64, loc: (ArrayId, i64), v: Value) {
        let buf = self.buf_mut(iter);
        match buf.binary_search_by_key(&loc, |&(l, _)| l) {
            Ok(p) => buf[p].1 = v,
            Err(p) => buf.insert(p, (loc, v)),
        }
    }

    /// Take over another set of buffers. Iterations are disjoint across
    /// warps (one iteration, one warp); a shared one is merged defensively.
    fn adopt(&mut self, other: IterBufs) {
        let lo = other.lo;
        for (i, buf) in other.bufs.into_iter().take(other.used).enumerate() {
            if buf.is_empty() {
                continue;
            }
            let iter = lo + i as u64;
            let dst = self.buf_mut(iter);
            if dst.is_empty() {
                *dst = buf;
            } else {
                for (loc, v) in buf {
                    self.write(iter, loc, v);
                }
            }
        }
    }
}

/// One pooled list node: an access by iteration `iter` of warp `warp`.
/// `next` is the 1-based pool index of the following node, 0 at the end.
#[derive(Debug, Clone, Copy)]
struct Node {
    iter: u64,
    warp: u32,
    next: u32,
}

/// Access metadata for one device array: per element the heads (1-based
/// pool indices, 0 = empty) of its writer list — `(iter, warp)` pairs,
/// unique, descending, so the usual ascending arrival is a head insert —
/// and of its reader list (latest first; every consumer is a sum or a
/// set, so reader order is not observable). An array never touched has
/// empty tables.
#[derive(Debug, Default)]
struct ArrayMeta {
    writers: Vec<u32>,
    readers: Vec<u32>,
    touched_w: BitSet,
    touched_r: BitSet,
    n_writers: u64,
    n_readers: u64,
}

impl ArrayMeta {
    /// Note a read of element `idx` by iteration `iter` of warp `warp`.
    fn read(&mut self, nodes: &mut Vec<Node>, idx: usize, iter: u64, warp: u32) {
        let next = self.readers[idx];
        self.readers[idx] = push_node(nodes, Node { iter, warp, next });
        self.touched_r.set(idx);
        self.n_readers += 1;
    }

    /// Note `(iter, warp)` in element `idx`'s writer set.
    fn write(&mut self, nodes: &mut Vec<Node>, idx: usize, iter: u64, warp: u32) {
        let (mut prev, mut cur) = (0u32, self.writers[idx]);
        while cur != 0 {
            let n = nodes[cur as usize - 1];
            match (n.iter, n.warp).cmp(&(iter, warp)) {
                std::cmp::Ordering::Equal => return,
                std::cmp::Ordering::Less => break,
                std::cmp::Ordering::Greater => (prev, cur) = (cur, n.next),
            }
        }
        let new = push_node(
            nodes,
            Node {
                iter,
                warp,
                next: cur,
            },
        );
        match prev {
            0 => self.writers[idx] = new,
            p => nodes[p as usize - 1].next = new,
        }
        self.touched_w.set(idx);
        self.n_writers += 1;
    }
}

fn push_node(nodes: &mut Vec<Node>, node: Node) -> u32 {
    nodes.push(node);
    u32::try_from(nodes.len()).expect("metadata pool outgrew its u32 links")
}

/// The reusable allocation behind a [`SpeculativeMemory`]: write buffers,
/// dense per-array metadata tables and the node pool. See
/// [`SpeculativeMemory::with_arena`].
#[derive(Debug, Default)]
pub struct SpecArena {
    /// Buffered writes per iteration, location-sorted.
    writes: IterBufs,
    /// Indexed by `ArrayId.0` (device-resident ids are dense heap ids).
    meta: Vec<ArrayMeta>,
    nodes: Vec<Node>,
}

impl SpecArena {
    /// Forget everything recorded, keeping every allocation. Cost is
    /// proportional to what was touched (plus one bitset word per 64
    /// elements of each array ever seen), not to the arrays' lengths.
    fn reset(&mut self) {
        self.writes.clear();
        self.nodes.clear();
        for m in &mut self.meta {
            let ArrayMeta {
                writers,
                readers,
                touched_w,
                touched_r,
                ..
            } = m;
            touched_w.drain_ones(|i| writers[i] = 0);
            touched_r.drain_ones(|i| readers[i] = 0);
            m.n_writers = 0;
            m.n_readers = 0;
        }
    }

    fn entries(&self) -> u64 {
        self.meta.iter().map(|m| m.n_writers + m.n_readers).sum()
    }

    /// The nodes of the list starting at `head`.
    fn list(&self, head: u32) -> impl Iterator<Item = Node> + '_ {
        let mut cur = head;
        std::iter::from_fn(move || {
            let n = *self.nodes.get((cur as usize).checked_sub(1)?)?;
            cur = n.next;
            Some(n)
        })
    }

    /// Element `idx`'s writer pairs into `out`, ascending.
    fn writers_of(&self, m: &ArrayMeta, idx: usize, out: &mut Vec<(u64, u32)>) {
        out.clear();
        out.extend(self.list(m.writers[idx]).map(|n| (n.iter, n.warp)));
        out.reverse();
    }

    /// Metadata tables of `arr`, sized to its `len` elements. All-zero
    /// tables allocate lazily, so this costs what gets touched.
    fn meta_for(meta: &mut Vec<ArrayMeta>, arr: ArrayId, len: usize) -> &mut ArrayMeta {
        let a = arr.0 as usize;
        if meta.len() <= a {
            meta.resize_with(a + 1, ArrayMeta::default);
        }
        let m = &mut meta[a];
        if m.writers.len() != len {
            // Between resets every head is 0 and every bit clear.
            m.writers.resize(len, 0);
            m.readers.resize(len, 0);
            m.touched_w.resize(len);
            m.touched_r.resize(len);
        }
        m
    }

    /// The arena's metadata tables as a [`Record`].
    fn recorder(&mut self) -> (&mut IterBufs, MetaRecord<'_>) {
        let SpecArena {
            writes,
            meta,
            nodes,
        } = self;
        let rec = MetaRecord {
            meta,
            nodes,
            open: 0,
        };
        (writes, rec)
    }

    fn check(&self) -> DcOutcome {
        let mut out = DcOutcome {
            entries_scanned: self.entries(),
            ..DcOutcome::default()
        };
        let mut violators: BTreeSet<u64> = BTreeSet::new();
        let mut ws = Vec::new();
        for m in &self.meta {
            for i in m.touched_r.iter_ones() {
                if !m.touched_w.get(i) {
                    continue;
                }
                self.writers_of(m, i, &mut ws);
                for r in self.list(m.readers[i]) {
                    // Latest writer strictly earlier than the reader, if any.
                    let p = ws.partition_point(|&w| w < (r.iter, 0u32));
                    if p > 0 {
                        let (w_iter, w_warp) = ws[p - 1];
                        debug_assert!(w_iter < r.iter);
                        violators.insert(r.iter);
                        if w_warp == r.warp {
                            out.intra_warp += 1;
                        } else {
                            out.inter_warp += 1;
                        }
                    }
                }
            }
        }
        out.violating_iters = violators.into_iter().collect();
        out
    }

    fn dependence_stats(&self) -> DepStats {
        let mut st = DepStats::default();
        let mut ws = Vec::new();
        // FD carriers are writers, and every writer owns a write buffer:
        // mark them by buffer offset (most are marked many times over) and
        // build the set once, in order, at the end.
        let lo = self.writes.lo;
        let mut fd = BitSet::default();
        fd.resize(self.writes.used);
        for (a, m) in self.meta.iter().enumerate() {
            let arr = ArrayId(a as u32);
            for i in m.touched_r.iter_ones() {
                self.writers_of(m, i, &mut ws);
                for r in self.list(m.readers[i]) {
                    // RAW: latest earlier writer.
                    let p = ws.partition_point(|&w| w < (r.iter, 0u32));
                    if p > 0 {
                        let (w_iter, w_warp) = ws[p - 1];
                        debug_assert!(w_iter < r.iter);
                        st.raw_pairs += 1;
                        st.td_iters.insert(r.iter);
                        *st.td_distances.entry(r.iter - w_iter).or_insert(0) += 1;
                        *st.td_by_array.entry(arr).or_insert(0) += 1;
                        if w_warp == r.warp {
                            st.intra_warp_td += 1;
                        } else {
                            st.inter_warp_td += 1;
                        }
                    }
                    // WAR: earliest later writer (that write is anti-dependent).
                    let q = ws.partition_point(|&w| w < (r.iter + 1, 0u32));
                    if q < ws.len() {
                        let (w_iter, _) = ws[q];
                        debug_assert!(w_iter > r.iter);
                        st.war_pairs += 1;
                        fd.set((w_iter - lo) as usize);
                    }
                }
            }
            for i in m.touched_w.iter_ones() {
                self.writers_of(m, i, &mut ws);
                if ws.len() > 1 {
                    st.waw_pairs += ws.len() as u64 - 1;
                    for &(w, _) in ws.iter().skip(1) {
                        fd.set((w - lo) as usize);
                    }
                }
            }
        }
        st.fd_iters = fd.iter_ones().map(|off| lo + off as u64).collect();
        st
    }
}

/// Where a speculative memory records the global accesses it makes.
trait Record {
    /// Get ready for accesses to `arr`, `len` elements long: once per run
    /// of lanes naming one array.
    fn open(&mut self, arr: ArrayId, len: usize);
    /// An access to element `idx` of the open array.
    fn note(&mut self, idx: usize, iter: u64, warp: u32, write: bool);
}

/// A [`SpecArena`]'s metadata tables, the open array's resolved.
struct MetaRecord<'a> {
    meta: &'a mut Vec<ArrayMeta>,
    nodes: &'a mut Vec<Node>,
    open: usize,
}

impl Record for MetaRecord<'_> {
    fn open(&mut self, arr: ArrayId, len: usize) {
        SpecArena::meta_for(self.meta, arr, len);
        self.open = arr.0 as usize;
    }

    #[inline]
    fn note(&mut self, idx: usize, iter: u64, warp: u32, write: bool) {
        let m = &mut self.meta[self.open];
        match write {
            true => m.write(self.nodes, idx, iter, warp),
            false => m.read(self.nodes, idx, iter, warp),
        }
    }
}

/// A [`SpecView`]'s access log.
struct LogRecord<'a> {
    log: &'a mut Vec<Access>,
    open: ArrayId,
}

impl Record for LogRecord<'_> {
    fn open(&mut self, arr: ArrayId, _len: usize) {
        self.open = arr;
    }

    #[inline]
    fn note(&mut self, idx: usize, iter: u64, warp: u32, write: bool) {
        self.log.push(Access {
            arr: self.open,
            idx,
            iter,
            warp,
            write,
        });
    }
}

/// Resolve `arr` in `base` and open `rec` (`None`: records nothing) on it.
fn open<'b>(
    base: &'b DeviceMemory,
    rec: &mut Option<impl Record>,
    arr: ArrayId,
) -> Result<&'b ArrayData, ExecError> {
    let data = base.array(arr)?;
    if let Some(rec) = rec {
        rec.open(arr, data.len());
    }
    Ok(data)
}

/// One speculative load of element `idx` of the opened array `arr`
/// (`data`) by iteration `iter` of warp `warp`. Read-your-own-write: the
/// iteration's buffered update wins. Otherwise a global read, noted in
/// `rec`, of the (stale) pre-sub-loop value.
#[inline(always)]
fn load_one(
    writes: &IterBufs,
    (arr, data): (ArrayId, &ArrayData),
    rec: Option<&mut impl Record>,
    idx: i64,
    (iter, warp): (u64, u32),
) -> Result<Value, ExecError> {
    if let Some(v) = writes.read_own(iter, arr, idx) {
        return Ok(v);
    }
    let i = data.index_of(arr, idx)?;
    if let Some(rec) = rec {
        rec.note(i, iter, warp, false);
    }
    Ok(data.get(i))
}

/// One speculative store, like [`load_one`]: checked against the real
/// array so that an out-of-bounds store faults during SE, noted in `rec`,
/// buffered for iteration `iter`.
#[inline(always)]
fn store_one(
    writes: &mut IterBufs,
    (arr, data): (ArrayId, &ArrayData),
    rec: Option<&mut impl Record>,
    (idx, v): (i64, Value),
    (iter, warp): (u64, u32),
) -> Result<(), ExecError> {
    let i = data.index_of(arr, idx)?;
    if let Some(rec) = rec {
        rec.note(i, iter, warp, true);
    }
    writes.write(iter, (arr, idx), v);
    Ok(())
}

/// [`LaneMemory::load_warp`] of a speculative memory: per run of lanes
/// naming one array, the array resolved and `rec` opened once, then
/// [`load_one`] lane by lane — the very access a lane-by-lane `load` makes.
fn load_pass(
    writes: &IterBufs,
    base: &DeviceMemory,
    mut rec: Option<impl Record>,
    acc: &WarpAccess<'_>,
    row: &mut [Value],
) -> usize {
    let mut done = 0;
    for (arr, lanes) in acc.runs() {
        let Ok(data) = open(base, &mut rec, arr) else {
            break;
        };
        for &(l, _, idx) in lanes {
            let at = (acc.iters[l], acc.warp);
            let Ok(v) = load_one(writes, (arr, data), rec.as_mut(), idx, at) else {
                return done;
            };
            row[l] = v;
            done += 1;
        }
    }
    done
}

/// [`LaneMemory::store_warp`] of a speculative memory, one pass of
/// [`store_one`] like [`load_pass`].
fn store_pass(
    writes: &mut IterBufs,
    base: &DeviceMemory,
    mut rec: Option<impl Record>,
    acc: &WarpAccess<'_>,
    row: &[Value],
) -> usize {
    let mut done = 0;
    for (arr, lanes) in acc.runs() {
        let Ok(data) = open(base, &mut rec, arr) else {
            break;
        };
        for &(l, _, idx) in lanes {
            let at = (acc.iters[l], acc.warp);
            if store_one(writes, (arr, data), rec.as_mut(), (idx, row[l]), at).is_err() {
                return done;
            }
            done += 1;
        }
    }
    done
}

/// A [`SpeculativeMemory`]'s arena: its own, or one lent by the caller.
enum ArenaRef<'a> {
    Owned(SpecArena),
    Lent(&'a mut SpecArena),
}

impl Deref for ArenaRef<'_> {
    type Target = SpecArena;
    fn deref(&self) -> &SpecArena {
        match self {
            ArenaRef::Owned(a) => a,
            ArenaRef::Lent(a) => a,
        }
    }
}

impl DerefMut for ArenaRef<'_> {
    fn deref_mut(&mut self) -> &mut SpecArena {
        match self {
            ArenaRef::Owned(a) => a,
            ArenaRef::Lent(a) => a,
        }
    }
}

/// The SE-phase memory wrapper: buffers all stores per iteration and logs
/// global reads and writes for the DC phase.
pub struct SpeculativeMemory<'d> {
    base: &'d mut DeviceMemory,
    core: ArenaRef<'d>,
    overhead_cycles: f64,
    /// Record reader/writer metadata for the DC phase?
    tracked: bool,
}

impl<'d> SpeculativeMemory<'d> {
    /// Wrap device memory for one sub-loop's speculative execution.
    pub fn new(base: &'d mut DeviceMemory, overhead_cycles: f64) -> SpeculativeMemory<'d> {
        SpeculativeMemory {
            base,
            core: ArenaRef::Owned(SpecArena::default()),
            overhead_cycles,
            tracked: true,
        }
    }

    /// [`SpeculativeMemory::new`] recording into `arena`, which is reset
    /// first. A loop that speculates round after round passes the same
    /// arena each time and so allocates its tables, pool and buffers once;
    /// what an earlier round recorded is never visible to a later one.
    pub fn with_arena(
        base: &'d mut DeviceMemory,
        overhead_cycles: f64,
        arena: &'d mut SpecArena,
    ) -> SpeculativeMemory<'d> {
        arena.reset();
        SpeculativeMemory {
            base,
            core: ArenaRef::Lent(arena),
            overhead_cycles,
            tracked: true,
        }
    }

    /// [`SpeculativeMemory::with_arena`] for privatized execution (PE(V)):
    /// write buffers and read-your-own-write as ever, but no access
    /// metadata — no DC phase will run, and `check`/`dependence_stats` see
    /// no accesses. Buffered writes, commit order and every simulated
    /// cycle equal the tracked memory's.
    pub fn buffer_only(
        base: &'d mut DeviceMemory,
        overhead_cycles: f64,
        arena: &'d mut SpecArena,
    ) -> SpeculativeMemory<'d> {
        SpeculativeMemory {
            tracked: false,
            ..SpeculativeMemory::with_arena(base, overhead_cycles, arena)
        }
    }

    /// Number of metadata entries recorded so far.
    pub fn entries(&self) -> u64 {
        self.core.entries()
    }

    /// Total buffered writes.
    pub fn buffered_writes(&self) -> u64 {
        self.core.writes.total()
    }

    /// The DC phase: find read-after-write violations — a read by iteration
    /// `r` of a location some iteration `w < r` wrote during this sub-loop.
    /// Such a read observed the pre-sub-loop value instead of `w`'s update.
    pub fn check(&self) -> DcOutcome {
        self.core.check()
    }

    /// Full dependence classification of the recorded accesses, used by the
    /// dynamic profiler (the DC phase only needs the RAW subset).
    pub fn dependence_stats(&self) -> DepStats {
        self.core.dependence_stats()
    }

    /// The write buffers, the device and — when tracked — the metadata
    /// tables as a [`Record`].
    fn parts(&mut self) -> (&mut IterBufs, &DeviceMemory, Option<MetaRecord<'_>>) {
        let (writes, rec) = self.core.recorder();
        (writes, self.base, self.tracked.then_some(rec))
    }

    /// Apply the buffered writes of iterations `< upto` to global memory in
    /// iteration order, handing each to `each`.
    fn commit(
        self,
        upto: u64,
        mut each: impl FnMut((ArrayId, i64), Value),
    ) -> Result<(), ExecError> {
        for (iter, writes) in self.core.writes.iter() {
            if iter >= upto {
                break;
            }
            let ctx = AccessCtx {
                lane: 0,
                warp: 0,
                iter,
            };
            for &((arr, idx), v) in writes {
                self.base.store(ctx, arr, idx, v)?;
                each((arr, idx), v);
            }
        }
        Ok(())
    }

    /// Commit phase: apply buffered writes of iterations `< upto` to global
    /// memory in iteration order; discard the rest. Returns the number of
    /// values copied.
    pub fn commit_prefix(self, upto: u64) -> Result<u64, ExecError> {
        let mut copied = 0u64;
        self.commit(upto, |_, _| copied += 1)?;
        Ok(copied)
    }

    /// Commit everything (successful speculation).
    pub fn commit_all(self) -> Result<u64, ExecError> {
        self.commit_prefix(u64::MAX)
    }

    /// Commit everything to device memory *and* return the flattened,
    /// iteration-ordered write list, so callers can mirror the updates onto
    /// the host heap and account exact device-to-host byte counts (the
    /// sharing scheduler does both).
    pub fn commit_all_collect(self) -> Result<WriteList, ExecError> {
        let mut out = Vec::with_capacity(self.core.writes.total() as usize);
        self.commit(u64::MAX, |loc, v| out.push((loc, v)))?;
        Ok(out)
    }
}

/// One access a [`SpecView`] logged for the coordinator to replay.
struct Access {
    arr: ArrayId,
    idx: usize,
    iter: u64,
    warp: u32,
    write: bool,
}

/// One warp's private window onto a [`SpeculativeMemory`] during a
/// host-parallel speculative launch. Semantically *exactly* the sequential
/// wrapper: reads hit the warp's own per-iteration buffer first and
/// otherwise the (read-only during SE) pre-sub-loop device state, stores
/// buffer per iteration. Metadata is not built here: the view keeps a flat
/// log of its global accesses — so a view costs what its warp touches, not
/// the arrays' lengths — and the coordinator replays the logs in warp
/// order, which *is* the sequential recording order. The DC phase therefore
/// sees byte-identical conflict sets for every `host_threads` value.
pub struct SpecView<'v> {
    base: &'v DeviceMemory,
    writes: IterBufs,
    log: Vec<Access>,
    overhead_cycles: f64,
    tracked: bool,
}

/// One warp's harvested speculative effects: buffered writes plus the
/// access log the metadata is rebuilt from.
pub struct SpecDelta {
    writes: IterBufs,
    log: Vec<Access>,
}

impl SpecView<'_> {
    /// The write buffers, the device and — when tracked — the access log
    /// as a [`Record`].
    fn parts(&mut self) -> (&mut IterBufs, &DeviceMemory, Option<LogRecord<'_>>) {
        let rec = LogRecord {
            log: &mut self.log,
            open: ArrayId(0),
        };
        (&mut self.writes, self.base, self.tracked.then_some(rec))
    }
}

// Read-your-own-write within a view: iterations never span warps, so the
// warp's local buffer is authoritative for its own iterations.
impl LaneMemory for SpecView<'_> {
    fn load(&mut self, ctx: AccessCtx, arr: ArrayId, idx: i64) -> Result<Value, ExecError> {
        let (writes, base, mut rec) = self.parts();
        let data = open(base, &mut rec, arr)?;
        load_one(writes, (arr, data), rec.as_mut(), idx, (ctx.iter, ctx.warp))
    }

    fn store(&mut self, ctx: AccessCtx, arr: ArrayId, idx: i64, v: Value) -> Result<(), ExecError> {
        let (writes, base, mut rec) = self.parts();
        let data = open(base, &mut rec, arr)?;
        store_one(
            writes,
            (arr, data),
            rec.as_mut(),
            (idx, v),
            (ctx.iter, ctx.warp),
        )
    }

    fn array_len(&self, arr: ArrayId) -> Result<usize, ExecError> {
        self.base.array_len(arr)
    }

    fn placement(&self, arr: ArrayId) -> Option<(u64, u64)> {
        self.base.placement(arr)
    }

    fn overhead_cycles(&self) -> f64 {
        self.overhead_cycles
    }

    fn load_warp(&mut self, acc: &WarpAccess<'_>, row: &mut [Value]) -> usize {
        let (writes, base, rec) = self.parts();
        load_pass(writes, base, rec, acc, row)
    }

    fn store_warp(&mut self, acc: &WarpAccess<'_>, row: &[Value]) -> usize {
        let (writes, base, rec) = self.parts();
        store_pass(writes, base, rec, acc, row)
    }
}

impl ParallelLaneMemory for SpeculativeMemory<'_> {
    type View<'v>
        = SpecView<'v>
    where
        Self: 'v;
    type Delta = SpecDelta;

    fn fork(&self) -> SpecView<'_> {
        SpecView {
            base: &*self.base,
            writes: IterBufs::default(),
            log: Vec::new(),
            overhead_cycles: self.overhead_cycles,
            tracked: self.tracked,
        }
    }

    fn harvest(view: SpecView<'_>) -> SpecDelta {
        SpecDelta {
            writes: view.writes,
            log: view.log,
        }
    }

    fn absorb(&mut self, delta: SpecDelta) -> Result<(), ExecError> {
        // The caller absorbs in warp order, so replaying each log in turn
        // records exactly what sequential execution would have.
        let (writes, mut rec) = self.core.recorder();
        for a in delta.log {
            rec.open(a.arr, self.base.array_len(a.arr)?);
            rec.note(a.idx, a.iter, a.warp, a.write);
        }
        writes.adopt(delta.writes);
        Ok(())
    }
}

impl LaneMemory for SpeculativeMemory<'_> {
    fn load(&mut self, ctx: AccessCtx, arr: ArrayId, idx: i64) -> Result<Value, ExecError> {
        let (writes, base, mut rec) = self.parts();
        let data = open(base, &mut rec, arr)?;
        load_one(writes, (arr, data), rec.as_mut(), idx, (ctx.iter, ctx.warp))
    }

    fn store(&mut self, ctx: AccessCtx, arr: ArrayId, idx: i64, v: Value) -> Result<(), ExecError> {
        let (writes, base, mut rec) = self.parts();
        let data = open(base, &mut rec, arr)?;
        store_one(
            writes,
            (arr, data),
            rec.as_mut(),
            (idx, v),
            (ctx.iter, ctx.warp),
        )
    }

    fn array_len(&self, arr: ArrayId) -> Result<usize, ExecError> {
        self.base.array_len(arr)
    }

    fn placement(&self, arr: ArrayId) -> Option<(u64, u64)> {
        self.base.placement(arr)
    }

    fn overhead_cycles(&self) -> f64 {
        self.overhead_cycles
    }

    fn load_warp(&mut self, acc: &WarpAccess<'_>, row: &mut [Value]) -> usize {
        let (writes, base, rec) = self.parts();
        load_pass(writes, base, rec, acc, row)
    }

    fn store_warp(&mut self, acc: &WarpAccess<'_>, row: &[Value]) -> usize {
        let (writes, base, rec) = self.parts();
        store_pass(writes, base, rec, acc, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use japonica_gpusim::DeviceConfig;
    use japonica_ir::Heap;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::collections::BTreeMap;

    /// One recorded global-memory read of the reference model.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct ReadRec {
        iter: u64,
        warp: u32,
    }

    fn ctx(iter: u64, warp: u32) -> AccessCtx {
        AccessCtx {
            lane: 0,
            warp,
            iter,
        }
    }

    fn device_with_array(vals: &[i64]) -> (DeviceMemory, ArrayId) {
        let mut heap = Heap::new();
        let a = heap.alloc_longs(vals);
        let mut dev = DeviceMemory::new();
        dev.copy_in(&heap, a, 0, vals.len(), &DeviceConfig::default())
            .unwrap();
        (dev, a)
    }

    #[test]
    fn independent_iterations_pass_dc() {
        let (mut dev, a) = device_with_array(&[0; 8]);
        let mut sm = SpeculativeMemory::new(&mut dev, 8.0);
        for i in 0..8u64 {
            sm.store(ctx(i, 0), a, i as i64, Value::Long(i as i64 * 10))
                .unwrap();
        }
        let dc = sm.check();
        assert!(dc.success());
        let n = sm.commit_all().unwrap();
        assert_eq!(n, 8);
        assert_eq!(dev.array(a).unwrap().get(3), Value::Long(30));
    }

    #[test]
    fn raw_violation_detected_with_reader_blamed() {
        let (mut dev, a) = device_with_array(&[0; 8]);
        let mut sm = SpeculativeMemory::new(&mut dev, 8.0);
        // iter 1 writes a[0]; iter 3 reads a[0] from global (stale).
        sm.store(ctx(1, 0), a, 0, Value::Long(99)).unwrap();
        let v = sm.load(ctx(3, 1), a, 0).unwrap();
        assert_eq!(v, Value::Long(0)); // stale!
        let dc = sm.check();
        assert_eq!(dc.violating_iters, vec![3]);
        assert_eq!(dc.inter_warp, 1);
        assert_eq!(dc.intra_warp, 0);
    }

    #[test]
    fn read_own_write_is_not_a_violation() {
        let (mut dev, a) = device_with_array(&[0; 4]);
        let mut sm = SpeculativeMemory::new(&mut dev, 8.0);
        sm.store(ctx(2, 0), a, 1, Value::Long(5)).unwrap();
        let v = sm.load(ctx(2, 0), a, 1).unwrap();
        assert_eq!(v, Value::Long(5)); // sees own buffer
        assert!(sm.check().success());
    }

    #[test]
    fn war_is_not_a_violation() {
        // iter 1 reads a[0]; iter 3 writes a[0]: anti-dependence is safe
        // because reads go to the pre-subloop global state.
        let (mut dev, a) = device_with_array(&[7; 4]);
        let mut sm = SpeculativeMemory::new(&mut dev, 8.0);
        assert_eq!(sm.load(ctx(1, 0), a, 0).unwrap(), Value::Long(7));
        sm.store(ctx(3, 0), a, 0, Value::Long(1)).unwrap();
        assert!(sm.check().success());
    }

    #[test]
    fn waw_commits_in_iteration_order() {
        let (mut dev, a) = device_with_array(&[0; 4]);
        let mut sm = SpeculativeMemory::new(&mut dev, 8.0);
        sm.store(ctx(5, 0), a, 0, Value::Long(55)).unwrap();
        sm.store(ctx(2, 0), a, 0, Value::Long(22)).unwrap();
        assert!(sm.check().success());
        sm.commit_all().unwrap();
        // last iteration (5) wins, like sequential execution
        assert_eq!(dev.array(a).unwrap().get(0), Value::Long(55));
    }

    #[test]
    fn commit_prefix_discards_violating_suffix() {
        let (mut dev, a) = device_with_array(&[0; 8]);
        let mut sm = SpeculativeMemory::new(&mut dev, 8.0);
        for i in 0..8u64 {
            sm.store(ctx(i, 0), a, i as i64, Value::Long(1)).unwrap();
        }
        let n = sm.commit_prefix(4).unwrap();
        assert_eq!(n, 4);
        assert_eq!(dev.array(a).unwrap().get(3), Value::Long(1));
        assert_eq!(dev.array(a).unwrap().get(4), Value::Long(0));
    }

    #[test]
    fn intra_warp_violation_classified() {
        let (mut dev, a) = device_with_array(&[0; 4]);
        let mut sm = SpeculativeMemory::new(&mut dev, 8.0);
        sm.store(ctx(0, 7), a, 2, Value::Long(1)).unwrap();
        sm.load(ctx(1, 7), a, 2).unwrap();
        let dc = sm.check();
        assert_eq!(dc.intra_warp, 1);
        assert_eq!(dc.inter_warp, 0);
    }

    #[test]
    fn entries_counted_for_dc_cost_model() {
        let (mut dev, a) = device_with_array(&[0; 4]);
        let mut sm = SpeculativeMemory::new(&mut dev, 8.0);
        sm.store(ctx(0, 0), a, 0, Value::Long(1)).unwrap();
        sm.load(ctx(1, 0), a, 1).unwrap();
        sm.load(ctx(2, 0), a, 1).unwrap();
        assert_eq!(sm.entries(), 3);
    }

    /// The lane sweeps hand a whole warp's loads to the memory's warp hook
    /// at once; speculative memory must record every lane of it, or a
    /// cross-lane read of an earlier lane's store would pass the DC phase.
    #[test]
    fn a_speculative_warp_records_every_lane_load() {
        let program = japonica_frontend::compile_source(
            "static void f(long[] a, int n) {
                /* acc parallel */
                for (int i = 1; i < n; i++) { a[i] = a[i - 1] + 1; }
            }",
        )
        .unwrap();
        let f = &program.functions[0];
        let loop_ = f.all_loops()[0].clone();
        let kernel = japonica_ir::compile_kernel(&program, &loop_).unwrap();
        let (mut dev, a) = device_with_array(&[0; 9]);
        let mut env = japonica_ir::Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(a));
        env.set(f.params[1].var, Value::Int(9));
        let bounds = japonica_ir::LoopBounds {
            start: 1,
            end: 9,
            step: 1,
        };
        let iters: Vec<u64> = (0..8).collect();
        let mut sm = SpeculativeMemory::new(&mut dev, 8.0);
        japonica_gpusim::SimtVm::new()
            .run_warp(
                &kernel,
                loop_.var,
                &bounds,
                &iters,
                &env,
                0,
                &mut sm,
                &DeviceConfig::default(),
            )
            .unwrap();
        assert_eq!(sm.entries(), 16, "eight loads and eight stores");
        assert_eq!(sm.check().violating_iters, (1..8).collect::<Vec<u64>>());
    }

    #[test]
    fn oob_store_faults_during_se() {
        let (mut dev, a) = device_with_array(&[0; 2]);
        let mut sm = SpeculativeMemory::new(&mut dev, 8.0);
        assert!(matches!(
            sm.store(ctx(0, 0), a, 9, Value::Long(1)),
            Err(ExecError::IndexOutOfBounds { .. })
        ));
    }

    /// The map-based bookkeeping the SoA core replaced, kept as an
    /// executable specification: a global `(array, index)`-keyed writer
    /// set / reader list pair with the original range queries.
    #[derive(Default)]
    struct MapModel {
        writes: BTreeMap<u64, BTreeMap<(ArrayId, i64), Value>>,
        writers: BTreeMap<(ArrayId, i64), BTreeSet<(u64, u32)>>,
        readers: BTreeMap<(ArrayId, i64), Vec<ReadRec>>,
    }

    impl MapModel {
        fn read(&mut self, iter: u64, warp: u32, arr: ArrayId, idx: i64) -> Option<Value> {
            if let Some(v) = self.writes.get(&iter).and_then(|b| b.get(&(arr, idx))) {
                return Some(*v);
            }
            self.readers
                .entry((arr, idx))
                .or_default()
                .push(ReadRec { iter, warp });
            None
        }

        fn write(&mut self, iter: u64, warp: u32, arr: ArrayId, idx: i64, v: Value) {
            self.writers
                .entry((arr, idx))
                .or_default()
                .insert((iter, warp));
            self.writes.entry(iter).or_default().insert((arr, idx), v);
        }

        fn check(&self) -> DcOutcome {
            let mut out = DcOutcome {
                entries_scanned: (self.writers.values().map(|s| s.len()).sum::<usize>()
                    + self.readers.values().map(|v| v.len()).sum::<usize>())
                    as u64,
                ..DcOutcome::default()
            };
            let mut violators: BTreeSet<u64> = BTreeSet::new();
            for (loc, readers) in &self.readers {
                if let Some(writers) = self.writers.get(loc) {
                    for r in readers {
                        if let Some(&(_, w_warp)) = writers.range(..(r.iter, 0u32)).next_back() {
                            violators.insert(r.iter);
                            if w_warp == r.warp {
                                out.intra_warp += 1;
                            } else {
                                out.inter_warp += 1;
                            }
                        }
                    }
                }
            }
            out.violating_iters = violators.into_iter().collect();
            out
        }

        fn dependence_stats(&self) -> DepStats {
            let mut st = DepStats::default();
            for (loc, readers) in &self.readers {
                let writers = self.writers.get(loc);
                for r in readers {
                    if let Some(ws) = writers {
                        if let Some(&(w_iter, w_warp)) = ws.range(..(r.iter, 0u32)).next_back() {
                            st.raw_pairs += 1;
                            st.td_iters.insert(r.iter);
                            *st.td_distances.entry(r.iter - w_iter).or_insert(0) += 1;
                            *st.td_by_array.entry(loc.0).or_insert(0) += 1;
                            if w_warp == r.warp {
                                st.intra_warp_td += 1;
                            } else {
                                st.inter_warp_td += 1;
                            }
                        }
                        if let Some(&(w_iter, _)) = ws.range((r.iter + 1, 0u32)..).next() {
                            st.war_pairs += 1;
                            st.fd_iters.insert(w_iter);
                        }
                    }
                }
            }
            for ws in self.writers.values() {
                if ws.len() > 1 {
                    st.waw_pairs += ws.len() as u64 - 1;
                    for &(w, _) in ws.iter().skip(1) {
                        st.fd_iters.insert(w);
                    }
                }
            }
            st
        }

        fn commit_order(&self) -> Vec<(u64, (ArrayId, i64), Value)> {
            let mut out = Vec::new();
            for (&iter, writes) in &self.writes {
                for (&loc, &v) in writes {
                    out.push((iter, loc, v));
                }
            }
            out
        }
    }

    /// One access of a test stream: `(iter, warp, array #, index, is_write)`.
    type Op = (u64, u32, usize, i64, bool);

    /// Deterministic pseudo-random access stream (xorshift, fixed seed).
    fn access_stream(n: usize, arrays: usize, len: usize) -> Vec<Op> {
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        (0..n)
            .map(|_| {
                let iter = next() % 64;
                let warp = (iter / 8) as u32;
                let arr = (next() % arrays as u64) as usize;
                let idx = (next() % len as u64) as i64;
                let is_write = next() % 2 == 0;
                (iter, warp, arr, idx, is_write)
            })
            .collect()
    }

    /// `count` zeroed `long[len]` arrays, resident on a fresh device.
    fn device_with_arrays(count: usize, len: usize) -> (DeviceMemory, Vec<ArrayId>) {
        let mut heap = Heap::new();
        let arrs: Vec<ArrayId> = (0..count)
            .map(|_| heap.alloc_longs(&vec![0; len]))
            .collect();
        let mut dev = DeviceMemory::new();
        for &a in &arrs {
            dev.copy_in(&heap, a, 0, len, &DeviceConfig::default())
                .unwrap();
        }
        (dev, arrs)
    }

    fn value_of(iter: u64, idx: i64) -> Value {
        Value::Long((iter * 1000 + idx as u64) as i64)
    }

    /// Feed `ops` to `mem` (a speculative memory or one warp's view).
    fn replay(mem: &mut impl LaneMemory, arrs: &[ArrayId], ops: &[Op]) {
        for &(iter, warp, ai, idx, is_write) in ops {
            if is_write {
                mem.store(ctx(iter, warp), arrs[ai], idx, value_of(iter, idx))
                    .unwrap();
            } else {
                mem.load(ctx(iter, warp), arrs[ai], idx).unwrap();
            }
        }
    }

    /// The map-based executable spec's account of `ops`.
    fn model_of(arrs: &[ArrayId], ops: &[Op]) -> MapModel {
        let mut model = MapModel::default();
        for &(iter, warp, ai, idx, is_write) in ops {
            if is_write {
                model.write(iter, warp, arrs[ai], idx, value_of(iter, idx));
            } else {
                model.read(iter, warp, arrs[ai], idx);
            }
        }
        model
    }

    /// Everything observable about `sm` before commit equals the model's
    /// account: DC outcome, dependence stats, entry count, commit order
    /// element for element (iteration ascending, location ascending within
    /// one). Then commits the prefix below `upto`; returns the count.
    fn check_and_commit(
        sm: SpeculativeMemory<'_>,
        model: &MapModel,
        upto: u64,
    ) -> Result<u64, TestCaseError> {
        prop_assert_eq!(sm.check(), model.check());
        prop_assert_eq!(sm.dependence_stats(), model.dependence_stats());
        prop_assert_eq!(sm.entries(), model.check().entries_scanned);
        let expect = model.commit_order();
        let flat: Vec<_> = sm
            .core
            .writes
            .iter()
            .flat_map(|(iter, buf)| buf.iter().map(move |&(loc, v)| (iter, loc, v)))
            .collect();
        prop_assert_eq!(&flat, &expect);
        prop_assert_eq!(sm.buffered_writes(), expect.len() as u64);
        Ok(sm.commit_prefix(upto).unwrap())
    }

    /// `dev` (zeroed `len`-element arrays before the commit) holds exactly
    /// the model's writes of iterations below `upto`, `copied` of them.
    fn assert_committed(
        dev: &DeviceMemory,
        model: &MapModel,
        (arrs, len): (&[ArrayId], usize),
        upto: u64,
        copied: u64,
    ) -> Result<(), TestCaseError> {
        let (mut ref_dev, _) = device_with_arrays(arrs.len(), len);
        let mut ref_copied = 0u64;
        for (iter, (arr, idx), v) in model.commit_order() {
            if iter < upto {
                ref_dev.store(ctx(iter, 0), arr, idx, v).unwrap();
                ref_copied += 1;
            }
        }
        prop_assert_eq!(copied, ref_copied);
        for &a in arrs {
            prop_assert_eq!(dev.array(a).unwrap(), ref_dev.array(a).unwrap());
        }
        Ok(())
    }

    #[test]
    fn matches_map_based_reference_model() {
        // Drive the pooled core and the map-based executable spec through
        // the same deterministic access stream and demand identical DC
        // outcomes, dependence stats, and commit order — the determinism
        // contract the rollback fingerprint tests build on.
        let (mut dev, arrs) = device_with_arrays(3, 32);
        let ops = access_stream(4000, 3, 32);
        let mut sm = SpeculativeMemory::new(&mut dev, 8.0);
        let mut model = MapModel::default();
        for &(iter, warp, ai, idx, is_write) in &ops {
            let arr = arrs[ai];
            if is_write {
                let v = value_of(iter, idx);
                sm.store(ctx(iter, warp), arr, idx, v).unwrap();
                model.write(iter, warp, arr, idx, v);
            } else {
                let got = sm.load(ctx(iter, warp), arr, idx).unwrap();
                if let Some(own) = model.read(iter, warp, arr, idx) {
                    assert_eq!(got, own, "own-buffer read diverged");
                }
            }
        }
        let copied = check_and_commit(sm, &model, 40).unwrap();
        assert_committed(&dev, &model, (&arrs, 32), 40, copied).unwrap();
    }

    /// Streams over `arrays` short arrays, so elements collect repeated
    /// readers (GEMM's shared operand rows) and repeated writers, with
    /// iterations arriving out of order.
    fn op_stream(arrays: usize, len: i64, max: usize) -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (0u64..96, 0..arrays, 0..len, any::<bool>())
                .prop_map(|(iter, arr, idx, w)| (iter, (iter / 8) as u32, arr, idx, w)),
            1..max,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn long_streams_match_the_reference_model(
            ops in op_stream(4, 12, 1500),
            upto in 0u64..100,
        ) {
            let (mut dev, arrs) = device_with_arrays(4, 12);
            let mut sm = SpeculativeMemory::new(&mut dev, 8.0);
            replay(&mut sm, &arrs, &ops);
            let model = model_of(&arrs, &ops);
            let copied = check_and_commit(sm, &model, upto)?;
            assert_committed(&dev, &model, (&arrs, 12), upto, copied)?;
        }

        /// Two different streams through one reused arena behave like two
        /// fresh `SpeculativeMemory`s: nothing of the first round (heads,
        /// touched bits, pool nodes, buffers, counts) leaks into the second.
        #[test]
        fn a_reused_arena_equals_fresh_memories(
            first in op_stream(3, 10, 600),
            second in op_stream(3, 10, 600),
            upto in 0u64..100,
        ) {
            let mut arena = SpecArena::default();
            for ops in [&first, &second] {
                let (mut dev, arrs) = device_with_arrays(3, 10);
                let mut sm = SpeculativeMemory::with_arena(&mut dev, 8.0, &mut arena);
                replay(&mut sm, &arrs, ops);
                let model = model_of(&arrs, ops);
                let copied = check_and_commit(sm, &model, upto)?;
                assert_committed(&dev, &model, (&arrs, 10), upto, copied)?;
            }
        }

        /// Replaying per-warp slices through fork/harvest/absorb in warp
        /// order leaves bookkeeping identical to recording the whole stream
        /// sequentially in that order — including warps that touch nothing.
        #[test]
        fn sparse_forks_absorbed_in_warp_order_equal_sequential_recording(
            ops in op_stream(3, 10, 800),
            upto in 0u64..100,
        ) {
            let (mut dev, arrs) = device_with_arrays(3, 10);
            let mut par = SpeculativeMemory::new(&mut dev, 8.0);
            let mut in_warp_order = Vec::new();
            let mut deltas = Vec::new();
            for w in 0..13u32 {
                let slice: Vec<Op> = ops.iter().copied().filter(|op| op.1 == w).collect();
                let mut view = par.fork();
                replay(&mut view, &arrs, &slice);
                deltas.push(SpeculativeMemory::harvest(view));
                in_warp_order.extend(slice);
            }
            for d in deltas {
                par.absorb(d).unwrap();
            }
            let model = model_of(&arrs, &in_warp_order);
            let copied = check_and_commit(par, &model, upto)?;
            assert_committed(&dev, &model, (&arrs, 10), upto, copied)?;
        }
    }

    /// Elements of each array of the warp-hook proptest.
    const WARP_LEN: usize = 12;

    /// One warp access of the warp-hook proptest: the warp, whether it
    /// stores, and each accessing lane's `(lane, array #, index)` — array
    /// # 3 is not resident.
    #[derive(Debug, Clone)]
    struct WarpOp {
        warp: u32,
        store: bool,
        lanes: Vec<(usize, usize, i64)>,
    }

    /// Lane `l` of warp `w` runs iteration `8 w + l`.
    fn iters_of(warp: u32) -> Vec<u64> {
        (0..8).map(|l| u64::from(warp) * 8 + l).collect()
    }

    /// Random warps over three arrays: random masks, one array or a mix,
    /// indices a function of the iteration (so a load re-reads what the same
    /// iteration stored), one index for the warp or random ones, and now
    /// and then a middle lane out of bounds or on an array that is not
    /// resident.
    fn warp_stream(seed: u64) -> Vec<WarpOp> {
        let mut rng = TestRng::from_seed(seed);
        let mut shift = 0i64;
        (0..1 + rng.below(24))
            .map(|_| {
                let warp = rng.below(4) as u32;
                let mask = (rng.next_u64() as u32 & 0xff).max(1);
                if rng.below(2) == 0 {
                    shift = rng.below(4) as i64;
                }
                let (mixed, shape) = (rng.below(3) == 0, rng.below(3));
                let one = rng.below(3) as usize;
                let mut lanes: Vec<(usize, usize, i64)> = (0..8)
                    .filter(|l| mask >> l & 1 == 1)
                    .map(|l| {
                        let iter = i64::from(warp) * 8 + l as i64;
                        let idx = match shape {
                            0 => (iter + shift) % WARP_LEN as i64,
                            1 => shift,
                            _ => rng.below(WARP_LEN as u64) as i64,
                        };
                        let arr = if mixed { rng.below(3) as usize } else { one };
                        (l, arr, idx)
                    })
                    .collect();
                let middle = rng.below(lanes.len() as u64) as usize;
                match rng.below(8) {
                    0 => lanes[middle].2 = [-1, WARP_LEN as i64][rng.below(2) as usize],
                    1 => lanes[middle].1 = 3,
                    _ => {}
                }
                WarpOp {
                    warp,
                    store: rng.below(2) == 0,
                    lanes,
                }
            })
            .collect()
    }

    /// What one warp access left: its outcome and the loaded row.
    type WarpResult = (Result<(), (usize, ExecError)>, Vec<Value>);

    /// Feed `ops` to `mem` through the warp hooks (`hooks`) or lane by lane,
    /// each access stopping at its first failing lane; every lane access
    /// that went through is appended to `done` as a model op.
    fn drive(
        mem: &mut impl LaneMemory,
        arrs: &[ArrayId],
        ops: &[WarpOp],
        hooks: bool,
        done: &mut Vec<Op>,
    ) -> Vec<WarpResult> {
        let array = |ai: usize| arrs.get(ai).copied().unwrap_or(ArrayId(99));
        ops.iter()
            .map(|op| {
                let iters = iters_of(op.warp);
                let lanes: Vec<(usize, ArrayId, i64)> = op
                    .lanes
                    .iter()
                    .map(|&(l, ai, i)| (l, array(ai), i))
                    .collect();
                let mut row = vec![Value::Int(0); 8];
                if op.store {
                    for &(l, _, i) in &lanes {
                        row[l] = match i {
                            0.. => value_of(iters[l], i),
                            _ => Value::Long(i),
                        };
                    }
                }
                let acc = WarpAccess {
                    warp: op.warp,
                    iters: &iters,
                    lanes: &lanes,
                };
                let res = match (hooks, op.store) {
                    (true, false) => acc.load(mem, &mut row),
                    (true, true) => acc.store(mem, &row),
                    (false, _) => lanes.iter().try_for_each(|&(l, arr, i)| {
                        let at = ctx(iters[l], op.warp);
                        match op.store {
                            true => mem.store(at, arr, i, row[l]),
                            false => mem.load(at, arr, i).map(|v| row[l] = v),
                        }
                        .map_err(|e| (l, e))
                    }),
                };
                let failed = res.as_ref().err().map_or(usize::MAX, |&(l, _)| l);
                for &(l, ai, i) in op.lanes.iter().filter(|&&(l, ..)| l < failed) {
                    done.push((iters[l], op.warp, ai, i, op.store));
                }
                (res, row)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The warp hooks record, buffer, load and fail exactly like the
        /// lane-by-lane calls they replace: on fresh memories, on arenas
        /// reused across rounds and on buffer-only memories, the same loaded
        /// values and failing lane and error, and then the same DC outcome,
        /// dependence stats, entries and commit order as the map-based
        /// model of the lane accesses that went through.
        #[test]
        fn warp_hooks_record_what_lane_by_lane_calls_record(
            first in any::<u64>(),
            second in any::<u64>(),
            upto in 0u64..40,
        ) {
            let mut arenas = (SpecArena::default(), SpecArena::default());
            for (round, seed) in [first, first, second, second].into_iter().enumerate() {
                let ops = warp_stream(seed);
                let (mut dev_w, arrs) = device_with_arrays(3, WARP_LEN);
                let (mut dev_l, _) = device_with_arrays(3, WARP_LEN);
                let (mut hooked, mut by_lane) = match round {
                    0 => (
                        SpeculativeMemory::new(&mut dev_w, 8.0),
                        SpeculativeMemory::new(&mut dev_l, 8.0),
                    ),
                    1 | 2 => (
                        SpeculativeMemory::with_arena(&mut dev_w, 8.0, &mut arenas.0),
                        SpeculativeMemory::with_arena(&mut dev_l, 8.0, &mut arenas.1),
                    ),
                    _ => (
                        SpeculativeMemory::buffer_only(&mut dev_w, 8.0, &mut arenas.0),
                        SpeculativeMemory::buffer_only(&mut dev_l, 8.0, &mut arenas.1),
                    ),
                };
                let mut done = Vec::new();
                let got = drive(&mut hooked, &arrs, &ops, true, &mut Vec::new());
                let want = drive(&mut by_lane, &arrs, &ops, false, &mut done);
                prop_assert_eq!(&got, &want, "round {}", round);
                let model = model_of(&arrs, &done);
                if round < 3 {
                    let copied = check_and_commit(hooked, &model, upto)?;
                    prop_assert_eq!(check_and_commit(by_lane, &model, upto)?, copied);
                    assert_committed(&dev_w, &model, (&arrs, WARP_LEN), upto, copied)?;
                    assert_committed(&dev_l, &model, (&arrs, WARP_LEN), upto, copied)?;
                } else {
                    prop_assert_eq!(hooked.entries(), 0);
                    let order: WriteList =
                        model.commit_order().into_iter().map(|(_, loc, v)| (loc, v)).collect();
                    prop_assert_eq!(hooked.commit_all_collect().unwrap(), order.clone());
                    prop_assert_eq!(by_lane.commit_all_collect().unwrap(), order);
                }
            }
        }

        /// The same through warp views: each warp's accesses go to a view
        /// forked for it, hooked or lane by lane, and the deltas are
        /// absorbed in warp order.
        #[test]
        fn warp_hooks_on_views_absorb_what_lane_by_lane_calls_absorb(
            seed in any::<u64>(),
            upto in 0u64..40,
        ) {
            let ops = warp_stream(seed);
            let (mut dev_w, arrs) = device_with_arrays(3, WARP_LEN);
            let (mut dev_l, _) = device_with_arrays(3, WARP_LEN);
            let mut hooked = SpeculativeMemory::new(&mut dev_w, 8.0);
            let mut by_lane = SpeculativeMemory::new(&mut dev_l, 8.0);
            let mut done = Vec::new();
            for w in 0..4u32 {
                let slice: Vec<WarpOp> = ops.iter().filter(|op| op.warp == w).cloned().collect();
                let mut view = hooked.fork();
                let got = drive(&mut view, &arrs, &slice, true, &mut Vec::new());
                let delta = SpeculativeMemory::harvest(view);
                hooked.absorb(delta).unwrap();
                let mut view = by_lane.fork();
                let want = drive(&mut view, &arrs, &slice, false, &mut done);
                let delta = SpeculativeMemory::harvest(view);
                by_lane.absorb(delta).unwrap();
                prop_assert_eq!(&got, &want, "warp {}", w);
            }
            let model = model_of(&arrs, &done);
            let copied = check_and_commit(hooked, &model, upto)?;
            prop_assert_eq!(check_and_commit(by_lane, &model, upto)?, copied);
            assert_committed(&dev_w, &model, (&arrs, WARP_LEN), upto, copied)?;
            assert_committed(&dev_l, &model, (&arrs, WARP_LEN), upto, copied)?;
        }
    }

    #[test]
    fn buffer_only_buffers_and_commits_like_tracked_but_records_nothing() {
        let ops = access_stream(3000, 3, 32);
        let mut arena = SpecArena::default();
        let mut collected = Vec::new();
        for tracked in [true, false] {
            let (mut dev, arrs) = device_with_arrays(3, 32);
            let mut sm = if tracked {
                SpeculativeMemory::with_arena(&mut dev, 4.0, &mut arena)
            } else {
                SpeculativeMemory::buffer_only(&mut dev, 4.0, &mut arena)
            };
            // Half the stream directly, half through a forked warp view.
            let (direct, forked) = ops.split_at(ops.len() / 2);
            replay(&mut sm, &arrs, direct);
            let mut view = sm.fork();
            replay(&mut view, &arrs, forked);
            let delta = SpeculativeMemory::harvest(view);
            sm.absorb(delta).unwrap();
            assert_eq!(sm.overhead_cycles(), 4.0);
            if !tracked {
                assert_eq!(sm.entries(), 0);
                assert!(sm.check().success());
                assert_eq!(sm.dependence_stats(), DepStats::default());
            }
            let writes = sm.commit_all_collect().unwrap();
            let mem: Vec<_> = arrs
                .iter()
                .map(|a| dev.array(*a).unwrap().clone())
                .collect();
            collected.push((writes, mem));
        }
        assert_eq!(collected[0], collected[1]);
    }

    #[test]
    fn iterations_arriving_descending_rebase_the_buffers() {
        let (mut dev, arrs) = device_with_arrays(1, 4);
        let ops: Vec<Op> = (0..40u64)
            .rev()
            .map(|iter| (iter * 3, 0, 0, (iter % 4) as i64, true))
            .collect();
        let mut sm = SpeculativeMemory::new(&mut dev, 8.0);
        replay(&mut sm, &arrs, &ops);
        let model = model_of(&arrs, &ops);
        let copied = check_and_commit(sm, &model, 60).unwrap();
        assert_committed(&dev, &model, (&arrs, 4), 60, copied).unwrap();
    }
}
