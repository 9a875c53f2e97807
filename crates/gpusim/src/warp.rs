//! What the two register VMs ([`crate::vm::SimtVm`] over bytecode,
//! [`crate::native::NativeSimtVm`] over threaded code) share: the
//! struct-of-arrays lane register file, the execution context, and the
//! per-instruction lane sweeps whose charge order, coalescing segment sets
//! and per-lane error selection both must replay from the tree walker in
//! `simt.rs` bit for bit. Written once so the two tiers cannot drift.
//!
//! Every sweep works on the whole warp: its lane loop is [`for_lanes`], a
//! plain loop over the contiguous register row when every lane is live;
//! a row of one type on which the instruction cannot fail runs as one
//! typed pass ([`sweep`]) or a row move — operators, casts, moves and the
//! math intrinsics alike; a memory access reads its array and index rows
//! typed once per warp ([`LaneRegs::touch`]) and hands the whole warp to
//! the memory's warp hook ([`WarpAccess`]). What a fast form cannot take —
//! a lane of another type, a zero divisor, an index out of bounds, a lane
//! the hook stopped before — falls through to the lane-by-lane path inside
//! the same sweep, which owns every error.
//!
//! What an instruction *costs* is an [`Accounting`] policy the sweeps are
//! monomorphised over: [`WarpIssue`] is the GPU's (one issue per warp
//! instruction, coalesced memory transactions), [`LaneCounts`] the CPU
//! executor's (one op per live lane), which runs its CPU ranges through
//! these same sweeps via [`crate::vm::SimtVm::run_lanes`].

use crate::config::DeviceConfig;
use crate::memory::{LaneMemory, WarpAccess};
use crate::simt::SimtError;
use crate::stats::WarpStats;
use japonica_ir::{
    ops, ArrayId, BinOp, Env, ExecError, Intrinsic, LoopBounds, OpClass, OpCounts, Ty, UnOp, Value,
    VarId,
};
use std::cmp::Ordering;
use std::convert::{identity, Infallible};
use std::num::Wrapping;
use std::ops::{Add, BitAnd, BitOr, BitXor, Mul, Neg, Not, Range, Sub};

#[inline]
fn is_float(v: Value) -> bool {
    matches!(v, Value::Float(_) | Value::Double(_))
}

#[inline]
pub(crate) fn bit(l: usize) -> u32 {
    1u32 << l
}

/// Call-frame metadata kept on the Rust stack (static call chains are
/// bounded at compile time, so recursion depth is small).
pub(crate) struct Frame {
    /// Lanes that executed `return` in this frame.
    pub returned: u32,
    /// `false` at kernel top level, where `return` is illegal.
    pub allow_return: bool,
    /// Per-lane return values (only read when the callee declares a
    /// return type, in which case every returned lane wrote one).
    pub ret: [Value; 32],
}

impl Frame {
    pub fn new(allow_return: bool) -> Frame {
        Frame {
            returned: 0,
            allow_return,
            ret: [Value::Int(0); 32],
        }
    }
}

/// What one lane-sweep instruction costs, as a policy the sweeps and the
/// decode loop are monomorphised over — each machine model pays only for
/// its own bookkeeping.
pub(crate) trait Accounting {
    /// `true` when every lane is its own scalar thread, so the int/float
    /// cost class of an operator is each lane's own; `false` when the warp
    /// issues once and the first live lane's operands pick the class.
    const PER_LANE_CLASS: bool;
    /// One instruction of class `cls` issued under mask `live`.
    fn op(&mut self, cls: OpClass, live: u32);
    /// One branch decision taken under mask `live`.
    fn branch(&mut self, live: u32);
    /// The last branch split its lanes.
    fn diverged(&mut self);
    /// Spend one instruction sweep (or inner-loop round) of the batch's
    /// budget; `false` once it is gone. Only a machine model that can be
    /// fed values no sequential execution would see needs one.
    #[inline]
    fn sweep(&mut self) -> bool {
        true
    }
    /// One warp memory access over per-lane `(lane, array, index)` triples.
    fn mem_access<M: LaneMemory + ?Sized>(
        &mut self,
        seg_scratch: &mut Vec<u64>,
        touched: &[(usize, ArrayId, i64)],
        mem: &M,
    );
}

/// The GPU's accounting: one issue per warp instruction whatever the
/// mask, branch/divergence tallies, and coalesced memory transactions.
pub(crate) struct WarpIssue<'a> {
    pub stats: &'a mut WarpStats,
    pub cfg: &'a DeviceConfig,
}

impl Accounting for WarpIssue<'_> {
    const PER_LANE_CLASS: bool = false;
    #[inline]
    fn op(&mut self, cls: OpClass, _live: u32) {
        self.stats.charge(cls, &self.cfg.cost);
    }
    #[inline]
    fn branch(&mut self, _live: u32) {
        self.stats.charge(OpClass::Branch, &self.cfg.cost);
        self.stats.branches += 1;
    }
    #[inline]
    fn diverged(&mut self) {
        self.stats.divergent_branches += 1;
    }
    #[inline]
    fn mem_access<M: LaneMemory + ?Sized>(
        &mut self,
        seg_scratch: &mut Vec<u64>,
        touched: &[(usize, ArrayId, i64)],
        mem: &M,
    ) {
        charge_coalesced(seg_scratch, touched, mem, self.stats, self.cfg);
    }
}

/// The CPU's accounting: every lane is one iteration of a scalar thread,
/// so an instruction issued under mask `live` is one op *per live lane* —
/// exactly what `ScalarVm` charges running those iterations one by one.
/// While the whole batch is live a single count stands for every lane;
/// per-lane rows are touched only under divergence. No issue cycles, no
/// coalescing: CPU time comes from the folded counts alone.
#[derive(Debug, Clone, Default)]
pub struct LaneCounts {
    full: u32,
    uniform: OpCounts,
    rows: [OpCounts; 32],
    /// Lanes whose row is non-zero.
    partial: u32,
    /// Instruction sweeps the batch may still issue.
    sweeps_left: u64,
}

impl LaneCounts {
    /// Zeroed counts.
    pub fn new() -> LaneCounts {
        LaneCounts::default()
    }

    /// Reset for a batch of `lanes` lanes that may issue `sweeps`
    /// instruction sweeps.
    pub(crate) fn begin(&mut self, lanes: usize, sweeps: u64) {
        self.full = full_mask(lanes);
        self.sweeps_left = sweeps;
        self.uniform = OpCounts::new();
        each_lane(32, self.partial, |l| self.rows[l] = OpCounts::new());
        self.partial = 0;
    }

    /// One op of class `cls` on every lane of `live`.
    #[inline]
    pub(crate) fn record(&mut self, cls: OpClass, live: u32) {
        if live == self.full {
            self.uniform.record(cls);
        } else {
            self.partial |= live;
            each_lane(32, live, |l| self.rows[l].record(cls));
        }
    }

    /// Add everything lanes `lanes` of the last batch executed to `into`.
    pub fn fold(&self, lanes: Range<usize>, into: &mut OpCounts) {
        into.merge_scaled(&self.uniform, lanes.len() as u64);
        let mask = self.partial & full_mask(lanes.end) & !full_mask(lanes.start);
        each_lane(32, mask, |l| into.merge(&self.rows[l]));
    }
}

impl Accounting for &mut LaneCounts {
    const PER_LANE_CLASS: bool = true;
    #[inline]
    fn op(&mut self, cls: OpClass, live: u32) {
        self.record(cls, live);
    }
    #[inline]
    fn branch(&mut self, live: u32) {
        self.record(OpClass::Branch, live);
    }
    #[inline]
    fn diverged(&mut self) {}
    #[inline]
    fn sweep(&mut self) -> bool {
        let left = self.sweeps_left > 0;
        self.sweeps_left -= u64::from(left);
        left
    }
    #[inline]
    fn mem_access<M: LaneMemory + ?Sized>(
        &mut self,
        _: &mut Vec<u64>,
        _: &[(usize, ArrayId, i64)],
        _: &M,
    ) {
    }
}

/// The mask with lanes `0..lanes` set.
#[inline]
pub(crate) fn full_mask(lanes: usize) -> u32 {
    if lanes >= 32 {
        u32::MAX
    } else {
        bit(lanes) - 1
    }
}

/// The one lane loop: run `f` on every lane of `mask` (a subset of
/// `0..lanes`) in ascending order, stopping at the first error. A full mask
/// is a plain `0..lanes` loop over the contiguous register row; a partial
/// one walks its set bits. Every sweep and every per-lane loop of the
/// decode loops goes through here.
#[inline(always)]
pub(crate) fn for_lanes<E>(
    lanes: usize,
    mask: u32,
    mut f: impl FnMut(usize) -> Result<(), E>,
) -> Result<(), E> {
    if mask == full_mask(lanes) {
        for l in 0..lanes {
            f(l)?;
        }
    } else {
        let mut m = mask;
        while m != 0 {
            f(m.trailing_zeros() as usize)?;
            m &= m - 1;
        }
    }
    Ok(())
}

/// [`for_lanes`] for a body that cannot fail.
#[inline(always)]
pub(crate) fn each_lane(lanes: usize, mask: u32, mut f: impl FnMut(usize)) {
    let Ok(()) = for_lanes::<Infallible>(lanes, mask, |l| {
        f(l);
        Ok(())
    });
}

/// Execution context threaded through a warp's instruction walk. `M` is a
/// concrete memory for the bytecode VM and `dyn LaneMemory` for the native
/// tier, whose compiled closures are backend-agnostic; `A` is the machine
/// model's [`Accounting`].
pub(crate) struct WarpCtx<'a, M: LaneMemory + ?Sized, A: Accounting> {
    pub mem: &'a mut M,
    pub acct: A,
    pub iters: &'a [u64],
    pub warp_id: u32,
}

impl<M: LaneMemory + ?Sized, A: Accounting> WarpCtx<'_, M, A> {
    pub fn lane_err(&self, lane: usize, error: ExecError) -> SimtError {
        SimtError::Lane {
            iter: self.iters[lane],
            error,
        }
    }
}

/// Where a warp memory access finds its operands: the array variable's
/// register (also its boundness slot), that variable (for error text), and
/// the index register.
#[derive(Clone, Copy)]
pub(crate) struct Access {
    pub arr: usize,
    pub var: VarId,
    pub idx: usize,
}

/// Per-instruction execution geometry: lane count, the live mask (already
/// `mask & !returned`), and the register/boundness frame bases of the
/// executing chunk.
#[derive(Clone, Copy)]
pub(crate) struct LaneCtx {
    pub lanes: usize,
    pub live: u32,
    pub base: usize,
    pub bbase: usize,
}

impl LaneCtx {
    /// Is every lane of the warp live?
    #[inline]
    fn all_live(self) -> bool {
        self.live == full_mask(self.lanes)
    }

    /// [`for_lanes`] over the live lanes.
    #[inline(always)]
    fn try_each<E>(self, f: impl FnMut(usize) -> Result<(), E>) -> Result<(), E> {
        for_lanes(self.lanes, self.live, f)
    }

    /// [`each_lane`] over the live lanes.
    #[inline(always)]
    fn each(self, f: impl FnMut(usize)) {
        each_lane(self.lanes, self.live, f)
    }
}

/// Charge one coalesced warp memory access over the given per-lane
/// `(lane, array, index)` triples: one transaction per distinct memory
/// segment ([`distinct`]), plus the memory wrapper's per-access overhead.
/// An array's placement is resolved once per run of lanes touching it — in
/// practice once per warp.
pub(crate) fn charge_coalesced<M: LaneMemory + ?Sized>(
    seg_scratch: &mut Vec<u64>,
    touched: &[(usize, ArrayId, i64)],
    mem: &M,
    stats: &mut WarpStats,
    cfg: &DeviceConfig,
) {
    seg_scratch.clear();
    let seg_bytes = cfg.mem_segment_bytes as u64;
    let mut uncoalesced = 0u64;
    for run in touched.chunk_by(|a, b| a.1 == b.1) {
        let Some((base, elem)) = mem.placement(run[0].1) else {
            uncoalesced += run.len() as u64;
            continue;
        };
        for &(_, _, idx) in run {
            if idx < 0 {
                uncoalesced += 1;
                continue;
            }
            seg_scratch.push((base + idx as u64 * elem) / seg_bytes);
        }
    }
    let segs = distinct(seg_scratch) + uncoalesced;
    if segs > 0 {
        stats.charge_mem(segs, cfg.mem_tx_cycles);
    }
    let oh = mem.overhead_cycles();
    if oh > 0.0 {
        stats.charge_extra(oh);
    }
}

/// How many distinct ids `segs` holds. Ids that arrive non-decreasing —
/// stride-1 and uniform lanes — are counted in one scan; any other order is
/// sorted first.
fn distinct(segs: &mut [u64]) -> u64 {
    if !segs.is_sorted() {
        segs.sort_unstable();
    }
    segs.chunk_by(|a, b| a == b).count() as u64
}

/// A lane type the typed sweeps unbox.
trait Lane: Copy {
    fn of(v: Value) -> Option<Self>;
    fn val(self) -> Value;
}

/// A numeric lane type: integers as `Wrapping` so the std operators are
/// `ops::binary`'s wrapping ones.
trait Num:
    Lane
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
{
    /// `self / y`; `None` where `ops::binary` raises `DivisionByZero`.
    fn checked_div(self, y: Self) -> Option<Self>;
    /// `self % y`; `None` where `ops::binary` raises `DivisionByZero`.
    fn checked_rem(self, y: Self) -> Option<Self>;
}

/// An integral lane type.
trait Int:
    Num + BitAnd<Output = Self> + BitOr<Output = Self> + BitXor<Output = Self> + Not<Output = Self>
{
    /// The value as a shift count, before masking.
    fn count(self) -> i64;
    /// Java's `<<`: the count masked to the type's width.
    fn shl_masked(self, count: i64) -> Self;
    /// Java's `>>`.
    fn shr_masked(self, count: i64) -> Self;
    /// Java's `>>>`.
    fn ushr_masked(self, count: i64) -> Self;
}

macro_rules! impl_lane {
    ($t:ty, $V:ident, $wrap:expr, $unwrap:expr) => {
        impl Lane for $t {
            #[inline]
            fn of(v: Value) -> Option<$t> {
                match v {
                    Value::$V(x) => Some($wrap(x)),
                    _ => None,
                }
            }
            #[inline]
            fn val(self) -> Value {
                Value::$V($unwrap(self))
            }
        }
    };
}

impl_lane!(bool, Bool, identity, identity);
impl_lane!(Wrapping<i32>, Int, Wrapping, |w: Wrapping<i32>| w.0);
impl_lane!(Wrapping<i64>, Long, Wrapping, |w: Wrapping<i64>| w.0);
impl_lane!(f32, Float, identity, identity);
impl_lane!(f64, Double, identity, identity);

macro_rules! impl_float {
    ($t:ty) => {
        impl Num for $t {
            #[inline]
            fn checked_div(self, y: $t) -> Option<$t> {
                Some(self / y)
            }
            #[inline]
            fn checked_rem(self, y: $t) -> Option<$t> {
                Some(self % y)
            }
        }
    };
}

impl_float!(f32);
impl_float!(f64);

macro_rules! impl_int {
    ($s:ty, $u:ty, $mask:literal) => {
        impl Num for Wrapping<$s> {
            #[inline]
            fn checked_div(self, y: Self) -> Option<Self> {
                (y.0 != 0).then(|| Wrapping(self.0.wrapping_div(y.0)))
            }
            #[inline]
            fn checked_rem(self, y: Self) -> Option<Self> {
                (y.0 != 0).then(|| Wrapping(self.0.wrapping_rem(y.0)))
            }
        }

        impl Int for Wrapping<$s> {
            #[inline]
            fn count(self) -> i64 {
                self.0 as i64
            }
            #[inline]
            fn shl_masked(self, count: i64) -> Self {
                Wrapping(self.0.wrapping_shl((count & $mask) as u32))
            }
            #[inline]
            fn shr_masked(self, count: i64) -> Self {
                Wrapping(self.0.wrapping_shr((count & $mask) as u32))
            }
            #[inline]
            fn ushr_masked(self, count: i64) -> Self {
                Wrapping((self.0 as $u).wrapping_shr((count & $mask) as u32) as $s)
            }
        }
    };
}

impl_int!(i32, u32, 0x1f);
impl_int!(i64, u64, 0x3f);

/// The typed sweep: `dst = f(a, b)` on every live lane as one unboxed pass
/// that checks each lane's operands are `A` and `B` as it goes — no
/// per-lane tag dispatch, no error path. The first lane whose operands are
/// not, or on which `f` declines (`None`), abandons the sweep with `false`
/// returned, and the caller executes the instruction lane by lane through
/// `ops::*`, which owns every error. A unary sweep passes its operand row
/// twice.
///
/// The destination is written in place. The compiler gives every operator
/// a fresh temporary as its destination, never an operand, so a sweep
/// abandoned at lane `k` leaves the operands intact and has written only
/// live lanes below `k`, to the values the fallback writes there again.
#[inline(always)]
fn sweep<A: Lane, B: Lane>(
    regs: &mut [Value],
    (oa, ob, od): (usize, usize, usize),
    lc: LaneCtx,
    f: impl Fn(A, B) -> Option<Value>,
) -> bool {
    debug_assert!(od != oa && od != ob, "a sweep's destination is an operand");
    lc.try_each(|l| -> Result<(), ()> {
        regs[od + l] = f(
            A::of(regs[oa + l]).ok_or(())?,
            B::of(regs[ob + l]).ok_or(())?,
        )
        .ok_or(())?;
        Ok(())
    })
    .is_ok()
}

/// `dst = a op b` as a [`sweep`] over operands of one numeric type, for
/// the operators every numeric type has; `false` (nothing written) for the
/// rest. Value for value `ops::binary`'s same-type fast path, so results
/// and cost classes are unchanged.
fn num_sweep<T: Num>(
    regs: &mut [Value],
    rows: (usize, usize, usize),
    lc: LaneCtx,
    op: BinOp,
) -> bool {
    match op {
        BinOp::Add => sweep(regs, rows, lc, |x: T, y: T| Some((x + y).val())),
        BinOp::Sub => sweep(regs, rows, lc, |x: T, y: T| Some((x - y).val())),
        BinOp::Mul => sweep(regs, rows, lc, |x: T, y: T| Some((x * y).val())),
        BinOp::Div => sweep(regs, rows, lc, |x: T, y| x.checked_div(y).map(T::val)),
        BinOp::Rem => sweep(regs, rows, lc, |x: T, y| x.checked_rem(y).map(T::val)),
        BinOp::Lt => sweep(regs, rows, lc, |x: T, y: T| Some(Value::Bool(x < y))),
        BinOp::Le => sweep(regs, rows, lc, |x: T, y: T| Some(Value::Bool(x <= y))),
        BinOp::Gt => sweep(regs, rows, lc, |x: T, y: T| Some(Value::Bool(x > y))),
        BinOp::Ge => sweep(regs, rows, lc, |x: T, y: T| Some(Value::Bool(x >= y))),
        BinOp::Eq => sweep(regs, rows, lc, |x: T, y: T| Some(Value::Bool(x == y))),
        BinOp::Ne => sweep(regs, rows, lc, |x: T, y: T| Some(Value::Bool(x != y))),
        _ => false,
    }
}

/// [`num_sweep`] plus the bitwise operators and shifts of an integral type.
fn int_sweep<T: Int>(
    regs: &mut [Value],
    rows: (usize, usize, usize),
    lc: LaneCtx,
    op: BinOp,
) -> bool {
    match op {
        BinOp::And | BinOp::LAnd => sweep(regs, rows, lc, |x: T, y: T| Some((x & y).val())),
        BinOp::Or | BinOp::LOr => sweep(regs, rows, lc, |x: T, y: T| Some((x | y).val())),
        BinOp::Xor => sweep(regs, rows, lc, |x: T, y: T| Some((x ^ y).val())),
        BinOp::Shl | BinOp::Shr | BinOp::UShr => shift_sweep::<T, T>(regs, rows, lc, op),
        _ => num_sweep::<T>(regs, rows, lc, op),
    }
}

/// A shift of `T` lanes by counts of integral type `C` (a shift keeps its
/// left operand's type); `false` for any other operator.
fn shift_sweep<T: Int, C: Int>(
    regs: &mut [Value],
    rows: (usize, usize, usize),
    lc: LaneCtx,
    op: BinOp,
) -> bool {
    match op {
        BinOp::Shl => sweep(regs, rows, lc, |x: T, c: C| {
            Some(x.shl_masked(c.count()).val())
        }),
        BinOp::Shr => sweep(regs, rows, lc, |x: T, c: C| {
            Some(x.shr_masked(c.count()).val())
        }),
        BinOp::UShr => sweep(regs, rows, lc, |x: T, c: C| {
            Some(x.ushr_masked(c.count()).val())
        }),
        _ => false,
    }
}

/// `dst = -src` as a [`sweep`] (the operand row passed twice).
fn neg_sweep<T: Num>(regs: &mut [Value], rows: (usize, usize, usize), lc: LaneCtx) -> bool {
    sweep(regs, rows, lc, |x: T, _: T| Some((-x).val()))
}

/// `dst = ~src` as a [`sweep`].
fn not_sweep<T: Int>(regs: &mut [Value], rows: (usize, usize, usize), lc: LaneCtx) -> bool {
    sweep(regs, rows, lc, |x: T, _: T| Some((!x).val()))
}

/// `dst = g(src)` as a [`sweep`] over a `double` row.
#[inline(always)]
fn f64_sweep(
    regs: &mut [Value],
    rows: (usize, usize, usize),
    lc: LaneCtx,
    g: impl Fn(f64) -> f64,
) -> bool {
    sweep(regs, rows, lc, |x: f64, _: f64| Some(Value::Double(g(x))))
}

/// `Math.max` (`max`) or `Math.min` as `ops::intrinsic` picks: the first
/// operand unless the second is strictly greater (max) or strictly smaller
/// (min), so unordered and equal operands — NaN, `-0.0` against `0.0` —
/// give the first.
#[inline]
fn pick<T: PartialOrd>(max: bool, x: T, y: T) -> T {
    let take_x = match x.partial_cmp(&y) {
        Some(Ordering::Greater) => max,
        Some(Ordering::Less) => !max,
        _ => true,
    };
    if take_x {
        x
    } else {
        y
    }
}

/// `Math.max` / `Math.min` as a [`sweep`] over two rows of one type `T`.
fn pick_sweep<T: Lane + PartialOrd>(
    regs: &mut [Value],
    rows: (usize, usize, usize),
    lc: LaneCtx,
    max: bool,
) -> bool {
    sweep(regs, rows, lc, |x: T, y: T| Some(pick(max, x, y).val()))
}

/// `dst = f(args)` as a [`sweep`]: the one-operand functions over a
/// `double` row, `pow` / `max` / `min` over two, and `abs` / `max` / `min`
/// over `int` or `long` rows, each calling what `ops::intrinsic` calls for
/// those types; `false` (nothing written) for anything else.
fn intrinsic_sweep(
    regs: &mut [Value],
    lc: LaneCtx,
    f: Intrinsic,
    dst: usize,
    args: &[usize],
) -> bool {
    let row = |r: usize| lc.base + r * lc.lanes;
    let rows = match *args {
        [a] if f.arity() == 1 => (row(a), row(a), row(dst)),
        [a, b] if f.arity() == 2 => (row(a), row(b), row(dst)),
        _ => return false,
    };
    let first = regs[rows.0 + lc.live.trailing_zeros() as usize];
    let max = f == Intrinsic::Max;
    match (f, first) {
        (Intrinsic::Exp, Value::Double(_)) => f64_sweep(regs, rows, lc, f64::exp),
        (Intrinsic::Log, Value::Double(_)) => f64_sweep(regs, rows, lc, f64::ln),
        (Intrinsic::Sqrt, Value::Double(_)) => f64_sweep(regs, rows, lc, f64::sqrt),
        (Intrinsic::Sin, Value::Double(_)) => f64_sweep(regs, rows, lc, f64::sin),
        (Intrinsic::Cos, Value::Double(_)) => f64_sweep(regs, rows, lc, f64::cos),
        (Intrinsic::Floor, Value::Double(_)) => f64_sweep(regs, rows, lc, f64::floor),
        (Intrinsic::Ceil, Value::Double(_)) => f64_sweep(regs, rows, lc, f64::ceil),
        (Intrinsic::Abs, Value::Double(_)) => f64_sweep(regs, rows, lc, f64::abs),
        (Intrinsic::Abs, Value::Int(_)) => {
            sweep(regs, rows, lc, |x: Wrapping<i32>, _: Wrapping<i32>| {
                Some(Value::Int(x.0.wrapping_abs()))
            })
        }
        (Intrinsic::Abs, Value::Long(_)) => {
            sweep(regs, rows, lc, |x: Wrapping<i64>, _: Wrapping<i64>| {
                Some(Value::Long(x.0.wrapping_abs()))
            })
        }
        (Intrinsic::Pow, Value::Double(_)) => sweep(regs, rows, lc, |x: f64, y: f64| {
            Some(Value::Double(x.powf(y)))
        }),
        (Intrinsic::Max | Intrinsic::Min, Value::Double(_)) => {
            pick_sweep::<f64>(regs, rows, lc, max)
        }
        (Intrinsic::Max | Intrinsic::Min, Value::Int(_)) => {
            pick_sweep::<Wrapping<i32>>(regs, rows, lc, max)
        }
        (Intrinsic::Max | Intrinsic::Min, Value::Long(_)) => {
            pick_sweep::<Wrapping<i64>>(regs, rows, lc, max)
        }
        _ => false,
    }
}

/// Per-lane class selection: charge an operator `cls_f` on the live lanes
/// where `float` holds and `cls_i` on the rest.
fn charge_per_lane<A: Accounting>(
    acct: &mut A,
    lc: LaneCtx,
    (cls_i, cls_f): (OpClass, OpClass),
    float: impl Fn(usize) -> bool,
) {
    let mut fmask = 0u32;
    lc.each(|l| {
        if float(l) {
            fmask |= bit(l);
        }
    });
    for (cls, mask) in [(cls_f, fmask), (cls_i, lc.live & !fmask)] {
        if mask != 0 {
            acct.op(cls, mask);
        }
    }
}

/// The SoA lane register file: register `r` of lane `l` lives at
/// `frame_base + r * lanes + l` in one flat arena reused across warps;
/// per-variable boundness is a lane bitmask (the walker's per-lane `Env`
/// occupancy).
///
/// Frames are windows of a register stack that never shrinks, and no
/// window is cleared when it opens: what an earlier warp or call left there
/// is never read. A variable is read only on the lanes its `bound` mask
/// says wrote it (and every frame's masks start clear); a temporary is
/// written by the instruction that produces it, under the mask of every
/// later read.
#[derive(Debug, Default)]
pub(crate) struct LaneRegs {
    pub regs: Vec<Value>,
    pub bound: Vec<u32>,
    /// End of the innermost frame's window in `regs`.
    top: usize,
    /// Reusable distinct-segment scratch for coalescing charges.
    seg_scratch: Vec<u64>,
}

impl LaneRegs {
    /// Reset for one warp of a kernel whose entry chunk has `num_regs`
    /// registers and `num_vars` variables: bind `base_env`'s variables on
    /// every lane and the loop variable per lane. Returns the full mask.
    pub fn enter(
        &mut self,
        (num_regs, num_vars): (usize, usize),
        loop_var: VarId,
        bounds: &LoopBounds,
        warp_iters: &[u64],
        base_env: &Env,
    ) -> u32 {
        assert!(warp_iters.len() <= 32, "register VM lanes bounded at 32");
        let lanes = warp_iters.len();
        let full = full_mask(lanes);
        self.top = 0;
        self.bound.clear();
        self.push_frame((num_regs, num_vars), lanes);
        for v in 0..num_vars {
            let vid = VarId(v as u32);
            if base_env.is_set(vid) {
                if let Ok(val) = base_env.get(vid) {
                    self.regs[v * lanes..(v + 1) * lanes].fill(val);
                    self.bound[v] = full;
                }
            }
        }
        let vi = loop_var.index();
        for (l, &k) in warp_iters.iter().enumerate() {
            self.regs[vi * lanes + l] = Value::Int(bounds.value_of(k) as i32);
        }
        self.bound[vi] = full;
        full
    }

    /// Open a frame of `num_regs` registers and `num_vars` variables, all
    /// unbound, above the innermost one; returns its register and
    /// boundness bases. The stack grows only past its high-water mark.
    pub fn push_frame(
        &mut self,
        (num_regs, num_vars): (usize, usize),
        lanes: usize,
    ) -> (usize, usize) {
        let bases = (self.top, self.bound.len());
        self.top += num_regs * lanes;
        if self.regs.len() < self.top {
            self.regs.resize(self.top, Value::Int(0));
        }
        self.bound.resize(bases.1 + num_vars, 0);
        bases
    }

    /// Close the frame [`push_frame`](LaneRegs::push_frame) returned
    /// `bases` for.
    pub fn pop_frame(&mut self, (base, bbase): (usize, usize)) {
        self.top = base;
        self.bound.truncate(bbase);
    }

    #[inline]
    pub fn reg(&self, base: usize, lanes: usize, r: usize, l: usize) -> Value {
        self.regs[base + r * lanes + l]
    }

    #[inline]
    pub fn set_reg(&mut self, base: usize, lanes: usize, r: usize, l: usize, v: Value) {
        self.regs[base + r * lanes + l] = v;
    }

    /// Does every live lane of the row at offset `off` hold a `ty`?
    #[inline]
    fn row_is(&self, lc: LaneCtx, off: usize, ty: Ty) -> bool {
        lc.try_each(|l| {
            if self.regs[off + l].ty() == Some(ty) {
                Ok(())
            } else {
                Err(())
            }
        })
        .is_ok()
    }

    /// The row at offset `od` takes the row at `os` on every live lane.
    #[inline]
    fn move_row(&mut self, lc: LaneCtx, od: usize, os: usize) {
        if lc.all_live() {
            self.regs.copy_within(os..os + lc.lanes, od);
        } else {
            lc.each(|l| self.regs[od + l] = self.regs[os + l]);
        }
    }

    /// `dst = v` on every live lane.
    pub fn fill(&mut self, lc: LaneCtx, dst: usize, v: Value) {
        let od = lc.base + dst * lc.lanes;
        if lc.all_live() {
            self.regs[od..od + lc.lanes].fill(v);
        } else {
            lc.each(|l| self.regs[od + l] = v);
        }
    }

    /// `dst = src` (a variable read) on every live lane; the lowest live
    /// lane on which the variable is unbound raises `UnboundVariable`.
    pub fn copy<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        dst: usize,
        src: usize,
        ctx: &WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        let unbound = lc.live & !self.bound[lc.bbase + src];
        if unbound != 0 {
            let l = unbound.trailing_zeros() as usize;
            return Err(ctx.lane_err(l, ExecError::UnboundVariable(VarId(src as u32))));
        }
        let n = lc.lanes;
        self.move_row(lc, lc.base + dst * n, lc.base + src * n);
        Ok(())
    }

    /// Convert the lanes of `sub` to a truth bitmask, raising the walker's
    /// per-lane boolean `TypeMismatch` in lane order.
    pub fn truth_mask<M: LaneMemory + ?Sized, A: Accounting>(
        &self,
        lc: LaneCtx,
        r: usize,
        sub: u32,
        ctx: &WarpCtx<'_, M, A>,
    ) -> Result<u32, SimtError> {
        let mut truth = 0u32;
        let or = lc.base + r * lc.lanes;
        for_lanes(lc.lanes, sub, |l| {
            match self.regs[or + l] {
                Value::Bool(true) => truth |= bit(l),
                Value::Bool(false) => {}
                other => {
                    return Err(ctx.lane_err(
                        l,
                        ExecError::TypeMismatch {
                            expected: "boolean".into(),
                            found: format!("{other}"),
                        },
                    ))
                }
            }
            Ok(())
        })?;
        Ok(truth)
    }

    /// `dst = op src` on every live lane; the int/float cost class is the
    /// first live lane's operand's, or each lane's own
    /// ([`Accounting::PER_LANE_CLASS`]).
    #[allow(clippy::too_many_arguments)]
    pub fn unary<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        op: UnOp,
        dst: usize,
        src: usize,
        (cls_i, cls_f): (OpClass, OpClass),
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        let n = lc.lanes;
        let (os, od) = (lc.base + src * n, lc.base + dst * n);
        let first = self.regs[os + lc.live.trailing_zeros() as usize];
        let cls = if is_float(first) { cls_f } else { cls_i };
        let rows = (os, os, od);
        let regs = &mut self.regs;
        let swept = match (op, first) {
            (UnOp::Neg, Value::Int(_)) => neg_sweep::<Wrapping<i32>>(regs, rows, lc),
            (UnOp::Neg, Value::Long(_)) => neg_sweep::<Wrapping<i64>>(regs, rows, lc),
            (UnOp::Neg, Value::Float(_)) => neg_sweep::<f32>(regs, rows, lc),
            (UnOp::Neg, Value::Double(_)) => neg_sweep::<f64>(regs, rows, lc),
            (UnOp::Not, Value::Bool(_)) => {
                sweep(regs, rows, lc, |x: bool, _: bool| Some((!x).val()))
            }
            (UnOp::BitNot, Value::Int(_)) => not_sweep::<Wrapping<i32>>(regs, rows, lc),
            (UnOp::BitNot, Value::Long(_)) => not_sweep::<Wrapping<i64>>(regs, rows, lc),
            _ => false,
        };
        if swept {
            // Every live lane held the first lane's operand type.
            ctx.acct.op(cls, lc.live);
            return Ok(());
        }
        if A::PER_LANE_CLASS {
            charge_per_lane(&mut ctx.acct, lc, (cls_i, cls_f), |l| {
                is_float(self.regs[os + l])
            });
        } else {
            ctx.acct.op(cls, lc.live);
        }
        lc.try_each(|l| {
            let r = ops::unary(op, self.regs[os + l]).map_err(|er| ctx.lane_err(l, er))?;
            self.regs[od + l] = r;
            Ok(())
        })
    }

    /// `dst = a op b` on every live lane, errors in lane order.
    #[allow(clippy::too_many_arguments)]
    pub fn binary<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        op: BinOp,
        dst: usize,
        a: usize,
        b: usize,
        (cls_i, cls_f): (OpClass, OpClass),
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        let n = lc.lanes;
        let rows = (lc.base + a * n, lc.base + b * n, lc.base + dst * n);
        let fl = lc.live.trailing_zeros() as usize;
        let (va, vb) = (self.regs[rows.0 + fl], self.regs[rows.1 + fl]);
        let cls = if is_float(va) || is_float(vb) {
            cls_f
        } else {
            cls_i
        };
        let regs = &mut self.regs;
        let swept = match (va, vb) {
            (Value::Double(_), Value::Double(_)) => num_sweep::<f64>(regs, rows, lc, op),
            (Value::Int(_), Value::Int(_)) => int_sweep::<Wrapping<i32>>(regs, rows, lc, op),
            (Value::Long(_), Value::Long(_)) => int_sweep::<Wrapping<i64>>(regs, rows, lc, op),
            (Value::Float(_), Value::Float(_)) => num_sweep::<f32>(regs, rows, lc, op),
            (Value::Long(_), Value::Int(_)) => {
                shift_sweep::<Wrapping<i64>, Wrapping<i32>>(regs, rows, lc, op)
            }
            (Value::Int(_), Value::Long(_)) => {
                shift_sweep::<Wrapping<i32>, Wrapping<i64>>(regs, rows, lc, op)
            }
            _ => false,
        };
        if swept {
            // Every live lane held the first lane's operand types.
            ctx.acct.op(cls, lc.live);
            return Ok(());
        }
        if A::PER_LANE_CLASS {
            charge_per_lane(&mut ctx.acct, lc, (cls_i, cls_f), |l| {
                is_float(self.regs[rows.0 + l]) || is_float(self.regs[rows.1 + l])
            });
        } else {
            ctx.acct.op(cls, lc.live);
        }
        lc.try_each(|l| {
            let (va, vb) = (self.regs[rows.0 + l], self.regs[rows.1 + l]);
            let r = ops::binary(op, va, vb).map_err(|er| ctx.lane_err(l, er))?;
            self.regs[rows.2 + l] = r;
            Ok(())
        })
    }

    /// `dst = (ty) src` on every live lane: a row move when every live lane
    /// already holds a `ty`.
    pub fn cast<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        ty: Ty,
        dst: usize,
        src: usize,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        ctx.acct.op(OpClass::Cast, lc.live);
        let (os, od) = (lc.base + src * lc.lanes, lc.base + dst * lc.lanes);
        if self.row_is(lc, os, ty) {
            self.move_row(lc, od, os);
            return Ok(());
        }
        lc.try_each(|l| {
            let v = self.regs[os + l];
            let r = v.cast(ty).ok_or_else(|| {
                ctx.lane_err(
                    l,
                    ExecError::InvalidCast {
                        from: format!("{v}"),
                        to: ty,
                    },
                )
            })?;
            self.regs[od + l] = r;
            Ok(())
        })
    }

    /// `dst = arr.length` on every live lane.
    pub fn len<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        dst: usize,
        arr: usize,
        var: VarId,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        ctx.acct.op(OpClass::Move, lc.live);
        lc.try_each(|l| {
            if self.bound[lc.bbase + arr] & bit(l) == 0 {
                return Err(ctx.lane_err(l, ExecError::UnboundVariable(var)));
            }
            let a = self
                .reg(lc.base, lc.lanes, arr, l)
                .as_array()
                .ok_or_else(|| {
                    ctx.lane_err(
                        l,
                        ExecError::TypeMismatch {
                            expected: "array".into(),
                            found: format!("{var}"),
                        },
                    )
                })?;
            let len = ctx.mem.array_len(a).map_err(|er| ctx.lane_err(l, er))?;
            self.set_reg(lc.base, lc.lanes, dst, l, Value::Int(len as i32));
            Ok(())
        })
    }

    /// `dst = f(args..)` on every live lane: one typed sweep
    /// ([`intrinsic_sweep`]) when the argument rows allow it, lane by lane
    /// through `ops::intrinsic` otherwise.
    pub fn intrinsic<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        (f, cls): (Intrinsic, OpClass),
        dst: usize,
        args: impl Iterator<Item = usize>,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        ctx.acct.op(cls, lc.live);
        let mut arg_regs = [0usize; 4];
        let mut n = 0;
        for r in args {
            arg_regs[n] = r;
            n += 1;
        }
        let args = &arg_regs[..n];
        if intrinsic_sweep(&mut self.regs, lc, f, dst, args) {
            return Ok(());
        }
        lc.try_each(|l| {
            let mut buf = [Value::Int(0); 4];
            for (v, &r) in buf.iter_mut().zip(args) {
                *v = self.reg(lc.base, lc.lanes, r, l);
            }
            let v = ops::intrinsic(f, &buf[..n]).map_err(|er| ctx.lane_err(l, er))?;
            self.set_reg(lc.base, lc.lanes, dst, l, v);
            Ok(())
        })
    }

    /// `ty var = init` (or the type's zero) on every live lane; binds `var`.
    /// A row move when every live lane's `init` already is a `ty`.
    pub fn decl<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        var: usize,
        ty: Ty,
        init: Option<usize>,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        ctx.acct.op(OpClass::Move, lc.live);
        let ov = lc.base + var * lc.lanes;
        match init {
            None => self.fill(lc, var, ty.zero()),
            Some(r) => {
                let os = lc.base + r * lc.lanes;
                if self.row_is(lc, os, ty) {
                    self.move_row(lc, ov, os);
                } else {
                    lc.try_each(|l| -> Result<(), SimtError> {
                        let raw = self.regs[os + l];
                        self.regs[ov + l] = raw.cast(ty).ok_or_else(|| {
                            ctx.lane_err(
                                l,
                                ExecError::TypeMismatch {
                                    expected: ty.to_string(),
                                    found: format!("{raw}"),
                                },
                            )
                        })?;
                        Ok(())
                    })?;
                }
            }
        }
        self.bound[lc.bbase + var] |= lc.live;
        Ok(())
    }

    /// `var = src` on every live lane, converting to the type `var`
    /// already holds on that lane (Java assignment conversion); binds `var`.
    /// A row move when no live lane converts: `var` is unbound on every
    /// live lane, or bound on all of them with the type `src` holds.
    pub fn assign<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        var: usize,
        src: usize,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        ctx.acct.op(OpClass::Move, lc.live);
        let (ov, os) = (lc.base + var * lc.lanes, lc.base + src * lc.lanes);
        let bound = self.bound[lc.bbase + var] & lc.live;
        let identity = bound == 0
            || (bound == lc.live
                && self.regs[os + lc.live.trailing_zeros() as usize]
                    .ty()
                    .is_some_and(|t| self.row_is(lc, os, t) && self.row_is(lc, ov, t)));
        if identity {
            self.move_row(lc, ov, os);
        } else {
            lc.try_each(|l| -> Result<(), SimtError> {
                let mut v = self.regs[os + l];
                if bound & bit(l) != 0 {
                    if let Some(ty) = self.regs[ov + l].ty() {
                        v = v.cast(ty).ok_or_else(|| {
                            ctx.lane_err(
                                l,
                                ExecError::TypeMismatch {
                                    expected: ty.to_string(),
                                    found: format!("{v}"),
                                },
                            )
                        })?;
                    }
                }
                self.regs[ov + l] = v;
                Ok(())
            })?;
        }
        self.bound[lc.bbase + var] |= lc.live;
        Ok(())
    }

    /// The front of a warp memory access: charge the issue, read each live
    /// lane's `(lane, array, index)` into `out` — typed once per warp
    /// ([`uniform_access`](LaneRegs::uniform_access)), lane by lane raising
    /// the walker's per-lane errors in lane order otherwise — and charge the
    /// coalesced transactions. Returns how many lanes of `out` are filled.
    fn touch<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        cls: OpClass,
        at: Access,
        ctx: &mut WarpCtx<'_, M, A>,
        out: &mut [(usize, ArrayId, i64); 32],
    ) -> Result<usize, SimtError> {
        ctx.acct.op(cls, lc.live);
        let n = match self.uniform_access(lc, at, out) {
            Some(n) => n,
            None => self.access_by_lane(lc, at, ctx, out)?,
        };
        ctx.acct
            .mem_access(&mut self.seg_scratch, &out[..n], &*ctx.mem);
        Ok(n)
    }

    /// The typed front end: the array variable bound on every live lane
    /// and naming one array, every index an `int` or a `long`. `None`, with
    /// nothing but `out` written, for anything else.
    fn uniform_access(
        &self,
        lc: LaneCtx,
        at: Access,
        out: &mut [(usize, ArrayId, i64); 32],
    ) -> Option<usize> {
        if lc.live & !self.bound[lc.bbase + at.arr] != 0 {
            return None;
        }
        let (oa, oi) = (lc.base + at.arr * lc.lanes, lc.base + at.idx * lc.lanes);
        let one = self.regs[oa + lc.live.trailing_zeros() as usize].as_array()?;
        let mut n = 0usize;
        lc.try_each(|l| match (self.regs[oa + l], self.regs[oi + l].as_i64()) {
            (Value::Array(a), Some(i)) if a == one => {
                out[n] = (l, one, i);
                n += 1;
                Ok(())
            }
            _ => Err(()),
        })
        .ok()?;
        Some(n)
    }

    /// The lane-by-lane front: per live lane in order, the array variable
    /// bound and holding an array, the index integral.
    fn access_by_lane<M: LaneMemory + ?Sized, A: Accounting>(
        &self,
        lc: LaneCtx,
        at: Access,
        ctx: &WarpCtx<'_, M, A>,
        out: &mut [(usize, ArrayId, i64); 32],
    ) -> Result<usize, SimtError> {
        let (oa, oi) = (lc.base + at.arr * lc.lanes, lc.base + at.idx * lc.lanes);
        let unbound = lc.live & !self.bound[lc.bbase + at.arr];
        let var = at.var;
        let mut n = 0usize;
        lc.try_each(|l| {
            if unbound & bit(l) != 0 {
                return Err(ctx.lane_err(l, ExecError::UnboundVariable(var)));
            }
            let a = self.regs[oa + l].as_array().ok_or_else(|| {
                ctx.lane_err(
                    l,
                    ExecError::TypeMismatch {
                        expected: "array".into(),
                        found: format!("{var}"),
                    },
                )
            })?;
            let i = self.regs[oi + l].as_i64().ok_or_else(|| {
                ctx.lane_err(
                    l,
                    ExecError::TypeMismatch {
                        expected: "int index".into(),
                        found: "non-integer".into(),
                    },
                )
            })?;
            out[n] = (l, a, i);
            n += 1;
            Ok(())
        })?;
        Ok(n)
    }

    /// `dst = arr[idx]` on every live lane, through the memory's warp hook
    /// ([`WarpAccess::load`]).
    pub fn load<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        dst: usize,
        at: Access,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        let mut lanes = [(0usize, ArrayId(0), 0i64); 32];
        let n = self.touch(lc, OpClass::Load, at, ctx, &mut lanes)?;
        let acc = WarpAccess {
            warp: ctx.warp_id,
            iters: ctx.iters,
            lanes: &lanes[..n],
        };
        let od = lc.base + dst * lc.lanes;
        acc.load(ctx.mem, &mut self.regs[od..od + lc.lanes])
            .map_err(|(l, er)| ctx.lane_err(l, er))
    }

    /// `arr[idx] = val` on every live lane, through the memory's warp hook
    /// ([`WarpAccess::store`]).
    pub fn store<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        at: Access,
        val: usize,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        let mut lanes = [(0usize, ArrayId(0), 0i64); 32];
        let n = self.touch(lc, OpClass::Store, at, ctx, &mut lanes)?;
        let acc = WarpAccess {
            warp: ctx.warp_id,
            iters: ctx.iters,
            lanes: &lanes[..n],
        };
        let ov = lc.base + val * lc.lanes;
        acc.store(ctx.mem, &self.regs[ov..ov + lc.lanes])
            .map_err(|(l, er)| ctx.lane_err(l, er))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{AccessCtx, DeviceMemory, JournaledMemory};
    use japonica_ir::Heap;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    const OPS: [BinOp; 19] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::UShr,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::LAnd,
        BinOp::LOr,
    ];

    /// NaN-proof, sign-of-zero-proof comparison key.
    fn bits(v: Value) -> (u8, u64) {
        match v {
            Value::Bool(b) => (0, b as u64),
            Value::Int(x) => (1, x as u32 as u64),
            Value::Long(x) => (2, x as u64),
            Value::Float(x) => (3, x.to_bits() as u64),
            Value::Double(x) => (4, x.to_bits()),
            Value::Array(a) => (5, a.0 as u64),
        }
    }

    /// Operand rows of one kind each, edge values included, rotated
    /// against each other so every pair meets.
    fn rows() -> Vec<Vec<Value>> {
        let ints = [0, 1, -1, 7, 31, 33, i32::MIN, i32::MAX].map(Value::Int);
        let longs = [0, 1, -1, 63, 65, 1 << 40, i64::MIN, i64::MAX].map(Value::Long);
        let floats = [
            0.0,
            -0.0,
            1.5,
            -2.25,
            f32::NAN,
            f32::INFINITY,
            f32::MIN,
            1e-40,
        ]
        .map(Value::Float);
        let doubles = [
            0.0,
            -0.0,
            1.5,
            -2.25,
            f64::NAN,
            f64::NEG_INFINITY,
            f64::MAX,
            3e9,
        ]
        .map(Value::Double);
        let mut mixed = doubles;
        mixed[5] = Value::Int(3);
        [ints, longs, floats, doubles, mixed]
            .into_iter()
            .map(|r| r.to_vec())
            .collect()
    }

    #[test]
    fn binary_sweep_equals_lane_by_lane_ops_and_cpu_counts_popcount_under_every_mask() {
        let cfg = DeviceConfig::default();
        let iters: Vec<u64> = (100..108).collect();
        let classes = (OpClass::IntAlu, OpClass::FpAlu);
        for op in OPS {
            for row_a in rows() {
                for (rot, row_b) in rows().into_iter().enumerate() {
                    for live in [0xffu32, 0b1010_0110, 0b0010_0000, 0b1101_1111] {
                        let n = row_a.len();
                        let mut b = row_b.clone();
                        b.rotate_left(rot + 1);
                        let mut rf = LaneRegs {
                            regs: [row_a.clone(), b.clone(), vec![Value::Bool(false); n]].concat(),
                            ..LaneRegs::default()
                        };
                        let mut mem = DeviceMemory::new();
                        let mut stats = WarpStats::new();
                        let issue = WarpIssue {
                            stats: &mut stats,
                            cfg: &cfg,
                        };
                        let mut ctx = WarpCtx {
                            mem: &mut mem,
                            acct: issue,
                            iters: &iters,
                            warp_id: 0,
                        };
                        let lc = LaneCtx {
                            lanes: n,
                            live,
                            base: 0,
                            bbase: 0,
                        };
                        let got = rf.binary(lc, op, 2, 0, 1, classes, &mut ctx);
                        // The CPU policy on the same operands: same values,
                        // one op per live lane in that lane's own class.
                        let mut rf_cpu = LaneRegs {
                            regs: [row_a.clone(), b.clone(), vec![Value::Bool(false); n]].concat(),
                            ..LaneRegs::default()
                        };
                        let mut tally = LaneCounts::new();
                        tally.begin(n, u64::MAX);
                        let mut cpu_ctx = WarpCtx {
                            mem: &mut mem,
                            acct: &mut tally,
                            iters: &iters,
                            warp_id: 0,
                        };
                        let got_cpu = rf_cpu.binary(lc, op, 2, 0, 1, classes, &mut cpu_ctx);
                        assert_eq!(got_cpu, got, "{op:?} mask {live:#b}: cpu outcome");
                        if got.is_ok() {
                            assert_eq!(
                                rf_cpu.regs.iter().map(|v| bits(*v)).collect::<Vec<_>>(),
                                rf.regs.iter().map(|v| bits(*v)).collect::<Vec<_>>()
                            );
                        }
                        let float_lanes = (0..n)
                            .filter(|&l| live & bit(l) != 0)
                            .filter(|&l| is_float(row_a[l]) || is_float(b[l]))
                            .count() as u64;
                        let mut folded = OpCounts::new();
                        tally.fold(0..n, &mut folded);
                        assert_eq!(folded.count(OpClass::FpAlu), float_lanes);
                        assert_eq!(
                            folded.count(OpClass::IntAlu),
                            live.count_ones() as u64 - float_lanes
                        );
                        for l in 0..n {
                            let mut one = OpCounts::new();
                            tally.fold(l..l + 1, &mut one);
                            assert_eq!(one.total_ops(), (live & bit(l) != 0) as u64, "lane {l}");
                        }
                        // Reference: lanes in order, first error wins.
                        let mut want = Ok(());
                        for l in (0..n).filter(|&l| live & bit(l) != 0) {
                            match ops::binary(op, row_a[l], b[l]) {
                                Ok(v) => assert_eq!(
                                    bits(rf.regs[2 * n + l]),
                                    bits(v),
                                    "{} {op:?} {} lane {l}",
                                    row_a[l],
                                    b[l]
                                ),
                                Err(error) => {
                                    want = Err(SimtError::Lane {
                                        iter: iters[l],
                                        error,
                                    });
                                    break;
                                }
                            }
                        }
                        assert_eq!(got, want, "{op:?} mask {live:#b}");
                        for l in (0..n).filter(|&l| live & bit(l) == 0) {
                            assert_eq!(rf.regs[2 * n + l], Value::Bool(false), "dead lane {l}");
                        }
                        assert_eq!(stats.counts.total_ops(), 1, "one issue per warp op");
                    }
                }
            }
        }
    }

    #[test]
    fn copy_reports_the_lowest_unbound_live_lane() {
        let cfg = DeviceConfig::default();
        let iters: Vec<u64> = (0..4).collect();
        let mut rf = LaneRegs {
            regs: [1, 2, 3, 4, 0, 0, 0, 0].map(Value::Int).to_vec(),
            bound: vec![0b0011, 0],
            ..LaneRegs::default()
        };
        let mut mem = DeviceMemory::new();
        let mut stats = WarpStats::new();
        let issue = WarpIssue {
            stats: &mut stats,
            cfg: &cfg,
        };
        let ctx = WarpCtx {
            mem: &mut mem,
            acct: issue,
            iters: &iters,
            warp_id: 0,
        };
        let lc = |live| LaneCtx {
            lanes: 4,
            live,
            base: 0,
            bbase: 0,
        };
        rf.copy(lc(0b0011), 1, 0, &ctx).unwrap();
        assert_eq!(
            &rf.regs[4..],
            &[Value::Int(1), Value::Int(2), Value::Int(0), Value::Int(0)]
        );
        assert_eq!(
            rf.copy(lc(0b1110), 1, 0, &ctx),
            Err(SimtError::Lane {
                iter: 2,
                error: ExecError::UnboundVariable(VarId(0)),
            })
        );
        rf.bound[0] = 0b1111;
        rf.copy(lc(0b1111), 1, 0, &ctx).unwrap();
        assert_eq!(rf.regs[..4], rf.regs[4..]);
        rf.fill(lc(0b0101), 1, Value::Long(9));
        assert_eq!(
            &rf.regs[4..],
            &[Value::Long(9), Value::Int(2), Value::Long(9), Value::Int(4)]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn distinct_counts_what_sort_and_dedup_count(
            seed in any::<u64>(),
            shape in 0u64..4,
            len in 0usize..33,
        ) {
            let mut rng = TestRng::from_seed(seed);
            let (base, stride) = (rng.below(1 << 20), rng.below(4));
            let mut row: Vec<u64> = (0..len as u64)
                .map(|l| match shape {
                    0 => rng.below(12),
                    1 => base + l * stride,
                    2 => base + l / (1 + stride),
                    _ => base,
                })
                .collect();
            if shape == 0 && rng.below(2) == 0 {
                row.sort_unstable();
            }
            let mut want = row.clone();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(distinct(&mut row.clone()), want.len() as u64);
            // The same ids as segments of a `double` array (16 elements to
            // a 128-byte segment, any of them) through `charge_coalesced`;
            // now and then a negative index, or a run of lanes on an array
            // that is not resident, each a transaction of its own.
            let dev = device();
            let mut touched: Vec<(usize, ArrayId, i64)> = row
                .iter()
                .enumerate()
                .map(|(l, &s)| (l, ArrayId(0), (s * 16 + rng.below(16)) as i64))
                .collect();
            let mut lone = 0u64;
            if len > 0 && rng.below(3) == 0 {
                let l = rng.below(len as u64) as usize;
                touched[l].2 = -1;
                lone += 1;
            }
            if len > 1 && rng.below(3) == 0 {
                let from = 1 + rng.below(len as u64 - 1) as usize;
                for t in &mut touched[from..] {
                    lone += u64::from(t.2 >= 0);
                    t.1 = ArrayId(7);
                }
            }
            let mut segs: Vec<u64> = touched
                .iter()
                .filter(|t| t.1 == ArrayId(0) && t.2 >= 0)
                .map(|t| dev.address_of(t.1, t.2).unwrap() / 128)
                .collect();
            segs.sort_unstable();
            segs.dedup();
            let mut stats = WarpStats::new();
            let cfg = DeviceConfig::default();
            charge_coalesced(&mut Vec::new(), &touched, &dev, &mut stats, &cfg);
            prop_assert_eq!(stats.mem_segments, segs.len() as u64 + lone);
        }
    }

    /// A memory that hides the warp hooks ([`LaneMemory::load_warp`],
    /// [`LaneMemory::store_warp`]), so every access goes lane by lane: the
    /// reference the hooks are checked against.
    struct PerLane<'m, M: ?Sized>(&'m mut M);

    impl<M: LaneMemory + ?Sized> LaneMemory for PerLane<'_, M> {
        fn load(&mut self, ctx: AccessCtx, arr: ArrayId, idx: i64) -> Result<Value, ExecError> {
            self.0.load(ctx, arr, idx)
        }
        fn store(
            &mut self,
            ctx: AccessCtx,
            arr: ArrayId,
            idx: i64,
            v: Value,
        ) -> Result<(), ExecError> {
            self.0.store(ctx, arr, idx, v)
        }
        fn array_len(&self, arr: ArrayId) -> Result<usize, ExecError> {
            self.0.array_len(arr)
        }
        fn placement(&self, arr: ArrayId) -> Option<(u64, u64)> {
            self.0.placement(arr)
        }
        fn overhead_cycles(&self) -> f64 {
            self.0.overhead_cycles()
        }
    }

    /// One instruction of the fast-path proptest.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Load,
        Store,
        Binary(BinOp),
        Unary(UnOp),
        Cast(Ty),
        Decl(Ty, bool),
        Assign,
        Intrinsic(Intrinsic),
    }

    /// Register rows of a case; each doubles as the variable of its index.
    const ARR: usize = 0;
    const IDX: usize = 1;
    const A: usize = 2;
    const B: usize = 3;
    const DST: usize = 4;
    const VAR: usize = 5;
    /// Elements of each of the case's two arrays.
    const LEN: i64 = 48;
    const CLASSES: (OpClass, OpClass) = (OpClass::IntAlu, OpClass::FpAlu);
    const INTRINSICS: [Intrinsic; 11] = [
        Intrinsic::Exp,
        Intrinsic::Log,
        Intrinsic::Sqrt,
        Intrinsic::Pow,
        Intrinsic::Sin,
        Intrinsic::Cos,
        Intrinsic::Abs,
        Intrinsic::Max,
        Intrinsic::Min,
        Intrinsic::Floor,
        Intrinsic::Ceil,
    ];

    /// A random warp: lane count, live mask, register rows, boundness.
    #[derive(Debug)]
    struct Case {
        lanes: usize,
        live: u32,
        regs: Vec<Value>,
        bound: Vec<u32>,
    }

    fn value(rng: &mut TestRng, kind: u64) -> Value {
        let pick = rng.below(8) as usize;
        match kind {
            0 => Value::Int([0, 1, -1, 7, 33, i32::MIN, i32::MAX, 5][pick]),
            1 => Value::Long([0, 1, -1, 63, 65, 1 << 40, i64::MIN, i64::MAX][pick]),
            2 => Value::Float([0.0, -0.0, 1.5, -2.25, f32::NAN, f32::INFINITY, 1e-40, 3.0][pick]),
            // Negative inputs give `log` / `sqrt` a NaN, infinities an
            // infinite or NaN result, and `max` / `min` meet every order.
            3 => Value::Double(
                [
                    0.0,
                    -0.0,
                    1.5,
                    -2.25,
                    f64::NAN,
                    f64::MAX,
                    3e9,
                    7.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ][pick + 2 * rng.below(2) as usize],
            ),
            _ => Value::Bool(pick.is_multiple_of(2)),
        }
    }

    /// A row of one random type, one lane of another now and then.
    fn row(rng: &mut TestRng, lanes: usize) -> Vec<Value> {
        let kind = rng.below(5);
        let mut row: Vec<Value> = (0..lanes).map(|_| value(rng, kind)).collect();
        if rng.below(4) == 0 {
            let other = rng.below(5);
            row[rng.below(lanes as u64) as usize] = value(rng, other);
        }
        row
    }

    fn case(seed: u64) -> Case {
        let mut rng = TestRng::from_seed(seed);
        let lanes = 1 + rng.below(32) as usize;
        let full = full_mask(lanes);
        let mut live = match rng.below(3) {
            0 => full,
            _ => rng.next_u64() as u32 & full,
        };
        if live == 0 {
            live = bit(rng.below(lanes as u64) as usize);
        }
        let middle = |rng: &mut TestRng| rng.below(lanes as u64) as usize;
        // Array 0 on every lane; now and then array 1 on some lanes, or a
        // lane holding no array at all.
        let mut arrs = vec![Value::Array(ArrayId(0)); lanes];
        if rng.below(3) == 0 {
            let m = rng.next_u64();
            for (l, a) in arrs.iter_mut().enumerate() {
                if m >> l & 1 == 1 {
                    *a = Value::Array(ArrayId(1));
                }
            }
        }
        if rng.below(8) == 0 {
            arrs[middle(&mut rng)] = Value::Int(0);
        }
        // Strided indices, some running off the end; now and then one
        // middle lane out of bounds, longs, or a non-integer index.
        let (base, stride) = (rng.below(8) as i64, rng.below(3) as i64);
        let long = rng.below(4) == 0;
        let mut idx: Vec<Value> = (0..lanes as i64)
            .map(|l| match long {
                true => Value::Long(base + stride * l),
                false => Value::Int((base + stride * l) as i32),
            })
            .collect();
        match rng.below(7) {
            0 | 1 => {
                idx[middle(&mut rng)] = Value::Int([-1, LEN as i32, 1000][rng.below(3) as usize])
            }
            2 => idx[middle(&mut rng)] = Value::Double(1.0),
            // An in-bounds index of the other integral type.
            3 => {
                idx[middle(&mut rng)] = match long {
                    true => Value::Int(base as i32),
                    false => Value::Long(base),
                }
            }
            _ => {}
        }
        let regs = [
            arrs,
            idx,
            row(&mut rng, lanes),
            row(&mut rng, lanes),
            vec![Value::Bool(false); lanes],
            row(&mut rng, lanes),
        ]
        .concat();
        let mut bound = vec![full; 6];
        if rng.below(8) == 0 {
            bound[ARR] &= !bit(middle(&mut rng));
        }
        bound[VAR] = [0, full, rng.next_u64() as u32 & full][rng.below(3) as usize];
        Case {
            lanes,
            live,
            regs,
            bound,
        }
    }

    /// Device memory holding array 0 (`double[LEN]`) and array 1
    /// (`int[LEN]`).
    fn device() -> DeviceMemory {
        let mut heap = Heap::new();
        let a = heap.alloc_doubles(&(0..LEN).map(|i| i as f64 * 0.5).collect::<Vec<_>>());
        let b = heap.alloc_ints(&(0..LEN as i32).map(|i| i * 3 - 7).collect::<Vec<_>>());
        let mut dev = DeviceMemory::new();
        let cfg = DeviceConfig::default();
        for id in [a, b] {
            dev.copy_in(&heap, id, 0, LEN as usize, &cfg).unwrap();
        }
        dev
    }

    fn exec<M: LaneMemory + ?Sized, A: Accounting>(
        op: Op,
        rf: &mut LaneRegs,
        lc: LaneCtx,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        let at = Access {
            arr: ARR,
            var: VarId(ARR as u32),
            idx: IDX,
        };
        match op {
            Op::Load => rf.load(lc, DST, at, ctx),
            Op::Store => rf.store(lc, at, A, ctx),
            Op::Binary(o) => rf.binary(lc, o, DST, A, B, CLASSES, ctx),
            Op::Unary(o) => rf.unary(lc, o, DST, A, CLASSES, ctx),
            Op::Cast(ty) => rf.cast(lc, ty, DST, A, ctx),
            Op::Decl(ty, init) => rf.decl(lc, DST, ty, init.then_some(A), ctx),
            Op::Assign => rf.assign(lc, VAR, A, ctx),
            Op::Intrinsic(f) => {
                let args = [A, B].into_iter().take(f.arity());
                rf.intrinsic(lc, (f, OpClass::Special), DST, args, ctx)
            }
        }
    }

    /// What one execution leaves: its outcome, registers, boundness, and
    /// device memory, floats as bits.
    type Trace = (
        Result<(), SimtError>,
        Vec<(u8, u64)>,
        Vec<u32>,
        Vec<(u8, u64)>,
    );

    fn trace(res: Result<(), SimtError>, rf: &LaneRegs, dev: &DeviceMemory) -> Trace {
        let mem = (0..2)
            .flat_map(|a| (0..LEN as usize).map(move |i| (a, i)))
            .map(|(a, i)| bits(dev.array(ArrayId(a)).unwrap().get(i)))
            .collect();
        (
            res,
            rf.regs.iter().map(|v| bits(*v)).collect(),
            rf.bound.clone(),
            mem,
        )
    }

    /// `op` on the case under the GPU's accounting and under the CPU's,
    /// each against a fresh copy of [`device`] behind `wrap`. Returns both
    /// traces, the GPU's stats, and the CPU's counts lane by lane.
    fn run(
        op: Op,
        c: &Case,
        wrap: impl Fn(&mut DeviceMemory, &mut dyn FnMut(&mut dyn LaneMemory)),
    ) -> (Trace, WarpStats, Trace, Vec<OpCounts>) {
        let cfg = DeviceConfig::default();
        let iters: Vec<u64> = (100..100 + c.lanes as u64).collect();
        let lc = LaneCtx {
            lanes: c.lanes,
            live: c.live,
            base: 0,
            bbase: 0,
        };
        let fresh = || LaneRegs {
            regs: c.regs.clone(),
            bound: c.bound.clone(),
            ..LaneRegs::default()
        };
        let (mut stats, mut tally) = (WarpStats::new(), LaneCounts::new());
        tally.begin(c.lanes, u64::MAX);
        let (mut gpu_rf, mut cpu_rf) = (fresh(), fresh());
        let (mut gpu_dev, mut cpu_dev) = (device(), device());
        let mut gpu_res = Ok(());
        wrap(&mut gpu_dev, &mut |mem| {
            let acct = WarpIssue {
                stats: &mut stats,
                cfg: &cfg,
            };
            let mut ctx = WarpCtx {
                mem,
                acct,
                iters: &iters,
                warp_id: 3,
            };
            gpu_res = exec(op, &mut gpu_rf, lc, &mut ctx);
        });
        let mut cpu_res = Ok(());
        wrap(&mut cpu_dev, &mut |mem| {
            let mut ctx = WarpCtx {
                mem,
                acct: &mut tally,
                iters: &iters,
                warp_id: 0,
            };
            cpu_res = exec(op, &mut cpu_rf, lc, &mut ctx);
        });
        let per_lane = (0..c.lanes)
            .map(|l| {
                let mut one = OpCounts::new();
                tally.fold(l..l + 1, &mut one);
                one
            })
            .collect();
        (
            trace(gpu_res, &gpu_rf, &gpu_dev),
            stats,
            trace(cpu_res, &cpu_rf, &cpu_dev),
            per_lane,
        )
    }

    /// The lane-by-lane semantics of a register instruction: `ops::*` and
    /// the walker's conversions, lane by lane in order, the first error
    /// winning; with the GPU's one issue and the CPU's per-lane class.
    fn by_lane(op: Op, c: &Case) -> (Trace, WarpStats, Vec<OpCounts>) {
        let cfg = DeviceConfig::default();
        let n = c.lanes;
        let mut regs = c.regs.clone();
        let mut bound = c.bound.clone();
        let row = |r: usize, l: usize| r * n + l;
        let live: Vec<usize> = (0..n).filter(|&l| c.live & bit(l) != 0).collect();
        let float = |l: usize| match op {
            Op::Binary(_) => is_float(regs[row(A, l)]) || is_float(regs[row(B, l)]),
            _ => is_float(regs[row(A, l)]),
        };
        let cls = |l: usize| match op {
            Op::Cast(_) => OpClass::Cast,
            Op::Decl(..) | Op::Assign => OpClass::Move,
            Op::Intrinsic(_) => OpClass::Special,
            _ if float(l) => CLASSES.1,
            _ => CLASSES.0,
        };
        let mut stats = WarpStats::new();
        stats.charge(cls(live[0]), &cfg.cost);
        let per_lane = (0..n)
            .map(|l| {
                let mut one = OpCounts::new();
                if c.live & bit(l) != 0 {
                    one.record(cls(l));
                }
                one
            })
            .collect();
        let mut res = Ok(());
        for &l in &live {
            let v = regs[row(A, l)];
            let out = match op {
                Op::Binary(o) => ops::binary(o, v, regs[row(B, l)]).map(|r| (DST, r)),
                Op::Unary(o) => ops::unary(o, v).map(|r| (DST, r)),
                Op::Cast(ty) => v.cast(ty).map(|r| (DST, r)).ok_or(ExecError::InvalidCast {
                    from: format!("{v}"),
                    to: ty,
                }),
                Op::Decl(ty, false) => Ok((DST, ty.zero())),
                Op::Decl(ty, true) => v.cast(ty).map(|r| (DST, r)).ok_or(ExecError::TypeMismatch {
                    expected: ty.to_string(),
                    found: format!("{v}"),
                }),
                Op::Assign => match regs[row(VAR, l)].ty() {
                    Some(ty) if c.bound[VAR] & bit(l) != 0 => {
                        v.cast(ty).map(|r| (VAR, r)).ok_or(ExecError::TypeMismatch {
                            expected: ty.to_string(),
                            found: format!("{v}"),
                        })
                    }
                    _ => Ok((VAR, v)),
                },
                Op::Intrinsic(f) => {
                    let args = [v, regs[row(B, l)]];
                    ops::intrinsic(f, &args[..f.arity()]).map(|r| (DST, r))
                }
                Op::Load | Op::Store => unreachable!("memory ops run against `PerLane`"),
            };
            match out {
                Ok((r, v)) => regs[row(r, l)] = v,
                Err(error) => {
                    res = Err(SimtError::Lane {
                        iter: 100 + l as u64,
                        error,
                    });
                    break;
                }
            }
        }
        if res.is_ok() {
            match op {
                Op::Decl(..) => bound[DST] |= c.live,
                Op::Assign => bound[VAR] |= c.live,
                _ => {}
            }
        }
        let rf = LaneRegs {
            regs,
            bound,
            ..LaneRegs::default()
        };
        (trace(res, &rf, &device()), stats, per_lane)
    }

    fn random_op(rng: &mut TestRng) -> Op {
        let ty = [Ty::Int, Ty::Long, Ty::Float, Ty::Double, Ty::Bool][rng.below(5) as usize];
        match rng.below(10) {
            0 | 1 => Op::Load,
            2 => Op::Store,
            3 => Op::Binary(OPS[rng.below(OPS.len() as u64) as usize]),
            4 => Op::Unary([UnOp::Neg, UnOp::Not, UnOp::BitNot][rng.below(3) as usize]),
            5 => Op::Cast(ty),
            6 => Op::Decl(ty, rng.below(4) != 0),
            7 | 8 => Op::Intrinsic(INTRINSICS[rng.below(INTRINSICS.len() as u64) as usize]),
            _ => Op::Assign,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// The whole-warp fast paths — the typed sweeps of operators and
        /// intrinsics, the typed access front end and the warp memory hook —
        /// against the lane-by-lane path, under random masks, mixed-type
        /// rows, two arrays in one warp, `int` and `long` index rows and bad
        /// indices on a middle lane: the same registers, memory, accounting,
        /// failing lane and error text, on device memory and a journal over
        /// it.
        #[test]
        fn fast_paths_equal_the_lane_by_lane_path(seed in any::<u64>()) {
            let c = case(seed);
            let op = random_op(&mut TestRng::from_seed(!seed));
            for journaled in [false, true] {
                let direct = |dev: &mut DeviceMemory, f: &mut dyn FnMut(&mut dyn LaneMemory)| {
                    match journaled {
                        false => f(dev),
                        true => f(&mut JournaledMemory::new(dev)),
                    }
                };
                let (gpu, stats, cpu, counts) = run(op, &c, direct);
                let (want, want_stats, want_counts) = match op {
                    Op::Load | Op::Store => {
                        let per_lane = |dev: &mut DeviceMemory, f: &mut dyn FnMut(&mut dyn LaneMemory)| {
                            match journaled {
                                false => f(&mut PerLane(dev)),
                                true => f(&mut PerLane(&mut JournaledMemory::new(dev))),
                            }
                        };
                        let (want, want_stats, want_cpu, want_counts) = run(op, &c, per_lane);
                        prop_assert_eq!(&cpu, &want_cpu, "{:?} cpu, journaled {}", op, journaled);
                        (want, want_stats, want_counts)
                    }
                    _ => by_lane(op, &c),
                };
                prop_assert_eq!(&gpu, &want, "{:?} gpu, journaled {}", op, journaled);
                prop_assert_eq!(&cpu.0, &want.0, "{:?} cpu outcome", op);
                if want.0.is_ok() {
                    prop_assert_eq!(&cpu, &want, "{:?} cpu, journaled {}", op, journaled);
                    prop_assert_eq!(&counts, &want_counts, "{:?} cpu counts", op);
                    prop_assert_eq!(&stats, &want_stats, "{:?} gpu stats", op);
                }
            }
        }
    }
}
