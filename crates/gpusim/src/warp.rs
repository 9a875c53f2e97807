//! What the two register VMs ([`crate::vm::SimtVm`] over bytecode,
//! [`crate::native::NativeSimtVm`] over threaded code) share: the
//! struct-of-arrays lane register file, the execution context, and the
//! per-instruction lane sweeps whose charge order, coalescing segment sets
//! and per-lane error selection both must replay from the tree walker in
//! `simt.rs` bit for bit. Written once so the two tiers cannot drift.
//!
//! What an instruction *costs* is an [`Accounting`] policy the sweeps are
//! monomorphised over: [`WarpIssue`] is the GPU's (one issue per warp
//! instruction, coalesced memory transactions), [`LaneCounts`] the CPU
//! executor's (one op per live lane), which runs its CPU ranges through
//! these same sweeps via [`crate::vm::SimtVm::run_lanes`].

use crate::config::DeviceConfig;
use crate::memory::{AccessCtx, LaneMemory};
use crate::simt::SimtError;
use crate::stats::WarpStats;
use japonica_ir::{
    ops, ArrayId, BinOp, Env, ExecError, Intrinsic, LoopBounds, OpClass, OpCounts, Ty, UnOp, Value,
    VarId,
};
use std::convert::identity;
use std::num::Wrapping;
use std::ops::{Add, Div, Mul, Range, Rem, Sub};

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
        for l in lanes_of(self.partial) {
            self.rows[l] = OpCounts::new();
        }
        self.partial = 0;
    }

    /// One op of class `cls` on every lane of `live`.
    #[inline]
    pub(crate) fn record(&mut self, cls: OpClass, live: u32) {
        if live == self.full {
            self.uniform.record(cls);
        } else {
            self.partial |= live;
            for l in lanes_of(live) {
                self.rows[l].record(cls);
            }
        }
    }

    /// Add everything lanes `lanes` of the last batch executed to `into`.
    pub fn fold(&self, lanes: Range<usize>, into: &mut OpCounts) {
        into.merge_scaled(&self.uniform, lanes.len() as u64);
        for l in lanes_of(self.partial & full_mask(lanes.end) & !full_mask(lanes.start)) {
            into.merge(&self.rows[l]);
        }
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

/// The set lanes of `mask`, ascending.
#[inline]
fn lanes_of(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
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
    #[inline]
    pub fn access_ctx(&self, lane: usize) -> AccessCtx {
        AccessCtx {
            lane: lane as u32,
            warp: self.warp_id,
            iter: self.iters[lane],
        }
    }

    pub fn lane_err(&self, lane: usize, error: ExecError) -> SimtError {
        SimtError::Lane {
            iter: self.iters[lane],
            error,
        }
    }
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
    fn all_live(self) -> bool {
        self.live.count_ones() as usize == self.lanes
    }

    /// The live lanes, ascending.
    fn live_lanes(self) -> impl Iterator<Item = usize> + Clone {
        (0..self.lanes).filter(move |&l| self.live & bit(l) != 0)
    }
}

/// Charge one coalesced warp memory access over the given per-lane
/// `(lane, array, index)` triples: one transaction per distinct memory
/// segment (sort + dedup yields the distinct-segment count of a set),
/// plus the memory wrapper's per-access overhead. An array's placement is
/// resolved once per run of lanes touching it — in practice once per warp.
pub(crate) fn charge_coalesced<M: LaneMemory + ?Sized>(
    seg_scratch: &mut Vec<u64>,
    touched: &[(usize, ArrayId, i64)],
    mem: &M,
    stats: &mut WarpStats,
    cfg: &DeviceConfig,
) {
    seg_scratch.clear();
    let mut uncoalesced = 0u64;
    let mut resolved: Option<(ArrayId, Option<(u64, u64)>)> = None;
    for &(_, arr, idx) in touched {
        let placement = match resolved {
            Some((a, p)) if a == arr => p,
            _ => {
                let p = mem.placement(arr);
                resolved = Some((arr, p));
                p
            }
        };
        match placement {
            Some((base, elem)) if idx >= 0 => {
                seg_scratch.push((base + idx as u64 * elem) / cfg.mem_segment_bytes as u64)
            }
            _ => uncoalesced += 1,
        }
    }
    seg_scratch.sort_unstable();
    seg_scratch.dedup();
    let segs = seg_scratch.len() as u64 + uncoalesced;
    if segs > 0 {
        stats.charge_mem(segs, cfg.mem_tx_cycles);
    }
    let oh = mem.overhead_cycles();
    if oh > 0.0 {
        stats.charge_extra(oh);
    }
}

/// A numeric lane type the whole-warp sweep unboxes: integers as
/// `Wrapping` so the std operators are `ops::binary`'s wrapping ones.
trait Num:
    Copy
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Rem<Output = Self>
{
    /// Division and remainder are total (no zero-divisor error).
    const FLOAT: bool;
    fn of(v: Value) -> Option<Self>;
    fn val(self) -> Value;
}

macro_rules! impl_num {
    ($t:ty, $V:ident, $float:literal, $wrap:expr, $unwrap:expr) => {
        impl Num for $t {
            const FLOAT: bool = $float;
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

impl_num!(Wrapping<i32>, Int, false, Wrapping, |w: Wrapping<i32>| w.0);
impl_num!(Wrapping<i64>, Long, false, Wrapping, |w: Wrapping<i64>| w.0);
impl_num!(f32, Float, true, identity, identity);
impl_num!(f64, Double, true, identity, identity);

/// The whole-warp typed sweep: when both operand rows hold `T` on every
/// live lane — checked once — `dst = a op b` runs as a tight unboxed loop
/// with no per-lane tag dispatch and no error path. Covers the operators
/// that cannot fail on `T`; returns `false` (nothing written) for anything
/// else, which the caller then executes lane by lane through
/// `ops::binary`. Value for value the same function as `ops::binary`'s
/// same-type path, so results and cost classes are unchanged.
fn sweep<T: Num>(
    regs: &mut [Value],
    (oa, ob, od): (usize, usize, usize),
    lc: LaneCtx,
    op: BinOp,
) -> bool {
    let uniform = lc
        .live_lanes()
        .all(|l| T::of(regs[oa + l]).is_some() && T::of(regs[ob + l]).is_some());
    if !uniform {
        return false;
    }
    let mut run = |f: fn(T, T) -> Value| {
        for l in lc.live_lanes() {
            if let (Some(x), Some(y)) = (T::of(regs[oa + l]), T::of(regs[ob + l])) {
                regs[od + l] = f(x, y);
            }
        }
    };
    match op {
        BinOp::Add => run(|x, y| (x + y).val()),
        BinOp::Sub => run(|x, y| (x - y).val()),
        BinOp::Mul => run(|x, y| (x * y).val()),
        BinOp::Div if T::FLOAT => run(|x, y| (x / y).val()),
        BinOp::Rem if T::FLOAT => run(|x, y| (x % y).val()),
        BinOp::Lt => run(|x, y| Value::Bool(x < y)),
        BinOp::Le => run(|x, y| Value::Bool(x <= y)),
        BinOp::Gt => run(|x, y| Value::Bool(x > y)),
        BinOp::Ge => run(|x, y| Value::Bool(x >= y)),
        BinOp::Eq => run(|x, y| Value::Bool(x == y)),
        BinOp::Ne => run(|x, y| Value::Bool(x != y)),
        _ => return false,
    }
    true
}

/// Per-lane class selection: charge an operator `cls_f` on the live lanes
/// where `float` holds and `cls_i` on the rest.
fn charge_per_lane<A: Accounting>(
    acct: &mut A,
    lc: LaneCtx,
    (cls_i, cls_f): (OpClass, OpClass),
    float: impl Fn(usize) -> bool,
) {
    let fmask = lc
        .live_lanes()
        .filter(|&l| float(l))
        .fold(0u32, |m, l| m | bit(l));
    for (cls, mask) in [(cls_f, fmask), (cls_i, lc.live & !fmask)] {
        if mask != 0 {
            acct.op(cls, mask);
        }
    }
}

/// The SoA lane register file: register `r` of lane `l` lives at
/// `frame_base + r * lanes + l` in one flat arena reused across warps and
/// grown only by call frames; per-variable boundness is a lane bitmask
/// (the walker's per-lane `Env` occupancy).
#[derive(Debug, Default)]
pub(crate) struct LaneRegs {
    pub regs: Vec<Value>,
    pub bound: Vec<u32>,
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
        self.regs.clear();
        self.regs.resize(num_regs * lanes, Value::Int(0));
        self.bound.clear();
        self.bound.resize(num_vars, 0);
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

    #[inline]
    pub fn reg(&self, base: usize, lanes: usize, r: usize, l: usize) -> Value {
        self.regs[base + r * lanes + l]
    }

    #[inline]
    pub fn set_reg(&mut self, base: usize, lanes: usize, r: usize, l: usize, v: Value) {
        self.regs[base + r * lanes + l] = v;
    }

    /// `dst = v` on every live lane.
    pub fn fill(&mut self, lc: LaneCtx, dst: usize, v: Value) {
        let od = lc.base + dst * lc.lanes;
        if lc.all_live() {
            self.regs[od..od + lc.lanes].fill(v);
        } else {
            for l in lc.live_lanes() {
                self.regs[od + l] = v;
            }
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
        let (os, od) = (lc.base + src * n, lc.base + dst * n);
        if lc.all_live() {
            self.regs.copy_within(os..os + n, od);
        } else {
            for l in lc.live_lanes() {
                self.regs[od + l] = self.regs[os + l];
            }
        }
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
        for l in 0..lc.lanes {
            if sub & bit(l) == 0 {
                continue;
            }
            match self.reg(lc.base, lc.lanes, r, l) {
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
        }
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
        let os = lc.base + src * lc.lanes;
        if A::PER_LANE_CLASS {
            charge_per_lane(&mut ctx.acct, lc, (cls_i, cls_f), |l| {
                is_float(self.regs[os + l])
            });
        } else {
            let fl = lc.live.trailing_zeros() as usize;
            let float = is_float(self.regs[os + fl]);
            ctx.acct.op(if float { cls_f } else { cls_i }, lc.live);
        }
        for l in lc.live_lanes() {
            let v = self.reg(lc.base, lc.lanes, src, l);
            let r = ops::unary(op, v).map_err(|er| ctx.lane_err(l, er))?;
            self.set_reg(lc.base, lc.lanes, dst, l, r);
        }
        Ok(())
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
        let fl = lc.live.trailing_zeros() as usize;
        let float = is_float(self.reg(lc.base, lc.lanes, a, fl))
            || is_float(self.reg(lc.base, lc.lanes, b, fl));
        let cls = if float { cls_f } else { cls_i };
        if !A::PER_LANE_CLASS {
            ctx.acct.op(cls, lc.live);
        }
        let n = lc.lanes;
        let rows = (lc.base + a * n, lc.base + b * n, lc.base + dst * n);
        let swept = match (self.regs[rows.0 + fl], self.regs[rows.1 + fl]) {
            (Value::Double(_), Value::Double(_)) => sweep::<f64>(&mut self.regs, rows, lc, op),
            (Value::Int(_), Value::Int(_)) => sweep::<Wrapping<i32>>(&mut self.regs, rows, lc, op),
            (Value::Long(_), Value::Long(_)) => {
                sweep::<Wrapping<i64>>(&mut self.regs, rows, lc, op)
            }
            (Value::Float(_), Value::Float(_)) => sweep::<f32>(&mut self.regs, rows, lc, op),
            _ => false,
        };
        if A::PER_LANE_CLASS {
            if swept {
                // Every live lane holds the first lane's operand types.
                ctx.acct.op(cls, lc.live);
            } else {
                charge_per_lane(&mut ctx.acct, lc, (cls_i, cls_f), |l| {
                    is_float(self.regs[rows.0 + l]) || is_float(self.regs[rows.1 + l])
                });
            }
        }
        if swept {
            return Ok(());
        }
        for l in lc.live_lanes() {
            let va = self.regs[rows.0 + l];
            let vb = self.regs[rows.1 + l];
            let r = ops::binary(op, va, vb).map_err(|er| ctx.lane_err(l, er))?;
            self.regs[rows.2 + l] = r;
        }
        Ok(())
    }

    /// `dst = (ty) src` on every live lane.
    pub fn cast<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        ty: Ty,
        dst: usize,
        src: usize,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        ctx.acct.op(OpClass::Cast, lc.live);
        for l in lc.live_lanes() {
            let v = self.reg(lc.base, lc.lanes, src, l);
            let r = v.cast(ty).ok_or_else(|| {
                ctx.lane_err(
                    l,
                    ExecError::InvalidCast {
                        from: format!("{v}"),
                        to: ty,
                    },
                )
            })?;
            self.set_reg(lc.base, lc.lanes, dst, l, r);
        }
        Ok(())
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
        for l in lc.live_lanes() {
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
        }
        Ok(())
    }

    /// `dst = f(args..)` on every live lane.
    pub fn intrinsic<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        (f, cls): (Intrinsic, OpClass),
        dst: usize,
        args: impl Iterator<Item = usize> + Clone,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        ctx.acct.op(cls, lc.live);
        for l in lc.live_lanes() {
            let mut buf = [Value::Int(0); 4];
            let mut n = 0;
            for r in args.clone() {
                buf[n] = self.reg(lc.base, lc.lanes, r, l);
                n += 1;
            }
            let v = ops::intrinsic(f, &buf[..n]).map_err(|er| ctx.lane_err(l, er))?;
            self.set_reg(lc.base, lc.lanes, dst, l, v);
        }
        Ok(())
    }

    /// `ty var = init` (or the type's zero) on every live lane; binds `var`.
    pub fn decl<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        var: usize,
        ty: Ty,
        init: Option<usize>,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        ctx.acct.op(OpClass::Move, lc.live);
        for l in lc.live_lanes() {
            let v = match init {
                Some(r) => {
                    let raw = self.reg(lc.base, lc.lanes, r, l);
                    raw.cast(ty).ok_or_else(|| {
                        ctx.lane_err(
                            l,
                            ExecError::TypeMismatch {
                                expected: ty.to_string(),
                                found: format!("{raw}"),
                            },
                        )
                    })?
                }
                None => ty.zero(),
            };
            self.set_reg(lc.base, lc.lanes, var, l, v);
        }
        self.bound[lc.bbase + var] |= lc.live;
        Ok(())
    }

    /// `var = src` on every live lane, converting to the type `var`
    /// already holds on that lane (Java assignment conversion); binds `var`.
    pub fn assign<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        var: usize,
        src: usize,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        ctx.acct.op(OpClass::Move, lc.live);
        for l in lc.live_lanes() {
            let mut v = self.reg(lc.base, lc.lanes, src, l);
            if self.bound[lc.bbase + var] & bit(l) != 0 {
                if let Some(ty) = self.reg(lc.base, lc.lanes, var, l).ty() {
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
            self.set_reg(lc.base, lc.lanes, var, l, v);
        }
        self.bound[lc.bbase + var] |= lc.live;
        Ok(())
    }

    /// The common front of a warp memory access: charge the issue, gather
    /// per-lane `(lane, array, index)` triples (raising the walker's
    /// per-lane errors in lane order), charge the coalesced transactions.
    /// Returns how many lanes of `out` are filled.
    #[allow(clippy::too_many_arguments)]
    fn touch<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        cls: OpClass,
        arr: usize,
        var: VarId,
        idx: usize,
        ctx: &mut WarpCtx<'_, M, A>,
        out: &mut [(usize, ArrayId, i64); 32],
    ) -> Result<usize, SimtError> {
        ctx.acct.op(cls, lc.live);
        let mut n = 0usize;
        for l in lc.live_lanes() {
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
            let i = self
                .reg(lc.base, lc.lanes, idx, l)
                .as_i64()
                .ok_or_else(|| {
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
        }
        ctx.acct
            .mem_access(&mut self.seg_scratch, &out[..n], &*ctx.mem);
        Ok(n)
    }

    /// `dst = arr[idx]` on every live lane.
    pub fn load<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        dst: usize,
        arr: usize,
        var: VarId,
        idx: usize,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        let mut touched = [(0usize, ArrayId(0), 0i64); 32];
        let n = self.touch(lc, OpClass::Load, arr, var, idx, ctx, &mut touched)?;
        for &(l, a, i) in &touched[..n] {
            let actx = ctx.access_ctx(l);
            let v = ctx.mem.load(actx, a, i).map_err(|er| ctx.lane_err(l, er))?;
            self.set_reg(lc.base, lc.lanes, dst, l, v);
        }
        Ok(())
    }

    /// `arr[idx] = val` on every live lane.
    pub fn store<M: LaneMemory + ?Sized, A: Accounting>(
        &mut self,
        lc: LaneCtx,
        arr: usize,
        var: VarId,
        idx: usize,
        val: usize,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        let mut touched = [(0usize, ArrayId(0), 0i64); 32];
        let n = self.touch(lc, OpClass::Store, arr, var, idx, ctx, &mut touched)?;
        for &(l, a, i) in &touched[..n] {
            let v = self.reg(lc.base, lc.lanes, val, l);
            let actx = ctx.access_ctx(l);
            ctx.mem
                .store(actx, a, i, v)
                .map_err(|er| ctx.lane_err(l, er))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DeviceMemory;

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
}
