//! The SIMT bytecode VM: a warp-level executor over
//! [`japonica_ir::bytecode::CompiledKernel`] that replays the tree-walking
//! interpreter in `simt.rs` bit-for-bit — identical charge order (so
//! `issue_cycles` f64 accumulation matches to the last bit), identical
//! branch/divergence counting, identical coalescing segment sets, identical
//! per-lane error selection — while eliminating the walker's per-expression
//! `Vals` allocations and `Vec<bool>` masks.
//!
//! Representation choices:
//!
//! * **active masks are `u32` bitmasks** (warps are at most 32 lanes; the
//!   dispatch layer falls back to the walker for exotic configs);
//! * **lane register files are struct-of-arrays**: register `r` of lane
//!   `l` lives at `frame_base + r * lanes + l` in one flat arena that is
//!   reused across warps and grown only by call frames;
//! * **per-variable boundness is a lane bitmask**, replicating the
//!   walker's per-lane `Env` occupancy (reads of never-assigned variables
//!   raise `UnboundVariable` on exactly the same lane);
//! * fixed `[_; 32]` stack scratch replaces per-node heap allocation for
//!   inner-loop bounds, touched-lane sets, and return values;
//! * **one lane loop** (`warp::for_lanes`): every per-lane loop, here and
//!   in the sweeps, is a plain `0..lanes` loop over the contiguous row when
//!   the whole warp is live and a walk over the mask's set bits otherwise;
//! * **typed sweeps**: an operator, negation, cast, declaration or
//!   assignment whose operand rows hold one type on every live lane, and
//!   which cannot fail on it, runs as one unboxed pass (or a row move); the
//!   first lane that does not fit hands the instruction to the lane-by-lane
//!   path, which owns every error;
//! * **one warp memory hook**: a load or store reads its array and index
//!   rows typed once per warp and hands every lane to the memory at once
//!   (`LaneMemory::load_warp` / `store_warp`) — a typed gather for memories
//!   that read arrays as they are, one pass per warp for the speculative
//!   ones — which completes a lane-order prefix; the rest go lane by lane;
//! * **register frames without zero-fill**: a call's register window is
//!   carved from a stack that keeps its length, and nothing clears it.
//!
//! The register file and every straight-line lane sweep (moves, operators,
//! casts, memory accesses) live in `warp.rs`, shared with the native tier;
//! this file is the decode loop and the structured control flow.

use crate::config::DeviceConfig;
use crate::memory::LaneMemory;
use crate::simt::SimtError;
use crate::stats::WarpStats;
use crate::warp::{
    bit, each_lane, for_lanes, Access, Accounting, Frame, LaneCounts, LaneCtx, LaneRegs, WarpCtx,
    WarpIssue,
};
use japonica_ir::bytecode::{CompiledKernel, Instr, Reg};
use japonica_ir::{BinOp, Env, ExecError, LoopBounds, OpClass, Value, VarId};

/// Evidence that [`SimtVm::run_lanes`] can execute a kernel, plus what it
/// needs to know up front: the variable slots the kernel body writes.
#[derive(Debug, Clone)]
pub struct LanePlan {
    written: Vec<usize>,
}

impl LanePlan {
    /// `None` when the kernel holds an instruction the lane VM rejects at
    /// execution time: `new T[n]`, `break` or `continue` anywhere, or a
    /// `return` in the kernel body itself.
    pub fn of(kernel: &CompiledKernel) -> Option<LanePlan> {
        let mut written = Vec::new();
        for (ci, chunk) in kernel.chunks.iter().enumerate() {
            for instr in &chunk.code {
                match instr {
                    Instr::NewArray { .. } | Instr::Break | Instr::Continue => return None,
                    Instr::Return { .. } if ci == 0 => return None,
                    Instr::Decl { var, .. }
                    | Instr::Assign { var, .. }
                    | Instr::For { var, .. }
                        if ci == 0 =>
                    {
                        written.push(*var as usize)
                    }
                    _ => {}
                }
            }
        }
        written.sort_unstable();
        written.dedup();
        Some(LanePlan { written })
    }
}

/// Instruction sweeps (and inner-loop rounds) a *checked* lane batch may
/// issue. A conflict check fires at the later of two clashing accesses, so
/// until it does a lane can hold a value no sequential execution would have
/// shown it, and a loop bound computed from that value need not terminate.
/// Running out is a lane error like any other — the batch is replayed on
/// the scalar VM — so the constant only trades what a runaway batch may
/// cost against how heavy an iteration may be and still run in lockstep.
const CHECKED_SWEEP_BUDGET: u64 = 1 << 20;

fn out_of_sweeps() -> SimtError {
    SimtError::Unsupported("lane batch exceeded its sweep budget".into())
}

/// The warp-level bytecode VM. Owns reusable arenas; create one per host
/// thread and reuse it across warps.
#[derive(Debug, Default)]
pub struct SimtVm {
    rf: LaneRegs,
}

impl SimtVm {
    /// A fresh VM (arenas grow on first use, then get reused).
    pub fn new() -> SimtVm {
        SimtVm::default()
    }

    /// Execute one warp of a compiled kernel: lane `l` runs loop iteration
    /// `warp_iters[l]`. Mirrors `SimtExec::run_warp` exactly.
    #[allow(clippy::too_many_arguments)] // mirrors the walker's launch signature
    pub fn run_warp<M: LaneMemory>(
        &mut self,
        kernel: &CompiledKernel,
        loop_var: VarId,
        bounds: &LoopBounds,
        warp_iters: &[u64],
        base_env: &Env,
        warp_id: u32,
        mem: &mut M,
        cfg: &DeviceConfig,
    ) -> Result<WarpStats, SimtError> {
        assert!(warp_iters.len() <= cfg.warp_size as usize, "warp overfull");
        let c0 = &kernel.chunks[0];
        let full = self.rf.enter(
            (c0.num_regs as usize, c0.num_vars as usize),
            loop_var,
            bounds,
            warp_iters,
            base_env,
        );
        let mut stats = WarpStats::new();
        let issue = WarpIssue {
            stats: &mut stats,
            cfg,
        };
        let mut ctx = WarpCtx {
            mem,
            acct: issue,
            iters: warp_iters,
            warp_id,
        };
        let mut frame = Frame::new(false);
        let hi = c0.code.len() as u32;
        let lanes = warp_iters.len();
        self.run(kernel, 0, 0, hi, lanes, full, 0, 0, &mut frame, &mut ctx)?;
        Ok(stats)
    }

    /// Execute loop iterations `first..first + lanes` (at most 32) of a
    /// kernel as one batch of *independent scalar threads*, one per lane —
    /// the CPU executor's whole-warp path for iterations that do not
    /// depend on each other, as proven statically or as `mem` verifies
    /// access by access (`checked`). Same sweeps and decode loop as
    /// [`run_warp`](SimtVm::run_warp); only the accounting differs:
    /// `counts` receives, per lane, exactly the ops `ScalarVm` charges
    /// running that iteration alone (loop bookkeeping included).
    ///
    /// A lane sees the variables of `env` the kernel body never writes,
    /// its own induction value, and what it wrote itself — state another
    /// iteration left behind reads as unbound. On success every variable
    /// the body bound is written back to `env` from the highest lane that
    /// bound it, which is what running the iterations in order leaves.
    /// Any error means "not expressible in lockstep": the caller undoes
    /// the batch's stores and replays it on the scalar VM, which owns the
    /// precise error. A `checked` batch that issues more than
    /// [`CHECKED_SWEEP_BUDGET`] sweeps is such an error.
    #[allow(clippy::too_many_arguments)] // run_warp's launch signature
    pub fn run_lanes<M: LaneMemory>(
        &mut self,
        kernel: &CompiledKernel,
        plan: &LanePlan,
        loop_var: VarId,
        bounds: &LoopBounds,
        first: u64,
        lanes: usize,
        env: &mut Env,
        mem: &mut M,
        counts: &mut LaneCounts,
        checked: bool,
    ) -> Result<(), SimtError> {
        let mut iters = [0u64; 32];
        for (l, k) in iters[..lanes].iter_mut().enumerate() {
            *k = first + l as u64;
        }
        let c0 = &kernel.chunks[0];
        let dims = (c0.num_regs as usize, c0.num_vars as usize);
        let full = self.rf.enter(dims, loop_var, bounds, &iters[..lanes], env);
        let vi = loop_var.index();
        for &v in plan.written.iter().filter(|&&v| v != vi) {
            self.rf.bound[v] = 0;
        }
        counts.begin(
            lanes,
            if checked {
                CHECKED_SWEEP_BUDGET
            } else {
                u64::MAX
            },
        );
        // Loop bookkeeping: induction update + bound test + back edge.
        counts.record(OpClass::IntAlu, full);
        counts.record(OpClass::Branch, full);
        let mut ctx = WarpCtx {
            mem,
            acct: counts,
            iters: &iters[..lanes],
            warp_id: 0,
        };
        let hi = c0.code.len() as u32;
        self.run(
            kernel,
            0,
            0,
            hi,
            lanes,
            full,
            0,
            0,
            &mut Frame::new(false),
            &mut ctx,
        )?;
        for &v in plan.written.iter().chain([&vi]) {
            let bound = self.rf.bound[v];
            if bound != 0 {
                let top = 31 - bound.leading_zeros() as usize;
                env.set(VarId(v as u32), self.rf.reg(0, lanes, v, top));
            }
        }
        Ok(())
    }

    #[inline]
    fn reg(&self, base: usize, lanes: usize, r: Reg, l: usize) -> Value {
        self.rf.reg(base, lanes, r as usize, l)
    }

    #[inline]
    fn set_reg(&mut self, base: usize, lanes: usize, r: Reg, l: usize, v: Value) {
        self.rf.set_reg(base, lanes, r as usize, l, v);
    }

    /// Execute instructions `lo..hi` of chunk `ci` under active mask
    /// `mask`. Recomputes liveness (`mask & !returned`) per instruction,
    /// which is equivalent to the walker's per-statement recheck because
    /// `returned` only changes at `Return` instructions.
    #[allow(clippy::too_many_arguments)]
    fn run<M: LaneMemory, A: Accounting>(
        &mut self,
        k: &CompiledKernel,
        ci: usize,
        lo: u32,
        hi: u32,
        lanes: usize,
        mask: u32,
        base: usize,
        bbase: usize,
        frame: &mut Frame,
        ctx: &mut WarpCtx<'_, M, A>,
    ) -> Result<(), SimtError> {
        let mut pc = lo;
        while pc < hi {
            let live = mask & !frame.returned;
            if live == 0 {
                break;
            }
            if !ctx.acct.sweep() {
                return Err(out_of_sweeps());
            }
            let instr = &k.chunks[ci].code[pc as usize];
            let next = instr.next_pc(pc);
            let lc = LaneCtx {
                lanes,
                live,
                base,
                bbase,
            };
            match instr {
                Instr::Const { dst, pool } => {
                    ctx.acct.op(OpClass::Move, live);
                    self.rf.fill(lc, *dst as usize, k.pool[*pool as usize]);
                }
                Instr::Copy { dst, src } => {
                    ctx.acct.op(OpClass::Move, live);
                    self.rf.copy(lc, *dst as usize, *src as usize, ctx)?;
                }
                Instr::Unary {
                    op,
                    dst,
                    src,
                    cls_i,
                    cls_f,
                } => self
                    .rf
                    .unary(lc, *op, *dst as usize, *src as usize, (*cls_i, *cls_f), ctx)?,
                Instr::Binary {
                    op,
                    dst,
                    a,
                    b,
                    cls_i,
                    cls_f,
                } => self.rf.binary(
                    lc,
                    *op,
                    *dst as usize,
                    *a as usize,
                    *b as usize,
                    (*cls_i, *cls_f),
                    ctx,
                )?,
                Instr::Cast { ty, dst, src } => {
                    self.rf.cast(lc, *ty, *dst as usize, *src as usize, ctx)?
                }
                // Scalar-walker-only pre-checks: the SIMT walker validates
                // arrays and indices per lane at the access itself.
                Instr::GuardArray { .. } | Instr::CheckIdx { .. } => {}
                Instr::Load { dst, arr, var, idx } => {
                    let at = Access {
                        arr: *arr as usize,
                        var: *var,
                        idx: *idx as usize,
                    };
                    self.rf.load(lc, *dst as usize, at, ctx)?
                }
                Instr::Len { dst, arr, var } => {
                    self.rf.len(lc, *dst as usize, *arr as usize, *var, ctx)?
                }
                Instr::Intrinsic { f, cls, dst, args } => self.rf.intrinsic(
                    lc,
                    (*f, *cls),
                    *dst as usize,
                    args.iter().map(|r| *r as usize),
                    ctx,
                )?,
                Instr::Call { chunk, dst, args } => {
                    ctx.acct.op(OpClass::Call, live);
                    let callee = *chunk as usize;
                    let c = &k.chunks[callee];
                    let frame_at = self
                        .rf
                        .push_frame((c.num_regs as usize, c.num_vars as usize), lanes);
                    let (nbase, nbbase) = frame_at;
                    // Lane-major binding, like the walker's per-lane envs.
                    let bound = for_lanes(lanes, live, |l| {
                        for (i, (preg, pty)) in c.params.iter().enumerate() {
                            let raw = self.reg(base, lanes, args[i], l);
                            let v = match pty {
                                japonica_ir::ParamTy::Scalar(t) => {
                                    raw.cast(*t).ok_or_else(|| {
                                        ctx.lane_err(
                                            l,
                                            ExecError::TypeMismatch {
                                                expected: t.to_string(),
                                                found: format!("{raw}"),
                                            },
                                        )
                                    })?
                                }
                                japonica_ir::ParamTy::Array(_) => raw,
                            };
                            self.set_reg(nbase, lanes, *preg, l, v);
                        }
                        Ok(())
                    });
                    let res = match bound {
                        Err(e) => Err(e),
                        Ok(()) => {
                            for (preg, _) in &c.params {
                                self.rf.bound[nbbase + *preg as usize] = live;
                            }
                            let clen = c.code.len() as u32;
                            let mut callee_frame = Frame::new(true);
                            self.run(
                                k,
                                callee,
                                0,
                                clen,
                                lanes,
                                live,
                                nbase,
                                nbbase,
                                &mut callee_frame,
                                ctx,
                            )
                            .map(|()| callee_frame)
                        }
                    };
                    self.rf.pop_frame(frame_at);
                    let callee_frame = res?;
                    if c.check_returned && live & !callee_frame.returned != 0 {
                        return Err(SimtError::Unsupported(format!(
                            "`{}` completed without returning on some lane",
                            c.fn_name
                        )));
                    }
                    if let Some(dst) = dst {
                        each_lane(lanes, live, |l| {
                            self.set_reg(base, lanes, *dst, l, callee_frame.ret[l])
                        });
                    }
                }
                Instr::Sc {
                    op,
                    dst,
                    lhs,
                    rhs_range,
                    rhs,
                } => {
                    let truth = self.rf.truth_mask(lc, *lhs as usize, live, ctx)?;
                    ctx.acct.branch(live);
                    let need_rhs = match op {
                        BinOp::LAnd => live & truth,
                        _ => live & !truth,
                    };
                    let short = live & !need_rhs;
                    if need_rhs != 0 && short != 0 {
                        ctx.acct.diverged();
                    }
                    let mut rtruth = 0u32;
                    if need_rhs != 0 {
                        self.run(
                            k,
                            ci,
                            rhs_range.0,
                            rhs_range.1,
                            lanes,
                            need_rhs,
                            base,
                            bbase,
                            frame,
                            ctx,
                        )?;
                        rtruth = self.rf.truth_mask(lc, *rhs as usize, need_rhs, ctx)?;
                    }
                    let result = (need_rhs & rtruth) | (short & truth);
                    each_lane(lanes, live, |l| {
                        self.set_reg(base, lanes, *dst, l, Value::Bool(result & bit(l) != 0))
                    });
                }
                Instr::Ternary {
                    dst,
                    cond,
                    t_range,
                    t_dst,
                    f_range,
                    f_dst,
                } => {
                    let truth = self.rf.truth_mask(lc, *cond as usize, live, ctx)?;
                    ctx.acct.branch(live);
                    let t_mask = live & truth;
                    let f_mask = live & !truth;
                    if t_mask != 0 && f_mask != 0 {
                        ctx.acct.diverged();
                    }
                    if t_mask != 0 {
                        self.run(
                            k, ci, t_range.0, t_range.1, lanes, t_mask, base, bbase, frame, ctx,
                        )?;
                    }
                    if f_mask != 0 {
                        self.run(
                            k, ci, f_range.0, f_range.1, lanes, f_mask, base, bbase, frame, ctx,
                        )?;
                    }
                    each_lane(lanes, live, |l| {
                        let src = if t_mask & bit(l) != 0 { *t_dst } else { *f_dst };
                        let v = self.reg(base, lanes, src, l);
                        self.set_reg(base, lanes, *dst, l, v);
                    });
                }
                Instr::Decl { var, ty, init } => {
                    self.rf
                        .decl(lc, *var as usize, *ty, init.map(|r| r as usize), ctx)?
                }
                Instr::Assign { var, src } => {
                    self.rf.assign(lc, *var as usize, *src as usize, ctx)?
                }
                Instr::Store { arr, var, idx, val } => {
                    let at = Access {
                        arr: *arr as usize,
                        var: *var,
                        idx: *idx as usize,
                    };
                    self.rf.store(lc, at, *val as usize, ctx)?
                }
                Instr::NewArray { .. } => {
                    return Err(SimtError::Unsupported(
                        "device-side array allocation".into(),
                    ))
                }
                Instr::If {
                    cond,
                    then_range,
                    else_range,
                } => {
                    let truth = self.rf.truth_mask(lc, *cond as usize, live, ctx)?;
                    ctx.acct.branch(live);
                    let t_mask = live & truth;
                    let e_mask = live & !truth;
                    if t_mask != 0 && e_mask != 0 {
                        ctx.acct.diverged();
                    }
                    if t_mask != 0 {
                        self.run(
                            k,
                            ci,
                            then_range.0,
                            then_range.1,
                            lanes,
                            t_mask,
                            base,
                            bbase,
                            frame,
                            ctx,
                        )?;
                    }
                    if e_mask != 0 {
                        self.run(
                            k,
                            ci,
                            else_range.0,
                            else_range.1,
                            lanes,
                            e_mask,
                            base,
                            bbase,
                            frame,
                            ctx,
                        )?;
                    }
                }
                Instr::While {
                    cond_range,
                    cond,
                    body_range,
                } => {
                    let mut live_w = live;
                    let entered = live_w.count_ones();
                    loop {
                        let live_now = live_w & !frame.returned;
                        if live_now == 0 {
                            break;
                        }
                        self.run(
                            k,
                            ci,
                            cond_range.0,
                            cond_range.1,
                            lanes,
                            live_now,
                            base,
                            bbase,
                            frame,
                            ctx,
                        )?;
                        let truth = self.rf.truth_mask(lc, *cond as usize, live_now, ctx)?;
                        ctx.acct.branch(live_now);
                        live_w = live_now & truth;
                        if live_w == 0 {
                            break;
                        }
                        if live_w.count_ones() < entered {
                            ctx.acct.diverged();
                        }
                        self.run(
                            k,
                            ci,
                            body_range.0,
                            body_range.1,
                            lanes,
                            live_w,
                            base,
                            bbase,
                            frame,
                            ctx,
                        )?;
                    }
                }
                Instr::For {
                    var,
                    start_range,
                    start,
                    end_range,
                    end,
                    step_range,
                    step,
                    body_range,
                } => {
                    let mut starts = [0i64; 32];
                    let mut steps = [0i64; 32];
                    let mut trips = [0u64; 32];
                    // Evaluate bounds like the walker's eval_i64: full
                    // vector eval, then per-lane integrality in lane order.
                    let mut bound_of = |vm: &mut Self,
                                        range: &(u32, u32),
                                        r: Reg,
                                        out: &mut [i64; 32],
                                        ctx: &mut WarpCtx<'_, M, A>|
                     -> Result<(), SimtError> {
                        vm.run(
                            k, ci, range.0, range.1, lanes, live, base, bbase, frame, ctx,
                        )?;
                        for_lanes(lanes, live, |l| {
                            let v = vm.reg(base, lanes, r, l);
                            out[l] = v.as_i64().ok_or_else(|| {
                                ctx.lane_err(
                                    l,
                                    ExecError::TypeMismatch {
                                        expected: "int".into(),
                                        found: format!("{v}"),
                                    },
                                )
                            })?;
                            Ok(())
                        })
                    };
                    bound_of(self, start_range, *start, &mut starts, ctx)?;
                    let mut ends = [0i64; 32];
                    bound_of(self, end_range, *end, &mut ends, ctx)?;
                    bound_of(self, step_range, *step, &mut steps, ctx)?;
                    let mut max_trip = 0u64;
                    for_lanes(lanes, live, |l| {
                        let (s, e, st) = (starts[l], ends[l], steps[l]);
                        if st <= 0 {
                            return Err(ctx.lane_err(l, ExecError::NonPositiveStep(st)));
                        }
                        trips[l] = if e <= s {
                            0
                        } else {
                            ((e - s) + st - 1) as u64 / st as u64
                        };
                        max_trip = max_trip.max(trips[l]);
                        Ok(())
                    })?;
                    let entered = live.count_ones();
                    for kk in 0..max_trip {
                        let mut round = 0u32;
                        each_lane(lanes, live & !frame.returned, |l| {
                            if kk < trips[l] {
                                round |= bit(l);
                            }
                        });
                        if round == 0 {
                            break;
                        }
                        // An empty body issues no instruction to count.
                        if !ctx.acct.sweep() {
                            return Err(out_of_sweeps());
                        }
                        ctx.acct.op(OpClass::IntAlu, round);
                        ctx.acct.branch(round);
                        if round.count_ones() < entered {
                            ctx.acct.diverged();
                        }
                        each_lane(lanes, round, |l| {
                            let v = Value::Int((starts[l] + kk as i64 * steps[l]) as i32);
                            self.set_reg(base, lanes, *var, l, v);
                        });
                        self.rf.bound[bbase + *var as usize] |= round;
                        self.run(
                            k,
                            ci,
                            body_range.0,
                            body_range.1,
                            lanes,
                            round,
                            base,
                            bbase,
                            frame,
                            ctx,
                        )?;
                    }
                }
                Instr::Return { val_range, val } => {
                    if !frame.allow_return {
                        return Err(SimtError::Unsupported("return in kernel body".into()));
                    }
                    if let Some(r) = val {
                        self.run(
                            k,
                            ci,
                            val_range.0,
                            val_range.1,
                            lanes,
                            live,
                            base,
                            bbase,
                            frame,
                            ctx,
                        )?;
                        each_lane(lanes, live, |l| frame.ret[l] = self.reg(base, lanes, *r, l));
                    }
                    frame.returned |= live;
                }
                Instr::Break => return Err(SimtError::Unsupported("break in kernel body".into())),
                Instr::Continue => {
                    return Err(SimtError::Unsupported("continue in kernel body".into()))
                }
            }
            pc = next;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DeviceMemory;
    use crate::simt::SimtExec;
    use japonica_frontend::compile_source;
    use japonica_ir::{compile_kernel, ArrayId, ForLoop, Heap, Program};

    /// NaN-proof bit comparison key for a `Value`.
    fn bits(v: Value) -> (u8, u64) {
        match v {
            Value::Bool(b) => (0, b as u64),
            Value::Int(i) => (1, i as u32 as u64),
            Value::Long(i) => (2, i as u64),
            Value::Float(f) => (3, f.to_bits() as u64),
            Value::Double(d) => (4, d.to_bits()),
            Value::Array(a) => (5, a.0 as u64),
        }
    }

    /// Run one warp of `fname`'s first annotated loop through the tree
    /// walker, the bytecode VM, and the native tier, asserting
    /// bit-identical stats, device memory, and error text.
    fn assert_warp_identical(src: &str, fname: &str, arrays: &[&[f64]], int_arrays: &[&[i32]]) {
        let p = compile_source(src).unwrap();
        let (_, f) = p.function_by_name(fname).unwrap();
        let l = f.all_loops()[0].clone();
        let mut heap = Heap::new();
        let mut env = Env::with_slots(f.num_vars);
        let mut ids = Vec::new();
        let mut pi = 0usize;
        for a in arrays {
            let id = heap.alloc_doubles(a);
            ids.push((id, a.len()));
            env.set(f.params[pi].var, Value::Array(id));
            pi += 1;
        }
        for a in int_arrays {
            let id = heap.alloc_ints(a);
            ids.push((id, a.len()));
            env.set(f.params[pi].var, Value::Array(id));
            pi += 1;
        }
        let n = ids.first().map(|&(_, l)| l).unwrap_or(8) as i64;
        env.set(f.params[pi].var, Value::Int(n as i32));
        let bounds = LoopBounds {
            start: 0,
            end: n,
            step: 1,
        };
        let mut vms = (SimtVm::new(), crate::native::NativeSimtVm::new());
        run_both(&p, &l, &bounds, &heap, &ids, &env, &mut vms);
    }

    /// Run one warp of `l` at 1, 5 and 32 lanes through the tree walker and
    /// through the bytecode and native VMs of `vms` — which keep whatever
    /// register stacks earlier warps left — asserting bit-identical stats,
    /// device memory, and error text.
    fn run_both(
        p: &Program,
        l: &ForLoop,
        bounds: &LoopBounds,
        heap: &Heap,
        ids: &[(ArrayId, usize)],
        env: &Env,
        (vm, native_vm): &mut (SimtVm, crate::native::NativeSimtVm),
    ) {
        let cfg = DeviceConfig::default();
        let kernel = compile_kernel(p, l).expect("kernel should compile");
        let native = crate::native::compile_native_warp(&kernel);
        let trip = bounds.trip();
        for lanes in [1usize, 5, 32] {
            let lanes = lanes.min(trip as usize);
            if lanes == 0 {
                continue;
            }
            let mut dev_w = DeviceMemory::new();
            let mut dev_v = DeviceMemory::new();
            let mut dev_n = DeviceMemory::new();
            for &(id, len) in ids {
                dev_w.copy_in(heap, id, 0, len, &cfg).unwrap();
                dev_v.copy_in(heap, id, 0, len, &cfg).unwrap();
                dev_n.copy_in(heap, id, 0, len, &cfg).unwrap();
            }
            let iters: Vec<u64> = (0..lanes as u64).collect();
            let walker = SimtExec::new(p, &cfg).run_warp(l, bounds, &iters, env, 7, &mut dev_w);
            let vm = vm.run_warp(&kernel, l.var, bounds, &iters, env, 7, &mut dev_v, &cfg);
            let nat = native_vm.run_warp(&native, l.var, bounds, &iters, env, 7, &mut dev_n, &cfg);
            for (name, other, dev) in [("bytecode", &vm, &dev_v), ("native", &nat, &dev_n)] {
                match (&walker, other) {
                    (Ok(sw), Ok(sv)) => {
                        assert_eq!(
                            sw.issue_cycles.to_bits(),
                            sv.issue_cycles.to_bits(),
                            "{name} issue_cycles bits differ at {lanes} lanes: {} vs {}",
                            sw.issue_cycles,
                            sv.issue_cycles
                        );
                        assert_eq!(
                            sw.mem_segments, sv.mem_segments,
                            "{name} mem_segments @{lanes}"
                        );
                        assert_eq!(sw.branches, sv.branches, "{name} branches @{lanes}");
                        assert_eq!(
                            sw.divergent_branches, sv.divergent_branches,
                            "{name} divergent_branches @{lanes}"
                        );
                    }
                    (Err(ew), Err(ev)) => {
                        assert_eq!(
                            format!("{ew:?}"),
                            format!("{ev:?}"),
                            "{name} error mismatch @{lanes}"
                        );
                    }
                    _ => panic!("{name} outcome mismatch @{lanes}: {walker:?} vs {other:?}"),
                }
                for &(id, len) in ids {
                    for i in 0..len {
                        assert_eq!(
                            bits(dev_w.array(id).unwrap().get(i)),
                            bits(dev.array(id).unwrap().get(i)),
                            "{name} array {id:?} element {i} differs @{lanes} lanes"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vector_add_matches_walker() {
        let a: Vec<f64> = (0..32).map(|i| i as f64 * 1.5).collect();
        let b: Vec<f64> = (0..32).map(|i| 100.0 - i as f64).collect();
        let c = vec![0.0; 32];
        assert_warp_identical(
            "static void add(double[] a, double[] b, double[] c, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { c[i] = a[i] + b[i]; }
            }",
            "add",
            &[&a, &b, &c],
            &[],
        );
    }

    #[test]
    fn divergent_branch_matches_walker() {
        let a = vec![0i32; 32];
        assert_warp_identical(
            "static void f(int[] a, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) {
                    if (i % 2 == 0) { a[i] = i * 3; } else { a[i] = i - 7; }
                }
            }",
            "f",
            &[],
            &[&a],
        );
    }

    #[test]
    fn unbalanced_inner_loop_matches_walker() {
        let a = vec![0i32; 32];
        assert_warp_identical(
            "static void f(int[] a, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) {
                    int s = 0;
                    for (int j = 0; j < i; j++) { s = s + j * j; }
                    a[i] = s;
                }
            }",
            "f",
            &[],
            &[&a],
        );
    }

    #[test]
    fn while_and_short_circuit_match_walker() {
        let a = vec![0i32; 32];
        assert_warp_identical(
            "static void f(int[] a, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) {
                    int k = i;
                    while (k > 1 && k < 40) {
                        if (k % 2 == 0) { k = k / 2; } else { k = 3 * k + 1; }
                    }
                    a[i] = k;
                }
            }",
            "f",
            &[],
            &[&a],
        );
    }

    #[test]
    fn intrinsics_and_calls_match_walker() {
        let a: Vec<f64> = (0..32).map(|i| (i as f64) * 0.37 - 3.0).collect();
        let b = vec![0.0f64; 32];
        assert_warp_identical(
            "static double shape(double x, double bias) {
                if (x < 0.0) { return Math.exp(x) + bias; }
                return Math.sqrt(x) * Math.max(x, bias);
            }
            static void f(double[] a, double[] b, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) {
                    b[i] = shape(a[i], 0.5) > 1.0 ? shape(a[i], 0.25) : -1.0;
                }
            }",
            "f",
            &[&a, &b],
            &[],
        );
    }

    #[test]
    fn lane_error_matches_walker() {
        // Out-of-bounds store on one lane: the same lane must fault with
        // the same rendered error under both engines.
        let a = vec![0i32; 8];
        assert_warp_identical(
            "static void f(int[] a, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { a[i + 3] = i; }
            }",
            "f",
            &[],
            &[&a],
        );
    }

    #[test]
    fn strided_access_coalescing_matches_walker() {
        let a: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let b = vec![0.0f64; 64];
        let p = compile_source(
            "static void f(double[] a, double[] b, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { b[i * 2] = a[i * 2] + a[0]; }
            }",
        )
        .unwrap();
        let (_, f) = p.function_by_name("f").unwrap();
        let l = f.all_loops()[0].clone();
        let mut heap = Heap::new();
        let ia = heap.alloc_doubles(&a);
        let ib = heap.alloc_doubles(&b);
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(ia));
        env.set(f.params[1].var, Value::Array(ib));
        env.set(f.params[2].var, Value::Int(32));
        let bounds = LoopBounds {
            start: 0,
            end: 32,
            step: 1,
        };
        let mut vms = (SimtVm::new(), crate::native::NativeSimtVm::new());
        run_both(
            &p,
            &l,
            &bounds,
            &heap,
            &[(ia, 64), (ib, 64)],
            &env,
            &mut vms,
        );
    }

    /// Register windows are not cleared when they open. Run a kernel with
    /// many registers, then — on the same VMs, over what it left — a kernel
    /// that calls a helper twice per iteration under divergent masks, and
    /// one that declares a variable on some lanes only: every result,
    /// charge and error equals the walker's.
    #[test]
    fn stale_register_windows_are_never_read() {
        let p = compile_source(
            "static double helper(double x, int k) {
                double t = x * 2.0;
                if (k % 3 == 0) { return t + 1.0; }
                double u = t - x;
                return u * 0.5 + Math.sqrt(Math.abs(u));
            }
            static void wide(double[] a, double[] b, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) {
                    double p = a[i] * 1.5;
                    double q = p + 2.0;
                    double r = q * p - 1.0;
                    double s = (r + q) * (p - r) / (q + 3.0);
                    double t = Math.exp(s * 0.001) + Math.max(p, q) - Math.min(r, s);
                    b[i] = ((p + q) * (r - s)) / (t + 1.0) + (p * q - r * s) * (t - p);
                }
            }
            static void calls(double[] a, double[] b, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) {
                    double y = 0.0;
                    if (i % 2 == 0) { y = helper(a[i], i); } else { y = helper(a[i] + 1.0, i + 1); }
                    b[i] = helper(y, i) + y;
                }
            }
            static void divergent_decl(double[] a, double[] b, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) {
                    if (i % 4 != 3) { double z = a[i]; b[i] = z; }
                    b[i] = b[i] + helper(a[i], i);
                }
            }",
        )
        .unwrap();
        let a: Vec<f64> = (0..32).map(|i| i as f64 * 0.75 - 9.0).collect();
        let mut heap = Heap::new();
        let (ia, ib) = (heap.alloc_doubles(&a), heap.alloc_doubles(&[0.0; 32]));
        let bounds = LoopBounds {
            start: 0,
            end: 32,
            step: 1,
        };
        let mut vms = (SimtVm::new(), crate::native::NativeSimtVm::new());
        for name in ["wide", "calls", "wide", "divergent_decl"] {
            let (_, f) = p.function_by_name(name).unwrap();
            let l = f.all_loops()[0].clone();
            let mut env = Env::with_slots(f.num_vars);
            env.set(f.params[0].var, Value::Array(ia));
            env.set(f.params[1].var, Value::Array(ib));
            env.set(f.params[2].var, Value::Int(32));
            run_both(
                &p,
                &l,
                &bounds,
                &heap,
                &[(ia, 32), (ib, 32)],
                &env,
                &mut vms,
            );
        }
    }
}
