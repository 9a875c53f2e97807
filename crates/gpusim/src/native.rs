//! The SIMT **native tier**: threaded-code compilation of warp bytecode.
//!
//! [`compile_native_warp`] lowers a [`CompiledKernel`] into a flat array of
//! warp-op closures with operand registers, constant-pool values, callee
//! chunks and error payloads pre-resolved at compile time, eliminating the
//! per-instruction decode `match` of [`crate::vm::SimtVm`]. Mask handling
//! is baked into the block runner: every op receives the live mask
//! (`mask & !returned`) already recomputed, exactly as the bytecode VM
//! recomputes it per instruction.
//!
//! [`NativeSimtVm`] replays `SimtVm` (and therefore the tree walker in
//! `simt.rs`) **bit for bit**: identical charge order (so `issue_cycles`
//! f64 accumulation matches to the last bit), identical branch/divergence
//! counting, identical coalescing segment sets, identical per-lane error
//! selection. The closures run against `&mut dyn LaneMemory`, so one
//! compiled artifact (cached via
//! [`japonica_ir::KernelCache::native_tier`]) serves device memory,
//! speculative views and privatized buffers alike.

use std::sync::Arc;

use crate::config::DeviceConfig;
use crate::memory::LaneMemory;
use crate::simt::SimtError;
use crate::stats::WarpStats;
use crate::warp::{
    bit, each_lane, for_lanes, Access, Accounting, Frame, LaneCtx, LaneRegs, WarpIssue,
};
use japonica_ir::bytecode::{CompiledKernel, Instr};
use japonica_ir::{BinOp, Env, ExecError, LoopBounds, OpClass, ParamTy, Value, VarId};

/// Dynamic execution context threaded through the closure sweep. The
/// memory is a trait object so the compiled artifact is backend-agnostic.
type DynCtx<'a> = crate::warp::WarpCtx<'a, dyn LaneMemory + 'a, WarpIssue<'a>>;

/// One pre-compiled warp op.
type WOp = Box<
    dyn for<'a, 'b, 'c> Fn(
            &mut NativeSimtVm,
            LaneCtx,
            &'a mut Frame,
            &'b mut DynCtx<'c>,
        ) -> Result<(), SimtError>
        + Send
        + Sync,
>;

/// A lowered chunk: the closure array plus the frame metadata needed to
/// push it as a call frame and raise call-related errors.
struct WChunk {
    ops: Vec<WOp>,
    num_regs: usize,
    num_vars: usize,
    params: Vec<(usize, ParamTy)>,
    fn_name: String,
    check_returned: bool,
}

/// A kernel fully lowered to SIMT threaded code. Build once via
/// [`compile_native_warp`], share via `Arc`, execute via [`NativeSimtVm`].
pub struct NativeWarpKernel {
    entry: Arc<WChunk>,
}

impl std::fmt::Debug for NativeWarpKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeWarpKernel")
            .field("entry_ops", &self.entry.ops.len())
            .field("num_regs", &self.entry.num_regs)
            .field("num_vars", &self.entry.num_vars)
            .finish()
    }
}

/// Run a closure block under `mask`, recomputing liveness per op exactly
/// like the bytecode VM's `run` loop (equivalent to the walker's
/// per-statement recheck because `returned` only changes at `Return`).
#[allow(clippy::too_many_arguments)]
fn run_ops(
    vm: &mut NativeSimtVm,
    ops: &[WOp],
    lanes: usize,
    mask: u32,
    base: usize,
    bbase: usize,
    frame: &mut Frame,
    ctx: &mut DynCtx<'_>,
) -> Result<(), SimtError> {
    for op in ops {
        let live = mask & !frame.returned;
        if live == 0 {
            break;
        }
        op(
            vm,
            LaneCtx {
                lanes,
                live,
                base,
                bbase,
            },
            frame,
            ctx,
        )?;
    }
    Ok(())
}

/// The warp-level threaded-code VM. Owns reusable arenas; create one per
/// host thread and reuse it across warps.
#[derive(Debug, Default)]
pub struct NativeSimtVm {
    rf: LaneRegs,
}

impl NativeSimtVm {
    /// A fresh VM (arenas grow on first use, then get reused).
    pub fn new() -> NativeSimtVm {
        NativeSimtVm::default()
    }

    /// Execute one warp of a lowered kernel: lane `l` runs loop iteration
    /// `warp_iters[l]`. Mirrors `SimtVm::run_warp` exactly.
    #[allow(clippy::too_many_arguments)] // mirrors the walker's launch signature
    pub fn run_warp<M: LaneMemory>(
        &mut self,
        kernel: &NativeWarpKernel,
        loop_var: VarId,
        bounds: &LoopBounds,
        warp_iters: &[u64],
        base_env: &Env,
        warp_id: u32,
        mem: &mut M,
        cfg: &DeviceConfig,
    ) -> Result<WarpStats, SimtError> {
        assert!(warp_iters.len() <= cfg.warp_size as usize, "warp overfull");
        let c0 = &kernel.entry;
        let full = self.rf.enter(
            (c0.num_regs, c0.num_vars),
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
        let mut ctx = DynCtx {
            mem,
            acct: issue,
            iters: warp_iters,
            warp_id,
        };
        let mut frame = Frame::new(false);
        let lanes = warp_iters.len();
        run_ops(self, &c0.ops, lanes, full, 0, 0, &mut frame, &mut ctx)?;
        Ok(stats)
    }
}

/// Lower a compiled kernel to SIMT threaded code.
///
/// Lowering is total: every bytecode instruction has a closure form.
/// Device-side limitations (`new` arrays, `break`/`continue`, top-level
/// `return`) stay *runtime* bail-outs raising the identical
/// [`SimtError::Unsupported`] the bytecode VM raises, preserving the
/// three-way error contract.
pub fn compile_native_warp(k: &CompiledKernel) -> NativeWarpKernel {
    let mut lw = Lowerer {
        k,
        done: vec![None; k.chunks.len()],
    };
    let entry = lw.chunk(0);
    NativeWarpKernel { entry }
}

/// Recursive chunk lowerer with memoization: the chunk call graph is a DAG
/// (the bytecode compiler rejects recursion), so each chunk is lowered once
/// and `Call` ops share the `Arc`.
struct Lowerer<'k> {
    k: &'k CompiledKernel,
    done: Vec<Option<Arc<WChunk>>>,
}

impl Lowerer<'_> {
    fn chunk(&mut self, ci: usize) -> Arc<WChunk> {
        if let Some(c) = &self.done[ci] {
            return Arc::clone(c);
        }
        let src = &self.k.chunks[ci];
        let ops = self.lower(ci, 0, src.code.len() as u32);
        let src = &self.k.chunks[ci];
        let c = Arc::new(WChunk {
            ops,
            num_regs: src.num_regs as usize,
            num_vars: src.num_vars as usize,
            params: src.params.iter().map(|(r, t)| (*r as usize, *t)).collect(),
            fn_name: src.fn_name.clone(),
            check_returned: src.check_returned,
        });
        self.done[ci] = Some(Arc::clone(&c));
        c
    }

    /// Lower instructions `lo..hi` of chunk `ci`, walking the same
    /// `next_pc` extents the bytecode VM walks at run time.
    fn lower(&mut self, ci: usize, lo: u32, hi: u32) -> Vec<WOp> {
        let k = self.k;
        let mut ops = Vec::new();
        let mut pc = lo;
        while pc < hi {
            let instr = &k.chunks[ci].code[pc as usize];
            let next = instr.next_pc(pc);
            ops.push(self.lower_instr(ci, instr));
            pc = next;
        }
        ops
    }

    /// One instruction → one warp-op closure. Each arm resolves its
    /// operands now and mirrors the corresponding `SimtVm::run` arm
    /// exactly: same charge order, same per-lane error order, same
    /// branch/divergence accounting.
    fn lower_instr(&mut self, ci: usize, instr: &Instr) -> WOp {
        match instr {
            Instr::Const { dst, pool } => {
                let dst = *dst as usize;
                let v = self.k.pool[*pool as usize];
                Box::new(move |vm, lc, _f, ctx| {
                    ctx.acct.op(OpClass::Move, lc.live);
                    vm.rf.fill(lc, dst, v);
                    Ok(())
                })
            }
            Instr::Copy { dst, src } => {
                let (dst, src) = (*dst as usize, *src as usize);
                Box::new(move |vm, lc, _f, ctx| {
                    ctx.acct.op(OpClass::Move, lc.live);
                    vm.rf.copy(lc, dst, src, ctx)
                })
            }
            Instr::Unary {
                op,
                dst,
                src,
                cls_i,
                cls_f,
            } => {
                let (op, dst, src, cls) = (*op, *dst as usize, *src as usize, (*cls_i, *cls_f));
                Box::new(move |vm, lc, _f, ctx| vm.rf.unary(lc, op, dst, src, cls, ctx))
            }
            Instr::Binary {
                op,
                dst,
                a,
                b,
                cls_i,
                cls_f,
            } => {
                let (op, dst, a, b) = (*op, *dst as usize, *a as usize, *b as usize);
                let cls = (*cls_i, *cls_f);
                Box::new(move |vm, lc, _f, ctx| vm.rf.binary(lc, op, dst, a, b, cls, ctx))
            }
            Instr::Cast { ty, dst, src } => {
                let (ty, dst, src) = (*ty, *dst as usize, *src as usize);
                Box::new(move |vm, lc, _f, ctx| vm.rf.cast(lc, ty, dst, src, ctx))
            }
            // Scalar-walker-only pre-checks: the SIMT engines validate
            // arrays and indices per lane at the access itself.
            Instr::GuardArray { .. } | Instr::CheckIdx { .. } => Box::new(|_, _, _, _| Ok(())),
            Instr::Load { dst, arr, var, idx } => {
                let dst = *dst as usize;
                let at = Access {
                    arr: *arr as usize,
                    var: *var,
                    idx: *idx as usize,
                };
                Box::new(move |vm, lc, _f, ctx| vm.rf.load(lc, dst, at, ctx))
            }
            Instr::Len { dst, arr, var } => {
                let (dst, arr, var) = (*dst as usize, *arr as usize, *var);
                Box::new(move |vm, lc, _f, ctx| vm.rf.len(lc, dst, arr, var, ctx))
            }
            Instr::Intrinsic { f, cls, dst, args } => {
                let (f, cls, dst) = (*f, *cls, *dst as usize);
                let args: Vec<usize> = args.iter().map(|r| *r as usize).collect();
                Box::new(move |vm, lc, _fr, ctx| {
                    vm.rf
                        .intrinsic(lc, (f, cls), dst, args.iter().copied(), ctx)
                })
            }
            Instr::Call { chunk, dst, args } => {
                let callee = self.chunk(*chunk as usize);
                let dst = dst.map(|d| d as usize);
                let args: Vec<usize> = args.iter().map(|r| *r as usize).collect();
                Box::new(move |vm, lc, _f, ctx| {
                    ctx.acct.op(OpClass::Call, lc.live);
                    let c = &callee;
                    let frame_at = vm.rf.push_frame((c.num_regs, c.num_vars), lc.lanes);
                    let (nbase, nbbase) = frame_at;
                    // Lane-major binding, like the walker's per-lane envs.
                    let bound = for_lanes(lc.lanes, lc.live, |l| {
                        for (i, (preg, pty)) in c.params.iter().enumerate() {
                            let raw = vm.rf.reg(lc.base, lc.lanes, args[i], l);
                            let v = match pty {
                                ParamTy::Scalar(t) => raw.cast(*t).ok_or_else(|| {
                                    ctx.lane_err(
                                        l,
                                        ExecError::TypeMismatch {
                                            expected: t.to_string(),
                                            found: format!("{raw}"),
                                        },
                                    )
                                })?,
                                ParamTy::Array(_) => raw,
                            };
                            vm.rf.set_reg(nbase, lc.lanes, *preg, l, v);
                        }
                        Ok(())
                    });
                    let res = match bound {
                        Err(e) => Err(e),
                        Ok(()) => {
                            for (preg, _) in &c.params {
                                vm.rf.bound[nbbase + *preg] = lc.live;
                            }
                            let mut callee_frame = Frame::new(true);
                            run_ops(
                                vm,
                                &c.ops,
                                lc.lanes,
                                lc.live,
                                nbase,
                                nbbase,
                                &mut callee_frame,
                                ctx,
                            )
                            .map(|()| callee_frame)
                        }
                    };
                    vm.rf.pop_frame(frame_at);
                    let callee_frame = res?;
                    if c.check_returned && lc.live & !callee_frame.returned != 0 {
                        return Err(SimtError::Unsupported(format!(
                            "`{}` completed without returning on some lane",
                            c.fn_name
                        )));
                    }
                    if let Some(dst) = dst {
                        each_lane(lc.lanes, lc.live, |l| {
                            vm.rf
                                .set_reg(lc.base, lc.lanes, dst, l, callee_frame.ret[l])
                        });
                    }
                    Ok(())
                })
            }
            Instr::Sc {
                op,
                dst,
                lhs,
                rhs_range,
                rhs,
            } => {
                let (op, dst, lhs, rhs) = (*op, *dst as usize, *lhs as usize, *rhs as usize);
                let rhs_ops = self.lower(ci, rhs_range.0, rhs_range.1);
                Box::new(move |vm, lc, frame, ctx| {
                    let truth = vm.rf.truth_mask(lc, lhs, lc.live, ctx)?;
                    ctx.acct.branch(lc.live);
                    let need_rhs = match op {
                        BinOp::LAnd => lc.live & truth,
                        _ => lc.live & !truth,
                    };
                    let short = lc.live & !need_rhs;
                    if need_rhs != 0 && short != 0 {
                        ctx.acct.diverged();
                    }
                    let mut rtruth = 0u32;
                    if need_rhs != 0 {
                        run_ops(
                            vm, &rhs_ops, lc.lanes, need_rhs, lc.base, lc.bbase, frame, ctx,
                        )?;
                        rtruth = vm.rf.truth_mask(lc, rhs, need_rhs, ctx)?;
                    }
                    let result = (need_rhs & rtruth) | (short & truth);
                    each_lane(lc.lanes, lc.live, |l| {
                        vm.rf
                            .set_reg(lc.base, lc.lanes, dst, l, Value::Bool(result & bit(l) != 0))
                    });
                    Ok(())
                })
            }
            Instr::Ternary {
                dst,
                cond,
                t_range,
                t_dst,
                f_range,
                f_dst,
            } => {
                let (dst, cond) = (*dst as usize, *cond as usize);
                let (t_dst, f_dst) = (*t_dst as usize, *f_dst as usize);
                let t_ops = self.lower(ci, t_range.0, t_range.1);
                let f_ops = self.lower(ci, f_range.0, f_range.1);
                Box::new(move |vm, lc, frame, ctx| {
                    let truth = vm.rf.truth_mask(lc, cond, lc.live, ctx)?;
                    ctx.acct.branch(lc.live);
                    let t_mask = lc.live & truth;
                    let f_mask = lc.live & !truth;
                    if t_mask != 0 && f_mask != 0 {
                        ctx.acct.diverged();
                    }
                    if t_mask != 0 {
                        run_ops(vm, &t_ops, lc.lanes, t_mask, lc.base, lc.bbase, frame, ctx)?;
                    }
                    if f_mask != 0 {
                        run_ops(vm, &f_ops, lc.lanes, f_mask, lc.base, lc.bbase, frame, ctx)?;
                    }
                    each_lane(lc.lanes, lc.live, |l| {
                        let src = if t_mask & bit(l) != 0 { t_dst } else { f_dst };
                        let v = vm.rf.reg(lc.base, lc.lanes, src, l);
                        vm.rf.set_reg(lc.base, lc.lanes, dst, l, v);
                    });
                    Ok(())
                })
            }
            Instr::Decl { var, ty, init } => {
                let (var, ty, init) = (*var as usize, *ty, init.map(|r| r as usize));
                Box::new(move |vm, lc, _f, ctx| vm.rf.decl(lc, var, ty, init, ctx))
            }
            Instr::Assign { var, src } => {
                let (var, src) = (*var as usize, *src as usize);
                Box::new(move |vm, lc, _f, ctx| vm.rf.assign(lc, var, src, ctx))
            }
            Instr::Store { arr, var, idx, val } => {
                let val = *val as usize;
                let at = Access {
                    arr: *arr as usize,
                    var: *var,
                    idx: *idx as usize,
                };
                Box::new(move |vm, lc, _f, ctx| vm.rf.store(lc, at, val, ctx))
            }
            Instr::NewArray { .. } => Box::new(|_, _, _, _| {
                Err(SimtError::Unsupported(
                    "device-side array allocation".into(),
                ))
            }),
            Instr::If {
                cond,
                then_range,
                else_range,
            } => {
                let cond = *cond as usize;
                let then_ops = self.lower(ci, then_range.0, then_range.1);
                let else_ops = self.lower(ci, else_range.0, else_range.1);
                Box::new(move |vm, lc, frame, ctx| {
                    let truth = vm.rf.truth_mask(lc, cond, lc.live, ctx)?;
                    ctx.acct.branch(lc.live);
                    let t_mask = lc.live & truth;
                    let e_mask = lc.live & !truth;
                    if t_mask != 0 && e_mask != 0 {
                        ctx.acct.diverged();
                    }
                    if t_mask != 0 {
                        run_ops(
                            vm, &then_ops, lc.lanes, t_mask, lc.base, lc.bbase, frame, ctx,
                        )?;
                    }
                    if e_mask != 0 {
                        run_ops(
                            vm, &else_ops, lc.lanes, e_mask, lc.base, lc.bbase, frame, ctx,
                        )?;
                    }
                    Ok(())
                })
            }
            Instr::While {
                cond_range,
                cond,
                body_range,
            } => {
                let cond = *cond as usize;
                let cond_ops = self.lower(ci, cond_range.0, cond_range.1);
                let body_ops = self.lower(ci, body_range.0, body_range.1);
                Box::new(move |vm, lc, frame, ctx| {
                    let mut live_w = lc.live;
                    let entered = live_w.count_ones();
                    loop {
                        let live_now = live_w & !frame.returned;
                        if live_now == 0 {
                            break;
                        }
                        run_ops(
                            vm, &cond_ops, lc.lanes, live_now, lc.base, lc.bbase, frame, ctx,
                        )?;
                        let truth = vm.rf.truth_mask(lc, cond, live_now, ctx)?;
                        ctx.acct.branch(live_now);
                        live_w = live_now & truth;
                        if live_w == 0 {
                            break;
                        }
                        if live_w.count_ones() < entered {
                            ctx.acct.diverged();
                        }
                        run_ops(
                            vm, &body_ops, lc.lanes, live_w, lc.base, lc.bbase, frame, ctx,
                        )?;
                    }
                    Ok(())
                })
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
                let (var, start, end, step) = (
                    *var as usize,
                    *start as usize,
                    *end as usize,
                    *step as usize,
                );
                let start_ops = self.lower(ci, start_range.0, start_range.1);
                let end_ops = self.lower(ci, end_range.0, end_range.1);
                let step_ops = self.lower(ci, step_range.0, step_range.1);
                let body_ops = self.lower(ci, body_range.0, body_range.1);
                Box::new(move |vm, lc, frame, ctx| {
                    let mut starts = [0i64; 32];
                    let mut steps = [0i64; 32];
                    let mut trips = [0u64; 32];
                    // Evaluate bounds like the walker's eval_i64: full
                    // vector eval, then per-lane integrality in lane order.
                    let bound_of = |vm: &mut NativeSimtVm,
                                    ops: &[WOp],
                                    r: usize,
                                    out: &mut [i64; 32],
                                    frame: &mut Frame,
                                    ctx: &mut DynCtx<'_>|
                     -> Result<(), SimtError> {
                        run_ops(vm, ops, lc.lanes, lc.live, lc.base, lc.bbase, frame, ctx)?;
                        for_lanes(lc.lanes, lc.live, |l| {
                            let v = vm.rf.reg(lc.base, lc.lanes, r, l);
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
                    bound_of(vm, &start_ops, start, &mut starts, frame, ctx)?;
                    let mut ends = [0i64; 32];
                    bound_of(vm, &end_ops, end, &mut ends, frame, ctx)?;
                    bound_of(vm, &step_ops, step, &mut steps, frame, ctx)?;
                    let mut max_trip = 0u64;
                    for_lanes(lc.lanes, lc.live, |l| {
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
                    let entered = lc.live.count_ones();
                    for kk in 0..max_trip {
                        let mut round = 0u32;
                        each_lane(lc.lanes, lc.live & !frame.returned, |l| {
                            if kk < trips[l] {
                                round |= bit(l);
                            }
                        });
                        if round == 0 {
                            break;
                        }
                        ctx.acct.op(OpClass::IntAlu, round);
                        ctx.acct.branch(round);
                        if round.count_ones() < entered {
                            ctx.acct.diverged();
                        }
                        each_lane(lc.lanes, round, |l| {
                            let v = Value::Int((starts[l] + kk as i64 * steps[l]) as i32);
                            vm.rf.set_reg(lc.base, lc.lanes, var, l, v);
                        });
                        vm.rf.bound[lc.bbase + var] |= round;
                        run_ops(
                            vm, &body_ops, lc.lanes, round, lc.base, lc.bbase, frame, ctx,
                        )?;
                    }
                    Ok(())
                })
            }
            Instr::Return { val_range, val } => {
                let val = val.map(|r| r as usize);
                let val_ops = self.lower(ci, val_range.0, val_range.1);
                Box::new(move |vm, lc, frame, ctx| {
                    if !frame.allow_return {
                        return Err(SimtError::Unsupported("return in kernel body".into()));
                    }
                    if let Some(r) = val {
                        run_ops(
                            vm, &val_ops, lc.lanes, lc.live, lc.base, lc.bbase, frame, ctx,
                        )?;
                        each_lane(lc.lanes, lc.live, |l| {
                            frame.ret[l] = vm.rf.reg(lc.base, lc.lanes, r, l)
                        });
                    }
                    frame.returned |= lc.live;
                    Ok(())
                })
            }
            Instr::Break => {
                Box::new(|_, _, _, _| Err(SimtError::Unsupported("break in kernel body".into())))
            }
            Instr::Continue => {
                Box::new(|_, _, _, _| Err(SimtError::Unsupported("continue in kernel body".into())))
            }
        }
    }
}
