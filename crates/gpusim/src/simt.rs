//! The lock-step SIMT warp interpreter.
//!
//! A warp executes one loop iteration per lane. All lanes walk the same IR
//! tree together under an *active mask*; control flow manipulates the mask
//! rather than the instruction stream, exactly like real SIMT hardware:
//!
//! * `if` evaluates the condition in every active lane and runs both
//!   branches with complementary masks (a *divergent branch* when both are
//!   non-empty);
//! * inner loops keep issuing rounds until every lane's trip count is
//!   exhausted — lanes that finish early idle, which is how load imbalance
//!   inside a warp wastes lanes;
//! * each warp-level instruction is charged once regardless of how many
//!   lanes are active (SIMD issue), and each warp-level memory access is
//!   charged by the number of distinct segments the lanes touch.
//!
//! Kernel bodies may call other MiniJava functions (they are inlined
//! SIMT-style with per-lane frames and return masks), but `break`,
//! `continue`, `return` at kernel top level and device-side allocation are
//! rejected — the translator never produces them for annotated loops.

use crate::config::DeviceConfig;
use crate::memory::{AccessCtx, LaneMemory};
use crate::stats::WarpStats;
use japonica_ir::cost::{binop_class, intrinsic_class, unop_class};
use japonica_ir::{
    ops, ArrayId, Env, ExecError, Expr, ForLoop, LoopBounds, OpClass, Program, Stmt, Value,
};

/// An error raised during SIMT execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SimtError {
    /// A lane hit a runtime error; `iter` is the loop iteration it executed.
    Lane { iter: u64, error: ExecError },
    /// The kernel used a construct the SIMT engine does not support.
    Unsupported(String),
    /// An injected (or watchdog-raised) device fault, carried with its
    /// origin so the recovery machinery knows where execution stopped.
    Fault(japonica_faults::DeviceFault),
    /// A device memory operation (allocation/transfer bookkeeping) failed.
    Mem(ExecError),
}

impl std::fmt::Display for SimtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimtError::Lane { iter, error } => write!(f, "lane at iteration {iter}: {error}"),
            SimtError::Unsupported(w) => write!(f, "unsupported in GPU kernel: {w}"),
            SimtError::Fault(d) => write!(f, "device fault: {d}"),
            SimtError::Mem(e) => write!(f, "device memory: {e}"),
        }
    }
}

impl std::error::Error for SimtError {}

impl From<japonica_faults::DeviceFault> for SimtError {
    fn from(f: japonica_faults::DeviceFault) -> SimtError {
        SimtError::Fault(f)
    }
}

/// Per-lane values produced by a vector expression evaluation. `None` for
/// inactive lanes.
type Vals = Vec<Option<Value>>;

type Mask = Vec<bool>;

fn any(mask: &Mask) -> bool {
    mask.iter().any(|&b| b)
}

fn count(mask: &Mask) -> usize {
    mask.iter().filter(|&&b| b).count()
}

/// A call frame during SIMT function inlining.
struct Frame {
    returned: Mask,
    ret_vals: Vals,
    /// `false` at kernel top level, where `return` is illegal.
    allow_return: bool,
}

impl Frame {
    fn kernel(lanes: usize) -> Frame {
        Frame {
            returned: vec![false; lanes],
            ret_vals: vec![None; lanes],
            allow_return: false,
        }
    }
    fn call(lanes: usize) -> Frame {
        Frame {
            returned: vec![false; lanes],
            ret_vals: vec![None; lanes],
            allow_return: true,
        }
    }
    /// Lanes of `mask` that have not returned.
    fn live(&self, mask: &Mask) -> Mask {
        mask.iter()
            .zip(&self.returned)
            .map(|(&m, &r)| m && !r)
            .collect()
    }
}

/// Execution context threaded through the tree walk.
struct Ctx<'a, M: LaneMemory> {
    mem: &'a mut M,
    stats: &'a mut WarpStats,
    cfg: &'a DeviceConfig,
    iters: &'a [u64],
    warp_id: u32,
    depth: usize,
    /// Reusable distinct-segment scratch for `charge_coalesced` (avoids a
    /// `BTreeSet` allocation per warp memory access).
    seg_scratch: Vec<u64>,
}

impl<M: LaneMemory> Ctx<'_, M> {
    fn access_ctx(&self, lane: usize) -> AccessCtx {
        AccessCtx {
            lane: lane as u32,
            warp: self.warp_id,
            iter: self.iters[lane],
        }
    }

    fn lane_err(&self, lane: usize, error: ExecError) -> SimtError {
        SimtError::Lane {
            iter: self.iters[lane],
            error,
        }
    }

    /// Charge one coalesced warp memory access over the given per-lane
    /// (array, index) pairs.
    fn charge_coalesced(&mut self, touched: &[(usize, ArrayId, i64)]) {
        crate::warp::charge_coalesced(
            &mut self.seg_scratch,
            touched,
            &*self.mem,
            self.stats,
            self.cfg,
        );
    }
}

/// The SIMT executor for one program on one device configuration.
pub struct SimtExec<'p> {
    program: &'p Program,
    cfg: &'p DeviceConfig,
    max_depth: usize,
}

#[allow(clippy::needless_range_loop)] // lane indexing reads clearer than zipped iterators
#[allow(clippy::match_like_matches_macro)] // the (op, value) table reads clearer as a match
impl<'p> SimtExec<'p> {
    /// Create an executor.
    pub fn new(program: &'p Program, cfg: &'p DeviceConfig) -> SimtExec<'p> {
        SimtExec {
            program,
            cfg,
            max_depth: 16,
        }
    }

    /// Execute one warp: lane `l` runs loop iteration `warp_iters[l]` of
    /// `loop_` (0-based iteration index into `bounds`). Every lane starts
    /// from a copy of `base_env`.
    pub fn run_warp<M: LaneMemory>(
        &self,
        loop_: &ForLoop,
        bounds: &LoopBounds,
        warp_iters: &[u64],
        base_env: &Env,
        warp_id: u32,
        mem: &mut M,
    ) -> Result<WarpStats, SimtError> {
        assert!(
            warp_iters.len() <= self.cfg.warp_size as usize,
            "warp overfull"
        );
        let lanes = warp_iters.len();
        let mut envs: Vec<Env> = vec![base_env.clone(); lanes];
        for (l, &k) in warp_iters.iter().enumerate() {
            envs[l].set(loop_.var, Value::Int(bounds.value_of(k) as i32));
        }
        let mut stats = WarpStats::new();
        let mut ctx = Ctx {
            mem,
            stats: &mut stats,
            cfg: self.cfg,
            iters: warp_iters,
            warp_id,
            depth: 0,
            seg_scratch: Vec::new(),
        };
        let mask = vec![true; lanes];
        let mut frame = Frame::kernel(lanes);
        self.exec_block(&loop_.body, &mut envs, &mask, &mut frame, &mut ctx)?;
        Ok(stats)
    }

    fn exec_block<M: LaneMemory>(
        &self,
        stmts: &[Stmt],
        envs: &mut [Env],
        mask: &Mask,
        frame: &mut Frame,
        ctx: &mut Ctx<'_, M>,
    ) -> Result<(), SimtError> {
        for s in stmts {
            let live = frame.live(mask);
            if !any(&live) {
                break;
            }
            self.exec_stmt(s, envs, &live, frame, ctx)?;
        }
        Ok(())
    }

    fn exec_stmt<M: LaneMemory>(
        &self,
        stmt: &Stmt,
        envs: &mut [Env],
        mask: &Mask,
        frame: &mut Frame,
        ctx: &mut Ctx<'_, M>,
    ) -> Result<(), SimtError> {
        match stmt {
            Stmt::DeclVar { var, ty, init } => {
                let vals = match init {
                    Some(e) => self.eval(e, envs, mask, ctx)?,
                    None => mask
                        .iter()
                        .map(|&m| if m { Some(ty.zero()) } else { None })
                        .collect(),
                };
                ctx.stats.charge(OpClass::Move, &ctx.cfg.cost);
                for (l, v) in vals.into_iter().enumerate() {
                    if let Some(v) = v {
                        let cast = v.cast(*ty).ok_or_else(|| {
                            ctx.lane_err(
                                l,
                                ExecError::TypeMismatch {
                                    expected: ty.to_string(),
                                    found: format!("{v}"),
                                },
                            )
                        })?;
                        envs[l].set(*var, cast);
                    }
                }
                Ok(())
            }
            Stmt::NewArray { .. } => Err(SimtError::Unsupported(
                "device-side array allocation".into(),
            )),
            Stmt::Assign { var, value } => {
                let vals = self.eval(value, envs, mask, ctx)?;
                ctx.stats.charge(OpClass::Move, &ctx.cfg.cost);
                for (l, v) in vals.into_iter().enumerate() {
                    if let Some(mut v) = v {
                        if let Ok(old) = envs[l].get(*var) {
                            if let Some(ty) = old.ty() {
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
                        envs[l].set(*var, v);
                    }
                }
                Ok(())
            }
            Stmt::Store {
                array,
                index,
                value,
                ..
            } => {
                let idxs = self.eval(index, envs, mask, ctx)?;
                let vals = self.eval(value, envs, mask, ctx)?;
                ctx.stats.charge(OpClass::Store, &ctx.cfg.cost);
                let mut touched = Vec::new();
                for l in 0..envs.len() {
                    if !mask[l] {
                        continue;
                    }
                    let arr = envs[l]
                        .get(*array)
                        .map_err(|e| ctx.lane_err(l, e))?
                        .as_array()
                        .ok_or_else(|| {
                            ctx.lane_err(
                                l,
                                ExecError::TypeMismatch {
                                    expected: "array".into(),
                                    found: format!("{}", *array),
                                },
                            )
                        })?;
                    let idx = idxs[l].and_then(|v| v.as_i64()).ok_or_else(|| {
                        ctx.lane_err(
                            l,
                            ExecError::TypeMismatch {
                                expected: "int index".into(),
                                found: "non-integer".into(),
                            },
                        )
                    })?;
                    touched.push((l, arr, idx));
                }
                ctx.charge_coalesced(&touched);
                for &(l, arr, idx) in &touched {
                    let v = vals[l].expect("value evaluated for active lane");
                    let actx = ctx.access_ctx(l);
                    ctx.mem
                        .store(actx, arr, idx, v)
                        .map_err(|e| ctx.lane_err(l, e))?;
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval_bool(cond, envs, mask, ctx)?;
                ctx.stats.charge(OpClass::Branch, &ctx.cfg.cost);
                ctx.stats.branches += 1;
                let then_mask: Mask = mask
                    .iter()
                    .zip(&c)
                    .map(|(&m, &cv)| m && cv == Some(true))
                    .collect();
                let else_mask: Mask = mask
                    .iter()
                    .zip(&c)
                    .map(|(&m, &cv)| m && cv == Some(false))
                    .collect();
                if any(&then_mask) && any(&else_mask) {
                    ctx.stats.divergent_branches += 1;
                }
                if any(&then_mask) {
                    self.exec_block(then_branch, envs, &then_mask, frame, ctx)?;
                }
                if any(&else_mask) {
                    self.exec_block(else_branch, envs, &else_mask, frame, ctx)?;
                }
                Ok(())
            }
            Stmt::For(inner) => self.exec_inner_for(inner, envs, mask, frame, ctx),
            Stmt::While { cond, body } => {
                let mut live = mask.clone();
                let entered = count(&live);
                loop {
                    let live_now = frame.live(&live);
                    if !any(&live_now) {
                        break;
                    }
                    let c = self.eval_bool(cond, envs, &live_now, ctx)?;
                    ctx.stats.charge(OpClass::Branch, &ctx.cfg.cost);
                    ctx.stats.branches += 1;
                    live = live_now
                        .iter()
                        .zip(&c)
                        .map(|(&m, &cv)| m && cv == Some(true))
                        .collect();
                    if !any(&live) {
                        break;
                    }
                    if count(&live) < entered {
                        ctx.stats.divergent_branches += 1;
                    }
                    self.exec_block(body, envs, &live, frame, ctx)?;
                }
                Ok(())
            }
            Stmt::Return(e) => {
                if !frame.allow_return {
                    return Err(SimtError::Unsupported("return in kernel body".into()));
                }
                let vals = match e {
                    Some(e) => self.eval(e, envs, mask, ctx)?,
                    None => vec![None; envs.len()],
                };
                for l in 0..envs.len() {
                    if mask[l] {
                        frame.returned[l] = true;
                        frame.ret_vals[l] = vals[l];
                    }
                }
                Ok(())
            }
            Stmt::Break => Err(SimtError::Unsupported("break in kernel body".into())),
            Stmt::Continue => Err(SimtError::Unsupported("continue in kernel body".into())),
            Stmt::ExprStmt(e) => {
                self.eval(e, envs, mask, ctx)?;
                Ok(())
            }
        }
    }

    /// Inner (sequential) counted loop under SIMT: rounds continue while any
    /// lane still has iterations left.
    fn exec_inner_for<M: LaneMemory>(
        &self,
        l: &ForLoop,
        envs: &mut [Env],
        mask: &Mask,
        frame: &mut Frame,
        ctx: &mut Ctx<'_, M>,
    ) -> Result<(), SimtError> {
        let starts = self.eval_i64(&l.start, envs, mask, ctx)?;
        let ends = self.eval_i64(&l.end, envs, mask, ctx)?;
        let steps = self.eval_i64(&l.step, envs, mask, ctx)?;
        let lanes = envs.len();
        let mut trips = vec![0u64; lanes];
        for i in 0..lanes {
            if mask[i] {
                let (Some(s), Some(e), Some(st)) = (starts[i], ends[i], steps[i]) else {
                    return Err(SimtError::Unsupported(
                        "active lane has no evaluated inner-loop bound".into(),
                    ));
                };
                if st <= 0 {
                    return Err(ctx.lane_err(i, ExecError::NonPositiveStep(st)));
                }
                trips[i] = if e <= s {
                    0
                } else {
                    ((e - s) + st - 1) as u64 / st as u64
                };
            }
        }
        let entered = count(mask);
        let max_trip = trips.iter().copied().max().unwrap_or(0);
        for k in 0..max_trip {
            let round: Mask = (0..lanes)
                .map(|i| mask[i] && k < trips[i] && !frame.returned[i])
                .collect();
            if !any(&round) {
                break;
            }
            ctx.stats.charge(OpClass::IntAlu, &ctx.cfg.cost);
            ctx.stats.charge(OpClass::Branch, &ctx.cfg.cost);
            ctx.stats.branches += 1;
            if count(&round) < entered {
                ctx.stats.divergent_branches += 1;
            }
            for i in 0..lanes {
                if round[i] {
                    // `round[i]` implies a nonzero trip count, which implies
                    // the bounds evaluated to Some above.
                    let (Some(s), Some(st)) = (starts[i], steps[i]) else {
                        return Err(SimtError::Unsupported(
                            "active lane lost its inner-loop bounds".into(),
                        ));
                    };
                    envs[i].set(l.var, Value::Int((s + k as i64 * st) as i32));
                }
            }
            self.exec_block(&l.body, envs, &round, frame, ctx)?;
        }
        Ok(())
    }

    fn eval_bool<M: LaneMemory>(
        &self,
        e: &Expr,
        envs: &mut [Env],
        mask: &Mask,
        ctx: &mut Ctx<'_, M>,
    ) -> Result<Vec<Option<bool>>, SimtError> {
        let vals = self.eval(e, envs, mask, ctx)?;
        vals.into_iter()
            .enumerate()
            .map(|(l, v)| match v {
                None => Ok(None),
                Some(Value::Bool(b)) => Ok(Some(b)),
                Some(other) => Err(ctx.lane_err(
                    l,
                    ExecError::TypeMismatch {
                        expected: "boolean".into(),
                        found: format!("{other}"),
                    },
                )),
            })
            .collect()
    }

    fn eval_i64<M: LaneMemory>(
        &self,
        e: &Expr,
        envs: &mut [Env],
        mask: &Mask,
        ctx: &mut Ctx<'_, M>,
    ) -> Result<Vec<Option<i64>>, SimtError> {
        let vals = self.eval(e, envs, mask, ctx)?;
        vals.into_iter()
            .enumerate()
            .map(|(l, v)| match v {
                None => Ok(None),
                Some(v) => v.as_i64().map(Some).ok_or_else(|| {
                    ctx.lane_err(
                        l,
                        ExecError::TypeMismatch {
                            expected: "int".into(),
                            found: format!("{v}"),
                        },
                    )
                }),
            })
            .collect()
    }

    fn eval<M: LaneMemory>(
        &self,
        e: &Expr,
        envs: &mut [Env],
        mask: &Mask,
        ctx: &mut Ctx<'_, M>,
    ) -> Result<Vals, SimtError> {
        let lanes = envs.len();
        match e {
            Expr::Const(v) => {
                ctx.stats.charge(OpClass::Move, &ctx.cfg.cost);
                Ok(mask.iter().map(|&m| m.then_some(*v)).collect())
            }
            Expr::Var(var) => {
                ctx.stats.charge(OpClass::Move, &ctx.cfg.cost);
                (0..lanes)
                    .map(|l| {
                        if !mask[l] {
                            return Ok(None);
                        }
                        envs[l]
                            .get(*var)
                            .map(Some)
                            .map_err(|er| ctx.lane_err(l, er))
                    })
                    .collect()
            }
            Expr::Unary(op, a) => {
                let va = self.eval(a, envs, mask, ctx)?;
                let float = first_active(&va).map(is_float).unwrap_or(false);
                ctx.stats.charge(unop_class(*op, float), &ctx.cfg.cost);
                va.into_iter()
                    .enumerate()
                    .map(|(l, v)| match v {
                        None => Ok(None),
                        Some(v) => ops::unary(*op, v)
                            .map(Some)
                            .map_err(|er| ctx.lane_err(l, er)),
                    })
                    .collect()
            }
            Expr::Binary(op, a, b) if op.is_short_circuit() => {
                let va = self.eval_bool(a, envs, mask, ctx)?;
                ctx.stats.charge(OpClass::Branch, &ctx.cfg.cost);
                ctx.stats.branches += 1;
                // Lanes that still need the RHS:
                let need_rhs: Mask = (0..lanes)
                    .map(|l| {
                        mask[l]
                            && match (*op, va[l]) {
                                (japonica_ir::BinOp::LAnd, Some(true)) => true,
                                (japonica_ir::BinOp::LOr, Some(false)) => true,
                                _ => false,
                            }
                    })
                    .collect();
                let short: Mask = (0..lanes).map(|l| mask[l] && !need_rhs[l]).collect();
                if any(&need_rhs) && any(&short) {
                    ctx.stats.divergent_branches += 1;
                }
                let vb = if any(&need_rhs) {
                    self.eval_bool(b, envs, &need_rhs, ctx)?
                } else {
                    vec![None; lanes]
                };
                Ok((0..lanes)
                    .map(|l| {
                        if !mask[l] {
                            None
                        } else if need_rhs[l] {
                            vb[l].map(Value::Bool)
                        } else {
                            va[l].map(Value::Bool)
                        }
                    })
                    .collect())
            }
            Expr::Binary(op, a, b) => {
                let va = self.eval(a, envs, mask, ctx)?;
                let vb = self.eval(b, envs, mask, ctx)?;
                let float = first_active(&va).map(is_float).unwrap_or(false)
                    || first_active(&vb).map(is_float).unwrap_or(false);
                ctx.stats.charge(binop_class(*op, float), &ctx.cfg.cost);
                (0..lanes)
                    .map(|l| match (va[l], vb[l]) {
                        (Some(x), Some(y)) => ops::binary(*op, x, y)
                            .map(Some)
                            .map_err(|er| ctx.lane_err(l, er)),
                        _ => Ok(None),
                    })
                    .collect()
            }
            Expr::Cast(ty, a) => {
                let va = self.eval(a, envs, mask, ctx)?;
                ctx.stats.charge(OpClass::Cast, &ctx.cfg.cost);
                va.into_iter()
                    .enumerate()
                    .map(|(l, v)| match v {
                        None => Ok(None),
                        Some(v) => v.cast(*ty).map(Some).ok_or_else(|| {
                            ctx.lane_err(
                                l,
                                ExecError::InvalidCast {
                                    from: format!("{v}"),
                                    to: *ty,
                                },
                            )
                        }),
                    })
                    .collect()
            }
            Expr::Index { array, index } => {
                let idxs = self.eval(index, envs, mask, ctx)?;
                ctx.stats.charge(OpClass::Load, &ctx.cfg.cost);
                let mut touched = Vec::new();
                for l in 0..lanes {
                    if !mask[l] {
                        continue;
                    }
                    let arr = envs[l]
                        .get(*array)
                        .map_err(|er| ctx.lane_err(l, er))?
                        .as_array()
                        .ok_or_else(|| {
                            ctx.lane_err(
                                l,
                                ExecError::TypeMismatch {
                                    expected: "array".into(),
                                    found: format!("{}", *array),
                                },
                            )
                        })?;
                    let idx = idxs[l].and_then(|v| v.as_i64()).ok_or_else(|| {
                        ctx.lane_err(
                            l,
                            ExecError::TypeMismatch {
                                expected: "int index".into(),
                                found: "non-integer".into(),
                            },
                        )
                    })?;
                    touched.push((l, arr, idx));
                }
                ctx.charge_coalesced(&touched);
                let mut out: Vals = vec![None; lanes];
                for &(l, arr, idx) in &touched {
                    let actx = ctx.access_ctx(l);
                    out[l] = Some(
                        ctx.mem
                            .load(actx, arr, idx)
                            .map_err(|er| ctx.lane_err(l, er))?,
                    );
                }
                Ok(out)
            }
            Expr::Len(var) => {
                ctx.stats.charge(OpClass::Move, &ctx.cfg.cost);
                (0..lanes)
                    .map(|l| {
                        if !mask[l] {
                            return Ok(None);
                        }
                        let arr = envs[l]
                            .get(*var)
                            .map_err(|er| ctx.lane_err(l, er))?
                            .as_array()
                            .ok_or_else(|| {
                                ctx.lane_err(
                                    l,
                                    ExecError::TypeMismatch {
                                        expected: "array".into(),
                                        found: format!("{}", *var),
                                    },
                                )
                            })?;
                        let len = ctx.mem.array_len(arr).map_err(|er| ctx.lane_err(l, er))?;
                        Ok(Some(Value::Int(len as i32)))
                    })
                    .collect()
            }
            Expr::Intrinsic(f, args) => {
                let mut arg_vals: Vec<Vals> = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(self.eval(a, envs, mask, ctx)?);
                }
                ctx.stats.charge(intrinsic_class(*f), &ctx.cfg.cost);
                (0..lanes)
                    .map(|l| {
                        if !mask[l] {
                            return Ok(None);
                        }
                        let lane_args: Vec<Value> = arg_vals
                            .iter()
                            .map(|v| v[l].expect("active lane"))
                            .collect();
                        ops::intrinsic(*f, &lane_args)
                            .map(Some)
                            .map_err(|er| ctx.lane_err(l, er))
                    })
                    .collect()
            }
            Expr::Call(fid, args) => {
                if ctx.depth >= self.max_depth {
                    return Err(SimtError::Unsupported(
                        "call depth limit exceeded in kernel".into(),
                    ));
                }
                let mut arg_vals: Vec<Vals> = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(self.eval(a, envs, mask, ctx)?);
                }
                ctx.stats.charge(OpClass::Call, &ctx.cfg.cost);
                let f = self.program.function(*fid).ok_or_else(|| {
                    SimtError::Unsupported(format!("unknown function {fid} in kernel"))
                })?;
                if f.params.len() != args.len() {
                    return Err(SimtError::Unsupported(format!(
                        "arity mismatch calling `{}`",
                        f.name
                    )));
                }
                let mut callee_envs: Vec<Env> = vec![Env::with_slots(f.num_vars); lanes];
                for l in 0..lanes {
                    if !mask[l] {
                        continue;
                    }
                    for (p, av) in f.params.iter().zip(&arg_vals) {
                        let raw = av[l].expect("active lane arg");
                        let bound = match p.ty {
                            japonica_ir::ParamTy::Scalar(t) => raw.cast(t).ok_or_else(|| {
                                ctx.lane_err(
                                    l,
                                    ExecError::TypeMismatch {
                                        expected: t.to_string(),
                                        found: format!("{raw}"),
                                    },
                                )
                            })?,
                            japonica_ir::ParamTy::Array(_) => raw,
                        };
                        callee_envs[l].set(p.var, bound);
                    }
                }
                let mut frame = Frame::call(lanes);
                ctx.depth += 1;
                self.exec_block(&f.body, &mut callee_envs, mask, &mut frame, ctx)?;
                ctx.depth -= 1;
                if f.ret.is_some() {
                    for l in 0..lanes {
                        if mask[l] && !frame.returned[l] {
                            return Err(SimtError::Unsupported(format!(
                                "`{}` completed without returning on some lane",
                                f.name
                            )));
                        }
                    }
                }
                Ok(frame.ret_vals)
            }
            Expr::Ternary(c, t, f) => {
                let cv = self.eval_bool(c, envs, mask, ctx)?;
                ctx.stats.charge(OpClass::Branch, &ctx.cfg.cost);
                ctx.stats.branches += 1;
                let t_mask: Mask = (0..lanes).map(|l| mask[l] && cv[l] == Some(true)).collect();
                let f_mask: Mask = (0..lanes)
                    .map(|l| mask[l] && cv[l] == Some(false))
                    .collect();
                if any(&t_mask) && any(&f_mask) {
                    ctx.stats.divergent_branches += 1;
                }
                let tv = if any(&t_mask) {
                    self.eval(t, envs, &t_mask, ctx)?
                } else {
                    vec![None; lanes]
                };
                let fv = if any(&f_mask) {
                    self.eval(f, envs, &f_mask, ctx)?
                } else {
                    vec![None; lanes]
                };
                Ok((0..lanes)
                    .map(|l| if t_mask[l] { tv[l] } else { fv[l] })
                    .collect())
            }
        }
    }
}

fn first_active(vals: &Vals) -> Option<Value> {
    vals.iter().copied().flatten().next()
}

fn is_float(v: Value) -> bool {
    matches!(v, Value::Float(_) | Value::Double(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DeviceMemory;
    use japonica_frontend::compile_source;
    use japonica_ir::Heap;

    #[test]
    fn warp_executes_vector_add() {
        let src = "static void add(double[] a, double[] b, double[] c, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { c[i] = a[i] + b[i]; }
        }";
        let p = compile_source(src).unwrap();
        let (_, f) = p.function_by_name("add").unwrap();
        let l = f.all_loops()[0].clone();
        let mut heap = Heap::new();
        let a = heap.alloc_doubles(&[1.0; 32]);
        let b = heap.alloc_doubles(&[2.0; 32]);
        let c = heap.alloc_doubles(&[0.0; 32]);
        let cfg = DeviceConfig::default();
        let mut dev = DeviceMemory::new();
        dev.copy_in(&heap, a, 0, 32, &cfg).unwrap();
        dev.copy_in(&heap, b, 0, 32, &cfg).unwrap();
        dev.copy_in(&heap, c, 0, 32, &cfg).unwrap();
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(a));
        env.set(f.params[1].var, Value::Array(b));
        env.set(f.params[2].var, Value::Array(c));
        env.set(f.params[3].var, Value::Int(32));
        let bounds = LoopBounds {
            start: 0,
            end: 32,
            step: 1,
        };
        let iters: Vec<u64> = (0..32).collect();
        let ex = SimtExec::new(&p, &cfg);
        let stats = ex.run_warp(&l, &bounds, &iters, &env, 0, &mut dev).unwrap();
        // results on device
        for i in 0..32 {
            assert_eq!(
                dev.array(c).unwrap().get(i),
                Value::Double(3.0),
                "element {i}"
            );
        }
        // unit-stride doubles over 32 lanes = 256 bytes = 2 segments per access
        assert!(stats.mem_segments >= 6, "{}", stats.mem_segments);
        assert_eq!(stats.divergent_branches, 0);
    }

    #[test]
    fn divergent_branch_counted_once() {
        let src = "static void f(int[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) { a[i] = 1; } else { a[i] = 2; }
            }
        }";
        let p = compile_source(src).unwrap();
        let (_, f) = p.function_by_name("f").unwrap();
        let l = f.all_loops()[0].clone();
        let mut heap = Heap::new();
        let a = heap.alloc_ints(&[0; 32]);
        let cfg = DeviceConfig::default();
        let mut dev = DeviceMemory::new();
        dev.copy_in(&heap, a, 0, 32, &cfg).unwrap();
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(a));
        env.set(f.params[1].var, Value::Int(32));
        let bounds = LoopBounds {
            start: 0,
            end: 32,
            step: 1,
        };
        let iters: Vec<u64> = (0..32).collect();
        let stats = SimtExec::new(&p, &cfg)
            .run_warp(&l, &bounds, &iters, &env, 0, &mut dev)
            .unwrap();
        assert_eq!(stats.divergent_branches, 1);
        for i in 0..32 {
            let expect = if i % 2 == 0 { 1 } else { 2 };
            assert_eq!(dev.array(a).unwrap().get(i), Value::Int(expect));
        }
    }

    #[test]
    fn uniform_branch_does_not_diverge() {
        let src = "static void f(int[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                if (n > 0) { a[i] = 1; }
            }
        }";
        let p = compile_source(src).unwrap();
        let (_, f) = p.function_by_name("f").unwrap();
        let l = f.all_loops()[0].clone();
        let mut heap = Heap::new();
        let a = heap.alloc_ints(&[0; 8]);
        let cfg = DeviceConfig::default();
        let mut dev = DeviceMemory::new();
        dev.copy_in(&heap, a, 0, 8, &cfg).unwrap();
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(a));
        env.set(f.params[1].var, Value::Int(8));
        let bounds = LoopBounds {
            start: 0,
            end: 8,
            step: 1,
        };
        let iters: Vec<u64> = (0..8).collect();
        let stats = SimtExec::new(&p, &cfg)
            .run_warp(&l, &bounds, &iters, &env, 0, &mut dev)
            .unwrap();
        assert_eq!(stats.divergent_branches, 0);
        assert_eq!(stats.branches, 1);
    }

    #[test]
    fn inner_loop_with_unbalanced_trips_diverges() {
        // lane i runs i inner iterations: triangular work
        let src = "static void f(int[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                int s = 0;
                for (int j = 0; j < i; j++) { s += j; }
                a[i] = s;
            }
        }";
        let p = compile_source(src).unwrap();
        let (_, f) = p.function_by_name("f").unwrap();
        let l = f
            .all_loops()
            .into_iter()
            .find(|l| l.is_annotated())
            .unwrap()
            .clone();
        let mut heap = Heap::new();
        let a = heap.alloc_ints(&[0; 8]);
        let cfg = DeviceConfig::default();
        let mut dev = DeviceMemory::new();
        dev.copy_in(&heap, a, 0, 8, &cfg).unwrap();
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(a));
        env.set(f.params[1].var, Value::Int(8));
        let bounds = LoopBounds {
            start: 0,
            end: 8,
            step: 1,
        };
        let iters: Vec<u64> = (0..8).collect();
        let stats = SimtExec::new(&p, &cfg)
            .run_warp(&l, &bounds, &iters, &env, 0, &mut dev)
            .unwrap();
        assert!(stats.divergent_branches > 0);
        // a[i] = sum(0..i)
        assert_eq!(dev.array(a).unwrap().get(7), Value::Int(21));
        assert_eq!(dev.array(a).unwrap().get(0), Value::Int(0));
    }

    #[test]
    fn function_calls_inline_simt_style() {
        let src = "
            static int dbl(int x) { if (x > 2) { return x * 2; } return x; }
            static void f(int[] a, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { a[i] = dbl(i); }
            }";
        let p = compile_source(src).unwrap();
        let (_, f) = p.function_by_name("f").unwrap();
        let l = f.all_loops()[0].clone();
        let mut heap = Heap::new();
        let a = heap.alloc_ints(&[0; 8]);
        let cfg = DeviceConfig::default();
        let mut dev = DeviceMemory::new();
        dev.copy_in(&heap, a, 0, 8, &cfg).unwrap();
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(a));
        env.set(f.params[1].var, Value::Int(8));
        let bounds = LoopBounds {
            start: 0,
            end: 8,
            step: 1,
        };
        let iters: Vec<u64> = (0..8).collect();
        SimtExec::new(&p, &cfg)
            .run_warp(&l, &bounds, &iters, &env, 0, &mut dev)
            .unwrap();
        let vals: Vec<i64> = (0..8)
            .map(|i| dev.array(a).unwrap().get(i).as_i64().unwrap())
            .collect();
        assert_eq!(vals, vec![0, 1, 2, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn out_of_bounds_reports_iteration() {
        let src = "static void f(int[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { a[i + 100] = 1; }
        }";
        let p = compile_source(src).unwrap();
        let (_, f) = p.function_by_name("f").unwrap();
        let l = f.all_loops()[0].clone();
        let mut heap = Heap::new();
        let a = heap.alloc_ints(&[0; 8]);
        let cfg = DeviceConfig::default();
        let mut dev = DeviceMemory::new();
        dev.copy_in(&heap, a, 0, 8, &cfg).unwrap();
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(a));
        env.set(f.params[1].var, Value::Int(8));
        let bounds = LoopBounds {
            start: 0,
            end: 8,
            step: 1,
        };
        let iters: Vec<u64> = (0..8).collect();
        let err = SimtExec::new(&p, &cfg)
            .run_warp(&l, &bounds, &iters, &env, 0, &mut dev)
            .unwrap_err();
        assert!(matches!(err, SimtError::Lane { iter: 0, .. }));
    }

    #[test]
    fn strided_access_touches_more_segments_than_unit_stride() {
        let mk = |stride: i32| {
            let src = format!(
                "static void f(double[] a, int n) {{
                    /* acc parallel */
                    for (int i = 0; i < n; i++) {{ a[i * {stride}] = 1.0; }}
                }}"
            );
            let p = compile_source(&src).unwrap();
            let (_, f) = p.function_by_name("f").unwrap();
            let l = f.all_loops()[0].clone();
            let mut heap = Heap::new();
            let a = heap.alloc_doubles(&[0.0; 2048]);
            let cfg = DeviceConfig::default();
            let mut dev = DeviceMemory::new();
            dev.copy_in(&heap, a, 0, 2048, &cfg).unwrap();
            let mut env = Env::with_slots(f.num_vars);
            env.set(f.params[0].var, Value::Array(a));
            env.set(f.params[1].var, Value::Int(32));
            let bounds = LoopBounds {
                start: 0,
                end: 32,
                step: 1,
            };
            let iters: Vec<u64> = (0..32).collect();
            SimtExec::new(&p, &cfg)
                .run_warp(&l, &bounds, &iters, &env, 0, &mut dev)
                .unwrap()
                .mem_segments
        };
        let unit = mk(1);
        let strided = mk(32);
        assert!(strided > 4 * unit, "unit={unit} strided={strided}");
    }
}
