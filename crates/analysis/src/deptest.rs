//! Pairwise dependence testing and per-loop determination (paper §III-A).
//!
//! Following the paper's rules: (1) accesses are compressed into linear
//! constraints of the iteration ID where possible; (2) all pairs of live-out
//! (written) accesses are examined for write-after-write conflicts; (3) all
//! live-out × live-in pairs are examined for read-write conflicts; (4) every
//! pair the static tests cannot decide is deferred to the dynamic profiler
//! (the loop comes out [`Determination::Uncertain`]).
//!
//! The deciders are the classic ZIV / strong-SIV / weak-zero-SIV / GCD
//! tests, plus a *disjoint-rows* pattern test that proves independence of
//! flattened 2-D accesses like `c[i*n + j]` with `j ∈ [0, n)` — the shape
//! every dense-linear-algebra benchmark in the paper's Table II uses.

use crate::access::{collect_accesses_with, Access, AccessKind};
use crate::affine::{linearize, Affine};
use crate::classify::{classify_variables, VarClasses};
use crate::effects::EffectSummaries;
use japonica_ir::{Expr, ForLoop, LoopAnnotation, LoopId, Program, Span, Value, VarId};
use std::collections::BTreeMap;
use std::fmt;

/// Kind of a loop-carried dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Read-after-write (true dependence, TD).
    True,
    /// Write-after-read (anti dependence — a false dependence, FD).
    Anti,
    /// Write-after-write (output dependence — a false dependence, FD).
    Output,
}

impl DepKind {
    /// Is this a true dependence?
    pub fn is_true(self) -> bool {
        self == DepKind::True
    }
}

/// Summary of the dependences proven by static analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DepSummary {
    /// A loop-carried true dependence was proven.
    pub true_dep: bool,
    /// A loop-carried false (anti/output) dependence was proven.
    pub false_dep: bool,
    /// Smallest proven true-dependence distance, in iterations.
    pub min_true_distance: Option<u64>,
    /// Human-readable explanations, one per proven dependence.
    pub notes: Vec<String>,
}

impl DepSummary {
    fn add(&mut self, kind: DepKind, distance: Option<u64>, note: String) {
        match kind {
            DepKind::True => {
                self.true_dep = true;
                if let Some(d) = distance {
                    self.min_true_distance = Some(match self.min_true_distance {
                        Some(m) => m.min(d),
                        None => d,
                    });
                }
            }
            DepKind::Anti | DepKind::Output => self.false_dep = true,
        }
        self.notes.push(note);
    }
}

/// One access pair (or whole-loop condition) the static tests could not
/// decide, carrying the source positions needed to point at the exact
/// blocking accesses (`--auto --explain`, lint).
#[derive(Debug, Clone, PartialEq)]
pub struct Blocker {
    /// The array the unresolved pair is on; `None` for whole-loop reasons
    /// such as a call with unknown side effects.
    pub array: Option<VarId>,
    /// Why the pair could not be decided.
    pub why: String,
    /// Source position of the write access of the pair (or of the loop
    /// itself for whole-loop reasons).
    pub span: Span,
    /// Source position of the other access of the pair, when known.
    pub other_span: Span,
}

impl Blocker {
    /// A blocker that applies to the loop as a whole, not one access pair.
    pub fn loop_level(why: impl Into<String>, span: Span) -> Blocker {
        Blocker {
            array: None,
            why: why.into(),
            span,
            other_span: Span::none(),
        }
    }
}

impl fmt::Display for Blocker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.why)?;
        if self.span.is_known() {
            write!(f, " (at {}:{}", self.span.line, self.span.col)?;
            if self.other_span.is_known() && self.other_span != self.span {
                write!(f, ", vs {}:{}", self.other_span.line, self.other_span.col)?;
            }
            f.write_str(")")?;
        }
        Ok(())
    }
}

/// The static verdict for one annotated loop.
#[derive(Debug, Clone, PartialEq)]
pub enum Determination {
    /// Provably free of loop-carried dependences: safe for mode A.
    Doall,
    /// Provably carries dependences (the summary says which kinds).
    Deterministic(DepSummary),
    /// At least one access pair could not be decided; dynamic profiling on
    /// the GPU is required. `partial` holds whatever *was* proven.
    Uncertain {
        reasons: Vec<Blocker>,
        partial: DepSummary,
    },
}

impl Determination {
    /// Is this loop statically proven DOALL?
    pub fn is_doall(&self) -> bool {
        matches!(self, Determination::Doall)
    }

    /// Does the loop need dynamic profiling?
    pub fn needs_profiling(&self) -> bool {
        matches!(self, Determination::Uncertain { .. })
    }
}

/// Full static-analysis result for one loop.
#[derive(Debug, Clone)]
pub struct LoopAnalysis {
    pub loop_id: LoopId,
    pub classes: VarClasses,
    pub accesses: Vec<Access>,
    pub determination: Determination,
}

impl LoopAnalysis {
    /// Is the loop *proven* free of cross-iteration dependences by the
    /// static tests alone — the precondition for executing its iterations
    /// in lockstep? Stricter than [`Determination::is_doall`], which
    /// trusts a `private(..)` clause for live-out scalars
    /// ([`analyze_loop_with`] skips them): here every scalar the body
    /// writes must be a loop-local temp. A clean profile proves nothing.
    pub fn proven_independent(&self) -> bool {
        let c = &self.classes;
        self.determination.is_doall() && c.live_out.iter().all(|v| c.uses[v].is_array)
    }
}

/// Analyze one canonical loop in isolation. Calls inside the body are
/// opaque: without [`EffectSummaries`] the loop is conservatively
/// [`Determination::Uncertain`] whenever it calls another function. Use
/// [`analyze_loop_with`] (or [`analyze_program`], which builds summaries
/// itself) to let proven-pure callees stay transparent.
pub fn analyze_loop(l: &ForLoop) -> LoopAnalysis {
    analyze_loop_with(l, None)
}

/// Analyze one canonical loop, resolving callee side effects through
/// `summaries` when given.
pub fn analyze_loop_with(l: &ForLoop, summaries: Option<&EffectSummaries>) -> LoopAnalysis {
    let classes = classify_variables(l);
    let accesses = collect_accesses_with(l, &classes, summaries);
    let empty = LoopAnnotation::default();
    let annot = l.annot.as_ref().unwrap_or(&empty);

    let mut summary = DepSummary::default();
    let mut reasons: Vec<Blocker> = Vec::new();

    // Without effect summaries a call could touch anything: the static
    // verdict cannot be trusted, so defer to the dynamic profiler.
    if summaries.is_none() && body_has_call(l) {
        reasons.push(Blocker::loop_level(
            "loop body calls a function whose side effects are unknown \
             (no effect summaries)",
            l.span,
        ));
    }

    // --- scalar hazards (paper: live-out scalars) ---
    for v in classes.scalar_live_out() {
        if annot.private.contains(&v) {
            continue; // privatized by clause
        }
        let u = classes.uses[&v];
        if u.read {
            summary.add(
                DepKind::True,
                Some(1),
                format!("scalar {v} is read and updated across iterations"),
            );
        } else {
            summary.add(
                DepKind::Output,
                Some(1),
                format!("scalar {v} is overwritten by every iteration"),
            );
        }
    }

    // --- array conflict pairs: write×write (WAW rule 2) and
    //     write×read (RAW/WAR rule 3) ---
    let writes: Vec<&Access> = accesses
        .iter()
        .filter(|a| a.kind == AccessKind::Write)
        .collect();
    let reads: Vec<&Access> = accesses
        .iter()
        .filter(|a| a.kind == AccessKind::Read)
        .collect();

    for (wi, w) in writes.iter().enumerate() {
        // write × write, including the self pair
        for w2 in &writes[wi..] {
            if w.array != w2.array {
                continue;
            }
            match pair_test(w, w2, true) {
                PairResult::NoDep => {}
                PairResult::Dep { kind, distance } => {
                    summary.add(kind, distance, format!("WAW conflict on {}", w.array))
                }
                PairResult::Unknown(why) => reasons.push(Blocker {
                    array: Some(w.array),
                    why: format!("unresolved WAW pair on {}: {why}", w.array),
                    span: w.span,
                    other_span: w2.span,
                }),
            }
        }
        // write × read
        for r in &reads {
            if w.array != r.array {
                continue;
            }
            match pair_test(w, r, false) {
                PairResult::NoDep => {}
                PairResult::Dep { kind, distance } => summary.add(
                    kind,
                    distance,
                    format!(
                        "{} conflict on {}",
                        if kind.is_true() { "RAW" } else { "WAR" },
                        w.array
                    ),
                ),
                PairResult::Unknown(why) => reasons.push(Blocker {
                    array: Some(w.array),
                    why: format!("unresolved RW pair on {}: {why}", w.array),
                    span: w.span,
                    other_span: r.span,
                }),
            }
        }
    }

    let determination = if summary.true_dep {
        // A proven TD dominates: no profiling can remove it.
        Determination::Deterministic(summary)
    } else if !reasons.is_empty() {
        Determination::Uncertain {
            reasons,
            partial: summary,
        }
    } else if summary.false_dep {
        Determination::Deterministic(summary)
    } else {
        Determination::Doall
    };

    LoopAnalysis {
        loop_id: l.id,
        classes,
        accesses,
        determination,
    }
}

/// Analyze every *annotated* loop in a program, keyed by loop id. Callee
/// side effects are resolved through whole-program [`EffectSummaries`], so
/// loops calling proven-pure helpers are still eligible for DOALL.
pub fn analyze_program(p: &Program) -> BTreeMap<LoopId, LoopAnalysis> {
    let summaries = EffectSummaries::build(p);
    let mut out = BTreeMap::new();
    for f in &p.functions {
        for l in f.all_loops() {
            if l.is_annotated() {
                out.insert(l.id, analyze_loop_with(l, Some(&summaries)));
            }
        }
    }
    out
}

/// Does the loop body contain a user-function call (not a math intrinsic)?
fn body_has_call(l: &ForLoop) -> bool {
    let mut found = false;
    for s in &l.body {
        s.walk_exprs(&mut |e| {
            if let Expr::Call(_, _) = e {
                found = true;
            }
        });
    }
    found
}

enum PairResult {
    NoDep,
    Dep {
        kind: DepKind,
        distance: Option<u64>,
    },
    Unknown(String),
}

/// Decide the (write `a`, other `b`) pair. `both_writes` selects WAW
/// classification; otherwise `b` is a read and the distance sign picks
/// RAW vs WAR.
fn pair_test(a: &Access, b: &Access, both_writes: bool) -> PairResult {
    if a.from_call || b.from_call {
        // The element index of a callee-side access is unknown by
        // construction; only the profiler can decide this pair.
        return PairResult::Unknown("access occurs inside a called function".into());
    }
    let structural = match (&a.affine, &b.affine) {
        (Some(fa), Some(fb)) if fa.same_symbols(fb) => affine_pair(fa, fb, both_writes),
        (Some(_), Some(_)) => {
            // Symbolic parts differ (e.g. a[i+n] vs a[i+m]); fall back to
            // the row-disjointness pattern, else unknown.
            row_disjoint_pair(a, b)
        }
        _ => row_disjoint_pair(a, b),
    };
    match structural {
        PairResult::Dep { kind, distance } if a.conditional || b.conditional => {
            // A dependence that only happens when a guard fires is not a
            // *deterministic* dependence: hand it to the profiler.
            let _ = (kind, distance);
            PairResult::Unknown("conflicting access is guarded by a condition".into())
        }
        other => other,
    }
}

fn affine_pair(fa: &Affine, fb: &Affine, both_writes: bool) -> PairResult {
    // All deltas are checked: a wrapped difference could fabricate an
    // "independent" verdict, so overflow degrades to Unknown (profiler).
    let Some(dk) = fa.konst.checked_sub(fb.konst) else {
        return PairResult::Unknown("constant delta overflows i64".into());
    };
    if fa.coeff == fb.coeff {
        if fa.coeff == 0 {
            // ZIV: both touch one fixed location.
            return if dk == 0 {
                PairResult::Dep {
                    kind: if both_writes {
                        DepKind::Output
                    } else {
                        DepKind::True
                    },
                    distance: Some(1),
                }
            } else {
                PairResult::NoDep
            };
        }
        // Strong SIV.
        if dk == 0 {
            return PairResult::NoDep; // same-iteration only
        }
        // checked: dk = i64::MIN with coeff = -1 has no representable
        // remainder/quotient.
        match dk.checked_rem(fa.coeff) {
            Some(0) => {}
            Some(_) => return PairResult::NoDep,
            None => return PairResult::Unknown("iteration distance overflows i64".into()),
        }
        // b at iteration i2 touches what a (the write) touched at
        // i1 = i2 + dk/coeff ... solve a.coeff*i1 + ka = b.coeff*i2 + kb
        // => i2 = i1 + dk/coeff.
        let Some(dist) = dk.checked_div(fa.coeff) else {
            return PairResult::Unknown("iteration distance overflows i64".into());
        };
        let kind = if both_writes {
            DepKind::Output
        } else if dist > 0 {
            DepKind::True // write first, read dist iterations later
        } else {
            DepKind::Anti
        };
        return PairResult::Dep {
            kind,
            distance: Some(dist.unsigned_abs()),
        };
    }
    // Weak-zero SIV: one side is a fixed location.
    if fa.coeff == 0 || fb.coeff == 0 {
        let (moving, fixed) = if fa.coeff == 0 { (fb, fa) } else { (fa, fb) };
        let Some(d) = fixed.konst.checked_sub(moving.konst) else {
            return PairResult::Unknown("constant delta overflows i64".into());
        };
        return match d.checked_rem(moving.coeff) {
            Some(0) => PairResult::Dep {
                kind: if both_writes {
                    DepKind::Output
                } else {
                    DepKind::True
                },
                distance: None,
            },
            Some(_) => PairResult::NoDep,
            None => PairResult::Unknown("iteration distance overflows i64".into()),
        };
    }
    // General GCD test.
    let g = gcd(fa.coeff.unsigned_abs(), fb.coeff.unsigned_abs());
    if g != 0 && !dk.unsigned_abs().is_multiple_of(g) {
        return PairResult::NoDep;
    }
    PairResult::Unknown("GCD test cannot disprove the conflict".into())
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Row stride of a flattened 2-D access.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Stride {
    Const(i64),
    Sym(VarId),
}

/// Try to prove the pair independent via the disjoint-rows pattern: both
/// accesses have the shape `i·S + r` with the *same* stride `S` and a row
/// offset `r` provably within `[0, S)`, so different iterations touch
/// disjoint index ranges.
fn row_disjoint_pair(a: &Access, b: &Access) -> PairResult {
    match (row_form(a), row_form(b)) {
        (Some(sa), Some(sb)) if sa == sb => PairResult::NoDep,
        _ => PairResult::Unknown("index not expressible as a linear constraint".into()),
    }
}

/// Match `index = ivar·S + r` (any operand order) where `r` stays in
/// `[0, S)`; returns the stride on success.
fn row_form(acc: &Access) -> Option<Stride> {
    // An affine access with coeff 0 and no use of the induction var cannot
    // be handled here.
    let (i_term, rest) = split_add(&acc.index)?;
    let stride = match_i_times_s(i_term, acc)?;
    rest_in_range(rest, &stride, acc)?;
    Some(stride)
}

/// Split `x + y` so that exactly one side contains a `Mul` with some
/// variable — returns (mul-side, other-side).
fn split_add(e: &Expr) -> Option<(&Expr, &Expr)> {
    if let Expr::Binary(japonica_ir::BinOp::Add, l, r) = e {
        if matches!(**l, Expr::Binary(japonica_ir::BinOp::Mul, _, _)) {
            return Some((l, r));
        }
        if matches!(**r, Expr::Binary(japonica_ir::BinOp::Mul, _, _)) {
            return Some((r, l));
        }
    }
    None
}

/// Match `ivar * S` or `S * ivar` with `S` a constant or loop-invariant var.
fn match_i_times_s(e: &Expr, acc: &Access) -> Option<Stride> {
    // The analyzed loop's induction var is the only var that linearizes to
    // a pure induction form. We detect it syntactically via the Access's
    // stored context: the ivar is whichever Var the affine analysis treats
    // as induction — recover it from the expression itself.
    if let Expr::Binary(japonica_ir::BinOp::Mul, l, r) = e {
        for (x, y) in [(l, r), (r, l)] {
            if let Expr::Var(v) = **x {
                // v must be the outer induction variable: it cannot be an
                // inner loop var and cannot be invariant.
                let is_inner = acc.inner.iter().any(|il| il.var == v);
                if is_inner {
                    continue;
                }
                match **y {
                    Expr::Const(Value::Int(c)) if c > 0 => return Some(Stride::Const(c as i64)),
                    Expr::Var(s)
                        if s != v
                        // stride symbol must be invariant: not an inner var
                        && !acc.inner.iter().any(|il| il.var == s) =>
                    {
                        return Some(Stride::Sym(s));
                    }
                    _ => {}
                }
            }
        }
    }
    None
}

/// Prove `rest ∈ [0, stride)`.
fn rest_in_range(rest: &Expr, stride: &Stride, acc: &Access) -> Option<()> {
    // Identify which inner loop variable `rest` uses: linearize w.r.t. each
    // enclosing inner loop in turn.
    for il in &acc.inner {
        let inner_var = il.var;
        let others_invariant = |v: VarId| v != inner_var && !acc.inner.iter().any(|x| x.var == v);
        if let Some(f) = linearize(rest, inner_var, &others_invariant) {
            if f.coeff == 1 && f.sym.is_empty() {
                // rest = j + konst with j ∈ [start, end) step `step`.
                let start_zero = matches!(il.start, Expr::Const(Value::Int(0)));
                let step_one = matches!(il.step, Expr::Const(Value::Int(1)));
                if !start_zero || !step_one {
                    continue;
                }
                match stride {
                    Stride::Sym(s) => {
                        // end must be exactly the stride symbol and the
                        // offset 0, so j+0 ∈ [0, S).
                        if matches!(il.end, Expr::Var(e) if e == *s) && f.konst == 0 {
                            return Some(());
                        }
                    }
                    Stride::Const(sc) => {
                        if let Expr::Const(Value::Int(end)) = il.end {
                            let lo = f.konst;
                            let hi = (end as i64 - 1) + f.konst;
                            if lo >= 0 && hi < *sc {
                                return Some(());
                            }
                        }
                    }
                }
            }
        }
    }
    // Constant rest: 0 <= c < stride (const strides only).
    let no_inner = |v: VarId| !acc.inner.iter().any(|x| x.var == v);
    if acc.inner.is_empty() || rest_uses_no_inner(rest, acc) {
        if let Some(f) = linearize(rest, VarId(u32::MAX), &no_inner) {
            if f.is_constant() {
                if let Stride::Const(sc) = stride {
                    if f.konst >= 0 && f.konst < *sc {
                        return Some(());
                    }
                }
            }
        }
    }
    None
}

fn rest_uses_no_inner(rest: &Expr, acc: &Access) -> bool {
    !acc.inner.iter().any(|il| rest.uses_var(il.var))
}

#[cfg(test)]
mod tests {
    use super::*;
    use japonica_frontend::compile_source;

    fn det(src: &str) -> Determination {
        let p = compile_source(src).unwrap();
        let l = p.functions[0]
            .all_loops()
            .into_iter()
            .find(|l| l.is_annotated())
            .expect("annotated loop")
            .clone();
        analyze_loop(&l).determination
    }

    #[test]
    fn vector_add_is_doall() {
        let d = det("static void f(double[] a, double[] b, double[] c, int n) {
                /* acc parallel */ for (int i = 0; i < n; i++) { c[i] = a[i] + b[i]; }
            }");
        assert!(d.is_doall(), "{d:?}");
    }

    #[test]
    fn gemm_outer_loop_is_doall_via_disjoint_rows() {
        let d = det(
            "static void gemm(double[] a, double[] b, double[] c, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) {
                    for (int j = 0; j < n; j++) {
                        double s = 0.0;
                        for (int k = 0; k < n; k++) { s += a[i * n + k] * b[k * n + j]; }
                        c[i * n + j] = s;
                    }
                }
            }",
        );
        assert!(d.is_doall(), "{d:?}");
    }

    #[test]
    fn gauss_seidel_has_deterministic_true_dep() {
        let d = det("static void gs(double[] a, int n) {
                /* acc parallel */
                for (int i = 1; i < n - 1; i++) { a[i] = (a[i - 1] + a[i + 1]) * 0.5; }
            }");
        match d {
            Determination::Deterministic(s) => {
                assert!(s.true_dep);
                assert_eq!(s.min_true_distance, Some(1));
                assert!(s.false_dep); // a[i+1] read is also WAR
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scalar_accumulator_forces_deterministic_td() {
        let d = det("static double f(double[] a, int n) {
                double s = 0.0;
                /* acc parallel */
                for (int i = 0; i < n; i++) { s = s + a[i]; }
                return s;
            }");
        assert!(matches!(d, Determination::Deterministic(ref s) if s.true_dep));
    }

    #[test]
    fn privatized_scalar_is_not_a_hazard() {
        let d = det("static void f(double[] a, double[] b, int n) {
                double t = 0.0;
                /* acc parallel private(t) */
                for (int i = 0; i < n; i++) { t = a[i] * 2.0; b[i] = t; }
            }");
        assert!(d.is_doall(), "{d:?}");
    }

    #[test]
    fn proven_independent_needs_a_static_proof_not_a_clause_or_a_profile() {
        let analysis = |src: &str| {
            let p = compile_source(src).unwrap();
            let l = p.functions[0]
                .all_loops()
                .into_iter()
                .find(|l| l.is_annotated())
                .expect("annotated loop")
                .clone();
            analyze_loop(&l)
        };
        // Proven: loop-local temp, disjoint element writes.
        let proven = analysis(
            "static void f(double[] a, double[] b, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { double t = a[i] * 2.0; b[i] = t; }
            }",
        );
        assert!(proven.determination.is_doall() && proven.proven_independent());
        // DOALL only because the clause is trusted.
        let clause = analysis(
            "static void f(double[] a, double[] b, int n) {
                double t = 0.0;
                /* acc parallel private(t) */
                for (int i = 0; i < n; i++) { t = a[i] * 2.0; b[i] = t; }
            }",
        );
        assert!(clause.determination.is_doall() && !clause.proven_independent());
        // Uncertain: a permutation index profiles clean, yet nothing is proven.
        let uncertain = analysis(
            "static void f(int[] a, int[] idx, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { a[idx[i]] = i; }
            }",
        );
        assert!(uncertain.determination.needs_profiling() && !uncertain.proven_independent());
        // Deterministic: a proven true dependence.
        let dependent = analysis(
            "static void f(double[] a, int n) {
                /* acc parallel */
                for (int i = 1; i < n; i++) { a[i] = a[i - 1] + 1.0; }
            }",
        );
        assert!(matches!(
            dependent.determination,
            Determination::Deterministic(_)
        ));
        assert!(!dependent.proven_independent());
    }

    #[test]
    fn indirect_write_is_uncertain() {
        let d = det("static void f(int[] a, int[] idx, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { a[idx[i]] = i; }
            }");
        assert!(d.needs_profiling(), "{d:?}");
    }

    #[test]
    fn conditional_dependence_is_uncertain() {
        let d = det("static void f(double[] a, int n) {
                /* acc parallel */
                for (int i = 1; i < n; i++) { if (a[i] > 0.0) { a[i] = a[i - 1]; } }
            }");
        assert!(d.needs_profiling(), "{d:?}");
    }

    #[test]
    fn strided_writes_without_overlap_are_doall() {
        // writes to 2i, reads from 2i+1: never conflict (GCD/SIV)
        let d = det("static void f(double[] a, double[] b, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { b[2 * i] = a[2 * i + 1]; }
            }");
        assert!(d.is_doall(), "{d:?}");
    }

    #[test]
    fn offset_write_creates_true_dep_with_distance() {
        // a[i+2] written, a[i] read: read at i sees write from i-2.
        let d = det("static void f(double[] a, int n) {
                /* acc parallel */
                for (int i = 0; i < n - 2; i++) { a[i + 2] = a[i]; }
            }");
        match d {
            Determination::Deterministic(s) => {
                assert!(s.true_dep);
                assert_eq!(s.min_true_distance, Some(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fixed_cell_write_is_output_dep_only() {
        let d = det("static void f(double[] a, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { a[0] = 1.0; }
            }");
        match d {
            Determination::Deterministic(s) => {
                assert!(!s.true_dep);
                assert!(s.false_dep);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn modulo_index_is_uncertain() {
        let d = det("static void f(double[] t, double[] o, int n, int b) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { t[i % b] = 1.0; o[i] = t[i % b]; }
            }");
        assert!(d.needs_profiling(), "{d:?}");
    }

    #[test]
    fn uncertain_verdicts_carry_blocking_spans() {
        let p = compile_source(
            "static void f(double[] t, double[] o, int n, int b) {\n    /* acc parallel */\n    for (int i = 0; i < n; i++) { t[i % b] = 1.0; o[i] = t[i % b]; }\n}",
        )
        .unwrap();
        let l = p.functions[0].all_loops()[0].clone();
        match analyze_loop(&l).determination {
            Determination::Uncertain { reasons, .. } => {
                assert!(!reasons.is_empty());
                let b = reasons.iter().find(|b| b.array.is_some()).unwrap();
                // The blocking write is the t[i % b] store on line 3.
                assert_eq!(b.span.line, 3);
                assert!(b.to_string().contains("(at 3:"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn call_blocker_points_at_the_loop() {
        let p = compile_source(
            "static double sq(double x) { return x * x; }\nstatic void f(double[] a, int n) {\n    /* acc parallel */\n    for (int i = 0; i < n; i++) { a[i] = sq(a[i]); }\n}",
        )
        .unwrap();
        let l = p.functions[1].all_loops()[0].clone();
        // No summaries: the call is a whole-loop blocker anchored at the loop.
        match analyze_loop(&l).determination {
            Determination::Uncertain { reasons, .. } => {
                let b = &reasons[0];
                assert!(b.array.is_none());
                assert_eq!(b.span.line, 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn const_stride_rows_are_disjoint() {
        let d = det("static void f(double[] c) {
                /* acc parallel */
                for (int i = 0; i < 64; i++) {
                    for (int j = 0; j < 8; j++) { c[i * 8 + j] = 1.0; }
                }
            }");
        assert!(d.is_doall(), "{d:?}");
    }

    #[test]
    fn const_stride_row_overflow_is_not_proven() {
        // inner j runs to 9 > stride 8: rows overlap
        let d = det("static void f(double[] c) {
                /* acc parallel */
                for (int i = 0; i < 64; i++) {
                    for (int j = 0; j < 9; j++) { c[i * 8 + j] = 1.0; }
                }
            }");
        assert!(d.needs_profiling(), "{d:?}");
    }

    #[test]
    fn analyze_program_covers_all_annotated_loops() {
        let p = compile_source(
            "static void f(double[] a, double[] b, int n) {
                /* acc parallel */ for (int i = 0; i < n; i++) { a[i] = 1.0; }
                /* acc parallel */ for (int i = 0; i < n; i++) { b[i] = a[i]; }
            }",
        )
        .unwrap();
        let m = analyze_program(&p);
        assert_eq!(m.len(), 2);
        assert!(m.values().all(|a| a.determination.is_doall()));
    }

    #[test]
    fn loop_calling_array_writing_helper_is_not_doall() {
        // Regression: the callee writes a[*], which used to be invisible
        // to the dependence tests — the loop was wrongly reported DOALL.
        let src = "static void helper(double[] x, int k) { x[0] = x[0] + (double) k; }
             static void f(double[] a, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { helper(a, i); }
            }";
        let p = compile_source(src).unwrap();
        let l = p.functions[1].all_loops()[0].clone();
        // Bare analysis (no summaries): forced uncertain.
        let d = analyze_loop(&l).determination;
        assert!(d.needs_profiling(), "{d:?}");
        // With summaries: still not DOALL — the callee's write is an
        // opaque access that no static test can disprove.
        let m = analyze_program(&p);
        let d = &m[&l.id].determination;
        assert!(d.needs_profiling(), "{d:?}");
    }

    #[test]
    fn loop_calling_pure_helper_stays_doall_with_summaries() {
        let src = "static double sq(double x) { return x * x; }
             static void f(double[] a, double[] b, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { b[i] = sq(a[i]); }
            }";
        let p = compile_source(src).unwrap();
        let l = p.functions[1].all_loops()[0].clone();
        // Without summaries the call is opaque: uncertain.
        assert!(analyze_loop(&l).determination.needs_profiling());
        // analyze_program proves sq pure and recovers DOALL.
        let m = analyze_program(&p);
        assert!(
            m[&l.id].determination.is_doall(),
            "{:?}",
            m[&l.id].determination
        );
    }

    #[test]
    fn callee_reading_array_written_by_loop_is_uncertain() {
        let src = "static double peek(double[] x, int k) { return x[k]; }
             static void f(double[] a, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { a[i] = peek(a, i) + 1.0; }
            }";
        let p = compile_source(src).unwrap();
        let m = analyze_program(&p);
        let l = p.functions[1].all_loops()[0];
        assert!(m[&l.id].determination.needs_profiling());
    }

    #[test]
    fn write_read_different_arrays_never_pair() {
        let d = det("static void f(double[] a, double[] b, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { b[i] = a[i + 1] + a[i - 1]; }
            }");
        assert!(d.is_doall(), "{d:?}");
    }
}
