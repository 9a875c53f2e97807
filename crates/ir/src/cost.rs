//! Dynamic operation classification and cycle cost tables.
//!
//! Every executor reports executed operations to its [`crate::Backend`] as
//! an [`OpClass`]; a [`CostTable`] maps classes to issue cycles. The CPU
//! executor and the GPU simulator each instantiate their own table — the
//! relative weights (e.g. special-function units for `exp`, expensive
//! divides) are what make compute-bound vs. memory-bound workloads behave
//! differently on the two devices, reproducing the paper's crossovers.

/// Classification of one dynamically executed IR operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer add/sub/bit/shift/compare.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide / remainder.
    IntDiv,
    /// Floating add/sub/mul/compare.
    FpAlu,
    /// Floating divide.
    FpDiv,
    /// Transcendental / special function (`exp`, `log`, `sqrt`, ...).
    Special,
    /// Cast / conversion.
    Cast,
    /// Branch decision (if / loop back-edge / ternary / short-circuit).
    Branch,
    /// Scalar local variable read/write, loop bookkeeping, moves.
    Move,
    /// Array element load (memory models add latency separately).
    Load,
    /// Array element store.
    Store,
    /// Function call overhead.
    Call,
}

impl OpClass {
    /// All variants, for table iteration in tests and reports.
    pub const ALL: [OpClass; 12] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAlu,
        OpClass::FpDiv,
        OpClass::Special,
        OpClass::Cast,
        OpClass::Branch,
        OpClass::Move,
        OpClass::Load,
        OpClass::Store,
        OpClass::Call,
    ];

    fn idx(self) -> usize {
        match self {
            OpClass::IntAlu => 0,
            OpClass::IntMul => 1,
            OpClass::IntDiv => 2,
            OpClass::FpAlu => 3,
            OpClass::FpDiv => 4,
            OpClass::Special => 5,
            OpClass::Cast => 6,
            OpClass::Branch => 7,
            OpClass::Move => 8,
            OpClass::Load => 9,
            OpClass::Store => 10,
            OpClass::Call => 11,
        }
    }
}

/// Cycles charged per operation class.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTable {
    cycles: [f64; 12],
}

impl CostTable {
    /// A table where every class costs `c` cycles.
    pub fn uniform(c: f64) -> CostTable {
        CostTable { cycles: [c; 12] }
    }

    /// Cycles for one op of class `cls`.
    #[inline]
    pub fn cost(&self, cls: OpClass) -> f64 {
        self.cycles[cls.idx()]
    }

    /// Override the cost of one class (builder style).
    pub fn with(mut self, cls: OpClass, c: f64) -> CostTable {
        self.cycles[cls.idx()] = c;
        self
    }

    /// Total cycles for a set of op counts.
    pub fn total(&self, counts: &OpCounts) -> f64 {
        OpClass::ALL
            .iter()
            .map(|&c| self.cost(c) * counts.count(c) as f64)
            .sum()
    }
}

impl Default for CostTable {
    /// A generic single-issue core: most ops 1 cycle, multiplies 3,
    /// divides 20, specials 40, memory handled by the device models.
    fn default() -> CostTable {
        CostTable::uniform(1.0)
            .with(OpClass::IntMul, 3.0)
            .with(OpClass::IntDiv, 20.0)
            .with(OpClass::FpDiv, 20.0)
            .with(OpClass::Special, 40.0)
            .with(OpClass::Call, 5.0)
    }
}

/// Accumulated per-class operation counts for one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpCounts {
    counts: [u64; 12],
}

impl OpCounts {
    /// All-zero counts.
    pub fn new() -> OpCounts {
        OpCounts::default()
    }

    /// Record one op of class `cls`.
    #[inline]
    pub fn record(&mut self, cls: OpClass) {
        self.counts[cls.idx()] += 1;
    }

    /// Count for one class.
    pub fn count(&self, cls: OpClass) -> u64 {
        self.counts[cls.idx()]
    }

    /// Total ops across all classes.
    pub fn total_ops(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Memory operations (loads + stores).
    pub fn memory_ops(&self) -> u64 {
        self.count(OpClass::Load) + self.count(OpClass::Store)
    }

    /// Compute (non-memory) operations.
    pub fn compute_ops(&self) -> u64 {
        self.total_ops() - self.memory_ops()
    }

    /// Arithmetic intensity: compute ops per memory op. Returns `f64::MAX`
    /// style large value when there are no memory ops.
    pub fn arithmetic_intensity(&self) -> f64 {
        let mem = self.memory_ops();
        if mem == 0 {
            return self.compute_ops() as f64;
        }
        self.compute_ops() as f64 / mem as f64
    }

    /// Merge another count set into this one.
    pub fn merge(&mut self, other: &OpCounts) {
        self.merge_scaled(other, 1);
    }

    /// Merge `n` copies of another count set (one count that stands for
    /// `n` identical executions) into this one.
    pub fn merge_scaled(&mut self, other: &OpCounts, n: u64) {
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i] * n;
        }
    }
}

/// Nominal trip count charged for nested loops whose bounds are not
/// compile-time constants. The absolute value only matters relative to the
/// scheme-selection threshold, not as a cycle prediction.
const NOMINAL_TRIP: f64 = 32.0;

/// Statically estimated issue cycles for **one iteration** of `l`'s body,
/// including the loop's own back-edge bookkeeping (compare + increment).
///
/// This is a structural estimate for ahead-of-time decisions (the
/// auto-parallelizer's scheme selection): nested loops multiply by their
/// constant trip count when the bounds are literals and by [`NOMINAL_TRIP`]
/// otherwise, `if`/ternary charge their more expensive branch, and calls
/// charge only the call overhead class — callee bodies are not expanded.
pub fn estimate_loop_cost(l: &crate::stmt::ForLoop, table: &CostTable) -> f64 {
    estimate_body_cost(&l.body, table) + table.cost(OpClass::Branch) + table.cost(OpClass::IntAlu)
}

/// Statically estimated issue cycles for executing `stmts` once.
pub fn estimate_body_cost(stmts: &[crate::stmt::Stmt], table: &CostTable) -> f64 {
    use crate::stmt::Stmt;
    let mut total = 0.0;
    for s in stmts {
        total += match s {
            Stmt::DeclVar { init, .. } => {
                table.cost(OpClass::Move)
                    + init.as_ref().map_or(0.0, |e| estimate_expr_cost(e, table))
            }
            Stmt::NewArray { len, .. } => {
                table.cost(OpClass::Move) + estimate_expr_cost(len, table)
            }
            Stmt::Assign { value, .. } => {
                table.cost(OpClass::Move) + estimate_expr_cost(value, table)
            }
            Stmt::Store { index, value, .. } => {
                table.cost(OpClass::Store)
                    + estimate_expr_cost(index, table)
                    + estimate_expr_cost(value, table)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let t = estimate_body_cost(then_branch, table);
                let e = estimate_body_cost(else_branch, table);
                table.cost(OpClass::Branch) + estimate_expr_cost(cond, table) + t.max(e)
            }
            Stmt::For(inner) => {
                let trip = const_trip(inner).map_or(NOMINAL_TRIP, |t| t as f64);
                estimate_expr_cost(&inner.start, table)
                    + estimate_expr_cost(&inner.end, table)
                    + estimate_expr_cost(&inner.step, table)
                    + trip * estimate_loop_cost(inner, table)
            }
            Stmt::While { cond, body } => {
                NOMINAL_TRIP
                    * (table.cost(OpClass::Branch)
                        + estimate_expr_cost(cond, table)
                        + estimate_body_cost(body, table))
            }
            Stmt::Return(e) => {
                table.cost(OpClass::Branch)
                    + e.as_ref().map_or(0.0, |e| estimate_expr_cost(e, table))
            }
            Stmt::Break | Stmt::Continue => table.cost(OpClass::Branch),
            Stmt::ExprStmt(e) => estimate_expr_cost(e, table),
        };
    }
    total
}

/// Statically estimated issue cycles for evaluating `e` once.
fn estimate_expr_cost(e: &crate::expr::Expr, table: &CostTable) -> f64 {
    use crate::expr::Expr;
    match e {
        Expr::Const(_) => 0.0,
        Expr::Var(_) | Expr::Len(_) => table.cost(OpClass::Move),
        Expr::Unary(op, a) => {
            table.cost(unop_class(*op, looks_float(a))) + estimate_expr_cost(a, table)
        }
        Expr::Binary(op, a, b) => {
            table.cost(binop_class(*op, looks_float(a) || looks_float(b)))
                + estimate_expr_cost(a, table)
                + estimate_expr_cost(b, table)
        }
        Expr::Cast(_, a) => table.cost(OpClass::Cast) + estimate_expr_cost(a, table),
        Expr::Index { index, .. } => table.cost(OpClass::Load) + estimate_expr_cost(index, table),
        Expr::Intrinsic(f, args) => {
            table.cost(intrinsic_class(*f))
                + args
                    .iter()
                    .map(|a| estimate_expr_cost(a, table))
                    .sum::<f64>()
        }
        Expr::Call(_, args) => {
            table.cost(OpClass::Call)
                + args
                    .iter()
                    .map(|a| estimate_expr_cost(a, table))
                    .sum::<f64>()
        }
        Expr::Ternary(c, t, o) => {
            table.cost(OpClass::Branch)
                + estimate_expr_cost(c, table)
                + estimate_expr_cost(t, table).max(estimate_expr_cost(o, table))
        }
    }
}

/// Syntactic guess whether an expression is floating-point (a double/float
/// literal, FP cast, or math intrinsic anywhere in the tree). Types are not
/// threaded through the IR, so this only steers int-vs-FP cost classes.
fn looks_float(e: &crate::expr::Expr) -> bool {
    use crate::expr::Expr;
    use crate::types::{Ty, Value};
    let mut fp = false;
    e.walk(&mut |n| match n {
        Expr::Const(Value::Double(_) | Value::Float(_)) => fp = true,
        Expr::Cast(Ty::Double | Ty::Float, _) => fp = true,
        Expr::Intrinsic(..) => fp = true,
        _ => {}
    });
    fp
}

/// Trip count of a loop whose start/end/step are all integer literals
/// (`ceil((end - start) / step)`, clamped at zero), else `None`.
fn const_trip(l: &crate::stmt::ForLoop) -> Option<u64> {
    use crate::expr::Expr;
    use crate::types::Value;
    let lit = |e: &Expr| match e {
        Expr::Const(Value::Int(v)) => Some(i64::from(*v)),
        Expr::Const(Value::Long(v)) => Some(*v),
        _ => None,
    };
    let (start, end, step) = (lit(&l.start)?, lit(&l.end)?, lit(&l.step)?);
    if step <= 0 {
        return None;
    }
    let span = end.checked_sub(start)?.max(0);
    Some((span as u64).div_ceil(step as u64))
}

/// Classify a unary operator application (`float` = operand is FP).
pub fn unop_class(op: crate::expr::UnOp, float: bool) -> OpClass {
    match op {
        crate::expr::UnOp::Neg if float => OpClass::FpAlu,
        _ => OpClass::IntAlu,
    }
}

/// Classify a binary operator application (`float` = either operand is FP).
pub fn binop_class(op: crate::expr::BinOp, float: bool) -> OpClass {
    use crate::expr::BinOp;
    match op {
        BinOp::Mul if !float => OpClass::IntMul,
        BinOp::Div | BinOp::Rem if !float => OpClass::IntDiv,
        BinOp::Div | BinOp::Rem => OpClass::FpDiv,
        _ if float => OpClass::FpAlu,
        _ => OpClass::IntAlu,
    }
}

/// Classify a math-intrinsic application.
pub fn intrinsic_class(f: crate::expr::Intrinsic) -> OpClass {
    use crate::expr::Intrinsic as I;
    match f {
        I::Exp | I::Log | I::Sqrt | I::Sin | I::Cos | I::Pow => OpClass::Special,
        I::Abs | I::Max | I::Min | I::Floor | I::Ceil => OpClass::FpAlu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::stmt::{ForLoop, Stmt};

    #[test]
    fn default_table_orders_costs_sensibly() {
        let t = CostTable::default();
        assert!(t.cost(OpClass::IntAlu) < t.cost(OpClass::IntMul));
        assert!(t.cost(OpClass::IntMul) < t.cost(OpClass::IntDiv));
        assert!(t.cost(OpClass::FpDiv) < t.cost(OpClass::Special));
    }

    #[test]
    fn counts_accumulate_and_total() {
        let mut c = OpCounts::new();
        c.record(OpClass::FpAlu);
        c.record(OpClass::FpAlu);
        c.record(OpClass::Load);
        assert_eq!(c.count(OpClass::FpAlu), 2);
        assert_eq!(c.total_ops(), 3);
        assert_eq!(c.memory_ops(), 1);
        assert_eq!(c.compute_ops(), 2);
        let t = CostTable::uniform(2.0);
        assert_eq!(t.total(&c), 6.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = OpCounts::new();
        a.record(OpClass::Store);
        let mut b = OpCounts::new();
        b.record(OpClass::Store);
        b.record(OpClass::Branch);
        a.merge(&b);
        assert_eq!(a.count(OpClass::Store), 2);
        assert_eq!(a.count(OpClass::Branch), 1);
    }

    #[test]
    fn arithmetic_intensity() {
        let mut c = OpCounts::new();
        for _ in 0..10 {
            c.record(OpClass::FpAlu);
        }
        c.record(OpClass::Load);
        c.record(OpClass::Store);
        assert!((c.arithmetic_intensity() - 5.0).abs() < 1e-12);
    }

    fn counted(id: u32, end: Expr, body: Vec<Stmt>) -> ForLoop {
        ForLoop {
            id: crate::stmt::LoopId(id),
            var: crate::VarId(0),
            start: Expr::int(0),
            end,
            step: Expr::int(1),
            body,
            annot: None,
            span: crate::span::Span::none(),
        }
    }

    #[test]
    fn constant_trip_inner_loop_multiplies_body_cost() {
        let t = CostTable::uniform(1.0);
        let store = Stmt::Store {
            array: crate::VarId(1),
            index: Expr::var(crate::VarId(0)),
            value: Expr::double(0.0),
            span: crate::span::Span::none(),
        };
        let flat = counted(0, Expr::int(1), vec![store.clone()]);
        let nested = counted(
            1,
            Expr::int(1),
            vec![Stmt::For(counted(2, Expr::int(10), vec![store]))],
        );
        let one = estimate_loop_cost(&flat, &t);
        let ten = estimate_loop_cost(&nested, &t);
        // The inner body runs 10x; overheads stay constant.
        assert!(ten > 9.0 * one && ten < 12.0 * one, "{one} vs {ten}");
    }

    #[test]
    fn symbolic_inner_bounds_fall_back_to_nominal_trip() {
        let t = CostTable::uniform(1.0);
        let inner = counted(1, Expr::var(crate::VarId(2)), vec![]);
        let l = counted(0, Expr::int(1), vec![Stmt::For(inner)]);
        let c = estimate_loop_cost(&l, &t);
        assert!(c >= NOMINAL_TRIP, "nominal trips not charged: {c}");
    }

    #[test]
    fn calls_charge_overhead_without_expanding_the_callee() {
        let t = CostTable::default();
        let l = counted(
            0,
            Expr::int(1),
            vec![Stmt::ExprStmt(Expr::Call(crate::FnId(3), vec![]))],
        );
        // call (5) + back-edge branch (1) + increment (1)
        assert!((estimate_loop_cost(&l, &t) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn float_multiply_is_cheaper_than_int_multiply() {
        let t = CostTable::default();
        let imul = Expr::var(crate::VarId(0)).mul(Expr::var(crate::VarId(1)));
        let fmul = Expr::var(crate::VarId(0)).mul(Expr::double(2.0));
        let li = counted(0, Expr::int(1), vec![Stmt::ExprStmt(imul)]);
        let lf = counted(1, Expr::int(1), vec![Stmt::ExprStmt(fmul)]);
        assert!(estimate_loop_cost(&li, &t) > estimate_loop_cost(&lf, &t));
    }

    #[test]
    fn all_classes_indexed_uniquely() {
        let mut seen = std::collections::HashSet::new();
        for c in OpClass::ALL {
            assert!(seen.insert(c.idx()));
        }
        assert_eq!(seen.len(), 12);
    }
}
