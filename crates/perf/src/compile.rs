//! `compile_corpus`: the compile-time half alone. `japonica::compile`,
//! kernel and native-tier compilation of the 11 sources, and annotation
//! proposals for the 11 stripped sources; no execution layer runs. The
//! traced passes take the same pipeline apart phase by phase.

use crate::harness::{timed_setup, Budget, Ledger, Measured};
use crate::stats::{median, Summary};
use crate::trace::{totals_by_name, SpanId, Tracer};
use japonica::analysis::{analyze_program, build_pdg};
use japonica::frontend::{lexer, lower, parser, sema, strip_acc_annotations};
use japonica::ir::{compile_kernel, compile_native, Program};
use japonica::lint::{lint, LintConfig};
use japonica_autopar::propose_program;
use japonica_workloads::Workload;
use std::time::Instant;

/// Corpus sweeps per pass: one sweep is well under a millisecond of work
/// per source, too short to time on its own.
const SWEEPS: usize = 10;

/// What one source's pipeline must keep producing (from the set-up's own
/// compile): a cheap output check for every timed op.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Shape {
    analyses: usize,
    findings: usize,
    kernels: usize,
    bailouts: usize,
    bytecode_ops: usize,
    proposals: usize,
}

struct Source {
    w: &'static Workload,
    /// The hand annotations stripped, compiled: what autopar proposes for.
    bare: Program,
    expect: Shape,
}

struct State {
    sources: Vec<Source>,
}

/// Compile kernels (and their native tiers) of every annotated loop.
fn kernels(program: &Program, shape: &mut Shape, tracer: &Tracer, parent: Option<SpanId>) {
    for f in &program.functions {
        for l in f.all_loops().into_iter().filter(|l| l.is_annotated()) {
            match tracer.span("ir.compile_kernel", parent, 0, |_| {
                compile_kernel(program, l)
            }) {
                Ok(k) => {
                    shape.kernels += 1;
                    shape.bytecode_ops += k.chunks.iter().map(|c| c.code.len()).sum::<usize>();
                    tracer.span("ir.compile_native", parent, 0, |_| {
                        std::hint::black_box(compile_native(&k));
                    });
                }
                Err(_) => shape.bailouts += 1,
            }
        }
    }
}

/// The untraced pipeline of one source; returns its shape and the host
/// seconds `japonica::compile` alone took.
fn pipeline(src: &Source) -> Result<(Shape, f64), String> {
    let t0 = Instant::now();
    let compiled = japonica::compile(src.w.source).map_err(|e| format!("{}: {e}", src.w.name))?;
    let compile_s = t0.elapsed().as_secs_f64();
    let mut shape = Shape {
        analyses: compiled.analyses.len(),
        findings: compiled.lints.diagnostics.len(),
        ..Shape::default()
    };
    kernels(&compiled.program, &mut shape, &Tracer::off(), None);
    shape.proposals = propose_program(&src.bare).len();
    Ok((shape, compile_s))
}

/// The same work with each phase called on its own, one span each.
/// Returns the shape plus the tokens lexed and the loops left uncertain.
fn pipeline_traced(
    src: &Source,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<(Shape, usize, usize), String> {
    let err = |e: japonica::frontend::CompileError| format!("{}: {e}", src.w.name);
    let tokens = tracer
        .span("frontend.lex", parent, 0, |_| lexer::lex(src.w.source))
        .map_err(err)?;
    let n_tokens = tokens.len();
    let unit = tracer
        .span("frontend.parse", parent, 0, |_| parser::parse(tokens))
        .map_err(err)?;
    tracer
        .span("frontend.sema", parent, 0, |_| sema::check(&unit))
        .map_err(err)?;
    let program = tracer
        .span("frontend.lower", parent, 0, |_| lower::lower(&unit))
        .map_err(err)?;
    let analyses = tracer.span("analysis.deptest", parent, 0, |_| analyze_program(&program));
    tracer.span("analysis.pdg", parent, 0, |_| {
        for f in &program.functions {
            std::hint::black_box(build_pdg(f));
        }
    });
    let cfg = LintConfig {
        max_threads: japonica::cpuexec::CpuConfig::default().cores,
        ..LintConfig::default()
    };
    let lints = tracer.span("lint.audit", parent, 0, |_| lint(&program, &cfg));
    let mut shape = Shape {
        analyses: analyses.len(),
        findings: lints.diagnostics.len(),
        ..Shape::default()
    };
    kernels(&program, &mut shape, tracer, parent);
    shape.proposals = tracer
        .span("autopar.propose", parent, 0, |_| propose_program(&src.bare))
        .len();
    let uncertain = analyses
        .values()
        .filter(|a| a.determination.needs_profiling())
        .count();
    Ok((shape, n_tokens, uncertain))
}

fn setup() -> State {
    let sources = Workload::all()
        .iter()
        .map(|w| {
            let bare = japonica::frontend::compile_source(&strip_acc_annotations(w.source))
                .expect("bundled sources compile without their annotations");
            let mut src = Source {
                w,
                bare,
                expect: Shape::default(),
            };
            src.expect = pipeline(&src).expect("bundled sources compile").0;
            src
        })
        .collect();
    State { sources }
}

/// One timed pass: `SWEEPS` sweeps over the corpus.
struct Pass {
    wall_s: f64,
    /// `japonica::compile` seconds per sweep.
    compile_s: f64,
    /// Per-source pipeline seconds.
    source_walls: Vec<f64>,
}

fn pass(state: &State, ledger: &mut Ledger) -> Pass {
    let mut p = Pass {
        wall_s: 0.0,
        compile_s: 0.0,
        source_walls: Vec::new(),
    };
    for _ in 0..SWEEPS {
        for src in &state.sources {
            let t0 = Instant::now();
            let out = pipeline(src);
            let wall = t0.elapsed().as_secs_f64();
            p.wall_s += wall;
            p.source_walls.push(wall);
            ledger.check(out.and_then(|(shape, compile_s)| {
                p.compile_s += compile_s / SWEEPS as f64;
                if shape == src.expect {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: compiled to {shape:?}, set-up saw {:?}",
                        src.w.name, src.expect
                    ))
                }
            }));
        }
    }
    p
}

pub fn run(budget: Budget, traced: bool) -> (Measured, Summary, Tracer) {
    let (state, setup_s) = timed_setup(budget, setup);
    let mut ledger = Ledger::default();
    if budget.warmup() {
        pass(&state, &mut Ledger::default());
    }
    let plain = if traced { budget.share(0.4) } else { budget };
    let started = Instant::now();
    let mut passes = Vec::new();
    while plain.another_pass(started, passes.len()) {
        passes.push(pass(&state, &mut ledger));
    }
    let mut m = Measured {
        pass_walls: passes.iter().map(|p| p.wall_s).collect(),
        latencies: passes
            .iter()
            .flat_map(|p| p.source_walls.iter().copied())
            .collect(),
        ..Measured::default()
    };
    m.extra.insert(
        "compile_s",
        Summary::of(&passes.iter().map(|p| p.compile_s).collect::<Vec<_>>()),
    );

    let tracer = if traced { Tracer::on() } else { Tracer::off() };
    if traced {
        let traced_budget = budget.share(0.25);
        let started = Instant::now();
        let mut walls = Vec::new();
        let (mut tokens, mut uncertain, mut totals) = (0usize, 0usize, Shape::default());
        // A traced pass records about 1300 spans; twenty passes are plenty
        // for per-sweep means and keep the trace file loadable.
        while walls.len() < 20 && traced_budget.another_pass(started, walls.len()) {
            let t0 = Instant::now();
            tracer.span("pass", None, walls.len() as u64, |parent| {
                for sweep in 0..SWEEPS {
                    for src in &state.sources {
                        match pipeline_traced(src, &tracer, parent) {
                            Ok((shape, t, u)) => {
                                if walls.is_empty() && sweep == 0 {
                                    tokens += t;
                                    uncertain += u;
                                    totals.findings += shape.findings;
                                    totals.proposals += shape.proposals;
                                    totals.bytecode_ops += shape.bytecode_ops;
                                    totals.bailouts += shape.bailouts;
                                }
                                ledger.check(if shape == src.expect {
                                    Ok(())
                                } else {
                                    Err(format!("{}: phases built {shape:?}", src.w.name))
                                });
                            }
                            Err(e) => ledger.fail(e),
                        }
                    }
                }
            });
            walls.push(t0.elapsed().as_secs_f64());
        }
        m.layer.insert(
            "trace_overhead_ratio".into(),
            median(&walls) / median(&m.pass_walls),
        );
        // Per corpus sweep: a span name's total over all traced passes,
        // divided by the sweeps they made.
        let by_name = totals_by_name(&tracer.spans());
        let sweeps = (walls.len() * SWEEPS) as f64;
        let per_sweep = |name: &str| by_name.get(name).map(|t| t.total_s / sweeps).unwrap_or(0.0);
        for (metric, span) in [
            ("frontend.lex_s", "frontend.lex"),
            ("frontend.parse_s", "frontend.parse"),
            ("frontend.sema_s", "frontend.sema"),
            ("frontend.lower_s", "frontend.lower"),
            ("analysis.deptest_s", "analysis.deptest"),
            ("analysis.pdg_s", "analysis.pdg"),
            ("lint.audit_s", "lint.audit"),
            ("autopar.propose_s", "autopar.propose"),
            ("ir.bytecode_compile_s", "ir.compile_kernel"),
            ("ir.native_compile_s", "ir.compile_native"),
        ] {
            m.layer.insert(metric.into(), per_sweep(span));
        }
        m.layer.insert(
            "frontend.tokens_per_s".into(),
            tokens as f64 / per_sweep("frontend.lex"),
        );
        m.layer
            .insert("analysis.uncertain_loops".into(), uncertain as f64);
        m.layer
            .insert("lint.findings".into(), totals.findings as f64);
        m.layer
            .insert("autopar.proposals".into(), totals.proposals as f64);
        m.layer
            .insert("ir.bytecode_ops".into(), totals.bytecode_ops as f64);
        m.layer
            .insert("ir.kernel_bailouts".into(), totals.bailouts as f64);
    }
    m.ledger = ledger;
    (m, setup_s, tracer)
}
