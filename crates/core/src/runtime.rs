//! The Japonica runtime: executes a compiled function, dispatching every
//! annotated loop through the profiler and the task scheduler.

use crate::compile::Compiled;
use crate::report::RunReport;
use japonica_cpuexec::CpuConfig;
use japonica_faults::FaultPlan;
use japonica_ir::{Env, ExecError, ForLoop, Heap, Scheme, Value};
use japonica_profiler::{profile_loop_with, LoopProfile};
use japonica_scheduler::{
    run_sharing, run_stealing, sharing::eval_bounds, sharing::stage_device, DataPlan, LoopTask,
    SchedError, SchedulerConfig,
};
use std::collections::BTreeMap;

/// Runtime configuration.
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfig {
    /// Platform + scheduler settings.
    pub sched: SchedulerConfig,
    /// Force one scheduling scheme for every loop, overriding `scheme(...)`
    /// clauses (the paper: "every time only one scheme can be used for each
    /// application").
    pub scheme_override: Option<Scheme>,
    /// Cap on profiled iterations per uncertain loop (`None` = profile the
    /// whole iteration space).
    pub profile_limit: Option<u64>,
}

/// The runtime system: owns the configuration; `run` executes one function.
#[derive(Debug, Clone, Default)]
pub struct Runtime {
    /// The configuration in effect.
    pub cfg: RuntimeConfig,
}

impl Runtime {
    /// Create a runtime.
    pub fn new(cfg: RuntimeConfig) -> Runtime {
        Runtime { cfg }
    }

    /// Execute `function` with `args` against `heap`.
    ///
    /// The function body runs statement by statement. Top-level annotated
    /// `for` loops are intercepted: *uncertain* ones are first profiled on
    /// the (simulated) GPU, then every loop is dispatched through the task
    /// scheduler — consecutive annotated loops whose effective scheme is
    /// `stealing` form one job pool (paper §V-B); everything else goes
    /// through task sharing (§V-A). All remaining statements execute
    /// sequentially and are charged as glue time.
    pub fn run(
        &self,
        compiled: &Compiled,
        function: &str,
        args: &[Value],
        heap: &mut Heap,
    ) -> Result<RunReport, SchedError> {
        let fid = compiled
            .program
            .function_by_name(function)
            .map(|(id, _)| id)
            .ok_or_else(|| ExecError::UnknownFunction(function.to_string()))?;
        let rt = Runtime::for_run(&self.cfg);
        crate::exec::execute_function(
            compiled,
            function,
            args,
            heap,
            &rt.cfg.sched.cpu,
            &mut |loops, env, heap, report| {
                rt.schedule_run(compiled, fid, loops, env, heap, report)
            },
        )
    }

    /// A runtime for the span of one call over one program: every loop
    /// dispatch and profile of the call compiles into the caller's
    /// program-scoped kernel cache or, without one, into a cache private to
    /// the call (loop ids are only unique within a program) — not into a
    /// fresh cache per dispatch. The fault plan stays the caller's own.
    pub(crate) fn for_run(cfg: &RuntimeConfig) -> Runtime {
        Runtime::new(RuntimeConfig {
            sched: SchedulerConfig {
                kernels: Some(cfg.sched.kernels.clone().unwrap_or_default()),
                faults: cfg.sched.faults.as_ref().map(FaultPlan::share),
                ..cfg.sched.clone()
            },
            scheme_override: cfg.scheme_override,
            profile_limit: cfg.profile_limit,
        })
    }

    /// Schedule one maximal run of consecutive annotated loops.
    fn schedule_run(
        &self,
        compiled: &Compiled,
        fid: japonica_ir::FnId,
        loops: &[&ForLoop],
        env: &mut Env,
        heap: &mut Heap,
        report: &mut RunReport,
    ) -> Result<(), SchedError> {
        let cfg = &self.cfg.sched;
        // A missing analysis is a compiler-pipeline invariant violation;
        // surface it as a typed error instead of unwinding mid-run.
        let analysis_of = |id: japonica_ir::LoopId| {
            compiled.analyses.get(&id).ok_or_else(|| {
                SchedError::Internal(format!("loop {id} was never analyzed at compile time"))
            })
        };
        // Profile every uncertain loop in the run first; a loop profiled on
        // an earlier encounter (e.g. inside an outer sequential loop) keeps
        // its profile.
        let mut profiles: BTreeMap<japonica_ir::LoopId, LoopProfile> = BTreeMap::new();
        for l in loops {
            let analysis = analysis_of(l.id)?;
            if analysis.determination.needs_profiling() {
                if let Some(p) = report.profiles.get(&l.id) {
                    profiles.insert(l.id, p.clone());
                    continue;
                }
                let p = self.profile(compiled, l, analysis, env, heap)?;
                report.profiling_s += p.profiling_time_s;
                profiles.insert(l.id, p);
            }
        }
        // Degraded CPU-only placement: every loop takes the baseline host
        // path (no device staging, no kernel launches, no fault hooks) —
        // guaranteed progress for the serving layer's last ladder rung.
        // Profiling above still ran on the scratch device: it is a
        // deterministic measurement pass that only feeds mode selection.
        if cfg.cpu_only {
            for l in loops {
                let task = LoopTask {
                    loop_: l,
                    analysis: analysis_of(l.id)?,
                    profile: profiles.get(&l.id),
                };
                let run = task.prepare(&compiled.program, cfg, env, heap)?;
                let r = run.on_cpu(env, heap, Some(cfg.cpu_threads))?;
                report.loops.push(r);
            }
            report.profiles.append(&mut profiles);
            return Ok(());
        }
        // Scheme: global override > first loop's clause > default (sharing).
        let scheme = self.cfg.scheme_override.unwrap_or_else(|| {
            loops[0]
                .annot
                .as_ref()
                .map(|a| a.effective_scheme())
                .unwrap_or_default()
        });
        match scheme {
            Scheme::Stealing if !loops.is_empty() => {
                let mut tasks: Vec<LoopTask> = Vec::with_capacity(loops.len());
                for l in loops {
                    tasks.push(LoopTask {
                        loop_: l,
                        analysis: analysis_of(l.id)?,
                        profile: profiles.get(&l.id),
                    });
                }
                // Restrict the function's PDG to this run's loops.
                let full = compiled.pdgs.get(&fid).ok_or_else(|| {
                    SchedError::Internal(format!("function {fid} has no dependence graph"))
                })?;
                let ids: Vec<_> = loops.iter().map(|l| l.id).collect();
                let pdg = japonica_analysis::Pdg {
                    nodes: full
                        .nodes
                        .iter()
                        .copied()
                        .filter(|n| ids.contains(n))
                        .collect(),
                    edges: full
                        .edges
                        .iter()
                        .filter(|e| ids.contains(&e.from) && ids.contains(&e.to))
                        .cloned()
                        .collect(),
                };
                let r = run_stealing(&compiled.program, cfg, &tasks, &pdg, env, heap)?;
                report.stealing.push(r);
            }
            _ => {
                for l in loops {
                    let task = LoopTask {
                        loop_: l,
                        analysis: analysis_of(l.id)?,
                        profile: profiles.get(&l.id),
                    };
                    let r = run_sharing(&compiled.program, cfg, &task, env, heap)?;
                    report.loops.push(r);
                }
            }
        }
        report.profiles.append(&mut profiles);
        Ok(())
    }

    /// Profile an uncertain loop on a scratch device (the data staged for
    /// profiling is discarded; execution happens afterwards through the
    /// scheduler with the measured densities in hand).
    pub(crate) fn profile(
        &self,
        compiled: &Compiled,
        loop_: &ForLoop,
        analysis: &japonica_analysis::LoopAnalysis,
        env: &Env,
        heap: &mut Heap,
    ) -> Result<LoopProfile, SchedError> {
        let bounds = eval_bounds(&compiled.program, loop_, env, heap)?;
        let plan = DataPlan::derive(&compiled.program, loop_, &analysis.classes, env, heap)?;
        let mut dev = japonica_gpusim::DeviceMemory::new();
        stage_device(&plan, heap, &mut dev, &self.cfg.sched)?;
        let limit = self.cfg.profile_limit.unwrap_or(u64::MAX);
        let range = 0..bounds.trip().min(limit);
        let p = profile_loop_with(
            &compiled.program,
            &self.cfg.sched.gpu,
            loop_,
            &bounds,
            range,
            env,
            &mut dev,
            self.cfg.sched.kernels.as_deref(),
        )?;
        Ok(p)
    }
}

/// A second-resolution helper mirroring the CPU model (used by baselines and
/// tests to convert measured op counts).
pub fn cpu_seconds(cfg: &CpuConfig, cycles: f64) -> f64 {
    cfg.cycles_to_seconds(cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    fn heap_with(n: usize, arrays: usize) -> (Heap, Vec<japonica_ir::ArrayId>) {
        let mut heap = Heap::new();
        let ids = (0..arrays)
            .map(|_| heap.alloc_doubles(&(0..n).map(|i| i as f64).collect::<Vec<_>>()))
            .collect();
        (heap, ids)
    }

    #[test]
    fn runs_doall_loop_with_correct_results_and_report() {
        let c = compile(
            "static void scale(double[] a, double[] b, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { b[i] = a[i] * 3.0; }
            }",
        )
        .unwrap();
        let (mut heap, ids) = heap_with(10_000, 2);
        let rt = Runtime::default();
        let r = rt
            .run(
                &c,
                "scale",
                &[
                    Value::Array(ids[0]),
                    Value::Array(ids[1]),
                    Value::Int(10_000),
                ],
                &mut heap,
            )
            .unwrap();
        assert_eq!(r.loops.len(), 1);
        assert!(r.total_s > 0.0);
        assert!(r.profiles.is_empty());
        let b = heap.read_doubles(ids[1]).unwrap();
        assert!(b.iter().enumerate().all(|(i, &v)| v == 3.0 * i as f64));
    }

    #[test]
    fn uncertain_loop_gets_profiled_then_scheduled() {
        // indirect store -> static analysis cannot decide; at runtime the
        // index map is the identity, so no dependence exists (mode D').
        let c = compile(
            "static void f(double[] a, int[] idx, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { a[idx[i]] = a[idx[i]] * 2.0; }
            }",
        )
        .unwrap();
        let mut heap = Heap::new();
        let a = heap.alloc_doubles(&vec![1.0; 2048]);
        let idx = heap.alloc_ints(&(0..2048).collect::<Vec<_>>());
        let rt = Runtime::default();
        let r = rt
            .run(
                &c,
                "f",
                &[Value::Array(a), Value::Array(idx), Value::Int(2048)],
                &mut heap,
            )
            .unwrap();
        assert_eq!(r.profiles.len(), 1);
        assert!(r.profiling_s > 0.0);
        let p = r.profiles.values().next().unwrap();
        assert!(!p.has_td());
        assert!(heap.read_doubles(a).unwrap().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn scalar_accumulator_returns_through_mode_c() {
        let c = compile(
            "static double sum(double[] a, int n) {
                double s = 0.0;
                /* acc parallel */
                for (int i = 0; i < n; i++) { s = s + a[i]; }
                return s;
            }",
        )
        .unwrap();
        let (mut heap, ids) = heap_with(1000, 1);
        let rt = Runtime::default();
        let r = rt
            .run(
                &c,
                "sum",
                &[Value::Array(ids[0]), Value::Int(1000)],
                &mut heap,
            )
            .unwrap();
        // sum 0..999 = 499500
        assert_eq!(r.ret, Some(Value::Double(499_500.0)));
        assert_eq!(r.loops[0].mode.label(), "C (CPU sequential)");
    }

    #[test]
    fn stealing_scheme_via_clause() {
        let c = compile(
            "static void f(double[] a, double[] x, double[] y, int n) {
                /* acc parallel scheme(stealing) */
                for (int i = 0; i < n; i++) { x[i] = a[i] * 2.0; }
                /* acc parallel scheme(stealing) */
                for (int i = 0; i < n; i++) { y[i] = a[i] + 1.0; }
            }",
        )
        .unwrap();
        let (mut heap, ids) = heap_with(20_000, 3);
        let rt = Runtime::default();
        let r = rt
            .run(
                &c,
                "f",
                &[
                    Value::Array(ids[0]),
                    Value::Array(ids[1]),
                    Value::Array(ids[2]),
                    Value::Int(20_000),
                ],
                &mut heap,
            )
            .unwrap();
        assert_eq!(r.stealing.len(), 1);
        assert!(r.loops.is_empty());
        let x = heap.read_doubles(ids[1]).unwrap();
        assert!(x.iter().enumerate().all(|(i, &v)| v == 2.0 * i as f64));
    }

    #[test]
    fn scheme_override_wins_over_clause() {
        let c = compile(
            "static void f(double[] a, double[] x, int n) {
                /* acc parallel scheme(stealing) */
                for (int i = 0; i < n; i++) { x[i] = a[i] * 2.0; }
            }",
        )
        .unwrap();
        let (mut heap, ids) = heap_with(5000, 2);
        let rt = Runtime::new(RuntimeConfig {
            scheme_override: Some(Scheme::Sharing),
            ..RuntimeConfig::default()
        });
        let r = rt
            .run(
                &c,
                "f",
                &[Value::Array(ids[0]), Value::Array(ids[1]), Value::Int(5000)],
                &mut heap,
            )
            .unwrap();
        assert!(r.stealing.is_empty());
        assert_eq!(r.loops.len(), 1);
    }

    #[test]
    fn glue_code_executes_and_is_charged() {
        let c = compile(
            "static double f(double[] a, int n) {
                double scale = 2.0;
                int m = n - 1;
                /* acc parallel */
                for (int i = 0; i < m; i++) { a[i] = a[i] * scale; }
                return a[0] + m;
            }",
        )
        .unwrap();
        let (mut heap, ids) = heap_with(100, 1);
        let rt = Runtime::default();
        let r = rt
            .run(&c, "f", &[Value::Array(ids[0]), Value::Int(100)], &mut heap)
            .unwrap();
        assert!(r.glue_s > 0.0);
        assert_eq!(r.ret, Some(Value::Double(99.0))); // a[0]=0*2 + 99
                                                      // iteration count respects m = n - 1
        assert_eq!(r.loops[0].iterations, 99);
        assert_eq!(heap.read_doubles(ids[0]).unwrap()[99], 99.0); // untouched
    }

    #[test]
    fn unknown_function_is_an_error() {
        let c = compile("static void f() { }").unwrap();
        let mut heap = Heap::new();
        assert!(Runtime::default().run(&c, "g", &[], &mut heap).is_err());
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let c = compile("static void f(int n) { }").unwrap();
        let mut heap = Heap::new();
        assert!(Runtime::default().run(&c, "f", &[], &mut heap).is_err());
    }
}
