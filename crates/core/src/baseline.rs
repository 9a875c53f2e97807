//! Baseline executors: the comparison points of the paper's evaluation
//! (best serial CPU, 16-thread CPU, GPU-only, naive 50/50 split).

use crate::compile::Compiled;
use crate::report::RunReport;
use crate::runtime::RuntimeConfig;
use japonica_ir::{Heap, Value};
use japonica_profiler::LoopProfile;
use japonica_scheduler::{LoopTask, SchedError};
use std::collections::BTreeMap;

/// The baseline to execute every annotated loop with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Baseline {
    /// Best serial: 1 CPU thread.
    Serial,
    /// Multithreaded CPU with the given thread count (the paper uses 16).
    CpuParallel(u32),
    /// GPU-only, like a hand-ported CUDA version (synchronous transfers).
    GpuOnly,
    /// Fixed cooperative split: this fraction to the GPU, the rest to the
    /// CPU, no stealing ("CPU 50% + GPU 50%" uses 0.5).
    FixedSplit(f64),
}

impl std::fmt::Display for Baseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Baseline::Serial => write!(f, "serial CPU"),
            Baseline::CpuParallel(t) => write!(f, "CPU-{t}"),
            Baseline::GpuOnly => write!(f, "GPU-only"),
            Baseline::FixedSplit(frac) => write!(
                f,
                "fixed {:.0}/{:.0} split",
                frac * 100.0,
                (1.0 - frac) * 100.0
            ),
        }
    }
}

/// Execute `function` with every annotated loop dispatched to `baseline`
/// instead of the Japonica scheduler. Uncertain loops are profiled first so
/// the baseline executor knows the loop's dependence class (a hand-ported
/// GPU or parallel-CPU version also embodies that knowledge); profiling
/// time is *not* charged to the baseline.
pub fn run_baseline(
    cfg: &RuntimeConfig,
    compiled: &Compiled,
    function: &str,
    args: &[Value],
    heap: &mut Heap,
    baseline: Baseline,
) -> Result<RunReport, SchedError> {
    let rt = crate::runtime::Runtime::for_run(cfg);
    let sched = &rt.cfg.sched;
    crate::exec::execute_function(
        compiled,
        function,
        args,
        heap,
        &sched.cpu,
        &mut |loops, env, heap, report| {
            for l in loops {
                let analysis = &compiled.analyses[&l.id];
                let mut profiles: BTreeMap<japonica_ir::LoopId, LoopProfile> = BTreeMap::new();
                if analysis.determination.needs_profiling() {
                    if let Some(p) = report.profiles.get(&l.id) {
                        profiles.insert(l.id, p.clone());
                    } else {
                        let p = rt.profile(compiled, l, analysis, env, heap)?;
                        profiles.insert(l.id, p);
                    }
                }
                let task = LoopTask {
                    loop_: l,
                    analysis,
                    profile: profiles.get(&l.id),
                };
                // Each composition is a hand-ported version: it consults
                // no fault plan.
                let run = task.prepare(&compiled.program, sched, env, heap)?;
                let r = match baseline {
                    Baseline::Serial => run.on_cpu(env, heap, None)?,
                    Baseline::CpuParallel(t) => run.on_cpu(env, heap, Some(t))?,
                    Baseline::GpuOnly => run.gpu_only(env, heap)?,
                    Baseline::FixedSplit(frac) => run.fixed_split(env, heap, frac)?,
                };
                report.loops.push(r);
                report.profiles.append(&mut profiles);
            }
            Ok(())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    const SRC: &str = "static void scale(double[] a, double[] b, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0 + 1.0; }
    }";

    fn run_with(baseline: Baseline) -> (RunReport, Vec<f64>) {
        let c = compile(SRC).unwrap();
        let mut heap = Heap::new();
        let a = heap.alloc_doubles(&(0..8192).map(|i| i as f64).collect::<Vec<_>>());
        let b = heap.alloc_doubles(&vec![0.0; 8192]);
        let r = run_baseline(
            &RuntimeConfig::default(),
            &c,
            "scale",
            &[Value::Array(a), Value::Array(b), Value::Int(8192)],
            &mut heap,
            baseline,
        )
        .unwrap();
        (r, heap.read_doubles(b).unwrap())
    }

    #[test]
    fn all_baselines_compute_identical_results() {
        let expect: Vec<f64> = (0..8192).map(|i| 2.0 * i as f64 + 1.0).collect();
        for b in [
            Baseline::Serial,
            Baseline::CpuParallel(16),
            Baseline::GpuOnly,
            Baseline::FixedSplit(0.5),
        ] {
            let (_, vals) = run_with(b);
            assert_eq!(vals, expect, "baseline {b}");
        }
    }

    #[test]
    fn serial_is_slowest_cpu_variant() {
        let (serial, _) = run_with(Baseline::Serial);
        let (par, _) = run_with(Baseline::CpuParallel(16));
        assert!(par.total_s < serial.total_s);
    }

    #[test]
    fn baseline_display() {
        assert_eq!(Baseline::CpuParallel(16).to_string(), "CPU-16");
        assert_eq!(Baseline::GpuOnly.to_string(), "GPU-only");
    }
}
