//! # japonica-profiler
//!
//! The dynamic dependency profiler of Japonica (paper §II "Profiler").
//!
//! Loops that static analysis marks *uncertain* are executed on the
//! (simulated) GPU with full memory-access instrumentation. From the access
//! log the profiler performs the intra-warp and inter-warp dependence
//! analyses and computes the **dependency density** — the quantitative
//! model of von Praun et al. the paper cites: the fraction of iterations
//! that carry a (true) dependence on an earlier iteration.
//!
//! The profiler "gathers the dynamic information by executing the loops ...
//! on GPU in parallel" (the paper's design). [`profile_loop`] buffers the
//! run's writes and, when the loop turns out to carry *no* true dependence,
//! commits them in iteration order to the device memory it was handed
//! ([`LoopProfile::committed`]). The runtime hands it a scratch device,
//! staged for the profile and dropped after it, so nothing the profile
//! commits reaches the program's heap: the loop then executes in full
//! through the scheduler, with the measured densities in hand, and the
//! profiled iterations run twice.

use japonica_gpusim::{launch_loop_guarded_with, DeviceConfig, DeviceMemory, SimtError};
use japonica_ir::{Env, ForLoop, KernelCache, LoopBounds, LoopId, OpCounts, Program};
use japonica_tls::SpeculativeMemory;
use std::collections::BTreeSet;
use std::ops::Range;

/// The dynamic profile of one loop.
#[derive(Debug, Clone, Default)]
pub struct LoopProfile {
    /// The profiled loop.
    pub loop_id: LoopId,
    /// Iterations profiled.
    pub iterations: u64,
    /// Observed cross-iteration dependence pair counts.
    pub raw_pairs: u64,
    pub war_pairs: u64,
    pub waw_pairs: u64,
    /// True-dependence density: |iterations carrying a RAW on an earlier
    /// iteration| / iterations (von Praun et al. quantitative model).
    pub td_density: f64,
    /// False-dependence density (WAR/WAW carriers / iterations).
    pub fd_density: f64,
    /// Iterations that carried a true dependence (consumed by the TLS
    /// recovery policy).
    pub td_iters: BTreeSet<u64>,
    /// Intra-warp vs. inter-warp true-dependence pair split.
    pub intra_warp_td: u64,
    pub inter_warp_td: u64,
    /// Histogram of true-dependence distances in iterations.
    pub td_distances: std::collections::BTreeMap<u64, u64>,
    /// True-dependence pairs per array.
    pub td_by_array: std::collections::BTreeMap<japonica_ir::ArrayId, u64>,
    /// Average dynamic ops per iteration (drives the scheduler's work
    /// estimates).
    pub ops_per_iter: f64,
    /// Aggregate op mix of the profiled execution.
    pub counts: OpCounts,
    /// Simulated seconds the profiling run itself took on the GPU.
    pub profiling_time_s: f64,
    /// Whether the profiling execution's results were committed to the
    /// device memory the profile ran on (true when no true dependence was
    /// observed).
    pub committed: bool,
}

impl LoopProfile {
    /// Any true dependence observed?
    pub fn has_td(&self) -> bool {
        self.raw_pairs > 0
    }

    /// Smallest observed true-dependence distance, if any — the tightest
    /// window speculation must respect.
    pub fn min_td_distance(&self) -> Option<u64> {
        self.td_distances.keys().next().copied()
    }

    /// Human-readable profile summary.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        // Writing into a String is infallible; discard the Ok(()).
        let _ = writeln!(
            out,
            "{}: {} iterations, TD density {:.4}, FD density {:.4}",
            self.loop_id, self.iterations, self.td_density, self.fd_density
        );
        let _ = writeln!(
            out,
            "  pairs: RAW {} (intra-warp {}, inter-warp {}), WAR {}, WAW {}",
            self.raw_pairs, self.intra_warp_td, self.inter_warp_td, self.war_pairs, self.waw_pairs
        );
        if !self.td_distances.is_empty() {
            let dists: Vec<String> = self
                .td_distances
                .iter()
                .take(8)
                .map(|(d, c)| format!("{d}:{c}"))
                .collect();
            let _ = writeln!(
                out,
                "  TD distance histogram (dist:count): {}",
                dists.join(" ")
            );
        }
        out
    }

    /// Any false dependence observed?
    pub fn has_fd(&self) -> bool {
        self.war_pairs + self.waw_pairs > 0
    }
}

/// Extra issue cycles per warp memory access while profiling (the
/// instrumentation writes metadata records, costlier than plain TLS
/// bookkeeping).
pub const PROFILING_OVERHEAD_CYCLES: f64 = 12.0;

/// Device cycles per logged access analyzed in the dependence analysis,
/// amortized over the SMs.
pub const ANALYSIS_CYCLES_PER_ENTRY: f64 = 3.0;

/// Profile iterations `range` of `loop_` by instrumented parallel execution
/// on the GPU.
///
/// On return, device memory holds the loop's committed results if and only
/// if `profile.committed` (no true dependence was observed; false
/// dependences are safe because writes committed in iteration order).
pub fn profile_loop(
    program: &Program,
    dcfg: &DeviceConfig,
    loop_: &ForLoop,
    bounds: &LoopBounds,
    range: Range<u64>,
    base_env: &Env,
    dev: &mut DeviceMemory,
) -> Result<LoopProfile, SimtError> {
    profile_loop_with(program, dcfg, loop_, bounds, range, base_env, dev, None)
}

/// [`profile_loop`] launching through a shared [`KernelCache`], so the run
/// that follows the profile reuses its compilation of the loop.
#[allow(clippy::too_many_arguments)] // mirrors the launch signature
pub fn profile_loop_with(
    program: &Program,
    dcfg: &DeviceConfig,
    loop_: &ForLoop,
    bounds: &LoopBounds,
    range: Range<u64>,
    base_env: &Env,
    dev: &mut DeviceMemory,
    kernels: Option<&KernelCache>,
) -> Result<LoopProfile, SimtError> {
    let iterations = range.end.saturating_sub(range.start);
    let mut spec = SpeculativeMemory::new(dev, PROFILING_OVERHEAD_CYCLES);
    let kr = launch_loop_guarded_with(
        program, dcfg, loop_, bounds, range, base_env, &mut spec, None, None, kernels,
    )?;
    let entries = spec.entries();
    let stats = spec.dependence_stats();

    let committed = stats.td_iters.is_empty();
    if committed {
        spec.commit_all()
            .map_err(|e| SimtError::Lane { iter: 0, error: e })?;
    }
    // else: buffers dropped; the runtime re-executes in a safe mode.

    let analysis_s = dcfg.cycles_to_seconds(
        entries as f64 * ANALYSIS_CYCLES_PER_ENTRY / dcfg.effective_sms() as f64,
    );
    let denom = iterations.max(1) as f64;
    Ok(LoopProfile {
        loop_id: loop_.id,
        iterations,
        raw_pairs: stats.raw_pairs,
        war_pairs: stats.war_pairs,
        waw_pairs: stats.waw_pairs,
        td_density: stats.td_iters.len() as f64 / denom,
        fd_density: stats.fd_iters.len() as f64 / denom,
        td_iters: stats.td_iters,
        intra_warp_td: stats.intra_warp_td,
        inter_warp_td: stats.inter_warp_td,
        td_distances: stats.td_distances,
        td_by_array: stats.td_by_array,
        ops_per_iter: kr.stats.counts.total_ops() as f64 / denom,
        counts: kr.stats.counts.clone(),
        profiling_time_s: kr.time_s + analysis_s,
        committed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use japonica_frontend::compile_source;
    use japonica_ir::{Heap, ParamTy, Value};

    fn profile(src: &str, n: i64) -> (LoopProfile, DeviceMemory, Vec<japonica_ir::ArrayId>) {
        let program = compile_source(src).unwrap();
        let f = &program.functions[0];
        let loop_ = f
            .all_loops()
            .into_iter()
            .find(|l| l.is_annotated())
            .unwrap()
            .clone();
        let mut heap = Heap::new();
        let dcfg = DeviceConfig::default();
        let mut dev = DeviceMemory::new();
        let mut env = Env::with_slots(f.num_vars);
        let mut arrays = Vec::new();
        for p in &f.params {
            match p.ty {
                ParamTy::Array(_) => {
                    let vals: Vec<i64> = (0..n).collect();
                    let a = heap.alloc_longs(&vals);
                    dev.copy_in(&heap, a, 0, n as usize, &dcfg).unwrap();
                    env.set(p.var, Value::Array(a));
                    arrays.push(a);
                }
                ParamTy::Scalar(_) => env.set(p.var, Value::Int(n as i32)),
            }
        }
        // Evaluate the loop's own bound expressions (start may be 1, end
        // may be n-1, ...).
        let bounds = {
            let mut heap2 = heap.clone();
            let mut be = japonica_ir::HeapBackend::new(&mut heap2);
            japonica_ir::Interp::new(&program)
                .loop_bounds(&loop_, &mut env.clone(), &mut be)
                .unwrap()
        };
        let prof = profile_loop(
            &program,
            &dcfg,
            &loop_,
            &bounds,
            0..bounds.trip(),
            &env,
            &mut dev,
        )
        .unwrap();
        (prof, dev, arrays)
    }

    #[test]
    fn independent_loop_profiles_as_dependence_free_and_commits() {
        let (p, dev, arrays) = profile(
            "static void f(long[] a, long[] b, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { b[i] = a[i] * 3; }
            }",
            512,
        );
        assert!(!p.has_td());
        assert!(!p.has_fd());
        assert_eq!(p.td_density, 0.0);
        assert!(p.committed);
        // results usable directly
        assert_eq!(dev.array(arrays[1]).unwrap().get(10), Value::Long(30));
        assert!(p.ops_per_iter > 0.0);
        assert!(p.profiling_time_s > 0.0);
    }

    #[test]
    fn dense_true_dependence_measured() {
        // every iteration i>0 reads a[i-1] written by i-1
        let (p, _, _) = profile(
            "static void f(long[] a, int n) {
                /* acc parallel */
                for (int i = 1; i < n; i++) { a[i] = a[i - 1] + 1; }
            }",
            512,
        );
        assert!(p.has_td());
        assert!(p.td_density > 0.9, "{}", p.td_density);
        assert!(!p.committed);
        assert!(p.intra_warp_td > 0);
        assert!(p.inter_warp_td > 0);
    }

    #[test]
    fn sparse_true_dependence_has_low_density() {
        // only every 64th iteration depends on an earlier one
        let (p, _, _) = profile(
            "static void f(long[] a, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) {
                    if (i % 64 == 63) { a[i] = a[i - 63] + 1; } else { a[i] = i; }
                }
            }",
            1024,
        );
        assert!(p.has_td());
        assert!(
            p.td_density > 0.0 && p.td_density < 0.05,
            "{}",
            p.td_density
        );
        assert_eq!(p.td_iters.len(), 16);
    }

    #[test]
    fn false_dependences_detected_and_still_committed() {
        // all iterations write t[i % 32] (WAW) and read it back (own write);
        // then write o[i]: no RAW across iterations.
        let (p, dev, arrays) = profile(
            "static void f(long[] t, long[] o, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { t[i % 32] = i; o[i] = t[i % 32]; }
            }",
            256,
        );
        assert!(!p.has_td());
        assert!(p.has_fd());
        assert!(p.waw_pairs > 0);
        assert!(p.fd_density > 0.5);
        assert!(p.committed);
        // committed state matches sequential: o[i] == i
        assert_eq!(dev.array(arrays[1]).unwrap().get(100), Value::Long(100));
        // t[k] holds the last writer: i = 224 + k
        assert_eq!(dev.array(arrays[0]).unwrap().get(0), Value::Long(224));
    }

    #[test]
    fn war_only_loop_is_fd() {
        // i reads a[i+1] (pristine) and writes a[i]: pure anti-dependence
        let (p, _, _) = profile(
            "static void f(long[] a, int n) {
                /* acc parallel */
                for (int i = 0; i < n - 1; i++) { a[i] = a[i + 1] * 2; }
            }",
            256,
        );
        assert!(!p.has_td());
        assert!(p.has_fd());
        assert!(p.war_pairs > 0);
        assert!(p.committed);
    }

    #[test]
    fn density_is_iteration_fraction_not_pair_count() {
        // one iteration (the last) reads everything written before it:
        // many RAW pairs, but only one dependent iteration.
        let (p, _, _) = profile(
            "static void f(long[] a, long[] s, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) {
                    if (i == n - 1) {
                        long acc = 0;
                        for (int j = 0; j < n - 1; j++) { acc = acc + a[j]; }
                        s[0] = acc;
                    } else {
                        a[i] = i;
                    }
                }
            }",
            256,
        );
        assert!(p.raw_pairs > 100);
        assert_eq!(p.td_iters.len(), 1);
        assert!((p.td_density - 1.0 / 256.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;
    use japonica_frontend::compile_source;
    use japonica_ir::{Heap, ParamTy, Value};

    fn profile_src(src: &str, n: i64) -> (LoopProfile, DeviceMemory, Vec<japonica_ir::ArrayId>) {
        let program = compile_source(src).unwrap();
        let f = &program.functions[0];
        let loop_ = f
            .all_loops()
            .into_iter()
            .find(|l| l.is_annotated())
            .unwrap()
            .clone();
        let mut heap = Heap::new();
        let dcfg = DeviceConfig::default();
        let mut dev = DeviceMemory::new();
        let mut env = Env::with_slots(f.num_vars);
        let mut arrays = Vec::new();
        for p in &f.params {
            match p.ty {
                ParamTy::Array(_) => {
                    let vals: Vec<i64> = (0..n).collect();
                    let a = heap.alloc_longs(&vals);
                    dev.copy_in(&heap, a, 0, n as usize, &dcfg).unwrap();
                    env.set(p.var, Value::Array(a));
                    arrays.push(a);
                }
                ParamTy::Scalar(_) => env.set(p.var, Value::Int(n as i32)),
            }
        }
        let bounds = {
            let mut h = heap.clone();
            let mut be = japonica_ir::HeapBackend::new(&mut h);
            japonica_ir::Interp::new(&program)
                .loop_bounds(&loop_, &mut env.clone(), &mut be)
                .unwrap()
        };
        let p = profile_loop(
            &program,
            &dcfg,
            &loop_,
            &bounds,
            0..bounds.trip(),
            &env,
            &mut dev,
        )
        .unwrap();
        (p, dev, arrays)
    }

    #[test]
    fn distance_histogram_counts_each_distance() {
        // i%5==4 reads i-2; i%7==6 reads i-3
        let (p, _, _) = profile_src(
            "static void f(long[] a, int n) {
                /* acc parallel */
                for (int i = 3; i < n; i++) {
                    if (i % 5 == 4) { a[i] = a[i - 2] + 1; }
                    if (i % 7 == 6) { a[i] = a[i - 3] + 1; }
                    if (i % 5 != 4 && i % 7 != 6) { a[i] = i; }
                }
            }",
            700,
        );
        assert!(p.td_distances.contains_key(&2));
        assert!(p.td_distances.contains_key(&3));
        assert_eq!(p.min_td_distance(), Some(2));
        let total: u64 = p.td_distances.values().sum();
        assert_eq!(total, p.raw_pairs);
        assert_eq!(p.td_by_array.len(), 1);
        let d = p.describe();
        assert!(d.contains("TD distance histogram"));
    }

    #[test]
    fn per_array_breakdown_separates_arrays() {
        let (p, _, arrays) = profile_src(
            "static void f(long[] a, long[] b, int n) {
                /* acc parallel */
                for (int i = 1; i < n; i++) {
                    a[i] = a[i - 1] + 1;
                    b[i] = i;
                }
            }",
            300,
        );
        assert_eq!(p.td_by_array.len(), 1);
        assert!(p.td_by_array.contains_key(&arrays[0]));
    }
}
