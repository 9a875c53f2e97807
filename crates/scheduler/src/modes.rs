//! Execution-mode selection: the decision workflow of paper Fig. 2(b).

use japonica_analysis::Determination;
use japonica_profiler::LoopProfile;

/// The execution model assigned to one loop (paper Fig. 2(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Mode A — deterministic DOALL: parallel execution on the GPU plus
    /// multithreaded execution on the CPU, split at the boundary.
    A,
    /// Mode B — low true-dependence density: GPU-TLS speculation with CPU
    /// fallback on violation.
    B,
    /// Mode C — high true-dependence density: sequential CPU execution.
    C,
    /// Mode D — only false dependences observed: privatized parallel
    /// execution PE(V) on the GPU, *sequential* execution of the CPU share
    /// (lock-step SIMD made the GPU check reliable; a parallel CPU could
    /// still expose true dependences, §V-A). Sequential in what it
    /// computes: the host walks the share in conflict-checked lane batches
    /// against a deferred-write buffer (`CpuCtx::run_deferred`), replaying
    /// in order whatever batch the check refuses.
    D,
    /// Mode D′ — profiling observed no dependences at all: like A, both
    /// sides parallel, but decided dynamically.
    DPrime,
}

impl ExecutionMode {
    /// Does the mode use the GPU at all?
    pub fn uses_gpu(self) -> bool {
        !matches!(self, ExecutionMode::C)
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecutionMode::A => "A (DOALL share)",
            ExecutionMode::B => "B (GPU-TLS)",
            ExecutionMode::C => "C (CPU sequential)",
            ExecutionMode::D => "D (privatize + seq CPU)",
            ExecutionMode::DPrime => "D' (no runtime deps)",
        }
    }
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Decide the execution mode for a loop from its static determination and
/// (when the determination was *uncertain*) its dynamic profile.
///
/// This is the Fig. 2(b) workflow verbatim:
/// determined DOALL → A; else profile → TD density high → C, low → B,
/// zero TD → any FD? → D, else D′. Statically *proven* dependences skip
/// profiling: proven TD → C, proven FD-only → D.
pub fn decide_mode(
    det: &Determination,
    profile: Option<&LoopProfile>,
    td_density_threshold: f64,
) -> ExecutionMode {
    try_decide_mode(det, profile, td_density_threshold)
        .expect("uncertain loops must be profiled before scheduling")
}

/// [`decide_mode`] without the panic: returns `None` when the loop's
/// determination is uncertain and no profile is available — the runtime
/// turns that into a typed scheduler error instead of unwinding.
pub fn try_decide_mode(
    det: &Determination,
    profile: Option<&LoopProfile>,
    td_density_threshold: f64,
) -> Option<ExecutionMode> {
    Some(match det {
        Determination::Doall => ExecutionMode::A,
        Determination::Deterministic(s) => {
            if s.true_dep {
                ExecutionMode::C
            } else {
                ExecutionMode::D
            }
        }
        Determination::Uncertain { .. } => {
            let p = profile?;
            if p.has_td() {
                if p.td_density > td_density_threshold {
                    ExecutionMode::C
                } else {
                    ExecutionMode::B
                }
            } else if p.has_fd() {
                ExecutionMode::D
            } else {
                ExecutionMode::DPrime
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use japonica_analysis::DepSummary;

    fn profile(td_density: f64, raw: u64, war: u64) -> LoopProfile {
        LoopProfile {
            td_density,
            raw_pairs: raw,
            war_pairs: war,
            iterations: 100,
            ..LoopProfile::default()
        }
    }

    fn uncertain() -> Determination {
        Determination::Uncertain {
            reasons: vec![japonica_analysis::Blocker::loop_level(
                "test",
                japonica_ir::Span::none(),
            )],
            partial: DepSummary::default(),
        }
    }

    #[test]
    fn doall_gets_mode_a() {
        assert_eq!(
            decide_mode(&Determination::Doall, None, 0.1),
            ExecutionMode::A
        );
    }

    #[test]
    fn proven_td_gets_mode_c() {
        let det = Determination::Deterministic(DepSummary {
            true_dep: true,
            ..DepSummary::default()
        });
        assert_eq!(decide_mode(&det, None, 0.1), ExecutionMode::C);
    }

    #[test]
    fn proven_fd_only_gets_mode_d() {
        let det = Determination::Deterministic(DepSummary {
            false_dep: true,
            ..DepSummary::default()
        });
        assert_eq!(decide_mode(&det, None, 0.1), ExecutionMode::D);
    }

    #[test]
    fn profiled_low_density_gets_tls() {
        let p = profile(0.012, 5, 0); // the paper's BlackScholes density
        assert_eq!(decide_mode(&uncertain(), Some(&p), 0.1), ExecutionMode::B);
    }

    #[test]
    fn profiled_high_density_gets_cpu() {
        let p = profile(0.8, 80, 0);
        assert_eq!(decide_mode(&uncertain(), Some(&p), 0.1), ExecutionMode::C);
    }

    #[test]
    fn profiled_fd_only_gets_mode_d() {
        let p = profile(0.0, 0, 30);
        assert_eq!(decide_mode(&uncertain(), Some(&p), 0.1), ExecutionMode::D);
    }

    #[test]
    fn profiled_clean_gets_d_prime() {
        let p = profile(0.0, 0, 0);
        assert_eq!(
            decide_mode(&uncertain(), Some(&p), 0.1),
            ExecutionMode::DPrime
        );
    }

    #[test]
    #[should_panic(expected = "must be profiled")]
    fn uncertain_without_profile_panics() {
        decide_mode(&uncertain(), None, 0.1);
    }

    #[test]
    fn mode_properties() {
        assert!(ExecutionMode::A.uses_gpu());
        assert!(!ExecutionMode::C.uses_gpu());
        assert!(ExecutionMode::B.label().contains("TLS"));
    }
}
