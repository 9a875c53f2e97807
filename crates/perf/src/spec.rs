//! The names this benchmark defines: workloads, end-to-end metrics and
//! per-layer metrics. Later changes refer to metrics and workloads by
//! these names only. `BENCHMARK.json` at the repository root is the
//! driver-facing projection of these tables (`perf spec` prints it; a test
//! keeps the two equal).

use crate::json::Json;

/// Whether a smaller or a larger value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric's median may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the parent's median.
    Relative(f64),
    /// Share of the parent's median, and at least `slack` in the metric's
    /// own unit: a small absolute jitter on a small value is not a change.
    RelativeBeyond { share: f64, slack: f64 },
    /// Absolute difference (ratios that sit at or near zero).
    Absolute(f64),
    /// Simulated quantities: bit-equal or it is a regression.
    Exact,
}

impl Bound {
    /// The share of the parent's median, for bounds that have one.
    pub fn share(self) -> Option<f64> {
        match self {
            Bound::Relative(share) | Bound::RelativeBeyond { share, .. } => Some(share),
            Bound::Absolute(_) | Bound::Exact => None,
        }
    }

    /// How result files and `perf compare` print the bound.
    pub fn text(self) -> String {
        match self {
            Bound::Relative(b) => format!("{b}"),
            Bound::RelativeBeyond { share, slack } => format!("{share} & {slack}"),
            Bound::Absolute(b) => format!("+{b} abs"),
            Bound::Exact => "exact".to_string(),
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists (goes into `BENCHMARK.json`).
    pub why: &'static str,
    /// What runs, with the fixed constants.
    pub what: &'static str,
}

const TABLE2: [&str; 4] = [
    "table2_cpu",
    "table2_gpu",
    "table2_hetero",
    "table2_hostpar",
];
const SERVE: [&str; 2] = ["serve_closed", "serve_open_dup"];
const ALL: [&str; 8] = [
    "table2_cpu",
    "table2_gpu",
    "table2_hetero",
    "table2_hostpar",
    "serve_closed",
    "serve_open_dup",
    "session_edit",
    "compile_corpus",
];

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "table2_cpu",
        why: "cpuexec and the scalar VMs do nearly all the work; mechanism workload for scalar-VM changes, bypass for every GPU-side or scheduler change",
        what: "11 Table II apps x {Baseline::Serial, Baseline::CpuParallel(16)}, scale 1, bytecode engine; one op = one cell",
    },
    Workload {
        name: "table2_gpu",
        why: "gpusim SIMT interpretation, device staging and tls/profiler dominate with no CPU/GPU split; engine-tier changes must show here, scheduler fixes must not",
        what: "11 apps x Baseline::GpuOnly, host_threads 1 (BlackScholes runs blind TLS); one op = one cell",
    },
    Workload {
        name: "table2_hetero",
        why: "adds the sharing and stealing schedulers on top of the same kernels; carries the paper's headline simulated speedup and the sharing outliers",
        what: "11 apps x {Scheme::Sharing, Scheme::Stealing} through Runtime::run, host_threads 1; one op = one cell",
    },
    Workload {
        name: "table2_hostpar",
        why: "the table2_gpu cells through the host-parallel launcher; a change that speeds one launcher at the other's expense moves the two workloads oppositely",
        what: "10 apps (all but BlackScholes, whose blind-TLS cell does not repeat under two simulator threads) x Baseline::GpuOnly with gpusim host_threads 2; one op = one cell",
    },
    Workload {
        name: "serve_closed",
        why: "every job executes: serve queue, lease and dispatch around full core runs in a true closed loop, so latency is service plus lease wait, not backlog",
        what: "threaded Serve (1 device, workers 2, queue 64, dedup and batching off); 2 clients each submit, wait, next; balanced seeded blocks of 22 jobs (11 apps x 2 input seeds), 7 SMs + 8 CPU slots per job; one op = one job",
    },
    Workload {
        name: "serve_open_dup",
        why: "uses serve differently: dedup join and fan-out, batch affinity and weighted-fair admission instead of execution, under a fixed-rate open loop",
        what: "open loop at 50 jobs/s (half of the 100 to 112 jobs/s the rate ladder measures as capacity) with exponential gaps on the host clock, one fixed order and schedule for every seed, 3 tenants weighted 8/4/2, 70% of arrivals draw one of 8 hot (program, input) shapes and 30% a unique input, dedup and batching on, queue 256, requests built before pacing, latency from each due time to a completion stamp of the harness, limit 1.0 s on p95; one op = one job",
    },
    Workload {
        name: "session_edit",
        why: "writes beside reads on the program and kernel caches: LOAD fingerprints, invalidates and recompiles while RUN hits the resident tiers; the only workload where compile time is a visible share",
        what: "protocol::Engine::feed_line over SessionManager::threaded (workers 2); 2 sessions, seeded script of OPEN/LOAD/RUN/BIND/SHOW/CLOSE over a 4-kernel program, each step re-LOADs with one kernel edited with probability 0.3, RUN sizes 4096..16384, 64 RUNs per pass; one op = one protocol command",
    },
    Workload {
        name: "compile_corpus",
        why: "no execution layer runs at all: bypass for every runtime change, mechanism workload for frontend, analysis, lint, autopar and kernel-compile work",
        what: "japonica::compile + compile_kernel + compile_native of the 11 sources and autopar::propose_program of the 11 stripped sources; one pass = 10 corpus sweeps, one op = one source",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Workloads the metric is defined on.
    pub workloads: &'static [&'static str],
    pub what: &'static str,
}

impl EndToEnd {
    /// What the benchmark driver gates on: defined on every workload,
    /// never zero, bounded as a share of the median, and steady from run
    /// to run on every workload. The rest are gated by `perf compare` and
    /// shown to the driver beside the per-layer numbers, which carry no
    /// bound there.
    pub fn driver_gated(&self) -> bool {
        matches!(self.name, "setup_s" | "pass_wall_s")
    }

    /// The bound on one workload: the metric's own, except where that
    /// workload's same-code runs differ by more (see [`OPEN_LOOP_LATENCY`]).
    pub fn bound_on(&self, workload: &str) -> Bound {
        OPEN_LOOP_LATENCY
            .iter()
            .find(|(metric, _)| *metric == self.name && workload == "serve_open_dup")
            .map_or(self.bound, |(_, bound)| *bound)
    }
}

/// Latency bounds on `serve_open_dup`. At half of capacity an arrival finds
/// both workers busy about a third of the time and 70 % of the arrivals are
/// memo hits, so a little under half of them are served at once and the
/// 50th percentile sits just past those, where waiting starts. Four runs of
/// one seed read p50 4.8 to 8.7 ms and p95 0.17 to 0.24 s; differences
/// inside those ranges are not changes.
pub const OPEN_LOOP_LATENCY: [(&str, Bound); 2] = [
    (
        "latency_p50_s",
        Bound::RelativeBeyond {
            share: 0.25,
            slack: 0.010,
        },
    ),
    (
        "latency_p95_s",
        Bound::RelativeBeyond {
            share: 0.25,
            slack: 0.100,
        },
    ),
];

/// Workloads whose ops are requests, so a latency percentile means what a
/// user of the service or the session would call latency.
const REQUESTS: [&str; 3] = ["serve_closed", "serve_open_dup", "session_edit"];

/// Wall-clock bound of the metrics only `perf compare` gates. The issue
/// that defined these names asked for 0.10. Within one run the quartiles of
/// a pass sit 1 to 3 % apart, but the 2-CPU host this was calibrated on
/// changes level between runs: ten runs spread 0.03 to 0.07 in a calm phase
/// and 0.14 in a noisy one, and one workload read 0.585 s and 0.675 s forty
/// minutes apart on one binary. More passes do not touch that; a bound has
/// to sit clear of it to mean anything. See the README.
const WALL: Bound = Bound::Relative(0.20);
/// Tail latency and the two metrics the benchmark driver gates. The
/// driver accepts a benchmark only if ten runs spread less than the bound
/// and two batches of ten agree within it, on every workload, so these
/// take the widest bound it allows.
const WIDE: Bound = Bound::Relative(0.25);

pub const END_TO_END: [EndToEnd; 14] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        // A serving set-up takes 6 ms and a compile set-up 1.4 ms, thread
        // spawns and page faults: their own quartiles sit 0.3 apart.
        bound: Bound::RelativeBeyond {
            share: 0.25,
            slack: 0.005,
        },
        workloads: &ALL,
        what: "host seconds to compile the corpus, generate seeded inputs, run the Rust references and start the service; median over at least three set-ups, excluded from everything else",
    },
    EndToEnd {
        name: "pass_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: WIDE,
        workloads: &ALL,
        what: "host seconds of one pass (the sum of its timed ops): every cell once, one block of 22 jobs, one arrival schedule, one session script, or 10 corpus sweeps; median over passes",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: WALL,
        workloads: &["serve_open_dup"],
        what: "CPU seconds (user + system, every thread, the harness's checks included) the process uses over the paced schedule: the schedule fixes pass_wall_s and jobs_per_s there until the service falls behind, and this is what a slower dedup, dispatch or execution path moves first",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: WALL,
        workloads: &["session_edit"],
        what: "protocol commands completed per host second over the timed passes",
    },
    EndToEnd {
        name: "compile_s",
        unit: "s",
        better: Better::Lower,
        bound: WALL,
        workloads: &["compile_corpus"],
        what: "host seconds to japonica::compile the 11 sources once; median over passes",
    },
    EndToEnd {
        name: "sim_time_s",
        unit: "sim_s",
        better: Better::Lower,
        bound: Bound::Exact,
        workloads: &TABLE2,
        what: "simulated seconds summed over one pass; sim_fingerprint (a hash of every total_s bit pattern and RunReport::summary) is recorded beside it and must be equal",
    },
    EndToEnd {
        name: "sim_speedup_geomean",
        unit: "x",
        better: Better::Higher,
        bound: Bound::Exact,
        workloads: &TABLE2,
        what: "geomean over the non-serial cells of the app's serial simulated time over the cell's simulated time",
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: WALL,
        workloads: &SERVE,
        what: "completed jobs per host second; on serve_open_dup the arrival rate, until the service falls behind",
    },
    EndToEnd {
        name: "latency_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: WALL,
        workloads: &REQUESTS,
        what: "median host seconds of one request (job or protocol command), between the harness's own instants (open loop: from the due time to the pacer's completion stamp)",
    },
    EndToEnd {
        name: "latency_p95_s",
        unit: "s",
        better: Better::Lower,
        bound: WIDE,
        workloads: &REQUESTS,
        what: "95th percentile of the same samples; the report also names the highest percentile with at least ten samples beyond it",
    },
    EndToEnd {
        name: "slo_miss_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::Absolute(0.02),
        workloads: &["serve_open_dup"],
        what: "(shed + failed + later than 1.0 s from the due time) / arrivals",
    },
    EndToEnd {
        name: "reload_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: WALL,
        workloads: &["session_edit"],
        what: "median host seconds of an incremental LOAD after an edit",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        // Sixteen short-lived worker threads create anywhere from one to
        // sixteen malloc arenas depending on timing, a few MiB resident
        // each: 24 to 32 MiB on `table2_cpu` from run to run.
        bound: Bound::RelativeBeyond {
            share: 0.25,
            slack: 16.0,
        },
        workloads: &ALL,
        what: "VmHWM of the workload's own process",
    },
    EndToEnd {
        name: "failed_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::Absolute(0.0),
        workloads: &ALL,
        what: "(errors + reference mismatches + simulated-bit mismatches + shed) / attempted; any failure also makes the command exit non-zero",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The workloads whose traced run measures it.
    pub home: &'static [&'static str],
    /// `metric@workload` it is expected to move.
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer (= crate) is the name's prefix.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

const CC: &[&str] = &["compile_corpus"];
const T_CPU: &[&str] = &["table2_cpu"];
const T_GPU: &[&str] = &["table2_gpu"];
const T_HET: &[&str] = &["table2_hetero"];
const T_PAR: &[&str] = &["table2_hostpar"];
const S_CL: &[&str] = &["serve_closed"];
const S_OP: &[&str] = &["serve_open_dup"];
const SESS: &[&str] = &["session_edit"];

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    home: &'static [&'static str],
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        home,
        moves,
    }
}

use Better::{Higher, Lower};

const M_COMPILE: &str =
    "pass_wall_s@compile_corpus, compile_s@compile_corpus, reload_p50_s@session_edit";
const M_IR: &str = "reload_p50_s@session_edit, pass_wall_s@compile_corpus";
const M_CPU: &str = "pass_wall_s@table2_cpu";
const M_GPU: &str = "pass_wall_s@table2_gpu";
const M_TLS: &str = "pass_wall_s@table2_gpu, pass_wall_s@table2_hetero";
const M_HET: &str = "pass_wall_s@table2_hetero";
const M_CLOSED: &str =
    "latency_p50_s@serve_closed, latency_p95_s@serve_closed, jobs_per_s@serve_closed";
const M_OPEN: &str =
    "slo_miss_ratio@serve_open_dup, latency_p95_s@serve_open_dup, jobs_per_s@serve_open_dup";
const M_SESSION: &str = "reload_p50_s@session_edit, ops_per_s@session_edit";
const M_APP: &str = "pass_wall_s on its table2 workload (the 11 rows sum to it)";

pub const PER_LAYER: [PerLayer; 88] = [
    pl("frontend.lex_s", "s", Lower, CC, M_COMPILE),
    pl("frontend.parse_s", "s", Lower, CC, M_COMPILE),
    pl("frontend.sema_s", "s", Lower, CC, M_COMPILE),
    pl("frontend.lower_s", "s", Lower, CC, M_COMPILE),
    pl("frontend.tokens_per_s", "1/s", Higher, CC, M_COMPILE),
    pl("analysis.deptest_s", "s", Lower, CC, M_COMPILE),
    pl("analysis.pdg_s", "s", Lower, CC, M_COMPILE),
    pl(
        "analysis.uncertain_loops",
        "count",
        Lower,
        CC,
        "none (exact; moves only if the analysis changes)",
    ),
    pl("lint.audit_s", "s", Lower, CC, M_COMPILE),
    pl("lint.findings", "count", Lower, CC, "none (exact)"),
    pl(
        "autopar.propose_s",
        "s",
        Lower,
        CC,
        "pass_wall_s@compile_corpus",
    ),
    pl("autopar.proposals", "count", Higher, CC, "none (exact)"),
    pl("ir.bytecode_compile_s", "s", Lower, CC, M_IR),
    pl("ir.native_compile_s", "s", Lower, CC, M_IR),
    pl("ir.bytecode_ops", "count", Lower, CC, M_IR),
    pl(
        "ir.kernel_bailouts",
        "count",
        Lower,
        CC,
        "pass_wall_s@table2_* (a bail-out runs on the walker)",
    ),
    pl("cpuexec.seq_walker_ns_per_iter", "ns", Lower, T_CPU, M_CPU),
    pl(
        "cpuexec.seq_bytecode_ns_per_iter",
        "ns",
        Lower,
        T_CPU,
        M_CPU,
    ),
    pl("cpuexec.seq_native_ns_per_iter", "ns", Lower, T_CPU, M_CPU),
    pl("cpuexec.par16_ns_per_iter", "ns", Lower, T_CPU, M_CPU),
    pl(
        "gpusim.launch_walker_ns_per_iter",
        "ns",
        Lower,
        T_GPU,
        M_GPU,
    ),
    pl(
        "gpusim.launch_bytecode_ns_per_iter",
        "ns",
        Lower,
        T_GPU,
        M_GPU,
    ),
    pl(
        "gpusim.launch_native_ns_per_iter",
        "ns",
        Lower,
        T_GPU,
        M_GPU,
    ),
    pl(
        "gpusim.launch_par2_ns_per_iter",
        "ns",
        Lower,
        T_PAR,
        "pass_wall_s@table2_hostpar only",
    ),
    pl("gpusim.stage_s", "s", Lower, T_GPU, M_GPU),
    pl(
        "gpusim.sim_cycles",
        "count",
        Lower,
        T_GPU,
        "sim_time_s@table2_gpu (must not move unless it does)",
    ),
    pl(
        "gpusim.warps",
        "count",
        Lower,
        T_GPU,
        "sim_time_s@table2_gpu (must not move unless it does)",
    ),
    pl(
        "gpusim.bytes_moved",
        "B",
        Lower,
        T_GPU,
        "sim_time_s@table2_gpu (must not move unless it does)",
    ),
    pl("profiler.profile_s", "s", Lower, T_GPU, M_TLS),
    pl("profiler.entries", "count", Lower, T_GPU, "none (exact)"),
    pl("tls.loop_ns_per_iter", "ns", Lower, T_GPU, M_TLS),
    pl(
        "tls.loop_par2_ns_per_iter",
        "ns",
        Lower,
        T_PAR,
        "none gated (the BlackScholes cell table2_hostpar leaves out)",
    ),
    pl("tls.privatized_ns_per_iter", "ns", Lower, T_GPU, M_TLS),
    pl("tls.specmem_ns_per_access", "ns", Lower, T_GPU, M_TLS),
    pl("tls.rounds", "count", Lower, T_GPU, "sim_time_s@table2_gpu"),
    pl(
        "tls.violations",
        "count",
        Lower,
        T_GPU,
        "sim_time_s@table2_gpu",
    ),
    pl("tls.commit_ratio", "ratio", Higher, T_GPU, M_TLS),
    pl("scheduler.sharing_overhead_ratio", "x", Lower, T_HET, M_HET),
    pl(
        "scheduler.stealing_overhead_ratio",
        "x",
        Lower,
        T_HET,
        M_HET,
    ),
    pl("scheduler.sharing_worst_ratio", "x", Lower, T_HET, M_HET),
    pl(
        "scheduler.gpu_iter_share",
        "ratio",
        Higher,
        T_HET,
        "sim_time_s@table2_hetero",
    ),
    pl(
        "scheduler.steals",
        "count",
        Lower,
        T_HET,
        "sim_time_s@table2_hetero",
    ),
    pl(
        "scheduler.bytes_moved",
        "B",
        Lower,
        T_HET,
        "sim_time_s@table2_hetero",
    ),
    pl("core.engine_speedup_bytecode", "x", Higher, T_GPU, M_GPU),
    pl("core.engine_speedup_native", "x", Higher, T_GPU, M_GPU),
    pl(
        "core.hostpar_speedup",
        "x",
        Higher,
        T_PAR,
        "pass_wall_s@table2_hostpar against pass_wall_s@table2_gpu",
    ),
    pl(
        "core.sim_iters_per_host_s",
        "1/s",
        Higher,
        &TABLE2,
        "pass_wall_s on its table2 workload",
    ),
    pl("app.GEMM.wall_s", "s", Lower, &TABLE2, M_APP),
    pl("app.VectorAdd.wall_s", "s", Lower, &TABLE2, M_APP),
    pl("app.BFS.wall_s", "s", Lower, &TABLE2, M_APP),
    pl("app.MVT.wall_s", "s", Lower, &TABLE2, M_APP),
    pl("app.Gauss-Seidel.wall_s", "s", Lower, &TABLE2, M_APP),
    pl("app.CFD.wall_s", "s", Lower, &TABLE2, M_APP),
    pl("app.Sepia.wall_s", "s", Lower, &TABLE2, M_APP),
    pl("app.BlackScholes.wall_s", "s", Lower, &TABLE2, M_APP),
    pl("app.BICG.wall_s", "s", Lower, &TABLE2, M_APP),
    pl("app.2MM.wall_s", "s", Lower, &TABLE2, M_APP),
    pl("app.Crypt.wall_s", "s", Lower, &TABLE2, M_APP),
    pl("serve.submit_s", "s", Lower, &SERVE, M_CLOSED),
    pl("serve.queue_wait_p50_s", "s", Lower, &SERVE, M_CLOSED),
    pl("serve.queue_wait_p95_s", "s", Lower, &SERVE, M_CLOSED),
    pl("serve.service_p50_s", "s", Lower, &SERVE, M_CLOSED),
    pl("serve.solo_ratio", "x", Lower, S_CL, M_CLOSED),
    pl("serve.program_cache_hit_s", "s", Lower, S_CL, M_CLOSED),
    pl("serve.program_cache_miss_s", "s", Lower, S_CL, M_CLOSED),
    pl(
        "serve.program_cache_hit_ratio",
        "ratio",
        Higher,
        &SERVE,
        M_CLOSED,
    ),
    pl(
        "serve.kernel_cache_hit_ratio",
        "ratio",
        Higher,
        &SERVE,
        M_CLOSED,
    ),
    pl("serve.executions", "count", Lower, &SERVE, M_OPEN),
    pl("serve.dedup_join_ratio", "ratio", Higher, S_OP, M_OPEN),
    pl("serve.shed", "count", Lower, S_OP, M_OPEN),
    pl(
        "serve.gen_lag_p95_s",
        "s",
        Lower,
        S_OP,
        "latency_p50_s@serve_open_dup (lag is part of every latency)",
    ),
    pl("serve.sm_occupancy", "ratio", Higher, &SERVE, M_CLOSED),
    pl(
        "serve.sim_jobs_per_host_s",
        "1/s",
        Higher,
        S_CL,
        "none gated (the virtual-clock driver's own cost)",
    ),
    pl(
        "serve.rate_low_latency_p95_s",
        "s",
        Lower,
        S_OP,
        "context for latency_p95_s@serve_open_dup",
    ),
    pl(
        "serve.rate_high_latency_p95_s",
        "s",
        Lower,
        S_OP,
        "context for latency_p95_s@serve_open_dup",
    ),
    pl(
        "serve.max_ok_rate_per_s",
        "1/s",
        Higher,
        S_OP,
        "context for latency_p95_s@serve_open_dup",
    ),
    pl("faults.chaos_jobs_per_s", "1/s", Higher, S_CL, "none gated"),
    pl(
        "faults.ladder_attempts_per_job",
        "ratio",
        Lower,
        S_CL,
        "none gated",
    ),
    pl(
        "faults.cpu_degraded_ratio",
        "ratio",
        Lower,
        S_CL,
        "none gated",
    ),
    pl("session.load_cold_p50_s", "s", Lower, SESS, M_SESSION),
    pl("session.load_warm_p50_s", "s", Lower, SESS, M_SESSION),
    pl("session.run_p50_s", "s", Lower, SESS, M_SESSION),
    pl("session.reused_ratio", "ratio", Higher, SESS, M_SESSION),
    pl("session.recompiled", "count", Lower, SESS, M_SESSION),
    pl("session.invalidations", "count", Lower, SESS, M_SESSION),
    pl("workloads.instantiate_s", "s", Lower, &ALL, "setup_s"),
    pl("workloads.reference_s", "s", Lower, &ALL, "setup_s"),
    pl(
        "trace_overhead_ratio",
        "x",
        Lower,
        &ALL,
        "none (the cost of the harness's own spans)",
    ),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The driver-facing `BENCHMARK.json`: the driver-gated end-to-end metrics
/// under `end_to_end`; everything else (the other end-to-end metrics, then
/// the per-layer metrics) under `per_layer`, which has no bound.
pub fn benchmark_json(run_seconds: u64) -> Json {
    let mut root = Json::obj();
    let command: Vec<Json> = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "crates/perf/Cargo.toml",
        "--bin",
        "perf",
        "--",
        "run",
    ]
    .iter()
    .map(|s| Json::from(*s))
    .collect();
    root.set("command", command);
    root.set("paths", vec![Json::from("crates/perf")]);
    root.set("run_seconds", run_seconds);
    root.set(
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| {
                let mut o = Json::obj();
                o.set("name", w.name).set("why", w.why);
                o
            })
            .collect::<Vec<_>>(),
    );
    let gated: Vec<Json> = END_TO_END
        .iter()
        .filter(|m| m.driver_gated())
        .map(|m| {
            let b = m
                .bound
                .share()
                .expect("driver-gated metrics are bounded by a share of the median");
            let mut o = Json::obj();
            o.set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better.as_str())
                .set("bound", b);
            o
        })
        .collect();
    root.set("end_to_end", gated);
    let plain = |name: &str, unit: &str, better: Better| {
        let mut o = Json::obj();
        o.set("name", name)
            .set("unit", unit)
            .set("better", better.as_str());
        o
    };
    let mut ungated: Vec<Json> = END_TO_END
        .iter()
        .filter(|m| !m.driver_gated())
        .map(|m| plain(m.name, m.unit, m.better))
        .collect();
    ungated.extend(PER_LAYER.iter().map(|m| plain(m.name, m.unit, m.better)));
    root.set("per_layer", ungated);
    root
}

/// Every name with its definition, for result files: what `BENCHMARK.json`
/// has no room for (constants, the workloads a metric is defined on, the
/// layer a per-layer metric belongs to and what it should move).
pub fn definitions_json() -> Json {
    let names = |xs: &[&str]| xs.iter().map(|x| Json::from(*x)).collect::<Vec<_>>();
    let mut defs = Json::obj();
    defs.set(
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| {
                let mut o = Json::obj();
                o.set("name", w.name).set("what", w.what).set("why", w.why);
                o
            })
            .collect::<Vec<_>>(),
    );
    defs.set(
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                let mut o = Json::obj();
                o.set("name", m.name)
                    .set("unit", m.unit)
                    .set("better", m.better.as_str())
                    .set("bound", m.bound.text())
                    .set("driver_gated", m.driver_gated())
                    .set("workloads", names(m.workloads))
                    .set("what", m.what);
                let open = m.bound_on("serve_open_dup");
                if open != m.bound {
                    o.set("bound_on_serve_open_dup", open.text());
                }
                o
            })
            .collect::<Vec<_>>(),
    );
    defs.set(
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                let mut o = Json::obj();
                o.set("name", m.name)
                    .set("unit", m.unit)
                    .set("better", m.better.as_str())
                    .set("layer", m.layer())
                    .set("home", names(m.home))
                    .set("moves", m.moves);
                o
            })
            .collect::<Vec<_>>(),
    );
    defs
}

/// Names the driver expects with `--trace 0`.
pub fn driver_end_to_end_names() -> Vec<&'static str> {
    END_TO_END
        .iter()
        .filter(|m| m.driver_gated())
        .map(|m| m.name)
        .collect()
}

/// Names (with units) the driver expects with `--trace 1`.
pub fn driver_per_layer() -> Vec<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .filter(|m| !m.driver_gated())
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(n), "{n}");
            assert!(seen.insert(n), "{n} is declared twice");
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn every_home_and_workload_reference_names_a_workload() {
        for m in &END_TO_END {
            for w in m.workloads {
                assert!(workload(w).is_some(), "{} on unknown workload {w}", m.name);
            }
        }
        for m in &PER_LAYER {
            assert!(!m.home.is_empty(), "{}", m.name);
            for w in m.home {
                assert!(workload(w).is_some(), "{} on unknown workload {w}", m.name);
            }
        }
    }

    #[test]
    fn open_loop_latency_has_its_own_bounds() {
        for (metric, bound) in OPEN_LOOP_LATENCY {
            let m = end_to_end(metric).unwrap();
            assert!(m.workloads.contains(&"serve_open_dup"), "{metric}");
            assert_eq!(m.bound_on("serve_open_dup"), bound);
            assert_eq!(m.bound_on("serve_closed"), m.bound);
        }
        let wall = end_to_end("pass_wall_s").unwrap();
        assert_eq!(wall.bound_on("serve_open_dup"), wall.bound);
    }

    #[test]
    fn the_driver_gates_setup_with_the_widest_bound() {
        let names = driver_end_to_end_names();
        assert!(names.contains(&"setup_s"));
        let widest = END_TO_END
            .iter()
            .filter(|m| m.driver_gated())
            .filter_map(|m| m.bound.share())
            .fold(0.0, f64::max);
        assert_eq!(end_to_end("setup_s").unwrap().bound.share(), Some(widest));
        assert!(widest <= 0.25);
    }
}
