//! Micro-probe for the ways through a range on the CPU side: the scalar VM
//! one iteration at a time (driven directly — the executor batches
//! whatever the lane VM accepts) against the executor's lane batches of 32
//! on the calling thread, conflict-checked (nothing proven) and unchecked
//! (proven). Two DOALL kernels and a BlackScholes-shaped one, whose sparse
//! dependence reaches 41 iterations back and so never into its own batch.
//! Host wall time only — every simulated number is identical by
//! construction, which the probe checks.
//!
//! ```sh
//! cargo run --release -p japonica-cpuexec --example lane_probe -- 128 5
//! ```

use japonica_cpuexec::{CpuConfig, CpuCtx, Independence};
use japonica_frontend::compile_source;
use japonica_ir::{
    compile_kernel, CountingBackend, Env, Heap, HeapBackend, LoopBounds, ScalarVm, Value,
};
use std::time::Instant;

const KERNELS: [(&str, &str); 3] = [
    (
        "saxpy",
        "static void k(double[] x, double[] y, int n) {
            /* acc parallel */
            for (int i = 0; i < n * n; i++) { y[i] = 2.5 * x[i] + y[i]; }
        }",
    ),
    (
        "pricing",
        "static double cnd(double v) {
            double l = Math.abs(v);
            double k = 1.0 / (1.0 + 0.2316419 * l);
            double w = 1.0 - 0.39894228 * Math.exp(0.0 - l * l * 0.5) * k;
            if (v < 0.0) { return 1.0 - w; }
            return w;
        }
        static void k(double[] x, double[] y, int n) {
            /* acc parallel */
            for (int i = 0; i < n * n; i++) {
                double s = x[i] + 20.0;
                double d = Math.log(s / 25.0) / Math.sqrt(s);
                y[i] = s * cnd(d) - 25.0 * cnd(d - 0.3);
                if (i % 83 == 82) { y[i] = (y[i] + y[i - 41]) * 0.5; }
            }
        }",
    ),
    (
        "gemm_row",
        "static void k(double[] x, double[] y, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < n; j++) {
                    double s = 0.0;
                    for (int q = 0; q < n; q++) { s += x[i * n + q] * x[q * n + j]; }
                    y[i * n + j] = s;
                }
            }
        }",
    ),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(128);
    let reps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);
    println!(
        "n = {n}, best of {reps}, {} host CPUs",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    for (name, src) in KERNELS {
        let p = compile_source(src).expect("probe kernel compiles");
        let (_, f) = p.function_by_name("k").expect("function k");
        let l = f.all_loops()[0].clone();
        let mut heap = Heap::new();
        let x = heap.alloc_doubles(&(0..n * n).map(|i| (i % 17) as f64).collect::<Vec<_>>());
        let y = heap.alloc_doubles(&vec![1.0; n * n]);
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(x));
        env.set(f.params[1].var, Value::Array(y));
        env.set(f.params[2].var, Value::Int(n as i32));
        let trip = if name == "gemm_row" { n } else { n * n } as u64;
        let bounds = LoopBounds {
            start: 0,
            end: trip as i64,
            step: 1,
        };
        let cfg = CpuConfig::default();
        // Best-of-`reps` wall seconds plus the simulated seconds of the run.
        let time = |independence: Independence, threads: Option<u32>| {
            let ctx = CpuCtx {
                independence,
                ..CpuCtx::new(&p, &cfg)
            };
            let mut best = f64::INFINITY;
            let mut sim = 0.0;
            for _ in 0..reps {
                let mut h = heap.clone();
                let t0 = Instant::now();
                let r = match threads {
                    None => ctx
                        .run_sequential(&l, &bounds, 0..trip, &mut env.clone(), &mut h)
                        .expect("sequential run"),
                    Some(t) => ctx
                        .run_parallel(&l, &bounds, 0..trip, &env, &mut h, t)
                        .expect("parallel run"),
                };
                best = best.min(t0.elapsed().as_secs_f64());
                sim = r.time_s;
            }
            (best, sim)
        };
        // The scalar VM over the same bytecode kernel, for reference.
        let kernel = compile_kernel(&p, &l).expect("probe kernel compiles to bytecode");
        let scalar = (0..reps)
            .map(|_| {
                let mut h = heap.clone();
                let mut be = CountingBackend::new(HeapBackend::new(&mut h));
                let t0 = Instant::now();
                ScalarVm::new()
                    .exec_range(&kernel, l.var, &bounds, 0, trip, &mut env.clone(), &mut be)
                    .expect("scalar run");
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        for (label, threads) in [("serial", None), ("cpu16 ", Some(16))] {
            let (checked, sim_c) = time(Independence::Unproven, threads);
            let (lanes, sim_l) = time(Independence::Proven, threads);
            assert_eq!(sim_c.to_bits(), sim_l.to_bits(), "simulated time moved");
            println!(
                "{name:<9} {label}  scalar vm {:>8.2} ms | checked lanes {:>8.2} ms | lanes {:>8.2} ms \
                 | check {:+.1} % | {:.2}x over scalar | {:.1} ns/iter",
                scalar * 1e3,
                checked * 1e3,
                lanes * 1e3,
                (checked / lanes - 1.0) * 100.0,
                scalar / checked,
                checked / trip as f64 * 1e9,
            );
        }
    }
}
