//! Micro-probe for the CPU executor's two ways through a DOALL range: the
//! scalar VM one iteration at a time (threaded for `run_parallel`) against
//! lane batches of 32 on the calling thread. Host wall time only — every
//! simulated number is identical by construction, which the probe checks.
//!
//! ```sh
//! cargo run --release -p japonica-cpuexec --example lane_probe -- 128 5
//! ```

use japonica_cpuexec::{CpuConfig, CpuCtx, Independence};
use japonica_frontend::compile_source;
use japonica_ir::{Env, Heap, LoopBounds, Value};
use std::time::Instant;

const KERNELS: [(&str, &str); 2] = [
    (
        "saxpy",
        "static void k(double[] x, double[] y, int n) {
            /* acc parallel */
            for (int i = 0; i < n * n; i++) { y[i] = 2.5 * x[i] + y[i]; }
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
        let trip = if name == "saxpy" { n * n } else { n } as u64;
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
        for (label, threads) in [("serial", None), ("cpu16 ", Some(16))] {
            let (scalar, sim_s) = time(Independence::Unproven, threads);
            let (lanes, sim_l) = time(Independence::Proven, threads);
            assert_eq!(sim_s.to_bits(), sim_l.to_bits(), "simulated time moved");
            println!(
                "{name:<9} {label}  scalar {:>8.2} ms | lanes {:>8.2} ms | {:.2}x | {:.1} ns/iter",
                scalar * 1e3,
                lanes * 1e3,
                scalar / lanes,
                lanes / trip as f64 * 1e9,
            );
        }
    }
}
