//! `perf` — see the crate documentation of `japonica_perf`.

use japonica_perf::{compare, run, spec};
use std::process::ExitCode;

const USAGE: &str = "usage: perf run [--workload W] [--seed S] [--seconds N | --quick]
                [--trace 0|1] [--trace-out F] [--out F]
       perf compare A.json B.json
       perf spec

run      measure every workload (or one), check every timed operation's
         output, print every end-to-end metric by name with its unit;
         --trace 1 adds the per-layer metrics, --trace-out writes the spans
         as Chrome-trace JSON. Exits non-zero if any operation failed.
compare  one row per (end-to-end metric, workload): medians, quartiles,
         bound, verdict. Exits non-zero on any `worse`.
spec     print BENCHMARK.json as the metric tables define it.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run::main(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::main(rest),
        Some((cmd, [])) if cmd == "spec" => {
            print!(
                "{}",
                spec::benchmark_json(run::DEFAULT_SECONDS as u64).pretty()
            );
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
