//! `perf run`: one OS process per workload. With `--workload` this process
//! measures it; without, it re-executes itself once per workload, one at a
//! time, so peak memory and process-level layout effects are per workload.

use crate::harness::{Budget, MIN_PASSES};
use crate::json::Json;
use crate::report::Outcome;
use crate::spec::WORKLOADS;
use crate::table2::Family;
use crate::trace::{chrome_events, Tracer};
use crate::{compile, serve, session, sys, table2};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

pub const DEFAULT_SEED: u64 = 42;
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Prefix of the line a child prints its record on for the parent.
const RECORD_PREFIX: &str = "record: ";

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub traced: bool,
    pub trace_out: Option<PathBuf>,
    pub out: Option<PathBuf>,
}

impl RunOpts {
    pub fn parse(args: &[String]) -> Result<RunOpts, String> {
        let mut o = RunOpts {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            quick: false,
            traced: false,
            trace_out: None,
            out: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
            let num = |v: &String| v.parse::<f64>().map_err(|_| format!("{a}: bad number {v}"));
            match a.as_str() {
                "--workload" => o.workload = Some(value()?.clone()),
                "--seed" => o.seed = value()?.parse().map_err(|_| format!("{a}: bad seed"))?,
                "--seconds" => o.seconds = num(value()?)?.clamp(0.1, 120.0),
                "--quick" => o.quick = true,
                "--trace" => o.traced = num(value()?)? != 0.0,
                "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
                "--out" => o.out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if let Some(w) = &o.workload {
            if crate::spec::workload(w).is_none() {
                return Err(format!("unknown workload {w}"));
            }
        }
        Ok(o)
    }

    fn budget(&self) -> Budget {
        Budget {
            seconds: self.seconds,
            quick: self.quick,
            min_passes: if self.traced { 1 } else { MIN_PASSES },
        }
    }

    /// The arguments a child needs to repeat this run on one workload.
    fn child_args(&self, workload: &str, trace_part: Option<&Path>) -> Vec<String> {
        let mut a = vec![
            "run".to_string(),
            "--workload".into(),
            workload.into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            (self.traced as u8).to_string(),
        ];
        if self.quick {
            a.push("--quick".into());
        }
        if let Some(p) = trace_part {
            a.extend(["--trace-out".to_string(), p.display().to_string()]);
        }
        a
    }
}

/// Measure one workload in this process.
pub fn measure(workload: &'static str, opts: &RunOpts) -> (Outcome, Tracer) {
    let (budget, seed, traced) = (opts.budget(), opts.seed, opts.traced);
    let (m, setup_s, tracer) = match workload {
        "table2_cpu" => table2::run(Family::Cpu, seed, budget, traced),
        "table2_gpu" => table2::run(Family::Gpu, seed, budget, traced),
        "table2_hetero" => table2::run(Family::Hetero, seed, budget, traced),
        "table2_hostpar" => table2::run(Family::Hostpar, seed, budget, traced),
        "serve_closed" => serve::run_closed(seed, budget, traced),
        "serve_open_dup" => serve::run_open(seed, budget, traced),
        "session_edit" => session::run(seed, budget, traced),
        "compile_corpus" => compile::run(budget, traced),
        other => unreachable!("{other} passed RunOpts::parse but is not a workload"),
    };
    let rss = sys::peak_rss_mb().unwrap_or(0.0);
    (Outcome::new(workload, seed, setup_s, rss, m), tracer)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run_child(opts: &RunOpts, workload: &'static str) -> Result<ExitCode, String> {
    let (outcome, tracer) = measure(workload, opts);
    outcome.print();
    if let (Some(path), true) = (&opts.trace_out, tracer.enabled()) {
        let pid = WORKLOADS
            .iter()
            .position(|w| w.name == workload)
            .unwrap_or(0) as u32;
        write_file(
            path,
            &Json::Arr(chrome_events(&tracer.spans(), pid, workload)).compact(),
        )?;
    }
    let record = outcome.record();
    if let Some(path) = &opts.out {
        write_file(path, &document(opts, vec![record.clone()]).pretty())?;
    }
    println!("{RECORD_PREFIX}{}", record.compact());
    println!("{}", outcome.driver_line(opts.traced));
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The `--out` document: what ran, on what, and every workload's record.
/// This benchmark defines metrics; it claims no gain.
fn document(opts: &RunOpts, records: Vec<Json>) -> Json {
    let mut host = Json::obj();
    host.set("nproc", sys::nproc());
    let mut doc = Json::obj();
    doc.set("schema", "japonica-perf-1")
        .set("claim", Json::Null)
        .set("seed", opts.seed)
        .set("seconds", opts.seconds)
        .set("quick", opts.quick)
        .set("traced", opts.traced)
        .set("host", host)
        .set("workloads", records)
        .set("definitions", crate::spec::definitions_json());
    doc
}

fn run_parent(opts: &RunOpts) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut records = Vec::new();
    let mut trace_parts = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let part = opts
            .trace_out
            .as_ref()
            .map(|p| PathBuf::from(format!("{}.{}.part", p.display(), w.name)));
        let out = Command::new(&exe)
            .args(opts.child_args(w.name, part.as_deref()))
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut record = None;
        // The child's table is ours to show; its last two lines are for
        // machines (the record, and the driver's result object).
        for line in stdout.lines() {
            match line.strip_prefix(RECORD_PREFIX) {
                Some(r) => record = Some(Json::parse(r)?),
                None if line.starts_with('{') => {}
                None => println!("{line}"),
            }
        }
        all_correct &= out.status.success();
        records.push(
            record.ok_or_else(|| format!("{} printed no record (exit {})", w.name, out.status))?,
        );
        trace_parts.extend(part);
    }
    if let Some(path) = &opts.trace_out {
        // Each part is one JSON array; the merged trace is their union.
        let mut merged = String::from("[");
        for part in &trace_parts {
            if let Ok(text) = std::fs::read_to_string(part) {
                let inner = text.trim().trim_start_matches('[').trim_end_matches(']');
                if !inner.is_empty() {
                    if merged.len() > 1 {
                        merged.push(',');
                    }
                    merged.push_str(inner);
                }
                let _ = std::fs::remove_file(part);
            }
        }
        merged.push(']');
        write_file(path, &merged)?;
        println!("wrote {}", path.display());
    }
    if let Some(path) = &opts.out {
        write_file(path, &document(opts, records).pretty())?;
        println!("wrote {}", path.display());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let opts = RunOpts::parse(args)?;
    match &opts.workload {
        Some(w) => {
            let w = crate::spec::workload(w)
                .expect("checked by RunOpts::parse")
                .name;
            run_child(&opts, w)
        }
        None => run_parent(&opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse_and_round_trip_to_a_child() {
        let o = RunOpts::parse(&args(
            "--workload serve_closed --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.traced),
            (Some("serve_closed"), 9, 10.0, true)
        );
        let again = RunOpts::parse(&o.child_args("serve_closed", None)[1..]).unwrap();
        assert_eq!(
            (again.seed, again.seconds, again.traced, again.quick),
            (9, 10.0, true, false)
        );
        let q = RunOpts::parse(&args("--quick --trace 1")).unwrap();
        let b = q.budget();
        assert!(b.quick && q.traced && b.min_passes == 1);
        assert_eq!(
            RunOpts::parse(&args("--trace 0"))
                .unwrap()
                .budget()
                .min_passes,
            MIN_PASSES
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds",
            "--passes 3",
            "--traced",
        ] {
            assert!(RunOpts::parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
