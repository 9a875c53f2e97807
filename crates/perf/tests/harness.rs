//! End-to-end checks of the `perf` binary against the names the benchmark
//! declares. `--quick` runs every workload once: one set-up, one pass, no
//! warm-up. The traced quick run also yields the untraced end-to-end
//! metrics, so two runs, made side by side, cover names, determinism and
//! the trace file. Optimized they take 9 s and 30 s; a debug build, whose
//! interpreters are five times slower, needs about four minutes for the
//! pair.

use japonica_perf::json::Json;
use japonica_perf::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

const PERF: &str = env!("CARGO_BIN_EXE_perf");

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn perf(args: &[&str]) -> std::process::Output {
    Command::new(PERF)
        .args(args)
        .output()
        .expect("perf binary runs")
}

/// `perf run --quick --seed 1` over all eight workloads, untraced.
fn quick_plain() -> &'static Json {
    static DOC: OnceLock<Json> = OnceLock::new();
    DOC.get_or_init(|| {
        let out = tmp("quick_plain.json");
        let run = perf(&[
            "run",
            "--quick",
            "--seed",
            "1",
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stdout)
        );
        Json::parse(&std::fs::read_to_string(out).unwrap()).unwrap()
    })
}

/// The same with `--trace 1`, plus the Chrome trace.
fn quick_traced() -> &'static (Json, Json) {
    static DOC: OnceLock<(Json, Json)> = OnceLock::new();
    DOC.get_or_init(|| {
        let (out, trace) = (tmp("quick_traced.json"), tmp("quick_trace.json"));
        let run = perf(&[
            "run",
            "--quick",
            "--seed",
            "1",
            "--trace",
            "1",
            "--out",
            out.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stdout)
        );
        (
            Json::parse(&std::fs::read_to_string(out).unwrap()).unwrap(),
            Json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap(),
        )
    })
}

fn records(doc: &Json) -> &[Json] {
    doc.get("workloads").unwrap().as_arr().unwrap()
}

fn keys(rec: &Json, section: &str) -> BTreeSet<String> {
    rec.get(section)
        .unwrap()
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn value(rec: &Json, section: &str, name: &str) -> f64 {
    rec.get(section)
        .unwrap()
        .get(name)
        .unwrap()
        .get("value")
        .unwrap()
        .as_f64()
        .unwrap()
}

#[test]
fn benchmark_json_is_the_spec_tables_and_meets_the_driver_contract() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let doc = Json::parse(&text).unwrap();
    assert_eq!(
        doc,
        spec::benchmark_json(10),
        "regenerate with `perf spec > BENCHMARK.json`"
    );
    let top: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        top,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let len = |k: &str| doc.get(k).unwrap().as_arr().unwrap().len();
    assert_eq!(len("workloads"), WORKLOADS.len());
    assert!((1..=16).contains(&len("end_to_end")));
    assert!((1..=128).contains(&len("per_layer")));
    assert!(len("command") <= 32);
    for m in doc.get("end_to_end").unwrap().as_arr().unwrap() {
        let bound = m.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = &doc.get("end_to_end").unwrap().as_arr().unwrap()[0];
    assert_eq!(setup.get("name").unwrap().as_str(), Some("setup_s"));
    assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    assert_eq!(setup.get("better").unwrap().as_str(), Some("lower"));
}

#[test]
fn quick_run_emits_exactly_the_declared_end_to_end_names() {
    let doc = quick_plain();
    assert_eq!(doc.get("claim"), Some(&Json::Null));
    assert_eq!(records(doc).len(), WORKLOADS.len());
    let mut seen = BTreeSet::new();
    for (rec, w) in records(doc).iter().zip(&WORKLOADS) {
        assert_eq!(rec.get("workload").unwrap().as_str(), Some(w.name));
        let declared: BTreeSet<String> = END_TO_END
            .iter()
            .filter(|m| m.workloads.contains(&w.name))
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(keys(rec, "end_to_end"), declared, "{}", w.name);
        assert!(keys(rec, "per_layer").is_empty(), "{}", w.name);
        assert_eq!(value(rec, "end_to_end", "failed_ratio"), 0.0, "{}", w.name);
        seen.extend(declared);
    }
    let all: BTreeSet<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(seen, all);
}

#[test]
fn traced_quick_run_emits_exactly_the_declared_per_layer_names() {
    let (doc, _) = quick_traced();
    let mut seen = BTreeSet::new();
    for (rec, w) in records(doc).iter().zip(&WORKLOADS) {
        let declared: BTreeSet<String> = PER_LAYER
            .iter()
            .filter(|m| m.home.contains(&w.name))
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(keys(rec, "per_layer"), declared, "{}", w.name);
        assert_eq!(value(rec, "end_to_end", "failed_ratio"), 0.0, "{}", w.name);
        seen.extend(declared);
    }
    let all: BTreeSet<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(seen, all);
    // The per-app rows decompose the pass they belong to.
    for rec in records(doc)
        .iter()
        .filter(|r| r.get("sim_fingerprint") != Some(&Json::Null))
    {
        let rows: f64 = keys(rec, "per_layer")
            .iter()
            .filter(|k| k.starts_with("app."))
            .map(|k| value(rec, "per_layer", k))
            .sum();
        let pass = value(rec, "end_to_end", "pass_wall_s");
        assert!((rows - pass).abs() <= 1e-9 * pass, "{rows} vs {pass}");
    }
}

#[test]
fn two_quick_runs_of_one_seed_agree_on_every_simulated_bit() {
    let (traced, _) = quick_traced();
    for (a, b) in records(quick_plain()).iter().zip(records(traced)) {
        assert_eq!(a.get("sim_fingerprint"), b.get("sim_fingerprint"));
        if a.get("sim_fingerprint") == Some(&Json::Null) {
            continue;
        }
        for m in ["sim_time_s", "sim_speedup_geomean"] {
            let (x, y) = (value(a, "end_to_end", m), value(b, "end_to_end", m));
            assert_eq!(x.to_bits(), y.to_bits(), "{m}");
            assert!(x > 0.0);
        }
    }
}

#[test]
fn the_chrome_trace_loads_and_compile_corpus_has_no_execution_span() {
    let (_, trace) = quick_traced();
    let events = trace.as_arr().unwrap();
    let compile_pid = WORKLOADS
        .iter()
        .position(|w| w.name == "compile_corpus")
        .unwrap() as f64;
    let mut pids = BTreeSet::new();
    for e in events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
    {
        let pid = e.get("pid").unwrap().as_f64().unwrap();
        pids.insert(pid as u64);
        assert!(
            e.get("ts").unwrap().as_f64().is_some()
                && e.get("dur").unwrap().as_f64().unwrap() >= 0.0
        );
        if pid == compile_pid {
            let name = e.get("name").unwrap().as_str().unwrap();
            let layer = name.split('.').next().unwrap();
            assert!(
                ["pass", "frontend", "analysis", "lint", "autopar", "ir"].contains(&layer),
                "execution-layer span {name} under compile_corpus"
            );
        }
    }
    assert_eq!(pids.len(), WORKLOADS.len());
}

#[test]
fn the_driver_protocol_holds_on_a_cheap_workload() {
    for (flag, expect) in [
        ("0", spec::driver_end_to_end_names()),
        (
            "1",
            spec::driver_per_layer()
                .into_iter()
                .map(|(n, _)| n)
                .collect(),
        ),
    ] {
        let run = perf(&[
            "run",
            "--workload",
            "compile_corpus",
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            flag,
        ]);
        assert!(run.status.success());
        let stdout = String::from_utf8_lossy(&run.stdout);
        let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
        let top: Vec<&str> = last
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(top, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct").unwrap().as_bool(), Some(true));
        assert!(last.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let names: Vec<&str> = last
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, expect);
    }
    assert_eq!(perf(&["run", "--workload", "nope"]).status.code(), Some(2));
    assert_eq!(perf(&["frobnicate"]).status.code(), Some(2));
}

#[test]
fn compare_of_a_run_with_itself_reports_no_regression() {
    let out = tmp("quick_plain.json");
    quick_plain();
    let same = perf(&["compare", out.to_str().unwrap(), out.to_str().unwrap()]);
    let table = String::from_utf8_lossy(&same.stdout);
    assert!(same.status.success(), "{table}");
    assert!(
        !table.contains("worse") && !table.contains("unresolved") && !table.contains("missing")
    );
    assert_eq!(
        table
            .lines()
            .filter(|l| l.contains("sim_fingerprint"))
            .count(),
        4
    );
}
