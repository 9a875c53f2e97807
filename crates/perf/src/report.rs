//! One workload's outcome: every metric by name with its unit, in the
//! three renderings the harness needs — the table a person reads, the
//! record `perf compare` reads, and the one-line result the benchmark
//! driver reads.

use crate::harness::Measured;
use crate::json::Json;
use crate::spec::{self, PER_LAYER};
use crate::stats::{Latency, Summary};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub nproc: usize,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
    /// End-to-end metrics defined on this workload, in spec order.
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Per-layer metrics this traced run measured (empty when untraced).
    pub per_layer: BTreeMap<String, f64>,
    pub sim_fingerprint: Option<String>,
    /// Samples behind the latency percentiles and the highest percentile
    /// with at least ten samples beyond it.
    pub latency: Latency,
}

impl Outcome {
    pub fn new(
        workload: &'static str,
        seed: u64,
        setup_s: Summary,
        peak_rss_mb: f64,
        mut m: Measured,
    ) -> Outcome {
        let latency = Latency::of(&m.latencies);
        let mut values: BTreeMap<&'static str, Summary> = std::mem::take(&mut m.extra);
        values.insert("setup_s", setup_s);
        values.insert("pass_wall_s", Summary::of(&m.pass_walls));
        values.insert("latency_p50_s", Summary::single(latency.p50));
        values.insert("latency_p95_s", Summary::single(latency.p95));
        values.insert("peak_rss_mb", Summary::single(peak_rss_mb));
        values.insert(
            "failed_ratio",
            Summary::single(m.ledger.failed as f64 / m.ledger.attempted.max(1) as f64),
        );
        let end_to_end = spec::END_TO_END
            .iter()
            .filter(|e| e.workloads.contains(&workload))
            .filter_map(|e| values.get(e.name).map(|s| (e.name, *s)))
            .collect();
        if !m.layer.is_empty() {
            m.layer
                .insert("workloads.instantiate_s".into(), m.instantiate_s);
            m.layer
                .insert("workloads.reference_s".into(), m.reference_s);
        }
        Outcome {
            workload,
            seed,
            nproc: crate::sys::nproc(),
            passes: m.pass_walls.len(),
            attempted: m.ledger.attempted,
            failed: m.ledger.failed,
            reasons: m.ledger.reasons,
            end_to_end,
            per_layer: m.layer,
            sim_fingerprint: m.sim_fingerprint,
            latency,
        }
    }

    /// With fewer than two CPUs the serving and host-parallel numbers mean
    /// something else; the run is kept but marked.
    pub fn valid(&self) -> bool {
        self.nproc >= 2
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.median)
            .or_else(|| self.per_layer.get(name).copied())
    }

    /// The table a person reads.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {} passes, {} ops checked, {} failed{}) ==",
            self.workload,
            self.seed,
            self.passes,
            self.attempted,
            self.failed,
            if self.valid() {
                ""
            } else {
                ", INVALID: fewer than 2 CPUs"
            }
        );
        for (name, s) in &self.end_to_end {
            let unit = spec::end_to_end(name).map(|e| e.unit).unwrap_or("");
            if s.n > 1 {
                println!(
                    "  {name:<22} {:>14.6} {unit:<6} [q1 {:.6}, q3 {:.6}, n={}]",
                    s.median, s.q1, s.q3, s.n
                );
            } else {
                println!("  {name:<22} {:>14.6} {unit}", s.median);
            }
        }
        if let Some((p, v)) = self.latency.tail {
            println!(
                "  latency tail           p{} = {v:.6} s over {} samples (highest percentile with >= 10 beyond)",
                p * 100.0,
                self.latency.n
            );
        }
        if let Some(fp) = &self.sim_fingerprint {
            println!("  sim_fingerprint        {fp}");
        }
        for m in PER_LAYER
            .iter()
            .filter(|m| self.per_layer.contains_key(m.name))
        {
            println!(
                "  {:<36} {:>16.6} {}",
                m.name, self.per_layer[m.name], m.unit
            );
        }
        for r in &self.reasons {
            println!("  FAILED: {r}");
        }
    }

    /// The record `--out` files hold and `perf compare` reads.
    pub fn record(&self) -> Json {
        let mut o = Json::obj();
        o.set("workload", self.workload)
            .set("seed", self.seed)
            .set("valid", self.valid())
            .set("nproc", self.nproc)
            .set("passes", self.passes)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set(
                "reasons",
                self.reasons
                    .iter()
                    .map(|r| Json::from(r.as_str()))
                    .collect::<Vec<_>>(),
            );
        match &self.sim_fingerprint {
            Some(fp) => o.set("sim_fingerprint", fp.as_str()),
            None => o.set("sim_fingerprint", Json::Null),
        };
        let mut tail = Json::obj();
        tail.set("samples", self.latency.n);
        if let Some((p, v)) = self.latency.tail {
            tail.set("percentile", p * 100.0).set("value", v);
        }
        o.set("latency_tail", tail);
        let mut e2e = Json::obj();
        for (name, s) in &self.end_to_end {
            let mut v = Json::obj();
            v.set("value", s.median)
                .set("unit", spec::end_to_end(name).map(|e| e.unit).unwrap_or(""))
                .set("q1", s.q1)
                .set("q3", s.q3)
                .set("n", s.n);
            e2e.set(name, v);
        }
        o.set("end_to_end", e2e);
        let mut layer = Json::obj();
        for m in PER_LAYER
            .iter()
            .filter(|m| self.per_layer.contains_key(m.name))
        {
            let mut v = Json::obj();
            v.set("value", self.per_layer[m.name]).set("unit", m.unit);
            layer.set(m.name, v);
        }
        o.set("per_layer", layer);
        o
    }

    /// The benchmark driver's result object: with `traced` false every
    /// gated end-to-end metric, with `traced` true every other declared
    /// metric (zero where this workload does not measure it).
    pub fn driver_line(&self, traced: bool) -> String {
        let mut metrics = Json::obj();
        let mut put = |name: &str, unit: &str, value: f64| {
            let mut v = Json::obj();
            v.set("value", value).set("unit", unit);
            metrics.set(name, v);
        };
        if traced {
            for (name, unit) in spec::driver_per_layer() {
                put(name, unit, self.value(name).unwrap_or(0.0));
            }
        } else {
            for name in spec::driver_end_to_end_names() {
                let unit = spec::end_to_end(name).map(|e| e.unit).unwrap_or("");
                put(name, unit, self.value(name).unwrap_or(0.0));
            }
        }
        let mut o = Json::obj();
        o.set("correct", self.correct())
            .set("attempted", self.attempted.max(1))
            .set("failed", self.failed)
            .set("metrics", metrics);
        o.compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Ledger;

    fn outcome(layer: bool) -> Outcome {
        let mut m = Measured {
            ledger: Ledger {
                attempted: 44,
                failed: 0,
                reasons: vec![],
            },
            pass_walls: vec![1.0, 1.2, 1.1],
            latencies: vec![0.05; 66],
            ..Measured::default()
        };
        m.extra.insert("sim_time_s", Summary::single(0.25));
        m.sim_fingerprint = Some("00ff".into());
        if layer {
            m.layer.insert("app.GEMM.wall_s".into(), 0.1);
        }
        Outcome::new("table2_gpu", 7, Summary::of(&[0.5, 0.4, 0.6]), 12.5, m)
    }

    #[test]
    fn driver_lines_carry_exactly_the_declared_names() {
        let o = outcome(true);
        let plain = Json::parse(&o.driver_line(false)).unwrap();
        let names: Vec<&str> = plain
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, spec::driver_end_to_end_names());
        assert_eq!(plain.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(plain.get("attempted").unwrap().as_f64(), Some(44.0));
        assert_eq!(
            plain
                .get("metrics")
                .unwrap()
                .get("pass_wall_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.1)
        );
        let traced = Json::parse(&o.driver_line(true)).unwrap();
        let metrics = traced.get("metrics").unwrap();
        assert_eq!(
            metrics.as_obj().unwrap().len(),
            spec::driver_per_layer().len()
        );
        assert_eq!(
            metrics
                .get("app.GEMM.wall_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.1)
        );
        assert_eq!(
            metrics
                .get("sim_time_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.25)
        );
        assert_eq!(
            metrics
                .get("serve.shed")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn record_keeps_only_metrics_defined_on_the_workload() {
        let o = outcome(false);
        let names: Vec<&str> = o.end_to_end.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"sim_time_s") && names.contains(&"failed_ratio"));
        assert!(!names.contains(&"jobs_per_s") && !names.contains(&"compile_s"));
        let rec = o.record();
        assert_eq!(rec.get("sim_fingerprint").unwrap().as_str(), Some("00ff"));
        let e2e = rec.get("end_to_end").unwrap();
        assert_eq!(
            e2e.get("pass_wall_s").unwrap().get("n").unwrap().as_f64(),
            Some(3.0)
        );
        assert!(rec.get("per_layer").unwrap().as_obj().unwrap().is_empty());
        assert_eq!(Json::parse(&rec.pretty()).unwrap(), rec);
    }
}
