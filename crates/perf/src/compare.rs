//! `perf compare A.json B.json`: one row per (end-to-end metric,
//! workload) with both medians and quartiles, the bound, and a verdict.
//! `A` is the parent, `B` the change.

use crate::json::Json;
use crate::spec::{Better, Bound, END_TO_END, WORKLOADS};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs' own quartile spread exceeds the bound and their quartile
    /// ranges overlap: the data cannot say.
    Unresolved,
    /// One side does not have the metric.
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Sample {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// How much worse `b` is than `a`, positive = worse, in the metric's unit.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

pub fn judge(better: Better, bound: Bound, a: Sample, b: Sample) -> Verdict {
    let by = |worse_by: f64, limit: f64| {
        if worse_by > limit {
            Verdict::Worse
        } else if worse_by < -limit {
            Verdict::Better
        } else {
            Verdict::Same
        }
    };
    match bound {
        Bound::Exact => {
            if a.value.to_bits() == b.value.to_bits() {
                Verdict::Same
            } else {
                Verdict::Worse
            }
        }
        Bound::Absolute(limit) => by(worsening(better, a.value, b.value), limit),
        Bound::Relative(limit) => {
            let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
            if a.spread().max(b.spread()) > limit && overlap {
                return Verdict::Unresolved;
            }
            by(worsening(better, a.value, b.value) / a.value.abs(), limit)
        }
        Bound::RelativeBeyond { share, slack } => {
            if worsening(better, a.value, b.value).abs() <= slack {
                return Verdict::Same;
            }
            judge(better, Bound::Relative(share), a, b)
        }
    }
}

fn record<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
}

fn sample(rec: &Json, metric: &str) -> Option<Sample> {
    let m = rec.get("end_to_end")?.get(metric)?;
    Some(Sample {
        value: m.get("value")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

/// The comparison table and whether anything regressed.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    use std::fmt::Write;
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "{:<16} {:<20} {:>13} {:>25} {:>13} {:>25} {:>9}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "bound"
    );
    for w in &WORKLOADS {
        let (ra, rb) = (record(a, w.name), record(b, w.name));
        for m in END_TO_END.iter().filter(|m| m.workloads.contains(&w.name)) {
            let (sa, sb) = (
                ra.and_then(|r| sample(r, m.name)),
                rb.and_then(|r| sample(r, m.name)),
            );
            let verdict = match (sa, sb) {
                (Some(sa), Some(sb)) => judge(m.better, m.bound_on(w.name), sa, sb),
                _ => Verdict::Missing,
            };
            bad |= matches!(verdict, Verdict::Worse | Verdict::Missing);
            let cell = |s: Option<Sample>| match s {
                Some(s) => (
                    format!("{:.6}", s.value),
                    format!("[{:.6}, {:.6}]", s.q1, s.q3),
                ),
                None => ("-".into(), "-".into()),
            };
            let ((av, aq), (bv, bq)) = (cell(sa), cell(sb));
            let _ = writeln!(
                out,
                "{:<16} {:<20} {av:>13} {aq:>25} {bv:>13} {bq:>25} {:>9}  {}",
                w.name,
                m.name,
                m.bound_on(w.name).text(),
                verdict.as_str()
            );
        }
        let fp = |r: Option<&Json>| {
            r.and_then(|r| r.get("sim_fingerprint"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        if let (Some(fa), fb) = (fp(ra), fp(rb)) {
            let same = Some(&fa) == fb.as_ref();
            bad |= !same;
            let _ = writeln!(
                out,
                "{:<16} {:<20} {fa:>13} {:>25} {:>13} {:>25} {:>9}  {}",
                w.name,
                "sim_fingerprint",
                "",
                fb.unwrap_or_else(|| "-".into()),
                "",
                "exact",
                if same { "same" } else { "worse" }
            );
        }
    }
    (out, bad)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: perf compare A.json B.json".to_string());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, bad) = compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(if bad {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, q1: f64, q3: f64) -> Sample {
        Sample { value, q1, q3 }
    }

    #[test]
    fn relative_bounds_judge_by_direction() {
        let r = Bound::Relative(0.10);
        assert_eq!(
            judge(Better::Lower, r, s(1.0, 1.0, 1.0), s(1.05, 1.05, 1.05)),
            Verdict::Same
        );
        assert_eq!(
            judge(Better::Lower, r, s(1.0, 1.0, 1.0), s(1.2, 1.2, 1.2)),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, r, s(1.0, 1.0, 1.0), s(0.8, 0.8, 0.8)),
            Verdict::Better
        );
        assert_eq!(
            judge(Better::Higher, r, s(10.0, 10.0, 10.0), s(8.0, 8.0, 8.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Higher, r, s(10.0, 10.0, 10.0), s(12.0, 12.0, 12.0)),
            Verdict::Better
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let r = Bound::Relative(0.10);
        // Spread 30% > bound and the quartile ranges overlap.
        assert_eq!(
            judge(Better::Lower, r, s(1.0, 0.85, 1.15), s(1.2, 1.1, 1.3)),
            Verdict::Unresolved
        );
        // Same spread but every quartile of B is beyond A's: resolved.
        assert_eq!(
            judge(Better::Lower, r, s(1.0, 0.85, 1.15), s(1.6, 1.5, 1.7)),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_and_absolute_bounds() {
        let x = 0.1 + 0.2;
        assert_eq!(
            judge(Better::Lower, Bound::Exact, s(x, x, x), s(x, x, x)),
            Verdict::Same
        );
        assert_eq!(
            judge(Better::Lower, Bound::Exact, s(x, x, x), s(0.3, 0.3, 0.3)),
            Verdict::Worse
        );
        let zero = Bound::Absolute(0.0);
        assert_eq!(
            judge(Better::Lower, zero, s(0.0, 0.0, 0.0), s(0.0, 0.0, 0.0)),
            Verdict::Same
        );
        assert_eq!(
            judge(Better::Lower, zero, s(0.0, 0.0, 0.0), s(0.01, 0.01, 0.01)),
            Verdict::Worse
        );
        let rss = Bound::RelativeBeyond {
            share: 0.25,
            slack: 16.0,
        };
        assert_eq!(
            judge(Better::Lower, rss, s(24.0, 24.0, 24.0), s(32.0, 32.0, 32.0)),
            Verdict::Same
        );
        assert_eq!(
            judge(
                Better::Lower,
                rss,
                s(300.0, 300.0, 300.0),
                s(330.0, 330.0, 330.0)
            ),
            Verdict::Same
        );
        assert_eq!(
            judge(
                Better::Lower,
                rss,
                s(300.0, 300.0, 300.0),
                s(400.0, 400.0, 400.0)
            ),
            Verdict::Worse
        );
        let slo = Bound::Absolute(0.02);
        assert_eq!(
            judge(Better::Lower, slo, s(0.0, 0.0, 0.0), s(0.01, 0.01, 0.01)),
            Verdict::Same
        );
        assert_eq!(
            judge(Better::Lower, slo, s(0.0, 0.0, 0.0), s(0.05, 0.05, 0.05)),
            Verdict::Worse
        );
    }

    fn doc(pass_wall: f64, fingerprint: &str) -> Json {
        let text = format!(
            r#"{{"workloads":[{{"workload":"table2_gpu","sim_fingerprint":"{fingerprint}","end_to_end":{{
                "pass_wall_s":{{"value":{pass_wall},"q1":{pass_wall},"q3":{pass_wall},"n":5}},
                "sim_time_s":{{"value":0.5,"q1":0.5,"q3":0.5,"n":1}}}}}}]}}"#
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn compare_flags_regressions_fingerprints_and_missing_metrics() {
        let only_gpu = |table: &str| -> Vec<String> {
            table
                .lines()
                .filter(|l| l.starts_with("table2_gpu"))
                .map(str::to_string)
                .collect()
        };
        let (t, bad) = compare(&doc(1.0, "aa"), &doc(1.02, "aa"));
        let rows = only_gpu(&t);
        assert!(bad, "metrics missing from both sides are reported");
        assert!(rows
            .iter()
            .any(|r| r.contains("pass_wall_s") && r.ends_with("same")));
        assert!(rows
            .iter()
            .any(|r| r.contains("sim_time_s") && r.ends_with("same")));
        assert!(rows
            .iter()
            .any(|r| r.contains("sim_fingerprint") && r.ends_with("same")));
        assert!(rows
            .iter()
            .any(|r| r.contains("setup_s") && r.ends_with("missing")));
        let (t, _) = compare(&doc(1.0, "aa"), &doc(1.3, "bb"));
        let rows = only_gpu(&t);
        assert!(rows
            .iter()
            .any(|r| r.contains("pass_wall_s") && r.ends_with("worse")));
        assert!(rows
            .iter()
            .any(|r| r.contains("sim_fingerprint") && r.ends_with("worse")));
    }
}
