//! `--compare <a.json> <b.json>`: judges candidate `b` against baseline
//! `a` with each end-to-end metric's bound from `BENCHMARK.json`.

use crate::json::Json;
use hop::metrics::table::fmt_sig;
use hop::metrics::Table;
use hop::util::Summary;
use std::path::Path;

/// One row's judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The candidate's median is worse than the baseline's by more than
    /// the bound.
    Worse,
    /// Not worse, but the run-to-run spread of the reported median,
    /// estimated from either file's repetitions, is wider than the bound,
    /// so "unchanged" cannot be claimed either.
    Unresolved,
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Estimated run-to-run spread of a reported median, as a share of it:
/// the distance between the quartiles of the per-repetition samples over
/// √n (the standard error of a median is ≈ 0.93 · IQR / √n). 0 when the
/// file holds fewer than four samples.
fn spread(result: &Json, workload: &str, metric: &str) -> f64 {
    let samples: Vec<f64> = result
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("samples"))
        .and_then(|s| s.get(metric))
        .map_or(&[][..], Json::items)
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    if samples.len() < 4 {
        return 0.0;
    }
    let s = Summary::from_slice(&samples);
    let iqr = s.percentile(75.0) - s.percentile(25.0);
    iqr / (samples.len() as f64).sqrt() / s.median().abs()
}

fn value(result: &Json, workload: &str, metric: &str) -> Option<f64> {
    result
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Judges one (metric, workload) pair. `worse_by` is the share of the
/// baseline by which the candidate is worse (negative when better).
pub fn judge(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if worse_by > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Prints one row per (end-to-end metric, workload) and returns whether
/// any row is `worse`.
///
/// # Errors
///
/// An unreadable or malformed file, or two result files that were not
/// made with the same `--seconds` and `--scale`.
pub fn compare(benchmark_json: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let spec = load(benchmark_json)?;
    let (a, b) = (load(a)?, load(b)?);
    for key in ["seconds", "scale"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "the two result files differ in `{key}` and cannot be compared"
            ));
        }
    }
    let mut table = Table::new(vec![
        "metric",
        "workload",
        "baseline",
        "candidate",
        "worse by",
        "spread",
        "bound",
        "verdict",
    ]);
    let mut any_worse = false;
    for metric in spec.get("end_to_end").map_or(&[][..], Json::items) {
        let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or_default();
        let (name, lower_is_better) = (field("name"), field("better") == "lower");
        let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
        for workload in spec.get("workloads").map_or(&[][..], Json::items) {
            let workload = workload
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default();
            let (Some(base), Some(cand)) = (value(&a, workload, name), value(&b, workload, name))
            else {
                return Err(format!(
                    "`{name}` on `{workload}` is missing from a result file"
                ));
            };
            let change = (cand - base) / base.abs();
            let worse_by = if lower_is_better { change } else { -change };
            let spread = spread(&a, workload, name).max(spread(&b, workload, name));
            let verdict = judge(worse_by, spread, bound);
            any_worse |= verdict == Verdict::Worse;
            table.add_row(vec![
                name.to_string(),
                workload.to_string(),
                fmt_sig(base),
                fmt_sig(cand),
                format!("{:+.2}%", worse_by * 100.0),
                format!("{:.2}%", spread * 100.0),
                format!("{:.0}%", bound * 100.0),
                format!("{verdict:?}").to_lowercase(),
            ]);
        }
    }
    print!("{}", table.render());
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound() {
        assert_eq!(judge(0.02, 0.01, 0.10), Verdict::Ok);
        assert_eq!(judge(-0.50, 0.01, 0.10), Verdict::Ok);
        assert_eq!(judge(0.11, 0.01, 0.10), Verdict::Worse);
        // Worse wins over a wide spread; a wide spread alone is unresolved.
        assert_eq!(judge(0.11, 0.30, 0.10), Verdict::Worse);
        assert_eq!(judge(0.02, 0.30, 0.10), Verdict::Unresolved);
    }
}
