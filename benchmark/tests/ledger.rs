//! The ledger checks itself: what the binary emits is what
//! `BENCHMARK.json` declares, the attribution adds up, a scaled-down set
//! of all five workloads passes its output checks, and `--compare`
//! judges by the declared bounds.

use hop_benchmark::json::Json;
use hop_benchmark::workloads::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_hop-benchmark");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// `name -> unit` of one of `BENCHMARK.json`'s metric lists.
fn declared(spec: &Json, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .expect("list exists")
        .items()
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// `name -> unit` of a result file's metric object.
fn emitted(metrics: &Json) -> BTreeMap<String, String> {
    metrics
        .members()
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

#[test]
fn benchmark_json_stays_inside_the_contract() {
    let spec = benchmark_json();
    let names: Vec<&str> = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|list| spec.get(list).expect("list").items())
        .map(|entry| entry.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    for name in &names {
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(
            !name.is_empty() && name.len() <= 64 && name.chars().all(legal),
            "illegal name {name:?}"
        );
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    let workloads: Vec<&str> = names[..5].to_vec();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    assert!(declared(&spec, "end_to_end").len() <= 16);
    assert!(declared(&spec, "per_layer").len() <= 128);
    for metric in spec.get("end_to_end").expect("list").items() {
        let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
    assert!(declared(&spec, "end_to_end").contains_key("setup_s"));
}

/// One scaled-down full set (every workload, tracing off then traced):
/// it must finish, pass every output check, emit exactly the declared
/// names with the declared units, and attribute exactly all of the wall
/// time.
#[test]
fn scaled_down_full_set_emits_what_benchmark_json_declares() {
    let out = scratch("full_set");
    let status = Command::new(BIN)
        .args(["--seed", "3", "--seconds", "0", "--scale", "0.02", "--out"])
        .arg(&out)
        .status()
        .expect("the benchmark binary starts");
    assert!(
        status.success(),
        "the scaled-down full set failed: {status}"
    );
    let spec = benchmark_json();
    let result = Json::parse(&std::fs::read_to_string(out.join("result.json")).expect("result"))
        .expect("result.json parses");
    assert_eq!(result.get("scale").and_then(Json::as_f64), Some(0.02));
    let env = result.get("env").expect("environment block");
    for key in [
        "git_rev",
        "rustc",
        "available_parallelism",
        "avx2",
        "wall_s",
    ] {
        assert!(env.get(key).is_some(), "environment block lacks `{key}`");
    }
    let workloads = result.get("workloads").expect("workloads");
    assert_eq!(workloads.members().len(), 5);
    for (name, w) in workloads.members() {
        assert_eq!(
            w.get("errors").expect("errors").items(),
            &[] as &[Json],
            "{name} reported errors"
        );
        assert_eq!(w.get("ops_failed").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            emitted(w.get("metrics").expect("metrics")),
            declared(&spec, "end_to_end"),
            "{name}: end-to-end names or units differ from BENCHMARK.json"
        );
        let per_layer = w.get("per_layer").expect("per_layer");
        assert_eq!(
            emitted(per_layer),
            declared(&spec, "per_layer"),
            "{name}: per-layer names or units differ from BENCHMARK.json"
        );
        let value = |metric: &str| {
            per_layer
                .get(metric)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .expect("value")
        };
        let shares: Vec<f64> = per_layer
            .members()
            .iter()
            .filter(|(metric, _)| metric.ends_with(".busy_share"))
            .map(|(metric, _)| value(metric))
            .collect();
        assert_eq!(shares.len(), 6);
        assert!(shares.iter().all(|&s| s >= 0.0), "{name}: negative share");
        let total: f64 = shares.iter().sum::<f64>() + value("core.engine.residual_share");
        assert!((total - 1.0).abs() < 1e-9, "{name}: shares sum to {total}");
        assert_eq!(value("tensor.compress.pool_fresh_after_warmup"), 0.0);
        assert_eq!(value("core.sweep.digest_match"), 1.0);
    }
    let spans = std::fs::read_to_string(out.join("spans.jsonl")).expect("spans.jsonl");
    assert!(spans.lines().count() > 5 * 50, "too few spans");
    for line in spans.lines().take(20) {
        let span = Json::parse(line).expect("a span is one JSON object");
        assert!(
            span.get("end_ns").and_then(Json::as_f64)
                >= span.get("start_ns").and_then(Json::as_f64)
        );
    }
}

/// A result file with one workload-independent value per end-to-end
/// metric; `slow` makes the candidate's throughput 30 % worse.
fn result_file(dir: &Path, file: &str, slow: bool, noisy: bool) -> PathBuf {
    let spec = benchmark_json();
    let workloads = spec
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| {
            let metrics = spec
                .get("end_to_end")
                .expect("list")
                .items()
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(Json::as_str).expect("name");
                    let value = if slow && name == "worker_iters_per_s" {
                        70.0
                    } else {
                        100.0
                    };
                    (name, Json::obj([("value", Json::Num(value))]))
                });
            let samples = if noisy {
                Json::obj([("final_loss", Json::nums(&[50.0, 60.0, 100.0, 140.0, 150.0]))])
            } else {
                Json::obj([("final_loss", Json::nums(&[100.0; 5]))])
            };
            (
                w.get("name").and_then(Json::as_str).expect("name"),
                Json::obj([("metrics", Json::obj(metrics)), ("samples", samples)]),
            )
        });
    let doc = Json::obj([
        ("seconds", Json::Num(15.0)),
        ("scale", Json::Num(1.0)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = dir.join(file);
    std::fs::write(&path, doc.to_string()).expect("result file");
    path
}

#[test]
fn compare_applies_the_declared_bounds() {
    let dir = scratch("compare");
    let base = result_file(&dir, "base.json", false, false);
    let run = |candidate: &Path| {
        let out = Command::new(BIN)
            .arg("--compare")
            .args([&base, candidate])
            .output()
            .expect("the benchmark binary starts");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    // "worse" is also a word of the header ("worse by").
    let verdicts = |table: &str, word: &str| table.matches(word).count();
    let (code, table) = run(&base);
    assert_eq!(code, Some(0), "{table}");
    assert_eq!(verdicts(&table, "worse"), 1, "{table}");
    assert_eq!(verdicts(&table, "unresolved"), 0, "{table}");
    // 30 % fewer worker-iterations per second is beyond the 25 % bound.
    let (code, table) = run(&result_file(&dir, "slow.json", true, false));
    assert_eq!(code, Some(1), "{table}");
    assert_eq!(verdicts(&table, "worse"), 1 + 5, "{table}");
    // Equal medians, but five samples with quartiles 80 % apart put the
    // median's own spread at 36 %: neither worse nor unchanged.
    let (code, table) = run(&result_file(&dir, "noisy.json", false, true));
    assert_eq!(code, Some(0), "{table}");
    assert_eq!(verdicts(&table, "unresolved"), 5, "{table}");
}

#[test]
fn compare_refuses_a_scaled_run_against_a_full_one() {
    let dir = scratch("compare_scale");
    let base = result_file(&dir, "base.json", false, false);
    let scaled = dir.join("scaled.json");
    let text = std::fs::read_to_string(&base).expect("base");
    std::fs::write(&scaled, text.replace("\"scale\": 1", "\"scale\": 0.02")).expect("scaled");
    let out = Command::new(BIN)
        .arg("--compare")
        .args([&base, &scaled])
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("scale"));
}
