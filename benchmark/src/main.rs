//! The perf ledger's one binary.
//!
//! ```text
//! hop-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hop-benchmark [--seed <n>] [--seconds <s>]      every workload, then its traced pass
//!               [--out <dir>]                     where result files go (benchmark/out)
//! hop-benchmark --compare <a.json> <b.json>       judge two result files
//! hop-benchmark --worker <addr> <id>              process-runtime worker (re-exec)
//! ```

use hop_benchmark::compare::compare;
use hop_benchmark::harness::{self, Options};
use hop_benchmark::json::Json;
use hop_benchmark::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: hop-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--scale <f>] [--out <dir>]\n       \
                     hop-benchmark --compare <a.json> <b.json>";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    out_dir: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        scale: 1.0,
        out_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value\n{USAGE}"))?;
        let bad = || format!("`{flag} {value}` is not valid\n{USAGE}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => parsed.trace = value == "1",
            "--scale" => parsed.scale = value.parse().map_err(|_| bad())?,
            "--out" => parsed.out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    if !(parsed.seconds >= 0.0 && parsed.scale > 0.0) {
        return Err(format!("--seconds and --scale must be positive\n{USAGE}"));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The process runtime re-execs this binary as its workers, so the
    // ledger needs no second build.
    if args.first().map(String::as_str) == Some("--worker") {
        let (Some(addr), Some(Ok(id))) = (args.get(1), args.get(2).map(|id| id.parse::<usize>()))
        else {
            eprintln!("usage: hop-benchmark --worker <coordinator-addr> <worker-id>");
            return ExitCode::from(2);
        };
        let code = hop::core::process::worker_main(addr, id);
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    let Some(root) = harness::repo_root() else {
        eprintln!("no BENCHMARK.json here or above: run from the repository checkout");
        return ExitCode::from(2);
    };
    if args.first().map(String::as_str) == Some("--compare") {
        let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare(&root.join("BENCHMARK.json"), Path::new(a), Path::new(b)) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = parsed
        .out_dir
        .clone()
        .unwrap_or_else(|| root.join("benchmark").join("out"));
    match parsed.workload {
        Some(workload) => {
            let options = Options {
                workload,
                seed: parsed.seed,
                seconds: parsed.seconds,
                trace: parsed.trace,
                scale: parsed.scale,
            };
            let result = harness::run(&options, &root, &out_dir);
            println!("{}", result.contract_line());
            ExitCode::SUCCESS
        }
        None => match full_set(&parsed, &out_dir) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
    }
}

/// Runs every workload with tracing off and then traced, each in a fresh
/// child process of this binary (so `peak_rss_mb` is per workload), and
/// merges the children's result files into `out/result.json` and their
/// spans into `out/spans.jsonl`. Returns whether every run was correct.
fn full_set(args: &Args, out_dir: &Path) -> Result<bool, String> {
    let started = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut workloads = Vec::new();
    let mut spans = String::new();
    let mut all_correct = true;
    let mut env = Json::Null;
    for workload in Workload::ALL {
        let name = workload.name();
        let mut passes = Vec::new();
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--scale", &args.scale.to_string()])
                .arg("--out")
                .arg(out_dir)
                .stdin(Stdio::null())
                .status()
                .map_err(|e| format!("cannot start the {name} run: {e}"))?;
            if !status.success() {
                return Err(format!(
                    "the {name} --trace {trace} run exited with {status}"
                ));
            }
            let path = out_dir.join(format!("{name}.trace{trace}.json"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            passes.push(Json::parse(&text)?);
        }
        let path = out_dir.join(format!("{name}.spans.jsonl"));
        spans += &std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (plain, traced) = (&passes[0], &passes[1]);
        let field = |doc: &Json, key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
        all_correct &= [plain, traced]
            .iter()
            .all(|doc| doc.get("correct").and_then(Json::as_bool) == Some(true));
        env = field(plain, "env");
        let errors: Vec<Json> = [plain, traced]
            .iter()
            .flat_map(|doc| field(doc, "errors").items().to_vec())
            .collect();
        workloads.push((
            name,
            Json::obj([
                ("ops_attempted", field(plain, "attempted")),
                ("ops_failed", field(plain, "failed")),
                ("traced_ops_attempted", field(traced, "attempted")),
                ("traced_ops_failed", field(traced, "failed")),
                ("errors", Json::Arr(errors)),
                ("metrics", field(plain, "metrics")),
                ("samples", field(plain, "samples")),
                ("per_layer", field(traced, "metrics")),
            ]),
        ));
    }
    let mut env: Vec<(String, Json)> = env.members().to_vec();
    env.retain(|(key, _)| key != "wall_s");
    env.push((
        "wall_s".to_string(),
        Json::Num(started.elapsed().as_secs_f64()),
    ));
    let result = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("scale", Json::Num(args.scale)),
        ("env", Json::Obj(env)),
        ("workloads", Json::obj(workloads)),
    ]);
    let write = |file: &str, text: String| {
        let path = out_dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok::<(), String>(())
    };
    write("result.json", format!("{result}\n"))?;
    write("spans.jsonl", spans)?;
    Ok(all_correct)
}
