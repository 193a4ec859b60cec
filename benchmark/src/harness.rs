//! One benchmark run: a workload, a seed, a time budget, tracing on or
//! off. Tracing off measures the end-to-end metrics; the separate traced
//! pass produces every per-layer metric and the spans.

use crate::json::Json;
use crate::layers::{self, Metric, Metrics, Timer};
use crate::spans::Spans;
use crate::workloads::{Outcome, Prepared, TraceCounts, Workload};
use hop::core::CompressionConfig;
use hop::metrics::table::fmt_sig;
use hop::metrics::Table;
use hop::tensor::ops;
use hop::util::Summary;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long to keep making timed `run` calls.
    pub seconds: f64,
    pub trace: bool,
    /// 1 for the ledger; the package's own tests shrink the workloads.
    /// Recorded in every result file so a scaled run is never compared
    /// against a full one.
    pub scale: f64,
}

/// The contract's result line plus what the result file adds to it.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// The error string of every failed operation or check.
    pub errors: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last line of standard output, exactly as the contract asks.
    pub fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }
}

fn metrics_json(metrics: &Metrics) -> Json {
    Json::obj(metrics.0.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]),
        )
    }))
}

/// Counts operations; a failed one is recorded, never retried.
struct Ops {
    /// `final_loss` at or above this fails the operation.
    loss_ceiling: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Digest of the first successful simulator run: every later run of
    /// the same inputs, traced or not, must reproduce it.
    digest: Option<u64>,
}

impl Ops {
    fn new(o: &Options) -> Ops {
        Ops {
            loss_ceiling: o.workload.loss_ceiling(o.scale),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            digest: None,
        }
    }

    fn run(&mut self, prepared: &Prepared, traced: bool) -> Option<Outcome> {
        self.attempted += 1;
        let checked = prepared.run(traced).and_then(|out| {
            if !(out.final_loss.is_finite() && out.final_loss < self.loss_ceiling) {
                return Err(format!(
                    "final_loss {} is not below the ceiling {}",
                    out.final_loss, self.loss_ceiling
                ));
            }
            match (self.digest, out.digest) {
                (Some(first), Some(now)) if first != now => {
                    return Err(format!(
                        "report digest {now:016x} differs from the first run's {first:016x}"
                    ));
                }
                (None, now) => self.digest = now,
                _ => {}
            }
            Ok(out)
        });
        match checked {
            Ok(out) => Some(out),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn fail(&mut self, error: String) {
        eprintln!("FAILED: {error}");
        self.failed += 1;
        self.errors.push(error);
    }
}

fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        Summary::from_slice(samples).median()
    }
}

/// Runs one invocation and writes its result file (and, when tracing,
/// its spans) under `out_dir`.
pub fn run(o: &Options, repo_root: &Path, out_dir: &Path) -> RunResult {
    let started = Instant::now();
    let mut spans = Spans::new();
    let (result, samples) = if o.trace {
        (traced(o, repo_root, &mut spans), Vec::new())
    } else {
        end_to_end(o)
    };
    let trace = u8::from(o.trace);
    let name = o.workload.name();
    // The result file: the contract's numbers plus samples, error strings
    // and the environment.
    let detail = Json::obj([
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("scale", Json::Num(o.scale)),
        ("trace", Json::Num(f64::from(trace))),
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        (
            "errors",
            Json::Arr(result.errors.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", metrics_json(&result.metrics)),
        ("samples", Json::Obj(samples)),
        ("env", environment(repo_root, started)),
    ]);
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| {
            std::fs::write(
                out_dir.join(format!("{name}.trace{trace}.json")),
                format!("{detail}\n"),
            )
        })
        .and_then(|()| {
            if o.trace {
                spans.write_jsonl(&out_dir.join(format!("{name}.spans.jsonl")), name)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("warning: could not write under {}: {e}", out_dir.display());
    }
    result
}

/// Tracing off: set up several times, warm up once, then make `run`
/// calls for `seconds` and report medians.
fn end_to_end(o: &Options) -> (RunResult, Vec<(String, Json)>) {
    // Set-up is timed five times up front and three more times before
    // every repetition below, so its median samples the whole run: a
    // host that is slow for a second moves a burst of samples, not the
    // median.
    let mut setup = Vec::new();
    let time_setup = |setup: &mut Vec<f64>| {
        let start = Instant::now();
        let prepared = o.workload.prepare(o.seed, o.scale);
        setup.push(start.elapsed().as_secs_f64());
        prepared
    };
    for _ in 0..4 {
        time_setup(&mut setup);
    }
    let prepared = time_setup(&mut setup);
    let mut ops = Ops::new(o);
    // Warm-up: caches fill, lazy set-up finishes; counted, not timed.
    ops.run(&prepared, false);
    let mut outcomes = Vec::new();
    // How late each repetition started after the previous one ended
    // (the harness evaluates the loss and times set-up in between):
    // exposes a noisy host.
    let mut gaps_ms = Vec::new();
    let clock = Instant::now();
    let mut previous_end: Option<Instant> = None;
    loop {
        for _ in 0..3 {
            time_setup(&mut setup);
        }
        let start = Instant::now();
        gaps_ms.extend(previous_end.map(|end| (start - end).as_secs_f64() * 1e3));
        let outcome = ops.run(&prepared, false);
        let busy = outcome.as_ref().map_or_else(
            || start.elapsed(),
            |out| Duration::from_secs_f64(out.wall_s),
        );
        previous_end = Some(start + busy);
        outcomes.extend(outcome);
        if clock.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
    }
    let column = |f: fn(&Outcome) -> f64| outcomes.iter().map(f).collect::<Vec<f64>>();
    let rows: [(&str, &'static str, Vec<f64>); 5] = [
        ("setup_s", "s", setup),
        (
            "worker_iters_per_s",
            "1/s",
            column(|out| out.worker_iters as f64 / out.wall_s),
        ),
        ("final_loss", "loss", column(|out| out.final_loss)),
        ("makespan_s", "s", column(|out| out.makespan_s)),
        ("peak_rss_mb", "MB", vec![peak_rss_mb()]),
    ];
    let mut metrics = Metrics::default();
    let mut table = Table::new(vec![
        "metric", "unit", "median", "min", "q1", "q3", "max", "samples",
    ]);
    let mut samples = Vec::new();
    for (name, unit, values) in rows {
        metrics.push(name, median(&values), unit);
        if !values.is_empty() {
            let s = Summary::from_slice(&values);
            let cells = [
                s.median(),
                s.min(),
                s.percentile(25.0),
                s.percentile(75.0),
                s.max(),
            ];
            let mut row = vec![name.to_string(), unit.to_string()];
            row.extend(cells.iter().map(|&v| fmt_sig(v)));
            row.push(values.len().to_string());
            table.add_row(row);
        }
        samples.push((name.to_string(), Json::nums(&values)));
    }
    samples.push(("rep_gap_ms".to_string(), Json::nums(&gaps_ms)));
    println!(
        "{} seed {} — {} run calls, {} failed, {} worker(s), {} core(s)",
        o.workload.name(),
        o.seed,
        ops.attempted,
        ops.failed,
        prepared.workers(),
        cores(),
    );
    print!("{}", table.render());
    (
        RunResult {
            attempted: ops.attempted,
            failed: ops.failed,
            metrics,
            errors: ops.errors,
        },
        samples,
    )
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` of this process: the coordinator only on `proc_*`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The traced pass: a few untraced runs for the reference wall time, one
/// traced run replayed through the oracle, every layer's unit costs, and
/// the attribution of the wall time to layers.
fn traced(o: &Options, repo_root: &Path, spans: &mut Spans) -> RunResult {
    let mut ops = Ops::new(o);
    let mut metrics = Metrics::default();
    let prepared = spans.record("harness.prepare", |_| o.workload.prepare(o.seed, o.scale));
    let clock = Instant::now();
    ops.run(&prepared, false);
    let mut walls = Vec::new();
    while walls.len() < 3 {
        walls.extend(
            spans
                .record("core.run", |_| ops.run(&prepared, false))
                .map(|out| out.wall_s),
        );
        if clock.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
    }
    let wall = median(&walls);
    let traced_run = spans.record("core.run_traced", |_| ops.run(&prepared, true));
    let mut t = Timer {
        spans,
        scale: o.scale,
    };
    if let Some(out) = &traced_run {
        let trace = out.trace.as_ref().expect("a traced run returns its trace");
        let verdict = t.spans.record("core.conformance.oracle_check", |_| {
            prepared.oracle_check(trace)
        });
        if let Err(e) = verdict {
            ops.fail(e);
        }
        let counts = TraceCounts::of(trace);
        if wall > 0.0 {
            match attribute(&mut t, &prepared, &counts, out, wall, o.seed) {
                Ok(shares) => {
                    for (name, share) in shares {
                        metrics.push(name, share, "share");
                    }
                }
                Err(e) => ops.fail(e),
            }
            metrics.push(
                "core.engine.events_per_s",
                out.events_processed as f64 / wall,
                "1/s",
            );
            let wire_mb = if prepared.is_process() {
                out.wire_bytes as f64 / 1e6
            } else {
                0.0
            };
            metrics.push("core.process.update_mb_per_s", wire_mb / wall, "MB/s");
            metrics.push(
                "core.conformance.trace_overhead_ratio",
                out.wall_s / wall,
                "ratio",
            );
        }
        metrics.push(
            "wire.bytes_per_iter",
            out.wire_bytes as f64 / out.worker_iters as f64,
            "B",
        );
        for (name, count) in [
            ("trace.events", counts.events),
            ("trace.sends", counts.sends),
            ("trace.consumes", counts.consumes),
            ("trace.reduces", counts.reduces),
            ("trace.token_ops", counts.token_ops),
            ("trace.jumps", counts.jumps),
            ("trace.drops", counts.drops),
        ] {
            metrics.push(name, count as f64, "count");
        }
    }

    // The oracle and the trace text format are timed on a sim_ref16_int8
    // trace whichever workload this pass is for.
    let mut reference = None;
    if o.workload != Workload::SimRef16Int8 {
        let p = Workload::SimRef16Int8.prepare(o.seed, o.scale);
        match t.spans.record("core.run_traced", |_| p.run(true)) {
            Ok(out) => reference = Some((p, out)),
            Err(e) => ops.fail(format!("reference trace: {e}")),
        }
    }
    let ref16 = match &reference {
        Some((p, out)) => Some((p, out)),
        None if o.workload == Workload::SimRef16Int8 => {
            traced_run.as_ref().map(|out| (&prepared, out))
        }
        None => None,
    };
    if let Some((ref_prepared, out)) = ref16 {
        let trace = out.trace.as_ref().expect("a traced run returns its trace");
        match layers::measure(&mut t, o.seed, (ref_prepared, trace)) {
            Ok(layer_metrics) => metrics.0.extend(layer_metrics.0),
            Err(e) => ops.fail(format!("layer measurement: {e}")),
        }
    }
    layers::lines_of_code(repo_root, &mut metrics);

    let mut table = Table::new(vec!["layer metric", "value", "unit"]);
    for Metric { name, value, unit } in &metrics.0 {
        table.add_row(vec![name.clone(), fmt_sig(*value), (*unit).to_string()]);
    }
    println!(
        "{} seed {} traced pass — untraced wall {} s over {} run(s)",
        o.workload.name(),
        o.seed,
        fmt_sig(wall),
        walls.len(),
    );
    print!("{}", table.render());
    RunResult {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        errors: ops.errors,
    }
}

/// A layer's busy time on a workload is *calls × unit cost*: calls come
/// from the traced run's event counts, unit costs from timing the layer
/// at the workload's own sizes. `busy_share` is that time over the
/// untraced median wall time times the lanes the runtime can keep busy
/// (1 on the simulator, `min(workers, cores)` on real threads and
/// processes); `core.engine.residual_share` is what no layer explains —
/// engine bookkeeping, waiting, scheduling.
fn attribute(
    t: &mut Timer<'_>,
    prepared: &Prepared,
    counts: &TraceCounts,
    out: &Outcome,
    wall: f64,
    seed: u64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let dim = prepared.model().dim();
    let kernel = layers::kernel_costs(t, dim);
    let model = layers::model_costs(t, prepared.model(), prepared.dataset());
    let queue = layers::queue_costs(t);
    let computes = counts.computes as f64;
    let external_sends = counts.external_sends as f64;
    // `mean_into` of four inputs moves five vectors.
    let mean_per_vector = kernel.mean_into4 / 5.0;

    // Compute: sample a batch, gradient, optimizer delta (the same
    // arithmetic as a step), then `apply_parallel`'s axpy.
    let model_busy = computes * (model.batch_sample + model.loss_grad + model.sgd_step);
    let mut ops_busy = computes * kernel.axpy
        + (counts.reduce_inputs + counts.reduces) as f64 * mean_per_vector
        + counts.reduces as f64 * kernel.overwrite_mut;

    // A lossy codec encodes once per Send step (the self-loop `Send`
    // marks it): delta axpy, encode, decode, reference axpy, and on the
    // in-memory runtimes a copy of the reconstruction. Process receivers
    // decode every frame into their mirror and copy it out.
    let mut compress_busy = 0.0;
    if prepared.compression() != CompressionConfig::Identity {
        let codec = layers::codec_costs(t, prepared.compression(), dim);
        let encodes = (counts.sends - counts.external_sends) as f64;
        compress_busy += encodes * (codec.encode + codec.decode);
        ops_busy += encodes * 2.0 * kernel.axpy;
        if prepared.is_process() {
            compress_busy += external_sends * codec.decode;
            ops_busy += external_sends * (kernel.axpy + kernel.memcpy);
        } else {
            ops_busy += encodes * kernel.memcpy;
        }
    }

    // Every Send is one enqueue and, sooner or later, one dequeue.
    let per_update = if prepared.is_sim() {
        queue.rotating
    } else {
        queue.tagged
    };
    let queue_busy = counts.sends as f64 * per_update + counts.token_ops as f64 * queue.token / 2.0;

    let mut sim_busy = 0.0;
    if prepared.is_sim() {
        let churn = layers::event_churn_per_s(t, prepared.workers(), seed);
        sim_busy = out.events_processed as f64 / churn + external_sends * layers::transfer_cost(t);
    }

    // A frame costs its writer and its reader one loopback slot each
    // (framing and parsing included); token grants are small frames.
    let mut wire_busy = 0.0;
    if prepared.is_process() {
        let wire = layers::wire_costs(t)?;
        wire_busy = external_sends * 2.0 / wire.loopback_frames_per_s
            + counts.token_ops as f64 * wire.token_roundtrip;
    }

    let lanes = if prepared.is_sim() {
        1
    } else {
        prepared.workers().min(cores())
    };
    let capacity = wall * lanes as f64;
    let shares = [
        ("tensor.ops.busy_share", ops_busy / capacity),
        ("tensor.compress.busy_share", compress_busy / capacity),
        ("model.busy_share", model_busy / capacity),
        ("queue.busy_share", queue_busy / capacity),
        ("sim.busy_share", sim_busy / capacity),
        ("wire.busy_share", wire_busy / capacity),
    ];
    let attributed: f64 = shares.iter().map(|(_, share)| share).sum();
    let mut all = shares.to_vec();
    all.push(("core.engine.residual_share", 1.0 - attributed));
    Ok(all)
}

/// Where, how and on what the run was made.
fn environment(repo_root: &Path, started: Instant) -> Json {
    let tool = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(repo_root)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
            )
    };
    Json::obj([
        ("git_rev", Json::Str(tool("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::Str(tool("rustc", &["--version"]))),
        ("available_parallelism", Json::Num(cores() as f64)),
        ("avx2", Json::Bool(ops::simd::avx2_available())),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
    ])
}

/// The checkout root: the nearest ancestor of the working directory that
/// holds `BENCHMARK.json` (the driver runs the command from the root;
/// `cargo test` runs from the package directory).
pub fn repo_root() -> Option<PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    cwd.ancestors()
        .find(|dir| dir.join("BENCHMARK.json").is_file())
        .map(Path::to_path_buf)
}
