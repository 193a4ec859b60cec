//! The process-runtime worker binary.
//!
//! The coordinator ([`hop::core::process::ProcessExperiment`]) re-execs
//! this binary once per worker:
//!
//! ```text
//! hop_worker --worker <coordinator-socket> <worker-id>
//! ```
//!
//! Each worker listens on its own Unix-domain socket in the coordinator
//! socket's directory, connects back, receives its spec over the
//! [`hop::wire`] frame protocol, wires one link per directed external
//! edge to its peers in the same directory (a socket for the hello and
//! the doorbells, a pair of shared-memory rings for the frames), and runs
//! the Hop iteration loop. `--smoke` runs a small self-contained
//! experiment (this same binary re-exec'd as its own fleet) and
//! oracle-checks the merged trace — the smoke test CI runs on every push.
//! The process runtime needs Unix-domain sockets; on other targets both
//! modes report that they are unsupported.

#[cfg(unix)]
use hop::{
    core::config::HopConfig,
    core::process::{worker_main, ProcessExperiment},
    core::Oracle,
    graph::Topology,
};
use std::process::ExitCode;
#[cfg(unix)]
use std::time::Duration;

#[cfg(unix)]
fn usage() -> ExitCode {
    eprintln!("usage: hop_worker --worker <coordinator-socket> <worker-id>");
    eprintln!("       hop_worker --smoke");
    ExitCode::from(2)
}

#[cfg(unix)]
fn smoke() -> ExitCode {
    let bin = match std::env::current_exe() {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("smoke: cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = HopConfig::standard_with_tokens(3);
    let topo = Topology::ring(3);
    let iters = 5;
    let mut exp = ProcessExperiment::new(cfg.clone(), topo.clone(), iters, bin);
    exp.examples = 64;
    exp.stall_timeout = Duration::from_secs(10);
    let (report, trace) = match exp.run_traced() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("smoke: process run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let oracle = Oracle::new(&cfg, &topo, iters);
    match oracle.check(&trace) {
        Ok(summary) => {
            println!(
                "smoke ok: ring 3, {iters} iters, {} events oracle-clean, \
                 {} update bytes on the wire, {:?} elapsed",
                summary.events,
                report.total_update_wire_bytes(),
                report.elapsed,
            );
            ExitCode::SUCCESS
        }
        Err(v) => {
            eprintln!("smoke: merged trace violates the oracle: {v}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(unix)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--worker") => {
            let (Some(addr), Some(id)) = (args.get(2), args.get(3)) else {
                return usage();
            };
            let Ok(worker) = id.parse::<usize>() else {
                return usage();
            };
            let code = worker_main(addr, worker);
            ExitCode::from(u8::try_from(code).unwrap_or(1))
        }
        Some("--smoke") => smoke(),
        _ => usage(),
    }
}

#[cfg(not(unix))]
fn main() -> ExitCode {
    eprintln!(
        "hop_worker: unsupported on this target: the process runtime needs Unix-domain sockets"
    );
    ExitCode::FAILURE
}
