//! The threaded runtime: Hop's queue-based protocol on OS threads.
//!
//! Workers are `std::thread`s, each running the one Hop worker machine
//! under the real executor (`crate::worker`, shared with
//! [`crate::process`]) over the in-memory transport defined here. Each
//! worker owns its inbox — the updates and token grants that arrived —
//! and a `std::sync::mpsc` mailbox that every neighbor can post to:
//! delivering an update posts a zero-copy snapshot, granting tokens
//! posts the count, and a wait pumps the mailbox into the inbox, 20
//! rounds with `try_recv` and a yield, then parking in `recv_timeout`
//! until the next arrival. It shows that the
//! protocol as specified — tagged update queues, token queues, backup
//! workers, bounded staleness and skipping iterations — runs correctly
//! under true concurrency, complementing the deterministic simulator
//! used for the timing figures. Every wait carries a timeout so
//! protocol bugs show up as errors, not hangs: a
//! [`RuntimeError::Stalled`] naming the worker, its iteration and the
//! queue it waited on.
//!
//! # Conformance
//!
//! [`ThreadedExperiment::run_traced`] records the same structured
//! [`ProtocolTrace`] the simulator and [`crate::process`] emit, so all
//! three runtimes feed the same [`crate::conformance::Oracle`], through
//! the same typestate handles of [`crate::choreography`] — the only
//! emission path. Each worker logs its events locally
//! with a shared atomic sequence number; *grant* events (sends, token
//! passes) take their number **before** the queue operation and *observe*
//! events (admits, consumes, token takes) **after** it, which makes the
//! merged order consistent with real-time causality (see the
//! [`crate::conformance`] module docs). A failed traced run keeps what
//! its workers emitted: the merged partial trace comes back in the
//! [`FailedRun`] with the error.
//!
//! # Fault injection
//!
//! [`ThreadedExperiment::faults`] installs a thread-local shim of the
//! simulator's fault plane in front of per-receiver delivery:
//! probabilistic message loss (same keyed [`hop_sim::faults::loss_draw`]
//! as the simulator, so draws are a pure function of `(seed, from, to,
//! iter)` across both runtimes) and crashes modeled as *send omission* —
//! a crashed worker's thread keeps running but its external sends are
//! dropped for the `down_iters` window, which is how a dead peer looks
//! from the outside. Every omission is choreographed as a Send + Lost
//! pair and logged to the report's [`hop_sim::FaultLog`], so the fault-aware
//! oracle can license each loss. Byzantine corruption is simulator-only:
//! [`ThreadedExperiment::run`] rejects a plan with byzantine workers as
//! [`crate::config::ConfigError::InvalidFaultPlan`] instead of running
//! without them.

use crate::choreography::SeqSink;
use crate::config::HopConfig;
use crate::conformance::ProtocolTrace;
use crate::report::{FailedRun, RuntimeError, RuntimeReport};
use crate::sim_runtime::compression::CompressionPlane;
use crate::trainer::Hyper;
use crate::worker::{assemble, validate, worker_loop, Inbox, Transport, WorkerJob};
use hop_data::InMemoryDataset;
use hop_graph::Topology;
use hop_model::Model;
use hop_queue::tagged::{Tag, TaggedEntry};
use hop_sim::FaultPlan;
use hop_tensor::{BufferPool, ParamBlock};
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A threaded decentralized training run.
#[derive(Debug, Clone)]
pub struct ThreadedExperiment {
    /// Protocol configuration (parallel order, queue-based sync; skip mode
    /// runs over the real token counts).
    pub config: HopConfig,
    /// Communication graph.
    pub topology: Topology,
    /// Iterations per worker.
    pub max_iters: u64,
    /// Master seed.
    pub seed: u64,
    /// Optimizer hyperparameters.
    pub hyper: Hyper,
    /// Artificial per-iteration sleep (simulating compute) — keep small in
    /// tests; `Duration::ZERO` disables.
    pub compute_sleep: Duration,
    /// Makes one worker a deterministic straggler: `(worker, factor)`
    /// multiplies its `compute_sleep`. The threaded analogue of the
    /// simulator's `paper_straggler` model; what makes skip-mode jumps
    /// actually fire on real threads.
    pub slow_worker: Option<(usize, u32)>,
    /// Timeout for any single wait before declaring a stall.
    pub stall_timeout: Duration,
    /// Fault-injection plan (loss + crash-as-send-omission; see the
    /// module docs; byzantine workers are rejected). The default empty
    /// plan injects nothing.
    pub faults: FaultPlan,
}

impl ThreadedExperiment {
    /// Runs the experiment with one OS thread per worker.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Config`] for invalid configurations and
    /// fault plans (including any byzantine worker),
    /// [`RuntimeError::Unsupported`] for the simulator-only serial order
    /// and NOTIFY-ACK, and [`RuntimeError::Stalled`] if any wait exceeds
    /// `stall_timeout`.
    pub fn run(
        &self,
        model: Arc<dyn Model>,
        dataset: Arc<InMemoryDataset>,
    ) -> Result<RuntimeReport, RuntimeError> {
        let run = self.run_inner(model, dataset, false);
        run.map(|(report, _)| report).map_err(|failed| failed.error)
    }

    /// [`Self::run`] with conformance recording: also returns the merged
    /// [`ProtocolTrace`], ready for [`crate::conformance::Oracle::check`].
    ///
    /// # Errors
    ///
    /// Exactly [`Self::run`]'s errors, each with the merged partial trace.
    pub fn run_traced(
        &self,
        model: Arc<dyn Model>,
        dataset: Arc<InMemoryDataset>,
    ) -> Result<(RuntimeReport, ProtocolTrace), FailedRun> {
        self.run_inner(model, dataset, true)
    }

    fn run_inner(
        &self,
        model: Arc<dyn Model>,
        dataset: Arc<InMemoryDataset>,
        traced: bool,
    ) -> Result<(RuntimeReport, ProtocolTrace), FailedRun> {
        validate(&self.config, &self.topology, &self.faults)?;
        let topo = &self.topology;
        // One mailbox per worker. The senders outlive every worker, so a
        // mailbox never disconnects and a wait on it ends by an arrival
        // or its timeout.
        let (senders, mailboxes): (Vec<Sender<Mail>>, Vec<Receiver<Mail>>) =
            (0..topo.len()).map(|_| mpsc::channel()).unzip();
        let seq = AtomicU64::new(0);
        let mut init_rng = hop_util::Xoshiro256::seed_from_u64(self.seed);
        let init_params = ParamBlock::from_vec(model.init_params(&mut init_rng));
        let start = Instant::now();
        let workers: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = mailboxes
                .into_iter()
                .enumerate()
                .map(|(w, mailbox)| {
                    let job = self.job(w, model.as_ref(), dataset.as_ref(), &init_params);
                    let mut transport = InMemoryTransport {
                        w,
                        topo,
                        mailbox,
                        senders: &senders,
                    };
                    let mut sink = traced.then(|| SeqSink::new(&seq));
                    scope.spawn(move || {
                        let result = worker_loop(&job, &mut transport, &mut sink);
                        (result, sink.map(SeqSink::into_events).unwrap_or_default())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed();
        #[cfg(test)]
        for (outcome, events) in &workers {
            if let Ok(outcome) = outcome {
                crate::worker::tests::record_run(outcome, events);
            }
        }
        assemble(workers, elapsed)
    }

    /// Worker `w`'s share of the experiment.
    pub(crate) fn job<'a>(
        &'a self,
        w: usize,
        model: &'a dyn Model,
        dataset: &'a InMemoryDataset,
        init_params: &'a ParamBlock,
    ) -> WorkerJob<'a> {
        WorkerJob {
            w,
            cfg: &self.config,
            topo: &self.topology,
            model,
            dataset,
            hyper: self.hyper,
            max_iters: self.max_iters,
            seed: self.seed,
            compute_sleep: match self.slow_worker {
                Some((slow, factor)) if slow == w => self.compute_sleep * factor,
                _ => self.compute_sleep,
            },
            timeout: self.stall_timeout,
            init_params,
            faults: &self.faults,
        }
    }
}

/// What one worker posts to another's mailbox: a tagged zero-copy
/// snapshot, or `(owner, n)` — `n` tokens for `TokenQ(owner -> receiver)`.
enum Mail {
    Update(Tag, ParamBlock),
    Tokens(usize, u64),
}

/// The in-memory [`Transport`]: every worker's mailbox lives in one
/// address space, so nothing can fail and nothing is encoded onto a
/// wire. A post to a worker that has finished, and so dropped its
/// mailbox, is ignored — as a late grant to a finished peer is on
/// sockets.
struct InMemoryTransport<'a> {
    w: usize,
    topo: &'a Topology,
    mailbox: Receiver<Mail>,
    /// Every worker's mailbox, by worker.
    senders: &'a [Sender<Mail>],
}

impl Transport for InMemoryTransport<'_> {
    /// Twenty: a waiting thread pumps and yields twenty times before it
    /// parks. Measured with the perf ledger on a 2-core host, once an
    /// iteration made one sweep (medians of 10 alternating 8 s runs, 0
    /// rounds against 20): `thr_ring4_ident` 19 630 against 20 480 worker
    /// iterations/s (20 rounds ahead in 9 pairs of 10), `thr_ring4_topk`
    /// 10 300 against 10 940 /s (ahead in 10 of 10); peak RSS is 17–18
    /// and 21 MB either way. A neighbour's update is often a few
    /// microseconds away, and a thread that yields instead of parking
    /// skips the futex wake that would fetch it.
    const SPIN_ROUNDS: u32 = 20;

    fn pump(&mut self, inbox: &mut Inbox, timeout: Duration) -> bool {
        let first = if timeout.is_zero() {
            self.mailbox.try_recv().ok()
        } else {
            self.mailbox.recv_timeout(timeout).ok()
        };
        let Some(first) = first else {
            return false;
        };
        let owners = self.topo.external_out_neighbors(self.w);
        for mail in std::iter::once(first).chain(self.mailbox.try_iter()) {
            match mail {
                Mail::Update(tag, value) => inbox.updates.push(TaggedEntry { value, tag }),
                Mail::Tokens(owner, n) => {
                    let idx = owners.iter().position(|&o| o == owner);
                    inbox.tokens[idx.expect("grants come from out-neighbors")] += n;
                }
            }
        }
        true
    }

    fn deliver(
        &mut self,
        tag: Tag,
        params: &ParamBlock,
        max_delta: Option<f32>,
        receivers: &[usize],
        plane: &mut CompressionPlane,
        pool: &mut BufferPool,
    ) -> Result<(), RuntimeError> {
        // Under a lossy codec the external sends carry the stream's
        // reconstruction (encoded once per iteration — also when the
        // fault shim ate every receiver, so the stream state does not
        // depend on the plan); identity sends share the exact block.
        let externals_out = self.topo.external_out_neighbors(self.w);
        let recon = (plane.is_active() && !externals_out.is_empty())
            .then(|| plane.encode_params(0, params.as_slice(), max_delta, pool).0);
        let payload = recon.as_ref().unwrap_or(params);
        for &r in receivers {
            let mail = Mail::Update(tag, payload.snapshot());
            let _ = self.senders[externals_out[r]].send(mail);
        }
        if let Some(recon) = recon {
            pool.reclaim(recon);
        }
        Ok(())
    }

    fn grant(&mut self, idx: usize, n: u64) -> Result<(), RuntimeError> {
        let consumer = self.topo.external_in_neighbors(self.w)[idx];
        let _ = self.senders[consumer].send(Mail::Tokens(self.w, n));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkipConfig;
    use crate::report::StallDiag;
    use hop_data::webspam::SyntheticWebspam;
    use hop_model::svm::Svm;

    fn experiment(config: HopConfig) -> ThreadedExperiment {
        ThreadedExperiment {
            config,
            topology: Topology::ring(4),
            max_iters: 30,
            seed: 9,
            hyper: Hyper::svm(),
            compute_sleep: Duration::ZERO,
            slow_worker: None,
            stall_timeout: Duration::from_secs(20),
            faults: FaultPlan::none(),
        }
    }

    fn run(config: HopConfig) -> RuntimeReport {
        let dataset = Arc::new(SyntheticWebspam::generate(256, 3));
        let model = Arc::new(Svm::log_loss(hop_data::Dataset::feature_dim(
            dataset.as_ref(),
        )));
        experiment(config)
            .run(model, dataset)
            .expect("run succeeds")
    }

    /// Loss of the report's averaged replica on the first 128 examples.
    fn averaged_loss(report: &RuntimeReport) -> f32 {
        let dataset = SyntheticWebspam::generate(256, 3);
        let model = Svm::log_loss(hop_data::Dataset::feature_dim(&dataset));
        let eval: Vec<usize> = (0..128).collect();
        let batch = hop_data::Dataset::batch(&dataset, &eval);
        hop_model::Model::loss(&model, &report.averaged_params(), &batch)
    }

    #[test]
    fn standard_converges_on_threads() {
        let report = run(HopConfig::standard());
        let loss = averaged_loss(&report);
        assert!(loss < 0.6, "final averaged loss {loss}");
        for w in 0..4 {
            assert_eq!(report.losses[w].len(), 30);
        }
    }

    #[test]
    fn compressed_sends_converge_on_threads() {
        // Top-25% gossip on real threads: the protocol still completes
        // and the averaged replica still learns (the reference stream
        // re-injects dropped mass message by message).
        let cfg = HopConfig::standard()
            .with_compression(hop_tensor::CompressionConfig::TopK { ratio: 0.25 });
        let loss = averaged_loss(&run(cfg));
        assert!(loss < 0.65, "final averaged loss {loss}");
    }

    #[test]
    fn tokens_backup_and_staleness_run() {
        for cfg in [
            HopConfig::standard_with_tokens(4),
            HopConfig::backup(1, 4),
            HopConfig::staleness(3, 4),
            HopConfig::hybrid(1, 3, 4),
        ] {
            let report = run(cfg.clone());
            assert_eq!(report.final_params.len(), 4, "{cfg:?}");
        }
    }

    #[test]
    fn skip_jumps_on_real_threads() {
        // A 20x straggler under backup + skip: the straggler must jump
        // (fewer loss entries than max_iters) and every worker finishes.
        // Jumping depends on real thread timing, so allow a few attempts
        // on a loaded machine before declaring skip mode broken.
        let dataset = Arc::new(SyntheticWebspam::generate(256, 3));
        let model = Arc::new(Svm::log_loss(hop_data::Dataset::feature_dim(
            dataset.as_ref(),
        )));
        let mut exp = experiment(HopConfig::backup(1, 4).with_skip(SkipConfig {
            max_jump: 6,
            trigger_behind: 2,
        }));
        exp.compute_sleep = Duration::from_micros(500);
        exp.slow_worker = Some((0, 20));
        exp.max_iters = 40;
        let mut straggler_iters = usize::MAX;
        for _ in 0..3 {
            let report = exp
                .run(Arc::clone(&model) as Arc<dyn Model>, Arc::clone(&dataset))
                .expect("skip-mode run succeeds");
            assert_eq!(report.final_params.len(), 4);
            for w in 1..4 {
                assert_eq!(report.losses[w].len(), 40, "worker {w}");
            }
            straggler_iters = straggler_iters.min(report.losses[0].len());
            if straggler_iters < 40 {
                break;
            }
        }
        assert!(
            straggler_iters < 40,
            "straggler computed all {straggler_iters} iterations despite skipping"
        );
    }

    #[test]
    fn notify_ack_is_rejected() {
        let dataset = Arc::new(SyntheticWebspam::generate(64, 3));
        let model = Arc::new(Svm::log_loss(hop_data::Dataset::feature_dim(
            dataset.as_ref(),
        )));
        let err = experiment(HopConfig::notify_ack())
            .run(model, dataset)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Unsupported(_)));
    }

    #[test]
    fn averaged_params_of_empty_report_is_empty() {
        // Regression: this used to index `views[0]` and panic.
        let report = RuntimeReport::default();
        assert!(report.averaged_params().is_empty());
    }

    #[test]
    fn stalled_error_is_debuggable() {
        let e = RuntimeError::Stalled {
            worker: 2,
            iter: 7,
            waiting_for: "updates",
            diag: StallDiag::Updates {
                queue_depth: 3,
                pending: vec![Tag { iter: 6, w_id: 1 }],
                last_consumed: Some(Tag { iter: 6, w_id: 3 }),
            },
        };
        let s = format!("{e}");
        assert!(s.contains("worker 2"), "{s}");
        assert!(s.contains("depth 3"), "{s}");
        assert!(s.contains("(iter 6, w 1)"), "{s}");
        assert!(s.contains("last consumed iter 6 from worker 3"), "{s}");
        let e = RuntimeError::Stalled {
            worker: 1,
            iter: 2,
            waiting_for: "tokens",
            diag: StallDiag::Tokens {
                available: vec![(0, 0), (3, 2)],
            },
        };
        let s = format!("{e}");
        assert!(s.contains("waiting for tokens"), "{s}");
        assert!(s.contains("TokenQ(0): 0"), "{s}");
        assert!(s.contains("TokenQ(3): 2"), "{s}");
    }

    #[test]
    fn token_stall_reports_token_queue_state() {
        // Regression: the token-wait stall used to report the *update*
        // queue's diagnostics while claiming to wait for tokens. Force a
        // genuine token stall: backup(1, 2) on a 2-ring lets worker 1
        // reduce on its own update alone (quota 1), so the only thing
        // binding it to the sleeping worker 0 is the token queue — the
        // ig = 2 preload runs dry at iteration 2 while worker 0 is still
        // asleep in its first compute.
        let dataset = Arc::new(SyntheticWebspam::generate(64, 3));
        let model = Arc::new(Svm::log_loss(hop_data::Dataset::feature_dim(
            dataset.as_ref(),
        )));
        let exp = ThreadedExperiment {
            config: HopConfig::backup(1, 2),
            topology: Topology::ring(2),
            max_iters: 3,
            seed: 9,
            hyper: Hyper::svm(),
            compute_sleep: Duration::from_millis(10),
            slow_worker: Some((0, 40)),
            stall_timeout: Duration::from_millis(60),
            faults: FaultPlan::none(),
        };
        let err = exp.run(model, dataset).unwrap_err();
        match &err {
            RuntimeError::Stalled {
                worker,
                waiting_for,
                diag,
                ..
            } => {
                assert_eq!(*worker, 1, "{err}");
                assert_eq!(*waiting_for, "tokens", "{err}");
                match diag {
                    StallDiag::Tokens { available } => {
                        assert_eq!(available.as_slice(), &[(0, 0)], "{err}");
                    }
                    other => panic!("token stall carried update diagnostics: {other:?}"),
                }
            }
            other => panic!("expected a stall, got {other:?}"),
        }
    }
}
