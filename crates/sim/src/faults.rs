//! Deterministic fault injection: message loss, worker churn and
//! byzantine updates.
//!
//! Hop's headline claims (backup workers, Fig. 8; skip/jump, §5) are
//! robustness claims, so the simulator needs disturbances stronger than
//! static slowdowns. A [`FaultPlan`] describes *what* goes wrong — a
//! per-message loss rate, worker crashes with later rejoin, byzantine
//! workers corrupting their outgoing updates — and a [`NetModel`] turns the plan into per-message
//! verdicts and per-event bookkeeping. Like
//! [`crate::hetero::SlowdownModel`], every probabilistic draw is a pure
//! function of `(seed, from, to, iteration)`, so the same experiment
//! produces the same faults no matter how simulator events interleave,
//! and same-seed chaos runs are bit-identical.
//!
//! The [`FaultLog`] sidecar records every fault that actually fired. The
//! conformance oracle replays it next to the protocol trace to decide
//! which invariant breaks are *licensed* by a fault (a lost update, a gap
//! opened by a crashed worker) and which are genuine protocol bugs.

use hop_util::rng::splitmix64;

/// Seed whitener for loss draws, keeping the fault stream independent of
/// the slowdown and jitter streams derived from the same master seed.
const LOSS_SALT: u64 = 0xFA01_7B1A_5EED_CA57;

/// How a byzantine worker corrupts its outgoing parameter updates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ByzVariant {
    /// Negates every coordinate (gradient ascent from the receivers'
    /// point of view).
    SignFlip,
    /// Multiplies every coordinate by the factor (e.g. `10.0` for a
    /// blow-up attack, `0.0` for a zeroing attack).
    Scaled(f32),
    /// Freezes the update: from `from_iter` on, every outgoing message
    /// replays the first update sent after corruption began.
    StaleReplay,
}

impl ByzVariant {
    /// Stable name used in [`FaultLog`] text serialization.
    pub fn name(&self) -> &'static str {
        match self {
            ByzVariant::SignFlip => "sign_flip",
            ByzVariant::Scaled(_) => "scaled",
            ByzVariant::StaleReplay => "stale_replay",
        }
    }
}

/// A scheduled crash: `worker` dies on its first entry into an iteration
/// `>= at_iter` (a skip jump over `at_iter` does not dodge it) and
/// becomes eligible to rejoin once some live worker has progressed
/// `down_iters` iterations past the one the crash fired at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashSpec {
    /// Worker that crashes.
    pub worker: usize,
    /// The crash fires at the first iteration entry at or after this.
    pub at_iter: u64,
    /// Live-cluster progress (iterations past the crash) required before
    /// the worker rejoins.
    pub down_iters: u64,
}

/// A byzantine worker: from iteration `from_iter` on, its outgoing
/// updates are corrupted per `variant`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzSpec {
    /// The corrupting worker.
    pub worker: usize,
    /// First iteration whose outgoing updates are corrupted.
    pub from_iter: u64,
    /// Corruption applied.
    pub variant: ByzVariant,
}

/// A deterministic, seedable schedule of faults. The default plan is
/// empty and injects nothing: with it, every experiment is bit-identical
/// to a run without the fault plane at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    loss: f64,
    crashes: Vec<CrashSpec>,
    byzantine: Vec<ByzSpec>,
}

impl FaultPlan {
    /// An empty plan (same as `Default`).
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the global per-message loss probability. Validation (not this
    /// builder) rejects rates outside `[0, 1)` or NaN, so invalid rates
    /// surface as configuration errors rather than panics.
    pub fn with_loss(mut self, rate: f64) -> Self {
        self.loss = rate;
        self
    }

    /// Schedules a crash/rejoin cycle.
    pub fn with_crash(mut self, crash: CrashSpec) -> Self {
        self.crashes.push(crash);
        self
    }

    /// Marks a worker byzantine.
    pub fn with_byzantine(mut self, byz: ByzSpec) -> Self {
        self.byzantine.push(byz);
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.loss == 0.0 && self.crashes.is_empty() && self.byzantine.is_empty()
    }

    /// The scheduled crashes.
    pub fn crashes(&self) -> &[CrashSpec] {
        &self.crashes
    }

    /// The byzantine workers.
    pub fn byzantine(&self) -> &[ByzSpec] {
        &self.byzantine
    }

    /// The per-message loss rate.
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// Checks the plan for malformed knobs: the loss rate must be finite
    /// and in `[0, 1)`, crash downtimes must be at least one iteration and
    /// byzantine scale factors must be finite.
    ///
    /// # Errors
    ///
    /// Returns a static description of the first problem found.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !(self.loss.is_finite() && (0.0..1.0).contains(&self.loss)) {
            return Err("loss rate must be finite and in [0, 1)");
        }
        if self.crashes.iter().any(|c| c.down_iters == 0) {
            return Err("crash downtime must be at least one iteration");
        }
        if let Some(ByzSpec {
            variant: ByzVariant::Scaled(f),
            ..
        }) = self
            .byzantine
            .iter()
            .find(|b| matches!(b.variant, ByzVariant::Scaled(f) if !f.is_finite()))
        {
            let _ = f;
            return Err("byzantine scale factor must be finite");
        }
        Ok(())
    }
}

/// Per-message verdict from the [`NetModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Deliver at the physical arrival time.
    Deliver,
    /// The message is lost.
    Drop,
}

/// One fault that actually fired during a run.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// A payload message was lost.
    Loss {
        /// Sender.
        from: usize,
        /// Intended receiver.
        to: usize,
        /// Sender's iteration tag on the message.
        iter: u64,
    },
    /// A worker crashed on entering `iter`.
    Crash {
        /// Crashed worker.
        worker: usize,
        /// Iteration whose entry triggered the crash.
        iter: u64,
    },
    /// A crashed worker rejoined at `target`, rehydrated from `donor`.
    Rejoin {
        /// Rejoining worker.
        worker: usize,
        /// Iteration the worker re-enters.
        target: u64,
        /// Live worker whose parameter snapshot seeded the rejoin.
        donor: usize,
    },
    /// A byzantine worker corrupted its outgoing updates for `iter`.
    Byzantine {
        /// Corrupting worker.
        worker: usize,
        /// Iteration whose updates were corrupted.
        iter: u64,
        /// Stable name of the corruption variant.
        kind: &'static str,
    },
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultEvent::Loss { from, to, iter } => {
                write!(f, "loss from={from} to={to} iter={iter}")
            }
            FaultEvent::Crash { worker, iter } => write!(f, "crash w={worker} iter={iter}"),
            FaultEvent::Rejoin {
                worker,
                target,
                donor,
            } => write!(f, "rejoin w={worker} target={target} donor={donor}"),
            FaultEvent::Byzantine { worker, iter, kind } => {
                write!(f, "byzantine w={worker} iter={iter} kind={kind}")
            }
        }
    }
}

/// The record of every fault that fired during a run — the sidecar the
/// fault-aware oracle replays next to the protocol trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The recorded events, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no fault fired.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// One event per line — the artifact format written next to failing
    /// conformance traces.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses [`Self::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns the first unparseable line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut log = Self::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            log.push(parse_fault_line(line).ok_or_else(|| line.to_string())?);
        }
        Ok(log)
    }
}

fn parse_fault_line(line: &str) -> Option<FaultEvent> {
    let mut parts = line.split_whitespace();
    let head = parts.next()?;
    let mut field = |key: &str| -> Option<u64> {
        let tok = parts.next()?;
        tok.strip_prefix(key)?.strip_prefix('=')?.parse().ok()
    };
    match head {
        "loss" => Some(FaultEvent::Loss {
            from: field("from")? as usize,
            to: field("to")? as usize,
            iter: field("iter")?,
        }),
        "crash" => Some(FaultEvent::Crash {
            worker: field("w")? as usize,
            iter: field("iter")?,
        }),
        "rejoin" => Some(FaultEvent::Rejoin {
            worker: field("w")? as usize,
            target: field("target")?,
            donor: field("donor")? as usize,
        }),
        "byzantine" => {
            let worker = field("w")? as usize;
            let iter = field("iter")?;
            let kind = parts.next()?.strip_prefix("kind=")?;
            let kind = ["sign_flip", "scaled", "stale_replay"]
                .into_iter()
                .find(|k| *k == kind)?;
            Some(FaultEvent::Byzantine { worker, iter, kind })
        }
        _ => None,
    }
}

/// Uniform in `[0, 1)` keyed by `(seed, from, to, iter)`, following the
/// [`crate::hetero::SlowdownModel::factor`] hashing idiom — the loss draw
/// behind [`NetModel::verdict`], exposed as a free function so the
/// threaded runtime's per-thread shim computes the identical draws from
/// the shared experiment seed without sharing a `NetModel`.
pub fn loss_draw(seed: u64, from: usize, to: usize, iter: u64) -> f64 {
    let mut state = seed ^ LOSS_SALT;
    let _ = splitmix64(&mut state);
    state ^= (((from as u64) << 32) | to as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let _ = splitmix64(&mut state);
    state ^= iter.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let draw = splitmix64(&mut state);
    (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Runtime fault state for one simulation: consumes a [`FaultPlan`],
/// issues per-message [`Verdict`]s, tracks which workers are dead, applies
/// byzantine corruption, and accumulates the [`FaultLog`].
#[derive(Debug, Clone)]
pub struct NetModel {
    plan: FaultPlan,
    seed: u64,
    dead: Vec<bool>,
    /// Per-crash-spec: the iteration the crash actually fired at (`None`
    /// until it does — a skip jump can push it past the spec's
    /// `at_iter`). The rejoin countdown runs from this, not the spec.
    crash_fired: Vec<Option<u64>>,
    crash_rejoined: Vec<bool>,
    replay: Vec<Option<Vec<f32>>>,
    byz_logged: Vec<Option<u64>>,
    log: FaultLog,
    empty: bool,
}

impl NetModel {
    /// Creates the runtime state for `plan` over `n` nodes under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the plan references a worker index `>= n`.
    pub fn new(plan: FaultPlan, seed: u64, n: usize) -> Self {
        let in_range = |w: usize| w < n;
        assert!(
            plan.crashes.iter().all(|c| in_range(c.worker))
                && plan.byzantine.iter().all(|b| in_range(b.worker)),
            "fault plan references a worker outside the cluster"
        );
        let empty = plan.is_empty();
        let n_crashes = plan.crashes.len();
        let n_byz = plan.byzantine.len();
        Self {
            plan,
            seed,
            dead: vec![false; n],
            crash_fired: vec![None; n_crashes],
            crash_rejoined: vec![false; n_crashes],
            replay: vec![None; n_byz],
            byz_logged: vec![None; n_byz],
            log: FaultLog::new(),
            empty,
        }
    }

    /// Whether the plan is empty — callers use this to short-circuit
    /// every fault hook so empty-plan runs stay bit-identical to runs
    /// without the fault plane.
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether `worker` is currently crashed.
    pub fn is_dead(&self, worker: usize) -> bool {
        !self.empty && self.dead[worker]
    }

    /// The accumulated fault log.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// Takes the accumulated fault log, leaving an empty one.
    pub fn take_log(&mut self) -> FaultLog {
        std::mem::take(&mut self.log)
    }

    /// The fate of a payload message from `from` to `to`, tagged with the
    /// sender's iteration `iter`. Logs a [`FaultEvent::Loss`] when the
    /// verdict is [`Verdict::Drop`]. The draw is a pure function of
    /// `(seed, from, to, iter)` — event interleaving cannot perturb it.
    pub fn verdict(&mut self, from: usize, to: usize, iter: u64) -> Verdict {
        if self.empty {
            return Verdict::Deliver;
        }
        let rate = self.plan.loss;
        if self.dead[from]
            || self.dead[to]
            || (rate > 0.0 && loss_draw(self.seed, from, to, iter) < rate)
        {
            self.log.push(FaultEvent::Loss { from, to, iter });
            return Verdict::Drop;
        }
        Verdict::Deliver
    }

    /// Fires a scheduled crash for `worker` entering `iter`, if any. The
    /// crash triggers on the first entry at or after its `at_iter` —
    /// not equality — so a §5 skip jumping over `at_iter` cannot dodge
    /// it. Marks the worker dead and logs [`FaultEvent::Crash`]. Returns
    /// whether a crash fired.
    pub fn try_crash(&mut self, worker: usize, iter: u64) -> bool {
        if self.empty || self.dead[worker] {
            return false;
        }
        for (i, c) in self.plan.crashes.iter().enumerate() {
            if c.worker == worker && iter >= c.at_iter && self.crash_fired[i].is_none() {
                self.crash_fired[i] = Some(iter);
                self.dead[worker] = true;
                self.log.push(FaultEvent::Crash { worker, iter });
                return true;
            }
        }
        false
    }

    /// The next crashed worker whose rejoin condition is met: some live
    /// worker has progressed `down_iters` past the iteration the crash
    /// actually fired at. Returns the worker, or `None`.
    pub fn due_rejoin(&self, max_live_iter: u64) -> Option<usize> {
        self.plan
            .crashes
            .iter()
            .enumerate()
            .find(|&(i, c)| {
                self.crash_fired[i]
                    .is_some_and(|at| !self.crash_rejoined[i] && max_live_iter >= at + c.down_iters)
            })
            .map(|(_, c)| c.worker)
    }

    /// Revives `worker` at `target`, rehydrated from `donor`; logs
    /// [`FaultEvent::Rejoin`].
    ///
    /// # Panics
    ///
    /// Panics if `worker` has no fired, un-rejoined crash entry.
    pub fn revive(&mut self, worker: usize, target: u64, donor: usize) {
        let idx = self
            .plan
            .crashes
            .iter()
            .enumerate()
            .position(|(i, c)| {
                c.worker == worker && self.crash_fired[i].is_some() && !self.crash_rejoined[i]
            })
            .expect("revive without a fired crash");
        self.crash_rejoined[idx] = true;
        self.dead[worker] = false;
        self.log.push(FaultEvent::Rejoin {
            worker,
            target,
            donor,
        });
    }

    /// Applies byzantine corruption to an outgoing update from `worker`
    /// tagged `iter`, in place. Returns whether the update was corrupted.
    /// Logged once per `(worker, iteration)`, not per message.
    pub fn corrupt(&mut self, worker: usize, iter: u64, params: &mut [f32]) -> bool {
        if self.empty {
            return false;
        }
        let Some((i, b)) = self
            .plan
            .byzantine
            .iter()
            .enumerate()
            .find(|&(_, b)| b.worker == worker && iter >= b.from_iter)
        else {
            return false;
        };
        match b.variant {
            ByzVariant::SignFlip => params.iter_mut().for_each(|p| *p = -*p),
            ByzVariant::Scaled(f) => params.iter_mut().for_each(|p| *p *= f),
            ByzVariant::StaleReplay => {
                let stored = self.replay[i].get_or_insert_with(|| params.to_vec());
                if stored.len() == params.len() {
                    params.copy_from_slice(stored);
                } else {
                    *stored = params.to_vec();
                }
            }
        }
        if self.byz_logged[i] != Some(iter) {
            self.byz_logged[i] = Some(iter);
            self.log.push(FaultEvent::Byzantine {
                worker,
                iter,
                kind: b.variant.name(),
            });
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let mut nm = NetModel::new(FaultPlan::default(), 7, 4);
        assert!(nm.is_empty());
        assert_eq!(nm.verdict(0, 1, 3), Verdict::Deliver);
        assert!(!nm.try_crash(0, 0));
        let mut p = [1.0f32, -2.0];
        assert!(!nm.corrupt(0, 0, &mut p));
        assert!(nm.log().is_empty());
    }

    #[test]
    fn loss_rate_hits_at_expected_frequency_and_is_deterministic() {
        let plan = FaultPlan::default().with_loss(0.25);
        let mut a = NetModel::new(plan.clone(), 11, 8);
        let mut b = NetModel::new(plan, 11, 8);
        let mut drops = 0u64;
        let trials = 16_000u64;
        for iter in 0..(trials / 4) {
            for to in 1..5usize {
                let va = a.verdict(0, to, iter);
                assert_eq!(va, b.verdict(0, to, iter));
                if va == Verdict::Drop {
                    drops += 1;
                }
            }
        }
        let rate = drops as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
        assert_eq!(a.log().len(), drops as usize);
    }

    #[test]
    fn crash_rejoin_lifecycle() {
        let plan = FaultPlan::default().with_crash(CrashSpec {
            worker: 2,
            at_iter: 3,
            down_iters: 4,
        });
        let mut nm = NetModel::new(plan, 3, 4);
        assert!(!nm.try_crash(2, 2));
        assert!(nm.try_crash(2, 3));
        assert!(nm.is_dead(2));
        assert!(!nm.try_crash(2, 3), "a crash fires once");
        // Dead endpoints lose traffic in both directions.
        assert_eq!(nm.verdict(2, 0, 3), Verdict::Drop);
        assert_eq!(nm.verdict(1, 2, 5), Verdict::Drop);
        assert_eq!(nm.due_rejoin(6), None);
        assert_eq!(nm.due_rejoin(7), Some(2));
        nm.revive(2, 8, 0);
        assert!(!nm.is_dead(2));
        assert_eq!(nm.due_rejoin(100), None);
        let kinds: Vec<String> = nm.log().events().iter().map(|e| e.to_string()).collect();
        assert_eq!(
            kinds,
            [
                "crash w=2 iter=3",
                "loss from=2 to=0 iter=3",
                "loss from=1 to=2 iter=5",
                "rejoin w=2 target=8 donor=0",
            ]
        );
    }

    #[test]
    fn byzantine_variants_corrupt_in_place() {
        let plan = FaultPlan::default()
            .with_byzantine(ByzSpec {
                worker: 0,
                from_iter: 2,
                variant: ByzVariant::SignFlip,
            })
            .with_byzantine(ByzSpec {
                worker: 1,
                from_iter: 0,
                variant: ByzVariant::Scaled(10.0),
            })
            .with_byzantine(ByzSpec {
                worker: 2,
                from_iter: 0,
                variant: ByzVariant::StaleReplay,
            });
        let mut nm = NetModel::new(plan, 3, 4);
        let mut p = [1.0f32, -2.0];
        assert!(!nm.corrupt(0, 1, &mut p), "before from_iter");
        assert!(nm.corrupt(0, 2, &mut p));
        assert_eq!(p, [-1.0, 2.0]);
        let mut q = [3.0f32];
        assert!(nm.corrupt(1, 5, &mut q));
        assert_eq!(q, [30.0]);
        let mut r = [1.0f32, 1.0];
        assert!(nm.corrupt(2, 0, &mut r));
        assert_eq!(r, [1.0, 1.0], "first replayed update is itself");
        let mut r2 = [9.0f32, 9.0];
        assert!(nm.corrupt(2, 1, &mut r2));
        assert_eq!(r2, [1.0, 1.0], "later updates replay the frozen one");
        // One log entry per (worker, iteration).
        let mut again = [0.0f32; 2];
        nm.corrupt(0, 2, &mut again);
        let byz_logs = nm
            .log()
            .events()
            .iter()
            .filter(|e| matches!(e, FaultEvent::Byzantine { worker: 0, .. }))
            .count();
        assert_eq!(byz_logs, 1);
    }

    #[test]
    fn validation_rejects_malformed_knobs() {
        assert!(FaultPlan::default().validate().is_ok());
        assert!(FaultPlan::default().with_loss(0.05).validate().is_ok());
        for bad in [-0.1, 1.0, 1.5, f64::NAN, f64::INFINITY] {
            assert!(FaultPlan::default().with_loss(bad).validate().is_err());
        }
        assert!(FaultPlan::default()
            .with_crash(CrashSpec {
                worker: 0,
                at_iter: 1,
                down_iters: 0
            })
            .validate()
            .is_err());
        assert!(FaultPlan::default()
            .with_byzantine(ByzSpec {
                worker: 0,
                from_iter: 0,
                variant: ByzVariant::Scaled(f32::NAN)
            })
            .validate()
            .is_err());
    }

    #[test]
    fn plan_range_checked_against_cluster() {
        let plan = FaultPlan::default().with_crash(CrashSpec {
            worker: 9,
            at_iter: 0,
            down_iters: 1,
        });
        let result = std::panic::catch_unwind(|| NetModel::new(plan, 0, 4));
        assert!(result.is_err());
    }

    #[test]
    fn fault_log_round_trips_through_text() {
        let mut log = FaultLog::new();
        log.push(FaultEvent::Loss {
            from: 1,
            to: 2,
            iter: 7,
        });
        log.push(FaultEvent::Crash { worker: 3, iter: 4 });
        log.push(FaultEvent::Rejoin {
            worker: 3,
            target: 9,
            donor: 0,
        });
        log.push(FaultEvent::Byzantine {
            worker: 5,
            iter: 6,
            kind: "sign_flip",
        });
        let text = log.to_text();
        assert_eq!(FaultLog::from_text(&text).unwrap(), log);
        assert!(FaultLog::from_text("gibberish here").is_err());
    }
}
