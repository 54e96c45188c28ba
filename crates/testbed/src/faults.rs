//! Seeded, deterministic fault injection — the chaos harness.
//!
//! Long measurement campaigns on shared infrastructure lose machines,
//! hit I/O errors, and get killed mid-run; the recovery layer
//! (`dataset::journal`, the engine, the cache and artifact writers) only
//! earns trust if those failure paths are exercised. A [`FaultPlan`] is
//! a pure function from a *site* — a stable string naming one failure
//! point, e.g. `campaign.machine.17` or `experiment.F9` — to a fault
//! decision, so a chaos run is exactly reproducible from its seed: the
//! same seed injects the same faults at the same sites no matter the
//! worker count, thread schedule, or how many times the run was killed
//! and resumed on the way.
//!
//! Decisions hash `(seed, kind, site, attempt)` with FNV-1a and compare
//! against a per-mille rate. Nothing is stateful: two threads asking
//! about the same site get the same answer, and a resumed process
//! re-derives the plan from the seed alone.
//!
//! # The recovery guarantee
//!
//! [`FaultPlan::transient`] and [`FaultPlan::io_error`] never fire on
//! attempt [`MAX_FAULTS_PER_SITE`] or later, and the default
//! [`FaultPolicy`] retries exactly that many times — so an injected
//! transient fault is always survivable under the default policy, and a
//! chaos run that resumes to completion is byte-identical to a fault-free
//! run. Persistent failures (real bugs, real bad disks) still surface:
//! they are not attempt-limited and exhaust the retry budget.
//!
//! # One retry loop
//!
//! Every budgeted retry in the workspace is [`FaultPolicy::retry`]: the
//! caller's `op` makes one attempt (its own [`FaultPlan`] check first,
//! counted with [`FaultTally::inject`]), and the policy decides whether
//! another follows. Every retry lands in one [`FaultTally`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use durable::fnv1a64;

/// Injected transient/I/O faults fire at most this many times per site.
/// Matches the default retry budget of [`FaultPolicy`], so default-policy
/// runs always recover from injected faults.
pub const MAX_FAULTS_PER_SITE: u32 = 2;

/// A seeded chaos plan: which fault fires at which site.
///
/// Rates are per-mille (0–1000). The plan is `Copy` and carries no
/// state; share it freely across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    transient_per_mille: u32,
    io_per_mille: u32,
    death_per_mille: u32,
    kill_per_mille: u32,
    stall_per_mille: u32,
    torn_per_mille: u32,
}

impl FaultPlan {
    /// A plan with the default rates: 300‰ transient machine faults,
    /// 250‰ I/O errors, 120‰ worker deaths, plus the process-level rates
    /// (200‰ worker kills, 60‰ heartbeat stalls, 80‰ torn handoffs) used
    /// by distributed collection.
    pub fn new(seed: u64) -> Self {
        Self::with_rates(seed, 300, 250, 120).with_process_rates(200, 60, 80)
    }

    /// A plan with explicit per-mille rates (each clamped to 1000) for
    /// the in-process fault kinds. Process-level rates start at zero;
    /// arm them with [`Self::with_process_rates`].
    pub fn with_rates(seed: u64, transient: u32, io: u32, death: u32) -> Self {
        FaultPlan {
            seed,
            transient_per_mille: transient.min(1000),
            io_per_mille: io.min(1000),
            death_per_mille: death.min(1000),
            kill_per_mille: 0,
            stall_per_mille: 0,
            torn_per_mille: 0,
        }
    }

    /// Arms the process-level fault kinds exercised by distributed
    /// collection: whole-worker kills (the process equivalent of
    /// [`Self::worker_death`]), heartbeat stalls (the worker goes silent
    /// long enough to be declared dead), and torn journal handoffs (a
    /// freshly committed shard is destroyed as the worker dies). Rates
    /// are per-mille, clamped to 1000.
    pub fn with_process_rates(mut self, kill: u32, stall: u32, torn: u32) -> Self {
        self.kill_per_mille = kill.min(1000);
        self.stall_per_mille = stall.min(1000);
        self.torn_per_mille = torn.min(1000);
        self
    }

    /// The chaos seed this plan derives every decision from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether a transient fault (a machine dropping out of a
    /// measurement, an experiment failing sporadically) fires at `site`
    /// on retry number `attempt`. Never fires once `attempt` reaches
    /// [`MAX_FAULTS_PER_SITE`].
    pub fn transient(&self, site: &str, attempt: u32) -> bool {
        attempt < MAX_FAULTS_PER_SITE
            && self.roll("transient", site, attempt, self.transient_per_mille)
    }

    /// Whether an I/O error (journal, cache, or artifact write) fires at
    /// `site` on retry number `attempt`. Never fires once `attempt`
    /// reaches [`MAX_FAULTS_PER_SITE`].
    pub fn io_error(&self, site: &str, attempt: u32) -> bool {
        attempt < MAX_FAULTS_PER_SITE && self.roll("io", site, attempt, self.io_per_mille)
    }

    /// Whether the worker dies at `site`. Unlike the transient/I/O
    /// decisions this is not attempt-limited: the caller must place
    /// death sites *after* a durable commit (e.g. right after a machine's
    /// shard is journaled), so every resumed run makes monotonic progress
    /// and never revisits a site that already killed it.
    pub fn worker_death(&self, site: &str) -> bool {
        self.roll("death", site, 0, self.death_per_mille)
    }

    /// Whether a whole worker *process* is killed at `site` on the
    /// unit's reassignment round `attempt`. Kill sites must sit after a
    /// durable commit (like [`Self::worker_death`]), and — because the
    /// supervisor bumps the unit's attempt counter on every reassignment
    /// — the attempt gate guarantees a unit stops being killed after
    /// [`MAX_FAULTS_PER_SITE`] rounds, so a bounded retry budget always
    /// converges.
    pub fn worker_kill(&self, site: &str, attempt: u32) -> bool {
        attempt < MAX_FAULTS_PER_SITE && self.roll("kill", site, attempt, self.kill_per_mille)
    }

    /// Whether a worker's heartbeat stalls at `site` on reassignment
    /// round `attempt`: the worker sleeps past the supervisor's staleness
    /// horizon without touching its lease, so a *live* worker is declared
    /// dead and its unit reassigned. Attempt-limited like
    /// [`Self::worker_kill`].
    pub fn heartbeat_stall(&self, site: &str, attempt: u32) -> bool {
        attempt < MAX_FAULTS_PER_SITE && self.roll("stall", site, attempt, self.stall_per_mille)
    }

    /// Whether a journal handoff is torn at `site` on reassignment round
    /// `attempt`: the worker dies *and* its just-committed shard is
    /// truncated mid-file, so the next claimant must detect the
    /// corruption (checksum) and re-collect rather than trust the bytes.
    /// Attempt-limited like [`Self::worker_kill`].
    pub fn torn_handoff(&self, site: &str, attempt: u32) -> bool {
        attempt < MAX_FAULTS_PER_SITE && self.roll("torn", site, attempt, self.torn_per_mille)
    }

    fn roll(&self, kind: &str, site: &str, attempt: u32, per_mille: u32) -> bool {
        let decision = format!(
            "chaos={}\nkind={kind}\nsite={site}\nattempt={attempt}\n",
            self.seed
        );
        fnv1a64(decision.as_bytes()) % 1000 < per_mille as u64
    }
}

/// How the pipeline reacts to transient failures: how often to retry and
/// how long to back off between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Retries after the first failure before giving up. The default (2)
    /// equals [`MAX_FAULTS_PER_SITE`], so injected faults always recover.
    pub max_retries: u32,
    /// Base backoff before the first retry; doubles per attempt (see
    /// `FaultPolicy::backoff_for`).
    pub backoff: Duration,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_retries: MAX_FAULTS_PER_SITE,
            backoff: Duration::from_millis(25),
        }
    }
}

impl FaultPolicy {
    /// A policy with an explicit retry budget and base backoff.
    pub fn new(max_retries: u32, backoff: Duration) -> Self {
        FaultPolicy {
            max_retries,
            backoff,
        }
    }

    /// Exponential backoff before retry `attempt` (0-based), capped at
    /// 64x the base so a misconfigured budget cannot sleep forever.
    fn backoff_for(&self, attempt: u32) -> Duration {
        self.backoff * 2u32.pow(attempt.min(6))
    }

    /// Runs `op(attempt)` from attempt `start` on. While it fails with an
    /// error `retryable` accepts and `attempt < max_retries`, counts a
    /// retry in `tally`, sleeps `Self::backoff_for(attempt)` and runs
    /// the next attempt. Returns the first success, or the error that
    /// ended the loop.
    pub fn retry<T, E>(
        &self,
        start: u32,
        tally: &FaultTally,
        mut op: impl FnMut(u32) -> Result<T, E>,
        retryable: impl Fn(&E) -> bool,
    ) -> Result<T, E> {
        let mut attempt = start;
        loop {
            match op(attempt) {
                Err(e) if retryable(&e) && attempt < self.max_retries => {
                    tally.retried.fetch_add(1, Ordering::Relaxed);
                    telemetry::metrics::counter("fault.retried").inc();
                    std::thread::sleep(self.backoff_for(attempt));
                    attempt += 1;
                }
                outcome => return outcome,
            }
        }
    }
}

/// Faults injected and retries made, by whoever shares this tally; each
/// also bumps the `fault.injected` / `fault.retried` telemetry counter.
#[derive(Debug, Default)]
pub struct FaultTally {
    injected: AtomicU64,
    retried: AtomicU64,
}

impl FaultTally {
    /// Counts one injected fault.
    pub fn inject(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        telemetry::metrics::counter("fault.injected").inc();
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Retries made so far ([`FaultPolicy::retry`]).
    pub fn retried(&self) -> u64 {
        self.retried.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::new(7);
        let b = FaultPlan::new(7);
        let c = FaultPlan::new(8);
        let mut agree = 0;
        let mut differ = 0;
        for site in 0..200 {
            let site = format!("campaign.machine.{site}");
            assert_eq!(a.transient(&site, 0), b.transient(&site, 0));
            assert_eq!(a.io_error(&site, 1), b.io_error(&site, 1));
            assert_eq!(a.worker_death(&site), b.worker_death(&site));
            if a.transient(&site, 0) == c.transient(&site, 0) {
                agree += 1;
            } else {
                differ += 1;
            }
        }
        assert!(differ > 0, "different seeds must differ somewhere");
        assert!(agree > 0);
    }

    #[test]
    fn rates_roughly_match_over_many_sites() {
        let plan = FaultPlan::with_rates(42, 300, 250, 120);
        let n = 10_000;
        let transient = (0..n)
            .filter(|i| plan.transient(&format!("s{i}"), 0))
            .count();
        let death = (0..n)
            .filter(|i| plan.worker_death(&format!("s{i}")))
            .count();
        // 300 per mille +- a generous tolerance.
        assert!((2_500..3_500).contains(&transient), "{transient}");
        assert!((800..1_600).contains(&death), "{death}");
    }

    #[test]
    fn injection_budget_respects_the_default_retry_budget() {
        // A plan at 1000 per mille fires on every eligible attempt, but
        // never on attempt MAX_FAULTS_PER_SITE — so the default policy
        // always reaches a fault-free attempt.
        let plan = FaultPlan::with_rates(1, 1000, 1000, 1000);
        let policy = FaultPolicy::default();
        for attempt in 0..MAX_FAULTS_PER_SITE {
            assert!(plan.transient("x", attempt));
            assert!(plan.io_error("x", attempt));
        }
        assert!(!plan.transient("x", MAX_FAULTS_PER_SITE));
        assert!(!plan.io_error("x", MAX_FAULTS_PER_SITE));
        assert!(policy.max_retries >= MAX_FAULTS_PER_SITE);
    }

    #[test]
    fn zero_rates_never_fire() {
        let plan = FaultPlan::with_rates(9, 0, 0, 0);
        for i in 0..100 {
            let site = format!("s{i}");
            assert!(!plan.transient(&site, 0));
            assert!(!plan.io_error(&site, 0));
            assert!(!plan.worker_death(&site));
            assert!(!plan.worker_kill(&site, 0));
            assert!(!plan.heartbeat_stall(&site, 0));
            assert!(!plan.torn_handoff(&site, 0));
        }
    }

    #[test]
    fn with_rates_leaves_process_faults_disarmed() {
        // Pre-existing chaos tests built plans with `with_rates` and
        // never expected process-level faults; the builder must not arm
        // them retroactively.
        let plan = FaultPlan::with_rates(3, 1000, 1000, 1000);
        for i in 0..50 {
            let site = format!("s{i}");
            assert!(!plan.worker_kill(&site, 0));
            assert!(!plan.heartbeat_stall(&site, 0));
            assert!(!plan.torn_handoff(&site, 0));
        }
    }

    #[test]
    fn process_faults_are_attempt_limited_and_deterministic() {
        let plan = FaultPlan::with_rates(4, 0, 0, 0).with_process_rates(1000, 1000, 1000);
        for attempt in 0..MAX_FAULTS_PER_SITE {
            assert!(plan.worker_kill("u0.m1", attempt));
            assert!(plan.heartbeat_stall("u0.m1", attempt));
            assert!(plan.torn_handoff("u0.m1", attempt));
        }
        // Past the budget a unit can no longer be killed, stalled, or
        // torn — a bounded reassignment budget always converges.
        assert!(!plan.worker_kill("u0.m1", MAX_FAULTS_PER_SITE));
        assert!(!plan.heartbeat_stall("u0.m1", MAX_FAULTS_PER_SITE));
        assert!(!plan.torn_handoff("u0.m1", MAX_FAULTS_PER_SITE));
        // Deterministic: the same (seed, site, attempt) always agrees.
        let again = FaultPlan::with_rates(4, 0, 0, 0).with_process_rates(400, 400, 400);
        for i in 0..100 {
            let site = format!("u{i}.m{i}");
            assert_eq!(again.worker_kill(&site, 1), again.worker_kill(&site, 1));
        }
    }

    #[test]
    fn default_plan_arms_process_faults() {
        let plan = FaultPlan::new(42);
        let kills = (0..1000)
            .filter(|i| plan.worker_kill(&format!("u{i}.m{i}"), 0))
            .count();
        // 200 per mille +- a generous tolerance.
        assert!((120..300).contains(&kills), "{kills}");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = FaultPolicy::new(3, Duration::from_millis(10));
        assert_eq!(policy.backoff_for(0), Duration::from_millis(10));
        assert_eq!(policy.backoff_for(1), Duration::from_millis(20));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(40));
        assert_eq!(policy.backoff_for(100), Duration::from_millis(640));
    }

    /// What a test `op` fails with: the attempt it failed, and whether
    /// the failure is retryable.
    type Failure = (u32, bool);

    /// Runs `retry` from `start` over an `op` whose calls fail as
    /// `retryable` says, in order, and succeed after the last; returns
    /// the outcome, the attempts `op` saw, and the tally's retries.
    fn run_retry(
        max_retries: u32,
        start: u32,
        retryable: &[bool],
    ) -> (Result<u32, Failure>, Vec<u32>, u64) {
        let policy = FaultPolicy::new(max_retries, Duration::ZERO);
        let tally = FaultTally::default();
        let mut seen = Vec::new();
        let outcome = policy.retry(
            start,
            &tally,
            |attempt| {
                seen.push(attempt);
                match retryable.get(seen.len() - 1) {
                    Some(&r) => Err((attempt, r)),
                    None => Ok(attempt),
                }
            },
            |&(_, r): &Failure| r,
        );
        assert_eq!(tally.injected(), 0, "only the caller's op injects");
        (outcome, seen, tally.retried())
    }

    #[test]
    fn retry_returns_the_first_ok_without_retrying() {
        assert_eq!(run_retry(3, 0, &[]), (Ok(0), vec![0], 0));
        assert_eq!(run_retry(3, 0, &[true, true]), (Ok(2), vec![0, 1, 2], 2));
    }

    #[test]
    fn retry_spends_exactly_the_budget_and_returns_the_last_error() {
        let (outcome, seen, retried) = run_retry(3, 0, &[true; 10]);
        assert_eq!(outcome, Err((3, true)));
        assert_eq!(seen, [0, 1, 2, 3]);
        assert_eq!(retried, 3);
        assert_eq!(run_retry(0, 0, &[true]), (Err((0, true)), vec![0], 0));
    }

    #[test]
    fn retry_returns_a_non_retryable_error_at_once() {
        assert_eq!(run_retry(3, 0, &[false]), (Err((0, false)), vec![0], 0));
        assert_eq!(
            run_retry(3, 0, &[true, false]),
            (Err((1, false)), vec![0, 1], 1)
        );
    }

    #[test]
    fn retry_from_attempt_k_gets_the_rest_of_the_budget() {
        for k in 0..=3 {
            let (outcome, seen, retried) = run_retry(3, k, &[true; 10]);
            assert_eq!(outcome, Err((3, true)), "start {k}");
            assert_eq!(seen, (k..=3).collect::<Vec<_>>(), "start {k}");
            assert_eq!(retried, u64::from(3 - k), "start {k}");
        }
        // A start past the budget is one attempt, never retried.
        assert_eq!(run_retry(3, 5, &[true]), (Err((5, true)), vec![5], 0));
    }

    #[test]
    fn the_tally_counts_injections() {
        let tally = FaultTally::default();
        tally.inject();
        tally.inject();
        assert_eq!((tally.injected(), tally.retried()), (2, 0));
    }
}
