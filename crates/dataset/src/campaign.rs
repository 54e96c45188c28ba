//! The data-collection campaign generator.
//!
//! Recreates the paper's measurement campaign on the simulated testbed:
//! a fleet is provisioned ([`provision`]), and every machine runs every
//! benchmark in periodic sessions across a multi-month timeline
//! ([`collect`]). The result is one [`Store`], or one complete shard
//! journal, that all experiment pipelines slice.
//!
//! Two presets exist: [`CampaignConfig::quick`] (a small fleet,
//! CI-friendly, finishes in well under a second) and
//! [`CampaignConfig::paper`] (full fleet, ten months, millions of points
//! — the scale of the published dataset).
//!
//! # Parallel collection and the determinism contract
//!
//! The per-machine collect loop is embarrassingly parallel: every
//! measurement derives from an RNG stream owned by its machine
//! ([`testbed::machine_stream`]), so no draw depends on which thread — or
//! in which order — another machine is measured. [`collect`] therefore
//! shards the selected machines across `min(cores, machines)` scoped
//! worker threads by default, and **guarantees the resulting dataset is
//! byte-identical for any worker count** (`tests/parallel_determinism.rs`
//! enforces this): machines are sorted by id, split into contiguous
//! chunks, and the per-worker shards are merged back in chunk order.

use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use testbed::{catalog, Cluster, FaultPlan, FaultPolicy, FaultTally, Machine, MachineId, Timeline};
use workloads::{BenchmarkId, Sampler};

use crate::journal::{JournalError, ShardBuf, ShardJournal};
use crate::record::Record;
use crate::store::{sorted_machine_ids, Store};
use crate::stream::{Residency, Shard, ShardReader, StreamStats};

/// Parameters of a simulated campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Fleet scale (1.0 = the full ~900-machine catalog).
    pub scale: f64,
    /// Campaign length in days.
    pub duration_days: f64,
    /// Days between measurement sessions.
    pub session_every_days: f64,
    /// Repetitions of each benchmark per session.
    pub runs_per_session: usize,
    /// Benchmarks to run (defaults to the full suite).
    pub benchmarks: Vec<BenchmarkId>,
    /// Cap on machines per type (None = whole fleet). Lets quick mode
    /// keep type diversity without the full fleet.
    pub machines_per_type: Option<usize>,
    /// Master seed (drives provisioning and every measurement).
    pub seed: u64,
}

impl CampaignConfig {
    /// CI-friendly preset: ~30 machines, 10 sessions, 5 runs each
    /// (50 samples per machine x benchmark, like the paper's
    /// 50-repetition experiments).
    pub fn quick(seed: u64) -> Self {
        Self {
            scale: 0.1,
            duration_days: 300.0,
            session_every_days: 30.0,
            runs_per_session: 5,
            benchmarks: BenchmarkId::ALL.to_vec(),
            machines_per_type: Some(3),
            seed,
        }
    }

    /// Full-scale preset: the whole fleet over ten months with 100
    /// sessions — millions of data points, the scale of the published
    /// dataset.
    pub fn paper(seed: u64) -> Self {
        Self {
            scale: 1.0,
            duration_days: 300.0,
            session_every_days: 3.0,
            runs_per_session: 5,
            benchmarks: BenchmarkId::ALL.to_vec(),
            machines_per_type: None,
            seed,
        }
    }

    /// Number of sessions the timeline yields.
    pub fn sessions(&self) -> usize {
        (self.duration_days / self.session_every_days).floor() as usize
    }

    /// Records one machine's shard holds: every benchmark, session and
    /// run.
    pub fn records_per_machine(&self) -> usize {
        self.benchmarks.len() * self.sessions() * self.runs_per_session
    }
}

/// Worker count [`collect`] uses when none is given: one per available
/// core (1 if parallelism cannot be queried).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Provisions the simulated cluster a campaign collects from: the
/// catalog fleet at the campaign's scale on the CloudLab timeline,
/// seeded by the campaign. Every collector (in-process, the analysis
/// context, distributed workers) provisions through here, so all of them
/// agree on the machine universe exactly.
pub fn provision(config: &CampaignConfig) -> Cluster {
    Cluster::provision(
        catalog(),
        config.scale,
        Timeline::cloudlab_default(),
        config.seed,
    )
}

/// How [`collect`] checkpoints, injects, and retries.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollectOptions<'a> {
    /// Worker threads (`None` = one per core, clamped to the number of
    /// machines still to collect).
    pub jobs: Option<usize>,
    /// Write-ahead journal, and where the records go. Without one they
    /// stay in memory. With one, completed machine shards already present
    /// are replayed instead of re-collected, and every freshly collected
    /// shard is durably recorded, then dropped, before the worker moves on.
    pub journal: Option<&'a ShardJournal>,
    /// Chaos plan; `None` injects nothing.
    pub faults: Option<FaultPlan>,
    /// Retry budget and backoff for transient machine faults and
    /// journal-write I/O errors.
    pub policy: FaultPolicy,
}

/// Why a collection could not complete.
#[derive(Debug)]
pub enum CampaignError {
    /// The journal could not be opened or written (after retries).
    Journal(JournalError),
    /// A chaos-injected worker death. The machine named here *was*
    /// durably journaled first, so a resumed run makes progress past it.
    WorkerKilled {
        /// The machine whose post-commit site fired.
        machine: MachineId,
    },
    /// A machine kept failing past the retry budget.
    MachineFailed {
        /// The machine that failed.
        machine: MachineId,
        /// Total attempts made (initial + retries).
        attempts: u32,
        /// Human-readable cause of the final failure.
        message: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Journal(e) => write!(f, "{e}"),
            CampaignError::WorkerKilled { machine } => write!(
                f,
                "campaign worker killed by chaos injection after journaling machine {}",
                machine.0
            ),
            CampaignError::MachineFailed {
                machine,
                attempts,
                message,
            } => write!(
                f,
                "machine {} failed after {attempts} attempts: {message}",
                machine.0
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

/// Counters describing one collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectReport {
    /// Machines replayed from the journal instead of re-collected.
    pub replayed: usize,
    /// Machines collected fresh this run.
    pub collected: usize,
    /// Chaos faults injected (transient + I/O + deaths).
    pub injected: u64,
    /// Retries performed after transient or I/O failures.
    pub retried: u64,
    /// Records in the dataset: the replayed shards' plus the fresh ones.
    pub records: usize,
}

/// A completed collection: the dataset, when it stayed in memory, plus
/// its counters.
#[derive(Debug)]
pub struct Collected {
    /// The full campaign dataset, byte-identical to an uninterrupted
    /// single-threaded run; `None` when the records went to the journal
    /// instead ([`crate::ShardReader`] reads them back).
    pub store: Option<Store>,
    /// Replay/collection/fault accounting.
    pub report: CollectReport,
}

/// Runs a campaign's measurement phase against a provisioned cluster:
/// the one collection entry point behind every data path.
///
/// Machines are selected per type and sorted by id; the ones left to
/// collect are split into contiguous chunks, one scoped worker thread per
/// chunk. Worker spans are named `campaign.worker.N`, run on threads
/// named `campaign-worker-N`, and parent under the `campaign.collect`
/// span.
///
/// Where the records go follows from `options.journal`:
///
/// - without a journal, every worker keeps its shards, and they merge
///   back in machine-id order into [`Collected::store`];
/// - with one, phase 1 validates every shard already journaled (a full
///   decode, spread over the workers, in a `journal.check` span) and
///   replays the valid ones instead of re-collecting them. That is a
///   byte-identical substitute, because every measurement derives from
///   the machine's own RNG stream. Each fresh shard is journaled
///   atomically and dropped before the worker moves on, so a kill loses
///   at most the shards in flight and memory stays at O(jobs × largest
///   shard). On success the journal is complete. This full decode is
///   for callers that decode nothing afterwards (`repro collect`, the
///   distributed supervisor's final pass): it is the shards' one
///   validation. A run whose walk reads the journal, which every
///   `repro --resume` run is, goes through [`collect_streaming`]
///   instead, which checks envelopes only, because its walk decodes
///   every shard it did not write anyway.
///
/// With a [`FaultPlan`], transient machine faults and journal-write I/O
/// errors are injected at deterministic sites and retried by
/// `options.policy` ([`FaultPolicy::retry`]; the counts land in the
/// report and the `fault.injected` / `fault.retried` telemetry
/// counters). With a journal, worker deaths also fire at post-commit
/// sites ([`CampaignError::WorkerKilled`]); a resumed run never revisits
/// them, so repeated resume converges to a complete dataset.
///
/// The dataset is byte-identical for any worker count, any
/// replayed/collected split, and any chaos seed that lets the run
/// complete.
pub fn collect(
    cluster: &Cluster,
    config: &CampaignConfig,
    options: &CollectOptions<'_>,
) -> Result<Collected, CampaignError> {
    collect_with(cluster, config, options, Phase1::Decode).map(|(collected, _)| collected)
}

/// [`collect`] into `journal` (in place of `options.journal`) for a run
/// whose walk then reads it: every `--resume` run. Phase 1 checks each
/// journaled shard's envelope instead of decoding it
/// ([`ShardJournal::record_count`]: header, configuration, machine, the
/// campaign's record count, and a declared length equal to the file's,
/// so every truncation fails), and machines that fail are collected as
/// [`collect`] collects them. The returned reader's one full decode per
/// replayed shard is then the run's validation, and it heals what that
/// decode rejects, a same-length corruption or a shard removed since
/// ([`ShardReader::read`]). It regenerates the shards collected here
/// instead of decoding them back, which is cheaper.
///
/// # Errors
///
/// As [`collect`].
pub fn collect_streaming(
    cluster: &Cluster,
    config: &CampaignConfig,
    journal: &ShardJournal,
    options: &CollectOptions<'_>,
) -> Result<(ShardReader, CollectReport), CampaignError> {
    let options = CollectOptions {
        journal: Some(journal),
        ..*options
    };
    let (collected, fresh) = collect_with(cluster, config, &options, Phase1::Envelope)?;
    let healer = ShardGenerator::new(cluster, config, &options);
    let reader = ShardReader::healing(journal.clone(), healer, fresh);
    Ok((reader, collected.report))
}

/// How phase 1 of a collection tells that a journaled shard can be
/// replayed.
enum Phase1 {
    /// Decode and validate the whole shard.
    Decode,
    /// Check its envelope only ([`ShardJournal::record_count`]).
    Envelope,
}

/// [`collect`], with phase 1 checking journaled shards as `phase1` says;
/// also returns the ids of the machines phase 2 collected, ascending.
fn collect_with(
    cluster: &Cluster,
    config: &CampaignConfig,
    options: &CollectOptions<'_>,
    phase1: Phase1,
) -> Result<(Collected, Vec<MachineId>), CampaignError> {
    let _span = telemetry::span("campaign.collect");
    let selected = selected_machines(cluster, config);

    // Phase 1: a journaled shard that checks out is replayed; a missing
    // or invalid one leaves its machine pending.
    let mut pending = Vec::new();
    let mut replayed_records = 0;
    match options.journal {
        Some(journal) => {
            let _span = telemetry::span("journal.check");
            let ids: Vec<MachineId> = selected.iter().map(|m| m.id).collect();
            let counts = match phase1 {
                Phase1::Decode => journal
                    .fold_shards(&ids, options.jobs, |counts: &mut Vec<_>, _, shard| {
                        counts.push(shard.map(<[Record]>::len))
                    })
                    .concat(),
                Phase1::Envelope => {
                    let want = config.records_per_machine();
                    ids.iter()
                        .map(|&m| journal.check(m, want).then_some(want))
                        .collect()
                }
            };
            for (&m, count) in selected.iter().zip(counts) {
                match count {
                    Some(n) => replayed_records += n,
                    None => pending.push(m),
                }
            }
        }
        None => pending.clone_from(&selected),
    }
    let replayed = selected.len() - pending.len();
    telemetry::metrics::gauge("campaign.machines").set(selected.len() as f64);
    telemetry::metrics::counter("campaign.machines.replayed").add(replayed as u64);

    // Phase 2: collect the pending machines.
    let tally = FaultTally::default();
    let run = Run::new(cluster, config, options, &tally);
    let fresh = run.collect_sharded(&pending)?;
    let records = replayed_records + fresh.records;
    telemetry::metrics::counter("campaign.records").add(records as u64);
    let store = options.journal.is_none().then(|| {
        let mut store = Store::new();
        for shard in fresh.kept {
            store.extend(shard);
        }
        store
    });
    let report = run.report(replayed, pending.len(), records);
    Ok((
        Collected { store, report },
        pending.iter().map(|m| m.id).collect(),
    ))
}

/// The ids of the machines a campaign would collect, in the canonical
/// ascending order (`sorted_machine_ids`). This is the unit-of-work
/// universe distributed collection partitions: supervisor and workers
/// must agree on it exactly, and it is a pure function of the cluster
/// and configuration.
pub fn selected_machine_ids(cluster: &Cluster, config: &CampaignConfig) -> Vec<MachineId> {
    selected_machines(cluster, config)
        .into_iter()
        .map(|m| m.id)
        .collect()
}

/// Collects a single machine and journals its shard, with the same
/// transient-fault injection and retry semantics as [`collect`] — but no
/// post-commit worker-death site: the distributed layer places its own
/// process-level fault sites around this call. `options.journal` is
/// ignored; the shard goes to `journal`.
///
/// Returns the fault accounting for this one machine
/// (`collected == 1`, `replayed == 0`).
pub fn collect_one_machine(
    cluster: &Cluster,
    config: &CampaignConfig,
    machine: MachineId,
    journal: &ShardJournal,
    options: &CollectOptions<'_>,
) -> Result<CollectReport, CampaignError> {
    let machine = machine_in(cluster, machine)?;
    let tally = FaultTally::default();
    let run = Run::new(cluster, config, options, &tally);
    let recs = run.collect_machine_retrying(machine)?;
    run.journal_shard_retrying(journal, machine.id, &recs)?;
    Ok(run.report(0, 1, recs.len()))
}

/// Looks a machine up, or names it as the failure.
fn machine_in(cluster: &Cluster, machine: MachineId) -> Result<&Machine, CampaignError> {
    cluster
        .machine(machine)
        .ok_or_else(|| CampaignError::MachineFailed {
            machine,
            attempts: 0,
            message: "machine is not part of the provisioned cluster".to_string(),
        })
}

/// Regenerates a campaign's machine shards on demand, in memory: the
/// data source of a walk that needs neither a store nor a journal. Each
/// shard is exactly the one [`collect`] would keep or journal for that
/// machine, produced by the same retrying kernel, so a chaos plan
/// injects and retries the same `campaign.machine.m<id>` sites. As
/// collection collects each machine once, a machine takes its faults on
/// its first production only: later passes (a walker retried or run
/// alone) regenerate it fault-free, and a run that never walks takes
/// none.
///
/// Shards are residency-tracked [`Shard`] guards filled into pooled
/// buffers that dropped guards hand back, so steady-state production
/// allocates nothing per record. Clones share the pool, the residency
/// accounting and the fault state.
///
/// Making a generator sets the `campaign.machines` gauge; every
/// production adds to the `campaign.records` counter and the
/// `campaign.machine_secs` histogram.
#[derive(Debug, Clone)]
pub struct ShardGenerator {
    cluster: Cluster,
    config: CampaignConfig,
    machines: Vec<MachineId>,
    /// The chaos plan and retry policy; no journal.
    options: CollectOptions<'static>,
    /// Whether each of `machines` has had its first production, and so
    /// its faults.
    produced: Arc<[AtomicBool]>,
    tally: Arc<FaultTally>,
    residency: Residency,
}

impl ShardGenerator {
    /// A generator of the machines `config` selects on `cluster`
    /// ([`selected_machine_ids`]), injecting `options.faults` under
    /// `options.policy`. `options.jobs` and `options.journal` play no
    /// part: shards are produced on the calling thread and nothing is
    /// written.
    pub fn new(cluster: &Cluster, config: &CampaignConfig, options: &CollectOptions<'_>) -> Self {
        let machines = selected_machine_ids(cluster, config);
        telemetry::metrics::gauge("campaign.machines").set(machines.len() as f64);
        ShardGenerator {
            cluster: cluster.clone(),
            config: config.clone(),
            produced: machines.iter().map(|_| AtomicBool::new(false)).collect(),
            machines,
            options: CollectOptions {
                faults: options.faults,
                policy: options.policy,
                ..CollectOptions::default()
            },
            tally: Arc::default(),
            residency: Residency::default(),
        }
    }

    /// The machines this generator produces, ascending.
    pub fn machines(&self) -> &[MachineId] {
        &self.machines
    }

    /// Records in one pass over [`Self::machines`], by arithmetic.
    pub fn records(&self) -> usize {
        self.machines.len() * self.config.records_per_machine()
    }

    /// Produces one machine's shard, injecting and retrying transient
    /// faults under the policy if this is the machine's first
    /// production.
    ///
    /// # Errors
    ///
    /// [`CampaignError::MachineFailed`] for a machine outside the
    /// cluster, or one whose faults outlast the retry budget.
    pub fn produce(&self, machine: MachineId) -> Result<Shard, CampaignError> {
        let started = telemetry::enabled().then(Instant::now);
        let m = machine_in(&self.cluster, machine)?;
        let first = self
            .machines
            .binary_search(&machine)
            .map_or(true, |i| !self.produced[i].swap(true, Ordering::Relaxed));
        let options = CollectOptions {
            faults: self.options.faults.filter(|_| first),
            ..self.options
        };
        let run = Run::new(&self.cluster, &self.config, &options, &self.tally);
        let mut buf = self.residency.buffer();
        run.produce_retrying(m, &mut buf.records)?;
        if let Some(t) = started {
            telemetry::metrics::histogram("campaign.machine_secs")
                .record(t.elapsed().as_secs_f64());
            telemetry::metrics::counter("campaign.records").add(buf.records.len() as u64);
        }
        Ok(self.residency.hold(machine, buf))
    }

    /// Regenerates one machine's shard into `buf`, fault free whatever
    /// the generator's plan, through the retrying kernel
    /// [`collect_one_machine`] uses, and journals it when given a
    /// journal: how a streaming reader heals a shard its decode
    /// rejected, or replays one its collection wrote. The shard is not
    /// counted in [`Self::report`]; the journal-write retries are.
    pub(crate) fn regenerate(
        &self,
        machine: MachineId,
        buf: &mut ShardBuf,
        journal: Option<&ShardJournal>,
    ) -> Result<(), CampaignError> {
        let m = machine_in(&self.cluster, machine)?;
        let fault_free = CollectOptions {
            faults: None,
            ..self.options
        };
        let run = Run::new(&self.cluster, &self.config, &fault_free, &self.tally);
        run.produce_retrying(m, &mut buf.records)?;
        journal.map_or(Ok(()), |j| {
            run.journal_shard_retrying(j, machine, &buf.records)
        })
    }

    /// Production so far: one `collected` machine per shard produced
    /// (a machine produced in two passes counts twice), their records,
    /// and the faults injected and retried on the way.
    pub fn report(&self) -> CollectReport {
        let collected = self.residency.stats().shards_streamed() as usize;
        CollectReport {
            collected,
            records: collected * self.config.records_per_machine(),
            ..faults_in(&self.tally)
        }
    }

    /// The residency accounting shared by every shard produced.
    pub fn stats(&self) -> Arc<StreamStats> {
        self.residency.stats()
    }
}

/// Selects up to `machines_per_type` machines per type (whole fleet
/// otherwise), in the canonical ascending-id order shared by collection
/// and journal replay ([`sorted_machine_ids`]). Provisioning assigns ids
/// in type order, so this is usually already sorted; normalizing makes
/// the shard partition (and the merged record order) independent of
/// catalog iteration order.
fn selected_machines<'a>(cluster: &'a Cluster, config: &CampaignConfig) -> Vec<&'a Machine> {
    let mut of_type = Vec::new();
    for t in cluster.types() {
        let machines = cluster.machines_of_type(&t.name);
        let cap = config.machines_per_type.unwrap_or(machines.len());
        of_type.extend(machines.into_iter().take(cap));
    }
    sorted_machine_ids(of_type.iter().map(|m| m.id))
        .into_iter()
        .map(|id| cluster.machine(id).expect("selected machines exist"))
        .collect()
}

/// A tally's counts as a report with no machines or records.
fn faults_in(tally: &FaultTally) -> CollectReport {
    CollectReport {
        injected: tally.injected(),
        retried: tally.retried(),
        ..CollectReport::default()
    }
}

/// What one collection shares across its workers: the inputs and the
/// fault tally, which outlives the run (a collection's, or a
/// generator's across every shard it produces).
struct Run<'a> {
    cluster: &'a Cluster,
    config: &'a CampaignConfig,
    options: &'a CollectOptions<'a>,
    tally: &'a FaultTally,
}

/// Phase-2 output of one worker, or of all of them joined in chunk order.
#[derive(Default)]
struct Fresh {
    /// The collected shards in machine order; kept only without a journal.
    kept: Vec<Vec<Record>>,
    /// Records collected, kept or journaled.
    records: usize,
}

impl<'a> Run<'a> {
    fn new(
        cluster: &'a Cluster,
        config: &'a CampaignConfig,
        options: &'a CollectOptions<'a>,
        tally: &'a FaultTally,
    ) -> Self {
        Run {
            cluster,
            config,
            options,
            tally,
        }
    }

    fn report(&self, replayed: usize, collected: usize, records: usize) -> CollectReport {
        CollectReport {
            replayed,
            collected,
            records,
            ..faults_in(self.tally)
        }
    }

    /// Fans the pending machines across `options.jobs` scoped workers,
    /// joined in spawn order so error reporting and shard order never
    /// depend on which worker finishes first.
    fn collect_sharded(&self, pending: &[&Machine]) -> Result<Fresh, CampaignError> {
        let workers = self
            .options
            .jobs
            .unwrap_or_else(default_jobs)
            .clamp(1, pending.len().max(1));
        telemetry::metrics::gauge("campaign.workers").set(workers as f64);
        if workers <= 1 {
            return self.collect_chunk(pending, 0);
        }
        let chunk = pending.len().div_ceil(workers);
        let parent = telemetry::trace::current_context();
        let results: Vec<Result<Fresh, CampaignError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = pending
                .chunks(chunk)
                .enumerate()
                .map(|(i, machines)| {
                    std::thread::Builder::new()
                        .name(format!("campaign-worker-{i}"))
                        .spawn_scoped(scope, move || {
                            let _span = telemetry::span_in(format!("campaign.worker.{i}"), parent);
                            self.collect_chunk(machines, i)
                        })
                        .expect("spawning a campaign worker succeeds")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign workers do not panic"))
                .collect()
        });
        let mut fresh = Fresh::default();
        for result in results {
            let part = result?;
            fresh.kept.extend(part.kept);
            fresh.records += part.records;
        }
        Ok(fresh)
    }

    /// Collects one worker's slice of the pending machines. With a
    /// journal, each shard is journaled (then dropped) before the next
    /// machine; without one, it is kept.
    fn collect_chunk(&self, machines: &[&Machine], worker: usize) -> Result<Fresh, CampaignError> {
        let machine_secs = telemetry::metrics::histogram("campaign.machine_secs");
        let worker_secs =
            telemetry::metrics::histogram(&format!("campaign.machine_secs.w{worker}"));
        let mut fresh = Fresh::default();
        for machine in machines {
            let started = telemetry::enabled().then(Instant::now);
            let recs = self.collect_machine_retrying(machine)?;
            fresh.records += recs.len();
            match self.options.journal {
                Some(journal) => {
                    self.journal_shard_retrying(journal, machine.id, &recs)?;
                    // Post-commit death site: the shard above is durable,
                    // so a resumed run replays it and never re-reaches
                    // this site — every resume makes monotonic progress.
                    let site = format!("campaign.commit.m{}", machine.id.0);
                    if self.options.faults.is_some_and(|f| f.worker_death(&site)) {
                        self.tally.inject();
                        return Err(CampaignError::WorkerKilled {
                            machine: machine.id,
                        });
                    }
                }
                None => fresh.kept.push(recs),
            }
            if let Some(t) = started {
                let secs = t.elapsed().as_secs_f64();
                machine_secs.record(secs);
                worker_secs.record(secs);
            }
        }
        Ok(fresh)
    }

    /// Collects one machine into a fresh vector; see
    /// [`Self::produce_retrying`].
    fn collect_machine_retrying(&self, machine: &Machine) -> Result<Vec<Record>, CampaignError> {
        let mut records = Vec::with_capacity(self.config.records_per_machine());
        self.produce_retrying(machine, &mut records)?;
        Ok(records)
    }

    /// Produces one machine's records into `records`, injecting and
    /// retrying transient faults under the policy: the kernel behind
    /// every collection and every regenerated shard. Because injected
    /// faults stop firing before the default retry budget is exhausted
    /// (see `testbed::faults`), an injected-only run always recovers; a
    /// genuinely failing machine surfaces as
    /// [`CampaignError::MachineFailed`].
    fn produce_retrying(
        &self,
        machine: &Machine,
        records: &mut Vec<Record>,
    ) -> Result<(), CampaignError> {
        let site = format!("campaign.machine.m{}", machine.id.0);
        let faults = self.options.faults;
        let attempt = |attempt| {
            if faults.is_some_and(|f| f.transient(&site, attempt)) {
                self.tally.inject();
                return Err(CampaignError::MachineFailed {
                    machine: machine.id,
                    attempts: attempt + 1,
                    message: "injected transient fault (chaos)".to_string(),
                });
            }
            produce_machine(self.cluster, self.config, machine, records);
            Ok(())
        };
        self.options.policy.retry(0, self.tally, attempt, |_| true)
    }

    /// Journals one completed shard, injecting and retrying I/O faults
    /// under the policy. Real journal errors get the same retry budget
    /// before they abort the collection.
    fn journal_shard_retrying(
        &self,
        journal: &ShardJournal,
        machine: MachineId,
        recs: &[Record],
    ) -> Result<(), CampaignError> {
        let (site, faults) = (format!("journal.write.m{}", machine.0), self.options.faults);
        let attempt = |attempt| {
            if faults.is_some_and(|f| f.io_error(&site, attempt)) {
                self.tally.inject();
                return Err(JournalError::Io(std::io::Error::other(
                    "injected I/O fault (chaos)",
                )));
            }
            journal.record(machine, recs)
        };
        let policy = &self.options.policy;
        Ok(policy.retry(0, self.tally, attempt, |_| true)?)
    }
}

/// Measures every (benchmark, session, run) of one machine into
/// `records`, in collection order. Existing entries are overwritten in
/// place, keeping their type-name allocations, and the vector grows only
/// past its current length, so refilling a warm buffer allocates
/// nothing.
fn produce_machine(
    cluster: &Cluster,
    config: &CampaignConfig,
    machine: &Machine,
    records: &mut Vec<Record>,
) {
    let mut len = 0;
    for &bench in &config.benchmarks {
        let sampler = Sampler::new(cluster, machine.id, bench).expect("selected machines exist");
        for session in 0..config.sessions() {
            let day = session as f64 * config.session_every_days;
            let environment = sampler.environment(day);
            for run in 0..config.runs_per_session {
                // The nonce folds the session in so every run of the
                // campaign is a distinct draw.
                let nonce = (session * config.runs_per_session + run) as u64;
                let value = sampler.sample(day, environment, nonce);
                match records.get_mut(len) {
                    Some(r) => {
                        r.machine = machine.id;
                        r.machine_type.clone_from(&machine.type_name);
                        r.benchmark = bench;
                        r.day = day;
                        r.run = nonce as u32;
                        r.value = value;
                    }
                    None => records.push(Record {
                        machine: machine.id,
                        machine_type: machine.type_name.clone(),
                        benchmark: bench,
                        day,
                        run: nonce as u32,
                        value,
                    }),
                }
                len += 1;
            }
        }
    }
    records.truncate(len);
}

/// Collects `config` on `cluster` in memory with `jobs` workers — the
/// test-side shorthand for the fault-free, journal-free [`collect`].
#[cfg(test)]
pub(crate) fn in_memory(cluster: &Cluster, config: &CampaignConfig, jobs: Option<usize>) -> Store {
    let options = CollectOptions {
        jobs,
        ..CollectOptions::default()
    };
    collect(cluster, config, &options)
        .expect("collection without a journal or fault injection cannot fail")
        .store
        .expect("without a journal the records stay in memory")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_shape() {
        let config = CampaignConfig::quick(1);
        let cluster = provision(&config);
        let store = in_memory(&cluster, &config, None);
        let machines = store.machines().len();
        // 10 types x 3 machines.
        assert_eq!(machines, 30);
        let expected = machines * 11 * config.sessions() * config.runs_per_session;
        assert_eq!(store.len(), expected);
        let mut overview = crate::OverviewBuilder::new();
        overview.observe_records(store.records());
        assert_eq!(overview.finish().benchmarks, 11);
        assert!(cluster.machines().len() >= machines);
    }

    #[test]
    fn campaign_is_deterministic() {
        let config = CampaignConfig::quick(5);
        let a = in_memory(&provision(&config), &config, None);
        let b = in_memory(&provision(&config), &config, None);
        assert_eq!(a, b);
        let other = CampaignConfig::quick(6);
        let c = in_memory(&provision(&other), &other, None);
        assert_ne!(a, c);
    }

    #[test]
    fn worker_count_never_changes_the_store() {
        let mut config = CampaignConfig::quick(11);
        config.benchmarks = vec![BenchmarkId::MemTriad, BenchmarkId::NetLatency];
        let cluster = provision(&config);
        let sequential = in_memory(&cluster, &config, Some(1));
        for jobs in [2, 3, 4, 7, 64] {
            let sharded = in_memory(&cluster, &config, Some(jobs));
            assert_eq!(sequential, sharded, "jobs={jobs} diverged");
        }
        // The default (one worker per core) must agree too.
        assert_eq!(sequential, in_memory(&cluster, &config, None));
    }

    #[test]
    fn worker_count_is_clamped_to_the_fleet() {
        // 10 types x 1 machine = 10 machines; asking for 1000 workers
        // must still produce the same store without panicking.
        let mut config = CampaignConfig::quick(3);
        config.machines_per_type = Some(1);
        config.benchmarks = vec![BenchmarkId::MemCopy];
        let cluster = provision(&config);
        let store = in_memory(&cluster, &config, Some(1000));
        assert_eq!(store, in_memory(&cluster, &config, Some(1)));
    }

    #[test]
    fn per_machine_bench_sample_count_is_sessions_times_runs() {
        let config = CampaignConfig::quick(2);
        let store = in_memory(&provision(&config), &config, None);
        let m = store.machines()[0];
        let vals = store
            .filter()
            .machine(m)
            .benchmark(BenchmarkId::MemTriad)
            .values();
        assert_eq!(vals.len(), config.sessions() * config.runs_per_session);
    }

    #[test]
    fn restricted_benchmarks() {
        let mut config = CampaignConfig::quick(3);
        config.benchmarks = vec![BenchmarkId::DiskSeqRead, BenchmarkId::NetLatency];
        let store = in_memory(&provision(&config), &config, None);
        let mut overview = crate::OverviewBuilder::new();
        overview.observe_records(store.records());
        assert_eq!(overview.finish().benchmarks, 2);
    }

    #[test]
    fn values_are_positive_and_type_scaled() {
        let config = CampaignConfig::quick(4);
        let cluster = provision(&config);
        let store = in_memory(&cluster, &config, None);
        assert!(store.records().iter().all(|r| r.value > 0.0));
        // The shard decoder refuses anything else as corruption.
        assert!(store
            .records()
            .iter()
            .all(|r| r.value.is_finite() && r.day.is_finite()));
        // Median disk-seq-read per type should track the type baseline.
        for t in cluster.types().iter().take(3) {
            let vals: Vec<f64> = store
                .filter()
                .benchmark(BenchmarkId::DiskSeqRead)
                .records()
                .into_iter()
                .filter(|r| r.machine_type == t.name)
                .map(|r| r.value)
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let rel = mean / t.disk_seq_mbps;
            assert!((0.7..1.3).contains(&rel), "{} rel {rel}", t.name);
        }
    }

    #[test]
    fn sessions_cover_the_timeline() {
        let config = CampaignConfig::quick(7);
        let store = in_memory(&provision(&config), &config, None);
        let days: Vec<f64> = store
            .filter()
            .machine(store.machines()[0])
            .benchmark(BenchmarkId::MemLatency)
            .records()
            .iter()
            .map(|r| r.day)
            .collect();
        let first_day = days.iter().copied().fold(f64::INFINITY, f64::min);
        let last_day = days.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(first_day, 0.0);
        assert!(last_day >= 240.0, "last day {last_day}");
    }

    #[test]
    fn generated_shards_are_the_collected_ones() {
        let mut config = CampaignConfig::quick(31);
        config.machines_per_type = Some(2);
        let cluster = provision(&config);
        let store = in_memory(&cluster, &config, Some(2));
        let generator = ShardGenerator::new(&cluster, &config, &CollectOptions::default());
        assert_eq!(generator.machines(), store.machines().as_slice());
        assert_eq!(generator.records(), store.len());
        // Two passes: the second refills the first pass's warm buffers.
        for pass in 0..2 {
            let mut walked = Store::new();
            for &m in generator.machines() {
                let shard = generator.produce(m).unwrap();
                assert_eq!(shard.machine, m);
                walked.extend(shard.records().iter().cloned());
            }
            assert_eq!(walked, store, "pass {pass}");
        }
        let stats = generator.stats();
        assert_eq!(stats.peak_shards_resident(), 1, "one guard at a time");
        assert_eq!(
            stats.peak_live_samples(),
            config.records_per_machine() as u64
        );
        let report = generator.report();
        assert_eq!(report.collected, 2 * generator.machines().len());
        assert_eq!(report.records, 2 * store.len());
        assert_eq!((report.injected, report.retried), (0, 0));
    }

    #[test]
    fn generation_takes_the_faults_collection_takes() {
        let config = tiny_config(26);
        let cluster = provision(&config);
        let faults = FaultPlan::with_rates(17, 600, 0, 0);
        let options = CollectOptions {
            jobs: Some(2),
            journal: None,
            faults: Some(faults),
            policy: fast_policy(3),
        };
        let collected = collect(&cluster, &config, &options).unwrap();
        let generator = ShardGenerator::new(&cluster, &config, &options);
        let mut store = Store::new();
        for &m in generator.machines() {
            store.extend(generator.produce(m).unwrap().records().iter().cloned());
        }
        assert_eq!(Some(store), collected.store);
        let report = generator.report();
        assert!(report.injected > 0, "this seed injects");
        assert_eq!(report.injected, collected.report.injected);
        assert_eq!(report.retried, collected.report.retried);
        // A second pass regenerates fault-free: the totals are the
        // campaign's, however often it is walked.
        for &m in generator.machines() {
            generator.produce(m).unwrap();
        }
        let again = generator.report();
        assert_eq!(
            (again.injected, again.retried),
            (report.injected, report.retried)
        );

        let fatal = CollectOptions {
            faults: Some(FaultPlan::with_rates(1, 1000, 0, 0)),
            policy: fast_policy(0),
            ..options
        };
        let generator = ShardGenerator::new(&cluster, &config, &fatal);
        let m = generator.machines()[0];
        assert!(matches!(
            generator.produce(m),
            Err(CampaignError::MachineFailed { machine, attempts: 1, .. }) if machine == m
        ));
        assert!(
            generator.produce(m).is_ok(),
            "its faults fired on the first try"
        );
        assert!(matches!(
            generator.produce(MachineId(u32::MAX)),
            Err(CampaignError::MachineFailed { attempts: 0, .. })
        ));
    }

    use crate::journal::ShardJournal;
    use std::path::PathBuf;
    use std::time::Duration;

    fn journal_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "campaign-journal-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_config(seed: u64) -> CampaignConfig {
        let mut config = CampaignConfig::quick(seed);
        config.machines_per_type = Some(1);
        config.benchmarks = vec![BenchmarkId::MemCopy, BenchmarkId::NetLatency];
        config
    }

    fn fast_policy(max_retries: u32) -> FaultPolicy {
        FaultPolicy::new(max_retries, Duration::from_micros(10))
    }

    /// The dataset a complete journal holds, read back in machine order.
    fn read_back(journal: &ShardJournal, cluster: &Cluster, config: &CampaignConfig) -> Store {
        crate::ShardReader::with_machines(
            journal.dir(),
            config,
            selected_machine_ids(cluster, config),
        )
        .unwrap()
        .materialize(Some(2))
        .unwrap()
    }

    #[test]
    fn journaled_run_resumes_as_a_noop() {
        let config = tiny_config(21);
        let cluster = provision(&config);
        let golden = in_memory(&cluster, &config, Some(2));
        let dir = journal_dir("noop");
        let journal = ShardJournal::open(&dir, &config).unwrap();
        let options = CollectOptions {
            jobs: Some(2),
            journal: Some(&journal),
            ..CollectOptions::default()
        };
        let first = collect(&cluster, &config, &options).unwrap();
        assert!(first.store.is_none(), "the records went to the journal");
        assert_eq!(
            read_back(&journal, &cluster, &config),
            golden,
            "journaled run matches plain run"
        );
        assert_eq!(first.report.replayed, 0);
        assert_eq!(first.report.collected, 10);
        assert_eq!(first.report.records, golden.len());
        // Resuming a completed run replays everything, collects nothing.
        let second = collect(&cluster, &config, &options).unwrap();
        assert_eq!(
            read_back(&journal, &cluster, &config),
            golden,
            "replayed store is byte-identical"
        );
        assert_eq!(second.report.replayed, 10);
        assert_eq!(second.report.collected, 0);
        assert_eq!(second.report.records, golden.len(), "counted in phase 1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_transients_recover_under_the_default_budget() {
        let config = tiny_config(22);
        let cluster = provision(&config);
        let golden = in_memory(&cluster, &config, Some(1));
        // Transient + I/O faults at high rates, no deaths: the run must
        // complete in one go and match the fault-free store.
        let faults = FaultPlan::with_rates(77, 900, 900, 0);
        let dir = journal_dir("transient");
        let journal = ShardJournal::open(&dir, &config).unwrap();
        let options = CollectOptions {
            jobs: Some(3),
            journal: Some(&journal),
            faults: Some(faults),
            policy: fast_policy(2),
        };
        let collected = collect(&cluster, &config, &options).unwrap();
        assert_eq!(
            read_back(&journal, &cluster, &config),
            golden,
            "chaos run is byte-identical"
        );
        assert!(collected.report.injected > 0, "faults were injected");
        assert!(collected.report.retried > 0, "faults were retried");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_death_then_resume_converges_to_the_golden_store() {
        let config = tiny_config(23);
        let cluster = provision(&config);
        let golden = in_memory(&cluster, &config, Some(1));
        let faults = FaultPlan::with_rates(5, 400, 300, 500);
        let dir = journal_dir("death");
        let journal = ShardJournal::open(&dir, &config).unwrap();
        let options = CollectOptions {
            jobs: Some(2),
            journal: Some(&journal),
            faults: Some(faults),
            policy: fast_policy(2),
        };
        let mut kills = 0;
        loop {
            match collect(&cluster, &config, &options) {
                Ok(_) => break,
                Err(CampaignError::WorkerKilled { .. }) => {
                    kills += 1;
                    assert!(
                        kills <= 11,
                        "resume must converge (one kill per machine max)"
                    );
                }
                Err(e) => panic!("unexpected campaign error: {e}"),
            }
        }
        assert!(kills > 0, "this seed is expected to kill at least once");
        assert_eq!(
            read_back(&journal, &cluster, &config),
            golden,
            "resumed store is byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_retry_budget_surfaces_machine_failure() {
        let config = tiny_config(24);
        let cluster = provision(&config);
        let faults = FaultPlan::with_rates(1, 1000, 0, 0);
        let options = CollectOptions {
            jobs: Some(1),
            journal: None,
            faults: Some(faults),
            policy: fast_policy(0), // no retries: first injection is fatal
        };
        let err = collect(&cluster, &config, &options).unwrap_err();
        match err {
            CampaignError::MachineFailed {
                attempts, message, ..
            } => {
                assert_eq!(attempts, 1);
                assert!(message.contains("injected transient fault"));
            }
            other => panic!("expected MachineFailed, got {other}"),
        }
    }

    #[test]
    fn worker_death_requires_a_journal() {
        // Without a journal there is no commit point, so deaths are not
        // injected and the run completes.
        let config = tiny_config(25);
        let cluster = provision(&config);
        let golden = in_memory(&cluster, &config, Some(1));
        let faults = FaultPlan::with_rates(5, 0, 0, 1000);
        let options = CollectOptions {
            jobs: Some(2),
            journal: None,
            faults: Some(faults),
            policy: fast_policy(2),
        };
        let collected = collect(&cluster, &config, &options).unwrap();
        assert_eq!(collected.store, Some(golden));
    }
}
