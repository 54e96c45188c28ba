//! Shared experiment context.
//!
//! All experiments slice the same campaign dataset, so the registry
//! builds one [`Context`] (cluster + data source + defaults) and hands
//! it to every pipeline. `Scale::Quick` keeps everything CI-sized;
//! `Scale::Paper` provisions the full fleet and a dense session schedule.
//!
//! The context's measurements live behind a [`DataSource`]: shards
//! regenerated on demand from the cluster and campaign, or a streaming
//! replay of the shard journal. Neither ever holds the campaign: a
//! single pass keeps one machine shard resident, the engine's shared
//! walk a small bounded window of them (DESIGN.md §11). Experiments that
//! walk the dataset are [`ShardFold`]s fed in the order of
//! [`Context::for_each_shard`], which visits machines in the canonical
//! ascending-id order from *both* sources — the per-machine value
//! vectors are identical, so every downstream artifact is byte-for-byte
//! the same whichever source backs the context.

use std::sync::{Arc, OnceLock};

use confirm::{ConfirmConfig, ConfirmResult};
use dataset::{
    CampaignConfig, CampaignError, CollectOptions, CollectReport, Record, Shard, ShardGenerator,
    ShardReader, StreamStats,
};
use testbed::{Cluster, MachineId};
use workloads::BenchmarkId;

use crate::artifact::Artifact;
use crate::registry::{ExperimentError, ShardFold};
use crate::requirements::{RequirementKey, RequirementTable};

/// How big the campaign backing the experiments is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Small fleet, seconds of compute. The default.
    #[default]
    Quick,
    /// Full fleet and dense schedule — the scale of the published
    /// dataset. Minutes of compute.
    Paper,
}

impl Scale {
    /// Parses `quick` / `paper`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Lowercase label (`quick` / `paper`) for CLI output and cache keys.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    /// The campaign configuration this scale implies.
    pub fn campaign(&self, seed: u64) -> CampaignConfig {
        match self {
            Scale::Quick => CampaignConfig::quick(seed),
            Scale::Paper => CampaignConfig::paper(seed),
        }
    }

    /// How many machines per type the machine-level experiments (CONFIRM
    /// CDFs, normality census) consider.
    pub(crate) fn machines_per_type(&self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Paper => 12,
        }
    }

    /// Size of the per-machine measurement pools the repetition
    /// experiments draw.
    pub fn pool_size(&self) -> usize {
        match self {
            Scale::Quick => 60,
            Scale::Paper => 150,
        }
    }
}

/// Where a context's measurements come from. Either way a bounded
/// handful of machine shards is resident at a time, O(largest shard)
/// (DESIGN.md §11).
#[derive(Debug, Clone)]
pub enum DataSource {
    /// Each machine's shard regenerated when the walk reaches it: every
    /// measurement is a pure function of the seed and the machine.
    Regenerated(Box<ShardGenerator>),
    /// A shard-journal replay whose reads validate, and heal, each shard
    /// found on disk, and regenerate the ones its collection wrote
    /// ([`dataset::collect_streaming`]).
    Streaming(Box<ShardReader>),
}

impl DataSource {
    /// The machines a walk visits, ascending.
    fn machines(&self) -> &[MachineId] {
        match self {
            DataSource::Regenerated(generator) => generator.machines(),
            DataSource::Streaming(reader) => reader.machines(),
        }
    }

    /// One machine's shard, regenerated inside an
    /// `experiments.walk.produce` span or read inside an
    /// `experiments.walk.read` one.
    fn shard(&self, machine: MachineId) -> Result<Shard, ExperimentError> {
        match self {
            DataSource::Regenerated(generator) => {
                let _span = telemetry::span("experiments.walk.produce");
                generator
                    .produce(machine)
                    .map_err(|e| ExperimentError::new(e.to_string()))
            }
            DataSource::Streaming(reader) => {
                let _span = telemetry::span("experiments.walk.read");
                reader
                    .read(machine)
                    .map_err(|e| ExperimentError::new(e.to_string()))
            }
        }
    }
}

/// One machine's complete sample set, as visited by
/// [`Context::for_each_shard`] and by [`ShardFold`]s, borrowed from a
/// resident shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardView<'a> {
    /// The machine.
    pub machine: MachineId,
    /// The machine's hardware type.
    pub type_name: &'a str,
    resident: &'a Resident,
}

impl<'a> ShardView<'a> {
    /// Every record of this machine, in collection order.
    pub fn records(&self) -> &'a [Record] {
        self.resident.shard.records()
    }

    /// This machine's values for one benchmark, in collection order —
    /// exactly the vector `store.filter().benchmark(b).group_by_machine()`
    /// yields for this machine. Only the benchmark's own blocks of the
    /// shard are read ([`Shard::values`]).
    pub(crate) fn values(&self, benchmark: BenchmarkId) -> Vec<f64> {
        self.resident.shard.values(benchmark)
    }

    /// This machine's values for one benchmark, ascending: the set the
    /// order statistics (medians, Shapiro–Wilk, QQ) read. The first fold
    /// to ask sorts it ([`varstats::quantile::sort_finite`], bit for bit
    /// the stable `partial_cmp` order); every other fold walking the same
    /// shard, on any thread, reads that one copy.
    pub(crate) fn sorted(&self, benchmark: BenchmarkId) -> &'a [f64] {
        self.resident.sorted[benchmark as usize].get_or_init(|| {
            let mut column = self.values(benchmark);
            varstats::quantile::sort_finite(&mut column);
            column
        })
    }
}

/// Everything an experiment pipeline needs.
///
/// A context also keeps the CONFIRM answers its experiments have computed
/// (`Context::confirm_answer`). A clone starts with none: its fields
/// are public, and an answer computed for the original's cluster or
/// config must never be served to a clone whose ones were edited.
#[derive(Debug)]
pub struct Context {
    /// The scale this context was built at.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// The campaign configuration used.
    pub campaign: CampaignConfig,
    /// The provisioned cluster.
    pub cluster: Cluster,
    /// Where the dataset comes from (regenerated or streaming).
    pub data: DataSource,
    /// CONFIRM defaults (95%, ±1%, c = 200, s >= 10).
    pub confirm: ConfirmConfig,
    /// The CONFIRM answers computed so far.
    requirements: RequirementTable,
}

impl Clone for Context {
    /// A copy of every field, with an empty requirement table.
    fn clone(&self) -> Self {
        Context {
            scale: self.scale,
            seed: self.seed,
            campaign: self.campaign.clone(),
            cluster: self.cluster.clone(),
            data: self.data.clone(),
            confirm: self.confirm,
            requirements: RequirementTable::default(),
        }
    }
}

impl Context {
    /// Provisions the campaign and assembles a regenerating context: the
    /// constructor for examples and tests.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (ctx, _) = Self::collect(scale, seed, &CollectOptions::default())
            .expect("a context without a journal collects nothing up front");
        ctx
    }

    /// Collects the campaign as far as `options` needs and assembles the
    /// context: the constructor behind `repro`, including `--resume` and
    /// `--chaos`. The walk reads the journal exactly when
    /// `options.journal` names one; nothing else picks the source.
    ///
    /// - Without a journal nothing is collected here: the walk
    ///   regenerates each machine's shard when it reaches it, injecting
    ///   and retrying `options.faults` as [`dataset::collect`] would (the
    ///   counts land in [`Context::production_report`]).
    /// - With one, collection follows `options`
    ///   ([`dataset::collect_streaming`]): shards already on disk whose
    ///   envelopes check out are replayed, the rest are collected and
    ///   journaled, with the chaos plan's faults counted in the returned
    ///   report. The walk then replays the journal one shard at a time:
    ///   its one decode per replayed shard validates it and heals what
    ///   it rejects, and the shards collected here are regenerated
    ///   rather than decoded back.
    ///
    /// Every artifact is byte-identical to an uninterrupted fault-free
    /// run, for any worker count and any replayed/collected/healed split.
    ///
    /// # Errors
    ///
    /// Collection failures.
    pub fn collect(
        scale: Scale,
        seed: u64,
        options: &CollectOptions<'_>,
    ) -> Result<(Self, CollectReport), CampaignError> {
        let _span = telemetry::span("context.build");
        let campaign = scale.campaign(seed);
        let cluster = dataset::provision(&campaign);
        let (data, report) = match options.journal {
            Some(journal) => {
                let (reader, report) =
                    dataset::collect_streaming(&cluster, &campaign, journal, options)?;
                (DataSource::Streaming(Box::new(reader)), report)
            }
            None => {
                let generator = ShardGenerator::new(&cluster, &campaign, options);
                let report = CollectReport {
                    records: generator.records(),
                    ..CollectReport::default()
                };
                (DataSource::Regenerated(Box::new(generator)), report)
            }
        };
        Ok((
            Self {
                scale,
                seed,
                campaign,
                cluster,
                data,
                confirm: ConfirmConfig::default().with_seed(seed),
                requirements: RequirementTable::default(),
            },
            report,
        ))
    }

    /// [`Context::collect`]. This name, with [`Context::build_streaming`]
    /// and [`Context::provision`], is kept because the benchmark probe
    /// (`perfbench/probe`) calls it.
    #[doc(hidden)]
    pub fn build(
        scale: Scale,
        seed: u64,
        options: &CollectOptions<'_>,
    ) -> Result<(Self, CollectReport), CampaignError> {
        Self::collect(scale, seed, options)
    }

    /// [`Context::collect`]; see [`Context::build`].
    #[doc(hidden)]
    pub fn build_streaming(
        scale: Scale,
        seed: u64,
        options: &CollectOptions<'_>,
    ) -> Result<(Self, CollectReport), CampaignError> {
        Self::collect(scale, seed, options)
    }

    /// [`dataset::provision`]; see [`Context::build`].
    #[doc(hidden)]
    pub fn provision(campaign: &CampaignConfig) -> Cluster {
        dataset::provision(campaign)
    }

    /// CONFIRM's answer under `config` for `machine`'s `pool_size`-run
    /// pool of `bench`, computed by `compute` unless this context has
    /// computed it before (see the crate's `requirements` module).
    /// `compute` must be that answer's pure function of the context: the
    /// answer is keyed by machine, benchmark, pool size and config alone.
    ///
    /// # Errors
    ///
    /// `compute`'s error, kept and returned to every asker.
    pub(crate) fn confirm_answer(
        &self,
        machine: MachineId,
        bench: BenchmarkId,
        pool_size: usize,
        config: &ConfirmConfig,
        compute: impl FnOnce() -> varstats::error::Result<ConfirmResult>,
    ) -> varstats::error::Result<ConfirmResult> {
        let key = RequirementKey::new(machine, bench, pool_size, config);
        self.requirements.answer(key, compute)
    }

    /// Whether the context streams from the journal.
    pub fn is_streaming(&self) -> bool {
        matches!(self.data, DataSource::Streaming(_))
    }

    /// Total number of measurement records, from either source, by
    /// arithmetic: machines × records per machine. A streamed shard with
    /// another count fails its envelope check at collection or its
    /// decode in the walk, and is healed.
    pub fn records_len(&self) -> usize {
        self.data.machines().len() * self.campaign.records_per_machine()
    }

    /// Live streaming gauges (peak live samples, shards resident), or
    /// `None` for a regenerated context.
    pub fn stream_stats(&self) -> Option<Arc<StreamStats>> {
        match &self.data {
            DataSource::Regenerated(_) => None,
            DataSource::Streaming(reader) => Some(reader.stats()),
        }
    }

    /// What regenerating the dataset has done so far: shards produced,
    /// and the chaos faults injected and retried while producing them.
    /// A streaming context's faults came at collection, and its walk
    /// regenerates only the shards it heals, fault-free: its report is
    /// their journal-write retries ([`ShardReader::heal_report`]), `None`
    /// for a reader that does not heal.
    pub fn production_report(&self) -> Option<CollectReport> {
        match &self.data {
            DataSource::Regenerated(generator) => Some(generator.report()),
            DataSource::Streaming(reader) => reader.heal_report(),
        }
    }

    /// Visits every machine's complete sample set in ascending
    /// machine-id order — the one dataset walk experiments use.
    ///
    /// One shard is resident at a time: regenerated, or read from the
    /// journal, and dropped before the next (the [`StreamStats`] gauges
    /// record the resulting memory bound). Both sources visit identical
    /// records in identical order, which is what makes a `--resume` run's
    /// artifacts byte-identical to a regenerated run's.
    ///
    /// # Errors
    ///
    /// Fails if a journal shard is missing or unreadable mid-stream, or
    /// a machine's injected faults outlast the retry budget.
    pub fn for_each_shard(&self, mut f: impl FnMut(ShardView<'_>)) -> Result<(), ExperimentError> {
        let mut walked = Ok(());
        self.walk(|delivery| match delivery {
            Ok(shard) => f(shard.view()),
            Err(err) => walked = Err(err),
        });
        walked
    }

    /// Runs `fold` over one full pass of its own and finishes it: how a
    /// dataset walker runs alone. The engine feeds the same folds from a
    /// walk it shares between them (see [`crate::engine`]).
    ///
    /// # Errors
    ///
    /// A shard read error, or the fold's own step or finish error.
    pub(crate) fn run_fold(
        &self,
        mut fold: Box<dyn ShardFold>,
    ) -> Result<Vec<Artifact>, ExperimentError> {
        let mut stepped = Ok(());
        self.for_each_shard(|shard| {
            if stepped.is_ok() {
                stepped = fold.step(shard);
            }
        })?;
        stepped?;
        fold.finish(self)
    }

    /// Walks the dataset's shards in ascending machine-id order, handing
    /// each to `visit`; a failed read or production is handed over as
    /// the walk's last delivery.
    ///
    /// Shards are read from the journal, or regenerated, on the calling
    /// thread ([`DataSource::shard`]). Dropping a shard (its last clone)
    /// releases it.
    pub(crate) fn walk<'s>(&'s self, mut visit: impl FnMut(Delivery<'s>)) {
        for &machine in self.data.machines() {
            if !self.deliver(self.data.shard(machine), &mut visit) {
                return;
            }
        }
    }

    /// Hands one shard (or the error that ends the walk) to `visit`;
    /// `false` once the walk is over.
    fn deliver<'s>(
        &'s self,
        shard: Result<Shard, ExperimentError>,
        visit: &mut impl FnMut(Delivery<'s>),
    ) -> bool {
        let delivery = shard.and_then(|shard| {
            let type_name = self
                .cluster
                .machine(shard.machine)
                .map(|m| m.type_name.as_str())
                .ok_or_else(|| {
                    ExperimentError::new(format!(
                        "shard m{} has no machine in the cluster",
                        shard.machine.0
                    ))
                })?;
            Ok(WalkShard {
                type_name,
                resident: Arc::new(Resident {
                    shard,
                    sorted: [const { OnceLock::new() }; BenchmarkId::ALL.len()],
                }),
            })
        });
        let more = delivery.is_ok();
        visit(delivery);
        more
    }
}

/// A walk shard, or the error that ends the walk.
pub(crate) type Delivery<'a> = Result<WalkShard<'a>, ExperimentError>;

/// One machine's shard as the dataset walk holds it. Clones share the
/// records and the sorted columns, so the walk hands one shard to every
/// fold group without copying it, and each column is sorted at most
/// once; the shard stays resident until its last clone drops.
#[derive(Debug, Clone)]
pub(crate) struct WalkShard<'a> {
    type_name: &'a str,
    resident: Arc<Resident>,
}

/// A resident shard and its sorted columns, one per benchmark
/// ([`BenchmarkId`] as index), each filled by the first
/// [`ShardView::sorted`] that asks for it.
#[derive(Debug)]
struct Resident {
    shard: Shard,
    sorted: [OnceLock<Vec<f64>>; BenchmarkId::ALL.len()],
}

impl WalkShard<'_> {
    /// The shard as folds see it.
    pub(crate) fn view(&self) -> ShardView<'_> {
        ShardView {
            machine: self.resident.shard.machine,
            type_name: self.type_name,
            resident: &self.resident,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{ShardJournal, Store};

    /// The in-memory store `dataset::collect` builds for the same
    /// campaign: the oracle the regenerated walk must reproduce.
    fn reference_store(scale: Scale, seed: u64) -> Store {
        let campaign = scale.campaign(seed);
        let cluster = dataset::provision(&campaign);
        dataset::collect(&cluster, &campaign, &CollectOptions::default())
            .unwrap()
            .store
            .expect("without a journal the records stay in memory")
    }

    /// A walk's shards as (machine, type, records), in walk order.
    type Shards = Vec<(MachineId, String, Vec<Record>)>;

    /// Every shard `ctx` walks.
    fn walked(ctx: &Context) -> Shards {
        let mut shards = Vec::new();
        ctx.walk(|delivery| {
            let shard = delivery.expect("every shard is produced");
            let view = shard.view();
            shards.push((
                view.machine,
                view.type_name.to_string(),
                view.records().to_vec(),
            ));
        });
        shards
    }

    /// A store's contiguous per-machine runs, as a walk would see them.
    fn store_shards(store: &Store) -> Shards {
        store
            .records()
            .chunk_by(|a, b| a.machine == b.machine)
            .map(|run| (run[0].machine, run[0].machine_type.clone(), run.to_vec()))
            .collect()
    }

    fn generator(ctx: &Context) -> &ShardGenerator {
        match &ctx.data {
            DataSource::Regenerated(generator) => generator,
            DataSource::Streaming(_) => panic!("built without a journal"),
        }
    }

    #[test]
    fn quick_context_builds() {
        let ctx = Context::new(Scale::Quick, 1);
        let store = reference_store(Scale::Quick, 1);
        assert!(!store.is_empty());
        assert!(!ctx.is_streaming());
        assert_eq!(ctx.records_len(), store.len());
        assert_eq!(ctx.scale, Scale::Quick);
        assert!(ctx.cluster.machines().len() >= 10);
    }

    #[test]
    fn records_len_counts_the_capped_campaign_by_arithmetic() {
        // Quick scale caps machines per type, so the selected machines
        // are a strict subset of the fleet.
        let ctx = Context::new(Scale::Quick, 3);
        let store = reference_store(Scale::Quick, 3);
        assert!(ctx.campaign.machines_per_type.is_some());
        assert!(store.machines().len() < ctx.cluster.machines().len());
        assert_eq!(ctx.records_len(), store.len());
        let report = ctx.production_report().unwrap();
        assert_eq!(report.collected, 0, "counting produces nothing");
    }

    /// A context built with `--jobs jobs`, as `repro` builds it.
    fn with_jobs(scale: Scale, seed: u64, jobs: usize) -> Context {
        let options = CollectOptions {
            jobs: Some(jobs),
            ..CollectOptions::default()
        };
        Context::collect(scale, seed, &options).unwrap().0
    }

    #[test]
    fn jobs_never_change_the_context_dataset() {
        let a = with_jobs(Scale::Quick, 9, 1);
        let b = with_jobs(Scale::Quick, 9, 4);
        assert_eq!(walked(&a), walked(&b));
    }

    #[test]
    fn the_regenerated_walk_is_the_in_memory_store_shard_by_shard() {
        for seed in [1, 5, 42] {
            let want = store_shards(&reference_store(Scale::Quick, seed));
            for jobs in [1, 2, 4] {
                let ctx = with_jobs(Scale::Quick, seed, jobs);
                assert_eq!(walked(&ctx), want, "seed {seed}, jobs {jobs}");
            }
        }
    }

    #[test]
    fn the_regenerated_walk_stays_within_its_residency_bound() {
        let experiments = crate::all();
        for jobs in [1, 2, 4] {
            let ctx = Arc::new(with_jobs(Scale::Quick, 31, jobs));
            let run = crate::run_experiments(&ctx, &experiments, Some(jobs));
            assert!(run.iter().all(|r| r.outcome.is_ok()), "jobs {jobs}");
            let stats = generator(&ctx).stats();
            let machines = generator(&ctx).machines().len() as u64;
            assert_eq!(stats.shards_streamed(), machines, "jobs {jobs}: one pass");
            // DESIGN.md §11: a walk alone holds one shard; a shared one
            // the slowest follower's shard, its window and the shard the
            // lead waits to send it.
            let bound = if jobs == 1 {
                1
            } else {
                crate::engine::FOLLOWER_WINDOW + 2
            };
            assert!(
                stats.peak_shards_resident() <= bound as u64,
                "jobs {jobs}: {} resident, bound {bound}",
                stats.peak_shards_resident()
            );
            assert!(
                stats.peak_live_samples() <= (bound * ctx.campaign.records_per_machine()) as u64
            );
        }
    }

    #[test]
    fn a_shards_sorted_columns_are_sorted_once_and_shared_by_its_clones() {
        let ctx = Context::new(Scale::Quick, 7);
        let mut shards = 0;
        ctx.walk(|delivery| {
            let shard = delivery.expect("every shard is produced");
            let clone = shard.clone();
            for bench in BenchmarkId::ALL {
                let mut want = shard.view().values(bench);
                want.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let sorted = shard.view().sorted(bench);
                assert_eq!(
                    sorted,
                    want.as_slice(),
                    "m{} {bench:?}",
                    shard.view().machine.0
                );
                assert!(
                    std::ptr::eq(sorted, clone.view().sorted(bench)),
                    "a clone reads the same column"
                );
            }
            shards += 1;
        });
        assert!(shards >= 10);
    }

    #[test]
    fn resumable_build_matches_the_plain_one() {
        let dir = std::env::temp_dir().join(format!(
            "context-journal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let plain = with_jobs(Scale::Quick, 13, 2);
        let campaign = Scale::Quick.campaign(13);
        let journal = ShardJournal::open(&dir, &campaign).unwrap();
        let options = CollectOptions {
            jobs: Some(2),
            journal: Some(&journal),
            ..CollectOptions::default()
        };
        let (first, report) = Context::collect(Scale::Quick, 13, &options).unwrap();
        assert!(first.is_streaming(), "a journal is what the walk reads");
        assert_eq!(report.replayed, 0);
        assert_eq!(
            first.production_report(),
            Some(CollectReport::default()),
            "nothing healed yet"
        );
        assert_eq!(first.records_len(), plain.records_len());
        assert_eq!(walked(&first), walked(&plain));
        let machines = dataset::selected_machine_ids(&plain.cluster, &campaign);
        let journaled = ShardReader::with_machines(&dir, &campaign, machines)
            .and_then(|reader| reader.materialize(Some(2)))
            .unwrap();
        assert_eq!(
            store_shards(&journaled),
            walked(&plain),
            "the checkpoint is the dataset"
        );
        let (resumed, report) = Context::collect(Scale::Quick, 13, &options).unwrap();
        assert_eq!(report.collected, 0, "completed journal resumes as a no-op");
        // Both walks must yield identical shards in identical order, one
        // shard at a time.
        let visited = |ctx: &Context| {
            let mut shards = Vec::new();
            ctx.for_each_shard(|s| {
                shards.push((s.machine, s.type_name.to_string(), s.records().to_vec()))
            })
            .unwrap();
            shards
        };
        assert_eq!(
            visited(&resumed),
            visited(&plain),
            "replay is byte-identical"
        );
        let stats = resumed.stream_stats().unwrap();
        assert_eq!(stats.peak_shards_resident(), 1, "one shard at a time");
        assert!(stats.shards_streamed() >= 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_edited_clone_never_reads_the_originals_confirm_answers() {
        use crate::experiments::confirm_study::f9_confirm_cdf;
        let original = Context::new(Scale::Quick, 5);
        let before = f9_confirm_cdf(&original).unwrap();
        assert!(original.requirements.len() > 0);

        // The same machine ids and config over another seed's cluster.
        let mut edited = original.clone();
        assert_eq!(edited.requirements.len(), 0, "a clone starts empty");
        edited.cluster = Context::new(Scale::Quick, 6).cluster;
        let mut fresh = Context::new(Scale::Quick, 6);
        fresh.confirm = original.confirm;
        let after = f9_confirm_cdf(&edited).unwrap();
        assert_eq!(after, f9_confirm_cdf(&fresh).unwrap());
        assert_ne!(
            after, before,
            "the edit changes F9, so a stale answer would show"
        );
        assert_eq!(f9_confirm_cdf(&original).unwrap(), before);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn every_experiment_walks_the_journal_at_most_once() {
        let dir = std::env::temp_dir().join(format!(
            "context-passes-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = ShardJournal::open(&dir, &Scale::Quick.campaign(23)).unwrap();
        let options = CollectOptions {
            jobs: Some(2),
            journal: Some(&journal),
            ..CollectOptions::default()
        };
        let (ctx, _) = Context::collect(Scale::Quick, 23, &options).unwrap();
        let ctx = Arc::new(ctx);
        let stats = ctx.stream_stats().unwrap();
        let machines = match &ctx.data {
            DataSource::Streaming(reader) => reader.machines().len() as u64,
            DataSource::Regenerated(_) => unreachable!("built with a journal"),
        };
        let mut walkers = Vec::new();
        for e in crate::all() {
            let before = stats.shards_streamed();
            let run = crate::run_experiments(&ctx, &[e], Some(1));
            assert!(run[0].outcome.is_ok(), "{} failed", e.id());
            let reads = stats.shards_streamed() - before;
            assert!(
                reads == 0 || reads == machines,
                "{} read {reads} shards; one pass is {machines}",
                e.id()
            );
            if reads > 0 {
                walkers.push(e.id());
            }
            assert_eq!(
                e.fold().is_some(),
                reads > 0,
                "{}: the walkers are exactly the folds",
                e.id()
            );
        }
        assert_eq!(
            walkers,
            ["F3", "F4", "F5", "F6", "F12", "F13", "T6", "T7"],
            "the experiments that walk the dataset"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_run_walks_the_journal_once_for_every_walker() {
        let dir = std::env::temp_dir().join(format!(
            "context-one-walk-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = ShardJournal::open(&dir, &Scale::Quick.campaign(29)).unwrap();
        let options = CollectOptions {
            jobs: Some(2),
            journal: Some(&journal),
            ..CollectOptions::default()
        };
        let experiments = crate::all();
        let ctx = Arc::new(Context::collect(Scale::Quick, 29, &options).unwrap().0);
        let stats = ctx.stream_stats().expect("a journal-reading context");
        let machines = match &ctx.data {
            DataSource::Streaming(reader) => reader.machines().len() as u64,
            DataSource::Regenerated(_) => unreachable!("built with a journal"),
        };
        let alone: Vec<Vec<Artifact>> = experiments
            .iter()
            .map(|e| e.run(&ctx).expect("every experiment succeeds"))
            .collect();
        for jobs in [1, 2, 4] {
            let before = stats.shards_streamed();
            let run = crate::run_experiments(&ctx, &experiments, Some(jobs));
            assert_eq!(
                stats.shards_streamed() - before,
                machines,
                "jobs {jobs}: one pass for all eight walkers"
            );
            assert!(stats.peak_shards_resident() <= 3, "jobs {jobs}");
            for ((e, got), want) in experiments.iter().zip(&run).zip(&alone) {
                assert_eq!(
                    got.outcome.as_ref().unwrap(),
                    want,
                    "jobs {jobs}: {} differs from its run alone",
                    e.id()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scales_differ_in_size() {
        assert!(Scale::Paper.machines_per_type() > Scale::Quick.machines_per_type());
        assert!(Scale::Paper.pool_size() > Scale::Quick.pool_size());
        let q = Scale::Quick.campaign(1);
        let p = Scale::Paper.campaign(1);
        assert!(p.scale > q.scale);
    }
}
