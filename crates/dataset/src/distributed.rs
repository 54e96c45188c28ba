//! Fault-tolerant multi-process distributed collection — supervisor,
//! worker leases, heartbeats, and shard reassignment over an exchange
//! directory (DESIGN.md §12).
//!
//! The paper's campaign ran ~900 machines for ten months; at that scale
//! worker death is routine, not exceptional. This module generalizes the
//! threaded collector to a *fleet of processes* that publish shards
//! straight into one output [`ShardJournal`] and coordinate through a
//! shared **exchange directory** with no channels, locks, or sockets —
//! only the [`durable`] kernel's atomic filesystem primitives. Every
//! exchange file but the leases is a `collect-exchange v2`
//! [`durable::envelope`]:
//!
//! ```text
//! exchange/
//!   exchange.meta        config <fingerprint>, units <count>, empty
//!                        payload — guards against mixing campaigns.
//!   units/u<k>.unit      unit <k>; payload: the unit's machine ids. The
//!                        work partition, contiguous slices of the sorted
//!                        machine-id space, written once by the
//!                        supervisor before any worker starts.
//!   leases/u<k>.lease    a durable::Lease owned by the worker index (the
//!                        same claim serve's .flights/ use); the file's
//!                        mtime is the claimant's heartbeat.
//!   done/u<k>.done       done <k>: every machine of the unit has a valid
//!                        shard in the journal.
//!   quarantine/u<k>.bad  quarantined <k>, attempts <n>: the unit
//!                        exhausted its reassignment budget.
//!   attempts/u<k>        attempts <n>: reassignment round counter, bumped
//!                        by the supervisor each time it reclaims the lease.
//! ```
//!
//! **Why this converges byte-identically.** Every machine's records are
//! a pure function of the campaign configuration (per-machine RNG
//! streams), so any *valid* shard for machine `m` is byte-identical no
//! matter which worker collected it, how many times `m` was re-collected,
//! or in which order workers died. Concurrent publishes of one machine
//! therefore write identical bytes through [`ShardJournal::record`]'s
//! atomic rename, and duplicated work is harmless. Progress is monotone:
//! chaos kill sites fire only *after* a shard is durably journaled,
//! workers skip machines whose shard in the journal is already valid
//! (survivors inherit a dead worker's completed shards), and
//! process-level faults are gated on the unit's reassignment round
//! exactly like transient faults are gated on the retry attempt
//! ([`testbed::MAX_FAULTS_PER_SITE`]), so a bounded reassignment
//! budget always converges. One hazard remains: a stale worker that has
//! lost its lease can tear a shard after another worker marked the unit
//! done. The caller therefore finishes with the in-process
//! [`crate::collect`] pass over the journal, which validates every shard
//! and re-collects any that is missing or torn.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use durable::envelope::{parse_decimal, parse_hex16};
use durable::{EnvelopeError, Lease};
use testbed::{Cluster, FaultPlan, FaultPolicy, MachineId};

use crate::campaign::{collect_one_machine, CampaignConfig, CampaignError, CollectOptions};
use crate::journal::{JournalError, ShardJournal, ShardStatus};

/// First line of every exchange file except the leases.
const EXCHANGE_HEADER: &str = "collect-exchange v2";

/// Publishes one exchange file atomically.
fn publish(path: &Path, fields: &[(&str, &dyn fmt::Display)], payload: &str) -> io::Result<()> {
    durable::publish_bytes(
        path,
        durable::encode(EXCHANGE_HEADER, fields, payload.as_bytes()),
    )
}

/// The values of an exchange file's `keys` and its payload, if the file
/// is a valid envelope.
fn read<const N: usize>(path: &Path, keys: [&str; N]) -> Option<([String; N], String)> {
    let raw = std::fs::read(path).ok()?;
    let file = durable::decode(&raw, EXCHANGE_HEADER, keys).ok()?;
    Some((
        file.fields.map(str::to_string),
        String::from_utf8(file.payload.to_vec()).ok()?,
    ))
}

/// Parses a canonical decimal into any integer type it fits.
fn number<T: TryFrom<u64>>(s: &str) -> Option<T> {
    T::try_from(parse_decimal(s.as_bytes())?).ok()
}

/// Reads `exchange.meta`: the pinned configuration fingerprint and the
/// unit count.
fn read_meta(root: &Path) -> Result<(u64, usize), DistributedError> {
    let path = root.join("exchange.meta");
    let raw = std::fs::read(&path)?;
    let meta = match durable::decode(&raw, EXCHANGE_HEADER, ["config", "units"]) {
        Ok(meta) => {
            let [config, units] = meta.fields;
            parse_hex16(config.as_bytes())
                .zip(number(units))
                .filter(|_| meta.payload.is_empty())
        }
        Err(EnvelopeError::Version) => {
            return Err(DistributedError::Journal(JournalError::FormatVersion {
                dir: root.to_path_buf(),
                expected: EXCHANGE_HEADER,
            }))
        }
        Err(_) => None,
    };
    meta.ok_or_else(|| DistributedError::Exchange(format!("{} is malformed", path.display())))
}

/// Path of unit `index`'s machine list under `root`.
fn unit_path(root: &Path, index: usize) -> PathBuf {
    root.join("units").join(format!("u{index}.unit"))
}

/// Reads unit `index`'s machine list; `None` if the file is missing,
/// damaged, names another unit, or lists no machines.
fn read_unit(root: &Path, index: usize) -> Option<Vec<MachineId>> {
    let ([unit], machines) = read(&unit_path(root, index), ["unit"])?;
    if number::<usize>(&unit)? != index {
        return None;
    }
    let machines: Vec<MachineId> = machines
        .strip_suffix('\n')?
        .split(' ')
        .map(|id| number(id).map(MachineId))
        .collect::<Option<_>>()?;
    (!machines.is_empty()).then_some(machines)
}

/// The damaged files of the exchange at `root`, for `repro journal
/// fsck`: `exchange.meta` if it does not decode or declares more units
/// than there are files, else every unit file [`read_unit`] refuses.
pub(crate) fn damaged_exchange_files(root: &Path) -> Vec<String> {
    let Ok((_, count)) = read_meta(root) else {
        return vec!["exchange.meta".to_string()];
    };
    // Bounds the loop below: the count is outside input.
    let files = std::fs::read_dir(root.join("units")).map_or(0, Iterator::count);
    if files < count {
        return vec![format!("exchange.meta ({count} units, {files} unit files)")];
    }
    (0..count)
        .filter(|&index| read_unit(root, index).is_none())
        .map(|index| format!("units/u{index}.unit"))
        .collect()
}

/// Why distributed collection could not proceed.
#[derive(Debug)]
pub enum DistributedError {
    /// The exchange directory is malformed or belongs to a different
    /// campaign or partition.
    Exchange(String),
    /// The output journal could not be opened or written, or the
    /// exchange is in another on-disk format.
    Journal(JournalError),
    /// A worker's collection failed terminally (e.g. a machine past its
    /// retry budget).
    Campaign(CampaignError),
    /// An underlying filesystem failure in the exchange protocol.
    Io(io::Error),
    /// The supervisor spawned more workers than the budget allows — a
    /// backstop against respawn loops that should be unreachable while
    /// the per-unit reassignment budget holds.
    SpawnBudget {
        /// Workers spawned before giving up.
        spawned: u64,
    },
}

impl fmt::Display for DistributedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistributedError::Exchange(msg) => write!(f, "exchange error: {msg}"),
            DistributedError::Journal(e) => write!(f, "{e}"),
            DistributedError::Campaign(e) => write!(f, "{e}"),
            DistributedError::Io(e) => write!(f, "exchange I/O error: {e}"),
            DistributedError::SpawnBudget { spawned } => write!(
                f,
                "supervisor spawn budget exhausted after {spawned} workers; \
                 the fleet is not converging"
            ),
        }
    }
}

impl std::error::Error for DistributedError {}

impl From<JournalError> for DistributedError {
    fn from(e: JournalError) -> Self {
        DistributedError::Journal(e)
    }
}

impl From<CampaignError> for DistributedError {
    fn from(e: CampaignError) -> Self {
        DistributedError::Campaign(e)
    }
}

impl From<io::Error> for DistributedError {
    fn from(e: io::Error) -> Self {
        DistributedError::Io(e)
    }
}

/// One assignable slice of the campaign: a contiguous run of the sorted
/// machine-id space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkUnit {
    /// Position in the partition (names the unit's files).
    pub index: usize,
    /// The machines this unit collects, in ascending id order.
    pub machines: Vec<MachineId>,
}

/// Splits the sorted machine ids into at most `unit_count` contiguous
/// units (the same `div_ceil` chunking the threaded collector uses), so
/// supervisor and workers derive the identical partition from the
/// configuration alone.
pub fn partition_units(machines: &[MachineId], unit_count: usize) -> Vec<WorkUnit> {
    if machines.is_empty() {
        return Vec::new();
    }
    let unit_count = unit_count.clamp(1, machines.len());
    let chunk = machines.len().div_ceil(unit_count);
    machines
        .chunks(chunk)
        .enumerate()
        .map(|(index, machines)| WorkUnit {
            index,
            machines: machines.to_vec(),
        })
        .collect()
}

/// The shared exchange directory: work partition, leases, and
/// completion markers.
#[derive(Debug, Clone)]
pub struct ExchangeDir {
    root: PathBuf,
    units: Vec<WorkUnit>,
}

impl ExchangeDir {
    /// Creates (or resumes) an exchange at `root` for `config` with the
    /// given partition. An existing exchange is validated against the
    /// configuration fingerprint and unit count and refused on mismatch;
    /// matching state is reused, so a crashed distributed run resumes
    /// where it left off.
    pub fn create(
        root: impl Into<PathBuf>,
        config: &CampaignConfig,
        units: Vec<WorkUnit>,
    ) -> Result<Self, DistributedError> {
        let root = root.into();
        let fingerprint = ShardJournal::config_fingerprint(config);
        for sub in ["units", "leases", "done", "quarantine", "attempts"] {
            std::fs::create_dir_all(root.join(sub))?;
        }
        match read_meta(&root) {
            Ok(pinned) if pinned == (fingerprint, units.len()) => {}
            Ok(_) => {
                return Err(DistributedError::Exchange(format!(
                    "{} holds an exchange for a different campaign or partition; \
                     use a fresh directory",
                    root.display()
                )))
            }
            Err(DistributedError::Io(e)) if e.kind() == io::ErrorKind::NotFound => publish(
                &root.join("exchange.meta"),
                &[
                    ("config", &format!("{fingerprint:016x}")),
                    ("units", &units.len()),
                ],
                "",
            )?,
            Err(e) => return Err(e),
        }
        for unit in &units {
            let ids: Vec<String> = unit.machines.iter().map(|m| m.0.to_string()).collect();
            publish(
                &unit_path(&root, unit.index),
                &[("unit", &unit.index)],
                &format!("{}\n", ids.join(" ")),
            )?;
        }
        Ok(ExchangeDir { root, units })
    }

    /// Opens an existing exchange, validating its fingerprint against
    /// `config` and loading the partition from the unit files. This is
    /// the worker-side entry: workers never invent the partition, they
    /// read the one the supervisor pinned.
    pub fn open(
        root: impl Into<PathBuf>,
        config: &CampaignConfig,
    ) -> Result<Self, DistributedError> {
        let root = root.into();
        let fingerprint = ShardJournal::config_fingerprint(config);
        let (pinned, unit_count) = read_meta(&root)?;
        if pinned != fingerprint {
            return Err(DistributedError::Exchange(format!(
                "{} is not an exchange for this campaign configuration",
                root.display()
            )));
        }
        let units = (0..unit_count)
            .map(|index| {
                let machines = read_unit(&root, index).ok_or_else(|| {
                    DistributedError::Exchange(format!(
                        "{} is malformed",
                        unit_path(&root, index).display()
                    ))
                })?;
                Ok(WorkUnit { index, machines })
            })
            .collect::<Result<_, DistributedError>>()?;
        Ok(ExchangeDir { root, units })
    }

    /// The work partition, in unit-index order.
    pub fn units(&self) -> &[WorkUnit] {
        &self.units
    }

    fn lease_path(&self, unit: usize) -> PathBuf {
        self.root.join("leases").join(format!("u{unit}.lease"))
    }

    fn done_path(&self, unit: usize) -> PathBuf {
        self.root.join("done").join(format!("u{unit}.done"))
    }

    fn quarantine_path(&self, unit: usize) -> PathBuf {
        self.root.join("quarantine").join(format!("u{unit}.bad"))
    }

    fn attempts_path(&self, unit: usize) -> PathBuf {
        self.root.join("attempts").join(format!("u{unit}"))
    }

    /// Whether the unit's done marker exists.
    fn is_done(&self, unit: usize) -> bool {
        self.done_path(unit).exists()
    }

    /// Marks the unit complete (published atomically).
    fn mark_done(&self, unit: usize) -> io::Result<()> {
        publish(&self.done_path(unit), &[("done", &unit)], "")
    }

    /// Whether the unit has been quarantined.
    fn is_quarantined(&self, unit: usize) -> bool {
        self.quarantine_path(unit).exists()
    }

    /// Quarantines the unit after `attempts` failed rounds.
    fn quarantine(&self, unit: usize, attempts: u32) -> io::Result<()> {
        publish(
            &self.quarantine_path(unit),
            &[("quarantined", &unit), ("attempts", &attempts)],
            "",
        )
    }

    /// Units that are neither done nor quarantined.
    fn open_units(&self) -> Vec<&WorkUnit> {
        self.units
            .iter()
            .filter(|u| !self.is_done(u.index) && !self.is_quarantined(u.index))
            .collect()
    }

    /// The unit's reassignment round: how many times the supervisor has
    /// reclaimed its lease. Workers feed this into the process-level
    /// fault sites, which is what makes chaos attempt-limited per unit.
    fn attempts(&self, unit: usize) -> u32 {
        read(&self.attempts_path(unit), ["attempts"])
            .and_then(|([attempts], _)| number(&attempts))
            .unwrap_or(0)
    }

    /// Bumps the unit's reassignment round (supervisor-side, called
    /// *before* the lease is released so the next claimant observes it).
    fn bump_attempts(&self, unit: usize) -> io::Result<u32> {
        let next = self.attempts(unit) + 1;
        publish(&self.attempts_path(unit), &[("attempts", &next)], "")?;
        Ok(next)
    }

    /// Tries to claim a unit for `worker` (a [`Lease`], the `.flights/`
    /// pattern). `None` means another worker holds it. Dropping the
    /// lease hands the unit back; chaos kill paths [`Lease::defuse`] it
    /// so the file survives the "crash" as it would a real SIGKILL,
    /// leaving the supervisor to reclaim it.
    fn claim(&self, unit: usize, worker: usize) -> io::Result<Option<Lease>> {
        Lease::claim(self.lease_path(unit), &worker.to_string())
    }

    /// Which worker's lease file currently claims the unit, if any.
    fn lease_owner(&self, unit: usize) -> Option<usize> {
        Lease::owner(&self.lease_path(unit))?.parse().ok()
    }

    /// Age of the unit's lease heartbeat (`None` if unleased).
    fn lease_age(&self, unit: usize) -> Option<Duration> {
        Lease::age(&self.lease_path(unit))
    }

    /// Removes the unit's lease file (supervisor-side reclaim). Missing
    /// is fine: the holder may have released it concurrently.
    fn release_lease(&self, unit: usize) -> io::Result<()> {
        Lease::remove(&self.lease_path(unit))
    }
}

/// How a worker process collects and how it simulates process faults.
#[derive(Debug, Clone, Copy)]
pub struct WorkerOptions {
    /// Chaos plan; `None` injects nothing. Process-level sites consult
    /// [`FaultPlan::worker_kill`], [`FaultPlan::heartbeat_stall`], and
    /// [`FaultPlan::torn_handoff`] keyed by `u<unit>.m<machine>` and the
    /// unit's reassignment round.
    pub faults: Option<FaultPlan>,
    /// Retry budget for in-machine transient/I/O faults.
    pub policy: FaultPolicy,
    /// The supervisor's staleness horizon; an injected stall sleeps 1.5x
    /// this long so the supervisor reliably declares the worker dead.
    pub stale_after: Duration,
    /// Sleep between claim rounds when every open unit is leased
    /// elsewhere.
    pub poll: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            faults: None,
            policy: FaultPolicy::default(),
            stale_after: Duration::from_millis(1000),
            poll: Duration::from_millis(20),
        }
    }
}

/// What one worker accomplished before exiting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Units this worker marked done.
    pub completed_units: usize,
    /// Machines this worker collected fresh.
    pub collected: usize,
    /// Machines skipped because the journal already held a valid shard
    /// (an earlier run's, or a dead or concurrent worker's).
    pub imported: usize,
    /// Chaos faults injected (in-machine and process-level).
    pub injected: u64,
    /// In-machine retries performed.
    pub retried: u64,
    /// A chaos kill or torn handoff fired: the caller must exit nonzero
    /// *without* cleanup, as a real crash would.
    pub killed: bool,
}

enum UnitResult {
    /// Every machine of the unit has a valid shard; marker written.
    Done,
    /// The lease was reclaimed out from under us (stall or race); the
    /// unit now belongs to someone else.
    Lost,
    /// A chaos kill/torn-handoff site fired while holding the lease.
    Killed,
}

/// The worker-process main loop: claim open units, collect their
/// machines into the journal at `journal` (skipping any machine whose
/// shard there is already valid), heartbeat between machines, and exit
/// once every unit is done or quarantined.
///
/// Returns `Ok` with [`WorkerOutcome::killed`] set when a chaos process
/// fault fired — the binary entry point turns that into a nonzero exit
/// so the supervisor observes a real death.
pub fn run_worker(
    root: &Path,
    journal: &Path,
    cluster: &Cluster,
    config: &CampaignConfig,
    worker: usize,
    options: &WorkerOptions,
) -> Result<WorkerOutcome, DistributedError> {
    let exchange = ExchangeDir::open(root, config)?;
    let journal = ShardJournal::open(journal, config)?;
    let mut outcome = WorkerOutcome::default();
    loop {
        let mut open = 0usize;
        let mut progressed = false;
        for unit in exchange.units() {
            if exchange.is_done(unit.index) || exchange.is_quarantined(unit.index) {
                continue;
            }
            open += 1;
            let Some(lease) = exchange.claim(unit.index, worker)? else {
                continue;
            };
            progressed = true;
            let attempt = exchange.attempts(unit.index);
            let result = collect_unit(
                &exchange,
                &journal,
                cluster,
                config,
                worker,
                unit,
                attempt,
                &lease,
                options,
                &mut outcome,
            );
            match result {
                Ok(UnitResult::Done) => {
                    exchange.mark_done(unit.index)?;
                    lease.release();
                    outcome.completed_units += 1;
                }
                Ok(UnitResult::Lost) => lease.defuse(),
                Ok(UnitResult::Killed) => {
                    outcome.killed = true;
                    lease.defuse();
                    return Ok(outcome);
                }
                Err(e) => {
                    // Leave the lease in place: the supervisor will see
                    // this worker die, reclaim the unit by owner, and
                    // bump its reassignment round — exactly as for a
                    // kill. Releasing here would retry at the same round
                    // forever.
                    lease.defuse();
                    return Err(e);
                }
            }
        }
        if open == 0 {
            return Ok(outcome);
        }
        if !progressed {
            // Everything open is leased elsewhere; wait for the holders
            // to finish or for the supervisor to break a stale lease.
            std::thread::sleep(options.poll);
        }
    }
}

/// Collects every machine of one claimed unit. Chaos order per machine:
/// stall (before collecting), then collect + journal (with in-machine
/// fault retries), then torn handoff (destroy the commit and die), then
/// kill (die post-commit). Heartbeats and ownership checks sit between
/// machines.
#[allow(clippy::too_many_arguments)]
fn collect_unit(
    exchange: &ExchangeDir,
    journal: &ShardJournal,
    cluster: &Cluster,
    config: &CampaignConfig,
    worker: usize,
    unit: &WorkUnit,
    attempt: u32,
    lease: &Lease,
    options: &WorkerOptions,
    outcome: &mut WorkerOutcome,
) -> Result<UnitResult, DistributedError> {
    let collect_options = CollectOptions {
        jobs: Some(1),
        journal: None,
        faults: options.faults,
        policy: options.policy,
    };
    for &machine in &unit.machines {
        if matches!(journal.load_status(machine), ShardStatus::Valid(_)) {
            outcome.imported += 1;
        } else {
            let site = format!("u{}.m{}", unit.index, machine.0);
            if options
                .faults
                .is_some_and(|f| f.heartbeat_stall(&site, attempt))
            {
                outcome.injected += 1;
                telemetry::metrics::counter("fault.injected").inc();
                // Go silent past the staleness horizon: no heartbeat, no
                // progress. The supervisor reclaims the lease mid-sleep.
                std::thread::sleep(options.stale_after + options.stale_after / 2);
                if exchange.lease_owner(unit.index) != Some(worker) {
                    return Ok(UnitResult::Lost);
                }
            }
            let report = collect_one_machine(cluster, config, machine, journal, &collect_options)?;
            outcome.collected += 1;
            outcome.injected += report.injected;
            outcome.retried += report.retried;
            if options
                .faults
                .is_some_and(|f| f.torn_handoff(&site, attempt))
            {
                outcome.injected += 1;
                telemetry::metrics::counter("fault.injected").inc();
                tear_shard(&journal.shard_path(machine))?;
                return Ok(UnitResult::Killed);
            }
            if options
                .faults
                .is_some_and(|f| f.worker_kill(&site, attempt))
            {
                outcome.injected += 1;
                telemetry::metrics::counter("fault.injected").inc();
                return Ok(UnitResult::Killed);
            }
        }
        if exchange.lease_owner(unit.index) != Some(worker) {
            return Ok(UnitResult::Lost);
        }
        if lease.heartbeat().is_err() {
            return Ok(UnitResult::Lost);
        }
    }
    Ok(UnitResult::Done)
}

/// Truncates a freshly committed shard mid-file — the torn-handoff
/// injection. The checksum guarantees the next claimant detects it.
fn tear_shard(path: &Path) -> io::Result<()> {
    let len = std::fs::metadata(path)?.len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)?
        .set_len(len / 2)
}

/// How a worker process ended, from the supervisor's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// Exit status zero: the worker drained the exchange and left.
    Clean,
    /// Nonzero exit, SIGKILL, or a chaos kill: the worker died holding
    /// whatever leases it held.
    Died,
}

/// A spawned worker the supervisor can poll — a subprocess in the CLI,
/// a thread in the in-process tests.
pub trait WorkerHandle {
    /// The worker index this handle was spawned with.
    fn worker(&self) -> usize;
    /// Non-blocking reap: `Some(exit)` once the worker has ended.
    fn try_finish(&mut self) -> io::Result<Option<WorkerExit>>;
}

/// Supervisor policy: fleet size, staleness horizon, poll cadence, and
/// the per-unit reassignment budget.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Target number of live workers while open units remain.
    pub workers: usize,
    /// A lease older than this is considered orphaned and reclaimed
    /// (its holder is dead or stalled). Must comfortably exceed the
    /// worst-case per-machine collect time, since workers heartbeat
    /// between machines.
    pub stale_after: Duration,
    /// Monitor loop tick.
    pub poll: Duration,
    /// Reassignment rounds before a unit is quarantined. Must exceed
    /// [`testbed::MAX_FAULTS_PER_SITE`] so chaos alone can never
    /// quarantine a unit.
    pub max_unit_attempts: u32,
}

impl SupervisorConfig {
    /// Defaults for `workers` workers: 1 s staleness horizon, 25 ms
    /// poll, 4 reassignment rounds.
    pub fn new(workers: usize) -> Self {
        SupervisorConfig {
            workers: workers.max(1),
            stale_after: Duration::from_millis(1000),
            poll: Duration::from_millis(25),
            max_unit_attempts: 4,
        }
    }
}

/// What the supervisor observed: the `collect.worker.*` counters plus
/// the partition size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistributedReport {
    /// Worker processes spawned (initial fleet + respawns).
    pub spawned: u64,
    /// Worker deaths observed (nonzero exits, kills).
    pub died: u64,
    /// Lease reclaims that put a unit back up for grabs.
    pub reassigned: u64,
    /// Units that exhausted the reassignment budget.
    pub quarantined: u64,
    /// Units in the partition.
    pub units: u64,
}

/// The supervisor loop: keep the fleet alive, reap the dead, reclaim
/// their leases, break stale heartbeats, and return once every unit is
/// done or quarantined and every worker has exited.
///
/// `spawn` is called with a fresh worker index for the initial fleet and
/// for every respawn; respawns never reuse an index, so a dead worker's
/// stale lease can never be mistaken for its successor's.
pub fn supervise(
    exchange: &ExchangeDir,
    spawn: &mut dyn FnMut(usize) -> io::Result<Box<dyn WorkerHandle>>,
    config: &SupervisorConfig,
) -> Result<DistributedReport, DistributedError> {
    let mut report = DistributedReport {
        units: exchange.units().len() as u64,
        ..DistributedReport::default()
    };
    // Backstop: with attempt-gated chaos this is unreachable, but a
    // genuinely diverging fleet must not respawn forever.
    let spawn_cap = config.workers as u64 + report.units * (config.max_unit_attempts as u64 + 2);
    let mut next_worker = 0usize;
    let mut handles: Vec<Box<dyn WorkerHandle>> = Vec::new();
    let mut spawn_one = |handles: &mut Vec<Box<dyn WorkerHandle>>,
                         report: &mut DistributedReport,
                         next_worker: &mut usize|
     -> Result<(), DistributedError> {
        if report.spawned >= spawn_cap {
            return Err(DistributedError::SpawnBudget {
                spawned: report.spawned,
            });
        }
        handles.push(spawn(*next_worker)?);
        *next_worker += 1;
        report.spawned += 1;
        telemetry::metrics::counter("collect.worker.spawned").inc();
        Ok(())
    };
    for _ in 0..config.workers {
        spawn_one(&mut handles, &mut report, &mut next_worker)?;
    }
    loop {
        // Reap finished workers; a death orphans its leases, which are
        // reclaimed immediately by owner.
        let mut i = 0;
        while i < handles.len() {
            match handles[i].try_finish()? {
                None => i += 1,
                Some(exit) => {
                    let worker = handles[i].worker();
                    handles.swap_remove(i);
                    if exit == WorkerExit::Died {
                        report.died += 1;
                        telemetry::metrics::counter("collect.worker.died").inc();
                        for unit in exchange.units() {
                            if exchange.lease_owner(unit.index) == Some(worker) {
                                reclaim_unit(exchange, unit.index, config, &mut report)?;
                            }
                        }
                    }
                }
            }
        }
        // Break stale leases: the holder stopped heartbeating (stalled,
        // wedged, or died without the handle noticing yet).
        for unit in exchange.units() {
            if exchange.is_done(unit.index) {
                continue;
            }
            if exchange
                .lease_age(unit.index)
                .is_some_and(|age| age > config.stale_after)
            {
                reclaim_unit(exchange, unit.index, config, &mut report)?;
            }
        }
        let open = exchange.open_units().len();
        if open == 0 && handles.is_empty() {
            return Ok(report);
        }
        // Keep the fleet at strength while there is open work.
        while open > 0 && handles.len() < config.workers {
            spawn_one(&mut handles, &mut report, &mut next_worker)?;
        }
        std::thread::sleep(config.poll);
    }
}

/// Reclaims one unit's lease: bump the reassignment round, quarantine
/// past the budget, and remove the lease file so survivors can claim it.
/// A unit that is already done just sheds its orphaned lease.
fn reclaim_unit(
    exchange: &ExchangeDir,
    unit: usize,
    config: &SupervisorConfig,
    report: &mut DistributedReport,
) -> Result<(), DistributedError> {
    if !exchange.is_done(unit) && !exchange.is_quarantined(unit) {
        let attempts = exchange.bump_attempts(unit)?;
        if attempts > config.max_unit_attempts {
            exchange.quarantine(unit, attempts)?;
            report.quarantined += 1;
            telemetry::metrics::counter("collect.worker.quarantined").inc();
        } else {
            report.reassigned += 1;
            telemetry::metrics::counter("collect.worker.reassigned").inc();
        }
    }
    exchange.release_lease(unit)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{collect, provision, selected_machine_ids};
    use workloads::BenchmarkId;

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "distributed-{label}-{}-{:?}",
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

    #[test]
    fn partition_is_contiguous_and_covers_every_machine() {
        let machines: Vec<MachineId> = (0..10).map(MachineId).collect();
        let units = partition_units(&machines, 4);
        assert_eq!(units.len(), 4);
        let flattened: Vec<MachineId> = units.iter().flat_map(|u| u.machines.clone()).collect();
        assert_eq!(flattened, machines);
        assert!(partition_units(&machines, 100).len() <= machines.len());
        assert!(partition_units(&[], 4).is_empty());
    }

    #[test]
    fn exchange_round_trips_and_refuses_foreign_configs() {
        let root = temp_dir("roundtrip");
        let config = tiny_config(31);
        let machines: Vec<MachineId> = (0..6).map(MachineId).collect();
        let units = partition_units(&machines, 3);
        let created = ExchangeDir::create(&root, &config, units.clone()).unwrap();
        assert_eq!(created.units(), units.as_slice());
        let opened = ExchangeDir::open(&root, &config).unwrap();
        assert_eq!(opened.units(), units.as_slice());
        // Re-creating with the same state resumes; a different config is
        // refused both ways.
        assert!(ExchangeDir::create(&root, &config, units.clone()).is_ok());
        let other = tiny_config(32);
        assert!(matches!(
            ExchangeDir::open(&root, &other),
            Err(DistributedError::Exchange(_))
        ));
        assert!(matches!(
            ExchangeDir::create(&root, &other, partition_units(&machines, 3)),
            Err(DistributedError::Exchange(_))
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_older_exchange_format_is_named_as_such() {
        let root = temp_dir("v1");
        let config = tiny_config(30);
        let units = partition_units(&[MachineId(0)], 1);
        ExchangeDir::create(&root, &config, units.clone()).unwrap();
        // The meta file as the v1 format wrote it.
        let v1 = format!(
            "collect-exchange v1\nconfig {:016x}\nunits 1\n",
            ShardJournal::config_fingerprint(&config)
        );
        std::fs::write(root.join("exchange.meta"), v1).unwrap();
        for err in [
            ExchangeDir::open(&root, &config).unwrap_err(),
            ExchangeDir::create(&root, &config, units).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    DistributedError::Journal(JournalError::FormatVersion { .. })
                ),
                "{err}"
            );
            assert!(err.to_string().contains("older on-disk format"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn leases_are_exclusive_and_heartbeat() {
        let root = temp_dir("lease");
        let config = tiny_config(33);
        let units = partition_units(&[MachineId(0), MachineId(1)], 1);
        let exchange = ExchangeDir::create(&root, &config, units).unwrap();
        let lease = exchange.claim(0, 7).unwrap().expect("first claim leads");
        assert!(exchange.claim(0, 8).unwrap().is_none(), "unit is held");
        assert_eq!(exchange.lease_owner(0), Some(7));
        assert!(exchange.lease_age(0).unwrap() < Duration::from_secs(5));
        lease.heartbeat().unwrap();
        lease.release();
        assert_eq!(exchange.lease_owner(0), None);
        // A defused lease leaves the file behind, like a crash.
        let lease = exchange.claim(0, 9).unwrap().unwrap();
        lease.defuse();
        assert_eq!(exchange.lease_owner(0), Some(9));
        exchange.release_lease(0).unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn attempts_and_quarantine_round_trip() {
        let root = temp_dir("attempts");
        let config = tiny_config(34);
        let exchange =
            ExchangeDir::create(&root, &config, partition_units(&[MachineId(0)], 1)).unwrap();
        assert_eq!(exchange.attempts(0), 0);
        assert_eq!(exchange.bump_attempts(0).unwrap(), 1);
        assert_eq!(exchange.bump_attempts(0).unwrap(), 2);
        assert_eq!(exchange.attempts(0), 2);
        assert!(!exchange.is_quarantined(0));
        exchange.quarantine(0, 2).unwrap();
        assert!(exchange.is_quarantined(0));
        assert!(exchange.open_units().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn single_worker_drains_the_exchange_into_a_jobs1_journal() {
        let root = temp_dir("drain");
        let journal_dir = temp_dir("drain-journal");
        let config = tiny_config(35);
        let cluster = provision(&config);
        let machines = selected_machine_ids(&cluster, &config);
        let units = partition_units(&machines, 4);
        let exchange = ExchangeDir::create(&root, &config, units).unwrap();
        let outcome = run_worker(
            &root,
            &journal_dir,
            &cluster,
            &config,
            0,
            &WorkerOptions::default(),
        )
        .unwrap();
        assert!(!outcome.killed);
        assert_eq!(outcome.collected, machines.len());
        assert_eq!(outcome.completed_units, 4);
        assert!(exchange.open_units().is_empty());

        // Byte-compare against a single-process --jobs 1 run.
        let journal = ShardJournal::open(&journal_dir, &config).unwrap();
        let reference_dir = temp_dir("drain-reference");
        let reference = ShardJournal::open(&reference_dir, &config).unwrap();
        collect(
            &cluster,
            &config,
            &CollectOptions {
                jobs: Some(1),
                journal: Some(&reference),
                ..CollectOptions::default()
            },
        )
        .unwrap();
        for &m in &machines {
            assert_eq!(
                std::fs::read(journal.shard_path(m)).unwrap(),
                std::fs::read(reference.shard_path(m)).unwrap(),
                "shard m{} diverged",
                m.0
            );
        }
        for dir in [&root, &journal_dir, &reference_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn torn_shards_are_detected_and_recollected() {
        let root = temp_dir("torn");
        let journal_dir = temp_dir("torn-journal");
        let config = tiny_config(36);
        let cluster = provision(&config);
        let machines = selected_machine_ids(&cluster, &config);
        ExchangeDir::create(&root, &config, partition_units(&machines, 2)).unwrap();
        let options = WorkerOptions::default();
        // Worker 0 collects everything, then we tear one of its shards: a
        // fresh worker must re-collect the machine rather than trust it.
        run_worker(&root, &journal_dir, &cluster, &config, 0, &options).unwrap();
        let journal = ShardJournal::open(&journal_dir, &config).unwrap();
        let victim = machines[0];
        tear_shard(&journal.shard_path(victim)).unwrap();
        assert_eq!(journal.load_status(victim), ShardStatus::Corrupt);
        // The unit is already marked done, so clear its marker to force
        // re-collection (this is what reassignment does in real runs).
        std::fs::remove_file(root.join("done").join("u0.done")).unwrap();
        let outcome = run_worker(&root, &journal_dir, &cluster, &config, 1, &options).unwrap();
        assert_eq!(outcome.collected, 1, "only the torn machine is redone");
        assert!(matches!(journal.load_status(victim), ShardStatus::Valid(_)));
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&journal_dir);
    }
}
