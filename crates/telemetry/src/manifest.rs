//! Run manifests: provenance for every batch of artifacts.
//!
//! A [`RunManifest`] records what produced a directory of artifacts —
//! seed, scale, crate versions, host, per-experiment wall times, and
//! artifact counts — and serializes to JSON next to them, so a CSV found
//! on disk six months later can be traced back to an exact configuration.

use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{self, Json};

/// Version of the manifest schema. Bump when a field changes meaning or
/// a consumer-visible invariant (like the [`CacheSection::summary`]
/// ordering contract) changes. Manifests written before the field
/// existed read back with `schema_version == 0`; consumers such as the
/// regression sentinel upgrade version 0 gracefully and refuse versions
/// *newer* than they understand rather than misreading them.
pub const MANIFEST_SCHEMA_VERSION: u32 = 1;

/// Host identification captured at manifest creation.
#[derive(Debug, Clone, PartialEq)]
pub struct HostInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available parallelism (logical CPUs), 1 if undeterminable.
    pub cpus: usize,
    /// Hostname, or `"unknown"` when it cannot be read.
    pub hostname: String,
}

impl HostInfo {
    /// Detects the current host using std-only sources.
    fn detect() -> Self {
        let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|s| s.trim().to_string())
            .or_else(|_| std::env::var("HOSTNAME"))
            .unwrap_or_else(|_| "unknown".to_string());
        HostInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            hostname,
        }
    }
}

/// Name and version of one workspace crate involved in the run.
#[derive(Debug, Clone, PartialEq)]
pub struct CrateVersion {
    /// Crate name.
    pub name: String,
    /// Semantic version string.
    pub version: String,
}

/// Wall time and output of one experiment within the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTiming {
    /// Experiment id (e.g. `"F9"`).
    pub id: String,
    /// Wall time of the experiment's run function, in seconds.
    pub wall_secs: f64,
    /// Number of artifacts the experiment produced.
    pub artifacts: usize,
}

/// Artifact-cache accounting for one run. Fields are declared in
/// alphabetical order so the serialized section is deterministically
/// keyed, and none of them carries a timestamp or host detail — the
/// section depends only on what the cache did, which the golden
/// regression fixture relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSection {
    /// Whether the cache was consulted at all (`false` under
    /// `--no-cache`; the counters are then all zero).
    pub enabled: bool,
    /// Experiments served from the cache.
    pub hits: u64,
    /// Entries found corrupt, truncated, or stale and recomputed.
    pub invalidated: u64,
    /// Experiments not found in the cache (clean misses).
    pub misses: u64,
    /// Entries written by this run.
    pub stored: u64,
}

impl CacheSection {
    /// One-line deterministic rendering, e.g.
    /// `cache: 24 hits, 0 invalidated, 0 misses, 0 stored`, or
    /// `cache: disabled`. Stable across hosts and runs with equal
    /// counters.
    ///
    /// **Ordering contract:** counters appear in alphabetical order of
    /// their field names (`hits`, `invalidated`, `misses`, `stored`) —
    /// the same order the struct declares and serializes them. The
    /// regression sentinel stores these lines in run-history records,
    /// so the rendering must diff cleanly across runs and releases;
    /// reordering it is a manifest-schema change
    /// ([`MANIFEST_SCHEMA_VERSION`]).
    pub fn summary(&self) -> String {
        if !self.enabled {
            return "cache: disabled".to_string();
        }
        format!(
            "cache: {} hits, {} invalidated, {} misses, {} stored",
            self.hits, self.invalidated, self.misses, self.stored
        )
    }
}

/// Fault-injection and recovery accounting for one run. Fields are
/// declared in alphabetical order so the serialized section is
/// deterministically keyed; like [`CacheSection`] it carries no
/// timestamps or host details. Counts are observability, not part of the
/// byte-identity contract: two runs that take different fault paths to
/// the same artifacts may legitimately differ here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSection {
    /// Whether chaos injection was armed (`--chaos` / `REPRO_CHAOS`).
    pub enabled: bool,
    /// Faults injected: transient machine faults, I/O errors, and
    /// worker deaths. A machine's transient faults fire once per run,
    /// when it is collected or first regenerated, so a run whose
    /// experiments never walk the dataset takes none without a journal.
    pub injected: u64,
    /// Experiments that kept failing past the retry budget and were
    /// quarantined per-id (their siblings still produced artifacts).
    pub quarantined: u64,
    /// Retries performed after transient or I/O failures.
    pub retried: u64,
}

impl FaultSection {
    /// One-line deterministic rendering, e.g.
    /// `faults: 3 injected, 0 quarantined, 2 retried`, or
    /// `faults: disabled`.
    ///
    /// **Ordering contract:** counters appear in alphabetical order of
    /// their field names (`injected`, `quarantined`, `retried`), like
    /// [`CacheSection::summary`] — see there for why the order is part
    /// of the schema.
    pub fn summary(&self) -> String {
        if !self.enabled {
            return "faults: disabled".to_string();
        }
        format!(
            "faults: {} injected, {} quarantined, {} retried",
            self.injected, self.quarantined, self.retried
        )
    }
}

/// Streaming data-path accounting for one run (DESIGN.md §11). Fields
/// are declared in alphabetical order so the serialized section is
/// deterministically keyed; like [`CacheSection`] it carries no
/// timestamps or host details. The residency peaks are observability,
/// not output: they prove the memory bound (O(largest shard), not
/// O(fleet)) without entering the byte-identity contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSection {
    /// Whether the walk read a journal, which it does exactly when
    /// `--resume` names one.
    pub enabled: bool,
    /// Peak number of measurement records simultaneously resident in
    /// the stream layer — bounded by the largest shard times the number
    /// of concurrent consumers, never by the fleet.
    pub peak_live_samples: u64,
    /// Peak number of journal shards held in memory at once.
    pub peak_shards_resident: u64,
    /// Total shard replays performed across all streaming passes.
    pub shards_streamed: u64,
}

impl StreamSection {
    /// One-line deterministic rendering, e.g.
    /// `stream: 5500 peak live samples, 2 peak shards resident, 330 shards streamed`,
    /// or `stream: disabled`.
    ///
    /// **Ordering contract:** counters appear in alphabetical order of
    /// their field names (`peak_live_samples`, `peak_shards_resident`,
    /// `shards_streamed`), like [`CacheSection::summary`] — see there
    /// for why the order is part of the schema.
    pub fn summary(&self) -> String {
        if !self.enabled {
            return "stream: disabled".to_string();
        }
        format!(
            "stream: {} peak live samples, {} peak shards resident, {} shards streamed",
            self.peak_live_samples, self.peak_shards_resident, self.shards_streamed
        )
    }
}

/// Distributed-collection accounting for one run (DESIGN.md §12).
/// Fields are declared in alphabetical order so the serialized section
/// is deterministically keyed; like [`CacheSection`] it carries no
/// timestamps or host details. Counts are observability, not part of
/// the byte-identity contract: two kill schedules that converge to the
/// same journal may legitimately differ here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributedSection {
    /// Whether collection ran distributed (`--distributed N`).
    pub enabled: bool,
    /// Worker deaths the supervisor observed (nonzero exits, kills).
    pub died: u64,
    /// Work units quarantined past the reassignment budget.
    pub quarantined: u64,
    /// Lease reclaims that put a unit back up for grabs.
    pub reassigned: u64,
    /// Worker processes spawned (initial fleet + respawns).
    pub spawned: u64,
    /// Work units in the partition.
    pub units: u64,
    /// Worker processes the supervisor aimed to keep live.
    pub workers: u64,
}

impl DistributedSection {
    /// One-line deterministic rendering, e.g.
    /// `distributed: 2 died, 0 quarantined, 2 reassigned, 6 spawned, 16 units, 4 workers`,
    /// or `distributed: disabled`.
    ///
    /// **Ordering contract:** counters appear in alphabetical order of
    /// their field names (`died`, `quarantined`, `reassigned`,
    /// `spawned`, `units`, `workers`), like
    /// [`CacheSection::summary`] — see there for why the order is part
    /// of the schema.
    pub fn summary(&self) -> String {
        if !self.enabled {
            return "distributed: disabled".to_string();
        }
        format!(
            "distributed: {} died, {} quarantined, {} reassigned, \
             {} spawned, {} units, {} workers",
            self.died, self.quarantined, self.reassigned, self.spawned, self.units, self.workers
        )
    }
}

/// Everything needed to identify and reproduce one `repro` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Schema version of this manifest
    /// ([`MANIFEST_SCHEMA_VERSION`] at write time). Reads back as 0
    /// for manifests written before the field existed.
    pub schema_version: u32,
    /// Producing tool (e.g. `"repro"`).
    pub tool: String,
    /// Version of the producing tool.
    pub version: String,
    /// RNG seed the run was driven by.
    pub seed: u64,
    /// Scale preset (`"quick"` or `"paper"`).
    pub scale: String,
    /// Unix timestamp (whole seconds) when the manifest was created.
    pub started_unix_secs: u64,
    /// Total wall time of the run, in seconds.
    pub total_wall_secs: f64,
    /// Host the run executed on.
    pub host: HostInfo,
    /// Workspace crates and their versions.
    pub crates: Vec<CrateVersion>,
    /// Records in the simulated campaign dataset.
    pub records: u64,
    /// Machines in the simulated testbed.
    pub machines: u64,
    /// Per-experiment timings, in execution order.
    pub experiments: Vec<ExperimentTiming>,
    /// Total artifacts across all experiments.
    pub artifact_count: u64,
    /// Artifact-cache accounting, when the producing tool has one.
    /// Absent in manifests written before the cache existed.
    pub cache: Option<CacheSection>,
    /// Fault-injection and recovery accounting. Absent in manifests
    /// written before the fault harness existed.
    pub faults: Option<FaultSection>,
    /// Streaming data-path accounting. Absent in manifests written
    /// before the streaming path existed and in runs without `--resume`.
    pub stream: Option<StreamSection>,
    /// Distributed-collection accounting. Absent in manifests written
    /// before distributed collection existed and in single-process runs.
    pub distributed: Option<DistributedSection>,
}

impl RunManifest {
    /// Starts a manifest for `tool` at `version`, stamping host and time.
    pub fn new(tool: &str, version: &str, seed: u64, scale: &str) -> Self {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            tool: tool.to_string(),
            version: version.to_string(),
            seed,
            scale: scale.to_string(),
            started_unix_secs: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            total_wall_secs: 0.0,
            host: HostInfo::detect(),
            crates: Vec::new(),
            records: 0,
            machines: 0,
            experiments: Vec::new(),
            artifact_count: 0,
            cache: None,
            faults: None,
            stream: None,
            distributed: None,
        }
    }

    /// Registers a workspace crate's version.
    pub fn push_crate(&mut self, name: &str, version: &str) {
        self.crates.push(CrateVersion {
            name: name.to_string(),
            version: version.to_string(),
        });
    }

    /// Appends one experiment's timing and adds to the artifact total.
    pub fn push_experiment(&mut self, id: &str, wall_secs: f64, artifacts: usize) {
        self.experiments.push(ExperimentTiming {
            id: id.to_string(),
            wall_secs,
            artifacts,
        });
        self.artifact_count += artifacts as u64;
    }

    /// The manifest as JSON, keys in field-declaration order; absent
    /// sections are `null`. `manifest.json` is its
    /// [`pretty`](Json::pretty) layout.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema_version", self.schema_version.into()),
            ("tool", (&self.tool).into()),
            ("version", (&self.version).into()),
            ("seed", self.seed.into()),
            ("scale", (&self.scale).into()),
            ("started_unix_secs", self.started_unix_secs.into()),
            ("total_wall_secs", self.total_wall_secs.into()),
            (
                "host",
                Json::object([
                    ("os", (&self.host.os).into()),
                    ("arch", (&self.host.arch).into()),
                    ("cpus", self.host.cpus.into()),
                    ("hostname", (&self.host.hostname).into()),
                ]),
            ),
            (
                "crates",
                self.crates
                    .iter()
                    .map(|c| {
                        Json::object([("name", (&c.name).into()), ("version", (&c.version).into())])
                    })
                    .collect(),
            ),
            ("records", self.records.into()),
            ("machines", self.machines.into()),
            (
                "experiments",
                self.experiments
                    .iter()
                    .map(|e| {
                        Json::object([
                            ("id", (&e.id).into()),
                            ("wall_secs", e.wall_secs.into()),
                            ("artifacts", e.artifacts.into()),
                        ])
                    })
                    .collect(),
            ),
            ("artifact_count", self.artifact_count.into()),
            (
                "cache",
                self.cache
                    .map(|c| {
                        Json::object([
                            ("enabled", c.enabled.into()),
                            ("hits", c.hits.into()),
                            ("invalidated", c.invalidated.into()),
                            ("misses", c.misses.into()),
                            ("stored", c.stored.into()),
                        ])
                    })
                    .into(),
            ),
            (
                "faults",
                self.faults
                    .map(|f| {
                        Json::object([
                            ("enabled", f.enabled.into()),
                            ("injected", f.injected.into()),
                            ("quarantined", f.quarantined.into()),
                            ("retried", f.retried.into()),
                        ])
                    })
                    .into(),
            ),
            (
                "stream",
                self.stream
                    .map(|s| {
                        Json::object([
                            ("enabled", s.enabled.into()),
                            ("peak_live_samples", s.peak_live_samples.into()),
                            ("peak_shards_resident", s.peak_shards_resident.into()),
                            ("shards_streamed", s.shards_streamed.into()),
                        ])
                    })
                    .into(),
            ),
            (
                "distributed",
                self.distributed
                    .map(|d| {
                        Json::object([
                            ("enabled", d.enabled.into()),
                            ("died", d.died.into()),
                            ("quarantined", d.quarantined.into()),
                            ("reassigned", d.reassigned.into()),
                            ("spawned", d.spawned.into()),
                            ("units", d.units.into()),
                            ("workers", d.workers.into()),
                        ])
                    })
                    .into(),
            ),
        ])
    }

    /// Reads a manifest written by [`RunManifest::to_json`] or by an
    /// older release: a missing `schema_version` reads as 0, a missing
    /// or `null` section as `None`, and unknown keys are ignored. An
    /// error names the missing or mistyped key.
    pub fn from_json(text: &str) -> Result<Self, json::Error> {
        let value = json::parse(text)?;
        let m = Fields::of(&value, String::new())?;
        Ok(RunManifest {
            schema_version: match m.optional("schema_version") {
                None => 0,
                Some(_) => m.read("schema_version", "a 32-bit unsigned integer", |v| {
                    v.as_u64().and_then(|v| u32::try_from(v).ok())
                })?,
            },
            tool: m.string("tool")?,
            version: m.string("version")?,
            seed: m.u64("seed")?,
            scale: m.string("scale")?,
            started_unix_secs: m.u64("started_unix_secs")?,
            total_wall_secs: m.f64("total_wall_secs")?,
            host: {
                let h = m.object("host")?;
                HostInfo {
                    os: h.string("os")?,
                    arch: h.string("arch")?,
                    cpus: h.usize("cpus")?,
                    hostname: h.string("hostname")?,
                }
            },
            crates: m.array("crates", |c| {
                Ok(CrateVersion {
                    name: c.string("name")?,
                    version: c.string("version")?,
                })
            })?,
            records: m.u64("records")?,
            machines: m.u64("machines")?,
            experiments: m.array("experiments", |e| {
                Ok(ExperimentTiming {
                    id: e.string("id")?,
                    wall_secs: e.f64("wall_secs")?,
                    artifacts: e.usize("artifacts")?,
                })
            })?,
            artifact_count: m.u64("artifact_count")?,
            cache: m.section("cache", |c| {
                Ok(CacheSection {
                    enabled: c.bool("enabled")?,
                    hits: c.u64("hits")?,
                    invalidated: c.u64("invalidated")?,
                    misses: c.u64("misses")?,
                    stored: c.u64("stored")?,
                })
            })?,
            faults: m.section("faults", |f| {
                Ok(FaultSection {
                    enabled: f.bool("enabled")?,
                    injected: f.u64("injected")?,
                    quarantined: f.u64("quarantined")?,
                    retried: f.u64("retried")?,
                })
            })?,
            stream: m.section("stream", |s| {
                Ok(StreamSection {
                    enabled: s.bool("enabled")?,
                    peak_live_samples: s.u64("peak_live_samples")?,
                    peak_shards_resident: s.u64("peak_shards_resident")?,
                    shards_streamed: s.u64("shards_streamed")?,
                })
            })?,
            distributed: m.section("distributed", |d| {
                Ok(DistributedSection {
                    enabled: d.bool("enabled")?,
                    died: d.u64("died")?,
                    quarantined: d.u64("quarantined")?,
                    reassigned: d.u64("reassigned")?,
                    spawned: d.u64("spawned")?,
                    units: d.u64("units")?,
                    workers: d.u64("workers")?,
                })
            })?,
        })
    }
}

/// One object of a manifest being read. Every error names its key by
/// the full path (`host.cpus`, `experiments[2].id`).
struct Fields<'a> {
    object: &'a Json,
    path: String,
}

impl<'a> Fields<'a> {
    fn of(value: &'a Json, path: String) -> Result<Self, json::Error> {
        match value {
            Json::Object(_) => Ok(Fields {
                object: value,
                path,
            }),
            _ if path.is_empty() => Err(json::Error::new("manifest: expected an object")),
            _ => Err(json::Error::new(format!(
                "key `{path}`: expected an object"
            ))),
        }
    }

    fn path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// The value under `key`; `None` when it is missing or `null`.
    fn optional(&self, key: &str) -> Option<&'a Json> {
        self.object.get(key).filter(|v| **v != Json::Null)
    }

    fn read<T>(
        &self,
        key: &str,
        want: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, json::Error> {
        let value = self
            .object
            .get(key)
            .ok_or_else(|| json::Error::new(format!("missing key `{}`", self.path(key))))?;
        read(value)
            .ok_or_else(|| json::Error::new(format!("key `{}`: expected {want}", self.path(key))))
    }

    fn u64(&self, key: &str) -> Result<u64, json::Error> {
        self.read(key, "an unsigned integer", Json::as_u64)
    }

    fn usize(&self, key: &str) -> Result<usize, json::Error> {
        self.read(key, "an unsigned integer", |v| {
            v.as_u64().and_then(|v| usize::try_from(v).ok())
        })
    }

    fn f64(&self, key: &str) -> Result<f64, json::Error> {
        self.read(key, "a number", Json::as_f64)
    }

    fn bool(&self, key: &str) -> Result<bool, json::Error> {
        self.read(key, "a boolean", Json::as_bool)
    }

    fn string(&self, key: &str) -> Result<String, json::Error> {
        self.read(key, "a string", |v| v.as_str().map(str::to_string))
    }

    fn object(&self, key: &str) -> Result<Fields<'a>, json::Error> {
        Fields::of(self.read(key, "an object", Some)?, self.path(key))
    }

    fn array<T>(
        &self,
        key: &str,
        decode: impl Fn(Fields<'a>) -> Result<T, json::Error>,
    ) -> Result<Vec<T>, json::Error> {
        let items = self.read(key, "an array", Json::as_array)?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| decode(Fields::of(item, format!("{}[{i}]", self.path(key)))?))
            .collect()
    }

    /// An optional section: `None` when missing or `null`.
    fn section<T>(
        &self,
        key: &str,
        decode: impl FnOnce(Fields<'a>) -> Result<T, json::Error>,
    ) -> Result<Option<T>, json::Error> {
        self.optional(key)
            .map(|value| decode(Fields::of(value, self.path(key))?))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_accumulates_experiments() {
        let mut m = RunManifest::new("repro", "0.1.0", 42, "quick");
        m.push_crate("varstats", "0.1.0");
        m.push_experiment("T2", 0.5, 2);
        m.push_experiment("F9", 1.25, 1);
        assert_eq!(m.seed, 42);
        assert_eq!(m.scale, "quick");
        assert_eq!(m.experiments.len(), 2);
        assert_eq!(m.artifact_count, 3);
        assert_eq!(m.experiments[1].id, "F9");
        assert!(m.experiments[1].wall_secs > m.experiments[0].wall_secs);
        assert_eq!(m.crates[0].name, "varstats");
    }

    #[test]
    fn manifest_stamps_current_schema_version() {
        let m = RunManifest::new("repro", "0.1.0", 42, "quick");
        assert_eq!(m.schema_version, MANIFEST_SCHEMA_VERSION);
        const { assert!(MANIFEST_SCHEMA_VERSION >= 1, "0 is reserved for legacy") };
    }

    #[test]
    fn cache_section_summary_is_deterministic_and_alphabetical() {
        let mut m = RunManifest::new("repro", "0.1.0", 42, "quick");
        assert_eq!(m.cache, None, "no section until the tool fills one in");
        let section = CacheSection {
            enabled: true,
            hits: 24,
            invalidated: 1,
            misses: 0,
            stored: 1,
        };
        m.cache = Some(section);
        // Counter labels render in alphabetical order — the contract
        // that lets history records diff cleanly across runs.
        assert_eq!(
            section.summary(),
            "cache: 24 hits, 1 invalidated, 0 misses, 1 stored"
        );
        let labels = ["hits", "invalidated", "misses", "stored"];
        let mut sorted = labels;
        sorted.sort_unstable();
        assert_eq!(labels, sorted);
        let disabled = CacheSection {
            enabled: false,
            hits: 0,
            invalidated: 0,
            misses: 0,
            stored: 0,
        };
        assert_eq!(disabled.summary(), "cache: disabled");
    }

    #[test]
    fn fault_section_summary_is_deterministic_and_alphabetical() {
        let mut m = RunManifest::new("repro", "0.1.0", 42, "quick");
        assert_eq!(m.faults, None, "no section until the tool fills one in");
        let section = FaultSection {
            enabled: true,
            injected: 3,
            quarantined: 0,
            retried: 2,
        };
        m.faults = Some(section);
        assert_eq!(
            section.summary(),
            "faults: 3 injected, 0 quarantined, 2 retried"
        );
        let labels = ["injected", "quarantined", "retried"];
        let mut sorted = labels;
        sorted.sort_unstable();
        assert_eq!(labels, sorted);
        let disabled = FaultSection {
            enabled: false,
            injected: 0,
            quarantined: 0,
            retried: 0,
        };
        assert_eq!(disabled.summary(), "faults: disabled");
    }

    #[test]
    fn stream_section_summary_is_deterministic_and_alphabetical() {
        let mut m = RunManifest::new("repro", "0.1.0", 42, "quick");
        assert_eq!(m.stream, None, "no section until the tool fills one in");
        let section = StreamSection {
            enabled: true,
            peak_live_samples: 5500,
            peak_shards_resident: 2,
            shards_streamed: 330,
        };
        m.stream = Some(section);
        assert_eq!(
            section.summary(),
            "stream: 5500 peak live samples, 2 peak shards resident, 330 shards streamed"
        );
        let labels = [
            "peak_live_samples",
            "peak_shards_resident",
            "shards_streamed",
        ];
        let mut sorted = labels;
        sorted.sort_unstable();
        assert_eq!(labels, sorted);
        let disabled = StreamSection {
            enabled: false,
            peak_live_samples: 0,
            peak_shards_resident: 0,
            shards_streamed: 0,
        };
        assert_eq!(disabled.summary(), "stream: disabled");
    }

    #[test]
    fn distributed_section_summary_is_deterministic_and_alphabetical() {
        let mut m = RunManifest::new("repro", "0.1.0", 42, "quick");
        assert_eq!(
            m.distributed, None,
            "no section until the tool fills one in"
        );
        let section = DistributedSection {
            enabled: true,
            died: 2,
            quarantined: 0,
            reassigned: 3,
            spawned: 6,
            units: 16,
            workers: 4,
        };
        m.distributed = Some(section);
        assert_eq!(
            section.summary(),
            "distributed: 2 died, 0 quarantined, 3 reassigned, \
             6 spawned, 16 units, 4 workers"
        );
        let labels = [
            "died",
            "quarantined",
            "reassigned",
            "spawned",
            "units",
            "workers",
        ];
        let mut sorted = labels;
        sorted.sort_unstable();
        assert_eq!(labels, sorted);
        let disabled = DistributedSection {
            enabled: false,
            died: 0,
            quarantined: 0,
            reassigned: 0,
            spawned: 0,
            units: 0,
            workers: 0,
        };
        assert_eq!(disabled.summary(), "distributed: disabled");
    }

    #[test]
    fn host_detection_is_populated() {
        let host = HostInfo::detect();
        assert!(!host.os.is_empty());
        assert!(!host.arch.is_empty());
        assert!(host.cpus >= 1);
        assert!(!host.hostname.is_empty());
    }
}
