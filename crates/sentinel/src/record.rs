//! One run, one record: the unit the history stores and the audit reads.
//!
//! Records use a checksummed line format rather than JSON so that the
//! codec has zero dependencies, the checksum covers exactly the payload
//! bytes, and a truncated file is detectable by construction (the same
//! reasoning as the artifact cache's entry format). Metric values are
//! serialized as `f64` bit patterns, so a record round-trips exactly.

use crate::{Result, SentinelError};
use std::collections::BTreeMap;
use telemetry::{RunManifest, MANIFEST_SCHEMA_VERSION};

/// Version of the record format. Bump on any change to the envelope or
/// payload grammar.
const RECORD_SCHEMA_VERSION: u32 = 1;

/// First line of every record file.
const RECORD_HEADER: &str = "sentinel-record v1";

/// One observed run: identity, audited metrics, and informational notes.
///
/// **Metrics vs notes.** `metrics` are numeric, *lower-is-better*
/// quantities the audit scores (wall times, latencies). `notes` are
/// provenance strings the audit ignores — cache and fault counters,
/// dataset sizes, host facts — kept so a flagged record can be explained
/// without re-running anything. Putting a counter that legitimately
/// varies across runs (cache hits cold vs hot) into `metrics` would
/// false-flag; that is what `notes` is for.
///
/// Both maps are `BTreeMap`s: records render and serialize in metric
/// name order, matching the telemetry snapshot ordering contract.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Record format version (`RECORD_SCHEMA_VERSION` at write time).
    pub schema_version: u32,
    /// What kind of run this was: `"repro-all"`, `"campaign"`,
    /// `"bench"`, or a caller-chosen label. Audits only compare runs of
    /// the same kind.
    pub kind: String,
    /// Producing tool (e.g. `"repro"`).
    pub tool: String,
    /// Version of the producing tool.
    pub version: String,
    /// RNG seed the run was driven by.
    pub seed: u64,
    /// Scale preset (`"quick"` or `"paper"`). Audits only compare runs
    /// at the same scale.
    pub scale: String,
    /// Fingerprint of the work the run did: `"all"` for the full
    /// registry, or a hash of the selected subset
    /// ([`workload_fingerprint`]). Audits only compare runs with equal
    /// fingerprints — a 3-experiment run must not be scored against a
    /// 24-experiment history.
    pub workload: String,
    /// Unix timestamp (whole seconds) when the run was recorded.
    pub unix_secs: u64,
    /// Audited numeric metrics, lower-is-better, in name order.
    pub metrics: BTreeMap<String, f64>,
    /// Informational provenance, ignored by the audit.
    pub notes: BTreeMap<String, String>,
}

/// Canonical fingerprint for a selected experiment subset: `"all"` when
/// nothing was filtered, otherwise a stable digest of the sorted ids.
pub fn workload_fingerprint(selected: Option<&[String]>) -> String {
    match selected {
        None => "all".to_string(),
        Some(ids) => {
            let mut sorted: Vec<&str> = ids.iter().map(String::as_str).collect();
            sorted.sort_unstable();
            format!("sel-{:016x}", durable::fnv1a64(sorted.join(",").as_bytes()))
        }
    }
}

impl RunRecord {
    /// Starts an empty record for `kind`, stamped with the current time.
    pub fn new(kind: &str, tool: &str, version: &str, seed: u64, scale: &str) -> Self {
        RunRecord {
            schema_version: RECORD_SCHEMA_VERSION,
            kind: kind.to_string(),
            tool: tool.to_string(),
            version: version.to_string(),
            seed,
            scale: scale.to_string(),
            workload: "all".to_string(),
            unix_secs: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            metrics: BTreeMap::new(),
            notes: BTreeMap::new(),
        }
    }

    /// Builds a record from a run manifest, enforcing the manifest
    /// schema contract: version 0 (pre-versioning) and the current
    /// version ingest normally; anything newer is refused with
    /// [`SentinelError::SchemaTooNew`] rather than misread.
    ///
    /// Wall times become audited metrics (`total_wall_secs` plus one
    /// `wall_secs.<id>` per experiment); cache and fault summaries,
    /// dataset sizes, and artifact counts become notes, because they
    /// legitimately differ between e.g. cold- and hot-cache runs.
    pub fn from_manifest(manifest: &RunManifest, kind: &str, workload: &str) -> Result<Self> {
        if manifest.schema_version > MANIFEST_SCHEMA_VERSION {
            return Err(SentinelError::SchemaTooNew {
                found: manifest.schema_version,
                supported: MANIFEST_SCHEMA_VERSION,
            });
        }
        let mut rec = RunRecord::new(
            kind,
            &manifest.tool,
            &manifest.version,
            manifest.seed,
            &manifest.scale,
        );
        rec.workload = workload.to_string();
        rec.unix_secs = manifest.started_unix_secs;
        rec.metrics
            .insert("total_wall_secs".to_string(), manifest.total_wall_secs);
        for exp in &manifest.experiments {
            rec.metrics
                .insert(format!("wall_secs.{}", exp.id), exp.wall_secs);
        }
        rec.notes.insert(
            "artifact_count".to_string(),
            manifest.artifact_count.to_string(),
        );
        rec.notes
            .insert("machines".to_string(), manifest.machines.to_string());
        rec.notes
            .insert("records".to_string(), manifest.records.to_string());
        rec.notes.insert(
            "host".to_string(),
            format!(
                "{}/{} {} cpus",
                manifest.host.os, manifest.host.arch, manifest.host.cpus
            ),
        );
        if manifest.schema_version == 0 {
            // Graceful upgrade: remember that this run predates manifest
            // versioning so a reader of the history knows why.
            rec.notes.insert(
                "manifest_schema".to_string(),
                "0 (legacy, upgraded)".to_string(),
            );
        }
        if let Some(cache) = &manifest.cache {
            rec.notes.insert("cache".to_string(), cache.summary());
        }
        if let Some(faults) = &manifest.faults {
            rec.notes.insert("faults".to_string(), faults.summary());
        }
        if let Some(distributed) = &manifest.distributed {
            rec.notes
                .insert("distributed".to_string(), distributed.summary());
        }
        Ok(rec)
    }

    /// Adds one audited metric. Non-finite values are rejected at the
    /// boundary so the store never holds an unauditable number.
    pub fn push_metric(&mut self, name: &str, value: f64) -> Result<()> {
        if !value.is_finite() {
            return Err(SentinelError::InvalidConfig(format!(
                "metric `{name}` is not finite ({value})"
            )));
        }
        self.metrics.insert(name.to_string(), value);
        Ok(())
    }

    /// Serializes to a [`durable::envelope`] with a `sentinel-record v1`
    /// header and a `schema` line.
    ///
    /// Payload lines are `key value` pairs; `metric <name> <bits> <display>`
    /// carries the exact `f64` bit pattern plus a human-readable
    /// rendering, and `note <name> <text>` carries provenance. Names
    /// must not contain whitespace (enforced on encode).
    pub fn encode(&self) -> Result<String> {
        let mut payload = String::new();
        payload.push_str(&format!("kind {}\n", self.kind));
        payload.push_str(&format!("tool {}\n", self.tool));
        payload.push_str(&format!("version {}\n", self.version));
        payload.push_str(&format!("seed {}\n", self.seed));
        payload.push_str(&format!("scale {}\n", self.scale));
        payload.push_str(&format!("workload {}\n", self.workload));
        payload.push_str(&format!("unix {}\n", self.unix_secs));
        for (name, value) in &self.metrics {
            if name.chars().any(char::is_whitespace) || name.is_empty() {
                return Err(SentinelError::InvalidConfig(format!(
                    "metric name `{name}` is empty or contains whitespace"
                )));
            }
            payload.push_str(&format!(
                "metric {} {:016x} {}\n",
                name,
                value.to_bits(),
                value
            ));
        }
        for (name, text) in &self.notes {
            if name.chars().any(char::is_whitespace) || name.is_empty() {
                return Err(SentinelError::InvalidConfig(format!(
                    "note name `{name}` is empty or contains whitespace"
                )));
            }
            if text.contains('\n') {
                return Err(SentinelError::InvalidConfig(format!(
                    "note `{name}` contains a newline"
                )));
            }
            payload.push_str(&format!("note {} {}\n", name, text));
        }
        let bytes = durable::encode(
            RECORD_HEADER,
            &[("schema", &self.schema_version)],
            payload.as_bytes(),
        );
        Ok(String::from_utf8(bytes).expect("a text payload makes a text envelope"))
    }

    /// Decodes a record, verifying header, schema, length, and checksum.
    /// Any mismatch is [`SentinelError::Corrupt`] — the history loader
    /// skips such files instead of trusting half a record.
    pub fn decode(text: &str) -> Result<Self> {
        let corrupt = |why: &str| SentinelError::Corrupt(why.to_string());
        let envelope = durable::decode(text.as_bytes(), RECORD_HEADER, ["schema"])
            .map_err(|e| corrupt(&format!("{e:?} envelope")))?;
        let schema_version = durable::envelope::parse_decimal(envelope.fields[0].as_bytes())
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| corrupt("malformed schema line"))?;
        if schema_version > RECORD_SCHEMA_VERSION {
            return Err(SentinelError::SchemaTooNew {
                found: schema_version,
                supported: RECORD_SCHEMA_VERSION,
            });
        }
        if schema_version < RECORD_SCHEMA_VERSION {
            return Err(corrupt("schema older than any written"));
        }
        let payload =
            std::str::from_utf8(envelope.payload).map_err(|_| corrupt("payload is not UTF-8"))?;

        let mut rec = RunRecord {
            schema_version,
            kind: String::new(),
            tool: String::new(),
            version: String::new(),
            seed: 0,
            scale: String::new(),
            workload: String::new(),
            unix_secs: 0,
            metrics: BTreeMap::new(),
            notes: BTreeMap::new(),
        };
        for line in payload.lines() {
            let (key, rest) = line
                .split_once(' ')
                .ok_or_else(|| corrupt(&format!("malformed payload line `{line}`")))?;
            match key {
                "kind" => rec.kind = rest.to_string(),
                "tool" => rec.tool = rest.to_string(),
                "version" => rec.version = rest.to_string(),
                "seed" => {
                    rec.seed = rest.parse().map_err(|_| corrupt("malformed seed"))?;
                }
                "scale" => rec.scale = rest.to_string(),
                "workload" => rec.workload = rest.to_string(),
                "unix" => {
                    rec.unix_secs = rest.parse().map_err(|_| corrupt("malformed unix"))?;
                }
                "metric" => {
                    let mut parts = rest.splitn(3, ' ');
                    let name = parts.next().ok_or_else(|| corrupt("metric without name"))?;
                    let bits = parts
                        .next()
                        .and_then(|v| u64::from_str_radix(v, 16).ok())
                        .ok_or_else(|| corrupt("metric without bit pattern"))?;
                    // The trailing display value is for humans; bits win.
                    rec.metrics.insert(name.to_string(), f64::from_bits(bits));
                }
                "note" => {
                    let (name, text) = rest
                        .split_once(' ')
                        .ok_or_else(|| corrupt("note without value"))?;
                    rec.notes.insert(name.to_string(), text.to_string());
                }
                // Forward compatibility within a schema version: unknown
                // keys are provenance we don't understand yet, not
                // corruption.
                _ => {}
            }
        }
        if rec.kind.is_empty() {
            return Err(corrupt("record has no kind"));
        }
        Ok(rec)
    }

    /// Whether `other` describes the same population of runs: equal
    /// kind, scale, and workload fingerprint. Only comparable runs feed
    /// an audit baseline.
    pub(crate) fn comparable_to(&self, other: &RunRecord) -> bool {
        self.kind == other.kind && self.scale == other.scale && self.workload == other.workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        let mut r = RunRecord::new("repro-all", "repro", "0.1.0", 42, "quick");
        r.unix_secs = 1_754_650_000;
        r.push_metric("total_wall_secs", 1.25).unwrap();
        r.push_metric("wall_secs.F9", 0.625).unwrap();
        r.notes.insert(
            "cache".to_string(),
            "cache: 0 hits, 0 invalidated, 24 misses, 24 stored".to_string(),
        );
        r
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let r = sample();
        let decoded = RunRecord::decode(&r.encode().unwrap()).unwrap();
        assert_eq!(decoded, r);
        // Bit-exact metrics, not lossy decimal.
        assert_eq!(
            decoded.metrics["wall_secs.F9"].to_bits(),
            0.625f64.to_bits()
        );
    }

    #[test]
    fn records_keep_their_exact_bytes() {
        // Existing histories stay readable only while the record format
        // is byte-stable: this is the format as first shipped.
        assert_eq!(
            sample().encode().unwrap(),
            "sentinel-record v1\nschema 1\nchecksum 2bd18bfe8cab4b32\npayload 239\n\
             kind repro-all\ntool repro\nversion 0.1.0\nseed 42\nscale quick\nworkload all\n\
             unix 1754650000\nmetric total_wall_secs 3ff4000000000000 1.25\n\
             metric wall_secs.F9 3fe4000000000000 0.625\n\
             note cache cache: 0 hits, 0 invalidated, 24 misses, 24 stored\n"
        );
    }

    #[test]
    fn truncated_and_tampered_records_are_corrupt() {
        let text = sample().encode().unwrap();
        let truncated = &text[..text.len() - 10];
        assert!(matches!(
            RunRecord::decode(truncated),
            Err(SentinelError::Corrupt(_))
        ));
        let tampered = text.replace("seed 42", "seed 43");
        assert!(matches!(
            RunRecord::decode(&tampered),
            Err(SentinelError::Corrupt(_))
        ));
        assert!(matches!(
            RunRecord::decode("not a record"),
            Err(SentinelError::Corrupt(_))
        ));
    }

    #[test]
    fn newer_record_schema_is_refused_not_misread() {
        let text = sample().encode().unwrap().replace("schema 1", "schema 99");
        assert!(matches!(
            RunRecord::decode(&text),
            Err(SentinelError::SchemaTooNew { found: 99, .. })
        ));
        let text = sample().encode().unwrap().replace("schema 1", "schema 0");
        assert!(matches!(
            RunRecord::decode(&text),
            Err(SentinelError::Corrupt(_))
        ));
    }

    #[test]
    fn manifest_ingestion_respects_schema_versions() {
        let mut m = RunManifest::new("repro", "0.1.0", 7, "quick");
        m.total_wall_secs = 2.0;
        m.push_experiment("T1", 0.5, 3);
        let rec = RunRecord::from_manifest(&m, "repro-all", "all").unwrap();
        assert_eq!(rec.seed, 7);
        assert_eq!(rec.metrics["total_wall_secs"], 2.0);
        assert_eq!(rec.metrics["wall_secs.T1"], 0.5);
        assert_eq!(rec.notes["artifact_count"], "3");

        // Legacy (pre-versioning) manifests upgrade with a note.
        m.schema_version = 0;
        let legacy = RunRecord::from_manifest(&m, "repro-all", "all").unwrap();
        assert!(legacy.notes["manifest_schema"].contains("legacy"));

        // Future manifests are refused.
        m.schema_version = MANIFEST_SCHEMA_VERSION + 1;
        assert!(matches!(
            RunRecord::from_manifest(&m, "repro-all", "all"),
            Err(SentinelError::SchemaTooNew { .. })
        ));
    }

    #[test]
    fn non_finite_metrics_are_rejected_at_the_boundary() {
        let mut r = RunRecord::new("bench", "bench", "0.1.0", 0, "quick");
        assert!(r.push_metric("m", f64::NAN).is_err());
        assert!(r.push_metric("m", f64::INFINITY).is_err());
        assert!(r.push_metric("m", 1.0).is_ok());
    }

    #[test]
    fn workload_fingerprints_are_order_insensitive() {
        let a = workload_fingerprint(Some(&["F9".to_string(), "T1".to_string()]));
        let b = workload_fingerprint(Some(&["T1".to_string(), "F9".to_string()]));
        assert_eq!(a, b);
        assert_ne!(a, workload_fingerprint(Some(&["T1".to_string()])));
        assert_eq!(workload_fingerprint(None), "all");
        assert!(a.starts_with("sel-"));
    }

    #[test]
    fn comparability_requires_kind_scale_and_workload() {
        let base = sample();
        let mut other = sample();
        assert!(base.comparable_to(&other));
        other.scale = "paper".to_string();
        assert!(!base.comparable_to(&other));
        other = sample();
        other.workload = "sel-0000000000000000".to_string();
        assert!(!base.comparable_to(&other));
        other = sample();
        other.seed = 99; // different seed is still comparable
        assert!(base.comparable_to(&other));
    }
}
