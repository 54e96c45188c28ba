//! Write-ahead journal for campaign collection — the crash-safe
//! checkpoint behind `--resume`.
//!
//! A [`ShardJournal`] is a directory holding one checksummed file per
//! *completed* machine shard. Because every measurement derives from its
//! machine's own RNG stream ([`testbed::machine_stream`]), a machine's
//! records are a pure function of the campaign configuration: replaying a
//! journaled shard is byte-identical to re-collecting it. A resumed run
//! therefore loads the finished shards, collects only the rest, and
//! produces exactly the store an uninterrupted run would have.
//!
//! On-disk format: every file is a [`durable::envelope`] (text header
//! lines, then the payload bytes):
//!
//! ```text
//! journal.meta   campaign-journal v3
//!                config <fnv1a64 of the CampaignConfig debug rendering>
//!                checksum, payload 0 — guards against resuming under a
//!                different configuration.
//! m<id>.shard    campaign-journal v3
//!                config <fingerprint>, machine <id>, records <count>
//!                checksum, payload <len>, then the columnar payload.
//! ```
//!
//! A shard payload is binary and columnar, every integer little-endian:
//!
//! ```text
//! u32 len, len bytes   the machine type, UTF-8, written once
//! then one block per maximal run of records of one benchmark:
//!   u8 len, len bytes  the benchmark label
//!   u32 n              the block's record count
//!   n × u64            the day column, IEEE-754 bit patterns
//!   n × u32            the run column
//!   n × u64            the value column, IEEE-754 bit patterns
//! ```
//!
//! That is 20 bytes per record plus a few per block: a paper shard of
//! 5,500 records is ~110 KB. Records keep their order, so any order
//! round-trips. The decoder accepts only the writer's canonical form: no
//! empty block, no two adjacent blocks of one benchmark, known labels
//! only, finite days and values, block counts summing to `records`,
//! nothing after the last block, and an empty type when there are no
//! records. So any shard it accepts re-encodes to the same bytes.
//!
//! Every file is published atomically ([`durable::publish`]), so a kill
//! mid-write never leaves a half shard: a reader sees either the
//! complete file or none. Any defect found at load — truncation, bad
//! checksum, foreign config, unparseable record — makes the shard count
//! as *not collected*; the campaign simply re-collects that machine. A
//! collection whose walk reads the journal (`--resume`) checks only
//! envelopes
//! ([`ShardJournal::record_count`]), which catches every truncation; a
//! same-length defect then fails the walk's decode and is healed there
//! ([`crate::ShardReader::read`]). A corrupt journal can never poison a
//! resumed run.

use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

use durable::envelope::{decode_header, parse_decimal, parse_hex16, Header};
use durable::{Envelope, EnvelopeError};
use testbed::MachineId;
use workloads::BenchmarkId;

use crate::campaign::CampaignConfig;
use crate::record::Record;

/// First line of the meta file and of every shard file.
const JOURNAL_HEADER: &str = "campaign-journal v3";

/// Payload bytes per record: its day, run and value words.
const RECORD_BYTES: usize = 8 + 4 + 8;

/// The key lines of a shard envelope, in order.
const SHARD_KEYS: [&str; 3] = ["config", "machine", "records"];

/// Bytes an envelope check reads from the front of a shard. The longest
/// header the writer emits, every number at its widest, is under 160
/// bytes.
const HEADER_MAX: u64 = 256;

/// Why the journal could not be opened or written.
#[derive(Debug)]
pub enum JournalError {
    /// The directory holds a journal for a different campaign
    /// configuration; resuming would mix incompatible data.
    ConfigMismatch {
        /// The journal directory.
        dir: PathBuf,
    },
    /// The directory was written by another on-disk format version of
    /// the journal or exchange; it cannot be resumed by this build.
    FormatVersion {
        /// The journal or exchange directory.
        dir: PathBuf,
        /// The header this build reads and writes.
        expected: &'static str,
    },
    /// An underlying filesystem failure.
    Io(std::io::Error),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::ConfigMismatch { dir } => write!(
                f,
                "journal {} was written by a different campaign configuration \
                 (scale/seed mismatch?); use a fresh directory",
                dir.display()
            ),
            JournalError::FormatVersion { dir, expected } => write!(
                f,
                "{} was written by an older on-disk format (this build reads \
                 `{expected}`); use a fresh directory",
                dir.display()
            ),
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Parses a decimal `u32` in the writer's canonical form (`{}`).
fn canonical_u32(s: &[u8]) -> Option<u32> {
    u32::try_from(parse_decimal(s)?).ok()
}

/// Splits `n` bytes off the front of `rest`; `None` if fewer remain.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, tail) = rest.split_at_checked(n)?;
    *rest = tail;
    Some(head)
}

/// Splits one fixed-width word off the front of `rest`.
fn word<const N: usize>(rest: &mut &[u8]) -> Option<[u8; N]> {
    let (head, tail) = rest.split_first_chunk::<N>()?;
    *rest = tail;
    Some(*head)
}

/// A day or value word; the writer never records a non-finite one.
fn finite(word: &[u8; 8]) -> Option<f64> {
    Some(f64::from_le_bytes(*word)).filter(|x| x.is_finite())
}

/// A shard's columnar payload (see the module docs), or `None` if the
/// records name more than one machine type or a length outgrows its
/// word.
fn encode_payload(records: &[Record]) -> Option<Vec<u8>> {
    let machine_type = records.first().map_or("", |r| r.machine_type.as_str());
    if records.iter().any(|r| r.machine_type != machine_type) {
        return None;
    }
    let mut out = Vec::with_capacity(4 + machine_type.len() + records.len() * RECORD_BYTES);
    out.extend_from_slice(&u32::try_from(machine_type.len()).ok()?.to_le_bytes());
    out.extend_from_slice(machine_type.as_bytes());
    for block in records.chunk_by(|a, b| a.benchmark == b.benchmark) {
        let label = block[0].benchmark.label();
        out.push(u8::try_from(label.len()).ok()?);
        out.extend_from_slice(label.as_bytes());
        out.extend_from_slice(&u32::try_from(block.len()).ok()?.to_le_bytes());
        for r in block {
            out.extend_from_slice(&r.day.to_le_bytes());
        }
        for r in block {
            out.extend_from_slice(&r.run.to_le_bytes());
        }
        for r in block {
            out.extend_from_slice(&r.value.to_le_bytes());
        }
    }
    Some(out)
}

/// Reusable decode buffers for shard reads. Decoding into the same
/// buffer again overwrites its records in place — every `String` and
/// the record vector keep their capacity — so replaying a journal
/// allocates only while a buffer grows to the largest shard, never per
/// record.
#[derive(Debug, Default)]
pub(crate) struct ShardBuf {
    raw: Vec<u8>,
    pub(crate) records: Vec<Record>,
    /// Each maximal run of one benchmark in `records`, in record order;
    /// filled when a shard source hands the buffer out
    /// ([`crate::stream::Residency::hold`]).
    pub(crate) blocks: Vec<(BenchmarkId, Range<usize>)>,
}

/// What [`ShardJournal::read_into`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// The buffer holds the shard's records.
    Valid,
    /// No shard file exists.
    Missing,
    /// The file failed validation; the buffer's records are garbage.
    Corrupt,
}

/// Outcome of a full-validation shard load ([`ShardJournal::load_status`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ShardStatus {
    /// The shard exists and every check passed; here are its records.
    Valid(Vec<Record>),
    /// No shard file exists for the machine.
    Missing,
    /// A shard file exists but failed validation (truncated, bad
    /// checksum, foreign config, or unparseable payload).
    Corrupt,
}

/// A directory of per-machine shard checkpoints for one campaign.
#[derive(Debug, Clone)]
pub struct ShardJournal {
    dir: PathBuf,
    fingerprint: u64,
}

impl ShardJournal {
    /// Fingerprint of a campaign configuration, as pinned in the meta
    /// file and every shard envelope. The full `Debug` rendering enters
    /// the hash, so any field change — not just seed and scale —
    /// invalidates the journal.
    pub(crate) fn config_fingerprint(config: &CampaignConfig) -> u64 {
        durable::fnv1a64(format!("{config:?}").as_bytes())
    }

    /// Opens (creating if needed) the journal at `dir` for `config`.
    ///
    /// A fresh directory gains a meta file pinning the configuration; an
    /// existing journal is validated against it and refused on mismatch,
    /// so `--resume` can never silently mix shards from two campaigns.
    pub fn open(dir: impl Into<PathBuf>, config: &CampaignConfig) -> Result<Self, JournalError> {
        let dir = dir.into();
        let fingerprint = Self::config_fingerprint(config);
        std::fs::create_dir_all(&dir)?;
        match Self::open_existing(&dir) {
            Ok(journal) if journal.fingerprint == fingerprint => Ok(journal),
            Ok(_) => Err(JournalError::ConfigMismatch { dir }),
            Err(JournalError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                let meta = durable::encode(
                    JOURNAL_HEADER,
                    &[("config", &format!("{fingerprint:016x}"))],
                    b"",
                );
                durable::publish_bytes(&dir.join("journal.meta"), meta)?;
                Ok(ShardJournal { dir, fingerprint })
            }
            Err(e) => Err(e),
        }
    }

    /// Opens an *existing* journal, taking the configuration fingerprint
    /// from the meta file instead of a [`CampaignConfig`]. This is the
    /// config-free path `repro journal fsck` uses: the journal's own
    /// pinned fingerprint is the ground truth every shard envelope is
    /// validated against.
    pub fn open_existing(dir: impl Into<PathBuf>) -> Result<Self, JournalError> {
        let dir = dir.into();
        let meta = dir.join("journal.meta");
        let raw = std::fs::read(&meta)?;
        let decoded = durable::decode(&raw, JOURNAL_HEADER, ["config"]);
        if decoded == Err(EnvelopeError::Version) {
            return Err(JournalError::FormatVersion {
                dir,
                expected: JOURNAL_HEADER,
            });
        }
        let fingerprint = decoded
            .ok()
            .filter(|meta| meta.payload.is_empty())
            .and_then(|meta| parse_hex16(meta.fields[0].as_bytes()));
        match fingerprint {
            Some(fingerprint) => Ok(ShardJournal { dir, fingerprint }),
            None => Err(JournalError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{} is not a valid journal meta file", meta.display()),
            ))),
        }
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The campaign-configuration fingerprint pinned in the meta file.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Path of one machine's shard file (whether or not it exists).
    pub fn shard_path(&self, machine: MachineId) -> PathBuf {
        self.dir.join(format!("m{}.shard", machine.0))
    }

    /// Records one machine's completed shard ([`durable::publish`]: the
    /// file appears atomically or not at all). Not fsynced: a shard lost
    /// to a power cut fails its checksum or is missing, and is simply
    /// collected again.
    pub fn record(&self, machine: MachineId, records: &[Record]) -> Result<(), JournalError> {
        let payload = encode_payload(records).ok_or_else(|| {
            JournalError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "machine {}'s records name more than one machine type",
                    machine.0
                ),
            ))
        })?;
        let bytes = durable::encode(
            JOURNAL_HEADER,
            &[
                ("config", &format!("{:016x}", self.fingerprint)),
                ("machine", &machine.0),
                ("records", &records.len()),
            ],
            &payload,
        );
        durable::publish_bytes(&self.shard_path(machine), bytes)?;
        Ok(())
    }

    /// Loads one machine's journaled shard, or `None` if it was never
    /// recorded — or if the file is corrupt, truncated, checksummed
    /// wrong, or pinned to a different configuration, in which case the
    /// machine simply counts as uncollected.
    ///
    /// A shard that exists but fails validation bumps the
    /// `journal.shard.skipped` telemetry counter (a missing file does
    /// not), so chaos tests can assert that corruption was detected
    /// rather than trusted.
    pub fn load(&self, machine: MachineId) -> Option<Vec<Record>> {
        let mut buf = ShardBuf::default();
        self.load_into(machine, &mut buf).then_some(buf.records)
    }

    /// [`Self::load`] into a reusable buffer: `true` if `buf` now holds
    /// the machine's valid shard. Same `journal.shard.skipped` side
    /// effect.
    pub(crate) fn load_into(&self, machine: MachineId, buf: &mut ShardBuf) -> bool {
        match self.read_into(machine, buf) {
            ReadOutcome::Valid => true,
            ReadOutcome::Missing => false,
            ReadOutcome::Corrupt => {
                telemetry::metrics::counter("journal.shard.skipped").inc();
                false
            }
        }
    }

    /// Reads the shards of `machines` across `jobs` scoped workers
    /// (`None` = one per core), each decoding into one reused buffer and
    /// folding every shard into its own accumulator: `Some(records)` for
    /// a valid shard, `None` for a missing or invalid one (which bumps
    /// `journal.shard.skipped` like [`Self::load`]). Workers take
    /// contiguous chunks and their accumulators come back in chunk order,
    /// so a fold that appends keeps `machines` order.
    pub(crate) fn fold_shards<A: Default + Send>(
        &self,
        machines: &[MachineId],
        jobs: Option<usize>,
        fold: impl Fn(&mut A, MachineId, Option<&[Record]>) + Sync,
    ) -> Vec<A> {
        let workers = jobs.unwrap_or_else(crate::default_jobs).max(1);
        let chunk = machines.len().div_ceil(workers).max(1);
        let fold = &fold;
        std::thread::scope(|scope| {
            let handles: Vec<_> = machines
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        let mut buf = ShardBuf::default();
                        let mut acc = A::default();
                        for &m in part {
                            let valid = self.load_into(m, &mut buf);
                            fold(&mut acc, m, valid.then_some(buf.records.as_slice()));
                        }
                        acc
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard reads do not panic"))
                .collect()
        })
    }

    /// Full-validation load distinguishing "never recorded" from
    /// "present but corrupt" (truncation, bad checksum, foreign config,
    /// unparseable payload). No telemetry side effects: this is the
    /// read-only path for fsck and for distributed workers checking
    /// whether a machine is already done, where a missing or torn shard
    /// is an expected observation rather than detected corruption.
    pub fn load_status(&self, machine: MachineId) -> ShardStatus {
        let mut buf = ShardBuf::default();
        match self.read_into(machine, &mut buf) {
            ReadOutcome::Valid => ShardStatus::Valid(buf.records),
            ReadOutcome::Missing => ShardStatus::Missing,
            ReadOutcome::Corrupt => ShardStatus::Corrupt,
        }
    }

    /// The shard decoder every load goes through: reads one machine's
    /// shard into `buf`, reusing the buffer's allocations, and validates
    /// it completely (envelope, checksum, the payload in the writer's
    /// canonical form, record count). Every file it decodes bumps the
    /// `journal.shard.decoded` counter; nothing else is counted here.
    pub(crate) fn read_into(&self, machine: MachineId, buf: &mut ShardBuf) -> ReadOutcome {
        use std::io::Read;
        buf.raw.clear();
        let read = std::fs::File::open(self.shard_path(machine))
            .and_then(|mut file| file.read_to_end(&mut buf.raw));
        match read {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return ReadOutcome::Missing,
            Err(_) => return ReadOutcome::Corrupt,
        }
        telemetry::metrics::counter("journal.shard.decoded").inc();
        match self.decode(&buf.raw, machine, &mut buf.records) {
            Some(()) => ReadOutcome::Valid,
            None => ReadOutcome::Corrupt,
        }
    }

    /// Whether a shard's `config` and `machine` values pin it to this
    /// journal and `machine`.
    fn envelope_matches(&self, machine: MachineId, config: &str, machine_value: &str) -> bool {
        parse_hex16(config.as_bytes()) == Some(self.fingerprint)
            && canonical_u32(machine_value.as_bytes()) == Some(machine.0)
    }

    /// Decodes the shard bytes `raw` over `records`, overwriting the
    /// existing entries in place and growing the vector only past its
    /// current length; a type name equal to the one already in the slot
    /// is not copied. The envelope and checksum are verified first, then
    /// the columns parse. Anything but the writer's canonical form (see
    /// the module docs) is `None`. No claimed length or count sizes an
    /// allocation: a block must fit in the bytes that remain before any
    /// record of it is stored, so a hostile count cannot make the decoder
    /// abort.
    fn decode(&self, raw: &[u8], machine: MachineId, records: &mut Vec<Record>) -> Option<()> {
        let Envelope {
            fields: [config, machine_value, count],
            payload,
        } = durable::decode(raw, JOURNAL_HEADER, SHARD_KEYS).ok()?;
        if !self.envelope_matches(machine, config, machine_value) {
            return None;
        }
        let count = usize::try_from(parse_decimal(count.as_bytes())?).ok()?;
        let mut rest = payload;
        let type_len = usize::try_from(u32::from_le_bytes(word(&mut rest)?)).ok()?;
        let machine_type = std::str::from_utf8(take(&mut rest, type_len)?).ok()?;
        let mut n = 0usize;
        let mut previous = None;
        while !rest.is_empty() {
            let [label_len] = word(&mut rest)?;
            let label = take(&mut rest, usize::from(label_len))?;
            let benchmark = BenchmarkId::ALL
                .into_iter()
                .find(|b| b.label().as_bytes() == label)?;
            let len = usize::try_from(u32::from_le_bytes(word(&mut rest)?)).ok()?;
            if previous == Some(benchmark)
                || len == 0
                || len > count - n
                || len > rest.len() / RECORD_BYTES
            {
                return None;
            }
            previous = Some(benchmark);
            let days = take(&mut rest, len * 8)?.as_chunks::<8>().0;
            let runs = take(&mut rest, len * 4)?.as_chunks::<4>().0;
            let values = take(&mut rest, len * 8)?.as_chunks::<8>().0;
            for ((day, run), value) in days.iter().zip(runs).zip(values) {
                let (day, value) = (finite(day)?, finite(value)?);
                let run = u32::from_le_bytes(*run);
                if n == records.len() {
                    records.push(Record {
                        machine,
                        machine_type: machine_type.to_string(),
                        benchmark,
                        day,
                        run,
                        value,
                    });
                } else {
                    let r = &mut records[n];
                    if r.machine_type != machine_type {
                        r.machine_type.clear();
                        r.machine_type.push_str(machine_type);
                    }
                    r.machine = machine;
                    r.benchmark = benchmark;
                    r.day = day;
                    r.run = run;
                    r.value = value;
                }
                n += 1;
            }
        }
        records.truncate(n);
        (n == count && (n > 0 || machine_type.is_empty())).then_some(())
    }

    /// Sorted unique machine ids that currently have a shard file in the
    /// journal directory — the canonical replay order
    /// (`crate::store::sorted_machine_ids`). Presence only: validation
    /// (checksum, config, payload) still happens at [`Self::load`] time.
    pub fn machines(&self) -> Result<Vec<MachineId>, JournalError> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if let Some(id) = name
                .strip_prefix('m')
                .and_then(|n| n.strip_suffix(".shard"))
                .and_then(|n| n.parse::<u32>().ok())
            {
                ids.push(MachineId(id));
            }
        }
        Ok(crate::store::sorted_machine_ids(ids))
    }

    /// Checks one machine's shard by its envelope alone and returns the
    /// record count it declares. Reads at most the first few hundred
    /// bytes and stats the file, never the payload. `None` if the shard
    /// is missing, if its header is malformed (CRLF line ends included)
    /// or pinned to another configuration or machine, or if the payload
    /// length it declares is not the one on disk, so every truncation
    /// fails here. A corruption that keeps the length (a flipped payload
    /// byte) passes; the checksum catches it at [`Self::load`] time.
    ///
    /// A cheap way to total a journal's records without materializing
    /// one (the benchmark probe, `perfbench/probe`, uses it).
    pub fn record_count(&self, machine: MachineId) -> Option<usize> {
        self.read_envelope(machine).ok()
    }

    /// Whether one machine's shard passes the envelope check of
    /// [`Self::record_count`] and declares `records` records: how a
    /// collection whose walk reads the journal decides, without
    /// decoding, that a shard can be replayed. A file that exists and
    /// fails bumps `journal.shard.skipped`, as a failed [`Self::load`]
    /// does.
    pub(crate) fn check(&self, machine: MachineId, records: usize) -> bool {
        match self.read_envelope(machine) {
            Ok(n) if n == records => true,
            Err(ReadOutcome::Missing) => false,
            _ => {
                telemetry::metrics::counter("journal.shard.skipped").inc();
                false
            }
        }
    }

    /// The envelope check behind [`Self::record_count`]: the declared
    /// record count, or whether the file is missing or failed.
    fn read_envelope(&self, machine: MachineId) -> Result<usize, ReadOutcome> {
        match std::fs::File::open(self.shard_path(machine)) {
            Ok(file) => self
                .envelope_count(file, machine)
                .ok_or(ReadOutcome::Corrupt),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(ReadOutcome::Missing),
            Err(_) => Err(ReadOutcome::Corrupt),
        }
    }

    /// The record count an open shard file's envelope declares, if the
    /// envelope is intact and pinned to this journal and `machine`.
    fn envelope_count(&self, file: std::fs::File, machine: MachineId) -> Option<usize> {
        use std::io::Read;
        let size = file.metadata().ok()?.len();
        let mut head = Vec::new();
        file.take(HEADER_MAX).read_to_end(&mut head).ok()?;
        let Header {
            fields: [config, machine_value, count],
            payload_len,
            len,
            ..
        } = decode_header(&head, JOURNAL_HEADER, SHARD_KEYS).ok()?;
        let whole = (len as u64).checked_add(payload_len) == Some(size);
        if !whole || !self.envelope_matches(machine, config, machine_value) {
            return None;
        }
        usize::try_from(parse_decimal(count.as_bytes())?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::BenchmarkId;

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "shard-journal-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Serializes the tests that load corrupt shards: they share the
    /// process-global `journal.shard.skipped` counter with the test that
    /// asserts on its exact delta.
    static SKIP_COUNTER: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Where a shard file's payload starts: after its `payload` line.
    fn payload_at(raw: &[u8]) -> usize {
        let head = durable::envelope::decode_header(raw, JOURNAL_HEADER, SHARD_KEYS).unwrap();
        head.len
    }

    /// `raw` with the first `from` in its header lines replaced by `to`.
    fn in_header(raw: &[u8], from: &str, to: &str) -> Vec<u8> {
        let at = payload_at(raw);
        let header = std::str::from_utf8(&raw[..at])
            .unwrap()
            .replacen(from, to, 1);
        [header.as_bytes(), &raw[at..]].concat()
    }

    fn sample_records(machine: MachineId) -> Vec<Record> {
        vec![
            Record {
                machine,
                machine_type: "c220g1".to_string(),
                benchmark: BenchmarkId::DiskSeqRead,
                day: 12.5,
                run: 0,
                value: 171.25,
            },
            Record {
                machine,
                machine_type: "c220g1".to_string(),
                benchmark: BenchmarkId::MemTriad,
                day: 12.5,
                run: 1,
                value: 0.1 + 0.2, // a value with no short decimal form
            },
        ]
    }

    #[test]
    fn shard_round_trips_byte_exactly() {
        let dir = temp_dir("roundtrip");
        let config = CampaignConfig::quick(42);
        let journal = ShardJournal::open(&dir, &config).unwrap();
        let m = MachineId(7);
        assert_eq!(journal.load(m), None, "nothing journaled yet");
        let records = sample_records(m);
        journal.record(m, &records).unwrap();
        assert_eq!(journal.load(m), Some(records));
        assert_eq!(journal.machines().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_with_the_same_config_resumes() {
        let dir = temp_dir("reopen");
        let config = CampaignConfig::quick(1);
        let m = MachineId(3);
        {
            let journal = ShardJournal::open(&dir, &config).unwrap();
            journal.record(m, &sample_records(m)).unwrap();
        }
        let journal = ShardJournal::open(&dir, &config).unwrap();
        assert_eq!(journal.load(m), Some(sample_records(m)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_config_is_refused() {
        let dir = temp_dir("mismatch");
        ShardJournal::open(&dir, &CampaignConfig::quick(1)).unwrap();
        let err = ShardJournal::open(&dir, &CampaignConfig::quick(2)).unwrap_err();
        assert!(matches!(err, JournalError::ConfigMismatch { .. }));
        assert!(err.to_string().contains("different campaign configuration"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_older_format_is_named_as_such() {
        let dir = temp_dir("v1");
        std::fs::create_dir_all(&dir).unwrap();
        let config = CampaignConfig::quick(1);
        let fingerprint = ShardJournal::config_fingerprint(&config);
        // The meta file as the v1 and v2 formats wrote it.
        let v1 = format!("campaign-journal v1\nconfig {fingerprint:016x}\n");
        let v2 = format!(
            "campaign-journal v2\nconfig {fingerprint:016x}\nchecksum {:016x}\npayload 0\n",
            durable::fnv1a64(b"")
        );
        for meta in [v1, v2] {
            std::fs::write(dir.join("journal.meta"), &meta).unwrap();
            for err in [
                ShardJournal::open(&dir, &config).unwrap_err(),
                ShardJournal::open_existing(&dir).unwrap_err(),
            ] {
                assert!(matches!(err, JournalError::FormatVersion { .. }), "{err}");
                let message = err.to_string();
                assert!(message.contains("older on-disk format"), "{message}");
                assert!(message.contains("fresh directory"), "{message}");
                assert!(message.contains("campaign-journal v3"), "{message}");
                assert!(!message.contains("scale/seed"), "{message}");
            }
            assert_eq!(
                std::fs::read_to_string(dir.join("journal.meta")).unwrap(),
                meta,
                "a refused journal is left as it was"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_shards_count_as_uncollected() {
        let _guard = SKIP_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let dir = temp_dir("corrupt");
        let config = CampaignConfig::quick(5);
        let journal = ShardJournal::open(&dir, &config).unwrap();
        let m = MachineId(9);
        journal.record(m, &sample_records(m)).unwrap();
        let path = dir.join("m9.shard");
        let full = std::fs::read(&path).unwrap();

        // Truncation.
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(journal.load(m), None);

        // Checksum flip.
        let flipped = in_header(&full, "checksum", "checksum "); // malformed line
        std::fs::write(&path, flipped).unwrap();
        assert_eq!(journal.load(m), None);

        // Garbage after the last block.
        let garbled = [&full[..], b"garbage line\n"].concat();
        std::fs::write(&path, garbled).unwrap();
        assert_eq!(journal.load(m), None);

        // Re-recording repairs it.
        journal.record(m, &sample_records(m)).unwrap();
        assert_eq!(journal.load(m), Some(sample_records(m)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn machines_lists_shards_in_ascending_id_order() {
        let dir = temp_dir("listing");
        let config = CampaignConfig::quick(11);
        let journal = ShardJournal::open(&dir, &config).unwrap();
        for id in [30, 2, 117] {
            let m = MachineId(id);
            journal.record(m, &sample_records(m)).unwrap();
        }
        assert_eq!(
            journal.machines().unwrap(),
            vec![MachineId(2), MachineId(30), MachineId(117)]
        );
        assert_eq!(journal.machines().unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_count_reads_the_envelope_only() {
        let dir = temp_dir("count");
        let config = CampaignConfig::quick(13);
        let journal = ShardJournal::open(&dir, &config).unwrap();
        let m = MachineId(4);
        assert_eq!(journal.record_count(m), None, "missing shard");
        journal.record(m, &sample_records(m)).unwrap();
        assert_eq!(journal.record_count(m), Some(2));
        // A garbled envelope is rejected even though the payload is fine.
        let path = dir.join("m4.shard");
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, in_header(&raw, "machine 4", "machine 5")).unwrap();
        assert_eq!(journal.record_count(m), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_envelope_check_catches_truncation_but_not_a_same_length_flip() {
        let _guard = SKIP_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        telemetry::set_enabled(true);
        let skipped = || {
            telemetry::metrics::snapshot()
                .counter("journal.shard.skipped")
                .unwrap_or(0)
        };
        let dir = temp_dir("check");
        let config = CampaignConfig::quick(37);
        let journal = ShardJournal::open(&dir, &config).unwrap();
        let m = MachineId(3);
        let before = skipped();
        assert!(!journal.check(m, 2), "missing");
        assert_eq!(skipped(), before, "missing is no skip");
        journal.record(m, &sample_records(m)).unwrap();
        assert!(journal.check(m, 2));
        assert!(!journal.check(m, 3), "the count must be the campaign's");
        let path = journal.shard_path(m);
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 1]).unwrap();
        assert!(!journal.check(m, 2), "truncated");
        let mut flipped = raw.clone();
        let last_digit = flipped.len() - 2;
        flipped[last_digit] ^= 1;
        std::fs::write(&path, &flipped).unwrap();
        assert!(
            journal.check(m, 2),
            "the envelope cannot see a payload flip"
        );
        assert_eq!(
            journal.load_status(m),
            ShardStatus::Corrupt,
            "the decode can"
        );
        assert_eq!(
            skipped(),
            before + 2,
            "the count mismatch and the truncation"
        );
        telemetry::set_enabled(false);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crlf_envelope_is_refused_by_every_path() {
        let dir = temp_dir("crlf");
        let config = CampaignConfig::quick(39);
        let journal = ShardJournal::open(&dir, &config).unwrap();
        let m = MachineId(2);
        journal.record(m, &sample_records(m)).unwrap();
        let path = journal.shard_path(m);
        let raw = std::fs::read(&path).unwrap();
        let at = payload_at(&raw);
        let header = std::str::from_utf8(&raw[..at]).unwrap();
        let crlf = [header.replace('\n', "\r\n").as_bytes(), &raw[at..]].concat();
        std::fs::write(&path, &crlf).unwrap();
        assert!(durable::decode(&crlf, JOURNAL_HEADER, SHARD_KEYS).is_err());
        assert_eq!(journal.load_status(m), ShardStatus::Corrupt);
        assert_eq!(journal.record_count(m), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_load_bumps_the_skipped_counter() {
        let _guard = SKIP_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        telemetry::set_enabled(true);
        let skipped = || {
            telemetry::metrics::snapshot()
                .counter("journal.shard.skipped")
                .unwrap_or(0)
        };
        let dir = temp_dir("skipcounter");
        let config = CampaignConfig::quick(17);
        let journal = ShardJournal::open(&dir, &config).unwrap();
        let m = MachineId(6);

        // A never-recorded shard is not "skipped" — nothing to distrust.
        let before = skipped();
        assert_eq!(journal.load(m), None);
        assert_eq!(skipped(), before, "missing file is not a skip");

        journal.record(m, &sample_records(m)).unwrap();
        let path = dir.join("m6.shard");
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        assert_eq!(journal.load(m), None);
        assert_eq!(skipped(), before + 1, "corruption counts once per load");
        telemetry::set_enabled(false);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_existing_reads_the_pinned_fingerprint() {
        let dir = temp_dir("existing");
        let config = CampaignConfig::quick(19);
        let m = MachineId(8);
        {
            let journal = ShardJournal::open(&dir, &config).unwrap();
            journal.record(m, &sample_records(m)).unwrap();
        }
        let journal = ShardJournal::open_existing(&dir).unwrap();
        assert_eq!(
            journal.fingerprint(),
            ShardJournal::config_fingerprint(&config)
        );
        assert_eq!(
            journal.load_status(m),
            ShardStatus::Valid(sample_records(m))
        );
        // A directory without a journal is refused, as is a garbled meta.
        let empty = temp_dir("existing-none");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(ShardJournal::open_existing(&empty).is_err());
        std::fs::write(dir.join("journal.meta"), "not a journal\n").unwrap();
        assert!(ShardJournal::open_existing(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn load_status_distinguishes_missing_from_corrupt() {
        let _guard = SKIP_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        telemetry::set_enabled(true);
        let skipped = || {
            telemetry::metrics::snapshot()
                .counter("journal.shard.skipped")
                .unwrap_or(0)
        };
        let before = skipped();
        let dir = temp_dir("status");
        let config = CampaignConfig::quick(29);
        let journal = ShardJournal::open(&dir, &config).unwrap();
        let m = MachineId(2);
        assert_eq!(journal.load_status(m), ShardStatus::Missing);
        journal.record(m, &sample_records(m)).unwrap();
        assert_eq!(
            journal.load_status(m),
            ShardStatus::Valid(sample_records(m))
        );
        let path = journal.shard_path(m);
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        assert_eq!(journal.load_status(m), ShardStatus::Corrupt);
        // Unlike `load`, a corrupt shard here is an observation, not a skip.
        assert_eq!(skipped(), before, "load_status has no telemetry");
        telemetry::set_enabled(false);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_type_names_round_trip_verbatim() {
        // The type is length-prefixed: no byte of it needs escaping.
        let dir = temp_dir("hostile-types");
        let config = CampaignConfig::quick(43);
        let journal = ShardJournal::open(&dir, &config).unwrap();
        let m = MachineId(4);
        for name in [
            "plain",
            "tab\there",
            "line\nbreak",
            "back\\slash",
            "cr\r",
            "",
        ] {
            let mut records = sample_records(m);
            for r in &mut records {
                r.machine_type = name.to_string();
            }
            journal.record(m, &records).unwrap();
            assert_eq!(journal.load(m), Some(records), "{name:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_of_two_machine_types_are_refused() {
        let dir = temp_dir("two-types");
        let journal = ShardJournal::open(&dir, &CampaignConfig::quick(45)).unwrap();
        let m = MachineId(4);
        let mut records = sample_records(m);
        records[1].machine_type = "c6420".to_string();
        let err = journal.record(m, &records).unwrap_err();
        assert!(
            err.to_string().contains("more than one machine type"),
            "{err}"
        );
        assert_eq!(
            journal.load_status(m),
            ShardStatus::Missing,
            "nothing written"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One record's columns in a hand-built payload: day, run, value.
    type Row = (f64, u32, f64);

    /// The v3 payload built by hand from the layout in the module docs:
    /// the type, then each block's label, count and three columns.
    fn payload(machine_type: &[u8], blocks: &[(&str, &[Row])]) -> Vec<u8> {
        let mut out = (machine_type.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(machine_type);
        for (label, rows) in blocks {
            out.push(label.len() as u8);
            out.extend_from_slice(label.as_bytes());
            out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for row in rows.iter() {
                out.extend_from_slice(&row.0.to_bits().to_le_bytes());
            }
            for row in rows.iter() {
                out.extend_from_slice(&row.1.to_le_bytes());
            }
            for row in rows.iter() {
                out.extend_from_slice(&row.2.to_bits().to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn the_payload_layout_is_the_documented_one() {
        let m = MachineId(1);
        let mut records = sample_records(m);
        records.push(Record {
            benchmark: BenchmarkId::DiskSeqRead,
            ..records[0].clone()
        });
        let want = payload(
            b"c220g1",
            &[
                ("disk-seq-read", &[(12.5, 0, 171.25)]),
                ("mem-triad", &[(12.5, 1, 0.1 + 0.2)]),
                ("disk-seq-read", &[(12.5, 0, 171.25)]),
            ],
        );
        assert_eq!(encode_payload(&records), Some(want));
        assert_eq!(
            encode_payload(&[]),
            Some(vec![0; 4]),
            "no records: an empty type, no blocks"
        );
    }

    /// A shard file around `payload` whose checksum is right, so only the
    /// envelope line or payload under test can make it fail.
    fn checksummed_shard(
        journal: &ShardJournal,
        machine: &str,
        count: &str,
        payload: &[u8],
    ) -> Vec<u8> {
        durable::encode(
            JOURNAL_HEADER,
            &[
                ("config", &format!("{:016x}", journal.fingerprint())),
                ("machine", &machine),
                ("records", &count),
            ],
            payload,
        )
    }

    fn many_records(machine: MachineId, n: u32) -> Vec<Record> {
        (0..n)
            .map(|run| Record {
                machine,
                machine_type: "c6420".to_string(),
                benchmark: BenchmarkId::ALL[run as usize % BenchmarkId::ALL.len()],
                day: f64::from(run) * 3.0,
                run,
                value: 100.0 + f64::from(run).sqrt(),
            })
            .collect()
    }

    #[test]
    fn decoding_into_a_warm_buffer_allocates_nothing() {
        let dir = temp_dir("warm");
        let config = CampaignConfig::quick(31);
        let journal = ShardJournal::open(&dir, &config).unwrap();
        let (a, b, small) = (MachineId(1), MachineId(2), MachineId(3));
        journal.record(a, &many_records(a, 40)).unwrap();
        journal.record(b, &many_records(b, 40)).unwrap();
        journal.record(small, &many_records(small, 7)).unwrap();

        let mut buf = ShardBuf::default();
        assert_eq!(journal.read_into(a, &mut buf), ReadOutcome::Valid);
        assert_eq!(buf.records, many_records(a, 40));
        let vec_at = buf.records.as_ptr();
        let raw_at = buf.raw.as_ptr();
        let names_at: Vec<*const u8> = buf
            .records
            .iter()
            .map(|r| r.machine_type.as_ptr())
            .collect();

        // Same-size shard: every allocation is reused in place.
        assert_eq!(journal.read_into(b, &mut buf), ReadOutcome::Valid);
        assert_eq!(buf.records, many_records(b, 40));
        assert_eq!(buf.records.as_ptr(), vec_at);
        assert_eq!(buf.raw.as_ptr(), raw_at);
        let names_now: Vec<*const u8> = buf
            .records
            .iter()
            .map(|r| r.machine_type.as_ptr())
            .collect();
        assert_eq!(
            names_now, names_at,
            "type names are overwritten, not reallocated"
        );

        // A smaller shard truncates; the records still match a fresh load.
        assert_eq!(journal.read_into(small, &mut buf), ReadOutcome::Valid);
        assert_eq!(Some(buf.records.clone()), journal.load(small));
        assert_eq!(
            journal.read_into(MachineId(99), &mut buf),
            ReadOutcome::Missing
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_the_writers_canonical_form_decodes() {
        let dir = temp_dir("canonical");
        let config = CampaignConfig::quick(41);
        let journal = ShardJournal::open(&dir, &config).unwrap();
        let m = MachineId(5);
        let path = journal.shard_path(m);
        let row: &[Row] = &[(12.5, 0, 171.25)];
        let two: &[Row] = &[(12.5, 0, 171.25), (13.0, 1, 170.5)];
        let good = payload(b"c220g1", &[("disk-seq-read", row)]);
        std::fs::write(&path, checksummed_shard(&journal, "5", "1", &good)).unwrap();
        assert!(matches!(journal.load_status(m), ShardStatus::Valid(_)));
        let empty: &[Row] = &[];
        let bad_payloads: [(&str, &str, Vec<u8>); 15] = [
            ("1", "empty block", {
                let blocks = [("mem-triad", empty), ("disk-seq-read", row)];
                payload(b"c220g1", &blocks)
            }),
            ("2", "adjacent blocks of one benchmark", {
                payload(b"c220g1", &[("disk-seq-read", row), ("disk-seq-read", row)])
            }),
            (
                "1",
                "unknown label",
                payload(b"c220g1", &[("disk\tseq", row)]),
            ),
            (
                "1",
                "label case",
                payload(b"c220g1", &[("Disk-seq-read", row)]),
            ),
            ("1", "NaN value", {
                payload(b"c220g1", &[("disk-seq-read", &[(12.5, 0, f64::NAN)])])
            }),
            ("1", "infinite day", {
                payload(b"c220g1", &[("disk-seq-read", &[(f64::INFINITY, 0, 1.0)])])
            }),
            ("2", "count above the records", good.clone()),
            ("0", "count below the records", good.clone()),
            ("1", "trailing byte", [&good[..], &[0]].concat()),
            ("1", "a block cut short", good[..good.len() - 1].to_vec()),
            ("1", "a block above the records", {
                payload(b"c220g1", &[("disk-seq-read", two)])
            }),
            ("2", "block count past the payload", {
                let mut bytes = good.clone();
                let at = 4 + "c220g1".len() + 1 + "disk-seq-read".len();
                bytes[at..at + 4].copy_from_slice(&2u32.to_le_bytes());
                bytes
            }),
            ("0", "a type with no records", payload(b"c220g1", &[])),
            (
                "1",
                "type not UTF-8",
                payload(b"c2\xff0g1", &[("disk-seq-read", row)]),
            ),
            ("1", "type length past the payload", {
                let mut bytes = good.clone();
                bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
                bytes
            }),
        ];
        for (count, why, payload) in bad_payloads {
            std::fs::write(&path, checksummed_shard(&journal, "5", count, &payload)).unwrap();
            assert_eq!(journal.load_status(m), ShardStatus::Corrupt, "{why}");
        }
        for machine in ["05", "+5", "5 "] {
            std::fs::write(&path, checksummed_shard(&journal, machine, "1", &good)).unwrap();
            assert_eq!(
                journal.load_status(m),
                ShardStatus::Corrupt,
                "machine {machine:?}"
            );
        }
        // Two records of one block, and no records at all, decode.
        let pair = payload(b"c220g1", &[("disk-seq-read", two)]);
        std::fs::write(&path, checksummed_shard(&journal, "5", "2", &pair)).unwrap();
        match journal.load_status(m) {
            ShardStatus::Valid(records) => assert_eq!(records[1].value, 170.5),
            other => panic!("a two-record block should decode: {other:?}"),
        }
        std::fs::write(&path, checksummed_shard(&journal, "5", "0", &[0; 4])).unwrap();
        assert_eq!(journal.load_status(m), ShardStatus::Valid(Vec::new()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn benchmark_labels_fit_a_one_byte_length() {
        // The writer prefixes each label with its length in one byte.
        for b in BenchmarkId::ALL {
            assert!(b.label().len() <= usize::from(u8::MAX), "{}", b.label());
        }
    }

    #[test]
    fn no_temp_files_survive_a_record() {
        let dir = temp_dir("tmpfiles");
        let config = CampaignConfig::quick(3);
        let journal = ShardJournal::open(&dir, &config).unwrap();
        let m = MachineId(1);
        journal.record(m, &sample_records(m)).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
