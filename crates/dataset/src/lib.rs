//! # dataset — measurement records, storage, and the campaign generator
//!
//! Holds the data side of the reproduction: [`Record`]s, the sliceable
//! in-memory [`Store`] (filter by benchmark / type / machine / time,
//! group by machine or type), the CSV round-trip, and the
//! campaign generator ([`provision`] + [`collect`]) that recreates the
//! paper's ten-month multi-machine data collection at any scale.
//!
//! ```
//! use dataset::{collect, provision, CampaignConfig, CollectOptions};
//! use workloads::BenchmarkId;
//!
//! let config = CampaignConfig::quick(42);
//! let cluster = provision(&config);
//! let collected = collect(&cluster, &config, &CollectOptions::default()).unwrap();
//! let store = collected.store.unwrap(); // no journal: the records stay in memory
//! let disk = store.filter().benchmark(BenchmarkId::DiskSeqRead).group_by_machine();
//! assert!(!disk.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// I/O paths carry typed errors into per-id failure reports; `unwrap()`
// outside tests regresses that contract (DESIGN.md §8).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod campaign;
mod csv;
mod distributed;
mod fsck;
mod journal;
mod outliers;
mod record;
mod store;
mod stream;
mod summarize;

pub use campaign::{
    collect, collect_one_machine, collect_streaming, default_jobs, provision, selected_machine_ids,
    CampaignConfig, CampaignError, CollectOptions, CollectReport, Collected, ShardGenerator,
};
pub use csv::{read_csv, write_csv, CsvError};
pub use distributed::{
    partition_units, run_worker, supervise, DistributedError, DistributedReport, ExchangeDir,
    SupervisorConfig, WorkUnit, WorkerExit, WorkerHandle, WorkerOptions, WorkerOutcome,
};
pub use fsck::{fsck, FsckReport};
pub use journal::{JournalError, ShardJournal, ShardStatus};
pub use outliers::{OutlierReport, SweepBuilder};
pub use record::{benchmark_from_label, Record};
pub use store::{Query, Store};
pub use stream::{Shard, ShardReader, StreamError, StreamStats};
pub use summarize::{DatasetOverview, OverviewBuilder};
