//! In-memory measurement store with filtering and grouping.
//!
//! [`Store`] holds the records of a materialized campaign and [`Query`]
//! slices them by benchmark and machine and groups the values by
//! machine.

use std::collections::BTreeMap;

use testbed::MachineId;
use workloads::BenchmarkId;

use crate::record::Record;

/// An append-only collection of measurement records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Store {
    records: Vec<Record>,
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one record.
    pub(crate) fn push(&mut self, record: Record) {
        self.records.push(record);
    }

    /// Appends many records.
    pub fn extend(&mut self, records: impl IntoIterator<Item = Record>) {
        self.records.extend(records);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in insertion order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Merges another store's records into this one (append semantics;
    /// use when combining campaigns or sites). An empty store takes the
    /// other's allocation instead of copying it.
    pub(crate) fn merge(&mut self, other: Store) {
        if self.records.is_empty() {
            self.records = other.records;
        } else {
            self.records.extend(other.records);
        }
    }

    /// Starts a filtered query.
    pub fn filter(&self) -> Query<'_> {
        Query {
            store: self,
            benchmark: None,
            machine: None,
        }
    }

    /// Sorted unique machine ids present.
    pub fn machines(&self) -> Vec<MachineId> {
        sorted_machine_ids(self.records.iter().map(|r| r.machine))
    }
}

/// Sorts machine ids ascending and drops duplicates.
///
/// This is THE canonical machine order of the whole data path: campaign
/// collection visits machines in this order, the shard journal replays
/// them in this order, and the streaming layer folds shards in this
/// order — which is what makes materialized and streaming analysis
/// byte-identical (DESIGN.md §11).
pub(crate) fn sorted_machine_ids(ids: impl IntoIterator<Item = MachineId>) -> Vec<MachineId> {
    let mut ids: Vec<MachineId> = ids.into_iter().collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// A lazily evaluated filter over a [`Store`].
#[derive(Debug, Clone)]
pub struct Query<'a> {
    store: &'a Store,
    benchmark: Option<BenchmarkId>,
    machine: Option<MachineId>,
}

impl<'a> Query<'a> {
    /// Restricts to one benchmark.
    pub fn benchmark(mut self, b: BenchmarkId) -> Self {
        self.benchmark = Some(b);
        self
    }

    /// Restricts to one machine.
    pub fn machine(mut self, m: MachineId) -> Self {
        self.machine = Some(m);
        self
    }

    fn matches(&self, r: &Record) -> bool {
        self.benchmark.map(|b| r.benchmark == b).unwrap_or(true)
            && self.machine.map(|m| r.machine == m).unwrap_or(true)
    }

    /// Matching records, in insertion order.
    pub fn records(&self) -> Vec<&'a Record> {
        self.store
            .records
            .iter()
            .filter(|r| self.matches(r))
            .collect()
    }

    /// Matching measurement values, in insertion order.
    pub fn values(&self) -> Vec<f64> {
        self.store
            .records
            .iter()
            .filter(|r| self.matches(r))
            .map(|r| r.value)
            .collect()
    }

    /// Number of matching records.
    pub fn count(&self) -> usize {
        self.store
            .records
            .iter()
            .filter(|r| self.matches(r))
            .count()
    }

    /// Groups matching values by machine.
    pub fn group_by_machine(&self) -> BTreeMap<MachineId, Vec<f64>> {
        let mut out: BTreeMap<MachineId, Vec<f64>> = BTreeMap::new();
        for r in self.store.records.iter().filter(|r| self.matches(r)) {
            out.entry(r.machine).or_default().push(r.value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> Store {
        let mut s = Store::new();
        for (i, (ty, bench, day, value)) in [
            ("a", BenchmarkId::MemCopy, 1.0, 10.0),
            ("a", BenchmarkId::MemCopy, 2.0, 11.0),
            ("a", BenchmarkId::DiskSeqRead, 1.0, 100.0),
            ("b", BenchmarkId::MemCopy, 1.0, 20.0),
            ("b", BenchmarkId::DiskSeqRead, 3.0, 200.0),
        ]
        .into_iter()
        .enumerate()
        {
            s.push(Record {
                machine: MachineId(i as u32 % 3),
                machine_type: ty.to_string(),
                benchmark: bench,
                day,
                run: i as u32,
                value,
            });
        }
        s
    }

    #[test]
    fn unfiltered_query_returns_everything() {
        let s = sample_store();
        assert_eq!(s.filter().count(), 5);
        assert_eq!(s.filter().values().len(), 5);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn filters_compose() {
        let s = sample_store();
        let q = s.filter().benchmark(BenchmarkId::MemCopy);
        assert_eq!(q.values(), vec![10.0, 11.0, 20.0]);
        let q = s.filter().machine(MachineId(0));
        assert_eq!(q.count(), 2);
        let q = s
            .filter()
            .benchmark(BenchmarkId::MemCopy)
            .machine(MachineId(0));
        assert_eq!(q.values(), vec![10.0, 20.0]);
    }

    #[test]
    fn grouping_by_machine() {
        let s = sample_store();
        let by_machine = s
            .filter()
            .benchmark(BenchmarkId::MemCopy)
            .group_by_machine();
        assert_eq!(by_machine.len(), 2);
        assert_eq!(by_machine[&MachineId(0)], vec![10.0, 20.0]);
    }

    #[test]
    fn unique_machine_list() {
        let s = sample_store();
        assert_eq!(s.machines(), vec![MachineId(0), MachineId(1), MachineId(2)]);
    }

    #[test]
    fn merge_appends_everything() {
        let mut a = sample_store();
        let b = sample_store();
        let total = a.len() + b.len();
        a.merge(b);
        assert_eq!(a.len(), total);
    }
}
