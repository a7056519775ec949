//! The simulated global key-value store (Redis stand-in).
//!
//! Every record carries a monotonically increasing [`Version`], which the
//! SpecFaaS Data Buffer uses to reason about write-backs and which the
//! characterization experiments use to measure update frequency
//! (Observation 4).

use specfaas_sim::hash::FxHashMap;

use specfaas_sim::SimDuration;

use crate::value::Value;

/// Monotone per-key version number; bumped on every committed write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u64);

/// Latency model for remote storage operations.
///
/// Calibrated to typical intra-datacenter Redis round trips: sub-millisecond
/// gets, slightly costlier sets. These contribute to function execution time
/// in both the baseline and SpecFaaS, so the comparison is fair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageLatency {
    /// Round-trip time of a `get`.
    pub read: SimDuration,
    /// Round-trip time of a `set`.
    pub write: SimDuration,
}

impl Default for StorageLatency {
    fn default() -> Self {
        StorageLatency {
            read: SimDuration::from_micros(300),
            write: SimDuration::from_micros(500),
        }
    }
}

/// The global key-value store shared by all nodes of the cluster.
///
/// Reads and writes are instantaneous state changes; the *latency* of an
/// operation is modeled by the caller scheduling completion events using
/// [`KvStore::latency`]. Keeping state changes synchronous makes the Data
/// Buffer's commit/write-back logic straightforward to verify.
///
/// # Example
///
/// ```
/// use specfaas_storage::{KvStore, Value};
///
/// let mut kv = KvStore::new();
/// kv.set("user:1", Value::str("alice"));
/// assert_eq!(kv.get("user:1"), Some(&Value::str("alice")));
/// assert_eq!(kv.version("user:1").unwrap().0, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KvStore {
    records: FxHashMap<String, (Value, Version)>,
    latency: StorageLatency,
    reads: u64,
    writes: u64,
}

impl KvStore {
    /// Creates an empty store with the default latency model.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// The latency model.
    pub fn latency(&self) -> StorageLatency {
        self.latency
    }

    /// Reads a record. Counts as one remote read.
    pub fn get(&mut self, key: &str) -> Option<&Value> {
        self.reads += 1;
        self.records.get(key).map(|(v, _)| v)
    }

    /// Reads a record without counting it (used by validation logic, not by
    /// function execution).
    pub fn peek(&self, key: &str) -> Option<&Value> {
        self.records.get(key).map(|(v, _)| v)
    }

    /// Writes a record, bumping its version. Returns the new version.
    pub fn set(&mut self, key: impl Into<String>, value: Value) -> Version {
        self.writes += 1;
        let entry = self
            .records
            .entry(key.into())
            .or_insert((Value::Null, Version(0)));
        entry.0 = value;
        entry.1 = Version(entry.1 .0 + 1);
        entry.1
    }

    /// Deletes a record. Returns the removed value, if present.
    pub fn delete(&mut self, key: &str) -> Option<Value> {
        self.records.remove(key).map(|(v, _)| v)
    }

    /// Current version of a key, if present.
    pub fn version(&self, key: &str) -> Option<Version> {
        self.records.get(key).map(|(_, v)| *v)
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total remote reads served.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Total remote writes served.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Iterates over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.records.iter().map(|(k, (v, _))| (k.as_str(), v))
    }

    /// Clears all records and statistics (fresh run of an experiment).
    pub fn clear(&mut self) {
        self.records.clear();
        self.reads = 0;
        self.writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut kv = KvStore::new();
        kv.set("a", Value::Int(1));
        assert_eq!(kv.get("a"), Some(&Value::Int(1)));
        assert_eq!(kv.get("missing"), None);
    }

    #[test]
    fn versions_increment_per_key() {
        let mut kv = KvStore::new();
        assert_eq!(kv.set("a", Value::Int(1)), Version(1));
        assert_eq!(kv.set("a", Value::Int(2)), Version(2));
        assert_eq!(kv.set("b", Value::Int(1)), Version(1));
        assert_eq!(kv.version("a"), Some(Version(2)));
        assert_eq!(kv.version("missing"), None);
    }

    #[test]
    fn counters_track_traffic() {
        let mut kv = KvStore::new();
        kv.set("a", Value::Int(1));
        kv.get("a");
        kv.get("b");
        kv.peek("a"); // not counted
        assert_eq!(kv.read_count(), 2);
        assert_eq!(kv.write_count(), 1);
    }

    #[test]
    fn delete_removes() {
        let mut kv = KvStore::new();
        kv.set("a", Value::Int(1));
        assert_eq!(kv.delete("a"), Some(Value::Int(1)));
        assert_eq!(kv.delete("a"), None);
        assert!(kv.is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let mut kv = KvStore::new();
        kv.set("a", Value::Int(1));
        kv.get("a");
        kv.clear();
        assert!(kv.is_empty());
        assert_eq!(kv.read_count(), 0);
        assert_eq!(kv.write_count(), 0);
    }

    #[test]
    fn default_latency_is_submillisecond() {
        let kv = KvStore::new();
        assert!(kv.latency().read < SimDuration::from_millis(1));
        assert!(kv.latency().write < SimDuration::from_millis(1));
    }
}
