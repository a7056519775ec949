//! The Data Buffer (paper §V-C, Fig. 9; call-return merging from §V-D).
//!
//! One Data Buffer exists per application invocation, on the controller
//! node. It buffers the global-storage writes of all in-progress
//! (uncommitted) functions, detects data-dependence violations between
//! concurrently-executing functions, forwards values along in-order RAW
//! dependences, and handles WAR/WAW dependences without squashes.
//!
//! Layout: a row per accessed record (storage key); within a row, a cell
//! per in-progress function with Read / Write bits and the buffered value.
//! Cells are ordered by the functions' *program order*, supplied by the
//! pipeline via the [`ProgramOrder`] trait.
//!
//! * **Write by function i** — scan the R bits of successors of `i`, up to
//!   and including the first successor with its W bit set. Any successor
//!   with R set read stale data (out-of-order RAW): it and everything
//!   after it must be squashed. The value is buffered in `i`'s cell.
//! * **Read by function i** — scan predecessors of `i` in reverse program
//!   order for a set W bit; the first hit forwards its buffered value
//!   (in-order RAW). Otherwise the read falls through to global storage.
//!   `i`'s R bit is set either way. A read of a record `i` has itself
//!   written is not exposed: the engine serves it from `i`'s own cell
//!   ([`DataBuffer::own_write`]) and leaves the R bit clear.
//! * **Commit of function i** — its buffered writes flush to global
//!   storage and its cells clear.
//! * **Squash of function i** — its cells invalidate.
//! * **Merge (call return)** — the callee's cells fold into the caller's
//!   (§V-D): callee writes become caller writes.

use specfaas_sim::hash::FxHashMap;
use specfaas_storage::Value;

use crate::pipeline::{Pipeline, SlotId};

/// Supplies the program order of in-progress functions to the buffer.
pub trait ProgramOrder {
    /// Position of `slot` in program order, `None` if not in progress.
    fn order_of(&self, slot: SlotId) -> Option<usize>;
}

impl ProgramOrder for Pipeline {
    fn order_of(&self, slot: SlotId) -> Option<usize> {
        self.position(slot)
    }
}

/// Program order backed by an explicit list (handy in tests).
impl ProgramOrder for Vec<SlotId> {
    fn order_of(&self, slot: SlotId) -> Option<usize> {
        self.iter().position(|s| *s == slot)
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Cell {
    read: bool,
    written: bool,
    value: Option<Value>,
}

/// Records by key; each row holds the cells of the functions that
/// touched the record.
type Rows = FxHashMap<String, FxHashMap<SlotId, Cell>>;

/// Result of a buffered read.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadResult {
    /// An in-order RAW dependence: the value was forwarded from an
    /// earlier in-progress function's buffered write.
    Forwarded(Value),
    /// No buffered write by a predecessor: serve the read from global
    /// storage.
    Global,
}

/// The per-invocation Data Buffer.
///
/// # Example
///
/// ```
/// use specfaas_core::DataBuffer;
/// use specfaas_core::pipeline::SlotId;
/// use specfaas_storage::Value;
///
/// let order = vec![SlotId(0), SlotId(1)];
/// let mut db = DataBuffer::new();
/// // Function 0 writes, function 1 then reads: in-order RAW, forwarded.
/// let squashes = db.write(SlotId(0), "rec", Value::Int(7), &order);
/// assert!(squashes.is_empty());
/// match db.read(SlotId(1), "rec", &order) {
///     specfaas_core::databuffer::ReadResult::Forwarded(v) => assert_eq!(v, Value::Int(7)),
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataBuffer {
    rows: Rows,
    forwards: u64,
    violations: u64,
}

impl DataBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        DataBuffer::default()
    }

    /// The row of `key` in `rows`, created empty on first access. Only a
    /// new row allocates its key.
    fn row_mut<'a>(rows: &'a mut Rows, key: &str) -> &'a mut FxHashMap<SlotId, Cell> {
        if !rows.contains_key(key) {
            rows.insert(key.to_owned(), FxHashMap::default());
        }
        rows.get_mut(key).expect("row present")
    }

    /// Records a write of `key` by `slot` and returns the slots that must
    /// be squashed (out-of-order RAW victims), oldest first. The caller
    /// is responsible for also squashing each victim's successors
    /// (the engine squashes from the oldest victim onward).
    pub fn write(
        &mut self,
        slot: SlotId,
        key: &str,
        value: Value,
        order: &impl ProgramOrder,
    ) -> Vec<SlotId> {
        let my_pos = order
            .order_of(slot)
            .expect("writer must be an in-progress function");
        let row = Self::row_mut(&mut self.rows, key);

        // Successors in program order.
        let mut successors: Vec<(usize, SlotId)> = row
            .keys()
            .filter_map(|s| order.order_of(*s).map(|p| (p, *s)))
            .filter(|(p, _)| *p > my_pos)
            .collect();
        successors.sort_unstable();

        let mut victims = Vec::new();
        for (_, s) in &successors {
            let cell = &row[s];
            if cell.read {
                victims.push(*s);
            }
            if cell.written {
                // Scanning ends at (and includes) the first column with W
                // set: a later write re-defines the record, insulating
                // everything after it (WAW handled without squash).
                break;
            }
        }
        self.violations += victims.len() as u64;

        let cell = row.entry(slot).or_default();
        cell.written = true;
        cell.value = Some(value);
        victims
    }

    /// Performs the buffered part of a read of `key` by `slot`.
    pub fn read(&mut self, slot: SlotId, key: &str, order: &impl ProgramOrder) -> ReadResult {
        let my_pos = order
            .order_of(slot)
            .expect("reader must be an in-progress function");
        let row = Self::row_mut(&mut self.rows, key);

        // Predecessors in reverse program order.
        let mut preds: Vec<(usize, SlotId)> = row
            .keys()
            .filter_map(|s| order.order_of(*s).map(|p| (p, *s)))
            .filter(|(p, _)| *p < my_pos)
            .collect();
        preds.sort_unstable_by(|a, b| b.cmp(a));

        let mut result = ReadResult::Global;
        for (_, s) in preds {
            let cell = &row[&s];
            if cell.written {
                result =
                    ReadResult::Forwarded(cell.value.clone().expect("written cell has a value"));
                self.forwards += 1;
                break;
            }
        }
        row.entry(slot).or_default().read = true;
        result
    }

    /// True if `slot` has a buffered write of `key` (used by the stall
    /// list to see whether a producer has produced yet).
    pub fn has_write(&self, slot: SlotId, key: &str) -> bool {
        self.own_write(slot, key).is_some()
    }

    /// `slot`'s own buffered write of `key`, if it has one (after a call
    /// return this includes the merged callee's writes). A function that
    /// reads back a record it wrote sees this value. [`DataBuffer::read`]
    /// forwards only predecessors' writes, so the engine consults this
    /// first.
    pub fn own_write(&self, slot: SlotId, key: &str) -> Option<&Value> {
        let cell = self.rows.get(key)?.get(&slot)?;
        cell.value.as_ref().filter(|_| cell.written)
    }

    /// Commits `slot`: clears its cells and returns its buffered writes
    /// (key, value) for flushing to global storage.
    pub fn commit(&mut self, slot: SlotId) -> Vec<(String, Value)> {
        let mut flush = Vec::new();
        for (key, row) in &mut self.rows {
            if let Some(cell) = row.remove(&slot) {
                if cell.written {
                    flush.push((key.clone(), cell.value.expect("written cell has a value")));
                }
            }
        }
        self.rows.retain(|_, row| !row.is_empty());
        flush.sort_by(|a, b| a.0.cmp(&b.0)); // deterministic flush order
        flush
    }

    /// Squashes `slot`: invalidates all its cells.
    pub fn squash(&mut self, slot: SlotId) {
        for row in self.rows.values_mut() {
            row.remove(&slot);
        }
        self.rows.retain(|_, row| !row.is_empty());
    }

    /// Merges the callee's cells into the caller's on a call return
    /// (§V-D). Callee writes supersede caller writes (the callee is the
    /// more recent definition); read bits are OR-ed.
    pub fn merge(&mut self, callee: SlotId, caller: SlotId) {
        for row in self.rows.values_mut() {
            if let Some(child) = row.remove(&callee) {
                let parent = row.entry(caller).or_default();
                parent.read |= child.read;
                if child.written {
                    parent.written = true;
                    parent.value = child.value;
                }
            }
        }
        self.rows.retain(|_, row| !row.is_empty());
    }

    /// Number of records with live cells.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Values forwarded along in-order RAW dependences.
    pub fn forwards(&self) -> u64 {
        self.forwards
    }

    /// Out-of-order RAW violations detected.
    pub fn violations(&self) -> u64 {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u64) -> SlotId {
        SlotId(i)
    }

    #[test]
    fn in_order_raw_forwards() {
        let order = vec![s(0), s(1), s(2)];
        let mut db = DataBuffer::new();
        assert!(db.write(s(0), "k", Value::Int(1), &order).is_empty());
        assert_eq!(
            db.read(s(2), "k", &order),
            ReadResult::Forwarded(Value::Int(1))
        );
        assert_eq!(db.forwards(), 1);
    }

    #[test]
    fn read_forwards_from_nearest_predecessor() {
        let order = vec![s(0), s(1), s(2)];
        let mut db = DataBuffer::new();
        db.write(s(0), "k", Value::Int(1), &order);
        db.write(s(1), "k", Value::Int(2), &order);
        assert_eq!(
            db.read(s(2), "k", &order),
            ReadResult::Forwarded(Value::Int(2))
        );
    }

    #[test]
    fn out_of_order_raw_squashes_reader() {
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        // Successor reads first (gets global state), predecessor then
        // writes: violation.
        assert_eq!(db.read(s(1), "k", &order), ReadResult::Global);
        let victims = db.write(s(0), "k", Value::Int(5), &order);
        assert_eq!(victims, vec![s(1)]);
        assert_eq!(db.violations(), 1);
    }

    #[test]
    fn write_scan_stops_at_first_writer() {
        // Fig. 9's Record-1 example inverted: a successor that WROTE the
        // record insulates readers beyond it (WAW / redefinition).
        let order = vec![s(0), s(1), s(2)];
        let mut db = DataBuffer::new();
        db.write(s(1), "k", Value::Int(9), &order);
        db.read(s(2), "k", &order); // reads s(1)'s value — fine
        let victims = db.write(s(0), "k", Value::Int(1), &order);
        assert!(
            victims.is_empty(),
            "s(2) read s(1)'s definition, not s(0)'s: no squash"
        );
    }

    #[test]
    fn write_squashes_reader_that_also_wrote_later() {
        // Successor both read (stale) and wrote: it is the first W column,
        // scanning ends there but it IS included — it read stale data.
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        db.read(s(1), "k", &order);
        db.write(s(1), "k", Value::Int(3), &order);
        let victims = db.write(s(0), "k", Value::Int(1), &order);
        assert_eq!(victims, vec![s(1)]);
    }

    #[test]
    fn war_handled_without_squash() {
        // R1 → W2 in order: the later write does not disturb the earlier
        // read.
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        db.read(s(0), "k", &order);
        let victims = db.write(s(1), "k", Value::Int(2), &order);
        assert!(victims.is_empty());
        // Out of order (W2 first, then R1 by the predecessor): predecessor
        // read must not see the successor's write.
        let mut db = DataBuffer::new();
        db.write(s(1), "k", Value::Int(2), &order);
        assert_eq!(db.read(s(0), "k", &order), ReadResult::Global);
    }

    #[test]
    fn waw_handled_without_squash() {
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        db.write(s(1), "k", Value::Int(2), &order);
        let victims = db.write(s(0), "k", Value::Int(1), &order);
        assert!(victims.is_empty());
        // Reads by an even later function see the younger definition.
        let order3 = vec![s(0), s(1), s(2)];
        assert_eq!(
            db.read(s(2), "k", &order3),
            ReadResult::Forwarded(Value::Int(2))
        );
    }

    #[test]
    fn commit_flushes_writes_and_clears() {
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        db.write(s(0), "a", Value::Int(1), &order);
        db.write(s(0), "b", Value::Int(2), &order);
        db.read(s(0), "c", &order);
        let flush = db.commit(s(0));
        assert_eq!(
            flush,
            vec![("a".into(), Value::Int(1)), ("b".into(), Value::Int(2))]
        );
        assert_eq!(db.rows(), 0);
    }

    #[test]
    fn squash_invalidates_cells() {
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        db.write(s(1), "k", Value::Int(9), &order);
        db.squash(s(1));
        let order3 = vec![s(0), s(1), s(2)];
        assert_eq!(db.read(s(2), "k", &order3), ReadResult::Global);
        assert!(db.commit(s(1)).is_empty());
    }

    #[test]
    fn merge_folds_callee_into_caller() {
        // Caller s(0), callee s(1): callee writes k, then merges into
        // caller; a later function forwards from the caller's column.
        let order = vec![s(0), s(1), s(2)];
        let mut db = DataBuffer::new();
        db.write(s(1), "k", Value::Int(42), &order);
        db.merge(s(1), s(0));
        assert!(db.has_write(s(0), "k"));
        assert!(!db.has_write(s(1), "k"));
        assert_eq!(
            db.read(s(2), "k", &order),
            ReadResult::Forwarded(Value::Int(42))
        );
        // Caller's commit flushes the merged write.
        let flush = db.commit(s(0));
        assert_eq!(flush, vec![("k".into(), Value::Int(42))]);
    }

    #[test]
    fn merge_preserves_caller_write_when_callee_only_read() {
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        db.write(s(0), "k", Value::Int(1), &order);
        db.read(s(1), "k", &order);
        db.merge(s(1), s(0));
        assert!(db.has_write(s(0), "k"));
        let flush = db.commit(s(0));
        assert_eq!(flush, vec![("k".into(), Value::Int(1))]);
    }

    #[test]
    fn fig9_record2_example() {
        // Fig. 9: Function i+1 has R set on Record 2; Function i then
        // writes Record 2 → out-of-order RAW, squash i+1.
        let order = vec![s(0), s(1), s(2)];
        let mut db = DataBuffer::new();
        db.read(s(2), "record2", &order);
        let victims = db.write(s(1), "record2", Value::Int(1), &order);
        assert_eq!(victims, vec![s(2)]);
    }

    #[test]
    fn repeated_read_by_same_function_not_exposed() {
        // The paper: the Data Buffer is only accessed on *exposed* reads.
        // A slot's own buffered write is never forwarded back to it: the
        // engine serves that read from `own_write` instead.
        let order = vec![s(0)];
        let mut db = DataBuffer::new();
        db.write(s(0), "k", Value::Int(1), &order);
        // Own write is not a predecessor; read falls through to global.
        assert_eq!(db.read(s(0), "k", &order), ReadResult::Global);
    }

    #[test]
    fn own_write_is_visible_to_its_writer_only() {
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        db.write(s(1), "k", Value::Int(5), &order);
        db.read(s(0), "k", &order);
        assert_eq!(db.own_write(s(1), "k"), Some(&Value::Int(5)));
        assert_eq!(db.own_write(s(0), "k"), None, "a read is not a write");
        assert_eq!(db.own_write(s(1), "other"), None);
        // Consulting it sets no R bit: a predecessor's later write of the
        // record squashes nothing.
        assert!(db.write(s(0), "k", Value::Int(1), &order).is_empty());
        // A callee's write becomes its caller's own on a call return.
        db.merge(s(1), s(0));
        assert_eq!(db.own_write(s(0), "k"), Some(&Value::Int(5)));
    }
}
