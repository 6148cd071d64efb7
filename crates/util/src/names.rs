//! A table of names, each stored once and known by a dense `u32` id.
//!
//! The provenance log interns every artifact name here, and a shipment
//! manifest's lineage shares the log's table (behind an `Arc`) instead of
//! copying the names it refers to (DESIGN §19). The text of all names lies
//! back to back in one `String`; an open-addressed index of ids, probed
//! with each name's FNV-1a 64 hash (kept per name), finds a name's id.

use crate::hash::fnv1a64;
use std::fmt;
use std::sync::Arc;

/// An empty slot of the index.
const EMPTY: u32 = u32::MAX;

/// Fewest slots the index has once it holds a name.
const MIN_SLOTS: usize = 16;

/// Every name seen, each once: name `id` is `text[ends[id - 1]..ends[id]]`.
#[derive(Clone, Default)]
pub struct NameTable {
    text: String,
    ends: Vec<u32>,
    /// Per name: its FNV-1a 64 hash.
    hashes: Vec<u64>,
    /// Linear-probing index of ids (or [`EMPTY`]), a power of two long and
    /// at most half full; a name's probe starts at its hash's low bits.
    slots: Vec<u32>,
}

/// Where a name that is not in a [`NameTable`] goes: its hash and the empty
/// slot its probe ended on. Valid for the table `lookup` was asked, or a
/// clone of it, until a name is inserted.
struct Vacant {
    hash: u64,
    slot: usize,
}

impl NameTable {
    /// Number of names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table holds no name.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The name `id`.
    pub fn get(&self, id: u32) -> &str {
        let id = id as usize;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.text[start..self.ends[id] as usize]
    }

    /// Every name, by id.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len() as u32).map(|id| self.get(id))
    }

    /// The id of `name`, if the table has it.
    pub fn find(&self, name: &str) -> Option<u32> {
        self.lookup(name).ok()
    }

    /// The id of `name`, or where to insert it: the name is hashed once
    /// for both.
    fn lookup(&self, name: &str) -> Result<u32, Vacant> {
        let hash = fnv1a64(name.as_bytes());
        if self.slots.is_empty() {
            return Err(Vacant { hash, slot: 0 });
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(Vacant { hash, slot }),
                id if self.hashes[id as usize] == hash && self.get(id) == name => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Add `name`, which `lookup` did not find, at `at`; returns its id.
    fn insert(&mut self, name: &str, at: Vacant) -> u32 {
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("fewer than 2^32 - 1 names");
        self.text.push_str(name);
        let end = u32::try_from(self.text.len()).expect("fewer than 4 GiB of names");
        self.ends.push(end);
        self.hashes.push(at.hash);
        if 2 * self.len() > self.slots.len() {
            // Grown: every name, the new one too, goes to its new slot.
            self.slots = vec![EMPTY; (2 * self.slots.len()).max(MIN_SLOTS)];
            for (id, &hash) in self.hashes.iter().enumerate() {
                let slot = self.vacant_slot(hash);
                self.slots[slot] = id as u32;
            }
        } else {
            debug_assert_eq!(self.slots[at.slot], EMPTY, "a stale Vacant");
            self.slots[at.slot] = id;
        }
        id
    }

    /// The id of `name`, new or not. A new name is added to `table`, which
    /// is copied first if another `Arc` still holds it: a name known to the
    /// table copies nothing, and no holder sees another's new names.
    pub fn intern(table: &mut Arc<Self>, name: &str) -> u32 {
        match table.lookup(name) {
            Ok(id) => id,
            Err(at) => Arc::make_mut(table).insert(name, at),
        }
    }

    /// The first empty slot of `hash`'s probe.
    fn vacant_slot(&self, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        slot
    }
}

/// The names are the table; ids, hashes and slots are how it is stored.
impl fmt::Debug for NameTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A run of name ids, borrowed with the table they index.
#[derive(Clone, Copy)]
pub struct NameList<'a> {
    names: &'a NameTable,
    ids: &'a [u32],
}

impl<'a> NameList<'a> {
    /// The names `ids` of `names`.
    pub fn new(names: &'a NameTable, ids: &'a [u32]) -> Self {
        Self { names, ids }
    }

    /// The names, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        let names = self.names;
        self.ids.iter().map(move |&id| names.get(id))
    }
}

/// Equal names, whatever their ids or tables.
impl PartialEq for NameList<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for NameList<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Two different names whose hashes share their low 32 bits, so their
    /// probes start at the same slot at every table size up to 2^32: the
    /// first pair a birthday search over generated names yields.
    fn colliding_names() -> (String, String) {
        let mut by_low: HashMap<u32, String> = HashMap::new();
        (0u32..)
            .find_map(|i| {
                let name = format!("granule-{i}");
                by_low
                    .insert(fnv1a64(name.as_bytes()) as u32, name.clone())
                    .map(|earlier| (earlier, name))
            })
            .expect("a collision exists")
    }

    #[test]
    fn names_get_dense_ids_and_come_back_as_written() {
        let mut table: Arc<NameTable> = Arc::default();
        assert!(table.is_empty() && table.find("a").is_none());
        let names: Vec<String> = (0..1_000).map(|i| format!("n{}", i * 7 % 1_000)).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(NameTable::intern(&mut table, name), i as u32);
        }
        assert_eq!(table.len(), names.len());
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                NameTable::intern(&mut table, name),
                i as u32,
                "interned again"
            );
            assert_eq!(table.find(name), Some(i as u32));
            assert_eq!(table.get(i as u32), name);
        }
        assert!(table.iter().eq(names.iter().map(String::as_str)));
        assert_eq!(table.find("n1000"), None);
        assert!(table.slots.len() >= 2 * table.len());
        assert_eq!(
            NameTable::intern(&mut table, ""),
            1_000,
            "the empty name is a name"
        );
        assert_eq!(table.get(1_000), "");
    }

    #[test]
    fn names_sharing_a_home_slot_are_told_apart() {
        let (a, b) = colliding_names();
        assert_ne!(a, b);
        let (ha, hb) = (fnv1a64(a.as_bytes()), fnv1a64(b.as_bytes()));
        assert_eq!(ha as u32, hb as u32);
        let mut table: Arc<NameTable> = Arc::default();
        let ia = NameTable::intern(&mut table, &a);
        let ib = NameTable::intern(&mut table, &b);
        assert_ne!(ia, ib);
        // Grow the index past the first sizes; the two stay apart.
        for i in 0..100 {
            NameTable::intern(&mut table, &format!("filler-{i}"));
        }
        let mask = table.slots.len() - 1;
        assert_eq!(ha as usize & mask, hb as usize & mask, "one home slot");
        assert_eq!((table.find(&a), table.find(&b)), (Some(ia), Some(ib)));
        assert_eq!((table.get(ia), table.get(ib)), (a.as_str(), b.as_str()));
    }

    #[test]
    fn a_shared_table_is_copied_only_for_a_new_name() {
        let mut table: Arc<NameTable> = Arc::default();
        assert_eq!(NameTable::intern(&mut table, "x"), 0);
        let held = Arc::clone(&table);
        assert_eq!(NameTable::intern(&mut table, "x"), 0);
        assert!(Arc::ptr_eq(&table, &held), "a known name copies nothing");
        assert_eq!(NameTable::intern(&mut table, "y"), 1);
        assert!(!Arc::ptr_eq(&table, &held));
        assert_eq!((held.len(), table.len()), (1, 2));
        assert_eq!((held.find("y"), table.find("y")), (None, Some(1)));
    }

    #[test]
    fn name_lists_compare_names_not_ids() {
        let (mut one, mut two): (Arc<NameTable>, Arc<NameTable>) = Default::default();
        NameTable::intern(&mut two, "padding");
        let ids_one = ["a", "b"].map(|n| NameTable::intern(&mut one, n));
        let ids_two = ["a", "b"].map(|n| NameTable::intern(&mut two, n));
        assert_ne!(ids_one, ids_two);
        let (l1, l2) = (NameList::new(&one, &ids_one), NameList::new(&two, &ids_two));
        assert_eq!(l1, l2);
        assert_eq!(format!("{l1:?}"), r#"["a", "b"]"#);
        assert_ne!(l1, NameList::new(&one, &ids_one[..1]));
    }
}
