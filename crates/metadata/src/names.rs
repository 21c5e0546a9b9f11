//! Shared names. Every activity, entity class and designer name a
//! database holds is one `Arc<str>`, and every record that names it
//! holds a clone of that pointer instead of a copy of the text.
//!
//! [`Names`] is a database's table of activity or class names: each
//! name numbered by a dense slot, found by hash, walked in name order.
//! [`NameCache`] is a parser's: the names read from one text, each
//! allocated once however many records repeat it.

use std::collections::HashMap;
use std::sync::Arc;

/// Names numbered by dense slots, each held once and shared: found by
/// hash, walked in name order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Names {
    slots: HashMap<Arc<str>, u32>,
    /// The names by slot.
    names: Vec<Arc<str>>,
    /// The slots in name order.
    order: Vec<u32>,
}

impl Names {
    /// `name`'s shared copy and its slot, if it has one.
    pub(crate) fn get(&self, name: &str) -> Option<(&Arc<str>, usize)> {
        self.slots
            .get_key_value(name)
            .map(|(known, &slot)| (known, slot as usize))
    }

    /// `name`'s slot, if it has one.
    pub(crate) fn slot(&self, name: &str) -> Option<usize> {
        self.slots.get(name).map(|&slot| slot as usize)
    }

    /// `name`'s shared copy, or a new one when it has no slot.
    pub(crate) fn shared(&self, name: &str) -> Arc<str> {
        self.get(name)
            .map_or_else(|| Arc::from(name), |(known, _)| Arc::clone(known))
    }

    /// `name`'s shared copy and slot, numbering it next when it has
    /// none; whether it was new.
    pub(crate) fn insert(&mut self, name: &str) -> (Arc<str>, usize, bool) {
        if let Some((known, slot)) = self.get(name) {
            return (Arc::clone(known), slot, false);
        }
        let name: Arc<str> = Arc::from(name);
        let slot = self.names.len() as u32;
        // Names are mostly declared in name order, after the last one.
        let names = &self.names;
        match self.order.last() {
            Some(&last) if *names[last as usize] > *name => {
                let at = self.order.partition_point(|&s| *names[s as usize] < *name);
                self.order.insert(at, slot);
            }
            _ => self.order.push(slot),
        }
        self.slots.insert(Arc::clone(&name), slot);
        self.names.push(Arc::clone(&name));
        (name, slot as usize, true)
    }

    /// Every name and its slot, in name order.
    pub(crate) fn by_name(&self) -> impl Iterator<Item = (&Arc<str>, usize)> + '_ {
        self.order
            .iter()
            .map(|&slot| (&self.names[slot as usize], slot as usize))
    }
}

/// The names read from one text, each allocated once: the journal
/// record parser's, so the records of a tail share their names as a
/// database's records do.
#[derive(Debug, Default)]
pub(crate) struct NameCache<'a> {
    names: HashMap<&'a str, Arc<str>>,
}

impl<'a> NameCache<'a> {
    /// The shared copy of `name`, made on its first read.
    pub(crate) fn get(&mut self, name: &'a str) -> Arc<str> {
        Arc::clone(self.names.entry(name).or_insert_with(|| Arc::from(name)))
    }
}
