//! Typed identifiers for the five object kinds in the metadata
//! database. Separate newtypes keep the execution space and the
//! schedule space statically distinct: a schedule instance id can never
//! be used where an entity instance id is required.
//!
//! # Generational handles
//!
//! Every id carries a *generation* stamp alongside its dense slot
//! index. The generation is the store generation the id was minted
//! under: compaction (`herc gc`) restamps the database at a fresh
//! generation, so handles held across a compaction become *stale* and
//! fallible mutations reject them with
//! [`MetadataError::StaleHandle`](crate::MetadataError) instead of
//! silently resolving to whatever object reuses the slot.
//!
//! Equality, hashing, and ordering deliberately compare the slot only:
//! an id round-tripped through the journal text format (which carries
//! no generation) still compares equal to the live id, and `BTreeMap` /
//! `HashMap` keyed collections are unaffected by restamping. The
//! generation is an integrity check consulted at mutation boundaries,
//! not part of the identity.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy)]
        pub struct $name {
            pub(crate) slot: u32,
            pub(crate) gen: u32,
        }

        impl $name {
            /// Builds an id for `slot` stamped with generation `gen`.
            pub(crate) fn new(slot: u32, gen: u32) -> Self {
                Self { slot, gen }
            }

            /// The same slot restamped at generation `gen`.
            pub(crate) fn with_gen(self, gen: u32) -> Self {
                Self { slot: self.slot, gen }
            }

            /// Dense index (allocation order) backing this id.
            pub fn index(self) -> usize {
                self.slot as usize
            }

            /// The store generation this handle was minted under.
            /// Handles from generations older than the database's
            /// current generation are stale: they are rejected by
            /// mutating calls after a compaction has reused the slot
            /// space.
            pub fn generation(self) -> u32 {
                self.gen
            }
        }

        // Identity is the slot alone: the generation is a validity
        // stamp, not a distinguishing feature. See the module docs.
        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                self.slot == other.slot
            }
        }
        impl Eq for $name {}
        impl Hash for $name {
            fn hash<H: Hasher>(&self, state: &mut H) {
                self.slot.hash(state);
            }
        }
        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for $name {
            fn cmp(&self, other: &Self) -> Ordering {
                self.slot.cmp(&other.slot)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.slot)
            }
        }
    };
}

define_id!(
    /// Identifies an [`EntityInstance`](crate::EntityInstance) — Level-3
    /// execution metadata for one version of one entity.
    EntityInstanceId,
    "ei"
);
define_id!(
    /// Identifies a [`ScheduleInstance`](crate::ScheduleInstance) —
    /// Level-3 schedule data for one planned activity version.
    ScheduleInstanceId,
    "sc"
);
define_id!(
    /// Identifies a [`Run`](crate::Run) — one execution of an activity.
    RunId,
    "run"
);
define_id!(
    /// Identifies a [`PlanningSession`](crate::PlanningSession) — the
    /// schedule-space analog of a run ("a Run in the actual flow space
    /// corresponds to a Schedule in the schedule flow space").
    PlanningSessionId,
    "plan"
);
define_id!(
    /// Identifies a [`DataObject`](crate::DataObject) — Level-4 actual
    /// design data.
    DataObjectId,
    "do"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn display_prefixes_distinguish_kinds() {
        assert_eq!(EntityInstanceId::new(3, 0).to_string(), "ei3");
        assert_eq!(ScheduleInstanceId::new(3, 0).to_string(), "sc3");
        assert_eq!(RunId::new(0, 0).to_string(), "run0");
        assert_eq!(PlanningSessionId::new(1, 0).to_string(), "plan1");
        assert_eq!(DataObjectId::new(9, 0).to_string(), "do9");
    }

    #[test]
    fn ids_order_by_allocation() {
        assert!(EntityInstanceId::new(1, 0) < EntityInstanceId::new(2, 0));
        assert_eq!(EntityInstanceId::new(4, 0).index(), 4);
    }

    #[test]
    fn generation_does_not_affect_identity() {
        let old = RunId::new(7, 0);
        let new = old.with_gen(3);
        assert_eq!(old, new);
        assert_eq!(old.cmp(&new), Ordering::Equal);
        let hash = |id: RunId| {
            let mut h = DefaultHasher::new();
            id.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(old), hash(new));
        assert_eq!(new.generation(), 3);
        assert_eq!(new.index(), 7);
        assert_eq!(new.to_string(), "run7");
    }
}
