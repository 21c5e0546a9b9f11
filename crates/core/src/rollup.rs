//! Block-level schedule rollup — a first step toward the paper's
//! future work: "developing a schedule model that considers the
//! architectural decomposition as well as the task flow" (§V, citing
//! Jacome & Director's formal design-process model).
//!
//! Activities are grouped into architectural *blocks* (a work-breakdown
//! structure); planned and actual dates roll up per block, giving the
//! project manager the block-level view ("a portion of the overall
//! schedule") while designers keep the activity-level one.

use std::collections::BTreeMap;

use schedule::gantt::{GanttOptions, GanttRow};
use schedule::{gantt, WorkDays};

use crate::error::HerculesError;
use crate::manager::Hercules;

/// A grouping of activities into named architectural blocks.
///
/// Activities not assigned to any block roll up under the
/// `"(unassigned)"` block so nothing silently disappears from the
/// manager's view.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Decomposition {
    blocks: BTreeMap<String, Vec<String>>,
}

impl Decomposition {
    /// Creates an empty decomposition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns `activities` to `block` (appending to any previous
    /// assignment of the block).
    #[must_use]
    pub fn block<I, S>(mut self, block: &str, activities: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.blocks
            .entry(block.to_owned())
            .or_default()
            .extend(activities.into_iter().map(Into::into));
        self
    }

    /// The block an activity belongs to, if assigned.
    pub fn block_of(&self, activity: &str) -> Option<&str> {
        self.blocks
            .iter()
            .find(|(_, acts)| acts.iter().any(|a| a == activity))
            .map(|(name, _)| name.as_str())
    }

    /// Block names, sorted.
    pub fn block_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.blocks.keys().map(String::as_str)
    }
}

/// One block's rolled-up schedule status.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStatus {
    /// Block name.
    pub block: String,
    /// Activities rolled into this block.
    pub activities: Vec<String>,
    /// Earliest planned start over the block's activities.
    pub planned_start: Option<WorkDays>,
    /// Latest planned finish.
    pub planned_finish: Option<WorkDays>,
    /// Earliest actual start.
    pub actual_start: Option<WorkDays>,
    /// Latest actual finish, only when *every* activity is complete.
    pub actual_finish: Option<WorkDays>,
    /// Complete activities out of total.
    pub complete: usize,
}

impl BlockStatus {
    /// Whether the whole block is complete.
    pub fn is_complete(&self) -> bool {
        self.complete == self.activities.len() && !self.activities.is_empty()
    }

    /// Block-level finish slip in days, once complete and planned.
    pub fn slip(&self) -> Option<f64> {
        Some(self.actual_finish?.days() - self.planned_finish?.days())
    }
}

impl Hercules {
    /// Rolls the current plan and actuals up to `decomposition`'s
    /// blocks. Blocks appear in name order; unassigned activities (if
    /// any) land in a trailing `"(unassigned)"` block.
    pub fn rollup(&self, decomposition: &Decomposition) -> Result<Vec<BlockStatus>, HerculesError> {
        let mut assignment: BTreeMap<String, Vec<String>> = decomposition.blocks.clone();
        let mut unassigned = Vec::new();
        for rule in self.schema.rules() {
            if decomposition.block_of(rule.activity()).is_none() {
                unassigned.push(rule.activity().to_owned());
            }
        }
        if !unassigned.is_empty() {
            assignment.insert("(unassigned)".to_owned(), unassigned);
        }
        let mut out = Vec::new();
        for (block, activities) in assignment {
            let mut planned_start: Option<WorkDays> = None;
            let mut planned_finish: Option<WorkDays> = None;
            let mut actual_start: Option<WorkDays> = None;
            let mut finishes = Vec::new();
            let mut complete = 0usize;
            for activity in &activities {
                if let Some(plan) = self.store.db().current_plan(activity) {
                    let ps = plan.planned_start();
                    let pf = plan.planned_finish();
                    planned_start = Some(planned_start.map_or(ps, |s| s.min(ps)));
                    planned_finish = Some(planned_finish.map_or(pf, |f| f.max(pf)));
                    if plan.is_complete() {
                        complete += 1;
                    }
                }
                if let Some(a) = self.store.db().actual_start(activity) {
                    actual_start = Some(actual_start.map_or(a, |s| s.min(a)));
                }
                if let Some(f) = self.store.db().actual_finish(activity) {
                    finishes.push(f);
                }
            }
            let actual_finish = if complete == activities.len() && !activities.is_empty() {
                finishes.into_iter().max()
            } else {
                None
            };
            out.push(BlockStatus {
                block,
                activities,
                planned_start,
                planned_finish,
                actual_start,
                actual_finish,
                complete,
            });
        }
        Ok(out)
    }

    /// Renders the block-level Gantt chart: one bar per block, planned
    /// vs accomplished — the project manager's "portion of the overall
    /// schedule" (§IV-C).
    pub fn block_gantt(
        &self,
        decomposition: &Decomposition,
        options: &GanttOptions,
    ) -> Result<String, HerculesError> {
        let blocks = self.rollup(decomposition)?;
        let status_date = self.clock;
        let rows: Vec<GanttRow> = blocks
            .iter()
            .filter(|b| b.planned_start.is_some() || b.actual_start.is_some())
            .map(|b| {
                let ps = b.planned_start.unwrap_or(WorkDays::ZERO);
                let pf = b.planned_finish.unwrap_or(ps);
                let mut row = GanttRow::planned(b.block.clone(), ps, pf);
                if let Some(start) = b.actual_start {
                    let end = b.actual_finish.unwrap_or(status_date);
                    row = row.with_actual(start, end, b.is_complete());
                }
                row
            })
            .collect();
        Ok(gantt::render(&rows, options))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::examples;
    use simtools::{workload::Team, ToolLibrary};

    fn asic(seed: u64) -> Hercules {
        Hercules::new(
            examples::asic_flow(),
            ToolLibrary::standard(),
            Team::of_size(3),
            seed,
        )
    }

    fn decomposition() -> Decomposition {
        Decomposition::new()
            .block(
                "frontend",
                ["CaptureSpec", "WriteRtl", "VerifyRtl", "Synthesize"],
            )
            .block("backend", ["Floorplan", "Place", "Cts", "Route"])
    }

    #[test]
    fn block_of_lookup() {
        let d = decomposition();
        assert_eq!(d.block_of("WriteRtl"), Some("frontend"));
        assert_eq!(d.block_of("Route"), Some("backend"));
        assert_eq!(d.block_of("Signoff"), None);
        assert_eq!(d.block_names().count(), 2);
    }

    #[test]
    fn rollup_covers_unassigned() {
        let mut h = asic(5);
        h.plan("signoff_report").unwrap();
        let blocks = h.rollup(&decomposition()).unwrap();
        let names: Vec<&str> = blocks.iter().map(|b| b.block.as_str()).collect();
        assert_eq!(names, vec!["(unassigned)", "backend", "frontend"]);
        let unassigned = &blocks[0];
        assert_eq!(unassigned.activities, vec!["Signoff"]);
    }

    #[test]
    fn rollup_spans_contain_activities() {
        let mut h = asic(5);
        h.plan("signoff_report").unwrap();
        h.execute("signoff_report").unwrap();
        let blocks = h.rollup(&decomposition()).unwrap();
        for block in &blocks {
            assert!(block.is_complete());
            let bs = block.planned_start.unwrap();
            let bf = block.planned_finish.unwrap();
            for activity in &block.activities {
                let plan = h.db().current_plan(activity).unwrap();
                assert!(plan.planned_start().days() >= bs.days() - 1e-9);
                assert!(plan.planned_finish().days() <= bf.days() + 1e-9);
            }
            assert!(block.slip().is_some());
            // The block's actual finish is the max over its activities.
            let max_actual = block
                .activities
                .iter()
                .map(|a| h.db().actual_finish(a).unwrap().days())
                .fold(0.0f64, f64::max);
            assert!((block.actual_finish.unwrap().days() - max_actual).abs() < 1e-9);
        }
    }

    #[test]
    fn partial_block_has_no_actual_finish() {
        let mut h = asic(5);
        h.plan("signoff_report").unwrap();
        h.execute("rtl").unwrap(); // only part of the frontend
        let blocks = h.rollup(&decomposition()).unwrap();
        let frontend = blocks.iter().find(|b| b.block == "frontend").unwrap();
        assert!(frontend.complete > 0 && !frontend.is_complete());
        assert!(frontend.actual_start.is_some());
        assert!(frontend.actual_finish.is_none());
        assert!(frontend.slip().is_none());
    }

    #[test]
    fn block_gantt_renders_blocks_not_activities() {
        let mut h = asic(5);
        h.plan("signoff_report").unwrap();
        h.execute("signoff_report").unwrap();
        let chart = h
            .block_gantt(
                &decomposition(),
                &GanttOptions {
                    ascii: true,
                    ..GanttOptions::default()
                },
            )
            .unwrap();
        assert!(chart.contains("frontend"));
        assert!(chart.contains("backend"));
        assert!(!chart.contains("WriteRtl"));
    }

    #[test]
    fn empty_decomposition_rolls_everything_unassigned() {
        let mut h = asic(5);
        h.plan("signoff_report").unwrap();
        let blocks = h.rollup(&Decomposition::new()).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].activities.len(), 9);
    }
}
