//! Schedule lowering: the ordered `at <trial> ...` entries of a campaign
//! become a list of piecewise-constant [`StepState`] segments over the
//! cell's test trials, and each segment lowers onto the existing
//! [`FaultPlan`] seam (scaled hostile plan + optional dropout override).
//!
//! Training is always performed under the cell's *base* conditions — the
//! schedule perturbs test-time measurements only, which is what makes a
//! fault ramp reproduce the PR2 degradation curve segment by segment.

use wimi_phy::channel::Environment;
use wimi_phy::fault::FaultPlan;

use crate::ast::{Campaign, ScheduleChange, TargetMode};
use crate::grid::CellPlan;

/// The full measurement condition holding from one test-trial boundary to
/// the next.
#[derive(Debug, Clone, PartialEq)]
pub struct StepState {
    /// First test trial this segment applies to (0-based).
    pub from: usize,
    /// Fault intensity (multiplier on the hostile plan; 0 = clean).
    pub intensity: f64,
    /// Deployment environment.
    pub environment: Environment,
    /// What sits between the antennas.
    pub target: TargetMode,
    /// Per-antenna dropout probability override, when a dropout window is
    /// open (`None` leaves the scaled plan's own dropout untouched).
    pub dropout: Option<f64>,
}

/// Lowers a campaign's schedule onto one cell: the base segment (trial 0)
/// carries the cell's axis values, and every group of same-trial entries
/// produces one cumulative segment. The result is non-empty and strictly
/// increasing in `from`.
pub fn lower(c: &Campaign, cell: &CellPlan) -> Vec<StepState> {
    let mut steps = vec![StepState {
        from: 0,
        intensity: cell.intensity,
        environment: cell.environment,
        target: TargetMode::Present,
        dropout: None,
    }];
    for entry in &c.schedule {
        // The parser guarantees non-decreasing trials, so the entry either
        // extends the last segment (same trial) or opens a new one that
        // inherits the accumulated state.
        let matches_last = steps.last().is_some_and(|s| s.from == entry.at);
        if !matches_last && entry.at > 0 {
            let mut next = match steps.last() {
                Some(last) => last.clone(),
                None => continue,
            };
            next.from = entry.at;
            steps.push(next);
        }
        let Some(current) = steps.last_mut() else {
            continue;
        };
        match &entry.change {
            ScheduleChange::Fault(intensity) => current.intensity = *intensity,
            ScheduleChange::Environment(env) => current.environment = *env,
            ScheduleChange::Target(mode) => current.target = *mode,
            ScheduleChange::Dropout(p) => current.dropout = Some(*p),
        }
    }
    steps
}

/// The segment in effect at test trial `trial` (the last segment whose
/// `from` is ≤ `trial`; segment 0 always starts at trial 0).
pub fn state_at(steps: &[StepState], trial: usize) -> &StepState {
    let mut current = &steps[0];
    for step in steps {
        if step.from <= trial {
            current = step;
        }
    }
    current
}

/// Lowers one segment onto a [`FaultPlan`]: `None` when the channel is
/// clean (zero intensity, no dropout window), otherwise the hostile plan
/// scaled by the segment intensity with the dropout window stacked on top.
pub fn fault_plan(state: &StepState, fault_seed: u64) -> Option<FaultPlan> {
    let mut plan = FaultPlan::hostile(fault_seed).scaled(state.intensity);
    if let Some(p) = state.dropout {
        plan = plan.with_antenna_dropout(p);
    }
    if plan.is_identity() {
        None
    } else {
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ScheduleEntry;
    use crate::grid::expand;

    fn ramp_campaign() -> Campaign {
        let mut c = Campaign::with_defaults("ramp");
        c.test = 8;
        c.schedule = vec![
            ScheduleEntry {
                at: 2,
                change: ScheduleChange::Fault(0.2),
            },
            ScheduleEntry {
                at: 4,
                change: ScheduleChange::Environment(Environment::Library),
            },
            ScheduleEntry {
                at: 4,
                change: ScheduleChange::Dropout(0.5),
            },
            ScheduleEntry {
                at: 6,
                change: ScheduleChange::Target(TargetMode::Removed),
            },
        ];
        c
    }

    #[test]
    fn lowering_accumulates_state_across_segments() {
        let c = ramp_campaign();
        let cells = expand(&c);
        let steps = lower(&c, &cells[0]);
        assert_eq!(steps.len(), 4);
        assert_eq!(steps[0].from, 0);
        assert_eq!(steps[0].intensity, cells[0].intensity);
        assert_eq!(steps[1].from, 2);
        assert_eq!(steps[1].intensity, 0.2);
        // Trial-4 segment inherits the fault level and adds env + dropout.
        assert_eq!(steps[2].from, 4);
        assert_eq!(steps[2].intensity, 0.2);
        assert_eq!(steps[2].environment, Environment::Library);
        assert_eq!(steps[2].dropout, Some(0.5));
        // Trial-6 segment keeps everything and removes the target.
        assert_eq!(steps[3].target, TargetMode::Removed);
        assert_eq!(steps[3].dropout, Some(0.5));
    }

    #[test]
    fn state_at_picks_the_governing_segment() {
        let c = ramp_campaign();
        let cells = expand(&c);
        let steps = lower(&c, &cells[0]);
        assert_eq!(state_at(&steps, 0).from, 0);
        assert_eq!(state_at(&steps, 1).from, 0);
        assert_eq!(state_at(&steps, 2).from, 2);
        assert_eq!(state_at(&steps, 5).from, 4);
        assert_eq!(state_at(&steps, 7).from, 6);
    }

    #[test]
    fn clean_segments_lower_to_no_plan() {
        let state = StepState {
            from: 0,
            intensity: 0.0,
            environment: Environment::Lab,
            target: TargetMode::Present,
            dropout: None,
        };
        assert!(fault_plan(&state, 0xFA17).is_none());
        let hot = StepState {
            intensity: 0.4,
            ..state.clone()
        };
        let plan = fault_plan(&hot, 0xFA17).expect("scaled plan");
        assert!(!plan.is_identity());
        let windowed = StepState {
            dropout: Some(0.9),
            ..state
        };
        assert!(fault_plan(&windowed, 0xFA17).is_some());
    }
}
