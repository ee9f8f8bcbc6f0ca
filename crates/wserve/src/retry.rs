//! The re-seat-and-retry measurement protocol, in one place.
//!
//! A WiMi measurement is one baseline/target capture pair at one beaker
//! placement. A placement that lands γ-ambiguous is refused, so the
//! operator re-seats the beaker and tries again under a bounded
//! [`RetryPolicy`]. [`measure_with_retry`] is that protocol; the
//! experiment harness, campaign cells, serve sessions and serve-side
//! model training all call it, so a measurement means the same thing
//! wherever it is taken.

use std::sync::Arc;

use rand::{Rng, SeedableRng};
use wimi_core::{MaterialFeature, WiMi};
use wimi_obs::{CounterId, Recorder};
use wimi_phy::channel::Environment;
use wimi_phy::csi::{CsiCapture, CsiSource};
use wimi_phy::fault::FaultPlan;
use wimi_phy::scenario::{LiquidSpec, Scenario, ScenarioBuilder, Simulator};
use wimi_phy::units::Meters;
use wimi_trace::{task_scope, TaskKey, TraceEvent, TraceSink};

/// Bounded retry policy for the re-seat-and-retry measurement protocol.
///
/// Real measurement campaigns cannot retry forever: every attempt costs
/// two captures' worth of air time. The policy caps attempts two ways —
/// a hard attempt count and a total packet budget — and an attempt is
/// allowed while both bounds hold (never below one attempt).
///
/// The budget is charged per *actual* packets spent: when triage or
/// salvage dropped packets, the attempt cost less air time than the
/// nominal `2 × packets_per_capture`, and the saved budget stays
/// available for further attempts. (An earlier revision charged every
/// attempt at nominal cost, denying retries whose real cost still fit;
/// see [`RetryPolicy::allows_another`].)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Hard cap on measurement attempts per trial.
    pub max_attempts: usize,
    /// Total packets (baseline + target captures both count) one trial
    /// may spend across all its attempts.
    pub packet_budget: usize,
}

impl Default for RetryPolicy {
    /// Four attempts under a 400-packet budget: identical to the old
    /// hard-coded 4-attempt loop for the paper's 20-packet captures
    /// (4 × 2 × 20 = 160 ≤ 400), but a 60-packet capture now stops after
    /// three attempts instead of wasting a fourth.
    fn default() -> Self {
        DEFAULT_POLICY
    }
}

/// The value of `RetryPolicy::default()`, as a constant so clean trials
/// can borrow it for `'static`.
const DEFAULT_POLICY: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    packet_budget: 400,
};

impl RetryPolicy {
    /// A policy bounded only by attempt count (no packet budget).
    pub fn attempts(n: usize) -> Self {
        RetryPolicy {
            max_attempts: n,
            packet_budget: usize::MAX,
        }
    }

    /// The *planned* attempt cap for a given capture length, assuming
    /// every attempt costs its full nominal `2 × packets_per_capture`:
    /// the tighter of the attempt cap and the packet budget, but always
    /// at least one. This is what attempt-progress traces report as
    /// `max`; the loop itself consults [`RetryPolicy::allows_another`]
    /// with actual costs, which can only allow *more* attempts than
    /// planned (actual ≤ nominal), never fewer.
    pub fn allowed_attempts(&self, packets_per_capture: usize) -> usize {
        let per_attempt = 2 * packets_per_capture.max(1);
        let by_budget = self.packet_budget / per_attempt;
        self.max_attempts.min(by_budget).max(1)
    }

    /// Whether another attempt may start, given how many ran and what
    /// they actually cost. The first attempt is always allowed (a trial
    /// gets at least one measurement no matter the budget); a further
    /// attempt is allowed while the attempt cap holds *and* the budget
    /// still covers one more nominal-cost attempt on top of the packets
    /// actually spent so far.
    ///
    /// When every attempt costs exactly its nominal `2 × packets`, this
    /// reproduces the [`RetryPolicy::allowed_attempts`] arithmetic bit
    /// for bit. When screening dropped packets, `packets_spent` is lower
    /// and attempts that the nominal accounting would have denied remain
    /// available — the budget bounds air time actually used, not a
    /// worst-case estimate of it.
    pub fn allows_another(
        &self,
        attempts_made: usize,
        packets_spent: usize,
        packets_per_capture: usize,
    ) -> bool {
        if attempts_made == 0 {
            return true;
        }
        if attempts_made >= self.max_attempts {
            return false;
        }
        let next = 2 * packets_per_capture.max(1);
        packets_spent.saturating_add(next) <= self.packet_budget
    }
}

/// The capture seed of retry `attempt` (0-based) of the measurement
/// seeded `seed`. Multiplying by an odd constant is a bijection on `u64`
/// and the attempt offsets are pairwise distinct, so every attempt's
/// capture — and therefore its reseeded fault stream — is distinct from
/// every other attempt of the same measurement.
pub fn attempt_capture_seed(seed: u64, attempt: usize) -> u64 {
    seed.wrapping_mul(31).wrapping_add(attempt as u64 * 7919)
}

/// The scenario customisation of trials that need none.
fn no_modify(_: &mut ScenarioBuilder) {}

/// Everything one measurement needs besides its seed: what is measured,
/// where, how long each capture runs, how often it may retry, what goes
/// wrong on the air, and where its observations go.
pub struct Trial<'a> {
    /// Target liquid, or `None` when the target was removed (a campaign
    /// `target removed` window): the target capture then sees the empty
    /// scenario, the same view as the baseline.
    pub spec: Option<&'a LiquidSpec>,
    /// Deployment environment.
    pub environment: Environment,
    /// Packets per capture.
    pub packets: usize,
    /// Retry policy bounding the protocol.
    pub retry: &'a RetryPolicy,
    /// Fault plan injected into every capture (`None` = healthy link).
    pub fault: Option<&'a FaultPlan>,
    /// Extra scenario customisation applied after environment and
    /// placement.
    pub modify: &'a (dyn Fn(&mut ScenarioBuilder) + Sync),
    /// Recorder for simulator work and the protocol's retry counters.
    pub recorder: Option<&'a Arc<Recorder>>,
    /// Flight-recorder sink for captures and attempt events.
    pub trace: Option<&'a Arc<TraceSink>>,
}

impl<'a> Trial<'a> {
    /// A clean trial: default retry policy, no fault, no scenario
    /// customisation and no sinks.
    pub fn clean(spec: Option<&'a LiquidSpec>, environment: Environment, packets: usize) -> Self {
        Trial {
            spec,
            environment,
            packets,
            retry: &DEFAULT_POLICY,
            fault: None,
            modify: &no_modify,
            recorder: None,
            trace: None,
        }
    }

    /// One baseline/target capture pair at the placement `offset_cm`,
    /// simulated from `capture_seed`. The fault plan is reseeded from its
    /// own seed XOR the capture seed, so every capture draws an
    /// independent, reproducible fault stream.
    pub fn capture_pair(&self, capture_seed: u64, offset_cm: f64) -> (CsiCapture, CsiCapture) {
        let mut builder = Scenario::builder();
        builder.environment(self.environment);
        builder.target_offset(Meters::from_cm(offset_cm));
        (self.modify)(&mut builder);
        let mut sim = Simulator::new(builder.build(), capture_seed);
        if let Some(plan) = self.fault {
            sim.set_fault_plan(Some(plan.clone().with_seed(plan.seed() ^ capture_seed)));
        }
        sim.set_recorder(self.recorder.cloned());
        sim.set_trace(self.trace.cloned());
        let baseline = sim.capture(self.packets);
        sim.set_liquid(self.spec.cloned());
        let target = sim.capture(self.packets);
        (baseline, target)
    }
}

/// What one measurement produced, before classification.
#[derive(Debug, Clone, Default)]
pub struct MeasureOutcome {
    /// The extracted feature, or `None` after retry exhaustion.
    pub feature: Option<MaterialFeature>,
    /// Attempts the pipeline rejected before success (or giving up).
    pub rejected: usize,
    /// Whether the successful measurement needed salvage (dropped
    /// packets or antennas).
    pub salvaged: bool,
    /// Packets actually spent across all attempts (baseline + target,
    /// post-screening — the air time the retry budget charges).
    pub packets_spent: usize,
    /// Attempts taken (1 = first try succeeded).
    pub attempts: usize,
}

/// Measures `trial` with the re-seat-and-retry protocol.
///
/// Everything derives from the measurement `seed`: placement offsets
/// (the operator never re-seats the beaker in exactly the same spot),
/// capture seeds and fault streams. The outcome is therefore a pure
/// function of `(trial, seed)` and identical on any worker thread.
///
/// The budget is charged with what each attempt *kept* after screening
/// ([`RetryPolicy::allows_another`]), so salvage savings fund further
/// attempts. Trace events land in the task `task`, so rendered traces
/// group by measurement or session, never by worker thread. With a
/// recorder attached, every run adds `attempts − 1` to `retries` and one
/// entry to the attempts histogram, and an exhausted run adds one to
/// `trials_dropped`. On a recorder that only these runs feed,
/// `measurements_attempted` therefore equals `retries` plus the
/// histogram total.
pub fn measure_with_retry(
    extractor: &WiMi,
    trial: &Trial<'_>,
    seed: u64,
    task: TaskKey,
) -> MeasureOutcome {
    let mut placement = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let _task = trial.trace.map(|_| task_scope(task));
    // The nominal-cost attempt cap, reported as `max` in traces.
    let planned = trial.retry.allowed_attempts(trial.packets);
    let mut out = MeasureOutcome::default();
    while trial
        .retry
        .allows_another(out.attempts, out.packets_spent, trial.packets)
    {
        if let Some(t) = trial.trace {
            t.emit(TraceEvent::Attempt {
                attempt: out.attempts as u32 + 1,
                max: planned as u32,
            });
        }
        let offset_cm = 1.0 + placement.gen_range(-0.5..0.5);
        let (base, tar) = trial.capture_pair(attempt_capture_seed(seed, out.attempts), offset_cm);
        let m = extractor.measure(&base, &tar);
        out.packets_spent += m.quality.baseline_packets_kept + m.quality.target_packets_kept;
        out.attempts += 1;
        match m.feature {
            Ok(f) => {
                out.salvaged = m.quality.salvaged();
                out.feature = Some(f);
                break;
            }
            Err(_) => out.rejected += 1,
        }
    }
    if let Some(rec) = trial.recorder {
        rec.add(CounterId::Retries, out.attempts.saturating_sub(1) as u64);
        rec.record_attempts(out.attempts as u64);
        if out.feature.is_none() {
            rec.incr(CounterId::TrialsDropped);
        }
    }
    if out.feature.is_none() {
        if let Some(t) = trial.trace {
            t.emit(TraceEvent::RetriesExhausted {
                attempts: out.attempts as u32,
            });
            t.mark_failure();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimi_phy::material::Liquid;

    /// Replays a retry loop where every attempt costs `kept` packets,
    /// returning how many attempts run before the policy stops it.
    fn attempts_at_cost(policy: &RetryPolicy, packets: usize, kept: usize) -> usize {
        let mut attempts = 0;
        let mut spent = 0usize;
        while policy.allows_another(attempts, spent, packets) {
            attempts += 1;
            spent += kept;
            if attempts > 1_000 {
                break; // defensive: the cap bounds every real policy
            }
        }
        attempts
    }

    #[test]
    fn planned_attempts_boundary_cases_pin_old_behaviour() {
        let p = RetryPolicy::default();
        // Attempt cap binds for the paper's 20-packet captures.
        assert_eq!(p.allowed_attempts(20), 4);
        // 2 × 50 × 4 = 400: the budget exactly covers four attempts.
        assert_eq!(p.allowed_attempts(50), 4);
        // One more packet per capture and the budget trims an attempt.
        assert_eq!(p.allowed_attempts(51), 3);
        assert_eq!(p.allowed_attempts(100), 2);
        assert_eq!(p.allowed_attempts(200), 1);
        // Oversized captures and degenerate inputs still allow one try.
        assert_eq!(p.allowed_attempts(1_000), 1);
        assert_eq!(p.allowed_attempts(0), 4);
        assert_eq!(RetryPolicy::attempts(3).allowed_attempts(10_000), 3);
        let zero_budget = RetryPolicy {
            max_attempts: 4,
            packet_budget: 0,
        };
        assert_eq!(zero_budget.allowed_attempts(20), 1);
    }

    #[test]
    fn actual_cost_loop_matches_planned_when_nothing_dropped() {
        // Full-cost attempts must reproduce the nominal arithmetic
        // exactly — the fix only changes salvage cases.
        for packets in [1usize, 10, 20, 49, 50, 51, 99, 100, 101, 200, 500] {
            for policy in [
                RetryPolicy::default(),
                RetryPolicy::attempts(3),
                RetryPolicy {
                    max_attempts: 7,
                    packet_budget: 1_000,
                },
            ] {
                assert_eq!(
                    attempts_at_cost(&policy, packets, 2 * packets),
                    policy.allowed_attempts(packets),
                    "packets={packets} policy={policy:?}"
                );
            }
        }
    }

    #[test]
    fn salvage_savings_fund_extra_attempts() {
        // Nominal accounting: 2 × 30 = 60 per attempt, 100 / 60 → one
        // attempt only. When screening drops half the packets the real
        // cost is 30, so a second attempt fits the same budget.
        let policy = RetryPolicy {
            max_attempts: 4,
            packet_budget: 100,
        };
        assert_eq!(policy.allowed_attempts(30), 1);
        assert!(policy.allows_another(1, 30, 30), "saved budget must carry");
        // ...but the budget still binds once actual spend approaches it.
        assert!(!policy.allows_another(2, 90, 30));
        // And the attempt cap is a hard stop even at zero cost.
        assert!(!policy.allows_another(4, 0, 30));
        assert_eq!(attempts_at_cost(&policy, 30, 0), 4);
    }

    #[test]
    fn first_attempt_is_always_allowed() {
        let starved = RetryPolicy {
            max_attempts: 1,
            packet_budget: 0,
        };
        assert!(starved.allows_another(0, 0, 10_000));
        assert!(!starved.allows_another(1, 0, 1));
    }

    #[test]
    fn attempt_capture_seeds_are_pairwise_distinct() {
        for seed in [0u64, 1, 0xACC0, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            let seeds: Vec<u64> = (0..16).map(|a| attempt_capture_seed(seed, a)).collect();
            let mut sorted = seeds.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), seeds.len(), "collision under seed {seed}");
        }
    }

    #[test]
    fn clean_capture_pair_produces_consistent_captures() {
        let spec: LiquidSpec = Liquid::Milk.into();
        let (base, tar) = Trial::clean(Some(&spec), Environment::Lab, 5).capture_pair(1, 1.0);
        assert_eq!(base.len(), 5);
        assert_eq!(tar.len(), 5);
        assert_eq!(base.n_antennas(), Scenario::builder().build().n_antennas());
    }

    #[test]
    fn retry_attempts_draw_distinct_fault_streams() {
        // Regression pin: two attempts of one measurement under an active
        // FaultPlan must observe different captures (distinct sim + fault
        // randomness), while re-running the same attempt reproduces its
        // capture exactly.
        let spec: LiquidSpec = Liquid::Milk.into();
        let plan = FaultPlan::hostile(0xFA17);
        let trial = Trial {
            fault: Some(&plan),
            ..Trial::clean(Some(&spec), Environment::Lab, 6)
        };
        let capture = |attempt: usize| trial.capture_pair(attempt_capture_seed(4242, attempt), 1.0);
        let (base0, tar0) = capture(0);
        let (base0_again, tar0_again) = capture(0);
        assert_eq!(base0, base0_again, "same attempt must reproduce exactly");
        assert_eq!(tar0, tar0_again, "same attempt must reproduce exactly");
        let (base1, tar1) = capture(1);
        assert_ne!(base0, base1, "attempts must not share a fault stream");
        assert_ne!(tar0, tar1, "attempts must not share a fault stream");
    }
}
