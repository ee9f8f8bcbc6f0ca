//! Declarative service-level objectives over a fleet timeline.
//!
//! A policy file is line-oriented: blank lines and `#` comments are
//! skipped, every other line is one directive:
//!
//! ```text
//! max_shed_fraction 0.10        # shed / requests per tick
//! max_queue_peak 8              # hottest shard's per-tick peak
//! retry_exhaustion_budget 2     # cumulative across the run
//! min_accuracy Lab 0.80         # per-environment accuracy floor
//! ```
//!
//! Evaluation is fail-closed: an objective that cannot be measured (an
//! environment floor with no sessions in that environment) is a breach,
//! not a skip, and every tick-scoped breach names the first tick that
//! crossed the line so regressions are attributable.

use crate::report::SessionRow;
use crate::timeline::Timeline;

/// A parsed SLO policy. Every field is optional — an objective absent
/// from the policy file is simply not evaluated — but an empty policy
/// is a parse error (gating on nothing is always a misconfiguration).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloPolicy {
    /// Per-tick bound on `shed / requests` (ticks with zero requests
    /// never breach).
    pub max_shed_fraction: Option<f64>,
    /// Per-tick bound on the hottest shard's queue peak.
    pub max_queue_peak: Option<u64>,
    /// Bound on cumulative retry exhaustions across the retained ticks.
    pub retry_exhaustion_budget: Option<u64>,
    /// Per-environment accuracy floors, `(environment, floor)`.
    pub min_accuracy: Vec<(String, f64)>,
}

impl SloPolicy {
    fn is_empty(&self) -> bool {
        self.max_shed_fraction.is_none()
            && self.max_queue_peak.is_none()
            && self.retry_exhaustion_budget.is_none()
            && self.min_accuracy.is_empty()
    }
}

/// One violated objective: which rule, the first breaching tick (for
/// tick-scoped rules), and a human-readable message with the numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// The directive name that was violated.
    pub rule: String,
    /// First tick at which the objective was violated, when tick-scoped.
    pub tick: Option<u64>,
    /// Diagnostic naming the observed and allowed values.
    pub message: String,
}

fn parse_fraction(value: &str, line_no: usize, what: &str) -> Result<f64, String> {
    let parsed: f64 = value
        .parse()
        .map_err(|_| format!("line {line_no}: {what} wants a number, got \"{value}\""))?;
    if !parsed.is_finite() || !(0.0..=1.0).contains(&parsed) {
        return Err(format!(
            "line {line_no}: {what} must be a fraction in [0, 1], got {value}"
        ));
    }
    Ok(parsed)
}

fn parse_count(value: &str, line_no: usize, what: &str) -> Result<u64, String> {
    value.parse().map_err(|_| {
        format!("line {line_no}: {what} wants a non-negative integer, got \"{value}\"")
    })
}

/// Parses a policy file. Unknown directives, malformed values,
/// duplicate directives, and empty policies are errors with `line N:`
/// diagnostics.
pub fn parse_policy(text: &str) -> Result<SloPolicy, String> {
    let mut policy = SloPolicy::default();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let line = line.split('#').next().unwrap_or("").trim();
        let mut parts = line.split_whitespace();
        let directive = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        match (directive, rest.as_slice()) {
            ("max_shed_fraction", [value]) => {
                if policy.max_shed_fraction.is_some() {
                    return Err(format!("line {line_no}: duplicate max_shed_fraction"));
                }
                policy.max_shed_fraction = Some(parse_fraction(value, line_no, directive)?);
            }
            ("max_queue_peak", [value]) => {
                if policy.max_queue_peak.is_some() {
                    return Err(format!("line {line_no}: duplicate max_queue_peak"));
                }
                policy.max_queue_peak = Some(parse_count(value, line_no, directive)?);
            }
            ("retry_exhaustion_budget", [value]) => {
                if policy.retry_exhaustion_budget.is_some() {
                    return Err(format!("line {line_no}: duplicate retry_exhaustion_budget"));
                }
                policy.retry_exhaustion_budget = Some(parse_count(value, line_no, directive)?);
            }
            ("min_accuracy", [env, value]) => {
                if policy.min_accuracy.iter().any(|(e, _)| e == env) {
                    return Err(format!("line {line_no}: duplicate min_accuracy for {env}"));
                }
                policy.min_accuracy.push((
                    (*env).to_owned(),
                    parse_fraction(value, line_no, directive)?,
                ));
            }
            _ => {
                return Err(format!(
                    "line {line_no}: unknown or malformed directive {line:?}"
                ))
            }
        }
    }
    if policy.is_empty() {
        return Err("policy declares no objectives".into());
    }
    Ok(policy)
}

/// Evaluates every declared objective against a timeline and the fleet
/// summary's session rows, returning all breaches (empty = pass).
pub fn evaluate(policy: &SloPolicy, timeline: &Timeline, rows: &[SessionRow]) -> Vec<Breach> {
    let mut breaches = Vec::new();

    if let Some(frac) = policy.max_shed_fraction {
        if let Some(t) = timeline
            .ticks
            .iter()
            .find(|t| t.requests > 0 && t.shed as f64 > frac * t.requests as f64)
        {
            breaches.push(Breach {
                rule: "max_shed_fraction".into(),
                tick: Some(t.tick),
                message: format!(
                    "tick {}: shed {} of {} requests exceeds the allowed fraction {frac}",
                    t.tick, t.shed, t.requests
                ),
            });
        }
    }

    if let Some(cap) = policy.max_queue_peak {
        if let Some(t) = timeline.ticks.iter().find(|t| t.queue_peak() > cap) {
            breaches.push(Breach {
                rule: "max_queue_peak".into(),
                tick: Some(t.tick),
                message: format!(
                    "tick {}: queue peak {} exceeds the allowed {cap}",
                    t.tick,
                    t.queue_peak()
                ),
            });
        }
    }

    if let Some(budget) = policy.retry_exhaustion_budget {
        let mut cumulative = 0u64;
        for t in &timeline.ticks {
            cumulative += t.retries_exhausted;
            if cumulative > budget {
                breaches.push(Breach {
                    rule: "retry_exhaustion_budget".into(),
                    tick: Some(t.tick),
                    message: format!(
                        "tick {}: {cumulative} cumulative retry exhaustions exceed the budget {budget}",
                        t.tick
                    ),
                });
                break;
            }
        }
    }

    for (env, floor) in &policy.min_accuracy {
        let mut ok = 0u64;
        let mut correct = 0u64;
        let mut present = false;
        for row in rows.iter().filter(|r| &r.environment == env) {
            present = true;
            ok += row.ok;
            correct += row.correct;
        }
        if !present {
            breaches.push(Breach {
                rule: "min_accuracy".into(),
                tick: None,
                message: format!(
                    "no sessions ran in environment {env}; cannot attest the floor {floor}"
                ),
            });
            continue;
        }
        let accuracy = if ok == 0 {
            0.0
        } else {
            correct as f64 / ok as f64
        };
        if accuracy < *floor {
            breaches.push(Breach {
                rule: "min_accuracy".into(),
                tick: None,
                message: format!(
                    "environment {env}: accuracy {accuracy:.6} ({correct}/{ok}) is below the floor {floor}"
                ),
            });
        }
    }

    breaches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{ShardSample, TickSample};

    fn timeline(ticks: Vec<TickSample>) -> Timeline {
        Timeline {
            shards: 1,
            window: 16,
            evicted: 0,
            ticks,
        }
    }

    fn tick(n: u64, requests: u64, shed: u64, peak: u64, exhausted: u64) -> TickSample {
        TickSample {
            tick: n,
            requests,
            completed: requests - shed,
            shed,
            retries_exhausted: exhausted,
            shards: vec![ShardSample {
                depth: 0,
                peak,
                submitted: requests - shed,
                completed: requests - shed,
                shed,
            }],
            ..TickSample::default()
        }
    }

    fn row(env: &str, ok: u64, correct: u64) -> SessionRow {
        SessionRow {
            id: 0,
            environment: env.to_owned(),
            material: "Milk".to_owned(),
            ok,
            failed: 0,
            shed: 0,
            correct,
            packets_spent: ok * 10,
        }
    }

    #[test]
    fn policies_parse_and_reject_garbage() {
        let p = parse_policy(
            "# fleet gate\nmax_shed_fraction 0.25\nmax_queue_peak 8 # hot shard\n\nretry_exhaustion_budget 2\nmin_accuracy Lab 0.8\nmin_accuracy Hall 0.5\n",
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(p.max_shed_fraction, Some(0.25));
        assert_eq!(p.max_queue_peak, Some(8));
        assert_eq!(p.retry_exhaustion_budget, Some(2));
        assert_eq!(p.min_accuracy.len(), 2);

        for bad in [
            "",
            "# only comments\n",
            "max_shed_fraction 1.5\n",
            "max_shed_fraction nope\n",
            "max_queue_peak -1\n",
            "min_accuracy Lab\n",
            "min_accuracy Lab 0.5\nmin_accuracy Lab 0.6\n",
            "max_queue_peak 3\nmax_queue_peak 4\n",
            "frobnicate 7\n",
        ] {
            assert!(parse_policy(bad).is_err(), "{bad:?} must not parse");
        }
        // Diagnostics carry the line number.
        let err = parse_policy("max_queue_peak 3\nbogus\n").expect_err("bogus line");
        assert!(err.starts_with("line 2:"), "{err}");
        // A carriage return inside a directive is escaped, not echoed: the
        // diagnostic stays one line.
        let err = parse_policy("max_queue\rpeak 8\n").expect_err("mangled directive");
        assert!(!err.contains('\r'), "{err:?}");
        assert!(err.contains("\"max_queue\\rpeak 8\""), "{err}");
    }

    #[test]
    fn breaches_name_the_first_breaching_tick() {
        let tl = timeline(vec![
            tick(0, 4, 0, 2, 0),
            tick(1, 4, 3, 9, 1),
            tick(2, 4, 4, 9, 3),
        ]);
        let policy =
            parse_policy("max_shed_fraction 0.5\nmax_queue_peak 8\nretry_exhaustion_budget 2\n")
                .unwrap_or_else(|e| panic!("{e}"));
        let breaches = evaluate(&policy, &tl, &[]);
        assert_eq!(breaches.len(), 3);
        assert_eq!(breaches[0].rule, "max_shed_fraction");
        assert_eq!(breaches[0].tick, Some(1));
        assert_eq!(breaches[1].tick, Some(1));
        // Budget of 2 survives tick 1 (cumulative 1) and trips at tick 2.
        assert_eq!(breaches[2].tick, Some(2));
        assert!(
            breaches[2].message.contains("tick 2"),
            "{}",
            breaches[2].message
        );
    }

    #[test]
    fn accuracy_floors_are_fail_closed_per_environment() {
        let rows = vec![row("Lab", 4, 4), row("Lab", 4, 2), row("Hall", 2, 0)];
        let policy =
            parse_policy("min_accuracy Lab 0.7\nmin_accuracy Hall 0.5\nmin_accuracy Library 0.1\n")
                .unwrap_or_else(|e| panic!("{e}"));
        let breaches = evaluate(&policy, &timeline(Vec::new()), &rows);
        // Lab: 6/8 = 0.75 passes. Hall: 0/2 breaches. Library: absent.
        assert_eq!(breaches.len(), 2);
        assert!(
            breaches[0].message.contains("Hall"),
            "{}",
            breaches[0].message
        );
        assert!(
            breaches[1].message.contains("Library"),
            "{}",
            breaches[1].message
        );
        assert_eq!(breaches[0].tick, None);
    }

    #[test]
    fn a_clean_run_produces_no_breaches() {
        let tl = timeline(vec![tick(0, 4, 0, 2, 0)]);
        let rows = vec![row("Lab", 4, 4)];
        let policy =
            parse_policy("max_shed_fraction 0.1\nmax_queue_peak 4\nmin_accuracy Lab 0.9\n")
                .unwrap_or_else(|e| panic!("{e}"));
        assert!(evaluate(&policy, &tl, &rows).is_empty());
    }
}
