//! Typed flight-recorder events and the deterministic task keys that
//! order them.

use std::fmt;

use wimi_obs::{CounterId, IssueId, StageId};

/// Deterministic identity of the unit of work emitting events.
///
/// The global event order in an artifact is `(group, id, seq)` — nothing
/// about it depends on which OS thread ran the work or when, which is
/// what makes traces byte-identical under any `WIMI_THREADS` setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TaskKey {
    /// Task family: 0 = run-level, 1 = measurement, 2 = SVM machine.
    pub group: u8,
    /// Deterministic id within the family (a measurement's seed, a
    /// packed class pair, 0 for the run task).
    pub id: u64,
}

impl TaskKey {
    /// The ambient run-level task (setup, serial orchestration).
    pub const RUN: TaskKey = TaskKey { group: 0, id: 0 };

    /// The task for one logical measurement, keyed by its seed — the
    /// same identity the deterministic fan-out already uses.
    pub fn measurement(seed: u64) -> TaskKey {
        TaskKey { group: 1, id: seed }
    }

    /// The task for one one-vs-one SVM machine, keyed by its class pair.
    pub fn svm_machine(class_a: usize, class_b: usize) -> TaskKey {
        let a = (class_a as u64) & 0xFFFF_FFFF;
        let b = (class_b as u64) & 0xFFFF_FFFF;
        TaskKey {
            group: 2,
            id: (a << 32) | b,
        }
    }

    /// The task for one `wimi-serve` session, keyed by its session id.
    pub fn session(id: u64) -> TaskKey {
        TaskKey { group: 3, id }
    }

    /// Parses a label produced by this type's `Display` back into a key:
    /// `"run"`, `"meas:<id>"`, `"svm:<a>x<b>"`, `"sess:<id>"`.
    ///
    /// The parser is strict — ids must be bare decimal digits (no sign,
    /// no leading `+`), svm class halves must fit 32 bits, and unknown
    /// group labels (`g<n>:<id>`) return `None` — so readers that
    /// cross-link artifacts through labels (the `wimi-metrics/1` timeline's
    /// exhausted-session lists) fail closed on anything `Display` could
    /// not have written.
    pub fn from_label(label: &str) -> Option<TaskKey> {
        fn digits(text: &str) -> Option<u64> {
            if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            text.parse().ok()
        }
        if label == "run" {
            return Some(TaskKey::RUN);
        }
        let (prefix, rest) = label.split_once(':')?;
        match prefix {
            "meas" => digits(rest).map(TaskKey::measurement),
            "sess" => digits(rest).map(TaskKey::session),
            "svm" => {
                let (a, b) = rest.split_once('x')?;
                let (a, b) = (digits(a)?, digits(b)?);
                if a > 0xFFFF_FFFF || b > 0xFFFF_FFFF {
                    return None;
                }
                Some(TaskKey::svm_machine(a as usize, b as usize))
            }
            _ => None,
        }
    }
}

impl fmt::Display for TaskKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.group {
            0 => write!(f, "run"),
            1 => write!(f, "meas:{}", self.id),
            2 => write!(f, "svm:{}x{}", self.id >> 32, self.id & 0xFFFF_FFFF),
            3 => write!(f, "sess:{}", self.id),
            g => write!(f, "g{g}:{}", self.id),
        }
    }
}

/// Optional locating context attached to an issue occurrence: which
/// packet / subcarrier / antenna pair the triage decision was about.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ctx {
    /// Packet index within the capture, when the issue is per-packet.
    pub packet: Option<u32>,
    /// Subcarrier index, when the issue is per-subcarrier.
    pub subcarrier: Option<u32>,
    /// Single receive-antenna index, when the issue is per-antenna.
    pub antenna: Option<u32>,
    /// Antenna pair `(rx_a, rx_b)`, when the issue is per-pair.
    pub pair: Option<(u32, u32)>,
}

impl Ctx {
    /// No locating context.
    pub const NONE: Ctx = Ctx {
        packet: None,
        subcarrier: None,
        antenna: None,
        pair: None,
    };

    /// Context naming a packet index.
    pub fn packet(index: u32) -> Ctx {
        Ctx {
            packet: Some(index),
            ..Ctx::NONE
        }
    }

    /// Context naming a subcarrier index.
    pub fn subcarrier(index: u32) -> Ctx {
        Ctx {
            subcarrier: Some(index),
            ..Ctx::NONE
        }
    }

    /// Context naming a single receive antenna.
    pub fn antenna(index: u32) -> Ctx {
        Ctx {
            antenna: Some(index),
            ..Ctx::NONE
        }
    }

    /// Context naming an antenna pair.
    pub fn pair(a: u32, b: u32) -> Ctx {
        Ctx {
            pair: Some((a, b)),
            ..Ctx::NONE
        }
    }
}

/// One flight-recorder event. Everything a `Recorder` aggregates plus
/// the ordered, per-measurement detail the aggregates throw away.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A stage span opened.
    Enter {
        /// The stage.
        stage: StageId,
    },
    /// A stage span closed.
    Exit {
        /// The stage.
        stage: StageId,
    },
    /// A counter was bumped by `delta`.
    Count {
        /// Which counter.
        counter: CounterId,
        /// Increment applied.
        delta: u64,
    },
    /// A quality issue occurred, with optional locating context.
    Issue {
        /// Which issue kind.
        issue: IssueId,
        /// Occurrence count.
        count: u64,
        /// Where (packet / subcarrier / antenna pair), when known.
        ctx: Ctx,
    },
    /// A salvage action was taken during screening.
    Salvage {
        /// Stable action name (e.g. `"drop_dead_antenna"`).
        action: &'static str,
        /// How many items it affected.
        count: u64,
    },
    /// One retry attempt of a measurement began (1-based).
    Attempt {
        /// Attempt number, starting at 1.
        attempt: u32,
        /// The policy's allowed attempts.
        max: u32,
    },
    /// The retry policy gave up on a measurement.
    RetriesExhausted {
        /// Attempts consumed before giving up.
        attempts: u32,
    },
    /// A measurement resolved a feature.
    Feature {
        /// Antenna pairs consistent under the winning γ assignment.
        pairs: u32,
        /// Smallest resolved per-pair γ.
        gamma_min: i32,
        /// Largest resolved per-pair γ.
        gamma_max: i32,
        /// Cross-pair Ω̄ dispersion.
        dispersion: f64,
    },
    /// A measurement failed at `stage` with `issue`.
    Failed {
        /// The stage that refused.
        stage: StageId,
        /// The dominant issue kind behind the refusal.
        issue: IssueId,
    },
    /// One one-vs-one SVM machine finished training.
    SvmMachine {
        /// First class index of the pair.
        class_a: u32,
        /// Second class index of the pair.
        class_b: u32,
        /// Optimisation rounds the trainer ran.
        rounds: u64,
    },
}

impl TraceEvent {
    /// Stable snake_case name of the event type (the `"ev"` field).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Enter { .. } => "enter",
            TraceEvent::Exit { .. } => "exit",
            TraceEvent::Count { .. } => "count",
            TraceEvent::Issue { .. } => "issue",
            TraceEvent::Salvage { .. } => "salvage",
            TraceEvent::Attempt { .. } => "attempt",
            TraceEvent::RetriesExhausted { .. } => "retries_exhausted",
            TraceEvent::Feature { .. } => "feature",
            TraceEvent::Failed { .. } => "failed",
            TraceEvent::SvmMachine { .. } => "svm_machine",
        }
    }

    /// All event type names, canonical order (used by the validator).
    pub const NAMES: [&'static str; 10] = [
        "enter",
        "exit",
        "count",
        "issue",
        "salvage",
        "attempt",
        "retries_exhausted",
        "feature",
        "failed",
        "svm_machine",
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_keys_order_by_group_then_id() {
        let mut keys = vec![
            TaskKey::svm_machine(0, 1),
            TaskKey::measurement(7),
            TaskKey::RUN,
            TaskKey::measurement(3),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                TaskKey::RUN,
                TaskKey::measurement(3),
                TaskKey::measurement(7),
                TaskKey::svm_machine(0, 1),
            ]
        );
    }

    #[test]
    fn task_key_labels_are_stable() {
        assert_eq!(TaskKey::RUN.to_string(), "run");
        assert_eq!(TaskKey::measurement(42).to_string(), "meas:42");
        assert_eq!(TaskKey::svm_machine(2, 9).to_string(), "svm:2x9");
    }

    #[test]
    fn every_event_name_is_listed() {
        let events = [
            TraceEvent::Enter {
                stage: StageId::Capture,
            },
            TraceEvent::Exit {
                stage: StageId::Capture,
            },
            TraceEvent::Count {
                counter: CounterId::PacketsKept,
                delta: 1,
            },
            TraceEvent::Issue {
                issue: IssueId::DeadAntenna,
                count: 1,
                ctx: Ctx::NONE,
            },
            TraceEvent::Salvage {
                action: "x",
                count: 1,
            },
            TraceEvent::Attempt { attempt: 1, max: 4 },
            TraceEvent::RetriesExhausted { attempts: 4 },
            TraceEvent::Feature {
                pairs: 3,
                gamma_min: 0,
                gamma_max: 1,
                dispersion: 0.1,
            },
            TraceEvent::Failed {
                stage: StageId::GammaResolution,
                issue: IssueId::PairsUnresolved,
            },
            TraceEvent::SvmMachine {
                class_a: 0,
                class_b: 1,
                rounds: 10,
            },
        ];
        for ev in &events {
            assert!(TraceEvent::NAMES.contains(&ev.name()), "{}", ev.name());
        }
    }

    #[test]
    fn task_labels_round_trip_through_from_label() {
        let keys = [
            TaskKey::RUN,
            TaskKey::measurement(0),
            TaskKey::measurement(u64::MAX),
            TaskKey::session(7),
            TaskKey::svm_machine(3, 9),
            TaskKey::svm_machine(0xFFFF_FFFF, 0),
        ];
        for key in keys {
            assert_eq!(TaskKey::from_label(&key.to_string()), Some(key));
        }
    }

    #[test]
    fn from_label_rejects_what_display_never_writes() {
        for bad in [
            "",
            "runx",
            "sess:",
            "sess:+3",
            "sess:03x",
            "sess:-1",
            "meas:1.0",
            "svm:1",
            "svm:1x",
            "svm:x2",
            "svm:4294967296x0",
            "g7:3",
            "session:1",
            "sess:1 ",
        ] {
            assert_eq!(TaskKey::from_label(bad), None, "{bad:?} must not parse");
        }
    }
}
