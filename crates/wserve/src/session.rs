//! The [`Session`] abstraction: one long-lived measurement link.
//!
//! A session owns everything one deployed WiMi link needs: its scenario
//! (environment, capture length, optional fault plan), its ground-truth
//! material, a [`RetryPolicy`], and its *own* observability sinks — a
//! per-session [`Recorder`] and optional [`TraceSink`]. Per-session sinks
//! are what keep the fleet deterministic: a session's events never
//! interleave with another session's regardless of which worker thread
//! ran it.

use std::sync::Arc;

use wimi_campaign::derive_cell_seed;
use wimi_core::{WiMi, WiMiConfig};
use wimi_obs::Recorder;
use wimi_phy::channel::Environment;
use wimi_phy::fault::FaultPlan;
use wimi_phy::scenario::LiquidSpec;
use wimi_trace::{Observer, TaskKey, TraceSink};

use crate::retry::{measure_with_retry, MeasureOutcome, RetryPolicy, Trial};

/// One measurement request: the `seq`-th measurement on a session. The
/// pair `(session, seq)` fully determines the measurement — its seed is a
/// pure function of the session's seed and `seq` — so a request can be
/// replayed, re-ordered, or shed without touching any other request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MeasureRequest {
    /// Index of the session in the engine's session table.
    pub session: usize,
    /// Measurement sequence number within the session.
    pub seq: u64,
}

/// One long-lived measurement link.
pub struct Session {
    /// Stable session id (also the trace task id, group `sess:`).
    pub id: u64,
    /// The session's root seed; measurement `seq` derives its seed as
    /// `derive_cell_seed(seed, seq)`.
    pub seed: u64,
    /// Ground-truth label: index into `catalog`.
    pub truth: usize,
    /// Names of the material catalog this session discriminates between
    /// (the model-cache key's catalog component).
    pub catalog: Vec<String>,
    /// Dielectric spec of the ground-truth material.
    pub spec: LiquidSpec,
    /// Deployment environment (the model-cache key's scenario class).
    pub environment: Environment,
    /// Packets per capture.
    pub packets: usize,
    /// Retry policy for this link.
    pub retry: RetryPolicy,
    /// Optional fault plan injected into every capture.
    pub fault: Option<FaultPlan>,
    /// Per-session observability recorder.
    pub recorder: Arc<Recorder>,
    /// Optional per-session trace sink.
    pub trace: Option<Arc<TraceSink>>,
    /// The handle over `recorder` and `trace` that measurements report to.
    obs: Observer,
    /// The session's feature extractor (`obs` already attached).
    extractor: WiMi,
}

/// Everything needed to construct a [`Session`]; the extractor is built
/// from it so the sinks attach exactly once.
pub struct SessionSpec {
    /// Stable session id.
    pub id: u64,
    /// Root seed.
    pub seed: u64,
    /// Ground-truth label index into `catalog`.
    pub truth: usize,
    /// Material catalog names.
    pub catalog: Vec<String>,
    /// Ground-truth dielectric spec.
    pub spec: LiquidSpec,
    /// Deployment environment.
    pub environment: Environment,
    /// Packets per capture.
    pub packets: usize,
    /// Retry policy.
    pub retry: RetryPolicy,
    /// Optional fault plan.
    pub fault: Option<FaultPlan>,
    /// Pipeline configuration for the session's extractor.
    pub config: WiMiConfig,
    /// Whether to attach a per-session trace sink.
    pub trace: bool,
}

impl Session {
    /// Builds a session with its own enabled recorder (deterministic
    /// null-clock mode) and, when `spec.trace` is set, its own bounded
    /// trace sink.
    pub fn new(spec: SessionSpec) -> Session {
        let recorder = Arc::new(Recorder::enabled());
        let trace = spec.trace.then(TraceSink::enabled);
        let obs = Observer::new(Some(Arc::clone(&recorder)), trace.clone());
        let mut extractor = WiMi::new(spec.config);
        extractor.set_observer(obs.clone());
        Session {
            id: spec.id,
            seed: spec.seed,
            truth: spec.truth,
            catalog: spec.catalog,
            spec: spec.spec,
            environment: spec.environment,
            packets: spec.packets,
            retry: spec.retry,
            fault: spec.fault,
            recorder,
            trace,
            obs,
            extractor,
        }
    }

    /// The seed of measurement `seq` on this session.
    pub fn measurement_seed(&self, seq: u64) -> u64 {
        derive_cell_seed(self.seed, seq)
    }

    /// Runs measurement `seq` with the re-seat-and-retry protocol
    /// ([`measure_with_retry`]). Its events land in the session's
    /// `sess:{id}` task, so rendered traces group by link, not by worker
    /// thread; the outcome is a pure function of `(session, seq)`.
    pub fn measure(&self, seq: u64) -> MeasureOutcome {
        let trial = Trial {
            retry: &self.retry,
            fault: self.fault.as_ref(),
            obs: self.obs.clone(),
            ..Trial::clean(Some(&self.spec), self.environment, self.packets)
        };
        measure_with_retry(
            &self.extractor,
            &trial,
            self.measurement_seed(seq),
            TaskKey::session(self.id),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimi_phy::material::Liquid;

    fn test_session(id: u64, trace: bool) -> Session {
        Session::new(SessionSpec {
            id,
            seed: derive_cell_seed(0xF1EE7, id),
            truth: 0,
            catalog: vec!["Milk".into(), "PureWater".into()],
            spec: Liquid::Milk.into(),
            environment: Environment::Lab,
            packets: 8,
            retry: RetryPolicy::default(),
            fault: None,
            config: WiMiConfig::default(),
            trace,
        })
    }

    #[test]
    fn measurements_are_pure_functions_of_session_and_seq() {
        let a = test_session(3, false);
        let b = test_session(3, false);
        let ma = a.measure(7);
        let mb = b.measure(7);
        assert_eq!(ma.feature.is_some(), mb.feature.is_some());
        assert_eq!(
            ma.feature.map(|f| f.as_vector()),
            mb.feature.map(|f| f.as_vector())
        );
        assert_eq!(ma.packets_spent, mb.packets_spent);
    }

    #[test]
    fn distinct_seqs_draw_distinct_measurements() {
        let s = test_session(1, false);
        assert_ne!(s.measurement_seed(0), s.measurement_seed(1));
        let m0 = s.measure(0);
        let m1 = s.measure(1);
        let (Some(f0), Some(f1)) = (m0.feature, m1.feature) else {
            // Clean-channel measurements at 8 packets always extract.
            unreachable!("clean measurements must extract");
        };
        assert_ne!(f0.as_vector(), f1.as_vector());
    }

    #[test]
    fn session_trace_events_group_under_session_task() {
        let s = test_session(5, true);
        let _ = s.measure(0);
        let Some(sink) = &s.trace else {
            unreachable!("trace was requested");
        };
        let log = sink.flush();
        assert!(log.events_emitted > 0);
        assert!(log.tasks.iter().any(|t| t.key == TaskKey::session(5)));
    }
}
