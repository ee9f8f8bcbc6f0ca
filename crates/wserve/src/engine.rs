//! The serve engine: sharded workers over bounded queues, batched
//! inference, and the shared model cache.
//!
//! # Determinism
//!
//! The engine is tick-structured: callers [`Engine::submit`] a batch of
//! requests (deterministic order), then [`Engine::drain`] processes
//! everything queued. Requests shard by **session id**, not by thread
//! count, and each shard is processed serially inside one
//! [`wimi_core::par`] worker — so which requests shed, which shard runs
//! which measurement, and every queue/batch/cache counter are pure
//! functions of the request stream. Worker threads only decide *when*
//! shards run, never *what* they compute, which is what makes the fleet
//! summary byte-identical under any `WIMI_THREADS`/`WIMI_CHUNK` shape.
//!
//! # Batching
//!
//! Measured features from all sessions funnel into one classification
//! phase per drain, grouped by [`ModelKey`] and chunked to `batch_max`,
//! so one `MulticlassSvm` dispatch amortises across sessions (the
//! `serve_batches`/`serve_batched` counters record the coalescing).

use std::collections::BTreeMap;
use std::sync::Arc;

use wimi_campaign::derive_cell_seed;
use wimi_core::{MaterialFeature, WiMi, WiMiConfig};
use wimi_ml::dataset::Dataset;
use wimi_obs::{CounterId, GaugeId, Recorder};
use wimi_phy::channel::Environment;
use wimi_phy::scenario::LiquidSpec;
use wimi_trace::TaskKey;

use crate::cache::{ModelCache, ModelKey};
use crate::queue::{BoundedQueues, ShardTick};
use crate::retry::{measure_with_retry, MeasureOutcome, Trial};
use crate::session::{MeasureRequest, Session};

/// Engine shape and training configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards; sessions route by `id % shards`. Fixed by config —
    /// never derived from the thread count — so results are
    /// thread-invariant.
    pub shards: usize,
    /// Per-shard queue bound; submits past it are shed.
    pub queue_bound: usize,
    /// Maximum requests coalesced into one classification batch.
    pub batch_max: usize,
    /// Training measurements per material when a model key misses.
    pub train_per_class: usize,
    /// Root seed for model training (mixed with each key).
    pub train_root: u64,
    /// Base pipeline configuration for training extractors and models.
    pub config: WiMiConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_bound: 64,
            batch_max: 8,
            train_per_class: 3,
            train_root: 0x5EED_CA11,
            config: WiMiConfig::default(),
        }
    }
}

/// One classified (or failed) measurement, returned by [`Engine::drain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeResponse {
    /// Session id the response belongs to.
    pub session: u64,
    /// Measurement sequence number within the session.
    pub seq: u64,
    /// Ground-truth label of the session's material.
    pub truth: usize,
    /// Predicted label, or `None` when measurement retries were
    /// exhausted or the key's model was untrainable.
    pub label: Option<usize>,
    /// Whether a feature was extracted (measurement succeeded).
    pub measured: bool,
    /// Attempts rejected by the pipeline before success (or giving up).
    pub rejected: usize,
    /// Whether the successful measurement needed salvage.
    pub salvaged: bool,
    /// Packets actually spent across all attempts.
    pub packets_spent: usize,
    /// Attempts taken (1 = first try succeeded).
    pub attempts: usize,
}

/// One shard's activity over one submit/drain tick, handed to the
/// telemetry collector by [`Engine::take_tick_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTickStats {
    /// Requests accepted onto the shard this tick.
    pub submitted: u64,
    /// Requests shed at the shard's bound this tick.
    pub shed: u64,
    /// Highest depth the shard reached this tick.
    pub peak: u64,
    /// Depth when the drain began (gauge).
    pub depth: u64,
    /// Responses the shard produced this tick.
    pub completed: u64,
}

/// Test seam: invoked once per request inside the owning worker, with
/// the session id. Lets fault tests inject a panic into a worker and
/// assert it is forwarded, not swallowed.
type RequestProbe = Box<dyn Fn(u64) + Send + Sync>;

/// The fleet-scale measurement service.
pub struct Engine {
    cfg: ServeConfig,
    sessions: Vec<Session>,
    specs: BTreeMap<String, LiquidSpec>,
    cache: ModelCache,
    queues: BoundedQueues,
    tick_completed: Vec<u64>,
    recorder: Arc<Recorder>,
    probe: Option<RequestProbe>,
}

impl Engine {
    /// Builds an engine over `sessions`. `catalog` maps material names
    /// (as they appear in session catalogs) to dielectric specs for
    /// model training; `recorder` receives the engine-level counters
    /// (`serve_*`, `model_cache_*`) plus all training work.
    pub fn new(
        cfg: ServeConfig,
        sessions: Vec<Session>,
        catalog: Vec<(String, LiquidSpec)>,
        recorder: Arc<Recorder>,
    ) -> Engine {
        let queues = BoundedQueues::new(cfg.shards, cfg.queue_bound);
        let tick_completed = vec![0; queues.shard_count()];
        // Gauges are last-write-wins; setting them here and from serial
        // drain code (never inside the parallel fan-out) keeps snapshots
        // deterministic.
        recorder.set_gauge(GaugeId::ServeSessions, sessions.len() as u64);
        Engine {
            cfg,
            sessions,
            specs: catalog.into_iter().collect(),
            cache: ModelCache::new(),
            queues,
            tick_completed,
            recorder,
            probe: None,
        }
    }

    /// The engine's sessions, construction order.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Engine-level recorder (serve counters, cache counters, training).
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The shared model cache.
    pub fn cache(&self) -> &ModelCache {
        &self.cache
    }

    /// Highest single-shard queue depth observed.
    pub fn queue_peak(&self) -> usize {
        self.queues.peak()
    }

    /// Highest depth each shard ever reached, shard order — names the
    /// hot shard behind [`Engine::queue_peak`].
    pub fn shard_peaks(&self) -> &[usize] {
        self.queues.shard_peaks()
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.queues.shard_count()
    }

    /// Hands over (and resets) each shard's submit/drain deltas since
    /// the previous call — the telemetry timeline's per-shard samples.
    pub fn take_tick_stats(&mut self) -> Vec<ShardTickStats> {
        let completed =
            std::mem::replace(&mut self.tick_completed, vec![0; self.queues.shard_count()]);
        self.queues
            .take_tick()
            .into_iter()
            .zip(completed)
            .map(|(t, completed): (ShardTick, u64)| ShardTickStats {
                submitted: t.submitted,
                shed: t.shed,
                peak: t.peak,
                depth: t.depth,
                completed,
            })
            .collect()
    }

    /// Requests shed at the queue bound so far.
    pub fn shed(&self) -> u64 {
        self.queues.shed()
    }

    /// Installs the per-request probe (see [`RequestProbe`]).
    #[doc(hidden)]
    pub fn set_request_probe(&mut self, probe: RequestProbe) {
        self.probe = Some(probe);
    }

    /// Enqueues `requests` in order, shedding at full shard queues (and
    /// dropping requests naming an unknown session). Returns how many
    /// were accepted; the rest are counted under `serve_shed`.
    pub fn submit(&mut self, requests: &[MeasureRequest]) -> usize {
        let mut accepted = 0;
        for req in requests {
            self.recorder.incr(CounterId::ServeRequests);
            if req.session >= self.sessions.len() {
                self.recorder.incr(CounterId::ServeShed);
                continue;
            }
            let shard = self.queues.shard_of(self.sessions[req.session].id);
            if self.queues.push(shard, *req) {
                accepted += 1;
            } else {
                self.recorder.incr(CounterId::ServeShed);
            }
        }
        accepted
    }

    /// Processes everything queued: measurements fan out one shard per
    /// [`wimi_core::par`] worker (serial inside a shard), then measured
    /// features are classified in model-keyed batches. Responses come
    /// back sorted by `(session, seq)` regardless of thread count.
    ///
    /// # Panics
    ///
    /// A panic inside a worker (e.g. from an installed probe) is
    /// forwarded to the caller, mirroring the serial loop — never
    /// swallowed into a missing response.
    pub fn drain(&mut self) -> Vec<ServeResponse> {
        // Depth gauge: sampled here, in serial driver code, before the
        // drain empties the queues.
        self.recorder
            .set_gauge(GaugeId::ServeQueueDepth, self.queues.depth() as u64);
        let shard_batches = self.queues.take();
        let sessions = &self.sessions;
        let probe = self.probe.as_deref();
        let measured: Vec<Vec<(MeasureRequest, MeasureOutcome)>> =
            wimi_core::par::map(&shard_batches, |_, reqs| {
                reqs.iter()
                    .filter(|r| r.session < sessions.len())
                    .map(|r| {
                        if let Some(p) = probe {
                            p(sessions[r.session].id);
                        }
                        (*r, sessions[r.session].measure(r.seq))
                    })
                    .collect()
            });
        let flat: Vec<(MeasureRequest, MeasureOutcome)> = measured.into_iter().flatten().collect();

        // Group measured features by model key; BTreeMap iteration gives
        // a deterministic training/classification order.
        let mut groups: BTreeMap<ModelKey, Vec<usize>> = BTreeMap::new();
        for (i, (req, out)) in flat.iter().enumerate() {
            if out.feature.is_some() {
                groups
                    .entry(self.model_key(&self.sessions[req.session]))
                    .or_default()
                    .push(i);
            }
        }

        let mut labels: Vec<Option<usize>> = vec![None; flat.len()];
        for (key, idxs) in &groups {
            let model = self
                .cache
                .get_or_train(key, Some(&self.recorder), || self.train_model(key));
            for chunk in idxs.chunks(self.cfg.batch_max.max(1)) {
                let feats: Vec<MaterialFeature> = chunk
                    .iter()
                    .filter_map(|&i| flat[i].1.feature.clone())
                    .collect();
                self.recorder.incr(CounterId::ServeBatches);
                self.recorder
                    .add(CounterId::ServeBatched, feats.len() as u64);
                // An untrainable key (fewer than two populated classes
                // in its training set) classifies nothing; its requests
                // stay label-less rather than failing the drain.
                if let Ok(preds) = model.classify_features(&feats) {
                    for (&i, p) in chunk.iter().zip(preds) {
                        labels[i] = Some(p);
                    }
                }
            }
        }

        let mut responses: Vec<ServeResponse> = flat
            .iter()
            .enumerate()
            .map(|(i, (req, out))| {
                let s = &self.sessions[req.session];
                ServeResponse {
                    session: s.id,
                    seq: req.seq,
                    truth: s.truth,
                    label: labels[i],
                    measured: out.feature.is_some(),
                    rejected: out.rejected,
                    salvaged: out.salvaged,
                    packets_spent: out.packets_spent,
                    attempts: out.attempts,
                }
            })
            .collect();
        for r in &responses {
            self.tick_completed[self.queues.shard_of(r.session)] += 1;
        }
        responses.sort_by_key(|r| (r.session, r.seq));
        responses
    }

    /// The model-cache key a session's requests resolve to.
    pub fn model_key(&self, session: &Session) -> ModelKey {
        ModelKey {
            catalog: session.catalog.clone(),
            environment: session.environment.name().to_owned(),
            packets: session.packets,
        }
    }

    /// Trains the model for one key: a deterministic training set —
    /// `train_per_class` clean measurements per catalog material under
    /// the key's environment and capture length, seeded purely from the
    /// key — then an SVM fit. Training measurements go through the same
    /// re-seat-and-retry protocol as serving ([`measure_with_retry`]),
    /// under the default policy, without faults or tracing: a
    /// [`ModelKey`] has no fault component, so its model is the clean
    /// deployment's. A key whose training set ends up with fewer than two
    /// populated classes yields an *untrained* model (its requests
    /// classify to `None`), keeping the service total.
    fn train_model(&self, key: &ModelKey) -> WiMi {
        let seed = key.train_seed(self.cfg.train_root);
        let environment = Environment::ALL
            .iter()
            .copied()
            .find(|e| e.name() == key.environment)
            .unwrap_or(Environment::Lab);
        let mut extractor = WiMi::new(self.cfg.config.clone());
        extractor.set_recorder(Some(Arc::clone(&self.recorder)));
        let mut ds = Dataset::new(key.catalog.clone());
        for trial in 0..self.cfg.train_per_class.max(1) {
            for (label, name) in key.catalog.iter().enumerate() {
                // Unknown names contribute no samples; if that leaves the
                // key untrainable the guard below keeps it total.
                let Some(spec) = self.specs.get(name) else {
                    continue;
                };
                let mseed = derive_cell_seed(seed, (trial * key.catalog.len() + label) as u64);
                let clean = Trial {
                    recorder: Some(&self.recorder),
                    ..Trial::clean(Some(spec), environment, key.packets)
                };
                let out =
                    measure_with_retry(&extractor, &clean, mseed, TaskKey::measurement(mseed));
                if let Some(f) = out.feature {
                    ds.push(f.as_vector(), label);
                }
            }
        }
        let populated = ds.class_counts().iter().filter(|&&n| n > 0).count();
        let mut model = WiMi::new(WiMiConfig {
            train_seed: seed,
            ..self.cfg.config.clone()
        });
        model.set_recorder(Some(Arc::clone(&self.recorder)));
        if populated >= 2 {
            model.train_on_dataset(&ds);
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::RetryPolicy;
    use crate::session::SessionSpec;
    use rand::{Rng, SeedableRng};
    use wimi_obs::Snapshot;
    use wimi_phy::csi::CsiSource;
    use wimi_phy::fault::FaultPlan;
    use wimi_phy::material::{Liquid, LIQUIDS};
    use wimi_phy::scenario::{Scenario, Simulator};
    use wimi_phy::units::Meters;

    fn sessions(n: usize) -> (Vec<Session>, Vec<(String, LiquidSpec)>) {
        let catalog: Vec<(String, LiquidSpec)> = [Liquid::Milk, Liquid::PureWater]
            .iter()
            .map(|&l| (l.name().to_owned(), l.into()))
            .collect();
        let names: Vec<String> = catalog.iter().map(|(n, _)| n.clone()).collect();
        let sessions = (0..n)
            .map(|i| {
                Session::new(SessionSpec {
                    id: i as u64,
                    seed: derive_cell_seed(0xF1EE7, i as u64),
                    truth: i % catalog.len(),
                    catalog: names.clone(),
                    spec: catalog[i % catalog.len()].1.clone(),
                    environment: if i % 2 == 0 {
                        Environment::Lab
                    } else {
                        Environment::EmptyHall
                    },
                    packets: 8,
                    retry: RetryPolicy::default(),
                    fault: None,
                    config: WiMiConfig::default(),
                    trace: false,
                })
            })
            .collect();
        (sessions, catalog)
    }

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            shards: 2,
            queue_bound: 16,
            batch_max: 3,
            train_per_class: 3,
            ..ServeConfig::default()
        }
    }

    fn requests(n: usize, seq: u64) -> Vec<MeasureRequest> {
        (0..n)
            .map(|session| MeasureRequest { session, seq })
            .collect()
    }

    #[test]
    fn drain_classifies_and_orders_responses() {
        let (s, catalog) = sessions(4);
        let mut engine = Engine::new(tiny_config(), s, catalog, Arc::new(Recorder::enabled()));
        assert_eq!(engine.submit(&requests(4, 0)), 4);
        let responses = engine.drain();
        assert_eq!(responses.len(), 4);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.session, i as u64, "responses sorted by session");
            assert!(r.measured, "clean 8-packet measurements extract");
            assert!(r.label.is_some(), "trained keys classify");
        }
        // Two environments × one catalog → two model keys, each trained
        // exactly once.
        assert_eq!(engine.cache().len(), 2);
        let snap = engine.recorder().snapshot();
        assert_eq!(snap.counter("model_cache_misses"), Some(2));
        assert_eq!(snap.counter("serve_requests"), Some(4));
        assert_eq!(snap.counter("serve_shed"), Some(0));
    }

    #[test]
    fn second_drain_hits_the_cache() {
        let (s, catalog) = sessions(4);
        let mut engine = Engine::new(tiny_config(), s, catalog, Arc::new(Recorder::enabled()));
        engine.submit(&requests(4, 0));
        let _ = engine.drain();
        engine.submit(&requests(4, 1));
        let _ = engine.drain();
        let snap = engine.recorder().snapshot();
        assert_eq!(snap.counter("model_cache_misses"), Some(2));
        assert_eq!(snap.counter("model_cache_hits"), Some(2));
        assert_eq!(engine.cache().len(), 2);
    }

    #[test]
    fn batching_coalesces_up_to_batch_max() {
        let (s, catalog) = sessions(8);
        let mut engine = Engine::new(tiny_config(), s, catalog, Arc::new(Recorder::enabled()));
        engine.submit(&requests(8, 0));
        let responses = engine.drain();
        assert_eq!(responses.len(), 8);
        let snap = engine.recorder().snapshot();
        // 8 requests over 2 keys (4 each), batch_max 3 → 2 batches per
        // key: ceil(4 / 3) × 2.
        assert_eq!(snap.counter("serve_batches"), Some(4));
        assert_eq!(snap.counter("serve_batched"), Some(8));
    }

    #[test]
    fn unknown_sessions_are_shed_not_panicked() {
        let (s, catalog) = sessions(2);
        let mut engine = Engine::new(tiny_config(), s, catalog, Arc::new(Recorder::enabled()));
        let reqs = vec![
            MeasureRequest { session: 0, seq: 0 },
            MeasureRequest {
                session: 99,
                seq: 0,
            },
        ];
        assert_eq!(engine.submit(&reqs), 1);
        let snap = engine.recorder().snapshot();
        assert_eq!(snap.counter("serve_shed"), Some(1));
        assert_eq!(engine.drain().len(), 1);
    }

    /// One training measurement as the engine took it before training
    /// moved onto `measure_with_retry`: the loop body of the old
    /// `train_model`, verbatim but for the recorder, with the attempt
    /// count made visible. Attempts stop at the *planned* cap.
    fn planned_cap_reference(
        extractor: &WiMi,
        spec: &LiquidSpec,
        environment: Environment,
        packets: usize,
        mseed: u64,
    ) -> (Option<MaterialFeature>, usize) {
        let retry = crate::retry::RetryPolicy::default();
        let mut placement = rand::rngs::StdRng::seed_from_u64(mseed ^ 0x9E37_79B9_7F4A_7C15);
        for attempt in 0..retry.allowed_attempts(packets) {
            let offset_cm = 1.0 + placement.gen_range(-0.5..0.5);
            let mut builder = Scenario::builder();
            builder.environment(environment);
            builder.target_offset(Meters::from_cm(offset_cm));
            let mut sim = Simulator::new(
                builder.build(),
                crate::retry::attempt_capture_seed(mseed, attempt),
            );
            let base = sim.capture(packets);
            sim.set_liquid(Some(spec.clone()));
            let tar = sim.capture(packets);
            if let Ok(f) = extractor.measure(&base, &tar).feature {
                return (Some(f), attempt + 1);
            }
        }
        (None, retry.allowed_attempts(packets))
    }

    /// How many of `key`'s training trials the old `train_model` loop
    /// ran out of attempts on.
    fn reference_exhausted(engine: &Engine, key: &ModelKey) -> usize {
        let seed = key.train_seed(engine.cfg.train_root);
        let environment = Environment::ALL
            .iter()
            .copied()
            .find(|e| e.name() == key.environment)
            .unwrap_or(Environment::Lab);
        let extractor = WiMi::new(engine.cfg.config.clone());
        let mut exhausted = 0;
        for trial in 0..engine.cfg.train_per_class.max(1) {
            for (label, name) in key.catalog.iter().enumerate() {
                let Some(spec) = engine.specs.get(name) else {
                    continue;
                };
                let mseed = derive_cell_seed(seed, (trial * key.catalog.len() + label) as u64);
                let (f, _) =
                    planned_cap_reference(&extractor, spec, environment, key.packets, mseed);
                exhausted += usize::from(f.is_none());
            }
        }
        exhausted
    }

    fn bits(f: &Option<MaterialFeature>) -> Option<Vec<u64>> {
        f.as_ref()
            .map(|f| f.as_vector().iter().map(|x| x.to_bits()).collect())
    }

    #[test]
    fn training_measurements_match_the_planned_cap_reference() {
        // Clean captures keep every packet, so charging the budget with
        // kept packets spends exactly the nominal 2 × packets per attempt
        // and `allows_another` stops where `allowed_attempts` did: at the
        // attempt cap for 8 packets, at the budget for 51 and 100.
        let extractor = WiMi::new(WiMiConfig::default());
        let mut exhausted = [0usize; 3];
        for (p, packets) in [8usize, 51, 100].into_iter().enumerate() {
            for environment in [Environment::Lab, Environment::EmptyHall] {
                for (i, &liquid) in LIQUIDS.iter().enumerate() {
                    let spec: LiquidSpec = liquid.into();
                    for k in 0..10u64 {
                        let mseed = derive_cell_seed(0x7EA1 + packets as u64, k * 8 + i as u64);
                        let (want, want_attempts) =
                            planned_cap_reference(&extractor, &spec, environment, packets, mseed);
                        let trial = Trial::clean(Some(&spec), environment, packets);
                        let got = measure_with_retry(
                            &extractor,
                            &trial,
                            mseed,
                            TaskKey::measurement(mseed),
                        );
                        let case = format!("packets={packets} {environment:?} {liquid:?} k={k}");
                        assert_eq!(bits(&got.feature), bits(&want), "{case}");
                        assert_eq!(got.attempts, want_attempts, "{case}");
                        assert_eq!(got.packets_spent, 2 * packets * got.attempts, "{case}");
                        exhausted[p] += usize::from(got.feature.is_none());
                    }
                }
            }
        }
        // Each length must run some trial into its cap (4, 3 and 2
        // attempts), or the comparison never reaches the bound.
        assert!(
            exhausted.iter().all(|&n| n > 0),
            "every capture length must exhaust a trial: {exhausted:?}"
        );
    }

    /// Asserts the retry counter contract on one recorder snapshot.
    fn assert_conserved(snap: &Snapshot, exhausted: u64, what: &str) {
        let counter = |name| snap.counter(name).unwrap_or(0);
        let runs: u64 = snap.attempts.counts.iter().sum();
        assert!(runs > 0, "{what}: no measurement runs recorded");
        assert_eq!(
            counter("measurements_attempted"),
            counter("retries") + runs,
            "{what}: attempts must equal retries plus runs"
        );
        assert_eq!(
            counter("trials_dropped"),
            exhausted,
            "{what}: dropped trials"
        );
    }

    #[test]
    fn retry_counters_conserve_on_engine_and_session_recorders() {
        let (mut s, catalog) = sessions(4);
        for session in s.iter_mut().skip(1).step_by(2) {
            session.fault = Some(FaultPlan::hostile(0xBAD0 + session.id));
        }
        let mut engine = Engine::new(tiny_config(), s, catalog, Arc::new(Recorder::enabled()));
        for seq in 0..3 {
            engine.submit(&requests(4, seq));
        }
        let responses = engine.drain();
        assert!(!engine.cache().is_empty(), "the drain must train a key");

        let keys: std::collections::BTreeSet<ModelKey> = engine
            .sessions()
            .iter()
            .map(|s| engine.model_key(s))
            .collect();
        let trained_dropped: usize = keys.iter().map(|k| reference_exhausted(&engine, k)).sum();
        assert_conserved(
            &engine.recorder().snapshot(),
            trained_dropped as u64,
            "engine",
        );
        for session in engine.sessions() {
            let exhausted = responses
                .iter()
                .filter(|r| r.session == session.id && !r.measured)
                .count();
            assert_conserved(
                &session.recorder.snapshot(),
                exhausted as u64,
                &format!("session {}", session.id),
            );
        }
    }
}
