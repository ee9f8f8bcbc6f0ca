//! One-vs-one multiclass SVM.

use crate::dataset::Dataset;
use crate::svm::{BinarySvm, SvmParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wimi_trace::Observer;

/// A multiclass SVM built from `k(k−1)/2` one-vs-one binary machines with
/// majority voting (decision values break ties).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use wimi_ml::dataset::Dataset;
/// use wimi_ml::multiclass::MulticlassSvm;
/// use wimi_ml::svm::SvmParams;
///
/// let mut ds = Dataset::new(vec!["lo".into(), "hi".into()]);
/// for i in 0..10 {
///     ds.push(vec![i as f64 * 0.1], 0);
///     ds.push(vec![5.0 + i as f64 * 0.1], 1);
/// }
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = MulticlassSvm::train(&ds, &SvmParams::default(), &mut rng);
/// assert_eq!(model.predict(&[0.2]), 0);
/// assert_eq!(model.predict(&[5.3]), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MulticlassSvm {
    machines: Vec<(usize, usize, BinarySvm)>,
    n_classes: usize,
}

impl MulticlassSvm {
    /// Trains one binary SVM per class pair. Pairs where either class has
    /// no samples are skipped.
    ///
    /// The `k(k−1)/2` machines are trained in parallel on scoped threads
    /// (worker count from `WIMI_THREADS`, see [`crate::par`]). One seed
    /// per machine is drawn from `rng` *serially in ascending pair order*
    /// before the fan-out, and each machine runs SMO with its own
    /// [`StdRng`] derived from that seed — so the trained model is
    /// bitwise identical no matter how many threads run or how they are
    /// scheduled. (This derivation replaced training every machine from
    /// the caller's single sequential stream; models trained by older
    /// revisions differ numerically but not statistically.)
    ///
    /// # Panics
    ///
    /// Panics if the dataset has fewer than two populated classes.
    pub fn train<R: Rng + ?Sized>(ds: &Dataset, params: &SvmParams, rng: &mut R) -> Self {
        Self::train_observed(ds, params, rng, &Observer::default())
    }

    /// Like [`MulticlassSvm::train`], but reports to `obs`: an
    /// aggregate-only [`wimi_obs::StageId::Classification`] span, the
    /// number of binary machines trained, and one ordered
    /// [`wimi_trace::TraceEvent::SvmMachine`] per one-vs-one machine.
    /// Each machine's events are scoped to its own
    /// [`wimi_trace::TaskKey`] (keyed by the class pair), so the rendered
    /// trace is byte-identical under any `WIMI_THREADS` setting. Training
    /// output is bit-identical however `obs` is attached.
    ///
    /// # Panics
    ///
    /// Same contract as [`MulticlassSvm::train`].
    pub fn train_observed<R: Rng + ?Sized>(
        ds: &Dataset,
        params: &SvmParams,
        rng: &mut R,
        obs: &Observer,
    ) -> Self {
        let _span = obs.stage(wimi_obs::StageId::Classification);
        assert!(
            ds.is_trainable(),
            "multiclass training needs at least two populated classes"
        );
        let counts = ds.class_counts();
        let k = ds.n_classes();
        let mut jobs: Vec<(usize, usize, u64)> = Vec::with_capacity(k * (k - 1) / 2);
        for a in 0..k {
            for b in (a + 1)..k {
                if counts[a] == 0 || counts[b] == 0 {
                    continue;
                }
                jobs.push((a, b, rng.gen::<u64>()));
            }
        }
        let machines = crate::par::map(&jobs, |_, &(a, b, seed)| {
            // Each machine is one deterministic trace task: scoping by
            // the class pair (not the worker thread) keeps the rendered
            // trace identical under any WIMI_THREADS setting.
            let _task = obs
                .sink()
                .map(|_| wimi_trace::task_scope(wimi_trace::TaskKey::svm_machine(a, b)));
            // Borrowed feature views: the one-vs-one subset is gathered
            // without cloning any sample.
            let mut xs: Vec<&[f64]> = Vec::with_capacity(counts[a] + counts[b]);
            let mut ys: Vec<f64> = Vec::with_capacity(counts[a] + counts[b]);
            for i in 0..ds.len() {
                let (x, y) = ds.sample(i);
                if y == a {
                    xs.push(x);
                    ys.push(1.0);
                } else if y == b {
                    xs.push(x);
                    ys.push(-1.0);
                }
            }
            let mut machine_rng = StdRng::seed_from_u64(seed);
            let machine = BinarySvm::train(&xs, &ys, params, &mut machine_rng);
            obs.emit(wimi_trace::TraceEvent::SvmMachine {
                class_a: a as u32,
                class_b: b as u32,
                rounds: machine.iterations() as u64,
            });
            (a, b, machine)
        });
        obs.count(
            wimi_obs::CounterId::SvmMachinesTrained,
            machines.len() as u64,
        );
        MulticlassSvm {
            machines,
            n_classes: k,
        }
    }

    /// Predicts the class of `x` by one-vs-one voting.
    pub fn predict(&self, x: &[f64]) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        let mut margins = vec![0.0f64; self.n_classes];
        for (a, b, svm) in &self.machines {
            let d = svm.decision(x);
            if d >= 0.0 {
                votes[*a] += 1;
                margins[*a] += d;
            } else {
                votes[*b] += 1;
                margins[*b] -= d;
            }
        }
        // Majority vote; summed margins break ties.
        (0..self.n_classes)
            .max_by(|&i, &j| {
                votes[i]
                    .cmp(&votes[j])
                    .then(margins[i].total_cmp(&margins[j]))
            })
            .unwrap_or(0)
    }

    /// Predicts a batch.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn three_blobs(n: usize) -> Dataset {
        let mut ds = Dataset::new(vec!["a".into(), "b".into(), "c".into()]);
        let centers = [(0.0, 0.0), (4.0, 0.0), (2.0, 4.0)];
        for (class, (cx, cy)) in centers.iter().enumerate() {
            for i in 0..n {
                let t = i as f64 * 0.9;
                ds.push(vec![cx + 0.4 * t.sin(), cy + 0.4 * t.cos()], class);
            }
        }
        ds
    }

    #[test]
    fn three_class_blobs_classify_perfectly() {
        let ds = three_blobs(15);
        let mut rng = StdRng::seed_from_u64(0);
        let model = MulticlassSvm::train(&ds, &SvmParams::default(), &mut rng);
        assert_eq!(model.machines.len(), 3);
        for i in 0..ds.len() {
            let (x, y) = ds.sample(i);
            assert_eq!(model.predict(x), y);
        }
    }

    #[test]
    fn batch_prediction_matches_single() {
        let ds = three_blobs(10);
        let mut rng = StdRng::seed_from_u64(1);
        let model = MulticlassSvm::train(&ds, &SvmParams::default(), &mut rng);
        let xs: Vec<Vec<f64>> = ds.features().to_vec();
        let batch = model.predict_batch(&xs);
        for (i, &pred) in batch.iter().enumerate() {
            assert_eq!(pred, model.predict(&xs[i]));
        }
    }

    #[test]
    fn empty_classes_are_skipped() {
        let mut ds = Dataset::new(vec!["a".into(), "b".into(), "ghost".into()]);
        for i in 0..10 {
            ds.push(vec![i as f64 * 0.1], 0);
            ds.push(vec![3.0 + i as f64 * 0.1], 1);
        }
        let mut rng = StdRng::seed_from_u64(2);
        let model = MulticlassSvm::train(&ds, &SvmParams::default(), &mut rng);
        assert_eq!(model.machines.len(), 1);
        assert_eq!(model.predict(&[0.0]), 0);
        assert_eq!(model.predict(&[3.5]), 1);
    }

    #[test]
    fn training_is_thread_count_invariant() {
        // Per-machine RNG streams are derived from seeds drawn before the
        // fan-out, so 1 worker and 4 workers must produce bitwise
        // identical machines (support vectors, coefficients, biases).
        let ds = three_blobs(12);
        let train = || {
            let mut rng = StdRng::seed_from_u64(9);
            MulticlassSvm::train(&ds, &SvmParams::default(), &mut rng)
        };
        crate::par::set_thread_override(Some(1));
        let serial = train();
        crate::par::set_thread_override(Some(4));
        let parallel = train();
        crate::par::set_thread_override(None);
        assert_eq!(serial.n_classes, parallel.n_classes);
        assert_eq!(serial.machines, parallel.machines);
        assert!(serial
            .machines
            .iter()
            .all(|(_, _, m)| m.n_support_vectors() >= 2));
    }

    #[test]
    #[should_panic(expected = "two populated classes")]
    fn rejects_single_class_data() {
        let mut ds = Dataset::new(vec!["a".into(), "b".into()]);
        ds.push(vec![1.0], 0);
        let mut rng = StdRng::seed_from_u64(3);
        let _ = MulticlassSvm::train(&ds, &SvmParams::default(), &mut rng);
    }
}
