//! Composable, seeded fault injection for CSI captures.
//!
//! The benign impairment stack in [`crate::hardware`] models what a healthy
//! commodity NIC always does to CSI. Real deployments additionally suffer
//! *episodic* faults: frames lost to contention, an RF chain dying
//! mid-capture, the AGC slamming to a new gain set-point, the ADC clipping
//! under a strong interferer, co-channel bursts, and driver bugs that
//! deliver the same (stale) CSI twice. A [`FaultPlan`] injects exactly
//! those, deterministically from a seed, so robustness experiments and the
//! degradation tests are reproducible bit for bit.
//!
//! Faults compose: every injector is gated by its own probability, and
//! [`FaultPlan::scaled`] scales all probabilities at once to sweep a single
//! "fault intensity" axis. An all-zero plan (intensity 0) is the *identity*
//! on captures — the degradation curve's origin is exactly the un-faulted
//! simulator.
//!
//! # Examples
//!
//! ```
//! use wimi_phy::csi::CsiSource;
//! use wimi_phy::fault::FaultPlan;
//! use wimi_phy::scenario::{Scenario, Simulator};
//!
//! let mut sim = Simulator::new(Scenario::builder().build(), 1);
//! sim.set_fault_plan(Some(FaultPlan::hostile(9).scaled(0.3)));
//! let cap = sim.capture(20);
//! assert!(cap.len() <= 20); // packet loss may shorten the capture
//! ```

use crate::complex::Complex;
use crate::csi::CsiCapture;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic, composable set of capture-level fault injectors.
///
/// Construct with [`FaultPlan::new`] (all faults off) and switch on the
/// injectors you want, or start from [`FaultPlan::hostile`] and scale.
/// The plan carries its own seed; applying the same plan to the same
/// capture with the same nonce yields a bitwise-identical result, and the
/// injection never touches the RNG stream of the simulator that produced
/// the capture.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Per-packet probability that the frame is lost (never delivered).
    pub packet_loss: f64,
    /// Per-antenna probability that the RF chain dies at a random packet
    /// and reports zero CSI from there to the end of the capture.
    pub antenna_dropout: f64,
    /// Per-capture probability of one AGC set-point jump: every antenna's
    /// gain steps by ±`agc_jump_db` from a random packet onward.
    pub agc_jump: f64,
    /// Magnitude of the AGC jump, dB.
    pub agc_jump_db: f64,
    /// Per-capture probability that the ADC saturates: I/Q components are
    /// clipped at `clip_level` × the capture's peak component.
    pub saturation: f64,
    /// Clip threshold as a fraction of the capture's peak |I|/|Q| value.
    pub clip_level: f64,
    /// Per-packet probability that a co-channel interference burst starts.
    pub interference: f64,
    /// Peak amplitude of burst interference relative to the LoS reference.
    pub interference_magnitude: f64,
    /// Number of consecutive packets one interference burst corrupts.
    pub interference_len: usize,
    /// Per-packet probability (from the second packet on) that the driver
    /// delivers the previous packet's CSI again instead of a fresh one.
    pub stale: f64,
}

impl FaultPlan {
    /// A plan with every injector off (the identity on captures).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            packet_loss: 0.0,
            antenna_dropout: 0.0,
            agc_jump: 0.0,
            agc_jump_db: 6.0,
            saturation: 0.0,
            clip_level: 0.35,
            interference: 0.0,
            interference_magnitude: 1.5,
            interference_len: 3,
            stale: 0.0,
        }
    }

    /// A hostile deployment with every injector on at full intensity.
    /// Scale it down with [`FaultPlan::scaled`] to sweep a degradation
    /// curve from benign to hostile.
    pub fn hostile(seed: u64) -> Self {
        FaultPlan {
            packet_loss: 0.5,
            antenna_dropout: 0.3,
            agc_jump: 0.8,
            saturation: 0.5,
            interference: 0.15,
            stale: 0.3,
            ..FaultPlan::new(seed)
        }
    }

    /// Sets the per-packet loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_packet_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.packet_loss = p;
        self
    }

    /// Sets the per-antenna dropout probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_antenna_dropout(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.antenna_dropout = p;
        self
    }

    /// Sets the AGC jump probability and magnitude (dB).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `db` is not finite.
    pub fn with_agc_jump(mut self, p: f64, db: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        assert!(db.is_finite(), "AGC jump magnitude must be finite");
        self.agc_jump = p;
        self.agc_jump_db = db;
        self
    }

    /// Sets the saturation probability and clip level (fraction of peak).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `level` is not in `(0, 1]`.
    pub fn with_saturation(mut self, p: f64, level: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        assert!(
            level > 0.0 && level <= 1.0,
            "clip level must be in (0, 1], got {level}"
        );
        self.saturation = p;
        self.clip_level = level;
        self
    }

    /// Sets the per-packet interference burst probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_interference(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.interference = p;
        self
    }

    /// Sets the per-packet stale-duplicate probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_stale(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.stale = p;
        self
    }

    /// Returns a copy with a different seed (used by the experiment
    /// harness to derive an independent fault stream per measurement).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns a copy with every probability multiplied by `intensity`
    /// (clamped to `[0, 1]`). Magnitudes (jump dB, clip level, burst
    /// amplitude) are left alone: intensity scales how *often* faults
    /// strike, not how hard.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is negative or not finite.
    pub fn scaled(mut self, intensity: f64) -> Self {
        assert!(
            intensity.is_finite() && intensity >= 0.0,
            "intensity must be finite and non-negative"
        );
        let scale = |p: f64| (p * intensity).clamp(0.0, 1.0);
        self.packet_loss = scale(self.packet_loss);
        self.antenna_dropout = scale(self.antenna_dropout);
        self.agc_jump = scale(self.agc_jump);
        self.saturation = scale(self.saturation);
        self.interference = scale(self.interference);
        self.stale = scale(self.stale);
        self
    }

    /// `true` when every injector's probability is zero, making
    /// [`FaultPlan::apply`] the identity.
    pub fn is_identity(&self) -> bool {
        // Probabilities are non-negative, so `<= 0.0` is exactly the
        // identity test without comparing floats for equality.
        self.packet_loss <= 0.0
            && self.antenna_dropout <= 0.0
            && self.agc_jump <= 0.0
            && self.saturation <= 0.0
            && self.interference <= 0.0
            && self.stale <= 0.0
    }

    /// Applies the plan to a capture, returning the faulted copy.
    ///
    /// `nonce` distinguishes successive captures taken under one plan (the
    /// simulator passes an incrementing counter): the fault stream is a
    /// pure function of `(seed, nonce)`, so identical `(plan, capture,
    /// nonce)` triples produce bitwise-identical results. An identity plan
    /// returns the capture unchanged. The output never contains NaN/Inf
    /// CSI provided the input does not: every injector either removes,
    /// duplicates, zeroes, scales by a finite gain, clips, or adds a
    /// finite burst.
    pub fn apply(&self, capture: &CsiCapture, nonce: u64) -> CsiCapture {
        if self.is_identity() || capture.is_empty() {
            return capture.clone();
        }
        let mut rng = StdRng::seed_from_u64(mix(self.seed, nonce));
        let n = capture.len();
        let n_ant = capture.n_antennas();
        let n_sub = capture.n_subcarriers();
        let stride = n_ant * n_sub;

        // Stale duplicates first: the driver re-delivers the previous
        // frame's CSI. Applied on the original timeline, before losses.
        // Duplicates chain (a stale of a stale repeats the same frame), so
        // the copy source is the *output's* previous row.
        let mut out = capture.clone();
        for m in 1..n {
            if rng.gen::<f64>() < self.stale {
                let (re, im) = out.planes_mut();
                re.copy_within((m - 1) * stride..m * stride, m * stride);
                im.copy_within((m - 1) * stride..m * stride, m * stride);
            }
        }

        // Packet loss: frames that never made it off the air. Draw order
        // matches the historical per-packet filter: one draw per packet on
        // the stale-adjusted timeline.
        let mut keep = Vec::with_capacity(n);
        for _ in 0..n {
            keep.push(rng.gen::<f64>() >= self.packet_loss);
        }
        let survivors: Vec<usize> = (0..n_ant).collect();
        let mut out = out.select_packets_antennas(&keep, &survivors);
        let n = out.len();
        if n == 0 {
            return CsiCapture::new();
        }

        // Antenna dropout: a dying RF chain reports zero CSI from a random
        // packet to the end of the capture.
        for a in 0..n_ant {
            if rng.gen::<f64>() < self.antenna_dropout {
                let start = rng.gen_range(0..n);
                for m in start..n {
                    let (re, im) = out.packet_planes_mut(m);
                    re[a * n_sub..(a + 1) * n_sub].fill(0.0);
                    im[a * n_sub..(a + 1) * n_sub].fill(0.0);
                }
            }
        }

        // AGC set-point jump: a common gain step across all antennas (the
        // AGC serves the whole NIC) from a random packet onward.
        if rng.gen::<f64>() < self.agc_jump {
            let start = rng.gen_range(0..n);
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            let gain = 10f64.powf(sign * self.agc_jump_db / 20.0);
            let (re, im) = out.planes_mut();
            for (r, i) in re[start * stride..]
                .iter_mut()
                .zip(im[start * stride..].iter_mut())
            {
                let h = Complex::new(*r, *i) * gain;
                *r = h.re;
                *i = h.im;
            }
        }

        // Interference bursts: a strong co-channel transmission corrupting
        // a run of consecutive packets across the whole band. The flat
        // plane order of one packet matches the historical (antenna,
        // subcarrier) draw order exactly.
        let mut burst_left = 0usize;
        for m in 0..n {
            if burst_left == 0 && rng.gen::<f64>() < self.interference {
                burst_left = self.interference_len.max(1);
            }
            if burst_left > 0 {
                burst_left -= 1;
                let (re, im) = out.packet_planes_mut(m);
                for (r, i) in re.iter_mut().zip(im.iter_mut()) {
                    let spike = Complex::from_polar(
                        self.interference_magnitude * rng.gen::<f64>(),
                        rng.gen_range(0.0..std::f64::consts::TAU),
                    );
                    let h = Complex::new(*r, *i) + spike;
                    *r = h.re;
                    *i = h.im;
                }
            }
        }

        // ADC saturation: clip I/Q at a fraction of the capture's peak
        // component, flattening the strongest subcarriers.
        if rng.gen::<f64>() < self.saturation {
            let (re, im) = out.planes_mut();
            let mut peak: f64 = 0.0;
            for (&r, &i) in re.iter().zip(im.iter()) {
                peak = peak.max(r.abs()).max(i.abs());
            }
            let clip = self.clip_level * peak;
            if clip > 0.0 {
                for x in re.iter_mut() {
                    *x = x.clamp(-clip, clip);
                }
                for x in im.iter_mut() {
                    *x = x.clamp(-clip, clip);
                }
            }
        }

        out
    }
}

/// SplitMix64-style mix of the plan seed with the capture nonce, so each
/// capture under one plan gets an independent, reproducible fault stream.
fn mix(seed: u64, nonce: u64) -> u64 {
    let mut z = seed ^ nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csi::CsiSource;
    use crate::scenario::{Scenario, Simulator};

    fn capture(n: usize, seed: u64) -> CsiCapture {
        Simulator::new(Scenario::builder().build(), seed).capture(n)
    }

    #[test]
    fn identity_plan_is_bitwise_identity() {
        let cap = capture(15, 1);
        let plan = FaultPlan::new(42);
        assert!(plan.is_identity());
        assert_eq!(plan.apply(&cap, 0), cap);
        // Scaling a hostile plan to zero is also the identity.
        let zeroed = FaultPlan::hostile(7).scaled(0.0);
        assert!(zeroed.is_identity());
        assert_eq!(zeroed.apply(&cap, 3), cap);
    }

    #[test]
    fn same_seed_and_nonce_reproduce() {
        let cap = capture(25, 2);
        let plan = FaultPlan::hostile(5).scaled(0.7);
        assert_eq!(plan.apply(&cap, 4), plan.apply(&cap, 4));
        // Different nonces draw different fault streams.
        assert_ne!(plan.apply(&cap, 0), plan.apply(&cap, 1));
        // Different plan seeds draw different fault streams too.
        assert_ne!(
            plan.apply(&cap, 4),
            plan.clone().with_seed(6).apply(&cap, 4)
        );
    }

    #[test]
    fn packet_loss_shortens_captures() {
        let cap = capture(200, 3);
        let plan = FaultPlan::new(1).with_packet_loss(0.4);
        let out = plan.apply(&cap, 0);
        assert!(out.len() < 200 && out.len() > 60, "kept {}", out.len());
    }

    #[test]
    fn total_packet_loss_yields_empty_capture() {
        let cap = capture(10, 4);
        let plan = FaultPlan::new(1).with_packet_loss(1.0);
        assert!(plan.apply(&cap, 0).is_empty());
    }

    #[test]
    fn antenna_dropout_zeroes_a_tail() {
        let cap = capture(30, 5);
        let plan = FaultPlan::new(2).with_antenna_dropout(1.0);
        let out = plan.apply(&cap, 0);
        // Every antenna dropped somewhere: last packet must be all zero.
        let last = out.packet(out.len() - 1);
        for a in 0..out.n_antennas() {
            assert!(last.amplitudes(a).iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn agc_jump_scales_common_gain() {
        let cap = capture(20, 6);
        let plan = FaultPlan::new(3).with_agc_jump(1.0, 6.0);
        let out = plan.apply(&cap, 0);
        // The jump preserves the cross-antenna ratio (common gain).
        for m in 0..out.len() {
            let before = cap.packet(m).get(0, 10).abs() / cap.packet(m).get(1, 10).abs();
            let after = out.packet(m).get(0, 10).abs() / out.packet(m).get(1, 10).abs();
            assert!((before - after).abs() < 1e-9, "ratio changed at {m}");
        }
    }

    #[test]
    fn saturation_clips_peaks() {
        let cap = capture(20, 7);
        let plan = FaultPlan::new(4).with_saturation(1.0, 0.3);
        let out = plan.apply(&cap, 0);
        let mut peak_in = 0.0f64;
        for m in 0..cap.len() {
            for a in 0..cap.n_antennas() {
                for k in 0..cap.n_subcarriers() {
                    let h = cap.packet(m).get(a, k);
                    peak_in = peak_in.max(h.re.abs()).max(h.im.abs());
                }
            }
        }
        for m in 0..out.len() {
            for a in 0..out.n_antennas() {
                for k in 0..out.n_subcarriers() {
                    let h = out.packet(m).get(a, k);
                    assert!(h.re.abs() <= 0.3 * peak_in + 1e-12);
                    assert!(h.im.abs() <= 0.3 * peak_in + 1e-12);
                }
            }
        }
    }

    #[test]
    fn stale_duplicates_repeat_previous_packets() {
        let cap = capture(50, 8);
        let plan = FaultPlan::new(5).with_stale(1.0);
        let out = plan.apply(&cap, 0);
        // With p = 1 every packet after the first repeats packet 0.
        for m in 1..out.len() {
            assert_eq!(out.packet(m), out.packet(0));
        }
    }

    #[test]
    fn simulator_applies_plan_only_when_set() {
        let scenario = Scenario::builder().build();
        let mut plain = Simulator::new(scenario.clone(), 9);
        let mut faulted = Simulator::new(scenario, 9);
        faulted.set_fault_plan(Some(FaultPlan::hostile(1)));
        let a = plain.capture(20);
        let b = faulted.capture(20);
        assert!(a != b, "hostile plan should perturb the capture");
        // Clearing the plan restores agreement for subsequent captures
        // (the base RNG stream was never touched by the injection).
        faulted.set_fault_plan(None);
        assert_eq!(plain.capture(5), faulted.capture(5));
    }

    #[test]
    fn scaled_clamps_probabilities() {
        let plan = FaultPlan::hostile(0).scaled(10.0);
        assert!(plan.packet_loss <= 1.0 && plan.agc_jump <= 1.0);
        assert!(plan.stale <= 1.0 && plan.saturation <= 1.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_probability() {
        let _ = FaultPlan::new(0).with_packet_loss(1.5);
    }
}
