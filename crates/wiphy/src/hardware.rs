//! Commodity-NIC hardware impairments.
//!
//! The raw CSI phase of a commodity Wi-Fi NIC is corrupted per packet by
//! carrier frequency offset (CFO), sampling frequency offset (SFO) and
//! packet boundary delay (PBD) — paper Eq. (5):
//!
//! `φ̃_{k,i} = φ_{k,i} + k(λ_b + λ_s) + β + Z`
//!
//! Crucially these offsets are *common to all antennas of one NIC* (shared
//! oscillator and sampling clock), which is what makes the cross-antenna
//! phase difference stable (Eq. 6). The amplitude path adds AGC wobble
//! (common), per-antenna gain ripple, thermal noise, occasional impulse
//! noise bursts and outliers (paper Fig. 3), and Intel 5300-style 8-bit
//! quantisation.

#![deny(clippy::cast_possible_truncation)]

use crate::channel::StandardNormal;
use crate::complex::Complex;
use crate::csi::CsiPacket;
use rand::Rng;

/// Hardware impairment configuration.
///
/// The defaults are tuned so the simulated raw CSI reproduces the paper's
/// observations: raw phase uniformly distributed over `[0, 2π)` across
/// packets (Fig. 2), cross-antenna phase difference spread of roughly 18°
/// before subcarrier selection (Fig. 12), and amplitude series with visible
/// impulse noise and outliers (Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareProfile {
    /// Apply the per-packet common phase corruption (CFO/PBD intercept,
    /// uniform over `[0, 2π)`, plus the SFO/PBD slope below). Real NICs
    /// always have it; turn off only for idealised tests.
    pub phase_corruption: bool,
    /// Std dev of the per-packet SFO+PBD phase slope, radians per
    /// subcarrier index.
    pub phase_slope_std: f64,
    /// Complex AWGN amplitude (std dev per I/Q component) relative to the
    /// unit-amplitude LoS reference.
    pub noise_std: f64,
    /// Std dev of the common (AGC) per-packet gain wobble, dB.
    pub agc_wobble_db: f64,
    /// Std dev of the *per-antenna* gain ripple, dB (does not cancel in the
    /// cross-antenna ratio; kept small).
    pub antenna_gain_ripple_db: f64,
    /// Probability that a packet is hit by an impulse-noise burst.
    pub impulse_probability: f64,
    /// Peak amplitude of an impulse burst relative to the LoS reference.
    pub impulse_magnitude: f64,
    /// Probability that a packet's amplitude is an outlier (far outside the
    /// normal fluctuation region).
    pub outlier_probability: f64,
    /// Multiplicative factor applied to an outlier packet's amplitude.
    pub outlier_factor: f64,
    /// Quantise CSI to signed 8-bit I/Q like the Intel 5300 CSI tool.
    pub quantize_8bit: bool,
}

impl Default for HardwareProfile {
    fn default() -> Self {
        HardwareProfile {
            phase_corruption: true,
            phase_slope_std: 0.015,
            noise_std: 0.02,
            agc_wobble_db: 2.5,
            antenna_gain_ripple_db: 0.10,
            impulse_probability: 0.05,
            impulse_magnitude: 0.22,
            outlier_probability: 0.015,
            outlier_factor: 2.6,
            quantize_8bit: true,
        }
    }
}

impl HardwareProfile {
    /// An idealised NIC with no impairments at all (for unit tests and
    /// ablations).
    pub fn ideal() -> Self {
        HardwareProfile {
            phase_corruption: false,
            phase_slope_std: 0.0,
            noise_std: 0.0,
            agc_wobble_db: 0.0,
            antenna_gain_ripple_db: 0.0,
            impulse_probability: 0.0,
            impulse_magnitude: 0.0,
            outlier_probability: 0.0,
            outlier_factor: 1.0,
            quantize_8bit: false,
        }
    }

    /// Returns a copy without the CFO/SFO/PBD phase corruption (keeps
    /// amplitude impairments) — used to ablate the phase-difference step.
    pub fn without_phase_corruption(mut self) -> Self {
        self.phase_corruption = false;
        self.phase_slope_std = 0.0;
        self
    }

    /// Applies all impairments to a packet in place.
    ///
    /// Convenience wrapper over [`HardwareProfile::apply_planes`] for the
    /// array-of-structs [`CsiPacket`] layout (tests, single frames). The
    /// simulator's capture loop calls `apply_planes` on the capture's flat
    /// planes directly.
    pub fn apply<R: Rng + ?Sized>(&self, packet: &mut CsiPacket, rng: &mut R) {
        let n_ant = packet.n_antennas();
        let n_sub = packet.n_subcarriers();
        let mut re = Vec::with_capacity(n_ant * n_sub);
        let mut im = Vec::with_capacity(n_ant * n_sub);
        for a in 0..n_ant {
            for h in packet.antenna_row(a) {
                re.push(h.re);
                im.push(h.im);
            }
        }
        self.apply_planes(&mut re, &mut im, n_ant, n_sub, rng, &mut Vec::new());
        for a in 0..n_ant {
            for k in 0..n_sub {
                *packet.get_mut(a, k) = Complex::new(re[a * n_sub + k], im[a * n_sub + k]);
            }
        }
    }

    /// Applies all impairments to one packet stored as flat antenna-major
    /// `(re, im)` planes of length `n_antennas · n_subcarriers` — the
    /// allocation-free hot path.
    ///
    /// The phase corruption (CFO intercept + SFO/PBD slope) and the AGC
    /// wobble are drawn once per packet and applied to *every antenna
    /// identically*, modelling the shared oscillator/sampling clock of one
    /// NIC. Noise, gain ripple, impulse bursts and outliers are per antenna.
    /// Because the corruption is common, its per-subcarrier phasor
    /// `cis(β + k·slope)` is evaluated once per subcarrier into `corrupt`
    /// (caller-owned scratch, overwritten) and shared by every antenna; it
    /// draws nothing, so the RNG stream is the same as evaluating it per
    /// antenna.
    ///
    /// # Panics
    ///
    /// Panics if the plane lengths differ from
    /// `n_antennas · n_subcarriers`.
    // wlint: hot
    // wlint: allow(panic-reach) — plane indices row + k < n_antennas·n_subcarriers, asserted at entry; corrupt holds n_subcarriers phasors
    pub fn apply_planes<R: Rng + ?Sized>(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        n_antennas: usize,
        n_subcarriers: usize,
        rng: &mut R,
        corrupt: &mut Vec<Complex>,
    ) {
        assert_eq!(re.len(), n_antennas * n_subcarriers, "re plane length");
        assert_eq!(im.len(), n_antennas * n_subcarriers, "im plane length");

        // Common-to-all-antennas corruption.
        let (cfo_intercept, slope) = if self.phase_corruption {
            (
                rng.gen_range(0.0..std::f64::consts::TAU),
                self.phase_slope_std * rng.sample(StandardNormal),
            )
        } else {
            (0.0, 0.0)
        };
        let agc = db_to_amp(self.agc_wobble_db * rng.sample(StandardNormal));
        // k(λ_b + λ_s) + β phase corruption, Eq. (5).
        corrupt.clear();
        corrupt.extend((0..n_subcarriers).map(|k| Complex::cis(cfo_intercept + slope * k as f64)));

        for a in 0..n_antennas {
            let ripple = db_to_amp(self.antenna_gain_ripple_db * rng.sample(StandardNormal));
            let impulse_hit = rng.gen::<f64>() < self.impulse_probability;
            let outlier_hit = rng.gen::<f64>() < self.outlier_probability;
            let outlier_gain = if outlier_hit {
                // Outliers can spike high or collapse low.
                if rng.gen::<bool>() {
                    self.outlier_factor
                } else {
                    1.0 / self.outlier_factor
                }
            } else {
                1.0
            };

            let gain = agc * ripple * outlier_gain;
            let row = a * n_subcarriers;
            for (k, &phasor) in corrupt.iter().enumerate() {
                let i = row + k;
                let mut h = Complex::new(re[i], im[i]);
                h = h * phasor * gain;
                // Impulse burst: a short broadband additive spike.
                if impulse_hit {
                    let spike = Complex::from_polar(
                        self.impulse_magnitude * rng.gen::<f64>(),
                        rng.gen_range(0.0..std::f64::consts::TAU),
                    );
                    h += spike;
                }
                // Thermal noise.
                if self.noise_std > 0.0 {
                    h += Complex::new(
                        self.noise_std * rng.sample(StandardNormal),
                        self.noise_std * rng.sample(StandardNormal),
                    );
                }
                re[i] = h.re;
                im[i] = h.im;
            }
        }

        if self.quantize_8bit {
            quantize_intel5300_planes(re, im);
        }
    }
}

fn db_to_amp(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Quantises a packet's I/Q samples to signed 8-bit integers, scaled to the
/// per-packet maximum component — the Intel 5300 CSI tool's storage format.
pub fn quantize_intel5300(packet: &mut CsiPacket) {
    let n_ant = packet.n_antennas();
    let n_sub = packet.n_subcarriers();
    let mut re = Vec::with_capacity(n_ant * n_sub);
    let mut im = Vec::with_capacity(n_ant * n_sub);
    for a in 0..n_ant {
        for h in packet.antenna_row(a) {
            re.push(h.re);
            im.push(h.im);
        }
    }
    quantize_intel5300_planes(&mut re, &mut im);
    for a in 0..n_ant {
        for k in 0..n_sub {
            *packet.get_mut(a, k) = Complex::new(re[a * n_sub + k], im[a * n_sub + k]);
        }
    }
}

/// [`quantize_intel5300`] on one packet's flat `(re, im)` planes — the
/// allocation-free hot path. The lanes are scanned in plane order, which
/// matches the packet's antenna-major `(a, k)` order exactly.
// wlint: hot
pub fn quantize_intel5300_planes(re: &mut [f64], im: &mut [f64]) {
    let mut max_c: f64 = 0.0;
    for (&r, &i) in re.iter().zip(im.iter()) {
        max_c = max_c.max(r.abs()).max(i.abs());
    }
    // `max_c` is a maximum of absolute values, so non-positive means the
    // packet is all-zero and there is nothing to quantise.
    if max_c <= 0.0 {
        return;
    }
    let scale = 127.0 / max_c;
    for x in re.iter_mut() {
        *x = (*x * scale).round() / scale;
    }
    for x in im.iter_mut() {
        *x = (*x * scale).round() / scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn clean_packet(n_ant: usize, n_sub: usize) -> CsiPacket {
        let data = (0..n_ant * n_sub)
            .map(|i| Complex::from_polar(1.0, 0.1 * (i % n_sub) as f64))
            .collect();
        CsiPacket::new(n_ant, n_sub, data)
    }

    /// Verbatim copy of `apply_planes` before the phase-corruption phasor
    /// was hoisted: it evaluated `cis(β + k·slope)` once per antenna.
    fn reference_apply_planes<R: Rng + ?Sized>(
        prof: &HardwareProfile,
        re: &mut [f64],
        im: &mut [f64],
        n_antennas: usize,
        n_subcarriers: usize,
        rng: &mut R,
    ) {
        let (cfo_intercept, slope) = if prof.phase_corruption {
            (
                rng.gen_range(0.0..std::f64::consts::TAU),
                prof.phase_slope_std * rng.sample(StandardNormal),
            )
        } else {
            (0.0, 0.0)
        };
        let agc = db_to_amp(prof.agc_wobble_db * rng.sample(StandardNormal));
        for a in 0..n_antennas {
            let ripple = db_to_amp(prof.antenna_gain_ripple_db * rng.sample(StandardNormal));
            let impulse_hit = rng.gen::<f64>() < prof.impulse_probability;
            let outlier_hit = rng.gen::<f64>() < prof.outlier_probability;
            let outlier_gain = if outlier_hit {
                if rng.gen::<bool>() {
                    prof.outlier_factor
                } else {
                    1.0 / prof.outlier_factor
                }
            } else {
                1.0
            };
            let gain = agc * ripple * outlier_gain;
            let row = a * n_subcarriers;
            for k in 0..n_subcarriers {
                let i = row + k;
                let mut h = Complex::new(re[i], im[i]);
                let corrupt = Complex::cis(cfo_intercept + slope * k as f64);
                h = h * corrupt * gain;
                if impulse_hit {
                    let spike = Complex::from_polar(
                        prof.impulse_magnitude * rng.gen::<f64>(),
                        rng.gen_range(0.0..std::f64::consts::TAU),
                    );
                    h += spike;
                }
                if prof.noise_std > 0.0 {
                    h += Complex::new(
                        prof.noise_std * rng.sample(StandardNormal),
                        prof.noise_std * rng.sample(StandardNormal),
                    );
                }
                re[i] = h.re;
                im[i] = h.im;
            }
        }
        if prof.quantize_8bit {
            quantize_intel5300_planes(re, im);
        }
    }

    #[test]
    fn hoisted_phase_corruption_matches_reference_bitwise() {
        let profiles = [
            HardwareProfile::default(),
            HardwareProfile {
                impulse_probability: 0.5,
                outlier_probability: 0.3,
                ..HardwareProfile::default()
            },
            HardwareProfile::default().without_phase_corruption(),
            HardwareProfile::ideal(),
        ];
        let mut corrupt = Vec::new();
        for (p, prof) in profiles.iter().enumerate() {
            for (n_ant, n_sub) in [(3usize, 30usize), (1, 4), (2, 1)] {
                for seed in 0..40u64 {
                    let packet = clean_packet(n_ant, n_sub);
                    let re0: Vec<f64> = (0..n_ant * n_sub)
                        .map(|i| packet.get(i / n_sub, i % n_sub).re)
                        .collect();
                    let im0: Vec<f64> = (0..n_ant * n_sub)
                        .map(|i| packet.get(i / n_sub, i % n_sub).im)
                        .collect();
                    let (mut re, mut im) = (re0.clone(), im0.clone());
                    let (mut re_ref, mut im_ref) = (re0, im0);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut rng_ref = StdRng::seed_from_u64(seed);
                    prof.apply_planes(&mut re, &mut im, n_ant, n_sub, &mut rng, &mut corrupt);
                    reference_apply_planes(
                        prof,
                        &mut re_ref,
                        &mut im_ref,
                        n_ant,
                        n_sub,
                        &mut rng_ref,
                    );
                    for i in 0..n_ant * n_sub {
                        assert_eq!(
                            re[i].to_bits(),
                            re_ref[i].to_bits(),
                            "profile {p} seed {seed} re[{i}]"
                        );
                        assert_eq!(
                            im[i].to_bits(),
                            im_ref[i].to_bits(),
                            "profile {p} seed {seed} im[{i}]"
                        );
                    }
                    assert_eq!(
                        rng.gen::<u64>(),
                        rng_ref.gen::<u64>(),
                        "profile {p} seed {seed}: RNG state diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn ideal_profile_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = clean_packet(3, 30);
        let orig = p.clone();
        HardwareProfile::ideal().apply(&mut p, &mut rng);
        assert_eq!(p, orig);
    }

    #[test]
    fn raw_phase_becomes_uniform_across_packets() {
        // Reproduces the paper's Fig. 2 observation: raw per-packet phase is
        // uniformly spread over the circle.
        let mut rng = StdRng::seed_from_u64(1);
        let prof = HardwareProfile::default();
        let mut phases = Vec::new();
        for _ in 0..400 {
            let mut p = clean_packet(2, 30);
            prof.apply(&mut p, &mut rng);
            phases.push(p.get(0, 10).arg());
        }
        // Circular mean resultant length should be tiny for uniform phases.
        let (s, c): (f64, f64) = phases
            .iter()
            .fold((0.0, 0.0), |(s, c), &p| (s + p.sin(), c + p.cos()));
        let r = (s * s + c * c).sqrt() / phases.len() as f64;
        assert!(r < 0.15, "resultant length {r} too high for uniform phase");
    }

    #[test]
    fn cross_antenna_phase_difference_is_stable() {
        // The common CFO/PBD cancels between antennas: spread of the
        // difference must be far below the raw spread.
        let mut rng = StdRng::seed_from_u64(2);
        let prof = HardwareProfile {
            impulse_probability: 0.0,
            outlier_probability: 0.0,
            ..HardwareProfile::default()
        };
        let mut diffs = Vec::new();
        for _ in 0..300 {
            let mut p = clean_packet(2, 30);
            prof.apply(&mut p, &mut rng);
            diffs.push((p.get(0, 10) * p.get(1, 10).conj()).arg());
        }
        let (s, c): (f64, f64) = diffs
            .iter()
            .fold((0.0, 0.0), |(s, c), &p| (s + p.sin(), c + p.cos()));
        let r = (s * s + c * c).sqrt() / diffs.len() as f64;
        assert!(r > 0.95, "phase difference should concentrate, r = {r}");
    }

    #[test]
    fn impulse_noise_hits_some_packets_hard() {
        let mut rng = StdRng::seed_from_u64(3);
        let prof = HardwareProfile {
            noise_std: 0.0,
            agc_wobble_db: 0.0,
            antenna_gain_ripple_db: 0.0,
            impulse_probability: 0.5,
            outlier_probability: 0.0,
            quantize_8bit: false,
            ..HardwareProfile::default()
        };
        let mut deviations = Vec::new();
        for _ in 0..200 {
            let mut p = clean_packet(1, 30);
            prof.apply(&mut p, &mut rng);
            let amp = p.get(0, 0).abs();
            deviations.push((amp - 1.0).abs());
        }
        let hit = deviations.iter().filter(|&&d| d > 0.02).count();
        assert!(hit > 50 && hit < 160, "impulse hits = {hit}");
    }

    #[test]
    fn outliers_are_rare_and_large() {
        let mut rng = StdRng::seed_from_u64(4);
        let prof = HardwareProfile {
            noise_std: 0.0,
            agc_wobble_db: 0.0,
            antenna_gain_ripple_db: 0.0,
            impulse_probability: 0.0,
            outlier_probability: 0.2,
            quantize_8bit: false,
            ..HardwareProfile::default()
        };
        let mut outliers = 0;
        let n = 500;
        for _ in 0..n {
            let mut p = clean_packet(1, 4);
            prof.apply(&mut p, &mut rng);
            let amp = p.get(0, 0).abs();
            if !(0.5..=2.0).contains(&amp) {
                outliers += 1;
            }
        }
        let frac = outliers as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.06, "outlier fraction = {frac}");
    }

    #[test]
    fn quantization_limits_resolution_but_preserves_shape() {
        let mut p = clean_packet(2, 30);
        let orig = p.clone();
        quantize_intel5300(&mut p);
        for a in 0..2 {
            for k in 0..30 {
                let err = (p.get(a, k) - orig.get(a, k)).abs();
                assert!(err < 2.0 / 127.0, "quantisation error too large: {err}");
            }
        }
    }

    #[test]
    fn quantize_zero_packet_is_noop() {
        let mut p = CsiPacket::zeros(1, 4);
        quantize_intel5300(&mut p);
        assert_eq!(p.get(0, 0), Complex::ZERO);
    }

    #[test]
    fn agc_wobble_is_common_across_antennas() {
        // With only AGC wobble on, the ratio |H_a|/|H_b| must stay exactly 1.
        let mut rng = StdRng::seed_from_u64(5);
        let prof = HardwareProfile {
            phase_slope_std: 0.0,
            noise_std: 0.0,
            agc_wobble_db: 2.0,
            antenna_gain_ripple_db: 0.0,
            impulse_probability: 0.0,
            outlier_probability: 0.0,
            quantize_8bit: false,
            ..HardwareProfile::default()
        };
        for _ in 0..50 {
            let mut p = clean_packet(2, 4);
            prof.apply(&mut p, &mut rng);
            let ratio = p.get(0, 1).abs() / p.get(1, 1).abs();
            assert!((ratio - 1.0).abs() < 1e-9, "AGC failed to cancel: {ratio}");
        }
    }
}
