//! Indoor multipath channel model.
//!
//! Each deployment environment (empty hall / lab / library, paper §IV) is a
//! set of static scatterers scattered around the link plus a LoS ray. Every
//! scatterer contributes a delayed, attenuated copy of the signal whose
//! phase depends on the actual tx→scatterer→rx path length — so different
//! receive antennas and different subcarriers see different multipath sums,
//! which is exactly the frequency diversity WiMi's "good subcarrier"
//! selection exploits (paper Fig. 6).
//!
//! Scatterers also jitter slightly from packet to packet (people moving,
//! fans, door reflections), which is what turns subcarrier-dependent
//! multipath into subcarrier-dependent phase-difference *variance*.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::complex::Complex;
use crate::geometry::Point;
use crate::units::{Hertz, Meters};
use rand::Rng;

/// Deployment environments of the paper, ordered by multipath richness.
///
/// Multipath is modelled as two scatterer populations: a **static** one
/// (walls, furniture — frequency-selective, biases both captures the same
/// way) and a **dynamic** one (people, fans, swinging doors — its phase
/// churns from packet to packet, so averaging over packets suppresses it;
/// this is exactly why the paper's accuracy grows with packet count,
/// Fig. 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// Empty hall: low multipath.
    EmptyHall,
    /// Laboratory/office: medium multipath.
    Lab,
    /// Library: high multipath.
    Library,
}

impl Environment {
    /// All three environments in increasing multipath order.
    pub const ALL: [Environment; 3] = [
        Environment::EmptyHall,
        Environment::Lab,
        Environment::Library,
    ];

    /// Human-readable name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Environment::EmptyHall => "Hall",
            Environment::Lab => "Lab",
            Environment::Library => "Library",
        }
    }

    /// Tunable multipath profile for this environment.
    pub fn profile(self) -> EnvironmentProfile {
        match self {
            Environment::EmptyHall => EnvironmentProfile {
                n_static: 3,
                static_to_los_db: -52.0,
                n_dynamic: 3,
                dynamic_to_los_db: -40.0,
                phase_jitter_std: 2.0,
                gain_jitter_std: 0.10,
            },
            Environment::Lab => EnvironmentProfile {
                n_static: 6,
                static_to_los_db: -48.0,
                n_dynamic: 6,
                dynamic_to_los_db: -36.0,
                phase_jitter_std: 2.2,
                gain_jitter_std: 0.15,
            },
            Environment::Library => EnvironmentProfile {
                n_static: 10,
                static_to_los_db: -44.0,
                n_dynamic: 10,
                dynamic_to_los_db: -31.0,
                phase_jitter_std: 2.4,
                gain_jitter_std: 0.20,
            },
        }
    }
}

impl std::fmt::Display for Environment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Numeric multipath parameters of an [`Environment`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvironmentProfile {
    /// Number of static scatterers (furniture, walls).
    pub n_static: usize,
    /// Total static-scatterer power relative to the LoS, dB.
    pub static_to_los_db: f64,
    /// Number of dynamic scatterers (people, fans).
    pub n_dynamic: usize,
    /// Total dynamic-scatterer power relative to the LoS, dB.
    pub dynamic_to_los_db: f64,
    /// Per-packet phase jitter of each *dynamic* scatterer, radians (std
    /// dev). Values ≳ 2 rad make the dynamic population nearly zero-mean,
    /// so packet averaging suppresses it.
    pub phase_jitter_std: f64,
    /// Per-packet fractional gain jitter of each dynamic scatterer.
    pub gain_jitter_std: f64,
}

/// A single point scatterer: position, complex gain, and mobility class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scatterer {
    /// Position in the deployment plane.
    pub position: Point,
    /// Static complex gain (relative to a unit-amplitude LoS).
    pub gain: Complex,
    /// Whether this scatterer jitters per packet.
    pub dynamic: bool,
}

/// A realised multipath channel: a fixed scatterer constellation for one
/// deployment, plus the jitter parameters that animate it per packet.
#[derive(Debug, Clone, PartialEq)]
pub struct MultipathChannel {
    /// Static scatterers first, then dynamic ones.
    scatterers: Vec<Scatterer>,
    /// Number of static scatterers leading `scatterers`.
    n_static: usize,
    phase_jitter_std: f64,
    gain_jitter_std: f64,
}

/// Per-packet multipath state: one complex jitter multiplier per scatterer.
///
/// Drawn once per packet and shared by every antenna and subcarrier of that
/// packet, as physical scatterer motion would be.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketJitter {
    multipliers: Vec<Complex>,
}

impl PacketJitter {
    /// An empty jitter state, used as the reusable scratch target of
    /// [`MultipathChannel::draw_jitter_into`].
    pub fn empty() -> PacketJitter {
        PacketJitter {
            multipliers: Vec::new(),
        }
    }
}

impl MultipathChannel {
    /// Realises a channel for an environment around a link from `tx` to the
    /// neighbourhood of `rx_center`, using `rng` for scatterer placement.
    ///
    /// Scatterers are placed uniformly in a rectangle extending 2 m beyond
    /// the link on each side, excluding a 30 cm corridor around the LoS so
    /// the direct path stays distinct.
    pub fn realize<R: Rng + ?Sized>(
        env: Environment,
        tx: Point,
        rx_center: Point,
        rng: &mut R,
    ) -> Self {
        let prof = env.profile();
        let min_x = tx.x.min(rx_center.x) - 2.0;
        let max_x = tx.x.max(rx_center.x) + 2.0;
        let span_y = 2.5;

        let total = prof.n_static + prof.n_dynamic;
        let mut scatterers = Vec::with_capacity(total);
        while scatterers.len() < total {
            let dynamic = scatterers.len() >= prof.n_static;
            // Dynamic power is heterogeneous: the first dynamic scatterer
            // (the person walking closest to the link) dominates, the rest
            // taper geometrically. This makes the per-subcarrier phase
            // variance frequency-selective — the structure good-subcarrier
            // selection exploits (paper Fig. 6).
            let per_amp = if dynamic {
                let idx = scatterers.len() - prof.n_static;
                let total_amp = 10f64.powf(prof.dynamic_to_los_db / 20.0);
                let weight: f64 = 0.5f64.powi(idx as i32);
                let norm: f64 = (0..prof.n_dynamic)
                    .map(|i| 0.25f64.powi(i as i32))
                    .sum::<f64>()
                    .sqrt();
                total_amp * weight / norm
            } else {
                10f64.powf(prof.static_to_los_db / 20.0) / (prof.n_static as f64).sqrt()
            };
            let x: f64 = rng.gen_range(min_x..max_x);
            let y: f64 = rng.gen_range(-span_y..span_y);
            // Keep scatterers off the LoS corridor.
            if y.abs() < 0.3 {
                continue;
            }
            // Rayleigh-like gain: complex Gaussian around the target power.
            let g = Complex::new(
                per_amp * rng.sample(StandardNormal) / std::f64::consts::SQRT_2,
                per_amp * rng.sample(StandardNormal) / std::f64::consts::SQRT_2,
            );
            scatterers.push(Scatterer {
                position: Point::new(x, y),
                gain: g,
                dynamic,
            });
        }
        MultipathChannel {
            scatterers,
            n_static: prof.n_static,
            phase_jitter_std: prof.phase_jitter_std,
            gain_jitter_std: prof.gain_jitter_std,
        }
    }

    /// The realised scatterers.
    pub fn scatterers(&self) -> &[Scatterer] {
        &self.scatterers
    }

    /// Draws the per-packet jitter state into a caller-owned one, reusing
    /// its multiplier buffer: static scatterers stay put, dynamic ones get
    /// a fresh phase/gain perturbation.
    pub fn draw_jitter_into<R: Rng + ?Sized>(&self, rng: &mut R, jitter: &mut PacketJitter) {
        jitter.multipliers.clear();
        jitter.multipliers.reserve(self.scatterers.len());
        for s in &self.scatterers {
            let m = if !s.dynamic {
                Complex::ONE
            } else {
                let g: f64 = 1.0 + self.gain_jitter_std * rng.sample(StandardNormal);
                let p: f64 = self.phase_jitter_std * rng.sample(StandardNormal);
                Complex::from_polar(g.max(0.0), p)
            };
            jitter.multipliers.push(m);
        }
    }

    /// Sum of all scatterer contributions at one receive antenna and
    /// frequency, given this packet's jitter and a per-scatterer extra
    /// multiplier (e.g. through-target insertion on the scattered path).
    ///
    /// The phase of each path is `−β₀·(d_tx→s + d_s→rx)` with `β₀ = ω/c`.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` was drawn from a channel with a different number
    /// of scatterers, or if `extra` (when `Some`) has the wrong length.
    #[expect(
        clippy::indexing_slicing,
        reason = "jitter and extra are asserted to hold one entry per scatterer, and n enumerates the scatterers"
    )]
    pub fn response(
        &self,
        tx: Point,
        rx: Point,
        f: Hertz,
        jitter: &PacketJitter,
        extra: Option<&[Complex]>,
    ) -> Complex {
        assert_eq!(
            jitter.multipliers.len(),
            self.scatterers.len(),
            "jitter state does not match this channel"
        );
        if let Some(extra) = extra {
            assert_eq!(
                extra.len(),
                self.scatterers.len(),
                "extra multipliers must be per-scatterer"
            );
        }
        let beta0 = free_space_wavenumber(f);
        self.scatterers
            .iter()
            .enumerate()
            .map(|(n, s)| {
                let d = tx.distance_to(s.position).value() + s.position.distance_to(rx).value();
                let mut h = s.gain * Complex::cis(-beta0 * d) * jitter.multipliers[n];
                if let Some(extra) = extra {
                    h *= extra[n];
                }
                h
            })
            .sum()
    }

    /// Static per-scatterer path gains at one receive antenna over a band,
    /// written subcarrier-major into `out`:
    /// `out[k·n + s] = gain_s · e^{−jβ_k·(d_tx→s + d_s→rx)}` for `n`
    /// scatterers, with `β_k = wavenumbers[k]` (see
    /// [`free_space_wavenumber`]). These depend only on the (fixed)
    /// geometry, so a caller generating many packets computes them once,
    /// folds them ([`Self::fold_static`]) and combines each packet's jitter
    /// with [`Self::response_from_folded`].
    /// The path length does not depend on frequency, so it is computed
    /// once per scatterer rather than once per (scatterer, subcarrier).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not `wavenumbers.len()` times the number
    /// of scatterers.
    #[expect(
        clippy::indexing_slicing,
        reason = "out is asserted to hold wavenumbers.len()·n gains, and k < wavenumbers.len(), i < n"
    )]
    pub fn path_gains(&self, tx: Point, rx: Point, wavenumbers: &[f64], out: &mut [Complex]) {
        let n = self.scatterers.len();
        assert_eq!(
            out.len(),
            wavenumbers.len() * n,
            "path gain plane must hold subcarriers × scatterers"
        );
        for (i, s) in self.scatterers.iter().enumerate() {
            let d = tx.distance_to(s.position).value() + s.position.distance_to(rx).value();
            for (k, &beta0) in wavenumbers.iter().enumerate() {
                out[k * n + i] = s.gain * Complex::cis(-beta0 * d);
            }
        }
    }

    /// Folds the static scatterers' share of a [`Self::path_gains`] plane
    /// once, in place. Static scatterers lead the list, never jitter
    /// (their multiplier is always [`Complex::ONE`]) and draw nothing from
    /// the RNG, so their part of every packet's sum is constant: each row
    /// of one gain per scatterer gets `Σ_static g·1` in its first slot,
    /// summed from [`Complex::ZERO`] in scatterer order exactly as the
    /// per-packet sum would.
    ///
    /// # Panics
    ///
    /// Panics if the plane does not hold whole rows of one gain per
    /// scatterer.
    #[expect(
        clippy::indexing_slicing,
        reason = "n_static > 0 leaves rows of n ≥ n_static gains, so row[0] and row[..n_static] exist"
    )]
    pub fn fold_static(&self, gains: &mut [Complex]) {
        if self.n_static == 0 {
            return;
        }
        let n = self.scatterers.len();
        assert!(
            gains.len().is_multiple_of(n),
            "path gain plane must hold whole scatterer rows"
        );
        for row in gains.chunks_exact_mut(n) {
            row[0] = row[..self.n_static]
                .iter()
                .fold(Complex::ZERO, |acc, g| acc + *g * Complex::ONE);
        }
    }

    /// Combines one row of [`Self::fold_static`]-folded path gains with a
    /// packet's jitter, continuing the folded static sum over the dynamic
    /// scatterers only; equals `response(tx, rx, f, jitter, None)` for the
    /// same geometry, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `gains` or `jitter` were built from a channel with a
    /// different number of scatterers.
    #[expect(
        clippy::indexing_slicing,
        reason = "both lengths are asserted equal to the scatterer count, and n_static ≤ that count by construction"
    )]
    pub fn response_from_folded(&self, gains: &[Complex], jitter: &PacketJitter) -> Complex {
        assert_eq!(
            gains.len(),
            self.scatterers.len(),
            "path gains do not match this channel"
        );
        assert_eq!(
            jitter.multipliers.len(),
            self.scatterers.len(),
            "jitter state does not match this channel"
        );
        let start = if self.n_static == 0 {
            Complex::ZERO
        } else {
            gains[0]
        };
        gains[self.n_static..]
            .iter()
            .zip(&jitter.multipliers[self.n_static..])
            .fold(start, |acc, (g, m)| acc + *g * *m)
    }
}

/// Free-space wavenumber `β₀ = ω/c` of frequency `f`, radians per metre.
pub fn free_space_wavenumber(f: Hertz) -> f64 {
    f.angular() / crate::constants::SPEED_OF_LIGHT
}

/// Free-space LoS response over a band (unit amplitude at the reference
/// distance): `out[k] = e^{−jβ_k·d}·(d_ref/d)`, with `β_k = wavenumbers[k]`,
/// so amplitude is normalised to 1 at `d = d_ref`. The distance and the
/// amplitude factor are computed once for the whole band.
///
/// # Panics
///
/// Panics if `out` and `wavenumbers` differ in length.
pub fn los_response(tx: Point, rx: Point, wavenumbers: &[f64], d_ref: Meters, out: &mut [Complex]) {
    assert_eq!(
        out.len(),
        wavenumbers.len(),
        "one LoS response per subcarrier"
    );
    let d = tx.distance_to(rx).value();
    let amplitude = d_ref.value() / d;
    for (h, &beta0) in out.iter_mut().zip(wavenumbers) {
        *h = Complex::cis(-beta0 * d) * amplitude;
    }
}

pub use crate::normal::StandardNormal;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const F: Hertz = Hertz(5.24e9);

    /// A jitter state that leaves the channel static.
    fn draw_jitter<R: Rng + ?Sized>(ch: &MultipathChannel, rng: &mut R) -> PacketJitter {
        let mut jitter = PacketJitter {
            multipliers: Vec::new(),
        };
        ch.draw_jitter_into(rng, &mut jitter);
        jitter
    }

    fn static_jitter(ch: &MultipathChannel) -> PacketJitter {
        PacketJitter {
            multipliers: vec![Complex::ONE; ch.scatterers.len()],
        }
    }

    fn link() -> (Point, Point) {
        (Point::new(0.0, 0.0), Point::new(2.0, 0.0))
    }

    #[test]
    fn environments_order_by_richness() {
        let dynamic: Vec<f64> = Environment::ALL
            .iter()
            .map(|e| e.profile().dynamic_to_los_db)
            .collect();
        assert!(dynamic[0] < dynamic[1] && dynamic[1] < dynamic[2]);
        let static_db: Vec<f64> = Environment::ALL
            .iter()
            .map(|e| e.profile().static_to_los_db)
            .collect();
        assert!(static_db[0] < static_db[1] && static_db[1] < static_db[2]);
        let counts: Vec<usize> = Environment::ALL
            .iter()
            .map(|e| e.profile().n_static + e.profile().n_dynamic)
            .collect();
        assert!(counts[0] < counts[1] && counts[1] < counts[2]);
    }

    #[test]
    fn realize_places_requested_scatterers_off_los() {
        let (tx, rx) = link();
        let mut rng = StdRng::seed_from_u64(7);
        let ch = MultipathChannel::realize(Environment::Library, tx, rx, &mut rng);
        let prof = Environment::Library.profile();
        assert_eq!(ch.scatterers().len(), prof.n_static + prof.n_dynamic);
        assert_eq!(
            ch.scatterers().iter().filter(|s| s.dynamic).count(),
            prof.n_dynamic
        );
        for s in ch.scatterers() {
            assert!(s.position.y.abs() >= 0.3, "scatterer on the LoS corridor");
        }
    }

    #[test]
    fn static_scatterers_never_jitter() {
        let (tx, rx) = link();
        let mut rng = StdRng::seed_from_u64(11);
        let ch = MultipathChannel::realize(Environment::Lab, tx, rx, &mut rng);
        let j = draw_jitter(&ch, &mut rng);
        for (s, m) in ch.scatterers().iter().zip(&j.multipliers) {
            if !s.dynamic {
                assert_eq!(*m, Complex::ONE);
            }
        }
    }

    #[test]
    fn multipath_power_tracks_environment() {
        let (tx, rx) = link();
        let mut rng = StdRng::seed_from_u64(3);
        // Average response power over many realizations per environment.
        let mut avg = |env: Environment| -> f64 {
            let mut acc = 0.0;
            let n = 60;
            for _ in 0..n {
                let ch = MultipathChannel::realize(env, tx, rx, &mut rng);
                let j = static_jitter(&ch);
                acc += ch.response(tx, rx, F, &j, None).norm_sqr();
            }
            acc / n as f64
        };
        let hall = avg(Environment::EmptyHall);
        let library = avg(Environment::Library);
        assert!(
            library > 3.0 * hall,
            "library ({library:.4}) should be much richer than hall ({hall:.4})"
        );
    }

    #[test]
    fn cached_path_gains_reproduce_direct_response() {
        let (tx, rx) = link();
        for (seed, env) in Environment::ALL.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed as u64 + 5);
            let ch = MultipathChannel::realize(env, tx, rx, &mut rng);
            let mut gains = vec![Complex::ZERO; ch.scatterers().len()];
            ch.path_gains(tx, rx, &[free_space_wavenumber(F)], &mut gains);
            ch.fold_static(&mut gains);
            for _ in 0..8 {
                let j = draw_jitter(&ch, &mut rng);
                let direct = ch.response(tx, rx, F, &j, None);
                let cached = ch.response_from_folded(&gains, &j);
                assert_eq!(direct.re.to_bits(), cached.re.to_bits(), "{env}");
                assert_eq!(direct.im.to_bits(), cached.im.to_bits(), "{env}");
            }
        }
    }

    /// Verbatim copy of the per-frequency `path_gains` the band version
    /// replaced: it recomputed every scatterer's path length per call.
    fn reference_path_gains(ch: &MultipathChannel, tx: Point, rx: Point, f: Hertz) -> Vec<Complex> {
        let beta0 = f.angular() / crate::constants::SPEED_OF_LIGHT;
        ch.scatterers
            .iter()
            .map(|s| {
                let d = tx.distance_to(s.position).value() + s.position.distance_to(rx).value();
                s.gain * Complex::cis(-beta0 * d)
            })
            .collect()
    }

    /// Verbatim copy of the per-frequency `los_response` the band version
    /// replaced.
    fn reference_los_response(tx: Point, rx: Point, f: Hertz, d_ref: Meters) -> Complex {
        let d = tx.distance_to(rx).value();
        let beta0 = f.angular() / crate::constants::SPEED_OF_LIGHT;
        Complex::cis(-beta0 * d) * (d_ref.value() / d)
    }

    #[test]
    fn band_gains_match_per_frequency_reference_bitwise() {
        let tx = Point::new(0.0, 0.0);
        let freqs: Vec<Hertz> = (0..30).map(|k| Hertz(5.2e9 + 1.875e6 * k as f64)).collect();
        let wavenumbers: Vec<f64> = freqs.iter().map(|&f| free_space_wavenumber(f)).collect();
        for (seed, env) in Environment::ALL.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed as u64 + 40);
            let ch = MultipathChannel::realize(env, tx, Point::new(2.0, 0.0), &mut rng);
            let n = ch.scatterers().len();
            for rx in [
                Point::new(2.0, -0.029),
                Point::new(2.0, 0.0),
                Point::new(3.1, 0.4),
            ] {
                let mut plane = vec![Complex::ZERO; freqs.len() * n];
                ch.path_gains(tx, rx, &wavenumbers, &mut plane);
                let mut los = vec![Complex::ZERO; freqs.len()];
                los_response(tx, rx, &wavenumbers, Meters(2.0), &mut los);
                for (k, &f) in freqs.iter().enumerate() {
                    let reference = reference_path_gains(&ch, tx, rx, f);
                    for (s, g) in reference.iter().enumerate() {
                        let got = plane[k * n + s];
                        assert_eq!(got.re.to_bits(), g.re.to_bits(), "{env} k={k} s={s}");
                        assert_eq!(got.im.to_bits(), g.im.to_bits(), "{env} k={k} s={s}");
                    }
                    let want = reference_los_response(tx, rx, f, Meters(2.0));
                    assert_eq!(los[k].re.to_bits(), want.re.to_bits(), "LoS k={k}");
                    assert_eq!(los[k].im.to_bits(), want.im.to_bits(), "LoS k={k}");
                }
            }
        }
    }

    #[test]
    fn static_jitter_makes_response_deterministic() {
        let (tx, rx) = link();
        let mut rng = StdRng::seed_from_u64(1);
        let ch = MultipathChannel::realize(Environment::Lab, tx, rx, &mut rng);
        let j = static_jitter(&ch);
        let a = ch.response(tx, rx, F, &j, None);
        let b = ch.response(tx, rx, F, &j, None);
        assert_eq!(a, b);
    }

    #[test]
    fn jitter_perturbs_response_slightly() {
        let (tx, rx) = link();
        let mut rng = StdRng::seed_from_u64(2);
        let ch = MultipathChannel::realize(Environment::Lab, tx, rx, &mut rng);
        let frozen = static_jitter(&ch);
        let base = ch.response(tx, rx, F, &frozen, None);
        let jittered = draw_jitter(&ch, &mut rng);
        let moved = ch.response(tx, rx, F, &jittered, None);
        let delta = (moved - base).abs();
        assert!(delta > 0.0, "jitter had no effect");
        assert!(delta < base.abs() + 0.5, "jitter unreasonably large");
    }

    #[test]
    fn response_differs_across_antennas_and_subcarriers() {
        let (tx, rx) = link();
        let mut rng = StdRng::seed_from_u64(5);
        let ch = MultipathChannel::realize(Environment::Library, tx, rx, &mut rng);
        let j = static_jitter(&ch);
        let h1 = ch.response(tx, Point::new(2.0, 0.0), F, &j, None);
        let h2 = ch.response(tx, Point::new(2.0, 0.029), F, &j, None);
        assert!((h1 - h2).abs() > 1e-6, "antennas should decorrelate");
        let f2 = Hertz(F.value() + 8.75e6);
        let h3 = ch.response(tx, Point::new(2.0, 0.0), f2, &j, None);
        assert!((h1 - h3).abs() > 1e-6, "subcarriers should decorrelate");
    }

    #[test]
    fn los_normalisation() {
        let (tx, rx) = link();
        let beta = [free_space_wavenumber(F)];
        let mut h = [Complex::ZERO];
        los_response(tx, rx, &beta, Meters(2.0), &mut h);
        assert!((h[0].abs() - 1.0).abs() < 1e-12);
        los_response(tx, Point::new(4.0, 0.0), &beta, Meters(2.0), &mut h);
        assert!((h[0].abs() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "jitter state")]
    fn response_rejects_foreign_jitter() {
        let (tx, rx) = link();
        let mut rng = StdRng::seed_from_u64(9);
        let a = MultipathChannel::realize(Environment::EmptyHall, tx, rx, &mut rng);
        let b = MultipathChannel::realize(Environment::Library, tx, rx, &mut rng);
        let j = static_jitter(&b);
        let _ = a.response(tx, rx, F, &j, None);
    }
}
