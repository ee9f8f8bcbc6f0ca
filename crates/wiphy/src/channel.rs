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
        let zig = crate::normal::tables();
        jitter.multipliers.clear();
        jitter.multipliers.reserve(self.scatterers.len());
        for s in &self.scatterers {
            let m = if !s.dynamic {
                Complex::ONE
            } else {
                let g: f64 = 1.0 + self.gain_jitter_std * crate::normal::draw(zig, rng);
                let p: f64 = self.phase_jitter_std * crate::normal::draw(zig, rng);
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

    /// Number of planes in a [`Self::band_gains`] table: the static sum
    /// and one per dynamic scatterer.
    pub(crate) fn band_planes(&self) -> usize {
        1 + (self.scatterers.len() - self.n_static)
    }

    /// Path gains of every scatterer at the receive antennas `rx` over a
    /// band, written scatterer-major into `out`: [`Self::band_planes`]
    /// planes of `n = rx.len() · wavenumbers.len()` values, each indexed
    /// `a · n_sub + k` (antenna-major, like a packet's planes).
    ///
    /// - Plane 0 holds the static scatterers' sum `Σ_static g_s·1`,
    ///   accumulated from [`Complex::ZERO`] in scatterer order. Static
    ///   scatterers never jitter (their multiplier is always
    ///   [`Complex::ONE`]) and draw nothing, so this part of every
    ///   packet's sum is constant.
    /// - Plane `1 + d` holds the `d`-th dynamic scatterer's gain
    ///   `g_s = gain · e^{−jβ_k·(d_tx→s + d_s→rx)}`, `β_k = wavenumbers[k]`
    ///   (see [`free_space_wavenumber`]).
    ///
    /// These depend only on the (fixed) geometry, so a caller generating
    /// many packets computes them once and combines each packet's jitter
    /// with [`Self::band_response_into`]. The path length does not depend
    /// on frequency, so it is computed once per (scatterer, antenna).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not `band_planes() · n`.
    pub(crate) fn band_gains(
        &self,
        tx: Point,
        rx: &[Point],
        wavenumbers: &[f64],
        out: &mut [Complex],
    ) {
        let n_sub = wavenumbers.len();
        let n = rx.len() * n_sub;
        assert_eq!(
            out.len(),
            self.band_planes() * n,
            "band gain table must hold one plane per band_planes()"
        );
        if n == 0 {
            return;
        }
        let (static_sum, dynamic_rows) = out.split_at_mut(n);
        let (static_scatterers, dynamic_scatterers) = self.scatterers.split_at(self.n_static);
        static_sum.fill(Complex::ZERO);
        for s in static_scatterers {
            for (&p, acc_row) in rx.iter().zip(static_sum.chunks_exact_mut(n_sub)) {
                let d = tx.distance_to(s.position).value() + s.position.distance_to(p).value();
                for (acc, &beta0) in acc_row.iter_mut().zip(wavenumbers) {
                    *acc += s.gain * Complex::cis(-beta0 * d) * Complex::ONE;
                }
            }
        }
        for (s, row) in dynamic_scatterers
            .iter()
            .zip(dynamic_rows.chunks_exact_mut(n))
        {
            for (&p, antenna_row) in rx.iter().zip(row.chunks_exact_mut(n_sub)) {
                let d = tx.distance_to(s.position).value() + s.position.distance_to(p).value();
                for (g, &beta0) in antenna_row.iter_mut().zip(wavenumbers) {
                    *g = s.gain * Complex::cis(-beta0 * d);
                }
            }
        }
    }

    /// One packet's multipath sum at every point of a [`Self::band_gains`]
    /// table, written into the `(re, im)` planes: the static plane, then
    /// `acc + g_d·m_d` for each dynamic scatterer's row and jitter
    /// multiplier in scatterer order. Each element sees the same
    /// operations in the same order as [`Self::response`], so the result
    /// equals it bit for bit; the rows are contiguous, so the loop runs
    /// over independent elements rather than one serial chain each.
    ///
    /// # Panics
    ///
    /// Panics if `re` and `im` differ in length, if `gains` does not hold
    /// [`Self::band_planes`] planes of that length, or if `jitter` was
    /// drawn from a channel with a different number of scatterers.
    pub(crate) fn band_response_into(
        &self,
        gains: &[Complex],
        jitter: &PacketJitter,
        re: &mut [f64],
        im: &mut [f64],
    ) {
        let n = re.len();
        assert_eq!(im.len(), n, "re and im planes must match");
        assert_eq!(
            gains.len(),
            self.band_planes() * n,
            "band gains do not match this channel"
        );
        assert_eq!(
            jitter.multipliers.len(),
            self.scatterers.len(),
            "jitter state does not match this channel"
        );
        if n == 0 {
            return;
        }
        let (static_sum, dynamic_rows) = gains.split_at(n);
        for ((r, i), g) in re.iter_mut().zip(im.iter_mut()).zip(static_sum) {
            *r = g.re;
            *i = g.im;
        }
        let dynamic_multipliers = jitter.multipliers.iter().skip(self.n_static);
        for (row, &m) in dynamic_rows.chunks_exact(n).zip(dynamic_multipliers) {
            for ((r, i), &g) in re.iter_mut().zip(im.iter_mut()).zip(row) {
                let acc = Complex::new(*r, *i) + g * m;
                *r = acc.re;
                *i = acc.im;
            }
        }
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

    /// A band of `n` subcarriers 1.875 MHz apart and its wavenumbers.
    fn band(n: usize) -> (Vec<Hertz>, Vec<f64>) {
        let freqs: Vec<Hertz> = (0..n).map(|k| Hertz(5.2e9 + 1.875e6 * k as f64)).collect();
        let wavenumbers = freqs.iter().map(|&f| free_space_wavenumber(f)).collect();
        (freqs, wavenumbers)
    }

    #[test]
    fn band_response_matches_direct_response_bitwise() {
        let (tx, _) = link();
        let (freqs, wavenumbers) = band(30);
        let rx = [
            Point::new(2.0, -0.029),
            Point::new(2.0, 0.0),
            Point::new(2.0, 0.029),
            Point::new(3.1, 0.4),
        ];
        let n = rx.len() * freqs.len();
        for (seed, env) in Environment::ALL.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed as u64 + 5);
            let ch = MultipathChannel::realize(env, tx, Point::new(2.0, 0.0), &mut rng);
            let mut gains = vec![Complex::ZERO; ch.band_planes() * n];
            ch.band_gains(tx, &rx, &wavenumbers, &mut gains);
            let (mut re, mut im) = (vec![0.0; n], vec![0.0; n]);
            for packet in 0..8 {
                let j = if packet == 0 {
                    static_jitter(&ch)
                } else {
                    draw_jitter(&ch, &mut rng)
                };
                ch.band_response_into(&gains, &j, &mut re, &mut im);
                for (a, &p) in rx.iter().enumerate() {
                    for (k, &f) in freqs.iter().enumerate() {
                        let direct = ch.response(tx, p, f, &j, None);
                        let i = a * freqs.len() + k;
                        assert_eq!(re[i].to_bits(), direct.re.to_bits(), "{env} a={a} k={k}");
                        assert_eq!(im[i].to_bits(), direct.im.to_bits(), "{env} a={a} k={k}");
                    }
                }
            }
        }
    }

    /// Verbatim copy of the per-frequency `path_gains` the band tables
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
        let (freqs, wavenumbers) = band(30);
        let rx = [
            Point::new(2.0, -0.029),
            Point::new(2.0, 0.0),
            Point::new(3.1, 0.4),
        ];
        let n_sub = freqs.len();
        let n = rx.len() * n_sub;
        for (seed, env) in Environment::ALL.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed as u64 + 40);
            let ch = MultipathChannel::realize(env, tx, Point::new(2.0, 0.0), &mut rng);
            let mut table = vec![Complex::ZERO; ch.band_planes() * n];
            ch.band_gains(tx, &rx, &wavenumbers, &mut table);
            let mut los = vec![Complex::ZERO; n_sub];
            for (a, &p) in rx.iter().enumerate() {
                los_response(tx, p, &wavenumbers, Meters(2.0), &mut los);
                for (k, &f) in freqs.iter().enumerate() {
                    let i = a * n_sub + k;
                    let reference = reference_path_gains(&ch, tx, p, f);
                    let (statics, dynamics) = reference.split_at(ch.n_static);
                    let sum = statics
                        .iter()
                        .fold(Complex::ZERO, |acc, g| acc + *g * Complex::ONE);
                    let got = table[i];
                    assert_eq!(
                        got.re.to_bits(),
                        sum.re.to_bits(),
                        "{env} static a={a} k={k}"
                    );
                    assert_eq!(
                        got.im.to_bits(),
                        sum.im.to_bits(),
                        "{env} static a={a} k={k}"
                    );
                    for (d, g) in dynamics.iter().enumerate() {
                        let got = table[(1 + d) * n + i];
                        assert_eq!(got.re.to_bits(), g.re.to_bits(), "{env} a={a} k={k} d={d}");
                        assert_eq!(got.im.to_bits(), g.im.to_bits(), "{env} a={a} k={k} d={d}");
                    }
                    let want = reference_los_response(tx, p, f, Meters(2.0));
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
