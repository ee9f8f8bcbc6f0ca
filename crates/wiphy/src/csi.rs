//! CSI packet and capture containers.
//!
//! A [`CsiPacket`] is what one received Wi-Fi frame yields: a complex
//! channel estimate per (receive antenna × subcarrier). A [`CsiCapture`] is
//! a time-ordered sequence of packets, the unit the WiMi pipeline consumes.
//!
//! # Data layout
//!
//! `CsiCapture` stores its packets structure-of-arrays: two flat `f64`
//! planes (real and imaginary) indexed `(m · n_antennas + a) ·
//! n_subcarriers + k` for packet `m`, antenna `a`, subcarrier `k`. One
//! packet's antenna row is therefore a contiguous lane of `n_subcarriers`
//! elements in each plane — the unit the simulator writes and the hardware
//! and fault injectors mutate — while a per-packet time series strides by
//! `n_antennas · n_subcarriers`. [`CsiPacket`] keeps the original
//! array-of-structs `Vec<Complex>` shape for single-frame construction and
//! as the reference layout the equivalence tests compare against.

#![deny(clippy::cast_possible_truncation)]

use crate::complex::Complex;

/// The magnitude `|H| = √(re² + im²)` of one channel estimate: the one
/// definition every CSI amplitude accessor shares.
///
/// It differs from [`Complex::abs`]'s `hypot` by rounding only, within
/// two units in the last place, at a fraction of the cost. Where
/// `re² + im²` is not a normal number (zero, subnormal or overflowed) the
/// square root would lose precision or range, so it takes `hypot` there
/// instead.
#[inline]
pub fn magnitude(re: f64, im: f64) -> f64 {
    let sq = re * re + im * im;
    if sq.is_normal() {
        sq.sqrt()
    } else {
        re.hypot(im)
    }
}

/// The direction of `z = re + j·im` as a unit phasor `(cos ∠z, sin ∠z)`
/// (see [`CsiCapture::phase_difference_phasors`]).
#[inline]
fn unit_phasor(re: f64, im: f64) -> (f64, f64) {
    let sq = re * re + im * im;
    if sq.is_normal() {
        let r = sq.sqrt();
        (re / r, im / r)
    } else {
        let (sin, cos) = im.atan2(re).sin_cos();
        (cos, sin)
    }
}

/// CSI for a single received packet: `n_antennas × n_subcarriers` complex
/// channel estimates, stored row-major by antenna.
#[derive(Debug, Clone, PartialEq)]
pub struct CsiPacket {
    n_antennas: usize,
    n_subcarriers: usize,
    data: Vec<Complex>,
}

impl CsiPacket {
    /// Creates a packet from row-major data (antenna-major).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n_antennas * n_subcarriers` or either
    /// dimension is zero.
    pub fn new(n_antennas: usize, n_subcarriers: usize, data: Vec<Complex>) -> Self {
        assert!(n_antennas > 0, "packet needs at least one antenna");
        assert!(n_subcarriers > 0, "packet needs at least one subcarrier");
        assert_eq!(
            data.len(),
            n_antennas * n_subcarriers,
            "CSI data length must equal antennas × subcarriers"
        );
        CsiPacket {
            n_antennas,
            n_subcarriers,
            data,
        }
    }

    /// Creates an all-zero packet (useful as an accumulator).
    pub fn zeros(n_antennas: usize, n_subcarriers: usize) -> Self {
        Self::new(
            n_antennas,
            n_subcarriers,
            vec![Complex::ZERO; n_antennas * n_subcarriers],
        )
    }

    /// Number of receive antennas.
    pub fn n_antennas(&self) -> usize {
        self.n_antennas
    }

    /// Number of subcarriers.
    pub fn n_subcarriers(&self) -> usize {
        self.n_subcarriers
    }

    /// Channel estimate for `(antenna, subcarrier)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn get(&self, antenna: usize, subcarrier: usize) -> Complex {
        assert!(antenna < self.n_antennas, "antenna index out of bounds");
        assert!(
            subcarrier < self.n_subcarriers,
            "subcarrier index out of bounds"
        );
        self.data[antenna * self.n_subcarriers + subcarrier]
    }

    /// Mutable access to one channel estimate.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn get_mut(&mut self, antenna: usize, subcarrier: usize) -> &mut Complex {
        assert!(antenna < self.n_antennas, "antenna index out of bounds");
        assert!(
            subcarrier < self.n_subcarriers,
            "subcarrier index out of bounds"
        );
        &mut self.data[antenna * self.n_subcarriers + subcarrier]
    }

    /// The CSI row of one antenna across all subcarriers.
    ///
    /// # Panics
    ///
    /// Panics if `antenna` is out of bounds.
    pub fn antenna_row(&self, antenna: usize) -> &[Complex] {
        assert!(antenna < self.n_antennas, "antenna index out of bounds");
        let start = antenna * self.n_subcarriers;
        &self.data[start..start + self.n_subcarriers]
    }

    /// Amplitudes [`magnitude`] of one antenna across all subcarriers.
    pub fn amplitudes(&self, antenna: usize) -> Vec<f64> {
        self.antenna_row(antenna)
            .iter()
            .map(|h| magnitude(h.re, h.im))
            .collect()
    }

    /// Phases `∠H` of one antenna across all subcarriers.
    pub fn phases(&self, antenna: usize) -> Vec<f64> {
        self.antenna_row(antenna).iter().map(|h| h.arg()).collect()
    }

    /// `true` when every channel estimate has finite real and imaginary
    /// parts.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|h| h.is_finite())
    }

    /// A copy holding only the antennas in `keep`, in the given order.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is empty or names an out-of-bounds antenna.
    pub fn select_antennas(&self, keep: &[usize]) -> CsiPacket {
        assert!(!keep.is_empty(), "must keep at least one antenna");
        let mut data = Vec::with_capacity(keep.len() * self.n_subcarriers);
        for &a in keep {
            data.extend_from_slice(self.antenna_row(a));
        }
        CsiPacket::new(keep.len(), self.n_subcarriers, data)
    }
}

/// A time-ordered CSI capture: every packet has identical dimensions,
/// stored as flat structure-of-arrays real/imaginary `f64` planes (see the
/// module docs for the layout).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CsiCapture {
    n_packets: usize,
    n_antennas: usize,
    n_subcarriers: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl CsiCapture {
    /// Creates an empty capture.
    pub fn new() -> Self {
        CsiCapture::default()
    }

    /// Creates an all-zero capture of the given dimensions, ready for the
    /// simulator to fill packet by packet.
    ///
    /// # Panics
    ///
    /// Panics if `n_packets > 0` while either per-packet dimension is zero.
    pub fn zeros(n_packets: usize, n_antennas: usize, n_subcarriers: usize) -> Self {
        // Zero packets is the canonical empty capture regardless of the
        // requested per-packet dimensions, so `zeros(0, a, k) == new()`.
        if n_packets == 0 {
            return CsiCapture::new();
        }
        assert!(n_antennas > 0, "packet needs at least one antenna");
        assert!(n_subcarriers > 0, "packet needs at least one subcarrier");
        let len = n_packets * n_antennas * n_subcarriers;
        CsiCapture {
            n_packets,
            n_antennas,
            n_subcarriers,
            re: vec![0.0; len],
            im: vec![0.0; len],
        }
    }

    /// Creates a capture from packets.
    ///
    /// # Panics
    ///
    /// Panics if packets have inconsistent dimensions.
    pub fn from_packets(packets: Vec<CsiPacket>) -> Self {
        let mut cap = CsiCapture::new();
        for p in packets {
            cap.push(p);
        }
        cap
    }

    /// Appends a packet (copying it into the flat planes).
    ///
    /// # Panics
    ///
    /// Panics if the packet's dimensions differ from packets already held.
    pub fn push(&mut self, packet: CsiPacket) {
        if self.n_packets == 0 {
            self.n_antennas = packet.n_antennas();
            self.n_subcarriers = packet.n_subcarriers();
        } else {
            assert_eq!(
                (self.n_antennas, self.n_subcarriers),
                (packet.n_antennas(), packet.n_subcarriers()),
                "packet dimensions must match the capture"
            );
        }
        self.re.reserve(packet.data.len());
        self.im.reserve(packet.data.len());
        for h in &packet.data {
            self.re.push(h.re);
            self.im.push(h.im);
        }
        self.n_packets += 1;
    }

    /// Number of packets captured.
    pub fn len(&self) -> usize {
        self.n_packets
    }

    /// Returns `true` when no packets have been captured.
    pub fn is_empty(&self) -> bool {
        self.n_packets == 0
    }

    /// Number of antennas per packet (0 if empty).
    pub fn n_antennas(&self) -> usize {
        if self.n_packets == 0 {
            0
        } else {
            self.n_antennas
        }
    }

    /// Number of subcarriers per packet (0 if empty).
    pub fn n_subcarriers(&self) -> usize {
        if self.n_packets == 0 {
            0
        } else {
            self.n_subcarriers
        }
    }

    /// Flat plane index of `(packet, antenna, subcarrier)`.
    #[inline]
    fn idx(&self, m: usize, a: usize, k: usize) -> usize {
        (m * self.n_antennas + a) * self.n_subcarriers + k
    }

    /// Channel estimate for `(packet, antenna, subcarrier)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[inline]
    pub fn get(&self, m: usize, antenna: usize, subcarrier: usize) -> Complex {
        assert!(m < self.n_packets, "packet index out of bounds");
        assert!(antenna < self.n_antennas, "antenna index out of bounds");
        assert!(
            subcarrier < self.n_subcarriers,
            "subcarrier index out of bounds"
        );
        let i = self.idx(m, antenna, subcarrier);
        Complex::new(self.re[i], self.im[i])
    }

    /// Packet at time index `m`, materialised into the array-of-structs
    /// [`CsiPacket`] shape (a copy — intended for tests and cold paths;
    /// hot paths read the planes).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of bounds.
    pub fn packet(&self, m: usize) -> CsiPacket {
        assert!(m < self.n_packets, "packet index out of bounds");
        let start = self.idx(m, 0, 0);
        let len = self.n_antennas * self.n_subcarriers;
        let data: Vec<Complex> = self.re[start..start + len]
            .iter()
            .zip(&self.im[start..start + len])
            .map(|(&re, &im)| Complex::new(re, im))
            .collect();
        CsiPacket::new(self.n_antennas, self.n_subcarriers, data)
    }

    /// Iterates over materialised packets in time order (copies; see
    /// [`CsiCapture::packet`]).
    pub fn packets(&self) -> impl Iterator<Item = CsiPacket> + '_ {
        (0..self.n_packets).map(|m| self.packet(m))
    }

    /// One antenna's contiguous subcarrier lane of packet `m`, as
    /// `(re, im)` plane slices of length `n_subcarriers`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    fn packet_row(&self, m: usize, antenna: usize) -> (&[f64], &[f64]) {
        assert!(m < self.n_packets, "packet index out of bounds");
        assert!(antenna < self.n_antennas, "antenna index out of bounds");
        let start = self.idx(m, antenna, 0);
        let end = start + self.n_subcarriers;
        (&self.re[start..end], &self.im[start..end])
    }

    /// Mutable access to one whole packet as `(re, im)` plane slices of
    /// length `n_antennas · n_subcarriers` (antenna-major, matching
    /// [`CsiPacket`] row order).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of bounds.
    #[inline]
    pub fn packet_planes_mut(&mut self, m: usize) -> (&mut [f64], &mut [f64]) {
        assert!(m < self.n_packets, "packet index out of bounds");
        let start = self.idx(m, 0, 0);
        let end = start + self.n_antennas * self.n_subcarriers;
        (&mut self.re[start..end], &mut self.im[start..end])
    }

    /// The whole capture's `(re, im)` planes.
    pub fn planes(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// Mutable access to the whole capture's `(re, im)` planes.
    pub fn planes_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }

    /// `true` when every channel estimate of packet `m` has finite real
    /// and imaginary parts.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of bounds.
    pub fn packet_is_finite(&self, m: usize) -> bool {
        assert!(m < self.n_packets, "packet index out of bounds");
        let start = self.idx(m, 0, 0);
        let end = start + self.n_antennas * self.n_subcarriers;
        self.re[start..end].iter().all(|x| x.is_finite())
            && self.im[start..end].iter().all(|x| x.is_finite())
    }

    /// `true` when antenna `a`'s row of packet `m` is identically zero —
    /// the signature of a dead RF chain.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn antenna_row_is_zero(&self, m: usize, antenna: usize) -> bool {
        let (re, im) = self.packet_row(m, antenna);
        re.iter()
            .zip(im)
            .all(|(&r, &i)| Complex::new(r, i) == Complex::ZERO)
    }

    /// `true` when any channel estimate of packet `m` is exactly zero.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of bounds.
    pub fn packet_has_zero(&self, m: usize) -> bool {
        assert!(m < self.n_packets, "packet index out of bounds");
        let start = self.idx(m, 0, 0);
        let end = start + self.n_antennas * self.n_subcarriers;
        self.re[start..end]
            .iter()
            .zip(&self.im[start..end])
            .any(|(&re, &im)| Complex::new(re, im).norm_sqr() <= 0.0)
    }

    /// Amplitude time series [`magnitude`] of one (antenna, subcarrier)
    /// across all packets.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds while the capture is
    /// non-empty.
    pub fn amplitude_series(&self, antenna: usize, subcarrier: usize) -> Vec<f64> {
        self.lane(antenna, subcarrier)
            .map(|h| magnitude(h.re, h.im))
            .collect()
    }

    /// Phase time series `∠H_m` of one (antenna, subcarrier).
    pub fn phase_series(&self, antenna: usize, subcarrier: usize) -> Vec<f64> {
        (0..self.n_packets)
            .map(|m| self.get(m, antenna, subcarrier).arg())
            .collect()
    }

    /// Phase-difference time series `∠(H_a·H_b*)` between two antennas on
    /// one subcarrier across all packets.
    pub fn phase_difference_series(&self, a: usize, b: usize, subcarrier: usize) -> Vec<f64> {
        self.cross_products(a, b, subcarrier)
            .map(|z| z.arg())
            .collect()
    }

    /// The direction of `z = H_a·H_b*` between two antennas on one
    /// subcarrier, per packet, as the unit phasor `(cos ∠z, sin ∠z)`: the
    /// phase-difference series without its `atan2`, which the circular
    /// statistics of phase calibration would only turn back into a sine
    /// and a cosine.
    ///
    /// Each phasor is `z/|z|` with `|z| = √(re² + im²)`. Where `re² + im²`
    /// is not a normal number (`z` zero, tiny, huge or not finite) it is
    /// the cosine and sine of `atan2(im, re)` instead, so a zero `z` points
    /// along the angle [`CsiCapture::phase_difference_series`] gives it.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds while the capture is
    /// non-empty.
    pub fn phase_difference_phasors(
        &self,
        a: usize,
        b: usize,
        subcarrier: usize,
    ) -> impl ExactSizeIterator<Item = (f64, f64)> + '_ {
        self.cross_products(a, b, subcarrier)
            .map(|z| unit_phasor(z.re, z.im))
    }

    /// `H_a·H_b*` on one subcarrier, per packet.
    fn cross_products(
        &self,
        a: usize,
        b: usize,
        subcarrier: usize,
    ) -> impl ExactSizeIterator<Item = Complex> + '_ {
        self.lane(a, subcarrier)
            .zip(self.lane(b, subcarrier))
            .map(|(ha, hb)| ha * hb.conj())
    }

    /// The channel estimates of one (antenna, subcarrier), per packet: a
    /// walk down the planes with a stride of one packet.
    fn lane(
        &self,
        antenna: usize,
        subcarrier: usize,
    ) -> impl ExactSizeIterator<Item = Complex> + '_ {
        if self.n_packets > 0 {
            assert!(antenna < self.n_antennas, "antenna index out of bounds");
            assert!(
                subcarrier < self.n_subcarriers,
                "subcarrier index out of bounds"
            );
        }
        let stride = self.n_antennas * self.n_subcarriers;
        let start = self.idx(0, antenna, subcarrier);
        (0..self.n_packets).map(move |m| {
            let i = start + m * stride;
            Complex::new(self.re[i], self.im[i])
        })
    }

    /// A copy holding only the antennas in `keep`, in the given order
    /// (empty captures pass through unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `keep` is empty or names an out-of-bounds antenna while
    /// the capture is non-empty.
    pub fn select_antennas(&self, keep: &[usize]) -> CsiCapture {
        if self.n_packets == 0 {
            return self.clone();
        }
        let all = vec![true; self.n_packets];
        self.select_packets_antennas(&all, keep)
    }

    /// A copy holding only the packets where `keep_packets` is `true` and
    /// only the antennas in `keep_antennas`, in the given order — the
    /// one-pass rebuild the screening stage uses.
    ///
    /// # Panics
    ///
    /// Panics if `keep_packets.len() != self.len()`, `keep_antennas` is
    /// empty, or an antenna index is out of bounds.
    pub fn select_packets_antennas(
        &self,
        keep_packets: &[bool],
        keep_antennas: &[usize],
    ) -> CsiCapture {
        assert_eq!(
            keep_packets.len(),
            self.n_packets,
            "keep mask length must equal packet count"
        );
        assert!(!keep_antennas.is_empty(), "must keep at least one antenna");
        for &a in keep_antennas {
            assert!(a < self.n_antennas, "antenna index out of bounds");
        }
        let kept = keep_packets.iter().filter(|&&k| k).count();
        let n_sub = self.n_subcarriers;
        let mut re = Vec::with_capacity(kept * keep_antennas.len() * n_sub);
        let mut im = Vec::with_capacity(kept * keep_antennas.len() * n_sub);
        for (m, &keep) in keep_packets.iter().enumerate() {
            if !keep {
                continue;
            }
            for &a in keep_antennas {
                let (r, i) = self.packet_row(m, a);
                re.extend_from_slice(r);
                im.extend_from_slice(i);
            }
        }
        CsiCapture {
            n_packets: kept,
            n_antennas: keep_antennas.len(),
            n_subcarriers: n_sub,
            re,
            im,
        }
    }
}

impl FromIterator<CsiPacket> for CsiCapture {
    fn from_iter<I: IntoIterator<Item = CsiPacket>>(iter: I) -> Self {
        let mut cap = CsiCapture::new();
        for p in iter {
            cap.push(p);
        }
        cap
    }
}

impl Extend<CsiPacket> for CsiCapture {
    fn extend<I: IntoIterator<Item = CsiPacket>>(&mut self, iter: I) {
        for p in iter {
            self.push(p);
        }
    }
}

/// A source of CSI captures.
///
/// The simulator implements this; a driver for real hardware (e.g. the
/// Intel 5300 CSI tool) could implement it too, making the WiMi pipeline
/// hardware-agnostic.
pub trait CsiSource {
    /// Captures `n_packets` consecutive packets of CSI.
    fn capture(&mut self, n_packets: usize) -> CsiCapture;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(n_ant: usize, n_sub: usize, seed: f64) -> CsiPacket {
        let data = (0..n_ant * n_sub)
            .map(|i| Complex::from_polar(1.0 + i as f64 * 0.1, seed + i as f64))
            .collect();
        CsiPacket::new(n_ant, n_sub, data)
    }

    #[test]
    fn packet_indexing_is_row_major() {
        let p = packet(2, 3, 0.0);
        assert_eq!(p.get(1, 0), p.antenna_row(1)[0]);
        assert_eq!(p.antenna_row(0).len(), 3);
    }

    #[test]
    #[should_panic(expected = "antennas × subcarriers")]
    fn packet_rejects_bad_length() {
        let _ = CsiPacket::new(2, 3, vec![Complex::ZERO; 5]);
    }

    #[test]
    #[should_panic(expected = "antenna index")]
    fn packet_rejects_bad_antenna() {
        let p = packet(2, 3, 0.0);
        let _ = p.get(2, 0);
    }

    #[test]
    fn amplitudes_and_phases_match_complex_values() {
        let p = packet(1, 4, 0.5);
        let amps = p.amplitudes(0);
        let phases = p.phases(0);
        for k in 0..4 {
            assert!((amps[k] - p.get(0, k).abs()).abs() < 1e-15);
            assert!((phases[k] - p.get(0, k).arg()).abs() < 1e-15);
        }
    }

    #[test]
    fn capture_series_extraction() {
        let cap: CsiCapture = (0..5).map(|m| packet(2, 3, m as f64)).collect();
        assert_eq!(cap.len(), 5);
        assert_eq!(cap.n_antennas(), 2);
        assert_eq!(cap.n_subcarriers(), 3);
        assert_eq!(cap.amplitude_series(0, 1).len(), 5);
        assert_eq!(cap.phase_series(1, 2).len(), 5);
        assert_eq!(cap.phase_difference_series(0, 1, 0).len(), 5);
    }

    #[test]
    fn soa_roundtrip_is_exact() {
        // Packets in → planes → packets out must be bit-for-bit identical,
        // and every capture accessor must agree with the packet-layout
        // reference computation.
        let originals: Vec<CsiPacket> = (0..4).map(|m| packet(3, 5, m as f64 * 0.7)).collect();
        let cap = CsiCapture::from_packets(originals.clone());
        for (m, p) in originals.iter().enumerate() {
            assert_eq!(&cap.packet(m), p);
            for a in 0..3 {
                for k in 0..5 {
                    assert_eq!(cap.get(m, a, k), p.get(a, k));
                }
                let (re, im) = cap.packet_row(m, a);
                for (k, h) in p.antenna_row(a).iter().enumerate() {
                    assert_eq!(re[k], h.re);
                    assert_eq!(im[k], h.im);
                }
            }
        }
        for a in 0..3 {
            for k in 0..5 {
                let reference: Vec<f64> = originals.iter().map(|p| p.amplitudes(a)[k]).collect();
                assert_eq!(cap.amplitude_series(a, k), reference);
            }
        }
        let reference: Vec<f64> = originals
            .iter()
            .map(|p| (p.get(0, 2) * p.get(1, 2).conj()).arg())
            .collect();
        assert_eq!(cap.phase_difference_series(0, 1, 2), reference);
    }

    #[test]
    fn phasors_point_along_the_phase_difference() {
        let mut cap: CsiCapture = (0..6).map(|m| packet(3, 4, m as f64)).collect();
        // A dead chain: antenna 2 reads zero in packet 1.
        let (re, im) = cap.packet_planes_mut(1);
        re[8..].fill(0.0);
        im[8..].fill(0.0);
        for (a, b) in [(0, 1), (2, 0), (1, 2)] {
            for k in 0..4 {
                let angles = cap.phase_difference_series(a, b, k);
                let phasors: Vec<(f64, f64)> = cap.phase_difference_phasors(a, b, k).collect();
                assert_eq!(phasors.len(), angles.len());
                for (&(c, s), &theta) in phasors.iter().zip(&angles) {
                    assert!((c - theta.cos()).abs() < 1e-15, "cos of {theta}: {c}");
                    assert!((s - theta.sin()).abs() < 1e-15, "sin of {theta}: {s}");
                }
            }
        }
        // The zero product keeps the direction atan2 gives it.
        let theta = cap.phase_difference_series(2, 0, 3)[1];
        let zero = cap.phase_difference_phasors(2, 0, 3).nth(1);
        assert_eq!(zero, Some((theta.cos(), theta.sin())));
    }

    #[test]
    fn magnitude_stays_within_an_ulp_of_hypot() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        for scale in [1e-3, 1.0, 1e3] {
            for _ in 0..10_000 {
                let (re, im) = (next() * scale, next() * scale);
                let (want, got) = (re.hypot(im), magnitude(re, im));
                assert!(
                    (got - want).abs() <= f64::EPSILON * want,
                    "{re} {im}: {got} vs {want}"
                );
                let (c, s) = unit_phasor(re, im);
                assert!((c.hypot(s) - 1.0).abs() <= 2.0 * f64::EPSILON, "{re} {im}");
            }
        }
        // Outside the normal range of re² + im², hypot and atan2 decide.
        for (re, im) in [
            (0.0, 0.0),
            (-0.0, 0.0),
            (1e-160, -3e-161),
            (1e200, 1e200),
            (f64::INFINITY, 1.0),
            (f64::NAN, 1.0),
        ] {
            assert_eq!(magnitude(re, im).to_bits(), re.hypot(im).to_bits());
            let theta = im.atan2(re);
            let (c, s) = unit_phasor(re, im);
            assert_eq!(
                (c.to_bits(), s.to_bits()),
                (theta.cos().to_bits(), theta.sin().to_bits())
            );
        }
    }

    #[test]
    fn select_packets_antennas_filters_both_axes() {
        let cap: CsiCapture = (0..4).map(|m| packet(3, 2, m as f64)).collect();
        let out = cap.select_packets_antennas(&[true, false, true, false], &[2, 0]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.n_antennas(), 2);
        assert_eq!(out.get(0, 0, 1), cap.get(0, 2, 1));
        assert_eq!(out.get(1, 1, 0), cap.get(2, 0, 0));
    }

    #[test]
    fn zero_scans_match_packet_layout() {
        let mut p0 = packet(2, 3, 0.0);
        for k in 0..3 {
            *p0.get_mut(1, k) = Complex::ZERO;
        }
        let mut p1 = packet(2, 3, 1.0);
        *p1.get_mut(0, 1) = Complex::new(f64::NAN, 0.0);
        let cap = CsiCapture::from_packets(vec![p0.clone(), p1.clone()]);
        assert_eq!(cap.packet_is_finite(0), p0.is_finite());
        assert_eq!(cap.packet_is_finite(1), p1.is_finite());
        let p0_row_zero = p0.antenna_row(1).iter().all(|h| *h == Complex::ZERO);
        assert_eq!(cap.antenna_row_is_zero(0, 1), p0_row_zero);
        assert!(!cap.antenna_row_is_zero(1, 0));
        assert!(cap.packet_has_zero(0));
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn capture_rejects_mismatched_packets() {
        let mut cap = CsiCapture::new();
        cap.push(packet(2, 3, 0.0));
        cap.push(packet(2, 4, 0.0));
    }

    #[test]
    fn zeros_packet() {
        let p = CsiPacket::zeros(3, 30);
        assert_eq!(p.n_antennas(), 3);
        assert_eq!(p.n_subcarriers(), 30);
        assert_eq!(p.get(2, 29), Complex::ZERO);
    }

    #[test]
    fn zeros_capture() {
        let cap = CsiCapture::zeros(4, 3, 30);
        assert_eq!(cap.len(), 4);
        assert_eq!(cap.n_antennas(), 3);
        assert_eq!(cap.n_subcarriers(), 30);
        assert_eq!(cap.get(3, 2, 29), Complex::ZERO);
    }

    #[test]
    fn extend_and_empty() {
        let mut cap = CsiCapture::new();
        assert!(cap.is_empty());
        cap.extend((0..3).map(|m| packet(1, 2, m as f64)));
        assert_eq!(cap.len(), 3);
    }
}
