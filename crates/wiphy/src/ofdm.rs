//! 802.11n OFDM channel layout and the Intel 5300 CSI subcarrier map.

use crate::units::Hertz;

/// 802.11n subcarrier spacing for 20 MHz channels: 312.5 kHz.
pub const SUBCARRIER_SPACING_HZ: f64 = 312_500.0;

/// The 30 subcarrier indices reported by the Intel 5300 CSI tool for a
/// 20 MHz channel (grouping Ng = 2, per the 802.11n CSI feedback format).
pub const INTEL5300_SUBCARRIERS_20MHZ: [i32; 30] = [
    -28, -26, -24, -22, -20, -18, -16, -14, -12, -10, -8, -6, -4, -2, -1, 1, 3, 5, 7, 9, 11, 13,
    15, 17, 19, 21, 23, 25, 27, 28,
];

/// An OFDM channel: centre frequency plus the set of reported subcarriers.
///
/// # Examples
///
/// ```
/// use wimi_phy::ofdm::ChannelSpec;
///
/// let ch = ChannelSpec::intel5300_20mhz_5ghz();
/// assert_eq!(ch.num_subcarriers(), 30);
/// // Subcarrier frequencies straddle the channel centre.
/// assert!(ch.subcarrier_freq(0).value() < ch.center.value());
/// assert!(ch.subcarrier_freq(29).value() > ch.center.value());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSpec {
    /// Channel centre frequency.
    pub center: Hertz,
    /// Subcarrier indices relative to the centre (index × 312.5 kHz offset).
    pub subcarrier_indices: Vec<i32>,
}

impl ChannelSpec {
    /// The default WiMi configuration: 802.11n channel at 5.24 GHz
    /// (channel 48), 20 MHz wide, with the Intel 5300's 30 subcarriers.
    pub fn intel5300_20mhz_5ghz() -> Self {
        ChannelSpec {
            center: Hertz::from_ghz(5.24),
            subcarrier_indices: INTEL5300_SUBCARRIERS_20MHZ.to_vec(),
        }
    }

    /// A custom channel.
    ///
    /// # Panics
    ///
    /// Panics if the centre frequency is not positive or no subcarriers are
    /// given.
    pub fn new(center: Hertz, subcarrier_indices: Vec<i32>) -> Self {
        assert!(center.value() > 0.0, "centre frequency must be positive");
        assert!(
            !subcarrier_indices.is_empty(),
            "channel must have at least one subcarrier"
        );
        ChannelSpec {
            center,
            subcarrier_indices,
        }
    }

    /// Number of reported subcarriers.
    pub fn num_subcarriers(&self) -> usize {
        self.subcarrier_indices.len()
    }

    /// Absolute frequency of the `k`-th reported subcarrier.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn subcarrier_freq(&self, k: usize) -> Hertz {
        let idx = self.subcarrier_indices[k];
        Hertz(self.center.value() + idx as f64 * SUBCARRIER_SPACING_HZ)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intel5300_map_has_30_valid_entries() {
        assert_eq!(INTEL5300_SUBCARRIERS_20MHZ.len(), 30);
        // Strictly increasing, within the ±28 span of a 20 MHz channel,
        // and skipping DC.
        assert!(INTEL5300_SUBCARRIERS_20MHZ.windows(2).all(|w| w[0] < w[1]));
        assert!(INTEL5300_SUBCARRIERS_20MHZ
            .iter()
            .all(|&i| (-28..=28).contains(&i) && i != 0));
    }

    #[test]
    fn subcarrier_frequencies_are_monotone() {
        let ch = ChannelSpec::intel5300_20mhz_5ghz();
        let freqs: Vec<f64> = (0..ch.num_subcarriers())
            .map(|k| ch.subcarrier_freq(k).value())
            .collect();
        assert!(freqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn edge_subcarrier_offset_is_8_75_mhz() {
        let ch = ChannelSpec::intel5300_20mhz_5ghz();
        let edge = ch.subcarrier_freq(29).value() - ch.center.value();
        assert!((edge - 28.0 * 312_500.0).abs() < 1.0);
    }

    #[test]
    fn reported_span_is_17_5_mhz() {
        let ch = ChannelSpec::intel5300_20mhz_5ghz();
        let span = ch.subcarrier_freq(29).value() - ch.subcarrier_freq(0).value();
        assert!((span - 17.5e6).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one subcarrier")]
    fn empty_subcarrier_list_rejected() {
        let _ = ChannelSpec::new(Hertz::from_ghz(5.0), vec![]);
    }
}
