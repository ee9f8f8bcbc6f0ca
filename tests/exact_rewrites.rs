//! Tolerance pins of the trig-free phase calibration and the `√(re² + im²)`
//! CSI magnitude against verbatim copies of the code they replaced.
//!
//! Both rewrites are exact algebra: they differ from the replaced code
//! only in rounding, never by an approximation. The grid is the golden
//! pipeline's (three environments × three liquids × {no fault, hostile
//! faults at intensity 0.2}) at 3, 8, 20, 31 and 70 packets, so phase
//! calibration's trim both stays off and passes the 64-sample sorting
//! network. Each target capture is also checked with one antenna's row
//! zeroed in a third of its packets, where `H_a·H_b*` is exactly zero.
//!
//! Bounds: the phase mean within 1e-14 rad around the circle, the phase
//! variance within `1e-12·var + 1e-18`, the magnitude within 2 ulp of
//! `hypot`.

use wimi::core::phase::PhaseDifferenceProfile;
use wimi::dsp::stats::wrap_to_pi;
use wimi::phy::channel::Environment;
use wimi::phy::csi::{magnitude, CsiCapture, CsiSource};
use wimi::phy::fault::FaultPlan;
use wimi::phy::material::Liquid;
use wimi::phy::scenario::{Scenario, Simulator};
use wimi::phy::units::Meters;

/// The replaced code, verbatim but for the two notes in its body.
mod replaced {
    use wimi::dsp::stats::wrap_to_pi;
    use wimi::phy::complex::Complex;
    use wimi::phy::csi::CsiCapture;

    /// `CsiCapture::phase_difference_series_into`, reading the planes
    /// through `planes()` where it indexed its own fields.
    fn phase_difference_series_into(
        cap: &CsiCapture,
        a: usize,
        b: usize,
        subcarrier: usize,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.reserve(cap.len());
        if cap.is_empty() {
            return;
        }
        let (re, im) = cap.planes();
        let stride = cap.n_antennas() * cap.n_subcarriers();
        let mut ia = a * cap.n_subcarriers() + subcarrier;
        let mut ib = b * cap.n_subcarriers() + subcarrier;
        for _ in 0..cap.len() {
            let ha = Complex::new(re[ia], im[ia]);
            let hb = Complex::new(re[ib], im[ib]);
            out.push((ha * hb.conj()).arg());
            ia += stride;
            ib += stride;
        }
    }

    #[derive(Debug, Clone, Copy)]
    struct AngleSample {
        sin: f64,
        cos: f64,
        dev: f64,
    }

    fn sin_cos_sums<'a>(samples: impl IntoIterator<Item = &'a AngleSample>) -> (f64, f64) {
        samples
            .into_iter()
            .fold((0.0, 0.0), |(s, c), x| (s + x.sin, c + x.cos))
    }

    /// `wimi_dsp::stats::phase_summary` over angles.
    fn phase_summary(
        angles: &[f64],
        trim_fraction: f64,
        samples: &mut Vec<AngleSample>,
    ) -> (f64, f64) {
        assert!(
            (0.0..=0.5).contains(&trim_fraction),
            "trim fraction must be within [0, 0.5]"
        );
        if angles.is_empty() {
            return (f64::NAN, f64::NAN);
        }
        samples.clear();
        samples.reserve(angles.len());
        let (mut s, mut c) = (0.0, 0.0);
        for &a in angles {
            let (sin, cos) = (a.sin(), a.cos());
            s += sin;
            c += cos;
            samples.push(AngleSample { sin, cos, dev: 0.0 });
        }
        let first = s.atan2(c);
        for (sample, &a) in samples.iter_mut().zip(angles) {
            sample.dev = wrap_to_pi(a - first);
        }
        let variance = samples.iter().map(|x| x.dev * x.dev).sum::<f64>() / angles.len() as f64;
        let n_drop = ((angles.len() as f64) * trim_fraction).floor() as usize;
        if n_drop == 0 || angles.len() - n_drop < 2 {
            return (first, variance);
        }
        let keep = angles.len() - n_drop;
        // Up to 64 angles the replaced code took this order from a
        // sorting network, which `wimi_dsp`'s
        // `stable_abs_order_matches_stable_sort` pins to this stable sort.
        samples.sort_by(|x, y| x.dev.abs().total_cmp(&y.dev.abs()));
        let (s, c) = sin_cos_sums(&samples[..keep]);
        (s.atan2(c), variance)
    }

    /// `PhaseDifferenceProfile::compute`'s loop: per subcarrier, the angle
    /// series, then its summary at the 20% trim.
    pub fn profile(cap: &CsiCapture, a: usize, b: usize) -> (Vec<f64>, Vec<f64>) {
        let (mut series, mut samples) = (Vec::new(), Vec::new());
        (0..cap.n_subcarriers())
            .map(|k| {
                phase_difference_series_into(cap, a, b, k, &mut series);
                phase_summary(&series, 0.2, &mut samples)
            })
            .unzip()
    }
}

/// Every capture of the grid: baseline, target, and the target with
/// antenna 1 dead in every third packet.
fn grid() -> Vec<CsiCapture> {
    let mut out = Vec::new();
    let mut cell = 0u64;
    for env in Environment::ALL {
        for packets in [3usize, 8, 20, 31, 70] {
            for liquid in [Liquid::PureWater, Liquid::Oil, Liquid::Milk] {
                for fault in [None, Some(0.2)] {
                    cell += 1;
                    let seed = 0x601D_u64 ^ (cell * 0x9E37_79B9);
                    let mut builder = Scenario::builder();
                    builder.environment(env);
                    builder.target_offset(Meters::from_cm(0.6 + 0.05 * cell as f64));
                    let mut sim = Simulator::new(builder.build(), seed);
                    if let Some(intensity) = fault {
                        sim.set_fault_plan(Some(FaultPlan::hostile(seed).scaled(intensity)));
                    }
                    out.push(sim.capture(packets));
                    sim.set_liquid(Some(liquid.into()));
                    let tar = sim.capture(packets);
                    let mut dead = tar.clone();
                    let n_sub = dead.n_subcarriers();
                    for m in (0..dead.len()).step_by(3) {
                        let (re, im) = dead.packet_planes_mut(m);
                        re[n_sub..2 * n_sub].fill(0.0);
                        im[n_sub..2 * n_sub].fill(0.0);
                    }
                    out.push(tar);
                    out.push(dead);
                }
            }
        }
    }
    out
}

#[test]
fn phase_profiles_match_the_angle_form_within_rounding() {
    let (mut worst_mean, mut worst_var, mut checked) = (0.0f64, 0.0f64, 0usize);
    for cap in grid().iter().filter(|c| !c.is_empty()) {
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            let got = PhaseDifferenceProfile::compute(cap, a, b);
            let (mean, variance) = replaced::profile(cap, a, b);
            for k in 0..cap.n_subcarriers() {
                let what = format!("{} packets, pair ({a}, {b}), subcarrier {k}", cap.len());
                let (m, m_ref) = (got.mean[k], mean[k]);
                let (v, v_ref) = (got.variance[k], variance[k]);
                assert_eq!(m.is_nan(), m_ref.is_nan(), "mean: {what}: {m} vs {m_ref}");
                assert_eq!(
                    v.is_nan(),
                    v_ref.is_nan(),
                    "variance: {what}: {v} vs {v_ref}"
                );
                if m_ref.is_nan() || v_ref.is_nan() {
                    continue;
                }
                let dm = wrap_to_pi(m - m_ref).abs();
                let dv = (v - v_ref).abs();
                assert!(dm <= 1e-14, "mean: {what}: {m} vs {m_ref}");
                assert!(
                    dv <= 1e-12 * v_ref + 1e-18,
                    "variance: {what}: {v} vs {v_ref}"
                );
                worst_mean = worst_mean.max(dm);
                worst_var = worst_var.max(dv / v_ref.max(f64::MIN_POSITIVE));
                checked += 1;
            }
        }
    }
    println!("{checked} subcarriers: worst mean {worst_mean:e} rad, worst relative variance {worst_var:e}");
    assert!(
        checked > 10_000,
        "only {checked} finite subcarriers checked"
    );
}

#[test]
fn magnitudes_stay_within_two_ulp_of_hypot() {
    let (mut worst, mut checked) = (0.0f64, 0usize);
    for cap in grid() {
        let (re, im) = cap.planes();
        for (&r, &i) in re.iter().zip(im) {
            let (got, want) = (magnitude(r, i), r.hypot(i));
            if want.is_nan() {
                assert!(got.is_nan(), "|{r} + j{i}| = {got}, want NaN");
                continue;
            }
            let ulps = (got - want).abs() / (f64::EPSILON * want).max(f64::MIN_POSITIVE);
            assert!(ulps <= 2.0, "|{r} + j{i}| = {got}, hypot {want}");
            worst = worst.max(ulps);
            checked += 1;
        }
    }
    println!("{checked} values: worst {worst} ulp");
}
