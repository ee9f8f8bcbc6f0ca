//! Property suite: the structure-of-arrays (SoA) capture layout and the
//! scratch-arena hot paths are bit-for-bit equivalent to the per-packet
//! array-of-structs reference layout — across random scenarios, fault
//! plans, packet/antenna selections and thread counts.
//!
//! The owned-[`CsiPacket`] accessors (`packet`/`packets`) *are* the legacy
//! layout, retained as the reference the flat planes are checked against;
//! production code reads the planes directly.

use std::sync::Mutex;

use proptest::prelude::*;
use wimi::core::{WiMi, WiMiConfig};
use wimi::phy::csi::{CsiCapture, CsiSource};
use wimi::phy::fault::FaultPlan;
use wimi::phy::material::LIQUIDS;
use wimi::phy::scenario::{Scenario, Simulator};

fn sim_capture(seed: u64, packets: usize, liquid: usize) -> CsiCapture {
    let mut sim = Simulator::new(Scenario::builder().build(), seed);
    if liquid < LIQUIDS.len() {
        sim.set_liquid(Some(LIQUIDS[liquid].into()));
    }
    sim.capture(packets)
}

proptest! {
    // Every plane-walking series accessor must reproduce, bit for bit,
    // what the same math gives on materialised per-packet copies.
    #[test]
    fn plane_series_match_owned_packet_reference(
        seed in 0u64..300,
        packets in 1usize..10,
        liquid in 0usize..11, // index 10 = no liquid (baseline scenario)
    ) {
        let cap = sim_capture(seed, packets, liquid);
        let owned: Vec<_> = cap.packets().collect();
        for a in 0..cap.n_antennas() {
            for k in 0..cap.n_subcarriers() {
                let amp = cap.amplitude_series(a, k);
                let ph = cap.phase_series(a, k);
                for (m, p) in owned.iter().enumerate() {
                    prop_assert_eq!(cap.get(m, a, k), p.get(a, k));
                    prop_assert_eq!(amp[m].to_bits(), p.amplitudes(a)[k].to_bits());
                    prop_assert_eq!(ph[m].to_bits(), p.get(a, k).arg().to_bits());
                }
            }
        }
        for a in 0..cap.n_antennas() {
            for b in 0..cap.n_antennas() {
                if a == b {
                    continue;
                }
                for k in 0..cap.n_subcarriers() {
                    let series = cap.phase_difference_series(a, b, k);
                    for (m, p) in owned.iter().enumerate() {
                        let reference = (p.get(a, k) * p.get(b, k).conj()).arg();
                        prop_assert_eq!(series[m].to_bits(), reference.to_bits());
                    }
                }
            }
        }
    }

    // The one-pass SoA packet/antenna rebuild used by screening must
    // equal filtering materialised packets and re-assembling them.
    #[test]
    fn soa_selection_matches_per_packet_rebuild(
        seed in 0u64..200,
        packets in 1usize..10,
        mask_bits in 0u32..1024,
        ants_idx in 0usize..6,
    ) {
        let cap = sim_capture(seed, packets, 3);
        let keep: Vec<bool> = (0..packets).map(|m| mask_bits >> m & 1 == 1).collect();
        let choices: [&[usize]; 6] = [&[0], &[1], &[2], &[0, 1], &[1, 2], &[0, 1, 2]];
        let ants = choices[ants_idx];
        let sel = cap.select_packets_antennas(&keep, ants);
        let reference = CsiCapture::from_packets(
            cap.packets()
                .enumerate()
                .filter(|(m, _)| keep[*m])
                .map(|(_, p)| p.select_antennas(ants))
                .collect(),
        );
        if reference.is_empty() {
            prop_assert!(sel.is_empty());
        } else {
            prop_assert_eq!(sel, reference);
        }
    }
}

/// Serialises the shape-twiddling fan-out tests: the thread override is
/// process-global, and the test harness runs sibling tests on other
/// threads.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs one measurement under an explicit worker count and returns its
/// full Debug rendering (f64 Debug is shortest-roundtrip, so equal strings
/// mean bitwise-equal outputs for the finite values the pipeline emits).
fn measure_digest(wimi: &WiMi, base: &CsiCapture, tar: &CsiCapture, threads: usize) -> String {
    wimi::core::par::set_thread_override(Some(threads));
    let m = wimi.measure(base, tar);
    wimi::core::par::set_thread_override(None);
    format!("{m:?}")
}

proptest! {
    // The full measurement — feature and quality report — must not
    // depend on the fan-out shape, even on fault-degraded captures that
    // exercise the screening/salvage paths.
    #[test]
    fn measurement_invariant_to_fanout_shape_under_faults(
        seed in 0u64..64,
        packets in 8usize..16,
        intensity in 0.0f64..0.6,
        nonce in 0u64..8,
    ) {
        let _guard = ENV_LOCK.lock().unwrap();
        let mut sim = Simulator::new(Scenario::builder().build(), seed);
        let base = sim.capture(packets);
        sim.set_liquid(Some(LIQUIDS[(seed as usize) % LIQUIDS.len()].into()));
        let clean_tar = sim.capture(packets);
        let plan = FaultPlan::hostile(seed).scaled(intensity);
        let tar = plan.apply(&clean_tar, nonce);

        let wimi = WiMi::new(WiMiConfig::default());
        let reference = measure_digest(&wimi, &base, &tar, 1);
        for threads in 2..=4 {
            let digest = measure_digest(&wimi, &base, &tar, threads);
            prop_assert_eq!(&digest, &reference, "threads={}", threads);
        }
    }
}
