//! Property tests for the campaign format and grid laws:
//!
//! 1. render → parse is the identity on arbitrary *valid* campaign ASTs
//!    (the canonical-form contract from the `ast` module docs);
//! 2. the parser is total — arbitrary input text, including byte
//!    mutations of a valid rendering, never panics, only `Err`s;
//! 3. the grid expands to exactly the product of the axis lengths;
//! 4. per-cell derived seeds are collision-free and survive an f64
//!    round-trip exactly (the JSON-number precision contract).
//!
//! The vendored proptest shim only ships range and vec strategies, so the
//! campaign generator below implements [`Strategy`] by hand: it draws a
//! random valid AST directly from the test RNG.

use proptest::prelude::*;
use proptest::TestRng;

use wimi_campaign::{
    cell_count, derive_cell_seed, expand, parse, Campaign, MaterialRef, MaterialSet,
    ScheduleChange, ScheduleEntry, TargetMode,
};
use wimi_phy::channel::Environment;
use wimi_phy::material::{ContainerMaterial, Liquid};

const LIQUID_POOL: [Liquid; 10] = [
    Liquid::Vinegar,
    Liquid::Honey,
    Liquid::Soy,
    Liquid::Milk,
    Liquid::Pepsi,
    Liquid::Liquor,
    Liquid::PureWater,
    Liquid::Oil,
    Liquid::Coke,
    Liquid::SweetWater,
];

const ENVIRONMENTS: [Environment; 3] = [
    Environment::EmptyHall,
    Environment::Lab,
    Environment::Library,
];

const CONTAINERS: [ContainerMaterial; 3] = [
    ContainerMaterial::Glass,
    ContainerMaterial::Plastic,
    ContainerMaterial::Metal,
];

fn pick<T: Copy>(rng: &mut TestRng, pool: &[T]) -> T {
    pool[(rng.next_u64() as usize) % pool.len()]
}

/// A non-empty random subset of `pool`, in pool order (for axes whose
/// values must be distinct).
fn subset<T: Copy>(rng: &mut TestRng, pool: &[T]) -> Vec<T> {
    loop {
        let mask = rng.next_u64();
        let chosen: Vec<T> = pool
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &v)| v)
            .collect();
        if !chosen.is_empty() {
            return chosen;
        }
    }
}

fn f64_in(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.unit_f64()
}

fn vec_of<T>(rng: &mut TestRng, max_len: usize, mut gen: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    let n = 1 + (rng.next_u64() as usize) % max_len;
    (0..n).map(|_| gen(rng)).collect()
}

fn material_set(rng: &mut TestRng) -> MaterialSet {
    if rng.next_u64().is_multiple_of(5) {
        return MaterialSet::Paper10;
    }
    // 2–4 distinct pool entries: catalog liquids plus two fixed saltwater
    // grades, so the salt path round-trips without float-dedup headaches.
    let pool: Vec<MaterialRef> = LIQUID_POOL
        .iter()
        .map(|&l| MaterialRef::Catalog(l))
        .chain([MaterialRef::Saltwater(1.5), MaterialRef::Saltwater(12.25)])
        .collect();
    let want = 2 + (rng.next_u64() as usize) % 3;
    let mut start = (rng.next_u64() as usize) % pool.len();
    let mut refs = Vec::with_capacity(want);
    for _ in 0..want {
        refs.push(pool[start].clone());
        start = (start + 1 + (rng.next_u64() as usize) % 3) % pool.len();
        while refs.contains(&pool[start]) {
            start = (start + 1) % pool.len();
        }
    }
    MaterialSet::List(refs)
}

fn schedule_change(rng: &mut TestRng, rank: u8) -> ScheduleChange {
    match rank {
        0 => ScheduleChange::Fault(f64_in(rng, 0.0, 10.0)),
        1 => ScheduleChange::Environment(pick(rng, &ENVIRONMENTS)),
        2 => ScheduleChange::Target(pick(
            rng,
            &[
                TargetMode::Present,
                TargetMode::Swapped,
                TargetMode::Removed,
            ],
        )),
        _ => ScheduleChange::Dropout(f64_in(rng, 0.0, 1.0)),
    }
}

/// A valid schedule for `test` trials: unique `(at, kind)` keys in
/// non-decreasing trial order, every `at < test`.
fn schedule(rng: &mut TestRng, test: usize) -> Vec<ScheduleEntry> {
    let n = (rng.next_u64() as usize) % 6;
    let mut keys: Vec<(usize, u8)> = (0..n)
        .map(|_| ((rng.next_u64() as usize) % test, (rng.next_u64() % 4) as u8))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|(at, rank)| ScheduleEntry {
            at,
            change: schedule_change(rng, rank),
        })
        .collect()
}

/// Generates arbitrary *valid* campaign ASTs (axes ≤ 3 values each keep
/// the cell count far below `MAX_CELLS`).
struct ValidCampaign;

impl Strategy for ValidCampaign {
    type Value = Campaign;

    fn sample(&self, rng: &mut TestRng) -> Campaign {
        let name_len = 1 + (rng.next_u64() as usize) % 12;
        let name: String = (0..name_len)
            .map(|i| {
                let alphabet = if i == 0 {
                    "abcdefghijklmnopqrstuvwxyz"
                } else {
                    "abcdefghijklmnopqrstuvwxyz0123456789_-"
                };
                pick(rng, alphabet.as_bytes()) as char
            })
            .collect();
        let mut c = Campaign::with_defaults(&name);
        c.seed = rng.next_u64();
        c.fault_seed = rng.next_u64();
        c.train = 1 + (rng.next_u64() as usize) % 50;
        c.test = 1 + (rng.next_u64() as usize) % 50;
        c.axes.materials = vec_of(rng, 3, material_set);
        c.axes.environments = subset(rng, &ENVIRONMENTS);
        c.axes.distances_cm = vec_of(rng, 3, |r| f64_in(r, 10.0, 10_000.0));
        c.axes.containers = subset(rng, &CONTAINERS);
        c.axes.diameters_cm = vec_of(rng, 3, |r| f64_in(r, 1.0, 100.0));
        c.axes.packets = vec_of(rng, 3, |r| 1 + (r.next_u64() as usize) % 1000);
        c.axes.intensities = vec_of(rng, 3, |r| f64_in(r, 0.0, 10.0));
        c.axes.replicas = vec_of(rng, 3, |r| r.next_u64());
        c.schedule = schedule(rng, c.test);
        c
    }
}

/// Generates arbitrary text over a parser-hostile alphabet: directive
/// words, punctuation, numbers, comments, newlines and stray unicode.
struct HostileText;

impl Strategy for HostileText {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        const PIECES: [&str; 24] = [
            "campaign",
            "seed",
            "axis",
            "at",
            "=",
            ",",
            "+",
            "#",
            "\n",
            " ",
            "0x",
            "99",
            "materials",
            "paper10",
            "salt",
            "fault",
            "-",
            "1e308",
            "inf",
            "NaN",
            "é",
            "…",
            "\t",
            "x",
        ];
        let n = (rng.next_u64() as usize) % 60;
        (0..n).map(|_| pick(rng, &PIECES)).collect()
    }
}

proptest! {
    // Canonical-form contract: `parse(render(c)) == c`.
    #[test]
    fn render_parse_round_trip_is_identity(c in ValidCampaign) {
        let text = c.render();
        let reparsed = parse(&text)
            .unwrap_or_else(|e| panic!("rendered campaign failed to parse: {e}\n{text}"));
        prop_assert_eq!(reparsed, c);
    }

    // The parser is total over arbitrary input: no panic, ever.
    #[test]
    fn arbitrary_input_never_panics(text in HostileText) {
        let _ = parse(&text);
    }

    // Byte-level mutations of a valid rendering never panic either — at
    // worst they shift which `Err` comes back.
    #[test]
    fn mutated_valid_campaign_never_panics(
        c in ValidCampaign,
        pos in 0usize..1 << 20,
        byte in 0u32..256,
    ) {
        let mut bytes = c.render().into_bytes();
        if !bytes.is_empty() {
            let i = pos % bytes.len();
            bytes[i] = byte as u8;
        }
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = parse(&text);
        }
    }

    // Grid law: the expansion has exactly `∏ axis lengths` cells, indexed
    // densely in order.
    #[test]
    fn cell_count_is_product_of_axis_lengths(c in ValidCampaign) {
        let expected: usize = [
            c.axes.materials.len(),
            c.axes.environments.len(),
            c.axes.distances_cm.len(),
            c.axes.containers.len(),
            c.axes.diameters_cm.len(),
            c.axes.packets.len(),
            c.axes.intensities.len(),
            c.axes.replicas.len(),
        ]
        .iter()
        .product();
        prop_assert_eq!(cell_count(&c), expected);
        let cells = expand(&c);
        prop_assert_eq!(cells.len(), expected);
        for (i, cell) in cells.iter().enumerate() {
            prop_assert_eq!(cell.index, i as u64);
        }
    }

    // Seed law: derived per-cell seeds are collision-free under any root
    // and fit exactly into an f64. The readers no longer need that bound;
    // it stays because changing it would re-seed every cell.
    #[test]
    fn derived_seeds_are_unique_and_f64_exact(root in 0u64..u64::MAX, n in 1u64..2048) {
        let mut seeds: Vec<u64> = (0..n).map(|i| derive_cell_seed(root, i)).collect();
        for (i, &s) in seeds.iter().enumerate() {
            prop_assert!(s < (1 << 53), "seed {s} exceeds 2^53");
            prop_assert_eq!(s as f64 as u64, s, "seed {} not f64-exact", s);
            prop_assert_eq!(s & 0x1_FFFF, i as u64);
        }
        seeds.sort_unstable();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), n as usize, "seed collision under root {}", root);
    }
}
