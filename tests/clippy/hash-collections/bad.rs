use std::collections::{HashMap, HashSet};

pub fn tally(keys: &[u32]) -> HashMap<u32, usize> {
    let mut seen: HashSet<u32> = HashSet::new();
    let mut m = HashMap::new();
    for &k in keys {
        if seen.insert(k) {
            m.insert(k, 1);
        }
    }
    m
}
