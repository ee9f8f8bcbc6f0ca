//! A hot path that calls its own `.value()` accessor, a dependency's
//! public method and a dependency's trait method by receiver.

use appg::{Fill, Shared};

pub struct Meters(f64);

impl Meters {
    pub fn value(&self) -> f64 {
        self.0
    }
}

// wlint: hot
pub fn hot_entry(m: &Meters, s: &Shared) -> f64 {
    let grown = s.grow_shared();
    let filled = s.fill();
    m.value() + (grown.len() + filled.len()) as f64
}
