#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

pub fn middle(xs: &[f64]) -> f64 {
    xs[xs.len() / 2]
}
