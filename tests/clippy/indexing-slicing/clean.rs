#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

#[expect(
    clippy::indexing_slicing,
    reason = "the early return leaves xs non-empty, so len / 2 < len"
)]
pub fn middle(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs[xs.len() / 2]
}
