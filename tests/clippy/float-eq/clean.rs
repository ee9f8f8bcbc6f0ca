#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub fn is_unit(x: f64, y: f64) -> bool {
    (x - y).abs() <= f64::EPSILON || (y - 1.0).abs() > f64::EPSILON
}
