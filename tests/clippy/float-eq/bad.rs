#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub fn is_unit(x: f64, y: f64) -> bool {
    x == y || y != 1.0
}
