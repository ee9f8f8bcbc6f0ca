// wlint: allow(unit-newtype) — mirrors a C driver API that takes raw seconds
pub fn settle(delay_s: f64) -> f64 {
    delay_s
}
