// wlint: hot
pub fn los_response(freq: f64, dist_m: f64, gain: f64) -> f64 {
    freq * dist_m * gain
}
