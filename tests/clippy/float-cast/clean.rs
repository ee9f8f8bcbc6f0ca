#![deny(clippy::cast_possible_truncation)]

#[expect(
    clippy::cast_possible_truncation,
    reason = "clamped to the i8 range one line above"
)]
pub fn quantize(x: f64) -> i8 {
    let clamped = (x * 127.0).round().clamp(-128.0, 127.0);
    clamped as i8
}
