#![deny(clippy::cast_possible_truncation)]

pub fn quantize(x: f64) -> i8 {
    (x * 127.0).round() as i8
}
