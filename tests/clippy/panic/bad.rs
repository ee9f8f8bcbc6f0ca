#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

pub fn first(v: &[u32]) -> u32 {
    if v.len() > 3 {
        panic!("too many");
    }
    let head = *v.first().unwrap();
    let tail = *v.last().expect("non-empty");
    head + tail
}
