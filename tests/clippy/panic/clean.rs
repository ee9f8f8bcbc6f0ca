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

pub fn first(v: &[u32]) -> Option<u32> {
    #[expect(
        clippy::unwrap_used,
        reason = "slice verified non-empty on the same line"
    )]
    let head = if v.is_empty() { 0 } else { *v.first().unwrap() };
    v.last().map(|&t| head + t)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        let v: Vec<u32> = vec![1];
        assert_eq!(*v.first().unwrap(), 1);
    }
}
