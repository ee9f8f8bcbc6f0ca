use std::time::Instant;

pub fn deterministic_tick(counter: u64) -> u64 {
    counter + 1
}

#[expect(
    clippy::disallowed_methods,
    reason = "the elapsed time is printed, never returned into a result"
)]
pub fn report_elapsed() {
    let t0 = Instant::now();
    eprintln!("{:?}", t0.elapsed());
}
