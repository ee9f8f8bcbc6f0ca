use std::time::{Instant, SystemTime};

pub fn elapsed_wall() -> f64 {
    let t0 = Instant::now();
    let _epoch = SystemTime::now();
    t0.elapsed().as_secs_f64()
}
