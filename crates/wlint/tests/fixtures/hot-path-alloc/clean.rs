struct Scratch {
    bands: Vec<Vec<f64>>,
    tmp: Vec<f64>,
}

// wlint: hot
fn denoise_packet(xs: &[f64], scratch: &mut Scratch, out: &mut Vec<f64>) {
    // Growing the band pool with a constructor *path* (no call parens) is
    // legal: steady-state reuses the pool without reallocating.
    scratch.bands.resize_with(4, Vec::new);
    if scratch.tmp.capacity() == 0 {
        // wlint: allow(hot-path-alloc) — first call only; later calls reuse it
        scratch.tmp = Vec::with_capacity(xs.len());
    }
    scratch.tmp.clear();
    scratch.tmp.extend(xs.iter().map(|x| x * 0.5));
    out.clear();
    out.extend_from_slice(&scratch.tmp);
}

// Unmarked functions may allocate freely.
fn cold_setup(n: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, 0.0);
    v
}
