// wlint: allow(panic)
fn a() {}
// wlint: suppress(everything)
fn b() {}
// wlint: allow(panik) — typo
fn c() {}
