// wlint: allow(panic)
fn a() {}
// wlint: suppress(everything)
fn b() {}
// wlint: allow(panik) — typo
fn c() {}
// The retired artifact marker (any spacing after `wlint:`):
// wlint:  artifact
fn d() {}
// The retired call-graph marker and rules:
// wlint: hot
fn e() {}
// wlint: allow(hot-path-alloc) — one-time pool growth
fn f() {}
// wlint: allow(panic-reach) — index bounded by the length asserted at entry
fn g() {}
