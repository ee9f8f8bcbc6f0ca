// wlint: allow(panic)
fn a() {}
// wlint: suppress(everything)
fn b() {}
// wlint: allow(panik) — typo
fn c() {}
// The retired artifact marker (any spacing after `wlint:`):
// wlint:  artifact
fn d() {}
