// Fixture: D8 defused — the reviewed allow at the importing call site stops
// the flow, so `tagged` (the caller) stays clean too.
fn laundered_tag() -> u64 {
    // ddelint::allow(det-taint, "fixture: jitter feeds a debug tag, never an estimate")
    crate::rng::ambient_jitter()
}

/// Deterministic in results: the jitter tag is debug-only (see allow above).
pub(crate) fn tagged(x: u64) -> u64 {
    x ^ laundered_tag()
}
