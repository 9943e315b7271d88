// Fixture: D8 — entropy laundered two calls deep. `laundered` imports the
// taint directly; `perturb` transitively. `stream_blend` threads an explicit
// seed parameter, so its *transitive* taint is absolved (no third report).
fn laundered() -> u64 {
    crate::rng::ambient_jitter()
}

/// Nondeterministic on purpose (fixture): the D8 drill target.
pub(crate) fn perturb(x: u64) -> u64 {
    x ^ laundered()
}

/// Deterministic: pure fn of `seed` and `x` once the chain is absolved.
pub(crate) fn stream_blend(seed: u64, x: u64) -> u64 {
    x ^ laundered() ^ seed
}
