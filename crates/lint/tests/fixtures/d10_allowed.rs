// Fixture: D10 clean — whitelisted reads/probes plus one reviewed mutation
// behind a reasoned allow.
pub(crate) fn survey(net: &mut Network, origin: RingId) -> usize {
    let mut seen = net.len();
    if net.is_alive(origin) {
        seen += 1;
    }
    if let Some(replies) = net.probe_wave(origin, &[origin]) {
        seen += replies.len();
    }
    // ddelint::allow(sans-io, "fixture: reviewed repair path — the driver contract is documented at the call site")
    net.rewire_perfectly();
    seen
}
