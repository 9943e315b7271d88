// Fixture: D10 — direct Network mutation inside a sans-IO module: one
// method call on the `net` receiver, one `Network::` path call.
pub(crate) fn probe_then_mutate(net: &mut Network, origin: RingId) -> usize {
    let before = net.len();
    net.bulk_join(4);
    Network::rewire_perfectly(net);
    before
}
