// Fixture: D9 — `MessageKind` is declared through a macro, so the item
// parser sees `enum MessageKind` with no variants and a policy entry for it
// would check nothing.
macro_rules! kinds {
    ($($kind:ident),*) => {
        pub enum MessageKind {
            $($kind),*
        }
    };
}

kinds!(Probe, Lookup);
