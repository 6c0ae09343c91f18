//! Directed links: one 32-bit word per cycle, zero-latency wires between
//! registered endpoints.
//!
//! A physical Æthereal link is a pair of opposite directed links. The wire
//! itself is combinational — a word emitted by the producer in cycle *t* is
//! registered by the consumer at the end of cycle *t* — so all transport
//! latency lives in the router pipeline (one slot per hop for GT, one cycle
//! of arbitration for BE), which keeps the TDM slot alignment arithmetic
//! exact.

use crate::topology::Endpoint;
use crate::word::LinkWord;

/// Identifies a directed link inside a [`Noc`](crate::Noc).
pub type LinkId = usize;

/// A directed link and the word currently on its wire.
#[derive(Debug, Clone)]
pub struct LinkState {
    /// Producing endpoint.
    pub src: Endpoint,
    /// Consuming endpoint.
    pub dst: Endpoint,
    /// The word on the wire this cycle (cleared after the absorb phase).
    pub wire: Option<LinkWord>,
}

impl LinkState {
    /// Creates an idle link.
    pub fn new(src: Endpoint, dst: Endpoint) -> Self {
        LinkState {
            src,
            dst,
            wire: None,
        }
    }

    /// Walks the link's dynamic state through a state visitor (see
    /// [`crate::persist`]): the wire; the endpoints are structural.
    pub fn walk(&mut self, p: &mut dyn crate::persist::StateVisit) {
        crate::persist::persist_opt_word(&mut self.wire, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::WordClass;

    #[test]
    fn new_link_is_idle() {
        let l = LinkState::new(
            Endpoint::Ni { ni: 0 },
            Endpoint::Router { router: 1, port: 4 },
        );
        assert!(l.wire.is_none());
        assert_eq!(l.src, Endpoint::Ni { ni: 0 });
    }

    #[test]
    fn wire_holds_one_word() {
        let mut l = LinkState::new(Endpoint::Ni { ni: 0 }, Endpoint::Ni { ni: 1 });
        l.wire = Some(LinkWord::header(9, WordClass::BestEffort));
        assert_eq!(l.wire.unwrap().word(), 9);
    }
}
