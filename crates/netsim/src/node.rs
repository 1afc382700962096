//! Nodes: routers and hosts.
//!
//! A node owns a routing table (exact-match host routes plus an optional
//! default route), a set of locally attached addresses (delivered up to
//! agents), and an ordered chain of packet filters — the hook the MAFIC
//! dropper and the LogLog taps attach to, mirroring the NS-2 `Connector`
//! objects the paper inserts at link heads.

use crate::filter::PacketFilter;
use crate::ids::{Addr, AgentId, LinkId, NodeId};

/// A router or host in the simulated domain.
///
/// Routing and local-binding tables are address-sorted `Vec`s: per-node
/// tables are small (host routes plus attached addresses), so a binary
/// search over a dense array beats a `BTreeMap`'s pointer chases on the
/// per-hop path, and sorted order keeps every table walk deterministic —
/// the simulation crates ban `std::collections::HashMap` (see
/// `clippy.toml`).
pub(crate) struct Node {
    pub(crate) id: NodeId,
    pub(crate) name: String,
    /// Host routes, sorted by destination address.
    routes: Vec<(Addr, LinkId)>,
    default_route: Option<LinkId>,
    /// Memo of the most recent `route_for` lookup. Forwarding is heavily
    /// skewed toward one destination (the victim), so this turns most
    /// route lookups into a single compare. Invalidated on any table
    /// change; a hit always equals what the table would answer.
    last_route: Option<(Addr, Option<LinkId>)>,
    /// Locally attached addresses, sorted; hosts carry one or two entries.
    local: Vec<(Addr, AgentId)>,
    pub(crate) filters: Vec<Box<dyn PacketFilter>>,
}

impl Node {
    pub(crate) fn new(id: NodeId, name: String) -> Self {
        Node {
            id,
            name,
            routes: Vec::new(),
            default_route: None,
            last_route: None,
            local: Vec::new(),
            filters: Vec::new(),
        }
    }

    /// Installs or replaces a host route.
    pub(crate) fn add_route(&mut self, dst: Addr, via: LinkId) {
        match self.routes.binary_search_by_key(&dst, |&(a, _)| a) {
            Ok(i) => self.routes[i].1 = via,
            Err(i) => self.routes.insert(i, (dst, via)),
        }
        self.last_route = None;
    }

    /// Installs or replaces many host routes with one sort: equivalent to
    /// calling [`Node::add_route`] for each entry in order, so a later
    /// entry for the same destination wins.
    pub(crate) fn add_routes(&mut self, routes: Vec<(Addr, LinkId)>) {
        if self.routes.is_empty() {
            self.routes = routes;
        } else {
            self.routes.extend(routes);
        }
        // Stable: equal destinations keep their install order, and the
        // dedup below then keeps the last of each run.
        self.routes.sort_by_key(|&(dst, _)| dst);
        self.routes.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        self.last_route = None;
    }

    /// Sets the default route used when no host route matches.
    pub(crate) fn set_default_route(&mut self, via: Option<LinkId>) {
        self.default_route = via;
        self.last_route = None;
    }

    /// Next-hop link for `dst`, if any.
    pub(crate) fn route_for(&mut self, dst: Addr) -> Option<LinkId> {
        if let Some((memo_dst, via)) = self.last_route {
            if memo_dst == dst {
                return via;
            }
        }
        let via = self
            .routes
            .binary_search_by_key(&dst, |&(a, _)| a)
            .ok()
            .map(|i| self.routes[i].1)
            .or(self.default_route);
        self.last_route = Some((dst, via));
        via
    }

    /// Binds a local address to an agent (delivery up the stack).
    pub(crate) fn bind_local(&mut self, addr: Addr, agent: AgentId) {
        match self.local.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) => self.local[i].1 = agent,
            Err(i) => self.local.insert(i, (addr, agent)),
        }
    }

    /// The agent bound to `addr` on this node, if any.
    pub(crate) fn local_agent(&self, addr: Addr) -> Option<AgentId> {
        // Hosts carry one or two bindings; a linear scan beats a binary
        // search's branch setup at these sizes.
        self.local
            .iter()
            .find(|&&(a, _)| a == addr)
            .map(|&(_, agent)| agent)
    }

    /// True if `addr` is attached to this node.
    pub(crate) fn is_local(&self, addr: Addr) -> bool {
        self.local.iter().any(|&(a, _)| a == addr)
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("routes", &self.routes.len())
            .field("default_route", &self.default_route)
            .field("local", &self.local.len())
            .field("filters", &self.filters.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_prefers_host_routes_over_default() {
        let mut n = Node::new(NodeId(0), "r0".into());
        let a = Addr::from_octets(10, 0, 0, 1);
        n.set_default_route(Some(LinkId(9)));
        n.add_route(a, LinkId(3));
        assert_eq!(n.route_for(a), Some(LinkId(3)));
        assert_eq!(n.route_for(Addr::from_octets(10, 0, 0, 2)), Some(LinkId(9)));
    }

    /// Bulk install must leave the same table as one `add_route` per
    /// entry in order: sorted, one entry per destination, last one wins,
    /// and pre-existing routes overridden or kept.
    #[test]
    fn bulk_routes_equal_one_by_one_installs() {
        let batch = vec![
            (Addr::new(7), LinkId(1)),
            (Addr::new(2), LinkId(2)),
            (Addr::new(7), LinkId(3)),
            (Addr::new(5), LinkId(4)),
            (Addr::new(2), LinkId(5)),
            (Addr::new(9), LinkId(6)),
        ];
        for existing in [
            vec![],
            vec![(Addr::new(5), LinkId(8)), (Addr::new(1), LinkId(8))],
        ] {
            let mut one_by_one = Node::new(NodeId(0), "a".into());
            let mut bulk = Node::new(NodeId(0), "b".into());
            for &(dst, via) in &existing {
                one_by_one.add_route(dst, via);
                bulk.add_route(dst, via);
            }
            // Warm the lookup memo so a stale answer would show.
            assert_eq!(
                bulk.route_for(Addr::new(5)),
                one_by_one.route_for(Addr::new(5))
            );
            for &(dst, via) in &batch {
                one_by_one.add_route(dst, via);
            }
            bulk.add_routes(batch.clone());
            assert_eq!(bulk.routes, one_by_one.routes);
            for dst in 0..12 {
                assert_eq!(
                    bulk.route_for(Addr::new(dst)),
                    one_by_one.route_for(Addr::new(dst))
                );
            }
        }
    }

    #[test]
    fn no_route_without_default() {
        let mut n = Node::new(NodeId(0), "r0".into());
        assert_eq!(n.route_for(Addr::new(5)), None);
    }

    #[test]
    fn local_binding() {
        let mut n = Node::new(NodeId(0), "h0".into());
        let a = Addr::from_octets(10, 0, 0, 1);
        assert!(!n.is_local(a));
        n.bind_local(a, AgentId(7));
        assert!(n.is_local(a));
        assert_eq!(n.local_agent(a), Some(AgentId(7)));
        assert_eq!(n.local_agent(Addr::new(1)), None);
    }

    #[test]
    fn debug_shows_counts() {
        let mut n = Node::new(NodeId(1), "r1".into());
        n.add_route(Addr::new(1), LinkId(0));
        let text = format!("{n:?}");
        assert!(text.contains("r1"));
        assert!(text.contains("routes: 1"));
    }
}
