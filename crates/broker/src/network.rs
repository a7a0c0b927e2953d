//! Topology builders for multi-broker deployments — the shapes used in
//! the paper's benchmarks: chains for the hop-count sweeps (Figure 1),
//! stars for the tracker-scaling runs (Figure 3).
//!
//! Links can run over three media, mirroring the paper's transport
//! comparison: the deterministic simulated network (default), real TCP
//! over loopback, or real UDP over loopback.

use crate::client::BrokerClient;
use crate::node::{Broker, BrokerConfig};
use crate::Result;
use nb_telemetry::NodeSpans;
use nb_transport::clock::SharedClock;
use nb_transport::endpoint::Endpoint;
use nb_transport::sim::{LinkConfig, LinkId, SimNetwork};
use nb_transport::{tcp, udp};
use std::time::Duration;

/// The link medium for a broker network.
#[derive(Debug, Clone, Copy)]
pub enum Medium {
    /// In-process simulated links with the given behaviour.
    Sim(LinkConfig),
    /// Real TCP streams over 127.0.0.1 (length-prefixed frames).
    Tcp,
    /// Real UDP datagrams over 127.0.0.1.
    Udp,
}

impl Medium {
    /// Creates one link pair; simulated links also report the
    /// [`LinkId`] handle used for fault injection (real-socket media
    /// return `None` — their faults come from the OS, not a script).
    fn pair(&self, net: &SimNetwork) -> Result<(Endpoint, Endpoint, Option<LinkId>)> {
        match self {
            Medium::Sim(cfg) => {
                let (a, b, id) = net.symmetric_link_with_id(*cfg);
                Ok((a, b, Some(id)))
            }
            Medium::Tcp => {
                // The kernel completes a loopback handshake into the
                // listen backlog, so one thread connects, then accepts.
                let listener = tcp::TcpTransportListener::bind("127.0.0.1:0")?;
                let client = tcp::connect(listener.local_addr()?)?;
                let server = listener.accept()?;
                Ok((server, client, None))
            }
            Medium::Udp => {
                let (a, b) = udp::loopback_pair()?;
                Ok((a, b, None))
            }
        }
    }
}

/// A set of brokers wired over one medium. Dropping it shuts every
/// broker down ([`Broker::shutdown`]).
pub struct BrokerNetwork {
    /// The broker nodes, in construction order.
    pub brokers: Vec<Broker>,
    /// Neighbour count each broker reaches once the mesh is up
    /// (mirrors the links laid down by the topology builder).
    expected_degree: Vec<usize>,
    /// Inter-broker links in construction order (chain: link `i` joins
    /// brokers `i` and `i+1`; star: link `i` joins the hub and spoke
    /// `i+1`). `None` for real-socket media.
    links: Vec<Option<LinkId>>,
    net: SimNetwork,
    clock: SharedClock,
    medium: Medium,
}

impl BrokerNetwork {
    /// Builds a chain `b0 — b1 — … — b(n-1)` over simulated links.
    pub fn chain(
        n: usize,
        link_cfg: LinkConfig,
        clock: SharedClock,
        broker_cfg: BrokerConfig,
    ) -> Self {
        Self::chain_over(n, Medium::Sim(link_cfg), clock, broker_cfg)
            .expect("sim chain construction cannot fail")
    }

    /// Builds a chain over an arbitrary medium.
    pub fn chain_over(
        n: usize,
        medium: Medium,
        clock: SharedClock,
        broker_cfg: BrokerConfig,
    ) -> Result<Self> {
        assert!(n >= 1);
        let net = SimNetwork::new(0x10b0);
        let brokers: Vec<Broker> = (0..n)
            .map(|i| Broker::new(format!("broker-{i}"), clock.clone(), broker_cfg.clone()))
            .collect();
        let mut expected_degree = vec![0usize; n];
        let mut links = Vec::new();
        for i in 0..n.saturating_sub(1) {
            let (a, b, id) = medium.pair(&net)?;
            brokers[i].connect_neighbor(a);
            brokers[i + 1].connect_neighbor(b);
            expected_degree[i] += 1;
            expected_degree[i + 1] += 1;
            links.push(id);
        }
        Ok(BrokerNetwork {
            brokers,
            expected_degree,
            links,
            net,
            clock,
            medium,
        })
    }

    /// Builds a star over simulated links: broker 0 is the hub,
    /// brokers `1..=leaves` are spokes.
    pub fn star(
        leaves: usize,
        link_cfg: LinkConfig,
        clock: SharedClock,
        broker_cfg: BrokerConfig,
    ) -> Self {
        Self::star_over(leaves, Medium::Sim(link_cfg), clock, broker_cfg)
            .expect("sim star construction cannot fail")
    }

    /// Builds a star over an arbitrary medium.
    pub fn star_over(
        leaves: usize,
        medium: Medium,
        clock: SharedClock,
        broker_cfg: BrokerConfig,
    ) -> Result<Self> {
        let net = SimNetwork::new(0x57a7);
        let brokers: Vec<Broker> = (0..=leaves)
            .map(|i| Broker::new(format!("broker-{i}"), clock.clone(), broker_cfg.clone()))
            .collect();
        let mut expected_degree = vec![0usize; leaves + 1];
        let mut links = Vec::new();
        for i in 1..=leaves {
            let (a, b, id) = medium.pair(&net)?;
            brokers[0].connect_neighbor(a);
            brokers[i].connect_neighbor(b);
            expected_degree[0] += 1;
            expected_degree[i] += 1;
            links.push(id);
        }
        Ok(BrokerNetwork {
            brokers,
            expected_degree,
            links,
            net,
            clock,
            medium,
        })
    }

    /// A broker by index.
    pub fn broker(&self, idx: usize) -> &Broker {
        &self.brokers[idx]
    }

    /// Number of brokers.
    pub fn len(&self) -> usize {
        self.brokers.len()
    }

    /// Whether the network has no brokers.
    pub fn is_empty(&self) -> bool {
        self.brokers.is_empty()
    }

    /// Attaches a new client to broker `idx` over the network's
    /// default medium.
    pub fn attach_client(&self, idx: usize, client_id: &str) -> Result<BrokerClient> {
        self.attach_client_over(idx, client_id, self.medium)
    }

    /// Attaches a client over a custom-behaviour simulated link.
    pub fn attach_client_with(
        &self,
        idx: usize,
        client_id: &str,
        link_cfg: LinkConfig,
    ) -> Result<BrokerClient> {
        self.attach_client_over(idx, client_id, Medium::Sim(link_cfg))
    }

    /// Attaches a client over an explicit medium.
    pub fn attach_client_over(
        &self,
        idx: usize,
        client_id: &str,
        medium: Medium,
    ) -> Result<BrokerClient> {
        let (broker_side, client_side, _link) = medium.pair(&self.net)?;
        self.brokers[idx].attach_client(broker_side);
        BrokerClient::attach(
            client_side,
            client_id,
            self.clock.clone(),
            Duration::from_secs(5),
        )
    }

    /// Captures every broker's flight recorder, in broker order —
    /// ready for `nb_telemetry::json_lines` / `chrome_trace`.
    pub fn telemetry_spans(&self) -> Vec<NodeSpans> {
        self.brokers
            .iter()
            .map(|b| NodeSpans::capture(b.flight_recorder()))
            .collect()
    }

    /// The [`LinkId`] of inter-broker link `idx` (construction order —
    /// see the `links` field docs). `None` for real-socket media.
    pub fn link_id(&self, idx: usize) -> Option<LinkId> {
        self.links.get(idx).copied().flatten()
    }

    /// Number of inter-broker links laid down by the topology builder.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Downs inter-broker link `idx` (simulated media only): its frames
    /// wait until [`BrokerNetwork::restore_link`] delivers them, as a
    /// TCP connection's do through a transient outage (see
    /// [`SimNetwork::drop_link`]). Returns whether the link was
    /// scriptable.
    pub fn drop_link(&self, idx: usize) -> bool {
        self.link_id(idx).map(|id| self.net.drop_link(id)).is_some()
    }

    /// Heals inter-broker link `idx`, delivering what waited. Returns
    /// whether the link was scriptable.
    pub fn restore_link(&self, idx: usize) -> bool {
        self.link_id(idx).map(|id| self.net.restore(id)).is_some()
    }

    /// Makes inter-broker link `idx` drop frames with probability `p`
    /// for `duration`. Returns whether the link was scriptable.
    pub fn flaky_link(&self, idx: usize, p: f64, duration: Duration) -> bool {
        self.link_id(idx)
            .map(|id| self.net.flaky(id, p, duration))
            .is_some()
    }

    /// Downs every listed inter-broker link at once — a partition.
    /// Returns how many links were scriptable.
    pub fn partition(&self, link_idxs: &[usize]) -> usize {
        link_idxs
            .iter()
            .filter(|&&idx| self.drop_link(idx))
            .count()
    }

    /// Installs a frame-rewriting adversary on inter-broker link `idx`
    /// (simulated media only): every frame crossing the link, in both
    /// directions, passes through `f` before delivery. Returns whether
    /// the link was scriptable. See [`SimNetwork::tamper`].
    pub fn tamper_link<F>(&self, idx: usize, f: F) -> bool
    where
        F: Fn(Vec<u8>) -> Vec<u8> + Send + Sync + 'static,
    {
        self.link_id(idx).map(|id| self.net.tamper(id, f)).is_some()
    }

    /// Installs a replay adversary on inter-broker link `idx`: every
    /// frame is delivered `1 + copies` times. Returns whether the link
    /// was scriptable. See [`SimNetwork::replay`].
    pub fn replay_link(&self, idx: usize, copies: u32) -> bool {
        self.link_id(idx)
            .map(|id| self.net.replay(id, copies))
            .is_some()
    }

    /// The underlying simulated network (fault scripting against
    /// client links created with
    /// [`BrokerNetwork::attach_client_with`]).
    pub fn sim(&self) -> &SimNetwork {
        &self.net
    }

    /// Waits until every broker has registered its expected
    /// neighbours (startup barrier for tests/benches).
    ///
    /// Event-driven: each broker blocks on
    /// [`Broker::wait_for_neighbors`], which is woken by the neighbour
    /// workers the moment a registration lands — no sleep-polling, so
    /// the barrier releases as soon as the last handshake completes.
    pub fn wait_for_mesh(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        self.brokers
            .iter()
            .zip(&self.expected_degree)
            .all(|(broker, &want)| {
                let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                broker.wait_for_neighbors(want, remaining)
            })
    }
}

impl Drop for BrokerNetwork {
    /// Closes every broker's links before it waits for any broker's
    /// threads, so no broker reads a peer's shutdown as a departure and
    /// the closes overlap (a UDP reader exits on its next poll). When
    /// this returns, every link worker of the network has exited.
    fn drop(&mut self) {
        for broker in &self.brokers {
            broker.close_links();
        }
        for broker in &self.brokers {
            broker.shutdown();
        }
    }
}
