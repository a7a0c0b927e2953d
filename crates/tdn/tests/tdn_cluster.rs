//! TDN behaviour: authorized creation/discovery, replication,
//! failure tolerance, expiry.

use nb_crypto::cert::{CertificateAuthority, Credential, Validity};
use nb_crypto::Uuid;
use nb_tdn::{Tdn, TdnCluster};
use nb_transport::clock::{Clock, MockClock};
use nb_wire::payload::DiscoveryRestrictions;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const NOW: u64 = 1_700_000_000_000;
const HOUR: u64 = 3_600_000;

struct Fixture {
    ca: CertificateAuthority,
    clock: MockClock,
    cluster: TdnCluster,
    entity: Credential,
    tracker: Credential,
    outsider: Credential,
}

fn fixture(n: usize) -> Fixture {
    let mut rng = StdRng::seed_from_u64(0x7d9);
    let clock = MockClock::new(NOW);
    let validity = Validity::starting_now(NOW - 1000, 365 * 24 * HOUR);
    let mut ca = CertificateAuthority::new("ca", 512, validity, &mut rng).unwrap();
    let shared: Arc<dyn Clock> = Arc::new(clock.clone());
    let cluster = TdnCluster::new(n, &mut ca, validity, shared, &mut rng).unwrap();
    let entity = ca.issue("entity:e1", validity, &mut rng).unwrap();
    let tracker = ca.issue("tracker:t1", validity, &mut rng).unwrap();
    let outsider = ca.issue("outsider:o1", validity, &mut rng).unwrap();
    Fixture {
        ca,
        clock,
        cluster,
        entity,
        tracker,
        outsider,
    }
}

fn restricted_to(subject: &str) -> DiscoveryRestrictions {
    DiscoveryRestrictions::AllowedSubjects(vec![subject.to_string()])
}

#[test]
fn topic_creation_produces_verifiable_advertisement() {
    let fx = fixture(3);
    let advert = fx
        .cluster
        .create_topic(
            &fx.entity.certificate,
            "Availability/Traces/e1",
            DiscoveryRestrictions::Open,
            HOUR,
        )
        .unwrap();
    assert_eq!(advert.descriptor, "Availability/Traces/e1");
    assert_eq!(advert.owner_cert.subject, "entity:e1");
    // Verifies against the issuing TDN's key.
    let key = fx.cluster.tdn_key(&advert.tdn_id).unwrap();
    advert.verify(&key).unwrap();
    // UUID is v4 (generated at the TDN).
    assert_eq!(advert.topic_id.version(), 4);
}

#[test]
fn advertisement_replicates_to_all_members() {
    let fx = fixture(3);
    fx.cluster
        .create_topic(
            &fx.entity.certificate,
            "Availability/Traces/e1",
            DiscoveryRestrictions::Open,
            HOUR,
        )
        .unwrap();
    for i in 0..3 {
        assert_eq!(fx.cluster.node(i).advert_count(), 1, "node {i}");
    }
}

#[test]
fn discovery_by_liveness_query() {
    let fx = fixture(2);
    fx.cluster
        .create_topic(
            &fx.entity.certificate,
            "Availability/Traces/e1",
            DiscoveryRestrictions::Open,
            HOUR,
        )
        .unwrap();
    let found = fx.cluster.discover("/Liveness/e1", &fx.tracker.certificate);
    assert_eq!(found.len(), 1);
    assert!(fx
        .cluster
        .discover("/Liveness/e2", &fx.tracker.certificate)
        .is_empty());
}

#[test]
fn discovery_restrictions_are_enforced_silently() {
    let fx = fixture(2);
    fx.cluster
        .create_topic(
            &fx.entity.certificate,
            "Availability/Traces/e1",
            restricted_to("tracker:t1"),
            HOUR,
        )
        .unwrap();
    // Authorized tracker finds it.
    assert_eq!(
        fx.cluster
            .discover("/Liveness/e1", &fx.tracker.certificate)
            .len(),
        1
    );
    // The outsider gets an empty answer, indistinguishable from
    // "no such topic".
    assert!(fx
        .cluster
        .discover("/Liveness/e1", &fx.outsider.certificate)
        .is_empty());
}

#[test]
fn forged_certificates_discover_nothing() {
    let fx = fixture(1);
    fx.cluster
        .create_topic(
            &fx.entity.certificate,
            "Availability/Traces/e1",
            DiscoveryRestrictions::Open,
            HOUR,
        )
        .unwrap();
    let mut forged = fx.tracker.certificate.clone();
    forged.subject = "tracker:forged".to_string();
    assert!(fx.cluster.discover("/Liveness/e1", &forged).is_empty());
}

#[test]
fn topic_creation_rejects_bad_credentials() {
    let fx = fixture(1);
    let mut forged = fx.entity.certificate.clone();
    forged.subject = "entity:mallory".to_string();
    assert!(fx
        .cluster
        .create_topic(
            &forged,
            "Availability/Traces/m",
            DiscoveryRestrictions::Open,
            HOUR
        )
        .is_err());
}

#[test]
fn cluster_survives_member_failure() {
    let fx = fixture(3);
    fx.cluster
        .create_topic(
            &fx.entity.certificate,
            "Availability/Traces/e1",
            DiscoveryRestrictions::Open,
            HOUR,
        )
        .unwrap();
    // The primary (node 0) fails; discovery still works.
    fx.cluster.fail_node(0);
    assert_eq!(
        fx.cluster
            .discover("/Liveness/e1", &fx.tracker.certificate)
            .len(),
        1
    );
    // New topics can still be created and replicate to survivors.
    fx.cluster
        .create_topic(
            &fx.entity.certificate,
            "Availability/Traces/e2",
            DiscoveryRestrictions::Open,
            HOUR,
        )
        .unwrap();
    assert_eq!(fx.cluster.node(1).advert_count(), 2);
    assert_eq!(fx.cluster.node(2).advert_count(), 2);
    // The failed node missed the second advert.
    assert_eq!(fx.cluster.node(0).advert_count(), 1);
}

#[test]
fn revived_member_heals_via_resync() {
    let fx = fixture(3);
    fx.cluster.fail_node(2);
    fx.cluster
        .create_topic(
            &fx.entity.certificate,
            "Availability/Traces/e1",
            DiscoveryRestrictions::Open,
            HOUR,
        )
        .unwrap();
    assert_eq!(fx.cluster.node(2).advert_count(), 0);
    fx.cluster.revive_node(2);
    let copied = fx.cluster.resync(2).unwrap();
    assert_eq!(copied, 1);
    assert_eq!(fx.cluster.node(2).advert_count(), 1);
}

#[test]
fn lifetimes_expire_advertisements() {
    let fx = fixture(1);
    fx.cluster
        .create_topic(
            &fx.entity.certificate,
            "Availability/Traces/e1",
            DiscoveryRestrictions::Open,
            HOUR,
        )
        .unwrap();
    assert_eq!(
        fx.cluster
            .discover("/Liveness/e1", &fx.tracker.certificate)
            .len(),
        1
    );
    fx.clock.advance(HOUR + 1);
    // Expired advertisements no longer discoverable…
    assert!(fx
        .cluster
        .discover("/Liveness/e1", &fx.tracker.certificate)
        .is_empty());
    // …and are physically purged on demand.
    assert_eq!(fx.cluster.node(0).purge_expired(), 1);
    assert_eq!(fx.cluster.node(0).advert_count(), 0);
}

#[test]
fn replication_rejects_unknown_or_tampered_peers() {
    let fx = fixture(2);
    let advert = fx
        .cluster
        .create_topic(
            &fx.entity.certificate,
            "Availability/Traces/e1",
            DiscoveryRestrictions::Open,
            HOUR,
        )
        .unwrap();

    // A standalone TDN that never met the cluster.
    let mut rng = StdRng::seed_from_u64(0x111);
    let validity = Validity::starting_now(NOW - 1000, 365 * 24 * HOUR);
    let mut other_ca = CertificateAuthority::new("other-ca", 512, validity, &mut rng).unwrap();
    let cred = other_ca.issue("tdn:stranger", validity, &mut rng).unwrap();
    let stranger = Tdn::new(
        "tdn-stranger",
        cred,
        other_ca.certificate().public_key.clone(),
        Arc::new(fx.clock.clone()),
        1,
    );
    assert!(stranger.replicate(advert.clone()).is_err());

    // A tampered advert fails signature verification at a peer.
    let mut tampered = advert;
    tampered.descriptor = "Availability/Traces/hijacked".to_string();
    assert!(fx.cluster.node(1).replicate(tampered).is_err());
}

#[test]
fn compromised_topic_can_be_replaced() {
    // §5.2: "In the unlikely event that this trace topic was
    // compromised, a trace entity can register another trace topic."
    let fx = fixture(2);
    let first = fx
        .cluster
        .create_topic(
            &fx.entity.certificate,
            "Availability/Traces/e1",
            restricted_to("tracker:t1"),
            HOUR,
        )
        .unwrap();
    let second = fx
        .cluster
        .create_topic(
            &fx.entity.certificate,
            "Availability/Traces/e1",
            restricted_to("tracker:t1"),
            HOUR,
        )
        .unwrap();
    assert_ne!(first.topic_id, second.topic_id);
    // Both advertise the same descriptor; discovery returns both.
    assert_eq!(
        fx.cluster
            .discover("/Liveness/e1", &fx.tracker.certificate)
            .len(),
        2
    );
}

#[test]
fn lookup_by_uuid_bypasses_descriptor_search() {
    let fx = fixture(1);
    let advert = fx
        .cluster
        .create_topic(
            &fx.entity.certificate,
            "Availability/Traces/e1",
            DiscoveryRestrictions::Open,
            HOUR,
        )
        .unwrap();
    assert!(fx.cluster.node(0).advertisement(&advert.topic_id).is_some());
    let mut rng = StdRng::seed_from_u64(5);
    assert!(fx
        .cluster
        .node(0)
        .advertisement(&Uuid::new_v4(&mut rng))
        .is_none());
}

// Silence the unused-field warning: the CA is part of the fixture API
// for tests that extend it.
#[test]
fn fixture_ca_issues_further_credentials() {
    let mut fx = fixture(1);
    let mut rng = StdRng::seed_from_u64(0x222);
    let validity = Validity::starting_now(NOW - 1000, HOUR);
    let cred = fx.ca.issue("entity:extra", validity, &mut rng).unwrap();
    assert_eq!(cred.subject(), "entity:extra");
}
