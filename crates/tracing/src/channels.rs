//! Auxiliary (non-constrained) topics used by the runtimes.

use nb_wire::Topic;

/// Where a broker publishes the (sealed) registration response for an
/// entity. The entity subscribes here before registering, solving the
/// bootstrap: the §3.2 session channels only exist once the session id
/// has been delivered.
pub fn registration_reply(entity_id: &str) -> Topic {
    Topic::parse(&format!("/Traces/Entities/{entity_id}/Registration"))
        .expect("valid registration reply topic")
}

/// Where a tracker expects sealed trace-key deliveries (§5.1). Carried
/// in the tracker's interest response as the `reply_topic`.
pub fn key_delivery(tracker_id: &str) -> Topic {
    Topic::parse(&format!("/Traces/Trackers/{tracker_id}/KeyDelivery"))
        .expect("valid key delivery topic")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_are_distinct_per_principal() {
        assert_ne!(registration_reply("a"), registration_reply("b"));
        assert_ne!(key_delivery("a"), key_delivery("b"));
        assert_ne!(registration_reply("a"), key_delivery("a"));
    }

    #[test]
    fn channels_are_not_constrained_topics() {
        use nb_wire::constrained::ConstrainedTopic;
        assert!(ConstrainedTopic::parse(&registration_reply("e"))
            .unwrap()
            .is_none());
        assert!(ConstrainedTopic::parse(&key_delivery("t"))
            .unwrap()
            .is_none());
    }
}
