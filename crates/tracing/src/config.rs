//! Tuning knobs for the tracing scheme.

use std::time::Duration;

/// Size of the per-entity ping history (the paper keeps the last 10).
pub const PING_WINDOW: usize = 10;

/// Lifetime of minted authorization tokens, ms.
pub const TOKEN_LIFETIME_MS: u64 = 60_000;

/// Trace session-key lifetime, ms (rotated at 3/4 of it; see
/// `nb_crypto::SessionKeyring::needs_rotation`).
pub const SESSION_LIFETIME_MS: u64 = 600_000;

/// How a traced entity authenticates its messages to its hosting
/// broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigningMode {
    /// Every message carries an RSA/SHA-1 signature (the paper's base
    /// scheme, §4.2).
    RsaSign,
    /// After a sealed key exchange, messages carry an HMAC under the
    /// shared session key instead — "the encryption/decryption costs
    /// are cheaper than the corresponding signing/verification cost"
    /// (§6.3 optimization).
    SymmetricKey,
}

/// Engine/entity configuration.
#[derive(Debug, Clone)]
pub struct TracingConfig {
    /// Cipher mode negotiated for encrypted traces (§5.1 sends "the
    /// encryption algorithm and padding scheme" with the trace key).
    pub trace_cipher: nb_crypto::modes::CipherMode,
    /// Base interval between pings to a healthy entity.
    pub ping_interval: Duration,
    /// Floor for the adaptive interval (the interval halves on
    /// consecutive losses "to hasten the failure detection").
    pub min_ping_interval: Duration,
    /// Time the broker waits for a ping response before recording a
    /// loss.
    pub response_timeout: Duration,
    /// Consecutive losses before FAILURE_SUSPICION is published.
    pub suspicion_threshold: usize,
    /// Additional consecutive losses (beyond suspicion) before FAILED.
    pub failure_threshold: usize,
    /// Scheduler tick for the engine's background thread.
    pub tick: Duration,
    /// Whether the engine's thread runs a scheduling pass every `tick`
    /// between messages. Disable for deterministic tests driven by
    /// [`crate::TracingEngine::tick_now`].
    pub auto_tick: bool,
    /// Interval between GAUGE_INTEREST probes.
    pub gauge_interval: Duration,
    /// Interval between NETWORK_METRICS publications.
    pub metrics_interval: Duration,
    /// RSA modulus size for delegate key pairs and session keys.
    /// The paper uses 1024; tests may use 512 for speed.
    pub rsa_bits: usize,
    /// Establish a per-(entity, tracker-set) trace session key at
    /// start-up: the entity announces an HMAC-SHA256 key via an
    /// RSA-signed, RSA-sealed handshake, and every trace publication
    /// then carries a cheap session MAC instead of relying on
    /// per-message RSA token verification (amortized RSA). Opt-in;
    /// traces keep carrying tokens either way, so receivers without
    /// the key fall back to the full RSA path.
    pub session_keys: bool,
    /// Messages a trace session key may tag before rotation is due.
    pub session_max_messages: u64,
    /// Causal-tracing settings, shared by the brokers, engines, entities
    /// and trackers of a deployment (see `docs/OBSERVABILITY.md`,
    /// "Causal tracing").
    pub telemetry: nb_telemetry::TelemetryConfig,
}

impl Default for TracingConfig {
    fn default() -> Self {
        TracingConfig {
            trace_cipher: nb_crypto::modes::CipherMode::Cbc,
            ping_interval: Duration::from_millis(500),
            min_ping_interval: Duration::from_millis(50),
            response_timeout: Duration::from_millis(250),
            suspicion_threshold: 3,
            failure_threshold: 3,
            tick: Duration::from_millis(20),
            auto_tick: true,
            gauge_interval: Duration::from_secs(5),
            metrics_interval: Duration::from_secs(2),
            rsa_bits: 1024,
            session_keys: false,
            session_max_messages: 1 << 16,
            telemetry: nb_telemetry::TelemetryConfig::default(),
        }
    }
}

impl TracingConfig {
    /// A configuration suited to fast, deterministic tests: small
    /// keys, manual ticking, short intervals.
    pub fn for_tests() -> Self {
        TracingConfig {
            trace_cipher: nb_crypto::modes::CipherMode::Cbc,
            ping_interval: Duration::from_millis(100),
            min_ping_interval: Duration::from_millis(10),
            response_timeout: Duration::from_millis(50),
            suspicion_threshold: 2,
            failure_threshold: 2,
            tick: Duration::from_millis(5),
            auto_tick: false,
            gauge_interval: Duration::from_millis(500),
            metrics_interval: Duration::from_millis(500),
            rsa_bits: 512,
            session_keys: false,
            session_max_messages: 1 << 16,
            telemetry: nb_telemetry::TelemetryConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_shaped() {
        let c = TracingConfig::default();
        assert_eq!(c.rsa_bits, 1024);
        assert_eq!(PING_WINDOW, 10);
        assert!(c.min_ping_interval < c.ping_interval);
        // §4.3: NTP keeps clocks within 30-100 ms.
        assert!((30..=100).contains(&nb_wire::token::CLOCK_SKEW_MS));
        // The TTL must let a trace cross the paper's longest chain.
        const { assert!(nb_telemetry::MAX_HOPS >= 6) };
    }

    #[test]
    fn test_profile_is_fast() {
        let c = TracingConfig::for_tests();
        assert!(!c.auto_tick);
        assert!(c.rsa_bits <= 512);
    }
}
